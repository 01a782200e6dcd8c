"""Command-line driver: run scenarios through engines, sweep couplings,
and run the validation suite.

Output contracts
----------------
JSON reports and CSV tables are deterministic: fixed key/column order,
floats printed with 17 significant digits, so identical flags produce
byte-identical files. Wall time is a diagnostic and goes to stderr, not
into the serialized payload.

CSV schema (version 1)::

    # schema=1
    k,ps_prob,re_extracted,im_extracted,re_direct,im_direct,abs_err,weakness_ratio
    ...rows ascending in k...
    # fitted_error_order=<least-squares log-log slope>   (sweep only)

Every engine call returns a ``MeasurementBatch``, one table of moments
with one named row per moment and one entry per coupling. A sweep,
single or joint, is one engine call: everything that does not depend on
the coupling strength is computed once, each extraction formula runs
once on the batch, and the CSV rows are formatted in one pass over one
(points x 8) table. ``run`` is the same path with a single point and
reads entry 0 of each row. A joint call passes ``with_singles=True`` and also gets the
batches of A and of B coupled alone, which the engine takes from the
eigensystems and pointer integrals of the pair; the single weak values
come from ``extract_single`` on those, the same pointer shifts that
give the correlation. The direct value ``<f|A|i>/<f|i>`` is only the
referee the result is checked against.

Exit codes: 0 success; 1 configuration/parse errors, including requests
whose arrays would exceed ``engines.MAX_ARRAY_BYTES``, couplings whose
pointer displacements would overflow (named as kx or ky), couplings
so weak that the moments the weak values are extracted from would fall
below the normal float range (named as K or Kx*Ky), and pointer units
whose momentum factor 2 sigma^2/hbar (4 sigma_y^2/hbar for a pair) is
0, subnormal or not finite (named as --sigma-x/--sigma-y and --hbar); 2
numerical failures (orthogonal post-selection, noncommuting observables
on the closed-form joint engine, a non-finite moment); 3
validation-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .engines import (
    DEFAULT_N_MAX,
    MOMENTS,
    STACK_OPERATORS,
    JointCoupling,
    MeasurementBatch,
    SingleCoupling,
    check_array_budget,
    run_fock,
    run_joint_exact,
    run_single_exact,
)
from .errors import NotCommuting, NumericalInconsistency, OrthogonalPostselection, WeaklabError
from .pointer import GaussianPointer
from .scenarios import PRESETS, Scenario, build_spin_amplifier, load_scenario
from .validation import run_all_checks
from .weakvalues import direct_joint_weak_value, direct_weak_value, extract_joint, extract_single

__all__ = ["main", "serialize_report"]

CSV_HEADER = (
    "k,ps_prob,re_extracted,im_extracted,re_direct,im_direct,abs_err,weakness_ratio"
)
#: One CSV data row, each column in the format of ``_fmt_float``:
#: formatted over ``table + 0.0``, it prints each x as _fmt_float(x).
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


# --- deterministic serialization -------------------------------------------


def _fmt_float(x: float) -> str:
    """x at 17 significant digits, the one float format of every JSON
    and CSV payload: adding 0.0 turns -0.0 into 0.0, printed as 0, and
    nan and +-inf print as nan, inf and -inf."""
    return "%.17g" % (float(x) + 0.0)


def _emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text of a report payload. Floats and strings,
    nearly every node of a report, are tested first; strings and keys go
    through the encoder ``json.dumps`` applies to them."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} in JSON report")
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        pad = "  " * indent
        inner = ",\n".join(
            f"{pad}  {_json_str(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _estimate_payload(values: np.ndarray) -> dict:
    """The payload of row 0 of an extracted single weak value; "kind"
    is the constant schema 1 gives it."""
    value = complex(values[0])
    return {"re": value.real, "im": value.imag, "kind": "extracted_single"}


def serialize_report(args, scn: Scenario, batch: MeasurementBatch, est: np.ndarray,
                     direct: complex, singles) -> str:
    """The JSON report of row 0 of a run of scenario scn with flags args:
    ``_execute``'s batch, extracted values, direct value and singles.
    kx, ky, sigma_x, sigma_y and hbar are read from the axes of the
    coupling the batch ran (ky and sigma_y null for single runs). abs_err
    is computed here from the extracted and direct values.
    ``singles_mode`` stays in schema 1's key set: "extracted" for joint
    runs, null for single runs."""
    (_, kx, pointer_x, _), *axis_y = batch.coupling.axes
    ky, pointer_y = axis_y[0][1:3] if axis_y else (None, None)
    extracted = complex(est[0])
    payload = {
        "schema": 1,
        "scenario": scn.name,
        "engine": args.engine,
        "observable": args.observable,
        "observable_b": args.observable_b,
        "kx": kx,
        "ky": ky,
        "sigma_x": pointer_x.sigma,
        "sigma_y": None if pointer_y is None else pointer_y.sigma,
        "hbar": pointer_x.hbar,
        "n_max": args.n_max if args.engine == "fock" else None,
        "singles_mode": None if singles is None else "extracted",
        "record": {
            **{name: getattr(batch, name)[0] for name in MOMENTS},
            "weakness_ratio": batch.weakness_ratio[0],
            "engine_tag": batch.engine_tag,
            "truncation_warning": bool(batch.truncation_warning[0]),
        },
        "singles": None
        if singles is None
        else {
            "a": _estimate_payload(singles[0]),
            "b": _estimate_payload(singles[1]),
        },
        "extracted": {"re": extracted.real, "im": extracted.imag},
        "direct": {"re": direct.real, "im": direct.imag},
        "abs_err": abs(extracted - direct),
        "weakness_ratio": batch.weakness_ratio[0],
    }
    return _emit_json(payload) + "\n"


def _csv_rows(ks, batch: MeasurementBatch, extracted: np.ndarray, direct: complex):
    """The CSV data rows of a batch run at couplings ks, and their
    abs_err column. One (points x 8) table is formatted in one pass;
    abs_err is hypot of the part differences, which is
    abs(extracted - direct) for each row."""
    re, im = extracted.real, extracted.imag
    abs_err = np.hypot(re - direct.real, im - direct.imag)
    n = len(re)
    table = np.array([ks, batch.ps_prob, re, im, np.full(n, direct.real),
                      np.full(n, direct.imag), abs_err, batch.weakness_ratio]).T + 0.0
    return "".join([_CSV_ROW % tuple(row) for row in table.tolist()]), abs_err


def fit_error_order(ks, errs) -> float:
    """Least-squares slope of log|err| vs log k over usable points, or
    nan unless they hold at least two distinct k."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = (ks > 0) & (errs > 0) & np.isfinite(errs)
    usable = ks[mask]
    # np.unique would import numpy.ma, 1.7 MB of resident memory
    if (usable == usable[:1]).all():
        return float("nan")
    slope = np.polyfit(np.log(usable), np.log(errs[mask]), 1)[0]
    return float(slope)


# --- run pipeline -----------------------------------------------------------


def _scenario(args) -> Scenario:
    """The scenario --scenario names: the spin preset at --alpha, another
    preset, or a scenario file. Then refuses --ky or --sigma-y without
    --observable-b."""
    name = args.scenario
    if name == "spin":
        scn = build_spin_amplifier(args.alpha)
    elif name in PRESETS:
        scn = PRESETS[name]()
    elif Path(name).exists():
        scn = load_scenario(Path(name).read_text())
    else:
        raise UsageError(
            f"unknown scenario {name!r}: not a preset "
            f"({', '.join(sorted(PRESETS))}) or an existing file"
        )
    if args.observable_b is None:
        for flag, value in (("--ky", args.ky), ("--sigma-y", args.sigma_y)):
            if value is not None:
                raise UsageError(f"{flag} requires --observable-b")
    return scn


def _execute(args, scn: Scenario, kx: float, ky: float, scales: list[float]):
    """The one engine call of a run or sweep of scenario scn with flags
    args, at couplings t (kx, ky) for each scale t, with extraction and
    ground truth; ky is ignored for single runs, and --sigma-y defaults
    to --sigma-x.

    Returns (batch, extracted, direct, singles): the MeasurementBatch of
    the run, the extracted weak values, one complex per scale, the
    direct value and, for joint runs, the pair of single weak values
    extracted from the batches of A and B coupled alone, one complex per
    scale, else None. A joint call passes ``with_singles=True`` and also
    gets those two batches, taken from the eigensystems and pointer
    integrals of the pair. Each extraction runs once per batch."""
    a = scn.observable(args.observable)
    pointer_x = GaussianPointer(args.sigma_x, args.hbar)
    fock = functools.partial(run_fock, n_max=args.n_max)
    if args.observable_b is None:
        c = SingleCoupling(A=a, K=kx, pointer=pointer_x)
        engine = fock if args.engine == "fock" else run_single_exact
        batch = engine(scn.i, scn.f, c, scales=scales)
        return batch, extract_single(batch), direct_weak_value(a, scn.i, scn.f), None

    b = scn.observable(args.observable_b)
    sigma_y = args.sigma_x if args.sigma_y is None else args.sigma_y
    c = JointCoupling(A=a, B=b, Kx=kx, Ky=ky, pointer_x=pointer_x,
                      pointer_y=GaussianPointer(sigma_y, args.hbar))
    engine = fock if args.engine == "fock" else run_joint_exact
    batch, alone = engine(scn.i, scn.f, c, scales=scales, with_singles=True)
    singles = tuple(map(extract_single, alone))
    est = extract_joint(batch, singles)
    return batch, est, direct_joint_weak_value(a, b, scn.i, scn.f), singles


def _execute_and_write(args, scn: Scenario, kx: float, ky: float, scales: list[float], render):
    """Run ``_execute``, write ``render(*result)`` to --out or stdout,
    and print the wall time of ``_execute`` to stderr."""
    t0 = time.perf_counter()
    result = _execute(args, scn, kx, ky, scales)
    wall = time.perf_counter() - t0
    text = render(*result)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"wall time: {wall:.3f} s", file=sys.stderr)
    return 0


# --- commands ---------------------------------------------------------------


def cmd_run(args) -> int:
    scn = _scenario(args)

    def render(batch, est, direct, singles):
        if args.format == "json":
            return serialize_report(args, scn, batch, est, direct, singles)
        rows, _ = _csv_rows([args.kx], batch, est, direct)
        return f"# schema=1\n{CSV_HEADER}\n{rows}"

    ky = args.kx if args.ky is None else args.ky
    return _execute_and_write(args, scn, args.kx, ky, [1.0], render)


def cmd_sweep(args) -> int:
    scn = _scenario(args)
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    # the engines hold one (operators, points, d, d) stack of branch-pair
    # matrices per pointer axis
    check_array_budget(len(STACK_OPERATORS) * args.points * scn.i.dim**2,
                       f"--points {args.points}", UsageError)
    for flag, value in (("--k-min", args.k_min), ("--k-max", args.k_max)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if args.k_min <= 0 and args.log:
        raise UsageError("--log requires --k-min > 0")
    if args.k_min > args.k_max:
        raise UsageError("--k-min must not exceed --k-max")
    if args.points == 1:
        ks = np.array([args.k_min])
    elif args.log:
        ks = np.geomspace(args.k_min, args.k_max, args.points)
    else:
        ks = np.linspace(args.k_min, args.k_max, args.points)

    def render(batch, est, direct, _singles):
        rows, errs = _csv_rows(ks, batch, est, direct)
        order = fit_error_order(ks, errs)
        return f"# schema=1\n{CSV_HEADER}\n{rows}# fitted_error_order={_fmt_float(order)}\n"

    # unit couplings scaled by k: row k runs at Kx = Ky = k
    return _execute_and_write(args, scn, 1.0, 1.0, ks.tolist(), render)


def cmd_validate(_args) -> int:
    results = run_all_checks()
    all_pass = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        all_pass &= passed
        print(f"{status} {name}: {detail}")
    return 0 if all_pass else 3


# --- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on bad flags and reads
    negative numbers in exponent form (``--kx -1e-3``) as values."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(p):
    p.add_argument("--scenario", required=True,
                   help="preset name (three-box, hardy, spin, imaginary) or scenario file path")
    p.add_argument("--observable", required=True, help="observable label in the scenario")
    p.add_argument("--observable-b", default=None,
                   help="second observable label; requests a joint run")
    p.add_argument("--engine", required=True, choices=("exact", "fock"))
    p.add_argument("--sigma-x", type=float, required=True, help="rms pointer width, x axis")
    p.add_argument("--sigma-y", type=float, default=None,
                   help="rms pointer width, y axis (default: --sigma-x)")
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX,
                   help="Fock truncation level (fock engine only)")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="post-selection angle for the spin preset")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every
    ``main`` call (building it costs about a millisecond; parsing keeps
    no state in it)."""
    parser = _Parser(prog="weaklab",
                     description="Weak-measurement laboratory: conditional pointer "
                                 "moments and weak-value extraction.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="single engine run with extraction")
    _add_common_flags(run)
    run.add_argument("--kx", type=float, required=True, help="coupling strength, x axis")
    run.add_argument("--ky", type=float, default=None,
                     help="coupling strength, y axis (default: --kx)")
    run.add_argument("--format", required=True, choices=("json", "csv"))

    sweep = sub.add_parser("sweep", help="sweep the coupling strength, emit CSV")
    _add_common_flags(sweep)
    sweep.add_argument("--k-min", type=float, required=True)
    sweep.add_argument("--k-max", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--log", action="store_true", help="log-spaced couplings")
    sweep.add_argument("--format", choices=("csv",), default="csv")
    sweep.set_defaults(ky=None)

    sub.add_parser("validate", help="run the built-in invariant checks")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_validate(args)
    except (OrthogonalPostselection, NotCommuting, NumericalInconsistency) as exc:
        print(f"weaklab: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, WeaklabError, KeyError, OSError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"weaklab: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
