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

Every engine call returns a ``MeasurementBatch``, one column per
moment with one entry per coupling. A sweep, single or joint, is one
engine call: everything that does not depend on the coupling strength is
computed once, each extraction formula runs once on the columns, and
the CSV rows are formatted in one pass over one (points x 8) table.
``run`` is the same path with a single point and reads row 0 of the
columns. A joint call passes ``with_singles=True`` and also gets the
batches of A and of B coupled alone, which the engine takes from the
eigensystems and pointer integrals of the pair; the single weak values
come from ``extract_single`` on those, the same pointer shifts that
give the correlation. The direct value ``<f|A|i>/<f|i>`` is only the
referee the result is checked against.

Exit codes: 0 success; 1 configuration/parse errors, including requests
whose arrays would exceed ``engines.MAX_ARRAY_BYTES`` and couplings
whose pointer displacements would overflow (named as kx or ky); 2
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
from dataclasses import dataclass
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
from .weakvalues import (
    WeakValueEstimate,
    direct_joint_weak_value,
    direct_weak_value,
    extract_joint,
    extract_single,
)

__all__ = ["main", "RunSpec", "serialize_report"]

CSV_HEADER = (
    "k,ps_prob,re_extracted,im_extracted,re_direct,im_direct,abs_err,weakness_ratio"
)
#: One CSV data row, each column in the format of ``_fmt_float``:
#: formatted over ``table + 0.0``, it prints each x as _fmt_float(x).
_CSV_ROW = ",".join(["%.17g"] * 8) + "\n"


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


@dataclass(frozen=True)
class RunSpec:
    """The flags shared by every point of a run or sweep, with defaults
    resolved. sigma_y is None for single runs."""

    scenario: Scenario
    observable: str
    observable_b: str | None
    engine: str
    sigma_x: float
    sigma_y: float | None
    hbar: float
    n_max: int

    @classmethod
    def from_args(cls, args) -> "RunSpec":
        scn = _resolve_scenario(args.scenario, args.alpha)
        if args.observable_b is None:
            for flag, value in (("--ky", args.ky), ("--sigma-y", args.sigma_y)):
                if value is not None:
                    raise UsageError(f"{flag} requires --observable-b")
            sigma_y = None
        else:
            sigma_y = args.sigma_x if args.sigma_y is None else args.sigma_y
        return cls(
            scenario=scn,
            observable=args.observable,
            observable_b=args.observable_b,
            engine=args.engine,
            sigma_x=args.sigma_x,
            sigma_y=sigma_y,
            hbar=args.hbar,
            n_max=args.n_max,
        )


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


def _estimate_payload(est: WeakValueEstimate) -> dict:
    """The payload of row 0 of an estimate."""
    value = complex(est.value[0])
    return {"re": value.real, "im": value.imag, "kind": est.kind}


def serialize_report(spec: RunSpec, kx: float, ky: float | None, batch: MeasurementBatch,
                     est: WeakValueEstimate, direct: complex, singles) -> str:
    """The JSON report of row 0 of a run: ``_execute``'s batch, estimate,
    direct value and singles at couplings (kx, ky). abs_err is computed
    here from the extracted and direct values. ``singles_mode`` stays in
    schema 1's key set: "extracted" for joint runs, null for single
    runs."""
    extracted = complex(est.value[0])
    payload = {
        "schema": 1,
        "scenario": spec.scenario.name,
        "engine": spec.engine,
        "observable": spec.observable,
        "observable_b": spec.observable_b,
        "kx": kx,
        "ky": ky,
        "sigma_x": spec.sigma_x,
        "sigma_y": spec.sigma_y,
        "hbar": spec.hbar,
        "n_max": spec.n_max if spec.engine == "fock" else None,
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
    """Least-squares slope of log|err| vs log k over usable points."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = (ks > 0) & (errs > 0) & np.isfinite(errs)
    if int(mask.sum()) < 2:
        return float("nan")
    slope = np.polyfit(np.log(ks[mask]), np.log(errs[mask]), 1)[0]
    return float(slope)


# --- run pipeline -----------------------------------------------------------


def _resolve_scenario(name_or_path: str, alpha: float) -> Scenario:
    if name_or_path == "spin":
        return build_spin_amplifier(alpha)
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    path = Path(name_or_path)
    if path.exists():
        return load_scenario(path.read_text())
    raise UsageError(
        f"unknown scenario {name_or_path!r}: not a preset "
        f"({', '.join(sorted(PRESETS))}) or an existing file"
    )


def _run_engine(spec: RunSpec, c, scales: list[float], with_singles: bool = False):
    """The one engine call of a run or sweep. A joint coupling passes
    ``with_singles=True`` and gets (batch, (batch_a, batch_b)), the
    batches of A and B coupled alone at the same couplings."""
    scn = spec.scenario
    if spec.engine == "fock":
        return run_fock(scn.i, scn.f, c, n_max=spec.n_max, scales=scales,
                        with_singles=with_singles)
    if with_singles:
        return run_joint_exact(scn.i, scn.f, c, scales=scales, with_singles=True)
    return run_single_exact(scn.i, scn.f, c, scales=scales)


def _execute(spec: RunSpec, kx: float, ky: float, scales: list[float]):
    """Engine runs at couplings t (kx, ky) for each scale t, with
    extraction and ground truth; ky is ignored for single runs.

    Returns (batch, extracted, direct, singles): the MeasurementBatch of
    the run, the extracted estimate holding one value per scale, the
    direct value and, for joint runs, the pair of single estimates
    extracted from the batches of A and B coupled alone, one value per
    scale, else None. A run or sweep makes one engine call, joint or
    not: a joint call also returns the two single-coupling batches,
    taken from the eigensystems and pointer integrals of the pair. Each
    extraction runs once per batch."""
    scn = spec.scenario
    a = scn.observable(spec.observable)
    pointer_x = GaussianPointer(spec.sigma_x, spec.hbar)

    if spec.observable_b is None:
        c = SingleCoupling(A=a, K=kx, pointer=pointer_x)
        batch = _run_engine(spec, c, scales)
        return batch, extract_single(batch, c), direct_weak_value(a, scn.i, scn.f), None

    b = scn.observable(spec.observable_b)
    pointer_y = GaussianPointer(spec.sigma_y, spec.hbar)
    c = JointCoupling(
        A=a, B=b, Kx=kx, Ky=ky, pointer_x=pointer_x, pointer_y=pointer_y
    )
    batch, alone = _run_engine(spec, c, scales, with_singles=True)
    alone_couplings = (SingleCoupling(a, kx, pointer_x), SingleCoupling(b, ky, pointer_y))
    singles = tuple(extract_single(sb, cs) for sb, cs in zip(alone, alone_couplings))
    est = extract_joint(batch, (singles[0].value, singles[1].value), c)
    return batch, est, direct_joint_weak_value(a, b, scn.i, scn.f), singles


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --- commands ---------------------------------------------------------------


def cmd_run(args) -> int:
    spec = RunSpec.from_args(args)
    ky = None
    if spec.observable_b is not None:
        ky = args.kx if args.ky is None else args.ky
    t0 = time.perf_counter()
    batch, est, direct, singles = _execute(spec, args.kx, ky, [1.0])
    wall = time.perf_counter() - t0
    if args.format == "json":
        text = serialize_report(spec, args.kx, ky, batch, est, direct, singles)
    else:
        rows, _ = _csv_rows([args.kx], batch, est.value, direct)
        text = f"# schema=1\n{CSV_HEADER}\n{rows}"
    _write_output(text, args.out)
    print(f"wall time: {wall:.3f} s", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    spec = RunSpec.from_args(args)
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    # the engines hold one (operators, points, d, d) stack of branch-pair
    # matrices per pointer axis
    check_array_budget(len(STACK_OPERATORS) * args.points * spec.scenario.i.dim**2,
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

    t0 = time.perf_counter()
    # unit couplings scaled by k: row k runs at Kx = Ky = k
    batch, est, direct, _ = _execute(spec, 1.0, 1.0, ks.tolist())
    wall = time.perf_counter() - t0

    rows, errs = _csv_rows(ks, batch, est.value, direct)
    order = fit_error_order(ks, errs)
    text = f"# schema=1\n{CSV_HEADER}\n{rows}# fitted_error_order={_fmt_float(order)}\n"
    _write_output(text, args.out)
    print(f"wall time: {wall:.3f} s", file=sys.stderr)
    return 0


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
