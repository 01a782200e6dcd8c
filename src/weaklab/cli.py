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

A sweep is one batched engine call per observable: everything that
does not depend on the coupling strength is computed once, and ``run``
is the same path with a single point.

Exit codes: 0 success; 1 configuration/parse errors, including requests
whose arrays would exceed ``engines.MAX_ARRAY_BYTES``; 2 numerical
failures (orthogonal post-selection, noncommuting observables on the
closed-form joint engine); 3 validation-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engines import (
    DEFAULT_N_MAX,
    MOMENTS,
    JointCoupling,
    MeasurementRecord,
    SingleCoupling,
    check_array_budget,
    run_fock,
    run_joint_exact,
    run_single_exact,
)
from .errors import (
    DimensionMismatch,
    InvalidTruncation,
    NotCommuting,
    NotHermitian,
    NumericalInconsistency,
    OrthogonalPostselection,
    ParseError,
    ZeroCoupling,
    ZeroState,
)
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

__all__ = ["main", "RunSpec", "RunReport", "serialize_report"]

CSV_HEADER = (
    "k,ps_prob,re_extracted,im_extracted,re_direct,im_direct,abs_err,weakness_ratio"
)


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit code 1."""


@dataclass(frozen=True)
class RunSpec:
    """The flags shared by every point of a run or sweep, with defaults
    resolved. sigma_y and singles_mode are None for single runs."""

    scenario: Scenario
    observable: str
    observable_b: str | None
    engine: str
    sigma_x: float
    sigma_y: float | None
    hbar: float
    n_max: int
    singles_mode: str | None

    @classmethod
    def from_args(cls, args) -> "RunSpec":
        scn = _resolve_scenario(args.scenario, args.alpha)
        if args.observable_b is None:
            for flag, value in (
                ("--ky", args.ky),
                ("--sigma-y", args.sigma_y),
                ("--singles", args.singles),
            ):
                if value is not None:
                    raise UsageError(f"{flag} requires --observable-b")
            sigma_y = singles_mode = None
        else:
            sigma_y = args.sigma_x if args.sigma_y is None else args.sigma_y
            singles_mode = args.singles or "extracted"
        return cls(
            scenario=scn,
            observable=args.observable,
            observable_b=args.observable_b,
            engine=args.engine,
            sigma_x=args.sigma_x,
            sigma_y=sigma_y,
            hbar=args.hbar,
            n_max=args.n_max,
            singles_mode=singles_mode,
        )


@dataclass(frozen=True)
class RunReport:
    """Everything a single engine run produced, plus its ground truth.

    Absolute errors are not stored; they are recomputed from the
    extracted/direct values at serialization time.
    """

    spec: RunSpec
    kx: float
    ky: float | None
    record: MeasurementRecord
    singles: tuple[WeakValueEstimate, WeakValueEstimate] | None
    extracted: WeakValueEstimate
    direct: complex

    def abs_err(self) -> float:
        return abs(self.extracted.value - self.direct)


# --- deterministic serialization -------------------------------------------


def _fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"  # collapse -0.0
    return format(x, ".17g")


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} in JSON report")
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _estimate_payload(est: WeakValueEstimate) -> dict:
    return {"re": est.value.real, "im": est.value.imag, "kind": est.kind}


def report_payload(report: RunReport) -> dict:
    rec, spec = report.record, report.spec
    payload = {
        "schema": 1,
        "scenario": spec.scenario.name,
        "engine": spec.engine,
        "observable": spec.observable,
        "observable_b": spec.observable_b,
        "kx": report.kx,
        "ky": report.ky,
        "sigma_x": spec.sigma_x,
        "sigma_y": spec.sigma_y,
        "hbar": spec.hbar,
        "n_max": spec.n_max if spec.engine == "fock" else None,
        "singles_mode": spec.singles_mode,
        "record": {
            **{name: getattr(rec, name) for name in MOMENTS},
            "weakness_ratio": rec.weakness_ratio,
            "engine_tag": rec.engine_tag,
            "truncation_warning": rec.truncation_warning,
        },
        "singles": None
        if report.singles is None
        else {
            "a": _estimate_payload(report.singles[0]),
            "b": _estimate_payload(report.singles[1]),
        },
        "extracted": {"re": report.extracted.value.real, "im": report.extracted.value.imag},
        "direct": {"re": report.direct.real, "im": report.direct.imag},
        "abs_err": report.abs_err(),
        "weakness_ratio": rec.weakness_ratio,
    }
    return payload


def serialize_report(report: RunReport) -> str:
    return _emit_json(report_payload(report)) + "\n"


def _csv_row(k, rec, extracted, direct) -> str:
    return ",".join(
        [
            _fmt_float(k),
            _fmt_float(rec.ps_prob),
            _fmt_float(extracted.real),
            _fmt_float(extracted.imag),
            _fmt_float(direct.real),
            _fmt_float(direct.imag),
            _fmt_float(abs(extracted - direct)),
            _fmt_float(rec.weakness_ratio),
        ]
    )


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


def _run_engine(spec: RunSpec, c, scales: list[float]) -> list[MeasurementRecord]:
    scn = spec.scenario
    if spec.engine == "fock":
        return run_fock(scn.i, scn.f, c, n_max=spec.n_max, scales=scales)
    if isinstance(c, JointCoupling):
        return run_joint_exact(scn.i, scn.f, c, scales=scales)
    return run_single_exact(scn.i, scn.f, c, scales=scales)


def _extracted_singles(spec: RunSpec, c: SingleCoupling, scales: list[float]):
    """One batched single-coupling run and its extraction at each scale."""
    records = _run_engine(spec, c, scales)
    return records, [extract_single(rec, c.scaled(t)) for rec, t in zip(records, scales)]


def _execute(spec: RunSpec, kx: float, ky: float, scales: list[float]):
    """Engine runs at couplings t (kx, ky) for each scale t, with
    extraction and ground truth; ky is ignored for single runs.

    Returns (records, extracted estimates, direct value, singles pairs
    or None), the lists holding one entry per scale."""
    scn = spec.scenario
    a = scn.observable(spec.observable)
    pointer_x = GaussianPointer(spec.sigma_x, spec.hbar)

    if spec.observable_b is None:
        records, ests = _extracted_singles(
            spec, SingleCoupling(A=a, K=kx, pointer=pointer_x), scales
        )
        return records, ests, direct_weak_value(a, scn.i, scn.f), None

    b = scn.observable(spec.observable_b)
    pointer_y = GaussianPointer(spec.sigma_y, spec.hbar)
    c = JointCoupling(
        A=a, B=b, Kx=kx, Ky=ky, pointer_x=pointer_x, pointer_y=pointer_y
    )
    records = _run_engine(spec, c, scales)

    if spec.singles_mode == "direct":
        pair = (
            WeakValueEstimate(direct_weak_value(a, scn.i, scn.f), "direct_single"),
            WeakValueEstimate(direct_weak_value(b, scn.i, scn.f), "direct_single"),
        )
        singles = [pair] * len(scales)
    else:
        _, singles_a = _extracted_singles(spec, SingleCoupling(a, kx, pointer_x), scales)
        _, singles_b = _extracted_singles(spec, SingleCoupling(b, ky, pointer_y), scales)
        singles = list(zip(singles_a, singles_b))
    ests = [
        extract_joint(rec, (sa.value, sb.value), c.scaled(t))
        for rec, (sa, sb), t in zip(records, singles, scales)
    ]
    return records, ests, direct_joint_weak_value(a, b, scn.i, scn.f), singles


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
    records, ests, direct, singles = _execute(spec, args.kx, ky, [1.0])
    wall = time.perf_counter() - t0
    report = RunReport(
        spec=spec,
        kx=args.kx,
        ky=ky,
        record=records[0],
        singles=None if singles is None else singles[0],
        extracted=ests[0],
        direct=direct,
    )
    if args.format == "json":
        text = serialize_report(report)
    else:
        text = "\n".join(
            ["# schema=1", CSV_HEADER, _csv_row(args.kx, records[0], ests[0].value, direct)]
        ) + "\n"
    _write_output(text, args.out)
    print(f"wall time: {wall:.3f} s", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    spec = RunSpec.from_args(args)
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    # the exact engines hold (points, d, d) pointer-integral matrices
    check_array_budget(
        args.points * spec.scenario.i.dim**2, f"--points {args.points}", UsageError
    )
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
    records, ests, direct, _ = _execute(spec, 1.0, 1.0, ks.tolist())
    wall = time.perf_counter() - t0

    lines = ["# schema=1", CSV_HEADER]
    errs = []
    for k, rec, est in zip(ks, records, ests):
        lines.append(_csv_row(k, rec, est.value, direct))
        errs.append(abs(est.value - direct))
    order = fit_error_order(ks, errs)
    lines.append(f"# fitted_error_order={_fmt_float(order)}")
    _write_output("\n".join(lines) + "\n", args.out)
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
    p.add_argument("--singles", choices=("direct", "extracted"), default=None,
                   help="source of the single weak values in joint extraction "
                        "(default: extracted)")
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
    except (
        UsageError,
        ParseError,
        NotHermitian,
        ZeroState,
        ZeroCoupling,
        InvalidTruncation,
        DimensionMismatch,
        KeyError,
        OSError,
        ValueError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"weaklab: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
