"""Output checks for one CLI command.

A command passes when it exits 0 and its output meets the contract of
its subcommand. The bounds below are stated once here and in README.md.
"""

from __future__ import annotations

import json
import math

from inputs import Command

CSV_HEADER = (
    "k,ps_prob,re_extracted,im_extracted,re_direct,im_direct,abs_err,weakness_ratio"
)
#: |fitted_error_order - expected order| must not exceed this. Over 5400
#: random noncommuting scenarios the 6-point Fock sweeps read 1.925-2.061
#: (terms above K^2 tilt the fit at K = 0.1); the hardy sweeps read
#: within 0.001 of their order.
ORDER_BAND = 0.15
#: abs_err <= ERR_COEF * (K / sigma)^2: the extraction error is quadratic
#: in K / sigma. The largest coefficient seen is 1.08 (spin preset at the
#: pole margin); random Fock scenarios read up to 0.52, and hardy joint,
#: three-box and imaginary 0.25-0.75.
ERR_COEF = 2.0


def _error_bound(k: float, sigma: float) -> float:
    return ERR_COEF * (k / sigma) ** 2


def _check_sweep(cmd: Command, text: str) -> tuple[int, str | None]:
    lines = text.splitlines()
    if lines[:2] != ["# schema=1", CSV_HEADER]:
        return 0, f"bad sweep header {lines[:2]!r}"
    rows = lines[2:-1]
    if len(rows) != cmd.points:
        return len(rows), f"{len(rows)} rows, expected {cmd.points}"
    values = [[float(v) for v in row.split(",")] for row in rows]
    if not all(math.isfinite(v) for row in values for v in row):
        return len(rows), "non-finite value in sweep"
    footer = lines[-1]
    if not footer.startswith("# fitted_error_order="):
        return len(rows), f"bad sweep footer {footer!r}"
    order = float(footer.split("=", 1)[1])
    if not abs(order - cmd.order) <= ORDER_BAND:
        return len(rows), f"fitted_error_order {order} not within {ORDER_BAND} of {cmd.order}"
    k0, err0 = values[0][0], values[0][6]
    if k0 != cmd.k or not err0 <= _error_bound(k0, cmd.sigma):
        return len(rows), f"abs_err {err0} at k={k0} above {_error_bound(k0, cmd.sigma)}"
    return len(rows), None


def _check_run(cmd: Command, text: str) -> tuple[int, str | None]:
    report = json.loads(text)
    if report.get("schema") != 1:
        return 1, f"bad report schema {report.get('schema')!r}"
    err = report["abs_err"]
    if not err <= _error_bound(cmd.k, cmd.sigma):
        return 1, f"abs_err {err} at k={cmd.k} above {_error_bound(cmd.k, cmd.sigma)}"
    return 1, None


def _check_validate(_cmd: Command, text: str) -> tuple[int, str | None]:
    lines = text.splitlines()
    if not lines:
        return 0, "validate printed nothing"
    failed = [line for line in lines if not line.startswith("PASS ")]
    if failed:
        return len(lines), f"validate line not PASS: {failed[0]!r}"
    return len(lines), None


_CHECKS = {"sweep": _check_sweep, "run": _check_run, "validate": _check_validate}


def check_output(cmd: Command, data: bytes) -> tuple[int, str | None]:
    """(output rows, failure reason or None) for a command that exited 0.

    A row is a sweep CSV data row, a run report, or a validate line.
    """
    try:
        return _CHECKS[cmd.kind](cmd, data.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 0, f"unreadable {cmd.kind} output: {exc!r}"
