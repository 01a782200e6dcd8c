"""Built-in invariant checks behind ``weaklab validate``.

Each check returns (name, passed, detail) and is independent of the
others; the CLI prints one line per check and fails if any fail.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .engines import (
    JointCoupling,
    SingleCoupling,
    heisenberg_moment,
    run_fock,
    run_joint_exact,
    run_single_exact,
)
from .pointer import GaussianPointer, build_fock
from .qcore import Observable, QuantumState
from .scenarios import (
    build_hardy,
    build_imaginary,
    build_spin_amplifier,
    build_three_box,
)
from .weakvalues import direct_joint_weak_value, direct_weak_value

__all__ = ["run_all_checks"]

CROSS_VALIDATION_TOL = 1e-6
#: Fock truncation and coupling of the exact-vs-Fock comparison.
CROSS_VALIDATION_N_MAX = 40
CROSS_VALIDATION_K = 0.05
SERIES_TOL = 1e-12
POINTER_TOL = 1e-12
SELF_CONSISTENCY_TOL = 1e-12


def _noncommuting_qubit():
    """sigma_x / sigma_z pair on one qubit with non-orthogonal selection."""
    a = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
    b = Observable(np.diag([1.0, -1.0]).astype(complex))
    i = QuantumState(np.array([1, 1]) / math.sqrt(2))
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    return a, b, i, f


def check_pointer_integrals():
    """Vacuum pointer integrals <PX> = -i hbar/2 and <XP> = +i hbar/2."""
    worst = 0.0
    for sigma, hbar, n_max in ((1.0, 1.0, 2), (0.5, 1.0, 10), (0.7, 2.0, 40)):
        fock = build_fock(GaussianPointer(sigma, hbar), n_max)
        px = (fock.P @ fock.X)[0, 0]
        xp = (fock.X @ fock.P)[0, 0]
        worst = max(worst, abs(px + 1j * hbar / 2), abs(xp - 1j * hbar / 2))
    return (
        "pointer-integrals",
        worst <= POINTER_TOL,
        f"max |<PX> + i hbar/2|, |<XP> - i hbar/2| = {worst:.3e}",
    )


def _series_cases():
    """The hardy N_Oe x N_Op pair and the noncommuting qubit, each as
    (i, f, coupling) at Kx = Ky = 0.01 on unit pointers."""
    hardy = build_hardy()
    a, b, i, f = _noncommuting_qubit()
    for A, B, i, f in (
        (hardy.observable("N_Oe"), hardy.observable("N_Op"), hardy.i, hardy.f),
        (a, b, i, f),
    ):
        yield i, f, JointCoupling(
            A=A, B=B, Kx=0.01, Ky=0.01,
            pointer_x=GaussianPointer(1.0), pointer_y=GaussianPointer(1.0),
        )


def check_series_orders():
    """Parity and closed-form structure of the commutator series for the
    X-Y correlation observable. The closed form of order 2 is the
    paper's relation, 1/2 Kx Ky |<f|i>|^2 Re((AB)_w + A_w* B_w), from
    the direct evaluators."""
    worst1 = worst3 = worst2 = 0.0
    for i, f, c in _series_cases():
        terms = heisenberg_moment(i, f, c, "O_xy", order=3)
        worst1 = max(worst1, abs(terms[1]))
        worst3 = max(worst3, abs(terms[3]))
        weak = direct_joint_weak_value(c.A, c.B, i, f) + (
            direct_weak_value(c.A, i, f).conjugate() * direct_weak_value(c.B, i, f)
        )
        closed = 0.5 * c.Kx * c.Ky * abs(f.inner(i)) ** 2 * weak.real
        worst2 = max(worst2, abs(terms[2] - closed))
    return [
        (
            "series-order-1-parity",
            worst1 <= SERIES_TOL,
            f"max |order-1 term| = {worst1:.3e}",
        ),
        (
            "series-order-3-parity",
            worst3 <= SERIES_TOL,
            f"max |order-3 term| = {worst3:.3e}",
        ),
        (
            "series-order-2-closed-form",
            worst2 <= SERIES_TOL,
            f"max |order-2 term - closed form| = {worst2:.3e}",
        ),
    ]


def _record_distance(b1, b2) -> float:
    """The largest difference of any moment between the rows of two
    batches: one difference of their moment tables."""
    return float(np.abs(b1.moments - b2.moments).max())


def check_engine_cross_validation():
    """Exact and Fock engines agree on every conditional moment for the
    commuting presets: nine single couplings, then the four hardy pairs."""
    hardy = build_hardy()
    presets = (
        (build_three_box(), ("P1", "P2", "P3")),
        (build_imaginary(), ("sigma_z",)),
        (build_spin_amplifier(0.2), ("sigma_z",)),
        (hardy, ("N_Oe", "N_NOe", "N_Op", "N_NOp")),
    )
    cases = [(scn, (label,)) for scn, labels in presets for label in labels]
    cases += [(hardy, pair) for pair in itertools.product(("N_Oe", "N_NOe"), ("N_Op", "N_NOp"))]
    pointer = GaussianPointer(1.0)
    worst = 0.0
    worst_case = ""
    for scn, labels in cases:
        if len(labels) == 1:
            c = SingleCoupling(scn.observable(labels[0]), CROSS_VALIDATION_K, pointer)
            exact = run_single_exact(scn.i, scn.f, c)
        else:
            a, b = map(scn.observable, labels)
            c = JointCoupling(a, b, CROSS_VALIDATION_K, CROSS_VALIDATION_K, pointer, pointer)
            exact = run_joint_exact(scn.i, scn.f, c)
        d = _record_distance(exact, run_fock(scn.i, scn.f, c, n_max=CROSS_VALIDATION_N_MAX))
        if d > worst:
            worst, worst_case = d, f"{scn.name}:{'x'.join(labels)}"
    return (
        "engine-cross-validation",
        worst <= CROSS_VALIDATION_TOL,
        f"max moment deviation {worst:.3e} ({worst_case})",
    )


def check_preset_self_consistency():
    """Every preset's expected table matches the direct evaluator."""
    worst = 0.0
    worst_case = ""
    presets = [
        build_three_box(),
        build_hardy(),
        build_imaginary(),
        build_spin_amplifier(0.0),
        build_spin_amplifier(0.2),
        build_spin_amplifier(3 * math.pi / 4 - 0.01),
    ]
    for scn in presets:
        for label, want in scn.expected.items():
            got = direct_weak_value(scn.observable(label), scn.i, scn.f)
            d = abs(got - want)
            if d > worst:
                worst, worst_case = d, f"{scn.name}:{label}"
    return (
        "preset-self-consistency",
        worst <= SELF_CONSISTENCY_TOL,
        f"max |direct - expected| = {worst:.3e} ({worst_case})",
    )


def run_all_checks():
    """All validation checks as a list of (name, passed, detail)."""
    results = [check_pointer_integrals()]
    results.extend(check_series_orders())
    results.append(check_engine_cross_validation())
    results.append(check_preset_self_consistency())
    return results
