"""Weak-value evaluation: direct analytic formulas and the extraction
rules that recover the same quantities from measured pointer moments.

Direct values depend only on the observables and the pre/post-selected
states; extracted values carry the finite-coupling error of the run
they came from and converge to the direct values as the coupling
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engines import EPS_PS, JointCoupling, MeasurementRecord, SingleCoupling
from .errors import DimensionMismatch, OrthogonalPostselection, ZeroCoupling
from .qcore import Observable, QuantumState

__all__ = [
    "WeakValueEstimate",
    "direct_weak_value",
    "direct_joint_weak_value",
    "extract_single",
    "extract_joint",
]


@dataclass(frozen=True)
class WeakValueEstimate:
    """A complex weak value with provenance.

    kind is one of direct_single, direct_joint_symmetrized,
    extracted_single, extracted_joint. Direct kinds depend only on
    (A, B, i, f); extracted kinds carry the finite-coupling error of
    the run they came from.
    """

    value: complex
    kind: str


def _overlap_or_raise(i: QuantumState, f: QuantumState) -> complex:
    if i.dim != f.dim:
        raise DimensionMismatch(f"state dims {i.dim} and {f.dim} differ")
    ip = f.inner(i)
    if abs(ip) < EPS_PS**0.5:
        raise OrthogonalPostselection(
            f"|<f|i>| = {abs(ip):.3e} too small for a conditional value"
        )
    return ip


def direct_weak_value(A: Observable, i: QuantumState, f: QuantumState) -> complex:
    """<f|A|i> / <f|i>, the conditional value of A between pre- and
    post-selection. May be complex and may lie outside the eigenvalue
    range of A."""
    if A.dim != i.dim:
        raise DimensionMismatch(f"observable dim {A.dim} != state dim {i.dim}")
    ip = _overlap_or_raise(i, f)
    return complex(np.vdot(f.amplitudes, A.matrix @ i.amplitudes)) / ip


def direct_joint_weak_value(
    A: Observable, B: Observable, i: QuantumState, f: QuantumState
) -> complex:
    """Weak value of the symmetrized product (AB + BA)/2.

    When A and B commute this equals the weak value of AB itself.
    """
    if A.dim != B.dim:
        raise DimensionMismatch(f"observable dims {A.dim} and {B.dim} differ")
    if A.dim != i.dim:
        raise DimensionMismatch(f"observable dim {A.dim} != state dim {i.dim}")
    ip = _overlap_or_raise(i, f)
    sym = (A.matrix @ B.matrix + B.matrix @ A.matrix) / 2.0
    return complex(np.vdot(f.amplitudes, sym @ i.amplitudes)) / ip


def extract_single(rec: MeasurementRecord, c: SingleCoupling) -> WeakValueEstimate:
    """Recover a single weak value from conditional pointer moments.

    Real part from the position shift, imaginary part from the momentum
    shift scaled by the pointer width:

        Re = <X>_fi / K,     Im = (2 sigma^2 / hbar) <Px>_fi / K.
    """
    if c.K == 0.0:
        raise ZeroCoupling("cannot extract a weak value at K = 0")
    re = rec.x_mean / c.K
    im = (2.0 * c.pointer.sigma**2 / c.pointer.hbar) * rec.px_mean / c.K
    return WeakValueEstimate(value=complex(re, im), kind="extracted_single")


def extract_joint(
    rec: MeasurementRecord,
    singles: tuple[complex, complex],
    c: JointCoupling,
) -> WeakValueEstimate:
    """Recover a joint weak value from X-Y pointer correlations.

    Combines the conditional correlation moments with the two single
    weak values (direct or themselves extracted; the caller chooses and
    records which):

        Re = 2 <XY>_fi / (Kx Ky) - Re(a* b)
        Im = (4 sigma_y^2 / hbar) <X Py>_fi / (Kx Ky) - Im(a* b)

    For commuting A, B this is the weak value of AB; otherwise it is the
    weak value of the symmetrized product (AB + BA)/2.
    """
    if c.Kx * c.Ky == 0.0:
        raise ZeroCoupling("cannot extract a joint weak value at Kx*Ky = 0")
    a_w, b_w = singles
    cross = np.conj(a_w) * b_w
    kk = c.Kx * c.Ky
    re = 2.0 * rec.xy_mean / kk - cross.real
    im = (
        4.0 * c.pointer_y.sigma**2 / c.pointer_y.hbar
    ) * rec.x_py_mean / kk - cross.imag
    return WeakValueEstimate(value=complex(re, im), kind="extracted_joint")
