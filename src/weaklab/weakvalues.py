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

from .engines import EPS_PS, JointCoupling, MeasurementBatch, SingleCoupling
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
    """A weak value extracted from pointer moments, with provenance.

    kind is extracted_single or extracted_joint. value is a complex
    array with one entry per row of the MeasurementBatch it came from,
    each carrying the finite-coupling error of its row; the direct
    values are plain complex numbers.
    """

    value: np.ndarray
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


def _estimate(re: np.ndarray, im: np.ndarray, kind: str) -> WeakValueEstimate:
    """The estimate re + i im, one complex per row, its parts assigned,
    not computed, so an infinite part stays exact."""
    value = re.astype(complex)
    value.imag = im
    return WeakValueEstimate(value, kind)


def extract_single(batch: MeasurementBatch, c: SingleCoupling) -> WeakValueEstimate:
    """Recover a single weak value from conditional pointer moments.

    Real part from the position shift, imaginary part from the momentum
    shift scaled by the pointer width:

        Re = <X>_fi / K,     Im = (2 sigma^2 / hbar) <Px>_fi / K.

    Row n of the batch ran at coupling t_n K; the formula runs once on
    its columns and the estimate's value is a complex array with one
    entry per row. Raises ZeroCoupling, before dividing, if any coupling
    is 0.
    """
    kt = batch.scales * c.K
    if not kt.all():
        raise ZeroCoupling("cannot extract a weak value at K = 0")
    re = batch.x_mean / kt
    im = (2.0 * c.pointer.sigma**2 / c.pointer.hbar) * batch.px_mean / kt
    return _estimate(re, im, "extracted_single")


def extract_joint(batch: MeasurementBatch, singles, c: JointCoupling) -> WeakValueEstimate:
    """Recover a joint weak value from X-Y pointer correlations.

    Combines the conditional correlation moments with the two single
    weak values a and b (direct, or extracted from the single-coupling
    batches that the CLI's one joint engine call returns with the pair,
    ``with_singles=True``):

        Re = 2 <XY>_fi / (Kx Ky) - Re(a* b)
        Im = (4 sigma_y^2 / hbar) <X Py>_fi / (Kx Ky) - Im(a* b)

    For commuting A, B this is the weak value of AB; otherwise it is the
    weak value of the symmetrized product (AB + BA)/2. Row n of the
    batch ran at couplings t_n (Kx, Ky), the value is a complex array
    with one entry per row, as for extract_single, and each single weak
    value is a complex or a complex array with one entry per row. a* b
    is expanded into real parts, which is Python's complex product term
    for term. Raises ZeroCoupling, before dividing, if any Kx Ky is 0.
    """
    ts = batch.scales
    kk = (ts * c.Kx) * (ts * c.Ky)
    if not kk.all():
        raise ZeroCoupling("cannot extract a joint weak value at Kx*Ky = 0")
    a_w, b_w = singles
    ar, ai, br, bi = a_w.real, a_w.imag, b_w.real, b_w.imag
    re = 2.0 * batch.xy_mean / kk - (ar * br + ai * bi)
    im = (
        4.0 * c.pointer_y.sigma**2 / c.pointer_y.hbar
    ) * batch.x_py_mean / kk - (ar * bi - ai * br)
    return _estimate(re, im, "extracted_joint")
