"""Weak-value evaluation: direct analytic formulas and the extraction
rules that recover the same quantities from measured pointer moments.

Direct values depend only on the observables and the pre/post-selected
states; extracted values carry the finite-coupling error of the run
they came from and converge to the direct values as the coupling
vanishes.
"""

from __future__ import annotations

import sys

import numpy as np

from .engines import EPS_PS, MeasurementBatch
from .errors import DimensionMismatch, OrthogonalPostselection, ZeroCoupling
from .qcore import Observable, QuantumState

__all__ = [
    "direct_weak_value",
    "direct_joint_weak_value",
    "extract_single",
    "extract_joint",
]

#: The weakest coupling |t K| (|t Kx t Ky| for a pair) an extraction
#: accepts. The moments it divides are about that coupling times a
#: post-selection probability of at least EPS_PS, so above it they stay
#: in the normal float range, and below it they lose digits.
_WEAKEST = sys.float_info.min / EPS_PS


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


def _check_coupling(k: np.ndarray, name: str, what: str):
    """Raise ZeroCoupling naming the coupling ``name`` of the first row
    of k that is 0 or weaker than _WEAKEST, before anything is divided
    by it."""
    if not k.all():
        raise ZeroCoupling(f"cannot extract {what} at {name} = 0")
    weak = np.abs(k) < _WEAKEST
    if weak.any():
        raise ZeroCoupling(
            f"cannot extract {what} at {name} = {float(k[weak.argmax()])!r}, below "
            f"{_WEAKEST:.3g}, where its moments leave the normal float range"
        )


def _momentum_factor(n: float, p, formula: str, what: str) -> float:
    """n sigma^2 / hbar of pointer p, the factor ``formula`` that turns a
    momentum shift into Im. Raises ValueError naming the pointer units,
    before anything is multiplied by it, if it is 0, subnormal or not
    finite, where Im would come out 0, inf or nan."""
    factor = n * p.sigma**2 / p.hbar
    if not sys.float_info.min <= factor <= sys.float_info.max:
        raise ValueError(
            f"cannot extract {what}: {formula} = {factor!r} at sigma = {p.sigma!r}, "
            f"hbar = {p.hbar!r} leaves the normal float range; rescale "
            "--sigma-x/--sigma-y and --hbar"
        )
    return factor


def _estimate(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The estimate re + i im, one complex per row, its parts assigned,
    not computed, so an infinite part stays exact."""
    value = re.astype(complex)
    value.imag = im
    return value


def extract_single(batch: MeasurementBatch) -> np.ndarray:
    """Recover a single weak value from the conditional pointer moments
    of a single-coupling batch, with K and the pointer of its
    ``coupling``.

    Real part from the position shift, imaginary part from the momentum
    shift scaled by the pointer width:

        Re = <X>_fi / K,     Im = (2 sigma^2 / hbar) <Px>_fi / K.

    Row n of the batch ran at coupling t_n K; the formula runs once on
    the batch's moments and returns a complex array with one entry per row, each
    carrying the finite-coupling error of its row. Raises ZeroCoupling,
    before dividing, if any coupling t_n K is 0 or below
    ``sys.float_info.min / EPS_PS`` in magnitude (about 2.2e-296), where
    the moments would leave the normal float range, and ValueError if
    the factor 2 sigma^2 / hbar is 0, subnormal or not finite.
    """
    c = batch.coupling
    kt = batch.scales * c.K
    _check_coupling(kt, "K", "a weak value")
    factor = _momentum_factor(2.0, c.pointer, "2 sigma^2/hbar", "a weak value")
    re = batch.x_mean / kt
    im = factor * batch.px_mean / kt
    return _estimate(re, im)


def extract_joint(batch: MeasurementBatch, singles) -> np.ndarray:
    """Recover a joint weak value from the X-Y pointer correlations of a
    joint batch, with the couplings and y pointer of its ``coupling``.

    Combines the conditional correlation moments with the two single
    weak values a and b (direct, or extracted from the single-coupling
    batches that the CLI's one joint engine call returns with the pair,
    ``with_singles=True``):

        Re = 2 <XY>_fi / (Kx Ky) - Re(a* b)
        Im = (4 sigma_y^2 / hbar) <X Py>_fi / (Kx Ky) - Im(a* b)

    For commuting A, B this is the weak value of AB; otherwise it is the
    weak value of the symmetrized product (AB + BA)/2. Row n of the
    batch ran at couplings t_n (Kx, Ky), the result is a complex array
    with one entry per row, as for extract_single, and each single weak
    value is a complex or a complex array with one entry per row. a* b
    is expanded into real parts, which is Python's complex product term
    for term. Raises ZeroCoupling, before dividing, if any t_n^2 Kx Ky is
    0 or below the bound of extract_single in magnitude, and ValueError
    if the factor 4 sigma_y^2 / hbar is 0, subnormal or not finite.
    """
    c, ts = batch.coupling, batch.scales
    kk = (ts * c.Kx) * (ts * c.Ky)
    _check_coupling(kk, "Kx*Ky", "a joint weak value")
    factor = _momentum_factor(4.0, c.pointer_y, "4 sigma_y^2/hbar", "a joint weak value")
    a_w, b_w = singles
    ar, ai, br, bi = a_w.real, a_w.imag, b_w.real, b_w.imag
    re = 2.0 * batch.xy_mean / kk - (ar * br + ai * bi)
    im = factor * batch.x_py_mean / kk - (ar * bi - ai * br)
    return _estimate(re, im)
