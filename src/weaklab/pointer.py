"""Gaussian measurement-pointer mathematics.

Two representations of the same pointer are provided:

* closed-form overlap and moment integrals between displaced copies of
  the real Gaussian ground state ``g_d(x) = (2 pi sigma^2)^(-1/4)
  exp(-(x-d)^2 / (4 sigma^2))``, and
* a truncated harmonic-oscillator (ladder-basis) matrix representation
  in which that Gaussian is the ground state and position/momentum are
  finite Hermitian matrices.

Sign convention: P = -i hbar d/dx, so evolution under exp(-i K A P / hbar)
translates the pointer in +x by K a for an eigenvalue a of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTruncation

__all__ = [
    "GaussianPointer",
    "FockPointer",
    "gaussian_overlap",
    "moment_x",
    "moment_p",
    "build_fock",
]


@dataclass(frozen=True)
class GaussianPointer:
    """Pointer prepared in a real Gaussian centered at zero.

    sigma is the rms width of the position probability distribution;
    hbar sets the unit convention (default 1). The momentum spread is
    the minimum-uncertainty value hbar / (2 sigma). Both must be finite
    and positive, and sigma^2, which every pointer integral divides by,
    finite and nonzero; ValueError names the field otherwise.
    """

    sigma: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("sigma", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 < self.sigma * self.sigma < math.inf:
            raise ValueError(
                f"sigma squared must be finite and nonzero, got sigma = {self.sigma!r}"
            )


def gaussian_overlap(d1, d2, p: GaussianPointer):
    """Overlap integral of two displaced pointer ground states.

    integral g_d1(x) g_d2(x) dx = exp(-(d1-d2)^2 / (8 sigma^2)).
    Always in (0, 1], equal to 1 iff d1 == d2. This and the two moment
    integrals accept scalars or broadcastable arrays of displacements.
    """
    delta = d1 - d2
    return np.exp(-delta * delta / (8.0 * p.sigma**2))


def moment_x(d1, d2, p: GaussianPointer):
    """Position matrix element between displaced pointer states.

    integral g_d1(x) x g_d2(x) dx = (d1+d2)/2 * gaussian_overlap(d1, d2).
    """
    return 0.5 * (d1 + d2) * gaussian_overlap(d1, d2, p)


def moment_p(d1, d2, p: GaussianPointer):
    """Momentum matrix element between displaced pointer states.

    integral g_d1(x) (-i hbar d/dx) g_d2(x) dx
        = i hbar (d1-d2) / (4 sigma^2) * gaussian_overlap(d1, d2).

    Purely imaginary (real Gaussians carry no mean momentum); Hermiticity
    of P shows up as moment_p(a, b) == conj(moment_p(b, a)).
    """
    pref = p.hbar * (d1 - d2) / (4.0 * p.sigma**2)
    return 1j * pref * gaussian_overlap(d1, d2, p)


@dataclass(frozen=True)
class FockPointer:
    """Truncated oscillator representation of a Gaussian pointer.

    The pointer Gaussian is the vacuum (index 0) of a harmonic
    oscillator whose ladder operators build

        X = sigma (a + a+),      P = (hbar / 2 sigma) (a - a+) / i,

    truncated to levels 0..n_max. X and P are Hermitian; [X, P] equals
    i hbar times the identity on the subspace below the top truncation
    level; the vacuum reproduces <X^2> = sigma^2 and <P X> = -i hbar / 2
    exactly.
    """

    base: GaussianPointer
    n_max: int
    X: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def vacuum_state(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v


def build_fock(p: GaussianPointer, n_max: int) -> FockPointer:
    """Construct ladder-basis X and P matrices truncated at level n_max.

    Requires n_max >= 2 so that the second-order vacuum moments
    (<X^2>, <P^2>, <P X>) are represented exactly.
    """
    if n_max < 2:
        raise InvalidTruncation(f"n_max must be >= 2, got {n_max}")
    dim = n_max + 1
    lower = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(1, dim)
    lower[idx - 1, idx] = np.sqrt(idx)  # a|n> = sqrt(n)|n-1>
    raise_ = lower.conj().T
    x = p.sigma * (lower + raise_)
    pm = 1j * (p.hbar / (2.0 * p.sigma)) * (raise_ - lower)
    x.flags.writeable = False
    pm.flags.writeable = False
    return FockPointer(base=p, n_max=n_max, X=x, P=pm)
