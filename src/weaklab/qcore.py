"""Dense complex linear algebra and quantum-state primitives.

States and observables are plain numpy arrays wrapped in small immutable
dataclasses that enforce their defining invariants (unit norm,
Hermiticity) at construction time. All operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotCommuting, NotHermitian, ZeroState

__all__ = [
    "QuantumState",
    "Observable",
    "EigenSystem",
    "tensor",
    "hermitian_eig",
    "simultaneous_eig",
    "commutator_norm",
    "max_norm",
]


def max_norm(m: np.ndarray) -> float:
    """Largest absolute entry of a matrix (or vector)."""
    return float(np.max(np.abs(m))) if m.size else 0.0


@dataclass(frozen=True)
class QuantumState:
    """Normalized complex amplitude vector on a finite-dimensional space.

    The constructor normalizes the supplied amplitudes, so the unit-norm
    invariant holds for every instance. A vector of zero norm raises
    :class:`ZeroState`, and a NaN or infinite amplitude ValueError.
    """

    amplitudes: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise ZeroState("state vector must have dimension >= 1")
        bad = np.flatnonzero(~np.isfinite(amps))
        if bad.size:
            raise ValueError(f"state amplitude {bad[0]} is {amps[bad[0]]!r}, not finite")
        norm = float(np.linalg.norm(amps))
        if norm < 1e-15:
            raise ZeroState("state vector has zero norm")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dim", amps.size)

    def inner(self, other: "QuantumState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"states have dimensions {self.dim} and {other.dim}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @staticmethod
    def basis(dim: int, index: int) -> "QuantumState":
        """Computational basis vector |index> in `dim` dimensions."""
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return QuantumState(amps)


@dataclass(frozen=True)
class Observable:
    """Hermitian complex matrix on the system space.

    Hermiticity is enforced at construction: the max-norm of (M - M+)
    must not exceed 1e-12 times the max-norm of M. NotHermitian names the
    worst entry and both of its values. A NaN or infinite entry raises
    ValueError naming the entry before the Hermiticity test.
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"observable matrix must be square, got {m.shape}")
        scale = max_norm(m)
        if not math.isfinite(scale):  # some entry is NaN or infinite
            r, k = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(f"observable entry ({r}, {k}) is {complex(m[r, k])!r}, not finite")
        dev = np.abs(m - m.conj().T)
        if not max_norm(dev) <= 1e-12 * max(scale, 1e-300):
            r, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
            raise NotHermitian(
                f"matrix is not Hermitian at entry ({r}, {k}): {complex(m[r, k])!r} "
                f"vs conjugate-transpose {complex(np.conj(m[k, r]))!r}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])

    def expectation(self, state: QuantumState) -> float:
        """Real expectation value <psi|M|psi>."""
        if self.dim != state.dim:
            raise DimensionMismatch(
                f"observable dim {self.dim} != state dim {state.dim}"
            )
        return float(np.vdot(state.amplitudes, self.matrix @ state.amplitudes).real)

    def spectral_radius(self) -> float:
        """Largest absolute eigenvalue."""
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))

    @staticmethod
    def identity(dim: int) -> "Observable":
        return Observable(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors are the orthonormal
    columns of `eigenvectors`, phase-fixed so the largest-magnitude
    component of each column is real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real-positive.

    Gives reproducible eigenvector conventions for output files; ties in
    magnitude resolve to the lowest index via argmax.
    """
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def tensor(a, b):
    """Kronecker product of two states or two observables.

    Both operands must be of the same kind; the result lives on the
    product space (dimension = product of dimensions).
    """
    if isinstance(a, QuantumState) and isinstance(b, QuantumState):
        return QuantumState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Observable) and isinstance(b, Observable):
        return Observable(np.kron(a.matrix, b.matrix))
    raise TypeError(
        f"tensor requires two states or two observables, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def hermitian_eig(a: Observable) -> EigenSystem:
    """Eigendecomposition of a Hermitian observable.

    Returns real eigenvalues in ascending order with orthonormal,
    phase-fixed eigenvectors. The Observable constructor has already
    checked Hermiticity, so the matrix goes to ``eigh`` as it is.
    """
    vals, vecs = np.linalg.eigh(a.matrix)
    return EigenSystem(eigenvalues=vals, eigenvectors=_fix_phases(vecs))


def commutator_norm(a: Observable, b: Observable) -> float:
    """Max-norm of the commutator AB - BA. Zero iff A and B commute."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim} differ")
    return max_norm(a.matrix @ b.matrix - b.matrix @ a.matrix)


def simultaneous_eig(
    a: Observable, b: Observable, tol: float = 1e-10
) -> tuple[EigenSystem, EigenSystem]:
    """Eigensystems of a commuting pair, for the branch sum of the exact
    joint engine.

    Requires ``commutator_norm(a, b) <= tol * max|A| * max|B|``; raises
    :class:`NotCommuting` otherwise. For such a pair the two couplings
    factorize, so the pointer state is a sum over the d^2 branches
    (a_k, b_l) of A's and B's own eigenbases and no common eigenbasis is
    needed: the function returns ``hermitian_eig(a), hermitian_eig(b)``.
    Its name is older than that sum and stays because the benchmark's
    per-layer tracer looks up ``weaklab.engines.simultaneous_eig``.
    """
    comm = commutator_norm(a, b)
    scale = max(max_norm(a.matrix) * max_norm(b.matrix), 1e-300)
    if comm > tol * scale:
        raise NotCommuting(
            f"max|[A,B]| = {comm:.3e} exceeds tol*|A||B| = {tol * scale:.3e}"
        )
    return hermitian_eig(a), hermitian_eig(b)
