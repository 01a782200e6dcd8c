"""Post-selected pointer moments under the weak-measurement coupling.

Three routes compute the same conditional moments:

* ``run_single_exact`` / ``run_joint_exact`` -- closed form. The initial
  state is expanded in the eigenbasis of the coupled observable; each
  branch carries a Gaussian displaced by coupling x eigenvalue, and
  moments reduce to the pointer module's overlap integrals. For a
  commuting pair the two couplings factorize, so the branches are the
  d^2 pairs (a_k, b_l) of A's and B's own eigenbases, with amplitude
  <f|b_l><b_l|a_k><a_k|i> (the sequential branch sum of Mitchison, Jozsa
  and Popescu, PRA 76, 062105 (2007)). Exact at any coupling strength.
* ``run_fock`` -- exact unitary evolution in a truncated oscillator
  space. Valid for noncommuting observable pairs, where the closed-form
  joint route refuses to run.
* ``heisenberg_moment`` -- order-by-order nested-commutator expansion of
  a post-selected pointer observable, returning each order separately so
  parity properties of the series are directly testable. It never forms
  an operator on the product space: the binomial expansion
  ad_H^n(O) = sum_k C(n,k) (-1)^k H^(n-k) O H^k turns order n into
  sum_k C(n,k) (-1)^k <H^(n-k) psi0| O |H^k psi0>, so the engine builds
  the vectors H^k psi0 on a (d, n_max+1, n_max+1) state tensor, applying
  H through its factors A (x) Px and B (x) Py and O through |f><f|, X
  and the y-axis operator.

The Fock propagator exploits that the pointer momenta commute with the
coupling Hamiltonian: in the momentum eigenbasis the evolution is block
diagonal over momentum grid points, with one system-dimension Hermitian
block each. This is algebraically identical to eigendecomposing the full
H = Kx A Px + Ky B Py on the product space, at a tiny fraction of the
cost. The truncated P is odd under parity, so its eigenvalues come in
pairs p and -p, and the block at the mirrored grid point (-px, -py) is
exactly minus the block at (px, py): the joint engine diagonalizes only
half of the grid and takes the other half's eigenvectors and negated
eigenvalues from the mirror. When A and B commute exactly
(``commutator_norm(A, B) == 0.0``) the coupling factorizes into one
factor per axis and the joint engine skips the blocks altogether: the
post-selected state is the same branch sum as the exact engine's
(``_fock_branch_sum``). The selection has no tolerance: the
factorization error grows as t^2 |Kx Ky px py| ||[A, B]|| / 2, so only an
exact zero keeps it at rounding level on every grid point and scale.

The three ``run_*`` engines are batched over a coupling scale: with
``scales=(t_1, ..., t_n)`` record n is the run at couplings
t_n (Kx, Ky), and everything independent of the coupling strength
(eigenbases, branch amplitudes, spectral radii, momentum frames, Fock
block eigenvectors) is computed once per batch. Without ``scales`` an
engine returns the one record at t = 1, so a single run and a sweep row
take the same code path. A pointer's Fock operators and momentum frame
depend only on (pointer, n_max) and are built once per process for each
such pair (``_pointer_frame``).

One table, ``MOMENTS``, names the seven record moments and the pointer
operator each takes on the x and y axis; every engine evaluates it. The
exact engines read each operator's matrix of pointer integrals between
branches. Both Fock engines take the moments on the momentum grid they
evolve on, so the state never returns to the ladder basis: P is the
grid itself, X is the frame's cached w^+ X w, and the truncation check
needs only the top two rows of w.
"""

from __future__ import annotations

import collections
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidTruncation,
    NumericalInconsistency,
    OrthogonalPostselection,
    TruncationWarning,
)
from .pointer import GaussianPointer, build_fock, gaussian_overlap, moment_p, moment_x
from .qcore import Observable, QuantumState, commutator_norm, hermitian_eig, simultaneous_eig

__all__ = [
    "SingleCoupling",
    "JointCoupling",
    "MeasurementRecord",
    "MOMENTS",
    "run_single_exact",
    "run_joint_exact",
    "run_fock",
    "heisenberg_moment",
    "EPS_PS",
    "MAX_ARRAY_BYTES",
    "check_array_budget",
]

#: Default post-selection probability floor; conditional moments are
#: numerically meaningless below it.
EPS_PS = 1e-12

#: Imaginary residue above which a conditional moment of a Hermitian
#: observable is treated as a bug rather than rounded away.
IMAG_RESIDUE_TOL = 1e-10

#: Population of the top two Fock levels above which truncated results
#: are flagged as unreliable.
TRUNCATION_TOL = 1e-8

#: Default oscillator truncation level for the Fock engine.
DEFAULT_N_MAX = 40

#: Byte budget for the largest complex array one request may allocate:
#: the Fock block stack of (n_max+1)^2 d x d matrices, the
#: (points, d, d) pointer-integral matrices of a batched sweep, or the
#: (d, n_max+1, n_max+1) state tensor of the series engine. A few
#: arrays of this size are live at once. Larger requests are refused
#: before anything is allocated.
MAX_ARRAY_BYTES = 2**28

#: Each moment of a MeasurementRecord and the pointer operator it applies
#: on the x and on the y axis ("1" identity, "X" position, "P" momentum);
#: single-coupling records carry the rows with no y operator.
MOMENTS = {
    "ps_prob": ("1", "1"),
    "x_mean": ("X", "1"),
    "px_mean": ("P", "1"),
    "y_mean": ("1", "X"),
    "py_mean": ("1", "P"),
    "xy_mean": ("X", "X"),
    "x_py_mean": ("X", "P"),
}
SINGLE_MOMENTS = {name: ops for name, ops in MOMENTS.items() if ops[1] == "1"}


def check_array_budget(n_values: int, what: str, error: type[Exception]):
    """Raise ``error`` if ``n_values`` complex numbers exceed
    MAX_ARRAY_BYTES."""
    nbytes = 16 * n_values
    if nbytes > MAX_ARRAY_BYTES:
        raise error(
            f"{what} needs {nbytes / 2**20:.4g} MiB per array, over the "
            f"{MAX_ARRAY_BYTES / 2**20:.0f} MiB budget"
        )


@dataclass(frozen=True)
class SingleCoupling:
    """Impulsive coupling K A Px of one observable to one pointer.

    K = gT absorbs the interaction time; all outputs depend on K only.
    """

    A: Observable
    K: float
    pointer: GaussianPointer

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"coupling K must be finite, got {self.K}")

    def scaled(self, t: float) -> "SingleCoupling":
        """The same coupling at strength t K."""
        return SingleCoupling(self.A, t * self.K, self.pointer)

    def weakness_ratios(self, scales) -> list[float]:
        """|t K| x spectral radius of A over sigma for each scale t;
        small means weak."""
        radius = self.A.spectral_radius()
        return [abs(t * self.K) * radius / self.pointer.sigma for t in scales]


@dataclass(frozen=True)
class JointCoupling:
    """Local couplings Kx A Px + Ky B Py to a two-dimensional pointer."""

    A: Observable
    B: Observable
    Kx: float
    Ky: float
    pointer_x: GaussianPointer
    pointer_y: GaussianPointer

    def __post_init__(self):
        if self.A.dim != self.B.dim:
            raise DimensionMismatch(
                f"A and B act on different dimensions ({self.A.dim} vs {self.B.dim})"
            )
        if not (math.isfinite(self.Kx) and math.isfinite(self.Ky)):
            raise ValueError("couplings Kx, Ky must be finite")
        if self.pointer_x.hbar != self.pointer_y.hbar:
            raise ValueError(
                "both pointer axes must share one hbar convention, got "
                f"{self.pointer_x.hbar} and {self.pointer_y.hbar}"
            )

    def scaled(self, t: float) -> "JointCoupling":
        """The same couplings at strengths t (Kx, Ky)."""
        return JointCoupling(
            self.A, self.B, t * self.Kx, t * self.Ky, self.pointer_x, self.pointer_y
        )

    def weakness_ratios(self, scales) -> list[float]:
        """Worst of the per-axis weakness ratios at couplings t (Kx, Ky)
        for each scale t."""
        ra, rb = self.A.spectral_radius(), self.B.spectral_radius()
        return [
            max(
                abs(t * self.Kx) * ra / self.pointer_x.sigma,
                abs(t * self.Ky) * rb / self.pointer_y.sigma,
            )
            for t in scales
        ]


@dataclass(frozen=True)
class MeasurementRecord:
    """Post-selection probability and conditional pointer moments.

    Single-coupling runs leave the y-axis fields at zero (a spectator
    pointer stays in its symmetric vacuum, so its conditional moments
    vanish identically).
    """

    ps_prob: float
    x_mean: float
    px_mean: float
    y_mean: float = 0.0
    py_mean: float = 0.0
    xy_mean: float = 0.0
    x_py_mean: float = 0.0
    weakness_ratio: float = 0.0
    engine_tag: str = ""
    truncation_warning: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.ps_prob <= 1.0 + 1e-12):
            raise NumericalInconsistency(
                f"post-selection probability {self.ps_prob!r} outside [0, 1]"
            )
        object.__setattr__(self, "ps_prob", min(max(self.ps_prob, 0.0), 1.0))


def _realize(value, name: str):
    """Discard the imaginary residue of a conditional moment, or of each
    entry of an array of them, after checking it is consistent with
    zero."""
    imag = np.imag(value)
    worst = np.max(np.abs(imag), initial=0.0)
    if worst > IMAG_RESIDUE_TOL:
        raise NumericalInconsistency(
            f"{name} has imaginary residue {worst:.3e}; "
            "conditional moments of Hermitian observables must be real"
        )
    return np.real(value)


def _check_dims(i: QuantumState, f: QuantumState, dim: int):
    if i.dim != dim or f.dim != dim:
        raise DimensionMismatch(
            f"states of dim {i.dim}, {f.dim} do not match observable dim {dim}"
        )


def _scale_array(scales) -> np.ndarray:
    """Coupling scales as a 1-D float array; None is the single scale 1."""
    ts = np.asarray((1.0,) if scales is None else scales, dtype=float).reshape(-1)
    if not np.all(np.isfinite(ts)):
        raise ValueError("coupling scales must be finite")
    return ts


def _batch_result(records: list, scales):
    """The one record of an unbatched call, else the list of records."""
    return records[0] if scales is None else records


def _records(raw: dict, weakness: list, tag: str, eps_ps: float, truncated=None):
    """One MeasurementRecord per scale from columns of unnormalized
    forms: ``raw["ps_prob"][n]`` is the post-selection probability of
    row n and every other column holds conditional moments times it.
    Every row passes the imaginary-residue check and the eps_ps floor."""
    ps = _realize(np.asarray(raw["ps_prob"]), "ps_prob")
    low = np.flatnonzero(ps < eps_ps)
    if low.size:
        raise OrthogonalPostselection(
            f"post-selection probability {ps[low[0]]:.3e} below floor {eps_ps:.1e}"
        )
    moments = {
        name: (_realize(np.asarray(column), name) / ps).tolist()
        for name, column in raw.items()
        if name != "ps_prob"
    }
    truncated = truncated or [False] * len(weakness)
    return [
        MeasurementRecord(
            ps_prob=p,
            weakness_ratio=w,
            engine_tag=tag,
            truncation_warning=trunc,
            **{name: column[n] for name, column in moments.items()},
        )
        for n, (p, w, trunc) in enumerate(zip(ps.tolist(), weakness, truncated))
    ]


def _moment_matrices(displacements: np.ndarray, p: GaussianPointer) -> dict:
    """Branch-pair matrices of pointer integrals for displacements of
    shape (..., d), keyed by the pointer operators of MOMENTS: overlap
    ("1"), position moment ("X") and momentum moment ("P"), each of
    shape (..., d, d)."""
    d1 = displacements[..., :, None]
    d2 = displacements[..., None, :]
    return {
        "1": gaussian_overlap(d1, d2, p),
        "X": moment_x(d1, d2, p),
        "P": moment_p(d1, d2, p),
    }


def _branch_amplitudes(i: QuantumState, f: QuantumState, vecs: np.ndarray):
    """<f|v_k><v_k|i> for each eigenvector column v_k."""
    return (f.amplitudes.conj() @ vecs) * (vecs.conj().T @ i.amplitudes)


def _branch_factors(i: QuantumState, f: QuantumState, ea, eb):
    """The three factors of the amplitude <f|b_l><b_l|a_k><a_k|i> of
    branch (a_k, b_l), for the eigenvector columns a_k of ea and b_l of
    eb: <a_k|i>, the (k, l) matrix of <b_l|a_k>, and <f|b_l>."""
    ai = ea.eigenvectors.conj().T @ i.amplitudes
    ba = eb.eigenvectors.conj().T @ ea.eigenvectors
    return ai, ba.T, f.amplitudes.conj() @ eb.eigenvectors


def _stack_times(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """m[n] @ a for every matrix of an (n, d, d) stack, as one 2-D
    product: a stacked matmul makes n small ones, at twice the cost for
    a 50-point sweep at d = 4."""
    return (m.reshape(-1, m.shape[-1]) @ a).reshape(m.shape)


def run_single_exact(
    i: QuantumState,
    f: QuantumState,
    c: SingleCoupling,
    eps_ps: float = EPS_PS,
    *,
    scales=None,
):
    """Closed-form conditional moments for a single weak coupling.

    Expands |i> in the eigenbasis of A; the post-selected pointer state
    is a sum of Gaussians displaced by K a_k with amplitudes
    <f|a_k><a_k|i>, and all moments assemble from pairwise pointer
    integrals. Exact to machine precision at any K. With ``scales``,
    returns the list of records at couplings t K, one per scale t.
    """
    _check_dims(i, f, c.A.dim)
    ts = _scale_array(scales)
    es = hermitian_eig(c.A)
    amp = _branch_amplitudes(i, f, es.eigenvectors)
    mats = _moment_matrices(np.outer(ts * c.K, es.eigenvalues), c.pointer)
    forms = {name: amp.conj() @ mats[op] @ amp for name, (op, _) in SINGLE_MOMENTS.items()}
    records = _records(forms, c.weakness_ratios(ts.tolist()), "exact-single", eps_ps)
    return _batch_result(records, scales)


def run_joint_exact(
    i: QuantumState,
    f: QuantumState,
    c: JointCoupling,
    eps_ps: float = EPS_PS,
    *,
    scales=None,
):
    """Closed-form conditional moments for two commuting couplings.

    The couplings factorize, so the post-selected pointer state is a sum
    over the d^2 branches (a_k, b_l) of A's and B's own eigenbases: a 2D
    product Gaussian displaced by (Kx a_k, Ky b_l) with amplitude
    amp[k, l] = <f|b_l><b_l|a_k><a_k|i>. Each moment is then
    sum_{l,l'} (amp^+ Mx amp)[l, l'] My[l, l'] with Mx, My the
    branch-pair matrices of 1D pointer integrals on each axis. Refuses
    noncommuting pairs (NotCommuting); use run_fock for those. With
    ``scales``, returns the list of records at couplings t (Kx, Ky).
    """
    _check_dims(i, f, c.A.dim)
    ts = _scale_array(scales)
    ea, eb = simultaneous_eig(c.A, c.B)
    ai, ab, fb = _branch_factors(i, f, ea, eb)
    amp = ai[:, None] * ab * fb
    mx = _moment_matrices(np.outer(ts * c.Kx, ea.eigenvalues), c.pointer_x)
    my = _moment_matrices(np.outer(ts * c.Ky, eb.eigenvalues), c.pointer_y)
    # (amp^+ Mx amp)^T = (Mx amp)^T conj(amp) once per x operator,
    # shared by the moments that use it
    on_x = {
        op: _stack_times(_stack_times(m, amp).swapaxes(1, 2), amp.conj())
        for op, m in mx.items()
    }
    forms = {
        name: np.einsum("nji,nij->n", on_x[op_x], my[op_y])
        for name, (op_x, op_y) in MOMENTS.items()
    }
    records = _records(forms, c.weakness_ratios(ts.tolist()), "exact-joint", eps_ps)
    return _batch_result(records, scales)


_Frame = collections.namedtuple("_Frame", "fock p x top vacuum")


@functools.lru_cache(maxsize=4)
def _pointer_frame(p: GaussianPointer, n_max: int) -> _Frame:
    """Pointer p truncated at n_max and the momentum grid the Fock
    engines evolve on and take their moments on. With w the eigenvector
    columns of the truncated P, the frame holds ``fock`` (the
    ladder-basis operators, for the series engine), the grid ``p`` (the
    eigenvalues of P), ``x`` (X on the grid, w^+ X w), ``top`` (the top
    two rows of w, which carry the top two ladder levels) and
    ``vacuum`` (w^+ |0>). Cached per (p, n_max), so every engine call on
    one pointer shares one ``eigh``; the returned arrays are read-only.
    The cache keeps the four most recent frames, which covers the two
    axes of a joint run and both truncations ``validate`` uses.

    The truncated P is odd under parity, so its spectrum is symmetric,
    p[N-1-j] = -p[j]. The grid is symmetrized so that this holds bit for
    bit (``eigh`` leaves a few ulp of asymmetry); the Fock joint engine
    relies on it to diagonalize only half of the momentum grid."""
    fock = build_fock(p, n_max)
    vals, w = np.linalg.eigh(fock.P)
    frame = _Frame(
        fock=fock,
        p=(vals - vals[::-1]) / 2,
        x=w.conj().T @ fock.X @ w,
        top=w[-2:].copy(),
        vacuum=w.conj().T @ fock.vacuum_state(),
    )
    for array in frame[1:]:
        array.flags.writeable = False
    return frame


def _on_grid(op: str, frame: _Frame, a: np.ndarray) -> np.ndarray:
    """Pointer operator op of MOMENTS applied along the first axis of
    amplitudes a on the momentum grid of frame."""
    if op == "X":
        return frame.x @ a
    if op == "P":
        return frame.p[:, None] * a
    return a


def _grid_moments(phi: np.ndarray, table: dict, fx: _Frame, fy: _Frame | None = None):
    """Unnormalized moments ``table`` of the post-selected pointer state
    phi[j, m] on the momentum grid (px_j, py_m) of frames fx and fy (one
    column and no y operator for a single pointer). Each x operator is
    applied once and shared by the rows that use it."""
    on_x = {op: _on_grid(op, fx, phi) for op in "1XP"}
    return {
        name: np.vdot(phi, _on_grid(op_y, fy, on_x[op_x].T).T)
        for name, (op_x, op_y) in table.items()
    }


def _population(psi: np.ndarray) -> float:
    """Total population (squared norm) of a block of amplitudes."""
    return float(np.sum(np.abs(psi) ** 2))


def _warn_truncation(population: float) -> bool:
    if population > TRUNCATION_TOL:
        warnings.warn(
            f"top Fock levels hold population {population:.3e}; "
            "increase n_max for reliable moments",
            TruncationWarning,
            stacklevel=4,  # the caller of run_fock
        )
        return True
    return False


def _fock_single(i, f, c: SingleCoupling, n_max, eps_ps, ts):
    frame = _pointer_frame(c.pointer, n_max)
    es = hermitian_eig(c.A)

    # evolution is diagonal over momentum grid points: each point sees
    # the system Hamiltonian t K p A, already diagonal in A's eigenbasis
    coeff = es.eigenvectors.conj().T @ np.einsum("s,j->sj", i.amplitudes, frame.vacuum)
    grid = np.outer(es.eigenvalues, frame.p)
    raw = {name: [] for name in SINGLE_MOMENTS}
    truncated = []
    for t in ts.tolist():
        phases = np.exp(-1j * (t * c.K) / c.pointer.hbar * grid)
        psi = es.eigenvectors @ (phases * coeff)  # (system, p)
        truncated.append(_warn_truncation(_population(psi @ frame.top.T)))

        phi = f.amplitudes.conj() @ psi
        for name, value in _grid_moments(phi[:, None], SINGLE_MOMENTS, frame).items():
            raw[name].append(value)
    return _records(raw, c.weakness_ratios(ts.tolist()), "fock-single", eps_ps, truncated)


def _fock_joint(i, f, c: JointCoupling, n_max, eps_ps, ts):
    """Joint Fock engine on the momentum grid (px_j, py_m), where the
    coupling is one d x d Hermitian block per grid point.

    Both momentum grids are exactly antisymmetric (``_pointer_frame``),
    so the block at (N-1-j, M-1-m) is exactly minus the block at (j, m):
    it has the same eigenvectors and negated eigenvalues. Only the rows
    j < (N+1)/2 go through ``eigh`` (861 of 1681 blocks at n_max 40);
    the other rows are their mirror, for odd and even N alike."""
    fx = _pointer_frame(c.pointer_x, n_max)
    fy = _pointer_frame(c.pointer_y, n_max)

    # block Hamiltonians (Kx px A + Ky py B) / s over the momentum grid,
    # s the first nonzero coupling: scale t multiplies their eigenvalues
    # by t s and leaves the eigenvectors alone; half the rows are mirrored
    s = c.Kx or c.Ky or 1.0
    n = len(fx.p)
    evals, evecs = np.linalg.eigh(
        (c.Kx / s * fx.p[: (n + 1) // 2])[:, None, None, None] * c.A.matrix
        + (c.Ky / s * fy.p)[None, :, None, None] * c.B.matrix
    )
    mirror = np.s_[n // 2 - 1 :: -1, ::-1]
    evals = np.concatenate([evals, -evals[mirror]])
    evecs = np.concatenate([evecs, evecs[mirror]])
    # <v_k|i> vacx[j] vacy[m] for eigenvector v_k of block (j, m)
    coeff0 = (i.amplitudes.conj() @ evecs).conj() * np.outer(fx.vacuum, fy.vacuum)[..., None]

    raw = {name: [] for name in MOMENTS}
    truncated = []
    for t in ts.tolist():
        coeff = coeff0 * np.exp(-1j * (t * s) / c.pointer_x.hbar * evals)
        psi = (evecs @ coeff[..., None])[..., 0]  # (px, py, system)

        # the ladder-basis change along one axis is unitary and keeps the
        # norm along the other, so the top two levels of each axis need
        # only the top two rows of its basis change
        top = max(_population(fx.top @ psi.reshape(n, -1)), _population(fy.top @ psi))
        truncated.append(_warn_truncation(top))

        phi = psi @ f.amplitudes.conj()
        for name, value in _grid_moments(phi, MOMENTS, fx, fy).items():
            raw[name].append(value)
    return _records(raw, c.weakness_ratios(ts.tolist()), "fock-joint", eps_ps, truncated)


def _fock_branch_sum(i, f, c: JointCoupling, n_max, eps_ps, ts):
    """Joint Fock engine for exactly commuting A and B on the momentum
    grid (px_j, py_m), with no block ``eigh``.

    The coupling factorizes, exp(-i t (Kx A px + Ky B py)/hbar) =
    exp(-i t Ky B py/hbar) exp(-i t Kx A px/hbar), so the post-selected
    state is the branch sum of ``run_joint_exact``: phi = Gx @ amp @ Gy^T
    with amp[k, l] = <f|b_l><b_l|a_k><a_k|i> and Gx[j, k] =
    exp(-i t Kx px_j a_k/hbar) vacx[j] (Gy likewise on the y axis). Each
    scale costs O(N d^2) on an N-point grid before the moments."""
    fx = _pointer_frame(c.pointer_x, n_max)
    fy = _pointer_frame(c.pointer_y, n_max)
    ea, eb = hermitian_eig(c.A), hermitian_eig(c.B)
    ai, ab, fb = _branch_factors(i, f, ea, eb)
    grid_x = np.outer(fx.p, ea.eigenvalues)
    grid_y = np.outer(fy.p, eb.eigenvalues)
    hbar = c.pointer_x.hbar

    raw = {name: [] for name in MOMENTS}
    truncated = []
    for t in ts.tolist():
        gx = np.exp(-1j * (t * c.Kx) / hbar * grid_x) * fx.vacuum[:, None]
        gy = np.exp(-1j * (t * c.Ky) / hbar * grid_y) * fy.vacuum[:, None]
        # w[j, l]: the state on x grid point j in B's eigenbasis, before
        # the y phases; the y phases have unit modulus and the vacuum has
        # unit norm, so neither axis's top levels need the full state
        w = (gx * ai) @ ab
        top_y = np.sum(np.abs(fy.top @ gy) ** 2, axis=0)
        top = max(_population(fx.top @ w), float(np.sum(np.abs(w) ** 2, axis=0) @ top_y))
        truncated.append(_warn_truncation(top))

        phi = (w * fb) @ gy.T
        for name, value in _grid_moments(phi, MOMENTS, fx, fy).items():
            raw[name].append(value)
    return _records(raw, c.weakness_ratios(ts.tolist()), "fock-joint", eps_ps, truncated)


def run_fock(
    i: QuantumState,
    f: QuantumState,
    c,
    n_max: int = DEFAULT_N_MAX,
    eps_ps: float = EPS_PS,
    *,
    scales=None,
):
    """Exact unitary evolution in a truncated oscillator pointer space.

    Accepts a SingleCoupling or a JointCoupling; the joint case places no
    commutation requirement on A and B. A joint pair with
    ``commutator_norm(A, B) == 0.0`` exactly is evolved as a sum over
    the branches of A's and B's eigenbases, with no block eigenvectors;
    every other pair takes the block-eigh engine. The test has no
    tolerance, since a nonzero commutator would enter the factorized
    evolution as an error t^2 |Kx Ky px py| ||[A, B]|| / 2 that no fixed
    bound keeps at rounding level. If the evolved state populates
    the top two truncation levels above 1e-8 a TruncationWarning is
    issued and flagged on the record. With ``scales``, returns the list
    of records at couplings t (Kx, Ky); the momentum frames and block
    eigenvectors are computed once, and each scale costs one phase, the
    products with the block eigenvectors and the moments on the momentum
    grid. Raises InvalidTruncation if the (n_max+1)^2 d x d blocks would
    exceed MAX_ARRAY_BYTES.
    """
    if isinstance(c, SingleCoupling):
        engine = _fock_single
    elif isinstance(c, JointCoupling):
        # both joint engines are called from here, at the depth that
        # _warn_truncation's stacklevel counts on
        engine = _fock_branch_sum if commutator_norm(c.A, c.B) == 0.0 else _fock_joint
    else:
        raise TypeError(f"expected SingleCoupling or JointCoupling, got {type(c).__name__}")
    _check_dims(i, f, c.A.dim)
    check_array_budget(
        (int(n_max) + 1) ** 2 * c.A.dim**2,
        f"n_max={n_max} with system dimension {c.A.dim}",
        InvalidTruncation,
    )
    ts = _scale_array(scales)
    return _batch_result(engine(i, f, c, n_max, eps_ps, ts), scales)


# observable tags for the series engine
_SERIES_TAGS = ("O_x", "O_xy", "O_xpy")


def heisenberg_moment(
    i: QuantumState,
    f: QuantumState,
    c: JointCoupling,
    observable_tag: str,
    order: int,
    n_max: int = 8,
) -> np.ndarray:
    """Per-order nested-commutator contributions to a pointer observable.

    Expands <O(t=1)> for O in {|f><f| X, |f><f| X Y, |f><f| X Py} as
    sum_n (i/hbar)^n / n! <[H,[H,...,O]]> with n nested commutators,
    evaluated on the initial product state psi0 (system x pointer vacua)
    with both pointers truncated at n_max, and returns the orders
    0..order separately, unnormalized (no division by the post-selection
    probability). Each contribution is real; parity of the Gaussian
    vacuum makes alternate orders vanish identically.

    Since H is Hermitian, order n equals (i/hbar)^n / n! times
    sum_k C(n,k) (-1)^k <H^(n-k) psi0| O |H^k psi0>: the engine applies
    H to psi0 ``order`` times on a (d, n_max+1, n_max+1) state tensor
    and never forms an operator on the product space. Raises
    InvalidTruncation if that tensor would exceed MAX_ARRAY_BYTES.
    """
    if not 0 <= order <= 4:
        raise ValueError(f"order must be in [0, 4], got {order}")
    if observable_tag not in _SERIES_TAGS:
        raise ValueError(
            f"observable_tag must be one of {_SERIES_TAGS}, got {observable_tag!r}"
        )
    if n_max < order + 2:
        raise ValueError(f"n_max={n_max} too small for order {order}")
    d = c.A.dim
    _check_dims(i, f, d)
    check_array_budget(
        d * (int(n_max) + 1) ** 2,
        f"n_max={n_max} with system dimension {d}",
        InvalidTruncation,
    )

    fx = _pointer_frame(c.pointer_x, n_max).fock
    fy = _pointer_frame(c.pointer_y, n_max).fock
    y_op = {"O_x": None, "O_xy": fy.X, "O_xpy": fy.P}[observable_tag]

    # H^k psi0 for k = 0..order on tensors indexed (system, x level,
    # y level); H acts through its factors A (x) Px and B (x) Py
    powers = [np.zeros((d, fx.dim, fy.dim), dtype=complex)]
    powers[0][:, fx.vacuum, fy.vacuum] = i.amplitudes
    for _ in range(order):
        v = powers[-1]
        powers.append(
            c.Kx * np.tensordot(c.A.matrix, fx.P @ v, axes=1)
            + c.Ky * np.tensordot(c.B.matrix, v @ fy.P.T, axes=1)
        )

    # O = |f><f| (x) X (x) y_op: project each H^k psi0 on <f| once, then
    # <H^(n-k) psi0| O |H^k psi0> = <left[n-k]| X left[k] y_op^T>
    left = [np.tensordot(f.amplitudes.conj(), v, axes=1) for v in powers]
    right = [fx.X @ phi if y_op is None else fx.X @ phi @ y_op.T for phi in left]

    hbar = c.pointer_x.hbar
    contributions = np.empty(order + 1)
    for n in range(order + 1):
        value = sum(
            math.comb(n, k) * (-1) ** k * np.vdot(left[n - k], right[k])
            for k in range(n + 1)
        )
        value *= (1j / hbar) ** n / math.factorial(n)
        contributions[n] = _realize(complex(value), f"order-{n} contribution")
    return contributions
