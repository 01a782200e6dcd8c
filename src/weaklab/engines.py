"""Post-selected pointer moments under the weak-measurement coupling.

A coupling is a list of pointer axes: ``SingleCoupling`` has one and
``JointCoupling`` two, each an (observable, K, pointer, flag) tuple in
its ``axes``, with flag the CLI name of its coupling ("kx", "ky"). The
engines read couplings through ``axes``: one ``weakness_ratios`` serves
both classes, one body (``_run_exact``) serves both exact engines, and
the branch sum takes one (operators, scales, d, d) stack of branch-pair
matrices per axis.

Three routes compute the same conditional moments:

* One branch sum (``_branch_sum``) serves ``run_single_exact``,
  ``run_joint_exact`` and ``run_fock`` for a single coupling or an
  exactly commuting pair. The initial state is expanded in the coupled
  observables' own eigenbases; each branch carries a pointer Gaussian
  displaced by coupling x eigenvalue, and the branch amplitudes form a
  tensor with one index per coupled axis: <f|a_k><a_k|i> for a single
  coupling and <f|b_l><b_l|a_k><a_k|i> for the d^2 branches (a_k, b_l)
  of a commuting pair (the sequential branch sum of Mitchison, Jozsa
  and Popescu, PRA 76, 062105 (2007)). Each axis holds the branch-pair
  matrices of its pointer integrals as one (operators, scales, d, d)
  stack in the fixed order of STACK_OPERATORS: "1", "X", "P", and
  "top" for the Fock rule only. One contraction (``_contract``) takes
  every moment from such a tensor and the stacks, with two flat
  products over the whole x stack and one einsum over every (x, y)
  operator pair; ``_populations`` takes the Fock rule's truncation
  populations from the "top" and "1" slices alone. Two rules supply
  the stacks, and the branch sum applies the one it is given to each
  axis: the closed-form Gaussian integrals of the pointer module
  (``_moment_matrices``, the exact engines, exact at any coupling
  strength) and the Gauss-Hermite rule of the truncated oscillator
  (``_grid_matrices``, the Fock engine). The exact engines
  share one body: dimensions, scales, the coupling refusal, the
  eigensystems (``simultaneous_eig`` for a pair, which refuses a
  noncommuting one, so an overflowing noncommuting pair is refused by
  name first), the branch sum and the batch.
* ``run_fock`` on a noncommuting pair -- exact unitary evolution in a
  truncated oscillator space (``_fock_joint``), where the closed-form
  joint route refuses to run: a Chebyshev series of the evolution on
  the first ladder levels of each axis at weak coupling, one block
  ``eigh`` per momentum grid point above the crossover.
* ``heisenberg_moment`` -- order-by-order nested-commutator expansion of
  a post-selected pointer observable, returning each order separately so
  parity properties of the series are directly testable. It never forms
  an operator on the product space: the binomial expansion
  ad_G^n(O) = sum_k C(n,k) (-1)^k G^(n-k) O G^k of G = H / hbar turns
  order n into i^n / n! sum_k C(n,k) (-1)^k <G^(n-k) psi0| O |G^k psi0>,
  so the engine builds the vectors G^k psi0 on a (d, n_max+1, n_max+1)
  state tensor, applying G through its factors A (x) Px / hbar and
  B (x) Py / hbar and O through |f><f|, X and the y-axis operator; the
  system operators act as flat products on its (d, (n_max+1)^2) view.

The Fock engine works on the momentum grid: the eigenvalues p_j of the
truncated P, which are the Gauss-Hermite nodes scaled by sqrt(2) hbar /
(2 sigma), with the vacuum's squared components as weights (Golub and
Welsch, Math. Comp. 23, 221 (1969)). The pointer momenta commute with the
coupling, so branch k of a single coupling or commuting pair is the grid
vector G[j, k] = exp(-i t K p_j a_k / hbar) vac[j], and the branch-pair
matrices are G^+ op G. The noncommuting evolution is block diagonal over
grid points, with one system-dimension Hermitian block each; this is
algebraically identical to evolving by the full H = Kx A Px + Ky B Py
on the product space, at a tiny fraction of the cost. Every block is
bounded by h, the sum over the axes of |K| x spectral radius x max|p|
(``_norm_terms`` times hbar), so exp(-i t H / hbar) = exp(-i x y) with
x = t h / hbar and y = H / h in [-1, 1], and
exp(-i x y) = sum_n (2 - delta_n0) (-i)^n J_n(x) T_n(y) (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)). The engine keeps the terms
before the first n whose bound (x/2)^n / n! on |J_n(x)| is at most
2^-55, and takes J_n from the trapezoid rule on exp(-i x cos tau).
The recurrence T_n(y) psi0 serves every scale at once and costs one
small product per term, and needs no grid: H raises each axis's ladder
level by at most one, so T_n(y) psi0 has no component above level n,
and the recurrence runs on the first ``terms`` ladder levels of each
axis (on the grid where the truncation has no more levels than terms,
``_series_basis``); J_n(x) decays only beyond n = x + O(x^(1/3)),
so the terms needed grow with x (the bound asks for 15 at x = 0.9 and
24 at x = 4), while the block ``eigh`` costs a fixed amount whatever x
is. So a call whose largest |x| needs at most
_CHEBYSHEV_TERMS terms takes the series (``_chebyshev_rows``), and any
other the blocks (``_block_rows``). The truncated P is odd under
parity, so its eigenvalues come in pairs p and -p, and the block at the
mirrored grid point (-px, -py) is exactly minus the block at (px, py):
the block route diagonalizes only half of the grid and takes the other
half's eigenvectors and negated eigenvalues from the mirror. A joint
pair takes the branch sum only when
``commutator_norm(A, B) == 0.0``: the factorization error grows as
t^2 |Kx Ky px py| ||[A, B]|| / 2, so only an exact zero keeps it at
rounding level on every grid point and scale.

Every ``run_*`` engine returns a ``MeasurementBatch``: one read-only
table with one row per moment and one column per run, checked and
clamped as a whole. With
``scales=(t_1, ..., t_n)`` row n is the run at couplings t_n (Kx, Ky),
and everything independent of the coupling strength (eigenbases,
branch amplitudes, spectral radii, momentum frames, the Chebyshev
recurrence or the Fock block eigenvectors) is computed once per batch;
without ``scales`` the batch is the one row at t = 1, so a single run
and a sweep take the same code path. A joint call with ``with_singles=True`` also returns the
batch of each axis coupled alone, bit for bit what a separate
single-coupling call gives: on the branch sum that is ``_branch_sum``
of one axis's eigensystem and stack, both of which the pair has
already built; the block engine computes the two single-axis branch
sums after its own batch. Every ``run_*`` engine, and the series, refuses a coupling
whose branch displacements overflow the pointer integrals (ValueError
naming kx or ky) before it forms any integral, Fock phase or power of
H. The series also refuses, with the same ValueError, a coupling whose
bound on the values it forms overflows: |H| <= h, the sum over the
axes of |K| x spectral radius x max|p| on the frame's momentum grid,
and no value exceeds max(1, 2 h / hbar)^order |X| |y operator|. A
pointer's Fock operators and momentum frame depend only on
(pointer, n_max) and are built once per process for each such pair
(``_pointer_frame``).

One table, ``MOMENTS``, names the seven batch moments and the pointer
operator each takes on the x and y axis. Every engine but the series
takes them through one ``_contract``, as one (moments, scales) array in
MOMENTS order that ``_records`` turns into the batch's table, and one
``_realize`` checks the moments of every engine and the series (finite,
imaginary residue consistent with zero in the units of the pointer
operators) before taking their real parts. The block engine takes the
moments on the basis it evolves on, and the post-selected state
phi[j, m] is an amplitude tensor with one index per axis. On the
momentum grid of the block ``eigh`` each frame's cached operator stack
(the identity, w^+ X w and the grid diag(p)) is a one-column axis
stack, and the truncation check needs only the top two rows of w; on
the ladder levels of the series the stack is the leading blocks of the
identity, X and P, and the top two levels are two rows of the state.
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
    "MeasurementBatch",
    "MOMENTS",
    "STACK_OPERATORS",
    "run_single_exact",
    "run_joint_exact",
    "run_fock",
    "heisenberg_moment",
    "EPS_PS",
    "MAX_ARRAY_BYTES",
    "check_array_budget",
]

#: Post-selection probability floor; conditional moments are
#: numerically meaningless below it.
EPS_PS = 1e-12

#: Imaginary residue above which a conditional moment of a Hermitian
#: observable is treated as a bug rather than rounded away. Each batch
#: moment multiplies it by the vacuum spreads of its pointer operators,
#: and the series by the size of the products each order sums, when
#: above 1.
IMAG_RESIDUE_TOL = 1e-10

#: Population of the top two Fock levels above which truncated results
#: are flagged as unreliable.
TRUNCATION_TOL = 1e-8

#: Default oscillator truncation level for the Fock engine.
DEFAULT_N_MAX = 40

#: Byte budget for the largest complex array one request may allocate:
#: the Fock block stack of (n_max+1)^2 d x d matrices, an axis's
#: (operators, points, d, d) stack of branch-pair matrices in a batched
#: sweep (operators the STACK_OPERATORS), or the (d, n_max+1, n_max+1)
#: state tensor of the series engine. A few arrays of this size are live
#: at once. The Fock branch sum counts every array live at its peak
#: together: points x d x ((2 + operators) x max(n_max+1, d) +
#: operators x axes x d) values, and so does the Chebyshev route of the
#: joint Fock engine (``_chebyshev_live``). Larger requests are refused
#: before anything is allocated.
MAX_ARRAY_BYTES = 2**28

#: The most terms of the Chebyshev series by which the joint Fock engine
#: evolves a noncommuting pair; a call whose strongest scale needs more
#: takes one block ``eigh`` per momentum grid point instead. The measured
#: break-even of the two routes at the default n_max is 28 to 32 terms
#: for a qubit pair and 44 to at least 52 for a d = 4 run, and at n_max
#: 10 it is 8 to 20; ``_chebyshev_terms`` needs the limit below 55.
_CHEBYSHEV_TERMS = 24
#: The scales whose Chebyshev coefficients are taken in one product.
_COEFFICIENT_BLOCK = 256

#: Each moment of a MeasurementBatch and the pointer operator it applies
#: on the x and on the y axis ("1" identity, "X" position, "P" momentum).
MOMENTS = {
    "ps_prob": ("1", "1"),
    "x_mean": ("X", "1"),
    "px_mean": ("P", "1"),
    "y_mean": ("1", "X"),
    "py_mean": ("1", "P"),
    "xy_mean": ("X", "X"),
    "x_py_mean": ("X", "P"),
}
#: The pointer operators of an axis's stack of branch-pair matrices, in
#: the order of its first axis: those of MOMENTS, then "top", the
#: population of the top two ladder levels, which only the Gauss-Hermite
#: rule of the Fock engine gives.
STACK_OPERATORS = ("1", "X", "P", "top")
_TOP = STACK_OPERATORS.index("top")
#: The stack index of each MOMENTS row's operator on the x and y axis.
_MOMENT_OPS = np.array([[STACK_OPERATORS.index(op) for op in ops] for ops in MOMENTS.values()])
#: The MOMENTS rows a coupling of n axes takes, keyed by n: those whose
#: operators on its absent axes are "1", in MOMENTS order.
_AXIS_MOMENTS = {n: np.flatnonzero((_MOMENT_OPS[:, n:] == STACK_OPERATORS.index("1")).all(axis=1))
                 for n in (1, 2)}


def _mib(nbytes: int, up: bool) -> str:
    """nbytes in MiB at four significant digits in ``.4g`` form, rounded
    up or down in exact integer arithmetic."""
    num, den, exponent = nbytes, 2**20, 0
    while num >= 10**4 * den:
        den, exponent = 10 * den, exponent + 1
    while 0 < num < 10**3 * den:
        num, exponent = 10 * num, exponent - 1
    digits = -(-num // den) if up else num // den
    return format(digits * 10**exponent if exponent >= 0 else digits / 10**-exponent, ".4g")


def check_array_budget(n_values: int, what: str, error: type[Exception]):
    """Raise ``error`` if ``n_values`` complex numbers, the arrays one
    step of a request holds at once, exceed MAX_ARRAY_BYTES. The message
    rounds the request up and the budget down, so the request never
    reads as equal to the budget it exceeds."""
    nbytes = 16 * n_values
    if nbytes > MAX_ARRAY_BYTES:
        raise error(
            f"{what} needs {_mib(nbytes, True)} MiB, over the "
            f"{_mib(MAX_ARRAY_BYTES, False)} MiB budget"
        )


def _too_strong(flag: str, k: float, why: str) -> ValueError:
    """The refusal of a coupling |flag| = k that overflows a run."""
    return ValueError(f"coupling |{flag}| = {k!r} is too strong to represent: {why}")


class _Coupling:
    """What both coupling classes share. Each lists its coupled pointer
    axes as ``axes``: one (observable, K, pointer, flag) tuple per axis,
    x first, with flag the CLI name of its coupling ("kx" or "ky")."""

    def weakness_ratios(self, ts: np.ndarray) -> np.ndarray:
        """Worst over the axes of |t K| r / sigma for each scale t, with r
        the spectral radius of the axis's observable; small means weak.

        Two branches of an axis sit at most 2 |t K| r apart, and the
        pointer integrals square that distance and divide it by
        8 sigma^2. If that is not finite, every integral and Fock phase
        of the run would be inf or nan, so the coupling is refused with a
        ValueError naming the axis's flag before any is formed. The test
        runs on Python floats, which overflow to inf without numpy's
        warnings."""
        ratios = []
        for A, K, p, flag in self.axes:
            radius = A.spectral_radius()
            k = abs(K) * max(map(abs, ts.tolist()), default=0.0)
            span = 2.0 * k * radius
            if not math.isfinite(span * span / (8.0 * p.sigma**2)):
                raise _too_strong(
                    flag, k, f"branch displacements 2 |{flag}| x spectral radius "
                    f"{radius!r} overflow the pointer integrals"
                )
            ratios.append(np.abs(ts * K) * radius / p.sigma)
        return functools.reduce(np.maximum, ratios)


@dataclass(frozen=True)
class SingleCoupling(_Coupling):
    """Impulsive coupling K A Px of one observable to one pointer.

    K = gT absorbs the interaction time; all outputs depend on K only.
    """

    A: Observable
    K: float
    pointer: GaussianPointer

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError(f"coupling K must be finite, got {self.K}")

    @property
    def axes(self):
        return ((self.A, self.K, self.pointer, "kx"),)


@dataclass(frozen=True)
class JointCoupling(_Coupling):
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

    @property
    def axes(self):
        return ((self.A, self.Kx, self.pointer_x, "kx"), (self.B, self.Ky, self.pointer_y, "ky"))


@dataclass(frozen=True, eq=False)
class MeasurementBatch:
    """Post-selection probability and conditional pointer moments of one
    engine call, held as one table.

    Row n of the batch is the run at coupling scale ``scales[n]``.
    ``moments`` is one read-only float table that owns its data, with
    one row per MOMENTS name, in MOMENTS order, and one column per run;
    each name (``batch.ps_prob``, ``batch.x_mean``, ...) reads as a
    read-only view of its row of the table. ``scales`` and
    ``weakness_ratio`` are read-only float arrays with one entry per run,
    ``truncation_warning`` a read-only bool array, and ``engine_tag``
    one string for every run. ``coupling`` is the coupling the runs
    scale, from which the extractions read K and the pointers.
    Single-coupling runs leave the y-axis moments at zero (a spectator
    pointer stays in its symmetric vacuum, so its conditional moments
    vanish identically).
    """

    scales: np.ndarray
    moments: np.ndarray
    weakness_ratio: np.ndarray
    truncation_warning: np.ndarray
    engine_tag: str
    coupling: _Coupling

    def __post_init__(self):
        for name in ("scales", "moments", "weakness_ratio", "truncation_warning"):
            getattr(self, name).setflags(write=False)


for _row, _name in enumerate(MOMENTS):
    setattr(MeasurementBatch, _name, property(lambda batch, row=_row: batch.moments[row],
                                              doc=f"Row {_row} of ``moments``, read-only."))
del _row, _name


def _realize(forms: np.ndarray, names, bounds) -> np.ndarray:
    """The real parts of forms, whose first axis runs over names and
    second axis, if any, over the rows of a batch ("record n" in the
    messages), after two checks that each name the first value or name
    that fails them: every value is finite and each name's imaginary
    residue is within its bound (both NumericalInconsistency). No bound
    is below IMAG_RESIDUE_TOL, so ``bounds``, a function that returns
    one bound per name, is called only when some residue exceeds it."""
    if not np.isfinite(forms).all():
        index = tuple(np.argwhere(~np.isfinite(forms))[0])
        record = f" of record {index[1]}" if len(index) > 1 else ""
        raise NumericalInconsistency(
            f"{names[index[0]]}{record} is {complex(forms[index])}, not finite"
        )
    if (np.abs(forms.imag) > IMAG_RESIDUE_TOL).any():
        residue = np.abs(forms.imag).reshape(len(names), -1).max(axis=1)
        outside = residue > bounds()
        if outside.any():
            row = outside.argmax()
            raise NumericalInconsistency(
                f"{names[row]} has imaginary residue {residue[row]:.3e}; "
                "conditional moments of Hermitian observables must be real"
            )
    return forms.real


def _check_dims(i: QuantumState, f: QuantumState, dim: int):
    if i.dim != dim or f.dim != dim:
        raise DimensionMismatch(
            f"states of dim {i.dim}, {f.dim} do not match observable dim {dim}"
        )


def _scale_array(scales) -> np.ndarray:
    """Coupling scales as a new 1-D float array; None is the single
    scale 1."""
    ts = np.array((1.0,) if scales is None else scales, dtype=float).reshape(-1)
    if not np.isfinite(ts).all():
        raise ValueError("coupling scales must be finite")
    return ts


def _residue_bounds(axes, names) -> np.ndarray:
    """IMAG_RESIDUE_TOL for each moment of names, in the units of the
    pointer axes: times the product of the vacuum spreads of the
    moment's pointer operators (1 for "1", sigma for "X", hbar /
    (2 sigma) for "P") when that is above 1, so that no bound is
    stricter than IMAG_RESIDUE_TOL."""
    spreads = [{"1": 1.0, "X": p.sigma, "P": p.hbar / (2.0 * p.sigma)} for _, _, p, _ in axes]
    return IMAG_RESIDUE_TOL * np.array([
        max(1.0, math.prod(spread[op] for spread, op in zip(spreads, MOMENTS[name])))
        for name in names
    ])


def _records(forms: np.ndarray, c: _Coupling, ts: np.ndarray, weakness, engine: str, top=None):
    """The MeasurementBatch of coupling c at scales ts from ``forms``,
    the (moments, scales) array of unnormalized forms that ``_contract``
    gives for the axis count of c, one row for each MOMENTS name that
    ``_AXIS_MOMENTS`` lists for it: ``forms[0, n]`` is the post-selection
    probability of the run at ts[n], and every other row holds
    conditional moments times it. The batch's table is zero in the rows
    of the moments c does not take (the y axis of a single coupling).
    Its ``engine_tag`` is ``engine`` ("exact" or "fock") with "-single"
    or "-joint" for the axis count of c, and ``top``, the Fock rule's
    top-level population of each run, flags every run above
    TRUNCATION_TOL in ``truncation_warning``.

    The array passes four checks, each naming the first moment or row
    that fails it: ``_realize``'s two (every value finite, every
    imaginary residue within the bound ``_residue_bounds`` gives it on
    the axes of c), the probability above the EPS_PS floor
    (OrthogonalPostselection) and within [0, 1] up to 1e-12
    (NumericalInconsistency). One division then turns the forms into
    conditional moments, and the probabilities are clamped into
    [0, 1]."""
    rows = _AXIS_MOMENTS[len(c.axes)]
    names = [list(MOMENTS)[row] for row in rows]
    values = _realize(forms, names, functools.partial(_residue_bounds, c.axes, names))
    ps = values[0]
    lowest, highest = ps.min(initial=math.inf), ps.max(initial=-math.inf)
    if lowest < EPS_PS:
        raise OrthogonalPostselection(
            f"post-selection probability {ps[(ps < EPS_PS).argmax()]:.3e} "
            f"below floor {EPS_PS:.1e}"
        )
    if lowest < -1e-12 or highest > 1.0 + 1e-12:
        outside = (ps < -1e-12) | (ps > 1.0 + 1e-12)
        raise NumericalInconsistency(
            f"post-selection probability {float(ps[outside.argmax()])!r} outside [0, 1]"
        )
    table = np.zeros((len(MOMENTS), len(ts)))
    table[rows[1:]] = values[1:] / ps
    table[0] = ps if 0.0 <= lowest and highest <= 1.0 else np.clip(ps, 0.0, 1.0)
    return MeasurementBatch(
        scales=ts,
        moments=table,
        weakness_ratio=weakness,
        truncation_warning=np.zeros(len(ts), bool) if top is None else top > TRUNCATION_TOL,
        engine_tag=engine + ("-single" if len(c.axes) == 1 else "-joint"),
        coupling=c,
    )


def _moment_matrices(eigenvalues: np.ndarray, ks: np.ndarray, p: GaussianPointer):
    """The branch-pair matrices of the closed-form pointer integrals for
    branches displaced by ks[n] a_k, one coupling ks[n] per scale: one
    (operators, scales, d, d) stack whose first axis runs over the
    overlap ("1"), position moment ("X") and momentum moment ("P"), the
    first three STACK_OPERATORS."""
    displacements = np.outer(ks, eigenvalues)
    d1 = displacements[..., :, None]
    d2 = displacements[..., None, :]
    return np.array([gaussian_overlap(d1, d2, p), moment_x(d1, d2, p), moment_p(d1, d2, p)])


def _x_forms(amp: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """out[o, n, l, l'] = the sum over k, k' of conj(amp[k, l'])
    stack[o, n, k, k'] amp[k', l] for an (operators, scales, d, d) stack
    of x-axis matrices and amplitudes amp[k] or amp[k, l], l = 0 for
    one axis: (M amp)^T conj(amp) for every matrix M of the stack, as two
    flat products over the whole stack."""
    flat = amp.reshape(len(amp), -1)
    d, s = flat.shape
    right = (stack.reshape(-1, d) @ flat).reshape(-1, d, s).swapaxes(1, 2).reshape(-1, d)
    return (right @ flat.conj()).reshape(*stack.shape[:2], s, s)


def _contract(amp: np.ndarray, mats) -> np.ndarray:
    """The unnormalized MOMENTS a coupling with the axes of amp takes, as
    one (moments, scales) array, one row for each moment that
    ``_AXIS_MOMENTS`` lists for the axis count and one column per scale
    of the axis stacks in ``mats``: the sum over branch pairs of
    conj(amp[k, l]) amp[k', l'] Mx[k, k'] My[l, l'], with Mx and My the
    slices of the stacks for the moment's operator on each axis (the y
    factor and index are absent for one axis).

    The x axis is ``_x_forms`` over the "1", "X" and "P" slices at once.
    The second axis, if there is one, is one einsum against the same
    slices of its stack, for every (x, y) operator pair, and each moment
    picks its pair by operator index."""
    on_x = _x_forms(amp, mats[0][:_TOP])
    if len(mats) == 1:
        table = on_x[..., 0, 0]
    else:
        table = np.einsum("anji,bnij->abn", on_x, mats[1][:_TOP])
    return table[tuple(_MOMENT_OPS[_AXIS_MOMENTS[amp.ndim], :amp.ndim].T)]


def _populations(c: np.ndarray, mats) -> np.ndarray:
    """The population of the top two ladder levels of each axis, one row
    per axis and one column per scale: the contraction ``_contract``
    makes of the amplitudes c before post-selection, with the "top"
    slice T on that axis and "1" on the other, kept to its diagonal on
    the last axis. Once the system is traced out, branches that end in
    different eigenvectors of the last coupled observable do not
    interfere. For one axis that is the sum over k of |c[k]|^2 T[k, k];
    only the "top" and "1" slices are read."""
    diagonal = mats[-1].diagonal(axis1=2, axis2=3)
    if len(mats) == 1:
        return diagonal[[_TOP]] @ np.abs(c) ** 2
    weights = _x_forms(c, mats[0][[_TOP, 0]]).diagonal(axis1=2, axis2=3)
    return (weights * diagonal[[0, _TOP]]).sum(axis=2)


def _axis_stacks(rule, eigs, axes, ts) -> list:
    """Each axis's (operators, scales, d, d) stack of branch-pair
    matrices, in the order of STACK_OPERATORS, at couplings ts K:
    ``rule(eigenvalues, ks, pointer)`` is ``_moment_matrices`` or
    ``_grid_matrices``, applied to the eigensystem in ``eigs`` of each
    coupling axis in ``axes``."""
    return [rule(es.eigenvalues, ts * K, p) for es, (_, K, p, _) in zip(eigs, axes)]


def _branch_sum(i: QuantumState, f: QuantumState, eigs, mats):
    """Unnormalized MOMENTS of the post-selected pointer state as a sum
    over branches, and the population of its top two ladder levels.

    ``eigs`` holds the eigensystem of the observable of each coupled
    axis (one, or two for a commuting pair), and ``mats`` the axis's
    stack from ``_axis_stacks``. Branch (k, l) has amplitude
    amp[k, l] = <f|b_l><b_l|a_k><a_k|i>, one index per axis
    (amp[k] = <f|a_k><a_k|i> for one axis), and the moments are one
    ``_contract`` of amp with the stacks. So the first axis of a pair,
    ``eigs[:1]`` with ``mats[:1]``, is that axis coupled alone, and so is
    the second with ``eigs[1:]`` and ``mats[1:]``.

    When the stacks carry ``_grid_matrices``' "top" slice, the
    populations are ``_populations`` of the amplitudes c before
    post-selection. Returns the forms as ``_records`` takes them, and
    the largest population per scale (None without "top")."""
    # c[k, l] = <b_l|a_k><a_k|i>, one index per axis, before post-selection
    c = eigs[0].eigenvectors.conj().T @ i.amplitudes
    for ea, eb in zip(eigs, eigs[1:]):
        c = c[..., None] * (eb.eigenvectors.conj().T @ ea.eigenvectors).T
    amp = c * (f.amplitudes.conj() @ eigs[-1].eigenvectors)
    forms = _contract(amp, mats)
    if len(mats[0]) <= _TOP:
        return forms, None
    return forms, _populations(c, mats).real.max(axis=0)


def _alone(c: JointCoupling, eigs, mats) -> list:
    """Each axis of the pair c coupled alone, A then B: its
    SingleCoupling at the axis's coupling and pointer, and the axis's
    eigensystem and stack as ``_branch_sum`` takes them."""
    return [(SingleCoupling(A, K, p), eigs[n:n + 1], mats[n:n + 1])
            for n, (A, K, p, _) in enumerate(c.axes)]


def _check_singles(c: _Coupling, with_singles: bool):
    if with_singles and len(c.axes) == 1:
        raise TypeError("with_singles needs a JointCoupling")


def _run_exact(i: QuantumState, f: QuantumState, c: _Coupling, scales, with_singles=False):
    """The body of both exact engines, for any coupling by its axes.

    The coupling refusal runs before the eigensystems are taken, so an
    overflowing noncommuting pair is refused by name (ValueError), not
    as NotCommuting. A pair takes its eigensystems from
    ``simultaneous_eig``, which refuses noncommuting pairs. With
    ``with_singles`` the batch of each axis coupled alone is the branch
    sum of that axis's eigensystem and stack, checked after the pair's
    batch, A before B."""
    _check_singles(c, with_singles)
    _check_dims(i, f, c.A.dim)
    ts = _scale_array(scales)
    weakness = c.weakness_ratios(ts)
    eigs = simultaneous_eig(c.A, c.B) if len(c.axes) == 2 else (hermitian_eig(c.A),)
    mats = _axis_stacks(_moment_matrices, eigs, c.axes, ts)
    forms, _ = _branch_sum(i, f, eigs, mats)
    batch = _records(forms, c, ts, weakness, "exact")
    if not with_singles:
        return batch
    return batch, tuple(
        _records(_branch_sum(i, f, es, ms)[0], cs, ts, cs.weakness_ratios(ts), "exact")
        for cs, es, ms in _alone(c, eigs, mats)
    )


def run_single_exact(i: QuantumState, f: QuantumState, c: SingleCoupling, *, scales=None):
    """Closed-form conditional moments for a single weak coupling.

    Expands |i> in the eigenbasis of A; the post-selected pointer state
    is a sum of Gaussians displaced by K a_k with amplitudes
    <f|a_k><a_k|i>, and all moments assemble from pairwise pointer
    integrals (``_branch_sum``). Exact to machine precision at any K.
    Returns the MeasurementBatch whose row n ran at coupling t_n K for
    each of ``scales``, or the one row at K without them. Raises
    OrthogonalPostselection if a row's post-selection probability is
    below EPS_PS.
    """
    return _run_exact(i, f, c, scales)


def run_joint_exact(i: QuantumState, f: QuantumState, c: JointCoupling, *, scales=None,
                    with_singles=False):
    """Closed-form conditional moments for two commuting couplings.

    The couplings factorize, so the post-selected pointer state is a sum
    over the d^2 branches (a_k, b_l) of A's and B's own eigenbases: a 2D
    product Gaussian displaced by (Kx a_k, Ky b_l) with amplitude
    <f|b_l><b_l|a_k><a_k|i>, contracted with the branch-pair matrices of
    1D pointer integrals on each axis (``_branch_sum``). Refuses
    noncommuting pairs (NotCommuting); use run_fock for those. Returns
    the MeasurementBatch whose row n ran at couplings t_n (Kx, Ky) for
    each of ``scales``, or the one row at (Kx, Ky) without them. Raises
    OrthogonalPostselection if a row's post-selection probability is
    below EPS_PS.

    With ``with_singles=True`` it returns (batch, (batch_a, batch_b)):
    batch_a is the batch ``run_single_exact`` gives for
    SingleCoupling(A, Kx, pointer_x), batch_b the same for B at Ky on
    pointer_y, bit for bit, both taken from the eigensystems and pointer
    integrals the pair has already formed. Their refusals follow the
    pair's, A before B.
    """
    return _run_exact(i, f, c, scales, with_singles)


_Frame = collections.namedtuple("_Frame", "fock p ops top vacuum")


@functools.lru_cache(maxsize=4)
def _pointer_frame(p: GaussianPointer, n_max: int) -> _Frame:
    """Pointer p truncated at n_max and the momentum grid the Fock
    engines evolve on and take their moments on. With w the eigenvector
    columns of the truncated P, the frame holds ``fock`` (the
    ladder-basis operators, for the series engine), the grid ``p`` (the
    eigenvalues of P), ``ops`` (the pointer operators on the grid, one
    (4, N, N) stack in the order of STACK_OPERATORS: the identity,
    w^+ X w, diag(p) and top^+ top), ``top`` (the top two rows of w,
    which carry the top two ladder levels) and ``vacuum`` (w^+ |0>).
    Cached per (p, n_max), so every engine call on
    one pointer shares one ``eigh``; the returned arrays are read-only.
    The cache keeps the four most recent frames, which covers the two
    axes of a joint run and both truncations ``validate`` uses.

    The truncated P is odd under parity, so its spectrum is symmetric,
    p[N-1-j] = -p[j]. The grid is symmetrized so that this holds bit for
    bit (``eigh`` leaves a few ulp of asymmetry); the Fock joint engine
    relies on it to diagonalize only half of the momentum grid."""
    fock = build_fock(p, n_max)
    vals, w = np.linalg.eigh(fock.P)
    grid = (vals - vals[::-1]) / 2
    top = w[-2:].copy()
    frame = _Frame(
        fock=fock,
        p=grid,
        ops=np.array([np.eye(len(grid)), w.conj().T @ fock.X @ w, np.diag(grid),
                      top.conj().T @ top]),
        top=top,
        vacuum=w.conj().T @ fock.vacuum_state(),
    )
    for array in frame[1:]:
        array.flags.writeable = False
    return frame


def _grid_matrices(eigenvalues: np.ndarray, ks: np.ndarray, p: GaussianPointer, n_max):
    """The branch-pair matrices of ``_moment_matrices`` as the
    Gauss-Hermite rule of the momentum grid of p's frame at n_max, for
    branch eigenvalues a_k and one coupling ks[n] per scale: one
    (operators, scales, d, d) stack over all four STACK_OPERATORS.

    Branch k of scale n is the grid vector G[n, j, k] =
    exp(-i ks[n] p_j a_k / hbar) vac[j], and the stack is G^+ (op G) for
    every operator op of the frame's ``ops``, one product over the
    whole stack. The "top" slice is T = G^+ (top^+ top) G, whose
    diagonal is the population each branch puts in the top two ladder
    levels."""
    frame = _pointer_frame(p, n_max)
    g = np.exp((-1j * ks / p.hbar)[:, None, None] * np.outer(frame.p, eigenvalues))
    g *= frame.vacuum[:, None]
    return g.conj().swapaxes(1, 2) @ (frame.ops[:, None] @ g)


def _norm_terms(c: _Coupling, frames) -> list:
    """|K| x spectral radius x max|p| / hbar for each axis of c, with p
    the momentum grid of the axis's frame in ``frames``: their sum
    bounds |H| / hbar at t = 1 on the truncated product space. Python
    floats, so an overflow reads inf without numpy's warnings."""
    return [abs(K) * A.spectral_radius() * float(np.abs(frame.p).max()) / p.hbar
            for (A, K, p, _), frame in zip(c.axes, frames)]


def _chebyshev_terms(x: float):
    """The number of terms of the Chebyshev series of exp(-i x' y) that
    serves every |x'| <= x, or None if that is more than
    _CHEBYSHEV_TERMS. The series stops before the first n whose bound
    (x/2)^n / n! on |J_n(x')| is at most 2^-55. For n <= x the bound is
    at least 2^-n, so with no more than 54 terms that n exceeds x, the
    bound at least halves with each later n, and the omitted tail
    2 sum |J_n(x')| stays below 2^-53. For the same reason x above the
    limit needs more terms than it, and is refused before any is counted,
    however strong the coupling (inf and nan included)."""
    if not x <= _CHEBYSHEV_TERMS:
        return None
    bound = 1.0
    for n in range(1, _CHEBYSHEV_TERMS + 1):
        bound *= x / (2 * n)
        if bound <= 2.0**-55:
            return n
    return None


def _chebyshev_coefficients(xs: np.ndarray, terms: int) -> np.ndarray:
    """c[s, n] = (2 - delta_n0) (-i)^n J_n(xs[s]) for n < terms, so that
    exp(-i x y) = sum_n c[s, n] T_n(y) for y in [-1, 1] at x = xs[s].
    By Jacobi-Anger, (-i)^n J_n(x) is the n-th cosine coefficient of the
    periodic exp(-i x cos tau), and the trapezoid rule on m equispaced
    points gives it exactly but for the aliased J_(m-n)(x), J_(m+n)(x),
    ...: one (scales, m) @ (m, terms) product. With m = 2 terms + 16 the
    aliases are at orders beyond terms + 16, far below the series' own
    cut."""
    m = 2 * terms + 16
    tau = (2.0 * np.pi / m) * np.arange(m)
    coeffs = np.exp(-1j * np.outer(xs, np.cos(tau))) @ np.cos(np.outer(tau, np.arange(terms)))
    coeffs *= 2.0 / m
    coeffs[:, 0] /= 2.0
    return coeffs


def _block_rows(i, f, c: JointCoupling, fx: _Frame, fy: _Frame, ts):
    """The post-selected grid state phi[j, m] and the top-level
    population of each scale of ts, by one d x d Hermitian block ``eigh``
    per grid point.

    Both momentum grids are exactly antisymmetric (``_pointer_frame``),
    so the block at (N-1-j, M-1-m) is exactly minus the block at (j, m):
    it has the same eigenvectors and negated eigenvalues. Only the rows
    j < (N+1)/2 go through ``eigh`` (861 of 1681 blocks at n_max 40);
    the other rows are their mirror, for odd and even N alike."""
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
    for t in ts.tolist():
        coeff = coeff0 * np.exp(-1j * (t * s) / c.pointer_x.hbar * evals)
        psi = (evecs @ coeff[..., None])[..., 0]  # (px, py, system)

        # the ladder-basis change along one axis is unitary and keeps the
        # norm along the other, so the top two levels of each axis need
        # only the top two rows of its basis change
        top = max(
            np.sum(np.abs(fx.top @ psi.reshape(n, -1)) ** 2), np.sum(np.abs(fy.top @ psi) ** 2)
        )
        yield psi @ f.amplitudes.conj(), top


def _chebyshev_live(d: int, n: int, m: int, terms: int, scales: int) -> int:
    """The complex values ``_chebyshev_rows`` holds at its peak on axes
    of n and m levels, with r = min(terms, levels) values along each
    axis (``_series_basis``): per term <f|v> (rx ry values) and its top
    two levels of each axis (2 d (rx + ry)); five work arrays of d rx ry
    values (the last two states, the next one and the state times each
    axis's momentum) and 2 rx ry grid values; each axis's start vector,
    top rows and (3, r, r) operator stack; and one block of the
    coefficient table with the (scales, 2 terms + 16) phases it is
    summed from."""
    rx, ry = min(terms, n), min(terms, m)
    block = min(scales, _COEFFICIENT_BLOCK) * (3 * terms + 16)
    return (terms * (rx * ry + 2 * d * (rx + ry)) + (5 * d + 2) * rx * ry
            + sum(3 * (r + r * r) for r in (rx, ry)) + block)


def _series_basis(frame: _Frame, terms: int):
    """The basis one axis of ``_chebyshev_rows`` evolves on, as (start,
    p, ops, top): the vacuum, the momentum, the (3, r, r) stack of the
    "1", "X" and "P" STACK_OPERATORS and what picks out the top two
    ladder levels.

    H raises the ladder level of each axis by at most one and psi0 is
    the vacuum, so T_n(y) psi0 has no component above level n: on the
    momentum grid it is vac[j] times a polynomial of degree n in p_j,
    and its ladder components are that polynomial's coefficients in the
    orthonormal Hermite basis. So a series of fewer terms than the frame
    has levels runs on the first r = terms levels, where the leading
    r x r blocks of the truncated X and P act exactly; p is that block
    of P, and top the indices of the top levels among the r (none below
    r = n_max). Any other keeps the frame's grid, with no more points
    than terms: p is the grid values, which act elementwise, and top the
    frame's two rows of the basis change."""
    n = len(frame.p)
    if terms >= n:
        return frame.vacuum, frame.p, frame.ops[:_TOP], frame.top
    p = frame.fock.P[:terms, :terms]
    ops = np.array([np.eye(terms), frame.fock.X[:terms, :terms], p])
    return np.eye(1, terms)[0], p, ops, np.arange(n - 2, terms)


def _chebyshev_rows(i, f, c: JointCoupling, bases, xs, h, terms):
    """The post-selected state phi[j, m] on the two axes' ``bases`` (from
    ``_series_basis``) and the top-level population at each x of xs,
    with exp(-i t H / hbar) = exp(-i x y), x = t h / hbar and y = H / h,
    taken as the Chebyshev series sum_n c_n(x) T_n(y) psi0 of ``terms``
    terms (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)). h
    bounds |H| on the truncated product space, so the recurrence
    T_(n+1) = 2 y T_n - T_(n-1) stays bounded, and one recurrence serves
    every scale.

    The states T_n(y) psi0 live on a (d, rx, ry) layout: the first
    r = terms ladder levels of each axis while terms is below its
    n_max + 1 levels, its momentum grid otherwise. y acts on one as the
    row (Kx A, Ky B) / h times the state's two copies multiplied by each
    axis's momentum on its own index: one (d, 2d) product per term. Each
    term keeps only what the outputs read, <f|T_n psi0> and the top two
    levels of each axis, and each scale combines them by one product
    with its row of ``_chebyshev_coefficients``, taken for
    _COEFFICIENT_BLOCK scales at a time."""
    (sx, px, _, top_x), (sy, py, _, top_y) = bases
    d, rx, ry = c.A.dim, len(sx), len(sy)
    # h = 0 only where H vanishes to the float range; x = 0 then keeps psi0
    side = np.concatenate([c.Kx * c.A.matrix, c.Ky * c.B.matrix], axis=1) / (h or 1.0)
    spread = np.empty((2, d, rx, ry), complex)
    stacked = spread.reshape(2 * d, -1)
    on_f = np.empty((terms, rx * ry), complex)
    on_x = np.empty((terms, d, len(top_x), ry), complex)
    on_y = np.empty((terms, d, rx, len(top_y)), complex)
    f_conj = f.amplitudes.conj()

    if px.ndim == 1:  # the momentum grid
        grids = np.array([np.repeat(px, ry), np.tile(py, rx)], complex)[:, None]
        on_grid, top_y = spread.reshape(2, d, -1), top_y.T

        def keep(k, v):
            grid = v.reshape(d, rx, ry)
            np.matmul(f_conj, v, out=on_f[k])
            np.matmul(top_x, grid, out=on_x[k])
            np.matmul(grid, top_y, out=on_y[k])

        def times_y(v):
            np.multiply(v, grids, out=on_grid)
            return side @ stacked
    else:  # the first ladder levels, where the top levels are rows
        on_py, py = spread[1].reshape(d * rx, ry), py.T

        def keep(k, v):
            grid = v.reshape(d, rx, ry)
            np.matmul(f_conj, v, out=on_f[k])
            np.take(grid, top_x, axis=1, out=on_x[k])
            np.take(grid, top_y, axis=2, out=on_y[k])

        def times_y(v):
            np.matmul(px, v.reshape(d, rx, ry), out=spread[0])
            np.matmul(v.reshape(d * rx, ry), py, out=on_py)
            return side @ stacked

    prev = np.outer(i.amplitudes, np.outer(sx, sy))
    keep(0, prev)
    if terms > 1:
        cur = times_y(prev)
        keep(1, cur)
        side *= 2.0
        for k in range(2, terms):
            nxt = times_y(cur)
            nxt -= prev
            prev, cur = cur, nxt
            keep(k, cur)

    kept = [on_f, on_x.reshape(terms, -1), on_y.reshape(terms, -1)]
    for block in np.split(xs, range(_COEFFICIENT_BLOCK, len(xs), _COEFFICIENT_BLOCK)):
        for row in _chebyshev_coefficients(block, terms):
            phi, x_top, y_top = (row @ part for part in kept)
            yield phi.reshape(rx, ry), max(np.vdot(x_top, x_top).real, np.vdot(y_top, y_top).real)


def _fock_joint(i, f, c: JointCoupling, n_max, ts, what):
    """Joint Fock engine on the momentum grid (px_j, py_m), where the
    coupling is one d x d Hermitian block per grid point. Returns the
    forms as ``_records`` takes them and the top-level population of
    each scale. Each scale's moments are one ``_contract`` of the
    post-selected state phi[j, m], an amplitude tensor with one index
    per axis, with the operator stack of the basis it is taken on as a
    one-column axis stack: the momentum grid's for the block ``eigh``,
    each axis's ``_series_basis`` for the series.

    Two routes give phi: the Chebyshev series (``_chebyshev_rows``)
    whenever the largest x = |t| h / hbar of ts needs at most
    _CHEBYSHEV_TERMS terms, with h the bound of ``_norm_terms`` times
    hbar, and one block ``eigh`` per grid point (``_block_rows``)
    otherwise. The series' arrays are checked against MAX_ARRAY_BYTES
    (InvalidTruncation, described by ``what``) before they are
    allocated."""
    fx, fy = frames = [_pointer_frame(p, n_max) for _, _, p, _ in c.axes]
    g = sum(_norm_terms(c, frames))
    terms = _chebyshev_terms(max(map(abs, ts.tolist()), default=0.0) * g)
    if terms is None:
        mats, rows = [fx.ops[:, None], fy.ops[:, None]], _block_rows(i, f, c, fx, fy, ts)
    else:
        check_array_budget(_chebyshev_live(c.A.dim, len(fx.p), len(fy.p), terms, len(ts)),
                           f"{terms} Chebyshev terms at {what}", InvalidTruncation)
        bases = [_series_basis(frame, terms) for frame in frames]
        mats = [ops[:, None] for _, _, ops, _ in bases]
        rows = _chebyshev_rows(i, f, c, bases, ts * g, c.pointer_x.hbar * g, terms)

    forms = np.empty((len(MOMENTS), len(ts)), complex)
    top = np.empty(len(ts))
    for row, (phi, population) in enumerate(rows):
        forms[:, row] = _contract(phi, mats)[:, 0]
        top[row] = population
    return forms, top


def _warn_truncated(top: np.ndarray, flags):
    """One TruncationWarning for each row whose top-level population is
    above TRUNCATION_TOL, naming the coupled axes by their ``flags``
    ("kx and ky" for a pair, "kx alone" or "ky alone" for one axis), and
    pointed at the caller of ``run_fock``, which calls this function."""
    coupled = " and ".join(flags) + (" alone" if len(flags) == 1 else "")
    for population in top[top > TRUNCATION_TOL].tolist():
        warnings.warn(
            f"coupling {coupled}: top Fock levels hold population {population:.3e}; "
            "increase n_max for reliable moments",
            TruncationWarning,
            stacklevel=3,
        )


def run_fock(
    i: QuantumState,
    f: QuantumState,
    c,
    n_max: int = DEFAULT_N_MAX,
    *,
    scales=None,
    with_singles=False,
):
    """Exact unitary evolution in a truncated oscillator pointer space.

    Accepts a SingleCoupling or a JointCoupling; the joint case places no
    commutation requirement on A and B. A single coupling, and a joint
    pair with ``commutator_norm(A, B) == 0.0`` exactly, is the branch sum
    of the exact engines (``_branch_sum``) with the pointer integrals
    taken by the Gauss-Hermite rule of the momentum grid
    (``_grid_matrices``); every other pair takes the block engine
    (``_fock_joint``). The test has no tolerance, since a nonzero
    commutator would enter the factorized evolution as an error
    t^2 |Kx Ky px py| ||[A, B]|| / 2 that no fixed bound keeps at
    rounding level. The block engine evolves the pair by the Chebyshev
    series of exp(-i x y), on the first ladder levels of each axis while
    they outnumber the terms and on the momentum grid otherwise, with
    x = t h / hbar and y = H / h with h = sum over the axes of |K| x
    spectral radius x max|p|, when the call's largest |x| needs at most
    _CHEBYSHEV_TERMS terms (n below the first with (x/2)^n / n! <=
    2^-55), and by one block ``eigh`` per grid point otherwise. Each row
    whose evolved state populates the top two truncation levels above
    1e-8 issues one TruncationWarning, which names the coupled axes ("kx
    and ky", "kx alone" or "ky alone"), and is flagged in
    ``truncation_warning``. Returns the MeasurementBatch
    whose row n ran at couplings t_n (Kx, Ky) for each of ``scales``, or
    the one row at (Kx, Ky) without them; the eigenbases, momentum
    frames and the Chebyshev recurrence or block eigenvectors are
    computed once per call. Raises InvalidTruncation before allocating
    if the (n_max+1)^2 d x d blocks would exceed MAX_ARRAY_BYTES, if the
    arrays live at the peak of the branch sum's Gauss-Hermite rule
    would, counted together: scales x d x ((2 + operators) x
    max(n_max+1, d) + operators x axes x d) values, or if those of the
    Chebyshev series would, with r = min(terms, n_max+1) values along
    each axis: terms x (r^2 + 4 d r) kept values (it keeps no earlier
    state), five work arrays of d r^2 values and 2 r^2 grid values, each
    axis's (3, r, r) operator stack, start vector and top rows, and one
    block of coefficients (``_chebyshev_live``). Raises
    OrthogonalPostselection if a row's post-selection probability is
    below EPS_PS.

    With ``with_singles=True`` a JointCoupling returns
    (batch, (batch_a, batch_b)): batch_a is the batch
    ``run_fock(i, f, SingleCoupling(A, Kx, pointer_x), n_max)`` gives at
    the same scales, batch_b the same for B at Ky on pointer_y, bit for
    bit, with their truncation warnings. A commuting pair takes them from
    the eigensystems and axis stacks of its own branch sum; the block
    engine computes the two single-axis branch sums after its own batch.
    Refusals and warnings come in the order pair, A, B.
    """
    if not isinstance(c, _Coupling):
        raise TypeError(f"expected SingleCoupling or JointCoupling, got {type(c).__name__}")
    _check_singles(c, with_singles)
    d, levels = c.A.dim, int(n_max) + 1
    _check_dims(i, f, d)
    what = f"n_max={n_max} with system dimension {d}"
    check_array_budget(levels**2 * d**2, what, InvalidTruncation)
    ts = _scale_array(scales)
    weakness = c.weakness_ratios(ts)

    def branch_stacks():
        # the arrays live at the peak of the Gauss-Hermite rule: the last
        # axis's grid array G, its conjugate and the product ops G,
        # (2 + operators) x scales x (n_max+1) x d values, beside one
        # (operators, scales, d, d) stack per axis. Where n_max+1 < d the
        # contraction's products of a pair's stacks peak instead, and
        # max(levels, d) counts them too
        ops = len(STACK_OPERATORS)
        live = len(ts) * d * ((2 + ops) * max(levels, d) + ops * len(c.axes) * d)
        check_array_budget(live, f"{len(ts)} scales at {what}", InvalidTruncation)
        eigs = [hermitian_eig(A) for A, *_ in c.axes]
        rule = functools.partial(_grid_matrices, n_max=n_max)
        return eigs, _axis_stacks(rule, eigs, c.axes, ts)

    stacks = None
    if len(c.axes) == 1 or commutator_norm(c.A, c.B) == 0.0:
        stacks = branch_stacks()
        forms, top = _branch_sum(i, f, *stacks)
    else:
        forms, top = _fock_joint(i, f, c, n_max, ts, what)
    flags = [flag for *_, flag in c.axes]
    _warn_truncated(top, flags)
    batch = _records(forms, c, ts, weakness, "fock", top)
    if not with_singles:
        return batch
    singles = []
    for (cs, es, ms), flag in zip(_alone(c, *(stacks or branch_stacks())), flags):
        forms, top = _branch_sum(i, f, es, ms)
        _warn_truncated(top, [flag])
        singles.append(_records(forms, cs, ts, cs.weakness_ratios(ts), "fock", top))
    return batch, tuple(singles)


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

    Since H is Hermitian, order n equals i^n / n! times
    sum_k C(n,k) (-1)^k <G^(n-k) psi0| O |G^k psi0> with G = H / hbar:
    the engine applies G to psi0 ``order`` times on a
    (d, n_max+1, n_max+1) state tensor and never forms an operator on
    the product space or a power of 1/hbar. Raises InvalidTruncation if
    that tensor would exceed MAX_ARRAY_BYTES, a ValueError naming kx or
    ky, before any power of G is formed, for a coupling the run_*
    engines refuse or one whose bound
    max(1, 2 |H| / hbar)^order |X| |y operator| on the values of the
    series overflows, and NumericalInconsistency naming the order of a
    non-finite contribution or of one whose imaginary residue exceeds
    IMAG_RESIDUE_TOL times max(1, s_n), with s_n the size of the
    products order n sums: the inner products
    <G^(n-k) psi0| O |G^k psi0> taken over absolute values, times
    C(n,k) / n! and summed over k.
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
    c.weakness_ratios(np.ones(1))  # refuses an overflowing coupling by name
    check_array_budget(
        d * (int(n_max) + 1) ** 2,
        f"n_max={n_max} with system dimension {d}",
        InvalidTruncation,
    )

    frames = [_pointer_frame(p, n_max) for _, _, p, _ in c.axes]
    fx, fy = (frame.fock for frame in frames)
    y_op = {"O_x": None, "O_xy": fy.X, "O_xpy": fy.P}[observable_tag]
    hbar = c.pointer_x.hbar

    # |G| <= g, G = H / hbar, the sum of the axes' ``_norm_terms``, and
    # order n adds 2^n products of G^k psi0 with X and y_op, times
    # i^n / n!: no value the series forms exceeds the product of
    # ``factors`` (row sums bound |X| and |y_op|). A coupling that
    # overflows it is refused before any power of G is formed, naming
    # the axis with the larger term
    terms = _norm_terms(c, frames)
    g = sum(terms)
    factors = [max(1.0, 2.0 * g)] * order + [
        max(1.0, float(np.abs(op).sum(axis=1).max())) for op in (fx.X, y_op) if op is not None
    ]
    if not math.isfinite(math.prod(factors)):
        (_, K, _, flag), term = max(zip(c.axes, terms), key=lambda axis: axis[1])
        raise _too_strong(
            flag, abs(K), f"|{flag}| x spectral radius x max|p| / hbar = {term!r} "
            f"overflows order {order} of the series"
        )

    # G^k psi0 for k = 0..order on tensors indexed (system, x level,
    # y level); G acts through its factors A (x) Px / hbar and
    # B (x) Py / hbar; the system operators act as flat products on the
    # (d, (n_max+1)^2) view of the tensor
    px, py = fx.P / hbar, fy.P / hbar
    powers = [np.zeros((d, fx.dim, fy.dim), dtype=complex)]
    powers[0][:, 0, 0] = i.amplitudes
    for _ in range(order):
        v = powers[-1]
        on_x, on_y = (px @ v).reshape(d, -1), (v.reshape(-1, fy.dim) @ py.T).reshape(d, -1)
        powers.append((c.Kx * (c.A.matrix @ on_x) + c.Ky * (c.B.matrix @ on_y)).reshape(v.shape))

    # O = |f><f| (x) X (x) y_op: project each G^k psi0 on <f| once, then
    # <G^(n-k) psi0| O |G^k psi0> = <left[n-k]| X left[k] y_op^T>
    left = [(f.amplitudes.conj() @ v.reshape(d, -1)).reshape(v.shape[1:]) for v in powers]
    right = [fx.X @ phi if y_op is None else fx.X @ phi @ y_op.T for phi in left]

    # an order's imaginary residue is rounding of the products its inner
    # products sum, which can cancel inside each one, so it is judged
    # against the same sums taken over absolute values
    abs_left, abs_right = [np.abs(v) for v in left], [np.abs(v) for v in right]
    values = np.empty(order + 1, dtype=complex)
    sizes = np.empty(order + 1)
    for n in range(order + 1):
        value = sum(
            math.comb(n, k) * (-1) ** k * np.vdot(left[n - k], right[k])
            for k in range(n + 1)
        )
        values[n] = value * (1j**n / math.factorial(n))
        size = sum(math.comb(n, k) * np.vdot(abs_left[n - k], abs_right[k]) for k in range(n + 1))
        sizes[n] = size / math.factorial(n)
    names = [f"order-{n} contribution" for n in range(order + 1)]
    return _realize(values, names, lambda: IMAG_RESIDUE_TOL * np.maximum(1.0, sizes))
