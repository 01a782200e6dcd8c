"""Engine behavior: closed-form and Fock routes, their cross-agreement,
the commutator series, and the scaling laws of the conditional moments."""

import dataclasses
import functools
import itertools
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weaklab import engines
from weaklab.engines import (
    EPS_PS,
    IMAG_RESIDUE_TOL,
    MAX_ARRAY_BYTES,
    MOMENTS as MOMENT_OPERATORS,
    STACK_OPERATORS,
    TRUNCATION_TOL,
    JointCoupling,
    MeasurementBatch,
    SingleCoupling,
    check_array_budget,
    heisenberg_moment,
    run_fock,
    run_joint_exact,
    run_single_exact,
    _CHEBYSHEV_TERMS,
    _chebyshev_live,
    _chebyshev_terms,
    _contract,
    _norm_terms,
    _pointer_frame,
    _populations,
    _realize,
    _records,
    _residue_bounds,
    _series_basis,
)
from weaklab.errors import (
    DimensionMismatch,
    InvalidTruncation,
    NotCommuting,
    NumericalInconsistency,
    OrthogonalPostselection,
    TruncationWarning,
)
from weaklab.pointer import GaussianPointer, build_fock
from weaklab.qcore import EigenSystem, Observable, QuantumState, commutator_norm, hermitian_eig
from weaklab.scenarios import build_hardy, build_imaginary, build_spin_amplifier, build_three_box
from weaklab.validation import CROSS_VALIDATION_TOL, _noncommuting_qubit
from weaklab.weakvalues import direct_joint_weak_value, direct_weak_value

SIGMA_X = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Z = Observable(np.diag([1.0, -1.0]).astype(complex))
PLUS_X = QuantumState(np.array([1, 1]) / math.sqrt(2))

MOMENTS = ("ps_prob", "x_mean", "px_mean", "y_mean", "py_mean", "xy_mean", "x_py_mean")
COLUMNS = ("scales", *MOMENTS, "weakness_ratio", "truncation_warning")


def columns(batch):
    """Every column of a batch as a list, and its engine tag."""
    return {name: getattr(batch, name).tolist() for name in COLUMNS} | {"tag": batch.engine_tag}


def unit_pointer():
    return GaussianPointer(sigma=1.0, hbar=1.0)


# --- single exact ------------------------------------------------------------


def test_single_identity_shifts_every_branch():
    i = QuantumState(np.array([0.3, 0.9, 0.1]))
    f = QuantumState(np.array([0.5, -0.2, 0.7]))
    c = SingleCoupling(A=Observable.identity(3), K=0.3, pointer=unit_pointer())
    rec = run_single_exact(i, f, c)
    assert rec.x_mean == pytest.approx(0.3, abs=1e-14)
    assert rec.ps_prob == pytest.approx(abs(f.inner(i)) ** 2, abs=1e-14)
    assert rec.px_mean == pytest.approx(0.0, abs=1e-14)


def test_single_eigenstate_shifts_exactly():
    i = QuantumState.basis(2, 1)  # sigma_z eigenvalue -1
    f = QuantumState(np.array([0.6, 0.8]))
    c = SingleCoupling(A=SIGMA_Z, K=0.7, pointer=unit_pointer())
    rec = run_single_exact(i, f, c)
    assert rec.x_mean == pytest.approx(-0.7, abs=1e-14)


def test_single_three_box_weak_limit():
    scn = build_three_box()
    c = SingleCoupling(A=scn.observable("P1"), K=0.01, pointer=unit_pointer())
    rec = run_single_exact(scn.i, scn.f, c)
    assert rec.x_mean / c.K == pytest.approx(1.0, abs=1e-3)


def test_single_orthogonal_postselection():
    c = SingleCoupling(A=Observable.identity(2), K=0.1, pointer=unit_pointer())
    with pytest.raises(OrthogonalPostselection):
        run_single_exact(QuantumState.basis(2, 0), QuantumState.basis(2, 1), c)


def test_single_dimension_mismatch():
    c = SingleCoupling(A=Observable.identity(3), K=0.1, pointer=unit_pointer())
    with pytest.raises(DimensionMismatch):
        run_single_exact(QuantumState.basis(2, 0), QuantumState.basis(2, 0), c)
    # the direct evaluator, the referee of every run, checks dims too
    one, two = Observable.identity(2), Observable.identity(3)
    qubit, qutrit = QuantumState.basis(2, 0), QuantumState.basis(3, 0)
    for direct, match in [
        (lambda: direct_weak_value(one, qubit, qutrit), "state dims 2 and 3 differ"),
        (lambda: direct_weak_value(two, qubit, qubit), "observable dim 3 != state dim 2"),
        (lambda: direct_joint_weak_value(one, two, qubit, qubit), "observable dims 2 and 3"),
        (lambda: direct_joint_weak_value(two, two, qubit, qubit),
         "observable dim 3 != state dim 2"),
    ]:
        with pytest.raises(DimensionMismatch, match=match):
            direct()


def test_single_weakness_ratio_reported():
    scn = build_three_box()
    c = SingleCoupling(A=scn.observable("P1"), K=0.02, pointer=GaussianPointer(2.0))
    rec = run_single_exact(scn.i, scn.f, c)
    assert rec.weakness_ratio == pytest.approx(0.02 * 1.0 / 2.0)
    assert rec.engine_tag == "exact-single"


def test_single_strong_coupling_still_normalized():
    scn = build_three_box()
    for label in ("P1", "P2", "P3"):
        c = SingleCoupling(A=scn.observable(label), K=5.0, pointer=unit_pointer())
        batch = run_single_exact(scn.i, scn.f, c)
        assert 0.0 <= batch.ps_prob[0] <= 1.0
        assert math.isfinite(batch.x_mean[0]) and math.isfinite(batch.px_mean[0])


# --- joint exact -------------------------------------------------------------


def test_joint_with_identity_reduces_to_single():
    scn = build_three_box()
    a = scn.observable("P3")
    jc = JointCoupling(
        A=a, B=Observable.identity(3), Kx=0.04, Ky=0.05,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(1.5),
    )
    joint = run_joint_exact(scn.i, scn.f, jc)
    single = run_single_exact(scn.i, scn.f, SingleCoupling(A=a, K=0.04, pointer=unit_pointer()))
    assert joint.ps_prob == pytest.approx(single.ps_prob, abs=1e-12)
    assert joint.x_mean == pytest.approx(single.x_mean, abs=1e-12)
    assert joint.px_mean == pytest.approx(single.px_mean, abs=1e-12)
    # identity on y: every branch shifted by Ky, so <XY> factorizes
    assert joint.y_mean == pytest.approx(0.05, abs=1e-14)
    assert joint.xy_mean == pytest.approx(0.05 * single.x_mean, abs=1e-14)
    assert joint.x_py_mean == pytest.approx(0.0, abs=1e-14)


def test_joint_rejects_noncommuting():
    jc = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    with pytest.raises(NotCommuting):
        run_joint_exact(PLUS_X, f, jc)


def test_joint_hardy_overlap_occupation_vanishes():
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    rec = run_joint_exact(scn.i, scn.f, jc)
    # xy correlation encodes Re<N_Oe N_Op>_W + Re(a* b) with a = b = 1
    extracted_re = 2 * rec.xy_mean / (0.01 * 0.01) - 1.0
    assert extracted_re == pytest.approx(0.0, abs=1e-3)


def test_joint_strong_coupling_still_normalized():
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_NOe"), B=scn.observable("N_NOp"), Kx=5.0, Ky=5.0,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    batch = run_joint_exact(scn.i, scn.f, jc)
    assert 0.0 <= batch.ps_prob[0] <= 1.0
    for field in MOMENTS:
        assert math.isfinite(getattr(batch, field)[0])


# --- Fock engine -------------------------------------------------------------


def test_fock_matches_exact_single():
    for scn, label in (
        (build_three_box(), "P2"),
        (build_imaginary(), "sigma_z"),
        (build_spin_amplifier(0.4), "sigma_z"),
    ):
        c = SingleCoupling(A=scn.observable(label), K=0.1, pointer=unit_pointer())
        exact = run_single_exact(scn.i, scn.f, c)
        fock = run_fock(scn.i, scn.f, c, n_max=40)
        for field in MOMENTS:
            assert getattr(fock, field) == pytest.approx(getattr(exact, field), abs=1e-6)
        assert fock.engine_tag == "fock-single"
        assert not fock.truncation_warning


def test_fock_matches_exact_joint():
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_NOp"), Kx=0.05, Ky=0.05,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    exact = run_joint_exact(scn.i, scn.f, jc)
    fock = run_fock(scn.i, scn.f, jc, n_max=40)
    for field in MOMENTS:
        assert getattr(fock, field) == pytest.approx(getattr(exact, field), abs=1e-6)


@pytest.mark.parametrize("kx, ky", [(0.3, -0.1), (0.0, 0.2)])
def test_fock_batch_matches_exact_batch_with_unequal_couplings(kx, ky):
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_NOe"), B=scn.observable("N_Op"), Kx=kx, Ky=ky,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(sigma=0.7),
    )
    scales = [0.1, 0.5, 1.0]
    exact = run_joint_exact(scn.i, scn.f, jc, scales=scales)
    fock = run_fock(scn.i, scn.f, jc, n_max=40, scales=scales)
    for field in MOMENTS:
        assert getattr(fock, field) == pytest.approx(getattr(exact, field), abs=1e-6)
    assert fock.weakness_ratio.tolist() == exact.weakness_ratio.tolist()
    assert max(abs(getattr(exact, field)[-1]) for field in MOMENTS[1:]) > 1e-2


def test_fock_unitarity_via_complete_postselection():
    # summing the post-selection probability over an orthonormal basis
    # of final states recovers the norm of the evolved global state
    scn = build_three_box()
    c = SingleCoupling(A=scn.observable("P1"), K=0.8, pointer=unit_pointer())
    total = sum(
        run_fock(scn.i, QuantumState.basis(3, k), c, n_max=40).ps_prob for k in range(3)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_fock_joint_unitarity_via_complete_postselection():
    jc = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.3, Ky=0.4,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.7),
    )
    total = sum(
        run_fock(PLUS_X, QuantumState.basis(2, k), jc, n_max=40).ps_prob
        for k in range(2)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_fock_handles_noncommuting_pair():
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    jc = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    rec = run_fock(PLUS_X, f, jc, n_max=40)
    # symmetrized product of sigma_x, sigma_z is the zero operator, and
    # the single weak values are a = 1 exactly and b real; the xy
    # correlation must then encode Re(a* b) alone
    b_w = direct_weak_value(SIGMA_Z, PLUS_X, f)
    extracted_re = 2 * rec.xy_mean / (0.01 * 0.01) - (1.0 * b_w).real
    assert extracted_re == pytest.approx(0.0, abs=1e-3)


def test_fock_truncation_warning():
    f = QuantumState(np.array([0.8, 0.6]))
    single = SingleCoupling(A=SIGMA_Z, K=2.0, pointer=unit_pointer())
    joint = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=2.0, Ky=-1.5,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.7),
    )
    # an exactly commuting pair takes the branch-sum engine
    commuting = dataclasses.replace(joint, A=SIGMA_Z)
    for c in (single, joint, commuting):
        with pytest.warns(TruncationWarning) as caught:
            rec = run_fock(PLUS_X, f, c, n_max=4)
        assert rec.truncation_warning
        # the warning names the code that called run_fock
        assert [w.filename for w in caught if w.category is TruncationWarning] == [__file__]


def test_fock_rejects_unknown_coupling_type():
    with pytest.raises(TypeError):
        run_fock(PLUS_X, PLUS_X, object())


def test_pointer_frame_arrays_are_read_only():
    """The frame's arrays are read-only, and its ops hold the pointer
    operators on the momentum grid in STACK_OPERATORS order: the
    identity, w^+ X w, diag(p) and top^+ top, with w the eigenvectors of
    the truncated P."""
    sigma, n_max = 0.7, 9
    frame = _pointer_frame(GaussianPointer(sigma), n_max)
    for array in (frame.fock.X, frame.fock.P, frame.p, frame.ops, frame.top, frame.vacuum):
        with pytest.raises(ValueError):
            array[0] = 0.0
    fock = build_fock(GaussianPointer(sigma), n_max)
    w = np.linalg.eigh(fock.P)[1]
    assert STACK_OPERATORS == ("1", "X", "P", "top")
    assert frame.ops.shape == (4, n_max + 1, n_max + 1)
    assert np.array_equal(frame.ops[0], np.eye(n_max + 1))
    assert np.array_equal(frame.ops[1], w.conj().T @ fock.X @ w)
    assert np.array_equal(frame.ops[2], np.diag(frame.p))
    assert np.array_equal(frame.top, w[-2:])
    assert np.array_equal(frame.ops[3], frame.top.conj().T @ frame.top)


@pytest.mark.parametrize("engine", [run_single_exact, run_fock])
def test_overflowing_coupling_is_refused(engine):
    """A coupling whose branch displacements overflow once squared is
    refused by name before any pointer integral or Fock phase is formed,
    so numpy never warns (the suite turns RuntimeWarning into an error);
    a scale that overflows only its product with K is refused too."""
    scn = build_three_box()
    c = SingleCoupling(A=scn.observable("P1"), K=1e308, pointer=unit_pointer())
    with pytest.raises(ValueError, match=r"\|kx\| = 1e\+308 is too strong"):
        engine(scn.i, scn.f, c)
    c = dataclasses.replace(c, K=1e200)
    with pytest.raises(ValueError, match=r"\|kx\| = inf is too strong"):
        engine(scn.i, scn.f, c, scales=[1.0, 1e200])


@pytest.mark.parametrize("engine", [run_joint_exact, run_fock])
def test_overflowing_joint_coupling_is_refused_by_axis(engine):
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=0.01, Ky=1e160,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    with pytest.raises(ValueError, match=r"\|ky\| = 1e\+160 is too strong"):
        engine(scn.i, scn.f, jc)
    # a coupling whose displacements square to a finite value over
    # 8 sigma^2 runs (truncated, on the Fock engine)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        engine(scn.i, scn.f, dataclasses.replace(jc, Ky=1e150))


def test_records_refuse_non_finite_moment_by_name():
    # the rows of a single coupling: ps_prob, x_mean, px_mean
    forms = np.array([[0.5, 0.5], [0.1, math.nan], [0.0, 0.0]])
    c = SingleCoupling(SIGMA_Z, 1.0, unit_pointer())
    with pytest.raises(NumericalInconsistency, match=r"x_mean of record 1 is .*nan.*, not finite"):
        _records(forms, c, np.array([1.0, 2.0]), np.zeros(2), "exact")


def test_residue_bound_is_in_the_pointer_units():
    """Each moment's imaginary-residue bound is IMAG_RESIDUE_TOL times
    the vacuum spreads of its pointer operators (sigma for X, hbar /
    (2 sigma) for P), never below IMAG_RESIDUE_TOL: at sigma = hbar = 1
    every bound is IMAG_RESIDUE_TOL, and a really complex moment is
    still refused there."""
    unit = JointCoupling(SIGMA_Z, SIGMA_Z, 0.01, 0.01, unit_pointer(), unit_pointer())
    assert _residue_bounds(unit.axes, list(MOMENTS)).tolist() == [IMAG_RESIDUE_TOL] * 7
    wide = GaussianPointer(sigma=1e6, hbar=1.0)
    jc = JointCoupling(SIGMA_Z, SIGMA_Z, 1e4, 1e4, wide, GaussianPointer(sigma=1.0, hbar=1.0))
    want = [1.0, 1e6, 1.0, 1.0, 1.0, 1e6, 1e6 * 0.5]
    np.testing.assert_allclose(_residue_bounds(jc.axes, list(MOMENTS)),
                               IMAG_RESIDUE_TOL * np.array(want), rtol=1e-15)
    forms = np.array([[0.5], [0.1], [0.1 + 2e-10j]])  # ps_prob, x_mean, px_mean
    single = SingleCoupling(SIGMA_Z, 0.01, unit_pointer())
    with pytest.raises(NumericalInconsistency, match="px_mean has imaginary residue 2.000e-10"):
        _records(forms, single, np.ones(1), np.zeros(1), "exact")
    forms = np.array([[0.5], [0.1 + 2e-10j], [0.1]])
    assert _records(forms, SingleCoupling(SIGMA_Z, 1e4, wide), np.ones(1), np.zeros(1),
                    "exact").x_mean.tolist() == [0.2]


def test_records_check_and_clamp_probabilities_as_columns():
    """The batch checks the whole ps_prob column against [0, 1] up to
    1e-12, clamps a rounding excursion, and divides by the unclamped
    value; one row at a time as well."""
    # the rows of a single coupling: ps_prob, x_mean, px_mean
    forms = np.array([[0.5, 1.0 + 5e-13], [0.25, 1.0], [0.0, 0.0]])
    c = SingleCoupling(SIGMA_Z, 1.0, unit_pointer())
    batch = _records(forms, c, np.array([1.0, 2.0]), np.array([0.1, 0.2]), "exact")
    assert batch.ps_prob.tolist() == [0.5, 1.0]
    assert batch.x_mean.tolist() == [0.5, 1.0 / (1.0 + 5e-13)]
    forms[0] = [0.5, 1.5]
    with pytest.raises(NumericalInconsistency, match=r"probability 1\.5 outside \[0, 1\]"):
        _records(forms, c, np.array([1.0, 2.0]), np.zeros(2), "exact")
    row = np.array([[1.0 + 5e-13], [0.0], [0.0]])
    assert _records(row, c, np.ones(1), np.zeros(1), "exact").ps_prob.tolist() == [1.0]
    row[0] = [1.5]
    with pytest.raises(NumericalInconsistency, match=r"probability 1\.5 outside \[0, 1\]"):
        _records(row, c, np.ones(1), np.zeros(1), "exact")


def test_batch_is_frozen_read_only_columns():
    f = QuantumState(np.array([0.8, 0.6]))
    jc = JointCoupling(
        A=SIGMA_Z, B=SIGMA_Z, Kx=0.05, Ky=-0.03,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.7),
    )
    scales = np.array([0.5, 1.0, 2.0])
    batch = run_joint_exact(PLUS_X, f, jc, scales=scales)
    assert isinstance(batch, MeasurementBatch)
    scales[0] = 9.0  # the batch holds its own copy of the scales
    assert batch.scales.tolist() == [0.5, 1.0, 2.0]
    for name in COLUMNS:
        assert getattr(batch, name).shape == (3,), name
        with pytest.raises(ValueError):
            getattr(batch, name)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        batch.x_mean = batch.y_mean
    with pytest.raises(dataclasses.FrozenInstanceError):
        batch.moments = batch.moments.copy()
    assert batch.engine_tag == "exact-joint"
    # one read-only table that owns its data; each MOMENTS name is its row
    assert batch.moments.shape == (len(MOMENTS), 3)
    assert not batch.moments.flags.writeable and batch.moments.base is None
    with pytest.raises(ValueError):
        batch.moments[1, 0] = 0.0
    for row, name in enumerate(MOMENTS):
        assert np.shares_memory(getattr(batch, name), batch.moments[row]), name
        assert getattr(batch, name).tolist() == batch.moments[row].tolist(), name
    single = run_single_exact(PLUS_X, f, SingleCoupling(SIGMA_Z, 0.05, unit_pointer()),
                              scales=[1.0, 2.0])
    assert single.moments.shape == (len(MOMENTS), 2)
    y_rows = [row for row, ops in enumerate(MOMENT_OPERATORS.values()) if ops[1] != "1"]
    assert y_rows == [3, 4, 5, 6]
    assert single.moments[y_rows].tolist() == [[0.0, 0.0]] * 4
    assert single.y_mean.tolist() == single.x_py_mean.tolist() == [0.0, 0.0]


def test_fock_records_equal_on_cold_and_warm_frame_cache():
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    single = SingleCoupling(A=SIGMA_Z, K=0.05, pointer=unit_pointer())
    joint = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.05, Ky=-0.03,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.7),
    )
    for c in (single, joint):
        _pointer_frame.cache_clear()
        cold = run_fock(PLUS_X, f, c, n_max=20, scales=[0.5, 1.0])
        warm = run_fock(PLUS_X, f, c, n_max=20, scales=[0.5, 1.0])
        assert _pointer_frame.cache_info().hits > 0
        assert columns(cold) == columns(warm)


@pytest.mark.parametrize("n_max", [7, 8, 40])
def test_pointer_frame_grid_is_exactly_antisymmetric(n_max):
    # odd n_max gives an even grid, even n_max an odd one with p = 0
    pvals = _pointer_frame(GaussianPointer(sigma=0.7), n_max)[1]
    assert np.array_equal(pvals, -pvals[::-1])
    assert np.all(np.diff(pvals) > 0)


# --- batches over the coupling scale -----------------------------------------


def test_batch_without_scales_is_one_record_and_empty_batch_is_empty():
    c = SingleCoupling(A=SIGMA_Z, K=0.05, pointer=unit_pointer())
    jc = JointCoupling(SIGMA_X, SIGMA_Z, 0.05, -0.03, unit_pointer(), unit_pointer())
    commuting = dataclasses.replace(jc, A=SIGMA_Z)
    f = QuantumState(np.array([0.8, 0.6]))
    for engine, coupling in ((run_single_exact, c), (run_joint_exact, commuting),
                             (run_fock, c), (run_fock, commuting), (run_fock, jc)):
        batch = engine(PLUS_X, f, coupling)
        assert isinstance(batch, MeasurementBatch) and batch.scales.tolist() == [1.0]
        assert columns(batch) == columns(engine(PLUS_X, f, coupling, scales=[1.0]))
    assert len(run_single_exact(PLUS_X, f, c, scales=[]).scales) == 0
    assert run_fock(PLUS_X, f, c, scales=[]).ps_prob.shape == (0,)
    with pytest.raises(ValueError):
        run_single_exact(PLUS_X, f, c, scales=[0.1, math.inf])


def test_batch_flags_truncation_per_row():
    c = SingleCoupling(A=SIGMA_Z, K=1.0, pointer=unit_pointer())
    f = QuantumState(np.array([0.8, 0.6]))
    with pytest.warns(TruncationWarning):
        batch = run_fock(PLUS_X, f, c, n_max=4, scales=[0.01, 2.0])
    assert batch.truncation_warning.tolist() == [False, True]
    assert batch.weakness_ratio.tolist() == [0.01, 2.0]


def test_batch_applies_postselection_floor_to_every_row():
    # |<f|i>|^2 = 0: only the coupling-induced overlap lifts ps above 0,
    # about t^2 / 4 at scale t, so the weakest row (2.5e-13) falls below
    # the EPS_PS floor that the strongest row clears
    f = QuantumState(np.array([1.0, -1.0]))
    c = SingleCoupling(A=SIGMA_Z, K=1.0, pointer=unit_pointer())
    assert run_single_exact(PLUS_X, f, c, scales=[0.5, 1e-5]).ps_prob.min() > EPS_PS
    with pytest.raises(OrthogonalPostselection, match=r"2\.500e-13 below floor 1\.0e-12"):
        run_single_exact(PLUS_X, f, c, scales=[0.5, 1e-6])


def test_fock_refuses_oversized_truncation_before_allocating(monkeypatch):
    c = SingleCoupling(A=SIGMA_Z, K=0.01, pointer=unit_pointer())
    # (1e8 + 1)^2 x 2^2 complex values: 6.4e17 bytes
    with pytest.raises(InvalidTruncation, match="6.104e\\+11 MiB, over the 256 MiB budget$"):
        run_fock(PLUS_X, PLUS_X, c, n_max=10**8)
    # the benchmark size (n_max 40, d = 4) is far inside the budget
    assert 16 * 41**2 * 4**2 < MAX_ARRAY_BYTES
    # at n_max 2, d = 2 and 10 scales the blocks (36 values) and the grid
    # arrays (60) fit a 100-value budget, the arrays live at the peak of
    # the Gauss-Hermite rule (520) do not
    monkeypatch.setattr("weaklab.engines.MAX_ARRAY_BYTES", 16 * 100)
    # the request and the budget print in one format, so neither reads as
    # "0 MiB"; the request rounds up and the budget down
    with pytest.raises(InvalidTruncation) as refused:
        run_fock(PLUS_X, PLUS_X, c, n_max=2, scales=np.linspace(0.1, 1.0, 10))
    assert str(refused.value) == ("10 scales at n_max=2 with system dimension 2 needs "
                                  "0.007935 MiB, over the 0.001525 MiB budget")


@pytest.mark.parametrize("n_values", [2**24 + 1, 2**24 + 2**10, 2**25, 10**18])
def test_budget_refusal_never_reads_as_the_budget(n_values):
    """The request rounds up and the budget down, so a request one value
    over the budget does not print as equal to it."""
    with pytest.raises(InvalidTruncation) as refused:
        check_array_budget(n_values, "request", InvalidTruncation)
    request, budget = re.fullmatch(r"request needs (\S+) MiB, over the (\S+) MiB budget",
                                   str(refused.value)).groups()
    assert budget == "256"
    assert float(request) > float(budget)
    assert float(request) >= 16 * n_values / 2**20


def test_chebyshev_route_budget_counts_its_arrays(monkeypatch):
    """The block engine's Chebyshev route checks every array it holds
    at its peak against the budget before allocating: with 300 scales
    the arrays it counts exceed the (n_max+1)^2 d^2 block stack, so its
    own check is the one that refuses. Traced with
    tracemalloc, a run the budget just admits peaks below twice that
    budget; one value less is refused, naming the term count."""
    i, f, jc = noncommuting_case()
    c = dataclasses.replace(jc, Kx=0.3, Ky=0.3)
    scales = np.linspace(0.1, 1.0, 300)
    frames = [_pointer_frame(p, 40) for _, _, p, _ in c.axes]
    terms = _chebyshev_terms(sum(_norm_terms(c, frames)))
    live = _chebyshev_live(2, 41, 41, terms, len(scales))
    assert live > 41**2 * 2**2
    monkeypatch.setattr("weaklab.engines.MAX_ARRAY_BYTES", 16 * live)
    tracemalloc.start()
    try:
        run_fock(i, f, c, 40, scales=scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * live, peak / (16 * live)
    monkeypatch.setattr("weaklab.engines.MAX_ARRAY_BYTES", 16 * live - 16)
    with pytest.raises(InvalidTruncation,
                       match=f"^{terms} Chebyshev terms at n_max=40 with system dimension 2 needs"):
        run_fock(i, f, c, 40, scales=scales)


def test_fock_branch_sum_peak_stays_within_twice_the_budget(monkeypatch):
    """The Fock branch sum's budget check sizes the arrays live at the
    peak of its Gauss-Hermite rule: scales x d x ((2 + operators) x
    max(n_max+1, d) + operators x axes x d) values. Traced with
    tracemalloc, the largest run a budget admits peaks below twice that
    budget, a single coupling and a commuting pair with its singles
    alike, whether n_max+1 is below, near or far above d; one more scale
    is refused."""
    budget = 16 * len(STACK_OPERATORS) * 100 * 41 * 4
    monkeypatch.setattr("weaklab.engines.MAX_ARRAY_BYTES", budget)
    three_box, hardy = build_three_box(), build_hardy()
    pointer = unit_pointer()
    problems = [
        (three_box, SingleCoupling(three_box.observable("P3"), 1e-3, pointer), {}),
        (hardy, JointCoupling(hardy.observable("N_Oe"), hardy.observable("N_Op"), 1e-3, 1e-3,
                              pointer, pointer), {"with_singles": True}),
    ]
    ops = len(STACK_OPERATORS)
    for n_max, (scn, c, kwargs) in itertools.product([2, 10, 40], problems):
        _pointer_frame(pointer, n_max)
        d = c.A.dim
        per_scale = d * ((2 + ops) * max(n_max + 1, d) + ops * len(c.axes) * d)
        admitted = budget // (16 * per_scale)
        with warnings.catch_warnings():
            # the larger scales truncate at small n_max
            warnings.simplefilter("ignore", TruncationWarning)
            tracemalloc.start()
            try:
                run_fock(scn.i, scn.f, c, n_max, scales=np.geomspace(1.0, 100.0, admitted),
                         **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2 * budget, (n_max, peak / budget)
        with pytest.raises(InvalidTruncation, match="budget"):
            run_fock(scn.i, scn.f, c, n_max, scales=np.geomspace(1.0, 100.0, admitted + 1),
                     **kwargs)


# --- moment scaling laws ------------------------------------------------------


def test_x_shift_error_is_third_order_in_k():
    # |x_mean(K) - K Re<A>_W| ~ C K^3 for scenarios with a nonvanishing
    # cubic coefficient
    for scn, label in ((build_three_box(), "P3"), (build_spin_amplifier(0.5), "sigma_z")):
        a = scn.observable(label)
        w = direct_weak_value(a, scn.i, scn.f)
        ks = np.geomspace(0.01, 0.1, 10)
        errs = []
        for k in ks:
            c = SingleCoupling(A=a, K=float(k), pointer=unit_pointer())
            rec = run_single_exact(scn.i, scn.f, c)
            errs.append(abs(rec.x_mean - k * w.real))
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert 2.7 <= slope <= 3.3


def test_px_scales_inverse_sigma_squared():
    scn = build_imaginary()
    a = scn.observable("sigma_z")
    k = 0.01
    px = {}
    for sigma in (1.0, 2.0):
        c = SingleCoupling(A=a, K=k, pointer=GaussianPointer(sigma))
        px[sigma] = run_single_exact(scn.i, scn.f, c).px_mean
    assert px[2.0] == pytest.approx(px[1.0] / 4.0, rel=0.05)


# --- commutator series ---------------------------------------------------------


def noncommuting_case():
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    jc = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    return PLUS_X, f, jc


def series_cases():
    i, f, jc = noncommuting_case()
    yield i, f, jc
    scn = build_hardy()
    yield scn.i, scn.f, JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=0.02, Ky=0.03,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )


def xy_second_order_closed_form(i, f, jc):
    """Direct matrix evaluation of the leading correlation shift:
    (KxKy/2) Re[<i|f><f|(AB+BA)/2|i> + <i|A|f><f|B|i>]."""
    a, b = jc.A.matrix, jc.B.matrix
    sym = (a @ b + b @ a) / 2
    fi = np.vdot(f.amplitudes, i.amplitudes)
    val = (
        np.conj(fi) * np.vdot(f.amplitudes, sym @ i.amplitudes)
        + np.vdot(i.amplitudes, a @ f.amplitudes) * np.vdot(f.amplitudes, b @ i.amplitudes)
    )
    return 0.5 * jc.Kx * jc.Ky * val.real


def test_series_odd_orders_vanish_for_xy():
    for i, f, jc in series_cases():
        terms = heisenberg_moment(i, f, jc, "O_xy", order=3)
        assert abs(terms[0]) <= 1e-12
        assert abs(terms[1]) <= 1e-12
        assert abs(terms[3]) <= 1e-12


def test_series_second_order_matches_closed_form():
    for i, f, jc in series_cases():
        terms = heisenberg_moment(i, f, jc, "O_xy", order=2)
        assert terms[2] == pytest.approx(xy_second_order_closed_form(i, f, jc), abs=1e-12)


def test_series_truncated_at_two_reproduces_conditional_moment():
    # summing orders 0..2 and normalizing by |<f|i>|^2 gives the same
    # number as the closed-form conditional <XY> at leading order
    for i, f, jc in series_cases():
        terms = heisenberg_moment(i, f, jc, "O_xy", order=2)
        fi2 = abs(np.vdot(f.amplitudes, i.amplitudes)) ** 2
        assert sum(terms) / fi2 == pytest.approx(
            xy_second_order_closed_form(i, f, jc) / fi2, abs=1e-12
        )


def test_series_x_observable_first_order():
    # for O_x the leading term is first order and reproduces the
    # unnormalized position-shift formula K Re[<i|f><f|A|i>]
    i, f, jc = noncommuting_case()
    terms = heisenberg_moment(i, f, jc, "O_x", order=1)
    fi = np.vdot(f.amplitudes, i.amplitudes)
    want = jc.Kx * (np.conj(fi) * np.vdot(f.amplitudes, jc.A.matrix @ i.amplitudes)).real
    assert terms[0] == pytest.approx(0.0, abs=1e-12)
    assert terms[1] == pytest.approx(want, abs=1e-12)


def test_series_xpy_even_structure():
    i, f, jc = noncommuting_case()
    terms = heisenberg_moment(i, f, jc, "O_xpy", order=3)
    assert abs(terms[0]) <= 1e-12
    assert abs(terms[1]) <= 1e-12
    assert abs(terms[3]) <= 1e-12


def dense_heisenberg_moment(i, f, jc, observable_tag, order, n_max):
    """Reference series: the nested commutators [H,[H,...,O]] formed as
    dense Kronecker-product matrices on the truncated product space."""
    fx = build_fock(jc.pointer_x, n_max)
    fy = build_fock(jc.pointer_y, n_max)
    eye_p = np.eye(fx.dim)

    def kron3(s_op, x_op, y_op):
        return np.kron(np.kron(s_op, x_op), y_op)

    ham = jc.Kx * kron3(jc.A.matrix, fx.P, eye_p) + jc.Ky * kron3(jc.B.matrix, eye_p, fy.P)
    y_op = {"O_x": eye_p, "O_xy": fy.X, "O_xpy": fy.P}[observable_tag]
    obs = kron3(np.outer(f.amplitudes, f.amplitudes.conj()), fx.X, y_op)
    psi0 = np.kron(np.kron(i.amplitudes, fx.vacuum_state()), fy.vacuum_state())
    contributions = np.empty(order + 1)
    nested = obs
    for n in range(order + 1):
        if n > 0:
            nested = ham @ nested - nested @ ham
        value = (1j / jc.pointer_x.hbar) ** n / math.factorial(n) * np.vdot(psi0, nested @ psi0)
        assert abs(value.imag) <= 1e-10
        contributions[n] = value.real
    return contributions


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, d):
    a = complex_normal(rng, d, d)
    return (a + a.conj().T) / 2


def pre_post_states(rng, d):
    """Random pre- and post-selected states with |<f|i>| >= 0.3."""
    i = QuantumState(complex_normal(rng, d))
    f = QuantumState(complex_normal(rng, d))
    if abs(f.inner(i)) < 0.3:
        # |<f + 2i|i>| >= (2 - 0.3) / 3 for unit |f>, |i>
        f = QuantumState(f.amplitudes + 2.0 * i.amplitudes)
    return i, f


def commuting_partner(vals, vecs):
    """g(A) = cos(3A) + A^2 for A with eigenvalues vals, eigenvectors vecs."""
    b = vecs @ np.diag(np.cos(3 * vals) + vals**2) @ vecs.conj().T
    return (b + b.conj().T) / 2


@st.composite
def joint_problem(draw):
    """Random Hermitian A, B (d <= 3; B a function of A when they must
    commute), states with |<f|i>| >= 0.3, couplings of magnitude 0.01
    to 0.1 and pointer widths 0.5 to 2. Matrix and state entries come
    from a generator seeded by hypothesis, so they are generic."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_hermitian(rng, d)
    if draw(st.booleans()):
        b = commuting_partner(*np.linalg.eigh(a))
    else:
        b = random_hermitian(rng, d)
    i, f = pre_post_states(rng, d)
    return i, f, draw_joint_coupling(draw, a, b)


def draw_joint_coupling(draw, a, b):
    """JointCoupling of matrices a and b with couplings of magnitude 0.01
    to 0.1 and pointer widths 0.5 to 2."""
    hbar = draw(st.sampled_from([1.0, 2.0]))

    def coupling():
        return draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 0.1))

    return JointCoupling(
        A=Observable(a), B=Observable(b), Kx=coupling(), Ky=coupling(),
        pointer_x=GaussianPointer(draw(st.floats(0.5, 2.0)), hbar),
        pointer_y=GaussianPointer(draw(st.floats(0.5, 2.0)), hbar),
    )


@st.composite
def exactly_commuting_problem(draw):
    """A joint problem whose A and B commute exactly in floating point,
    so that run_fock takes the branch-sum engine: diagonal A and B that
    each repeat an eigenvalue (d 2..4), A (x) 1 and 1 (x) B at d = 4, or
    d = 1."""
    kind = draw(st.sampled_from(["diagonal", "kron", "scalar"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        d = draw(st.integers(2, 4))
        vals_a, vals_b = rng.uniform(-1.0, 1.0, (2, d))
        vals_a[1], vals_b[-1] = vals_a[0], vals_b[0]
        a, b = np.diag(vals_a), np.diag(vals_b)
    elif kind == "kron":
        d = 4
        a = np.kron(random_hermitian(rng, 2), np.eye(2))
        b = np.kron(np.eye(2), random_hermitian(rng, 2))
    else:
        d = 1
        a, b = rng.normal(size=(2, 1, 1))
    i, f = pre_post_states(rng, d)
    return i, f, draw_joint_coupling(draw, a, b)


@st.composite
def series_problem(draw):
    """A joint problem with a series order 0..4 and n_max order+2..6."""
    i, f, jc = draw(joint_problem())
    order = draw(st.integers(0, 4))
    n_max = draw(st.integers(order + 2, 6))
    return i, f, jc, order, n_max


@settings(max_examples=40, deadline=None)
@given(problem=series_problem(), observable_tag=st.sampled_from(["O_x", "O_xy", "O_xpy"]))
def test_series_matches_dense_commutator_reference(problem, observable_tag):
    i, f, jc, order, n_max = problem
    assert abs(f.inner(i)) >= 0.3
    got = heisenberg_moment(i, f, jc, observable_tag, order, n_max)
    want = dense_heisenberg_moment(i, f, jc, observable_tag, order, n_max)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("observable_tag", ["O_x", "O_xy", "O_xpy"])
def test_series_matches_dense_reference_at_default_truncation(observable_tag):
    # the hardy case has d = 4, beyond the property test's d <= 3
    for i, f, jc in series_cases():
        got = heisenberg_moment(i, f, jc, observable_tag, order=4)
        want = dense_heisenberg_moment(i, f, jc, observable_tag, order=4, n_max=8)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_series_refuses_oversized_truncation_before_allocating():
    i, f, jc = noncommuting_case()
    # 2 x (1e8 + 1)^2 complex values: 3.2e17 bytes
    with pytest.raises(InvalidTruncation, match="budget"):
        heisenberg_moment(i, f, jc, "O_xy", order=2, n_max=10**8)


def test_series_refuses_overflowing_coupling_by_name():
    """The series refuses a coupling before it forms any power of H, so
    numpy never warns (the suite turns RuntimeWarning into an error):
    one the run_* engines refuse (1e200), and one whose pointer
    integrals are finite but whose fourth power of H overflows (1e100).
    At a tiny hbar the overflowing term is |K| x radius x max|p| / hbar,
    not the tiny |K| x radius x max|p|."""
    scn = build_hardy()
    for k in (1e200, 1e100):
        jc = JointCoupling(
            A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=k, Ky=k,
            pointer_x=unit_pointer(), pointer_y=unit_pointer(),
        )
        with pytest.raises(ValueError, match=rf"\|kx\| = {re.escape(repr(k))} is too strong"):
            heisenberg_moment(scn.i, scn.f, jc, "O_xy", order=4)
    tiny = GaussianPointer(1.0, hbar=1e-300)
    jc = dataclasses.replace(jc, Kx=1e80, Ky=1e80, pointer_x=tiny, pointer_y=tiny)
    with pytest.raises(ValueError, match=r"\|kx\| = 1e\+80 .* max\|p\| / hbar = 2\.2\d*e\+80"):
        heisenberg_moment(scn.i, scn.f, jc, "O_xy", order=4)


def test_series_is_exact_at_tiny_hbar():
    """The series never forms a power of 1/hbar: at hbar = 1e-100 the
    position moments equal their hbar = 1 values, and the momentum
    moment scales with hbar, on the hardy pair and on the noncommuting
    qubit, with a real and with a complex post-selection."""
    hardy = build_hardy()
    a, b, i, f = _noncommuting_qubit()
    f_complex = QuantumState(np.array([math.cos(0.3), 1j * math.sin(0.3)]))
    cases = [(hardy.observable("N_Oe"), hardy.observable("N_Op"), hardy.i, hardy.f),
             (a, b, i, f), (a, b, i, f_complex)]
    for a, b, i, f in cases:
        terms = {}
        for hbar in (1.0, 1e-100):
            p = GaussianPointer(1.0, hbar=hbar)
            jc = JointCoupling(A=a, B=b, Kx=1e-3, Ky=1e-3, pointer_x=p, pointer_y=p)
            terms[hbar] = {tag: heisenberg_moment(i, f, jc, tag, order=4)
                           for tag in ("O_x", "O_xy", "O_xpy")}
        terms[1e-100]["O_xpy"] = terms[1e-100]["O_xpy"] / 1e-100
        for tag, want in terms[1.0].items():
            scale = np.abs(want).max()
            np.testing.assert_allclose(terms[1e-100][tag], want, rtol=0, atol=1e-12 * scale)
        assert np.abs(terms[1.0]["O_x"]).max() > 0.0


def test_series_is_real_at_strong_coupling():
    """At Kx = Ky = 1e3 on the hardy pair the vectors G^k psi0 reach norm
    5e11, and the order-4 O_xpy contribution sums products of total size
    5e9 to zero, leaving an imaginary residue of 1.6e-7 that is their
    rounding. The series returns real values that match the dense
    reference within 1e-12 of the largest term (the O_xy order-4 term,
    -1.04e10)."""
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=1e3, Ky=1e3,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    tags = ("O_x", "O_xy", "O_xpy")
    got = {tag: heisenberg_moment(scn.i, scn.f, jc, tag, order=4) for tag in tags}
    want = {tag: dense_heisenberg_moment(scn.i, scn.f, jc, tag, order=4, n_max=8)
            for tag in tags}
    scale = max(np.abs(terms).max() for terms in want.values())
    assert scale > 1e10
    for tag in tags:
        np.testing.assert_allclose(got[tag], want[tag], rtol=0, atol=1e-12 * scale)


def test_realize_judges_each_imaginary_residue_against_its_own_bound():
    names = ["order-1 contribution", "order-2 contribution"]
    values = np.array([1.0 + 1e-11j, 1e3 + 1e-8j])
    assert _realize(values, names, lambda: np.array([1e-10, 1e-7])).tolist() == [1.0, 1e3]
    with pytest.raises(NumericalInconsistency, match="order-2 contribution has imaginary residue"):
        _realize(values, names, lambda: np.array([1e-10, 1e-9]))
    values[0] += 1e-9j
    with pytest.raises(NumericalInconsistency, match="order-1 contribution has imaginary residue"):
        _realize(values, names, lambda: np.array([1e-10, 1e-7]))


@pytest.mark.parametrize("value", [math.nan, complex(0.0, math.inf), math.inf])
def test_realize_refuses_non_finite_value_by_name(value):
    """A (names,) array names the first non-finite entry; a (names,
    records) array names it and its record."""
    names = ["order-1 contribution", "order-2 contribution"]
    with pytest.raises(NumericalInconsistency, match="order-2 contribution is .*, not finite"):
        _realize(np.array([0.5, value]), names, lambda: IMAG_RESIDUE_TOL)
    forms = np.array([[0.5, 0.5], [0.1, 0.2], [0.3, value]])
    with pytest.raises(NumericalInconsistency, match=r"x_mean of record 1 is .*, not finite"):
        _realize(forms, ["ps_prob", "px_mean", "x_mean"], lambda: IMAG_RESIDUE_TOL)


def test_series_argument_validation():
    i, f, jc = noncommuting_case()
    with pytest.raises(ValueError):
        heisenberg_moment(i, f, jc, "O_xy", order=5)
    with pytest.raises(ValueError):
        heisenberg_moment(i, f, jc, "O_zz", order=2)
    with pytest.raises(ValueError):
        heisenberg_moment(i, f, jc, "O_xy", order=4, n_max=3)


# --- Fock joint engine against a dense reference -----------------------------


def dense_fock_joint(i, f, c, n_max, scales):
    """Reference Fock engine: H = Kx A (x) Px (x) 1 + Ky B (x) 1 (x) Py for
    a JointCoupling, or H = K A (x) P for a SingleCoupling, formed as one
    dense Kronecker-product matrix on the truncated product space, one
    full eigh, psi0 evolved to each scale t and post-selected on <f|.
    Returns per scale the record's moments (ps_prob and the conditional
    moments) and the population of the top two levels of the more
    populated axis."""
    if isinstance(c, SingleCoupling):
        axes = [(c.A, c.K, build_fock(c.pointer, n_max))]
        names = {"x_mean": ("X",), "px_mean": ("P",)}
    else:
        axes = [(c.A, c.Kx, build_fock(c.pointer_x, n_max)),
                (c.B, c.Ky, build_fock(c.pointer_y, n_max))]
        names = {
            "x_mean": ("X", "1"),
            "px_mean": ("P", "1"),
            "y_mean": ("1", "X"),
            "py_mean": ("1", "P"),
            "xy_mean": ("X", "X"),
            "x_py_mean": ("X", "P"),
        }
    eye_p = np.eye(n_max + 1)

    def on_axes(ops):
        """Kronecker product of one operator per pointer axis."""
        return functools.reduce(np.kron, ops)

    ham = sum(
        k * np.kron(a.matrix, on_axes([fk.P if m == n else eye_p for m in range(len(axes))]))
        for n, (a, k, fk) in enumerate(axes)
    )
    vals, vecs = np.linalg.eigh(ham)
    psi0 = np.kron(i.amplitudes, on_axes([fk.vacuum_state() for _, _, fk in axes]))
    coeff = vecs.conj().T @ psi0
    operators = {
        name: on_axes([{"1": eye_p, "X": fk.X, "P": fk.P}[op] for op, (_, _, fk) in zip(ops, axes)])
        for name, ops in names.items()
    }
    hbar = axes[0][2].base.hbar
    results = []
    for t in scales:
        psi = vecs @ (np.exp(-1j * t / hbar * vals) * coeff)
        psi = psi.reshape(i.dim, *[n_max + 1] * len(axes))  # (system, x level[, y level])
        top = max(np.sum(np.abs(np.moveaxis(psi, n + 1, 0)[-2:]) ** 2) for n in range(len(axes)))
        phi = np.tensordot(f.amplitudes.conj(), psi, axes=1).reshape(-1)
        ps = np.vdot(phi, phi).real
        moments = {"ps_prob": ps}
        for name, op in operators.items():
            value = np.vdot(phi, op @ phi) / ps
            assert abs(value.imag) <= 1e-10
            moments[name] = value.real
        results.append((moments, top))
    return results


@st.composite
def fock_joint_problem(draw):
    """A joint problem with either coupling or both possibly zero, one
    that commutes exactly, or a single coupling of A to the x pointer
    (the last item returned names which), with n_max 3..8 (even and odd
    grids) and one to three signed scales up to 10, strong enough at
    small n_max to populate the top levels."""
    kind = draw(st.sampled_from(["noncommuting", "commuting", "single"]))
    i, f, c = draw(exactly_commuting_problem() if kind == "commuting" else joint_problem())
    if kind == "single":
        c = SingleCoupling(c.A, c.Kx, c.pointer_x)
    else:
        zeroed = draw(st.sampled_from([(), ("Kx",), ("Ky",), ("Kx", "Ky")]))
        c = dataclasses.replace(c, **{name: 0.0 for name in zeroed})
    n_max = draw(st.integers(3, 8))
    scales = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
    return i, f, c, n_max, scales, kind


def truncated_single_problem():
    """A d = 3 single coupling strong enough at n_max 5 to flag two of
    its three rows, so the single branch sum's top-level population is
    checked whatever hypothesis draws."""
    rng = np.random.default_rng(11)
    i, f = pre_post_states(rng, 3)
    c = SingleCoupling(Observable(random_hermitian(rng, 3)), -0.8, GaussianPointer(0.7))
    return i, f, c, 5, [0.01, 0.5, 2.0], "single"


def truncated_commuting_problem():
    """An exactly commuting d = 4 pair strong enough on y at n_max 5 to
    flag two of its three rows, with the y axis the more populated one
    on every row (1.2e-2 against 4.4e-8 and 0.35 against 1.0e-5 on the
    flagged rows), so the pair's top-level population of the last axis
    is checked whatever hypothesis draws."""
    rng = np.random.default_rng(5)
    a = np.kron(random_hermitian(rng, 2), np.eye(2))
    b = np.kron(np.eye(2), random_hermitian(rng, 2))
    i, f = pre_post_states(rng, 4)
    c = JointCoupling(
        A=Observable(a), B=Observable(b), Kx=0.3, Ky=-0.9,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.8),
    )
    return i, f, c, 5, [0.05, 1.0, 2.0], "commuting"


def crossover_scale(c, n_max, terms=_CHEBYSHEV_TERMS):
    """The scale t at which the pair c's x = |t| h / hbar sits on the
    boundary between ``terms`` and more terms of the series at n_max, by
    default that of the Chebyshev route: the last x that
    ``_chebyshev_terms`` serves with at most ``terms``, to 1e-12
    relative."""
    frames = [_pointer_frame(p, n_max) for _, _, p, _ in c.axes]
    low, high = 0.0, float(_CHEBYSHEV_TERMS)
    while high - low > 1e-12 * high:
        middle = (low + high) / 2
        fits = (_chebyshev_terms(middle) or math.inf) <= terms
        low, high = (middle, high) if fits else (low, middle)
    return low / sum(_norm_terms(c, frames))


def crossover_problem(side):
    """A noncommuting d = 3 pair at n_max 6 whose strongest scale sits
    just below (side -1) or just above (side +1) the crossover of the
    block engine's two routes, so that it takes exactly _CHEBYSHEV_TERMS
    terms of the series or the block eigh. Both sides populate the top
    levels above TRUNCATION_TOL on that scale, not on the weakest."""
    rng = np.random.default_rng(3)
    i, f = pre_post_states(rng, 3)
    c = JointCoupling(
        A=Observable(random_hermitian(rng, 3)), B=Observable(random_hermitian(rng, 3)),
        Kx=0.7, Ky=-0.4, pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.8),
    )
    t = crossover_scale(c, 6) * (1 + side * 1e-9)
    return i, f, c, 6, [0.01 * t, -t], "noncommuting"


#: The term count each d of ``basis_switch_problem`` takes.
SWITCH_TERMS = {2: 12, 4: 10}


def basis_switch_problem(d, levels):
    """A noncommuting pair of dimension d, with Kx != Ky and unequal
    pointer widths, whose strongest scale needs SWITCH_TERMS[d] terms of
    the series, at n_max + 1 = that count + levels: one level above it
    (levels +1), where the series evolves on the first ladder levels,
    and one below it or equal to it (-1, 0), where it evolves on the
    momentum grid."""
    rng = np.random.default_rng(40 + d)
    i, f = pre_post_states(rng, d)
    c = JointCoupling(
        A=Observable(random_hermitian(rng, d)), B=Observable(random_hermitian(rng, d)),
        Kx=0.6, Ky=-0.25, pointer_x=GaussianPointer(0.9), pointer_y=GaussianPointer(1.3),
    )
    n_max = SWITCH_TERMS[d] + levels - 1
    t = crossover_scale(c, n_max, SWITCH_TERMS[d]) * (1 - 1e-9)
    return i, f, c, n_max, [0.01 * t, -t], "noncommuting"


@settings(max_examples=40, deadline=None)
@given(problem=fock_joint_problem())
@example(problem=truncated_single_problem())
@example(problem=truncated_commuting_problem())
@example(problem=crossover_problem(-1))
@example(problem=crossover_problem(+1))
@example(problem=basis_switch_problem(2, +1))
@example(problem=basis_switch_problem(2, 0))
@example(problem=basis_switch_problem(2, -1))
@example(problem=basis_switch_problem(4, +1))
@example(problem=basis_switch_problem(4, 0))
@example(problem=basis_switch_problem(4, -1))
def test_fock_joint_matches_dense_reference(problem):
    i, f, c, n_max, scales, kind = problem
    if kind == "commuting":
        # run_fock selects the branch-sum engine on exactly this test
        assert commutator_norm(c.A, c.B) == 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_fock(i, f, c, n_max=n_max, scales=scales)
    want = dense_fock_joint(i, f, c, n_max, scales)
    for row, (moments, top) in enumerate(want):
        for name, value in moments.items():
            assert getattr(got, name)[row] == pytest.approx(value, abs=1e-12), name
        assert got.truncation_warning[row] == (top > TRUNCATION_TOL)
    flagged = [top for _, top in want if top > TRUNCATION_TOL]
    reported = [
        float(re.search(r"population (\S+);", str(w.message)).group(1)) for w in caught
    ]
    assert reported == pytest.approx(flagged, rel=1e-3)


def routes_taken(monkeypatch):
    """The name of each route of the block engine, in the order the
    calls from here on take them."""
    taken = []
    for name in ("_block_rows", "_chebyshev_rows"):
        route = getattr(engines, name)
        monkeypatch.setattr(engines, name, lambda *args, name=name, route=route: (
            taken.append(name), route(*args))[1])
    return taken


def test_crossover_examples_take_each_route(monkeypatch):
    taken = routes_taken(monkeypatch)
    for side in (-1, +1):
        i, f, c, n_max, scales, _ = crossover_problem(side)
        with pytest.warns(TruncationWarning):
            batch = run_fock(i, f, c, n_max, scales=scales)
        assert batch.truncation_warning.tolist() == [False, True]
    assert taken == ["_chebyshev_rows", "_block_rows"]


@pytest.mark.parametrize("d", sorted(SWITCH_TERMS))
@pytest.mark.parametrize("levels", [+1, 0, -1])
def test_basis_switch_examples_sit_on_each_side(d, levels):
    """Each ``basis_switch_problem`` takes the series with its term
    count, on the first ladder levels of each axis when the truncation
    has more levels than terms, on the momentum grid otherwise."""
    i, f, c, n_max, scales, _ = basis_switch_problem(d, levels)
    frames = [_pointer_frame(p, n_max) for _, _, p, _ in c.axes]
    terms = _chebyshev_terms(max(map(abs, scales)) * sum(_norm_terms(c, frames)))
    assert terms == SWITCH_TERMS[d] == n_max + 1 - levels
    for frame in frames:
        _, p, ops, _ = _series_basis(frame, terms)
        assert ops.shape == (3, *[min(terms, n_max + 1)] * 2)
        assert p.ndim == (2 if levels > 0 else 1)


def test_series_forms_no_grid_sized_array():
    """A six-scale d = 4 run at n_max 40, as weakly coupled as the
    benchmark's Fock sweeps (14 terms), takes the series on the first
    ladder levels of each axis: traced with tracemalloc at every line
    the engines module runs, it never holds one block as large as a
    (d, (n_max+1)^2) state on the momentum grid."""
    rng = np.random.default_rng(9)
    i, f = pre_post_states(rng, 4)
    c = JointCoupling(
        A=Observable(random_hermitian(rng, 4)), B=Observable(random_hermitian(rng, 4)),
        Kx=0.02, Ky=0.015, pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.8),
    )
    scales = np.geomspace(1e-2, 1.0, 6)
    frames = [_pointer_frame(p, 40) for _, _, p, _ in c.axes]
    assert _chebyshev_terms(sum(_norm_terms(c, frames))) == 14
    largest = 0

    def trace(frame, event, arg):
        nonlocal largest
        if frame.f_code.co_filename != engines.__file__:
            return None
        largest = max([largest] + [block.size for block in tracemalloc.take_snapshot().traces])
        return trace

    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(trace)
    try:
        run_fock(i, f, c, 40, scales=scales)
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    assert 0 < largest < 16 * 4 * 41**2


def test_block_engine_routes_agree(monkeypatch):
    """One truncating noncommuting problem down each route of the block
    engine: the Chebyshev series at the default crossover, the block
    eigh with the crossover at zero terms. The moments agree to
    rounding, and the warnings report the same populations."""
    rng = np.random.default_rng(21)
    i, f = pre_post_states(rng, 3)
    c = JointCoupling(
        A=Observable(random_hermitian(rng, 3)), B=Observable(random_hermitian(rng, 3)),
        Kx=0.5, Ky=0.9, pointer_x=GaussianPointer(1.2), pointer_y=unit_pointer(),
    )
    scales = [-0.05, 0.3, 0.6 * crossover_scale(c, 5)]
    taken = routes_taken(monkeypatch)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = run_fock(i, f, c, 5, scales=scales)
        return batch, [float(re.search(r"population (\S+);", str(w.message)).group(1))
                       for w in caught]

    series, series_warned = run()
    monkeypatch.setattr(engines, "_CHEBYSHEV_TERMS", 0)
    blocks, block_warned = run()
    assert taken == ["_chebyshev_rows", "_block_rows"]
    assert np.abs(series.moments - blocks.moments).max() <= 1e-13
    assert series.truncation_warning.tolist() == blocks.truncation_warning.tolist()
    assert not series.truncation_warning[0] and series.truncation_warning[-1]
    assert series_warned == pytest.approx(block_warned, rel=1e-3)


def test_strong_noncommuting_run_takes_the_block_eigh_at_once(monkeypatch):
    """At K = 1e12 x = |t| h / hbar is far above any term count, so the
    term count refuses it before counting, and the run takes the block
    eigh without forming a Chebyshev coefficient."""
    i, f, jc = noncommuting_case()
    c = dataclasses.replace(jc, Kx=1e12, Ky=1e12)
    counted = []
    monkeypatch.setattr(engines, "_chebyshev_terms",
                        lambda x: counted.append(x) or _chebyshev_terms(x))
    monkeypatch.setattr(engines, "_chebyshev_coefficients", None)
    taken = routes_taken(monkeypatch)
    with pytest.warns(TruncationWarning):
        batch = run_fock(i, f, c, n_max=4)
    assert taken == ["_block_rows"]
    assert counted[0] > 1e12 and _chebyshev_terms(counted[0]) is None
    assert np.isfinite(batch.moments).all()
    for x in (1e300, math.inf, math.nan, _CHEBYSHEV_TERMS + 1e-9):
        assert _chebyshev_terms(x) is None


def test_fock_one_ulp_off_commuting_matches_branch_sum():
    # one ulp on a diagonal entry of A breaks the exact commutation, so
    # run_fock moves from the branch sum to the block-eigh engine
    rng = np.random.default_rng(7)
    a = np.kron(random_hermitian(rng, 2), np.eye(2))
    b = np.kron(np.eye(2), random_hermitian(rng, 2))
    i, f = pre_post_states(rng, 4)
    jc = JointCoupling(
        A=Observable(a), B=Observable(b), Kx=0.3, Ky=-0.2,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(0.7),
    )
    a[0, 0] = np.nextafter(a[0, 0].real, np.inf)
    perturbed = dataclasses.replace(jc, A=Observable(a))
    assert commutator_norm(jc.A, jc.B) == 0.0
    assert commutator_norm(perturbed.A, perturbed.B) > 0.0
    scales = [0.1, 1.0, 3.0]
    want = run_fock(i, f, jc, scales=scales)
    got = run_fock(i, f, perturbed, scales=scales)
    for name in MOMENTS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0, abs=1e-12), name
    assert got.truncation_warning.tolist() == want.truncation_warning.tolist()
    assert max(abs(getattr(want, name)[-1]) for name in MOMENTS[1:]) > 1e-2


# --- exact and Fock engines on random problems --------------------------------


def signed_coupling(draw, sigma):
    """A coupling of either sign with |K| / sigma in [0.001, 0.1]."""
    return draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.001, 0.1)) * sigma


def random_pointer(draw, hbar):
    return GaussianPointer(draw(st.floats(0.5, 2.0)), hbar)


@st.composite
def single_cross_problem(draw):
    """Random Hermitian A (d <= 5), states with |<f|i>| >= 0.3 and a
    signed coupling with |K| / sigma <= 0.1."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = Observable(random_hermitian(rng, d))
    i, f = pre_post_states(rng, d)
    pointer = random_pointer(draw, draw(st.sampled_from([1.0, 2.0])))
    return i, f, SingleCoupling(a, signed_coupling(draw, pointer.sigma), pointer)


@st.composite
def commuting_cross_problem(draw):
    """Commuting A and B = g(A) (2 <= d <= 5), states with
    |<f|i>| >= 0.3 and signed couplings with |K| / sigma <= 0.1. A has
    spectral radius 1 and its top two eigenvalues are degenerate or sit
    0.9e-10 or 1.1e-10 apart, where a common-eigenbasis solver has to
    decide whether to merge them."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = draw(st.sampled_from([0.0, 0.9e-10, 1.1e-10]))
    vals = np.concatenate([[1.0, 1.0 - gap], rng.uniform(-0.99, 0.99, d - 2)])
    vecs, _ = np.linalg.qr(complex_normal(rng, d, d))
    a = vecs @ np.diag(vals) @ vecs.conj().T
    b = commuting_partner(vals, vecs)
    i, f = pre_post_states(rng, d)
    hbar = draw(st.sampled_from([1.0, 2.0]))
    px, py = random_pointer(draw, hbar), random_pointer(draw, hbar)
    jc = JointCoupling(
        A=Observable((a + a.conj().T) / 2), B=Observable(b),
        Kx=signed_coupling(draw, px.sigma), Ky=signed_coupling(draw, py.sigma),
        pointer_x=px, pointer_y=py,
    )
    return i, f, jc


def assert_engines_agree(exact, fock, tol=CROSS_VALIDATION_TOL):
    assert not fock.truncation_warning
    for name in MOMENTS:
        assert getattr(fock, name) == pytest.approx(getattr(exact, name), rel=0, abs=tol), name


@settings(max_examples=40, deadline=None)
@given(problem=single_cross_problem())
def test_fock_matches_exact_on_random_single_couplings(problem):
    i, f, c = problem
    assert_engines_agree(run_single_exact(i, f, c), run_fock(i, f, c, n_max=40))


@settings(max_examples=40, deadline=None)
@given(problem=commuting_cross_problem())
def test_fock_matches_exact_on_commuting_pairs_near_degenerate(problem):
    i, f, jc = problem
    exact, fock = run_joint_exact(i, f, jc), run_fock(i, f, jc, n_max=40)
    assert_engines_agree(exact, fock)
    # both engines sum the same branches, so they agree to rounding
    assert_engines_agree(exact, fock, tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    problem=single_cross_problem(),
    ky=st.floats(-1.0, 1.0),
    sigma_y=st.floats(0.5, 2.0),
    scales=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
)
def test_pair_with_identity_on_y_is_the_single_coupling(problem, ky, sigma_y, scales):
    """A pair whose y observable is the identity shifts every branch by
    t Ky on y, so the two-axis branch sum gives the one-axis moments on
    x, y_mean = t Ky, xy_mean = t Ky x_mean and zero y momenta, on the
    exact engines and on the Fock branch sum alike."""
    i, f, c = problem
    jc = JointCoupling(
        A=c.A, B=Observable.identity(c.A.dim), Kx=c.K, Ky=ky,
        pointer_x=c.pointer, pointer_y=GaussianPointer(sigma_y, c.pointer.hbar),
    )
    fock = functools.partial(run_fock, n_max=40, scales=scales)
    for single, joint in ((run_single_exact(i, f, c, scales=scales),
                           run_joint_exact(i, f, jc, scales=scales)),
                          (fock(i, f, c), fock(i, f, jc))):
        for name in ("ps_prob", "x_mean", "px_mean"):
            assert np.abs(getattr(joint, name) - getattr(single, name)).max() <= 1e-13, name
        assert np.abs(joint.y_mean - np.array(scales) * ky).max() <= 1e-13
        assert np.abs(joint.py_mean).max() <= 1e-13
        assert np.abs(joint.xy_mean - np.array(scales) * ky * single.x_mean).max() <= 1e-13
        assert np.abs(joint.x_py_mean).max() <= 1e-13


def with_eigenvector_phases(obs, rng):
    """A new Observable of obs's matrix whose stored eigendecomposition
    carries a random unit phase on each eigenvector column."""
    es = hermitian_eig(obs)
    phased = Observable(obs.matrix)
    phases = np.exp(2j * np.pi * rng.uniform(size=obs.dim))
    vars(phased)["_eigensystem"] = EigenSystem(es.eigenvalues, es.eigenvectors * phases)
    return phased


@settings(max_examples=40, deadline=None)
@given(problem=exactly_commuting_problem(), seed=st.integers(0, 2**32 - 1))
def test_moments_do_not_depend_on_eigenvector_phases(problem, seed):
    """Every branch amplitude takes each eigenvector together with its
    conjugate, so a unit phase on each eigenvector column of A and B
    moves no moment of any run_* engine beyond rounding."""
    i, f, jc = problem
    rng = np.random.default_rng(seed)
    phased = dataclasses.replace(
        jc, A=with_eigenvector_phases(jc.A, rng), B=with_eigenvector_phases(jc.B, rng)
    )
    fock = functools.partial(run_fock, n_max=40)
    for engine, single in ((run_single_exact, True), (run_joint_exact, False),
                           (fock, True), (fock, False)):
        want, got = (
            engine(i, f, SingleCoupling(c.A, c.Kx, c.pointer_x) if single else c)
            for c in (jc, phased)
        )
        for name in MOMENTS:
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-15, name


@pytest.mark.parametrize("axes", [1, 2])
def test_contraction_pins_its_index_order(axes):
    """``_contract`` and ``_populations`` on random non-Hermitian stacks
    equal the explicit sums over branch pairs. Every stack the engines
    build is Hermitian, and there a transposed index only conjugates a
    real form, so only such stacks tell the index order apart."""
    rng = np.random.default_rng(18)
    d, scales = 3, 2

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    mats = [rand(len(STACK_OPERATORS), scales, d, d) for _ in range(axes)]
    amp = rand(*(d,) * axes)

    def explicit(ops, diagonal=False):
        # conj(amp[k, l]) amp[k', l'] Mx[k, k'] My[l, l'], with l = l'
        # for the populations
        slices = [m[STACK_OPERATORS.index(op)] for m, op in zip(mats, ops)]
        total = np.zeros(scales, dtype=complex)
        for bra, ket in itertools.product(np.ndindex(amp.shape), repeat=2):
            if not diagonal or bra[-1] == ket[-1]:
                term = np.conj(amp[bra]) * amp[ket]
                for m, k, k2 in zip(slices, bra, ket):
                    term = term * m[:, k, k2]
                total += term
        return total

    forms = _contract(amp, mats)
    rows = {name: ops[:axes] for name, ops in MOMENT_OPERATORS.items() if set(ops[axes:]) <= {"1"}}
    assert forms.shape == (len(rows), scales)
    for (name, ops), form in zip(rows.items(), forms):
        np.testing.assert_allclose(form, explicit(ops), rtol=1e-13, atol=0, err_msg=name)
    populations = _populations(amp, mats)
    assert populations.shape == (axes, scales)
    for axis, population in enumerate(populations):
        ops = ["top" if other == axis else "1" for other in range(axes)]
        np.testing.assert_allclose(population, explicit(ops, diagonal=True), rtol=1e-13, atol=0)


# --- the single-coupling batches a joint call returns -----------------------------


def hardy_pair(kx, ky, sigma_y):
    hardy = build_hardy()
    return hardy.i, hardy.f, JointCoupling(
        A=hardy.observable("N_Oe"), B=hardy.observable("N_NOp"), Kx=kx, Ky=ky,
        pointer_x=unit_pointer(), pointer_y=GaussianPointer(sigma_y),
    )


def noncommuting_pair(kx, ky, sigma_y):
    a, b, i, f = _noncommuting_qubit()
    return i, f, JointCoupling(
        A=a, B=b, Kx=kx, Ky=ky, pointer_x=unit_pointer(), pointer_y=GaussianPointer(sigma_y),
    )


#: (engine, path, problem): exact and commuting Fock pairs take the
#: branch sum, the noncommuting qubit the block engine; the last case of
#: each Fock path truncates, so its rows are flagged and warn.
SINGLES_CASES = {
    "exact-equal": ("exact", "branch", hardy_pair(0.01, 0.01, 1.0) + (None,)),
    "exact-unequal": ("exact", "branch", hardy_pair(0.05, -0.02, 0.6) + (None,)),
    "fock-commuting": ("fock", "branch", hardy_pair(0.05, -0.02, 0.6) + (40,)),
    "fock-commuting-truncated": ("fock", "branch", hardy_pair(2.0, 1.5, 0.8) + (6,)),
    "fock-block": ("fock", "block", noncommuting_pair(0.05, -0.02, 0.6) + (40,)),
    "fock-block-truncated": ("fock", "block", noncommuting_pair(2.0, -1.5, 0.7) + (4,)),
}


def caught_warnings(call):
    """call()'s result and the messages and files of every warning it
    issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(str(w.message), w.filename) for w in caught]


@pytest.mark.parametrize("scales", [None, [0.1, 1.0, 3.0]], ids=["one-row", "scales"])
@pytest.mark.parametrize("case", SINGLES_CASES, ids=list(SINGLES_CASES))
def test_singles_returned_with_the_pair_are_the_single_runs(case, scales):
    """``with_singles=True`` returns the pair's batch and each axis's
    single-coupling batch bit for bit as separate calls give them, every
    column and the engine tag, with the same truncation warnings in the
    order pair, A, B, each naming its coupled axes and pointing at the
    caller."""
    engine, path, (i, f, c, n_max) = SINGLES_CASES[case]
    assert (commutator_norm(c.A, c.B) == 0.0) == (path == "branch")
    if engine == "exact":
        joint, single = run_joint_exact, run_single_exact
    else:
        joint = single = functools.partial(run_fock, n_max=n_max)

    (pair, alone), got_warnings = caught_warnings(
        lambda: joint(i, f, c, scales=scales, with_singles=True)
    )

    want, want_warnings = caught_warnings(lambda: [joint(i, f, c, scales=scales)])
    for A, K, p, flag in c.axes:
        # a separate single coupling is on the x axis, so its warnings
        # name kx; the pair's single of B names ky
        batch, caught = caught_warnings(
            lambda: single(i, f, SingleCoupling(A, K, p), scales=scales))
        want.append(batch)
        want_warnings += [(message.replace("coupling kx alone", f"coupling {flag} alone"), name)
                          for message, name in caught]
    assert len(alone) == 2
    for got, ref in zip((pair, *alone), want):
        for name in COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got.engine_tag == ref.engine_tag
    assert got_warnings == want_warnings
    assert {filename for _, filename in got_warnings} <= {__file__}
    if case.endswith("truncated"):
        assert got_warnings and all(b.truncation_warning.any() for b in (pair, *alone))


@pytest.mark.parametrize("engine", [run_joint_exact, run_fock])
def test_singles_need_a_joint_coupling(engine):
    c = SingleCoupling(A=SIGMA_Z, K=0.1, pointer=unit_pointer())
    with pytest.raises(TypeError, match="with_singles"):
        engine(PLUS_X, PLUS_X, c, with_singles=True)


# --- coupling validation ---------------------------------------------------------


def test_joint_coupling_validates_dims():
    with pytest.raises(DimensionMismatch):
        JointCoupling(
            A=Observable.identity(2), B=Observable.identity(3), Kx=0.1, Ky=0.1,
            pointer_x=unit_pointer(), pointer_y=unit_pointer(),
        )
    # and both coupling classes their couplings and hbar
    a = Observable.identity(2)
    for build, match in [
        (lambda: SingleCoupling(A=a, K=math.nan, pointer=unit_pointer()),
         "coupling K must be finite, got nan"),
        (lambda: JointCoupling(a, a, 0.1, -math.inf, unit_pointer(), unit_pointer()),
         "couplings Kx, Ky must be finite"),
        (lambda: JointCoupling(a, a, 0.1, 0.1, unit_pointer(), GaussianPointer(1.0, 2.0)),
         "one hbar convention, got 1.0 and 2.0"),
    ]:
        with pytest.raises(ValueError, match=match):
            build()
