"""Linear-algebra primitives: eigendecompositions, the commuting-pair
eigensystems of the exact joint engine's branch sum, commutators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab.errors import DimensionMismatch, NotCommuting, NotHermitian, ZeroState
from weaklab.qcore import (
    COMMUTING_TOL,
    Observable,
    QuantumState,
    commutator_norm,
    hermitian_eig,
    max_norm,
    simultaneous_eig,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_state(dim, rng):
    return QuantumState(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


# --- types -------------------------------------------------------------------


def test_state_normalizes_on_construction():
    s = QuantumState(np.array([3.0, 4.0]))
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert s.dim == 2
    assert s.amplitudes[0] == pytest.approx(0.6)


def test_zero_state_rejected():
    with pytest.raises(ZeroState):
        QuantumState(np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_rejected(bad):
    with pytest.raises(ValueError, match="amplitude 1 is"):
        QuantumState(np.array([1.0, bad]))


def test_state_inner_product():
    a = QuantumState(np.array([1, 0]))
    b = QuantumState(np.array([1, 1j]))
    assert a.inner(b) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(DimensionMismatch):
        a.inner(QuantumState(np.ones(3)))


def test_observable_rejects_non_hermitian():
    with pytest.raises(NotHermitian, match=r"entry \(0, 1\): \(1\+0j\) vs conjugate-transpose -?0j"):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.inf)])
def test_observable_rejects_non_finite_entry(bad):
    m = np.array([[1, 0], [0, 0]], dtype=complex)
    m[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"entry \(1, 1\) is .*, not finite"):
            Observable(m)


def test_observable_expectation():
    """<psi|A|psi> read from the matrix equals the spectral sum
    sum_k a_k |<v_k|psi>|^2 over the stored eigensystem."""

    def spectral(a, psi):
        es = hermitian_eig(a)
        weights = np.abs(es.eigenvectors.conj().T @ psi.amplitudes) ** 2
        return float(es.eigenvalues @ weights)

    plus = QuantumState(np.array([1, 1]) / np.sqrt(2))
    assert spectral(Observable(SIGMA_X), plus) == pytest.approx(1.0)
    assert spectral(Observable(SIGMA_Z), plus) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = Observable(random_hermitian(4, rng))
        psi = QuantumState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        direct = np.vdot(psi.amplitudes, a.matrix @ psi.amplitudes)
        assert direct.imag == pytest.approx(0.0, abs=1e-14)
        assert spectral(a, psi) == pytest.approx(direct.real, abs=1e-13)


# --- hermitian_eig -----------------------------------------------------------


def test_eig_sigma_z():
    es = hermitian_eig(Observable(SIGMA_Z))
    assert np.allclose(es.eigenvalues, [-1, 1])


def test_eig_identity():
    es = hermitian_eig(Observable.identity(3))
    assert np.allclose(es.eigenvalues, [1, 1, 1])


def test_eig_sigma_x_vectors_up_to_phase():
    es = hermitian_eig(Observable(SIGMA_X))
    minus, plus = es.eigenvectors[:, 0], es.eigenvectors[:, 1]
    # |overlap| with (|0> -+ |1>)/sqrt(2) must be 1
    assert abs(np.vdot(minus, np.array([1, -1]) / np.sqrt(2))) == pytest.approx(1.0)
    assert abs(np.vdot(plus, np.array([1, 1]) / np.sqrt(2))) == pytest.approx(1.0)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 5, 8, 16):
        for _ in range(5):
            m = random_hermitian(dim, rng)
            es = hermitian_eig(Observable(m))
            rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
            assert max_norm(rebuilt - m) <= 1e-10 * max_norm(m)
            gram = es.eigenvectors.conj().T @ es.eigenvectors
            assert max_norm(gram - np.eye(dim)) <= 1e-12
            assert np.all(np.diff(es.eigenvalues) >= 0)


def test_eig_is_computed_once_per_observable_and_read_only():
    a = Observable(SIGMA_X)
    es = hermitian_eig(a)
    assert hermitian_eig(a) is es
    for array in (es.eigenvalues, es.eigenvectors):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    # an equal matrix in a new Observable gets its own, identical result
    again = hermitian_eig(Observable(SIGMA_X))
    assert again is not es
    assert np.array_equal(again.eigenvectors, es.eigenvectors)


def test_spectral_radius_is_computed_once_per_observable(monkeypatch):
    """The spectral radius comes from the one stored ``eigh``, which it
    shares with ``hermitian_eig``."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    a = Observable(3.0 * SIGMA_Z)
    assert a.spectral_radius() == a.spectral_radius() == 3.0
    assert Observable(-3.0 * SIGMA_X).spectral_radius() == 3.0
    hermitian_eig(a)
    assert len(calls) == 2


# --- simultaneous_eig --------------------------------------------------------


def assert_same_eigensystem(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


def test_joint_eig_product_observables():
    a = Observable(np.kron(SIGMA_Z, np.eye(2)))
    b = Observable(np.kron(np.eye(2), SIGMA_Z))
    ea, eb = simultaneous_eig(a, b)
    # the branches (a_k, b_l) with nonzero overlap <b_l|a_k> are the
    # four joint eigenvalue pairs
    overlap = np.abs(eb.eigenvectors.conj().T @ ea.eigenvectors)
    pairs = sorted(
        (float(ea.eigenvalues[k]), float(eb.eigenvalues[l]))
        for l, k in zip(*np.nonzero(overlap > 1e-12))
    )
    assert pairs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_joint_eig_returns_each_observables_own_eigensystem():
    rng = np.random.default_rng(9)
    for dim in (3, 4, 6):
        # commuting pair with degeneracies: shared eigenbasis, repeated values
        m = random_hermitian(dim, rng)
        _, basis = np.linalg.eigh(m)
        da = rng.integers(-2, 3, size=dim).astype(float)
        db = rng.integers(-2, 3, size=dim).astype(float)
        a = Observable((basis * da) @ basis.conj().T)
        b = Observable((basis * db) @ basis.conj().T)
        ea, eb = simultaneous_eig(a, b)
        assert_same_eigensystem(ea, hermitian_eig(a))
        assert_same_eigensystem(eb, hermitian_eig(b))


def test_joint_eig_accepts_pair_commuting_within_tol():
    # [A, B] has max-norm 2 eps for this A, B and |A| = |B| = 1: a pair
    # just inside COMMUTING_TOL is accepted and one just outside refused
    a = Observable(SIGMA_Z)
    for eps, accepted in ((0.45 * COMMUTING_TOL, True), (0.55 * COMMUTING_TOL, False)):
        b = Observable(np.array([[1, eps], [eps, -1]], dtype=complex))
        assert commutator_norm(a, b) == pytest.approx(2 * eps)
        if accepted:
            ea, eb = simultaneous_eig(a, b)
            assert_same_eigensystem(ea, hermitian_eig(a))
            assert_same_eigensystem(eb, hermitian_eig(b))
        else:
            with pytest.raises(NotCommuting, match="exceeds tol"):
                simultaneous_eig(a, b)


def test_joint_eig_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        simultaneous_eig(Observable(SIGMA_X), Observable(SIGMA_Z))


# --- commutator_norm ---------------------------------------------------------


def test_commutator_self_is_zero():
    assert commutator_norm(Observable(SIGMA_Z), Observable(SIGMA_Z)) == 0.0


def test_commutator_pauli_pair():
    # [sigma_x, sigma_z] = -2i sigma_y, whose largest entry is 2
    assert commutator_norm(Observable(SIGMA_X), Observable(SIGMA_Z)) == pytest.approx(2.0)


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        commutator_norm(Observable.identity(2), Observable.identity(3))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_commutator_disjoint_subsystems(seed):
    rng = np.random.default_rng(seed)
    a = Observable(random_hermitian(2, rng))
    b = Observable(random_hermitian(3, rng))
    lifted_a = Observable(np.kron(a.matrix, np.eye(3)))
    lifted_b = Observable(np.kron(np.eye(2), b.matrix))
    assert commutator_norm(lifted_a, lifted_b) <= 1e-14
