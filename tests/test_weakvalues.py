"""Direct weak-value evaluation and recovery from pointer moments."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weaklab.engines import JointCoupling, SingleCoupling, run_fock, run_joint_exact, run_single_exact
from weaklab.errors import OrthogonalPostselection, ZeroCoupling
from weaklab.pointer import GaussianPointer
from weaklab.qcore import Observable, QuantumState
from weaklab.scenarios import build_hardy, build_imaginary, build_spin_amplifier, build_three_box
from weaklab.weakvalues import (
    direct_joint_weak_value,
    direct_weak_value,
    extract_joint,
    extract_single,
)

SIGMA_X = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Z = Observable(np.diag([1.0, -1.0]).astype(complex))


def unit_pointer():
    return GaussianPointer(1.0)


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


# --- direct evaluation --------------------------------------------------------


def test_direct_reduces_to_expectation_without_postselection():
    rng = np.random.default_rng(2)
    a = Observable(random_hermitian(3, rng))
    i = QuantumState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    w = direct_weak_value(a, i, i)
    assert w.imag == pytest.approx(0.0, abs=1e-14)
    expectation = np.vdot(i.amplitudes, a.matrix @ i.amplitudes).real
    assert w.real == pytest.approx(expectation, abs=1e-14)


def test_direct_three_box_values():
    scn = build_three_box()
    got = [direct_weak_value(scn.observable(f"P{k}"), scn.i, scn.f) for k in (1, 2, 3)]
    assert got[0] == pytest.approx(1.0, abs=1e-14)
    assert got[1] == pytest.approx(1.0, abs=1e-14)
    assert got[2] == pytest.approx(-1.0, abs=1e-14)


def test_direct_purely_imaginary_spin():
    scn = build_imaginary()
    w = direct_weak_value(scn.observable("sigma_z"), scn.i, scn.f)
    assert w == pytest.approx(1j, abs=1e-15)


def test_direct_orthogonal_raises():
    with pytest.raises(OrthogonalPostselection):
        direct_weak_value(SIGMA_Z, QuantumState.basis(2, 0), QuantumState.basis(2, 1))


def test_direct_joint_identity_reduces_to_single():
    scn = build_three_box()
    a = scn.observable("P3")
    assert direct_joint_weak_value(a, Observable.identity(3), scn.i, scn.f) == pytest.approx(
        direct_weak_value(a, scn.i, scn.f), abs=1e-14
    )


def test_direct_joint_hardy_pattern():
    scn = build_hardy()
    pairs = {
        ("N_Oe", "N_Op"): 0.0,
        ("N_Oe", "N_NOp"): 1.0,
        ("N_NOe", "N_Op"): 1.0,
        ("N_NOe", "N_NOp"): -1.0,
    }
    for (la, lb), want in pairs.items():
        got = direct_joint_weak_value(
            scn.observable(la), scn.observable(lb), scn.i, scn.f
        )
        assert got == pytest.approx(want, abs=1e-14)


def test_direct_joint_idempotent_projector():
    rng = np.random.default_rng(8)
    proj = np.zeros((3, 3), dtype=complex)
    proj[1, 1] = 1.0
    p = Observable(proj)
    i = QuantumState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    f = QuantumState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    want = complex(np.vdot(f.amplitudes, proj @ i.amplitudes)) / f.inner(i)
    assert direct_joint_weak_value(p, p, i, f) == pytest.approx(want, abs=1e-14)


@given(
    alpha=st.floats(-5, 5, allow_nan=False),
    beta=st.floats(-5, 5, allow_nan=False),
)
def test_direct_linearity(alpha, beta):
    rng = np.random.default_rng(4)
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    i = QuantumState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    f = QuantumState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    combined = direct_weak_value(Observable(alpha * a + beta * b), i, f)
    separate = alpha * direct_weak_value(Observable(a), i, f) + beta * direct_weak_value(
        Observable(b), i, f
    )
    assert combined == pytest.approx(separate, abs=1e-12 * (1 + abs(separate)))


def test_direct_projector_completeness():
    scn = build_three_box()
    total = sum(
        direct_weak_value(scn.observable(f"P{k}"), scn.i, scn.f) for k in (1, 2, 3)
    )
    assert total == pytest.approx(1.0, abs=1e-14)
    # random complete projector set on dim 4
    rng = np.random.default_rng(12)
    basis = np.linalg.eigh(random_hermitian(4, rng))[1]
    i = QuantumState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    f = QuantumState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    total = sum(
        direct_weak_value(Observable(np.outer(basis[:, k], basis[:, k].conj())), i, f)
        for k in range(4)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_direct_values_bitwise_stable():
    scn = build_three_box()
    a = scn.observable("P3")
    first = direct_weak_value(a, scn.i, scn.f)
    again = direct_weak_value(build_three_box().observable("P3"), scn.i, scn.f)
    assert first == again  # bitwise: same inputs, same arithmetic


# --- single extraction ----------------------------------------------------------


def test_extract_single_identity_run():
    i = QuantumState(np.array([0.3, 0.9, 0.1]))
    f = QuantumState(np.array([0.5, -0.2, 0.7]))
    c = SingleCoupling(A=Observable.identity(3), K=0.25, pointer=unit_pointer())
    est = extract_single(run_single_exact(i, f, c))
    assert est.real == pytest.approx(1.0, abs=1e-12)
    assert est.imag == pytest.approx(0.0, abs=1e-12)
    assert est.dtype == complex and est.shape == (1,)


def test_extract_single_three_box_negative_probability():
    scn = build_three_box()
    c = SingleCoupling(A=scn.observable("P3"), K=0.01, pointer=unit_pointer())
    est = extract_single(run_single_exact(scn.i, scn.f, c))
    # outside [0, 1] and must be reported unclamped
    assert est.real == pytest.approx(-1.0, abs=1e-3)
    assert est.real < 0


def test_extract_single_imaginary_scenario():
    scn = build_imaginary()
    c = SingleCoupling(A=scn.observable("sigma_z"), K=0.01, pointer=unit_pointer())
    est = extract_single(run_single_exact(scn.i, scn.f, c))
    assert abs(est - 1j) <= 1e-3


def test_extract_single_zero_coupling():
    i, f = QuantumState(np.array([1, 1]) / math.sqrt(2)), QuantumState.basis(2, 0)
    # below sys.float_info.min / EPS_PS, about 2.2e-296, the moments
    # leave the normal float range; a scaled row is named by t K
    for k, scales, named in [(0.0, None, "0"), (2.2e-296, None, "2.2e-296"),
                             (1e-307, None, "1e-307"), (-1e-320, None, "-1e-320"),
                             (1.0, [1.0, 1e-300], "1e-300")]:
        c = SingleCoupling(A=SIGMA_Z, K=k, pointer=unit_pointer())
        rec = run_single_exact(i, f, c, scales=scales)
        with pytest.raises(ZeroCoupling, match=f"weak value at K = {named}(,|$)"):
            extract_single(rec)
    # just above the bound the moments are normal floats and the
    # extraction is exact to rounding
    scn = build_three_box()
    a = scn.observable("P3")
    rec = run_single_exact(scn.i, scn.f, SingleCoupling(A=a, K=2.3e-296, pointer=unit_pointer()))
    assert abs(extract_single(rec)[0] - direct_weak_value(a, scn.i, scn.f)) <= 1e-15


# --- joint extraction -------------------------------------------------------------


def hardy_joint(la, lb, k=0.01):
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable(la), B=scn.observable(lb), Kx=k, Ky=k,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    rec = run_joint_exact(scn.i, scn.f, jc)
    singles = []
    for label, kk, ptr in ((la, jc.Kx, jc.pointer_x), (lb, jc.Ky, jc.pointer_y)):
        cs = SingleCoupling(A=scn.observable(label), K=kk, pointer=ptr)
        singles.append(extract_single(run_single_exact(scn.i, scn.f, cs)))
    return extract_joint(rec, tuple(singles)), scn


def test_extract_joint_identity_consistency():
    scn = build_three_box()
    a = scn.observable("P3")
    jc = JointCoupling(
        A=a, B=Observable.identity(3), Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    rec = run_joint_exact(scn.i, scn.f, jc)
    ca = SingleCoupling(A=a, K=0.01, pointer=unit_pointer())
    a_w = extract_single(run_single_exact(scn.i, scn.f, ca))
    est = extract_joint(rec, (a_w, 1.0 + 0j))
    assert abs(est - direct_weak_value(a, scn.i, scn.f)) <= 1e-3


def test_extract_joint_hardy_twin_negative():
    est, scn = hardy_joint("N_NOe", "N_NOp")
    assert est.real == pytest.approx(-1.0, abs=1e-3)
    assert est.imag == pytest.approx(0.0, abs=1e-3)
    assert est.dtype == complex and est.shape == (1,)


def test_extract_joint_hardy_full_pattern():
    for (la, lb), want in {
        ("N_Oe", "N_Op"): 0.0,
        ("N_Oe", "N_NOp"): 1.0,
        ("N_NOe", "N_Op"): 1.0,
        ("N_NOe", "N_NOp"): -1.0,
    }.items():
        est, _ = hardy_joint(la, lb)
        assert abs(est - want) <= 1e-3


def test_extract_joint_noncommuting_fock():
    i = QuantumState(np.array([1, 1]) / math.sqrt(2))
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    jc = JointCoupling(
        A=SIGMA_X, B=SIGMA_Z, Kx=0.01, Ky=0.01,
        pointer_x=unit_pointer(), pointer_y=unit_pointer(),
    )
    rec = run_fock(i, f, jc, n_max=40)
    singles = []
    for obs, kk in ((SIGMA_X, jc.Kx), (SIGMA_Z, jc.Ky)):
        cs = SingleCoupling(A=obs, K=kk, pointer=unit_pointer())
        singles.append(extract_single(run_fock(i, f, cs, n_max=40)))
    est = extract_joint(rec, tuple(singles))
    want = direct_joint_weak_value(SIGMA_X, SIGMA_Z, i, f)
    assert abs(est - want) <= 1e-3


def test_extract_joint_zero_coupling():
    scn = build_hardy()
    for kx, ky, named in [(0.0, 0.01, "0"), (1e-160, 1e-160, "1e-320"),
                          (1e-150, -1e-150, "-1e-300"), (1.0, 1e-300, "1e-300")]:
        jc = JointCoupling(
            A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=kx, Ky=ky,
            pointer_x=unit_pointer(), pointer_y=unit_pointer(),
        )
        rec = run_joint_exact(scn.i, scn.f, jc)
        with pytest.raises(ZeroCoupling, match=f"joint weak value at Kx\\*Ky = {named}(,|$)"):
            extract_joint(rec, (1.0 + 0j, 1.0 + 0j))


# --- convergence of extraction ------------------------------------------------------


def test_extraction_converges_second_order():
    for scn, label in ((build_three_box(), "P3"), (build_spin_amplifier(0.5), "sigma_z")):
        a = scn.observable(label)
        want = direct_weak_value(a, scn.i, scn.f)
        ks = np.geomspace(1e-3, 1e-1, 12)
        errs = []
        for k in ks:
            c = SingleCoupling(A=a, K=float(k), pointer=unit_pointer())
            est = extract_single(run_single_exact(scn.i, scn.f, c))
            errs.append(abs(est - want))
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3


def test_joint_extraction_converges_on_complex_values():
    # random commuting pairs with genuinely complex joint weak values
    # exercise both the correlation and the x-momentum extraction terms
    rng = np.random.default_rng(123)
    for _ in range(4):
        basis = np.linalg.eigh(random_hermitian(4, rng))[1]
        a = Observable((basis * rng.uniform(-1, 1, 4)) @ basis.conj().T)
        b = Observable((basis * rng.uniform(-1, 1, 4)) @ basis.conj().T)
        i = QuantumState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f = QuantumState(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        want = direct_joint_weak_value(a, b, i, f)
        a_w = direct_weak_value(a, i, f)
        b_w = direct_weak_value(b, i, f)
        ks = np.geomspace(1e-3, 1e-2, 6)
        errs = []
        for k in ks:
            jc = JointCoupling(
                A=a, B=b, Kx=float(k), Ky=float(k),
                pointer_x=unit_pointer(), pointer_y=unit_pointer(),
            )
            est = extract_joint(run_joint_exact(i, f, jc), (a_w, b_w))
            errs.append(abs(est - want))
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3
        assert errs[0] <= 1e-4
