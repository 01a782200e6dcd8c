"""Acceptance suite: every release criterion at its stated tolerance,
one pass/fail line per criterion (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from weaklab.cli import fit_error_order, main
from weaklab.engines import (
    JointCoupling,
    SingleCoupling,
    heisenberg_moment,
    run_fock,
    run_joint_exact,
    run_single_exact,
)
from weaklab.pointer import GaussianPointer, build_fock
from weaklab.qcore import Observable, QuantumState
from weaklab.scenarios import build_hardy, build_imaginary, build_spin_amplifier, build_three_box
from weaklab.weakvalues import (
    direct_joint_weak_value,
    direct_weak_value,
    extract_joint,
    extract_single,
)

MOMENTS = ("ps_prob", "x_mean", "px_mean", "y_mean", "py_mean", "xy_mean", "x_py_mean")


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def extracted_single(scn, label, k=0.01, sigma=1.0, engine=run_single_exact, n_max=None):
    c = SingleCoupling(A=scn.observable(label), K=k, pointer=GaussianPointer(sigma))
    if n_max is None:
        batch = engine(scn.i, scn.f, c)
    else:
        batch = engine(scn.i, scn.f, c, n_max=n_max)
    return extract_single(batch)[0]


def extracted_joint(scn, la, lb, k=0.01, sigma=1.0, fock=False, n_max=40):
    jc = JointCoupling(
        A=scn.observable(la), B=scn.observable(lb), Kx=k, Ky=k,
        pointer_x=GaussianPointer(sigma), pointer_y=GaussianPointer(sigma),
    )
    if fock:
        batch = run_fock(scn.i, scn.f, jc, n_max=n_max)
        a = extracted_single(scn, la, k, sigma, engine=run_fock, n_max=n_max)
        b = extracted_single(scn, lb, k, sigma, engine=run_fock, n_max=n_max)
    else:
        batch = run_joint_exact(scn.i, scn.f, jc)
        a = extracted_single(scn, la, k, sigma)
        b = extracted_single(scn, lb, k, sigma)
    return extract_joint(batch, (a, b))[0]


def test_criterion_1_pointer_integrals():
    t0 = time.perf_counter()
    worst = 0.0
    for sigma, hbar in ((1.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
        fock = build_fock(GaussianPointer(sigma, hbar), n_max=2)
        worst = max(
            worst,
            abs((fock.P @ fock.X)[0, 0] + 1j * hbar / 2),
            abs((fock.X @ fock.P)[0, 0] - 1j * hbar / 2),
        )
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 0.1,
        f"vacuum <PX>, <XP> deviation {worst:.2e} (budget 1e-12), {elapsed:.3f} s (budget 0.1 s)",
    )


def test_criterion_2_three_box_extraction():
    t0 = time.perf_counter()
    scn = build_three_box()
    want = {"P1": 1.0, "P2": 1.0, "P3": -1.0}
    got = {label: extracted_single(scn, label) for label in want}
    worst = max(abs(got[label] - want[label]) for label in want)
    unclamped = got["P3"].real < -0.99  # reported outside [0, 1], no clamping
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst <= 1e-3 and unclamped and elapsed < 1.0,
        f"three-box extracted ({got['P1'].real:+.4f}, {got['P2'].real:+.4f}, "
        f"{got['P3'].real:+.4f}), max err {worst:.2e} (budget 1e-3), {elapsed:.3f} s",
    )


def test_criterion_3_imaginary_part_and_sigma_scaling():
    scn = build_imaginary()
    value = extracted_single(scn, "sigma_z")
    err = abs(value - 1j)
    px = {}
    for sigma in (1.0, 2.0):
        c = SingleCoupling(A=scn.observable("sigma_z"), K=0.01, pointer=GaussianPointer(sigma))
        px[sigma] = run_single_exact(scn.i, scn.f, c).px_mean[0]
    ratio = px[2.0] / px[1.0]
    report(
        3,
        err <= 1e-3 and abs(ratio - 0.25) <= 0.05 * 0.25,
        f"extracted {value.real:+.2e}{value.imag:+.6f}i, err {err:.2e} (budget 1e-3); "
        f"px ratio on sigma doubling {ratio:.6f} (want 0.25 +-5%)",
    )


def test_criterion_4_hardy_joint_extraction():
    t0 = time.perf_counter()
    scn = build_hardy()
    want = {
        ("N_Oe", "N_Op"): 0.0,
        ("N_Oe", "N_NOp"): 1.0,
        ("N_NOe", "N_Op"): 1.0,
        ("N_NOe", "N_NOp"): -1.0,
    }
    errs = {
        pair: abs(extracted_joint(scn, *pair) - target) for pair, target in want.items()
    }
    worst = max(errs.values())
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst <= 1e-3 and elapsed < 5.0,
        f"hardy joints max err {worst:.2e} (budget 1e-3), {elapsed:.3f} s (budget 5 s)",
    )


def test_criterion_5_noncommuting_fock():
    t0 = time.perf_counter()
    sx = Observable(np.array([[0, 1], [1, 0]], dtype=complex))
    sz = Observable(np.diag([1.0, -1.0]).astype(complex))
    i = QuantumState(np.array([1, 1]) / math.sqrt(2))
    f = QuantumState(np.array([math.cos(0.3), math.sin(0.3)]))
    k = 0.01
    jc = JointCoupling(
        A=sx, B=sz, Kx=k, Ky=k,
        pointer_x=GaussianPointer(1.0), pointer_y=GaussianPointer(1.0),
    )
    batch = run_fock(i, f, jc, n_max=40)
    singles = []
    for obs in (sx, sz):
        c = SingleCoupling(A=obs, K=k, pointer=GaussianPointer(1.0))
        singles.append(extract_single(run_fock(i, f, c, n_max=40))[0])
    got = extract_joint(batch, tuple(singles))[0]
    want = direct_joint_weak_value(sx, sz, i, f)
    err = abs(got - want)
    elapsed = time.perf_counter() - t0
    report(
        5,
        err <= 1e-3 and elapsed < 30.0,
        f"symmetrized sigma_x sigma_z extracted {got.real:+.2e}{got.imag:+.2e}i vs "
        f"direct {want.real:+.2e}, err {err:.2e} (budget 1e-3), {elapsed:.3f} s (budget 30 s)",
    )


def test_criterion_6_series_structure():
    scn = build_hardy()
    jc = JointCoupling(
        A=scn.observable("N_Oe"), B=scn.observable("N_Op"), Kx=0.01, Ky=0.01,
        pointer_x=GaussianPointer(1.0), pointer_y=GaussianPointer(1.0),
    )
    terms = heisenberg_moment(scn.i, scn.f, jc, "O_xy", order=3)
    a, b = jc.A.matrix, jc.B.matrix
    fi = complex(np.vdot(scn.f.amplitudes, scn.i.amplitudes))
    closed = (
        0.5 * jc.Kx * jc.Ky * (
            np.conj(fi) * np.vdot(scn.f.amplitudes, (a @ b + b @ a) / 2 @ scn.i.amplitudes)
            + np.vdot(scn.i.amplitudes, a @ scn.f.amplitudes)
            * np.vdot(scn.f.amplitudes, b @ scn.i.amplitudes)
        ).real
    )
    dev1, dev3 = abs(terms[1]), abs(terms[3])
    dev2 = abs(terms[2] - closed)
    report(
        6,
        dev1 <= 1e-12 and dev3 <= 1e-12 and dev2 <= 1e-12,
        f"order-1 {dev1:.2e}, order-3 {dev3:.2e}, order-2 vs closed form {dev2:.2e} "
        "(budgets 1e-12)",
    )


def test_criterion_7_convergence_order():
    ks = np.geomspace(1e-3, 1e-1, 12)
    slopes = {}

    scn = build_three_box()
    errs = [abs(extracted_single(scn, "P3", k=float(k)) - (-1.0)) for k in ks]
    slopes["three-box P3"] = fit_error_order(ks, errs)

    hardy = build_hardy()
    errs = [
        abs(extracted_joint(hardy, "N_NOe", "N_NOp", k=float(k)) - (-1.0)) for k in ks
    ]
    slopes["hardy N_NOe*N_NOp"] = fit_error_order(ks, errs)

    ok = all(s >= 1.7 for s in slopes.values())
    detail = ", ".join(f"{name} slope {s:.3f}" for name, s in slopes.items())
    report(7, ok, f"{detail} (budget >= 1.7)")


def test_criterion_8_engine_cross_validation():
    k, n_max = 0.05, 40
    worst, worst_case = 0.0, ""

    def compare(b1, b2, tag):
        nonlocal worst, worst_case
        d = max(abs(getattr(b1, m)[0] - getattr(b2, m)[0]) for m in MOMENTS)
        if d > worst:
            worst, worst_case = d, tag

    for scn, labels in (
        (build_three_box(), ("P1", "P2", "P3")),
        (build_imaginary(), ("sigma_z",)),
        (build_spin_amplifier(0.2), ("sigma_z",)),
        (build_hardy(), ("N_Oe", "N_NOe", "N_Op", "N_NOp")),
    ):
        for label in labels:
            c = SingleCoupling(A=scn.observable(label), K=k, pointer=GaussianPointer(1.0))
            compare(
                run_single_exact(scn.i, scn.f, c),
                run_fock(scn.i, scn.f, c, n_max=n_max),
                f"{scn.name}:{label}",
            )
    hardy = build_hardy()
    for la, lb in (
        ("N_Oe", "N_Op"), ("N_Oe", "N_NOp"), ("N_NOe", "N_Op"), ("N_NOe", "N_NOp")
    ):
        jc = JointCoupling(
            A=hardy.observable(la), B=hardy.observable(lb), Kx=k, Ky=k,
            pointer_x=GaussianPointer(1.0), pointer_y=GaussianPointer(1.0),
        )
        compare(
            run_joint_exact(hardy.i, hardy.f, jc),
            run_fock(hardy.i, hardy.f, jc, n_max=n_max),
            f"hardy:{la}x{lb}",
        )
    report(
        8,
        worst <= 1e-6,
        f"max moment deviation {worst:.2e} at {worst_case} (budget 1e-6)",
    )


def test_criterion_9_validate_command(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    ok = code == 0 and lines and all(line.startswith("PASS") for line in lines)
    with capsys.disabled():
        report(9, ok, f"weaklab validate exit {code}, {len(lines)} checks all PASS")
