"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output on failure).  Run as::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

import symplectomo as sy
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.kernels import KernelScale
from symplectomo.marginals import QuadratureSetting, circle_settings, marginal_analytic, marginal_numeric, tabulate_tomogram
from symplectomo.reconstruct import (
    PolarGrid,
    ReconstructionConfig,
    fidelity,
    reconstruct_from_samples,
    reconstruct_from_tomogram,
    reconstruct_homodyne,
    wigner_from_tomogram,
)

from oracles import kernel_number, wigner_moment_numeric

RNG_SEED = 20240811


def report(num, ok, detail):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def thermal_tomogram():
    return tabulate_tomogram(st.Thermal(0.5), circle_settings(32), num=1201)


@pytest.fixture(scope="module")
def thermal_rec_z1(thermal_tomogram):
    cfg = ReconstructionConfig(scale=KernelScale(1.0), dim=12)
    return reconstruct_from_tomogram(thermal_tomogram, cfg)


def test_criterion_01_vacuum_reconstruction():
    started = time.monotonic()
    tomo = tabulate_tomogram(st.Vacuum(), circle_settings(32))
    rep = reconstruct_from_tomogram(tomo, ReconstructionConfig(scale=KernelScale(1.0), dim=6))
    pairs = [
        (0.0, 0.0),
        (0.5, 0.5),
        (1.0, 0.0),
        (0.0, 1j),
        (0.7j, 0.7),
        (-0.6, 0.8j),
        (0.3 + 0.4j, 0.3 - 0.4j),
        (1.0, 1.0),
        (0.9j, -0.9j),
    ]
    worst = max(
        abs(rep.rho.coherent_element(a, b) - np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2)) for a, b in pairs
    )
    elapsed = time.monotonic() - started
    report(
        1,
        worst < 1e-3 and elapsed < 30.0,
        f"vacuum coherent elements worst {worst:.2e} (tol 1e-3), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_cat_reconstruction():
    started = time.monotonic()
    a = b = 1.0
    tomo = tabulate_tomogram(st.EvenCat(a, b), circle_settings(64))
    cfg = ReconstructionConfig(scale=KernelScale(1.0), dim=14, grid=PolarGrid(8.0, 96))
    rep = reconstruct_from_tomogram(tomo, cfg)

    A = a + 1j * b
    n2 = 2 * (1 + np.cos(2 * a * b) * np.exp(-2 * b**2))

    def overlap(x, y):
        return np.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + np.conj(x) * y)

    def expected(al, be):
        return (overlap(al, A) + overlap(al, np.conj(A))) * (overlap(A, be) + overlap(np.conj(A), be)) / n2

    pairs = [(0.5, 0.5), (0.3 + 0.4j, -0.2 + 0.1j), (1.0, 1j), (0.8, -0.6), (0.2j, 0.9), (1.0, 1.0)]
    worst = max(abs(rep.rho.coherent_element(al, be) - expected(al, be)) for al, be in pairs)
    elapsed = time.monotonic() - started
    report(
        2,
        worst < 1e-2 and elapsed < 120.0,
        f"cat coherent elements worst {worst:.2e} (tol 1e-2), runtime {elapsed:.1f}s (< 120s)",
    )


def test_criterion_03_thermal_reconstruction(thermal_rec_z1):
    lam = 0.5
    eta = (1 - lam) / (1 + lam)
    pairs = [(0.5, 0.5), (0.3 + 0.4j, -0.2), (1.0, 1j), (0.8, 0.9), (0.0, 0.0), (0.6j, -0.6j)]
    worst = max(
        abs(
            thermal_rec_z1.rho.coherent_element(al, be)
            - 2 * lam / (1 + lam) * np.exp(eta * np.conj(al) * be - abs(al) ** 2 / 2 - abs(be) ** 2 / 2)
        )
        for al, be in pairs
    )
    report(3, worst < 1e-3, f"thermal coherent elements worst {worst:.2e} (tol 1e-3)")


def test_criterion_04_z_invariance(thermal_tomogram, thermal_rec_z1):
    reps = {1.0: thermal_rec_z1}
    for z in (0.5, 2.0):
        reps[z] = reconstruct_from_tomogram(thermal_tomogram, ReconstructionConfig(scale=KernelScale(z), dim=12))
    fids = [
        fidelity(reps[za].rho, reps[zb].rho) for za, zb in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0))
    ]
    report(4, min(fids) >= 0.999, f"pairwise fidelities across z in (0.5, 1, 2): min {min(fids):.6f} (>= 0.999)")


def test_criterion_05_homodyne_equivalence(thermal_tomogram, thermal_rec_z1):
    rep_h = reconstruct_homodyne(thermal_tomogram, dim=12)
    fid = fidelity(rep_h.rho, thermal_rec_z1.rho)
    report(5, fid >= 0.995, f"homodyne vs symplectic (z=1) thermal fidelity {fid:.6f} (>= 0.995)")


def test_criterion_06_monte_carlo_estimator():
    # fidelity at N = 1e5 over 32 importance-drawn settings
    sched = sy.importance_schedule(32, KernelScale(1.0), seed=11)
    batches = sy.sample_campaign(st.Vacuum(), sched, 3125, seed=5)
    rep = reconstruct_from_samples(batches, ReconstructionConfig(dim=4))
    vac = np.diag([1.0, 0, 0, 0])
    fid = fidelity(rep.rho, vac)

    # central-limit scaling: with independent setting draws every error
    # component obeys the 1/sqrt(N) law, so doubling the campaign shrinks the
    # RMS Frobenius error by ~1/sqrt(2) over 10 trials
    def error(n_settings, trial):
        s = sy.importance_schedule(n_settings, KernelScale(1.0), seed=10 + trial, stratified=False)
        b = sy.sample_campaign(st.Vacuum(), s, 1250, seed=20 + trial)
        r = reconstruct_from_samples(b, ReconstructionConfig(dim=4))
        return np.linalg.norm(r.rho.entries - vac)

    e1 = np.sqrt(np.mean([error(16, t) ** 2 for t in range(10)]))
    e2 = np.sqrt(np.mean([error(32, t) ** 2 for t in range(10)]))
    ratio = e2 / e1
    ok = fid >= 0.99 and abs(ratio - 2**-0.5) <= 0.3 * 2**-0.5
    report(
        6,
        ok,
        f"MC fidelity {fid:.4f} (>= 0.99); RMS error ratio on doubling {ratio:.3f} "
        f"(1/sqrt2 = {2**-0.5:.3f} +- 30%), N = {rep.samples_used}",
    )


def test_criterion_07_two_mode_gaussian_marginal_variance():
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(20):
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        M = Q @ np.diag(rng.uniform(0.4, 1.6, 4)) @ Q.T
        state = st.GaussianTwoMode(M)
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        setting = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
        m0, m2 = wigner_moment_numeric(state, setting, power=(0, 2), extent=10.0, num=51)
        worst = max(worst, abs(m2 / m0 - float(u @ M @ u)))
    report(7, worst < 1e-6, f"analytic vs numeric variance over 20 random cases: worst {worst:.2e} (tol 1e-6)")


def test_criterion_08_two_mode_cat_reduction():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for b in (0.8, 1.3):
        # A purely imaginary: the reduced state is the one-mode conjugate-pair
        # cat with a = 0, which the one-mode numeric oracle evaluates directly
        A = np.array([1j * b, 0.0])
        state_1m = st.EvenCat(0.0, b)
        for _ in range(2):
            mu1, nu1 = rng.normal(size=2)
            if mu1**2 + nu1**2 < 0.1:
                mu1 += 0.5
            s2 = tm.TwoModeSetting(mu=[mu1, 0.0], nu=[nu1, 0.0])
            s1 = QuadratureSetting(mu1, nu1)
            x = np.linspace(-4, 4, 50)
            two = tm.tilde_marginal(st.TwoModeCat(A), x, s2)
            one = marginal_numeric(state_1m, x, s1)
            worst = max(worst, float(np.max(np.abs(two - one))))
    report(8, worst < 1e-5, f"two-mode cat one-mode reduction at 50 grid points: worst {worst:.2e} (tol 1e-5)")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(RNG_SEED + 2)

    def random_state():
        kind = rng.integers(0, 4)
        if kind == 0:
            return st.Vacuum()
        if kind == 1:
            return st.Thermal(float(rng.uniform(0.3, 1.0)))
        if kind == 2:
            return st.Coherent(complex(*rng.uniform(-1.0, 1.0, 2)))
        return st.EvenCat(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))

    def random_setting(delta=0.0):
        phi = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.3, 2.0)
        return QuadratureSetting(r * np.cos(phi), r * np.sin(phi), delta)

    failures = []

    # normalization within 1e-3 on the default grids
    for _ in range(100):
        state, s = random_state(), random_setting()
        x = sy.marginals.default_x_grid(state, s)
        w = marginal_analytic(state, x, s)
        if abs(np.trapezoid(w, x) - 1.0) > 1e-3:
            failures.append("normalization")

    # scaling homogeneity within 1e-8
    for _ in range(100):
        state, s = random_state(), random_setting()
        lam = float(rng.uniform(0.4, 2.5)) * rng.choice([-1.0, 1.0])
        x = float(rng.normal())
        w0 = marginal_analytic(state, x, s)
        w1 = abs(lam) * marginal_analytic(state, lam * x, QuadratureSetting(lam * s.mu, lam * s.nu))
        if abs(w1 - w0) > 1e-8 * max(1.0, w0):
            failures.append("scaling")

    # parity within 1e-10
    for _ in range(100):
        state, s = random_state(), random_setting()
        x = float(rng.normal())
        if abs(marginal_analytic(state, x, s) - marginal_analytic(state, -x, s.negated())) > 1e-10:
            failures.append("parity")

    # delta shift: a tomogram recorded with a shift equals the unshifted one
    # translated along the outcome axis
    for _ in range(100):
        state = random_state()
        delta = float(rng.normal() * 2)
        s0 = random_setting(0.0)
        s1 = QuadratureSetting(s0.mu, s0.nu, delta)
        grid = sy.marginals.default_x_grid(state, s0, 201)
        t0 = tabulate_tomogram(state, [s0], x_grid=grid)
        t1 = tabulate_tomogram(state, [s1], x_grid=grid + delta)
        if np.max(np.abs(t0.values - t1.values)) > 1e-12:
            failures.append("shift")

    # kernel conjugation within 1e-12
    for _ in range(100):
        n, m = (int(v) for v in rng.integers(0, 12, 2))
        x, mu, nu = rng.normal(size=3) * 2
        z = float(rng.uniform(0.3, 2.5))
        lhs = kernel_number(n, m, x, (mu, nu), KernelScale(z))
        rhs = np.conj(kernel_number(m, n, -x, (-mu, -nu), KernelScale(z)))
        if abs(lhs - rhs) > 1e-12:
            failures.append("conjugation")

    # symplectic completion within 1e-10
    sigma = tm.symplectic_sigma()
    for _ in range(100):
        u1 = rng.normal(size=4)
        u2 = rng.normal(size=4)
        s1v = sigma @ u1
        u2 = u2 - (u2 @ s1v) / (s1v @ s1v) * s1v
        setting = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=u2[:2], nu_p=u2[2:])
        lam = tm.complete_symplectic(setting)
        if np.max(np.abs(lam @ sigma @ lam.T - sigma)) > 1e-10:
            failures.append("symplectic")

    report(
        9,
        not failures,
        f"property suites (6 x 100 randomized cases): {len(failures)} failures"
        + (f" [{', '.join(sorted(set(failures)))}]" if failures else ""),
    )


def test_criterion_10_wigner_round_trip(thermal_tomogram):
    points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.5), (0.5, -1.0), (1.5, 0.0), (0.0, 1.5), (-1.0, -1.0)]
    vac_tomo = tabulate_tomogram(st.Vacuum(), circle_settings(32), num=1201)
    worst = 0.0
    for tomo, state in ((vac_tomo, st.Vacuum()), (thermal_tomogram, st.Thermal(0.5))):
        for q, p in points:
            got = wigner_from_tomogram(tomo, q, p)
            worst = max(worst, abs(got - st.wigner(state, q, p)))
    report(10, worst < 1e-4, f"Wigner recovered at 9 phase-space points: worst {worst:.2e} (tol 1e-4)")
