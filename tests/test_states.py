import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_laguerre, gammaln

from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import DimMismatch, InvalidParameter, TruncationTooSmall, UnsupportedVariant


def test_vacuum_density_matrix_is_ground_projector():
    rho = st.density_matrix(st.Vacuum(), 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.allclose(rho.entries, expected)


def test_thermal_density_matrix_geometric_populations():
    lam = 0.4
    eta = (1 - lam) / (1 + lam)
    rho = st.density_matrix(st.Thermal(lam), 30)
    pops = np.diag(rho.entries).real
    assert np.allclose(pops, (1 - eta) * eta ** np.arange(30), atol=1e-14)
    assert np.allclose(rho.entries, np.diag(pops))


def test_thermal_lambda_one_is_vacuum():
    rho = st.density_matrix(st.Thermal(1.0), 5)
    assert rho.entries[0, 0].real == pytest.approx(1.0)
    assert abs(rho.entries[1:, 1:]).max() == 0.0


@pytest.mark.parametrize("n", [float("nan"), float("inf"), -1, 1.5])
def test_number_state_refuses_a_non_count(n):
    with pytest.raises(InvalidParameter):
        st.NumberState(n)


@pytest.mark.parametrize("lam", [0.0, -0.3, 1.2])
def test_thermal_parameter_range(lam):
    with pytest.raises(InvalidParameter):
        st.Thermal(lam)


def test_degenerate_cat_is_vacuum_projector():
    rho = st.density_matrix(st.EvenCat(0.0, 0.0), 4)
    assert rho.entries[0, 0].real == pytest.approx(1.0, abs=1e-14)
    assert abs(rho.entries - np.diag([1, 0, 0, 0])).max() < 1e-14


def test_coherent_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        st.density_matrix(st.Coherent(2.0), 4)
    rho = st.density_matrix(st.Coherent(2.0), 40)
    assert rho.trace() == pytest.approx(1.0, abs=1e-6)


def test_cat_coefficients_match_coherent_expansion():
    a, b = 1.0, 0.7
    alpha = a + 1j * b
    v = st.fock_coefficients(st.EvenCat(a, b), 25)
    direct = (st.coherent_amplitudes(alpha, 25) + st.coherent_amplitudes(alpha.conjugate(), 25))
    direct /= np.sqrt(2 * (1 + np.cos(2 * a * b) * np.exp(-2 * b**2)))
    assert np.allclose(v, direct, atol=1e-15)
    assert np.allclose(v.imag, 0.0, atol=1e-15)  # conjugate pair gives real amplitudes


@pytest.mark.parametrize(
    "state",
    [
        st.Vacuum(),
        st.NumberState(3),
        st.Coherent(1.0 + 0.8j),
        st.EvenCat(1.5, 1.0),
        st.EvenCat(0.3, 1.5),
        st.Thermal(0.3),
        st.Thermal(0.9),
    ],
)
def test_density_matrix_trace_and_positivity(state):
    rho = st.density_matrix(state, 40)
    assert abs(rho.trace() - 1.0) < 1e-6
    assert rho.min_eigenvalue() >= -1e-8
    rho.validate()


def test_custom_roundtrip_and_dim_guard():
    base = st.density_matrix(st.Thermal(0.5), 6)
    rho = st.density_matrix(st.Custom(base), 6)
    assert rho is base
    with pytest.raises(DimMismatch):
        st.density_matrix(st.Custom(base), 8)


# ---------------------------------------------------------------------------
# Wigner functions
# ---------------------------------------------------------------------------


def test_thermal_wigner_peak():
    for lam in (0.3, 0.5, 1.0):
        assert st.wigner(st.Thermal(lam), 0.0, 0.0) == pytest.approx(2 * lam)


def test_vacuum_wigner_values():
    assert st.wigner(st.Vacuum(), 0.0, 0.0) == pytest.approx(2.0)
    assert st.wigner(st.Vacuum(), 1.0, 1.0) == pytest.approx(2 * np.exp(-2.0))


@pytest.mark.parametrize(
    "state",
    [
        st.Vacuum(),
        st.Thermal(0.3),
        st.Thermal(0.7),
        st.EvenCat(1.0, 1.0),
        st.EvenCat(1.5, 0.5),
        st.Coherent(0.7 - 0.4j),
        st.NumberState(2),
    ],
)
def test_wigner_normalization_two_pi(state):
    g = np.linspace(-8, 8, 801)
    Q, P = np.meshgrid(g, g, indexing="ij")
    W = st.wigner(state, Q, P)
    total = np.trapezoid(np.trapezoid(W, g, axis=1), g, axis=0)
    assert total == pytest.approx(2 * np.pi, abs=1e-4)


def test_cat_wigner_is_real_valued():
    g = np.linspace(-4, 4, 41)
    Q, P = np.meshgrid(g, g, indexing="ij")
    W = st.wigner(st.EvenCat(1.2, 0.9), Q, P)
    assert np.isrealobj(W)


def test_custom_wigner_unsupported():
    rho = st.density_matrix(st.Vacuum(), 4)
    with pytest.raises(UnsupportedVariant):
        st.wigner(st.Custom(rho), 0.0, 0.0)


def test_characteristic_matches_wigner_transform():
    # direct 2-d Fourier integral of W against the closed forms
    g = np.linspace(-8, 8, 601)
    Q, P = np.meshgrid(g, g, indexing="ij")
    for state in (st.Vacuum(), st.Thermal(0.5), st.Coherent(0.6 + 0.3j), st.EvenCat(1.0, 0.8), st.NumberState(2)):
        W = st.wigner(state, Q, P)
        for wq, wp in ((0.0, 0.0), (0.7, -0.3), (1.5, 1.0)):
            integrand = W * np.exp(1j * (wq * Q + wp * P))
            val = np.trapezoid(np.trapezoid(integrand, g, axis=1), g, axis=0) / (2 * np.pi)
            assert abs(val - st.characteristic_one_mode(state, wq, wp)) < 1e-6


# ---------------------------------------------------------------------------
# two-mode states
# ---------------------------------------------------------------------------


def test_gaussian_two_mode_peak_and_symmetry(rng):
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    M = Q @ np.diag(rng.uniform(0.4, 1.5, 4)) @ Q.T
    means = rng.normal(size=4) * 0.5
    state = st.GaussianTwoMode(M, means)
    peak = st.wigner_two_mode(state, means[:2], means[2:])
    assert peak == pytest.approx(1 / np.sqrt(np.linalg.det(M)))
    v = rng.normal(size=4)
    w1 = st.wigner_two_mode(state, v[:2], v[2:])
    mirrored = 2 * means - v
    w2 = st.wigner_two_mode(state, mirrored[:2], mirrored[2:])
    assert w1 == pytest.approx(w2, rel=1e-12)


def test_gaussian_identity_over_two_value():
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    assert st.wigner_two_mode(state, np.zeros(2), np.zeros(2)) == pytest.approx(4.0)


def test_minus_cat_needs_nonzero_amplitude():
    with pytest.raises(InvalidParameter):
        st.TwoModeCat(np.zeros(2), parity="minus")


def test_two_mode_cat_wigner_against_term_sum(rng):
    # independent four-term expansion assembled inline
    A = np.array([0.9 + 0.2j, -0.4 + 0.6j])
    state = st.TwoModeCat(A, parity="plus")

    def dyad(Avec, Bvec, q, p):
        al = (q + 1j * p) / np.sqrt(2)
        s = (
            -2 * (al * al.conj()).sum()
            + 2 * (Avec * al.conj()).sum()
            + 2 * (Bvec.conj() * al).sum()
            - (Avec * Bvec.conj()).sum()
            - (abs(Avec) ** 2).sum() / 2
            - (abs(Bvec) ** 2).sum() / 2
        )
        return 4 * np.exp(s)

    a2 = (abs(A) ** 2).sum()
    n2 = np.exp(a2) / (4 * np.cosh(a2))
    for _ in range(5):
        q = rng.normal(size=2)
        p = rng.normal(size=2)
        expected = n2 * (dyad(A, A, q, p) + dyad(A, -A, q, p) + dyad(-A, A, q, p) + dyad(-A, -A, q, p))
        assert abs(expected.imag) < 1e-12
        assert st.wigner_two_mode(state, q, p) == pytest.approx(expected.real, rel=1e-12)


def test_two_mode_cat_origin_value():
    state = st.TwoModeCat(np.array([1.0, 0.0]), parity="plus")
    assert st.wigner_two_mode(state, np.zeros(2), np.zeros(2)) == pytest.approx(4.0)


def test_product_state_wigner_factorizes():
    state = st.ProductState(st.Thermal(0.5), st.Coherent(0.5j))
    q = np.array([0.3, -0.7])
    p = np.array([1.1, 0.2])
    expected = st.wigner(st.Thermal(0.5), q[0], p[0]) * st.wigner(st.Coherent(0.5j), q[1], p[1])
    assert st.wigner_two_mode(state, q, p) == pytest.approx(expected)


def test_covariance_matrix_validation():
    with pytest.raises(InvalidParameter):
        st.CovarianceMatrix(np.eye(3))
    bad = np.eye(4)
    bad[0, 1] = 0.5  # not symmetric
    with pytest.raises(InvalidParameter):
        st.CovarianceMatrix(bad)
    with pytest.raises(InvalidParameter):
        st.CovarianceMatrix(np.diag([1.0, 1.0, 1.0, -0.1]))


# ---------------------------------------------------------------------------
# container behaviour
# ---------------------------------------------------------------------------


def test_density_matrix_hermitized_on_construction():
    raw = np.array([[1.0, 0.5j], [0.0, 0.0]])
    rho = st.FockDensityMatrix(raw)
    assert np.allclose(rho.entries, rho.entries.conj().T)
    assert rho.entries[1, 0] == pytest.approx(-0.25j)
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 2.0  # read-only storage


def test_coherent_element_matches_direct_sum():
    rho = st.density_matrix(st.Thermal(0.5), 25)
    alpha, beta = 0.4 + 0.2j, -0.6 + 0.1j
    va = st.coherent_amplitudes(alpha, 25)
    vb = st.coherent_amplitudes(beta, 25)
    assert rho.coherent_element(alpha, beta) == pytest.approx(complex(va.conj() @ rho.entries @ vb))


def test_number_state_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        st.density_matrix(st.NumberState(5), 4)
    rho = st.density_matrix(st.NumberState(3), 4)
    assert rho.entries[3, 3].real == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# numpy-only special functions against their scipy oracles
# ---------------------------------------------------------------------------


def test_laguerre_bit_identical_to_scipy():
    x = np.concatenate([np.linspace(0.0, 200.0, 4001), np.random.default_rng(3).exponential(3.0, 1000), [1e-300, 1e-10]])
    for n in range(81):
        assert np.array_equal(st._laguerre(n, x), eval_laguerre(n, x)), n


def test_log_factorials_match_gammaln():
    ref = gammaln(np.arange(400) + 1.0)
    got = st._log_factorials(400)
    assert got[:2].tolist() == [0.0, 0.0]
    assert np.all(np.abs(got[2:] - ref[2:]) <= 1e-15 * ref[2:])


@pytest.mark.parametrize("alpha", [3 + 4j, 0.5 - 0.2j, 12.0])
def test_coherent_amplitudes_finite_past_factorial_overflow(alpha):
    n = np.arange(300)
    ref = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0) + 1j * n * np.angle(alpha))
    got = st.coherent_amplitudes(alpha, 300)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter on this checkout's package, whatever is installed
    src = os.path.dirname(os.path.dirname(st.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import symplectomo, symplectomo.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize(
    "build",
    [
        lambda: st.Coherent(np.nan),
        lambda: st.Coherent(np.inf),
        lambda: st.Coherent(complex(0.5, np.nan)),
        lambda: st.EvenCat(np.nan, 1.0),
        lambda: st.EvenCat(1.0, -np.inf),
        lambda: st.TwoModeCat([np.nan, 1.0]),
        lambda: st.TwoModeCat([0.5, complex(0.0, np.inf)]),
        lambda: st.GaussianTwoMode(np.eye(4) * 0.5, means=[0.0, np.nan, 0.0, 0.0]),
    ],
    ids=["coherent-nan", "coherent-inf", "coherent-imag-nan", "cat-a-nan", "cat-b-inf", "cat2-nan", "cat2-imag-inf", "gauss2-mean-nan"],
)
def test_nonfinite_amplitudes_are_refused(build):
    with pytest.raises(InvalidParameter, match="finite"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: tm.TwoModeSetting(mu=[1.0, 0.0, 0.0], nu=[0.0, 0.0]),
        lambda: tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0]),
        lambda: tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], mu_p=[0.0, 1.0, 0.0], nu_p=[0.0, 0.0]),
        lambda: tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], mu_p=[0.0, 1.0], nu_p=[0.0]),
        lambda: tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], delta=[0.0]),
        lambda: st.GaussianTwoMode(np.eye(4) * 0.5, means=[0.0, 0.0, 0.0]),
        lambda: st.TwoModeCat([1.0, 0.5, 0.2]),
        lambda: st.FockDensityMatrix(np.eye(2) / 2, dims=(2,)),
        lambda: st.FockDensityMatrix(np.eye(4) / 4, dims=4),
        lambda: st.FockDensityMatrix(np.eye(4) / 4, dims=(2.0, 2.0)),
        lambda: st.FockDensityMatrix(np.eye(4) / 4, dims=(4, 1, 1)),
        lambda: st.Custom(np.eye(2) / 2),
    ],
    ids=[
        "setting-mu-3",
        "setting-nu-1",
        "setting-mu_p-3",
        "setting-nu_p-1",
        "setting-delta-1",
        "gauss2-means-3",
        "cat2-A-3",
        "dims-one",
        "dims-int",
        "dims-floats",
        "dims-three",
        "custom-array",
    ],
)
def test_malformed_shapes_are_refused(build):
    with pytest.raises(InvalidParameter):
        build()
