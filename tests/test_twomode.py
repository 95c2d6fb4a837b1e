import numpy as np
import pytest
from scipy.linalg import expm

import symplectomo as sy
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import (
    DegenerateConfig,
    DegenerateSetting,
    GridTooNarrow,
    GridUnderresolved,
    InvalidParameter,
    NotSymplectic,
)
from symplectomo.kernels import KernelScale
from symplectomo.marginals import QuadratureSetting, marginal_numeric

from conftest import dense_ladder
from oracles import (
    kernel_number,
    kernel_two_mode_number,
    reconstruct_two_mode_vector,
    tilde_marginal_numeric,
    tilde_table_full_rows,
    vector_marginal_numeric,
)


def random_covariance(rng, lo=0.4, hi=1.6):
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    return Q @ np.diag(rng.uniform(lo, hi, 4)) @ Q.T


def random_commuting_pair(rng):
    sigma = tm.symplectic_sigma()
    u1 = rng.normal(size=4)
    u2 = rng.normal(size=4)
    s1 = sigma @ u1
    u2 = u2 - (u2 @ s1) / (s1 @ s1) * s1  # project onto the commuting hyperplane
    return u1, u2


# ---------------------------------------------------------------------------
# settings and symplectic completion
# ---------------------------------------------------------------------------


def test_setting_validation():
    with pytest.raises(DegenerateSetting):
        tm.TwoModeSetting(mu=np.zeros(2), nu=np.zeros(2))
    with pytest.raises(NotSymplectic):
        # X2 = p1 does not commute with X1 = q1
        tm.TwoModeSetting(mu=[1, 0], nu=[0, 0], mu_p=[0, 0], nu_p=[1, 0])
    s = tm.TwoModeSetting(mu=[1, 0], nu=[0, 0], mu_p=[0, 1], nu_p=[0, 0])
    assert s.is_vector


def test_symplectic_completion_random(rng):
    sigma = tm.symplectic_sigma()
    for _ in range(100):
        u1, u2 = random_commuting_pair(rng)
        setting = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=u2[:2], nu_p=u2[2:])
        lam = tm.complete_symplectic(setting)
        assert np.max(np.abs(lam @ sigma @ lam.T - sigma)) < 1e-10
        assert np.allclose(lam[0], u1) and np.allclose(lam[1], u2)


def test_symplectic_completion_deterministic(rng):
    u1, u2 = random_commuting_pair(rng)
    s = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=u2[:2], nu_p=u2[2:])
    assert np.array_equal(tm.complete_symplectic(s), tm.complete_symplectic(s))


def test_symplectic_completion_tilde_only(rng):
    sigma = tm.symplectic_sigma()
    for _ in range(20):
        u1 = rng.normal(size=4)
        lam = tm.complete_symplectic(tm.TwoModeSetting(mu=u1[:2], nu=u1[2:]))
        assert np.max(np.abs(lam @ sigma @ lam.T - sigma)) < 1e-10


# ---------------------------------------------------------------------------
# tilde marginals
# ---------------------------------------------------------------------------


def test_tilde_gaussian_vacuum_value():
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    s = tm.TwoModeSetting(mu=[1, 0], nu=[0, 0])
    assert tm.tilde_marginal(state, 0.0, s) == pytest.approx(1 / np.sqrt(np.pi))


def test_tilde_gaussian_offdiagonal_variance():
    c = 0.2
    M = np.eye(4) * 0.5
    M[0, 2] = M[2, 0] = c
    state = st.GaussianTwoMode(M)
    s = tm.TwoModeSetting(mu=[1, 0], nu=[1, 0])
    # quadratic-form oracle: var = M11 + M33 + 2c
    var = M[0, 0] + M[2, 2] + 2 * c
    got = tm.tilde_marginal(state, 0.7, s)
    want = np.exp(-0.49 / (2 * var)) / np.sqrt(2 * np.pi * var)
    assert got == pytest.approx(want, rel=1e-12)


def test_tilde_gaussian_matches_wigner_reduction(rng):
    for _ in range(3):
        state = st.GaussianTwoMode(random_covariance(rng))
        u = rng.normal(size=4)
        s = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
        for x1 in (0.0, 0.9):
            got = tm.tilde_marginal(state, x1, s)
            oracle = tilde_marginal_numeric(state, x1, s)
            assert abs(got - oracle) < 1e-6


def test_tilde_gaussian_nonzero_means_closed_form(rng):
    state = st.GaussianTwoMode(np.eye(4) * 0.5, means=[0.3, 0, 0, 0])
    x = np.linspace(-2.0, 2.0, 9)
    got = tm.tilde_marginal(state, x, tm.TwoModeSetting(mu=[1, 0], nu=[0, 0]))
    assert np.max(np.abs(got - np.exp(-((x - 0.3) ** 2)) / np.sqrt(np.pi))) <= 1e-15
    val = tm.tilde_marginal(state, 0.3, tm.TwoModeSetting(mu=[1, 0], nu=[0, 0]))
    assert val == pytest.approx(1 / np.sqrt(np.pi), rel=1e-9)  # peak moved to x = 0.3
    # random means: the characteristic-function inversion is the oracle
    for _ in range(4):
        state = st.GaussianTwoMode(random_covariance(rng), means=rng.normal(size=4))
        u = rng.normal(size=4)
        s = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
        x = u @ state.means + np.linspace(-2.0, 2.0, 9) * np.sqrt(u @ state.M.entries @ u)
        oracle = tm._tilde_from_characteristic(state, x, s)
        assert np.max(np.abs(tm.tilde_marginal(state, x, s) - oracle)) <= 1e-12


def test_tilde_product_state_matches_wigner_reduction():
    # product states have no closed form: the characteristic-function path
    state = st.ProductState(st.Thermal(0.5), st.Coherent(0.4 - 0.3j))
    s = tm.TwoModeSetting(mu=[0.8, -0.4], nu=[0.3, 0.6])
    for x1 in (-0.7, 0.2, 1.1):
        got = tm.tilde_marginal(state, x1, s)
        assert np.shape(got) == ()
        assert abs(got - tilde_marginal_numeric(state, x1, s)) < 1e-10


def test_tilde_cat_degenerate_is_two_mode_vacuum():
    s = tm.TwoModeSetting(mu=[0.6, -0.3], nu=[0.2, 0.9])
    r2 = 0.6**2 + 0.3**2 + 0.2**2 + 0.9**2
    got = tm.tilde_marginal(st.TwoModeCat(np.zeros(2, dtype=complex)), 0.8, s)
    assert got == pytest.approx(np.exp(-0.64 / r2) / np.sqrt(np.pi * r2), rel=1e-12)


def test_tilde_cat_matches_wigner_reduction(rng):
    A = np.array([0.7 + 0.3j, -0.2 + 0.5j])
    state = st.TwoModeCat(A, parity="plus")
    for _ in range(2):
        u = rng.normal(size=4)
        s = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
        for x1 in (0.0, 1.1):
            got = tm.tilde_marginal(state, x1, s)
            oracle = tilde_marginal_numeric(state, x1, s)
            assert abs(got - oracle) < 1e-6


def test_tilde_cat_one_mode_reduction():
    # mode 2 empty: reduces to the one-mode antipodal cat; for pure imaginary
    # amplitude that is the conjugate-pair cat with a = 0
    b = 0.9
    state_1m = st.EvenCat(0.0, b)
    A = np.array([1j * b, 0.0])
    for mu1, nu1 in ((1.0, 0.0), (0.4, -1.1)):
        s2 = tm.TwoModeSetting(mu=[mu1, 0.0], nu=[nu1, 0.0])
        s1 = QuadratureSetting(mu1, nu1)
        x = np.linspace(-3, 3, 21)
        two = tm.tilde_marginal(st.TwoModeCat(A), x, s2)
        one = marginal_numeric(state_1m, x, s1)
        assert np.max(np.abs(two - one)) < 1e-8


# ---------------------------------------------------------------------------
# vector marginal
# ---------------------------------------------------------------------------


def test_vector_marginal_product_vacuum_identity():
    state = st.ProductState(st.Vacuum(), st.Vacuum())
    s = tm.TwoModeSetting(mu=[1, 0], nu=[0, 0], mu_p=[0, 1], nu_p=[0, 0])
    for x in ((0.0, 0.0), (1.0, -0.5)):
        got = vector_marginal_numeric(state, x, s)
        want = np.exp(-x[0] ** 2 - x[1] ** 2) / np.pi
        assert got == pytest.approx(want, abs=1e-9)


def test_vector_marginal_gaussian_pushforward(rng):
    M = random_covariance(rng)
    state = st.GaussianTwoMode(M)
    u1, u2 = random_commuting_pair(rng)
    s = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=u2[:2], nu_p=u2[2:])
    L = np.vstack([u1, u2])
    cov = L @ M @ L.T  # bivariate-normal pushforward oracle
    cov_inv = np.linalg.inv(cov)
    for _ in range(4):
        x = rng.normal(size=2)
        want = np.exp(-0.5 * x @ cov_inv @ x) / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
        got = vector_marginal_numeric(state, x, s)
        assert abs(got - want) < 1e-6


def test_vector_marginal_compatibility_with_tilde(rng):
    # integrating the joint density over x2 reproduces the tilde marginal
    M = random_covariance(rng)
    state = st.GaussianTwoMode(M)
    u1, u2 = random_commuting_pair(rng)
    s = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=u2[:2], nu_p=u2[2:])
    s2_var = float(u2 @ M @ u2)
    x2 = np.linspace(-8 * np.sqrt(s2_var), 8 * np.sqrt(s2_var), 161)
    for x1 in (0.0, 0.8):
        joint = np.array([vector_marginal_numeric(state, (x1, v), s) for v in x2])
        got = np.trapezoid(joint, x2)
        want = tm.tilde_marginal(state, x1, s)
        assert abs(got - want) < 1e-5


def test_vector_marginal_needs_vector_setting():
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    with pytest.raises(NotSymplectic):
        vector_marginal_numeric(state, (0.0, 0.0), tm.TwoModeSetting(mu=[1, 0], nu=[0, 0]))


def test_characteristic_consistency_with_tilde_fourier(rng):
    # FT of the tilde marginal equals the characteristic function on the ray
    M = random_covariance(rng)
    state = st.GaussianTwoMode(M)
    u = rng.normal(size=4)
    s = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
    sig = np.sqrt(float(u @ M @ u))
    x = np.linspace(-10 * sig, 10 * sig, 4001)
    w = tm.tilde_marginal(state, x, s)
    for k in (0.3, 1.0, 2.2):
        ft = np.trapezoid(w * np.exp(1j * k * x), x)
        want = tm.characteristic_two_mode(state, k * u)
        assert abs(ft - want) < 1e-6


# ---------------------------------------------------------------------------
# two-mode kernel
# ---------------------------------------------------------------------------


def test_kernel_two_mode_ground_element():
    s = tm.TwoModeSetting(mu=[0.7, -0.2], nu=[0.1, 0.5])
    z1 = 1.3
    x = (0.4, 9.9)  # x2 irrelevant at z2 = 0
    got = kernel_two_mode_number((0, 0), (0, 0), x, s, scales=(z1, 0.0))
    r2 = float(s.mu @ s.mu + s.nu @ s.nu)
    want = z1**4 / (2 * np.pi) ** 2 * np.exp(-1j * z1 * x[0]) * np.exp(-(z1**2) * r2 / 4)
    assert got == pytest.approx(want, abs=1e-15)


def test_kernel_two_mode_factorizes_into_one_mode_kernels(rng):
    s = tm.TwoModeSetting(mu=[0.7, -0.2], nu=[0.1, 0.5])
    z1 = 0.9
    x1 = 0.6
    for n_row, n_col in (((1, 0), (0, 2)), ((2, 1), (1, 1))):
        got = kernel_two_mode_number(n_row, n_col, (x1, 0.0), s, scales=(z1, 0.0))
        k1 = kernel_number(n_row[0], n_col[0], x1, (s.mu[0], s.nu[0]), KernelScale(z1))
        k2 = kernel_number(n_row[1], n_col[1], 0.0, (s.mu[1], s.nu[1]), KernelScale(z1))
        # one-mode kernels carry (z^2/2pi) e^{-izx} each; rescale to the
        # two-mode prefactor z1^4/(2pi)^2 e^{-iz1 x1}
        want = k1 * k2 * np.exp(1j * z1 * 0.0)
        assert abs(got - want) < 1e-14


def test_kernel_two_mode_dense_oracle():
    per_mode = 12
    a = dense_ladder(per_mode)
    eye = np.eye(per_mode)
    a1 = np.kron(a, eye)
    a2 = np.kron(eye, a)
    s = tm.TwoModeSetting(mu=[0.5, -0.3], nu=[-0.1, 0.8], mu_p=[0.3, 0.5], nu_p=[0.8, 0.1])
    # make the pair commuting for a physical vector setting
    sigma = tm.symplectic_sigma()
    u1 = s.row1
    v = np.concatenate([s.mu_p, s.nu_p])
    sv = sigma @ u1
    v = v - (v @ sv) / (sv @ sv) * sv
    s = tm.TwoModeSetting(mu=u1[:2], nu=u1[2:], mu_p=v[:2], nu_p=v[2:])
    z1, z2 = 1.1, 0.6
    x = (0.3, -0.7)
    arg = np.zeros_like(a1, dtype=complex)
    for j, aj in enumerate((a1, a2)):
        cj = (1 / np.sqrt(2)) * (z1 * (s.nu[j] + 1j * s.mu[j]) + z2 * (s.nu_p[j] + 1j * s.mu_p[j]))
        dj = (1 / np.sqrt(2)) * (z1 * (s.nu[j] - 1j * s.mu[j]) + z2 * (s.nu_p[j] - 1j * s.mu_p[j]))
        arg += cj * aj - dj * aj.conj().T
    K = z1**4 / (2 * np.pi) ** 2 * np.exp(-1j * (z1 * x[0] + z2 * x[1])) * expm(arg)
    for n_row, n_col in (((0, 0), (0, 0)), ((1, 0), (0, 1)), ((2, 2), (1, 0))):
        got = kernel_two_mode_number(n_row, n_col, x, s, scales=(z1, z2))
        want = K[n_row[0] * per_mode + n_row[1], n_col[0] * per_mode + n_col[1]]
        assert abs(got - want) < 1e-12


def test_kernel_z2_needs_vector_setting():
    s = tm.TwoModeSetting(mu=[1, 0], nu=[0, 0])
    with pytest.raises(InvalidParameter):
        kernel_two_mode_number((0, 0), (0, 0), (0.0, 0.0), s, scales=(1.0, 0.5))


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_tilde_tabulation_memory_is_one_table(traced_peak):
    # the default Hopf grid: the table plus a working set of a few chunks
    state = st.TwoModeCat(np.array([0.8 + 0.3j, -0.4 + 0.6j]))
    table = 12 * 12 * 12 * 1201 * 8
    assert traced_peak(tm.tabulate_tilde_tomogram, state) <= table + 6 * 2**20


def test_hopf_directions_cover_sphere():
    dirs, weights = tm.hopf_directions(8, 8)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert weights.sum() == pytest.approx(2 * np.pi**2, rel=1e-12)


def test_reconstruct_two_mode_vacuum_tilde_tomogram():
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    tomo = tm.tabulate_tilde_tomogram(state, n_t=8, n_psi=8, num=801)
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=40)
    rep = tm.reconstruct_two_mode(tomo, cfg)
    assert abs(rep.rho.entries[0, 0] - 1.0) < 5e-3
    assert rep.rho.dims == (3, 3)


def test_explicit_hopf_settings_reconstruct_like_the_default_grid():
    # the grid's weights follow from the settings alone
    state = st.GaussianTwoMode(np.diag([0.7, 0.6, 0.7, 0.6]))
    settings = [tm.TwoModeSetting(mu=d[:2], nu=d[2:]) for d in tm.hopf_directions(6, 8)[0]]
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=24)
    explicit = tm.reconstruct_two_mode(tm.tabulate_tilde_tomogram(state, settings=settings, num=401), cfg)
    default = tm.reconstruct_two_mode(tm.tabulate_tilde_tomogram(state, num=401, n_t=6, n_psi=8), cfg)
    assert np.array_equal(explicit.rho.entries, default.rho.entries)


GAUSS = st.GaussianTwoMode(np.eye(4) * 0.5)


def _small_gauss_tomogram():
    return tm.tabulate_tilde_tomogram(GAUSS, num=301, n_t=4, n_psi=4)


BAD_TWO_MODE_CONFIGS = {
    "n_r 0": (DegenerateConfig, lambda: tm.TwoModeConfig(n_r=0)),
    "dims 2.5": (DegenerateConfig, lambda: tm.TwoModeConfig(dims=(2.5, 2))),
    "dims 0": (DegenerateConfig, lambda: tm.TwoModeConfig(dims=(3, 0))),
    "one dim": (DegenerateConfig, lambda: tm.TwoModeConfig(dims=(3,))),
    "r_max nan": (DegenerateConfig, lambda: tm.TwoModeConfig(r_max=np.nan)),
    "r_max * z < 6": (DegenerateConfig, lambda: tm.TwoModeConfig(r_max=2.0)),
    "no settings": (InvalidParameter, lambda: tm.tabulate_tilde_tomogram(GAUSS, settings=[])),
    "settings of tuples": (InvalidParameter, lambda: tm.tabulate_tilde_tomogram(GAUSS, settings=[(1.0, 0.0)])),
    "num 2.5": (InvalidParameter, lambda: tm.tabulate_tilde_tomogram(GAUSS, num=2.5)),
    "config None": (InvalidParameter, lambda: tm.reconstruct_two_mode(_small_gauss_tomogram(), None)),
    "one-mode config": (
        InvalidParameter,
        lambda: tm.reconstruct_two_mode(_small_gauss_tomogram(), sy.ReconstructionConfig()),
    ),
}


@pytest.mark.parametrize("case", list(BAD_TWO_MODE_CONFIGS))
def test_two_mode_config_validation(case):
    error, make = BAD_TWO_MODE_CONFIGS[case]
    with pytest.raises(error):
        make()


def _warped(x):
    return x + 0.02 * np.sin(np.pi * x / x.max())


S0 = tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], mu_p=[0.0, 1.0], nu_p=[0.0, 0.0])
X = np.linspace(-4, 4, 41)
BAD_OUTCOME_GRIDS = {
    "x1 one point": lambda: tm.TwoModeTomogram((S0,), X[:1], np.full((1, 1), 0.1)),
    "x1 non-uniform": lambda: tm.TwoModeTomogram((S0,), _warped(X), np.full((1, 41), 0.1)),
    "x1 descending": lambda: tm.TwoModeTomogram((S0,), X[::-1], np.full((1, 41), 0.1)),
    "x2 non-uniform": lambda: tm.TwoModeTomogram((S0,), X, np.full((1, 41, 41), 0.1), x2=_warped(X)),
    "tabulated on one point": lambda: tm.tabulate_tilde_tomogram(GAUSS, num=1, n_t=2, n_psi=2),
}


@pytest.mark.parametrize("kind", ["tilde", "vector"])
def test_two_mode_normalization_deficit_is_the_trapezoid_rule(kind):
    # the vacuum marginal on [-1, 1] holds erf(1) = 0.84 of its weight
    x = np.linspace(-1.0, 1.0, 41)
    w = np.exp(-(x**2)) / np.sqrt(np.pi)
    if kind == "tilde":
        tomo, want = tm.TwoModeTomogram((S0,), x, w[None]), np.trapezoid(w, x)
    else:
        tomo, want = tm.TwoModeTomogram((S0,), x, np.outer(w, w)[None], x2=x), np.trapezoid(w, x) ** 2
    with pytest.raises(GridTooNarrow, match=f"deficit {abs(want - 1.0):.3g}$"):
        tomo.validate_normalization()
    tomo.validate_normalization(tol=abs(want - 1.0) + 1e-12)


def test_row_integrals_are_the_trapezoid_rule(rng):
    x1, x2 = np.linspace(-3.0, 3.0, 31), np.linspace(-2.0, 2.0, 21)
    tilde = tm.TwoModeTomogram((S0, S0), x1, rng.uniform(size=(2, x1.size)))
    vector = tm.TwoModeTomogram((S0, S0), x1, rng.uniform(size=(2, x1.size, x2.size)), x2=x2)
    assert np.max(np.abs(tilde.row_integrals() - np.trapezoid(tilde.values, x1, axis=1))) <= 1e-14
    want = np.trapezoid(np.trapezoid(vector.values, x2, axis=2), x1, axis=1)
    assert np.max(np.abs(vector.row_integrals() - want)) <= 1e-14


def test_row_integrals_hold_no_table_sized_temporary(traced_peak):
    # the default Hopf 12x12 table of a cat: 1728 rows of 1201 points, 15.8 MiB
    tomo = tm.tabulate_tilde_tomogram(st.TwoModeCat(np.array([1.0, 0.5]) / np.sqrt(2)))
    assert traced_peak(tomo.row_integrals) <= 2**20
    assert np.max(np.abs(tomo.row_integrals() - np.trapezoid(tomo.values, tomo.x1, axis=1))) <= 1e-14


@pytest.mark.parametrize("case", list(BAD_OUTCOME_GRIDS))
def test_two_mode_tomogram_rejects_a_bad_outcome_grid(case):
    with pytest.raises(InvalidParameter, match="grid"):
        BAD_OUTCOME_GRIDS[case]()


def test_reconstruct_two_mode_gaussian_vector_tomogram():
    # vacuum joint tomogram on commuting per-mode pairs, marginalized internally
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    dirs = tm.hopf_directions(6, 6)[0]
    settings = [tm.TwoModeSetting(mu=d[:2], nu=d[2:]) for d in dirs]
    x1 = np.linspace(-6, 6, 241)
    x2 = np.linspace(-6, 6, 241)
    values = np.empty((len(settings), x1.size, x2.size))
    sigma = tm.symplectic_sigma()
    for i, s0 in enumerate(settings):
        u1 = s0.row1
        M = state.M.entries
        u2 = np.linalg.qr(np.array([u1, sigma @ u1, np.roll(u1, 1), np.roll(u1, 2)]).T)[0][:, 2]
        sv = sigma @ u1
        u2 = u2 - (u2 @ sv) / (sv @ sv) * sv
        L = np.vstack([u1, u2])
        cov = L @ M @ L.T
        cov_inv = np.linalg.inv(cov)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        quad = cov_inv[0, 0] * X1**2 + 2 * cov_inv[0, 1] * X1 * X2 + cov_inv[1, 1] * X2**2
        values[i] = np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.linalg.det(cov)))
    tomo = tm.TwoModeTomogram(tuple(settings), x1, values, x2=x2)
    tomo.validate_normalization()
    rep = tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(3, 3), n_r=40))
    target = np.zeros((9, 9))
    target[0, 0] = 1.0
    assert sy.fidelity(rep.rho, target) >= 0.995


def test_reconstruct_two_mode_cat_partial_trace():
    A = np.array([1.0 + 0j, 0.0 + 0j])
    state = st.TwoModeCat(A, parity="plus")
    tomo = tm.tabulate_tilde_tomogram(state, n_t=10, n_psi=16)  # n_psi >= 2 max(dims) resolves it
    rep = tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(8, 3), n_r=48))
    reduced = tm.partial_trace(rep.rho, keep=1)
    # expected reduced state: one-mode antipodal cat |1> + |-1>
    v = st.coherent_amplitudes(1.0, 8)
    w = st.coherent_amplitudes(-1.0, 8)
    n2 = np.exp(1.0) / (4 * np.cosh(1.0))
    target = n2 * (np.outer(v, v.conj()) + np.outer(v, w.conj()) + np.outer(w, v.conj()) + np.outer(w, w.conj()))
    assert sy.fidelity(reduced, target) >= 0.98


def test_unresolved_two_mode_record_raises():
    # 12 angles resolve orders up to 6 per mode, not dims 12: trace distance 0.27 to the truth
    tomo = tm.tabulate_tilde_tomogram(st.TwoModeCat(np.array([1.0, 0.5]) / np.sqrt(2)), n_t=12, n_psi=12)
    with pytest.raises(GridUnderresolved, match="eigenvalue"):
        tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(12, 12)))


def test_reconstruct_two_mode_vector_kernel_z2_invariance():
    # constant second row keeps the vector-kernel identity exact for any z2;
    # the shifted kernel center needs the denser angular grid
    M = np.diag([0.7, 0.5, 0.45, 0.6])
    state = st.GaussianTwoMode(M)
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=48)
    u2 = np.array([0.0, 1.0, 0.0, 0.0])
    reps = {z2: reconstruct_two_mode_vector(state, u2, cfg, 16, 16, z2=z2) for z2 in (0.0, 0.3, 0.7)}
    base = tm.reconstruct_two_mode(tm.tabulate_tilde_tomogram(state, n_t=16, n_psi=16), cfg)
    for z2, rep in reps.items():
        assert np.max(np.abs(rep.rho.entries - base.rho.entries)) < 1e-6, f"z2={z2}"


def test_partial_trace_product_state():
    # the reduced matrix carries the truncation deficit of the traced mode
    rho1 = st.density_matrix(st.Thermal(0.5), 4)
    rho2 = st.density_matrix(st.Coherent(0.4), 5)
    joint = st.FockDensityMatrix(np.kron(rho1.entries, rho2.entries), dims=(4, 5))
    assert np.max(np.abs(tm.partial_trace(joint, 1).entries - rho1.entries * rho2.trace())) < 1e-14
    assert np.max(np.abs(tm.partial_trace(joint, 2).entries - rho2.entries * rho1.trace())) < 1e-14


def test_two_mode_scaling_and_parity(rng):
    state = st.GaussianTwoMode(random_covariance(rng))
    u = rng.normal(size=4)
    s = tm.TwoModeSetting(mu=u[:2], nu=u[2:])
    x = 0.7
    for lam in (0.5, -1.7):
        scaled = tm.TwoModeSetting(mu=lam * u[:2], nu=lam * u[2:])
        w_scaled = abs(lam) * tm.tilde_marginal(state, lam * x, scaled)
        assert w_scaled == pytest.approx(tm.tilde_marginal(state, x, s), rel=1e-10)
    neg = tm.TwoModeSetting(mu=-u[:2], nu=-u[2:])
    assert tm.tilde_marginal(state, -x, neg) == pytest.approx(tm.tilde_marginal(state, x, s), rel=1e-10)


def test_tilde_cat_extreme_amplitude_stays_finite():
    A = np.array([12j, 0.0])
    s = tm.TwoModeSetting(mu=[0.0, 0.0], nu=[1.0, 0.3])
    half = tm._half_width(st.TwoModeCat(A), s)
    x = np.linspace(-half, half, 2001)
    w = tm.tilde_marginal(st.TwoModeCat(A), x, s)
    assert np.all(np.isfinite(w))
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)


def test_tilde_default_grid_covers_the_first_mode_shift():
    # the default x1 grid widens by |delta1|, as the one-mode grid does by |delta|
    state = st.GaussianTwoMode(np.diag([0.7, 0.6, 0.7, 0.6]))
    settings = [tm.TwoModeSetting(mu=[1, 0.2], nu=[0, 0.3], delta=[d, 0]) for d in (0, 5)]
    tomo = tm.tabulate_tilde_tomogram(state, settings=settings)
    integrals = np.trapezoid(tomo.values, tomo.x1, axis=1)
    assert np.max(np.abs(integrals - 1.0)) < 1e-9


def test_two_mode_tomogram_rejects_nonfinite_data():
    s = tm.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0])
    x = np.linspace(-2, 2, 5)
    bad = x.copy()
    bad[2] = np.nan
    values = np.full((1, 5), 0.1)
    values[0, 2] = np.inf
    with pytest.raises(InvalidParameter):
        tm.TwoModeTomogram((s,), x, values)
    with pytest.raises(InvalidParameter):
        tm.TwoModeTomogram((s,), bad, np.full((1, 5), 0.1))
    with pytest.raises(InvalidParameter):
        tm.TwoModeTomogram((s,), x, np.full((1, 5, 5), 0.1), x2=bad)


@pytest.mark.parametrize("sizes", [(2.5, 3), (3, 2.5), (True, 3), (0, 3), (3, 0)])
def test_hopf_grid_sizes_must_be_positive_integers(sizes):
    with pytest.raises(InvalidParameter):
        tm.hopf_directions(*sizes)


# ---------------------------------------------------------------------------
# the cached Hopf grid
# ---------------------------------------------------------------------------

EVEN_CAT = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2))


@pytest.mark.parametrize("sizes", [(12, 12), (6, 8), (1, 1)], ids=["12x12", "6x8", "1x1"])
@pytest.mark.parametrize("state", [GAUSS, EVEN_CAT], ids=["gauss", "cat"])
def test_default_grid_equals_freshly_built_settings(state, sizes):
    fresh = [tm.TwoModeSetting(mu=d[:2], nu=d[2:]) for d in tm.hopf_directions(*sizes)[0]]
    default = tm.tabulate_tilde_tomogram(state, num=401, n_t=sizes[0], n_psi=sizes[1])
    explicit = tm.tabulate_tilde_tomogram(state, settings=fresh, num=401)
    assert np.array_equal(default.x1, explicit.x1) and np.array_equal(default.values, explicit.values)
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=24)
    if sizes == (1, 1):  # one direction does not resolve a state: both refuse it alike
        for tomo in (default, explicit):
            with pytest.raises(GridUnderresolved):
                tm.reconstruct_two_mode(tomo, cfg)
        return
    got = tm.reconstruct_two_mode(default, cfg).rho.entries
    assert np.array_equal(got, tm.reconstruct_two_mode(explicit, cfg).rho.entries)


def test_tomograms_on_one_grid_share_its_read_only_record():
    gauss = tm.tabulate_tilde_tomogram(GAUSS, num=301, n_t=6, n_psi=8)
    cat = tm.tabulate_tilde_tomogram(EVEN_CAT, num=301, n_t=6, n_psi=8)
    grid = tm._hopf_grid(6, 8)
    assert gauss.settings is cat.settings is tm._hopf_settings(6, 8)
    for arr in (grid.t, grid.psi, grid.dirs, grid.weights):
        assert not arr.flags.writeable
    assert not gauss.settings[0].mu.flags.writeable


def test_hopf_directions_returns_copies_of_the_grid():
    before = tm.tabulate_tilde_tomogram(EVEN_CAT, num=301, n_t=6, n_psi=8).values
    dirs, weights = tm.hopf_directions(6, 8)
    dirs[:] = 0.0
    weights[:] = 0.0
    assert np.array_equal(tm.tabulate_tilde_tomogram(EVEN_CAT, num=301, n_t=6, n_psi=8).values, before)
    assert np.array_equal(tm.hopf_directions(6, 8)[0], tm._hopf_grid(6, 8).dirs)


@pytest.mark.parametrize("bad", [0, 2.0, True, "4"])
@pytest.mark.parametrize("which", ["n_t", "n_psi"])
def test_bad_hopf_sizes_are_refused_and_never_cached(which, bad):
    tm._build_hopf_grid.cache_clear()
    tm._hopf_settings.cache_clear()
    sizes = {"n_t": 4, "n_psi": 4, which: bad}
    with pytest.raises(InvalidParameter, match=which):
        tm.tabulate_tilde_tomogram(GAUSS, num=301, **sizes)
    with pytest.raises(InvalidParameter, match=which):
        tm.hopf_directions(sizes["n_t"], sizes["n_psi"])
    assert tm._build_hopf_grid.cache_info().currsize == tm._hopf_settings.cache_info().currsize == 0


def test_default_tabulations_build_each_grid_setting_once(count_calls):
    # the grid's settings are built once and shared by every tomogram on it
    n_t, n_psi = 3, 5
    tm._build_hopf_grid.cache_clear()
    tm._hopf_settings.cache_clear()
    built = count_calls(tm.TwoModeSetting, "__post_init__")
    tm.tabulate_tilde_tomogram(GAUSS, num=301, n_t=n_t, n_psi=n_psi)
    tm.tabulate_tilde_tomogram(EVEN_CAT, num=301, n_t=n_t, n_psi=n_psi)
    assert 0 < len(built) <= n_t * n_psi**2


def test_grid_readers_other_than_default_tabulation_build_no_settings(count_calls):
    # a cold reconstruction or hopf_directions needs the grid's arrays, not its settings
    fresh = [tm.TwoModeSetting(mu=d[:2], nu=d[2:]) for d in tm.hopf_directions(4, 6)[0]]
    tomo = tm.tabulate_tilde_tomogram(GAUSS, settings=fresh, num=301)
    tm._build_hopf_grid.cache_clear()
    tm._hopf_settings.cache_clear()
    built = count_calls(tm.TwoModeSetting, "__post_init__")
    tm.hopf_directions(4, 6)
    tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(3, 3), n_r=24))
    assert built == [] and tm._hopf_settings.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# antipodal rows: w(x; -u, -delta) = w(-x; u, delta)
# ---------------------------------------------------------------------------

# nonzero means: no row of this state equals itself reversed, so a copy that is not reversed shows
SHIFTED_GAUSS = st.GaussianTwoMode(random_covariance(np.random.default_rng(5)), means=np.array([0.3, -0.2, 0.5, 0.1]))
ODD_CAT = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2), parity="minus")
MIRROR_TOL = 1e-14  # of each row's maximum: a copied row is its partner's evaluated row reversed


def _per_setting(state, tomo):
    """Every row by ``tilde_marginal`` at the tomogram's x1, one setting at a time."""
    return np.array([tm.tilde_marginal(state, tomo.x1 - s.delta[0], s) for s in tomo.settings])


def _stacked(state, tomo):
    """Every row by one stacked closed-form evaluation, with no rows copied."""
    U, deltas = tm._setting_rows(tomo.settings)
    return tm._stacked_form(state)(state, tomo.x1 - deltas[:, None], U)


def _assert_rows_match(tomo, want):
    assert np.all(np.abs(tomo.values - want) <= MIRROR_TOL * want.max(axis=1, keepdims=True))


@pytest.mark.parametrize(
    "state, sizes",
    [(SHIFTED_GAUSS, (4, 6)), (EVEN_CAT, (4, 6)), (ODD_CAT, (2, 4))],
    ids=["shifted-gauss", "even-cat", "odd-cat"],
)
def test_mirrored_default_tabulation_matches_per_setting_marginals(state, sizes):
    n_t, n_psi = sizes
    tomo = tm.tabulate_tilde_tomogram(state, num=201, n_t=n_t, n_psi=n_psi)
    assert len(tm._hopf_grid(n_t, n_psi).pairs) == n_t * n_psi**2 // 2
    want = _per_setting(state, tomo)
    if state is SHIFTED_GAUSS:
        assert np.all(np.max(np.abs(want - want[:, ::-1]), axis=1) > 1e-3 * want.max(axis=1))
    _assert_rows_match(tomo, want)


def test_explicit_antipodal_settings_are_mirrored():
    rng = np.random.default_rng(11)
    u1, u2, u3 = rng.normal(size=(3, 4))

    def setting(u, delta1=0.0):
        return tm.TwoModeSetting(mu=u[:2], nu=u[2:], delta=[delta1, 0.0])

    # rows 0/2 and 1/4 are exact antipodes; row 5 negates row 3's direction but not its offset
    settings = [setting(u1, 0.4), setting(u2), setting(-u1, -0.4), setting(u3, 0.2), setting(-u2), setting(-u3, 0.2)]
    assert tm._antipodes(*tm._setting_rows(settings)).tolist() == [[0, 2], [1, 4]]
    tomo = tm.tabulate_tilde_tomogram(SHIFTED_GAUSS, settings=settings, num=401)
    _assert_rows_match(tomo, _per_setting(SHIFTED_GAUSS, tomo))


@pytest.mark.parametrize("state", [SHIFTED_GAUSS, EVEN_CAT], ids=["shifted-gauss", "even-cat"])
@pytest.mark.parametrize("case", ["odd n_psi", "linspace x1"])
def test_tabulations_without_pairs_evaluate_every_row(state, case):
    if case == "odd n_psi":
        assert len(tm._hopf_grid(3, 5).pairs) == 0
        tomo = tm.tabulate_tilde_tomogram(state, num=401, n_t=3, n_psi=5)
    else:
        x = np.linspace(-12.0, 12.0, 401)
        assert not np.array_equal(x[::-1], -x)
        tomo = tm.tabulate_tilde_tomogram(state, x_grid=x, n_t=4, n_psi=6)
    assert np.array_equal(tomo.values, _stacked(state, tomo))


@pytest.mark.parametrize("num", [401, 400])
@pytest.mark.parametrize("state", [SHIFTED_GAUSS, EVEN_CAT], ids=["shifted-gauss", "even-cat"])
def test_default_x1_is_exactly_mirror_symmetric(state, num):
    x1 = tm.tabulate_tilde_tomogram(state, num=num, n_t=2, n_psi=4).x1
    assert np.array_equal(x1[::-1], -x1)


@pytest.mark.parametrize("sizes", [(1, 2), (3, 4), (12, 12)], ids=["1x2", "3x4", "12x12"])
def test_hopf_directions_of_even_n_psi_are_exact_antipodes(sizes):
    n_t, n_psi = sizes
    half = n_psi // 2
    dirs = tm.hopf_directions(n_t, n_psi)[0].reshape(n_t, n_psi, n_psi, 4)
    # (t, psi1 + pi, psi2 + pi) against (t, psi1, psi2) for psi1 in the first half
    assert np.array_equal(dirs[:, half:][:, :, np.r_[half:n_psi, :half]], -dirs[:, :half])


def test_odd_cat_evaluates_one_row_per_antipodal_pair(count_calls):
    calls = count_calls(tm, "_tilde_from_characteristic")
    tomo = tm.tabulate_tilde_tomogram(ODD_CAT, num=201, n_t=3, n_psi=4)
    assert len(tomo.settings) == 48 and len(calls) == 24


# ---------------------------------------------------------------------------
# even rows: w(-x; u) = w(x; u) for inversion-symmetric states
# ---------------------------------------------------------------------------

CENTRED_GAUSS = st.GaussianTwoMode(SHIFTED_GAUSS.M)
THERMAL_NUMBER = st.ProductState(st.Thermal(0.6), st.NumberState(1))
COHERENT_VACUUM = st.ProductState(st.Coherent(0.8 + 0.3j), st.Vacuum())


def test_inversion_symmetric_states():
    symmetric = [EVEN_CAT, ODD_CAT, CENTRED_GAUSS, GAUSS, THERMAL_NUMBER, st.ProductState(st.Vacuum(), st.NumberState(3))]
    others = [SHIFTED_GAUSS, COHERENT_VACUUM, st.ProductState(st.EvenCat(1.0, 1.0), st.Vacuum()), st.Vacuum()]
    assert all(st._inversion_symmetric(s) for s in symmetric)
    assert not any(st._inversion_symmetric(s) for s in others)


@pytest.mark.parametrize("sizes", [(12, 12), (6, 8), (5, 5)], ids=["12x12", "6x8", "5x5"])
@pytest.mark.parametrize("state", [CENTRED_GAUSS, EVEN_CAT], ids=["centred-gauss", "even-cat"])
def test_even_closed_form_rows_are_mirrored_bit_for_bit(state, sizes):
    tomo = tm.tabulate_tilde_tomogram(state, n_t=sizes[0], n_psi=sizes[1])
    assert np.array_equal(tomo.values, tilde_table_full_rows(state, tomo.settings, tomo.x1))


@pytest.mark.parametrize("state", [ODD_CAT, THERMAL_NUMBER], ids=["odd-cat", "thermal-number1"])
def test_even_characteristic_rows_are_mirrored(state, count_calls):
    calls = count_calls(tm, "_tilde_from_characteristic")
    tomo = tm.tabulate_tilde_tomogram(state, num=201, n_t=2, n_psi=4)
    assert len(calls) == 16 and {x.size for _, x, _ in calls} == {101}
    want = tilde_table_full_rows(state, tomo.settings, tomo.x1)
    assert np.array_equal(tomo.values, want) or np.all(
        np.abs(tomo.values - want) <= MIRROR_TOL * want.max(axis=1, keepdims=True)
    )


def test_even_cat_rows_take_half_the_x_grid_per_chunk(count_calls):
    calls = count_calls(tm, "_cat_rows")
    num = 1201
    tm.tabulate_tilde_tomogram(EVEN_CAT, num=num, n_t=12, n_psi=12)
    assert sum(len(U) for _, _, U in calls) == 864 and {x.shape[1] for _, x, _ in calls} == {num // 2 + 1}


def _hopf_settings_with_offsets(n_t, n_psi):
    dirs = tm.hopf_directions(n_t, n_psi)[0]
    deltas = np.random.default_rng(7).uniform(-0.5, 0.5, len(dirs))
    return [tm.TwoModeSetting(d[:2], d[2:], delta=[dl, 0.0]) for d, dl in zip(dirs, deltas)]


NOT_MIRRORED = {
    "shifted-gauss": (SHIFTED_GAUSS, {"n_t": 4, "n_psi": 6}),
    "coherent-vacuum": (COHERENT_VACUUM, {"n_t": 1, "n_psi": 2}),
    "nonzero-delta": (EVEN_CAT, {"settings": _hopf_settings_with_offsets(2, 4)}),
    "linspace-x1": (EVEN_CAT, {"x_grid": np.linspace(-12.0, 12.0, 401), "n_t": 2, "n_psi": 4}),
}


@pytest.mark.parametrize("case", list(NOT_MIRRORED))
def test_rows_that_may_be_uneven_are_evaluated_in_full(case, count_calls):
    state, kwargs = NOT_MIRRORED[case]
    num = kwargs.get("x_grid", np.empty(301)).size
    evaluate = "_tilde_from_characteristic" if tm._stacked_form(state) is None else tm._stacked_form(state).__name__
    calls = count_calls(tm, evaluate)
    tomo = tm.tabulate_tilde_tomogram(state, num=num, **kwargs)
    assert calls and {np.shape(args[1])[-1] for args in calls} == {num}
    _assert_rows_match(tomo, _per_setting(state, tomo))
