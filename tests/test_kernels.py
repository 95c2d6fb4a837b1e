import numpy as np
import pytest
from scipy.linalg import expm

from symplectomo import kernels as kn
from symplectomo import states as st
from symplectomo.errors import CutoffTooSmall, InvalidParameter
from symplectomo.marginals import QuadratureSetting

from conftest import dense_ladder
from oracles import (
    HomodyneSetting,
    _displacement_element_series,
    displacement_element,
    displacement_matrix_loop,
    kernel_coherent,
    kernel_coordinate_phase,
    kernel_homodyne_number,
    kernel_homodyne_trapezoid,
    kernel_matrix,
    kernel_number,
)


def dense_kernel_element(n, m, x, mu, nu, z, dim=None):
    """Operator-exponential oracle: normally ordered exponentials times the Gaussian."""
    dim = dim or (n + m + 30)
    a = dense_ladder(dim)
    ad = a.conj().T
    A = -(z / np.sqrt(2)) * (nu - 1j * mu)
    B = (z / np.sqrt(2)) * (nu + 1j * mu)
    K = (
        (z**2 / (2 * np.pi))
        * np.exp(-1j * z * x)
        * (expm(A * ad) @ expm(B * a))
        * np.exp(-(z**2) * (mu**2 + nu**2) / 4)
    )
    return K[n, m]


def test_ground_element_closed_form():
    for z in (0.7, 1.0, 1.8):
        for mu, nu, x in ((1.0, 0.0, 0.0), (0.4, -1.2, 0.9), (0.0, 0.0, 0.3)):
            got = kernel_number(0, 0, x, (mu, nu), kn.KernelScale(z))
            want = z**2 / (2 * np.pi) * np.exp(-1j * z * x) * np.exp(-(z**2) * (mu**2 + nu**2) / 4)
            assert got == pytest.approx(want, abs=1e-15)


def test_one_zero_element_value():
    got = kernel_number(1, 0, 0.0, QuadratureSetting(1.0, 0.0), kn.KernelScale(1.0))
    want = (1 / (2 * np.pi)) * np.exp(-0.25) * (1j / np.sqrt(2))
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(dense_kernel_element(1, 0, 0.0, 1.0, 0.0, 1.0), abs=1e-14)


def test_number_elements_match_operator_exponential_oracle(rng):
    for _ in range(25):
        n, m = rng.integers(0, 9, size=2)
        x, mu, nu = rng.normal(size=3) * 1.5
        z = rng.uniform(0.4, 2.0)
        got = kernel_number(int(n), int(m), x, (mu, nu), kn.KernelScale(z))
        want = dense_kernel_element(int(n), int(m), x, mu, nu, z)
        assert abs(got - want) < 1e-12


def test_z_equal_one_matches_quadrature_exponential(rng):
    # e^{-ix} e^{i(mu q + nu p)} / 2pi, built from q and p directly
    dim = 24
    a = dense_ladder(dim)
    q = (a + a.conj().T) / np.sqrt(2)
    p = (a - a.conj().T) / (1j * np.sqrt(2))
    for _ in range(8):
        x, mu, nu = rng.normal(size=3)
        K = np.exp(-1j * x) / (2 * np.pi) * expm(1j * (mu * q + nu * p))
        for n, m in ((0, 0), (1, 0), (2, 3), (4, 1)):
            got = kernel_number(n, m, x, (mu, nu), kn.KernelScale(1.0))
            assert abs(got - K[n, m]) < 1e-10


def test_conjugation_symmetry(rng):
    for _ in range(100):
        n, m = (int(v) for v in rng.integers(0, 12, size=2))
        x, mu, nu = rng.normal(size=3) * 2
        z = rng.uniform(0.3, 2.5)
        lhs = kernel_number(n, m, x, (mu, nu), kn.KernelScale(z))
        rhs = np.conj(kernel_number(m, n, -x, (-mu, -nu), kn.KernelScale(z)))
        assert abs(lhs - rhs) < 1e-12


def test_gaussian_bound_and_monotone_decay():
    z = 1.0
    scale = kn.KernelScale(z)
    phi = 0.7
    prev = None
    for r in np.linspace(4.0 / z, 10.0 / z, 13):
        val = abs(kernel_number(2, 1, 0.3, (r * np.cos(phi), r * np.sin(phi)), scale))
        assert val <= z**2 / (2 * np.pi) + 1e-15  # |<n|D|m>| <= 1
        if prev is not None:
            assert val < prev
        prev = val


def test_series_form_agrees_with_recurrence(rng):
    for _ in range(30):
        n = int(rng.integers(0, 10))
        d = int(rng.integers(0, 6))
        zeta = (rng.normal() + 1j * rng.normal()) * 0.9
        series = _displacement_element_series(n + d, n, zeta)
        direct = displacement_element(n + d, n, zeta)
        assert abs(series - direct) < 1e-12


def test_displacement_matrix_against_expm(rng):
    for zeta in (0.4 + 0.9j, -1.7 + 0.3j, 2.5 - 2.1j):
        dim = 9
        a = dense_ladder(dim + 30)
        D = expm(zeta * a.conj().T - np.conj(zeta) * a)[:dim, :dim]
        got = kn.displacement_matrix(np.asarray(zeta), dim)
        assert np.max(np.abs(got - D)) < 1e-12


def test_displacement_matrix_large_argument_stability():
    # the regime where the alternating series loses double precision
    zeta = 4.0 + 2.5j
    dim = 61
    a = dense_ladder(dim + 120)
    D = expm(zeta * a.conj().T - np.conj(zeta) * a)[:dim, :dim]
    got = kn.displacement_matrix(np.asarray(zeta), dim)
    assert np.max(np.abs(got - D)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 40, 80])
def test_displacement_matrix_matches_the_element_loop(dim, rng):
    # 0-d, (n,) and (n_t, n_r) arguments: real, imaginary and complex, with
    # zero among them and |zeta|^2 up to about 60
    grid = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    cases = [
        0.0,
        1.3,
        -2.0j,
        -0.3 + 0.4j,
        5.5 - 5.4j,
        np.linspace(-7.7, 7.7, 9),
        1j * np.linspace(0.0, 7.7, 6),
        np.array([0.0, 5.4 + 3.0j, -1e-3j, 2.0 - 7.4j]),
        grid * (7.7 / np.max(np.abs(grid))),
    ]
    for zetas in cases:
        got = kn.displacement_matrix(zetas, dim)
        assert got.shape == np.shape(zetas) + (dim, dim)
        assert np.array_equal(got, displacement_matrix_loop(zetas, dim))


# ---------------------------------------------------------------------------
# coherent basis
# ---------------------------------------------------------------------------


def test_coherent_kernel_degenerate_and_general():
    z = 1.3
    scale = kn.KernelScale(z)
    got = kernel_coherent(0, 0, 0.4, (0.0, 0.0), scale)
    assert got == pytest.approx(z**2 / (2 * np.pi) * np.exp(-1j * z * 0.4), abs=1e-15)
    got = kernel_coherent(0, 0, 0.4, (0.8, -0.6), scale)
    want = z**2 / (2 * np.pi) * np.exp(-1j * z * 0.4) * np.exp(-(z**2) * 1.0 / 4)
    assert got == pytest.approx(want, abs=1e-15)


def test_coherent_kernel_number_basis_resummation(rng):
    dim = 60
    scale = kn.KernelScale(1.0)
    for _ in range(4):
        alpha = (rng.normal() + 1j * rng.normal()) * 0.75
        beta = (rng.normal() + 1j * rng.normal()) * 0.75
        x, mu, nu = rng.normal(size=3)
        va = st.coherent_amplitudes(alpha, dim)
        vb = st.coherent_amplitudes(beta, dim)
        K = kernel_matrix(x, (mu, nu), scale, dim)
        resummed = va.conj() @ K @ vb
        direct = kernel_coherent(alpha, beta, x, (mu, nu), scale)
        assert abs(resummed - direct) < 1e-8


# ---------------------------------------------------------------------------
# coordinate representation
# ---------------------------------------------------------------------------


def test_coordinate_phase_on_support():
    z, mu, nu, x = 1.2, 0.7, -0.4, 0.9
    phase, resid = kernel_coordinate_phase(0.0, z * nu, x, (mu, nu), kn.KernelScale(z))
    assert resid == pytest.approx(0.0, abs=1e-15)
    want = z**2 / (2 * np.pi) * np.exp(-1j * z * x) * np.exp(1j * z**2 * mu * nu / 2)
    assert phase == pytest.approx(want, abs=1e-15)


def test_coordinate_off_support_residual():
    _, resid = kernel_coordinate_phase(0.3, 2.0, 0.0, (0.5, 0.5), kn.KernelScale(1.0))
    assert resid == pytest.approx(2.0 - 0.5 - 0.3)
    assert resid != 0.0


def test_coordinate_identity_limit():
    phase, resid = kernel_coordinate_phase(0.4, 0.9, 0.0, (0.0, 0.0), kn.KernelScale(1.0))
    assert phase == pytest.approx(1 / (2 * np.pi))
    assert resid == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# homodyne kernel
# ---------------------------------------------------------------------------


def test_homodyne_diagonal_phase_independent():
    vals = [
        kernel_homodyne_number(2, 2, HomodyneSetting(phi, 0.7))
        for phi in (0.0, 0.8, 1.9, 4.5)
    ]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-12


def test_homodyne_hermiticity():
    for n, m, x in ((0, 3, 0.4), (2, 1, -1.1), (4, 4, 0.0)):
        h = HomodyneSetting(0.6, x)
        lhs = np.conj(kernel_homodyne_number(n, m, h))
        rhs = kernel_homodyne_number(m, n, h)
        assert abs(lhs - rhs) < 1e-10


def test_homodyne_kernel_matches_trapezoid_oracle(rng):
    for _ in range(40):
        n, m = (int(v) for v in rng.integers(0, 11, size=2))
        h = HomodyneSetting(rng.uniform(0, 2 * np.pi), rng.normal() * 1.5)
        assert abs(kernel_homodyne_number(n, m, h) - kernel_homodyne_trapezoid(n, m, h)) <= 1e-6


def test_homodyne_tail_is_measured_beyond_the_cutoff():
    # the (10, 10) tail over [12, 28] is 2.2e-5, under the 1.6e-4 threshold; (15, 15) is 1.4e-2
    h = HomodyneSetting(0.0, 0.0)
    assert abs(kernel_homodyne_number(10, 10, h) - kernel_homodyne_trapezoid(10, 10, h)) <= 1e-6
    with pytest.raises(CutoffTooSmall):
        kernel_homodyne_number(15, 15, h)


def test_homodyne_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        kernel_homodyne_number(0, 0, HomodyneSetting(0.0, 0.0), r_cutoff=1.5)
    with pytest.raises(InvalidParameter):
        kernel_homodyne_number(0, 0, HomodyneSetting(0.0, 0.0), r_cutoff=-1.0)
    with pytest.raises(InvalidParameter):
        kernel_homodyne_number(0, 0, HomodyneSetting(0.0, 0.0), r_cutoff=np.nan)
    with pytest.raises(InvalidParameter):
        kernel_homodyne_number(-1, 2, HomodyneSetting(0.0, 0.0))


@pytest.mark.parametrize("phi, x_phi", [(np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan), (0.5, -np.inf)])
def test_homodyne_setting_refuses_nonfinite_values(phi, x_phi):
    with pytest.raises(InvalidParameter, match="finite"):
        HomodyneSetting(phi, x_phi)


def test_kernel_scale_validation():
    with pytest.raises(InvalidParameter):
        kn.KernelScale(0.0)
    for flag in (True, np.True_):  # a bool is not a scale, as it is not a count
        with pytest.raises(InvalidParameter):
            kn.KernelScale(flag)
    with pytest.raises(InvalidParameter):
        kernel_number(-1, 0, 0.0, (1.0, 0.0))


@pytest.mark.parametrize("r_max", [None, 4.0, 12.0])
@pytest.mark.parametrize("z", [0.5, 1.0, -1.3, 2.0])
def test_polar_grid_nodes_are_gauss_legendre_over_zero_to_r_max(r_max, z):
    t, w = np.polynomial.legendre.leggauss(64)
    reach = 8.0 / abs(z) if r_max is None else r_max
    r, wr = kn.PolarGrid(r_max).nodes(z)
    assert np.array_equal(r, 0.5 * reach * (t + 1.0))
    assert np.array_equal(wr, 0.5 * reach * w)
