import numpy as np
import pytest

from symplectomo import marginals as mg
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import DegenerateSetting, GridTooNarrow, InvalidParameter, UnsupportedVariant

from oracles import number_state_marginal


def test_vacuum_marginal_value_and_normalization():
    s = mg.QuadratureSetting(1.0, 0.0)
    assert mg.marginal_analytic(st.Vacuum(), 0.0, s) == pytest.approx(1 / np.sqrt(np.pi))
    x = np.linspace(-8, 8, 2001)
    w = mg.marginal_analytic(st.Vacuum(), x, mg.QuadratureSetting(0.3, -1.1))
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)


def test_thermal_marginal_closed_form():
    lam = 0.7
    s = mg.QuadratureSetting(1.0, 0.0)
    assert mg.marginal_analytic(st.Thermal(lam), 0.0, s) == pytest.approx(np.sqrt(lam / np.pi))
    # general setting at x = 1
    s2 = mg.QuadratureSetting(1.0, 1.0)
    got = mg.marginal_analytic(st.Thermal(0.5), 1.0, s2)
    assert got == pytest.approx(np.sqrt(0.5 / (2 * np.pi)) * np.exp(-0.25))


def test_coherent_marginal_center():
    alpha = 0.8 + 0.5j
    s = mg.QuadratureSetting(0.6, -0.8)
    center = np.sqrt(2) * (s.mu * alpha.real + s.nu * alpha.imag)
    x = np.linspace(center - 5, center + 5, 1501)
    w = mg.marginal_analytic(st.Coherent(alpha), x, s)
    assert x[np.argmax(w)] == pytest.approx(center, abs=0.01)
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)


def test_number_state_has_no_closed_form():
    with pytest.raises(UnsupportedVariant):
        mg.marginal_analytic(st.NumberState(1), 0.0, mg.QuadratureSetting(1, 0))


@pytest.mark.parametrize("setting", [(1.0, 0.0), (0.0, 1.0), (0.7, 0.7), (-0.4, 1.3)])
def test_numeric_matches_analytic_vacuum(setting):
    s = mg.QuadratureSetting(*setting)
    x = np.array([-2.0, -0.5, 0.0, 0.7, 1.9])
    wa = mg.marginal_analytic(st.Vacuum(), x, s)
    wn = mg.marginal_numeric(st.Vacuum(), x, s)
    assert np.max(np.abs(wa - wn)) < 1e-8


@pytest.mark.parametrize(
    "state",
    [st.Thermal(0.5), st.Thermal(0.3), st.Coherent(1.0 + 0.5j), st.EvenCat(1.0, 1.0), st.EvenCat(0.6, 1.3)],
)
def test_numeric_matches_analytic_other_states(state):
    for s in (mg.QuadratureSetting(1.0, 0.0), mg.QuadratureSetting(0.0, 1.0), mg.QuadratureSetting(0.8, -1.1)):
        x = np.linspace(-2.5, 2.5, 11)
        wa = mg.marginal_analytic(state, x, s)
        wn = mg.marginal_numeric(state, x, s)
        assert np.max(np.abs(wa - wn)) < 1e-6


def test_cat_marginal_rescaling_bridge():
    # the same distribution in the half-variance quadrature convention:
    # w(x) = printed(x / sqrt 2) / sqrt 2 with the commonly printed cat formula
    a, b = 1.0, 1.0

    def printed(x, mu, nu):
        r2 = mu**2 + nu**2
        K = 1 + np.cos(2 * a * b) * np.exp(-2 * b**2)
        return (
            np.sqrt(2 / np.pi)
            / np.sqrt(r2)
            / K
            * np.exp(-2 * ((x - mu * a) ** 2 + b**2 * nu**2) / r2)
            * (np.cosh(4 * nu * b * (x - mu * a) / r2) + np.cos(2 * b * (2 * mu * x - a * (mu**2 - nu**2)) / r2))
        )

    x = np.linspace(-3, 3, 41)
    for mu, nu in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8)):
        ours = mg.marginal_analytic(st.EvenCat(a, b), x, mg.QuadratureSetting(mu, nu))
        bridge = printed(x / np.sqrt(2), mu, nu) / np.sqrt(2)
        assert np.max(np.abs(ours - bridge)) < 1e-12


def test_rotated_quadrature_reduces_to_homodyne_distribution():
    # |1> on the unit circle: density 2 x^2 e^{-x^2} / sqrt(pi), any phase
    x = np.linspace(-4, 4, 25)
    expected = 2 * x**2 * np.exp(-(x**2)) / np.sqrt(np.pi)
    for phi in (0.0, 0.9, 2.2):
        s = mg.QuadratureSetting(np.cos(phi), np.sin(phi))
        wn = mg.marginal_numeric(st.NumberState(1), x, s)
        assert np.max(np.abs(wn - expected)) < 1e-8


def test_scaling_homogeneity():
    s = mg.QuadratureSetting(0.8, -0.5)
    x = np.linspace(-2, 2, 9)
    for lam in (0.5, 2.0, -1.3):
        scaled = mg.QuadratureSetting(lam * s.mu, lam * s.nu)
        w1 = abs(lam) * mg.marginal_analytic(st.EvenCat(1.0, 0.7), lam * x, scaled)
        w0 = mg.marginal_analytic(st.EvenCat(1.0, 0.7), x, s)
        assert np.max(np.abs(w1 - w0)) < 1e-8


def test_parity():
    s = mg.QuadratureSetting(0.8, -0.5)
    x = np.linspace(-2, 2, 9)
    w0 = mg.marginal_analytic(st.Thermal(0.6), x, s)
    w1 = mg.marginal_analytic(st.Thermal(0.6), -x, s.negated())
    assert np.max(np.abs(w0 - w1)) < 1e-10


def test_degenerate_setting_rejected():
    with pytest.raises(DegenerateSetting):
        mg.QuadratureSetting(0.0, 0.0)


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------


def test_tomogram_circle_normalization():
    tomo = mg.tabulate_tomogram(st.Vacuum(), mg.circle_settings(8), x_grid=np.linspace(-6, 6, 601))
    assert tomo.values.shape == (8, 601)
    assert np.max(np.abs(tomo.row_integrals() - 1.0)) < 1e-6


def test_tomogram_thermal_variance():
    lam = 0.5
    tomo = mg.tabulate_tomogram(st.Thermal(lam), [mg.QuadratureSetting(1.0, 0.0)])
    var = np.trapezoid(tomo.values[0] * tomo.x**2, tomo.x)
    assert var == pytest.approx(1 / (2 * lam), abs=1e-4)


def test_tomogram_cat_row_matches_closed_form():
    state = st.EvenCat(1.0, 1.0)
    setting = mg.QuadratureSetting(0.0, 1.0)
    tomo = mg.tabulate_tomogram(state, [setting])
    expected = mg.marginal_analytic(state, tomo.x, setting)
    assert np.max(np.abs(tomo.values[0] - expected)) < 1e-8
    # the row shows interference oscillation: multiple local maxima
    row = tomo.values[0]
    local_max = np.sum((row[1:-1] > row[:-2]) & (row[1:-1] > row[2:]))
    assert local_max >= 2


def test_tomogram_shift_recorded_in_raw_coordinates():
    state = st.Thermal(0.5)
    plain = mg.tabulate_tomogram(state, [mg.QuadratureSetting(1.0, 0.0)], x_grid=np.linspace(-8, 8, 801))
    shifted = mg.tabulate_tomogram(
        state, [mg.QuadratureSetting(1.0, 0.0, 1.5)], x_grid=np.linspace(-8, 8, 801) + 1.5
    )
    assert np.allclose(plain.values, shifted.values)


def test_grid_too_narrow():
    with pytest.raises(GridTooNarrow):
        mg.tabulate_tomogram(st.Thermal(0.3), [mg.QuadratureSetting(1.0, 0.0)], x_grid=np.linspace(-1, 1, 101))


def test_numeric_fallback_for_number_state():
    tomo = mg.tabulate_tomogram(st.NumberState(1), [mg.QuadratureSetting(1.0, 0.0)], num=801)
    expected = 2 * tomo.x**2 * np.exp(-tomo.x**2) / np.sqrt(np.pi)
    assert np.max(np.abs(tomo.values[0] - expected)) < 1e-7


@pytest.mark.parametrize("setting", [(1.0, 0.0, 0.0), (0.3, -1.7, 0.4), (2.5, 0.4, 0.0)])
def test_tabulation_line_integral_matches_exact_number_marginal(setting):
    # the 201-node line of the tabulation path against the exact Hermite-function
    # marginal and against the default 2001-node line integral
    s = mg.QuadratureSetting(*setting)
    for n in range(15):
        state = st.NumberState(n)
        x = mg.default_x_grid(state, s, 401)
        exact = number_state_marginal(n, x, s.radius)
        fast = mg._marginal_any(state, x, s)
        slow = mg.marginal_numeric(state, x, s)
        peak = exact.max()
        if n <= 10:
            assert np.max(np.abs(fast - exact)) < 1e-13 * peak
            assert np.max(np.abs(fast - slow)) < 1e-13 * peak
        else:
            assert np.max(np.abs(fast - exact)) <= 2 * np.max(np.abs(slow - exact))


def test_tomogram_container_validation():
    x = np.linspace(-1, 1, 11)
    vals = np.full((1, 11), 0.5)
    with pytest.raises(InvalidParameter):
        mg.Tomogram((mg.QuadratureSetting(1, 0),), x**2, vals)  # nonuniform grid
    with pytest.raises(InvalidParameter):
        mg.Tomogram((mg.QuadratureSetting(1, 0),), x, -vals)  # negative densities


def test_cat_marginal_extreme_amplitude_stays_finite():
    # the folded-exponent form survives amplitudes where a bare cosh overflows
    state = st.EvenCat(0.0, 15.0)
    s = mg.QuadratureSetting(0.0, 1.0)
    x = mg.default_x_grid(state, s)
    w = mg.marginal_analytic(state, x, s)
    assert np.all(np.isfinite(w))
    assert np.trapezoid(w, x) == pytest.approx(1.0, abs=1e-9)


def test_tomogram_rejects_nonfinite_data():
    x = np.linspace(-3, 3, 7)
    settings = mg.circle_settings(2)
    rows = np.full((2, 7), 0.1)
    bad_rows = rows.copy()
    bad_rows[1, 3] = np.nan
    bad_x = x.copy()
    bad_x[-1] = np.inf
    for xs, vs in ((x, bad_rows), (bad_x, rows)):
        with pytest.raises(InvalidParameter):
            mg.Tomogram(tuple(settings), xs, vs)


EMPTY_TOMOGRAMS = {
    "one mode": lambda x: mg.Tomogram((), x, np.empty((0, x.size))),
    "two modes": lambda x: tm.TwoModeTomogram((), x, np.empty((0, x.size))),
}


@pytest.mark.parametrize("case", list(EMPTY_TOMOGRAMS))
def test_tomogram_without_settings_is_refused(case):
    with pytest.raises(InvalidParameter, match="at least one setting"):
        EMPTY_TOMOGRAMS[case](np.linspace(-3, 3, 7))


def test_tomograms_copy_the_callers_arrays():
    x = np.linspace(-6, 6, 301)
    tabulated = mg.tabulate_tomogram(st.Vacuum(), mg.circle_settings(4), x_grid=x)
    values = np.array(tabulated.values)
    one = mg.Tomogram(tabulated.settings, x, values)
    two = tm.TwoModeTomogram((tm.TwoModeSetting(mu=np.array([1.0, 0.0]), nu=np.zeros(2)),), x, values[:1])
    plane = tm.TwoModeTomogram(two.settings, x[:3], np.full((1, 3, 2), 0.1), x2=x[:2])
    assert x.flags.writeable and values.flags.writeable
    for own in (tabulated.x, tabulated.values, one.x, one.values, two.x1, two.values, plane.x1, plane.x2, plane.values):
        assert not own.flags.writeable
