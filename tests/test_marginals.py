import numpy as np
import pytest

from symplectomo import marginals as mg
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import DegenerateSetting, GridTooNarrow, InvalidParameter, UnsupportedVariant

from oracles import circle_settings_by_angle, line_marginal_broadcast, number_state_marginal

MB = 2**20


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


# ---------------------------------------------------------------------------
# the blocked line integral
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(), (1000,), (7, 13)])
@pytest.mark.parametrize("num", [201, 2001])
def test_blocked_line_marginal_is_the_one_shot_broadcast(shape, num):
    # several blocks at either node count, every x integrated as on its own
    state = st.NumberState(3)
    x = np.linspace(-5.0, 5.0, int(np.prod(shape))).reshape(shape)
    setting = mg.QuadratureSetting(0.6, -1.3)
    wigner = lambda q, p: st.wigner(state, q, p)  # noqa: E731
    got = mg.line_marginal(wigner, x, setting, num=num)
    assert np.shape(got) == shape
    assert np.array_equal(got, line_marginal_broadcast(wigner, x, setting, num=num))


def test_line_integral_memory_is_bounded(traced_peak):
    # blocks of 2^14 points keep the working set near 1 MB; 2^16 took 3 MB
    x = np.linspace(-6.0, 6.0, 4096)
    assert traced_peak(mg.marginal_numeric, st.NumberState(1), x, (1.0, 0.0), num=mg.LINE_POINTS) <= 1.5 * MB


@pytest.mark.parametrize(
    "kwargs",
    [{"num": 1}, {"num": 2.5}, {"num": True}]
    + [{"extent": bad} for bad in (np.nan, -1.0, 0.0, np.inf)],
)
@pytest.mark.parametrize("fn", ["line_marginal", "marginal_numeric"])
def test_line_integral_refuses_bad_arguments(fn, kwargs):
    first = (lambda q, p: st.wigner(st.Vacuum(), q, p)) if fn == "line_marginal" else st.Vacuum()
    with pytest.raises(InvalidParameter):
        getattr(mg, fn)(first, np.linspace(-1, 1, 5), (1.0, 0.0), **kwargs)


def test_row_integrals_match_the_trapezoid_rule():
    x = np.linspace(-9.0, 9.0, 1201)
    tomo = mg.tabulate_tomogram(st.EvenCat(1.0, 0.5), mg.circle_settings(16, 1.3), x_grid=x)
    assert np.max(np.abs(tomo.row_integrals() - np.trapezoid(tomo.values, dx=tomo.dx, axis=1))) <= 1e-15


def test_tabulation_memory_is_one_table(traced_peak):
    # 2000 settings: the table plus a working set that does not grow with it
    settings = mg.circle_settings(2000)
    table = len(settings) * 1201 * 8
    assert traced_peak(mg.tabulate_tomogram, st.EvenCat(1.0, 1.0), settings) <= table + 6 * MB


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
    bad_x = x.copy()
    bad_x[-1] = np.inf
    cases = [(bad_x, rows)]
    for bad in (np.nan, np.inf, -np.inf):
        bad_rows = rows.copy()
        bad_rows[1, 3] = bad
        cases.append((x, bad_rows))
    for xs, vs in cases:
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


def test_tomograms_adopt_a_read_only_table_that_owns_its_memory():
    x = np.linspace(-6, 6, 301)
    settings = mg.circle_settings(4)
    owned = np.array(mg.tabulate_tomogram(st.Vacuum(), settings, x_grid=x).values)
    owned.flags.writeable = False
    view = owned[:, :]
    two_settings = tuple(tm.TwoModeSetting(mu=[s.mu, 0.0], nu=[s.nu, 0.0]) for s in settings)
    for make in (
        lambda v: mg.Tomogram(tuple(settings), x, v).values,
        lambda v: tm.TwoModeTomogram(two_settings, x, v).values,
    ):
        assert make(owned) is owned
        for copied in (np.array(owned), view):  # writeable, or a read-only view
            got = make(copied)
            assert not np.shares_memory(got, copied) and np.array_equal(got, owned)


# ---------------------------------------------------------------------------
# one row per distinct marginal
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", range(6))
def test_shared_number_state_rows_match_a_per_setting_line_integral(n, radius):
    # 8 angles at two shifts: each shift's row is evaluated once and shared
    # by every angle, which the 2001-node integral of each setting confirms
    state = st.NumberState(n)
    settings = mg.circle_settings(8, radius) + mg.circle_settings(8, radius, delta=0.4)
    tomo = mg.tabulate_tomogram(state, settings, num=301)
    for s, row in zip(settings, tomo.values):
        oracle = mg.marginal_numeric(state, tomo.x - s.delta, s, num=2001)
        assert np.max(np.abs(row - oracle)) <= 1e-12


@pytest.mark.parametrize("state", [st.Vacuum(), st.Thermal(0.4)])
@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_shared_gaussian_rows_match_the_closed_form_at_each_angle(state, radius):
    settings = mg.circle_settings(8, radius, delta=-0.3)
    tomo = mg.tabulate_tomogram(state, settings, num=301)
    for s, row in zip(settings, tomo.values):
        assert np.max(np.abs(row - mg.marginal_analytic(state, tomo.x - s.delta, s))) <= 1e-12


def test_number_state_circle_tomogram_takes_one_line_integral(count_calls):
    calls = count_calls(mg, "marginal_numeric")
    tomo = mg.tabulate_tomogram(st.NumberState(1), mg.circle_settings(64))
    assert len(calls) == 1
    assert len(tomo.settings) == 64


def test_tomogram_rows_are_shared_only_between_equal_marginals(count_calls):
    # a coherent state differs from phase to phase: a repeated setting shares
    # its row, a new angle or a new shift does not
    calls = count_calls(mg, "marginal_analytic")
    s = mg.QuadratureSetting(0.6, -0.8)
    settings = [s, mg.QuadratureSetting(0.8, 0.6), s, mg.QuadratureSetting(0.6, -0.8, 0.5)]
    tomo = mg.tabulate_tomogram(st.Coherent(0.7 + 0.2j), settings)
    assert len(calls) == 3
    assert np.array_equal(tomo.values[0], tomo.values[2])
    assert not np.array_equal(tomo.values[0], tomo.values[1])


@pytest.mark.parametrize("n", [2.5, True, 0, -1])
def test_circle_settings_needs_an_integer_count(n):
    with pytest.raises(InvalidParameter):
        mg.circle_settings(n)


@pytest.mark.parametrize("num", [2.5, True, 1])
def test_grid_sizes_must_be_integers_of_two_or_more(num):
    s = mg.QuadratureSetting(1.0, 0.0)
    with pytest.raises(InvalidParameter, match="num"):
        mg.tabulate_tomogram(st.Vacuum(), [s], num=num)
    with pytest.raises(InvalidParameter, match="num"):
        mg.default_x_grid(st.Vacuum(), s, num=num)


# ---------------------------------------------------------------------------
# exact antipodes: even circles are built with them, and their rows are copied
# ---------------------------------------------------------------------------


def _setting_bits(s):
    return np.array([s.mu, s.nu, s.delta]).tobytes()


@pytest.mark.parametrize("radius, delta", [(1.0, 0.0), (2.5, -0.3)])
def test_even_circle_second_half_is_the_exact_negative_of_the_first(radius, delta):
    settings = mg.circle_settings(64, radius, delta)
    for k in range(32):
        s, t = settings[k], settings[k + 32]
        assert (t.mu, t.nu, t.delta) == (-s.mu, -s.nu, delta)


@pytest.mark.parametrize("n", [1, 2, 7, 63, 64])
@pytest.mark.parametrize("radius, delta", [(1.0, 0.0), (2.5, -0.3)])
def test_circle_settings_keep_the_angle_formula_where_no_antipode_is_built(n, radius, delta):
    # odd n, and the first half of even n, keep each setting's own cosine and sine
    kept = n // 2 if n % 2 == 0 else n
    got = mg.circle_settings(n, radius, delta)[:kept]
    want = circle_settings_by_angle(n, radius, delta)[:kept]
    assert [_setting_bits(s) for s in got] == [_setting_bits(s) for s in want]


@pytest.mark.parametrize("state", [st.EvenCat(1.0, 0.8), st.Coherent(0.9 - 0.4j)], ids=["cat", "coherent"])
def test_antipodal_rows_are_reversed_copies_that_match_a_full_evaluation(state, count_calls):
    calls = count_calls(mg, "_marginal_any")
    tomo = mg.tabulate_tomogram(state, mg.circle_settings(64))
    assert len(calls) == 32
    for k in range(32):
        assert np.array_equal(tomo.values[k + 32], tomo.values[k, ::-1])
    for s, row in zip(tomo.settings, tomo.values):
        full = mg.marginal_analytic(state, tomo.x - s.delta, s)
        assert np.max(np.abs(row - full)) <= 1e-14 * np.max(full)


EVERY_ROW = {
    # x[::-1] == -x fails on this grid, so a reversed row is not the antipode's row
    "linspace grid": lambda: (mg.circle_settings(64), np.linspace(-9.0, 9.0, 1201)),
    # the antipode of (mu, nu, 0.3) is (-mu, -nu, -0.3), which is not on this circle
    "nonzero delta": lambda: (mg.circle_settings(64, delta=0.3), None),
    "odd n": lambda: (mg.circle_settings(63), None),
}


@pytest.mark.parametrize("case", list(EVERY_ROW))
def test_records_without_exact_antipodes_evaluate_every_row(case, count_calls):
    settings, x_grid = EVERY_ROW[case]()
    state = st.EvenCat(1.0, 0.8)
    calls = count_calls(mg, "_marginal_any")
    tomo = mg.tabulate_tomogram(state, settings, x_grid=x_grid)
    assert len(calls) == len(settings)
    for s, row in zip(settings, tomo.values):
        assert np.array_equal(row, mg.marginal_analytic(state, tomo.x - s.delta, s))


@pytest.mark.parametrize("num", [301, 1200, 1201])
@pytest.mark.parametrize("state", [st.Vacuum(), st.Thermal(0.3), st.Coherent(1.1 + 0.5j), st.EvenCat(1.2, 0.7)])
def test_default_grids_are_exactly_mirror_symmetric(state, num):
    tabulated = mg.tabulate_tomogram(state, mg.circle_settings(8), num=num).x
    single = mg.default_x_grid(state, mg.QuadratureSetting(0.6, -0.8), num)
    for x in (tabulated, single):
        assert np.array_equal(x[::-1], -x)
