import numpy as np
import pytest
from scipy.stats import kstest

import symplectomo.marginals as mg
import symplectomo.measure_sim as ms
from symplectomo import states as st
from symplectomo.errors import DegenerateSetting, EmptySchedule, GridTooNarrow, InvalidParameter, PhaseLockRequired
from symplectomo.kernels import KernelScale
from symplectomo.marginals import QuadratureSetting
from symplectomo.twomode import tilde_marginal_gaussian


# ---------------------------------------------------------------------------
# squeezer map
# ---------------------------------------------------------------------------


def test_squeezer_map_values():
    s = ms.squeezer_to_setting(ms.SqueezerSetting(0.0, 0.0))
    assert (s.mu, s.nu, s.delta) == (1.0, 0.0, 0.0)
    s = ms.squeezer_to_setting(ms.SqueezerSetting(0.0, np.pi))
    assert s.mu == pytest.approx(0.0, abs=1e-15)
    assert s.nu == pytest.approx(1.0)
    s = ms.squeezer_to_setting(ms.SqueezerSetting(np.log(2), 0.0))
    assert s.mu == pytest.approx(0.5)
    assert s.nu == pytest.approx(0.0, abs=1e-15)


def test_squeezer_requires_phase_lock():
    with pytest.raises(PhaseLockRequired):
        ms.squeezer_to_setting(ms.SqueezerSetting(0.5, 0.0, phase_lock=False))
    with pytest.raises(InvalidParameter):
        ms.SqueezerSetting(-0.1, 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ms.SqueezerSetting(np.nan, 0.0),
        lambda: ms.SqueezerSetting(0.1, np.nan),
        lambda: ms.SqueezerSetting(np.inf, 0.0),
        lambda: ms.HeterodyneSettingTwoMode(np.nan, 1.0, 0.0),
        lambda: ms.HeterodyneSettingTwoMode(1.0, 1.0, 0.0, theta2=np.inf),
    ],
    ids=["squeezer s nan", "squeezer theta nan", "squeezer s inf", "heterodyne E1 nan", "heterodyne theta2 inf"],
)
def test_instrument_settings_refuse_non_finite_values(make):
    with pytest.raises(InvalidParameter):
        make()


def test_squeezer_image_radius(rng):
    # reachable settings lie on radii exp(-s) <= 1: pre-attenuation only
    for _ in range(100):
        s = float(rng.uniform(0, 3))
        theta = float(rng.uniform(0, 4 * np.pi))
        setting = ms.squeezer_to_setting(ms.SqueezerSetting(s, theta))
        assert setting.radius == pytest.approx(np.exp(-s), rel=1e-12)
        assert setting.radius <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# heterodyne map
# ---------------------------------------------------------------------------


def test_heterodyne_map_values():
    s = ms.heterodyne_to_setting(ms.HeterodyneSettingTwoMode(1.0, 0.0, 0.0))
    assert np.allclose(s.mu, [1, 0]) and np.allclose(s.nu, [0, 0])
    s = ms.heterodyne_to_setting(ms.HeterodyneSettingTwoMode(1.0, 1.0, np.pi / 2))
    assert np.allclose(s.mu, [0, 0], atol=1e-15)
    assert np.allclose(s.nu, [1, 1])
    with pytest.raises(DegenerateSetting):
        ms.heterodyne_to_setting(ms.HeterodyneSettingTwoMode(0.0, 0.0, 0.3))


def test_heterodyne_amplitudes_set_per_mode_radii(rng):
    for _ in range(50):
        h = ms.HeterodyneSettingTwoMode(*rng.uniform(0.1, 2.0, 2), *rng.uniform(0, 6.3, 3))
        s = ms.heterodyne_to_setting(h)
        assert s.mu[0] ** 2 + s.nu[0] ** 2 == pytest.approx(h.E1**2, rel=1e-12)
        assert s.mu[1] ** 2 + s.nu[1] ** 2 == pytest.approx(h.E2**2, rel=1e-12)


def test_heterodyne_map_rank_four():
    # four instrument parameters reach four independent setting directions
    h0 = np.array([1.1, 0.8, 0.4, 0.9])  # E1, E2, th1, th2 at fixed phi

    def mapped(v):
        s = ms.heterodyne_to_setting(ms.HeterodyneSettingTwoMode(v[0], v[1], 0.35, v[2], v[3]))
        return s.row1

    eps = 1e-6
    J = np.array([(mapped(h0 + eps * e) - mapped(h0 - eps * e)) / (2 * eps) for e in np.eye(4)]).T
    assert np.linalg.matrix_rank(J, tol=1e-8) == 4


def test_heterodyne_pushforward_consistency(rng):
    # the mapped setting's closed-form marginal is the distribution of the
    # measured current: Gaussian with variance u M u^T
    Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    M = Q @ np.diag(rng.uniform(0.4, 1.5, 4)) @ Q.T
    state = st.GaussianTwoMode(M)
    h = ms.HeterodyneSettingTwoMode(1.2, 0.7, 0.5, 0.2, 1.3)
    s = ms.heterodyne_to_setting(h)
    var = float(s.row1 @ M @ s.row1)
    x = np.linspace(-2, 2, 9)
    want = np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    got = tilde_marginal_gaussian(state, x, s)
    assert np.max(np.abs(got - want)) < 1e-6


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_moments_vacuum():
    batch = ms.sample_marginal(st.Vacuum(), QuadratureSetting(1, 0), 100000, seed=7)
    assert abs(batch.outcomes.mean()) < 0.02
    assert abs(batch.outcomes.var() - 0.5) < 0.02
    assert batch.generator == "numpy-PCG64"


def test_sample_determinism():
    a = ms.sample_marginal(st.Vacuum(), QuadratureSetting(1, 0), 2000, seed=42)
    b = ms.sample_marginal(st.Vacuum(), QuadratureSetting(1, 0), 2000, seed=42)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = ms.sample_marginal(st.Vacuum(), QuadratureSetting(1, 0), 2000, seed=43)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_sample_thermal_variance():
    batch = ms.sample_marginal(st.Thermal(0.5), QuadratureSetting(1, 0), 100000, seed=3)
    assert abs(batch.outcomes.var() - 1.0) < 0.03


def test_sample_delta_post_shift():
    a = ms.sample_marginal(st.Thermal(0.5), QuadratureSetting(1, 0, 0.0), 500, seed=9)
    b = ms.sample_marginal(st.Thermal(0.5), QuadratureSetting(1, 0, 2.5), 500, seed=9)
    assert np.allclose(b.outcomes - a.outcomes, 2.5)


@pytest.mark.parametrize(
    "state,setting",
    [
        (st.Vacuum(), QuadratureSetting(1, 0)),
        (st.Thermal(0.5), QuadratureSetting(0.6, -0.8)),
        (st.EvenCat(1.0, 1.0), QuadratureSetting(0, 1)),
    ],
)
def test_sample_kolmogorov_smirnov(state, setting):
    batch = ms.sample_marginal(state, setting, 100000, seed=11)
    x, cdf = ms.tabulated_cdf(state, setting)
    stat = kstest(batch.outcomes, lambda v: np.interp(v, x, cdf)).statistic
    assert stat < 0.01


def test_sample_two_mode_tilde():
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    setting = ms.heterodyne_to_setting(ms.HeterodyneSettingTwoMode(1.0, 1.0, 0.3, 0.1, 1.2))
    batch = ms.sample_marginal(state, setting, 50000, seed=21)
    # variance u M u^T = |u|^2 / 2 = (E1^2 + E2^2)/2 = 1
    assert abs(batch.outcomes.var() - 1.0) < 0.03


def test_sample_grid_too_narrow_propagates():
    # drive the cumulative-coverage guard through a pathologically coarse table
    with pytest.raises(GridTooNarrow):
        ms.tabulated_cdf(st.Thermal(0.5), QuadratureSetting(1, 0), num=8)


def test_campaign_determinism_and_structure():
    sched = [QuadratureSetting(1, 0), (QuadratureSetting(0, 1), 0.25)]
    c1 = ms.sample_campaign(st.Vacuum(), sched, 400, seed=5)
    c2 = ms.sample_campaign(st.Vacuum(), sched, 400, seed=5)
    assert len(c1) == 2
    for b1, b2 in zip(c1, c2):
        assert np.array_equal(b1.outcomes, b2.outcomes)
    assert c1[0].weight == 1.0 and c1[1].weight == 0.25
    # batches use distinct derived streams
    assert not np.array_equal(c1[0].outcomes, c1[1].outcomes)


def test_campaign_empty_schedule():
    with pytest.raises(EmptySchedule):
        ms.sample_campaign(st.Vacuum(), [], 10, seed=0)
    for n in (0, -2):
        with pytest.raises(EmptySchedule):
            ms.importance_schedule(n)


def test_campaign_rejects_nonpositive_sample_count():
    # a non-integer count is refused too
    for n in (-3, 0, 2.5):
        with pytest.raises(InvalidParameter):
            ms.sample_campaign(st.Vacuum(), [QuadratureSetting(1, 0)], n, seed=0)


@pytest.mark.parametrize("r_max", [-1.0, 0.0, np.nan, np.inf])
def test_importance_schedule_refuses_a_bad_r_max(r_max):
    with pytest.raises(InvalidParameter, match="r_max"):
        ms.importance_schedule(8, r_max=r_max)


def test_sample_marginal_is_the_one_setting_campaign():
    setting = QuadratureSetting(0.6, -0.8, 0.5)
    single = ms.sample_marginal(st.Thermal(0.5), setting, 300, seed=4, weight=0.5)
    batch = ms.sample_campaign(st.Thermal(0.5), [(setting, 0.5)], 300, seed=4)[0]
    assert np.array_equal(single.outcomes, batch.outcomes)
    assert (single.setting, single.seed, single.weight) == (batch.setting, batch.seed, batch.weight)


def test_importance_schedule_distribution():
    sched = ms.importance_schedule(4000, KernelScale(1.0), seed=2)
    radii = np.array([s.radius for s, _ in sched])
    weights = np.array([w for _, w in sched])
    assert np.all(weights > 0)
    assert radii.max() <= 8.0
    # density check: weight equals the closed-form plane density at the radius
    z = 1.0
    norm = 2.0 * (1 - np.exp(-16.0))
    assert np.allclose(weights, np.exp(-(z**2) * radii**2 / 4) / (2 * np.pi * norm), rtol=1e-12)
    # mean radius of p(r) ~ r exp(-r^2/4): sqrt(pi) for r_max -> inf
    assert abs(radii.mean() - np.sqrt(np.pi)) < 0.05


def test_batch_weight_validation():
    with pytest.raises(InvalidParameter):
        ms.SampleBatch(QuadratureSetting(1, 0), np.zeros(3), seed=0, weight=0.0)


@pytest.mark.parametrize("seed,weight", [(0, np.inf), (0, np.nan), (-5, 1.0), (1.5, 1.0), (True, 1.0)])
def test_batch_refuses_a_non_finite_weight_and_a_non_count_seed(seed, weight):
    with pytest.raises(InvalidParameter):
        ms.SampleBatch(QuadratureSetting(1, 0), np.zeros(3), seed=seed, weight=weight)


def test_batch_copies_its_outcomes():
    x = np.zeros(3)
    batch = ms.SampleBatch(QuadratureSetting(1, 0), x, 0)
    x[0] = 1.0  # the caller's array stays writeable
    assert batch.outcomes[0] == 0.0
    assert not batch.outcomes.flags.writeable


def test_importance_schedule_stratification_modes():
    # stratified radii hit every quantile cell exactly once
    z = 1.0
    sched = ms.importance_schedule(64, KernelScale(z), seed=8)
    radii = np.sort([s.radius for s, _ in sched])
    scale = 1 - np.exp(-16.0)
    quantiles = (1 - np.exp(-(z**2) * radii**2 / 4)) / scale
    cells = np.floor(quantiles * 64).astype(int)
    assert np.array_equal(np.sort(cells), np.arange(64))
    # independent draws do not (with overwhelming probability)
    sched_iid = ms.importance_schedule(64, KernelScale(z), seed=8, stratified=False)
    radii_iid = np.sort([s.radius for s, _ in sched_iid])
    q_iid = (1 - np.exp(-(z**2) * radii_iid**2 / 4)) / scale
    assert not np.array_equal(np.sort(np.floor(q_iid * 64).astype(int)), np.arange(64))


# ---------------------------------------------------------------------------
# one sampler table per distinct marginal
# ---------------------------------------------------------------------------


def _stream(seed, index):
    """The documented per-batch stream of a campaign: PCG64 seeded by (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def test_phase_scan_of_a_number_state_builds_one_table(count_calls):
    state = st.NumberState(1)
    settings = [QuadratureSetting(np.cos(p), np.sin(p)) for p in np.pi * np.arange(4) / 4]
    # each phase's own table, as a campaign of that phase alone builds it
    own = [ms.tabulated_cdf(state, s) for s in settings]
    tables = count_calls(ms, "tabulated_cdf")
    lines = count_calls(mg, "marginal_numeric")
    batches = ms.sample_campaign(state, settings, 300, seed=6)
    assert len(tables) == 1 and len(lines) == 1
    for idx, ((x, cdf), b) in enumerate(zip(own, batches)):
        assert b.setting is settings[idx]
        want = np.interp(_stream(6, idx).random(300), cdf, x)
        assert np.max(np.abs(b.outcomes - want)) <= 1e-12


@pytest.mark.parametrize("state", [st.Thermal(0.5), st.EvenCat(1.0, 0.9)])
def test_importance_campaign_builds_one_table_per_setting(state, count_calls):
    schedule = ms.importance_schedule(12, seed=3)
    tables = count_calls(ms, "tabulated_cdf")
    ms.sample_campaign(state, schedule, 20, seed=2)
    assert len(tables) == 12


def test_cat_campaign_equals_per_setting_tables_bit_for_bit():
    state = st.EvenCat(1.1, 0.8)
    schedule = ms.importance_schedule(16, seed=5)
    batches = ms.sample_campaign(state, schedule, 200, seed=9)
    for idx, ((s, w), b) in enumerate(zip(schedule, batches)):
        x, cdf = ms.tabulated_cdf(state, s)
        assert np.array_equal(b.outcomes, np.interp(_stream(9, idx).random(200), cdf, x))
        assert (b.setting, b.weight, b.seed) == (s, w, 9)


def test_repeated_settings_keep_batch_order_weights_and_seeds(count_calls):
    state = st.EvenCat(1.0, 1.0)
    a, b = QuadratureSetting(0.6, -0.8), QuadratureSetting(0.0, 1.3)
    shifted = QuadratureSetting(0.6, -0.8, 1.5)  # the marginal of a, translated
    schedule = [(a, 0.5), b, (a, 2.0), (shifted, 0.25), (b, 3.0)]
    tables = count_calls(ms, "tabulated_cdf")
    batches = ms.sample_campaign(state, schedule, 100, seed=4)
    assert len(tables) == 2
    assert [bt.setting for bt in batches] == [a, b, a, shifted, b]
    assert [bt.weight for bt in batches] == [0.5, 1.0, 2.0, 0.25, 3.0]
    assert all(bt.seed == 4 for bt in batches)
    x, cdf = ms.tabulated_cdf(state, a)
    for idx in (0, 2, 3):
        want = np.interp(_stream(4, idx).random(100), cdf, x) + schedule[idx][0].delta
        assert np.array_equal(batches[idx].outcomes, want)
    # a repeated setting still draws a fresh stream
    assert not np.array_equal(batches[0].outcomes, batches[2].outcomes)


@pytest.mark.parametrize("n", [2.5, True])
def test_importance_schedule_needs_an_integer_count(n):
    with pytest.raises(InvalidParameter):
        ms.importance_schedule(n)


@pytest.mark.parametrize("num", [1, 2.5, True])
def test_cdf_table_needs_an_integer_size_of_two_or_more(num):
    with pytest.raises(InvalidParameter, match="num"):
        ms.tabulated_cdf(st.Vacuum(), QuadratureSetting(1, 0), num=num)


@pytest.mark.parametrize("seed", [1.5, -1, True, "3"])
def test_seeds_must_be_nonnegative_integers(seed):
    s = QuadratureSetting(1, 0)
    with pytest.raises(InvalidParameter, match="seed"):
        ms.sample_campaign(st.Vacuum(), [s], 10, seed=seed)
    with pytest.raises(InvalidParameter, match="seed"):
        ms.sample_marginal(st.Vacuum(), s, 10, seed=seed)
    with pytest.raises(InvalidParameter, match="seed"):
        ms.importance_schedule(4, seed=seed)


def test_numpy_integer_seeds_are_recorded_as_ints():
    batch = ms.sample_marginal(st.Vacuum(), QuadratureSetting(1, 0), 10, seed=np.int64(7))
    assert type(batch.seed) is int and batch.seed == 7
