import numpy as np
import pytest

import symplectomo as sy
from symplectomo import states as st
from symplectomo.errors import (
    DegenerateConfig,
    DimMismatch,
    EmptyBatches,
    GridUnderresolved,
    InvalidParameter,
    UnsupportedVariant,
)
from symplectomo.kernels import KernelScale, HomodyneSetting, kernel_homodyne_number
from symplectomo.marginals import QuadratureSetting, Tomogram, circle_settings, tabulate_tomogram
from symplectomo.reconstruct import (
    PolarGrid,
    ReconstructionConfig,
    fidelity,
    reconstruct_from_samples,
    reconstruct_from_tomogram,
    reconstruct_homodyne,
    trace_distance,
    wigner_from_tomogram,
)
from symplectomo.reconstruct import _project

from oracles import wigner_from_tomogram_broadcast


def thermal_coherent_element(lam, alpha, beta):
    eta = (1 - lam) / (1 + lam)
    return 2 * lam / (1 + lam) * np.exp(eta * np.conj(alpha) * beta - abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2)


@pytest.fixture(scope="module")
def vacuum_tomogram():
    return tabulate_tomogram(st.Vacuum(), circle_settings(32), x_grid=np.linspace(-6, 6, 601))


@pytest.fixture(scope="module")
def thermal_tomogram():
    return tabulate_tomogram(st.Thermal(0.5), circle_settings(32), num=1201)


def test_vacuum_reconstruction(vacuum_tomogram):
    cfg = ReconstructionConfig(scale=KernelScale(1.0), dim=6)
    rep = reconstruct_from_tomogram(vacuum_tomogram, cfg)
    rho = rep.rho.entries
    assert abs(rho[0, 0] - 1.0) < 1e-3
    off = rho - np.diag(np.diag(rho))
    assert np.max(np.abs(off)) < 1e-3
    assert abs(rep.rho.coherent_element(0.5, 0.5) - np.exp(-0.25)) < 1e-3
    assert rep.trace_error < 1e-3
    assert rep.hermiticity_residual < 1e-6
    assert rep.settings_used == 32


def test_thermal_reconstruction_coherent_elements(thermal_tomogram):
    cfg = ReconstructionConfig(scale=KernelScale(1.0), dim=12)
    rep = reconstruct_from_tomogram(thermal_tomogram, cfg)
    for alpha, beta in ((0.5, 0.5), (0.3 + 0.4j, -0.2), (1.0, 1j), (0.8, 0.9)):
        got = rep.rho.coherent_element(alpha, beta)
        assert abs(got - thermal_coherent_element(0.5, alpha, beta)) < 1e-3


def test_z_invariance(thermal_tomogram):
    reps = {
        z: reconstruct_from_tomogram(thermal_tomogram, ReconstructionConfig(scale=KernelScale(z), dim=10))
        for z in (0.5, 2.0)
    }
    assert fidelity(reps[0.5].rho, reps[2.0].rho) >= 0.999


def test_delta_shift_invariance():
    settings0 = circle_settings(16)
    settings1 = [QuadratureSetting(s.mu, s.nu, 1.3) for s in settings0]
    grid = np.linspace(-9, 9, 1201)
    t0 = tabulate_tomogram(st.Thermal(0.5), settings0, x_grid=grid)
    t1 = tabulate_tomogram(st.Thermal(0.5), settings1, x_grid=grid + 1.3)
    cfg = ReconstructionConfig(dim=8)
    r0 = reconstruct_from_tomogram(t0, cfg)
    r1 = reconstruct_from_tomogram(t1, cfg)
    assert np.max(np.abs(r0.rho.entries - r1.rho.entries)) < 1e-8


def test_grid_underresolved_raises():
    # support-clipped rows lose most of the norm: the raw trace collapses
    x = np.linspace(-0.4, 0.4, 101)
    settings = circle_settings(8)
    rows = np.array([sy.marginal_analytic(st.Vacuum(), x, s) for s in settings])
    tomo = Tomogram(tuple(settings), x, rows)
    with pytest.raises(GridUnderresolved):
        reconstruct_from_tomogram(tomo, ReconstructionConfig(dim=4))


BAD_CONFIGS = {
    "r_max * z < 6": (DegenerateConfig, lambda tomo: ReconstructionConfig(scale=KernelScale(1.0), grid=PolarGrid(4.0, 64))),
    "dim 0": (DegenerateConfig, lambda tomo: ReconstructionConfig(dim=0)),
    "dim 2.5": (DegenerateConfig, lambda tomo: ReconstructionConfig(dim=2.5)),
    "projection": (DegenerateConfig, lambda tomo: ReconstructionConfig(projection="renormalize")),
    "r_max nan": (DegenerateConfig, lambda tomo: ReconstructionConfig(grid=PolarGrid(np.nan))),
    "r_max inf": (DegenerateConfig, lambda tomo: ReconstructionConfig(grid=PolarGrid(np.inf))),
    "n_r 3": (DegenerateConfig, lambda tomo: ReconstructionConfig(grid=PolarGrid(8.0, 3))),
    "homodyne dim 0": (DegenerateConfig, lambda tomo: reconstruct_homodyne(tomo, dim=0)),
    "homodyne dim 2.5": (DegenerateConfig, lambda tomo: reconstruct_homodyne(tomo, dim=2.5)),
    "homodyne r_cutoff -1": (InvalidParameter, lambda tomo: reconstruct_homodyne(tomo, dim=4, r_cutoff=-1.0)),
    "homodyne r_cutoff nan": (InvalidParameter, lambda tomo: reconstruct_homodyne(tomo, dim=4, r_cutoff=np.nan)),
}


def test_config_validation(vacuum_tomogram):
    accepted = []
    for case, (error, make) in BAD_CONFIGS.items():
        try:
            make(vacuum_tomogram)
        except error:
            continue
        accepted.append(case)
    assert not accepted


WRONG_TYPES = {
    "config scale 1.0": (DegenerateConfig, "scale", lambda tomo: ReconstructionConfig(scale=1.0)),
    "two-mode config scale 1.0": (DegenerateConfig, "scale", lambda tomo: sy.TwoModeConfig(scale=1.0)),
    "config grid (8.0, 64)": (DegenerateConfig, "grid", lambda tomo: ReconstructionConfig(grid=(8.0, 64))),
    "two-mode config dims 5": (DegenerateConfig, "dims", lambda tomo: sy.TwoModeConfig(dims=5)),
    "wigner scale 1.0": (InvalidParameter, "scale", lambda tomo: wigner_from_tomogram(tomo, 0, 0, scale=1.0)),
    "homodyne r_cutoff None": (InvalidParameter, "r_cutoff", lambda tomo: reconstruct_homodyne(tomo, 4, r_cutoff=None)),
    "schedule r_max '8'": (InvalidParameter, "r_max", lambda tomo: sy.importance_schedule(4, r_max="8")),
    "schedule scale 1.0": (InvalidParameter, "scale", lambda tomo: sy.importance_schedule(4, scale=1.0)),
    "tomogram config None": (
        InvalidParameter,
        "ReconstructionConfig",
        lambda tomo: reconstruct_from_tomogram(tomo, None),
    ),
    "samples config None": (
        InvalidParameter,
        "ReconstructionConfig",
        lambda tomo: reconstruct_from_samples([sy.SampleBatch(s, np.zeros(3), seed=0) for s in tomo.settings], None),
    ),
    "tomogram two-mode config": (
        InvalidParameter,
        "ReconstructionConfig",
        lambda tomo: reconstruct_from_tomogram(tomo, sy.TwoModeConfig()),
    ),
    "setting of four numbers": (
        InvalidParameter,
        "setting",
        lambda tomo: tabulate_tomogram(st.Vacuum(), [(1.0, 0.0, 0.0, 1)]),
    ),
    "two-mode setting tuple": (
        InvalidParameter,
        "TwoModeSetting",
        lambda tomo: sy.twomode.tilde_marginal(st.GaussianTwoMode(np.eye(4) * 0.5), 0.0, (1.0, 0.0)),
    ),
    "partial trace of an array": (InvalidParameter, "FockDensityMatrix", lambda tomo: sy.partial_trace(np.eye(4))),
    "two-mode x_grid 'a'": (
        InvalidParameter,
        "x1 grid",
        lambda tomo: sy.twomode.tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), x_grid="a"),
    ),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_arguments_of_the_wrong_type_raise_typed_errors(case, vacuum_tomogram):
    error, name, call = WRONG_TYPES[case]
    with pytest.raises(error, match=name):
        call(vacuum_tomogram)


@pytest.mark.parametrize(
    "call, tabulator",
    [
        (lambda: reconstruct_from_tomogram(st.Thermal(0.5), ReconstructionConfig(dim=4)), "tabulate_tomogram"),
        (lambda: wigner_from_tomogram(st.Thermal(0.5), 0.0, 0.0), "tabulate_tomogram"),
        (
            lambda: sy.reconstruct_two_mode(st.GaussianTwoMode(np.eye(4) * 0.5), sy.TwoModeConfig(dims=(3, 3))),
            "tabulate_tilde_tomogram",
        ),
    ],
    ids=["reconstruct_from_tomogram", "wigner_from_tomogram", "reconstruct_two_mode"],
)
def test_state_input_is_refused(call, tabulator):
    with pytest.raises(InvalidParameter, match=tabulator):
        call()


def test_projection_modes(vacuum_tomogram):
    raw = reconstruct_from_tomogram(vacuum_tomogram, ReconstructionConfig(dim=5, projection="none"))
    clip = reconstruct_from_tomogram(vacuum_tomogram, ReconstructionConfig(dim=5, projection="clip"))
    assert clip.rho.min_eigenvalue() >= -1e-12
    assert raw.projection == "none"


# ---------------------------------------------------------------------------
# sample-based estimator
# ---------------------------------------------------------------------------


def test_samples_estimator_deterministic_and_accurate():
    sched = sy.importance_schedule(32, KernelScale(1.0), seed=11)
    batches = sy.sample_campaign(st.Vacuum(), sched, 3125, seed=5)
    cfg = ReconstructionConfig(dim=4)
    rep1 = reconstruct_from_samples(batches, cfg)
    rep2 = reconstruct_from_samples(batches, cfg)
    assert np.array_equal(rep1.rho.entries, rep2.rho.entries)
    vac = np.diag([1.0, 0, 0, 0])
    assert fidelity(rep1.rho, vac) >= 0.99
    assert rep1.samples_used == 32 * 3125


def test_samples_estimator_empty():
    with pytest.raises(EmptyBatches):
        reconstruct_from_samples([], ReconstructionConfig(dim=4))


def test_samples_estimator_rejects_a_single_setting():
    # repeated batches and a changed delta still sample one (mu, nu) direction
    s = QuadratureSetting(0.8, 0.3)
    batches = sy.sample_campaign(st.Vacuum(), [s, s, QuadratureSetting(0.8, 0.3, 0.5)], 50, seed=2)
    with pytest.raises(InvalidParameter, match="two or more distinct settings"):
        reconstruct_from_samples(batches, ReconstructionConfig(dim=4))


def test_samples_estimator_refuses_two_mode_batches():
    settings = [sy.TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 1.0]), sy.TwoModeSetting(mu=[0.6, 0.8], nu=[-0.8, 0.6])]
    batches = sy.sample_campaign(st.GaussianTwoMode(np.eye(4) * 0.5), settings, 30, seed=4)
    with pytest.raises(UnsupportedVariant, match="two-mode sample reconstruction is not available yet"):
        reconstruct_from_samples(batches, ReconstructionConfig(dim=4))


# ---------------------------------------------------------------------------
# homodyne
# ---------------------------------------------------------------------------


def test_homodyne_vacuum_exact_tomogram():
    tomo = tabulate_tomogram(st.Vacuum(), circle_settings(16), x_grid=np.linspace(-6, 6, 601))
    rep = reconstruct_homodyne(tomo, dim=5)
    assert abs(rep.rho.entries[0, 0] - 1.0) < 1e-2
    assert rep.hermiticity_residual < 1e-6


def test_homodyne_number_state():
    tomo = tabulate_tomogram(st.NumberState(1), circle_settings(16), num=801)
    rep = reconstruct_homodyne(tomo, dim=6)
    assert rep.rho.entries[1, 1].real >= 0.95
    assert rep.rho.entries[0, 0].real <= 0.05


def test_homodyne_matches_symplectic_on_thermal(thermal_tomogram):
    rep_h = reconstruct_homodyne(thermal_tomogram, dim=12)
    rep_s = reconstruct_from_tomogram(thermal_tomogram, ReconstructionConfig(scale=KernelScale(1.0), dim=12))
    assert fidelity(rep_h.rho, rep_s.rho) >= 0.995


def test_homodyne_sampled_phases_half_circle():
    pairs = []
    for j in range(8):
        phi = np.pi * j / 8
        b = sy.sample_marginal(st.Vacuum(), QuadratureSetting(np.cos(phi), np.sin(phi)), 5000, seed=100 + j)
        pairs.append((phi, b.outcomes))
    rep = reconstruct_homodyne(pairs, dim=4)
    assert abs(rep.rho.entries[0, 0] - 1.0) < 0.05
    assert rep.samples_used == 40000


def test_homodyne_elementwise_kernel_end_to_end():
    # assemble rho_00 for the vacuum directly from per-element kernel values
    phis = 2 * np.pi * np.arange(8) / 8
    x = np.linspace(-6, 6, 241)
    w = np.exp(-(x**2)) / np.sqrt(np.pi)
    total = 0.0
    for phi in phis:
        kvals = np.array([kernel_homodyne_number(0, 0, HomodyneSetting(phi, xv)) for xv in x])
        total += (2 * np.pi / 8) * np.trapezoid(w * kvals, x)
    assert abs(total - 1.0) < 1e-2


@pytest.mark.parametrize("r_cutoff", [12.0, 40.0])
def test_homodyne_kernel_elements_reproduce_reconstruct_homodyne(r_cutoff):
    # the per-element kernel on reconstruct_homodyne's radii, integrated
    # against the tomogram rows with the same trapezoid and angle weights;
    # at r_cutoff 40 the radial quadrature is coarse, so only the same radii agree
    tomo = tabulate_tomogram(st.Thermal(0.6), circle_settings(8), num=61)
    dim = 4
    raw = np.zeros((dim, dim), dtype=complex)
    for s, row in zip(tomo.settings, tomo.values):
        for n in range(dim):
            for m in range(dim):
                k = [kernel_homodyne_number(n, m, HomodyneSetting(s.angle, xv), r_cutoff) for xv in tomo.x]
                raw[n, m] += (2 * np.pi / 8) * np.trapezoid(row * np.array(k), tomo.x)
    want = reconstruct_homodyne(tomo, dim, r_cutoff, projection="none").rho.entries
    assert np.max(np.abs(raw - want)) <= 1e-12


# ---------------------------------------------------------------------------
# fidelity / trace distance
# ---------------------------------------------------------------------------


def test_fidelity_basics():
    vac = st.density_matrix(st.Vacuum(), 6)
    one = st.density_matrix(st.NumberState(1), 6)
    th = st.density_matrix(st.Thermal(0.5), 6)
    assert fidelity(vac, vac) == pytest.approx(1.0)
    assert fidelity(vac, one) == pytest.approx(0.0, abs=1e-12)
    # diagonal-state oracle: (sum_n sqrt(p_n q_n))^2 via dense eigendecomposition
    pv = np.diag(vac.entries).real
    pt = np.diag(th.entries).real
    assert fidelity(vac, th) == pytest.approx(float(np.sum(np.sqrt(pv * pt)) ** 2), abs=1e-12)
    assert fidelity(vac, th) == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert fidelity(th, vac) == pytest.approx(fidelity(vac, th), abs=1e-12)


def test_trace_distance_basics():
    vac = st.density_matrix(st.Vacuum(), 4)
    one = st.density_matrix(st.NumberState(1), 4)
    assert trace_distance(vac, vac) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(vac, one) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("measure", [fidelity, trace_distance])
def test_measures_refuse_non_finite_matrices(measure, bad):
    rho = st.density_matrix(st.Vacuum(), 3).entries
    with pytest.raises(InvalidParameter, match="finite"):
        measure(np.full((3, 3), bad), rho)
    with pytest.raises(InvalidParameter, match="finite"):
        measure(rho, np.full((3, 3), bad))


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        fidelity(st.density_matrix(st.Vacuum(), 4), st.density_matrix(st.Vacuum(), 5))
    with pytest.raises(DimMismatch):
        trace_distance(st.density_matrix(st.Vacuum(), 4), st.density_matrix(st.Vacuum(), 5))


# ---------------------------------------------------------------------------
# Wigner inversion
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cat_tomogram_64():
    return tabulate_tomogram(st.EvenCat(1.0, 0.5), circle_settings(64))


def test_wigner_from_tomogram_matches_the_broadcast(cat_tomogram_64):
    g = np.linspace(-2.5, 2.5, 41)
    q, p = np.meshgrid(g, g)
    got = wigner_from_tomogram(cat_tomogram_64, q.ravel(), p.ravel())
    assert np.max(np.abs(got - wigner_from_tomogram_broadcast(cat_tomogram_64, q.ravel(), p.ravel()))) <= 1e-12
    assert np.array_equal(wigner_from_tomogram(cat_tomogram_64, q, p), got.reshape(q.shape))
    point = wigner_from_tomogram(cat_tomogram_64, 0.3, -0.2)
    assert isinstance(point, float)
    assert abs(point - wigner_from_tomogram_broadcast(cat_tomogram_64, 0.3, -0.2)[0]) <= 1e-12


def test_wigner_from_tomogram_memory_is_bounded(cat_tomogram_64, traced_peak):
    g = np.linspace(-2.5, 2.5, 41)
    q, p = np.meshgrid(g, g)
    assert traced_peak(wigner_from_tomogram, cat_tomogram_64, q.ravel(), p.ravel()) <= 16 * 2**20


def test_wigner_from_tomogram_quick(thermal_tomogram):
    for q, p in ((0.0, 0.0), (1.0, -0.5), (0.7, 0.7)):
        got = wigner_from_tomogram(thermal_tomogram, q, p)
        assert abs(got - st.wigner(st.Thermal(0.5), q, p)) < 1e-4


HALF_CIRCLE_STATES = {"vacuum": st.Vacuum(), "coherent": st.Coherent(0.8 + 0.3j), "cat": st.EvenCat(1.0, 1.0)}


@pytest.mark.parametrize("name", list(HALF_CIRCLE_STATES))
def test_half_circle_tomogram_matches_the_full_circle(name):
    # x_(phi+pi) = -x_phi: 16 phases over half the circle hold all of the
    # 32-phase circle, also when they straddle the angle 0
    state = HALF_CIRCLE_STATES[name]
    x = np.linspace(-12, 12, 1201)
    settings = circle_settings(32)
    full = tabulate_tomogram(state, settings, x_grid=x)
    cfg = ReconstructionConfig(dim=12)
    q, p = np.linspace(-2, 2, 5), np.linspace(-1.5, 2.5, 5)
    for half_settings in (settings[:16], settings[24:] + settings[:8]):
        half = tabulate_tomogram(state, half_settings, x_grid=x)
        for rebuild in (lambda t: reconstruct_from_tomogram(t, cfg), lambda t: reconstruct_homodyne(t, dim=12)):
            assert np.max(np.abs(rebuild(half).rho.entries - rebuild(full).rho.entries)) <= 1e-12
        assert np.max(np.abs(wigner_from_tomogram(half, q, p) - wigner_from_tomogram(full, q, p))) <= 1e-12


def _circle_record(state, n_phases, radius=1.0, delta=0.0):
    phases = np.pi * np.arange(n_phases) / n_phases
    settings = [QuadratureSetting(radius * np.cos(p), radius * np.sin(p), delta) for p in phases]
    return sy.sample_campaign(state, settings, 2000, seed=17)


def test_circle_sample_record_matches_reconstruct_homodyne():
    batches = _circle_record(st.Coherent(0.5 + 0.2j), 4)
    got = reconstruct_from_samples(batches, ReconstructionConfig(dim=6, grid=PolarGrid(12.0, 64)))
    want = reconstruct_homodyne([(b.setting.angle, b.outcomes) for b in batches], dim=6)
    assert np.max(np.abs(got.rho.entries - want.rho.entries)) <= 1e-13
    assert (got.settings_used, got.samples_used) == (want.settings_used, want.samples_used) == (4, 8000)


def test_circle_sample_record_scales_with_its_radius_and_delta():
    # w(x, r u) = (r0/r) w(x r0/r, r0 u): a radius-2, delta-0.3 record is its unit record rescaled
    batches = _circle_record(st.Thermal(0.6), 5, radius=2.0, delta=0.3)
    unit = [
        sy.SampleBatch(QuadratureSetting(b.setting.mu / 2, b.setting.nu / 2), (b.outcomes - 0.3) / 2, b.seed)
        for b in batches
    ]
    cfg = ReconstructionConfig(dim=6)
    got = reconstruct_from_samples(batches, cfg).rho.entries
    assert np.max(np.abs(got - reconstruct_from_samples(unit, cfg).rho.entries)) <= 1e-13


def test_circle_sample_record_pools_batches_of_one_angle():
    settings = [QuadratureSetting(np.cos(p), np.sin(p)) for p in np.pi * np.arange(4) / 4]
    batches = sy.sample_campaign(st.Vacuum(), settings + settings[:1], 500, seed=1)
    first, *rest, again = batches
    pooled = [sy.SampleBatch(first.setting, np.concatenate([first.outcomes, again.outcomes]), first.seed), *rest]
    cfg = ReconstructionConfig(dim=4)
    got = reconstruct_from_samples(batches, cfg)
    want = reconstruct_from_samples(pooled, cfg)
    assert np.max(np.abs(got.rho.entries - want.rho.entries)) <= 1e-12
    assert got.samples_used == want.samples_used == 2500


def test_circle_sample_record_counts_settings_not_batches():
    # five batches measure four angles: both entry points report the four pooled settings
    settings = [QuadratureSetting(np.cos(p), np.sin(p)) for p in np.pi * np.arange(4) / 4]
    batches = sy.sample_campaign(st.Vacuum(), settings + settings[:1], 500, seed=1)
    assert reconstruct_from_samples(batches, ReconstructionConfig(dim=4)).settings_used == 4
    pairs = [(b.setting.angle, b.outcomes) for b in batches]
    assert reconstruct_homodyne(pairs, dim=4).settings_used == 4


def test_homodyne_empty_and_cutoff_errors():
    with pytest.raises(EmptyBatches):
        reconstruct_homodyne([], dim=4)
    with pytest.raises(EmptyBatches):
        reconstruct_homodyne([(0.0, np.array([]))], dim=4)
    tomo = tabulate_tomogram(st.Vacuum(), circle_settings(8), x_grid=np.linspace(-6, 6, 301))
    from symplectomo.errors import CutoffTooSmall

    with pytest.raises(CutoffTooSmall):
        reconstruct_homodyne(tomo, dim=4, r_cutoff=1.5)


def test_tomogram_nonuniform_angles_reweighted():
    # Voronoi arc weights keep the reconstruction accurate when the phase
    # spacing is uneven
    phis = np.sort((2 * np.pi * np.arange(24) / 24 + 0.35 * np.sin(np.arange(24))) % (2 * np.pi))
    settings = [QuadratureSetting(np.cos(p), np.sin(p)) for p in phis]
    tomo = tabulate_tomogram(st.Thermal(0.5), settings, num=1201)
    rep = reconstruct_from_tomogram(tomo, ReconstructionConfig(dim=8))
    eta = 1 / 3
    exact = (1 - eta) * eta ** np.arange(8)
    assert np.max(np.abs(np.diag(rep.rho.entries).real - exact)) < 1e-3


def test_tomogram_mixed_radii_rejected():
    settings = circle_settings(4) + circle_settings(4, radius=2.0)
    tomo = tabulate_tomogram(st.Vacuum(), settings, num=801)
    with pytest.raises(DegenerateConfig):
        reconstruct_from_tomogram(tomo, ReconstructionConfig(dim=4))


def test_cat_z_invariance_and_exact_match():
    cat = st.EvenCat(1.0, 1.0)
    tomo = tabulate_tomogram(cat, circle_settings(64), num=1201)
    reps = {}
    for z in (0.5, 2.0):
        cfg = ReconstructionConfig(scale=KernelScale(z), dim=14, grid=PolarGrid(None, 96))
        reps[z] = reconstruct_from_tomogram(tomo, cfg)
    assert fidelity(reps[0.5].rho, reps[2.0].rho) >= 0.999
    assert fidelity(reps[0.5].rho, st.density_matrix(cat, 14)) >= 0.9999


def test_clip_projection_is_trace_preserving():
    tomo = tabulate_tomogram(st.EvenCat(1.0, 1.0), circle_settings(8), num=1201)
    rep = reconstruct_from_tomogram(tomo, ReconstructionConfig(dim=12, projection="clip"))
    assert abs(rep.rho.trace() - 1.0) < 1e-12
    assert rep.rho.min_eigenvalue() >= -1e-12
    state = st.density_matrix(st.Coherent(0.5 + 0.3j), 12).entries
    state = state / np.trace(state)
    assert np.max(np.abs(_project(state, "clip") - state)) < 1e-12


def test_homodyne_rejects_any_empty_batch():
    with pytest.raises(EmptyBatches):
        reconstruct_homodyne([(0.0, [0.1, -0.2, 0.3]), (1.0, [])], dim=4)


@pytest.mark.parametrize(
    "data",
    [
        [(0.0, [np.nan, 1.0]), (1.0, [0.2])],
        [(0.0, [0.1, -0.2]), (1.0, [np.inf])],
        [(np.nan, [0.1, -0.2]), (1.0, [0.2])],
        [(0.0,)],
        [(0.0, [0.1], [0.2])],
        [(0.0, [[0.1, 0.2], [0.3]])],
    ],
)
def test_homodyne_refuses_malformed_or_nonfinite_pairs(data):
    with pytest.raises(InvalidParameter):
        reconstruct_homodyne(data, dim=4)


def test_homodyne_rejects_unknown_projection(vacuum_tomogram):
    with pytest.raises(DegenerateConfig, match="bogus"):
        reconstruct_homodyne(vacuum_tomogram, dim=4, projection="bogus")
    with pytest.raises(DegenerateConfig, match="bogus"):
        reconstruct_homodyne([(0.0, [0.1, -0.2, 0.3]), (1.0, [0.2])], dim=4, projection="bogus")
    with pytest.raises(DegenerateConfig, match="bogus"):
        sy.TwoModeConfig(projection="bogus")


WIGNER_REFUSALS = {
    "r_max nan": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid(np.nan))),
    "r_max inf": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid(np.inf))),
    "r_max * z < 6": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid(1.0))),
    "n_r 0": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid(8.0, 0))),
    "n_r 2.5": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid(8.0, 2.5))),
    "r_max '8'": (DegenerateConfig, lambda tomo: wigner_from_tomogram(tomo, 0.0, 0.0, grid=PolarGrid("8"))),
    "q nan": (InvalidParameter, lambda tomo: wigner_from_tomogram(tomo, np.nan, 0.0)),
    "p inf": (InvalidParameter, lambda tomo: wigner_from_tomogram(tomo, np.zeros(3), [0.0, np.inf, 0.0])),
    "shapes (2,) (3,)": (InvalidParameter, lambda tomo: wigner_from_tomogram(tomo, np.zeros(2), np.zeros(3))),
}


@pytest.mark.parametrize("case", list(WIGNER_REFUSALS))
def test_wigner_from_tomogram_refuses_bad_input(case):
    error, call = WIGNER_REFUSALS[case]
    tomo = tabulate_tomogram(st.Vacuum(), circle_settings(16), x_grid=np.linspace(-6, 6, 301))
    with pytest.raises(error):
        call(tomo)


@pytest.mark.parametrize(
    "call",
    [
        lambda: st.density_matrix(st.Vacuum(), np.nan),
        lambda: st.density_matrix(st.Vacuum(), np.inf),
        lambda: fidelity(np.eye(2, 3), np.eye(2, 3)),
        lambda: fidelity(np.ones(3), np.ones(3)),
        lambda: trace_distance(np.eye(2, 3), np.eye(2, 3)),
        lambda: trace_distance(np.ones(3), np.ones(3)),
    ],
    ids=["dim-nan", "dim-inf", "fidelity-2x3", "fidelity-1d", "trace-distance-2x3", "trace-distance-1d"],
)
def test_malformed_density_inputs_are_refused(call):
    with pytest.raises(InvalidParameter):
        call()
