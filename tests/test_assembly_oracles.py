"""The polar assemblers and the homodyne and campaign estimators against their slow paths."""

import numpy as np
import pytest

import symplectomo as sy
import symplectomo.io as tio
from symplectomo import cli
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import InvalidParameter
from symplectomo.kernels import KernelScale, PolarGrid, displacement_matrix
from symplectomo.marginals import _centred_grid
from symplectomo.measure_sim import importance_schedule, sample_campaign
from symplectomo.reconstruct import _assemble_rho, _circle_chi, _row_fourier, reconstruct_homodyne

from oracles import (
    _assemble_two_mode,
    format_float,
    assemble_rho_dense,
    homodyne_trapezoid,
    reconstruct_two_mode_vector,
    row_fourier_complex,
    row_fourier_two_tables,
    row_fourier_weighted,
    samples_loop,
    tilde_rows_loop,
    two_mode_grid_loop,
    two_mode_tomogram_loop,
)


def _hermitized(raw):
    return 0.5 * (raw + raw.conj().T)


@pytest.mark.parametrize(
    "dim, z, n_phi, n_r",
    [(12, 1.0, 64, 64), (12, -1.3, 64, 64), (40, 1.0, 64, 64), (80, 1.0, 16, 32)],
)
def test_one_mode_assembler_matches_dense_table(dim, z, n_phi, n_r):
    tomo = sy.tabulate_tomogram(st.EvenCat(1.0, 0.8), sy.circle_settings(n_phi), num=801)
    r, wr = PolarGrid(None, n_r).nodes(z)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)
    radial = displacement_matrix(z * r / np.sqrt(2), dim)
    fast = _assemble_rho(chi, phis, phi_weights, radial, wr * r * (z**2 / (2 * np.pi)))
    dense = assemble_rho_dense(chi, phis, phi_weights, r, wr, KernelScale(z), dim)
    assert np.max(np.abs(fast - dense)) <= 1e-12


def test_row_fourier_matches_complex_phase_table():
    rng = np.random.default_rng(11)
    x = np.linspace(-7.0, 7.0, 401)
    values = rng.random((37, x.size))
    deltas = rng.uniform(-1.0, 1.0, 37)
    freqs = np.linspace(-3.0, 5.0, 24)
    oracle = row_fourier_complex(values, x, deltas, freqs)
    assert np.max(np.abs(_row_fourier(values, x, deltas, freqs) - oracle)) <= 1e-12


@pytest.fixture(scope="module")
def hopf_cat_tomogram():
    return tm.tabulate_tilde_tomogram(st.TwoModeCat(np.array([0.8 + 0.3j, -0.4 + 0.6j])))


def test_row_fourier_matches_the_weighted_copy(hopf_cat_tomogram):
    # the weights ride on the cos and sin tables instead of a weighted copy of the rows
    tomo = hopf_cat_tomogram
    deltas = np.random.default_rng(12).uniform(-1.0, 1.0, len(tomo.settings))
    freqs = np.linspace(0.0, 8.0, 48)
    fast = _row_fourier(tomo.values, tomo.x1, deltas, freqs)
    oracle = row_fourier_weighted(tomo.values, tomo.x1, deltas, freqs)
    assert np.all(np.max(np.abs(fast - oracle), axis=1) <= 1e-14 * np.max(np.abs(oracle), axis=1))


ROW_FOURIER_GRIDS = {
    "mirrored, odd": _centred_grid(0.0, 6.5, 1201),
    "mirrored, even": _centred_grid(0.0, 6.5, 1200),
    "off-centre": _centred_grid(0.4, 6.5, 1201),
}


@pytest.mark.parametrize("rows", [3, 64, 1728])
@pytest.mark.parametrize("grid", sorted(ROW_FOURIER_GRIDS))
def test_row_fourier_matches_the_whole_grid_tables_bit_for_bit(grid, rows):
    # the half-grid mirror and the skipped zero-delta phase change no bit: the
    # tables are those of evaluating every point, each multiplied as one GEMM
    x = ROW_FOURIER_GRIDS[grid]
    assert np.array_equal(x[::-1], -x) == grid.startswith("mirrored")
    rng = np.random.default_rng(rows)
    values = rng.random((rows, x.size))
    for n_k in (1, 2, 48, 65):
        freqs = np.linspace(-0.5, 8.0, n_k)
        for deltas in (np.zeros(rows), rng.uniform(-1.0, 1.0, rows)):
            assert np.array_equal(_row_fourier(values, x, deltas, freqs), row_fourier_two_tables(values, x, deltas, freqs))


def test_row_fourier_memory_is_bounded(hopf_cat_tomogram, traced_peak):
    tomo = hopf_cat_tomogram
    freqs = np.linspace(0.0, 8.0, 48)
    assert traced_peak(_row_fourier, tomo.values, tomo.x1, np.zeros(len(tomo.settings)), freqs) <= 6 * 2**20


def _off_grid_settings(n, seed):
    rng = np.random.default_rng(seed)
    rows, deltas = rng.normal(size=(n, 4)), rng.normal(size=(n, 2))
    return [tm.TwoModeSetting(mu=u[:2], nu=u[2:], delta=d) for u, d in zip(rows, deltas)]


_OFF_DIAGONAL_M = np.array(
    [[0.7, 0.1, 0.2, 0.0], [0.1, 0.6, 0.0, -0.15], [0.2, 0.0, 0.8, 0.05], [0.0, -0.15, 0.05, 0.55]]
)
CLOSED_FORM_STATES = {
    "gauss-off-diagonal": st.GaussianTwoMode(_OFF_DIAGONAL_M, means=[0.3, -0.2, 0.1, 0.4]),
    "cat-complex": st.TwoModeCat(np.array([0.8 + 0.3j, -0.4 + 0.6j])),
}


@pytest.mark.parametrize("state", CLOSED_FORM_STATES.values(), ids=CLOSED_FORM_STATES.keys())
def test_stacked_closed_forms_match_per_setting_loop_off_the_hopf_grid(state):
    # 150 settings span three chunks of the stacked evaluation, the last one partial
    settings = _off_grid_settings(150, seed=4)
    tomo = tm.tabulate_tilde_tomogram(state, settings=settings, num=401)
    assert np.max(np.abs(tomo.values - tilde_rows_loop(state, tomo.x1, settings))) <= 1e-13
    for s, row in zip(settings[:6], tomo.values):
        assert np.max(np.abs(row - tm._tilde_from_characteristic(state, tomo.x1 - s.delta[0], s))) <= 1e-12


@pytest.mark.parametrize("state", CLOSED_FORM_STATES.values(), ids=CLOSED_FORM_STATES.keys())
def test_default_hopf_tabulation_matches_per_setting_loop(state):
    tomo = tm.tabulate_tilde_tomogram(state)
    assert np.max(np.abs(tomo.values - tilde_rows_loop(state, tomo.x1, tomo.settings))) <= 1e-13


def test_two_mode_assembler_matches_loop_on_tomogram():
    state = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2))
    tomo = tm.tabulate_tilde_tomogram(state, num=601, n_t=6, n_psi=10)  # n_psi >= 2 max(dims) resolves it
    cfg = tm.TwoModeConfig(dims=(4, 3), n_r=24)
    got = tm.reconstruct_two_mode(tomo, cfg).rho.entries
    weights = tm.hopf_directions(6, 10)[1]
    assert np.max(np.abs(got - _hermitized(two_mode_tomogram_loop(tomo, weights, cfg)))) <= 1e-10


def test_two_mode_assembler_matches_loop_on_state():
    # the exact characteristic on a non-square Hopf grid (n_t != n_psi)
    state = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2))
    cfg = tm.TwoModeConfig(dims=(4, 3), n_r=24)
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(cfg.scale.z)
    dirs, weights = tm.hopf_directions(6, 8)
    chi = tm.characteristic_two_mode(state, -R[None, :, None] * dirs[:, None, :])
    got = tm._assemble_hopf(chi, tm._hopf_grid(6, 8), R, wR, cfg)
    oracle = two_mode_grid_loop(lambda u: tm.characteristic_two_mode(state, -u), cfg, 6, 8)
    assert np.max(np.abs(got - oracle)) <= 1e-10


@pytest.mark.parametrize("z2", [0.0, 0.7])
def test_two_mode_assembler_matches_loop_on_vector_kernel(z2):
    state = st.GaussianTwoMode(np.diag([0.7, 0.5, 0.45, 0.6]))
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=32)
    u2 = np.array([0.0, 1.0, 0.0, 0.0])
    got = reconstruct_two_mode_vector(state, u2, cfg, 8, 8, z2=z2).rho.entries
    off = -(z2 / np.sqrt(2)) * (u2[2:] - 1j * u2[:2])
    oracle = two_mode_grid_loop(lambda u: tm.characteristic_two_mode(state, -u - z2 * u2), cfg, 8, 8, off)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


@pytest.mark.parametrize("z", [1.0, -1.3])
@pytest.mark.parametrize("dims", [(6, 6), (8, 8), (12, 12)], ids=["6x6", "8x8", "12x12"])
def test_hopf_assembler_matches_gemm(dims, z):
    state = st.GaussianTwoMode(np.diag([0.7, 0.6, 0.7, 0.6]))
    tomo = tm.tabulate_tilde_tomogram(state, num=601, n_t=8, n_psi=8)
    dirs, weights = tm.hopf_directions(8, 8)
    cfg = tm.TwoModeConfig(scale=KernelScale(z), dims=dims, n_r=32)
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(cfg.scale.z)
    chi = _row_fourier(tomo.values, tomo.x1, np.zeros(len(dirs)), z * R)
    fast = tm._assemble_hopf(chi, tm._hopf_grid(8, 8), R, wR, cfg)
    assert np.max(np.abs(fast - _assemble_two_mode(chi, dirs, weights, R, wR, cfg))) <= 1e-10


def _scaled_hopf_tomogram():
    """A cat tomogram on the hopf(6, 12) grid of radius 1.7 with per-setting offsets delta."""
    dirs = tm.hopf_directions(6, 12)[0]
    deltas = np.random.default_rng(5).uniform(-0.5, 0.5, len(dirs))
    settings = [tm.TwoModeSetting(1.7 * d[:2], 1.7 * d[2:], delta=[dl, 0.0]) for d, dl in zip(dirs, deltas)]
    return tm.tabulate_tilde_tomogram(st.TwoModeCat(np.array([0.8, 0.4j])), settings=settings, num=801)


def test_hopf_reconstruction_matches_gemm_on_scaled_sphere_with_offsets():
    tomo = _scaled_hopf_tomogram()
    cfg = tm.TwoModeConfig(scale=KernelScale(-1.3), dims=(5, 4), n_r=32)
    got = tm.reconstruct_two_mode(tomo, cfg).rho.entries
    dirs, weights = tm.hopf_directions(6, 12)
    deltas = np.array([s.delta[0] for s in tomo.settings])
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(cfg.scale.z)
    chi = _row_fourier(tomo.values, tomo.x1, deltas, -1.3 * R / 1.7)
    oracle = _assemble_two_mode(chi, dirs, weights, R, wR, cfg)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


def _shuffled(tomo):
    order = np.random.default_rng(0).permutation(len(tomo.settings))
    settings = tuple(tomo.settings[i] for i in order)
    return tm.TwoModeTomogram(settings, tomo.x1, tomo.values[order])


def _one_dropped(tomo):
    keep = slice(1, None)
    return tm.TwoModeTomogram(tomo.settings[keep], tomo.x1, tomo.values[keep])


@pytest.mark.parametrize("edit", [_shuffled, _one_dropped], ids=["shuffled", "dropped"])
def test_non_hopf_weighted_tomogram_is_rejected(edit):
    tomo = edit(_scaled_hopf_tomogram())
    with pytest.raises(InvalidParameter, match="hopf_directions"):
        tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(3, 3), n_r=24))


def test_cli_reconstruct_rejects_an_edited_hopf_setting(tmp_path, capsys):
    path = tmp_path / "t2.csv"
    tio.save_two_mode_tomogram(tm.tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), num=301, n_t=4, n_psi=4), path)
    out = str(tmp_path / "rho.json")
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", out]) == 0
    # scale the fourth setting's columns by 1 + 1e-6, far beyond the grid's 1e-12 match
    header, grid, *rows = path.read_text().splitlines()
    cols = rows[3].split(",")
    cols[:8] = [format_float(float(c) * (1 + 1e-6)) for c in cols[:8]]
    rows[3] = ",".join(cols)
    path.write_text("\n".join([header, grid, *rows]) + "\n")
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", out]) == 2
    assert "hopf_directions" in capsys.readouterr().err


def test_homodyne_matches_trapezoid_estimator_on_tomogram():
    tomo = sy.tabulate_tomogram(st.Thermal(0.5), sy.circle_settings(32), num=1201)
    got = reconstruct_homodyne(tomo, dim=12).rho.entries
    assert np.max(np.abs(got - _hermitized(homodyne_trapezoid(tomo, 12)))) <= 5e-4


def test_homodyne_matches_trapezoid_estimator_on_samples():
    phases = np.pi * np.arange(4) / 4
    settings = [sy.QuadratureSetting(np.cos(p), np.sin(p)) for p in phases]
    batches = sample_campaign(st.NumberState(1), settings, 2000, seed=17)
    pairs = [(p, b.outcomes) for p, b in zip(phases, batches)]
    got = reconstruct_homodyne(pairs, dim=8).rho.entries
    assert np.max(np.abs(got - _hermitized(homodyne_trapezoid(pairs, 8)))) <= 2e-3


@pytest.mark.parametrize("n_settings", [300, 1000])
def test_samples_estimator_matches_per_batch_loop(n_settings):
    # 300 and 1000 batches cross the estimator's 256-batch chunk boundary
    batches = sample_campaign(st.EvenCat(1.0, 1.0), importance_schedule(n_settings, seed=5), 20, seed=6)
    cfg = sy.ReconstructionConfig(dim=8, projection="none")
    got = sy.reconstruct_from_samples(batches, cfg)
    want = samples_loop(batches, cfg)
    assert np.max(np.abs(got.rho.entries - want.rho.entries)) <= 1e-12
    assert abs(got.trace_error - want.trace_error) <= 1e-12
    assert abs(got.hermiticity_residual - want.hermiticity_residual) <= 1e-12
    assert (got.settings_used, got.samples_used) == (want.settings_used, want.samples_used) == (n_settings, 20 * n_settings)
