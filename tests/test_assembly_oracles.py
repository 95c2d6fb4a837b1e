"""The polar assemblers and the homodyne estimator against their slow paths."""

import json

import numpy as np
import pytest

import symplectomo as sy
import symplectomo.io as tio
from symplectomo import cli
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.errors import InvalidParameter
from symplectomo.kernels import KernelScale
from symplectomo.measure_sim import sample_campaign
from symplectomo.reconstruct import _assemble_rho, _circle_chi, _radial_nodes, _row_fourier, reconstruct_homodyne

from oracles import (
    _assemble_two_mode,
    assemble_rho_dense,
    homodyne_trapezoid,
    reconstruct_two_mode_vector,
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
    r, wr = _radial_nodes(8.0 / abs(z), n_r)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)
    fast = _assemble_rho(chi, phis, phi_weights, r, wr, z, dim)
    dense = assemble_rho_dense(chi, phis, phi_weights, r, wr, KernelScale(z), dim)
    assert np.max(np.abs(fast - dense)) <= 1e-12


def test_two_mode_assembler_matches_loop_on_tomogram():
    state = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2))
    tomo = tm.tabulate_tilde_tomogram(state, num=601, n_t=6, n_psi=6)
    cfg = tm.TwoModeConfig(dims=(4, 3), n_r=24)
    got = tm.reconstruct_two_mode(tomo, cfg).rho.entries
    assert np.max(np.abs(got - _hermitized(two_mode_tomogram_loop(tomo, cfg)))) <= 1e-10


def test_two_mode_assembler_matches_loop_on_state():
    state = st.TwoModeCat(np.array([1.0, 0.5j]) / np.sqrt(2))
    cfg = tm.TwoModeConfig(dims=(4, 3), n_r=24, n_t=6, n_psi=8)
    got = tm.reconstruct_two_mode(state, cfg).rho.entries
    oracle = two_mode_grid_loop(lambda u: tm.characteristic_two_mode(state, -u), cfg)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


@pytest.mark.parametrize("z2", [0.0, 0.7])
def test_two_mode_assembler_matches_loop_on_vector_kernel(z2):
    state = st.GaussianTwoMode(np.diag([0.7, 0.5, 0.45, 0.6]))
    cfg = tm.TwoModeConfig(dims=(3, 3), n_r=32, n_t=8, n_psi=8)
    u2 = np.array([0.0, 1.0, 0.0, 0.0])
    got = reconstruct_two_mode_vector(state, u2, cfg, z2=z2).rho.entries
    off = -(z2 / np.sqrt(2)) * (u2[2:] - 1j * u2[:2])
    oracle = two_mode_grid_loop(lambda u: tm.characteristic_two_mode(state, -u - z2 * u2), cfg, off)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


@pytest.mark.parametrize("z", [1.0, -1.3])
@pytest.mark.parametrize("dims", [(6, 6), (8, 8), (12, 12)], ids=["6x6", "8x8", "12x12"])
def test_hopf_assembler_matches_gemm(dims, z):
    state = st.GaussianTwoMode(np.diag([0.7, 0.6, 0.7, 0.6]))
    tomo = tm.tabulate_tilde_tomogram(state, num=601, n_t=8, n_psi=8)
    dirs, weights = tm.hopf_directions(8, 8)
    cfg = tm.TwoModeConfig(scale=KernelScale(z), dims=dims, n_r=32)
    R, wR = _radial_nodes(cfg.resolve_r_max(), cfg.n_r)
    chi = _row_fourier(tomo.values, tomo.x1, np.zeros(len(dirs)), z * R)
    fast = tm._assemble_hopf(chi, weights, 8, 8, R, wR, cfg)
    assert np.max(np.abs(fast - _assemble_two_mode(chi, dirs, weights, R, wR, cfg))) <= 1e-10


def _scaled_hopf_tomogram():
    """A cat tomogram on the hopf(6, 8) grid of radius 1.7 with per-setting offsets delta."""
    dirs, weights = tm.hopf_directions(6, 8)
    deltas = np.random.default_rng(5).uniform(-0.5, 0.5, len(dirs))
    settings = [tm.TwoModeSetting(1.7 * d[:2], 1.7 * d[2:], delta=[dl, 0.0]) for d, dl in zip(dirs, deltas)]
    tomo = tm.tabulate_tilde_tomogram(st.TwoModeCat(np.array([0.8, 0.4j])), settings=settings, num=801)
    return tm.TwoModeTomogram(tomo.settings, tomo.x1, tomo.values, direction_weights=weights)


def test_hopf_reconstruction_matches_gemm_on_scaled_sphere_with_offsets():
    tomo = _scaled_hopf_tomogram()
    cfg = tm.TwoModeConfig(scale=KernelScale(-1.3), dims=(5, 4), n_r=32)
    got = tm.reconstruct_two_mode(tomo, cfg).rho.entries
    dirs, weights = tm.hopf_directions(6, 8)
    deltas = np.array([s.delta[0] for s in tomo.settings])
    R, wR = _radial_nodes(cfg.resolve_r_max(), cfg.n_r)
    chi = _row_fourier(tomo.values, tomo.x1, deltas, -1.3 * R / 1.7)
    oracle = _assemble_two_mode(chi, dirs, weights, R, wR, cfg)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


def _uniform_weights(tomo):
    w = np.full(len(tomo.settings), 2 * np.pi**2 / len(tomo.settings))
    return tm.TwoModeTomogram(tomo.settings, tomo.x1, tomo.values, direction_weights=w)


def _shuffled(tomo):
    # the grid's weights stay in place, so only the order of the directions is wrong
    order = np.random.default_rng(0).permutation(len(tomo.settings))
    settings = tuple(tomo.settings[i] for i in order)
    return tm.TwoModeTomogram(settings, tomo.x1, tomo.values[order], direction_weights=tomo.direction_weights)


def _one_dropped(tomo):
    keep = slice(1, None)
    return tm.TwoModeTomogram(
        tomo.settings[keep], tomo.x1, tomo.values[keep], direction_weights=tomo.direction_weights[keep]
    )


@pytest.mark.parametrize("edit", [_uniform_weights, _shuffled, _one_dropped], ids=["uniform", "shuffled", "dropped"])
def test_non_hopf_weighted_tomogram_is_rejected(edit):
    tomo = edit(_scaled_hopf_tomogram())
    with pytest.raises(InvalidParameter, match="hopf_directions"):
        tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=(3, 3), n_r=24))


def test_cli_reconstruct_rejects_edited_direction_weights(tmp_path, capsys):
    path = tmp_path / "t2.csv"
    tio.save_two_mode_tomogram(tm.tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), num=301, n_t=4, n_psi=4), path)
    out = str(tmp_path / "rho.json")
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", out]) == 0
    sidecar = tmp_path / "t2.csv.meta.json"
    meta = json.loads(sidecar.read_text())
    meta["direction_weights"][3] *= 1.001
    sidecar.write_text(json.dumps(meta))
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
