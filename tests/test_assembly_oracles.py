"""The polar assemblers and the homodyne estimator against their slow paths."""

import numpy as np
import pytest

import symplectomo as sy
from symplectomo import states as st
from symplectomo import twomode as tm
from symplectomo.kernels import KernelScale
from symplectomo.measure_sim import sample_campaign
from symplectomo.reconstruct import _assemble_rho, _circle_chi, _radial_nodes, reconstruct_homodyne

from oracles import assemble_rho_dense, homodyne_trapezoid, two_mode_grid_loop, two_mode_tomogram_loop


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
    got = tm.reconstruct_two_mode_vector(state, u2, cfg, z2=z2).rho.entries
    off = -(z2 / np.sqrt(2)) * (u2[2:] - 1j * u2[:2])
    oracle = two_mode_grid_loop(lambda u: tm.characteristic_two_mode(state, -u - z2 * u2), cfg, off)
    assert np.max(np.abs(got - _hermitized(oracle))) <= 1e-10


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
