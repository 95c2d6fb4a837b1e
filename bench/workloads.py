"""The three benchmark workloads, built only on the public symplectomo API.

Each workload turns ``(seed, iteration)`` into a list of :class:`Case` objects:
one reconstruction each, with its true (truncated) density matrix.  The
library calls go through module attributes (``sy.``, ``sio.``, ``ms.``) so the
tracer can wrap them where they are looked up.

Why these three (see also ``BENCHMARK.json``):

* ``exact1``   -- one mode, exact tomograms through CSV files: the one-mode
  polar assembly (``kernels`` + ``reconstruct``) dominates; ``io`` is second.
  Every reconstruction shares one zeta-node set (fixed apparatus grid).
* ``samples1`` -- one mode, measured outcomes through CSV files: ``io`` on
  many-setting sample rows, the sampler with its ``marginal_numeric``
  fallback (number states have no closed-form marginal) and the homodyne
  radial kernel each take a visible share; nothing is shared between calls.
* ``hopf2``    -- two modes in memory on a Hopf grid: ``twomode`` dominates;
  ``io`` and ``measure_sim`` are not used, so it is their bypass workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import symplectomo as sy
from symplectomo import io as sio
from symplectomo import measure_sim as ms
from symplectomo import states as st
from symplectomo import twomode as tm


@dataclass(frozen=True)
class Case:
    """One reconstruction: ``acquire`` produces the data (and writes its file),
    ``reconstruct`` turns it into ``rho``; ``truth`` is the truncated true matrix."""

    label: str
    kind: str  # selects the tolerance
    truth: np.ndarray
    acquire: Callable[[Path], object]
    reconstruct: Callable[[Path, object], object]
    dims: tuple[int, int] | None = None  # two-mode: also compare both reduced states
    block: int | None = None  # check only the leading block (see CAMPAIGN_BLOCK)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload; the smoke sizes only shrink them."""

    dim: int = 40
    n_settings: int = 64
    x_points: int = 1201
    schedule: int = 1000
    per_setting: int = 500
    phases: int = 8
    per_phase: int = 2000
    hopf: int = 12
    dims_gauss: int = 8
    dims_cat: int = 6
    n_r: int = 48


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Sizes
    # case kind -> (worst trace distance to the truth, worst trace deviation
    # from the truth's, 1 up to truncation) a reconstruction may have before
    # it counts as failed
    tolerances: dict[str, tuple[float, float]]
    # traced boundaries the workload must call; zero calls fails the run
    expected: tuple[str, ...]
    make_cases: Callable[["Workload", np.random.Generator, int], list[Case]]

    def cases(self, seed: int, iteration: int) -> list[Case]:
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(iteration))))
        return self.make_cases(self, rng, iteration)


def one_mode_states(rng: np.random.Generator) -> list[tuple[str, object]]:
    """Even cat, thermal and coherent states with seed-drawn parameters."""
    a, b = rng.uniform(0.8, 1.2, 2)
    lam = rng.uniform(0.3, 0.7)
    alpha = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return [("cat", sy.EvenCat(a, b)), ("thermal", sy.Thermal(lam)), ("coherent", sy.Coherent(alpha))]


def one_mode_truth(state, dim: int) -> np.ndarray:
    """Truncated true matrix; unlike ``density_matrix`` it accepts a
    truncation deficit (a dim-8 cat)."""
    if isinstance(state, sy.Thermal):
        return sy.density_matrix(state, dim).entries
    v = st.fock_coefficients(state, dim)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# exact1
# ---------------------------------------------------------------------------


def exact1_cases(w: Workload, rng: np.random.Generator, _iteration: int) -> list[Case]:
    n = w.sizes
    cfg = sy.ReconstructionConfig(dim=n.dim)
    settings = sy.circle_settings(n.n_settings)
    cases = []
    for label, state in one_mode_states(rng):

        def acquire(path, state=state):
            sio.save_tomogram(sy.tabulate_tomogram(state, settings, num=n.x_points), path)

        def reconstruct(path, _data):
            return sy.reconstruct_from_tomogram(sio.load_tomogram(path), cfg).rho

        cases.append(Case(label, "tomogram", one_mode_truth(state, n.dim), acquire, reconstruct))
    return cases


# ---------------------------------------------------------------------------
# samples1
# ---------------------------------------------------------------------------


def samples1_cases(w: Workload, rng: np.random.Generator, iteration: int) -> list[Case]:
    n = w.sizes
    cfg = sy.ReconstructionConfig(dim=n.dim)
    # the campaign state cycles with the iteration, so any three consecutive
    # iterations cover cat, thermal and coherent
    label, state = one_mode_states(rng)[iteration % 3]
    schedule_seed, campaign_seed, phase_seed = (int(s) for s in rng.integers(0, 2**31, 3))

    def acquire_campaign(path):
        schedule = ms.importance_schedule(n.schedule, seed=schedule_seed)
        sio.save_samples(ms.sample_campaign(state, schedule, n.per_setting, campaign_seed), path)

    def reconstruct_campaign(path, _data):
        return sy.reconstruct_from_samples(sio.load_samples(path), cfg).rho

    number = sy.NumberState(1)
    phases = np.pi * np.arange(n.phases) / n.phases
    settings = [sy.QuadratureSetting(np.cos(p), np.sin(p)) for p in phases]

    def acquire_homodyne(path):
        sio.save_samples(ms.sample_campaign(number, settings, n.per_phase, phase_seed), path)

    def reconstruct_homodyne(path, _data):
        pairs = [(b.setting.angle, b.outcomes) for b in sio.load_samples(path)]
        return sy.reconstruct_homodyne(pairs, n.dim).rho

    return [
        Case(
            f"campaign-{label}",
            "campaign",
            one_mode_truth(state, n.dim),
            acquire_campaign,
            reconstruct_campaign,
            block=CAMPAIGN_BLOCK,
        ),
        Case("homodyne-number1", "homodyne", one_mode_truth(number, n.dim), acquire_homodyne, reconstruct_homodyne),
    ]


# ---------------------------------------------------------------------------
# hopf2
# ---------------------------------------------------------------------------


def hopf2_cases(w: Workload, rng: np.random.Generator, _iteration: int) -> list[Case]:
    n = w.sizes
    v1, v2 = rng.uniform(0.55, 0.85, 2)
    q1, q2 = rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7)
    gauss = sy.GaussianTwoMode(np.diag([v1, v2, v1, v2]))
    cat = sy.TwoModeCat(np.array([q1, q2], dtype=complex) / np.sqrt(2))

    d = n.dims_gauss
    # a thermal mode with Wigner variance v has lambda = 1 / (2 v)
    gauss_truth = np.kron(
        sy.density_matrix(sy.Thermal(1 / (2 * v1)), d).entries,
        sy.density_matrix(sy.Thermal(1 / (2 * v2)), d).entries,
    )
    c = n.dims_cat
    plus = np.kron(st.fock_coefficients(sy.Coherent(cat.A[0]), c), st.fock_coefficients(sy.Coherent(cat.A[1]), c))
    minus = np.kron(st.fock_coefficients(sy.Coherent(-cat.A[0]), c), st.fock_coefficients(sy.Coherent(-cat.A[1]), c))
    cat_truth = cat.norm_factor_squared * np.outer(plus + minus, (plus + minus).conj())

    cases = []
    for label, state, dims, truth in (
        ("gauss", gauss, (d, d), gauss_truth),
        ("cat2", cat, (c, c), cat_truth),
    ):

        def acquire(_path, state=state):
            return tm.tabulate_tilde_tomogram(state, num=n.x_points, n_t=n.hopf, n_psi=n.hopf)

        def reconstruct(_path, tomo, dims=dims):
            return tm.reconstruct_two_mode(tomo, tm.TwoModeConfig(dims=dims, n_r=n.n_r)).rho

        cases.append(Case(label, "two-mode", truth, acquire, reconstruct, dims=dims))
    return cases


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# The importance-sampled estimator at dim 8 is heavy-tailed in its high-photon
# elements: the kernel's Laguerre factor grows like r^(2n) where the sampling
# density only cancels the Gaussian.  Over 60 draws of the cat campaign
# (1000 x 500) the full-matrix trace distance had median 0.48, 90th
# percentile 0.98 and maximum 29, so no fixed bound on it separates a defect
# from bad luck.  The leading 4 x 4 block had median 0.09 and maximum 0.17;
# campaign reconstructions are checked on that block.
CAMPAIGN_BLOCK = 4
DIAGNOSTICS = ("reconstruct.fidelity", "reconstruct.trace_distance")

WORKLOADS = {
    "exact1": Workload(
        "exact1",
        Sizes(),
        tolerances={"tomogram": (5e-3, 1e-3)},
        expected=(
            "marginals.tabulate_tomogram",
            "kernels.displacement_matrix",
            "reconstruct.reconstruct_from_tomogram",
            "io.save_tomogram",
            "io.load_tomogram",
            *DIAGNOSTICS,
        ),
        make_cases=exact1_cases,
    ),
    "samples1": Workload(
        "samples1",
        Sizes(dim=8, per_setting=100, phases=4),
        tolerances={"campaign": (0.5, 0.5), "homodyne": (0.3, 0.05)},
        expected=(
            "states.wigner",
            "marginals.marginal_numeric",
            "kernels.displacement_matrix",
            "reconstruct.reconstruct_from_samples",
            "reconstruct.reconstruct_homodyne",
            "measure_sim.importance_schedule",
            "measure_sim.sample_campaign",
            "measure_sim.tabulated_cdf",
            "io.save_samples",
            "io.load_samples",
            *DIAGNOSTICS,
        ),
        make_cases=samples1_cases,
    ),
    "hopf2": Workload(
        "hopf2",
        Sizes(),
        tolerances={"two-mode": (5e-3, 1e-3)},
        expected=(
            "kernels.displacement_matrix",
            "twomode.tabulate_tilde_tomogram",
            "twomode.reconstruct_two_mode",
            *DIAGNOSTICS,
        ),
        make_cases=hopf2_cases,
    ),
}

# Same three pipelines at tiny sizes, for the benchmark's own test.
SMOKE = {
    "exact1": (Sizes(dim=8, n_settings=24, x_points=301), {"tomogram": (2e-2, 5e-2)}),
    "samples1": (
        Sizes(dim=4, schedule=300, per_setting=100, phases=2, per_phase=400),
        {"campaign": (1.5, 1.0), "homodyne": (0.5, 0.2)},
    ),
    "hopf2": (Sizes(x_points=301, hopf=6, dims_gauss=3, dims_cat=3, n_r=24), {"two-mode": (0.2, 5e-2)}),
}


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    if not smoke:
        return w
    sizes, tolerances = SMOKE[name]
    return Workload(w.name, sizes, tolerances, w.expected, w.make_cases)
