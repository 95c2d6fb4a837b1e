"""Simulated quadrature measurements.

Maps instrument parameters to quadrature settings and draws i.i.d. outcomes
from the corresponding marginal by inverse-CDF sampling on a tabulated
cumulative (4096 points, linear interpolation): deterministic for a given
nonnegative integer seed and stable across platforms.  The generator is numpy's
PCG64 (``default_rng``); per-batch streams are spawned from ``(master_seed,
batch_index)`` so campaigns are reproducible batch by batch.

A campaign tabulates each marginal *family* once: every marginal of a family
is an exact affine image of one table's, so batch ``i`` reports ``offset +
scale * X(u) + delta``, with ``X`` the table's interpolated inverse CDF and
``u`` drawn from the batch's own stream ``(seed, i)``.  Marginals are
homogeneous, ``w(x; r u) = w(x / r; u) / r``, so a vacuum, thermal or number
state has one table, at unit radius, and scale ``r``; a coherent state's and
a two-mode Gaussian's marginals are normal, so both draw from the vacuum's
unit-radius table, scaled to the setting's standard deviation and moved by
its mean.  Any other state (cats, products, ...) has one table per distinct
``(mu, nu)``, or per batch for two modes, drawn with scale 1 and offset 0,
exactly as a table of its own setting.  The streams, and so the batch order
and seeds, do not depend on which table a batch draws from.

Hardware idealizations: detection is lossless and noise-free, and the
squeezer/heterodyne maps place the sampled distribution exactly at the mapped
ideal marginal (no anti-squeezed contamination of the record).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSetting,
    EmptySchedule,
    GridTooNarrow,
    InvalidParameter,
    PhaseLockRequired,
)
from .kernels import KernelScale, PolarGrid, _check_radius, _scale_z
from .marginals import QuadratureSetting, _as_setting, _check_count, _half_width, _marginal_any, _marginal_family
from .states import _finite, _finite_array
from .twomode import TwoModeSetting, tilde_marginal, _half_width as _tilde_half_width, _tilde_family

__all__ = [
    "GENERATOR_NAME",
    "SqueezerSetting",
    "HeterodyneSettingTwoMode",
    "SampleBatch",
    "squeezer_to_setting",
    "heterodyne_to_setting",
    "sample_marginal",
    "sample_campaign",
    "importance_schedule",
    "tabulated_cdf",
]

GENERATOR_NAME = "numpy-PCG64"
CDF_POINTS = 4096


@dataclass(frozen=True)
class SqueezerSetting:
    """Squeezing pre-amplification ahead of a balanced homodyne detector."""

    s: float
    theta: float
    phase_lock: bool = True

    def __post_init__(self):
        _finite(self.theta, "squeeze phase theta")
        if _finite(self.s, "squeeze magnitude") < 0:
            raise InvalidParameter(f"squeeze magnitude must be nonnegative, got {self.s!r}")
        if not isinstance(self.phase_lock, (bool, np.bool_)):
            raise InvalidParameter(f"phase_lock must be a bool, got {self.phase_lock!r}")


@dataclass(frozen=True)
class HeterodyneSettingTwoMode:
    """Balanced heterodyne with per-mode phase shifters.

    ``E1``/``E2`` are local-oscillator amplitudes, ``phi`` the LO phase and
    ``theta1``/``theta2`` the per-mode phase shifts.
    """

    E1: float
    E2: float
    phi: float
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        values = (self.E1, self.E2, self.phi, self.theta1, self.theta2)
        e1, e2, *_ = [_finite(v, "heterodyne parameters") for v in values]
        if min(e1, e2) < 0:
            raise InvalidParameter("local-oscillator amplitudes must be nonnegative")


@dataclass(frozen=True)
class SampleBatch:
    """Outcomes of one setting: the raw (delta-shifted) measurement record.

    ``weight`` is the sampling density of the setting in the (mu, nu) plane
    when the setting was drawn from an importance schedule (1.0 for manually
    scheduled settings).
    """

    setting: object
    outcomes: np.ndarray
    seed: int
    weight: float = 1.0
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        # a copy: the caller's array stays writeable
        outcomes = _finite_array(self.outcomes, "outcomes")
        if outcomes.ndim != 1:
            raise InvalidParameter(f"outcomes must be one 1-d record, got shape {outcomes.shape}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "seed", _check_count(self.seed, 0, "seed"))
        if _finite(self.weight, "weight") <= 0:
            raise InvalidParameter(f"weight must be positive, got {self.weight!r}")


# ---------------------------------------------------------------------------
# instrument maps
# ---------------------------------------------------------------------------


def squeezer_to_setting(sq: SqueezerSetting) -> QuadratureSetting:
    """(mu, nu) of the quadrature measured after squeezing pre-amplification.

    With the local oscillator locked to half the squeezer phase the measured
    direction is radius ``cosh s - sinh s = exp(-s) <= 1`` at angle
    ``theta / 2``; radii above 1 are unreachable for this scheme.
    """
    if not sq.phase_lock:
        raise PhaseLockRequired("the mapping assumes phi = theta / 2")
    r = np.exp(-sq.s)
    return QuadratureSetting(r * np.cos(sq.theta / 2), r * np.sin(sq.theta / 2), 0.0)


def heterodyne_to_setting(h: HeterodyneSettingTwoMode) -> TwoModeSetting:
    """Tilde-only two-mode setting of the heterodyne current.

    ``mu_j = E_j cos(phi + theta_j)``, ``nu_j = E_j sin(phi + theta_j)``; the
    four instrument parameters reach every direction of the setting sphere.
    """
    if h.E1 == 0 and h.E2 == 0:
        raise DegenerateSetting("need at least one nonzero local oscillator")
    psi1, psi2 = h.phi + h.theta1, h.phi + h.theta2
    mu = np.array([h.E1 * np.cos(psi1), h.E2 * np.cos(psi2)])
    nu = np.array([h.E1 * np.sin(psi1), h.E2 * np.sin(psi2)])
    return TwoModeSetting(mu=mu, nu=nu)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _marginal_table(state, setting, num: int) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(setting, TwoModeSetting):
        half, marginal = _tilde_half_width(state, setting), tilde_marginal
    else:
        setting = _as_setting(setting)
        half, marginal = _half_width(state, setting), _marginal_any
    x = np.linspace(-half, half, num)
    return x, np.asarray(marginal(state, x, setting), dtype=float)


def tabulated_cdf(state, setting, num: int = CDF_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """(x, CDF) table used by the sampler; also handy for KS checks."""
    x, w = _marginal_table(state, setting, _check_count(num, 2, "num"))
    np.maximum(w, 0.0, out=w)
    # trapezoid increments summed straight into the table, which is normalized in place
    step = w[1:] + w[:-1]
    step *= 0.5
    step *= x[1] - x[0]
    cdf = np.empty_like(w)
    cdf[0] = 0.0
    np.cumsum(step, out=cdf[1:])
    total = cdf[-1]
    if abs(total - 1.0) > 1e-3:
        raise GridTooNarrow(f"cumulative covers only {total:.6f} of the distribution")
    cdf /= total
    return x, cdf


def _batch_seed(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(index))))


def sample_marginal(state, setting, n: int, seed: int, weight: float = 1.0) -> SampleBatch:
    """Draw ``n`` i.i.d. outcomes of the setting's marginal.

    Outcomes are reported in the raw coordinate ``X = x + delta``: a nonzero
    shift acts as a pure translation of the record.  This is the one-setting
    campaign.
    """
    return sample_campaign(state, [(setting, weight)], n, seed)[0]


def _schedule_entry(entry) -> tuple:
    """``(setting, weight)`` of a schedule entry.  A 2-tuple whose first item
    is a setting or a sequence is a pair; any other entry, a bare tuple such
    as ``(mu, nu)`` or ``(mu, nu, delta)`` included, is a setting of weight 1."""
    setting, weight = entry, 1.0
    if isinstance(entry, tuple) and len(entry) == 2:
        if isinstance(entry[0], (QuadratureSetting, TwoModeSetting, tuple, list, np.ndarray)):
            setting, weight = entry
    return (setting if isinstance(setting, TwoModeSetting) else _as_setting(setting)), weight


def sample_campaign(state, schedule, n_per_setting: int, seed: int) -> list[SampleBatch]:
    """One batch per scheduled setting, with per-batch derived seeds.

    ``schedule`` entries are settings, tuples ``(mu, nu)`` or ``(mu, nu,
    delta)``, or ``(setting, weight)`` pairs; two campaigns with the same
    master seed are identical batch for batch.  Batch ``i`` draws ``u`` from
    its own stream ``(seed, i)`` and reports ``offset + scale * X(u) + delta``
    for its family's table ``X`` (see the module docstring: one table for
    every setting of a vacuum, thermal, number, coherent or two-mode Gaussian
    state).  Each table is built once, on the first setting that uses it.
    """
    entries = [_schedule_entry(entry) for entry in schedule]
    if not entries:
        raise EmptySchedule("schedule must contain at least one setting")
    n_per_setting = _check_count(n_per_setting, 1, "the number of samples per setting")
    seed = _check_count(seed, 0, "seed")
    groups = {}
    for idx, (setting, _) in enumerate(entries):
        family = (_tilde_family if isinstance(setting, TwoModeSetting) else _marginal_family)(state, setting)
        table = family[1]  # the setting the family's table is built for
        key = ("batch", idx) if isinstance(table, TwoModeSetting) else (table.mu, table.nu)
        groups.setdefault(key, []).append((idx, family))
    batches = [None] * len(entries)
    for members in groups.values():
        # one table alive at a time, however many groups the schedule has
        table_state, table_setting, _, _ = members[0][1]
        x, cdf = tabulated_cdf(table_state, table_setting)
        for idx, (_, _, scale, offset) in members:
            setting, weight = entries[idx]
            outcomes = offset + scale * np.interp(_batch_seed(seed, idx).random(n_per_setting), cdf, x)
            delta = setting.delta[0] if isinstance(setting, TwoModeSetting) else setting.delta
            batches[idx] = SampleBatch(setting=setting, outcomes=outcomes + delta, seed=seed, weight=weight)
    return batches


def importance_schedule(
    n_settings: int,
    scale: KernelScale = KernelScale(),
    r_max: float | None = None,
    seed: int = 0,
    stratified: bool = True,
) -> list[tuple[QuadratureSetting, float]]:
    """Random settings matched to the kernel damping, with their densities.

    Angles are uniform; radii follow ``p(r) ~ r exp(-z^2 r^2 / 4)`` on
    ``(0, r_max]`` (inverted in closed form; ``None`` is the ``PolarGrid``
    default), so the kernel's Gaussian factor cancels in the
    importance-weighted estimator.  The returned weight is the plane density
    of the setting.

    By default the draws are Latin-hypercube stratified (one radius per
    quantile stratum, one angle per randomly permuted angle stratum): the
    marginal distributions and hence the weights are exactly those of
    independent draws, but the setting-scatter variance drops sharply, which
    is what lets schedules of a few dozen settings reach percent accuracy.
    ``stratified=False`` gives plain independent draws, for which every
    component of the estimator error obeys the plain 1/sqrt(N) law.
    """
    if isinstance(n_settings, (int, np.integer)) and n_settings < 1:
        raise EmptySchedule("need at least one setting")
    n_settings = _check_count(n_settings, 1, "the number of settings")
    seed = _check_count(seed, 0, "seed")
    z = _scale_z(scale, InvalidParameter)
    if r_max is not None:
        _check_radius(r_max, "r_max")
    r_max = PolarGrid(r_max).resolve_r_max(z)
    rng = _batch_seed(seed, 2**32)
    norm = (2.0 / z**2) * (1.0 - np.exp(-(z**2) * r_max**2 / 4.0))
    if stratified:
        u = (np.arange(n_settings) + rng.random(n_settings)) / n_settings
        v = (rng.permutation(n_settings) + rng.random(n_settings)) / n_settings
    else:
        u = rng.random(n_settings)
        v = rng.random(n_settings)
    r = np.sqrt(-4.0 / z**2 * np.log1p(-u * (1.0 - np.exp(-(z**2) * r_max**2 / 4.0))))
    phi = v * 2 * np.pi
    out = []
    for rv, pv in zip(r, phi):
        density = np.exp(-(z**2) * rv**2 / 4.0) / (2 * np.pi * norm)
        out.append((QuadratureSetting(rv * np.cos(pv), rv * np.sin(pv)), float(density)))
    return out
