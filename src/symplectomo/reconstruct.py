"""Density-matrix reconstruction from quadrature marginals.

Two estimators are provided for the symplectic scheme::

    rho = integral dx dmu dnu  w(x, mu, nu) K(x; mu, nu, z)

* deterministic quadrature over a polar (mu, nu) grid, fed by a record on one
  circle of settings: a tabulated tomogram or a homodyne sample record;
* kernel averaging over simulated measurement samples drawn with
  importance-weighted settings.

``_circle_chi`` turns every circle record into angles, angle weights and
characteristic function, mirroring a record on less than half the circle by
``x_(phi+pi) = -x_phi``.  The exact scaling ``w(x, r u) = (r0/r) w(x r0 / r,
r0 u)`` extends it over the plane: the x-integral at radius r is its Fourier
transform at frequency ``z r / r0``.  The radii are those of a
``kernels.PolarGrid``, for the tomogram, circle-sample, Wigner and two-mode
paths alike; homodyne is its z = 1 preset over ``[0, r_cutoff]``.

Sample records are reduced in whole-record passes.  A circle sample record's
``chi`` at radius r is ``mean exp(i r x)`` over each angle's outcomes,
summed by moment binning (the truncated-Taylor core of non-uniform FFTs;
Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993)): the outcomes are
binned at width 0.05, and each occupied bin adds ``exp(i r c)`` at its
centre c times a Taylor series in its moments, truncated below 1e-16, so
the sum agrees with the outcome-by-outcome one to 1e-13.  The bins are
keyed by angle and centre, so every angle goes through in the same
passes, however few outcomes each one has.  A campaign's
per-batch mean kernel phase comes from one exp over the concatenated
outcomes of consecutive batches, reduced per batch by ``np.add.reduceat``.

The kind of record, not the entry point, decides the refusals.  A tabulated
record, one-mode or two-mode, is refused with ``GridUnderresolved`` when its
raw trace is off by more than 5e-2 or the Hermitian part of its raw estimate
has an eigenvalue below ``MIN_RAW_EIGENVALUE`` (-1e-2): its settings or radii
do not resolve the state at the requested dim.  A one-mode tomogram is then
refused with ``CutoffTooSmall`` when its radial tail beyond ``r_max`` is
above ``MAX_RADIAL_TAIL`` (1e-3).  Sample records skip all three checks:
their eigenvalues and their large-radius ``chi`` are set by noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CutoffTooSmall,
    DegenerateConfig,
    DimMismatch,
    EmptyBatches,
    GridUnderresolved,
    InvalidParameter,
    UnsupportedVariant,
)
from .kernels import KernelScale, PolarGrid, _check_radius, _scale_z, displacement_matrix, kernel_displacement_argument
from .marginals import QuadratureSetting, Tomogram, _check_count, _trapezoid_weights
from .states import FockDensityMatrix

__all__ = [
    "ReconstructionConfig",
    "ReconstructionReport",
    "reconstruct_from_tomogram",
    "reconstruct_from_samples",
    "reconstruct_homodyne",
    "fidelity",
    "trace_distance",
    "wigner_from_tomogram",
]


PROJECTIONS = ("none", "hermitize", "clip")
# A tabulated (noise-free) record whose raw estimate has a Hermitian-part
# eigenvalue below this raises GridUnderresolved: there the trace distance to
# the truth was 1.5-8 times |eigenvalue| wherever it exceeded 1e-6, while
# resolved one-mode records stay above -5.7e-4 and two-mode ones above -1.5e-3.
MIN_RAW_EIGENVALUE = -1e-2
# A tabulated circle record whose estimated radial tail beyond r_max exceeds
# this raises CutoffTooSmall.
MAX_RADIAL_TAIL = 1e-3


def _check_config(grid: PolarGrid, z: float, dims=(), projection: str = "none") -> None:
    """Checks shared by the one- and two-mode configs and the Wigner inversion:
    positive integer Fock truncations, a known projection, and a ``PolarGrid``
    over ``[0, r_max]`` on which the kernel damping ``exp(-z^2 r^2 / 4)`` has decayed."""
    if not isinstance(grid, PolarGrid):
        raise DegenerateConfig(f"grid must be a PolarGrid, got {grid!r}")
    for dim in dims:
        _check_count(dim, 1, "dim", DegenerateConfig)
    if projection not in PROJECTIONS:
        raise DegenerateConfig(f"unknown projection {projection!r}")
    r_max = grid.resolve_r_max(z)
    if r_max * abs(z) < 6.0:
        raise DegenerateConfig(f"r_max must have r_max * |z| >= 6, got r_max = {r_max!r}")


@dataclass(frozen=True)
class ReconstructionConfig:
    scale: KernelScale = field(default_factory=KernelScale)
    dim: int = 12
    grid: PolarGrid = field(default_factory=PolarGrid)
    projection: str = "hermitize"  # none | hermitize | clip

    def __post_init__(self):
        _check_config(self.grid, _scale_z(self.scale, DegenerateConfig), (self.dim,), self.projection)


def _check_config_type(cfg, kind: type) -> None:
    if not isinstance(cfg, kind):
        raise InvalidParameter(f"expected a {kind.__name__}, got {type(cfg).__name__}")


@dataclass(frozen=True)
class ReconstructionReport:
    rho: FockDensityMatrix
    trace_error: float
    hermiticity_residual: float
    min_eigenvalue: float
    settings_used: int
    samples_used: int
    projection: str


# ---------------------------------------------------------------------------
# shared assembly helpers
# ---------------------------------------------------------------------------


def _angle_weights(phis: np.ndarray) -> np.ndarray:
    """Periodic Voronoi arc lengths; reduces to 2 pi / n for uniform angles."""
    order = np.argsort(phis)
    sorted_phis = phis[order]
    gaps = np.diff(np.concatenate([sorted_phis, [sorted_phis[0] + 2 * np.pi]]))
    if np.any(gaps <= 0):
        raise DegenerateConfig("a tomogram on one circle needs distinct angles")
    w = 0.5 * (gaps + np.roll(gaps, 1))
    out = np.empty_like(w)
    out[order] = w
    return out


def _assemble_rho(
    chi: np.ndarray,
    phis: np.ndarray,
    phi_weights: np.ndarray,
    radial: np.ndarray,
    radial_weights: np.ndarray,
) -> np.ndarray:
    """Sum ``w_phi radial_weights chi D(zeta)`` over the polar nodes.

    The node ``(mu, nu) = r (cos phi, sin phi)`` has ``zeta = (z r / sqrt 2)
    e^{i theta}`` with ``theta = phi + pi/2``, and
    ``<m|D(a e^{i theta})|n> = e^{i(m-n) theta} <m|D(a)|n>`` for real ``a``:
    one real-axis table ``radial[k] = D(z r_k / sqrt 2)`` per radius and the
    angular Fourier sum of ``chi`` over ``m - n`` replace the per-node tables.
    ``radial_weights[k]`` is the radial factor ``w_r r z^2 / 2 pi``.
    """
    dim = radial.shape[-1]
    orders = np.arange(1 - dim, dim)
    angular = np.exp(1j * np.outer(orders, phis + np.pi / 2)) @ (phi_weights[:, None] * chi)
    n = np.arange(dim)
    per_element = angular[n[:, None] - n[None, :] + dim - 1]  # (dim, dim, n_r)
    return np.einsum("mnr,r,rmn->mn", per_element, radial_weights, radial)


def _fourier_table(x: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``table[0] = w cos(x freqs)`` and ``table[1] = w sin(x freqs)``, ``(2, n_x, n_k)``,
    with ``w`` the trapezoid weights of ``x``.

    On a grid with ``x[::-1] == -x`` bit for bit only the ``x >= 0`` half is
    evaluated and the rest mirrored: ``(-x) f == -(x f)``, and cos is even and
    sin odd, bit for bit.
    """
    n_x = x.size
    lo = n_x // 2 if np.array_equal(x[::-1], -x) else 0
    table = np.empty((2, n_x, freqs.size))
    cos, sin = table[:, lo:]
    np.outer(x[lo:], freqs, out=sin)
    np.cos(sin, out=cos)
    np.sin(sin, out=sin)
    if lo:
        table[:, :lo] = table[:, : n_x - lo - 1 : -1]
        np.negative(table[1, :lo], out=table[1, :lo])
    table *= _trapezoid_weights(x)[:, None]
    return table


def _row_fourier(values: np.ndarray, x: np.ndarray, deltas: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` by trapezoid."""
    # one matmul of the rows with the stacked weighted cos and sin tables: the
    # rows are neither weighted in a copy nor cast to complex, and each table
    # is its own GEMM of n_k columns, since one GEMM of 2 n_k columns sums
    # some shapes (3 rows, or two BLAS threads) in another order
    cos, sin = values @ _fourier_table(x, freqs)
    chi = cos - 1j * sin
    if np.any(deltas):
        chi *= np.exp(1j * np.outer(deltas, freqs))
    return chi


def _circle_radius(radii: np.ndarray) -> float | None:
    """The radius all the settings' ``radii`` share to a relative 1e-9, or None when they differ."""
    r0 = float(radii.mean())
    return r0 if np.max(np.abs(radii - r0)) <= 1e-9 * max(r0, 1.0) else None


class _CircleSamples(NamedTuple):
    """Outcomes on one circle of settings of radius ``r0``, pooled per angle mod 2 pi.

    ``records[phi]`` lists the ``(xs, delta)`` pieces measured at ``phi``, one
    per batch or pair; their centred unit-circle outcomes are ``(xs - delta) /
    r0``, which ``_empirical_characteristic`` forms a chunk at a time.
    """

    records: dict[float, list]
    r0: float


def _pooled(entries, r0: float = 1.0) -> _CircleSamples:
    """The ``(phi, xs, delta)`` entries per angle mod 2 pi: the batches of one angle pool into one record."""
    records: dict[float, list] = {}
    for phi, xs, delta in entries:
        records.setdefault(float(phi) % (2 * np.pi), []).append((xs, delta))
    return _CircleSamples(records, r0)


def _pair_samples(pairs) -> _CircleSamples:
    """``(phi, xs)`` pairs as unit-circle samples, each entry converted once.

    A list with an entry that is not a pair, a nonfinite phase or an entry
    without outcomes is refused as a whole: by ``_check_pairs``, which names
    the first bad entry, or else with ``EmptyBatches``.  Nonfinite outcomes
    are found by ``_empirical_characteristic``, in its binned pass.
    """
    try:
        entries = [(float(phi), np.asarray(xs, dtype=float).ravel(), 0.0) for phi, xs in pairs]
    except (TypeError, ValueError):
        entries = []
    if not entries or not all(math.isfinite(phi) and xs.size for phi, xs, _ in entries):
        _check_pairs(pairs)
        raise EmptyBatches("every phase needs samples")
    return _pooled(entries)


def _check_pairs(pairs) -> None:
    """Refuse the first entry that is not a ``(phi, xs)`` pair of a finite phase and finite real outcomes."""
    for index, entry in enumerate(pairs):
        try:
            phi, xs = entry
            finite = np.isfinite(float(phi)) and np.all(np.isfinite(np.asarray(xs, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"entry {index} is not a (phi, xs) pair of real numbers") from exc
        if not finite:
            raise InvalidParameter(f"entry {index}: phases and outcomes must be finite")


# outcomes per pass of the binned characteristic function, and bins or outcomes per exp block
_CHI_CHUNK = 1 << 15
_PHASE_ROWS = 256
# bin width, narrowed for radii above 2 / _BIN_WIDTH = 40 so that |r (x - c)| <= 1
_BIN_WIDTH = 0.05
# an outcome with |x| max|r| above this is summed directly: one rounding of r x,
# or of r c, is then off by more than 2.8e-14
_BINNED_PHASE = 256.0
# so is one with |x| / h above this, which keeps every bin index an int64 key
_MAX_BIN = 1 << 30


def _record_chunks(records, size: int):
    """The ``(p, xs, delta)`` parts of the ``(xs, delta)`` pieces of ``records``
    in order, ``size`` outcomes at a time."""
    parts, n = [], 0
    for p, record in enumerate(records):
        for xs, delta in record:
            while xs.size:
                part, xs = xs[: size - n], xs[size - n :]
                parts.append((p, part, delta))
                n += part.size
                if n == size:
                    yield parts
                    parts, n = [], 0
    if parts:
        yield parts


def _add_rows(acc, rec, rows) -> None:
    """``acc[rec[j]] += rows[j]`` over the rows j of a nondecreasing ``rec``."""
    starts = np.flatnonzero(np.diff(rec, prepend=-1))
    acc[rec[starts]] += np.add.reduceat(rows, starts)


def _empirical_characteristic(records: list, r: np.ndarray, r0: float = 1.0) -> np.ndarray:
    """``chi[p] = mean exp(i r x)`` over the outcomes x of each record, by moment binning.

    A record is a list of ``(xs, delta)`` pieces, 1-d arrays of raw outcomes
    and their shift; its outcomes are ``x = (xs - delta) / r0``, formed a
    chunk at a time, so no record is copied whole.  Each outcome goes to the bin
    centre ``c = h round(x / h)``; with ``d = x - c``, ``exp(i r x) = exp(i r c)
    sum_q (i r d)^q / q!``, truncated at the least ``Q`` with ``(max|r| h / 2)^Q
    / Q! < 1e-16``.  So ``chi`` sums, over each record's occupied bins,
    ``exp(i r c)`` times the bin's moments ``M_q = sum d^q`` weighted by ``(i
    r)^q / q!``.  An outcome with ``|d| > h / 2``, ``|x| max|r| > 256`` or
    ``|x| / h > 2^30`` is summed directly.  All records go through together,
    ``_CHI_CHUNK`` outcomes at a time: per chunk one sort, ``Q + 1``
    bincounts and one ``exp(i r c)`` per distinct centre, however many
    records it holds.  A nonfinite outcome, which is never binned, raises
    ``InvalidParameter``.
    """
    r_max = float(np.max(np.abs(r)))
    h = _BIN_WIDTH if r_max * _BIN_WIDTH <= 2.0 else 2.0 / r_max
    limit = min(_MAX_BIN * h, _BINNED_PHASE / r_max if r_max > 0 else np.inf)
    # powers[q] = (i r)^q / q! for q <= Q
    powers, term, bound = [np.ones(r.size, dtype=complex)], 1.0, r_max * h / 2
    while term >= 1e-16:
        powers.append(powers[-1] * (1j * r) / len(powers))
        term *= bound / (len(powers) - 1)
    powers = np.array(powers)
    acc = np.zeros((len(records), r.size), dtype=complex)
    counts = np.zeros(len(records))
    for parts in _record_chunks(records, _CHI_CHUNK):
        sizes = [xs.size for _, xs, _ in parts]
        x = np.concatenate([xs for _, xs, _ in parts])
        x -= np.repeat([delta for _, _, delta in parts], sizes)
        x /= r0
        p = np.repeat([p for p, _, _ in parts], sizes)
        counts += np.bincount(p, minlength=len(records))
        near = np.abs(x) <= limit
        k = np.rint(np.where(near, x, 0.0) / h)
        d = x - k * h
        binned = near & (np.abs(d) <= h / 2)
        far = np.flatnonzero(~binned)
        if not np.isfinite(x[far]).all():
            raise InvalidParameter("outcomes must be finite")
        for lo in range(0, far.size, _PHASE_ROWS):
            block = far[lo : lo + _PHASE_ROWS]
            _add_rows(acc, p[block], np.exp(1j * np.outer(x[block], r)))
        # a bin is one (record, index) pair: key = p 2^32 + index + 2^30
        keys, index = np.unique((p[binned] << 32) + (k[binned].astype(np.int64) + _MAX_BIN), return_inverse=True)
        d = d[binned]
        moments = np.empty((keys.size, len(powers)))
        moments[:, 0] = np.bincount(index, minlength=keys.size)
        d_q = d.copy()
        for q in range(1, len(powers)):
            moments[:, q] = np.bincount(index, weights=d_q, minlength=keys.size)
            d_q *= d
        rec, bins = np.divmod(keys, 1 << 32)
        # the records' bins at one centre share its phases
        centres, at = np.unique(bins, return_inverse=True)
        phases = np.exp(1j * np.outer((centres - _MAX_BIN) * h, r))
        for lo in range(0, keys.size, _PHASE_ROWS):
            block = slice(lo, lo + _PHASE_ROWS)
            rows = moments[block] @ powers
            rows *= phases[at[block]]
            _add_rows(acc, rec[block], rows)
    acc /= counts[:, None]
    return acc


def _circle_chi(data, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles, angle weights and ``chi[p, k]`` at ``freqs[k]`` times the unit radius.

    ``data`` is a circle Tomogram or ``_CircleSamples``; angles on less than
    half the circle gain antipodes.
    """
    if isinstance(data, Tomogram):
        r0 = _circle_radius(np.array([s.radius for s in data.settings]))
        if r0 is None:
            raise DegenerateConfig("tomogram settings must lie on a common circle")
        phis = np.array([s.angle for s in data.settings])
        chi = _row_fourier(data.values, data.x, np.array([s.delta for s in data.settings]), freqs / r0)
    else:
        phis = np.array(list(data.records))
        chi = _empirical_characteristic(list(data.records.values()), -freqs, data.r0)
    phis = phis % (2 * np.pi)
    if np.max(np.diff(np.sort(phis), append=phis.min() + 2 * np.pi)) > np.pi:
        phis = np.concatenate([phis, (phis + np.pi) % (2 * np.pi)])
        chi = np.concatenate([chi, chi.conj()])
    return phis, _angle_weights(phis), chi


def _project(raw: np.ndarray, projection: str) -> np.ndarray:
    h = 0.5 * (raw + raw.conj().T)
    if projection == "none":
        return raw
    if projection == "hermitize":
        return h
    # nearest density matrix in Frobenius norm (Smolin, Gambetta & Smith,
    # PRL 108, 070502 (2012)): project the eigenvalues onto the simplex
    vals, vecs = np.linalg.eigh(h)
    desc = vals[::-1]
    excess = (np.cumsum(desc) - 1.0) / np.arange(1, vals.size + 1)
    shift = excess[np.nonzero(desc > excess)[0][-1]]
    return (vecs * np.clip(vals - shift, 0.0, None)) @ vecs.conj().T


def _finish(
    raw: np.ndarray,
    projection: str,
    settings_used: int,
    samples_used: int,
    check_trace: bool,
    dims: tuple[int, int] | None = None,
    tail: float = 0.0,
) -> ReconstructionReport:
    trace_error = abs(float(np.trace(raw).real) - 1.0)
    herm = float(np.max(np.abs(raw - raw.conj().T)))
    if check_trace and trace_error > 5e-2:
        raise GridUnderresolved(f"raw trace deviates from 1 by {trace_error:.3g}")
    projected = _project(raw, projection)
    h = 0.5 * (projected + projected.conj().T)
    min_eig = float(np.linalg.eigvalsh(h)[0])
    if check_trace:
        # "hermitize" and "none" leave h the Hermitian part of raw itself
        raw_min = min_eig if projection != "clip" else float(np.linalg.eigvalsh(0.5 * (raw + raw.conj().T))[0])
        if raw_min < MIN_RAW_EIGENVALUE:
            raise GridUnderresolved(
                f"raw estimate has eigenvalue {raw_min:.3g} < {MIN_RAW_EIGENVALUE:g}: "
                "the settings or radii do not resolve this state at this dim"
            )
    if tail > MAX_RADIAL_TAIL:
        raise CutoffTooSmall(f"radial tail estimate {tail:.3g} > {MAX_RADIAL_TAIL:g}: r_max cuts off the state")
    rho = FockDensityMatrix(h, dims=dims)
    return ReconstructionReport(
        rho=rho,
        trace_error=trace_error,
        hermiticity_residual=herm,
        min_eigenvalue=min_eig,
        settings_used=settings_used,
        samples_used=samples_used,
        projection=projection,
    )


# ---------------------------------------------------------------------------
# circle records: tomograms, homodyne pairs and one-circle sample files
# ---------------------------------------------------------------------------


def _reconstruct_circle(data, cfg: ReconstructionConfig) -> ReconstructionReport:
    """The polar reconstruction of a circle Tomogram or of ``_CircleSamples``
    on the radii of ``cfg.grid``.

    A Tomogram is checked in ``_finish`` on its raw trace, its raw
    eigenvalue and its radial tail ``2 max|rho(R)| / (z^2 R)`` at ``R =
    r_max``; samples skip all three, their ``chi`` a noise floor of ~1/sqrt(N).
    """
    z = cfg.scale.z
    r, wr = cfg.grid.nodes(z)
    n_r = r.size
    tabulated = isinstance(data, Tomogram)
    # a tomogram gains one radius at R for its tail: Gauss-Legendre radii have no node there
    radii = np.append(r, cfg.grid.resolve_r_max(z)) if tabulated else r
    phis, phi_weights, chi = _circle_chi(data, z * radii)
    radial = displacement_matrix(z * radii / np.sqrt(2), cfg.dim)
    raw = _assemble_rho(chi[:, :n_r], phis, phi_weights, radial[:n_r], wr * r * (z**2 / (2 * np.pi)))
    if not tabulated:
        n = sum(xs.size for record in data.records.values() for xs, _ in record)
        return _finish(raw, cfg.projection, len(data.records), n, check_trace=False)
    # beyond R the integrand decays like exp(-z^2 r^2 / 4), so the discarded part is
    # about the boundary integrand times int_R^inf (r/R) exp(-z^2 (r^2 - R^2) / 4) dr = 2 / (z^2 R)
    R = radii[-1]
    boundary = _assemble_rho(chi[:, n_r:], phis, phi_weights, radial[n_r:], np.array([R * z**2 / (2 * np.pi)]))
    tail = 2.0 * float(np.max(np.abs(boundary))) / (z**2 * R)
    return _finish(raw, cfg.projection, len(data.settings), 0, check_trace=True, tail=tail)


def _check_tomogram(tomo) -> None:
    if not isinstance(tomo, Tomogram):
        raise InvalidParameter(f"need a Tomogram, not {type(tomo).__name__}: use tabulate_tomogram")


def reconstruct_from_tomogram(tomo: Tomogram, cfg: ReconstructionConfig) -> ReconstructionReport:
    """Reconstruct a one-mode density matrix from a circle Tomogram.

    The angles and the circle radius are the tomogram's; ``cfg.grid`` sets
    only the radii.  A state must be tabulated first with
    ``tabulate_tomogram``.
    """
    _check_config_type(cfg, ReconstructionConfig)
    _check_tomogram(tomo)
    return _reconstruct_circle(tomo, cfg)


def reconstruct_homodyne(
    data,
    dim: int,
    r_cutoff: float = 12.0,
    projection: str = "hermitize",
) -> ReconstructionReport:
    """The z = 1 preset of the circle reconstruction, on ``PolarGrid(r_cutoff)``.

    The phases ``phi`` are the settings ``(cos phi, sin phi)`` of the unit
    circle.  ``data`` is a circle Tomogram or a list of ``(phi, samples)``
    pairs; phases on less than half the circle are mirrored by
    ``x_(phi+pi) = -x_phi``.  A Tomogram is refused as by
    ``reconstruct_from_tomogram``: ``GridUnderresolved`` on its raw trace or
    eigenvalue, then ``CutoffTooSmall`` on a radial tail above 1e-3.  Pairs
    skip these checks.  ``r_cutoff < 6`` raises ``CutoffTooSmall``.
    """
    _check_radius(r_cutoff, "r_cutoff")
    if r_cutoff < 6.0:
        raise CutoffTooSmall(f"r_cutoff must be at least 6 for the damping exp(-r^2 / 4) to decay, got {r_cutoff!r}")
    cfg = ReconstructionConfig(KernelScale(1.0), dim, PolarGrid(r_cutoff), projection)
    if isinstance(data, Tomogram):
        return _reconstruct_circle(data, cfg)
    if not isinstance(data, (list, tuple)):
        raise InvalidParameter(f"need a Tomogram or (phi, x) pairs, not {type(data).__name__}: use tabulate_tomogram")
    samples = _pair_samples(data)
    try:
        return _reconstruct_circle(samples, cfg)
    except InvalidParameter:
        _check_pairs(data)  # names the first entry with a nonfinite outcome
        raise


# ---------------------------------------------------------------------------
# sample-based reconstruction
# ---------------------------------------------------------------------------


# batches per displacement table: 256 settings at dim 80 are a 26 MB table
_SAMPLE_CHUNK = 256
# outcomes per exp pass of the campaign estimator: 8192 of them hold 256 KB
_PHASE_CHUNK = 1 << 13


def _mean_phases(outcomes: list, deltas: np.ndarray, counts: np.ndarray, z: float) -> np.ndarray:
    """``mean exp(-i z (x - delta))`` over each batch's outcomes, from one exp over
    the outcomes of the batches that start within each ``_PHASE_CHUNK`` outcomes."""
    first = np.cumsum(counts) - counts
    cuts = [*np.flatnonzero(np.diff(first // _PHASE_CHUNK, prepend=-1)), counts.size]
    means = []
    for lo, hi in zip(cuts, cuts[1:]):
        shifted = np.concatenate(outcomes[lo:hi], dtype=float)
        shifted -= np.repeat(deltas[lo:hi], counts[lo:hi])
        phases = -1j * z * shifted
        means.append(np.add.reduceat(np.exp(phases, out=phases), first[lo:hi] - first[lo]) / counts[lo:hi])
    return np.concatenate(means)


def reconstruct_from_samples(batches, cfg: ReconstructionConfig) -> ReconstructionReport:
    """Kernel-averaging estimator over per-setting sample batches.

    A record on one circle of radius ``r0`` (homodyne) has no plane density:
    its outcomes, centred and over ``r0``, go through the circle path on the
    radii of ``cfg.grid``.  Other campaigns carry each setting's plane density
    ``weight``; the batch mean of ``K / weight`` is unbiased for settings drawn
    from it, with standard error ``~ 1/sqrt(N)``.  A campaign on fewer than two
    distinct ``(mu, nu)`` raises ``InvalidParameter``, and two-mode batches
    raise ``UnsupportedVariant``.
    """
    _check_config_type(cfg, ReconstructionConfig)
    batches = list(batches)
    counts = np.array([len(b.outcomes) for b in batches], dtype=int)
    if not counts.any():
        raise EmptyBatches("no samples to average")
    if not all(isinstance(b.setting, QuadratureSetting) for b in batches):
        raise UnsupportedVariant("two-mode sample reconstruction is not available yet; reconstruct a two-mode tomogram")
    keys = np.array([(b.setting.mu, b.setting.nu, b.setting.delta) for b in batches])
    if not np.any(keys[:, :2] != keys[0, :2]):
        raise InvalidParameter("a campaign needs two or more distinct settings (mu, nu) to determine a state")
    if not counts.all():
        raise EmptyBatches("encountered an empty batch")
    r0 = _circle_radius(np.hypot(keys[:, 0], keys[:, 1]))
    if r0 is not None:
        return _reconstruct_circle(_pooled(((b.setting.angle, b.outcomes, b.setting.delta) for b in batches), r0), cfg)
    weights = np.array([b.weight for b in batches], dtype=float)
    if np.any(weights <= 0):
        raise InvalidParameter("batch weight (setting density) must be positive")
    z = cfg.scale.z
    # per batch: the mean kernel phase over its outcomes, over its setting density
    coeffs = _mean_phases([b.outcomes for b in batches], keys[:, 2], counts, z) * (z**2 / (2 * np.pi)) / weights
    zetas = kernel_displacement_argument(keys[:, 0], keys[:, 1], z)
    raw = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for start in range(0, len(batches), _SAMPLE_CHUNK):
        chunk = slice(start, start + _SAMPLE_CHUNK)
        raw += np.tensordot(coeffs[chunk], displacement_matrix(zetas[chunk], cfg.dim), axes=1)
    raw /= len(batches)
    return _finish(raw, cfg.projection, len(batches), int(counts.sum()), check_trace=False)


# ---------------------------------------------------------------------------
# comparison diagnostics
# ---------------------------------------------------------------------------


def _as_matrix(rho) -> np.ndarray:
    m = rho.entries if isinstance(rho, FockDensityMatrix) else np.asarray(rho, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidParameter(f"a density matrix must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("density matrix entries must be finite")
    return m


def _psd_sqrt(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(rho_a, rho_b) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(a) b sqrt(a)))^2``, clipped to [0, 1]."""
    a, b = _as_matrix(rho_a), _as_matrix(rho_b)
    if a.shape != b.shape:
        raise DimMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    sa = _psd_sqrt(0.5 * (a + a.conj().T))
    inner = sa @ (0.5 * (b + b.conj().T)) @ sa
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    value = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))) ** 2)
    return min(max(value, 0.0), 1.0)


def trace_distance(rho_a, rho_b) -> float:
    """``(1/2) Tr |a - b|``."""
    a, b = _as_matrix(rho_a), _as_matrix(rho_b)
    if a.shape != b.shape:
        raise DimMismatch(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    diff = 0.5 * ((a - b) + (a - b).conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# Wigner function by Fourier inversion of the tomogram
# ---------------------------------------------------------------------------

# phase-table entries per block of the inversion.  The line integral's blocks
# (marginals._LINE_BLOCK_POINTS) are 4 times smaller, to keep its ten or so
# live temporaries in cache; here each block's cos and sin tables feed one
# GEMM, which is faster on longer blocks: 61 x 61 points of a circle:64 cat
# took 364 ms at 2^16 and 388 ms at 2^14 (one BLAS thread, 2-core Xeon)
_INVERSION_BLOCK = 2**16


def wigner_from_tomogram(
    tomo: Tomogram,
    q,
    p,
    scale: KernelScale = KernelScale(),
    grid: PolarGrid = PolarGrid(),
) -> np.ndarray:
    """Recover ``W(q, p)`` from a circle Tomogram by a 3-d Fourier inversion.

    ``W(q, p) = (z^2 / 2 pi) integral dx dmu dnu w(x, mu, nu)
    exp(-i z (x - mu q - nu p))``, evaluated on the tomogram's angles and the
    radii of ``grid`` with the same circle-plus-scaling representation as the
    density reconstruction.  ``q`` and ``p`` are finite and broadcast
    together: the result has their shape, or is a float at a single point.
    A grid that ends before the kernel damping raises ``DegenerateConfig``.
    """
    z = _scale_z(scale, InvalidParameter)
    _check_config(grid, z)
    try:
        q, p = np.broadcast_arrays(np.atleast_1d(np.asarray(q, dtype=float)), np.atleast_1d(np.asarray(p, dtype=float)))
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"q and p must be real arrays that broadcast together: {exc}") from exc
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise InvalidParameter("q and p must be finite")
    r, wr = grid.nodes(z)
    _check_tomogram(tomo)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)  # (n_angles, n_r)
    coeff = ((z**2 / (2 * np.pi)) * phi_weights[:, None] * (wr * r) * chi).ravel()
    shape = q.shape
    q, p = q.ravel(), p.ravel()
    # W is real: only Re(coeff e^{i z r proj}) is summed, over blocks of points
    # whose (n_angles, n_r, block) phase tables hold about _INVERSION_BLOCK each
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    w = np.empty(q.size)
    block = max(1, _INVERSION_BLOCK // coeff.size)
    for start in range(0, q.size, block):
        pts = slice(start, start + block)
        proj = np.outer(cos_phi, q[pts]) + np.outer(sin_phi, p[pts])  # (n_angles, block)
        arg = (z * r[None, :, None] * proj[:, None, :]).reshape(coeff.size, -1)
        w[pts] = coeff.real @ np.cos(arg) - coeff.imag @ np.sin(arg)
    return w.reshape(shape) if w.size > 1 else float(w[0])
