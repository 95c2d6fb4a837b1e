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

from dataclasses import dataclass, field

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
from .marginals import _BLOCK_POINTS, QuadratureSetting, Tomogram, _check_count, _trapezoid_weights
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


def _row_fourier(values: np.ndarray, x: np.ndarray, deltas: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` by trapezoid."""
    # real products with the cos and sin tables, which carry the trapezoid
    # weights: the rows are neither weighted in a copy nor cast to complex
    weights = _trapezoid_weights(x)[:, None]
    arg = np.outer(x, freqs)  # (n_x, n_k)
    cos = np.cos(arg)
    cos *= weights
    sin = np.sin(arg, out=arg)
    sin *= weights
    return (values @ cos - 1j * (values @ sin)) * np.exp(1j * np.outer(deltas, freqs))


def _circle_radius(settings) -> float | None:
    """The radius every setting shares to a relative 1e-9, or None when they differ."""
    radii = np.array([s.radius for s in settings])
    r0 = float(radii.mean())
    return r0 if np.max(np.abs(radii - r0)) <= 1e-9 * max(r0, 1.0) else None


def _pooled(pairs) -> dict[float, list]:
    """The outcomes of ``(phi, xs)`` pairs per angle mod 2 pi: the batches of one angle pool into one record."""
    pooled: dict[float, list] = {}
    for phi, xs in pairs:
        pooled.setdefault(float(phi) % (2 * np.pi), []).append(np.ravel(xs))
    return pooled


def _check_pairs(pairs) -> None:
    """Refuse an entry that is not a ``(phi, xs)`` pair of a finite phase and finite real outcomes."""
    for index, entry in enumerate(pairs):
        try:
            phi, xs = entry
            finite = np.isfinite(float(phi)) and np.all(np.isfinite(np.asarray(xs, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"entry {index} is not a (phi, xs) pair of real numbers") from exc
        if not finite:
            raise InvalidParameter(f"entry {index}: phases and outcomes must be finite")


def _empirical_characteristic(xs: np.ndarray, r: np.ndarray, chunk: int = 512) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    acc = np.zeros(r.size, dtype=complex)
    for start in range(0, xs.size, chunk):
        acc += np.exp(1j * np.outer(xs[start : start + chunk], r)).sum(axis=0)
    return acc / xs.size


def _circle_chi(data, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles, angle weights and ``chi[p, k]`` at ``freqs[k]`` times the unit radius.

    ``data`` is a circle Tomogram or a list of ``(phi, xs)`` pairs of centred
    unit-circle outcomes, pooled per angle; angles on less than half the
    circle gain antipodes.
    """
    if isinstance(data, Tomogram):
        r0 = _circle_radius(data.settings)
        if r0 is None:
            raise DegenerateConfig("tomogram settings must lie on a common circle")
        phis = np.array([s.angle for s in data.settings])
        chi = _row_fourier(data.values, data.x, np.array([s.delta for s in data.settings]), freqs / r0)
    elif isinstance(data, (list, tuple)):
        _check_pairs(data)
        if not data or any(np.size(xs) == 0 for _, xs in data):
            raise EmptyBatches("every phase needs samples")
        pooled = _pooled(data)
        phis = np.array(list(pooled))
        chi = np.array([_empirical_characteristic(np.concatenate(xs), -freqs) for xs in pooled.values()])
    else:
        raise InvalidParameter(f"need a Tomogram or (phi, x) pairs, not {type(data).__name__}: use tabulate_tomogram")
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
    """The polar reconstruction of a circle Tomogram or of ``(phi, xs)`` pairs
    of centred unit-circle outcomes on the radii of ``cfg.grid``.

    A Tomogram is checked in ``_finish`` on its raw trace, its raw
    eigenvalue and its radial tail ``2 max|rho(R)| / (z^2 R)`` at ``R =
    r_max``; pairs skip all three, their ``chi`` a noise floor of ~1/sqrt(N).
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
        return _finish(raw, cfg.projection, len(_pooled(data)), sum(np.size(xs) for _, xs in data), check_trace=False)
    # beyond R the integrand decays like exp(-z^2 r^2 / 4), so the discarded part is
    # about the boundary integrand times int_R^inf (r/R) exp(-z^2 (r^2 - R^2) / 4) dr = 2 / (z^2 R)
    R = radii[-1]
    boundary = _assemble_rho(chi[:, n_r:], phis, phi_weights, radial[n_r:], np.array([R * z**2 / (2 * np.pi)]))
    tail = 2.0 * float(np.max(np.abs(boundary))) / (z**2 * R)
    return _finish(raw, cfg.projection, len(data.settings), 0, check_trace=True, tail=tail)


def reconstruct_from_tomogram(tomo: Tomogram, cfg: ReconstructionConfig) -> ReconstructionReport:
    """Reconstruct a one-mode density matrix from a circle Tomogram.

    The angles and the circle radius are the tomogram's; ``cfg.grid`` sets
    only the radii.  A state must be tabulated first with
    ``tabulate_tomogram``.
    """
    _check_config_type(cfg, ReconstructionConfig)
    if not isinstance(tomo, Tomogram):
        raise InvalidParameter(f"need a Tomogram, not {type(tomo).__name__}: use tabulate_tomogram")
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
    return _reconstruct_circle(data, ReconstructionConfig(KernelScale(1.0), dim, PolarGrid(r_cutoff), projection))


# ---------------------------------------------------------------------------
# sample-based reconstruction
# ---------------------------------------------------------------------------


# batches per displacement table: 256 settings at dim 80 are a 26 MB table
_SAMPLE_CHUNK = 256


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
    if not batches or all(len(b.outcomes) == 0 for b in batches):
        raise EmptyBatches("no samples to average")
    if not all(isinstance(b.setting, QuadratureSetting) for b in batches):
        raise UnsupportedVariant("two-mode sample reconstruction is not available yet; reconstruct a two-mode tomogram")
    if len({(b.setting.mu, b.setting.nu) for b in batches}) < 2:
        raise InvalidParameter("a campaign needs two or more distinct settings (mu, nu) to determine a state")
    if any(len(b.outcomes) == 0 for b in batches):
        raise EmptyBatches("encountered an empty batch")
    r0 = _circle_radius([b.setting for b in batches])
    if r0 is not None:
        return _reconstruct_circle([(b.setting.angle, (b.outcomes - b.setting.delta) / r0) for b in batches], cfg)
    weights = np.array([b.weight for b in batches], dtype=float)
    if np.any(weights <= 0):
        raise InvalidParameter("batch weight (setting density) must be positive")
    z = cfg.scale.z
    # per batch: the mean kernel phase over its outcomes, over its setting density
    coeffs = np.array(
        [np.mean(np.exp(-1j * z * (np.asarray(b.outcomes, dtype=float) - b.setting.delta))) for b in batches]
    ) * (z**2 / (2 * np.pi)) / weights
    zetas = np.array([kernel_displacement_argument(b.setting, cfg.scale) for b in batches])
    raw = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    for start in range(0, len(batches), _SAMPLE_CHUNK):
        chunk = slice(start, start + _SAMPLE_CHUNK)
        raw += np.tensordot(coeffs[chunk], displacement_matrix(zetas[chunk], cfg.dim), axes=1)
    raw /= len(batches)
    return _finish(raw, cfg.projection, len(batches), sum(len(b.outcomes) for b in batches), check_trace=False)


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
    phis, phi_weights, chi = _circle_chi(tomo, z * r)  # (n_angles, n_r)
    coeff = ((z**2 / (2 * np.pi)) * phi_weights[:, None] * (wr * r) * chi).ravel()
    shape = q.shape
    q, p = q.ravel(), p.ravel()
    # W is real: only Re(coeff e^{i z r proj}) is summed, over blocks of points
    # whose (n_angles, n_r, block) phase tables hold about _BLOCK_POINTS each
    cos_phi, sin_phi = np.cos(phis), np.sin(phis)
    w = np.empty(q.size)
    block = max(1, _BLOCK_POINTS // coeff.size)
    for start in range(0, q.size, block):
        pts = slice(start, start + block)
        proj = np.outer(cos_phi, q[pts]) + np.outer(sin_phi, p[pts])  # (n_angles, block)
        arg = (z * r[None, :, None] * proj[:, None, :]).reshape(coeff.size, -1)
        w[pts] = coeff.real @ np.cos(arg) - coeff.imag @ np.sin(arg)
    return w.reshape(shape) if w.size > 1 else float(w[0])
