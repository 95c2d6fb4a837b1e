"""Density-matrix reconstruction from quadrature marginals.

Two estimators are provided for the symplectic scheme::

    rho = integral dx dmu dnu  w(x, mu, nu) K(x; mu, nu, z)

* deterministic quadrature over a polar (mu, nu) grid, fed by a tabulated
  tomogram (a state is tabulated first);
* kernel averaging over simulated measurement samples drawn with
  importance-weighted settings.

Homodyne reconstruction is the z = 1 polar quadrature restricted to the
rotation subgroup: its phase distributions fix the characteristic function
on every ray, so it shares the one-mode assembler.

Tabulated tomograms are expected on a common circle of settings: the exact
scaling property ``w(x, r u) = (r0/r) w(x r0 / r, r0 u)`` extends them over
the whole plane, so the x-integral at radius r is just the row's Fourier
transform evaluated at frequency ``z r / r0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    CutoffTooSmall,
    DegenerateConfig,
    DimMismatch,
    EmptyBatches,
    GridUnderresolved,
    InvalidParameter,
)
from .kernels import KernelScale, displacement_matrix, kernel_displacement_argument
from .marginals import Tomogram, circle_settings, tabulate_tomogram
from .states import FockDensityMatrix

__all__ = [
    "PolarGrid",
    "ReconstructionConfig",
    "ReconstructionReport",
    "reconstruct_from_tomogram",
    "reconstruct_from_samples",
    "reconstruct_homodyne",
    "fidelity",
    "trace_distance",
    "wigner_from_tomogram",
]


@dataclass(frozen=True)
class PolarGrid:
    """Polar quadrature grid over the (mu, nu) plane.

    ``r_max = None`` defaults to ``8 / |z|``, sized so the kernel damping
    ``exp(-z^2 r^2 / 4)`` is ~1e-7 at the boundary.
    """

    r_max: float | None = None
    n_r: int = 64
    n_phi: int = 64

    def resolve_r_max(self, z: float) -> float:
        return self.r_max if self.r_max is not None else 8.0 / abs(z)


PROJECTIONS = ("none", "hermitize", "clip")


def _check_projection(projection: str) -> None:
    if projection not in PROJECTIONS:
        raise DegenerateConfig(f"unknown projection {projection!r}")


@dataclass(frozen=True)
class ReconstructionConfig:
    scale: KernelScale = field(default_factory=KernelScale)
    dim: int = 12
    grid: PolarGrid = field(default_factory=PolarGrid)
    x_points: int = 1201
    projection: str = "hermitize"  # none | hermitize | clip

    def __post_init__(self):
        if self.dim < 1 or int(self.dim) != self.dim:
            raise DegenerateConfig("dim must be a positive integer")
        _check_projection(self.projection)
        if self.grid.n_r < 4 or self.grid.n_phi < 4:
            raise DegenerateConfig("polar grid needs at least 4 nodes per axis")
        r_max = self.grid.resolve_r_max(self.scale.z)
        if r_max * abs(self.scale.z) < 6.0:
            raise DegenerateConfig(
                "r_max * |z| must be >= 6 so the kernel damping has decayed at the boundary"
            )


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


def _radial_nodes(r_max: float, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = leggauss(n_r)
    return 0.5 * r_max * (t + 1.0), 0.5 * r_max * w


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _angle_weights(phis: np.ndarray) -> np.ndarray:
    """Periodic Voronoi arc lengths; reduces to 2 pi / n for uniform angles."""
    order = np.argsort(phis)
    sorted_phis = phis[order]
    gaps = np.diff(np.concatenate([sorted_phis, [sorted_phis[0] + 2 * np.pi]]))
    if np.any(gaps <= 0):
        raise DegenerateConfig("tomogram settings must have distinct angles")
    w = 0.5 * (gaps + np.roll(gaps, 1))
    out = np.empty_like(w)
    out[order] = w
    return out


def _assemble_rho(
    chi: np.ndarray,
    phis: np.ndarray,
    phi_weights: np.ndarray,
    r: np.ndarray,
    wr: np.ndarray,
    z: float,
    dim: int,
) -> np.ndarray:
    """Sum ``w_phi w_r r chi (z^2/2pi) D(zeta)`` over the polar nodes.

    The node ``(mu, nu) = r (cos phi, sin phi)`` has ``zeta = (z r / sqrt 2)
    e^{i theta}`` with ``theta = phi + pi/2``, and
    ``<m|D(a e^{i theta})|n> = e^{i(m-n) theta} <m|D(a)|n>`` for real ``a``:
    one real-axis table per radius and the angular Fourier sum of ``chi`` over
    ``m - n`` replace the per-node tables.
    """
    radial = displacement_matrix(z * r / np.sqrt(2), dim)  # (n_r, dim, dim)
    orders = np.arange(1 - dim, dim)
    angular = np.exp(1j * np.outer(orders, phis + np.pi / 2)) @ (phi_weights[:, None] * chi)
    n = np.arange(dim)
    per_element = angular[n[:, None] - n[None, :] + dim - 1]  # (dim, dim, n_r)
    return np.einsum("mnr,r,rmn->mn", per_element, wr * r * (z**2 / (2 * np.pi)), radial)


def _row_fourier(values: np.ndarray, x: np.ndarray, deltas: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` by trapezoid."""
    tw = _trapezoid_weights(x)
    phase = np.exp(-1j * np.outer(x, freqs))  # (n_x, n_k)
    chi = (values * tw[None, :]) @ phase
    return chi * np.exp(1j * np.outer(deltas, freqs))


def _tomogram_circle_data(tomo: Tomogram) -> tuple[np.ndarray, float]:
    radii = np.array([s.radius for s in tomo.settings])
    r0 = float(radii.mean())
    if np.max(np.abs(radii - r0)) > 1e-9 * max(r0, 1.0):
        raise DegenerateConfig("tomogram settings must lie on a common circle")
    phis = np.array([s.angle for s in tomo.settings]) % (2 * np.pi)
    return phis, r0


def _as_tomogram(source, n_phi: int, x_points: int) -> Tomogram:
    if isinstance(source, Tomogram):
        return source
    return tabulate_tomogram(source, circle_settings(n_phi), num=x_points)


def _circle_chi(tomo: Tomogram, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles, angle weights and ``chi[p, k]`` at ``freqs[k]`` times the unit radius."""
    phis, r0 = _tomogram_circle_data(tomo)
    deltas = np.array([s.delta for s in tomo.settings])
    return phis, _angle_weights(phis), _row_fourier(tomo.values, tomo.x, deltas, freqs / r0)


def _diagnostics(raw: np.ndarray) -> tuple[float, float]:
    trace_error = abs(float(np.trace(raw).real) - 1.0)
    herm = float(np.max(np.abs(raw - raw.conj().T)))
    return trace_error, herm


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
) -> ReconstructionReport:
    trace_error, herm = _diagnostics(raw)
    if check_trace and trace_error > 5e-2:
        raise GridUnderresolved(f"raw trace deviates from 1 by {trace_error:.3g}")
    projected = _project(raw, projection)
    h = 0.5 * (projected + projected.conj().T)
    min_eig = float(np.linalg.eigvalsh(h)[0])
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
# deterministic reconstruction
# ---------------------------------------------------------------------------


def reconstruct_from_tomogram(source, cfg: ReconstructionConfig) -> ReconstructionReport:
    """Reconstruct a one-mode density matrix from exact marginal data.

    ``source`` is a circle Tomogram or a one-mode state.  A state is first
    tabulated on a unit circle of ``cfg.grid.n_phi`` angles with
    ``cfg.x_points`` outcomes; tomograms bring their own angles and radius.
    """
    tomo = _as_tomogram(source, cfg.grid.n_phi, cfg.x_points)
    z = cfg.scale.z
    r, wr = _radial_nodes(cfg.grid.resolve_r_max(z), cfg.grid.n_r)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)
    raw = _assemble_rho(chi, phis, phi_weights, r, wr, z, cfg.dim)
    return _finish(raw, cfg.projection, len(tomo.settings), 0, check_trace=True)


# ---------------------------------------------------------------------------
# sample-based reconstruction
# ---------------------------------------------------------------------------


def reconstruct_from_samples(batches, cfg: ReconstructionConfig) -> ReconstructionReport:
    """Kernel-averaging estimator over per-setting sample batches.

    Each batch must carry the plane density ``weight`` of its setting; the
    estimator is the batch mean of ``K / weight``, unbiased for settings
    drawn from that density.  The standard error scales as ``1/sqrt(N)``.
    A campaign on fewer than two distinct ``(mu, nu)`` raises
    ``InvalidParameter``.
    """
    batches = list(batches)
    if not batches or all(len(b.outcomes) == 0 for b in batches):
        raise EmptyBatches("no samples to average")
    if len({(b.setting.mu, b.setting.nu) for b in batches}) < 2:
        raise InvalidParameter("a campaign needs two or more distinct settings (mu, nu) to determine a state")
    z = cfg.scale.z
    raw = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    total = 0
    for b in batches:
        outcomes = np.asarray(b.outcomes, dtype=float)
        if outcomes.size == 0:
            raise EmptyBatches("encountered an empty batch")
        if b.weight <= 0:
            raise InvalidParameter("batch weight (setting density) must be positive")
        x = outcomes - b.setting.delta
        mean_phase = np.mean(np.exp(-1j * z * x))
        zeta = kernel_displacement_argument(b.setting, cfg.scale)
        D = displacement_matrix(np.asarray(zeta), cfg.dim)
        raw += (z**2 / (2 * np.pi)) * mean_phase * D / b.weight
        total += outcomes.size
    raw /= len(batches)
    return _finish(raw, cfg.projection, len(batches), total, check_trace=False)


# ---------------------------------------------------------------------------
# homodyne reconstruction
# ---------------------------------------------------------------------------


def reconstruct_homodyne(
    data,
    dim: int,
    r_cutoff: float = 12.0,
    projection: str = "hermitize",
) -> ReconstructionReport:
    """Reconstruct from rotated-quadrature data as the z = 1 polar reconstruction.

    The phases ``phi`` are the settings ``(cos phi, sin phi)`` of the unit
    circle, so the estimate is the z = 1 symplectic quadrature on
    Gauss-Legendre radii over ``[0, r_cutoff]``.  ``data`` is either a circle
    Tomogram (rows become exact phase distributions) or an iterable of
    ``(phi, samples)`` pairs.  Phases that only cover ``[0, pi)`` are
    mirrored to the full circle using ``x_(phi+pi) = -x_phi``.
    """
    _check_projection(projection)
    r, wr = _radial_nodes(r_cutoff, PolarGrid.n_r)
    # one extra column at r_cutoff for the tail estimate: Gauss-Legendre
    # radii have no node on the boundary
    radii = np.append(r, r_cutoff)
    if isinstance(data, Tomogram):
        phis, phi_weights, chi = _circle_chi(data, radii)
        samples_used = 0
        settings_used = len(data.settings)
    else:
        pairs = [(float(phi), np.asarray(xs, dtype=float)) for phi, xs in data]
        if not pairs or any(xs.size == 0 for _, xs in pairs):
            raise EmptyBatches("every homodyne phase needs samples")
        phis = np.asarray([p for p, _ in pairs])
        chi = np.array([_empirical_characteristic(xs, -radii) for _, xs in pairs])
        span = (phis.max() - phis.min()) % (2 * np.pi)
        if span < np.pi:
            # extend [0, pi) coverage: x_(phi+pi) = -x_phi, so the mirrored
            # characteristic is the complex conjugate
            phis = np.concatenate([phis, (phis + np.pi) % (2 * np.pi)])
            chi = np.concatenate([chi, chi.conj()])
        phi_weights = _angle_weights(phis % (2 * np.pi))
        samples_used = sum(xs.size for _, xs in pairs)
        settings_used = len(pairs)

    # beyond the boundary the integrand decays like exp(-r^2/4), so the
    # discarded part is about the boundary integrand times
    # int_R^inf (r/R) exp(-(r^2 - R^2)/4) dr = 2/R
    boundary = _assemble_rho(chi[:, -1:], phis, phi_weights, radii[-1:], np.ones(1), 1.0, dim)
    tail = 2.0 * float(np.max(np.abs(boundary))) / r_cutoff
    if tail > 1e-3:
        raise CutoffTooSmall(f"radial tail estimate {tail:.3g} at r_cutoff {r_cutoff}")
    raw = _assemble_rho(chi[:, :-1], phis, phi_weights, r, wr, 1.0, dim)
    return _finish(raw, projection, settings_used, samples_used, check_trace=False)


def _empirical_characteristic(xs: np.ndarray, r: np.ndarray, chunk: int = 512) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    acc = np.zeros(r.size, dtype=complex)
    for start in range(0, xs.size, chunk):
        acc += np.exp(1j * np.outer(xs[start : start + chunk], r)).sum(axis=0)
    return acc / xs.size


# ---------------------------------------------------------------------------
# comparison diagnostics
# ---------------------------------------------------------------------------


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, FockDensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


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
    source,
    q,
    p,
    scale: KernelScale = KernelScale(),
    grid: PolarGrid = PolarGrid(),
    x_points: int = 1201,
) -> np.ndarray:
    """Recover ``W(q, p)`` from marginal data by a 3-d Fourier inversion.

    ``W(q, p) = (z^2 / 2 pi) integral dx dmu dnu w(x, mu, nu)
    exp(-i z (x - mu q - nu p))``, evaluated on the polar grid with the same
    circle-plus-scaling representation as the density reconstruction.
    """
    tomo = _as_tomogram(source, grid.n_phi, x_points)
    z = scale.z
    r, wr = _radial_nodes(grid.resolve_r_max(z), grid.n_r)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)  # (n_phi, n_r)

    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    proj = np.cos(phis)[:, None] * q[None, :] + np.sin(phis)[:, None] * p[None, :]
    phase = np.exp(1j * z * r[None, :, None] * proj[:, None, :])  # (n_phi, n_r, n_pts)
    integrand = (phi_weights[:, None] * (wr * r)[None, :] * chi)[..., None] * phase
    w = (z**2 / (2 * np.pi)) * integrand.sum(axis=(0, 1))
    return w.real if w.size > 1 else float(w.real[0])
