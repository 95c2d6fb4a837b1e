"""Reconstruction kernel operators for symplectic and homodyne tomography.

For the generalized quadrature ``X = mu q + nu p + delta`` and a Fourier
component ``z``, the kernel is a scaled displacement operator::

    K(x; mu, nu, z) = (z^2 / 2 pi) exp(-i z x) D(zeta),
    zeta = -(z / sqrt(2)) (nu - i mu),

so every matrix element reduces to a displacement-operator element.  The
number-basis elements are bounded (Gaussian envelope ``exp(-z^2 (mu^2+nu^2)/4)``
times a polynomial), which is what makes sample averaging of the density
matrix possible in this basis; the coordinate-basis kernel is distributional
and is therefore exposed as a phase factor plus a delta-support residual, not
as a computation path.

Degenerate directions ``mu = nu = 0`` are meaningless for a marginal but keep
the kernel finite, so the kernel evaluators also accept plain ``(mu, nu)``
tuples that bypass the setting validation.

Every reconstruction integrates the kernel over the (mu, nu) plane in polar
coordinates: the angles are the record's, and ``PolarGrid`` alone decides
and checks the Gauss-Legendre radii, sized by the damping
``exp(-z^2 r^2 / 4)``.  Homodyne is its z = 1 preset over ``[0, r_cutoff]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CutoffTooSmall, DegenerateConfig, InvalidParameter
from .marginals import QuadratureSetting, _check_count
from .states import _log_factorials

__all__ = [
    "KernelScale",
    "PolarGrid",
    "HomodyneSetting",
    "displacement_element",
    "displacement_matrix",
    "kernel_number",
    "kernel_matrix",
    "kernel_coherent",
    "kernel_coordinate_phase",
    "kernel_homodyne_number",
]


@dataclass(frozen=True)
class KernelScale:
    """Fourier component ``z`` selecting one self-consistent kernel."""

    z: float = 1.0

    def __post_init__(self):
        if isinstance(self.z, (bool, np.bool_)) or self.z == 0 or not np.isfinite(self.z):
            raise InvalidParameter("kernel scale z must be a nonzero finite real")
        object.__setattr__(self, "z", float(self.z))


@dataclass(frozen=True)
class HomodyneSetting:
    """Rotated-quadrature measurement: phase ``phi`` and outcome ``x_phi``."""

    phi: float
    x_phi: float

    def __post_init__(self):
        if not (np.isfinite(self.phi) and np.isfinite(self.x_phi)):
            raise InvalidParameter(f"homodyne phase and outcome must be finite, got {self.phi!r}, {self.x_phi!r}")
        object.__setattr__(self, "phi", float(self.phi) % (2 * np.pi))
        object.__setattr__(self, "x_phi", float(self.x_phi))


def _mu_nu(setting) -> tuple[float, float]:
    if isinstance(setting, QuadratureSetting):
        return setting.mu, setting.nu
    mu, nu = setting[0], setting[1]
    return float(mu), float(nu)


def kernel_displacement_argument(setting, scale: KernelScale) -> complex:
    mu, nu = _mu_nu(setting)
    return -(scale.z / np.sqrt(2)) * (nu - 1j * mu)


# ---------------------------------------------------------------------------
# displacement-operator matrix elements
# ---------------------------------------------------------------------------
#
# <m|D(zeta)|n> = sqrt(n!/m!) zeta^(m-n) e^{-|zeta|^2/2} L_n^{(m-n)}(|zeta|^2)   (m >= n)
# <m|D(zeta)|n> = sqrt(m!/n!) (-conj(zeta))^(n-m) e^{-|zeta|^2/2} L_m^{(n-m)}(|zeta|^2)
#
# Factorial prefactors are computed in log domain from
# ``states._log_factorials`` (``math.lgamma``); the Laguerre ``L_n`` of the
# number-state Wigner and characteristic functions come from
# ``states._laguerre``.  The associated Laguerre values here come from the
# three-term recurrence, which stays accurate through
# n, m ~ 200; the explicit alternating series (the test suite's cross-check)
# loses all double precision once n |zeta|^2 is large.  One recurrence step
# advances every order d at once, and each diagonal d of the table (with its
# mirror) is filled in one assignment over p, so a table costs O(dim) array
# operations; every element keeps the arithmetic of the element-wise loop.


def _laguerre_table(y: np.ndarray, dim: int) -> np.ndarray:
    """table[p, d] = L_p^{(d)}(y) for p + d <= dim - 1, vectorized over y."""
    d = np.arange(dim).reshape((dim,) + (1,) * y.ndim)
    table = np.empty((dim, dim) + y.shape)
    table[0] = 1.0
    if dim > 1:
        table[1] = 1.0 + d - y
    for k in range(1, dim - 1):
        n = dim - 1 - k  # the orders d with k + 1 + d <= dim - 1
        table[k + 1, :n] = ((2 * k + 1 + d[:n] - y) * table[k, :n] - (k + d[:n]) * table[k - 1, :n]) / (k + 1)
    return table


def displacement_matrix(zetas, dim: int) -> np.ndarray:
    """All matrix elements ``<m|D(zeta)|n>`` for m, n < dim, batched over zeta.

    Returns an array of shape ``zetas.shape + (dim, dim)``.
    """
    zetas = np.asarray(zetas, dtype=complex)
    y = (zetas * zetas.conj()).real
    out = np.zeros(zetas.shape + (dim, dim), dtype=complex)
    logfact = _log_factorials(dim)
    envelope = np.exp(-y / 2)
    table = _laguerre_table(y, dim)
    for d in range(dim):
        p = np.arange(dim - d)
        pref = np.exp(0.5 * (logfact[p] - logfact[p + d])).reshape((-1,) + (1,) * y.ndim)
        L = table[: dim - d, d]
        # the diagonal's values come out with p first; out holds p on its last axes
        if d == 0:
            out[..., p, p] = np.moveaxis(pref * envelope * L, 0, -1)
        else:
            out[..., p + d, p] = np.moveaxis(pref * zetas**d * envelope * L, 0, -1)
            out[..., p, p + d] = np.moveaxis(pref * (-zetas.conj()) ** d * envelope * L, 0, -1)
    return out


def _check_indices(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise InvalidParameter("number-state indices must be nonnegative")


def displacement_element(m: int, n: int, zeta: complex) -> complex:
    """Single element ``<m|D(zeta)|n>``."""
    _check_indices(m, n)
    return complex(displacement_matrix(complex(zeta), max(m, n) + 1)[m, n])


# ---------------------------------------------------------------------------
# kernel in the three representations
# ---------------------------------------------------------------------------


def _prefactor(x: float, scale: KernelScale) -> complex:
    return scale.z**2 / (2 * np.pi) * np.exp(-1j * scale.z * x)


def kernel_number(
    n_row: int, n_col: int, x: float, setting, scale: KernelScale = KernelScale()
) -> complex:
    """Number-basis kernel element ``<n_row| K(x; mu, nu, z) |n_col>``."""
    zeta = kernel_displacement_argument(setting, scale)
    return _prefactor(x, scale) * displacement_element(n_row, n_col, zeta)


def kernel_matrix(x: float, setting, scale: KernelScale, dim: int) -> np.ndarray:
    """Dense ``dim x dim`` number-basis kernel at one (x, setting) point."""
    zeta = kernel_displacement_argument(setting, scale)
    return _prefactor(x, scale) * displacement_matrix(np.asarray(zeta), dim)


def kernel_coherent(
    alpha: complex, beta: complex, x: float, setting, scale: KernelScale = KernelScale()
) -> complex:
    """Coherent-basis kernel element ``<alpha| K |beta>`` (closed form)."""
    mu, nu = _mu_nu(setting)
    z = scale.z
    overlap = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
    return (
        _prefactor(x, scale)
        * np.exp(-(z / np.sqrt(2)) * (nu - 1j * mu) * np.conj(alpha))
        * np.exp((z / np.sqrt(2)) * (nu + 1j * mu) * beta)
        * np.exp(-(z**2) * (mu**2 + nu**2) / 4)
        * overlap
    )


def kernel_coordinate_phase(
    q_row: float, q_col: float, x: float, setting, scale: KernelScale = KernelScale()
) -> tuple[complex, float]:
    """Coordinate-basis kernel as (phase factor, delta-constraint residual).

    The element is ``phase * delta(q_col - z nu - q_row)``: supported only
    where the returned residual vanishes, and unbounded there — which is why
    sampling-based reconstruction works in the number or coherent basis only.
    """
    mu, nu = _mu_nu(setting)
    z = scale.z
    phase = _prefactor(x, scale) * np.exp(1j * z**2 * mu * nu / 2) * np.exp(1j * z * mu * q_row)
    residual = q_col - z * nu - q_row
    return complex(phase), float(residual)


# ---------------------------------------------------------------------------
# radial quadrature of the (mu, nu) plane and the homodyne kernel
# ---------------------------------------------------------------------------


# the nodes cost milliseconds and every per-element homodyne kernel needs them
_leggauss = lru_cache(maxsize=8)(leggauss)


def _radial_nodes(r_max: float, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre radii and weights over ``[0, r_max]``."""
    t, w = _leggauss(n_r)
    return 0.5 * r_max * (t + 1.0), 0.5 * r_max * w


@dataclass(frozen=True)
class PolarGrid:
    """Radii of the polar quadrature over the (mu, nu) plane; the angles are the record's.

    ``n_r >= 4`` Gauss-Legendre radii cover ``[0, r_max]``.  ``r_max = None``
    is ``8 / |z|``, where the kernel damping ``exp(-z^2 r^2 / 4)`` is ~1e-7.
    """

    r_max: float | None = None
    n_r: int = 64

    def __post_init__(self):
        _check_count(self.n_r, 4, "n_r", DegenerateConfig)
        if self.r_max is not None and not (isinstance(self.r_max, Real) and 0.0 < self.r_max < np.inf):
            raise DegenerateConfig(f"r_max must be None or a positive finite radius, got {self.r_max!r}")

    def resolve_r_max(self, z: float) -> float:
        return self.r_max if self.r_max is not None else 8.0 / abs(z)

    def nodes(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """Radii and weights for the kernel scale ``z``."""
        return _radial_nodes(self.resolve_r_max(z), self.n_r)


def kernel_homodyne_number(n_row: int, n_col: int, homodyne: HomodyneSetting, r_cutoff: float = 12.0) -> complex:
    """Homodyne kernel element: the z = 1 kernel integrated along its ray.

    The phase ``phi`` is the unit setting ``(cos phi, sin phi)``, whose ray
    ``r (cos phi, sin phi)`` has ``zeta = i r e^{i phi} / sqrt 2``; the
    radial integral runs over the full line with ``|r|/2`` weight,

    ``K_phi(x) = (1/4pi) int_{-R}^{R} dr |r| exp(-i r x) D(zeta_r)``,

    on the radii ``PolarGrid(r_cutoff)`` of ``reconstruct_homodyne``, so integrating
    these elements against a tomogram reproduces that reconstruction.  The
    full line is the Hermitian combination of the two half-line integrals:
    integrating the half-line form over the full phase circle gives the same
    density matrix, but only this combination satisfies
    ``conj(<n|K_phi(x)|m>) = <m|K_phi(x)|n>`` element by element.
    ``CutoffTooSmall`` is raised when the tail ``int_R^{R+16} r |T(r)| dr / 2pi``
    exceeds ``1e-3`` of the element scale.
    """
    _check_indices(n_row, n_col)
    if not 0.0 < r_cutoff < np.inf:
        raise InvalidParameter(f"r_cutoff must be a positive finite radius, got {r_cutoff!r}")
    r, wr = PolarGrid(r_cutoff).nodes(1.0)
    # the discarded tail, measured on 32 more radii over [R, R + 16]
    t, wt = _radial_nodes(16.0, 32)
    radii = np.concatenate([r, r_cutoff + t])
    table = displacement_matrix(1j * radii * np.exp(1j * homodyne.phi) / np.sqrt(2), max(n_row, n_col) + 1)
    ray = radii * np.exp(-1j * radii * homodyne.x_phi) / (2 * np.pi)
    inner = r.size
    half_nm = (wr * ray[:inner]) @ table[:inner, n_row, n_col]
    half_mn = (wr * ray[:inner]) @ table[:inner, n_col, n_row]
    value = 0.5 * (half_nm + np.conj(half_mn))
    tail = wt @ np.abs(ray[inner:] * table[inner:, n_row, n_col])
    scale = max(abs(value), 1.0 / (2 * np.pi))
    if tail > 1e-3 * scale:
        raise CutoffTooSmall(f"radial tail estimate {tail:.3g} at r_cutoff {r_cutoff}")
    return complex(value)
