"""The reconstruction kernel of symplectic and homodyne tomography.

For the generalized quadrature ``X = mu q + nu p + delta`` and a Fourier
component ``z``, the kernel is a scaled displacement operator::

    K(x; mu, nu, z) = (z^2 / 2 pi) exp(-i z x) D(zeta),
    zeta = -(z / sqrt(2)) (nu - i mu),

and the library builds it one way: ``displacement_matrix`` tables of the
number-basis elements ``<m|D(zeta)|n>``, batched over zeta, which the polar
assemblers integrate against the marginals.  Every table is read-only.  The
kernel depends on the apparatus grid, not on the state, so the real-argument
tables (the radial tables of the polar assemblers, which every
reconstruction on one grid shares) are memoized, at most four of them;
complex arguments are computed afresh.  These elements are bounded
(Gaussian envelope ``exp(-z^2 (mu^2+nu^2)/4)`` times a polynomial), which is
what makes sample averaging of the density matrix possible in this basis.

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

from .errors import DegenerateConfig, InvalidParameter
from .marginals import _check_count
from .states import _finite, _log_factorials, _numbers

__all__ = ["KernelScale", "PolarGrid", "displacement_matrix"]


@dataclass(frozen=True)
class KernelScale:
    """Fourier component ``z`` selecting one self-consistent kernel."""

    z: float = 1.0

    def __post_init__(self):
        z = _finite(self.z, "kernel scale z")
        if z == 0:
            raise InvalidParameter("kernel scale z must be nonzero")
        object.__setattr__(self, "z", z)


def _scale_z(scale: KernelScale, error: type) -> float:
    """The ``z`` of a ``KernelScale``; ``error`` for anything else."""
    if not isinstance(scale, KernelScale):
        raise error(f"scale must be a KernelScale, got {scale!r}")
    return scale.z


def kernel_displacement_argument(mu, nu, z: float):
    """``zeta = -(z / sqrt 2) (nu - i mu)`` of the settings ``(mu, nu)``, numbers or arrays."""
    return -(z / np.sqrt(2)) * (nu - 1j * mu)


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

    Returns a read-only array of shape ``zetas.shape + (dim, dim)``.  Real
    ``zetas`` are memoized on their bytes, shape and ``dim``: the four most
    recent such tables are kept and handed out again.  ``dim`` must be an
    integer >= 1 and the ``zetas`` finite numbers; anything else raises
    ``InvalidParameter``.
    """
    dim = _check_count(dim, 1, "dim")
    zetas = _numbers(zetas, "zetas", complex)
    if not np.isfinite(zetas).all():
        raise InvalidParameter("zetas must be finite")
    if zetas.dtype.kind == "c":
        return _displacement_table(zetas, dim)
    zetas = zetas.astype(float, copy=False)
    return _real_table(zetas.tobytes(), zetas.shape, dim)


@lru_cache(maxsize=4)
def _real_table(data: bytes, shape: tuple, dim: int) -> np.ndarray:
    """The table of the real zetas held in ``data``, kept for the next equal call."""
    return _displacement_table(np.frombuffer(data).reshape(shape), dim)


def _displacement_table(zetas: np.ndarray, dim: int) -> np.ndarray:
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
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# radial quadrature of the (mu, nu) plane
# ---------------------------------------------------------------------------


# the nodes cost milliseconds, and reconstructions ask for the same few sizes
_leggauss = lru_cache(maxsize=8)(leggauss)


def _check_radius(value, name: str, error: type = InvalidParameter) -> None:
    """Raise ``error`` unless ``value`` is a positive finite real; a bool is not one, as for ``states._finite``."""
    if isinstance(value, bool) or not (isinstance(value, Real) and 0.0 < value < np.inf):
        raise error(f"{name} must be a positive finite radius, got {value!r}")


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
        if self.r_max is not None:
            _check_radius(self.r_max, "r_max", DegenerateConfig)

    def resolve_r_max(self, z: float) -> float:
        return self.r_max if self.r_max is not None else 8.0 / abs(z)

    def nodes(self, z: float) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre radii and weights over ``[0, r_max]`` for the kernel scale ``z``."""
        r_max = self.resolve_r_max(z)
        t, w = _leggauss(self.n_r)
        return 0.5 * r_max * (t + 1.0), 0.5 * r_max * w
