"""One- and two-mode quantum states, their Fock-basis density matrices and Wigner functions.

Conventions used throughout the toolkit (dimensionless, hbar = 1):

* ``alpha = (q + i p) / sqrt(2)`` relates coherent amplitudes to quadratures.
* The Wigner function is normalized to ``integral W dq dp = 2 pi`` per mode
  (``(2 pi)^2`` for two modes).  This is the normalization under which the
  marginal of ``mu q + nu p`` obtained as a line integral of W, divided by
  ``2 pi``, is a unit-normalized probability density.  Every kernel and
  reconstruction formula in the package assumes it.

With this choice the vacuum Wigner function is ``2 exp(-q^2 - p^2)`` and a
thermal state with ``lam = tanh(hbar w / 2 k T)`` has
``W(q, p) = 2 lam exp(-lam (q^2 + p^2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    DimMismatch,
    InvalidParameter,
    TruncationTooSmall,
    UnsupportedVariant,
)

DEFAULT_DIM = 40

__all__ = [
    "DEFAULT_DIM",
    "Vacuum",
    "NumberState",
    "Coherent",
    "EvenCat",
    "Thermal",
    "Custom",
    "OneModeState",
    "FockDensityMatrix",
    "CovarianceMatrix",
    "GaussianTwoMode",
    "TwoModeCat",
    "ProductState",
    "TwoModeState",
    "density_matrix",
    "fock_coefficients",
    "wigner",
    "wigner_two_mode",
    "coherent_cross_wigner",
    "characteristic_one_mode",
    "thermal_occupancy",
]


def _check_count(value, least: int, name: str, error: type = InvalidParameter) -> int:
    """``value`` as an int, after checking that it is an integer (a bool is
    not) of at least ``least``; ``error`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _fixed_vector(values, size: int, dtype, name: str) -> np.ndarray:
    """``values`` as a writable 1-d copy of ``size`` entries; ``InvalidParameter`` otherwise."""
    arr = np.array(values, dtype=dtype)
    if arr.size != size:
        raise InvalidParameter(f"{name} must have {size} entries, got shape {arr.shape}")
    return arr.reshape(size)


# ---------------------------------------------------------------------------
# density matrix container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockDensityMatrix:
    """Truncated density matrix in the number basis.

    ``entries[n, m]`` is the element ``<n| rho |m>``.  Hermiticity is enforced
    on construction by averaging with the conjugate transpose; the stored
    array is made read-only.  For a two-mode matrix ``dims = (d1, d2)`` and
    the flat index is mode-1 major: ``(n1, n2) -> n1 * d2 + n2``.
    """

    entries: np.ndarray
    dims: tuple[int, int] | None = None

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidParameter("density matrix must be a square matrix")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("density matrix entries must be finite")
        if self.dims is not None:
            if not (isinstance(self.dims, (tuple, list)) and len(self.dims) == 2):
                raise InvalidParameter(f"dims must be a pair of positive integers, got {self.dims!r}")
            d1, d2 = (_check_count(d, 1, "each of dims") for d in self.dims)
            if d1 * d2 != arr.shape[0]:
                raise InvalidParameter("dims inconsistent with matrix size")
        arr = 0.5 * (arr + arr.conj().T)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])

    def coherent_element(self, alpha: complex, beta: complex) -> complex:
        """``<alpha| rho |beta>`` within the truncated space."""
        va = coherent_amplitudes(alpha, self.dim)
        vb = coherent_amplitudes(beta, self.dim)
        return complex(va.conj() @ self.entries @ vb)

    def validate(self, tol_trace: float = 1e-6, tol_psd: float = 1e-8) -> None:
        """Check unit trace and positivity within tolerances."""
        if abs(self.trace() - 1.0) > tol_trace:
            raise InvalidParameter(f"trace deviates from 1 by {abs(self.trace() - 1.0):.3g}")
        mineig = self.min_eigenvalue()
        if mineig < -tol_psd:
            raise InvalidParameter(f"negative eigenvalue {mineig:.3g}")


# ---------------------------------------------------------------------------
# one-mode state variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vacuum:
    pass


@dataclass(frozen=True)
class NumberState:
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.n) and self.n >= 0 and int(self.n) == self.n):
            raise InvalidParameter("photon number must be a nonnegative integer")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class Coherent:
    alpha: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not np.isfinite(alpha):
            raise InvalidParameter(f"coherent amplitude must be finite, got {alpha}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class EvenCat:
    """Normalized superposition ``|a+ib> + |a-ib>`` of two coherent states.

    The normalization constant is ``{2 [1 + cos(2ab) exp(-2 b^2)]}^(-1/2)``,
    finite for all real ``a``, ``b``.
    """

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise InvalidParameter(f"cat amplitudes must be finite, got a = {a}, b = {b}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def norm_squared(self) -> float:
        """``N^2`` such that ``|psi> = (|a+ib> + |a-ib>) / N``."""
        return 2.0 * (1.0 + np.cos(2 * self.a * self.b) * np.exp(-2 * self.b**2))


@dataclass(frozen=True)
class Thermal:
    """Thermal state parametrized by ``lam = tanh(hbar w / 2 k T) in (0, 1]``.

    ``lam = 1`` is the zero-temperature (vacuum) limit; the Boltzmann factor
    is ``exp(-hbar w / k T) = (1 - lam) / (1 + lam)``.
    """

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise InvalidParameter(f"thermal parameter must lie in (0, 1], got {self.lam}")
        object.__setattr__(self, "lam", float(self.lam))


@dataclass(frozen=True)
class Custom:
    rho: FockDensityMatrix

    def __post_init__(self):
        if not isinstance(self.rho, FockDensityMatrix):
            raise InvalidParameter(f"a Custom state needs a FockDensityMatrix, not {type(self.rho).__name__}")


OneModeState = Union[Vacuum, NumberState, Coherent, EvenCat, Thermal, Custom]


def thermal_occupancy(lam: float) -> float:
    """Boltzmann factor ``(1 - lam) / (1 + lam)`` of a thermal state."""
    return (1.0 - lam) / (1.0 + lam)


# ---------------------------------------------------------------------------
# special functions: the number basis needs only log-factorials and L_n
# ---------------------------------------------------------------------------


def _log_factorials(n: int) -> np.ndarray:
    """``log k!`` for k < n; finite far past k ~ 170, where ``k!`` overflows."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _laguerre(n: int, x) -> np.ndarray:
    """Laguerre polynomial ``L_n(x)``, elementwise over ``x``.

    The forward recurrence on the difference ``d = L_k - L_{k-1}``, which stays
    accurate at large ``n x`` where the alternating power series does not.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    d = -x
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + 1) * p + (k / (k + 1)) * d
        p = d + p
    return p


# ---------------------------------------------------------------------------
# Fock expansions
# ---------------------------------------------------------------------------


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Number-basis amplitudes ``<n|alpha>`` for n < dim."""
    n = np.arange(dim)
    if alpha == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    # log-domain magnitude, explicit phase; stays finite well past n ~ 170
    logmag = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * _log_factorials(dim)
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag) * phase


def fock_coefficients(state: OneModeState, dim: int) -> np.ndarray:
    """State vector in the number basis for the pure analytic variants."""
    if isinstance(state, Vacuum):
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    if isinstance(state, NumberState):
        v = np.zeros(dim, dtype=complex)
        if state.n < dim:
            v[state.n] = 1.0
        return v
    if isinstance(state, Coherent):
        return coherent_amplitudes(state.alpha, dim)
    if isinstance(state, EvenCat):
        alpha = state.a + 1j * state.b
        v = coherent_amplitudes(alpha, dim) + coherent_amplitudes(np.conj(alpha), dim)
        return v / np.sqrt(state.norm_squared)
    raise UnsupportedVariant(f"{type(state).__name__} is not a pure analytic variant")


def density_matrix(state: OneModeState, dim: int = DEFAULT_DIM) -> FockDensityMatrix:
    """Truncated number-basis density matrix of a one-mode state.

    Raises ``TruncationTooSmall`` when the truncated trace falls below
    ``1 - 1e-6`` for the displaced variants (Coherent, EvenCat), so a caller
    can retry with a larger ``dim``.
    """
    if not (np.isfinite(dim) and dim >= 1 and int(dim) == dim):
        raise InvalidParameter(f"dim must be a positive integer, got {dim!r}")
    dim = int(dim)

    if isinstance(state, Custom):
        if state.rho.dim != dim:
            raise DimMismatch(
                f"custom state has dim {state.rho.dim}, requested {dim}"
            )
        return state.rho

    if isinstance(state, Thermal):
        eta = thermal_occupancy(state.lam)
        pops = (1.0 - eta) * eta ** np.arange(dim) if eta > 0 else np.eye(dim)[0]
        return FockDensityMatrix(np.diag(pops.astype(complex)))

    if isinstance(state, NumberState) and state.n >= dim:
        raise TruncationTooSmall(f"|{state.n}> does not fit in dim {dim}")

    v = fock_coefficients(state, dim)
    rho = np.outer(v, v.conj())
    if isinstance(state, (Coherent, EvenCat)):
        deficit = 1.0 - float(np.vdot(v, v).real)
        if deficit > 1e-6:
            raise TruncationTooSmall(
                f"trace deficit {deficit:.3g} at dim {dim}; increase the truncation"
            )
    return FockDensityMatrix(rho)


# ---------------------------------------------------------------------------
# one-mode Wigner functions
# ---------------------------------------------------------------------------


def coherent_cross_wigner(A: complex, B: complex, q, p):
    """Wigner transform of ``|A><B|`` (not Hermitian for A != B, so complex).

    Normalized such that ``integral / (2 pi) = <B|A>``; for ``A == B`` this is
    the coherent-state Wigner function ``2 exp(-(q - q0)^2 - (p - p0)^2)``.
    """
    al = (np.asarray(q) + 1j * np.asarray(p)) / np.sqrt(2)
    return 2.0 * np.exp(
        -2.0 * al * np.conj(al)
        + 2.0 * A * np.conj(al)
        + 2.0 * np.conj(B) * al
        - A * np.conj(B)
        - abs(A) ** 2 / 2
        - abs(B) ** 2 / 2
    )


def wigner(state: OneModeState, q, p):
    """Wigner function of an analytic one-mode state; ``integral = 2 pi``.

    ``q`` and ``p`` may be scalars or broadcastable arrays.  Custom states are
    not supported (synthesizing W from a truncated matrix is out of scope).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = q**2 + p**2

    if isinstance(state, Vacuum):
        return 2.0 * np.exp(-r2)
    if isinstance(state, Thermal):
        return 2.0 * state.lam * np.exp(-state.lam * r2)
    if isinstance(state, NumberState):
        return 2.0 * (-1.0) ** state.n * _laguerre(state.n, 2.0 * r2) * np.exp(-r2)
    if isinstance(state, Coherent):
        w = coherent_cross_wigner(state.alpha, state.alpha, q, p)
        return w.real
    if isinstance(state, EvenCat):
        alpha = state.a + 1j * state.b
        beta = np.conj(alpha)
        w = (
            coherent_cross_wigner(alpha, alpha, q, p)
            + coherent_cross_wigner(alpha, beta, q, p)
            + coherent_cross_wigner(beta, alpha, q, p)
            + coherent_cross_wigner(beta, beta, q, p)
        ) / state.norm_squared
        resid = float(np.max(np.abs(w.imag))) if w.size else abs(w.imag)
        if resid > 1e-12:
            raise InvalidParameter(f"imaginary residue {resid:.3g} in cat Wigner")
        return w.real
    raise UnsupportedVariant(f"no Wigner evaluation for {type(state).__name__}")


def characteristic_one_mode(state: OneModeState, wq, wp):
    """Phase-space characteristic function ``(1/2pi) integral W exp(i(wq q + wp p))``.

    Equals ``Tr[rho exp(i(wq qhat + wp phat))]``.  Closed forms for every
    analytic variant; an independent cross-check of the Wigner normalization.
    """
    wq = np.asarray(wq, dtype=float)
    wp = np.asarray(wp, dtype=float)
    w2 = wq**2 + wp**2

    if isinstance(state, Vacuum):
        return np.exp(-w2 / 4.0)
    if isinstance(state, Thermal):
        return np.exp(-w2 / (4.0 * state.lam))
    if isinstance(state, NumberState):
        return _laguerre(state.n, w2 / 2.0) * np.exp(-w2 / 4.0)
    if isinstance(state, Coherent):
        q0 = np.sqrt(2) * state.alpha.real
        p0 = np.sqrt(2) * state.alpha.imag
        return np.exp(1j * (wq * q0 + wp * p0)) * np.exp(-w2 / 4.0)
    if isinstance(state, EvenCat):
        alpha = state.a + 1j * state.b
        beta = np.conj(alpha)
        total = 0.0
        for A, B in ((alpha, alpha), (alpha, beta), (beta, alpha), (beta, beta)):
            total = total + _cross_term_characteristic(A, B, wq, wp)
        return total / state.norm_squared
    raise UnsupportedVariant(f"no characteristic function for {type(state).__name__}")


def _cross_term_characteristic(A: complex, B: complex, wq, wp):
    # Gaussian integral of coherent_cross_wigner against exp(i w.v) / (2 pi):
    # the term is 2 exp(-|v|^2 + c.v + gamma) with c, gamma below.
    cq = np.sqrt(2) * (A + np.conj(B))
    cp = 1j * np.sqrt(2) * (np.conj(B) - A)
    gamma = -A * np.conj(B) - abs(A) ** 2 / 2 - abs(B) ** 2 / 2
    return np.exp(gamma + ((cq + 1j * wq) ** 2 + (cp + 1j * wp) ** 2) / 4.0)


# ---------------------------------------------------------------------------
# two-mode states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric positive-definite 4x4 matrix over (q1, q2, p1, p2)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise InvalidParameter("covariance matrix must be 4x4")
        if not np.allclose(m, m.T, atol=1e-12):
            raise InvalidParameter("covariance matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if np.linalg.eigvalsh(m)[0] <= 0:
            raise InvalidParameter("covariance matrix must be positive definite")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class GaussianTwoMode:
    """Gaussian two-mode state: Wigner covariance M and mean (q1, q2, p1, p2)."""

    M: CovarianceMatrix
    means: np.ndarray = field(default_factory=lambda: np.zeros(4))

    def __post_init__(self):
        if not isinstance(self.M, CovarianceMatrix):
            object.__setattr__(self, "M", CovarianceMatrix(np.asarray(self.M)))
        mu = _fixed_vector(self.means, 4, float, "means")
        if not np.all(np.isfinite(mu)):
            raise InvalidParameter("means must be finite")
        mu.flags.writeable = False
        object.__setattr__(self, "means", mu)


@dataclass(frozen=True)
class TwoModeCat:
    """Superposition ``|A> +/- |-A>`` of antipodal two-mode coherent states."""

    A: np.ndarray
    parity: str = "plus"

    def __post_init__(self):
        A = _fixed_vector(self.A, 2, complex, "cat amplitudes A")
        if not np.all(np.isfinite(A)):
            raise InvalidParameter("cat amplitudes must be finite")
        A.flags.writeable = False
        object.__setattr__(self, "A", A)
        if self.parity not in ("plus", "minus"):
            raise InvalidParameter("parity must be 'plus' or 'minus'")
        if self.parity == "minus" and np.linalg.norm(A) == 0:
            raise InvalidParameter("odd cat normalization diverges at A = 0")

    @property
    def norm_factor_squared(self) -> float:
        """``N^2`` with ``|cat> = N (|A> +/- |-A>)``."""
        a2 = float(np.sum(np.abs(self.A) ** 2))
        if self.parity == "plus":
            return np.exp(a2) / (4.0 * np.cosh(a2))
        return np.exp(a2) / (4.0 * np.sinh(a2))


@dataclass(frozen=True)
class ProductState:
    mode1: OneModeState
    mode2: OneModeState


TwoModeState = Union[GaussianTwoMode, TwoModeCat, ProductState]


def _cross_wigner_two_mode(A: np.ndarray, B: np.ndarray, q: np.ndarray, p: np.ndarray):
    """Wigner transform of the two-mode dyad |A><B|; factorizes over modes."""
    return (
        coherent_cross_wigner(A[0], B[0], q[0], p[0])
        * coherent_cross_wigner(A[1], B[1], q[1], p[1])
    )


def wigner_two_mode(state: TwoModeState, q, p):
    """Two-mode Wigner function; ``integral over d2q d2p = (2 pi)^2``.

    ``q`` and ``p`` are length-2 vectors (or arrays with leading axis 2).
    The Gaussian value at the means is ``det(M)^(-1/2)``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)

    if isinstance(state, GaussianTwoMode):
        v = np.concatenate([q, p], axis=0)
        dv = v - state.means.reshape((4,) + (1,) * (v.ndim - 1))
        Minv = np.linalg.inv(state.M.entries)
        quad = np.einsum("i...,ij,j...->...", dv, Minv, dv)
        return np.exp(-0.5 * quad) / np.sqrt(np.linalg.det(state.M.entries))

    if isinstance(state, TwoModeCat):
        A = state.A
        sign = 1.0 if state.parity == "plus" else -1.0
        w = (
            _cross_wigner_two_mode(A, A, q, p)
            + sign * _cross_wigner_two_mode(A, -A, q, p)
            + sign * _cross_wigner_two_mode(-A, A, q, p)
            + _cross_wigner_two_mode(-A, -A, q, p)
        ) * state.norm_factor_squared
        resid = float(np.max(np.abs(np.imag(w)))) if np.ndim(w) else abs(np.imag(w))
        if resid > 1e-12:
            raise InvalidParameter(f"imaginary residue {resid:.3g} in cat Wigner")
        return np.real(w)

    if isinstance(state, ProductState):
        return wigner(state.mode1, q[0], p[0]) * wigner(state.mode2, q[1], p[1])

    raise UnsupportedVariant(f"no Wigner evaluation for {type(state).__name__}")
