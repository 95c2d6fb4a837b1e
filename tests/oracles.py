"""Slow reference paths that the library's fast paths are tested against.

Each function is the direct, unfactorised form of a computation the library
performs faster: circle settings each from its own angle, the explicit
displacement-element series, the element-by-element displacement table, the
one-shot Wigner line integral, the dense per-angle one-mode polar assembly,
the weighted-copy, complex-phase and whole-grid two-table row Fourier
transforms, the broadcast
Wigner inversion, the per-batch campaign estimator, the per-setting two-mode
closed-form marginals and their 3-d Wigner reduction, the two-mode
tabulation loop that evaluates every row over its whole x grid, the
per-direction two-mode einsum loops and per-radius GEMM, the vector-kernel
reconstruction with a fixed second row, the 4001-node trapezoid homodyne
estimator and kernel element, the line-by-line CSV writers and readers (and
writers of the long tomogram and sample layouts, which the library refuses),
the CSV body writer that formats every row, the tomogram reader that parses
every row, and the two-mode Wigner-quadrature marginals and moments.
It also holds exact forms the library does not evaluate, such as the
Hermite-function marginal of a number state and the two-mode Wigner function
(the library reaches two-mode marginals through closed forms and the
characteristic function), the one-float ``format_float`` (the library's
writers format whole rows with ``io._FLOAT``), and the pointwise evaluators of
the kernel, which the library builds only as ``displacement_matrix`` tables:
the single displacement element, the number-basis element and matrix, the
coherent-basis closed form, the coordinate-basis phase and delta residual,
the Gauss-Legendre homodyne element with its radial-tail check, and the
two-mode number element.  The tests hold these to the paper's formulas.
None of them is used by the library itself.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from symplectomo import io as tio
from symplectomo import states as st
from symplectomo.errors import CutoffTooSmall, EmptyBatches, InvalidParameter, NotSymplectic, UnsupportedVariant
from symplectomo.kernels import KernelScale, _check_radius, displacement_matrix, kernel_displacement_argument
from symplectomo.marginals import QuadratureSetting, Tomogram, _antipodes, _as_setting, _trapezoid_weights
from symplectomo.measure_sim import SampleBatch
from symplectomo.reconstruct import (
    PolarGrid,
    _angle_weights,
    _circle_chi,
    _circle_radius,
    _empirical_characteristic,
    _finish,
)
from symplectomo.twomode import (
    _TILDE_CHUNK,
    TwoModeSetting,
    TwoModeTomogram,
    _setting_rows,
    _stacked_form,
    _tilde_from_characteristic,
    characteristic_two_mode,
    hopf_directions,
)


def _displacement_element_series(m: int, n: int, zeta: complex) -> complex:
    """Reference evaluation of <m|D|n> (m >= n) as the explicit normally-ordered sum.

    Log-domain terms summed largest-first; reliable only while the alternating
    cancellation stays well inside double precision, hence test-only.
    """
    if m < n:
        raise InvalidParameter("series form expects m >= n")
    d = m - n
    A = zeta
    B = -np.conj(zeta)
    logs, phases = [], []
    for l in range(n + 1):
        logs.append(
            0.5 * (gammaln(n + 1) + gammaln(m + 1))
            - gammaln(n - l + 1)
            - gammaln(l + d + 1)
            - gammaln(l + 1)
        )
        phases.append(A ** (l + d) * B**l)
    logs = np.array(logs)
    mags = np.array([abs(ph) for ph in phases])
    with np.errstate(divide="ignore"):
        weight = logs + np.log(np.where(mags > 0, mags, 1.0))
    order = np.argsort(weight)[::-1]
    shift = weight[order[0]]
    total = 0.0 + 0.0j
    for idx in order:
        if mags[idx] == 0:
            continue
        total += np.exp(weight[idx] - shift) * (phases[idx] / mags[idx])
    return complex(np.exp(shift) * total * np.exp(-abs(zeta) ** 2 / 2))


def displacement_matrix_loop(zetas, dim: int) -> np.ndarray:
    """``<m|D(zeta)|n>`` element by element: one Laguerre recurrence per order
    d = m - n and one assignment per element, with the arithmetic of
    ``kernels.displacement_matrix`` (which must match it bit for bit)."""
    zetas = np.asarray(zetas, dtype=complex)
    y = (zetas * zetas.conj()).real
    out = np.zeros(zetas.shape + (dim, dim), dtype=complex)
    logfact = st._log_factorials(dim)
    envelope = np.exp(-y / 2)
    for d in range(dim):
        pmax = dim - d
        L = np.empty((pmax,) + y.shape)
        L[0] = 1.0
        if pmax > 1:
            L[1] = 1.0 + d - y
        for k in range(1, pmax - 1):
            L[k + 1] = ((2 * k + 1 + d - y) * L[k] - (k + d) * L[k - 1]) / (k + 1)
        for p in range(pmax):
            m = p + d
            pref = np.exp(0.5 * (logfact[p] - logfact[m]))
            if d == 0:
                out[..., m, p] = pref * envelope * L[p]
            else:
                out[..., m, p] = pref * zetas**d * envelope * L[p]
                out[..., p, m] = pref * (-zetas.conj()) ** d * envelope * L[p]
    return out


# ---------------------------------------------------------------------------
# pointwise kernel evaluators: the paper's formulas one element at a time
# ---------------------------------------------------------------------------
#
# The settings may be plain (mu, nu) tuples, which skip the setting
# validation: the degenerate direction mu = nu = 0 means nothing for a
# marginal but keeps the kernel finite.


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


def _kernel_zeta(setting, scale: KernelScale) -> complex:
    """``kernels.kernel_displacement_argument`` of a setting or a ``(mu, nu)`` tuple."""
    mu, nu = _mu_nu(setting)
    return -(scale.z / np.sqrt(2)) * (nu - 1j * mu)


def _check_indices(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise InvalidParameter("number-state indices must be nonnegative")


def displacement_element(m: int, n: int, zeta: complex) -> complex:
    """Single element ``<m|D(zeta)|n>``."""
    _check_indices(m, n)
    return complex(displacement_matrix(complex(zeta), max(m, n) + 1)[m, n])


def _prefactor(x: float, scale: KernelScale) -> complex:
    return scale.z**2 / (2 * np.pi) * np.exp(-1j * scale.z * x)


def kernel_number(n_row: int, n_col: int, x: float, setting, scale: KernelScale = KernelScale()) -> complex:
    """Number-basis kernel element ``<n_row| K(x; mu, nu, z) |n_col>``."""
    zeta = _kernel_zeta(setting, scale)
    return _prefactor(x, scale) * displacement_element(n_row, n_col, zeta)


def kernel_matrix(x: float, setting, scale: KernelScale, dim: int) -> np.ndarray:
    """Dense ``dim x dim`` number-basis kernel at one (x, setting) point."""
    zeta = _kernel_zeta(setting, scale)
    return _prefactor(x, scale) * displacement_matrix(np.asarray(zeta), dim)


def kernel_coherent(alpha: complex, beta: complex, x: float, setting, scale: KernelScale = KernelScale()) -> complex:
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
    _check_radius(r_cutoff, "r_cutoff")
    r, wr = PolarGrid(r_cutoff).nodes(1.0)
    # the discarded tail, measured on 32 more radii over [R, R + 16]
    t, wt = PolarGrid(16.0, 32).nodes(1.0)
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


def _per_mode_zetas(setting: TwoModeSetting, z1: float, z2: float) -> np.ndarray:
    zetas = -(z1 / np.sqrt(2)) * (setting.nu - 1j * setting.mu)
    if z2 != 0.0:
        if not setting.is_vector:
            raise InvalidParameter("z2 != 0 needs the second quadrature row")
        zetas = zetas - (z2 / np.sqrt(2)) * (setting.nu_p - 1j * setting.mu_p)
    return zetas


def kernel_two_mode_number(
    n_row: tuple[int, int],
    n_col: tuple[int, int],
    x,
    setting: TwoModeSetting,
    scales: tuple[float, float] = (1.0, 0.0),
) -> complex:
    """``<n_row| K |n_col>`` for the two-mode kernel; factorizes over modes.

    ``K = (z1^4 / (2 pi)^2) exp(-i (z1 x1 + z2 x2)) D1(zeta1) D2(zeta2)`` with
    per-mode displacement arguments built from the first row (scaled by z1)
    and, for z2 != 0, the second row.  ``scales = (z1, 0)`` is the kernel for
    tilde marginals.

    As in the one-mode case the elements are bounded only in the number (or
    coherent) basis; the quadrature representation is distributional, so
    sample averaging of matrix elements is possible here alone.
    """
    z1, z2 = float(scales[0]), float(scales[1])
    if z1 == 0.0:
        raise InvalidParameter("z1 must be nonzero")
    x = np.asarray(x, dtype=float).reshape(2)
    zetas = _per_mode_zetas(setting, z1, z2)
    pref = z1**4 / (2 * np.pi) ** 2 * np.exp(-1j * (z1 * x[0] + z2 * x[1]))
    d1 = displacement_matrix(np.asarray(zetas[0]), max(n_row[0], n_col[0]) + 1)
    d2 = displacement_matrix(np.asarray(zetas[1]), max(n_row[1], n_col[1]) + 1)
    return complex(pref * d1[n_row[0], n_col[0]] * d2[n_row[1], n_col[1]])


# ---------------------------------------------------------------------------
# one mode: dense (n_phi, n_r, dim, dim) displacement table
# ---------------------------------------------------------------------------


def circle_settings_by_angle(n: int, radius: float = 1.0, delta: float = 0.0) -> list[QuadratureSetting]:
    """``n`` circle settings, each from the cosine and sine of its own angle,
    with no exact antipodes built in."""
    return [QuadratureSetting(radius * np.cos(p), radius * np.sin(p), delta) for p in 2 * np.pi * np.arange(n) / n]


def line_marginal_broadcast(wigner_fn, x, setting, extent: float = 8.0, num: int = 2001):
    """The Wigner line integral with every ``(x, s)`` point of the line held at once."""
    setting = _as_setting(setting)
    x = np.asarray(x, dtype=float)
    r = setting.radius
    eq, ep = setting.mu / r, setting.nu / r
    s = np.linspace(-extent, extent, num)
    q = (x[..., None] / r) * eq + s * (-ep)
    p = (x[..., None] / r) * ep + s * eq
    vals = wigner_fn(q, p)
    return np.trapezoid(vals, dx=s[1] - s[0], axis=-1) / (2 * np.pi * r)


def number_state_marginal(n: int, x, r: float) -> np.ndarray:
    """Exact marginal ``|psi_n(x / r)|^2 / r`` of ``|n>`` at setting radius ``r``.

    ``psi_n`` is the Hermite function from its normalised three-term recurrence.
    """
    t = np.asarray(x, dtype=float) / r
    psi, prev = np.pi**-0.25 * np.exp(-t * t / 2), np.zeros_like(t)
    for k in range(n):
        psi, prev = np.sqrt(2 / (k + 1)) * t * psi - np.sqrt(k / (k + 1)) * prev, psi
    return psi**2 / r


def assemble_rho_dense(chi, phis, phi_weights, r, wr, scale, dim) -> np.ndarray:
    """Sum ``w_phi w_r r chi (z^2/2pi) D(zeta)`` over the polar nodes."""
    z = scale.z
    mu = r[None, :] * np.cos(phis)[:, None]
    nu = r[None, :] * np.sin(phis)[:, None]
    zetas = -(z / np.sqrt(2)) * (nu - 1j * mu)
    D = displacement_matrix(zetas, dim)
    weights = phi_weights[:, None] * (wr * r)[None, :] * chi * (z**2 / (2 * np.pi))
    return np.einsum("pr,prnm->nm", weights, D)


def row_fourier_weighted(values, x, deltas, freqs) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` from a trapezoid-weighted copy of the rows."""
    arg = np.outer(x, freqs)
    weighted = values * _trapezoid_weights(x)
    return (weighted @ np.cos(arg) - 1j * (weighted @ np.sin(arg))) * np.exp(1j * np.outer(deltas, freqs))


def row_fourier_two_tables(values, x, deltas, freqs) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` from cos and sin
    tables evaluated over the whole grid, one GEMM each, with the ``delta`` phase always applied."""
    weights = _trapezoid_weights(x)[:, None]
    arg = np.outer(x, freqs)  # (n_x, n_k)
    cos = np.cos(arg)
    cos *= weights
    sin = np.sin(arg, out=arg)
    sin *= weights
    return (values @ cos - 1j * (values @ sin)) * np.exp(1j * np.outer(deltas, freqs))


def wigner_from_tomogram_broadcast(tomo, q, p, scale=KernelScale(), grid=PolarGrid()) -> np.ndarray:
    """``W(q, p)`` by the 3-d Fourier inversion over one ``(n_angles, n_r, n_points)`` phase array."""
    z = scale.z
    r, wr = grid.nodes(z)
    phis, phi_weights, chi = _circle_chi(tomo, z * r)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    proj = np.cos(phis)[:, None] * q[None, :] + np.sin(phis)[:, None] * p[None, :]
    phase = np.exp(1j * z * r[None, :, None] * proj[:, None, :])
    integrand = (phi_weights[:, None] * (wr * r)[None, :] * chi)[..., None] * phase
    w = (z**2 / (2 * np.pi)) * integrand.sum(axis=(0, 1))
    return w.real


def row_fourier_complex(values, x, deltas, freqs) -> np.ndarray:
    """``chi[j, k] = integral w_j(x) exp(-i freqs[k] (x - delta_j)) dx`` against a complex phase table."""
    tw = _trapezoid_weights(x)
    phase = np.exp(-1j * np.outer(x, freqs))  # (n_x, n_k)
    chi = (values * tw[None, :]) @ phase
    return chi * np.exp(1j * np.outer(deltas, freqs))


# ---------------------------------------------------------------------------
# one mode: campaign estimator, one displacement table per batch
# ---------------------------------------------------------------------------


def samples_loop(batches, cfg):
    """Batch mean of ``K / weight``, accumulated batch by batch."""
    z = cfg.scale.z
    raw = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    total = 0
    for b in batches:
        outcomes = np.asarray(b.outcomes, dtype=float)
        mean_phase = np.mean(np.exp(-1j * z * (outcomes - b.setting.delta)))
        D = displacement_matrix(np.asarray(kernel_displacement_argument(b.setting, cfg.scale)), cfg.dim)
        raw += (z**2 / (2 * np.pi)) * mean_phase * D / b.weight
        total += outcomes.size
    raw /= len(batches)
    return _finish(raw, cfg.projection, len(batches), total, check_trace=False)


# ---------------------------------------------------------------------------
# two modes: closed-form tilde marginals, one setting at a time
# ---------------------------------------------------------------------------


def tilde_gaussian_loop(state, x1, setting: TwoModeSetting):
    """Gaussian marginal of one setting: mean ``u . means``, variance ``u M u^T``."""
    u = setting.row1
    s2 = float(u @ state.M.entries @ u)
    x1 = np.asarray(x1, dtype=float) - float(u @ state.means)
    return np.exp(-(x1**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)


def tilde_cat_loop(state, x1, setting: TwoModeSetting):
    """Even-cat marginal of one setting of a TwoModeCat."""
    A = state.A
    Q = np.sqrt(2) * A.real
    P = np.sqrt(2) * A.imag
    mu, nu = setting.mu, setting.nu
    r2 = float(mu @ mu + nu @ nu)
    x1 = np.asarray(x1, dtype=float)

    a2 = (Q @ Q + P @ P) / 2.0
    n2 = np.exp(a2) / (4.0 * np.cosh(a2))
    env = (-(x1**2) - (nu[0] * P[0] + mu[0] * Q[0]) ** 2 - (nu[1] * P[1] + mu[1] * Q[1]) ** 2) / r2
    osc_exp = (
        -(P[0] ** 2 + Q[0] ** 2) * (nu[1] ** 2 + mu[1] ** 2)
        - (P[1] ** 2 + Q[1] ** 2) * (nu[0] ** 2 + mu[0] ** 2)
        + 2 * (mu[0] * P[0] - nu[0] * Q[0]) * (mu[1] * P[1] - nu[1] * Q[1])
    ) / r2
    hyp_exp = -2 * (nu[0] * P[0] + mu[0] * Q[0]) * (nu[1] * P[1] + mu[1] * Q[1]) / r2
    hyp_arg = 2 * (nu @ P + mu @ Q) * x1 / r2
    terms = np.exp(env + osc_exp) * np.cos(2 * (mu @ P - nu @ Q) * x1 / r2)
    terms = terms + 0.5 * (np.exp(env + hyp_exp + hyp_arg) + np.exp(env + hyp_exp - hyp_arg))
    return 2.0 * n2 / np.sqrt(np.pi * r2) * terms


# ---------------------------------------------------------------------------
# two modes: the Wigner function and its quadrature reductions
# ---------------------------------------------------------------------------


def _cross_wigner_two_mode(A: np.ndarray, B: np.ndarray, q: np.ndarray, p: np.ndarray):
    """Wigner transform of the two-mode dyad |A><B|; factorizes over modes."""
    return st.coherent_cross_wigner(A[0], B[0], q[0], p[0]) * st.coherent_cross_wigner(A[1], B[1], q[1], p[1])


def wigner_two_mode(state, q, p):
    """Two-mode Wigner function; ``integral over d2q d2p = (2 pi)^2``.

    ``q`` and ``p`` are length-2 vectors (or arrays with leading axis 2).
    The Gaussian value at the means is ``det(M)^(-1/2)``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)

    if isinstance(state, st.GaussianTwoMode):
        v = np.concatenate([q, p], axis=0)
        dv = v - state.means.reshape((4,) + (1,) * (v.ndim - 1))
        Minv = np.linalg.inv(state.M.entries)
        quad = np.einsum("i...,ij,j...->...", dv, Minv, dv)
        return np.exp(-0.5 * quad) / np.sqrt(np.linalg.det(state.M.entries))

    if isinstance(state, st.TwoModeCat):
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

    if isinstance(state, st.ProductState):
        return st.wigner(state.mode1, q[0], p[0]) * st.wigner(state.mode2, q[1], p[1])

    raise UnsupportedVariant(f"no Wigner evaluation for {type(state).__name__}")


def _null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (4 x k) of the orthogonal complement of the rows."""
    _, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-12))
    return vt[rank:].T


def vector_marginal_numeric(state, x, setting: TwoModeSetting, extent: float = 9.0, num: int = 161):
    """Joint density of (X1, X2) by 2-d quadrature over the constraint plane.

    Requires a commuting (symplectic) vector setting; marginalizing the
    result over x2 reproduces the tilde marginal.
    """
    if not setting.is_vector:
        raise NotSymplectic("vector marginal needs the second quadrature row")
    U = np.vstack([setting.row1, setting.row2])
    gram = U @ U.T
    try:
        foot = U.T @ np.linalg.solve(gram, np.asarray(x, dtype=float).reshape(2))
    except np.linalg.LinAlgError as exc:
        raise NotSymplectic("setting rows are linearly dependent") from exc
    basis = _null_basis(U)
    t = np.linspace(-extent, extent, num)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    v = foot[:, None] + basis @ np.stack([T1.ravel(), T2.ravel()])
    W = wigner_two_mode(state, v[:2], v[2:]).reshape(num, num)
    dt = t[1] - t[0]
    integral = np.trapezoid(np.trapezoid(W, dx=dt, axis=1), dx=dt, axis=0)
    return float(integral / ((2 * np.pi) ** 2 * np.sqrt(np.linalg.det(gram))))


def wigner_moment_numeric(state, setting: TwoModeSetting, power=2, extent: float = 10.0, num: int = 61):
    """Moments ``integral X1^power W / (2 pi)^2`` as a direct 4-d Wigner integral.

    ``power`` may be an int or a sequence (all computed in one sweep).
    Chunked trapezoid over ``(q1, q2, p1, p2)``; the deliberately independent
    oracle for the closed-form Gaussian variance.
    """
    powers = (power,) if np.isscalar(power) else tuple(power)
    u = setting.row1
    g = np.linspace(-extent, extent, num)
    dg = g[1] - g[0]
    Q2, P1, P2 = np.meshgrid(g, g, g, indexing="ij")
    acc = np.zeros(len(powers))
    for q1 in g:
        v = np.stack([np.full(Q2.size, q1), Q2.ravel(), P1.ravel(), P2.ravel()])
        W = wigner_two_mode(state, v[:2], v[2:])
        x1 = u @ v
        for i, k in enumerate(powers):
            acc[i] += np.sum(W * x1**k) if k else np.sum(W)
    out = acc * dg**4 / (2 * np.pi) ** 2
    return float(out[0]) if np.isscalar(power) else out


def tilde_marginal_numeric(state, x1, setting: TwoModeSetting, extent: float = 9.0, num: int = 81):
    """Independent slow path: 3-d trapezoid reduction of the Wigner function."""
    u = setting.row1
    r = np.linalg.norm(u)
    e = u / r
    basis = _null_basis(e[None, :])
    t = np.linspace(-extent, extent, num)
    T1, T2, T3 = np.meshgrid(t, t, t, indexing="ij")
    offsets = basis @ np.stack([T1.ravel(), T2.ravel(), T3.ravel()])
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    out = np.empty(x1.size)
    dt = t[1] - t[0]
    for i, xv in enumerate(x1):
        v = (xv / r) * e[:, None] + offsets
        W = wigner_two_mode(state, v[:2], v[2:])
        W = W.reshape(num, num, num)
        out[i] = (
            np.trapezoid(np.trapezoid(np.trapezoid(W, dx=dt, axis=2), dx=dt, axis=1), dx=dt, axis=0)
            / ((2 * np.pi) ** 2 * r)
        )
    return out if out.size > 1 else float(out[0])


def tilde_rows_loop(state, x1, settings) -> np.ndarray:
    """Tilde-marginal table over ``x1 - delta1``, one closed-form call per setting."""
    one = tilde_gaussian_loop if isinstance(state, st.GaussianTwoMode) else tilde_cat_loop
    return np.array([one(state, x1 - s.delta[0], s) for s in settings])


def tilde_table_full_rows(state, settings, x1) -> np.ndarray:
    """Tilde table with each evaluated row taken over all of ``x1``.

    The chunk loop of ``tabulate_tilde_tomogram`` without its mirror of even
    rows: the stacked closed form, 32 settings at a time, or the
    characteristic path one setting at a time, with every exactly antipodal
    row copied reversed on an exactly mirror-symmetric ``x1``.
    """
    x1 = np.asarray(x1, dtype=float)
    U, deltas = _setting_rows(settings)
    pairs = _antipodes(U, deltas) if np.array_equal(x1[::-1], -x1) else np.empty((0, 2), dtype=np.intp)
    form = _stacked_form(state)
    values = np.empty((len(settings), x1.size))
    evaluated = np.delete(np.arange(len(settings)), pairs[:, 1])
    for start in range(0, evaluated.size, _TILDE_CHUNK):
        rows = evaluated[start : start + _TILDE_CHUNK]
        if form is None:
            for i in rows:
                values[i] = _tilde_from_characteristic(state, x1 - deltas[i], settings[i])
        else:
            values[rows] = form(state, x1 - deltas[rows, None], U[rows])
    values[pairs[:, 1]] = values[pairs[:, 0], ::-1]
    return values


# ---------------------------------------------------------------------------
# two modes: per-direction einsum loops
# ---------------------------------------------------------------------------


def two_mode_tomogram_loop(tomo, weights, cfg) -> np.ndarray:
    """Raw two-mode matrix of a tilde tomogram with direction ``weights``, one einsum per radius."""
    z1 = cfg.scale.z
    r0 = float(np.mean([s.radius for s in tomo.settings]))
    dirs = np.array([s.row1 / r0 for s in tomo.settings])
    deltas = np.array([s.delta[0] for s in tomo.settings])
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(z1)
    chi = row_fourier_complex(tomo.values, tomo.x1, deltas, z1 * R / r0)
    d1, d2 = cfg.dims
    rho4 = np.zeros((d1, d1, d2, d2), dtype=complex)
    for k, (Rv, wRv) in enumerate(zip(R, wR)):
        rows_u = dirs * Rv
        zeta = -(z1 / np.sqrt(2)) * (rows_u[:, 2:] - 1j * rows_u[:, :2])
        D1 = displacement_matrix(zeta[:, 0], d1)
        D2 = displacement_matrix(zeta[:, 1], d2)
        coeff = weights * chi[:, k] * (wRv * Rv**3 * z1**4 / (2 * np.pi) ** 2)
        rho4 += np.einsum("s,snm,skl->nmkl", coeff, D1, D2)
    return rho4.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def two_mode_grid_loop(chi_fn, cfg, n_t, n_psi, off=(0.0, 0.0)) -> np.ndarray:
    """Raw two-mode matrix over the radial x ``hopf_directions(n_t, n_psi)`` grid, one einsum per (R, t).

    ``chi_fn(u_batch)`` returns the characteristic for a batch of first rows;
    ``off`` is the constant per-mode displacement of a fixed second row.
    """
    z1 = cfg.scale.z
    d1, d2 = cfg.dims
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(z1)
    tg, tw_ = leggauss(n_t)
    t = 0.5 * (tg + 1.0)
    wt = 0.5 * tw_
    psi = 2 * np.pi * np.arange(n_psi) / n_psi
    wpsi = 2 * np.pi / n_psi
    cosp, sinp = np.cos(psi), np.sin(psi)

    rho4 = np.zeros((d1, d1, d2, d2), dtype=complex)
    for Rv, wRv in zip(R, wR):
        for tv, wtv in zip(t, wt):
            r1 = Rv * np.sqrt(tv)
            r2 = Rv * np.sqrt(1.0 - tv)
            zeta1 = -(z1 / np.sqrt(2)) * r1 * (sinp - 1j * cosp) + off[0]
            zeta2 = -(z1 / np.sqrt(2)) * r2 * (sinp - 1j * cosp) + off[1]
            D1 = displacement_matrix(zeta1, d1)
            D2 = displacement_matrix(zeta2, d2)
            u = np.empty((n_psi, n_psi, 4))
            u[..., 0] = r1 * cosp[:, None]
            u[..., 1] = r2 * cosp[None, :]
            u[..., 2] = r1 * sinp[:, None]
            u[..., 3] = r2 * sinp[None, :]
            chi = chi_fn(u.reshape(-1, 4)).reshape(n_psi, n_psi)
            T = chi * (wRv * Rv**3 * 0.5 * wtv * wpsi * wpsi * z1**4 / (2 * np.pi) ** 2)
            inner = np.einsum("ab,bkl->akl", T, D2)
            rho4 += np.einsum("anm,akl->nmkl", D1, inner)
    return rho4.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


# ---------------------------------------------------------------------------
# two modes: one GEMM per radius over all directions
# ---------------------------------------------------------------------------


def _assemble_two_mode(chi, dirs, weights, R, wR, cfg, offset=0.0) -> np.ndarray:
    """Sum ``w_s wR_k R_k^3 chi[s, k] (z1^4/(2pi)^2) D1 x D2`` over directions and radii.

    ``dirs`` are unit setting rows ``(mu1, mu2, nu1, nu2)`` with quadrature
    ``weights``, ``chi[s, k]`` is the characteristic at the row ``R_k dirs[s]``
    and ``offset`` the constant per-mode displacement of a fixed second row.
    Per radius the direction sum is one GEMM ``D1^T (c D2)``; any direction
    set works, Hopf or not.
    """
    z1 = cfg.scale.z
    d1, d2 = cfg.dims
    unit_zetas = -(z1 / np.sqrt(2)) * (dirs[:, 2:] - 1j * dirs[:, :2])
    rho4 = np.zeros((d1 * d1, d2 * d2), dtype=complex)
    for k, (Rv, wRv) in enumerate(zip(R, wR)):
        zetas = Rv * unit_zetas + offset
        D1 = displacement_matrix(zetas[:, 0], d1).reshape(-1, d1 * d1)
        D2 = displacement_matrix(zetas[:, 1], d2).reshape(-1, d2 * d2)
        coeff = weights * chi[:, k] * (wRv * Rv**3 * z1**4 / (2 * np.pi) ** 2)
        rho4 += D1.T @ (coeff[:, None] * D2)
    # reorder (n1, m1, n2, m2) -> (n1, n2, m1, m2), flatten mode-1 major
    return rho4.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def reconstruct_two_mode_vector(state, second_row, cfg, n_t, n_psi, z2: float = 1.0):
    """Vector-kernel reconstruction with a constant second quadrature row.

    Sweeps the first row over the radial x ``hopf_directions(n_t, n_psi)`` grid while ``(mu_p, nu_p) =
    second_row`` stays fixed, using the joint characteristic function of the
    analytic state.  Exact for any ``z2``, which is the freedom the vector
    kernel exposes; the constant zeta offset of the second row rules out the
    library's per-mode rotation factorisation.
    """
    u2 = np.asarray(second_row, dtype=float).reshape(4)
    z1 = cfg.scale.z
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(z1)
    dirs, weights = hopf_directions(n_t, n_psi)
    chi = characteristic_two_mode(state, -z1 * R[None, :, None] * dirs[:, None, :] - z2 * u2)
    offset = -(z2 / np.sqrt(2)) * (u2[2:] - 1j * u2[:2])
    raw = _assemble_two_mode(chi, dirs, weights, R, wR, cfg, offset)
    return _finish(raw, cfg.projection, len(dirs), 0, check_trace=True, dims=cfg.dims)


# ---------------------------------------------------------------------------
# homodyne: 4001-node trapezoids over the radius
# ---------------------------------------------------------------------------


def homodyne_trapezoid(data, dim: int, r_cutoff: float = 12.0, regularizer_eps: float = 1e-4, n_r: int = 4001):
    """Raw homodyne matrix from a circle Tomogram or ``(phi, samples)`` pairs."""
    r = np.linspace(0.0, r_cutoff, n_r)
    trw = _trapezoid_weights(r)
    damp = trw * r * np.exp(-regularizer_eps * r**2)

    if isinstance(data, Tomogram):
        phis, r0 = np.array([s.angle for s in data.settings]) % (2 * np.pi), _circle_radius(data.settings)
        tw = _trapezoid_weights(data.x)
        # rows tabulate the density of r0 * x_phi; rescale frequencies to x_phi
        phase_matrix = np.exp(1j * np.outer(data.x, r / r0))
        payloads = [
            ((data.values[j] * tw) @ phase_matrix) * np.exp(-1j * s.delta * r / r0)
            for j, s in enumerate(data.settings)
        ]
    else:
        pairs = [(float(phi), np.asarray(xs, dtype=float)) for phi, xs in data]
        if not pairs or all(xs.size == 0 for _, xs in pairs):
            raise EmptyBatches("no homodyne data")
        phis = np.asarray([p for p, _ in pairs])
        payloads = [_empirical_characteristic(xs, r) for _, xs in pairs]
        span = (phis.max() - phis.min()) % (2 * np.pi)
        if span < np.pi:
            # extend [0, pi) coverage: x_(phi+pi) = -x_phi, so the mirrored
            # characteristic is the complex conjugate
            phis = np.concatenate([phis, (phis + np.pi) % (2 * np.pi)])
            payloads = payloads + [np.conj(c) for c in payloads]

    weights = _angle_weights(np.asarray(phis) % (2 * np.pi))
    # the radial table at phase 0; other phases differ by the number-basis
    # rotation D(|zeta| e^{i theta}) = e^{i(n-m) theta} D(|zeta|)
    base = displacement_matrix(r / np.sqrt(2), dim)
    boundary = float(np.max(np.abs(base[-1]))) * abs(damp[-1] / (r[1] - r[0]))
    tail = 2 * boundary * max(abs(c[-1]) for c in payloads) / (2 * np.pi)
    if tail > 1e-3 / (2 * np.pi):
        raise CutoffTooSmall(f"radial tail estimate {tail:.3g} at r_cutoff {r_cutoff}")
    n = np.arange(dim)
    dgrid = n[:, None] - n[None, :]
    raw = np.zeros((dim, dim), dtype=complex)
    for j, phi in enumerate(phis):
        radial = np.einsum("r,rnm->nm", damp * payloads[j], base)
        raw += weights[j] / (2 * np.pi) * radial * np.exp(1j * dgrid * (phi - np.pi / 2))
    return raw


def kernel_homodyne_trapezoid(n_row: int, n_col: int, homodyne, r_cutoff: float = 12.0, num: int = 4001) -> complex:
    """Homodyne kernel element by a ``num``-node trapezoid over ``[0, r_cutoff]``.

    The same Hermitian full-line integral as ``kernel_homodyne_number``,
    written over the mirrored ray ``zeta = -i r e^{i phi} / sqrt 2``.
    """
    r = np.linspace(0.0, r_cutoff, num)
    table = displacement_matrix(-1j * r * np.exp(1j * homodyne.phi) / np.sqrt(2), max(n_row, n_col) + 1)
    ray = r * np.exp(1j * r * homodyne.x_phi)
    half_nm = np.trapezoid(ray * table[:, n_row, n_col], dx=r[1] - r[0]) / (2 * np.pi)
    half_mn = np.trapezoid(ray * table[:, n_col, n_row], dx=r[1] - r[0]) / (2 * np.pi)
    return complex(0.5 * (half_nm + np.conj(half_mn)))


# ---------------------------------------------------------------------------
# CSV files: line-by-line writers and float() readers
# ---------------------------------------------------------------------------


def format_float(v: float) -> str:
    """One float at 17 significant digits, which round-trips through ``float``."""
    return f"{v:.17g}"


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_tomogram_lines(tomo: Tomogram, path) -> None:
    lines = ["mu,nu,delta,w(x)", ",".join(["x", "", ""] + [format_float(x) for x in tomo.x])]
    for s, row in zip(tomo.settings, tomo.values):
        lines.append(",".join(format_float(v) for v in [s.mu, s.nu, s.delta, *row]))
    _write_lines(path, lines)


def write_body_per_row(fh, keys, rows) -> None:
    """The CSV body writer that formats every row: one line per entry, its key
    cells then its row of values, each line formatted in one call."""
    for key, row in zip(keys, rows):
        fh.write(",".join(["%.17g"] * (len(key) + row.size)) % (*key, *row.tolist()) + "\n")


def save_tomogram_long_lines(tomo: Tomogram, path) -> None:
    """The long tomogram layout, one outcome per line, which the library refuses."""
    lines = ["mu,nu,delta,x,w"]
    for s, row in zip(tomo.settings, tomo.values):
        head = ",".join(format_float(v) for v in (s.mu, s.nu, s.delta))
        for x, w in zip(tomo.x, row):
            lines.append(f"{head},{format_float(x)},{format_float(w)}")
    _write_lines(path, lines)


def _grid_cells(line: str, axis: str, n_key: int) -> list[float]:
    cells = line.rstrip("\n").split(",")
    if cells[0] != axis or any(cells[1:n_key]):
        raise InvalidParameter(f"not a {axis} grid line")
    return [float(t) for t in cells[n_key:]]


def load_tomogram_lines(path) -> Tomogram:
    settings: list[QuadratureSetting] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "mu,nu,delta,w(x)":
            raise InvalidParameter(f"not a tomogram file: header {header!r}")
        xs = _grid_cells(fh.readline(), "x", 3)
        for line in fh:
            mu, nu, delta, *w = (float(t) for t in line.split(","))
            settings.append(QuadratureSetting(mu, nu, delta))
            rows.append(w)
    return Tomogram(tuple(settings), np.asarray(xs), np.asarray(rows))


def read_tomogram_loadtxt(path, *headers: str):
    """The tomogram reader that parses every body line: the outcome grids, the
    ``(n_settings, n_key)`` keys and the ``(n_settings, n_values)`` densities,
    with the whole body in one ``np.loadtxt`` over the open file."""
    with open(path, encoding="utf-8") as fh:
        n_key, axes = tio._AXES[tio._read_header(fh, path, *headers)]
        lines = [fh.readline().rstrip("\n").split(",") for _ in axes]
        if any(cells[:n_key] != [axis] + [""] * (n_key - 1) for axis, cells in zip(axes, lines)):
            raise InvalidParameter(f"{path}: need the grid lines {axes}")
        try:
            grids = [np.array(cells[n_key:], dtype=float) for cells in lines]
        except ValueError as exc:
            raise InvalidParameter(f"{path}: grid line: {exc}") from None
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty body only warns
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except (ValueError, UserWarning) as exc:
                raise tio._body_error(path, axes, exc) from None
    n_cells = n_key + math.prod(grid.size for grid in grids)
    if table.shape[1] != n_cells:
        raise InvalidParameter(f"{path}: rows have {table.shape[1]} cells, expected {n_cells}")
    return grids, table[:, :n_key], table[:, n_key:]


def _two_mode_setting_head(s: TwoModeSetting) -> tuple:
    mup = s.mu_p if s.mu_p is not None else np.zeros(2)
    nup = s.nu_p if s.nu_p is not None else np.zeros(2)
    return (s.mu[0], s.mu[1], s.nu[0], s.nu[1], mup[0], mup[1], nup[0], nup[1])


def save_two_mode_tomogram_lines(tomo: TwoModeTomogram, path) -> None:
    vector = tomo.kind == "vector"
    key = "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2"
    lines = [key + (",w(x1,x2)" if vector else ",w(x1)")]
    for axis, grid in [("x1", tomo.x1), ("x2", tomo.x2)][: 2 if vector else 1]:
        lines.append(",".join([axis] + [""] * 7 + [format_float(x) for x in grid]))
    for idx, s in enumerate(tomo.settings):
        head = [format_float(v) for v in _two_mode_setting_head(s)]
        if vector:
            # x1-major: for each x1, every x2
            cells = [format_float(tomo.values[idx, i, j]) for i in range(tomo.x1.size) for j in range(tomo.x2.size)]
        else:
            cells = [format_float(w) for w in tomo.values[idx]]
        lines.append(",".join(head + cells))
    _write_lines(path, lines)


def load_two_mode_tomogram_lines(path) -> TwoModeTomogram:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header not in ("mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,w(x1)", "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,w(x1,x2)"):
            raise InvalidParameter("not a two-mode tomogram file")
        vector = header.endswith("w(x1,x2)")
        x1s = _grid_cells(fh.readline(), "x1", 8)
        x2s = _grid_cells(fh.readline(), "x2", 8) if vector else []
        settings: list[TwoModeSetting] = []
        data: list[list[float]] = []
        for line in fh:
            vals = [float(t) for t in line.split(",")]
            mu = np.array(vals[0:2])
            nu = np.array(vals[2:4])
            mup = np.array(vals[4:6])
            nup = np.array(vals[6:8])
            if np.any(mup != 0) or np.any(nup != 0):
                settings.append(TwoModeSetting(mu=mu, nu=nu, mu_p=mup, nu_p=nup))
            else:
                settings.append(TwoModeSetting(mu=mu, nu=nu))
            data.append(vals[8:])
    if vector:
        values = np.asarray(data).reshape(len(settings), len(x1s), len(x2s))
        return TwoModeTomogram(tuple(settings), np.asarray(x1s), values, x2=np.asarray(x2s))
    return TwoModeTomogram(tuple(settings), np.asarray(x1s), np.asarray(data))


def _sample_head(b: SampleBatch) -> list[float]:
    if isinstance(b.setting, TwoModeSetting):
        return [*_two_mode_setting_head(b.setting), b.setting.delta[0]]
    return [b.setting.mu, b.setting.nu, b.setting.delta]


def _write_samples_sidecar(batches: list[SampleBatch], path, state_label: str) -> None:
    sidecar = {
        "generator": batches[0].generator,
        "seed": batches[0].seed,
        "state": state_label,
        "weights": [b.weight for b in batches],
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)


def save_samples_lines(batches: list[SampleBatch], path, state_label: str = "") -> None:
    two_mode = isinstance(batches[0].setting, TwoModeSetting)
    lines = ["mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,delta1,outcomes" if two_mode else "mu,nu,delta,outcomes"]
    for b in batches:
        lines.append(",".join(format_float(v) for v in [*_sample_head(b), *b.outcomes]))
    _write_lines(path, lines)
    _write_samples_sidecar(batches, path, state_label)


def save_samples_long_lines(batches: list[SampleBatch], path, state_label: str = "") -> None:
    """The long sample layout, one outcome per line, which the library refuses."""
    two_mode = isinstance(batches[0].setting, TwoModeSetting)
    lines = ["mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,delta1,x1" if two_mode else "mu,nu,delta,x"]
    for b in batches:
        head = ",".join(format_float(v) for v in _sample_head(b))
        lines.extend(f"{head},{format_float(x)}" for x in b.outcomes)
    _write_lines(path, lines)
    _write_samples_sidecar(batches, path, state_label)


def load_samples_lines(path) -> list[SampleBatch]:
    with open(path, encoding="utf-8") as fh:
        two_mode = fh.readline().startswith("mu1,")
        rows = [[float(t) for t in line.split(",")] for line in fh]
    try:
        with open(str(path) + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        seed = int(meta.get("seed", 0))
        weights = meta.get("weights", [1.0] * len(rows))
    except FileNotFoundError:
        seed, weights = 0, [1.0] * len(rows)
    batches = []
    for row, weight in zip(rows, weights):
        if two_mode:
            mu = np.array(row[0:2])
            nu = np.array(row[2:4])
            mup = np.array(row[4:6])
            nup = np.array(row[6:8])
            delta = np.array([row[8], 0.0])
            if np.any(mup != 0) or np.any(nup != 0):
                setting = TwoModeSetting(mu=mu, nu=nu, mu_p=mup, nu_p=nup, delta=delta)
            else:
                setting = TwoModeSetting(mu=mu, nu=nu, delta=delta)
            outcomes = row[9:]
        else:
            setting = QuadratureSetting(*row[:3])
            outcomes = row[3:]
        batches.append(SampleBatch(setting=setting, outcomes=np.asarray(outcomes), seed=seed, weight=weight))
    return batches
