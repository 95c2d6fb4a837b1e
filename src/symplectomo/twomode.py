"""Two-mode marginals and reconstruction.

A two-mode vector quadrature is ``(X1, X2) = Lambda (q1, q2, p1, p2)^T +
(delta1, delta2)`` with the first two rows of the symplectic ``Lambda`` given
by ``(mu_vec, nu_vec)`` and ``(mu_p_vec, nu_p_vec)``.  The single-quadrature
("tilde") marginal uses only the first row.

Four-vectors follow the ordering ``(q1, q2, p1, p2)``; a setting row is the
four-vector ``u = (mu1, mu2, nu1, nu2)``.  Density-matrix indices are mode-1
major: ``(n1, n2) -> n1 * d2 + n2``.

The reconstruction formula ``rho = integral dx du  w K`` holds exactly when
the second row ``(mu_p, nu_p)`` is held constant while ``u`` sweeps the
plane, for any Fourier pair ``(z1, z2)`` (the z2-dependent phases cancel for
constant second row).  Physical joint tomograms constrain the pair to
commute, so tabulated vector tomograms are reduced to their tilde marginal
first.  The vector-kernel z2 freedom is verified in ``tests/oracles.py``;
the library reconstructs at ``z2 = 0`` from a tabulated tomogram on the Hopf
grid of setting directions, whose levels, angles and radius it reads from the
settings; there the direction sum factorises per mode.  A Hopf grid (its
nodes, directions, weights and exactly antipodal direction pairs) is built
once per process and ``(n_t, n_psi)`` and shared by every tabulation and
reconstruction on it; only a default tabulation also builds its directions as
validated settings, once per grid.  At most 4 grids and 4 settings tuples are
kept.

Tabulation uses two exact symmetries on an x grid with ``x[::-1] == -x`` bit
for bit.  Marginals are homogeneous, ``w(x; -u, -delta) = w(-x; u, delta)``,
so a setting that is the exact negative of an earlier one gets that row
reversed.  An inversion-symmetric state, ``W(-xi) = W(xi)`` (Royer's parity
relation: two-mode cats, centred Gaussians, products of vacuum, thermal or
number modes), has even marginals at zero offsets, so each of its rows is
evaluated on ``x >= 0`` and mirrored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DegenerateConfig,
    DegenerateSetting,
    GridTooNarrow,
    InvalidParameter,
    NotSymplectic,
    UnsupportedVariant,
)
from .kernels import KernelScale, PolarGrid, _scale_z, displacement_matrix
from .marginals import (
    NORMALIZATION_TOL,
    QuadratureSetting,
    _UNIT_SETTING,
    _antipodes,
    _centred_grid,
    _check_count,
    _density_table,
    _outcome_grid,
    _sigma_and_span,
    _trapezoid_weights,
)
from .reconstruct import ReconstructionReport, _check_config, _check_config_type, _finish, _row_fourier
from . import states as st

__all__ = [
    "TwoModeSetting",
    "TwoModeTomogram",
    "symplectic_sigma",
    "complete_symplectic",
    "tilde_marginal",
    "characteristic_two_mode",
    "hopf_directions",
    "tabulate_tilde_tomogram",
    "TwoModeConfig",
    "reconstruct_two_mode",
    "partial_trace",
]


def symplectic_sigma() -> np.ndarray:
    """Canonical form on (q1, q2, p1, p2)."""
    s = np.zeros((4, 4))
    s[0, 2] = s[1, 3] = 1.0
    s[2, 0] = s[3, 1] = -1.0
    return s


_SIGMA = symplectic_sigma()


@dataclass(frozen=True)
class TwoModeSetting:
    """Measured two-mode quadrature directions.

    ``mu``/``nu`` give the first quadrature ``X1``; ``mu_p``/``nu_p`` are
    optional and, when present, give the second quadrature of a vector
    tomogram.  Vector pairs must commute: ``u1 sigma u2^T = 0``.
    """

    mu: np.ndarray
    nu: np.ndarray
    mu_p: np.ndarray | None = None
    nu_p: np.ndarray | None = None
    delta: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        mu = st._finite_array(self.mu, "setting components", size=2)
        nu = st._finite_array(self.nu, "setting components", size=2)
        delta = st._finite_array(self.delta, "setting components", size=2)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "delta", delta)
        if float(mu @ mu + nu @ nu) == 0.0:
            raise DegenerateSetting("two-mode setting needs |mu|^2 + |nu|^2 > 0")
        if (self.mu_p is None) != (self.nu_p is None):
            raise InvalidParameter("mu_p and nu_p must be given together")
        if self.mu_p is not None:
            mu_p = st._finite_array(self.mu_p, "setting components", size=2)
            nu_p = st._finite_array(self.nu_p, "setting components", size=2)
            object.__setattr__(self, "mu_p", mu_p)
            object.__setattr__(self, "nu_p", nu_p)
            u1, u2 = self.row1, self.row2
            comm = float(u1 @ _SIGMA @ u2)
            scale = max(np.linalg.norm(u1) * np.linalg.norm(u2), 1e-300)
            if abs(comm) > 1e-10 * scale:
                raise NotSymplectic(f"X1 and X2 do not commute: u1 sigma u2^T = {comm:.3g}")

    @property
    def row1(self) -> np.ndarray:
        return np.concatenate([self.mu, self.nu])

    @property
    def row2(self) -> np.ndarray:
        if self.mu_p is None:
            raise InvalidParameter("tilde-only setting has no second quadrature")
        return np.concatenate([self.mu_p, self.nu_p])

    @property
    def is_vector(self) -> bool:
        return self.mu_p is not None

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.row1))


def complete_symplectic(setting: TwoModeSetting) -> np.ndarray:
    """Deterministic completion of the X rows to a full symplectic Lambda.

    Rows 3 and 4 are the minimum-norm solutions of the canonical pairing
    constraints (a symplectic Gram-Schmidt); the result is verified to
    satisfy ``Lambda sigma Lambda^T = sigma`` to 1e-10.
    """
    u1 = setting.row1
    if setting.is_vector:
        u2 = setting.row2
    else:
        # canonical partner direction for a tilde-only row: a commuting unit
        # row chosen deterministically from the orthogonal complement
        u2 = _default_partner(u1)
    rows = [u1, u2]
    for target in ((1.0, 0.0), (0.0, 1.0, 0.0)):
        A = np.array([r @ _SIGMA for r in rows[: len(target)]])
        b = np.asarray(target, dtype=float)
        try:
            sol = A.T @ np.linalg.solve(A @ A.T, b)
        except np.linalg.LinAlgError as exc:
            raise NotSymplectic("setting rows are linearly dependent") from exc
        rows.append(sol)
    lam = np.array(rows)
    resid = np.max(np.abs(lam @ _SIGMA @ lam.T - _SIGMA))
    if resid > 1e-10:
        raise NotSymplectic(f"completion failed, residual {resid:.3g}")
    return lam


def _default_partner(u1: np.ndarray) -> np.ndarray:
    # pick the commuting candidate of largest norm among sigma-orthogonal
    # projections of the coordinate axes; deterministic in the input
    s1 = _SIGMA @ u1
    best = None
    for k in range(4):
        e = np.zeros(4)
        e[k] = 1.0
        cand = e - ((e @ s1) / (s1 @ s1)) * s1
        norm = np.linalg.norm(cand)
        if best is None or norm > best[0] + 1e-12:
            best = (norm, cand)
    return best[1] / best[0]


# ---------------------------------------------------------------------------
# tomogram container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoModeTomogram:
    """Tabulated two-mode marginals.

    Tilde variant: ``values[s, i]`` over ``x1``;  vector variant additionally
    carries ``x2`` and ``values[s, i, j]`` over the outcome plane.  Both
    outcome grids are uniform, as for the one-mode ``Tomogram``.
    """

    settings: tuple[TwoModeSetting, ...]
    x1: np.ndarray
    values: np.ndarray
    x2: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise InvalidParameter("a tomogram needs at least one setting")
        x1 = _outcome_grid(self.x1, "x1")
        v = _density_table(self.values)
        object.__setattr__(self, "x1", x1)
        if self.x2 is not None:
            x2 = _outcome_grid(self.x2, "x2")
            object.__setattr__(self, "x2", x2)
            if v.shape != (len(self.settings), x1.size, x2.size):
                raise InvalidParameter("vector tomogram values must be (n, nx1, nx2)")
        elif v.shape != (len(self.settings), x1.size):
            raise InvalidParameter("tilde tomogram values must be (n, nx1)")
        object.__setattr__(self, "values", v)

    @property
    def kind(self) -> str:
        return "vector" if self.x2 is not None else "tilde"

    def row_integrals(self) -> np.ndarray:
        """Each setting's trapezoid integral, over x2 and then x1 for the vector kind."""
        # products with the rule's weights: no table-sized temporaries
        rows = self.values if self.kind == "tilde" else self.values @ _trapezoid_weights(self.x2)
        return rows @ _trapezoid_weights(self.x1)

    def validate_normalization(self, tol: float = NORMALIZATION_TOL) -> None:
        worst = float(np.max(np.abs(self.row_integrals() - 1.0)))
        if worst > tol:
            raise GridTooNarrow(f"worst two-mode normalization deficit {worst:.3g}")


# ---------------------------------------------------------------------------
# characteristic function (Wigner Fourier transform)
# ---------------------------------------------------------------------------


def characteristic_two_mode(state, w4) -> np.ndarray:
    """``Phi(w) = (2 pi)^-2 integral W(v) exp(i w . v) d4v`` over (q1,q2,p1,p2).

    Equals ``Tr[rho exp(i w . (q1,q2,p1,p2)_op)]``.  The marginal of any
    quadrature row u is recovered as the 1-d inverse transform of
    ``Phi(k u)``.
    """
    w = np.asarray(w4, dtype=float)
    squeeze = w.ndim == 1
    w = np.atleast_2d(w)

    if isinstance(state, st.GaussianTwoMode):
        M = state.M.entries
        quad = np.einsum("...i,ij,...j->...", w, M, w)
        out = np.exp(1j * w @ state.means - 0.5 * quad)
    elif isinstance(state, st.TwoModeCat):
        A = state.A
        sign = 1.0 if state.parity == "plus" else -1.0
        out = 0.0
        for a_vec, b_vec, s in (
            (A, A, 1.0),
            (A, -A, sign),
            (-A, A, sign),
            (-A, -A, 1.0),
        ):
            out = out + s * _cat_term_characteristic(a_vec, b_vec, w)
        out = state.norm_factor_squared * out
    elif isinstance(state, st.ProductState):
        out = st.characteristic_one_mode(state.mode1, w[..., 0], w[..., 2]) * st.characteristic_one_mode(
            state.mode2, w[..., 1], w[..., 3]
        )
    else:
        raise UnsupportedVariant(f"no characteristic function for {type(state).__name__}")
    return out[0] if squeeze else out


def _cat_term_characteristic(A: np.ndarray, B: np.ndarray, w: np.ndarray):
    # dyad |A><B| contributes exp(gamma + sum_i (c_i + i w_i)^2 / 4) with the
    # linear coefficients of its Gaussian Wigner exponent
    c = np.concatenate([np.sqrt(2) * (A + np.conj(B)), 1j * np.sqrt(2) * (np.conj(B) - A)])
    gamma = -(A @ np.conj(B)) - (np.abs(A) ** 2).sum() / 2 - (np.abs(B) ** 2).sum() / 2
    return np.exp(gamma + np.sum((c + 1j * w) ** 2, axis=-1) / 4.0)


# ---------------------------------------------------------------------------
# tilde (single-quadrature) marginals
# ---------------------------------------------------------------------------


def _gauss_moments(state: st.GaussianTwoMode, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means ``u . means`` and variances ``u M u^T`` of the Gaussian tilde marginals of the setting rows ``U[s]``."""
    return U @ state.means, np.einsum("si,ij,sj->s", U, state.M.entries, U)


def _gauss_rows(state: st.GaussianTwoMode, x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Gaussian marginals at ``x[s]`` of the setting rows ``U[s]`` (moments from ``_gauss_moments``)."""
    mean, s2 = _gauss_moments(state, U)
    s2 = s2[:, None]
    x = x - mean[:, None]
    return np.exp(-(x**2) / (2 * s2)) / np.sqrt(2 * np.pi * s2)


def _cat_rows(state: st.TwoModeCat, x: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Even-cat marginals at ``x[s]`` of the setting rows ``U[s]``."""
    Q, P = np.sqrt(2) * state.A.real, np.sqrt(2) * state.A.imag
    mu, nu = U[:, :2], U[:, 2:]
    r2 = np.sum(U**2, axis=1)[:, None]

    a2 = (Q @ Q + P @ P) / 2.0
    n2 = np.exp(a2) / (4.0 * np.cosh(a2))
    b = nu * P + mu * Q  # per-mode shifts of the hyperbolic terms
    c = mu * P - nu * Q  # per-mode frequencies of the oscillating term
    m = mu**2 + nu**2
    env = (-(x**2) - (b[:, :1] ** 2 + b[:, 1:] ** 2)) / r2
    osc_exp = (-(P[0] ** 2 + Q[0] ** 2) * m[:, 1:] - (P[1] ** 2 + Q[1] ** 2) * m[:, :1] + 2 * c[:, :1] * c[:, 1:]) / r2
    hyp_exp = -2 * b[:, :1] * b[:, 1:] / r2
    hyp_arg = 2 * b.sum(axis=1, keepdims=True) * x / r2
    # cosh folded into the exponents so extreme amplitudes cannot overflow
    terms = np.exp(env + osc_exp) * np.cos(2 * c.sum(axis=1, keepdims=True) * x / r2)
    terms = terms + 0.5 * (np.exp(env + hyp_exp + hyp_arg) + np.exp(env + hyp_exp - hyp_arg))
    return 2.0 * n2 / np.sqrt(np.pi * r2) * terms


def _stacked_form(state):
    """The stacked closed form ``rows(state, x, U)`` of ``state``, or None."""
    if isinstance(state, st.GaussianTwoMode):
        return _gauss_rows
    if isinstance(state, st.TwoModeCat) and state.parity == "plus":
        return _cat_rows
    return None


def tilde_marginal(state, x1, setting: TwoModeSetting):
    """Single-quadrature marginal for any supported two-mode state.

    Dispatches to the closed forms where they exist, otherwise inverts the
    characteristic function along the setting direction.
    """
    if not isinstance(setting, TwoModeSetting):
        raise InvalidParameter(f"a two-mode setting must be a TwoModeSetting, got {type(setting).__name__}")
    rows = _stacked_form(state)
    if rows is None:
        return _tilde_from_characteristic(state, x1, setting)
    x1 = np.asarray(x1, dtype=float)
    return rows(state, x1.reshape(1, -1), setting.row1[None])[0].reshape(x1.shape)[()]


def _tilde_family(state, setting: TwoModeSetting) -> tuple:
    """``(table state, table setting, scale, offset)`` of a tilde marginal, as
    in ``marginals._marginal_family``.  A Gaussian's is normal (see
    ``_gauss_moments``): the vacuum's unit marginal, of variance 1/2, scaled
    by ``sqrt(2 u M u^T)`` and moved by ``u . means``.  Any other state is its
    own table at ``setting``, with scale 1 and offset 0.
    """
    if isinstance(state, st.GaussianTwoMode):
        mean, var = _gauss_moments(state, setting.row1[None])
        return st.Vacuum(), _UNIT_SETTING, float(np.sqrt(2 * var[0])), float(mean[0])
    return state, setting, 1.0, 0.0


def _tilde_from_characteristic(state, x1, setting: TwoModeSetting, k_points: int = 2001):
    u = setting.row1
    r = np.linalg.norm(u)
    # widen the frequency window until the characteristic has decayed
    k_max = 20.0 / r
    while abs(characteristic_two_mode(state, k_max * u)) > 1e-10 and k_max < 320.0 / r:
        k_max *= 2.0
    k = np.linspace(-k_max, k_max, k_points)
    phi = characteristic_two_mode(state, k[:, None] * u[None, :])
    x1 = np.asarray(x1, dtype=float)
    kernel = np.exp(-1j * np.multiply.outer(x1, k))
    out = ((kernel @ (phi * _trapezoid_weights(k))) / (2 * np.pi)).real
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoModeConfig:
    """Radial quadrature of the 4-d (mu_vec, nu_vec) integration.

    The tomogram's Hopf grid covers the 3-sphere of directions; ``r_max`` and
    ``n_r`` set the radii of ``PolarGrid(r_max, n_r)``, with the radial extent
    again set by the kernel damping ``exp(-z1^2 R^2 / 4)``.
    """

    scale: KernelScale = field(default_factory=KernelScale)
    dims: tuple[int, int] = (12, 12)
    r_max: float | None = None
    n_r: int = 48
    projection: str = "hermitize"

    def __post_init__(self):
        if not isinstance(self.dims, (tuple, list)) or len(self.dims) != 2:
            raise DegenerateConfig(f"dims must be a pair of per-mode truncations, got {self.dims!r}")
        z = _scale_z(self.scale, DegenerateConfig)
        _check_config(PolarGrid(self.r_max, self.n_r), z, self.dims, self.projection)


class _HopfGrid(NamedTuple):
    """One Hopf grid, read-only: its Gauss-Legendre levels ``t``, the angles
    ``psi``, the ``(n, 4)`` directions with their quadrature ``weights`` and
    the ``_antipodes`` pairs of the directions."""

    t: np.ndarray
    psi: np.ndarray
    dirs: np.ndarray
    weights: np.ndarray
    pairs: np.ndarray


def _hopf_grid(n_t: int, n_psi: int) -> _HopfGrid:
    """The grid of ``hopf_directions(n_t, n_psi)``, built once per process and size pair."""
    return _build_hopf_grid(_check_count(n_t, 1, "n_t"), _check_count(n_psi, 1, "n_psi"))


# every tabulation and reconstruction on one grid shares its arrays;
# the sizes are checked first, so a bad value is never a key
@lru_cache(maxsize=4)
def _build_hopf_grid(n_t: int, n_psi: int) -> _HopfGrid:
    tg, tw = leggauss(n_t)
    t, wt, psi = 0.5 * (tg + 1.0), 0.5 * tw, 2 * np.pi * np.arange(n_psi) / n_psi
    wpsi = 2 * np.pi / n_psi
    cos, sin = np.cos(psi), np.sin(psi)
    if n_psi % 2 == 0:  # psi + pi is on the grid: make its direction the exact antipode
        half = n_psi // 2
        cos[half:], sin[half:] = -cos[:half], -sin[:half]
    r1, r2 = np.sqrt(t)[:, None, None], np.sqrt(1 - t)[:, None, None]
    c1, s1, c2, s2 = cos[:, None], sin[:, None], cos[None, :], sin[None, :]
    dirs = np.stack(np.broadcast_arrays(r1 * c1, r2 * c2, r1 * s1, r2 * s2), axis=-1).reshape(-1, 4)
    weights = np.repeat(0.5 * wt * wpsi * wpsi, n_psi * n_psi)
    pairs = _antipodes(dirs, np.zeros(len(dirs)))
    for arr in (t, psi, dirs, weights, pairs):
        arr.flags.writeable = False
    return _HopfGrid(t, psi, dirs, weights, pairs)


# only default tabulations need the directions as validated settings;
# reconstructions and hopf_directions read the arrays alone and never build them
@lru_cache(maxsize=4)
def _hopf_settings(n_t: int, n_psi: int) -> tuple[TwoModeSetting, ...]:
    return tuple(TwoModeSetting(mu=d[:2], nu=d[2:]) for d in _build_hopf_grid(n_t, n_psi).dirs)


def hopf_directions(n_t: int, n_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on the 3-sphere of setting directions.

    Directions ``(mu1, mu2, nu1, nu2) = (sqrt(t) cos psi1, sqrt(1-t) cos psi2,
    sqrt(t) sin psi1, sqrt(1-t) sin psi2)`` with Gauss-Legendre ``t`` and
    uniform angles, ordered ``t``-major then ``psi1`` then ``psi2``; weights
    sum to the sphere area ``2 pi^2``.  For even ``n_psi`` the direction at
    ``(t, psi1 + pi, psi2 + pi)`` is the exact negative of the one at
    ``(t, psi1, psi2)``: the second half of the angles takes the first half's
    cosines and sines negated.  The grid is built once per process and
    ``(n_t, n_psi)``, at most 4 grids are kept, and the returned arrays are
    writable copies of it.
    """
    grid = _hopf_grid(n_t, n_psi)
    return grid.dirs.copy(), grid.weights.copy()


def _half_widths(state, U: np.ndarray) -> np.ndarray:
    """Half-widths of the centered x1 grids of the setting rows ``U[s]``: 8 standard deviations plus displacements."""
    mu, nu = U[:, :2], U[:, 2:]
    if isinstance(state, st.GaussianTwoMode):
        mean, s2 = _gauss_moments(state, U)
        return 8.0 * np.sqrt(s2) + np.abs(mean)
    if isinstance(state, st.TwoModeCat):
        shift = np.sqrt(2) * (np.sum(np.abs(mu * state.A.real), axis=1) + np.sum(np.abs(nu * state.A.imag), axis=1))
        return 8.0 * np.linalg.norm(U, axis=1) / np.sqrt(2) + 2 * shift
    if isinstance(state, st.ProductState):
        # per-mode widths of the one-mode marginals add in quadrature
        var, span = np.zeros(len(U)), np.zeros(len(U))
        for j, mode in enumerate((state.mode1, state.mode2)):
            for i in np.flatnonzero(np.hypot(mu[:, j], nu[:, j])):
                sj, spj = _sigma_and_span(mode, QuadratureSetting(mu[i, j], nu[i, j]))
                var[i] += sj**2
                span[i] += spj
        return 8.0 * np.sqrt(var) + span
    return 10.0 * np.linalg.norm(U, axis=1)


def _half_width(state, setting: TwoModeSetting) -> float:
    """Half-width of one setting's centered x1 grid."""
    return float(_half_widths(state, setting.row1[None])[0])


_TILDE_CHUNK = 32  # settings per stacked evaluation; no full table is held beside the tomogram's


def tabulate_tilde_tomogram(
    state,
    settings=None,
    x_grid: np.ndarray | None = None,
    num: int = 1201,
    n_t: int = 12,
    n_psi: int = 12,
) -> TwoModeTomogram:
    """Tabulate tilde marginals, by default on ``hopf_directions(n_t, n_psi)``.

    Gaussian states and the even cat use their closed forms over the stacked
    settings axis; other states (``ProductState``, the odd cat) invert the
    characteristic function one setting at a time.  Marginals are homogeneous,
    ``w(x; -u, -delta) = w(-x; u, delta)``: on an x grid with
    ``x[::-1] == -x`` exactly, as the default one is, a row whose setting is
    the exact negative of an earlier one is that row reversed, and is copied
    rather than evaluated.  The default grid's directions come in exact
    antipodal pairs for even ``n_psi``, so half its rows are copies.  On such
    a grid, when every offset ``delta`` is zero and the state is inversion
    symmetric (a two-mode cat of either parity, a Gaussian with zero
    ``means``, or a product of vacuum, thermal or number modes), every row is
    even, ``w(-x; u) = w(x; u)``: it is evaluated on ``x[n // 2:]`` of the
    ``n`` points and its ``x < 0`` half is that part reversed.  Every other state is evaluated
    over the whole grid.
    ``reconstruct_two_mode`` needs the settings of a Hopf grid, in its order,
    on a common radius; other settings tabulate but do not reconstruct.  The
    default grid and its settings are built once per process and
    ``(n_t, n_psi)`` (at most 4 grids are kept), so every tomogram on one grid
    shares one settings tuple.
    """
    num = _check_count(num, 1, "num")  # _outcome_grid refuses a one-point grid
    if settings is None:
        grid = _hopf_grid(n_t, n_psi)
        settings, U, deltas = _hopf_settings(grid.t.size, grid.psi.size), grid.dirs, np.zeros(len(grid.dirs))
        pairs = grid.pairs
    else:
        settings = tuple(settings)
        if not settings:
            raise InvalidParameter("need at least one setting")
        U, deltas = _setting_rows(settings)
        pairs = _antipodes(U, deltas)
    if x_grid is None:
        x_grid = _centred_grid(0.0, float(np.max(_half_widths(state, U) + np.abs(deltas))), num)
    x_grid = _outcome_grid(x_grid, "x1")
    mirrored = np.array_equal(x_grid[::-1], -x_grid)
    if not mirrored:
        pairs = pairs[:0]
    # even rows, w(-x; u) = w(x; u): evaluate x[h:] and fill x[:h] with it reversed
    h = x_grid.size // 2 if mirrored and not np.any(deltas) and st._inversion_symmetric(state) else 0
    x_eval = x_grid[h:]
    values = np.empty((len(settings), x_grid.size))
    form = _stacked_form(state)
    evaluated = np.delete(np.arange(len(settings)), pairs[:, 1])
    for start in range(0, evaluated.size, _TILDE_CHUNK):
        rows = evaluated[start : start + _TILDE_CHUNK]
        if form is None:
            part = np.array([_tilde_from_characteristic(state, x_eval - deltas[i], settings[i]) for i in rows])
        else:
            part = form(state, x_eval - deltas[rows, None], U[rows])
        values[rows, h:] = part
        values[rows, :h] = part[:, ::-1][:, :h]
        # the partners of this chunk's rows, while the rows are fresh
        lo, hi = np.searchsorted(pairs[:, 0], (rows[0], rows[-1] + 1))
        values[pairs[lo:hi, 1]] = values[pairs[lo:hi, 0], ::-1]
    # read-only and owning its memory: the constructor keeps this table, no copy
    values.flags.writeable = False
    tomo = TwoModeTomogram(settings, x_grid, values)
    tomo.validate_normalization()
    return tomo


def _setting_rows(settings) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 4)`` rows ``u = (mu, nu)`` and the offsets ``delta1`` of tilde settings."""
    if not all(isinstance(s, TwoModeSetting) for s in settings):
        raise InvalidParameter("two-mode settings must be TwoModeSetting instances")
    mu = np.array([s.mu for s in settings])
    nu = np.array([s.nu for s in settings])
    return np.concatenate([mu, nu], axis=1), np.array([s.delta[0] for s in settings])


def _assemble_hopf(chi: np.ndarray, grid: _HopfGrid, R: np.ndarray, wR: np.ndarray, cfg: TwoModeConfig) -> np.ndarray:
    """Sum ``w_s wR_k R_k^3 chi[s, k] (z1^4/(2pi)^2) D1 x D2`` over the radial x Hopf grid.

    ``chi[s, k]`` is the characteristic at the row ``R_k u_s`` for the
    directions ``u_s`` of the Hopf ``grid`` with quadrature weights ``w_s``.
    There ``zeta_j = (z1 R r_j / sqrt 2) e^{i(psi_j + pi/2)}`` with
    ``r_1 = sqrt t`` and ``r_2 = sqrt(1 - t)``, so by
    ``<m|D(a e^{i theta})|n> = e^{i(m-n) theta} <m|D(a)|n>`` the direction sum
    is one real-axis table per ``(t, R)`` and mode, weighted by the 2-d angular
    Fourier sum of ``chi`` at the orders ``(m1 - n1, m2 - n2)``.
    """
    z1 = cfg.scale.z
    d1, d2 = cfg.dims
    t, psi = grid.t, grid.psi
    n_t, n_psi = t.size, psi.size
    coeff = (grid.weights[:, None] * chi * (wR * R**3 * z1**4 / (2 * np.pi) ** 2)).reshape(n_t, n_psi, n_psi, -1)
    # angular[t, k, o1, o2] = sum over (psi1, psi2) of coeff e^{i o1 (psi1 + pi/2)} e^{i o2 (psi2 + pi/2)}
    e1 = np.exp(1j * np.outer(np.arange(1 - d1, d1), psi + np.pi / 2))
    e2 = np.exp(1j * np.outer(np.arange(1 - d2, d2), psi + np.pi / 2))
    angular = (e1 @ coeff.transpose(0, 3, 1, 2) @ e2.T).reshape(n_t * R.size, 2 * d1 - 1, 2 * d2 - 1)
    a = z1 * R / np.sqrt(2)  # real arguments: the tables are real
    T1 = displacement_matrix(np.outer(np.sqrt(t), a), d1).real.reshape(-1, d1, d1)
    T2 = displacement_matrix(np.outer(np.sqrt(1 - t), a), d2).real.reshape(-1, d2 * d2)
    n2 = np.arange(d2)
    order2 = (n2[:, None] - n2[None, :] + d2 - 1).ravel()
    # rho4[m1, n1, (m2, n2)], one GEMM over the (t, R) nodes per mode-1 order
    rho4 = np.empty((d1, d1, d2 * d2), dtype=complex)
    for o1 in range(1 - d1, d1):
        m1 = np.arange(max(0, o1), min(d1, d1 + o1))
        rho4[m1, m1 - o1] = T1[:, m1, m1 - o1].T @ (angular[:, o1 + d1 - 1, order2] * T2)
    # reorder (m1, n1, m2, n2) -> (m1, m2, n1, n2), flatten mode-1 major
    return rho4.reshape(d1, d1, d2, d2).transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def _hopf_layout(rows: np.ndarray) -> tuple[_HopfGrid, float]:
    """The Hopf grid of setting rows on ``hopf_directions(n_t, n_psi)`` scaled by ``r0``, and ``r0``.

    ``n_t`` is the number of distinct mode-1 levels ``(mu1^2 + nu1^2) / r0^2``;
    the rows must then equal the grid's in order to a relative 1e-12.  Any
    other rows raise ``InvalidParameter``.
    """
    r0 = float(np.linalg.norm(rows, axis=1).mean())
    levels = np.sort(rows[:, 0] ** 2 + rows[:, 2] ** 2) / r0**2
    n_t = 1 + int(np.count_nonzero(np.diff(levels) > 1e-9))
    n_psi = int(round(np.sqrt(len(rows) / n_t)))
    if n_t * n_psi * n_psi == len(rows):
        grid = _hopf_grid(n_t, n_psi)
        if np.max(np.abs(rows - r0 * grid.dirs)) <= 1e-12 * r0:
            return grid, r0
    raise InvalidParameter(
        "a two-mode tomogram must be the hopf_directions(n_t, n_psi) grid, in its order, on a common radius"
    )


def reconstruct_two_mode(tomo: TwoModeTomogram, cfg: TwoModeConfig) -> ReconstructionReport:
    """Two-mode density matrix from tilde data (or the tilde reduction of vector data).

    Vector tomograms are first marginalized over x2 (their single-quadrature
    content determines the state already).  The tomogram must lie on a Hopf
    grid of common radius, whose sizes and weights its settings fix; ``cfg``
    sets the radii.  A state must be tabulated first with
    ``tabulate_tilde_tomogram``.
    """
    if not isinstance(tomo, TwoModeTomogram):
        raise InvalidParameter(
            f"expected a TwoModeTomogram, got {type(tomo).__name__}: tabulate it with tabulate_tilde_tomogram"
        )
    _check_config_type(cfg, TwoModeConfig)
    U, deltas = _setting_rows(tomo.settings)
    grid, r0 = _hopf_layout(U)
    R, wR = PolarGrid(cfg.r_max, cfg.n_r).nodes(cfg.scale.z)
    rows = tomo.values
    if tomo.kind == "vector":
        rows = rows @ _trapezoid_weights(tomo.x2)
    chi = _row_fourier(rows, tomo.x1, deltas, cfg.scale.z * R / r0)
    raw = _assemble_hopf(chi, grid, R, wR, cfg)
    return _finish(raw, cfg.projection, len(grid.weights), 0, check_trace=True, dims=cfg.dims)


def partial_trace(rho: st.FockDensityMatrix, keep: int = 1) -> st.FockDensityMatrix:
    """Reduce a two-mode matrix to one mode (``keep`` = 1 or 2)."""
    if not isinstance(rho, st.FockDensityMatrix):
        raise InvalidParameter(f"partial trace needs a FockDensityMatrix, got {type(rho).__name__}")
    if rho.dims is None:
        raise InvalidParameter("partial trace needs a two-mode matrix with dims")
    d1, d2 = rho.dims
    four = rho.entries.reshape(d1, d2, d1, d2)
    if keep == 1:
        reduced = np.einsum("ikjk->ij", four)
    elif keep == 2:
        reduced = np.einsum("kikj->ij", four)
    else:
        raise InvalidParameter("keep must be 1 or 2")
    return st.FockDensityMatrix(reduced)
