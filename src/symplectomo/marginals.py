"""Marginal distributions of generalized quadratures ``X = mu q + nu p + delta``.

The marginal ``w(x, mu, nu)`` is the probability density of the outcome of an
``X`` measurement, expressed in the shifted variable ``x = X - delta``: the
shift only translates the distribution, so all evaluators take the centered
argument and the density at the physical outcome ``X`` is ``w(X - delta)``.

Key identities realized here (and asserted by the test suite):

* normalization: ``integral w dx = 1`` per setting;
* scaling: ``|lam| w(lam x, lam mu, lam nu) = w(x, mu, nu)``;
* parity: ``w(-x, -mu, -nu) = w(x, mu, nu)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSetting, GridTooNarrow, InvalidParameter, UnsupportedVariant
from . import states as st
from .states import _check_count, _finite

__all__ = [
    "QuadratureSetting",
    "Tomogram",
    "circle_settings",
    "marginal_analytic",
    "marginal_numeric",
    "line_marginal",
    "default_x_grid",
    "tabulate_tomogram",
]

NORMALIZATION_TOL = 1e-3

# Trapezoid nodes of the tabulation path's Wigner line integral on +-8.  The
# integrand decays like a Gaussian, so the rule converges exponentially
# (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)): against the exact
# Hermite-function marginal of NumberState(n), 201 nodes leave the same error
# as 2001 for every n = 0..14, at most 5e-15 of the peak for n <= 10.
LINE_POINTS = 201

# points (x values times line nodes) per block of the line integral.  It keeps
# about ten temporaries of a block alive at once (the line's q and p and the
# Wigner function's intermediates), so at 2^14 points, 128 KiB each, they stay
# in a 2 MB L2 cache; 2^16 overflowed it and ran at half the speed
_LINE_BLOCK_POINTS = 2**14


@dataclass(frozen=True)
class QuadratureSetting:
    """Transform parameters of the measured quadrature ``mu q + nu p + delta``."""

    mu: float
    nu: float
    delta: float = 0.0

    def __post_init__(self):
        mu, nu, delta = (_finite(v, "setting parameters") for v in (self.mu, self.nu, self.delta))
        if mu * mu + nu * nu == 0.0:
            raise DegenerateSetting("mu^2 + nu^2 must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "delta", delta)

    @property
    def radius(self) -> float:
        return float(np.hypot(self.mu, self.nu))

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.nu, self.mu))

    def negated(self) -> "QuadratureSetting":
        return QuadratureSetting(-self.mu, -self.nu, self.delta)


# the setting of the sampler tables that many settings share (see _marginal_family)
_UNIT_SETTING = QuadratureSetting(1.0, 0.0)


def circle_settings(n: int, radius: float = 1.0, delta: float = 0.0) -> list[QuadratureSetting]:
    """``n`` settings uniformly spaced on the circle ``mu^2 + nu^2 = radius^2``.

    For even ``n`` the setting at angle ``phi + pi`` has the exact negatives
    of the ``mu`` and ``nu`` at ``phi``: the second half of the circle is the
    first half negated, as on a Hopf grid of even ``n_psi``.
    """
    n = _check_count(n, 1, "the number of settings")
    phis = 2 * np.pi * np.arange(n) / n
    half = n // 2 if n % 2 == 0 else n
    first = [QuadratureSetting(radius * np.cos(p), radius * np.sin(p), delta) for p in phis[:half]]
    return first + [s.negated() for s in first[: n - half]]


def _outcome_grid(x, name: str) -> np.ndarray:
    """A read-only copy of ``x`` after checking it is a finite, 1-d, uniform and
    ascending grid of two or more points: the row integrals and Fourier
    transforms use the trapezoid rule of spacing ``x[1] - x[0]``."""
    try:
        x = np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{name} grid must be an array of real numbers: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise InvalidParameter(f"{name} grid must be finite")
    if x.ndim != 1 or x.size < 2:
        raise InvalidParameter(f"{name} grid must be a 1-d array with >= 2 points")
    dx = np.diff(x)
    if dx[0] <= 0 or not np.allclose(dx, dx[0], rtol=1e-9, atol=1e-12):
        raise InvalidParameter(f"{name} grid must be uniform and ascending")
    x.flags.writeable = False
    return x


def _centred_grid(centre: float, half: float, num: int) -> np.ndarray:
    """``num`` uniform points from ``centre - half`` to ``centre + half``.

    Built as the centre plus integer offsets times one step, so a grid about
    0 has ``x[::-1] == -x`` bit for bit, which ``np.linspace`` does not give.
    """
    return centre + (np.arange(num) - (num - 1) / 2) * (2 * half / max(num - 1, 1))


def _antipodes(U: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The ``(m, 2)`` pairs ``(i, j)`` of rows with ``(U[j], deltas[j]) == -(U[i], deltas[i])``, sorted by ``i``.

    Rows are compared exactly, zeros of either sign alike.  ``i`` is the
    first row of its value and comes before every row of the negated value;
    each such later row ``j`` is paired with it.  No row is both an ``i`` and
    a ``j``, and rows without an exact partner are in no pair.
    """
    n = len(U)
    rows = np.column_stack([U, deltas])
    both = np.concatenate([rows, -rows])
    order = np.lexsort(both.T)
    ranked = both[order]
    # value[k]: one label per distinct row value among the rows and their negatives
    value = np.empty(2 * n, dtype=np.intp)
    value[order] = np.concatenate([[0], np.cumsum(np.any(ranked[1:] != ranked[:-1], axis=1))])
    first = np.full(value[order[-1]] + 1, n)
    np.minimum.at(first, value[:n], np.arange(n))
    source = first[value[n:]]  # the first row equal to -row j, or n if there is none
    mirror = np.flatnonzero(source < first[value[:n]])
    pairs = np.column_stack([source[mirror], mirror])
    return pairs[np.argsort(pairs[:, 0], kind="stable")]


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _density_table(values) -> np.ndarray:
    """``values`` as a read-only float64 table of finite densities >= -1e-12.

    A read-only float64 ndarray that owns its memory is kept as it is, so a
    tabulator hands its table over without a copy; anything else is copied,
    and the caller's array stays writeable.  The checks are reductions, with
    no table-sized temporaries.
    """
    owned = type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata
    if owned and not values.flags.writeable:
        v = values
    else:
        v = np.array(values, dtype=float)
        v.flags.writeable = False
    if v.size:
        lo, hi = v.min(), v.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidParameter("tomogram densities must be finite")
        if lo < -1e-12:
            raise InvalidParameter("marginal densities must be nonnegative")
    return v


@dataclass(frozen=True)
class Tomogram:
    """Tabulated marginals over a shared uniform grid of raw outcomes X.

    ``values[s, i]`` is the density of setting ``s`` at outcome ``x[i]``,
    i.e. ``w(x[i] - delta_s)`` for the setting's centered marginal.
    """

    settings: tuple[QuadratureSetting, ...]
    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise InvalidParameter("a tomogram needs at least one setting")
        x = _outcome_grid(self.x, "x")
        v = _density_table(self.values)
        if v.shape != (len(self.settings), x.size):
            raise InvalidParameter("values must have shape (n_settings, n_points)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    def row_integrals(self) -> np.ndarray:
        return self.values @ _trapezoid_weights(self.x)

    def validate_normalization(self, tol: float = NORMALIZATION_TOL) -> None:
        integrals = self.row_integrals()
        worst = float(np.max(np.abs(integrals - 1.0)))
        if worst > tol:
            raise GridTooNarrow(f"worst per-setting normalization deficit {worst:.3g}")


# ---------------------------------------------------------------------------
# closed-form marginals
# ---------------------------------------------------------------------------


def marginal_analytic(state, x, setting: QuadratureSetting):
    """Closed-form marginal density at centered ``x`` (i.e. at outcome x + delta).

    Supported variants: Vacuum, Coherent, Thermal, EvenCat.  All are cross
    checked against the Wigner line-integral route in the tests.
    """
    setting = _as_setting(setting)
    x = np.asarray(x, dtype=float)
    mu, nu = setting.mu, setting.nu
    r2 = mu * mu + nu * nu

    if isinstance(state, st.Vacuum):
        return np.exp(-(x**2) / r2) / np.sqrt(np.pi * r2)

    if isinstance(state, st.Thermal):
        lam = state.lam
        return np.sqrt(lam / (np.pi * r2)) * np.exp(-lam * x**2 / r2)

    if isinstance(state, st.Coherent):
        center = _coherent_mean(state, setting)
        return np.exp(-((x - center) ** 2) / r2) / np.sqrt(np.pi * r2)

    if isinstance(state, st.EvenCat):
        a, b = state.a, state.b
        xb = x - np.sqrt(2) * a * mu
        env = -(xb**2 + 2 * b**2 * nu**2) / r2
        hyp = 2 * np.sqrt(2) * b * nu * xb / r2
        osc = (2 * np.sqrt(2) * b * mu * x - 2 * a * b * (mu**2 - nu**2)) / r2
        # cosh folded into the exponents: the envelope always wins, so the
        # combination stays finite where cosh alone would overflow
        brace = 0.5 * (np.exp(env + hyp) + np.exp(env - hyp)) + np.exp(env) * np.cos(osc)
        return 2.0 * brace / (np.sqrt(np.pi * r2) * state.norm_squared)

    raise UnsupportedVariant(f"no closed-form marginal for {type(state).__name__}")


# ---------------------------------------------------------------------------
# numeric marginals (Wigner line integral)
# ---------------------------------------------------------------------------


def line_marginal(wigner_fn, x, setting: QuadratureSetting, extent: float = 8.0, num: int = 2001):
    """Marginal of an arbitrary Wigner function along ``mu q + nu p = x``.

    The line is parametrized by arc length along ``(-nu, mu)/r``, which keeps
    the integrand regular for every direction, including ``mu = 0``.  The
    normalization ``1/(2 pi r)`` matches ``integral W = 2 pi``.  The x values
    are integrated a block of about ``_LINE_BLOCK_POINTS`` line points at a
    time, so the working set is bounded whatever the size of ``x`` and stays
    in cache; each x is integrated exactly as on its own, so the block size
    does not change a bit of the result.
    """
    setting = _as_setting(setting)
    num = _check_count(num, 2, "num")
    if not 0.0 < extent < np.inf:
        raise InvalidParameter(f"extent must be a positive finite half-length, got {extent!r}")
    x = np.asarray(x, dtype=float)
    r = setting.radius
    eq, ep = setting.mu / r, setting.nu / r
    s = np.linspace(-extent, extent, num)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    block = max(1, _LINE_BLOCK_POINTS // num)
    for start in range(0, flat.size, block):
        xb = flat[start : start + block, None]
        # points: foot of the line + arc-length offsets
        q = (xb / r) * eq + s * (-ep)
        p = (xb / r) * ep + s * eq
        out[start : start + block] = np.trapezoid(wigner_fn(q, p), dx=s[1] - s[0], axis=-1)
    out /= 2 * np.pi * r
    return out.reshape(x.shape)[()]


def marginal_numeric(state, x, setting: QuadratureSetting, extent: float = 8.0, num: int = 2001):
    """Marginal density computed by a line integral of the state's Wigner function."""
    setting = _as_setting(setting)
    if isinstance(state, st.Thermal):
        # wide thermal Wigner needs a proportionally longer integration line
        extent = max(extent, extent / np.sqrt(state.lam))
    return line_marginal(lambda q, p: st.wigner(state, q, p), x, setting, extent, num)


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------


def _coherent_mean(state: st.Coherent, setting: QuadratureSetting) -> float:
    """Mean ``sqrt(2) (mu Re alpha + nu Im alpha)`` of a coherent state's marginal."""
    return np.sqrt(2) * (setting.mu * state.alpha.real + setting.nu * state.alpha.imag)


def _sigma_and_span(state, setting: QuadratureSetting) -> tuple[float, float]:
    """Gaussian width and extra displacement allowance for one setting."""
    r2 = setting.mu**2 + setting.nu**2
    if isinstance(state, st.Thermal):
        return np.sqrt(r2 / (2 * state.lam)), 0.0
    if isinstance(state, st.NumberState):
        return np.sqrt(r2 * (2 * state.n + 1) / 2), 0.0
    if isinstance(state, st.Coherent):
        return np.sqrt(r2 / 2), abs(_coherent_mean(state, setting))
    if isinstance(state, st.EvenCat):
        shift = np.sqrt(2) * (abs(state.a * setting.mu) + abs(state.b * setting.nu))
        return np.sqrt(r2 / 2), shift
    return np.sqrt(r2 / 2), 0.0


def _half_width(state, setting: QuadratureSetting) -> float:
    """Half-width of the centered x grid: 8 standard deviations plus displacements."""
    sigma, span = _sigma_and_span(state, setting)
    return float(8.0 * sigma + span)


def default_x_grid(state, setting: QuadratureSetting, num: int = 1201) -> np.ndarray:
    """Uniform centered grid covering 8 standard deviations plus displacements,
    with ``x[::-1] == -x`` exactly (see ``_centred_grid``)."""
    num = _check_count(num, 2, "num")
    return _centred_grid(0.0, _half_width(state, _as_setting(setting)), num)


def _marginal_any(state, x, setting: QuadratureSetting):
    try:
        return marginal_analytic(state, x, setting)
    except UnsupportedVariant:
        return marginal_numeric(state, x, setting, num=LINE_POINTS)


def _marginal_key(state, setting: QuadratureSetting):
    """Settings with equal keys have one and the same centered marginal of ``state``.

    A state whose Wigner function depends on ``q^2 + p^2`` alone (vacuum,
    thermal, number states) has a marginal that depends on the setting only
    through its radius, so every phase of one radius shares it; any other
    state shares it only between repeats of ``(mu, nu)``.
    """
    if isinstance(state, (st.Vacuum, st.Thermal, st.NumberState)):
        return setting.radius
    return (setting.mu, setting.nu)


def _marginal_family(state, setting: QuadratureSetting) -> tuple:
    """``(table state, table setting, scale, offset)``: the centered marginal of
    ``setting`` is that of the table setting for the table state, scaled by
    ``scale`` about 0 and then moved by ``offset``.

    Marginals are homogeneous, ``w(x; r u) = w(x / r; u) / r``, so every
    marginal of a vacuum, thermal or number state is its marginal at the
    unit setting ``(1, 0)`` scaled by the radius ``r``.  A coherent state's
    marginal is normal, of mean ``_coherent_mean`` and variance ``r^2 / 2``:
    the vacuum's unit marginal scaled by ``r`` and moved by that mean.  Any
    other state is its own table at ``setting``, with scale 1 and offset 0.
    """
    if isinstance(state, (st.Vacuum, st.Thermal, st.NumberState)):
        return state, _UNIT_SETTING, setting.radius, 0.0
    if isinstance(state, st.Coherent):
        return st.Vacuum(), _UNIT_SETTING, setting.radius, _coherent_mean(state, setting)
    return state, setting, 1.0, 0.0


def tabulate_tomogram(state, settings, x_grid: np.ndarray | None = None, num: int = 1201) -> Tomogram:
    """Tabulate ``w`` for a list of settings on a shared x grid.

    Prefers the closed forms, falling back to the Wigner line integral.  Each
    distinct row is evaluated once, on the first setting that has it: every
    phase of one radius and shift shares the row of a vacuum, thermal or
    number state.  Marginals are homogeneous, ``w(x; -mu, -nu, -delta) =
    w(-x; mu, nu, delta)``: on an x grid with ``x[::-1] == -x`` exactly, as
    the default one is, a row whose setting is the exact negative of an
    earlier one is that row reversed, and is copied rather than evaluated.
    ``circle_settings`` of even ``n`` at zero ``delta`` is such a record, so
    half its rows are copies.  The per-setting normalization is validated; a
    deficit above ``1e-3`` raises ``GridTooNarrow``.
    """
    settings = [_as_setting(s) for s in settings]
    if not settings:
        raise InvalidParameter("need at least one setting")
    num = _check_count(num, 2, "num")
    if x_grid is None:
        x_grid = _centred_grid(0.0, max(_half_width(state, s) + abs(s.delta) for s in settings), num)
    x_grid = _outcome_grid(x_grid, "x")
    mirror = {}  # a row -> the earlier row whose setting is its exact negative
    if np.array_equal(x_grid[::-1], -x_grid):
        keys = np.array([(s.mu, s.nu, s.delta) for s in settings])
        mirror = {j: i for i, j in _antipodes(keys[:, :2], keys[:, 2]).tolist()}
    values = np.empty((len(settings), x_grid.size))
    first = {}
    for i, s in enumerate(settings):
        key = (_marginal_key(state, s), s.delta)
        if key in first:
            values[i] = values[first[key]]
        elif i in mirror:
            values[i] = values[mirror[i], ::-1]
        else:
            first[key] = i
            values[i] = _marginal_any(state, x_grid - s.delta, s)
    # read-only and owning its memory: the constructor keeps this table, no copy
    values.flags.writeable = False
    tomo = Tomogram(tuple(settings), x_grid, values)
    tomo.validate_normalization()
    return tomo


def _as_setting(setting) -> QuadratureSetting:
    if isinstance(setting, QuadratureSetting):
        return setting
    try:
        return QuadratureSetting(*setting)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(
            f"a setting must be a QuadratureSetting or a (mu, nu[, delta]) tuple, got {setting!r}"
        ) from exc
