"""Slow reference paths that the library's fast paths are tested against.

Each function is the direct, unfactorised form of a computation the library
performs faster: the explicit displacement-element series, the dense
per-angle one-mode polar assembly, the per-batch campaign estimator, the
per-direction two-mode einsum loops and per-radius GEMM, the vector-kernel
reconstruction with a fixed second row, the 4001-node trapezoid homodyne
estimator and kernel element, and the line-by-line CSV writers and readers.
It also holds exact forms the library does not evaluate, such as the
Hermite-function marginal of a number state.  None of them is used by the
library itself.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from symplectomo.errors import CutoffTooSmall, EmptyBatches, InvalidParameter
from symplectomo.io import format_float
from symplectomo.kernels import displacement_matrix, kernel_displacement_argument
from symplectomo.marginals import QuadratureSetting, Tomogram
from symplectomo.measure_sim import SampleBatch
from symplectomo.reconstruct import (
    _angle_weights,
    _circle_radius,
    _empirical_characteristic,
    _finish,
    _radial_nodes,
    _trapezoid_weights,
)
from symplectomo.twomode import TwoModeSetting, TwoModeTomogram, characteristic_two_mode, hopf_directions


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


# ---------------------------------------------------------------------------
# one mode: dense (n_phi, n_r, dim, dim) displacement table
# ---------------------------------------------------------------------------


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
# two modes: per-direction einsum loops
# ---------------------------------------------------------------------------


def two_mode_tomogram_loop(tomo, weights, cfg) -> np.ndarray:
    """Raw two-mode matrix of a tilde tomogram with direction ``weights``, one einsum per radius."""
    z1 = cfg.scale.z
    r0 = float(np.mean([s.radius for s in tomo.settings]))
    dirs = np.array([s.row1 / r0 for s in tomo.settings])
    deltas = np.array([s.delta[0] for s in tomo.settings])
    R, wR = _radial_nodes(cfg.resolve_r_max(), cfg.n_r)
    tw = _trapezoid_weights(tomo.x1)
    phase = np.exp(-1j * np.outer(tomo.x1, z1 * R / r0))
    chi = (tomo.values * tw[None, :]) @ phase
    chi = chi * np.exp(1j * np.outer(deltas, z1 * R / r0))
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
    R, wR = _radial_nodes(cfg.resolve_r_max(), cfg.n_r)
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
    R, wR = _radial_nodes(cfg.resolve_r_max(), cfg.n_r)
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


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_tomogram_lines(tomo: Tomogram, path) -> None:
    lines = ["mu,nu,delta,x,w"]
    for s, row in zip(tomo.settings, tomo.values):
        head = ",".join(format_float(v) for v in (s.mu, s.nu, s.delta))
        for x, w in zip(tomo.x, row):
            lines.append(f"{head},{format_float(x)},{format_float(w)}")
    _write_lines(path, lines)


def load_tomogram_lines(path) -> Tomogram:
    settings: list[QuadratureSetting] = []
    rows: list[list[float]] = []
    xs: list[float] = []
    current = None
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "mu,nu,delta,x,w":
            raise InvalidParameter(f"not a tomogram file: header {header!r}")
        for line in fh:
            mu, nu, delta, x, w = (float(t) for t in line.split(","))
            key = (mu, nu, delta)
            if key != current:
                settings.append(QuadratureSetting(mu, nu, delta))
                rows.append([])
                current = key
            rows[-1].append(w)
            if len(settings) == 1:
                xs.append(x)
    return Tomogram(tuple(settings), np.asarray(xs), np.asarray(rows))


def _two_mode_setting_head(s: TwoModeSetting) -> tuple:
    mup = s.mu_p if s.mu_p is not None else np.zeros(2)
    nup = s.nu_p if s.nu_p is not None else np.zeros(2)
    return (s.mu[0], s.mu[1], s.nu[0], s.nu[1], mup[0], mup[1], nup[0], nup[1])


def save_two_mode_tomogram_lines(tomo: TwoModeTomogram, path) -> None:
    vector = tomo.kind == "vector"
    header = "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,x1" + (",x2" if vector else "") + ",w"
    lines = [header]
    for idx, s in enumerate(tomo.settings):
        head = ",".join(format_float(v) for v in _two_mode_setting_head(s))
        if vector:
            for i, x1 in enumerate(tomo.x1):
                for j, x2 in enumerate(tomo.x2):
                    lines.append(
                        f"{head},{format_float(x1)},{format_float(x2)},{format_float(tomo.values[idx, i, j])}"
                    )
        else:
            for x1, w in zip(tomo.x1, tomo.values[idx]):
                lines.append(f"{head},{format_float(x1)},{format_float(w)}")
    _write_lines(path, lines)


def load_two_mode_tomogram_lines(path) -> TwoModeTomogram:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:9] != ["mu1", "mu2", "nu1", "nu2", "mup1", "mup2", "nup1", "nup2", "x1"]:
            raise InvalidParameter("not a two-mode tomogram file")
        vector = "x2" in header
        settings: list[TwoModeSetting] = []
        data: list[list[float]] = []
        x1s: list[float] = []
        x2s: list[float] = []
        current = None
        for line in fh:
            vals = [float(t) for t in line.split(",")]
            key = tuple(vals[:8])
            if key != current:
                mu = np.array(vals[0:2])
                nu = np.array(vals[2:4])
                mup = np.array(vals[4:6])
                nup = np.array(vals[6:8])
                if np.any(mup != 0) or np.any(nup != 0):
                    settings.append(TwoModeSetting(mu=mu, nu=nu, mu_p=mup, nu_p=nup))
                else:
                    settings.append(TwoModeSetting(mu=mu, nu=nu))
                data.append([])
                current = key
            data[-1].append(vals[-1])
            if len(settings) == 1:
                x1s.append(vals[8])
                if vector:
                    x2s.append(vals[9])
    if vector:
        x1 = np.asarray(sorted(set(x1s)))
        x2 = np.asarray(sorted(set(x2s)))
        values = np.asarray(data).reshape(len(settings), x1.size, x2.size)
        return TwoModeTomogram(tuple(settings), x1, values, x2=x2)
    return TwoModeTomogram(tuple(settings), np.asarray(x1s), np.asarray(data))


def save_samples_lines(batches: list[SampleBatch], path, state_label: str = "") -> None:
    first = batches[0].setting
    two_mode = isinstance(first, TwoModeSetting)
    if two_mode:
        lines = ["mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,delta1,x1"]
        for b in batches:
            head = ",".join(format_float(v) for v in _two_mode_setting_head(b.setting))
            d1 = b.setting.delta[0]
            for x in b.outcomes:
                lines.append(f"{head},{format_float(d1)},{format_float(x)}")
    else:
        lines = ["mu,nu,delta,x"]
        for b in batches:
            head = ",".join(format_float(v) for v in (b.setting.mu, b.setting.nu, b.setting.delta))
            for x in b.outcomes:
                lines.append(f"{head},{format_float(x)}")
    _write_lines(path, lines)
    sidecar = {
        "generator": batches[0].generator,
        "seed": batches[0].seed,
        "state": state_label,
        "weights": [b.weight for b in batches],
        "n_per_batch": [int(b.outcomes.size) for b in batches],
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)


def load_samples_lines(path) -> list[SampleBatch]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        two_mode = header.startswith("mu1,")
        groups: dict[tuple, list[float]] = {}
        order: list[tuple] = []
        for line in fh:
            vals = [float(t) for t in line.split(",")]
            key = tuple(vals[:-1])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(vals[-1])
    try:
        with open(str(path) + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        seed = int(meta.get("seed", 0))
        weights = meta.get("weights", [1.0] * len(order))
    except FileNotFoundError:
        seed, weights = 0, [1.0] * len(order)
    batches = []
    for key, weight in zip(order, weights):
        if two_mode:
            mu = np.array(key[0:2])
            nu = np.array(key[2:4])
            mup = np.array(key[4:6])
            nup = np.array(key[6:8])
            delta = np.array([key[8], 0.0])
            if np.any(mup != 0) or np.any(nup != 0):
                setting = TwoModeSetting(mu=mu, nu=nu, mu_p=mup, nu_p=nup, delta=delta)
            else:
                setting = TwoModeSetting(mu=mu, nu=nu, delta=delta)
        else:
            setting = QuadratureSetting(*key)
        batches.append(SampleBatch(setting=setting, outcomes=np.asarray(groups[key]), seed=seed, weight=weight))
    return batches
