"""File formats: tomogram/sample CSVs, density-matrix JSON, run manifests.

All CSVs are UTF-8 with LF line endings and 17-significant-digit floats, so a
written file round-trips bit-exactly through ``float``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidParameter
from .marginals import QuadratureSetting, Tomogram
from .measure_sim import SampleBatch
from .states import FockDensityMatrix
from .twomode import TwoModeSetting, TwoModeTomogram

__all__ = [
    "format_float",
    "save_tomogram",
    "load_tomogram",
    "save_two_mode_tomogram",
    "load_two_mode_tomogram",
    "save_samples",
    "load_samples",
    "save_density",
    "load_density",
    "save_report",
    "RunManifest",
    "write_manifest",
]


def format_float(v: float) -> str:
    return f"{v:.17g}"


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# one-mode tomograms: header mu,nu,delta,x,w
# ---------------------------------------------------------------------------


def save_tomogram(tomo: Tomogram, path) -> None:
    lines = ["mu,nu,delta,x,w"]
    for s, row in zip(tomo.settings, tomo.values):
        head = ",".join(format_float(v) for v in (s.mu, s.nu, s.delta))
        for x, w in zip(tomo.x, row):
            lines.append(f"{head},{format_float(x)},{format_float(w)}")
    _write_lines(path, lines)


def load_tomogram(path) -> Tomogram:
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


# ---------------------------------------------------------------------------
# two-mode tomograms: mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,x1[,x2],w
# ---------------------------------------------------------------------------


def _two_mode_setting_head(s: TwoModeSetting) -> tuple:
    mup = s.mu_p if s.mu_p is not None else np.zeros(2)
    nup = s.nu_p if s.nu_p is not None else np.zeros(2)
    return (s.mu[0], s.mu[1], s.nu[0], s.nu[1], mup[0], mup[1], nup[0], nup[1])


def save_two_mode_tomogram(tomo: TwoModeTomogram, path) -> None:
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
    meta = {"kind": tomo.kind}
    if tomo.direction_weights is not None:
        meta["direction_weights"] = [float(w) for w in tomo.direction_weights]
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)


def load_two_mode_tomogram(path) -> TwoModeTomogram:
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
    weights = None
    try:
        with open(str(path) + ".meta.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if "direction_weights" in meta:
            weights = np.asarray(meta["direction_weights"], dtype=float)
    except FileNotFoundError:
        pass
    if vector:
        x1 = np.asarray(sorted(set(x1s)))
        x2 = np.asarray(sorted(set(x2s)))
        values = np.asarray(data).reshape(len(settings), x1.size, x2.size)
        return TwoModeTomogram(tuple(settings), x1, values, x2=x2, direction_weights=weights)
    return TwoModeTomogram(tuple(settings), np.asarray(x1s), np.asarray(data), direction_weights=weights)


# ---------------------------------------------------------------------------
# samples: mu,nu,delta,x (one mode) / two-mode setting columns + x1
# ---------------------------------------------------------------------------


def save_samples(batches: list[SampleBatch], path, state_label: str = "") -> None:
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


def load_samples(path) -> list[SampleBatch]:
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


# ---------------------------------------------------------------------------
# density matrices and reports
# ---------------------------------------------------------------------------


def _density_payload(rho: FockDensityMatrix) -> dict:
    payload = {
        "dim": rho.dim,
        "re": [[float(v) for v in row] for row in rho.entries.real],
        "im": [[float(v) for v in row] for row in rho.entries.imag],
    }
    if rho.dims is not None:
        payload["dims"] = [int(d) for d in rho.dims]
    return payload


def save_density(rho: FockDensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_density_payload(rho), fh)
        fh.write("\n")


def load_density(path) -> FockDensityMatrix:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    entries = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    if entries.shape != (payload["dim"], payload["dim"]):
        raise InvalidParameter("density file entries do not match its dim")
    dims = tuple(payload["dims"]) if "dims" in payload else None
    return FockDensityMatrix(entries, dims=dims)


def save_report(report, path) -> None:
    """Full reconstruction record: the density-matrix schema plus diagnostics."""
    payload = {
        "density": _density_payload(report.rho),
        "trace_error": report.trace_error,
        "hermiticity_residual": report.hermiticity_residual,
        "min_eigenvalue": report.min_eigenvalue,
        "settings_used": report.settings_used,
        "samples_used": report.samples_used,
        "projection": report.projection,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    command: str
    parameters: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None
    version: str
    generator: str
    duration_s: float


def write_manifest(manifest: RunManifest, out_path) -> str:
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(manifest), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path

