"""File formats: tomogram/sample CSVs, density-matrix JSON, run manifests.

All CSVs are UTF-8 with LF line endings and 17-significant-digit floats, so a
written file round-trips bit-exactly through ``float``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, asdict
from itertools import repeat, zip_longest

import numpy as np

from .errors import EmptyBatches, InvalidParameter
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


# ---------------------------------------------------------------------------
# CSV files: a header line, then per row a setting's key columns and one
# outcome's columns; each setting's rows are contiguous
# ---------------------------------------------------------------------------

_TWO_MODE_KEY = "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2"
TOMOGRAM_HEADER = "mu,nu,delta,x,w"
TILDE_HEADER = _TWO_MODE_KEY + ",x1,w"
VECTOR_HEADER = _TWO_MODE_KEY + ",x1,x2,w"
SAMPLES_HEADER = "mu,nu,delta,x"
TWO_MODE_SAMPLES_HEADER = _TWO_MODE_KEY + ",delta1,x1"


def _write_csv(path, header: str, blocks) -> None:
    """Write ``header``, then per ``(key, columns)`` block one row per element of
    its equal-length column arrays, led by the key.  A column that is the
    previous block's own object (a shared outcome grid) is formatted once."""
    last_columns, last_text = (), ()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for key, columns in blocks:
            text = [
                old if col is last else list(map(format_float, col.tolist()))
                for col, last, old in zip_longest(columns, last_columns, last_text)
            ]
            last_columns, last_text = columns, text
            if text[0]:
                head = ",".join(map(format_float, key))
                fh.write("\n".join(map(",".join, zip(repeat(head), *text))) + "\n")


def _read_csv(path, *headers: str) -> tuple[str, np.ndarray]:
    """Check the header line against ``headers``; parse the rows into a table."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header not in headers:
            raise InvalidParameter(f"{path}: unexpected header {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty body only warns
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except (ValueError, UserWarning) as exc:
                raise InvalidParameter(f"{path}: {exc}") from None
    if table.shape[1] != header.count(",") + 1:
        raise InvalidParameter(f"{path}: rows have {table.shape[1]} columns, the header {header.count(',') + 1}")
    return header, table


def _runs(keys: np.ndarray) -> np.ndarray:
    """Boundaries ``[0, ..., n]`` of the runs of consecutive equal key rows."""
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    return np.concatenate([[0], starts, [len(keys)]])


def _grid_table(table: np.ndarray, n_key: int, n_grid: int):
    """Per-setting keys, the shared ``(n_points, n_grid)`` outcome grid and the densities."""
    lengths = np.diff(_runs(table[:, :n_key]))
    if np.any(lengths != lengths[0]):
        raise InvalidParameter("every setting needs the same number of rows")
    blocks = table.reshape(lengths.size, lengths[0], -1)
    grids = blocks[:, :, n_key : n_key + n_grid]
    if np.any(grids != grids[0]):
        raise InvalidParameter("every setting must use the first setting's outcome grid")
    return blocks[:, 0, :n_key], grids[0].copy(), np.ascontiguousarray(blocks[:, :, -1])


def _two_mode_key(s: TwoModeSetting) -> list:
    second = [s.mu_p, s.nu_p] if s.is_vector else [np.zeros(2)] * 2
    return np.concatenate([s.mu, s.nu, *second]).tolist()


def _two_mode_setting(key, delta1: float) -> TwoModeSetting:
    """Decode the eight setting columns; all-zero ``mup``/``nup`` mark a tilde setting."""
    mu, nu, mup, nup = np.reshape(key, (4, 2))
    second = (mup, nup) if np.any(mup) or np.any(nup) else (None, None)
    return TwoModeSetting(mu, nu, *second, delta=np.array([delta1, 0.0]))


# sidecar entries the loaders read, with the JSON types they must hold
_SIDECAR_LISTS = {"n_per_batch": int, "weights": (int, float)}


def _read_json_object(name) -> dict:
    """The JSON object in file ``name``; text that is not one raises ``InvalidParameter``."""
    with open(name, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise InvalidParameter(f"{name}: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidParameter(f"{name}: expected a JSON object")
    return payload


def _read_sidecar(path) -> dict:
    """The JSON object in ``<path>.meta.json`` ({} when there is none)."""
    name = f"{path}.meta.json"
    try:
        meta = _read_json_object(name)
    except FileNotFoundError:
        return {}

    def typed(value, kind) -> bool:
        return isinstance(value, kind) and not isinstance(value, bool)

    for key, kind in _SIDECAR_LISTS.items():
        values = meta.get(key, [])
        if not (isinstance(values, list) and all(typed(v, kind) for v in values)):
            raise InvalidParameter(f"{name}: {key} must be a list of {'integers' if kind is int else 'numbers'}")
    if not typed(meta.get("seed", 0), int):
        raise InvalidParameter(f"{name}: seed must be an integer")
    return meta


def save_tomogram(tomo: Tomogram, path) -> None:
    blocks = (((s.mu, s.nu, s.delta), (tomo.x, row)) for s, row in zip(tomo.settings, tomo.values))
    _write_csv(path, TOMOGRAM_HEADER, blocks)


def load_tomogram(path) -> Tomogram:
    keys, grid, values = _grid_table(_read_csv(path, TOMOGRAM_HEADER)[1], 3, 1)
    return Tomogram(tuple(QuadratureSetting(*k) for k in keys.tolist()), grid[:, 0], values)


def save_two_mode_tomogram(tomo: TwoModeTomogram, path) -> None:
    if any(np.any(s.delta) for s in tomo.settings):
        raise InvalidParameter("two-mode tomogram CSVs have no delta column: every setting needs delta = 0")
    vector = tomo.kind == "vector"
    grid = (np.repeat(tomo.x1, tomo.x2.size), np.tile(tomo.x2, tomo.x1.size)) if vector else (tomo.x1,)
    blocks = ((_two_mode_key(s), (*grid, v.ravel())) for s, v in zip(tomo.settings, tomo.values))
    _write_csv(path, VECTOR_HEADER if vector else TILDE_HEADER, blocks)


def load_two_mode_tomogram(path) -> TwoModeTomogram:
    """The header fixes the kind; a ``<path>.meta.json`` next to the file is not read."""
    header, table = _read_csv(path, TILDE_HEADER, VECTOR_HEADER)
    keys, grid, values = _grid_table(table, 8, 2 if header == VECTOR_HEADER else 1)
    settings = tuple(_two_mode_setting(k, 0.0) for k in keys)
    if header == TILDE_HEADER:
        return TwoModeTomogram(settings, grid[:, 0], values)
    # vector rows run over x1 (outer) by x2 (inner)
    x1, x2 = np.unique(grid[:, 0]), np.unique(grid[:, 1])
    if not np.array_equal(grid, np.column_stack([np.repeat(x1, x2.size), np.tile(x2, x1.size)])):
        raise InvalidParameter("vector rows must run over the ascending x1 by x2 outcome grid")
    return TwoModeTomogram(settings, x1, values.reshape(-1, x1.size, x2.size), x2=x2)


def save_samples(batches: list[SampleBatch], path, state_label: str = "") -> None:
    if not batches:
        raise EmptyBatches("a sample file needs at least one batch")
    if isinstance(batches[0].setting, TwoModeSetting):
        header = TWO_MODE_SAMPLES_HEADER
        keys = [_two_mode_key(b.setting) + [b.setting.delta[0]] for b in batches]
    else:
        header = SAMPLES_HEADER
        keys = [(b.setting.mu, b.setting.nu, b.setting.delta) for b in batches]
    _write_csv(path, header, ((k, (b.outcomes,)) for k, b in zip(keys, batches)))
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
    """Batches are delimited by the sidecar's ``n_per_batch``; without a
    sidecar, each run of consecutive rows with one setting is a batch."""
    header, table = _read_csv(path, SAMPLES_HEADER, TWO_MODE_SAMPLES_HEADER)
    keys, outcomes = table[:, :-1], table[:, -1].copy()
    meta = _read_sidecar(path)
    if "n_per_batch" in meta:
        bounds = np.concatenate([[0], np.cumsum(meta["n_per_batch"], dtype=int)])
        if np.any(np.diff(bounds) < 1) or bounds[-1] != len(table):
            raise InvalidParameter(f"sidecar batch sizes must be positive and sum to the {len(table)} rows")
    else:
        bounds = _runs(keys)
    starts = bounds[:-1]
    if np.any(keys != np.repeat(keys[starts], np.diff(bounds), axis=0)):
        raise InvalidParameter("a sample batch mixes settings")
    weights = meta.get("weights", [1.0] * starts.size)
    if len(weights) != starts.size:
        raise InvalidParameter(f"{len(weights)} weights for {starts.size} batches")
    seed = int(meta.get("seed", 0))
    two_mode = header == TWO_MODE_SAMPLES_HEADER
    return [
        SampleBatch(_two_mode_setting(k[:8], k[8]) if two_mode else QuadratureSetting(*k), outcomes[lo:hi], seed, w)
        for k, lo, hi, w in zip(keys[starts].tolist(), starts, bounds[1:], weights)
    ]


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
    payload = _read_json_object(path)
    if not {"dim", "re", "im"} <= payload.keys():
        raise InvalidParameter(f"{path}: a density file needs dim, re and im")
    try:
        entries = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{path}: re and im must be square tables of numbers ({exc})") from None
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

