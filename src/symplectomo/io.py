"""File formats: tomogram/sample CSVs, density-matrix JSON, run manifests.

All CSVs are UTF-8 with LF line endings and 17-significant-digit floats, so a
written file round-trips bit-exactly through ``float``.  A tomogram file holds
one line per setting over an outcome grid written once; a sample file holds
one outcome per line.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict

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


# the same round-trip format, which the writers apply to a whole line at once
_FLOAT = "%.17g"


# ---------------------------------------------------------------------------
# CSV files.  A tomogram file is wide: a header line, one grid line per
# outcome axis (the axis name, empty key cells, the grid), then one line per
# setting holding its key cells and its densities.  A sample file is long: a
# header line, then one outcome per line led by its setting's key cells.
# ---------------------------------------------------------------------------

_TWO_MODE_KEY = "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2"
TOMOGRAM_HEADER = "mu,nu,delta,w(x)"
TILDE_HEADER = _TWO_MODE_KEY + ",w(x1)"
VECTOR_HEADER = _TWO_MODE_KEY + ",w(x1,x2)"
SAMPLES_HEADER = "mu,nu,delta,x"
TWO_MODE_SAMPLES_HEADER = _TWO_MODE_KEY + ",delta1,x1"
# per tomogram header: the key cell count and the outcome axes
_AXES = {TOMOGRAM_HEADER: (3, ["x"]), TILDE_HEADER: (8, ["x1"]), VECTOR_HEADER: (8, ["x1", "x2"])}
# the long tomogram layout, one outcome per line, is not read
_LONG_HEADERS = {
    "mu,nu,delta,x,w": TOMOGRAM_HEADER,
    _TWO_MODE_KEY + ",x1,w": TILDE_HEADER,
    _TWO_MODE_KEY + ",x1,x2,w": VECTOR_HEADER,
}
HEADERS = (TOMOGRAM_HEADER, TILDE_HEADER, VECTOR_HEADER, SAMPLES_HEADER, TWO_MODE_SAMPLES_HEADER)


def _read_header(fh, path, *headers: str) -> str:
    header = fh.readline().strip()
    if header in _LONG_HEADERS:
        raise InvalidParameter(
            f"{path}: {header!r} is the long tomogram layout, which is not read: "
            f"write the tomogram again to get the header {_LONG_HEADERS[header]!r}"
        )
    if header not in headers:
        raise InvalidParameter(f"{path}: unexpected header {header!r}")
    return header


def _read_table(path, lines, n_cells: int) -> np.ndarray:
    """Parse ``lines`` with one ``np.loadtxt`` call into an ``(n_rows, n_cells)``
    table; an unparsable or ragged row, a row of another width and no rows
    raise ``InvalidParameter``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # an empty body only warns
        try:
            table = np.loadtxt(lines, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise InvalidParameter(f"{path}: {exc}") from None
    if table.shape[1] != n_cells:
        raise InvalidParameter(f"{path}: rows have {table.shape[1]} cells, expected {n_cells}")
    return table


def _write_tomogram(path, header: str, grids, keys, rows) -> None:
    """Write ``header``, a grid line per outcome axis, then per setting its key and its row of densities."""
    n_key, axes = _AXES[header]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for axis, grid in zip(axes, grids):
            fh.write(",".join([axis, *[""] * (n_key - 1), *[_FLOAT] * grid.size]) % tuple(grid.tolist()) + "\n")
        line = ",".join([_FLOAT] * (n_key + rows.shape[1])) + "\n"
        for key, row in zip(keys, rows):
            fh.write(line % (*key, *row.tolist()))


def _read_tomogram(path, *headers: str):
    """The outcome grids, the ``(n_settings, n_key)`` keys and the
    ``(n_settings, n_points)`` densities of a tomogram file."""
    with open(path, encoding="utf-8") as fh:
        n_key, axes = _AXES[_read_header(fh, path, *headers)]
        lines = [fh.readline().rstrip("\n").split(",") for _ in axes]
        body = fh.read()
    if any(cells[:n_key] != [axis] + [""] * (n_key - 1) for axis, cells in zip(axes, lines)):
        raise InvalidParameter(f"{path}: need the grid lines {axes}, each the axis, {n_key - 1} empty cells, the grid")
    try:
        grids = [np.array(cells[n_key:], dtype=float) for cells in lines]
    except ValueError as exc:
        raise InvalidParameter(f"{path}: grid line: {exc}") from None
    # a grid line among the settings is what joining two files gives
    if any(body.startswith(f"{axis},") or f"\n{axis}," in body for axis in axes):
        raise InvalidParameter(f"{path}: a second grid line among the settings: a file has one outcome grid")
    table = _read_table(path, body.splitlines(), n_key + math.prod(grid.size for grid in grids))
    return grids, table[:, :n_key], table[:, n_key:]


def _runs(keys: np.ndarray) -> np.ndarray:
    """Boundaries ``[0, ..., n]`` of the runs of consecutive equal key rows."""
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    return np.concatenate([[0], starts, [len(keys)]])


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
    keys = ((s.mu, s.nu, s.delta) for s in tomo.settings)
    _write_tomogram(path, TOMOGRAM_HEADER, (tomo.x,), keys, tomo.values)


def load_tomogram(path) -> Tomogram:
    (x,), keys, values = _read_tomogram(path, TOMOGRAM_HEADER)
    return Tomogram(tuple(QuadratureSetting(*k) for k in keys.tolist()), x, values)


def save_two_mode_tomogram(tomo: TwoModeTomogram, path) -> None:
    if any(np.any(s.delta) for s in tomo.settings):
        raise InvalidParameter("two-mode tomogram CSVs have no delta column: every setting needs delta = 0")
    vector = tomo.kind == "vector"
    grids = (tomo.x1, tomo.x2) if vector else (tomo.x1,)
    rows = tomo.values.reshape(len(tomo.settings), -1)  # vector densities run x1-major
    _write_tomogram(path, VECTOR_HEADER if vector else TILDE_HEADER, grids, map(_two_mode_key, tomo.settings), rows)


def load_two_mode_tomogram(path) -> TwoModeTomogram:
    """The header fixes the kind; a ``<path>.meta.json`` next to the file is not read."""
    grids, keys, values = _read_tomogram(path, TILDE_HEADER, VECTOR_HEADER)
    settings = tuple(_two_mode_setting(k, 0.0) for k in keys)
    values = values.reshape(len(settings), *(grid.size for grid in grids))
    return TwoModeTomogram(settings, grids[0], values, x2=grids[1] if len(grids) == 2 else None)


def save_samples(batches: list[SampleBatch], path, state_label: str = "") -> None:
    if not batches:
        raise EmptyBatches("a sample file needs at least one batch")
    if isinstance(batches[0].setting, TwoModeSetting):
        header = TWO_MODE_SAMPLES_HEADER
        keys = [_two_mode_key(b.setting) + [b.setting.delta[0]] for b in batches]
    else:
        header = SAMPLES_HEADER
        keys = [(b.setting.mu, b.setting.nu, b.setting.delta) for b in batches]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for key, b in zip(keys, batches):
            line = ",".join([_FLOAT] * len(key)) % tuple(key) + "," + _FLOAT + "\n"
            fh.write(line * b.outcomes.size % tuple(b.outcomes.tolist()))
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
    with open(path, encoding="utf-8") as fh:
        header = _read_header(fh, path, SAMPLES_HEADER, TWO_MODE_SAMPLES_HEADER)
        table = _read_table(path, fh, header.count(",") + 1)
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

