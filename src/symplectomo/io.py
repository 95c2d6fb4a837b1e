"""File formats: tomogram/sample CSVs, density-matrix JSON, run manifests.

All CSVs are UTF-8 with LF line endings and 17-significant-digit floats, so a
written file round-trips bit-exactly through ``float``.  A tomogram file holds
one line per setting over an outcome grid written once; a sample file holds
one line per batch.  Each distinct tomogram row is formatted once: a row of
equal bytes, forward or reversed, reuses its text, so a file's bytes are those
of formatting every row.  The reader mirrors this: each distinct row text is
parsed once, and a line whose text, forward or with its cells reversed, has
the digest of an earlier line's text (the first 16 bytes of its SHA-256)
copies that row, so the table is the one that parsing every line gives.
Sample rows are independent draws and never repeat, so each is formatted and
parsed as it comes, in bounded pieces: the writers format a row ``_ROW_PIECE``
values at a time, and the sample writer writes each piece as it is formatted;
the sample reader reads its body in blocks of about ``_READ_BLOCK``
characters and builds each block's batches before it reads the next.  The
writers emit no comment and no empty line, and the readers of both kinds of
file refuse them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import EmptyBatches, InvalidParameter
from .marginals import QuadratureSetting, Tomogram
from .measure_sim import SampleBatch
from .reconstruct import ReconstructionReport
from .states import FockDensityMatrix
from .twomode import TwoModeSetting, TwoModeTomogram

__all__ = [
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


# the round-trip float format, which the writers apply to a piece of a row at once
_FLOAT = "%.17g"
# values per piece of a formatted row: a piece's temporaries (its floats, its
# tuple and its text) stay near 1 MB however long the row
_ROW_PIECE = 1 << 14
# characters of body text after which the sample reader ends a block: it
# parses a block and builds its batches before it reads the next, so it holds
# at most this much text plus one line
_READ_BLOCK = 1 << 18
# a cell of spaces and tabs only, which np.fromstring reads as -1; the
# writers emit neither, so a block is searched only when it holds one
_BLANK_CELL = re.compile(r"(?:^|,)[ \t]+(?:,|$)")


# ---------------------------------------------------------------------------
# CSV files.  Both kinds hold a header line and then one line per entry: its
# key cells, then its values.  A tomogram file has one line per setting with
# its densities, after one grid line per outcome axis (the axis name, empty key
# cells, the grid).  A sample file has one line per batch with its outcomes, so
# its lines may differ in length.
# ---------------------------------------------------------------------------

_TWO_MODE_KEY = "mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2"
TOMOGRAM_HEADER = "mu,nu,delta,w(x)"
TILDE_HEADER = _TWO_MODE_KEY + ",w(x1)"
VECTOR_HEADER = _TWO_MODE_KEY + ",w(x1,x2)"
SAMPLES_HEADER = "mu,nu,delta,outcomes"
TWO_MODE_SAMPLES_HEADER = _TWO_MODE_KEY + ",delta1,outcomes"
# per tomogram header: the key cell count and the outcome axes
_AXES = {TOMOGRAM_HEADER: (3, ["x"]), TILDE_HEADER: (8, ["x1"]), VECTOR_HEADER: (8, ["x1", "x2"])}
# the earlier long layouts, one outcome per line, are not read
_LONG_HEADERS = {
    "mu,nu,delta,x,w": TOMOGRAM_HEADER,
    _TWO_MODE_KEY + ",x1,w": TILDE_HEADER,
    _TWO_MODE_KEY + ",x1,x2,w": VECTOR_HEADER,
    "mu,nu,delta,x": SAMPLES_HEADER,
    _TWO_MODE_KEY + ",delta1,x1": TWO_MODE_SAMPLES_HEADER,
}
HEADERS = (TOMOGRAM_HEADER, TILDE_HEADER, VECTOR_HEADER, SAMPLES_HEADER, TWO_MODE_SAMPLES_HEADER)


def _read_header(fh, path, *headers: str) -> str:
    header = fh.readline().strip()
    if header in _LONG_HEADERS:
        raise InvalidParameter(
            f"{path}: {header!r} is the long layout, one outcome per line, which is not read: "
            f"write the file again to get the header {_LONG_HEADERS[header]!r}"
        )
    if header not in headers:
        raise InvalidParameter(f"{path}: unexpected header {header!r}")
    return header


def _row_pieces(row):
    """The text of the cells of one row of values, yielded in pieces of at most
    ``_ROW_PIECE`` cells, each after the first led by its comma: the only place
    the writers format a row.  Joined, the pieces are the row's text."""
    for lo in range(0, row.size, _ROW_PIECE):
        part = row[lo : lo + _ROW_PIECE].tolist()
        cells = ",".join([_FLOAT] * len(part))
        yield (f",{cells}" if lo else cells) % tuple(part)


def _repeats(rows) -> tuple[list[int], list[bool]]:
    """Per row, the first row of equal bytes, read forward (``False``) or reversed (``True``).

    Each row's bytes are hashed, and every candidate of equal hash is
    confirmed byte for byte, so ``-0.0`` and ``0.0`` stay apart.  A row with
    no earlier equal is its own source.  Only hashes are kept, never bytes.
    """
    distinct: dict[int, list[int]] = {}  # hash of a source's bytes -> the sources with it

    def earlier(data: bytes):
        return next((j for j in distinct.get(hash(data), ()) if rows[j].tobytes() == data), None)

    source, flips = [], []
    for i, row in enumerate(rows):
        forward = row.tobytes()
        j, flip = earlier(forward), False
        if j is None:
            j, flip = earlier(row[::-1].tobytes()), True
        if j is None:
            distinct.setdefault(hash(forward), []).append(i)
            j, flip = i, False
        source.append(j)
        flips.append(flip)
    return source, flips


def _key_text(key) -> str:
    """The key cells of one line, each followed by its comma."""
    return (_FLOAT + ",") * len(key) % tuple(key)


def _write_body(fh, keys, rows) -> None:
    """One line per tomogram setting: its key cells, then its row of densities.

    Each distinct row is formatted once.  A row whose bytes equal an earlier
    row's, read forward or reversed, reuses that row's text, its cells in
    reverse order for a reversed match, so the bytes are those of formatting
    every row.  A text is dropped after its last copy is written, so only the
    rows still to be copied are held.
    """
    rows = list(rows)
    source, flips = _repeats(rows)
    last = {j: i for i, j in enumerate(source)}
    texts: dict[int, str] = {}
    for i, (key, j, flip) in enumerate(zip(keys, source, flips)):
        text = texts.pop(j) if j in texts else "".join(_row_pieces(rows[j]))
        if last[j] > i:
            texts[j] = text
        if flip:
            text = ",".join(text.split(",")[::-1])
        fh.write(_key_text(key) + text + "\n")


def _write_tomogram(path, header: str, grids, keys, rows) -> None:
    """Write ``header``, a grid line per outcome axis, then per setting its key and its row of densities."""
    n_key, axes = _AXES[header]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for axis, grid in zip(axes, grids):
            fh.write(",".join([axis, *[""] * (n_key - 1), *[_FLOAT] * grid.size]) % tuple(grid.tolist()) + "\n")
        _write_body(fh, keys, rows)


def _read_tomogram(path, *headers: str):
    """The outcome grids, the ``(n_settings, n_key)`` keys and the
    ``(n_settings, n_points)`` densities of a tomogram file.

    Each distinct row text is parsed once (see ``_new_texts``): the parse
    fills the leading rows of the table, and the table then grows in place
    to one row per line, each repeat a copy of its source, reversed or not.
    The table is returned read-only, so a ``Tomogram`` takes it over without
    a copy.
    """
    with open(path, encoding="utf-8") as fh:
        n_key, axes = _AXES[_read_header(fh, path, *headers)]
        lines = [fh.readline().rstrip("\n").split(",") for _ in axes]
        if any(cells[:n_key] != [axis] + [""] * (n_key - 1) for axis, cells in zip(axes, lines)):
            raise InvalidParameter(
                f"{path}: need the grid lines {axes}, each the axis, {n_key - 1} empty cells, the grid"
            )
        try:
            grids = [np.array(cells[n_key:], dtype=float) for cells in lines]
        except ValueError as exc:
            raise InvalidParameter(f"{path}: grid line: {exc}") from None
        # the body streams through _new_texts, which holds digests, never row
        # texts (see _body_error for the refusals)
        key_texts, sources = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty body only warns
            try:
                table = _parse(_new_texts(fh, n_key, key_texts, sources))
                keys = _parse(key_texts)
            except (ValueError, UserWarning) as exc:
                raise _body_error(path, axes, exc) from None
    n_values = math.prod(grid.size for grid in grids)
    if table.shape[1] != n_values:
        raise InvalidParameter(f"{path}: rows have {n_key + table.shape[1]} cells, expected {n_key + n_values}")
    if table.shape[0] < len(sources):
        # from the last line back: a source's row sits at its index, which is
        # at most the index of any line that repeats it, so it is read before
        # it is overwritten
        table.resize((len(sources), table.shape[1]), refcheck=False)
        for i in range(len(sources) - 1, -1, -1):
            j, flip = sources[i]
            if flip:
                table[i] = table[j, ::-1]
            elif j != i:
                table[i] = table[j]
    table.flags.writeable = False
    return grids, keys, table


def _parse(lines) -> np.ndarray:
    """The table of comma-separated float ``lines``, parsed as they stream in;
    a ``#`` is a cell that is not a number, not the start of a comment."""
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def _digest(text: str) -> bytes:
    """The first 16 bytes of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).digest()[:16]


def _new_texts(fh, n_key: int, key_texts: list, sources: list):
    """Yield the value text of each body line of ``fh`` that no earlier line holds.

    Per line, its key text goes to ``key_texts`` and ``(j, flip)`` to
    ``sources``: the line's values are those of the ``j``-th text yielded,
    reversed if ``flip``.  A repeat is recognised by the 16-byte digest of
    its text, forward or with its cells reversed; only digests are kept,
    never texts.  Equal texts parse to equal values, and reversed cells to
    reversed values.  The reversed digest is taken only if an earlier text
    has the length and the end cells of the reversal, which every reversed
    repeat has.  An empty line raises ``ValueError``; a comment fails the
    parse (see ``_parse``).
    """
    digests: dict[bytes, int] = {}
    ends = set()  # per yielded text: its length, first cell and last cell
    for line in fh:
        line = line.rstrip("\n")
        if not line:
            raise ValueError("an empty line: a tomogram file has none")
        *key, text = line.split(",", n_key)
        if len(key) < n_key or not text:
            raise ValueError(f"a line holds {line.count(',') + 1} cells: need {n_key} key cells, then the values")
        digest = _digest(text)
        j, flip = digests.get(digest), False
        first, last = text[: text.find(",")], text[text.rfind(",") + 1 :]
        if j is None and (len(text), last, first) in ends:
            j = digests.get(_digest(",".join(text.split(",")[::-1])))
            flip = j is not None
        if j is None:
            j = digests[digest] = len(digests)
            ends.add((len(text), first, last))
            yield text
        key_texts.append(",".join(key))
        sources.append((j, flip))


def _body_error(path, axes, exc: Exception) -> InvalidParameter:
    """The refusal of a tomogram body that does not parse: a grid line among the
    settings, which is what joining two files gives, a comment, or else ``exc``."""
    with open(path, encoding="utf-8") as fh:
        for line in itertools.islice(fh, 1 + len(axes), None):
            if any(line.startswith(f"{axis},") for axis in axes):
                return InvalidParameter(f"{path}: a second grid line among the settings: a file has one outcome grid")
            if "#" in line:
                return InvalidParameter(f"{path}: a comment: a tomogram file has none")
    return InvalidParameter(f"{path}: {exc}")


def _two_mode_key(s: TwoModeSetting) -> list:
    second = [s.mu_p, s.nu_p] if s.is_vector else [np.zeros(2)] * 2
    return np.concatenate([s.mu, s.nu, *second]).tolist()


def _two_mode_setting(key, delta1: float) -> TwoModeSetting:
    """Decode the eight setting columns; all-zero ``mup``/``nup`` mark a tilde setting."""
    mu, nu, mup, nup = np.reshape(key, (4, 2))
    second = (mup, nup) if np.any(mup) or np.any(nup) else (None, None)
    return TwoModeSetting(mu, nu, *second, delta=np.array([delta1, 0.0]))


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
    weights = meta.get("weights", [])
    if not isinstance(weights, list) or any(isinstance(w, bool) or not isinstance(w, (int, float)) for w in weights):
        raise InvalidParameter(f"{name}: weights must be a list of numbers")
    return meta


def _check_written(value, kind: type, what: str) -> None:
    """Refuse a writer's first argument unless it is a ``kind``: a path passed
    first, with the arguments swapped, fails here and not deep in the writer."""
    if not isinstance(value, kind):
        raise InvalidParameter(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def save_tomogram(tomo: Tomogram, path) -> None:
    _check_written(tomo, Tomogram, "the tomogram to save")
    keys = ((s.mu, s.nu, s.delta) for s in tomo.settings)
    _write_tomogram(path, TOMOGRAM_HEADER, (tomo.x,), keys, tomo.values)


def load_tomogram(path) -> Tomogram:
    (x,), keys, values = _read_tomogram(path, TOMOGRAM_HEADER)
    return Tomogram(tuple(QuadratureSetting(*k) for k in keys.tolist()), x, values)


def save_two_mode_tomogram(tomo: TwoModeTomogram, path) -> None:
    _check_written(tomo, TwoModeTomogram, "the two-mode tomogram to save")
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


def _sample_key(b: SampleBatch) -> list:
    if isinstance(b.setting, TwoModeSetting):
        return _two_mode_key(b.setting) + [b.setting.delta[0]]
    return [b.setting.mu, b.setting.nu, b.setting.delta]


def save_samples(batches: list[SampleBatch], path, state_label: str = "") -> None:
    _check_written(batches, list, "the batches to save")
    for b in batches:
        _check_written(b, SampleBatch, "each batch to save")
    if not batches or any(b.outcomes.size == 0 for b in batches):
        raise EmptyBatches("a sample file needs at least one batch, and each batch an outcome")
    if {type(b.setting) for b in batches} not in ({QuadratureSetting}, {TwoModeSetting}):
        raise InvalidParameter("a sample file holds batches of one kind: all QuadratureSetting or all TwoModeSetting")
    two_mode = isinstance(batches[0].setting, TwoModeSetting)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write((TWO_MODE_SAMPLES_HEADER if two_mode else SAMPLES_HEADER) + "\n")
        for b in batches:
            fh.write(_key_text(_sample_key(b)))
            fh.writelines(_row_pieces(b.outcomes))
            fh.write("\n")
    sidecar = {
        "generator": batches[0].generator,
        "seed": batches[0].seed,
        "state": state_label,
        "weights": [b.weight for b in batches],
    }
    with open(str(path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)


def _no_batch(path, n_key: int) -> str:
    return f"{path}: need one or more lines, each {n_key} key cells and one or more outcomes"


def _parse_block(block: list, path, n_key: int) -> tuple[list, list]:
    """The key cells and the outcome array of each line of ``block``, a list
    of sample-file body lines, parsed in one C-level pass.

    ``block`` is emptied once its text is split into lines, so the text is
    held once; a list of per-cell strings would cost more memory still.
    """
    lines = "".join(block).splitlines()
    block.clear()
    cells = np.array([line.count(",") + 1 for line in lines], dtype=int)
    if np.any(cells <= n_key):
        raise InvalidParameter(_no_batch(path, n_key))
    text = ",".join(lines)
    if (" " in text or "\t" in text) and _BLANK_CELL.search(text):
        raise InvalidParameter(f"{path}: a cell is empty or not a number")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # how numpy 1.x reports a bad cell
        try:
            values = np.fromstring(text, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise InvalidParameter(f"{path}: {exc}") from None
    del text
    if values.size != cells.sum():  # a trailing empty cell ends the parse without an error
        raise InvalidParameter(f"{path}: a cell is empty or not a number")
    ends = np.cumsum(cells)
    starts = ends - cells
    keys = values[starts[:, None] + np.arange(n_key)].tolist()
    return keys, [values[lo + n_key : end] for lo, end in zip(starts, ends)]


def load_samples(path) -> list[SampleBatch]:
    """One batch per line; without a sidecar each has weight 1 and seed 0.

    The sidecar is read first, then the body a block at a time: lines are
    read until their text passes ``_READ_BLOCK`` characters, and a block is
    parsed and made into its batches before the next is read.  So besides
    the batches, the reader holds one block, at most 256 KiB of text plus one
    line, and that block's values.
    """
    meta = _read_sidecar(path)
    weights = meta.get("weights")
    seed = meta.get("seed", 0)
    weight_of = iter(weights) if weights is not None else itertools.repeat(1.0)
    batches, n_lines = [], 0
    with open(path, encoding="utf-8") as fh:
        header = _read_header(fh, path, SAMPLES_HEADER, TWO_MODE_SAMPLES_HEADER)
        n_key = header.count(",")
        two_mode = header == TWO_MODE_SAMPLES_HEADER
        for block in iter(lambda: fh.readlines(_READ_BLOCK), []):
            keys, outcomes = _parse_block(block, path, n_key)
            n_lines += len(keys)
            # the weights come last, so one is drawn only for a line; once they
            # run out, lines are still parsed and counted for the refusal below
            for k, xs, w in zip(keys, outcomes, weight_of):
                setting = _two_mode_setting(k[:8], k[8]) if two_mode else QuadratureSetting(*k)
                batches.append(SampleBatch(setting, xs, seed, w))
    if not n_lines:
        raise InvalidParameter(_no_batch(path, n_key))
    if weights is not None and len(weights) != n_lines:
        raise InvalidParameter(f"{len(weights)} weights for {n_lines} batches")
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
    _check_written(rho, FockDensityMatrix, "the density matrix to save")
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
    _check_written(report, ReconstructionReport, "the report to save")
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

