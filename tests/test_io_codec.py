"""The CSV codec against the line-by-line oracles, campaign round trips and
malformed files."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import symplectomo.io as tio
from symplectomo import cli
from symplectomo import states as st
from symplectomo.errors import EmptyBatches, InvalidParameter
from symplectomo.marginals import QuadratureSetting, Tomogram, circle_settings, tabulate_tomogram
from symplectomo.measure_sim import SampleBatch, importance_schedule, sample_campaign
from symplectomo.reconstruct import ReconstructionConfig, reconstruct_from_tomogram
from symplectomo.twomode import TwoModeSetting, TwoModeTomogram, tabulate_tilde_tomogram

from oracles import (
    load_samples_lines,
    load_samples_whole,
    load_tomogram_lines,
    load_two_mode_tomogram_lines,
    save_samples_lines,
    save_samples_long_lines,
    save_tomogram_lines,
    save_tomogram_long_lines,
    read_tomogram_loadtxt,
    row_text_whole,
    save_two_mode_tomogram_lines,
    write_body_per_row,
)


def _one_mode_tomogram():
    angles = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    settings = [QuadratureSetting(np.cos(a), np.sin(a), 0.25 * k) for k, a in enumerate(angles)]
    return tabulate_tomogram(st.EvenCat(1.0, 0.5), settings, x_grid=np.linspace(-8, 8, 161))


def _tilde_tomogram():
    return tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), n_t=3, n_psi=4, num=101)


def _vector_tomogram(x2=np.linspace(-3, 3, 7)):
    settings = (
        TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], mu_p=[0.0, 1.0], nu_p=[0.0, 0.0]),
        TwoModeSetting(mu=[0.0, 0.0], nu=[1.0, 0.0], mu_p=[0.0, 0.0], nu_p=[0.0, 1.0]),
    )
    values = np.abs(np.random.default_rng(0).normal(size=(2, 5, x2.size)))
    return TwoModeTomogram(settings, np.linspace(-2, 2, 5), values, x2=x2)


def _one_mode_campaign():
    return sample_campaign(st.Vacuum(), importance_schedule(5, seed=2), 40, seed=7)


def _two_mode_campaign():
    settings = [
        TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 1.0], delta=[0.3, 0.0]),
        TwoModeSetting(mu=[0.6, 0.8], nu=[-0.8, 0.6]),
    ]
    return sample_campaign(st.GaussianTwoMode(np.eye(4) * 0.5), [(s, 0.5) for s in settings], 30, seed=4)


def _setting_key(s):
    if isinstance(s, TwoModeSetting):
        return (tuple(s.mu), tuple(s.nu), s.is_vector and (tuple(s.mu_p), tuple(s.nu_p)), tuple(s.delta))
    return (s.mu, s.nu, s.delta)


def _assert_same_tomogram(a, b):
    assert type(a) is type(b)
    assert [_setting_key(s) for s in a.settings] == [_setting_key(s) for s in b.settings]
    assert np.array_equal(a.values, b.values)
    if isinstance(a, Tomogram):
        assert np.array_equal(a.x, b.x)
    else:
        assert np.array_equal(a.x1, b.x1) and a.kind == b.kind
        assert (a.x2 is None) == (b.x2 is None) and (a.x2 is None or np.array_equal(a.x2, b.x2))


def _assert_same_campaign(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert _setting_key(x.setting) == _setting_key(y.setting)
        assert np.array_equal(x.outcomes, y.outcomes)
        assert (x.weight, x.seed) == (y.weight, y.seed)


# ---------------------------------------------------------------------------
# byte- and bit-identity with the line-by-line oracles
# ---------------------------------------------------------------------------

TOMOGRAM_CASES = {
    "one-mode": (_one_mode_tomogram, tio.save_tomogram, tio.load_tomogram, save_tomogram_lines, load_tomogram_lines),
    "tilde": (
        _tilde_tomogram,
        tio.save_two_mode_tomogram,
        tio.load_two_mode_tomogram,
        save_two_mode_tomogram_lines,
        load_two_mode_tomogram_lines,
    ),
    "vector": (
        _vector_tomogram,
        tio.save_two_mode_tomogram,
        tio.load_two_mode_tomogram,
        save_two_mode_tomogram_lines,
        load_two_mode_tomogram_lines,
    ),
}


def _file_bytes(path):
    sidecar = path.parent / (path.name + ".meta.json")
    return path.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


@pytest.mark.parametrize("case", sorted(TOMOGRAM_CASES))
def test_tomogram_codec_matches_oracle(case, tmp_path):
    make, save, load, save_oracle, load_oracle = TOMOGRAM_CASES[case]
    tomo = make()
    ours, theirs = tmp_path / "codec.csv", tmp_path / "oracle.csv"
    save(tomo, ours)
    save_oracle(tomo, theirs)
    assert _file_bytes(ours) == _file_bytes(theirs)
    _assert_same_tomogram(load(theirs), load_oracle(theirs))
    _assert_same_tomogram(load(theirs), tomo)


# ---------------------------------------------------------------------------
# each distinct tomogram row is formatted once, each sample row as it comes,
# and the bytes are those of the writer that formats every row
# ---------------------------------------------------------------------------

_HOPF_CAT = st.TwoModeCat(np.array([1.0, 0.5]) / np.sqrt(2))
_HOPF_GAUSS = st.GaussianTwoMode(np.diag([0.6, 0.7, 0.6, 0.7]))


def _repeating_rows_tomogram():
    """Row 1 differs from row 0 only by the sign of a zero, row 2 is row 1
    reversed, row 3 is its own mirror and row 4 repeats row 0."""
    rows = [
        [0.0, 0.5, 1.0, 0.25, 0.0],
        [-0.0, 0.5, 1.0, 0.25, 0.0],
        [0.0, 0.25, 1.0, 0.5, -0.0],
        [0.25, 0.5, 0.75, 0.5, 0.25],
        [0.0, 0.5, 1.0, 0.25, 0.0],
    ]
    return Tomogram(tuple(circle_settings(5)), np.linspace(-1.0, 1.0, 5), np.array(rows))


def _repeating_vector_tomogram():
    """A vector tomogram whose second row is its first mirrored in both
    outcomes, and whose third repeats the first."""
    tomo = _vector_tomogram()
    values = np.stack([tomo.values[0], tomo.values[0, ::-1, ::-1], tomo.values[0]])
    return TwoModeTomogram(tomo.settings + tomo.settings[:1], tomo.x1, values, x2=tomo.x2)


def _ragged_campaign():
    """Batches of 1 to 9 outcomes: repeats, reversed repeats, a self-mirror and a signed zero."""
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=9), rng.normal(size=4)
    outcomes = [a, b, a[::-1], [0.5], b, [1.0, 2.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], a]
    settings = circle_settings(len(outcomes))
    return [SampleBatch(s, x, seed=3, weight=0.5 + k) for k, (s, x) in enumerate(zip(settings, outcomes))]


def _circle_tomogram(state, n, x_grid=None):
    return lambda: tabulate_tomogram(state, circle_settings(n), x_grid=x_grid)


_CAT, _COHERENT = st.EvenCat(1.0, 0.8), st.Coherent(0.9 - 0.4j)
_LINSPACE = np.linspace(-9.0, 9.0, 1201)  # not exactly mirror symmetric: no antipodal copies

WRITER_CASES = {
    "thermal circle:64": (_circle_tomogram(st.Thermal(0.4), 64), tio.save_tomogram),
    "number circle:64": (_circle_tomogram(st.NumberState(2), 64), tio.save_tomogram),
    "cat circle:64": (_circle_tomogram(_CAT, 64), tio.save_tomogram),
    "cat circle:63": (_circle_tomogram(_CAT, 63), tio.save_tomogram),
    "cat linspace": (_circle_tomogram(_CAT, 64, _LINSPACE), tio.save_tomogram),
    "coherent circle:64": (_circle_tomogram(_COHERENT, 64), tio.save_tomogram),
    "coherent circle:63": (_circle_tomogram(_COHERENT, 63), tio.save_tomogram),
    "coherent linspace": (_circle_tomogram(_COHERENT, 64, _LINSPACE), tio.save_tomogram),
    "hopf 12x12 cat": (lambda: tabulate_tilde_tomogram(_HOPF_CAT, num=301), tio.save_two_mode_tomogram),
    "hopf 12x12 gauss": (lambda: tabulate_tilde_tomogram(_HOPF_GAUSS, num=301), tio.save_two_mode_tomogram),
    "vector": (_repeating_vector_tomogram, tio.save_two_mode_tomogram),
    "ragged samples": (_ragged_campaign, tio.save_samples),
    "signed zeros and self-mirrors": (_repeating_rows_tomogram, tio.save_tomogram),
}


def _rows(obj):
    if isinstance(obj, list):
        return [b.outcomes for b in obj]
    return list(obj.values.reshape(len(obj.settings), -1))


def _distinct_rows(rows) -> int:
    """Rows up to a repeat or a reversed repeat, compared as bytes."""
    seen, count = set(), 0
    for row in rows:
        if row.tobytes() not in seen:
            count += 1
            seen.update((row.tobytes(), row[::-1].tobytes()))
    return count


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_writer_bytes_equal_the_per_row_writer(case, tmp_path, monkeypatch):
    make, save = WRITER_CASES[case]
    obj = make()
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    save(obj, ours)
    monkeypatch.setattr(tio, "_write_body", write_body_per_row)
    save(obj, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("case", [case for case, (_, save) in WRITER_CASES.items() if save is not tio.save_samples])
def test_writer_formats_each_distinct_row_once(case, tmp_path, count_calls):
    make, save = WRITER_CASES[case]
    obj = make()
    calls = count_calls(tio, "_row_pieces")
    save(obj, tmp_path / "t.csv")
    assert len(calls) == _distinct_rows(_rows(obj))


@pytest.mark.parametrize(
    "make", [_ragged_campaign, _one_mode_campaign, _two_mode_campaign], ids=["ragged", "one-mode", "two-mode"]
)
def test_save_samples_formats_every_row_without_a_reuse_pass(make, tmp_path, monkeypatch, count_calls):
    # sample rows are independent draws: repeats, as in the ragged campaign, are formatted again
    def refuse(rows):
        raise AssertionError("a sample file takes no row-reuse pass")

    monkeypatch.setattr(tio, "_repeats", refuse)
    batches = make()
    calls = count_calls(tio, "_row_pieces")
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    tio.save_samples(batches, ours, state_label="s")
    assert len(calls) == len(batches)
    save_samples_lines(batches, theirs, state_label="s")
    assert _file_bytes(ours) == _file_bytes(theirs)


_PIECE = tio._ROW_PIECE


@pytest.mark.parametrize("size", [1, 2, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE, 10**5])
def test_row_pieces_join_to_the_whole_row_text(size):
    rng = np.random.default_rng(size)
    row = rng.normal(size=size) * 10.0 ** rng.integers(-300, 301, size)
    row[::7], row[3::7] = -0.0, 5e-324
    pieces = list(tio._row_pieces(row))
    assert len(pieces) == -(-size // _PIECE)
    assert "".join(pieces) == row_text_whole(row)


def test_sample_file_with_long_rows_equals_the_line_writer(tmp_path):
    rng = np.random.default_rng(6)
    sizes = (1, _PIECE, _PIECE + 1, 10**5)
    batches = [SampleBatch(QuadratureSetting(0.6, -0.8, 0.25), rng.normal(size=n), seed=3, weight=0.5) for n in sizes]
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    tio.save_samples(batches, ours, state_label="s")
    save_samples_lines(batches, theirs, state_label="s")
    assert _file_bytes(ours) == _file_bytes(theirs)


def test_save_samples_formats_a_long_row_in_pieces(tmp_path, traced_peak):
    # 10^5 outcomes (0.8 MB): formatted in one call, the row's floats, tuple and text held 5.8 MB
    batch = SampleBatch(QuadratureSetting(0.6, 0.8), np.random.default_rng(7).normal(size=10**5), seed=3)
    assert traced_peak(tio.save_samples, [batch], tmp_path / "s.csv") <= 2 * 2**20


def test_distinct_rows_of_symmetric_records():
    # a phase-invariant state has one row; an even circle's antipodes are reversed rows
    assert _distinct_rows(_rows(WRITER_CASES["thermal circle:64"][0]())) == 1
    assert _distinct_rows(_rows(WRITER_CASES["cat circle:64"][0]())) <= 32
    assert _distinct_rows(_rows(_repeating_rows_tomogram())) == 3


def test_writer_holds_only_the_texts_still_to_be_copied(tmp_path, traced_peak):
    # Hopf 12x12: 1728 rows of 1201 points (27 kB of text each); a text is
    # held from its row to the row's last copy, at most 72 of them
    hopf = tabulate_tilde_tomogram(_HOPF_CAT)
    assert traced_peak(tio.save_two_mode_tomogram, hopf, tmp_path / "hopf.csv") <= 4 * 2**20
    circle = tabulate_tomogram(st.EvenCat(1.0, 0.8), circle_settings(64))
    assert traced_peak(tio.save_tomogram, circle, tmp_path / "circle.csv") <= 1.5 * 2**20
    # each antipode right after its row: one text is held at a time
    order = [k for pair in zip(range(32), range(32, 64)) for k in pair]
    paired = Tomogram(tuple(circle.settings[k] for k in order), circle.x, circle.values[order])
    assert traced_peak(tio.save_tomogram, paired, tmp_path / "paired.csv") <= 0.25 * 2**20


# ---------------------------------------------------------------------------
# random tomograms round-trip bit for bit, signed zeros and subnormals included
# ---------------------------------------------------------------------------

_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308]


def _reals(limit=1.7976931348623157e308):
    """Finite floats within ``limit``, with the codec's edge cases drawn often."""
    edges = [v for e in _EDGES for v in (e, -e) if abs(v) <= limit]
    return hs.one_of(hs.sampled_from(edges), hs.floats(-limit, limit))


def _nonzero(limit):
    """Floats of magnitude 1e-150 to ``limit``: their squares are positive (and finite for ``limit`` <= 1e150)."""
    return hs.one_of(hs.sampled_from([1e-150, -1.0, limit]), hs.floats(1e-150, limit), hs.floats(-limit, -1e-150))


_DENSITIES = hs.one_of(hs.sampled_from(_EDGES), hs.floats(min_value=0.0, allow_infinity=False))


@hs.composite
def _grids(draw):
    """A uniform ascending grid: integer multiples of a spacing from 5e-324 to 1e300."""
    spacing = draw(hs.one_of(hs.sampled_from([5e-324, 1e-300, 1e300]), hs.floats(1e-300, 1e300)))
    return spacing * (draw(hs.integers(-20, 20)) + np.arange(draw(hs.integers(2, 6))))


def _values(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(hs.lists(_DENSITIES, min_size=size, max_size=size))).reshape(shape)


@hs.composite
def _one_mode_tomograms(draw):
    def setting():
        return QuadratureSetting(draw(_reals()), draw(_nonzero(1e300)), draw(_reals()))

    grid, n = draw(_grids()), draw(hs.integers(1, 4))
    return Tomogram(tuple(setting() for _ in range(n)), grid, _values(draw, (n, grid.size)))


@hs.composite
def _two_mode_tomograms(draw, vector: bool):
    def setting():
        # components under 1e150 keep the settings' squared norms finite
        a, b, c, d = draw(_nonzero(1e150)), draw(_reals(1e150)), draw(_nonzero(1e150)), draw(_reals(1e150))
        if vector:  # mode 1 then mode 2: the rows commute exactly
            return TwoModeSetting(mu=[a, 0.0], nu=[b, 0.0], mu_p=[0.0, c], nu_p=[0.0, d])
        return TwoModeSetting(mu=[a, c], nu=[b, d])

    grids, n = [draw(_grids()) for _ in range(1 + vector)], draw(hs.integers(1, 4))
    values = _values(draw, (n, *(g.size for g in grids)))
    return TwoModeTomogram(tuple(setting() for _ in range(n)), grids[0], values, x2=grids[1] if vector else None)


def _bits(tomo):
    """Every float of a tomogram, as bytes: -0.0 and 0.0 differ."""
    if isinstance(tomo, Tomogram):
        keys, grids = [(s.mu, s.nu, s.delta) for s in tomo.settings], [tomo.x]
    else:
        keys = [np.concatenate([s.row1, s.row2 if s.is_vector else []]) for s in tomo.settings]
        grids = [tomo.x1] + ([tomo.x2] if tomo.x2 is not None else [])
    return [np.array(a, dtype=float).tobytes() for a in (*keys, *grids, tomo.values)]


ROUND_TRIPS = {
    "one-mode": (_one_mode_tomograms(), tio.save_tomogram, tio.load_tomogram),
    "tilde": (_two_mode_tomograms(vector=False), tio.save_two_mode_tomogram, tio.load_two_mode_tomogram),
    "vector": (_two_mode_tomograms(vector=True), tio.save_two_mode_tomogram, tio.load_two_mode_tomogram),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
@settings(max_examples=40, deadline=None)
@given(data=hs.data())
def test_random_tomogram_round_trips_bit_exactly(case, data, tmp_path_factory):
    tomos, save, load = ROUND_TRIPS[case]
    tomo = data.draw(tomos)
    path = tmp_path_factory.mktemp("round-trip") / "t.csv"
    save(tomo, path)
    back = load(path)
    assert type(back) is type(tomo) and _bits(back) == _bits(tomo)


def _key_bits(s):
    """A setting's key cells, as bytes: -0.0 and 0.0 differ."""
    if isinstance(s, TwoModeSetting):
        return np.concatenate([s.row1, s.row2 if s.is_vector else [], s.delta]).tobytes()
    return np.array([s.mu, s.nu, s.delta]).tobytes()


def _campaign_bits(batches):
    return [(_key_bits(b.setting), b.outcomes.tobytes(), np.float64(b.weight).tobytes(), b.seed) for b in batches]


@hs.composite
def _campaigns(draw, two_mode: bool):
    """1 to 6 batches of 1 to 50 outcomes over a pool of 1 to 3 settings, so settings repeat."""

    def setting():
        if not two_mode:
            return QuadratureSetting(draw(_reals()), draw(_nonzero(1e300)), draw(_reals()))
        a, b, c, d = draw(_nonzero(1e150)), draw(_reals(1e150)), draw(_nonzero(1e150)), draw(_reals(1e150))
        delta = [draw(_reals()), 0.0]
        if draw(hs.booleans()):  # a vector setting, mode 1 then mode 2
            return TwoModeSetting(mu=[a, 0.0], nu=[b, 0.0], mu_p=[0.0, c], nu_p=[0.0, d], delta=delta)
        return TwoModeSetting(mu=[a, c], nu=[b, d], delta=delta)

    pool = [setting() for _ in range(draw(hs.integers(1, 3)))]
    seed = draw(hs.integers(0, 2**64))
    weights = hs.one_of(hs.sampled_from([5e-324, 1.0, _EDGES[-1]]), hs.floats(min_value=5e-324, allow_infinity=False))
    return [
        SampleBatch(draw(hs.sampled_from(pool)), draw(hs.lists(_reals(), min_size=1, max_size=50)), seed, draw(weights))
        for _ in range(draw(hs.integers(1, 6)))
    ]


@pytest.mark.parametrize("two_mode", [False, True], ids=["one-mode", "two-mode"])
@settings(max_examples=40, deadline=None)
@given(data=hs.data())
def test_random_campaign_round_trips_bit_exactly(two_mode, data, tmp_path_factory):
    batches = data.draw(_campaigns(two_mode))
    path = tmp_path_factory.mktemp("campaign") / "s.csv"
    tio.save_samples(batches, path)
    assert _campaign_bits(tio.load_samples(path)) == _campaign_bits(batches)


@hs.composite
def _sample_files(draw):
    """A campaign of 1 to 300 lines over a pool of drawn settings: most lines
    hold 1 to 40 outcomes and one holds 1 to 5000, of magnitudes 1e-20 to 1e20."""
    two_mode = draw(hs.booleans())
    pool = draw(_campaigns(two_mode))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 41, draw(hs.integers(1, 300)))
    sizes[draw(hs.integers(0, sizes.size - 1))] = draw(hs.integers(1, 5000))
    return [
        SampleBatch(
            pool[k % len(pool)].setting,
            rng.normal(size=n) * 10.0 ** rng.integers(-20, 21, n),
            pool[0].seed,
            rng.uniform(0.1, 10.0),
        )
        for k, n in enumerate(sizes)
    ]


@settings(max_examples=30, deadline=None)
@given(batches=_sample_files(), sidecar=hs.booleans(), data=hs.data())
def test_streamed_samples_equal_the_whole_body_reader(batches, sidecar, data, tmp_path_factory):
    # blocks from 1 character (each line its own block) up to the library's;
    # below the longest line, that line is longer than a block
    path = tmp_path_factory.mktemp("samples") / "s.csv"
    tio.save_samples(batches, path)
    if not sidecar:
        (path.parent / "s.csv.meta.json").unlink()
    longest = max(map(len, path.read_text().splitlines()[1:]))
    block = data.draw(hs.one_of(hs.integers(1, longest - 1), hs.just(tio._READ_BLOCK)))
    want = _campaign_bits(load_samples_whole(path))
    with mock.patch.object(tio, "_READ_BLOCK", block):
        assert _campaign_bits(tio.load_samples(path)) == want
    if sidecar:
        assert want == _campaign_bits(batches)


@pytest.mark.parametrize("n_settings", [8, 2000], ids=["8 phases", "2000 settings"])
def test_load_samples_holds_one_block_beyond_its_batches(n_settings, tmp_path, traced_peak):
    # 2e5 outcomes (1.6 MB) in a 4 MB file: the whole-body reader held the
    # text, its lines, their join and the values at once, 6 times the outcomes
    rng = np.random.default_rng(8)
    angles = np.pi * np.arange(n_settings) / n_settings
    per = 200000 // n_settings
    batches = [SampleBatch(QuadratureSetting(np.cos(a), np.sin(a)), rng.normal(size=per), 3) for a in angles]
    path = tmp_path / "s.csv"
    tio.save_samples(batches, path)
    assert traced_peak(tio.load_samples, path) <= 2.5 * 200000 * 8


@pytest.mark.parametrize("make", [_one_mode_campaign, _two_mode_campaign], ids=["one-mode", "two-mode"])
def test_samples_codec_matches_oracle(make, tmp_path):
    batches = make()
    ours, theirs = tmp_path / "codec.csv", tmp_path / "oracle.csv"
    tio.save_samples(batches, ours, state_label="s")
    save_samples_lines(batches, theirs, state_label="s")
    assert _file_bytes(ours) == _file_bytes(theirs)
    _assert_same_campaign(tio.load_samples(theirs), load_samples_lines(theirs))
    _assert_same_campaign(tio.load_samples(theirs), batches)


# ---------------------------------------------------------------------------
# campaigns with repeated settings round-trip batch for batch
# ---------------------------------------------------------------------------


def _repeated_one_mode():
    rng = np.random.default_rng(1)
    s0, s1 = QuadratureSetting(0.6, -0.8, 0.5), QuadratureSetting(1.0, 0.0)
    return [
        SampleBatch(s0, rng.normal(size=10), seed=3, weight=0.5),
        SampleBatch(s1, rng.normal(size=10), seed=3, weight=1.0),
        SampleBatch(s0, rng.normal(size=7), seed=3, weight=2.0),
    ]


def _repeated_heterodyne():
    rng = np.random.default_rng(2)
    s = TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 1.57], delta=[0.2, 0.0])
    return [SampleBatch(s, rng.normal(size=12), seed=5, weight=0.25), SampleBatch(s, rng.normal(size=9), seed=5, weight=4.0)]


@pytest.mark.parametrize("make", [_repeated_one_mode, _repeated_heterodyne], ids=["one-mode", "heterodyne"])
def test_campaign_with_repeated_setting_round_trips(make, tmp_path):
    batches = make()
    path = tmp_path / "s.csv"
    tio.save_samples(batches, path)
    back = tio.load_samples(path)
    _assert_same_campaign(back, batches)
    assert [b.outcomes.size for b in back] == [b.outcomes.size for b in batches]


def test_samples_without_sidecar_are_one_batch_per_line(tmp_path):
    first, second, again = _repeated_one_mode()
    batches = [first, again, second]  # two lines of one setting in a row stay two batches
    path = tmp_path / "s.csv"
    tio.save_samples(batches, path)
    (tmp_path / "s.csv.meta.json").unlink()
    back = tio.load_samples(path)
    assert [b.outcomes.size for b in back] == [10, 7, 10]
    assert [b.setting for b in back] == [b.setting for b in batches]
    assert [(b.weight, b.seed) for b in back] == [(1.0, 0)] * 3


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"weights": [0.5, float("inf"), 2.0]}, "finite"),
        ({"seed": -5}, "seed must be an integer >= 0"),
        ({"weights": [0.5, 1.0]}, "2 weights for 3 batches"),
    ],
)
def test_inconsistent_sidecar_is_rejected(edit, message, tmp_path, capsys):
    path = tmp_path / "s.csv"
    tio.save_samples(_repeated_one_mode(), path)
    sidecar = tmp_path / "s.csv.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))  # json writes inf as Infinity
    with pytest.raises(InvalidParameter, match=message):
        tio.load_samples(path)
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err


def _strings(meta, key):
    return {**meta, key: [str(v) for v in meta[key]]}


SIDECARS_OF_WRONG_TYPE = {
    "samples, not an object": lambda meta: [],
    "weights strings": lambda meta: _strings(meta, "weights"),
}


@pytest.mark.parametrize("case", sorted(SIDECARS_OF_WRONG_TYPE))
def test_sidecar_of_wrong_type_is_rejected(case, tmp_path):
    path = tmp_path / "t.csv"
    tio.save_samples(_one_mode_campaign(), path)
    sidecar = tmp_path / "t.csv.meta.json"
    sidecar.write_text(json.dumps(SIDECARS_OF_WRONG_TYPE[case](json.loads(sidecar.read_text()))))
    with pytest.raises(InvalidParameter, match="meta.json"):
        tio.load_samples(path)
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", str(tmp_path / "o.json")]) == 2


def _report():
    return reconstruct_from_tomogram(tabulate_tomogram(st.Vacuum(), circle_settings(8)), ReconstructionConfig(dim=3))


WRITERS = {
    "save_tomogram": (tio.save_tomogram, _one_mode_tomogram, "Tomogram"),
    "save_two_mode_tomogram": (tio.save_two_mode_tomogram, _tilde_tomogram, "TwoModeTomogram"),
    "save_samples": (tio.save_samples, _one_mode_campaign, "list"),
    "save_density": (tio.save_density, lambda: _report().rho, "FockDensityMatrix"),
    "save_report": (tio.save_report, _report, "ReconstructionReport"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_writer_with_its_arguments_swapped_names_the_type_it_expected(writer, tmp_path):
    save, make, expected = WRITERS[writer]
    path = str(tmp_path / "out")
    with pytest.raises(InvalidParameter, match=f"must be a {expected}, got str"):
        save(path, make())
    assert list(tmp_path.iterdir()) == []


def test_save_samples_names_an_entry_that_is_not_a_batch(tmp_path):
    with pytest.raises(InvalidParameter, match="must be a SampleBatch, got tuple"):
        tio.save_samples([*_one_mode_campaign(), (QuadratureSetting(1.0, 0.0), [0.5])], tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []


def test_save_samples_rejects_an_empty_campaign(tmp_path):
    with pytest.raises(EmptyBatches):
        tio.save_samples([], tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []


def _with_empty_batch():
    return [*_repeated_one_mode(), SampleBatch(QuadratureSetting(1.0, 0.0), [], seed=3)]


UNREADABLE_CAMPAIGNS = {
    "batch without outcomes": (_with_empty_batch, EmptyBatches),
    "one-mode then two-mode": (lambda: [*_repeated_one_mode(), *_repeated_heterodyne()], InvalidParameter),
    "two-mode then one-mode": (lambda: [*_repeated_heterodyne(), *_repeated_one_mode()], InvalidParameter),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CAMPAIGNS))
def test_save_samples_refuses_what_load_cannot_read(case, tmp_path):
    make, error = UNREADABLE_CAMPAIGNS[case]
    with pytest.raises(error):
        tio.save_samples(make(), tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# each distinct tomogram row is parsed once, and the table is that of the
# reader that parses every row
# ---------------------------------------------------------------------------

TOMOGRAM_WRITER_CASES = [case for case, (_, save) in WRITER_CASES.items() if save is not tio.save_samples]


def _header(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline().strip()


def _bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _assert_reads_as_the_oracle(path):
    grids, keys, values = tio._read_tomogram(path, _header(path))
    their_grids, their_keys, their_values = read_tomogram_loadtxt(path, _header(path))
    assert len(grids) == len(their_grids) and all(map(_bit_equal, grids, their_grids))
    assert _bit_equal(keys, their_keys) and _bit_equal(values, their_values)


@pytest.mark.parametrize("case", TOMOGRAM_WRITER_CASES)
def test_reader_matches_the_loadtxt_oracle(case, tmp_path):
    make, save = WRITER_CASES[case]
    path = tmp_path / "t.csv"
    save(make(), path)
    _assert_reads_as_the_oracle(path)


@pytest.mark.parametrize("case", TOMOGRAM_WRITER_CASES)
def test_reader_parses_each_distinct_row_once(case, tmp_path, monkeypatch):
    make, save = WRITER_CASES[case]
    obj = make()
    path = tmp_path / "t.csv"
    save(obj, path)
    parse, counts = tio._parse, []

    def counting(lines):  # the number of lines each parse sees: the values' texts, then the keys
        counts.append(0)

        def tally():
            for line in lines:
                counts[-1] += 1
                yield line

        return parse(tally())

    monkeypatch.setattr(tio, "_parse", counting)
    load = tio.load_tomogram if isinstance(obj, Tomogram) else tio.load_two_mode_tomogram
    _assert_same_tomogram(load(path), obj)
    assert counts == [_distinct_rows(_rows(obj)), len(obj.settings)]


def _with_copies(n_key, picks):
    """An edit appending, per pick ``(k, reverse, negate)``, a copy of body
    line ``k``, its value cells reversed if ``reverse`` and its key cells
    negated if ``negate``."""

    def edit(lines):
        body = [line for line in lines[1:] if not _is_grid_line(line)]
        for k, reverse, negate in picks:
            cells = body[k % len(body)].split(",")
            key, values = cells[:n_key], cells[n_key:]
            if negate:
                key = [c[1:] if c.startswith("-") else "-" + c for c in key]
            lines = lines + [",".join(key + (values[::-1] if reverse else values))]
        return lines

    return edit


@pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
@settings(max_examples=40, deadline=None)
@given(data=hs.data())
def test_reader_matches_the_oracle_on_random_tomograms(case, data, tmp_path_factory):
    # the random rows seldom repeat, so copies are appended: forward or
    # reversed, under the same key or its negative
    tomos, save, _ = ROUND_TRIPS[case]
    tomo = data.draw(tomos)
    picks = data.draw(hs.lists(hs.tuples(hs.integers(0, 3), hs.booleans(), hs.booleans()), max_size=6))
    n_key = 3 if isinstance(tomo, Tomogram) else 8
    _assert_reads_as_the_oracle(_edited(tmp_path_factory.mktemp("reader"), save, tomo, _with_copies(n_key, picks)))


def _cell(line, i, edit):
    cells = line.split(",")
    cells[i] = edit(cells[i])
    return ",".join(cells)


def _next_digit(cell):
    return cell[:-1] + str((int(cell[-1]) + 1) % 10)


def _reversed_values(line, key_line=None):
    """``line``'s value cells reversed, under the key cells of ``key_line`` (default ``line``)."""
    cells = line.split(",")
    return ",".join((key_line or line).split(",")[:3] + cells[3:][::-1])


# edits of a one-mode file: line 0 is the header, line 1 the grid, line 2 the first setting
HAND_EDITS = {
    "last digit of one cell": lambda lines: lines + [_cell(lines[2], 80, _next_digit)],
    "-0 against 0": lambda lines: lines
    + [_cell(lines[2], 80, lambda c: "0"), _cell(lines[2], 80, lambda c: "-0")]
    + [_reversed_values(_cell(lines[2], 80, lambda c: "-0"), lines[3])],
    "reversed row under keys that are not antipodes": lambda lines: lines + [_reversed_values(lines[2], lines[3])],
}


@pytest.mark.parametrize("case", sorted(HAND_EDITS))
def test_reader_matches_the_oracle_on_hand_edited_files(case, tmp_path):
    _assert_reads_as_the_oracle(_edited(tmp_path, tio.save_tomogram, _one_mode_tomogram(), HAND_EDITS[case]))


# np.loadtxt, and so the oracle, drops these; the readers refuse them, as the
# sample reader does (see MALFORMED for each edit alone in every kind of file)
COMMENTED = {
    "comments and an empty line": lambda lines: lines + ["", "# a note", lines[2] + " # again", lines[3]],
    "a comment after a repeated row": lambda lines: lines + [lines[2] + "#"],
}


@pytest.mark.parametrize("case", sorted(COMMENTED))
def test_comments_and_empty_lines_are_refused(case, tmp_path):
    path = _edited(tmp_path, tio.save_tomogram, _one_mode_tomogram(), COMMENTED[case])
    with pytest.raises(InvalidParameter, match="a comment|an empty line"):
        tio.load_tomogram(path)


REPEATED_GARBAGE = {
    "value token": lambda lines: lines + [_cell(lines[2], 80, lambda c: "abc")] * 2,
    "key token of a repeat": lambda lines: lines + [_cell(lines[2], 1, lambda c: "abc")],
    "empty value cell": lambda lines: lines + [lines[2].split(",", 3)[0] + ",1,2,"],
}


@pytest.mark.parametrize("case", sorted(REPEATED_GARBAGE))
def test_a_repeated_row_with_garbage_is_refused(case, tmp_path):
    path = _edited(tmp_path, tio.save_tomogram, _one_mode_tomogram(), REPEATED_GARBAGE[case])
    for read in (tio._read_tomogram, read_tomogram_loadtxt):
        with pytest.raises(InvalidParameter):
            read(path, tio.TOMOGRAM_HEADER)


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------


def _joined(tmp_path, save, first, second):
    """One file holding the rows of two saved tomograms under the first header."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save(first, a)
    save(second, b)
    out = tmp_path / "joined.csv"
    out.write_text(a.read_text() + "".join(b.read_text().splitlines(keepends=True)[1:]))
    return out


def test_one_mode_shifted_grid_is_rejected(tmp_path):
    s0, s1 = QuadratureSetting(1.0, 0.0), QuadratureSetting(0.0, 1.0)
    first = tabulate_tomogram(st.Vacuum(), [s0], x_grid=np.linspace(-6, 6, 101))
    second = tabulate_tomogram(st.Vacuum(), [s1], x_grid=np.linspace(-5.9, 6.1, 101))
    with pytest.raises(InvalidParameter, match="outcome grid"):
        tio.load_tomogram(_joined(tmp_path, tio.save_tomogram, first, second))


def test_tilde_shifted_grid_is_rejected(tmp_path):
    s0 = TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0])
    s1 = TwoModeSetting(mu=[0.0, 1.0], nu=[0.0, 0.0])
    values = np.full((1, 11), 0.1)
    first = TwoModeTomogram((s0,), np.linspace(-5, 5, 11), values)
    second = TwoModeTomogram((s1,), np.linspace(-4.5, 5.5, 11), values)
    with pytest.raises(InvalidParameter, match="outcome grid"):
        tio.load_two_mode_tomogram(_joined(tmp_path, tio.save_two_mode_tomogram, first, second))


def test_vector_shifted_grid_is_rejected(tmp_path):
    first = _vector_tomogram()
    second = _vector_tomogram(x2=np.linspace(-2.5, 3.5, 7))
    with pytest.raises(InvalidParameter, match="outcome grid"):
        tio.load_two_mode_tomogram(_joined(tmp_path, tio.save_two_mode_tomogram, first, second))


def _load_peak_over_table(tmp_path, traced_peak, tomo):
    path = tmp_path / "t.csv"
    tio.save_tomogram(tomo, path)
    return traced_peak(tio.load_tomogram, path) / tomo.values.nbytes


def test_load_tomogram_holds_little_beyond_its_table(tmp_path, traced_peak):
    # the body is parsed from the open file: neither its text nor its lines
    # are held, and the Tomogram takes the read-only table over without a copy
    cat = tabulate_tomogram(st.EvenCat(1.0, 1.0), circle_settings(1000))
    assert _load_peak_over_table(tmp_path, traced_peak, cat) <= 1.3


def test_load_tomogram_without_repeats_holds_little_beyond_its_table(tmp_path, traced_peak):
    # every row is parsed, and only digests of the texts are held
    cat = tabulate_tomogram(st.EvenCat(1.0, 1.0), circle_settings(1000))
    noise = np.random.default_rng(3).normal(size=(1000, 1))
    tomo = Tomogram(cat.settings, cat.x, cat.values * (1 + 1e-9 * noise))
    assert _distinct_rows(_rows(tomo)) == 1000
    assert _load_peak_over_table(tmp_path, traced_peak, tomo) <= 1.3


def _edited(tmp_path, save, obj, edit):
    path = tmp_path / "t.csv"
    save(obj, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


def _is_grid_line(line):
    return line.startswith("x")


MALFORMED = {
    "grid line removed": lambda lines: lines[:1] + lines[2:],
    "short row": lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],
    "garbage token": lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",abc"],
    "column dropped everywhere": lambda lines: lines[:1]
    + [line if _is_grid_line(line) else line.rsplit(",", 1)[0] for line in lines[1:]],
    "no rows": lambda lines: lines[:1] + [line for line in lines[1:] if _is_grid_line(line)],
    "comment line": lambda lines: lines[:-1] + ["# a note", lines[-1]],
    "trailing comment": lambda lines: lines[:-1] + [lines[-1] + " # a note"],
    "empty line": lambda lines: lines[:-1] + ["", lines[-1]],
    "empty last line": lambda lines: lines + [""],
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize(
    "save,load,make",
    [
        (tio.save_tomogram, tio.load_tomogram, _one_mode_tomogram),
        (tio.save_two_mode_tomogram, tio.load_two_mode_tomogram, _tilde_tomogram),
        (tio.save_two_mode_tomogram, tio.load_two_mode_tomogram, _vector_tomogram),
    ],
    ids=["one-mode", "tilde", "vector"],
)
def test_malformed_tomogram_is_rejected(kind, save, load, make, tmp_path):
    path = _edited(tmp_path, save, make(), MALFORMED[kind])
    with pytest.raises(InvalidParameter):
        load(path)


def _last_line(edit):
    """An edit of the cells of the last line."""
    return lambda lines: lines[:-1] + [",".join(edit(lines[-1].split(",")))]


# lines of any length from four cells up are valid: a batch holds one or more outcomes
MALFORMED_SAMPLES = {
    "key cells only": _last_line(lambda cells: cells[:3]),
    "short row": _last_line(lambda cells: cells[:2]),
    "empty cell": _last_line(lambda cells: cells[:4] + [""] + cells[5:]),
    "trailing empty cell": _last_line(lambda cells: cells + [""]),
    "garbage token": _last_line(lambda cells: cells[:-1] + ["abc"]),
    "no rows": lambda lines: lines[:1],
    "comment line": lambda lines: lines[:-1] + ["# a note", lines[-1]],
    "trailing comment": _last_line(lambda cells: cells[:-1] + [cells[-1] + " # a note"]),
    "empty line": lambda lines: lines[:-1] + ["", lines[-1]],
    "empty last line": lambda lines: lines + [""],
}


def _refusal(load, path) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        load(path)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", sorted(MALFORMED_SAMPLES))
def test_malformed_samples_are_rejected(kind, tmp_path, monkeypatch):
    # refused as the whole-body reader refuses, in one block or a line per block
    path = _edited(tmp_path, tio.save_samples, _one_mode_campaign(), MALFORMED_SAMPLES[kind])
    (tmp_path / "t.csv.meta.json").unlink()
    want = _refusal(load_samples_whole, path)
    assert want[0] is InvalidParameter
    for block in (tio._READ_BLOCK, 1):
        monkeypatch.setattr(tio, "_READ_BLOCK", block)
        assert _refusal(tio.load_samples, path) == want


BLANK_CELLS = {
    "space": _last_line(lambda cells: cells[:4] + [" "] + cells[5:]),
    "tab": _last_line(lambda cells: cells[:4] + ["\t"] + cells[5:]),
    "spaces and a tab in a key cell": _last_line(lambda cells: [cells[0], " \t ", *cells[2:]]),
    "trailing space": _last_line(lambda cells: cells + [" "]),
    "first line, trailing tab": lambda lines: [lines[0], lines[1] + ",\t", *lines[2:]],
}


@pytest.mark.parametrize("kind", sorted(BLANK_CELLS))
def test_a_blank_cell_is_refused_not_read_as_minus_one(kind, tmp_path, monkeypatch):
    # np.fromstring reads a cell of spaces or tabs as -1
    path = _edited(tmp_path, tio.save_samples, _one_mode_campaign(), BLANK_CELLS[kind])
    for block in (tio._READ_BLOCK, 1):
        monkeypatch.setattr(tio, "_READ_BLOCK", block)
        with pytest.raises(InvalidParameter, match="a cell is empty or not a number"):
            tio.load_samples(path)


def test_spaces_around_a_number_are_still_read(tmp_path):
    campaign = _one_mode_campaign()
    path = _edited(tmp_path, tio.save_samples, campaign, _last_line(lambda cells: [f" {c}\t" for c in cells]))
    got = tio.load_samples(path)
    assert all(np.array_equal(g.outcomes, b.outcomes) for g, b in zip(got, campaign))


def _weights(n):
    def edit(path):
        sidecar = path.parent / (path.name + ".meta.json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "weights": [1.0] * n}))

    return edit


SAMPLE_REFUSALS = {
    "long one-mode": lambda path: save_samples_long_lines(_one_mode_campaign(), path),
    "long two-mode": lambda path: save_samples_long_lines(_two_mode_campaign(), path),
    "4 weights for 5 lines": lambda path: (tio.save_samples(_one_mode_campaign(), path), _weights(4)(path)),
    "6 weights for 5 lines": lambda path: (tio.save_samples(_one_mode_campaign(), path), _weights(6)(path)),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_REFUSALS))
def test_sample_refusals_equal_the_whole_body_reader(case, tmp_path, monkeypatch):
    path = tmp_path / "s.csv"
    SAMPLE_REFUSALS[case](path)
    want = _refusal(load_samples_whole, path)
    assert want[0] is InvalidParameter
    for block in (tio._READ_BLOCK, 1):
        monkeypatch.setattr(tio, "_READ_BLOCK", block)
        assert _refusal(tio.load_samples, path) == want


def test_cli_reconstruct_rejects_malformed_csv(tmp_path, capsys):
    garbage = _edited(tmp_path, tio.save_tomogram, _one_mode_tomogram(), MALFORMED["garbage token"])
    out = str(tmp_path / "o.json")
    assert cli.main(["reconstruct", "--input", str(garbage), "--dim", "4", "--out", out]) == 2
    s0, s1 = QuadratureSetting(1.0, 0.0), QuadratureSetting(0.0, 1.0)
    first = tabulate_tomogram(st.Vacuum(), [s0], x_grid=np.linspace(-6, 6, 101))
    second = tabulate_tomogram(st.Vacuum(), [s1], x_grid=np.linspace(-5.9, 6.1, 101))
    shifted = _joined(tmp_path, tio.save_tomogram, first, second)
    assert cli.main(["reconstruct", "--input", str(shifted), "--dim", "4", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 2


def _long_two_mode(columns):
    def write(tomo, path):
        path.write_text(f"mu1,mu2,nu1,nu2,mup1,mup2,nup1,nup2,{columns}\n1,0,0,0,0,0,0,0,0,0.5\n")

    return write


def _long_samples(make):
    return lambda tomo, path: save_samples_long_lines(make(), path)


LONG_FILES = {
    "one-mode": (save_tomogram_long_lines, tio.load_tomogram, tio.TOMOGRAM_HEADER),
    "tilde": (_long_two_mode("x1,w"), tio.load_two_mode_tomogram, tio.TILDE_HEADER),
    "vector": (_long_two_mode("x1,x2,w"), tio.load_two_mode_tomogram, tio.VECTOR_HEADER),
    "one-mode samples": (_long_samples(_one_mode_campaign), tio.load_samples, tio.SAMPLES_HEADER),
    "two-mode samples": (_long_samples(_two_mode_campaign), tio.load_samples, tio.TWO_MODE_SAMPLES_HEADER),
}


@pytest.mark.parametrize("case", sorted(LONG_FILES))
def test_long_layout_is_refused_naming_the_wide_header(case, tmp_path, capsys):
    write, load, header = LONG_FILES[case]
    path = tmp_path / "long.csv"
    write(_one_mode_tomogram(), path)
    with pytest.raises(InvalidParameter, match=re.escape(repr(header))):
        load(path)
    assert cli.main(["reconstruct", "--input", str(path), "--dim", "3", "--out", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and repr(header) in err
