"""The CSV codec against the line-by-line oracles, campaign round trips and
malformed files."""

import json

import numpy as np
import pytest

import symplectomo.io as tio
from symplectomo import cli
from symplectomo import states as st
from symplectomo.errors import EmptyBatches, InvalidParameter
from symplectomo.marginals import QuadratureSetting, Tomogram, tabulate_tomogram
from symplectomo.measure_sim import SampleBatch, importance_schedule, sample_campaign
from symplectomo.twomode import TwoModeSetting, TwoModeTomogram, tabulate_tilde_tomogram

from oracles import (
    load_samples_lines,
    load_tomogram_lines,
    load_two_mode_tomogram_lines,
    save_samples_lines,
    save_tomogram_lines,
    save_two_mode_tomogram_lines,
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
# campaigns with repeated settings round-trip batch for batch (the oracle
# merges them)
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


def test_samples_without_sidecar_split_at_setting_changes(tmp_path):
    batches = _repeated_one_mode()
    path = tmp_path / "s.csv"
    tio.save_samples(batches, path)
    (tmp_path / "s.csv.meta.json").unlink()
    back = tio.load_samples(path)
    assert [b.outcomes.size for b in back] == [10, 10, 7]
    assert [b.setting for b in back] == [b.setting for b in batches]
    assert [b.weight for b in back] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"n_per_batch": [10, 10, 6]}, "sum to"),
        ({"n_per_batch": [10, 10, 0, 7]}, "positive"),
        ({"weights": [0.5, 1.0]}, "2 weights for 3 batches"),
        ({"n_per_batch": [5, 15, 7]}, "mixes settings"),
    ],
)
def test_inconsistent_sidecar_is_rejected(edit, message, tmp_path):
    path = tmp_path / "s.csv"
    tio.save_samples(_repeated_one_mode(), path)
    sidecar = tmp_path / "s.csv.meta.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
    with pytest.raises(InvalidParameter, match=message):
        tio.load_samples(path)


def _strings(meta, key):
    return {**meta, key: [str(v) for v in meta[key]]}


SIDECARS_OF_WRONG_TYPE = {
    "samples, not an object": lambda meta: [],
    "n_per_batch strings": lambda meta: _strings(meta, "n_per_batch"),
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


def test_save_samples_rejects_an_empty_campaign(tmp_path):
    with pytest.raises(EmptyBatches):
        tio.save_samples([], tmp_path / "s.csv")
    assert list(tmp_path.iterdir()) == []


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


def _edited(tmp_path, save, obj, edit):
    path = tmp_path / "t.csv"
    save(obj, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


MALFORMED = {
    "missing row": lambda lines: lines[:5] + lines[6:],
    "short row": lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:],
    "garbage token": lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + ",abc"] + lines[6:],
    "column dropped everywhere": lambda lines: lines[:1] + [line.rsplit(",", 1)[0] for line in lines[1:]],
    "no rows": lambda lines: lines[:1],
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


@pytest.mark.parametrize("kind", ["short row", "garbage token", "column dropped everywhere", "no rows"])
def test_malformed_samples_are_rejected(kind, tmp_path):
    path = _edited(tmp_path, tio.save_samples, _one_mode_campaign(), MALFORMED[kind])
    (tmp_path / "t.csv.meta.json").unlink()
    with pytest.raises(InvalidParameter):
        tio.load_samples(path)


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
