import json

import numpy as np
import pytest

import symplectomo as sy
import symplectomo.io as tio
from symplectomo import cli
from symplectomo import states as st
from symplectomo.errors import InvalidParameter
from symplectomo.marginals import QuadratureSetting, circle_settings, tabulate_tomogram
from symplectomo.measure_sim import importance_schedule, sample_campaign, sample_marginal
from symplectomo.twomode import TwoModeSetting, hopf_directions, tabulate_tilde_tomogram


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_tomogram_roundtrip(tmp_path):
    tomo = tabulate_tomogram(st.Thermal(0.5), circle_settings(4), x_grid=np.linspace(-8, 8, 201))
    path = tmp_path / "t.csv"
    tio.save_tomogram(tomo, path)
    back = tio.load_tomogram(path)
    assert np.array_equal(back.values, tomo.values)
    assert np.array_equal(back.x, tomo.x)
    assert back.settings == tomo.settings
    header = path.read_text().splitlines()[0]
    assert header == "mu,nu,delta,x,w"


def test_two_mode_tomogram_roundtrip(tmp_path):
    state = st.GaussianTwoMode(np.eye(4) * 0.5)
    tomo = tabulate_tilde_tomogram(state, n_t=3, n_psi=4, num=101)
    path = tmp_path / "t2.csv"
    tio.save_two_mode_tomogram(tomo, path)
    back = tio.load_two_mode_tomogram(path)
    assert np.array_equal(back.values, tomo.values)
    assert back.kind == "tilde"
    assert not (tmp_path / "t2.csv.meta.json").exists()


def test_two_mode_tomogram_with_a_delta_is_not_saved(tmp_path):
    # the tilde and vector headers have no delta column: a saved file would reload with delta = 0
    dirs = hopf_directions(4, 4)[0]
    settings = [TwoModeSetting(mu=d[:2], nu=d[2:], delta=np.array([0.7, 0.0])) for d in dirs]
    tomo = tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), settings=settings, num=301)
    rho = sy.reconstruct_two_mode(tomo, sy.TwoModeConfig(dims=(3, 3))).rho.entries
    assert abs(rho[0, 0] - 1.0) < 1e-3
    path = tmp_path / "t2.csv"
    with pytest.raises(InvalidParameter, match="delta"):
        tio.save_two_mode_tomogram(tomo, path)
    assert not path.exists()


def test_samples_roundtrip(tmp_path):
    batch = sample_marginal(st.Vacuum(), QuadratureSetting(0.6, -0.8, 0.5), 50, seed=3)
    path = tmp_path / "s.csv"
    tio.save_samples([batch], path, state_label="vacuum")
    back = tio.load_samples(path)
    assert len(back) == 1
    assert np.array_equal(back[0].outcomes, batch.outcomes)
    assert back[0].setting == batch.setting
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert meta["generator"] == "numpy-PCG64"
    assert meta["seed"] == 3


def test_density_roundtrip(tmp_path):
    rho = st.density_matrix(st.EvenCat(1.0, 0.5), 12)
    path = tmp_path / "rho.json"
    tio.save_density(rho, path)
    back = tio.load_density(path)
    assert np.array_equal(back.entries, rho.entries)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 12
    assert len(payload["re"]) == 12 and len(payload["re"][0]) == 12


def test_two_mode_density_dims(tmp_path):
    rho = st.FockDensityMatrix(np.eye(6) / 6, dims=(2, 3))
    path = tmp_path / "rho2.json"
    tio.save_density(rho, path)
    back = tio.load_density(path)
    assert back.dims == (2, 3)


def test_float_format_precision():
    v = 1 / 3
    assert float(tio.format_float(v)) == v


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_tomogram_vacuum(tmp_path, capsys):
    out = tmp_path / "vac.csv"
    rc = cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:8", "--x", "-6:6:601", "--out", str(out)])
    assert rc == 0
    tomo = tio.load_tomogram(out)
    assert tomo.values.shape == (8, 601)
    assert np.max(np.abs(tomo.row_integrals() - 1.0)) < 1e-6
    manifest = json.loads((tmp_path / "vac.csv.manifest.json").read_text())
    assert manifest["command"] == "tomogram"
    assert manifest["version"] == sy.__version__
    assert "normalization" in capsys.readouterr().out


def test_cli_tomogram_cat_matches_closed_form(tmp_path):
    out = tmp_path / "cat.csv"
    rc = cli.main(["tomogram", "--state", "cat:a=1,b=1", "--settings", "0,1", "--out", str(out)])
    assert rc == 0
    tomo = tio.load_tomogram(out)
    expected = sy.marginal_analytic(st.EvenCat(1, 1), tomo.x, QuadratureSetting(0, 1))
    assert np.max(np.abs(tomo.values[0] - expected)) < 1e-12


def test_cli_parse_error_exit_code(tmp_path):
    assert cli.main(["tomogram", "--state", "cat", "--settings", "0,1", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["tomogram", "--state", "nosuch", "--settings", "0,1", "--out", str(tmp_path / "x.csv")]) == 2
    assert cli.main(["nosuchcommand"]) == 2


def _tomogram_csv(path):
    tio.save_tomogram(tabulate_tomogram(st.Vacuum(), circle_settings(8), x_grid=np.linspace(-6, 6, 101)), path)


def _tilde_csv(path):
    tio.save_two_mode_tomogram(tabulate_tilde_tomogram(st.GaussianTwoMode(np.eye(4) * 0.5), n_t=3, n_psi=4, num=101), path)


def _warped_tilde_csv(path):
    """A tilde CSV whose shared x1 column is warped by 0.02 sin(pi x1 / x1_max)."""
    _tilde_csv(path)
    header, *rows = path.read_text().splitlines()
    table = np.array([row.split(",") for row in rows], dtype=float)
    table[:, 8] += 0.02 * np.sin(np.pi * table[:, 8] / table[:, 8].max())
    path.write_text("\n".join([header, *(",".join(map(tio.format_float, row)) for row in table)]) + "\n")


def _samples_csv(path):
    tio.save_samples(sample_campaign(st.Vacuum(), importance_schedule(4, seed=1), 20, seed=2), path)


INPUT_FILES = {"tomogram": _tomogram_csv, "tilde": _tilde_csv, "warped": _warped_tilde_csv, "samples": _samples_csv}
SAMPLE = ["sample", "--state", "vacuum", "--n", "40", "--seed", "1", "--scheme"]
RECONSTRUCT = ["reconstruct", "--input"]
MALFORMED_INPUT = {
    "circle count": (["tomogram", "--state", "vacuum", "--settings", "circle:abc"], None),
    "setting value": (["tomogram", "--state", "vacuum", "--settings", "1,abc"], None),
    "hopf size": (["tomogram", "--state", "vacuum", "--settings", "hopf:a:3"], None),
    "empty hopf grid": (["tomogram", "--state", "cat2:q1=1,p1=0,q2=0,p2=1", "--settings", "hopf:0:3"], None),
    "two-mode delta": (["tomogram", "--state", "gauss2:M=diag:0.5,0.5,0.5,0.5", "--settings", "1,0,0.5"], None),
    "direct delta": (SAMPLE + ["direct:mu=1,nu=0,delta=x"], None),
    "heterodyne th1": (SAMPLE + ["heterodyne:E1=1,E2=1,phi=0,th1=x"], None),
    "heterodyne th2": (SAMPLE + ["heterodyne:E1=1,E2=1,phi=0,th2=x"], None),
    "importance z": (SAMPLE + ["importance:n=4,z=x"], None),
    "threads flag": (["--threads", "2", "tomogram", "--state", "vacuum", "--settings", "circle:4"], None),
    "density without re": (["compare", "--a", "{rho}", "--b", "{rho}"], '{"dim": 2}'),
    "density not JSON": (["compare", "--a", "{rho}", "--b", "{rho}"], "not json"),
    "density not an object": (["compare", "--a", "{rho}", "--b", "{rho}"], "[1, 2]"),
    "density entry not a number": (["compare", "--a", "{rho}", "--b", "{rho}"], '{"dim": 1, "re": [["a"]], "im": [[0]]}'),
    "grid third field": (RECONSTRUCT + ["{tomogram}", "--grid", "8:64:2"], None),
    "tilde grid third field": (RECONSTRUCT + ["{tilde}", "--grid", "1:2:4"], None),
    "tilde grid too small": (RECONSTRUCT + ["{tilde}", "--grid", "1:2"], None),
    "method flag": (RECONSTRUCT + ["{tomogram}", "--method", "homodyne", "--dim", "4"], None),
    "grid on samples": (RECONSTRUCT + ["{samples}", "--grid", "8:64", "--dim", "4"], None),
    "non-uniform x1": (RECONSTRUCT + ["{warped}", "--dim", "3"], None),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUT))
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    argv, density = MALFORMED_INPUT[case]
    rho = tmp_path / "rho.json"
    if density is not None:
        rho.write_text(density)
    files = {name: tmp_path / f"{name}.csv" for name in INPUT_FILES}
    for name, write in INPUT_FILES.items():
        if f"{{{name}}}" in argv:
            write(files[name])
    argv = [a.format(rho=rho, **files) for a in argv] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_grid_too_narrow_exit_code(tmp_path):
    rc = cli.main(
        ["tomogram", "--state", "thermal:lambda=0.3", "--settings", "1,0", "--x", "-1:1:101", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 3


def test_cli_sample_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = cli.main(
            ["sample", "--state", "vacuum", "--scheme", "direct:mu=1,nu=0", "--n", "5000", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()


def test_cli_sample_squeezer_setting(tmp_path):
    out = tmp_path / "sq.csv"
    rc = cli.main(
        ["sample", "--state", "vacuum", "--scheme", "squeezer:s=0.69,theta=0", "--n", "10", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    batch = tio.load_samples(out)[0]
    assert batch.setting.mu == pytest.approx(np.exp(-0.69))
    assert batch.setting.nu == pytest.approx(0.0, abs=1e-12)


def test_cli_reconstruct_rejects_a_one_setting_campaign(tmp_path, capsys):
    samples = tmp_path / "sq.csv"
    rc = cli.main(
        ["sample", "--state", "vacuum", "--scheme", "squeezer:s=0.3,theta=0.4", "--n", "2000", "--seed", "1", "--out", str(samples)]
    )
    assert rc == 0
    assert cli.main(["reconstruct", "--input", str(samples), "--dim", "4", "--out", str(tmp_path / "r.json")]) == 2
    assert "distinct settings" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_sample_heterodyne_two_mode(tmp_path):
    out = tmp_path / "het.csv"
    rc = cli.main(
        [
            "sample",
            "--state",
            "gauss2:M=diag:0.5,0.5,0.5,0.5",
            "--scheme",
            "heterodyne:E1=1,E2=1,phi=0,th1=0,th2=1.57",
            "--n",
            "200",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    batch = tio.load_samples(out)[0]
    assert isinstance(batch.setting, TwoModeSetting)
    assert batch.outcomes.size == 200


def test_cli_reconstruct_names_two_mode_samples_as_unsupported(tmp_path, capsys):
    samples = tmp_path / "het.csv"
    scheme = "heterodyne:E1=1,E2=1,phi=0,th1=0,th2=1.57"
    rc = cli.main(["sample", "--state", "gauss2:M=diag:0.5,0.5,0.5,0.5", "--scheme", scheme, "--n", "200", "--seed", "4", "--out", str(samples)])
    assert rc == 0
    assert cli.main(["reconstruct", "--input", str(samples), "--dim", "3", "--out", str(tmp_path / "r.json")]) == 2
    assert "two-mode sample reconstruction is not available yet" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_cli_reconstruct_tomogram_and_compare(tmp_path):
    tomo_path = tmp_path / "vac.csv"
    cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:16", "--x", "-6:6:601", "--out", str(tomo_path)])
    rho_a = tmp_path / "a.json"
    rc = cli.main(["reconstruct", "--input", str(tomo_path), "--z", "1.0", "--dim", "5", "--out", str(rho_a)])
    assert rc == 0
    rho = tio.load_density(rho_a)
    assert abs(rho.entries[0, 0] - 1.0) < 1e-3
    report = json.loads((tmp_path / "a.json.report.json").read_text())
    assert report["trace_error"] < 1e-3

    rho_b = tmp_path / "b.json"
    cli.main(["reconstruct", "--input", str(tomo_path), "--z", "0.5", "--grid", "16:64", "--dim", "5", "--out", str(rho_b)])
    rc = cli.main(["compare", "--a", str(rho_a), "--b", str(rho_b), "--out", str(tmp_path / "cmp.json")])
    assert rc == 0
    cmp_result = json.loads((tmp_path / "cmp.json").read_text())
    assert cmp_result["fidelity"] >= 0.999


def test_cli_reconstruct_homodyne_method(tmp_path):
    # homodyne is the z = 1 preset on reconstruct_homodyne's 64 radii over [0, 12]
    tomo_path = tmp_path / "t.csv"
    cli.main(["tomogram", "--state", "thermal:lambda=0.5", "--settings", "circle:16", "--out", str(tomo_path)])
    out = tmp_path / "h.json"
    rc = cli.main(["reconstruct", "--input", str(tomo_path), "--z", "1", "--grid", "12:64", "--dim", "8", "--out", str(out)])
    assert rc == 0
    rho = tio.load_density(out)
    want = sy.reconstruct_homodyne(tio.load_tomogram(tomo_path), dim=8).rho.entries
    assert np.max(np.abs(rho.entries - want)) <= 1e-13
    assert abs(rho.entries[0, 0].real - 2 / 3) < 1e-2


def test_cli_reconstructs_a_homodyne_sample_record(tmp_path):
    # four phases over [0, pi) on the unit circle: mirrored, not importance-averaged
    settings = [QuadratureSetting(np.cos(p), np.sin(p)) for p in np.pi * np.arange(4) / 4]
    samples = tmp_path / "h.csv"
    tio.save_samples(sample_campaign(st.Vacuum(), settings, 4000, seed=3), samples)
    out = tmp_path / "rho.json"
    assert cli.main(["reconstruct", "--input", str(samples), "--dim", "4", "--out", str(out)]) == 0
    assert tio.load_density(out).entries[0, 0].real >= 0.95


def test_cli_reconstruct_from_samples(tmp_path):
    samples = tmp_path / "s.csv"
    cli.main(
        ["sample", "--state", "vacuum", "--scheme", "importance:n=16", "--n", "20000", "--seed", "9", "--out", str(samples)]
    )
    out = tmp_path / "rho.json"
    rc = cli.main(["reconstruct", "--input", str(samples), "--dim", "4", "--out", str(out)])
    assert rc == 0
    rho = tio.load_density(out)
    assert rho.entries[0, 0].real > 0.9


def test_cli_reconstruct_two_mode_tomogram(tmp_path):
    tomo_path = tmp_path / "t2.csv"
    rc = cli.main(
        ["tomogram", "--state", "gauss2:M=diag:0.5,0.5,0.5,0.5", "--settings", "hopf:6:6", "--out", str(tomo_path)]
    )
    assert rc == 0
    out = tmp_path / "rho2.json"
    rc = cli.main(["reconstruct", "--input", str(tomo_path), "--dim", "3", "--out", str(out)])
    assert rc == 0
    rho = tio.load_density(out)
    assert rho.dims == (3, 3)
    assert abs(rho.entries[0, 0] - 1.0) < 5e-3


def test_cli_reconstruct_ignores_a_two_mode_sidecar(tmp_path):
    # files written with a {"kind", "direction_weights"} sidecar still load, and the sidecar is not read
    path = tmp_path / "t2.csv"
    _tilde_csv(path)
    argv = ["reconstruct", "--input", str(path), "--dim", "3", "--grid", "8:24", "--out"]
    assert cli.main(argv + [str(tmp_path / "bare.json")]) == 0
    sidecar = {"kind": "tilde", "direction_weights": hopf_directions(3, 4)[1].tolist()}
    (tmp_path / "t2.csv.meta.json").write_text(json.dumps(sidecar, indent=1))
    assert cli.main(argv + [str(tmp_path / "sidecar.json")]) == 0
    assert (tmp_path / "bare.json").read_bytes() == (tmp_path / "sidecar.json").read_bytes()


def test_cli_io_error_exit_code(tmp_path):
    assert cli.main(["reconstruct", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.json")]) == 4
    assert cli.main(["compare", "--a", str(tmp_path / "no.json"), "--b", str(tmp_path / "no.json")]) == 4


def test_cli_rerun_reproduces_outputs(tmp_path):
    # manifests aside (wall clock), rerunning a command is bit-identical
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    tomo_path = tmp_path / "t.csv"
    cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:8", "--x", "-6:6:301", "--out", str(tomo_path)])
    for out in (out1, out2):
        cli.main(["reconstruct", "--input", str(tomo_path), "--dim", "4", "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_report_embeds_density_schema(tmp_path):
    tomo_path = tmp_path / "t.csv"
    cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:8", "--x", "-6:6:301", "--out", str(tomo_path)])
    out = tmp_path / "rho.json"
    cli.main(["reconstruct", "--input", str(tomo_path), "--dim", "4", "--out", str(out)])
    report = json.loads((tmp_path / "rho.json.report.json").read_text())
    assert report["density"]["dim"] == 4
    assert len(report["density"]["re"]) == 4
    assert set(report) >= {"trace_error", "hermiticity_residual", "min_eigenvalue", "settings_used", "samples_used"}


def test_cli_tomogram_thermal_variance(tmp_path):
    out = tmp_path / "th.csv"
    rc = cli.main(["tomogram", "--state", "thermal:lambda=0.5", "--settings", "1,0", "--out", str(out)])
    assert rc == 0
    tomo = tio.load_tomogram(out)
    var = np.trapezoid(tomo.values[0] * tomo.x**2, tomo.x)
    assert abs(var - 1.0) < 1e-4


def test_cli_compare_trivial_cases(tmp_path, capsys):
    vac = tmp_path / "vac.json"
    one = tmp_path / "one.json"
    tio.save_density(st.density_matrix(st.Vacuum(), 5), vac)
    tio.save_density(st.density_matrix(st.NumberState(1), 5), one)
    assert cli.main(["compare", "--a", str(vac), "--b", str(vac)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fidelity"] == pytest.approx(1.0)
    assert cli.main(["compare", "--a", str(vac), "--b", str(one)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["fidelity"] == pytest.approx(0.0, abs=1e-12)
    assert out["trace_distance"] == pytest.approx(1.0)


def test_vector_tomogram_roundtrip(tmp_path):
    from symplectomo.twomode import TwoModeTomogram

    sigma = np.zeros((4, 4))
    sigma[0, 2] = sigma[1, 3] = 1.0
    sigma[2, 0] = sigma[3, 1] = -1.0
    s = TwoModeSetting(mu=[1.0, 0.0], nu=[0.0, 0.0], mu_p=[0.0, 1.0], nu_p=[0.0, 0.0])
    x1 = np.linspace(-2, 2, 5)
    x2 = np.linspace(-3, 3, 7)
    values = np.abs(np.random.default_rng(0).normal(size=(1, 5, 7)))
    tomo = TwoModeTomogram((s,), x1, values, x2=x2)
    path = tmp_path / "vec.csv"
    tio.save_two_mode_tomogram(tomo, path)
    back = tio.load_two_mode_tomogram(path)
    assert back.kind == "vector"
    assert np.array_equal(back.values, tomo.values)
    assert np.array_equal(back.x1, x1) and np.array_equal(back.x2, x2)
    assert back.settings[0].is_vector


def test_cli_reconstruct_nonfinite_tomogram_is_usage_error(tmp_path):
    tomo_path = tmp_path / "t.csv"
    cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:4", "--x", "-6:6:101", "--out", str(tomo_path)])
    lines = tomo_path.read_text().splitlines()
    head = lines[5].rsplit(",", 1)[0]
    lines[5] = f"{head},nan"
    tomo_path.write_text("\n".join(lines) + "\n")
    assert cli.main(["reconstruct", "--input", str(tomo_path), "--dim", "4", "--out", str(tmp_path / "o.json")]) == 2


def test_cli_reconstruct_has_no_seed(tmp_path):
    tomo_path = tmp_path / "t.csv"
    cli.main(["tomogram", "--state", "vacuum", "--settings", "circle:8", "--x", "-6:6:301", "--out", str(tomo_path)])
    out = tmp_path / "rho.json"
    base = ["reconstruct", "--input", str(tomo_path), "--dim", "4", "--out", str(out)]
    assert cli.main(base + ["--seed", "3"]) == 2
    assert cli.main(base) == 0
    manifest = json.loads((tmp_path / "rho.json.manifest.json").read_text())
    assert manifest["seed"] is None
    report = json.loads((tmp_path / "rho.json.report.json").read_text())
    assert report["density"] == json.loads(out.read_text())
