"""Every ```python block and every CLI line of README.md runs as written, so an API change cannot leave it stale;
FORMATS.md names every CSV header the library writes, the radial defaults it uses and the tomogram reader's row
digest, so a layout, default or digest change cannot leave the spec stale."""

import contextlib
import hashlib
import inspect
import io
import pathlib
import re
import shlex
import time

import numpy as np
import pytest

import symplectomo as sy
from symplectomo import cli
from symplectomo import states as st
from symplectomo import io as tio

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FORMATS = README.with_name("FORMATS.md").read_text(encoding="utf-8")
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
# each `symplectomo ...` command of the ```bash blocks, continuation lines joined
CLI_LINES = [
    line
    for block in re.findall(r"^```bash\n(.*?)^```", TEXT, flags=re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("symplectomo ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert time.monotonic() - started < 3.0


def test_readme_two_mode_example_reconstructs_its_state():
    # the example's Hopf grid resolves its dims: the estimate is the truncated cat, not just a trace-one matrix
    block = next(b for b in BLOCKS if "reconstruct_two_mode" in b)
    names = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md two-mode block", "exec"), names)
    cat, rho = names["cat2"], names["rep2"].rho
    d1, d2 = rho.dims
    mode1 = [st.fock_coefficients(sy.Coherent(s * cat.A[0]), d1) for s in (1, -1)]
    mode2 = [st.fock_coefficients(sy.Coherent(s * cat.A[1]), d2) for s in (1, -1)]
    ket = np.kron(mode1[0], mode2[0]) + np.kron(mode1[1], mode2[1])
    assert sy.trace_distance(rho, cat.norm_factor_squared * np.outer(ket, ket.conj())) <= 1e-3


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    assert CLI_LINES
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        for line in CLI_LINES:
            assert cli.main(shlex.split(line)[1:]) == 0, line
    assert time.monotonic() - started < 10.0


@pytest.mark.parametrize("header", tio.HEADERS)
def test_formats_names_every_csv_header(header):
    assert header in FORMATS


REACH = f"{sy.PolarGrid().resolve_r_max(1.0):g}/|z|"
HOMODYNE_CUTOFF = inspect.signature(sy.reconstruct_homodyne).parameters["r_cutoff"].default
RADIAL_DEFAULTS = {
    "one mode": f"{REACH}:{sy.PolarGrid().n_r}",
    "two modes": f"{REACH}:{sy.TwoModeConfig().n_r}",
    "homodyne preset": f"--grid {HOMODYNE_CUTOFF:g}:{sy.PolarGrid().n_r}",
}


@pytest.mark.parametrize("case", list(RADIAL_DEFAULTS))
def test_formats_states_the_radial_defaults(case):
    assert RADIAL_DEFAULTS[case] in FORMATS


DIGEST_BYTES = len(tio._digest(""))


def test_formats_names_the_reader_digest():
    text = "0.25,0.5"
    assert tio._digest(text) == hashlib.sha256(text.encode()).digest()[:DIGEST_BYTES]
    assert f"first {DIGEST_BYTES} bytes of its SHA-256" in " ".join(FORMATS.split())
