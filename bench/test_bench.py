"""Smoke test of the benchmark: the three workloads at tiny sizes.

Runs ``run.py --smoke`` in a copy of the repository (so digests and spans
stay out of the working tree) and checks that every metric declared in
``BENCHMARK.json`` is emitted with its unit, that every reconstruction passed
its check, and that the output digests repeat across processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    dest = tmp_path_factory.mktemp("checkout")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", ".*")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(checkout, workload, trace):
    proc = run(checkout, "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["failures"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert detail["digest_flags"] == []
    assert set(detail["env"]) >= {"nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads", "seed"}


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "exact1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
