"""Seeded benchmark of symplectomo: one workload per invocation.

    python3 bench/run.py --workload exact1 --seed 1 --seconds 10 --trace 0

Run from the repository root (the library is imported from ``src/``).  The
workload runs in fresh processes through the public library API:

* ``--trace 0`` starts three processes one after another.  Each sets up
  (import, inputs and truths, one warm-up iteration); the first two stop
  there and the last then runs timed iterations for ``--seconds``.  The
  end-to-end metrics are medians over the timed iterations; ``setup_s`` is
  the median set-up time of the three.
* ``--trace 1`` starts one process that alternates untraced and traced
  iterations; the traced ones wrap the library's public functions (see
  ``tracer.py``) and give the per-layer metrics.

Every reconstruction is checked against its true density matrix.  The last
line of standard output is the result object; the line before it holds the
sample counts, percentiles, output digests and the environment.  ``--smoke``
runs the same pipelines at tiny sizes, for ``test_bench.py``.

The metric names and units come from ``BENCHMARK.json`` at the repository
root; a declared metric the run does not produce, or the reverse, is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# processes that set up in an untraced run; only the last one is timed
SETUPS = 3
# one BLAS thread: a timing then does not depend on a second core being free
BLAS_THREADS = 1
# the whole run, every process included, ends within this many seconds
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return p.parse_args(argv)


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads,
        "seed": seed,
    }


def run_processes(args, work: Path, blas_threads: int) -> list[dict]:
    budgets = [args.seconds] if args.trace else [0.0] * (SETUPS - 1) + [args.seconds]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    deadline = time.monotonic() + RUN_LIMIT_S
    outputs = []
    for index, seconds in enumerate(budgets):
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace),
            "--t0", repr(t0), "--work", str(work),
        ] + (["--smoke"] if args.smoke else [])
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=deadline - t0)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload process {index} exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"workload process {index} failed (exit {proc.returncode}):\n{proc.stderr}")
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return outputs


def timing_record(values: list[float]) -> dict:
    """Median and sample count; with n >= 20, also the highest percentile
    that has at least ten samples beyond it (nearest rank)."""
    n = len(values)
    record = {"n": n, "median": statistics.median(values)}
    if n >= 20:
        pct = 100 * (n - 10) // n
        record[f"p{pct}"] = sorted(values)[math.ceil(pct * n / 100) - 1]
    return record


def check_digests(args, outputs: list[dict], work_root: Path) -> list[str]:
    """Compare output digests: the warm-up iteration of every process, and
    every iteration against earlier runs with the same seed in this checkout."""
    flags = []
    warmups = {o["warmup"]["digest"] for o in outputs}
    if len(warmups) > 1:
        flags.append(f"warm-up iteration 0 differs between processes: {sorted(warmups)}")
    store = work_root / f"digests-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    current = {"0": outputs[0]["warmup"]["digest"]}
    for o in outputs:
        current.update({str(it["id"]): it["digest"] for it in o["iterations"]})
    for key, digest in sorted(current.items(), key=lambda kv: int(kv[0])):
        if key in known and known[key] != digest:
            flags.append(f"iteration {key} differs from an earlier run with this seed")
    store.write_text(json.dumps({**current, **known}, indent=0, sort_keys=True))
    return flags


def summarize(args, outputs: list[dict]) -> tuple[dict, dict]:
    """Return (metric values, detail record)."""
    timed = [it for o in outputs for it in o["iterations"]]
    untraced = [it for it in timed if not it["traced"]]
    checked = [o["warmup"] for o in outputs] + timed
    failures = [
        f"iteration {it['id']} {c['label']}: {c['error']}" for it in checked for c in it["cases"] if "error" in c
    ]
    # the warm-up and the first timed iteration: a fixed set of ids, so the
    # figure is deterministic for a seed
    first = [o["warmup"] for o in outputs] + [o["iterations"][0] for o in outputs if o["iterations"]]
    worst = max((c.get("trace_distance", math.inf) for it in first for c in it["cases"]), default=math.nan)
    attempted = sum(len(it["cases"]) for it in timed)
    failed = sum(1 for it in timed for c in it["cases"] if "error" in c)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "trace_distance_max": worst,
        "failures": failures,
        "timings": {k: timing_record([it[k] for it in untraced]) for k in ("pipeline_s", "acquire_s", "reconstruct_s")},
        "setup": timing_record([o["setup_s"] for o in outputs]),
        "digests": {str(it["id"]): it["digest"] for it in [outputs[0]["warmup"], *timed]},
    }
    if args.trace:
        traced = [it for it in timed if it["traced"]]
        values = {k: statistics.median(it["layers"][k] for it in traced) for k in traced[0]["layers"]}
        values["trace.overhead"] = (
            statistics.median(it["pipeline_s"] for it in traced)
            / statistics.median(it["pipeline_s"] for it in untraced)
            - 1.0
        )
        detail["places"] = outputs[0]["places"]
        detail["spans"] = outputs[0]["spans"]
        detail["traced_iterations"] = len(traced)
    else:
        values = {k: detail["timings"][k]["median"] for k in ("pipeline_s", "acquire_s", "reconstruct_s")}
        values["setup_s"] = detail["setup"]["median"]
        values["peak_rss_mb"] = max(o["peak_rss_mb"] for o in outputs)
    return values, detail


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "symplectomo" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'symplectomo'}", file=sys.stderr)
        return 2
    try:
        units = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the metric list from BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    blas_threads = BLAS_THREADS
    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outputs = run_processes(args, work, blas_threads)
        tracer_errors = [o["tracer_error"] for o in outputs if "tracer_error" in o]
        if tracer_errors:
            raise BenchError("tracer self-check failed: " + "; ".join(tracer_errors))
        values, detail = summarize(args, outputs)
        detail["digest_flags"] = check_digests(args, outputs, work_root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in work.glob("*"):
            path.unlink()
        work.rmdir()
    detail["env"] = environment(args.seed, blas_threads)

    if set(values) != set(units):
        print(
            "error: produced metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, undeclared {sorted(set(values) - set(units))}",
            file=sys.stderr,
        )
        return 1
    for flag in detail["digest_flags"]:
        print(f"DIGEST MISMATCH: {flag}", file=sys.stderr)
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>14.6g} {unit}")
    print(json.dumps(detail))
    result = {
        "correct": not detail["failures"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
