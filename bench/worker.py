"""One workload process: set up, warm up, run timed iterations, print JSON.

Started by ``run.py``; not meant to be run by hand.  ``--t0`` is the
``time.monotonic()`` reading of the parent just before it started this
process, so ``setup_s`` covers interpreter start, ``import symplectomo``,
building every iteration's inputs and truths, and one untimed warm-up
iteration.  With ``--seconds 0`` the process only sets up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import symplectomo as sy

import tracer as tr
import workloads

# at most this many timed iterations per process; their inputs are built in set-up
POOL = 64
# largest deviation from Hermiticity a returned rho may have
HERMITIAN_TOL = 1e-12


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True, help="scratch directory for the workload's files")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def run_iteration(workload, iteration, cases, work: Path) -> dict:
    """Acquire, reconstruct and check every case of one iteration."""
    acquire_s = reconstruct_s = 0.0
    results = []
    digest = hashlib.sha256()
    start = time.perf_counter()
    for case in cases:
        path = work / f"{workload.name}-{case.label}.csv"
        record = {"label": case.label}
        try:
            t0 = time.perf_counter()
            data = case.acquire(path)
            t1 = time.perf_counter()
            rho = case.reconstruct(path, data)
            t2 = time.perf_counter()
        except sy.TomographyError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            digest.update(b"error")
            results.append(record)
            continue
        acquire_s += t1 - t0
        reconstruct_s += t2 - t1
        entries = rho.entries
        digest.update(hashlib.sha256(entries.tobytes()).digest())
        record["trace_distance_full"] = sy.trace_distance(rho, case.truth)
        record["fidelity"] = sy.fidelity(rho, case.truth)
        b = case.block or len(entries)
        got, want = entries[:b, :b], case.truth[:b, :b]
        td = sy.trace_distance(got, want) if case.block else record["trace_distance_full"]
        if case.dims is not None:
            truth = sy.FockDensityMatrix(case.truth, dims=case.dims)
            for keep in (1, 2):
                td = max(td, sy.trace_distance(sy.partial_trace(rho, keep), sy.partial_trace(truth, keep)))
        record["trace_distance"] = td
        record["trace_error"] = abs(np.trace(got).real - np.trace(want).real)
        record["hermiticity"] = float(abs(entries - entries.conj().T).max())
        td_tol, trace_tol = workload.tolerances[case.kind]
        problems = []
        if not td <= td_tol:
            problems.append(f"trace distance {td:.3g} > {td_tol}")
        if not record["trace_error"] <= trace_tol:
            problems.append(f"trace deviation {record['trace_error']:.3g} > {trace_tol}")
        if not record["hermiticity"] <= HERMITIAN_TOL:
            problems.append(f"not Hermitian: {record['hermiticity']:.3g}")
        if problems:
            record["error"] = "; ".join(problems)
        results.append(record)
    return {
        "id": iteration,
        "pipeline_s": time.perf_counter() - start,
        "acquire_s": acquire_s,
        "reconstruct_s": reconstruct_s,
        "digest": digest.hexdigest(),
        "cases": results,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.workload(args.workload, smoke=args.smoke)
    # iteration 0 is every process's warm-up, then the timed ids follow
    ids = list(range(1, POOL + 1))
    inputs = {i: workload.cases(args.seed, i) for i in [0, *ids]}
    work = Path(args.work)
    warmup = run_iteration(workload, 0, inputs[0], work)
    setup_s = time.monotonic() - args.t0

    tracer = tr.Tracer() if args.trace else None
    iterations = []
    # a traced run alternates untraced and traced iterations, so it needs two
    minimum = 2 if tracer else 1
    start = time.perf_counter()
    for j, i in enumerate(ids if args.seconds > 0 else []):
        # stop before an iteration that would likely end past --seconds
        elapsed = time.perf_counter() - start
        if j >= minimum and elapsed + statistics.median(it["pipeline_s"] for it in iterations) > args.seconds:
            break
        gc.collect()
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracer.iteration = i
            with tracer.installed():
                record = run_iteration(workload, i, inputs[i], work)
            record["layers"] = tracer.iteration_metrics(i, record["pipeline_s"])
        else:
            record = run_iteration(workload, i, inputs[i], work)
        record["traced"] = traced
        iterations.append(record)

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup": warmup,
        "iterations": iterations,
    }
    if tracer is not None:
        out["places"] = tracer.places
        spans_path = work.parent / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.jsonl"
        tracer.dump(spans_path)
        out["spans"] = str(spans_path)
        try:
            tracer.check(workload.expected)
        except tr.TracerError as exc:
            out["tracer_error"] = str(exc)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
