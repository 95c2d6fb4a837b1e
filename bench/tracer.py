"""Span tracer for the traced benchmark run.

It wraps the public library functions named in ``BOUNDARIES`` at every place
they are bound: the defining module and every ``symplectomo`` module (or the
package namespace) that imported the same function object.  Each call records
a span ``(id, name, start, end, parent, iteration, error)`` plus the counts
its ``measure`` hook derives from the arguments or result.  Spans stay in
memory until :meth:`Tracer.dump`.

Nothing is wrapped outside :meth:`Tracer.installed`, so untraced iterations
run the library unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("states", "marginals", "kernels", "reconstruct", "twomode", "measure_sim", "io")


class TracerError(RuntimeError):
    """A boundary could not be wrapped, or an expected boundary recorded no call."""


def _file_bytes(path) -> int:
    total = os.path.getsize(path)
    sidecar = str(path) + ".meta.json"
    if os.path.exists(sidecar):
        total += os.path.getsize(sidecar)
    return total


def _displacement(args, kwargs, _result):
    zetas = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["zetas"], dtype=complex))
    dim = int(args[1] if len(args) > 1 else kwargs["dim"])
    elements = zetas.size * dim * dim
    key = (hashlib.blake2b(zetas.tobytes(), digest_size=16).digest(), zetas.shape, dim)
    return {"elements": elements, "bytes": 16 * elements}, key


def _wigner_points(args, kwargs, _result):
    q = args[1] if len(args) > 1 else kwargs["q"]
    p = args[2] if len(args) > 2 else kwargs["p"]
    return {"points": np.broadcast(np.asarray(q), np.asarray(p)).size}, None


def _outcomes(_args, _kwargs, result):
    return {"outcomes": sum(int(b.outcomes.size) for b in result)}, None


def _written(args, kwargs, _result):
    return {"bytes_written": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}, None


def _read(args, kwargs, _result):
    return {"bytes_read": _file_bytes(args[0] if args else kwargs["path"])}, None


# boundary -> (records a span, measure hook).  ``tabulated_cdf`` is only
# counted: as a span it would hide the sampler's own table work from
# ``sample_campaign.self_s``.
BOUNDARIES = {
    "states.wigner": (True, _wigner_points),
    "marginals.tabulate_tomogram": (True, None),
    "marginals.marginal_numeric": (True, None),
    "kernels.displacement_matrix": (True, _displacement),
    "reconstruct.reconstruct_from_tomogram": (True, None),
    "reconstruct.reconstruct_from_samples": (True, None),
    "reconstruct.reconstruct_homodyne": (True, None),
    "reconstruct.fidelity": (True, None),
    "reconstruct.trace_distance": (True, None),
    "twomode.tabulate_tilde_tomogram": (True, None),
    "twomode.reconstruct_two_mode": (True, None),
    "measure_sim.importance_schedule": (True, None),
    "measure_sim.sample_campaign": (True, _outcomes),
    "measure_sim.tabulated_cdf": (False, None),
    "io.save_tomogram": (True, _written),
    "io.load_tomogram": (True, _read),
    "io.save_samples": (True, _written),
    "io.load_samples": (True, _read),
}

# per-layer metric -> (boundary, statistic); statistic is "s" (total span
# time), "self_s" (span time minus wrapped children), "calls" or a count key
LAYER_METRICS = {
    "states.wigner.s": ("states.wigner", "s"),
    "states.wigner.points": ("states.wigner", "points"),
    "marginals.tabulate_tomogram.s": ("marginals.tabulate_tomogram", "s"),
    "marginals.marginal_numeric.s": ("marginals.marginal_numeric", "s"),
    "marginals.marginal_numeric.calls": ("marginals.marginal_numeric", "calls"),
    "kernels.displacement_matrix.s": ("kernels.displacement_matrix", "s"),
    "kernels.displacement_matrix.calls": ("kernels.displacement_matrix", "calls"),
    "kernels.displacement_matrix.elements": ("kernels.displacement_matrix", "elements"),
    "kernels.displacement_matrix.bytes": ("kernels.displacement_matrix", "bytes"),
    "reconstruct.reconstruct_from_tomogram.self_s": ("reconstruct.reconstruct_from_tomogram", "self_s"),
    "reconstruct.reconstruct_from_samples.self_s": ("reconstruct.reconstruct_from_samples", "self_s"),
    "reconstruct.reconstruct_homodyne.self_s": ("reconstruct.reconstruct_homodyne", "self_s"),
    "reconstruct.fidelity.s": ("reconstruct.fidelity", "s"),
    "reconstruct.trace_distance.s": ("reconstruct.trace_distance", "s"),
    "twomode.tabulate_tilde_tomogram.s": ("twomode.tabulate_tilde_tomogram", "s"),
    "twomode.reconstruct_two_mode.self_s": ("twomode.reconstruct_two_mode", "self_s"),
    "measure_sim.importance_schedule.s": ("measure_sim.importance_schedule", "s"),
    "measure_sim.sample_campaign.self_s": ("measure_sim.sample_campaign", "self_s"),
    "measure_sim.tabulated_cdf.calls": ("measure_sim.tabulated_cdf", "calls"),
    "measure_sim.outcomes": ("measure_sim.sample_campaign", "outcomes"),
    "io.save_tomogram.s": ("io.save_tomogram", "s"),
    "io.load_tomogram.s": ("io.load_tomogram", "s"),
    "io.save_samples.s": ("io.save_samples", "s"),
    "io.load_samples.s": ("io.load_samples", "s"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, iteration, error)
        self.counts: list[dict] = []  # per span id
        self.keys: dict[int, object] = {}  # displacement input keys, per span id
        self.calls: dict[tuple[str, int], int] = defaultdict(int)  # count-only boundaries
        self.iteration: int | None = None
        self.places: dict[str, list[str]] = {}
        self._stack: list[int] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, record_span: bool, measure):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.calls[(name, tracer.iteration)] += 1
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer.counts.append({})
            tracer._stack.append(sid)
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.iteration, error)
                if measure is not None and not error:
                    counts, key = measure(args, kwargs, result)
                    tracer.counts[sid] = counts
                    if key is not None:
                        tracer.keys[sid] = key

        return traced if record_span else counted

    @contextmanager
    def installed(self):
        """Wrap every boundary wherever it is bound; restore on exit."""
        patched = []
        try:
            for name, (record_span, measure) in BOUNDARIES.items():
                layer, func = name.split(".")
                home = importlib.import_module(f"symplectomo.{layer}")
                original = getattr(home, func, None)
                if not callable(original):
                    raise TracerError(f"boundary {name} not found: symplectomo.{layer} has no {func}")
                wrapper = self._wrap(name, original, record_span, measure)
                places = []
                for mod_name, module in list(sys.modules.items()):
                    if module is None or not (mod_name == "symplectomo" or mod_name.startswith("symplectomo.")):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
                            places.append(f"{mod_name}.{attr}")
                self.places[name] = sorted(places)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def check(self, expected) -> None:
        """Fail loudly when an expected boundary recorded no call at all."""
        missing = [b for b in expected if self._total_calls(b) == 0]
        if missing:
            raise TracerError(
                "expected boundaries recorded no call (renamed or re-imported?): " + ", ".join(missing)
            )

    def _total_calls(self, name: str) -> int:
        if BOUNDARIES[name][0]:
            return sum(1 for s in self.spans if s[1] == name)
        return sum(n for (b, _), n in self.calls.items() if b == name)

    def iteration_metrics(self, iteration: int, pipeline_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced iteration."""
        spans = [s for s in self.spans if s[5] == iteration]
        child_time = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        errors = dict.fromkeys(LAYERS, 0)
        distinct = set()  # displacement_matrix input keys
        root_time = 0.0
        for sid, name, start, end, parent, _, error in spans:
            st = stats[name]
            st["s"] += end - start
            st["self_s"] += end - start - child_time[sid]
            st["calls"] += 1
            for key, value in self.counts[sid].items():
                st[key] += value
            if sid in self.keys:
                distinct.add(self.keys[sid])
            errors[name.split(".")[0]] += int(error)
            if parent is None:
                root_time += end - start
        for (name, it), n in self.calls.items():
            if it == iteration:
                stats[name]["calls"] += n

        out = {metric: float(stats[b][stat]) for metric, (b, stat) in LAYER_METRICS.items()}
        dm = "kernels.displacement_matrix"
        calls = stats[dm]["calls"]
        out[f"{dm}.distinct_ratio"] = len(distinct) / calls if calls else 0.0
        io = [b for b in BOUNDARIES if b.startswith("io.")]
        out["io.bytes_written"] = float(sum(stats[b]["bytes_written"] for b in io))
        out["io.bytes_read"] = float(sum(stats[b]["bytes_read"] for b in io))
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(errors[layer])
        out["trace.coverage"] = root_time / pipeline_s
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, iteration, error in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "iteration": iteration,
                    "error": error,
                    **self.counts[sid],
                }
                fh.write(json.dumps(record) + "\n")
