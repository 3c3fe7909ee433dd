"""Outside-in span tracer for the bridgelines modules.

The tracer wraps the public functions of each layer module from outside the
package: it replaces module attributes with timing wrappers and puts the
identical objects back on uninstall. Names bound by ``from ... import`` are
found by identity and wrapped where they are looked up, so a call such as
``verify -> sample_avoiding_values`` is recorded even though ``verify`` holds
its own reference to the function.

A verify-window pass makes about a million scalar ``midpoint_cdf_single``
calls, which would not fit in memory as span records, so every span is folded at close
into an aggregate keyed by (operation, parent span name, span name). Self
time is a span's duration minus the durations of its traced children.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("bridge", "walk", "avoid", "glauber", "verify", "suites", "core", "cli")


class Edge:
    """Aggregate of every span with one (operation, parent, name) key."""

    __slots__ = ("calls", "total", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.counts = defaultdict(float)


class Tracer:
    """Wraps public functions of `modules` and aggregates their spans.

    `namespaces` lists every module whose attributes may hold aliases of the
    wrapped functions; it defaults to `modules`. `counters` maps a span name
    (``layer.function``) to ``fn(counts, args, kwargs, result, seconds)``,
    which adds work counts taken from the call's arguments and return value.
    """

    def __init__(self, modules, namespaces=None, counters=None, clock=time.perf_counter):
        self.modules = list(modules)
        self.clock = clock
        self.namespaces = list(namespaces if namespaces is not None else modules)
        self.counters = counters or {}
        self.edges: dict[tuple, Edge] = {}
        self.op = ""
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def targets(self) -> dict[int, tuple[object, str]]:
        """id(function) -> (function, span name) for every public function."""
        out = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                out[id(obj)] = (obj, f"{layer}.{attr}")
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in self.targets().items()}
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        stack = self._stack
        edges = self.edges
        count = self.counters.get(name)
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                seconds = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += seconds
                key = (tracer.op, parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = Edge()
                edge.calls += 1
                edge.total += seconds
                edge.self += seconds - frame[1]
                if ok and count is not None:
                    count(edge.counts, args, kwargs, result, seconds)

        return traced


# ---------------------------------------------------------------------------
# work counters, read from the arguments and return values of wrapped calls
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _avoid_values(c, args, kwargs, result, seconds):
    vals, drawn, seen, _ = result
    c["candidates"] += drawn
    c["accepted"] += seen
    c["kept"] += vals.shape[0]


def _bridge_paths(c, args, kwargs, result, seconds):
    c["values"] += result.size


def _bridge_grid_max(c, args, kwargs, result, seconds):
    c["values"] += _arg(args, kwargs, 3, "m") * _arg(args, kwargs, 4, "n_samples")


def _walk_steps(c, args, kwargs, result, seconds):
    c["steps"] += result.size


def _chain_events(index, name):
    def count(c, args, kwargs, result, seconds):
        c["events"] += _arg(args, kwargs, index, name)
    return count


def _stationary_events(c, args, kwargs, result, seconds):
    burn = _arg(args, kwargs, 1, "burn_in")
    c["events"] += burn + _arg(args, kwargs, 2, "n_samples") * _arg(args, kwargs, 3, "thin")


def _coalescence(c, args, kwargs, result, seconds):
    c["events"] += result
    c.setdefault("coalescence", []).append(result)


def _estimate_pw(c, args, kwargs, result, seconds):
    c["outer_samples"] += np.atleast_2d(_arg(args, kwargs, 1, "vals_aw")).shape[0]


def _write_ensembles(c, args, kwargs, result, seconds):
    c["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _run_suite(c, args, kwargs, result, seconds):
    c["suite:" + _arg(args, kwargs, 0, "name")] += seconds


COUNTERS = {
    "avoid.sample_avoiding_values": _avoid_values,
    "bridge.sample_bridge_paths": _bridge_paths,
    "bridge.sample_bridge_at": _bridge_paths,
    "bridge.grid_max_exceedance": _bridge_grid_max,
    "walk.sample_walk_steps": _walk_steps,
    "glauber.simulate_chain": _chain_events(1, "num_events"),
    "glauber.simulate_coupled": _chain_events(2, "num_events"),
    "glauber.sample_stationary_keys": _stationary_events,
    "glauber.mixing_diagnostic": _coalescence,
    "verify.estimate_pw": _estimate_pw,
    "core.write_ensembles": _write_ensembles,
    "suites.run_suite": _run_suite,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _layer(name: str | None) -> str | None:
    return None if name is None else name.split(".", 1)[0]


def layer_table(edges: dict[tuple, Edge]) -> dict[str, dict]:
    """Per layer: self seconds, calls entering the layer, spans, summed counts.

    `count_s` holds, for each count, the self seconds of the spans that
    reported it, so a rate divides work by the time of the code that did it.
    """
    table = {
        layer: {"self_s": 0.0, "calls": 0, "spans": 0, "counts": defaultdict(float),
                "count_s": defaultdict(float), "functions": defaultdict(lambda: [0, 0.0, 0.0])}
        for layer in LAYERS
    }
    for (_, parent, name), edge in edges.items():
        row = table[_layer(name)]
        row["self_s"] += edge.self
        row["spans"] += edge.calls
        if _layer(parent) != _layer(name):
            row["calls"] += edge.calls
        fn = row["functions"][name]
        fn[0] += edge.calls
        fn[1] += edge.total
        fn[2] += edge.self
        for key, val in edge.counts.items():
            if key == "coalescence":
                row["counts"].setdefault("coalescence", []).extend(val)
                continue
            row["counts"][key] += val
            row["count_s"][key] += edge.self
    return table


def _rate(num: float, seconds: float) -> float:
    return num / seconds if seconds > 0 else 0.0


def layer_metrics(edges: dict[tuple, Edge], suite_names, wall_s: float) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, by name (units in layer_units).

    Times are reported as shares of the traced pass (`wall_s`): a layer that a
    workload never enters then reads 0 as a share, not as a time.
    """
    t = layer_table(edges)
    out: dict[str, float] = {}
    suite_s = t["suites"]["counts"]
    for suite in suite_names:
        out[f"suites.{suite}.share"] = _rate(suite_s.get("suite:" + suite, 0.0), wall_s)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _rate(t[layer]["self_s"], wall_s)
        out[f"{layer}.calls"] = t[layer]["calls"]

    av = t["avoid"]
    cand, acc, kept = (av["counts"].get(k, 0.0) for k in ("candidates", "accepted", "kept"))
    out["avoid.candidates"] = cand
    out["avoid.accepted"] = acc
    out["avoid.kept"] = kept
    out["avoid.accept_ratio"] = _rate(acc, cand)
    out["avoid.useful_ratio"] = _rate(kept, cand)
    out["avoid.candidates_per_s"] = _rate(cand, av["count_s"].get("candidates", 0.0))
    out["avoid.kept_per_s"] = _rate(kept, av["count_s"].get("kept", 0.0))

    vf = t["verify"]["functions"]
    out["verify.resample_block.calls"] = vf["verify.resample_block"][0]
    out["verify.estimate_pw.outer_samples"] = t["verify"]["counts"].get("outer_samples", 0.0)

    br = t["bridge"]
    out["bridge.values"] = br["counts"].get("values", 0.0)
    out["bridge.values_per_s"] = _rate(out["bridge.values"], br["count_s"].get("values", 0.0))
    out["bridge.midpoint_cdf_single.calls"] = br["functions"]["bridge.midpoint_cdf_single"][0]

    wk = t["walk"]
    out["walk.steps"] = wk["counts"].get("steps", 0.0)
    out["walk.steps_per_s"] = _rate(out["walk.steps"], wk["count_s"].get("steps", 0.0))

    gl = t["glauber"]
    out["glauber.events"] = gl["counts"].get("events", 0.0)
    out["glauber.events_per_s"] = _rate(out["glauber.events"], gl["count_s"].get("events", 0.0))
    coal = gl["counts"].get("coalescence", [])
    out["glauber.coalescence_events.median"] = float(statistics.median(coal)) if coal else 0.0

    _, total, _ = t["core"]["functions"]["core.write_ensembles"]
    nbytes = t["core"]["counts"].get("bytes", 0.0)
    out["core.write_ensembles.share"] = _rate(total, wall_s)
    out["core.write_ensembles.bytes"] = nbytes
    out["core.write_ensembles.MBps"] = _rate(nbytes / 1e6, total)
    out["trace.spans"] = sum(t[layer]["spans"] for layer in LAYERS)
    return out


def layer_units(suite_names) -> dict[str, str]:
    """Name -> unit of every per-layer metric, in the order the benchmark reports them."""
    units = {f"suites.{s}.share": "ratio" for s in suite_names}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    units.update({
        "avoid.candidates": "count", "avoid.accepted": "count", "avoid.kept": "count",
        "avoid.accept_ratio": "ratio", "avoid.useful_ratio": "ratio",
        "avoid.candidates_per_s": "1/s", "avoid.kept_per_s": "1/s",
        "verify.resample_block.calls": "count", "verify.estimate_pw.outer_samples": "count",
        "bridge.values": "count", "bridge.values_per_s": "1/s",
        "bridge.midpoint_cdf_single.calls": "count",
        "walk.steps": "count", "walk.steps_per_s": "1/s",
        "glauber.events": "count", "glauber.events_per_s": "1/s",
        "glauber.coalescence_events.median": "count",
        "core.write_ensembles.share": "ratio", "core.write_ensembles.bytes": "bytes",
        "core.write_ensembles.MBps": "MB/s",
        "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
    })
    return units


def per_span_cost(n: int = 200_000) -> float:
    """Seconds a wrapper adds to one call, measured on a trivial function."""
    mod = types.ModuleType("calib")

    def probe(x):
        return x

    probe.__module__ = "calib"
    mod.probe = probe
    plain = mod.probe
    start = time.perf_counter()
    for i in range(n):
        plain(i)
    bare = time.perf_counter() - start
    with Tracer([mod]):
        wrapped = mod.probe
        start = time.perf_counter()
        for i in range(n):
            wrapped(i)
        traced = time.perf_counter() - start
    return max(0.0, (traced - bare) / n)
