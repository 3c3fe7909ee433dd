"""Tests of the benchmark's tracer and metric list.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bridgelines  # noqa: E402
from bridgelines import avoid, bridge, cli, core, suites, verify  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402

MODULES = [getattr(bridgelines, layer) for layer in tracing.LAYERS]


def _attrs(namespaces):
    return {(ns.__name__, attr): obj for ns in namespaces for attr, obj in vars(ns).items()}


def test_aliases_are_wrapped_and_uninstall_restores_identical_objects():
    namespaces = [*MODULES, bridgelines]
    before = _attrs(namespaces)
    t = tracing.Tracer(MODULES, namespaces=namespaces)
    t.install()
    try:
        aliases = {
            (verify, "sample_avoiding_values"): avoid,
            (verify, "midpoint_cdf_single"): bridge,
            (avoid, "midpoint_cdf_single"): bridge,
            (avoid, "certify_c0"): bridge,
            (cli, "write_ensembles"): core,
            (bridgelines, "read_ensembles"): core,
        }
        for (ns, attr), home in aliases.items():
            original = before[(ns.__name__, attr)]
            assert getattr(ns, attr) is not original, f"{ns.__name__}.{attr} not wrapped"
            assert getattr(ns, attr).__wrapped__ is original
            assert getattr(home, attr).__wrapped__ is original
        assert verify.TestReport is before[("bridgelines.verify", "TestReport")]  # classes stay
    finally:
        t.uninstall()
    after = _attrs(namespaces)
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert not changed


def _synthetic_layers(clock):
    """Two fake layer modules: walk.outer calls avoid.inner twice, with known durations."""
    walk_mod = types.ModuleType("synthetic.walk")
    avoid_mod = types.ModuleType("synthetic.avoid")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        avoid_mod.inner()
        clock.now += 3.0
        avoid_mod.inner()

    inner.__module__, outer.__module__ = "synthetic.avoid", "synthetic.walk"
    avoid_mod.inner, walk_mod.outer = inner, outer
    return walk_mod, avoid_mod


def test_self_time_excludes_child_spans():
    clock = types.SimpleNamespace(now=0.0)
    walk_mod, avoid_mod = _synthetic_layers(clock)
    t = tracing.Tracer([walk_mod, avoid_mod], clock=lambda: clock.now)
    with t:
        t.op = "op"
        walk_mod.outer()
    outer = t.edges[("op", None, "walk.outer")]
    inner = t.edges[("op", "walk.outer", "avoid.inner")]
    assert (outer.calls, outer.total, outer.self) == (1, 8.0, 4.0)
    assert (inner.calls, inner.total, inner.self) == (2, 4.0, 4.0)
    table = tracing.layer_table(t.edges)
    assert table["walk"]["self_s"] == 4.0 and table["walk"]["calls"] == 1
    assert table["avoid"]["self_s"] == 4.0 and table["avoid"]["calls"] == 2


def test_tiny_gibbs_attributes_avoid_calls_to_resample_block():
    n = 6
    t = tracing.Tracer(MODULES, namespaces=[*MODULES, bridgelines], counters=tracing.COUNTERS)
    with t:
        t.op = "verify:gibbs"
        suites.run_suite("gibbs", seed=3, n_samples=n)
    edge = t.edges[("verify:gibbs", "verify.resample_block", "avoid.sample_avoiding_values")]
    assert edge.calls == 2 * n  # main and defect tests redraw one block per sample
    assert edge.counts["kept"] == 2 * n
    assert edge.counts["candidates"] >= edge.counts["accepted"] >= edge.counts["kept"]
    wall_s = sum(e.total for (_, parent, _), e in t.edges.items() if parent is None)
    metrics = tracing.layer_metrics(t.edges, suites.SUITES, wall_s)
    assert metrics["verify.resample_block.calls"] == 2 * n
    assert metrics["suites.gibbs.share"] == 1.0  # run_suite is the only root span
    assert metrics["suites.tails.share"] == 0.0
    assert 0 < metrics["avoid.useful_ratio"] <= metrics["avoid.accept_ratio"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracing.layer_units(suites.SUITES)
