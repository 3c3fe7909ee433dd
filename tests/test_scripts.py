"""Smoke tests of the command-line scripts under scripts/ and of the benchmark's output checker."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import bridgelines
from bridgelines import cli, suites

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_module(monkeypatch, name):
    """perfbench/<name>.py, imported by path: tier-1 does not collect perfbench/."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_run_acceptance_sweeps_pw_over_two_seeds():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_acceptance.py"), "--suite", "pw", "--seeds", "1-2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    for seed, line in zip((1, 2), lines):
        assert re.fullmatch(rf"pw seed={seed} PASS [0-9a-f]{{16}}", line), line
    assert lines[2] == "0 of 2 runs failed"
    assert re.fullmatch(r"pw: median \d+\.\d\d s over 2 seeds", proc.stderr.splitlines()[-1]), proc.stderr


def test_benchmark_sample_checker_passes_each_kind(tmp_path, monkeypatch):
    # perfbench/workloads.py checks every sample-stream output through the package's
    # API, so a change that breaks it shows here
    workloads = _benchmark_module(monkeypatch, "workloads")
    firsts = {}
    for op in workloads.build_passes("sample-stream", 1)[0]:
        firsts.setdefault(op.expect["kind"], op)
    assert sorted(firsts) == ["avoid", "bridge", "glauber", "walk"]
    for kind, op in firsts.items():
        out = tmp_path / kind
        assert cli.main([*op.argv, "--out", str(out)]) == 0, op.argv
        assert workloads.check_sample(op, str(out)) == [], op.argv


def test_benchmark_verify_operations_pass_the_config_checks(tmp_path, monkeypatch):
    # every verify operation of the benchmark builds its suite's config through cli.main;
    # with each suite stubbed to an empty passing result, a domain that refuses one
    # of the benchmark's settings (detect's n_seeds=5) or a default fails here
    workloads = _benchmark_module(monkeypatch, "workloads")
    for name, (cfg_cls, _) in suites.SUITES.items():
        cfg_cls()  # the defaults lie in every declared domain
        monkeypatch.setitem(suites.SUITES, name, (cfg_cls, lambda cfg, name=name: suites.SuiteResult(name, [])))
    for workload in ("verify-rejection", "verify-window", "verify-lattice"):
        for op in workloads.build_passes(workload, 1)[0]:
            out = tmp_path / op.expect["suite"]
            assert cli.main([*op.argv, "--out", str(out)]) == 0, op.argv
            assert workloads.check_verify(op, str(out)) == [], op.argv


def test_benchmark_tracer_still_counts_the_package_work(tmp_path, monkeypatch):
    # perfbench/tracer.py reads functions by name: it unpacks the 4-tuple of
    # avoid.sample_avoiding_values, reads the path of core.write_ensembles and looks up
    # three spans in layer_metrics; a renamed or re-signed one shows only in a traced run
    tracing = _benchmark_module(monkeypatch, "tracer")
    indexed = ("verify.resample_block", "bridge.midpoint_cdf_single", "core.write_ensembles")
    for name in (*tracing.COUNTERS, *indexed):
        layer, attr = name.split(".")
        module = importlib.import_module(f"bridgelines.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_") and callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == module.__name__, name
    modules = [importlib.import_module(f"bridgelines.{layer}") for layer in tracing.LAYERS]
    t = tracing.Tracer(modules, namespaces=[*modules, bridgelines], counters=tracing.COUNTERS)
    with t:
        for kind, argv in (("avoid", ["--x-vec", "1,-1", "--y-vec", "1,-1", "--grid", "16"]),
                           ("walk", ["--n-scale", "2", "--x-units", "2,0", "--y-units", "2,0"])):
            t.op = f"sample:{kind}"
            out = tmp_path / kind
            assert cli.main(["sample", "--kind", kind, *argv, "--n-samples", "3", "--out", str(out)]) == 0
    wall_s = sum(e.total for (_, parent, _), e in t.edges.items() if parent is None)
    metrics = tracing.layer_metrics(t.edges, suites.SUITES, wall_s)
    assert metrics["avoid.candidates"] >= metrics["avoid.accepted"] >= metrics["avoid.kept"] > 0
    assert metrics["walk.steps"] > 0
    assert metrics["core.write_ensembles.bytes"] > 0
