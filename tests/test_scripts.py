"""Smoke tests of the command-line scripts under scripts/ and of the benchmark's output checker."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from bridgelines import cli, suites

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_workloads(monkeypatch):
    """perfbench/workloads.py, imported by path: tier-1 does not collect perfbench/."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


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
    workloads = _benchmark_workloads(monkeypatch)
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
    workloads = _benchmark_workloads(monkeypatch)
    for name, (cfg_cls, _) in suites.SUITES.items():
        cfg_cls()  # the defaults lie in every declared domain
        monkeypatch.setitem(suites.SUITES, name, (cfg_cls, lambda cfg, name=name: suites.SuiteResult(name, [])))
    for workload in ("verify-rejection", "verify-window", "verify-lattice"):
        for op in workloads.build_passes(workload, 1)[0]:
            out = tmp_path / op.expect["suite"]
            assert cli.main([*op.argv, "--out", str(out)]) == 0, op.argv
            assert workloads.check_verify(op, str(out)) == [], op.argv
