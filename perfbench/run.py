#!/usr/bin/env python3
"""bridgelines benchmark: run one workload through `cli.main` and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-rejection --seed 1 --seconds 15 --trace 0

The workload is a closed loop with one client in one process: each
operation starts when the previous one has returned. With ``--trace 0`` the
run makes the workload's planned passes (one for verify-*, three of
different requests for sample-stream), repeats them only while another pass
is expected to end within ``--seconds``, and reports the end-to-end metrics.
With ``--trace 1`` it makes the first pass with every public function of the
layer modules wrapped (see tracer.py) and reports the per-layer metrics.
Outputs of every operation are checked. The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def setup_probe(workload: str, seed: int) -> tuple[float, str]:
    """Seconds from a fresh interpreter to the CLI imported and the inputs built, and their digest."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return time.perf_counter() - start, out.stdout.strip()


def clear_caches(modules) -> None:
    """Empty the package's lru caches so every pass starts as a fresh CLI process would."""
    for mod in modules:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


class Runner:
    """Runs operations through cli.main, timing each and checking its outputs."""

    def __init__(self, cli, workloads, work_dir: Path):
        self.cli = cli
        self.wl = workloads
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.ensembles = 0
        self.first_hash: dict[str, tuple] = {}

    def call(self, argv) -> tuple[int | str, float, str]:
        """(exit code or exception type, seconds, captured stderr) of one cli.main call."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # an operation boundary: record and keep going
                rc = type(exc).__name__
                err.write(str(exc))
            seconds = time.perf_counter() - start
        return rc, seconds, err.getvalue().strip()

    def run_op(self, index: int, op, tracer=None) -> float:
        """Run and check one operation; only the cli.main call is timed and traced."""
        out_dir = self.work_dir / f"op{index}"
        if tracer is not None:
            tracer.op = op.label
        with tracer or contextlib.nullcontext():
            rc, seconds, err = self.call([*op.argv, "--out", str(out_dir)])
        self.attempted += 1
        self.latencies.append(seconds)
        if rc != 0:
            self.failures.append(f"{op.label} #{index}: {rc} {err.splitlines()[-1] if err else ''}")
        elif op.label.startswith("verify:"):
            self.problems += self.wl.check_verify(op, str(out_dir))
        else:
            self.problems += self.wl.check_sample(op, str(out_dir))
            self.ensembles += op.expect["n"]
            if op.label not in self.first_hash:
                self.first_hash[op.label] = (op, self.wl.output_hash(str(out_dir)))
        shutil.rmtree(out_dir, ignore_errors=True)
        return seconds

    def rerun_identical(self) -> None:
        """Re-run the first request of each sample kind and compare output bytes."""
        for label, (op, digest) in self.first_hash.items():
            out_dir = self.work_dir / "rerun"
            rc, _, err = self.call([*op.argv, "--out", str(out_dir)])
            if rc != 0 or self.wl.output_hash(str(out_dir)) != digest:
                self.problems.append(f"{label}: re-run output differs from the first run (rc={rc} {err})")
            shutil.rmtree(out_dir, ignore_errors=True)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bridgelines" / "__init__.py").is_file():
        print(f"error: no bridgelines sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bridgelines
    from bridgelines import cli, suites

    import workloads

    if Path(bridgelines.__file__).resolve().parent != SRC / "bridgelines":
        print(f"error: imported bridgelines from {bridgelines.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    modules = [importlib.import_module(f"bridgelines.{layer}") for layer in tracing.LAYERS]
    planned = workloads.build_passes(args.workload, args.seed)
    digest = workloads.digest(planned)

    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, workloads, work_dir)
    tracer = None
    passes: list[list[float]] = []  # seconds of each operation, per pass
    probes = []
    try:
        if args.trace:
            # the traced run makes the first pass only, so its counts are those of one pass
            planned = planned[:1]
            span_cost = tracing.per_span_cost()
            tracer = tracing.Tracer(modules, namespaces=[*modules, bridgelines],
                                    counters=tracing.COUNTERS)
            probe_at = set()
        else:
            # set-up is timed by three fresh processes, before the first operation, half
            # way through the planned passes and after the last pass, so that the median
            # spans the machine's slow and fast spells instead of one moment of them
            probe_at = {0, sum(map(len, planned)) // 2}
        step = 0
        started = time.perf_counter()
        while True:
            clear_caches(modules)
            times = []
            for i, op in enumerate(planned[len(passes) % len(planned)]):
                if step in probe_at:
                    probes.append(setup_probe(args.workload, args.seed))
                step += 1
                times.append(runner.run_op(i, op, tracer))
            passes.append(times)
            if len(passes) >= len(planned) and (
                tracer is not None
                or time.perf_counter() - started + sum(times) > args.seconds
            ):
                break
        if tracer is None:
            probes.append(setup_probe(args.workload, args.seed))
        runner.rerun_identical()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for _, probe_digest in probes:
        if probe_digest != digest:
            runner.problems.append(f"setup probe built inputs {probe_digest}, run built {digest}")

    lat_ms = [s * 1e3 for s in runner.latencies]
    # one pass, each operation timed by its median over the passes, so that a slow
    # spell of the machine shorter than the run moves only one of an operation's times
    wall_s = sum(statistics.median(column) for column in zip(*passes))
    summary = {
        "fail_ratio": (runner.attempted and len(runner.failures) / runner.attempted, "ratio"),
        "attempted": (runner.attempted, "count"),
        "failed": (len(runner.failures), "count"),
        "requests_per_pass": (len(planned[0]), "count"),
        "passes": (len(passes), "count"),
    }
    if args.workload == "sample-stream":
        summary["request_ms.p50"] = (statistics.median(lat_ms), "ms")
        summary["request_ms.p95"] = (percentile(lat_ms, 95), "ms")
        summary["ensembles_per_s"] = (runner.ensembles / sum(map(sum, passes)), "1/s")
    if tracer is None:
        values = {
            "setup_s": statistics.median(seconds for seconds, _ in probes),
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        suite_names = list(suites.SUITES)
        values = tracing.layer_metrics(tracer.edges, suite_names, wall_s)
        values["trace.wall_s"] = wall_s
        untraced = wall_s - values["trace.spans"] * span_cost
        values["trace.overhead_ratio"] = wall_s / untraced if untraced > 0 else 0.0
        units = tracing.layer_units(suite_names)
        print_trace_tables(tracing, tracer.edges, wall_s)

    print(f"workload {args.workload} seed {args.seed} inputs sha256 {digest}")
    for name, (val, unit) in summary.items():
        print(f"  {name:36s} {val:>14.6g} {unit}")
    for name in units:
        print(f"  {name:36s} {values[name]:>14.6g} {units[name]}")
    for line in runner.failures:
        print(f"  failed: {line}")
    for line in runner.problems:
        print(f"  wrong output: {line}")
    result = {
        "correct": not runner.problems and len(runner.failures) < runner.attempted,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def print_trace_tables(tracing, edges: dict, wall_s: float) -> None:
    """Per layer and function for the whole pass, then per operation label."""
    print(f"  {'layer / function':44s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for layer, row in tracing.layer_table(edges).items():
        if not row["spans"]:
            continue
        print(f"  {layer:44s} {row['calls']:>10d} {'':>10s} {row['self_s']:>10.3f} "
              f"{100 * row['self_s'] / wall_s:>6.1f}")
        for name, (calls, total, self_s) in sorted(row["functions"].items(), key=lambda kv: -kv[1][2]):
            print(f"    {name:42s} {calls:>10d} {total:>10.3f} {self_s:>10.3f} "
                  f"{100 * self_s / wall_s:>6.1f}")
    print(f"  {'operation':28s} {'calls':>6s} {'total_s':>9s}  self time by layer; avoid kept/candidates")
    for label in sorted({op for op, _, _ in edges}):
        sub = {key: edge for key, edge in edges.items() if key[0] == label}
        roots = [edge for (_, parent, _), edge in sub.items() if parent is None]
        total = sum(edge.total for edge in roots)
        table = tracing.layer_table(sub)
        shares = " ".join(f"{layer} {100 * row['self_s'] / total:.1f}%"
                          for layer, row in table.items() if row["self_s"] >= 0.001 * total)
        avoid = table["avoid"]["counts"]
        kept = f"  {avoid['kept']:.0f}/{avoid['candidates']:.0f}" if avoid.get("candidates") else ""
        print(f"  {label:28s} {sum(e.calls for e in roots):>6d} {total:>9.3f}  {shares}{kept}")


if __name__ == "__main__":
    sys.exit(main())
