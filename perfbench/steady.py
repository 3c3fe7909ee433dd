#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarise, or compare two such sets.

Usage (from the repository root):

    python3 perfbench/steady.py run --workload verify-window --runs 10 --out a.json
    python3 perfbench/steady.py compare a.json b.json

`run` calls run.py untraced once per seed (first-seed, first-seed+1, ...) with the
run length from BENCHMARK.json, then prints for each end-to-end metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound. It
writes the raw results, the summary and the environment (core count, Python,
numpy, scipy, BLAS and its thread settings) to --out. `compare` prints, per
metric, how far the second set's median moved from the first's, against the
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def bounds() -> dict:
    return {m["name"]: m for m in spec()["end_to_end"]}


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def cmd_run(args) -> int:
    seconds = str(spec()["run_seconds"])
    metric_bounds = bounds()
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                         if k in metric_bounds), flush=True)
    stats = {}
    print(f"\n{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        stats[name] = summarise(values)
        bound = metric_bounds.get(name, {}).get("bound")
        s = stats[name]
        print(f"{name:36s} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
              f"{s['spread']:>8.4f} {'' if bound is None else bound:>6}")
    record = {"workload": args.workload, "environment": environment(),
              "runs": runs, "stats": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] and not r["failed"] for r in runs) else 1


def cmd_compare(args) -> int:
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    metric_bounds = bounds()
    worse = 0
    print(f"{'metric':36s} {'median 1':>12s} {'median 2':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for name, s1 in first["stats"].items():
        s2 = second["stats"].get(name)
        if s2 is None or not s1["median"]:
            continue
        change = s2["median"] / s1["median"] - 1.0
        m = metric_bounds.get(name, {})
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        else:
            worse_change = change if m["better"] == "lower" else -change
            verdict = "worse than bound" if worse_change > bound else "within bound"
            worse += worse_change > bound
        print(f"{name:36s} {s1['median']:>12.6g} {s2['median']:>12.6g} {change:>+8.4f} "
              f"{'' if bound is None else bound:>6}  {verdict}")
    if first["environment"] != second["environment"]:
        print(f"note: environments differ: {first['environment']} vs {second['environment']}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one workload on several seeds and summarise")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_run.add_argument("--out", default=None, help="write runs, summary and environment here")
    p_run.set_defaults(fn=cmd_run)
    p_cmp = sub.add_parser("compare", help="compare the medians of two saved sets")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
