#!/usr/bin/env python3
"""Run the verification suites at contract scale, at one seed or over a range of seeds.

Usage:
    python scripts/run_acceptance.py [--suite NAME ...] [--seed N] [--out DIR]
    python scripts/run_acceptance.py [--suite NAME ...] --seeds FIRST-LAST

--suite may be repeated and defaults to every suite. With --seed, each
suite's CSV/text reports go into --out; this is `pytest tests/test_acceptance.py`
with the reports kept. With --seeds, the suites run at every seed of the
inclusive range and one line per (suite, seed) gives the verdict, the
names of any failing reports and a digest of every report (the first 16 hex
digits of the sha256 of their full text, floats at full precision), so that
`diff` of two checkouts' sweeps shows whether their reports are
byte-identical; nothing is written to disk, and stderr ends with each
suite's median wall time over the sweep. Either way the exit
code is 0 iff every run passes, and wall times go to stderr, so the reports in
--out stay byte-identical across runs.
"""

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bridgelines import suites  # noqa: E402
from bridgelines.cli import _write_reports  # noqa: E402


def _seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    if not sep or not first.isdigit() or not last.isdigit() or int(first) > int(last):
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST with FIRST <= LAST, got {text!r}")
    return range(int(first), int(last) + 1)


def _digest(result: suites.SuiteResult) -> str:
    """First 16 hex digits of the sha256 of the suite's reports, every field at full precision."""
    text = "\n".join(repr(r) for r in result.reports)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _timed(name: str, seed: int) -> tuple[suites.SuiteResult, float]:
    t0 = time.perf_counter()
    result = suites.run_suite(name, seed=seed)
    seconds = time.perf_counter() - t0
    print(f"{name} seed={seed}: {seconds:.2f} s", file=sys.stderr)
    return result, seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--suite", action="append", choices=list(suites.SUITES), default=None,
                        help="suite to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=_seed_range, default=None, metavar="FIRST-LAST",
                        help="sweep this inclusive seed range instead of writing reports")
    parser.add_argument("--out", default="acceptance-reports")
    args = parser.parse_args()
    names = args.suite or list(suites.SUITES)

    if args.seeds is not None:
        failed = 0
        medians = []
        for name in names:
            seconds = []
            for seed in args.seeds:
                result, s = _timed(name, seed)
                seconds.append(s)
                bad = "".join(f" {r.name}" for r in result.reports if not r.passed)
                print(f"{name} seed={seed} {'PASS' if result.passed else 'FAIL'}{bad} {_digest(result)}",
                      flush=True)
                failed += not result.passed
            medians.append(f"{name}: median {statistics.median(seconds):.2f} s over {len(seconds)} seeds")
        print(f"{failed} of {len(names) * len(args.seeds)} runs failed")
        print("\n".join(medians), file=sys.stderr)
        return 1 if failed else 0

    all_ok = True
    for name in names:
        result, _ = _timed(name, args.seed)
        _write_reports(result, args.out)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {name}")
        if not result.passed:
            all_ok = False
            for line in result.lines():
                print("   ", line)
    print("ALL SUITES PASS" if all_ok else "SUITE FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
