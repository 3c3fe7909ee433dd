#!/usr/bin/env python3
"""Profile the window-ratio observable over a schedule of window widths.

Runs both planted ensembles — a single free bridge (no hidden curve) and a
two-curve avoiding ensemble (hidden second curve) — and prints / writes the
per-window estimates with CIs plus the detector verdicts. The single-bridge
profile hugs 1 at every width; the two-curve profile plateaus near the hidden
curve's threshold probability.

Usage:
    python scripts/pw_profile.py [--seed N] [--n-samples N] [--out pw_profile.csv]
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bridgelines import suites, verify  # noqa: E402
from bridgelines.core import RngSeed  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n-samples", type=int, default=20000)
    parser.add_argument("--out", default="pw_profile.csv")
    args = parser.parse_args()

    windows = (4, 8, 16, 32)
    x1 = 1.5
    root = RngSeed(args.seed)
    rows = []

    # single free bridge
    singles = suites.single_bridge_pw(windows, x1, args.n_samples, root.derive("single").generator(), cap=1000)
    for w, est in singles.items():
        rows.append(("single-bridge", w, est.mean, est.se, *est.ci()))
        print(f"single-bridge  w={w:3d}  pw={est.mean:.4f} +- {est.se:.4f}")
    print("detector:", verify.curve_count_detector(singles))

    # two-curve ensemble with a hidden bottom curve, drawn exactly at the window times
    x1h, hidden, pairs = suites.hidden_pair_pw(
        windows, 0.3, 0.8, 2000, args.n_samples,
        root.derive("pair/pilot").generator(), root.derive("pair/main").generator(), cap=1000,
    )
    direct = float(np.mean(hidden <= x1h))
    for w, est in pairs.items():
        rows.append(("two-curve", w, est.mean, est.se, *est.ci()))
        print(f"two-curve      w={w:3d}  pw={est.mean:.4f} +- {est.se:.4f}   (hidden-curve cdf {direct:.4f})")
    print("detector:", verify.curve_count_detector(pairs))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ensemble", "w", "pw_mean", "pw_se", "ci_lo", "ci_hi"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
