"""Workload definitions: the operations each workload sends to `cli.main`, and their checks.

An operation is one `cli.main` call: a suite in the verify-* workloads and a
`sample` request in sample-stream. Inputs depend only on the benchmark seed.

Why these workloads (shares are of traced self time; README.md has the baseline):

- verify-rejection (gibbs, tails, transforms): `avoid` does about 97% of the
  work, as 10,004 small rejection calls in gibbs (each block redraw draws a
  128-candidate chunk to keep one sample; 2.2% of its candidates are kept)
  and a few large batches in tails, so it measures per-call overhead and
  batch throughput of the same kernel.
- verify-window (pw, detect): rejection at 13% acceptance in detect, the
  2,000-call nested domination oracle in pw, and `estimate_pw`, whose
  denominators are about a million scalar `midpoint_cdf_single` calls.
- verify-lattice (reflection, walk-exact, convergence, glauber-stationarity,
  coupling): `bridge.grid_max_exceedance`, `walk.sample_walk_steps` and the
  `glauber` event loops; `avoid` and `verify` are nearly idle, so it is the
  bypass workload for changes to those two.
- sample-stream: a stream of `sample` requests of all four kinds, the only
  workload that runs `core.write_ensembles`, and the one where `avoid`,
  `walk` and `glauber` run as many short calls.

detect runs 5 of its 10 seeds (each seed is one full-size pair of planted
cases) so that a run fits the benchmark's time budget; every other suite runs
at its default scale.

A sample-stream run makes 3 passes of 68 requests (204 in all, so that at
least 10 lie beyond the p95 latency). The request sizes are centred on the
invocations documented in the repository README, which is each kind's first
entry in SAMPLE_PLAN: bridge 100 samples at grid 512, avoid 2 curves at
1,-1 with 50 samples at grid 256, walk 20 samples at n-scale 8, glauber at
n-scale 4 with burn-in 20,000 and the default 100 samples. The other entries
halve or raise by half the sample count and the grid, n-scale or burn-in.
The request counts per kind (5 bridge, 10 avoid, 32 walk, 21 glauber) give
each kind about a quarter of a pass's time at the documented invocations'
latencies (about 310, 150, 52 and 72 ms on a 2-core x86_64 VM), so a change
to any one kind moves wall_s by a comparable amount. The cost plan is the
same for every seed and every pass, and every pass sends it in the same
order; the seed sets that order, the bridge and avoid endpoints (a common
shift of all avoid entrance or exit points leaves the acceptance rate
unchanged) and each request's sampler seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

import numpy as np

from bridgelines.core import (
    Barrier,
    Interval,
    LatticeParams,
    check_avoiding,
    read_ensembles,
)

VERIFY = {
    "verify-rejection": [("gibbs", ()), ("tails", ()), ("transforms", ())],
    "verify-window": [("pw", ()), ("detect", ("n_seeds=5",))],
    "verify-lattice": [
        ("reflection", ()),
        ("walk-exact", ()),
        ("convergence", ()),
        ("glauber-stationarity", ()),
        ("coupling", ()),
    ],
}
# kind: (requests per pass, n_samples values, size values); request j of a kind in a pass
# takes n_samples[j % 3] and size[(j + j // 3) % 3], so the first request is the README's
# invocation. The size is the grid for bridge and avoid, the n-scale for walk, and
# (n-scale, burn-in) for glauber.
SAMPLE_PLAN = {
    "bridge": (5, (100, 50, 150), (512, 256, 768)),
    "avoid": (10, (50, 25, 75), (256, 128, 384)),
    "walk": (32, (20, 10, 30), (8, 6, 10)),
    "glauber": (21, (100, 50, 150), ((4, 20000), (3, 10000), (5, 30000))),
}
SAMPLE_PASSES = 3
LATTICE_UNITS = (2, 0)  # the README's --x-units and --y-units for walk and glauber
WORKLOADS = (*VERIFY, "sample-stream")


@dataclass(frozen=True)
class Op:
    """One cli.main call: trace label, arguments without --out, and what its check needs."""

    label: str
    argv: tuple[str, ...]
    expect: dict


def _vec(values) -> str:
    return ",".join(repr(v) for v in values)


def _sample_request(kind: str, j: int, rnd: random.Random) -> Op:
    """Request j of a kind: cost parameters are fixed by (kind, j), the rest comes from rnd."""
    _, n_values, sizes = SAMPLE_PLAN[kind]
    n = n_values[j % 3]
    size = sizes[(j + j // 3) % 3]
    expect = {"kind": kind, "n": n}
    if kind == "bridge":
        x, y = round(rnd.uniform(-1, 1), 3), round(rnd.uniform(-1, 1), 3)
        argv = [f"--x={x!r}", f"--y={y!r}", f"--grid={size}"]
        expect.update(m=size, x=[x], y=[y])
    elif kind == "avoid":
        # the README's 1,-1 entrance and exit, each shifted as a whole
        sx, sy = rnd.uniform(-0.5, 0.5), rnd.uniform(-0.5, 0.5)
        xs = [round(1.0 + sx, 3), round(-1.0 + sx, 3)]
        ys = [round(1.0 + sy, 3), round(-1.0 + sy, 3)]
        argv = [f"--x-vec={_vec(xs)}", f"--y-vec={_vec(ys)}", f"--grid={size}"]
        expect.update(m=size, x=xs, y=ys)
    else:
        scale, burn_in = (size, None) if kind == "walk" else size
        units = _vec(LATTICE_UNITS)
        argv = [f"--n-scale={scale}", f"--x-units={units}", f"--y-units={units}"]
        if burn_in is not None:
            argv.append(f"--burn-in={burn_in}")
        ends = [u * LatticeParams.scaled(Interval(0.0, 1.0), scale).dx for u in LATTICE_UNITS]
        expect.update(m=scale * scale, x=ends, y=ends)
    argv = ["sample", f"--kind={kind}", *argv, f"--n-samples={n}", f"--seed={rnd.randrange(2**31)}"]
    return Op(f"sample:{kind}", tuple(argv), expect)


def build_passes(workload: str, seed: int) -> list[list[Op]]:
    """The operations of each pass of `workload`; equal seeds give equal lists."""
    if workload in VERIFY:
        ops = []
        for suite, sets in VERIFY[workload]:
            argv = ["verify", f"--suite={suite}", f"--seed={seed}"]
            for item in sets:
                argv += ["--set", item]
            ops.append(Op(f"verify:{suite}", tuple(argv), {"suite": suite}))
        return [ops]
    if workload == "sample-stream":
        rnd = random.Random(f"sample-stream/{seed}")
        plan = [(kind, j) for kind, (count, _, _) in SAMPLE_PLAN.items() for j in range(count)]
        rnd.shuffle(plan)
        # every pass sends the plan in the same order, so the i-th requests of all
        # passes cost the same; only endpoints and sampler seeds differ
        return [[_sample_request(kind, j, rnd) for kind, j in plan] for _ in range(SAMPLE_PASSES)]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def digest(passes: list[list[Op]]) -> str:
    """sha256 of the operation lists, so two runs can show they used equal inputs."""
    return hashlib.sha256(json.dumps([[op.argv for op in ops] for ops in passes]).encode()).hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when the output is right)
# ---------------------------------------------------------------------------

def check_verify(op: Op, out_dir: str) -> list[str]:
    suite = op.expect["suite"]
    try:
        with open(os.path.join(out_dir, f"{suite}.txt")) as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(out_dir, f"{suite}.csv")) as fh:
            rows = fh.read().splitlines()
    except OSError as exc:
        return [f"{suite}: report missing ({exc})"]
    problems = []
    if not lines or lines[-1] != f"SUITE PASS {suite}":
        problems.append(f"{suite}: last report line is {lines[-1] if lines else ''!r}")
    if len(rows) != len(lines):  # header + one row per report vs reports + verdict line
        problems.append(f"{suite}: {len(rows) - 1} csv rows for {len(lines) - 1} reports")
    return problems


def _manifest(out_dir: str) -> dict[str, str]:
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def check_sample(op: Op, out_dir: str) -> list[str]:
    exp = op.expect
    tag = " ".join(op.argv[1:3])
    try:
        manifest = _manifest(out_dir)
        ensembles = read_ensembles(os.path.join(out_dir, "curves.txt"))
    except (OSError, ValueError) as exc:
        return [f"{tag}: unreadable output ({type(exc).__name__}: {exc})"]
    problems = []
    if manifest.get("n_written") != str(exp["n"]) or len(ensembles) != exp["n"]:
        problems.append(f"{tag}: n_written={manifest.get('n_written')} read={len(ensembles)} want {exp['n']}")
    upper, lower = Barrier.plus_inf(), Barrier.minus_inf()
    for idx, ens in enumerate(ensembles):
        if ens.interval != Interval(0.0, 1.0) or ens.m != exp["m"] or ens.k != len(exp["x"]):
            problems.append(f"{tag}: ensemble {idx} has shape k={ens.k} m={ens.m} on {ens.interval}")
            break
        if not (np.allclose(ens.values[:, 0], exp["x"], rtol=0, atol=1e-12)
                and np.allclose(ens.values[:, -1], exp["y"], rtol=0, atol=1e-12)):
            problems.append(f"{tag}: ensemble {idx} endpoints do not match the request")
            break
        if exp["kind"] != "bridge" and not check_avoiding(ens, upper, lower):
            problems.append(f"{tag}: ensemble {idx} is not avoiding")
            break
    return problems


def output_hash(out_dir: str) -> str:
    """sha256 over the files a sample request writes, for the byte-identity re-run."""
    h = hashlib.sha256()
    for name in ("curves.txt", "manifest.txt"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
