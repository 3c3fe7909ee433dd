"""Experiment runner: seeded, declarative configs, machine-readable outputs.

Subcommands: sample (write ensembles + manifest), verify (run a named suite,
exit 0 iff it passes) and enumerate (exhaustive lattice oracle dumps). All
randomness flows from --seed through named stream derivation, so identical
configs produce byte-identical outputs; no timestamps or machine state enter
any file.
"""

from __future__ import annotations

import argparse
import ast
import csv
import os
import sys
from functools import lru_cache

from . import avoid, bridge, glauber, suites, walk
from .core import (
    Interval,
    LatticeParams,
    LineEnsemble,
    RejectionExhausted,
    RngSeed,
    WeylVector,
    write_ensembles,
)


def _parse_kv_file(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _coerce(value: str):
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return value


def _collect_overrides(args) -> dict:
    overrides: dict = {}
    if args.config:
        overrides.update({k: _coerce(v) for k, v in _parse_kv_file(args.config).items()})
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = _coerce(val.strip())
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _write_reports(result: suites.SuiteResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, f"{result.name}.txt")
    with open(txt_path, "w") as fh:
        for line in result.lines():
            fh.write(line + "\n")
    csv_path = os.path.join(out_dir, f"{result.name}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "statistic", "p_value", "ci_lo", "ci_hi", "n1", "n2", "verdict", "seed", "details"])
        for r in result.reports:
            writer.writerow([
                r.name,
                repr(r.statistic),
                "" if r.p_value is None else repr(r.p_value),
                "" if r.ci is None else repr(r.ci[0]),
                "" if r.ci is None else repr(r.ci[1]),
                r.n1,
                r.n2,
                r.verdict,
                r.seed_label,
                r.details,
            ])


def cmd_verify(args) -> int:
    result = suites.run_suite(args.suite, **_collect_overrides(args))
    _write_reports(result, args.out)
    for line in result.lines():
        print(line)
    return 0 if result.passed else 1


def _vector(text: str) -> WeylVector:
    return WeylVector(tuple(float(v) for v in text.split(",")))


def _units(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def cmd_sample(args) -> int:
    if args.n_samples < 1:
        raise ValueError(f"--n-samples must be at least 1, got {args.n_samples}")
    if args.kind in ("avoid", "walk") and args.max_attempts < 1:
        raise ValueError(f"--max-attempts must be at least 1, got {args.max_attempts}")
    if args.kind == "glauber" and args.events_per_sample < 1:
        raise ValueError(f"--events-per-sample must be at least 1, got {args.events_per_sample}")
    interval = Interval(args.a, args.b)
    seed = RngSeed(args.seed)
    manifest: list[tuple[str, object]] = [
        ("kind", args.kind), ("a", args.a), ("b", args.b), ("seed", args.seed),
        ("n_samples", args.n_samples), ("grid", args.grid),
    ]
    ensembles: list[LineEnsemble] = []
    try:
        if args.kind == "bridge":
            rng = seed.derive("sample/bridge").generator()
            spec = bridge.BridgeSpec(interval, args.x, args.y, args.grid)
            paths = bridge.sample_bridge_paths(spec, args.n_samples, rng)
            ensembles = [LineEnsemble(interval, p[None, :]) for p in paths]
            manifest += [("x", args.x), ("y", args.y)]
        elif args.kind == "avoid":
            xv, yv = _vector(args.x_vec), _vector(args.y_vec)
            spec = avoid.AvoidSpec(interval, xv, yv, args.f_const, args.g_const, args.grid)
            vals, drawn, seen = avoid.sample_avoiding_batch(
                spec, args.n_samples, seed.derive("sample/avoid").generator(), args.max_attempts
            )
            ensembles = [LineEnsemble(interval, v) for v in vals]
            manifest += [
                ("x_vec", args.x_vec), ("y_vec", args.y_vec),
                ("candidates_drawn", drawn), ("accepted_seen", seen),
                ("acceptance_rate", repr(seen / drawn)),
            ]
        elif args.kind == "walk":
            lat = LatticeParams.scaled(interval, args.n_scale)
            xu, yu = _units(args.x_units), _units(args.y_units)
            xv = WeylVector(tuple(u * lat.dx for u in xu))
            yv = WeylVector(tuple(u * lat.dx for u in yu))
            spec = walk.WalkEnsembleSpec(lat, xv, yv, g=args.g_const)
            ensembles, drawn, seen = walk.sample_avoiding_walks_batch(
                spec, args.n_samples, seed.derive("sample/walk").generator(), args.max_attempts
            )
            manifest += [
                ("n_scale", args.n_scale), ("dt", repr(lat.dt)), ("dx", repr(lat.dx)),
                ("x_units", args.x_units), ("y_units", args.y_units),
                ("candidates_drawn", drawn), ("accepted_seen", seen),
                ("acceptance_rate", repr(seen / drawn)),
            ]
        else:  # glauber, the last of argparse's choices
            lat = LatticeParams.scaled(interval, args.n_scale)
            xu, yu = _units(args.x_units), _units(args.y_units)
            rng = seed.derive("sample/glauber").generator()
            init = glauber.maximal_state(lat, xu, yu, args.g_const)
            state, _ = glauber.simulate_chain(init, args.burn_in, rng)
            _, units = glauber.simulate_chain(
                state, args.n_samples * args.events_per_sample, rng, record_every=args.events_per_sample
            )
            ensembles = [LineEnsemble(lat.interval, u * lat.dx) for u in units]
            manifest += [
                ("n_scale", args.n_scale), ("x_units", args.x_units), ("y_units", args.y_units),
                ("burn_in", args.burn_in), ("events_per_sample", args.events_per_sample),
            ]
    except RejectionExhausted as exc:
        print(f"error: rejection exhausted after {exc.attempts} attempts", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    curves_path = os.path.join(args.out, "curves.txt")
    write_ensembles(curves_path, ensembles)
    manifest.append(("curves_file", "curves.txt"))
    manifest.append(("n_written", len(ensembles)))
    with open(os.path.join(args.out, "manifest.txt"), "w") as fh:
        for key, val in manifest:
            fh.write(f"{key}={val}\n")
    print(f"wrote {len(ensembles)} ensembles to {curves_path}")
    return 0


def cmd_enumerate(args) -> int:
    interval = Interval(args.a, args.b)
    lat = LatticeParams(interval, args.steps)
    xu, yu = _units(args.x_units), _units(args.y_units)
    xv = WeylVector(tuple(u * lat.dx for u in xu))
    yv = WeylVector(tuple(u * lat.dx for u in yu))
    spec = walk.WalkEnsembleSpec(lat, xv, yv, g=args.g_const_units * lat.dx)
    configs = walk.enumerate_avoiding_configs(spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "configs.txt")
    write_ensembles(path, configs)
    print(f"{len(configs)} avoiding configurations -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgelines",
        description="Samplers and statistical verification for avoiding Brownian bridge ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="sample ensembles and write them in the columnar format")
    p_sample.add_argument("--kind", required=True, choices=["bridge", "avoid", "walk", "glauber"])
    p_sample.add_argument("--a", type=float, default=0.0)
    p_sample.add_argument("--b", type=float, default=1.0)
    p_sample.add_argument("--x", type=float, default=0.0, help="bridge start value")
    p_sample.add_argument("--y", type=float, default=0.0, help="bridge end value")
    p_sample.add_argument("--x-vec", default="1,-1", help="entrance vector (comma separated)")
    p_sample.add_argument("--y-vec", default="1,-1", help="exit vector (comma separated)")
    p_sample.add_argument("--x-units", default="2,0", help="lattice entrance in dx units")
    p_sample.add_argument("--y-units", default="2,0", help="lattice exit in dx units")
    p_sample.add_argument("--f-const", type=float, default=float("inf"), help="constant upper barrier")
    p_sample.add_argument("--g-const", type=float, default=float("-inf"), help="constant lower barrier")
    p_sample.add_argument("--grid", type=int, default=512)
    p_sample.add_argument("--n-scale", type=int, default=4, help="lattice scale n (n^2 steps)")
    p_sample.add_argument("--n-samples", type=int, default=100)
    p_sample.add_argument("--max-attempts", type=int, default=10**6)
    p_sample.add_argument("--burn-in", type=int, default=10000)
    p_sample.add_argument("--events-per-sample", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=1)
    p_sample.add_argument("--out", default="out-sample")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--config", default=None, help="key=value file of suite config overrides")
    p_verify.add_argument("--set", action="append", default=None, metavar="KEY=VALUE",
                          help="override one suite config field (Python literal values)")
    p_verify.add_argument("--out", default="out-verify")

    p_enum = sub.add_parser("enumerate", help="exhaustively enumerate avoiding lattice configs")
    p_enum.add_argument("--a", type=float, default=0.0)
    p_enum.add_argument("--b", type=float, default=1.0)
    p_enum.add_argument("--steps", type=int, required=True, help="number of lattice time steps")
    p_enum.add_argument("--x-units", required=True)
    p_enum.add_argument("--y-units", required=True)
    p_enum.add_argument("--g-const-units", type=float, default=float("-inf"))
    p_enum.add_argument("--out", default="out-enumerate")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up per call, so the parser holds no reference to the command functions
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
