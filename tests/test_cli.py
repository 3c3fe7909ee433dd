import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgelines import cli, walk
from bridgelines.core import Interval, LatticeParams, RejectionExhausted, check_avoiding, read_ensembles


def run(argv):
    return cli.main(argv)


def test_sample_bridge_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["sample", "--kind", "bridge", "--grid", "32", "--n-samples", "4", "--seed", "9"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert (out1 / "curves.txt").read_bytes() == (out2 / "curves.txt").read_bytes()
    assert (out1 / "manifest.txt").read_bytes() == (out2 / "manifest.txt").read_bytes()
    ens = read_ensembles(out1 / "curves.txt")
    assert len(ens) == 4 and ens[0].m == 32
    assert ens[0].values[0, 0] == 0.0 and ens[0].values[0, -1] == 0.0


def test_sample_avoid_writes_acceptance_stats(tmp_path):
    out = tmp_path / "av"
    rc = run([
        "sample", "--kind", "avoid", "--x-vec", "1,-1", "--y-vec", "1,-1",
        "--grid", "32", "--n-samples", "3", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    manifest = (out / "manifest.txt").read_text()
    assert "acceptance_rate=" in manifest and "candidates_drawn=" in manifest
    ens = read_ensembles(out / "curves.txt")
    assert all(e.k == 2 for e in ens)
    for e in ens:
        assert np.all(e.values[0] > e.values[1])


def test_sample_walk_and_glauber(tmp_path):
    rc = run([
        "sample", "--kind", "walk", "--n-scale", "2", "--x-units", "2,0",
        "--y-units", "2,0", "--n-samples", "2", "--seed", "3",
        "--out", str(tmp_path / "w"),
    ])
    assert rc == 0
    rc = run([
        "sample", "--kind", "glauber", "--n-scale", "2", "--x-units", "2,0",
        "--y-units", "2,0", "--n-samples", "3", "--burn-in", "200",
        "--events-per-sample", "20", "--seed", "3", "--out", str(tmp_path / "g"),
    ])
    assert rc == 0
    ens = read_ensembles(tmp_path / "g" / "curves.txt")
    assert len(ens) == 3


def test_sample_walk_honours_the_upper_barrier(tmp_path):
    # at n = 4 the top curve starts at 2 dx ~ 0.61 and its next level up, 3 dx ~ 0.92, is above f
    f = 0.8
    argv = ["sample", "--kind", "walk", "--n-scale", "4", "--x-units", "2,0", "--y-units", "2,0",
            "--n-samples", "20", "--seed", "3"]
    assert run(argv + ["--f-const", repr(f), "--out", str(tmp_path / "f")]) == 0
    assert run(argv + ["--out", str(tmp_path / "free")]) == 0
    ens = read_ensembles(tmp_path / "f" / "curves.txt")
    assert len(ens) == 20 and all(check_avoiding(e, f) for e in ens)
    free = read_ensembles(tmp_path / "free" / "curves.txt")
    assert not all(check_avoiding(e, f) for e in free)
    assert f"f_const={f!r}\n" in (tmp_path / "f" / "manifest.txt").read_text()


README_RUNS = {  # the README's sample and enumerate lines, with its flags
    "bridge": ["sample", "--kind", "bridge", "--a", "0", "--b", "1", "--x", "0", "--y", "0",
               "--grid", "512", "--n-samples", "100", "--seed", "7"],
    "avoid": ["sample", "--kind", "avoid", "--x-vec", "1,-1", "--y-vec", "1,-1", "--grid", "256",
              "--n-samples", "50", "--seed", "7"],
    "walk": ["sample", "--kind", "walk", "--n-scale", "8", "--x-units", "2,0", "--y-units", "2,0",
             "--n-samples", "20", "--seed", "7"],
    "glauber": ["sample", "--kind", "glauber", "--n-scale", "4", "--x-units", "2,0",
                "--y-units", "2,0", "--burn-in", "20000"],
    "enumerate": ["enumerate", "--steps", "2", "--x-units", "0", "--y-units", "0"],
    # constant barriers on each sampler, at levels off the dx lattice except enumerate's -1 dx
    "avoid-barriers": ["sample", "--kind", "avoid", "--x-vec", "1,0,-1", "--y-vec", "1,0,-1",
                       "--f-const", "2", "--g-const", "-2", "--grid", "64", "--n-samples", "20",
                       "--seed", "7"],
    "walk-barrier": ["sample", "--kind", "walk", "--n-scale", "8", "--x-units", "2,0", "--y-units", "2,0",
                     "--g-const", "-0.1", "--n-samples", "20", "--seed", "7"],
    "glauber-barrier": ["sample", "--kind", "glauber", "--n-scale", "4", "--x-units", "2,0",
                        "--y-units", "2,0", "--g-const", "-0.1", "--burn-in", "20000"],
    "enumerate-barrier": ["enumerate", "--steps", "4", "--x-units", "2,0", "--y-units", "2,0",
                          "--g-const-units", "-1"],
}
# sha256 of each output file, recorded with the per-value writer and the walk-major step loop;
# the barrier rows' curves were recorded while barriers were still interpolated curves, and the
# avoid, walk and glauber manifests once they recorded their barriers. Rejection rounds sized
# from the request moved the avoid manifests' counts, and the walk rows' curves and manifests:
# a walk round draws candidate after candidate, each candidate's walks together
README_DIGESTS = {
    ("bridge", "curves.txt"): "8cb576b8b4d60d4f3b6f5bf67d53ba6fd601b1303fdaf23b3b8b8c1c396bd325",
    ("bridge", "manifest.txt"): "454db1db670d9ab6dc8d56eff564e978b3eaf78dd414c7feeb86f52c5bdbe1c7",
    ("avoid", "curves.txt"): "bb97cb82662eda15e8271dd5758d873fa06b7aec129d7dfe7d1e1bf5508a1208",
    ("avoid", "manifest.txt"): "2e399c3c771270201cee8553438215c6aded3467416e8f81a5a239f1925d4134",
    ("walk", "curves.txt"): "2a0390d86f750012f915c97e0e362519ac05f0f6301b0bb221dec07b5c95ac27",
    ("walk", "manifest.txt"): "ac91207fc3727ff85ed67954f662865932040737cf7062f7466d63787226a991",
    ("glauber", "curves.txt"): "9ce73e098cce62da9d2909ebe42ea3fe27536848ad184926de50d7a88e6e0330",
    ("glauber", "manifest.txt"): "1440d8b926a74b5b4dd6a0061a4488154275eec33012cd85cd03d4cbbfb33bb5",
    ("enumerate", "configs.txt"): "e9088122661fd801b1da82f3df4d1fa86667ef0421e1c025103c0118a4977906",
    ("avoid-barriers", "curves.txt"): "c58dc6c627569103d6b106b567f2fa67eb3b963fc45c9dff3aabdc521b4173c3",
    ("avoid-barriers", "manifest.txt"): "6c8d7c034113550cdd8b62c3da7f168cfb7d56878e672696cf513c63e14788a1",
    ("walk-barrier", "curves.txt"): "33f5018a2bf68a1286a3400be87fefd388332366333df6acdf54cca7c92583d5",
    ("walk-barrier", "manifest.txt"): "cdaf52199c297ed86ed063675965d28169b90201276ccd2c5c2c51f1a5a28f3a",
    ("glauber-barrier", "curves.txt"): "56b60c4711b651f54a7438a647f4e5ca7dd6da3a04cd184d6551a0a763bcadc4",
    ("glauber-barrier", "manifest.txt"): "eb0e8f50e6cf0b637785e45223ee018ed8200d78a8d7df1e7e73e6422fab20f6",
    ("enumerate-barrier", "configs.txt"): "84b31f7341295e2c76e0bdb783aefdbf2c36ce13c2531e2614fcd021de085095",
}


def test_readme_invocations_are_byte_identical(tmp_path):
    for kind, argv in README_RUNS.items():
        assert run(argv + ["--out", str(tmp_path / kind)]) == 0
    got = {(kind, name): hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
           for kind, name in README_DIGESTS}
    assert got == README_DIGESTS
    # a barrier run's manifest names its barrier, so it differs from the free run's
    assert got["glauber", "manifest.txt"] != got["glauber-barrier", "manifest.txt"]


def test_main_dispatches_to_the_current_command_function(tmp_path, monkeypatch):
    assert run(["enumerate", "--steps", "1", "--x-units", "0", "--y-units", "0",
                "--out", str(tmp_path / "e")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_sample", lambda args: seen.append(args.kind) or 0)
    assert run(["sample", "--kind", "walk", "--out", str(tmp_path / "s")]) == 0
    assert seen == ["walk"] and not (tmp_path / "s").exists()


def test_enumerate_matches_module(tmp_path):
    out = tmp_path / "e"
    rc = run(["enumerate", "--steps", "2", "--x-units", "0", "--y-units", "0", "--out", str(out)])
    assert rc == 0
    got = read_ensembles(out / "configs.txt")
    lat = LatticeParams(Interval(0, 1), 2)
    spec = walk.WalkEnsembleSpec(lat, (0,), (0,))
    expect = walk.enumerate_avoiding_configs(spec)
    assert len(got) == len(expect) == 3
    for a, b in zip(got, expect):
        assert np.allclose(a.values, b * lat.dx)


def test_lattice_barriers_on_dx_multiples_are_strict(tmp_path):
    # a barrier at exactly -1 dx: the path through -1 dx at t = 1/3 touches it
    out = tmp_path / "e"
    assert run(["enumerate", "--steps", "3", "--x-units", "0", "--y-units", "0", "--g-const-units", "-1",
                "--out", str(out)]) == 0
    configs = read_ensembles(out / "configs.txt")
    assert len(configs) == 4 and all(np.all(c.values > -LatticeParams(Interval(0, 1), 3).dx) for c in configs)
    # a glauber request with g = -3 dx at n = 5 is valid: the chain keeps off the barrier
    g = -3 * LatticeParams.scaled(Interval(0, 1), 5).dx
    assert run(["sample", "--kind", "glauber", "--n-scale", "5", "--x-units=-1,-2", "--y-units=-1,-2",
                f"--g-const={g!r}", "--burn-in", "20000", "--out", str(tmp_path / "g")]) == 0
    ens = read_ensembles(tmp_path / "g" / "curves.txt")
    assert len(ens) == 100 and all(np.all(e.values[-1] > g) for e in ens)


def test_verify_deterministic_and_exit_codes(tmp_path):
    argv = ["verify", "--suite", "walk-exact", "--seed", "5",
            "--set", "n_samples=5000", "--set", "max_steps=4"]
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    for name in ("walk-exact.txt", "walk-exact.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_convergence_rerun_is_byte_identical(tmp_path):
    argv = ["verify", "--suite", "convergence", "--seed", "3"]
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    for name in ("convergence.txt", "convergence.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_reflection_rerun_is_byte_identical(tmp_path):
    argv = ["verify", "--suite", "reflection", "--seed", "4", "--set", "n_samples=3000",
            "--set", "shrink_samples=3000", "--set", "grid_points=256", "--set", "shrink_grid_coarse=64"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(argv + ["--out", str(out1)]) == run(argv + ["--out", str(out2)])
    for name in ("reflection.txt", "reflection.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("setting", [
    "n_samples=0", "n_samples=-5", "shrink_samples=0", "grid_points=0", "grid_points=1",
    "shrink_grid_coarse=0", "cases=()", "cases=((0.0,0.0,1.0),)", "cases=((1.0,0.0),)",
    "cases=((1.0,0.0,1e999),)", "cases=((1e999,0.0,1.0),)", "cases=((True,0.0,1.0),)",
    f"cases=((1.0,{10 ** 400},1.0),)",
])
@pytest.mark.filterwarnings("error")  # a numpy warning on the way would fail the run instead
def test_verify_reflection_bad_config_is_usage_error(tmp_path, capsys, setting):
    # rejected before any sampling: exit 2, one line on stderr, no warning or traceback
    assert run(["verify", "--suite", "reflection", "--set", setting, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


def test_verify_reports_exhausted_rejection_as_failure(tmp_path, capsys, monkeypatch):
    def exhausted(interval, x_vec, y_vec, times, n, rng, max_attempts=0):
        raise RejectionExhausted(1234, "0/5 accepted in 1234 draws")

    monkeypatch.setattr(cli.suites.avoid, "sample_avoiding_at", exhausted)
    out = tmp_path / "v"
    assert run(["verify", "--suite", "gibbs", "--seed", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "SUITE FAIL gibbs" in captured.out
    rows = (out / "gibbs.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("gibbs-rejection-exhausted,0.0,,,,1234,0,FAIL,2,")


def test_verify_config_file_overrides(tmp_path):
    cfg = tmp_path / "cfg.txt"
    # an int is accepted for a float field (telescope_tol)
    cfg.write_text("# comment line\nn_samples = 4000\nmax_steps = 3\ntelescope_tol = 1\n")
    out = tmp_path / "v"
    rc = run(["verify", "--suite", "walk-exact", "--seed", "1",
              "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    txt = (out / "walk-exact.txt").read_text()
    assert "N<=3" in txt


def test_verify_unknown_suite_and_bad_key(tmp_path, capsys):
    for argv in (
        ["--suite", "nope"],
        ["--suite", "tails", "--set", "bogus=1"],
        ["--suite", "tails", "--set", "n_samples=abc"],
        ["--suite", "tails", "--set", "rs=0.5"],
        ["--suite", "tails", "--set", "n_samples=0"],
        ["--suite", "tails", "--set", "ks=()"],
        ["--suite", "tails", "--set", "rs=()"],
        ["--suite", "tails", "--set", "rs=(0.5,'a')"],  # wrong element type
        ["--suite", "tails", "--set", "n_samples=True"],  # a bool is no count
        ["--suite", "gibbs", "--set", "marginal_cols=('a',)"],
        ["--suite", "glauber-stationarity", "--set", "retained=0"],
        ["--suite", "glauber-stationarity", "--set", "burn_seeds=0"],
        ["--suite", "glauber-stationarity", "--set", "tv_tol=-1"],
        ["--suite", "coupling", "--set", "n_chain_seeds=0"],
        ["--suite", "coupling", "--set", "n_marginal_samples=0"],
        ["--suite", "transforms", "--set", "n_samples=0"],
        ["--suite", "transforms", "--set", "grid_points=3"],  # column 0 is the fixed entrance
        ["--suite", "gibbs", "--set", "marginal_cols=(10,)"],
        ["--suite", "gibbs", "--set", "sub_cols=(0, 192)"],
        ["--suite", "pw", "--set", "pair_w=1"],  # window reaches outside the interval
        ["--suite", "pw", "--set", "n_pair=0"],
        ["--suite", "pw", "--set", "n_pilot=0"],
        ["--suite", "pw", "--set", "n_single=0"],
        ["--suite", "pw", "--set", "n_domination=0"],
        ["--suite", "pw", "--set", "domination_budget=-1"],
        ["--suite", "pw", "--set", "windows=()"],
        ["--suite", "pw", "--set", "pair_interval=(0.0,)"],
        ["--suite", "detect", "--set", "planted=hidden", "--set", "n_seeds=1", "--set", "windows=(1, 4)"],
        ["--suite", "detect", "--set", "planted=hiden"],
        ["--suite", "detect", "--set", "n_seeds=0"],
        ["--suite", "convergence", "--set", "scales=()"],
        ["--suite", "convergence", "--set", "n_samples=0"],
        ["--suite", "convergence", "--set", "scales=(32,33)"],
        ["--suite", "walk-exact", "--set", "n_samples=0"],
        ["--suite", "walk-exact", "--set", "max_steps=0"],
        ["--suite", "walk-exact", "--set", "telescope_cases=((3,7),)"],  # |z| > N
        ["--suite", "detect", "--set", "cap=0"],
        ["--suite", "detect", "--set", "n_samples=1"],  # a standard error needs two samples
        ["--suite", "tails", "--config", str(tmp_path / "no-such-file")],
        ["--suite", "tails", "--config", str(tmp_path)],  # a directory
    ):
        assert run(["verify", *argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "x").exists()


def test_unknown_sample_kind_is_usage_error(tmp_path, capsys):
    # argparse rejects the choice before cmd_sample runs
    assert run(["sample", "--kind", "wrong", "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()
    bad = [["--kind", kind, "--n-samples", "0"] for kind in ("bridge", "avoid", "walk", "glauber")]
    bad += [["--kind", kind, "--max-attempts", n] for kind in ("avoid", "walk") for n in ("0", "-3")]
    bad += [["--kind", "glauber", "--events-per-sample", "0"],
            ["--kind", "glauber", "--x-units", "2,0", "--y-units", "2"],
            ["--kind", "glauber", "--n-scale", "1", "--x-units", "0", "--y-units", "0"]]
    bad += [["--kind", kind, f"--{side}-const", "nan"] for kind in ("avoid", "walk", "glauber")
            for side in ("f", "g")]
    # the walk's top curve starts at 2 dx ~ 0.61, above f; glauber and bridge take no such barrier
    bad += [["--kind", "walk", "--n-scale", "4", "--x-units", "2,0", "--y-units", "2,0", "--f-const", "0.1"],
            ["--kind", "glauber", "--f-const", "0.1"],
            ["--kind", "bridge", "--f-const", "1"],
            ["--kind", "bridge", "--g-const", "-1"]]
    # lattice ends must clear the barrier and, for the chain, decrease strictly
    bad += [["--kind", "walk", "--g-const", "0.0", "--n-samples", "5"],
            ["--kind", "glauber", "--g-const", "0.0"],
            ["--kind", "glauber", "--x-units", "0,2", "--y-units", "0,2"],
            ["--kind", "glauber", "--x-units", "2,2", "--y-units", "2,0"]]
    # requests too large to allocate: numpy refuses the allocation at once, touching no memory
    bad += [["--kind", kind, "--n-samples", str(10**12)] for kind in ("avoid", "walk", "bridge")]
    enumerate_bad = [["enumerate", "--steps", "2", "--x-units", "0", "--y-units", "0", "--g-const-units", "0"]]
    # one spec checks the ends of the walk sampler, the chain and the enumerator alike: units that do not
    # decrease strictly, and entrance and exit of unequal lengths
    ends = [["--x-units", "0,2", "--y-units", "0,2"], ["--x-units", "2,2", "--y-units", "2,0"],
            ["--x-units", "2,0", "--y-units", "2"]]
    bad += [["--kind", "walk", *e] for e in ends]
    enumerate_bad += [["enumerate", "--steps", "2", *e] for e in ends]
    # the chain refuses an upper barrier even where it clears the ends
    bad += [["--kind", "glauber", "--f-const", "5"]]
    # lattice units too large for a float: u * dx would overflow
    huge = "1" + "0" * 400 + ",0"
    bad += [["--kind", kind, "--x-units", huge, "--y-units", huge] for kind in ("walk", "glauber")]
    enumerate_bad += [["enumerate", "--steps", "2", "--x-units", huge, "--y-units", huge]]
    for argv in [["sample", *argv] for argv in bad] + enumerate_bad:
        assert run([*argv, "--out", str(tmp_path / "z")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "z").exists()


def test_glauber_request_too_large_to_hold_fails_at_once(tmp_path):
    # the chain allocates its snapshots before the first event, so numpy refuses 10^12 of them at
    # once; run in a fresh interpreter under a timeout, so that a run that never ends fails here
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "g"
    proc = subprocess.run([sys.executable, "-m", "bridgelines", "sample", "--kind", "glauber",
                           "--n-samples", str(10**12), "--out", str(out)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == "" and not out.exists()


def test_non_finite_inputs_are_usage_errors(tmp_path, capsys):
    for argv in (
        ["--kind", "bridge", "--x", "nan"],
        ["--kind", "bridge", "--x", "inf"],
        ["--kind", "bridge", "--b", "inf"],
        ["--kind", "walk", "--a=-inf"],
        ["--kind", "avoid", "--x-vec", "1,nan"],
        ["--kind", "avoid", "--x-vec", "nan,0"],
    ):
        assert run(["sample", *argv, "--out", str(tmp_path / "z")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "barrier" not in err, err
    assert not (tmp_path / "z").exists()


# a fresh interpreter runs the requests through cli.main, then prints their exit codes and
# the scipy modules that are loaded
_IMPORT_PROBE = """
import json, sys
from bridgelines import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh_process_run(requests, cwd):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(requests)],
                          capture_output=True, text=True, timeout=300, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])  # [exit codes, loaded scipy modules]


def test_sample_enumerate_and_usage_errors_never_load_scipy(tmp_path):
    requests = [
        ["sample", "--kind", "bridge", "--grid", "8", "--n-samples", "2", "--out", "b"],
        ["sample", "--kind", "avoid", "--x-vec", "1,-1", "--y-vec", "1,-1", "--grid", "8",
         "--n-samples", "2", "--out", "a"],
        ["sample", "--kind", "walk", "--n-scale", "2", "--x-units", "2,0", "--y-units", "2,0",
         "--n-samples", "2", "--out", "w"],
        ["sample", "--kind", "glauber", "--n-scale", "2", "--x-units", "2,0", "--y-units", "2,0",
         "--n-samples", "2", "--burn-in", "20", "--out", "g"],
        ["enumerate", "--steps", "2", "--x-units", "0", "--y-units", "0", "--out", "e"],
        ["sample", "--kind", "bridge", "--x", "nan", "--out", "bad"],
        ["verify", "--suite", "detect", "--set", "planted=hiden", "--out", "bad"],
        ["--help"],
    ]
    codes, scipy_modules = _fresh_process_run(requests, tmp_path)
    assert codes == [0, 0, 0, 0, 0, 2, 2, 0]
    assert scipy_modules == []


def test_verify_loads_scipy_inside_its_statistics(tmp_path):
    # the counterpart of the test above, so that it cannot pass because nothing loads scipy
    request = ["verify", "--suite", "pw", "--set", "n_single=200", "--set", "n_pair=100",
               "--set", "n_pilot=100", "--set", "n_domination=10", "--out", "v"]
    codes, scipy_modules = _fresh_process_run([request], tmp_path)
    assert codes[0] in (0, 1)
    assert "scipy.special" in scipy_modules
