import numpy as np
import pytest

from bridgelines import cli, walk
from bridgelines.core import Barrier, Interval, LatticeParams, WeylVector, read_ensembles


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


def test_enumerate_matches_module(tmp_path):
    out = tmp_path / "e"
    rc = run(["enumerate", "--steps", "2", "--x-units", "0", "--y-units", "0", "--out", str(out)])
    assert rc == 0
    got = read_ensembles(out / "configs.txt")
    lat = LatticeParams(Interval(0, 1), 2)
    spec = walk.WalkEnsembleSpec(
        lat, WeylVector((0.0,)), WeylVector((0.0,)), Barrier.plus_inf(), Barrier.minus_inf()
    )
    expect = walk.enumerate_avoiding_configs(spec)
    assert len(got) == len(expect) == 3
    for a, b in zip(got, expect):
        assert np.allclose(a.values, b.values)


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


def test_verify_reports_exhausted_rejection_as_failure(tmp_path, capsys, monkeypatch):
    def exhausted(spec, n, rng, max_attempts=0):
        raise walk.RejectionExhausted(1234, "0/5 accepted in 1234 draws")

    monkeypatch.setattr(cli.suites.avoid, "sample_avoiding_batch", exhausted)
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
        ["--suite", "pw", "--set", "pair_w=1"],  # window reaches outside the interval
        ["--suite", "detect", "--set", "planted=hidden", "--set", "n_seeds=1", "--set", "windows=(1, 4)"],
        ["--suite", "detect", "--set", "planted=hiden"],
        ["--suite", "detect", "--set", "n_seeds=0"],
        ["--suite", "convergence", "--set", "scales=()"],
        ["--suite", "convergence", "--set", "n_samples=0"],
        ["--suite", "convergence", "--set", "scales=(32,33)"],
    ):
        assert run(["verify", *argv, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_unknown_sample_kind_is_usage_error(tmp_path, capsys):
    # argparse rejects the choice before cmd_sample runs
    assert run(["sample", "--kind", "wrong", "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()
    bad = [["--kind", kind, "--n-samples", "0"] for kind in ("bridge", "avoid", "walk", "glauber")]
    bad += [["--kind", kind, "--max-attempts", n] for kind in ("avoid", "walk") for n in ("0", "-3")]
    bad += [["--kind", "glauber", "--events-per-sample", "0"],
            ["--kind", "glauber", "--x-units", "2,0", "--y-units", "2"]]
    for argv in bad:
        assert run(["sample", *argv, "--out", str(tmp_path / "z")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "z").exists()
