"""Acceptance gate: every verification suite at its contract scale, one line per criterion.

Criteria 1-10 run the named suites at their default desk-scale settings with a
fixed seed; criterion 11 checks byte-identical reruns of a CLI verify command.
The suite prints PASS/FAIL per criterion so a bare `pytest -v` run doubles as
the acceptance report.
"""

import numpy as np

from bridgelines import cli, suites

SEED = 1


def _run(name, criterion, **overrides):
    result = suites.run_suite(name, seed=SEED, **overrides)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[criterion {criterion}] {status}: suite {name}")
    for line in result.lines():
        print("   ", line)
    assert result.passed, f"criterion {criterion} failed:\n" + "\n".join(result.lines())
    return result


def test_criterion_01_reflection_formula():
    # Monte Carlo bridge-max exceedance matches exp(-2 beta (beta - a) / T)
    # within 3 binomial SE plus the (shrinking) discretization allowance
    _run("reflection", 1)


def test_criterion_02_conditioned_walk_exactness():
    # all N <= 6, |z| <= N vs enumeration (chi-square), telescoping to 1e-9
    _run("walk-exact", 2)


def test_criterion_03_weak_convergence():
    # KS distance to the Gaussian midpoint law decreasing in n, < 0.02 at n=32
    _run("convergence", 3)


def test_criterion_04_glauber_stationarity():
    # 3-state instance and a 104-state k=2 instance within TV 0.02 of uniform
    _run("glauber-stationarity", 4)


def test_criterion_05_monotone_coupling():
    # zero pathwise ordering violations across 100 seeds x 10^4 events, plus
    # one-sided KS dominance on avoiding-law marginals
    _run("coupling", 5)


def test_criterion_06_gibbs_resampling_invariance():
    # six resampled-block marginals match at the suite threshold and the
    # planted-defect negative control is detected below 1e-6
    _run("gibbs", 6)


def test_criterion_07_tail_bounds():
    # k in {1,2,3}, r in {0.5,1,1.5}: empirical frequencies respect each
    # bound's direction at the Wilson CI edges, c0 from the certification scan
    _run("tails", 7)


def test_criterion_08_pw_mechanism():
    # (a) free-bridge ratio estimates contain 1 for every window
    # (b) calibrated two-curve ensemble matches the direct hidden-curve CDF
    # (c) per-sample domination: given the hidden curve at the window's three times,
    # the top curve's exact conditional CDF at x1 exceeds the free bridge's times
    # 1{hidden <= x1} by more than rounding on fewer than the budget's share of rows
    _run("pw", 8)


def test_criterion_09_curve_count_detector():
    # 20/20 correct verdicts across seeds on both planted cases
    _run("detect", 9, n_seeds=10)


def test_criterion_10_transform_laws():
    # affine- and flip-transformed samples match directly sampled target laws
    _run("transforms", 10)


def test_criterion_11_determinism(tmp_path):
    argv = ["verify", "--suite", "tails", "--seed", "3", "--set", "n_samples=4000"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print("\n[criterion 11] PASS: repeated cmd_verify runs are byte-identical")
