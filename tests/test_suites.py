"""Report text of the statistics-backed suites, pinned at small sample sizes.

The acceptance gate judges each criterion on PASS/FAIL only; this test pins
every report line and its details string, so a renamed, reordered or changed
report shows up. The sizes are small for speed, so verdicts here carry no
meaning: at 200 samples (400 in its control) the gibbs negative control lacks the power to fire.
"""

import tracemalloc

import numpy as np
import pytest

from bridgelines import avoid, suites
from bridgelines.core import DomainError

CASES = {
    "pw": dict(n_single=2000, n_pair=300, n_pilot=300, n_domination=20),
    "detect": dict(planted="both", n_seeds=1, n_samples=2000, n_pilot=300),
    "glauber-stationarity": dict(retained=5000, burn_seeds=8),
    "coupling": dict(n_chain_seeds=4, chain_events=500, n_marginal_samples=300),
    "gibbs": dict(n_samples=200),
    "tails": dict(n_samples=300),
    "transforms": dict(n_samples=300),
}

# (line, details) per report, then the suite verdict line; seed 1
EXPECTED = {
    'pw': [
        ('PASS         pw-single-w4                                 stat=1.00014 p=- ci=[0.997987,1.0023] n=(2000,0) seed=1',
         'se=0.0007186 capped={10: 1.00014, 100: 1.00014, 1000: 1.00014} degenerate=0'),
        ('PASS         pw-single-w8                                 stat=1.00009 p=- ci=[0.997736,1.00245] n=(2000,0) seed=1',
         'se=0.0007849 capped={10: 1.00009, 100: 1.00009, 1000: 1.00009} degenerate=0'),
        ('PASS         pw-single-w16                                stat=1.00014 p=- ci=[0.997369,1.00291] n=(2000,0) seed=1',
         'se=0.0009241 capped={10: 1.00014, 100: 1.00014, 1000: 1.00014} degenerate=0'),
        ('PASS         pw-single-w32                                stat=0.99981 p=- ci=[0.997456,1.00216] n=(2000,0) seed=1',
         'se=0.0007848 capped={10: 0.99981, 100: 0.99981, 1000: 0.99981} degenerate=0'),
        ('PASS         pw-sandwich-w32                              stat=0.998896 p=- ci=[0.943936,1.05386] n=(300,0) seed=1',
         'direct=1 x1=1.4125 |diff|=0.0011035 tol=0.05496 capped={10: 0.9989, 100: 0.9989, 1000: 0.9989} degenerate=0'),
        ('PASS         pw-domination-oracle                         stat=0 p=- ci=- n=(20,0) seed=1',
         'violations=0 checked=20 budget=0.001'),
        ('SUITE PASS pw', None),
    ],
    'detect': [
        ('PASS         detector-verdicts                            stat=2 p=- ci=- n=(2,0) seed=1',
         '2/2 correct verdicts (planted=both)'),
        ('SUITE PASS detect', None),
    ],
    'glauber-stationarity': [
        ('PASS         stationarity-3state-k1                       stat=0.00333333 p=- ci=- n=(5000,3) seed=1',
         'tol=0.02 states=3 burn=12 thin=1'),
        ('FAIL         stationarity-104state-k2                     stat=0.0682769 p=- ci=- n=(5000,104) seed=1',
         'tol=0.02 states=104 burn=372 thin=23'),
        ('SUITE FAIL glauber-stationarity', None),
    ],
    'coupling': [
        ('PASS         coupling-pathwise-4seeds                     stat=0 p=- ci=- n=(2000,0) seed=1',
         'ordering violations across coupled chain runs'),
        ('PASS         dominance-endpoints-curve0-col32             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-endpoints-curve0-col64             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-endpoints-curve0-col96             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-endpoints-curve1-col32             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-endpoints-curve1-col64             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-endpoints-curve1-col96             stat=0 p=1 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-barrier-curve0-col64               stat=0.06 p=0.32 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('PASS         dominance-barrier-curve1-col64               stat=0.01 p=0.961 ci=- n=(300,300) seed=1',
         'alternative=greater floor=1e-05'),
        ('SUITE PASS coupling', None),
    ],
    'gibbs': [
        ('PASS         gibbs-marginal-curve0-col72                  stat=0.06 p=0.843 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         gibbs-marginal-curve0-col96                  stat=0.055 p=0.906 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         gibbs-marginal-curve0-col120                 stat=0.095 p=0.308 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         gibbs-marginal-curve0-col136                 stat=0.095 p=0.308 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         gibbs-marginal-curve0-col160                 stat=0.06 p=0.843 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         gibbs-marginal-curve0-col184                 stat=0.08 p=0.518 ci=- n=(200,200) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('FAIL         gibbs-negative-control                       stat=0.0416548 p=0.0417 ci=- n=(400,0) seed=1',
         'planted defect must be detected: min p < 1e-06'),
        ('SUITE FAIL gibbs', None),
    ],
    'tails': [
        ('PASS         tail-mid-high-k1-r0.5                        stat=0.14 p=- ci=[0.0903461,0.210625] n=(300,0) seed=1',
         'upper bound=0.15938'),
        ('PASS         tail-mid-low-k1-r0.5                         stat=0.16 p=- ci=[0.106558,0.233248] n=(300,0) seed=1',
         'lower bound=0.0918399'),
        ('VACUOUS      tail-inf-k1-r0.5                             stat=0.326667 p=- ci=[0.251516,0.411915] n=(300,0) seed=1',
         'upper bound=1.39221'),
        ('PASS         tail-mid-high-k1-r1.0                        stat=0.0333333 p=- ci=[0.0134105,0.0804406] n=(300,0) seed=1',
         'upper bound=0.0237083'),
        ('PASS         tail-mid-low-k1-r1.0                         stat=0.02 p=- ci=[0.00629791,0.0616633] n=(300,0) seed=1',
         'lower bound=0.0136615'),
        ('PASS         tail-inf-k1-r1.0                             stat=0.0166667 p=- ci=[0.00475343,0.0567352] n=(300,0) seed=1',
         'upper bound=0.0693141'),
        ('PASS         tail-mid-high-k1-r1.5                        stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.00145957'),
        ('PASS         tail-mid-low-k1-r1.5                         stat=0.00333333 p=- ci=[0.000305655,0.0352931] n=(300,0) seed=1',
         'lower bound=0.000841054'),
        ('PASS         tail-inf-k1-r1.5                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.000467035'),
        ('PASS         tail-mid-high-k2-r0.5                        stat=0.0633333 p=- ci=[0.0325824,0.119521] n=(300,0) seed=1',
         'upper bound=0.15938'),
        ('PASS         tail-mid-low-k2-r0.5                         stat=0.216667 p=- ci=[0.154127,0.295711] n=(300,0) seed=1',
         'lower bound=0.0918399'),
        ('VACUOUS      tail-inf-k2-r0.5                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=5.26872'),
        ('PASS         tail-mid-high-k2-r1.0                        stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.0237083'),
        ('PASS         tail-mid-low-k2-r1.0                         stat=0.0533333 p=- ci=[0.0258486,0.106838] n=(300,0) seed=1',
         'lower bound=0.0136615'),
        ('PASS         tail-inf-k2-r1.0                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.262314'),
        ('PASS         tail-mid-high-k2-r1.5                        stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.00145957'),
        ('PASS         tail-mid-low-k2-r1.5                         stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'lower bound=0.000841054'),
        ('PASS         tail-inf-k2-r1.5                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.00176746'),
        ('PASS         tail-mid-high-k3-r0.5                        stat=0.05 p=- ci=[0.0236697,0.102544] n=(300,0) seed=1',
         'upper bound=0.15938'),
        ('PASS         tail-mid-low-k3-r0.5                         stat=0.27 p=- ci=[0.200636,0.352763] n=(300,0) seed=1',
         'lower bound=0.0918399'),
        ('VACUOUS      tail-inf-k3-r0.5                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=19.939'),
        ('PASS         tail-mid-high-k3-r1.0                        stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.0237083'),
        ('PASS         tail-mid-low-k3-r1.0                         stat=0.0366667 p=- ci=[0.0153635,0.0849601] n=(300,0) seed=1',
         'lower bound=0.0136615'),
        ('PASS         tail-inf-k3-r1.0                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.992707'),
        ('PASS         tail-mid-high-k3-r1.5                        stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.00145957'),
        ('PASS         tail-mid-low-k3-r1.5                         stat=0.00333333 p=- ci=[0.000305655,0.0352931] n=(300,0) seed=1',
         'lower bound=0.000841054'),
        ('PASS         tail-inf-k3-r1.5                             stat=0 p=- ci=[0,0.0291262] n=(300,0) seed=1',
         'upper bound=0.0066888'),
        ('SUITE PASS tails', None),
    ],
    'transforms': [
        ('PASS         affine-curve0-col32                          stat=0.06 p=0.631 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         affine-curve0-col64                          stat=0.0566667 p=0.699 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         affine-curve0-col96                          stat=0.116667 p=0.031 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         affine-curve1-col32                          stat=0.0633333 p=0.562 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         affine-curve1-col64                          stat=0.103333 p=0.0756 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         affine-curve1-col96                          stat=0.0933333 p=0.138 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve0-col32                            stat=0.0533333 p=0.766 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve0-col64                            stat=0.0666667 p=0.497 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve0-col96                            stat=0.0733333 p=0.377 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve1-col32                            stat=0.08 p=0.277 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve1-col64                            stat=0.0833333 p=0.235 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('PASS         flip-curve1-col96                            stat=0.11 p=0.0491 ci=- n=(300,300) seed=1',
         'alternative=two-sided floor=1e-05'),
        ('SUITE PASS transforms', None),
    ],
}


def test_small_suite_reports_are_pinned():
    for name, overrides in CASES.items():
        result = suites.run_suite(name, seed=1, **overrides)
        got = list(zip(result.lines(), [r.details for r in result.reports] + [None]))
        assert got == EXPECTED[name], name


def test_detect_rejects_a_bad_config_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.avoid, "sample_avoiding_at", no_draw)
    monkeypatch.setattr(suites.bridge, "sample_bridge_at", no_draw)
    for overrides in (
        dict(planted="hidden", windows=(1, 4)),  # t1 - 1 lies outside [0, 1]
        dict(planted="both", windows=(4, 2)),  # t1 - 1/2 is the interval's end
        dict(planted="hiden"),
        dict(n_seeds=0),
        dict(tau=1.5),
        dict(cap=0),
        dict(n_samples=1),  # the capped estimator's standard error needs two samples
        dict(hidden_quantile=1.5),
        dict(pair_gap=0.0),
    ):
        with pytest.raises(DomainError):
            suites.run_suite("detect", seed=1, **overrides)


def test_walk_exact_rejects_a_bad_config_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.walk, "sample_walk_steps", no_draw)
    for overrides in (
        dict(n_samples=0),
        dict(max_steps=0),  # no (N, z) case: the chi-square check would pass vacuously
        dict(telescope_cases=()),
        dict(telescope_cases=((3, 7),)),  # |z| > N: no path
        dict(telescope_cases=((3,),)),
        dict(telescope_paths=0),
        dict(telescope_tol=-1.0),
    ):
        with pytest.raises(DomainError):
            suites.run_suite("walk-exact", seed=1, **overrides)


def test_a_config_checks_its_fields_when_built():
    with pytest.raises(DomainError, match="^config key n_samples must be at least 1, got 0$"):
        suites.TailsConfig(n_samples=0)
    with pytest.raises(ValueError, match="^config key rs must have the type of"):
        suites.TailsConfig(rs=0.5)


def test_pw_rejects_a_bad_config_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.bridge, "sample_bridge_at", no_draw)
    monkeypatch.setattr(suites.avoid, "sample_avoiding_values", no_draw)
    for overrides in (
        dict(n_single=0),
        dict(n_pair=0),
        dict(n_pilot=0),
        dict(n_domination=0),
        dict(domination_budget=-1.0),
        dict(domination_budget=0.0),
        dict(domination_budget=1.5),
        dict(windows=()),
        dict(windows=(1, 4)),  # t1 - 1 lies outside [0, 1]
        dict(pair_w=1),
        dict(pair_interval=(0.0,)),
        dict(pair_top_quantile=1.5),
    ):
        with pytest.raises(DomainError):
            suites.run_suite("pw", seed=1, **overrides)


def test_pw_oracle_counts_a_nan_row_as_a_violation(monkeypatch):
    def nan_first_row(*args):
        num = window_top_cdf(*args)
        num[0] = np.nan
        return num

    window_top_cdf = suites.avoid.window_top_cdf
    monkeypatch.setattr(suites.avoid, "window_top_cdf", nan_first_row)
    oracle = suites.run_suite("pw", seed=1, **CASES["pw"]).reports[-1]
    assert oracle.name == "pw-domination-oracle" and oracle.verdict == "FAIL"
    assert oracle.details == "violations=1 checked=20 budget=0.001"


def test_convergence_rejects_a_bad_config_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.walk, "sample_walk_midpoints", no_draw)
    for overrides in (
        dict(scales=()),
        dict(n_samples=0),
        dict(scales=(32, 33)),  # 33^2 steps: no midpoint
    ):
        with pytest.raises(DomainError):
            suites.run_suite("convergence", seed=1, **overrides)


def test_gibbs_rejects_a_bad_config_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.avoid, "sample_avoiding_at", no_draw)
    for overrides in (
        dict(n_samples=0),
        dict(block=(0, 2)),  # the ensemble has curves 0 and 1
        dict(block=(1, 0)),
        dict(sub_cols=(0, 192)),  # a block must start and end at interior times
        dict(sub_cols=(64, 256)),
        dict(sub_cols=(192, 64)),
        dict(marginal_cols=(10,)),  # outside the redrawn block
        dict(marginal_cols=(64, 96)),  # on the block's fixed end
        dict(marginal_cols=()),
    ):
        with pytest.raises(DomainError):
            suites.run_suite("gibbs", seed=1, **overrides)


def test_chain_suites_reject_a_bad_config_before_any_event(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(suites.glauber, "_run", no_draw)
    monkeypatch.setattr(suites.avoid, "sample_avoiding_values", no_draw)
    for name, overrides in (
        ("glauber-stationarity", dict(retained=0)),
        ("glauber-stationarity", dict(burn_seeds=0)),
        ("glauber-stationarity", dict(tv_tol=-1.0)),
        ("glauber-stationarity", dict(tv_tol=1)),  # a TV distance never exceeds 1
        ("coupling", dict(n_chain_seeds=0)),
        ("coupling", dict(chain_events=0)),
        ("coupling", dict(n_marginal_samples=0)),
        ("coupling", dict(chain_scale=1)),  # one step: no interior site
        ("coupling", dict(grid_points=3)),  # column 0 is the fixed entrance
    ):
        with pytest.raises(DomainError):
            suites.run_suite(name, seed=1, **overrides)


def test_tails_holds_less_than_one_batch():
    # tails keeps two numbers per sample, so its peak is the rejection rounds' workspace,
    # not the (n, k, M+1) batch that a whole-path draw would hold (about 1.6 batches)
    cfg = suites.TailsConfig(ks=(3,), n_samples=10000)
    avoid.default_c0()  # cached; its scan is not the suite's sampling
    tracemalloc.start()
    try:
        assert suites.tails_suite(cfg).reports
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.n_samples * 3 * (cfg.grid_points + 1) * 8


def test_walk_exact_fails_on_a_path_outside_the_valid_set(monkeypatch):
    # one sampled step list of the wrong sum must fail the suite, not be counted as a
    # neighbouring valid path
    draw = suites.walk.sample_walk_steps
    calls = []

    def one_wrong_sum(n, z, n_samples, rng):
        steps = draw(n, z, n_samples, rng)
        if not calls:
            steps[0, 0] += -1 if steps[0, 0] == 1 else 1
        calls.append(n)
        return steps

    monkeypatch.setattr(suites.walk, "sample_walk_steps", one_wrong_sum)
    result = suites.run_suite("walk-exact", seed=1, max_steps=2, n_samples=1000)
    assert not result.passed
    # the first sampled case is N = 2, z = -1, whose first path now sums to 0 or -2
    assert [(r.name, r.statistic) for r in result.reports if r.verdict == "FAIL"] == [("walk-invalid-N2-z-1", 1)]
