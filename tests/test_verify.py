import numpy as np
import pytest
from scipy import stats

from bridgelines import avoid, bridge, verify
from bridgelines.core import DomainError, Interval, RngSeed, WeylVector


def test_ks_identical_samples():
    s = np.arange(100.0)
    rep = verify.ks_two_sample(s, s, name="same")
    assert rep.statistic == 0.0
    assert rep.p_value == pytest.approx(1.0)
    assert rep.passed


def test_ks_power_on_shifted_normals():
    rng = RngSeed(1).generator()
    rep = verify.ks_two_sample(rng.normal(0, 1, 10000), rng.normal(1, 1, 10000))
    assert rep.p_value < 1e-10
    assert not rep.passed


def test_ks_pvalues_uniform_under_null():
    # meta-test: p-values across independent same-law comparisons are uniform
    root = RngSeed(2)
    ps = []
    for i in range(200):
        rng = root.derive(i).generator()
        ps.append(verify.ks_two_sample(rng.normal(size=400), rng.normal(size=400)).p_value)
    d, p = stats.kstest(ps, "uniform")
    assert p > 1e-4


def test_ks_one_sided_direction():
    rng = RngSeed(3).generator()
    hi = rng.normal(0.3, 1, 5000)
    lo = rng.normal(0.0, 1, 5000)
    # hi dominates lo: no violations of cdf(hi) <= cdf(lo)
    ok = verify.ks_two_sample(hi, lo, alternative="greater")
    assert ok.passed
    # reversed direction must be detected
    bad = verify.ks_two_sample(lo, hi, alternative="greater")
    assert not bad.passed


def test_ks_empty_rejected():
    with pytest.raises(DomainError):
        verify.ks_two_sample([], [1.0])


def test_chi_square_uniform():
    rep = verify.chi_square_uniform(np.array([100, 110, 90]), "u", "s")
    assert rep.passed
    rep_bad = verify.chi_square_uniform(np.array([1000, 10, 10]), "u", "s")
    assert not rep_bad.passed


def test_frequency_vs_bound_directions():
    up = verify.frequency_vs_bound(5, 1000, 0.02, "upper", "u", "s")
    assert up.passed
    up_bad = verify.frequency_vs_bound(500, 1000, 0.02, "upper", "u", "s")
    assert not up_bad.passed
    vac = verify.frequency_vs_bound(999, 1000, 1.5, "upper", "u", "s")
    assert vac.verdict == "VACUOUS"
    low = verify.frequency_vs_bound(500, 1000, 0.4, "lower", "l", "s")
    assert low.passed
    low_bad = verify.frequency_vs_bound(5, 1000, 0.4, "lower", "l", "s")
    assert not low_bad.passed


def test_tv_distance_report():
    counts = {("a",): 340, ("b",): 330, ("c",): 330}
    rep = verify.tv_distance_report(counts, [("a",), ("b",), ("c",)], "tv", "s")
    assert rep.passed and rep.statistic < 0.02
    with pytest.raises(DomainError):
        verify.tv_distance_report({("z",): 10}, [("a",)], "tv", "s")


def test_observable_spec_windows():
    spec = verify.ObservableSpec(0.5, 1.0, 4)
    assert spec.a_w == 0.25 and spec.b_w == 0.75
    spec.check_inside(Interval(0, 1))
    with pytest.raises(DomainError):
        spec.check_inside(Interval(0.3, 1))
    with pytest.raises(DomainError):
        verify.ObservableSpec(0.5, 0.0, 0)


def test_estimate_pw_single_bridge_is_one():
    # H_w = indicator / F applied to the free bridge has mean exactly 1
    iv = Interval(0, 1)
    spec = verify.ObservableSpec(0.5, 1.0, 8)
    samples = bridge.sample_bridge_at(
        iv, 0.0, 0.0, [spec.a_w, 0.5, spec.b_w], 30000, RngSeed(4).generator()
    )
    est = verify.estimate_pw(spec, samples[:, [0]], samples[:, [1]], samples[:, [2]])
    lo, hi = est.ci()
    assert lo <= 1.0 <= hi
    assert est.degenerate == 0
    # capped estimates are increasing in the cap and below the uncapped mean
    caps = sorted(est.capped)
    vals = [est.capped[c] for c in caps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= est.mean + 1e-12


def test_curve_count_detector_logic():
    def mk(mean, se):
        return verify.PwEstimate(mean, se, 1000)

    none = {4: mk(1.0, 0.01), 8: mk(0.99, 0.01), 16: mk(1.01, 0.02), 32: mk(1.0, 0.02)}
    assert verify.curve_count_detector(none) == "NO_HIDDEN_CURVE"
    hidden = {4: mk(0.6, 0.02), 8: mk(0.55, 0.02), 16: mk(0.5, 0.02), 32: mk(0.45, 0.02)}
    assert verify.curve_count_detector(hidden) == "HIDDEN_CURVE"
    # upper edges sit between tau and the no-hidden level: neither verdict fires
    murky = {w: mk(0.85, 0.03) for w in (4, 8, 16, 32)}
    assert verify.curve_count_detector(murky) == "INCONCLUSIVE"
    degenerate = {w: mk(1.0, 0.0) for w in (4, 8)}
    assert verify.curve_count_detector(degenerate) == "INCONCLUSIVE"
    with pytest.raises(DomainError):
        verify.curve_count_detector(none, tau=1.0)
    with pytest.raises(DomainError):
        verify.curve_count_detector({})


# the grid times of columns 16, 24, 32, 40 and 48 of 64
TIMES = np.array([0.25, 0.375, 0.5, 0.625, 0.75])


def _pair_at_times(n, seed):
    vec = np.array([0.5, -0.5])
    vals, _, _ = avoid.sample_avoiding_at(Interval(0, 1), vec, vec, TIMES, n, RngSeed(seed).generator())
    return vals


def test_resample_block_preserves_constraints_and_boundaries():
    vals = _pair_at_times(20, 6)
    out = verify.resample_block(vals, TIMES, (0, 0), RngSeed(7).generator())
    assert out.shape == vals.shape
    # the other curve and the block's ends are kept; every interior value is redrawn
    assert np.array_equal(out[:, 1], vals[:, 1])
    assert np.array_equal(out[:, 0, [0, -1]], vals[:, 0, [0, -1]])
    assert np.all(out[:, 0, 1:-1] != vals[:, 0, 1:-1])
    # the new block still clears the lower curve
    assert np.all(out[:, 0] > out[:, 1])


def test_resample_bottom_block_respects_upper_curve():
    # redrawing the bottom curve puts the top curve in the stack above it
    vals = _pair_at_times(15, 11)
    out = verify.resample_block(vals, TIMES, (1, 1), RngSeed(12).generator())
    assert np.array_equal(out[:, 0], vals[:, 0])
    assert np.all(out[:, 1] < out[:, 0])
    assert np.array_equal(out[:, 1, [0, -1]], vals[:, 1, [0, -1]])


def test_resampled_free_block_midpoint_matches_bridge_law():
    # with the lower curve dropped each row's block is a plain bridge between
    # its own ends, so the PIT of the value at the middle time is Uniform(0, 1)
    vals = _pair_at_times(4000, 31)
    out = verify.resample_block(vals, TIMES, (0, 0), RngSeed(32).generator(), ignore_lower=True)
    u = bridge.midpoint_cdf_single(out[:, 0, 2], TIMES[0], TIMES[-1], vals[:, 0, 0], vals[:, 0, -1])
    assert stats.kstest(u, "uniform").pvalue > 1e-4


def test_resample_block_reads_each_rows_own_boundary_data():
    # alternate rows: curve 0 at 1.0 over curve 1 at 0.9, and curve 0 at -4.0
    # over curve 1 at -5.0; borrowing another row's data shows up
    times = Interval(0, 1).grid(16)[2:15]
    n, high = 400, np.arange(400) % 2 == 0
    vals = np.empty((n, 2, times.size))
    vals[:, 0] = np.where(high, 1.0, -4.0)[:, None]
    vals[:, 1] = np.where(high, 0.9, -5.0)[:, None]
    out = verify.resample_block(vals, times, (0, 0), RngSeed(41).generator())
    assert np.array_equal(out[:, :, [0, -1]], vals[:, :, [0, -1]])
    assert np.array_equal(out[:, 1], vals[:, 1])
    assert np.all(out[:, 0] > vals[:, 1])
    # the low rows' lower curve sits 1.0 below their ends, so most of them fall 0.1 below
    dips = (out[~high, 0] < -4.1).any(axis=1)
    assert dips.mean() > 0.5


def test_resample_block_pinned_at_a_fixed_seed():
    # the top curve of three samples redrawn at two interior times, with and without the
    # curves below it; recorded before the sampler was shared with avoid.sample_avoiding_at
    times = np.array([0.0, 0.2, 0.5, 1.0])
    base = np.array([[0.4, 0.5, 0.3, 0.4], [0.0, 0.1, -0.2, 0.0], [-0.5, -0.4, -0.6, -0.5]])
    batch = np.stack([base + 0.05 * i for i in range(3)])
    want = {
        False: [[0.9218193466664264, 1.3850524261569124], [0.4763622046123436, 0.45203694500477826],
                [0.8927265993430544, 0.9229993989633654]],
        True: [[-0.29530655939875283, -0.6133499069643455], [-0.14511540029604492, 0.27337077532767706],
               [0.5311716416972334, 0.2225737393961565]],
    }
    for ignore_lower, block_values in want.items():
        rng = RngSeed(8).generator()
        out = verify.resample_block(batch, times, (0, 0), rng, ignore_lower=ignore_lower)
        assert out[:, 0, 1:-1].tolist() == block_values
        assert np.array_equal(out[:, 0, [0, -1]], batch[:, 0, [0, -1]])
        assert np.array_equal(out[:, 1:], batch[:, 1:])
        assert rng.random() == 0.35562820585043775


def test_resample_block_matches_the_exact_conditional_law():
    # k = 2, block (0, 0) and one interior time t1: given the pair at a_w and
    # b_w and curve 1 (h) at t1, curve 0 at t1 follows the closed-form law of
    # avoid.window_top_cdf, so that CDF at the drawn values must be uniform
    times, dt = np.array([0.25, 0.5, 0.75]), 0.25
    rows = [  # (a, b, h(a_w), h(t1), h(b_w))
        (0.3, 0.1, -0.2, -0.3, -0.4),
        (0.5, 0.8, 0.0, 0.2, 0.3),
        (1.0, -0.5, -1.0, -0.4, -1.0),
        (0.0, 0.0, -0.4, 0.0, -0.4),  # the free law's mean sits on h(t1)
    ]
    vals = np.repeat(np.array([[[a, 0.0, b], [ha, h1, hb]] for a, b, ha, h1, hb in rows]), 5000, axis=0)
    out = verify.resample_block(vals, times, (0, 0), RngSeed(51).generator())
    assert np.all(out[:, 0, 1] > out[:, 1, 1])
    u = avoid.window_top_cdf(out[:, 0, 1], out[:, 0, 0], out[:, 0, 2], out[:, 1], dt)
    assert stats.kstest(u, "uniform").pvalue > verify.SUITE_P_FLOOR


def test_gibbs_bottom_block_invariance():
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, grid_points=64)
    reports = verify.gibbs_resample_test(
        spec, (1, 1), (16, 48), [(1, 24), (1, 32), (1, 40)], 2000,
        RngSeed(13).generator(), "t",
    )
    assert all(r.passed for r in reports)


def test_estimate_pw_degenerate_accounting():
    # a zero denominator estimate with a firing indicator is flagged degenerate:
    # excluded from the uncapped mean, entered at the cap in capped means.
    # A threshold 40 below a bridge pinned at 0 across a window of length 1/2
    # underflows the midpoint CDF to 0.
    spec = verify.ObservableSpec(0.5, -40.0, 4)
    assert bridge.midpoint_cdf_single(spec.x1, spec.a_w, spec.b_w, 0.0, 0.0) == 0.0
    aw = np.zeros((2, 1))
    t1 = np.full((2, 1), -41.0)  # indicator fires (top <= -40)
    bw = np.zeros((2, 1))
    est = verify.estimate_pw(spec, aw, t1, bw)
    assert est.degenerate == 2
    assert est.n == 0 and est.mean == 0.0
    assert est.capped[10] == 10.0


def test_gibbs_full_redraw_is_exact():
    # resampling every curve over the full interval with open boundaries is a
    # fresh draw from the same law, so marginals must match
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, grid_points=32)
    reports = verify.gibbs_resample_test(
        spec, (0, 1), (1, 31), [(0, 16), (1, 16)], 1500,
        RngSeed(8).generator(), "t",
    )
    assert all(r.passed for r in reports)


def test_report_line_format():
    rep = verify.TestReport("name", 0.5, 0.01, None, 10, 20, "PASS", "7", "d")
    line = rep.line()
    assert "name" in line and "PASS" in line and "seed=7" in line


def test_gibbs_resample_test_refuses_barriers():
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    for f, g in ((np.inf, -1.0), (1.0, -np.inf)):
        spec = avoid.AvoidSpec(iv, vec, vec, f, g, 32)
        with pytest.raises(DomainError, match="barrier-free"):
            verify.gibbs_resample_test(spec, (0, 1), (1, 31), [(0, 16)], 10, RngSeed(0).generator(), "t")
