import math

import numpy as np
import pytest
from scipy import stats

from bridgelines import avoid, bridge, verify
from bridgelines.core import Barrier, DomainError, Interval, RngSeed, WeylVector


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


def test_resample_block_preserves_constraints_and_boundaries():
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, Barrier.plus_inf(), Barrier.minus_inf(), 64)
    vals, _, _ = avoid.sample_avoiding_batch(spec, 20, RngSeed(6).generator())
    out = verify.resample_block(vals, iv, (0, 0), (16, 48), RngSeed(7).generator())
    assert out.shape == vals.shape
    for s in range(20):
        # outside the block nothing changes
        assert np.array_equal(out[s, 1], vals[s][1])
        assert np.array_equal(out[s, 0, :16], vals[s][0, :16])
        assert np.array_equal(out[s, 0, 49:], vals[s][0, 49:])
        # inside, the new block still clears the lower curve
        assert np.all(out[s, 0, 16:49] > out[s, 1, 16:49])


def test_resample_bottom_block_respects_upper_curve():
    # resampling the bottom curve puts the top curve in play as the upper barrier
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, Barrier.plus_inf(), Barrier.minus_inf(), 64)
    vals, _, _ = avoid.sample_avoiding_batch(spec, 15, RngSeed(11).generator())
    out = verify.resample_block(vals, iv, (1, 1), (16, 48), RngSeed(12).generator())
    for s in range(15):
        assert np.array_equal(out[s, 0], vals[s][0])
        assert np.all(out[s, 1, 16:49] < out[s, 0, 16:49])
        assert out[s, 1, 16] == vals[s][1, 16] and out[s, 1, 48] == vals[s][1, 48]


def test_resampled_free_block_midpoint_matches_bridge_law():
    # with no barriers each row's block is a plain bridge between its own
    # endpoints, so the PIT of the sub-interval midpoint is Uniform(0, 1)
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, Barrier.plus_inf(), Barrier.minus_inf(), 64)
    vals, _, _ = avoid.sample_avoiding_batch(spec, 4000, RngSeed(31).generator())
    out = verify.resample_block(vals, iv, (0, 0), (16, 48), RngSeed(32).generator(),
                                ignore_lower=True)
    grid = iv.grid(64)
    u = bridge.midpoint_cdf_single(out[:, 0, 32], grid[16], grid[48], vals[:, 0, 16], vals[:, 0, 48])
    assert stats.kstest(u, "uniform").pvalue > 1e-4


def test_resample_block_reads_each_rows_own_boundary_data():
    # alternate rows: endpoints 1.0 over a lower curve at 0.9, and endpoints
    # -4.0 over a lower curve at -5.0; borrowing another row's data shows up
    iv = Interval(0, 1)
    n, high = 400, np.arange(400) % 2 == 0
    vals = np.empty((n, 2, 17))
    vals[:, 0] = np.where(high, 1.0, -4.0)[:, None]
    vals[:, 1] = np.where(high, 0.9, -5.0)[:, None]
    out = verify.resample_block(vals, iv, (0, 0), (2, 14), RngSeed(41).generator())
    assert np.array_equal(out[:, :, [0, 1, 2, 14, 15, 16]], vals[:, :, [0, 1, 2, 14, 15, 16]])
    assert np.array_equal(out[:, 1], vals[:, 1])
    assert np.all(out[:, 0, 2:15] > vals[:, 1, 2:15])
    # the low rows' barrier sits 1.0 below their endpoints, so most of them fall 0.1 below
    dips = (out[~high, 0, 2:15] < -4.1).any(axis=1)
    assert dips.mean() > 0.5


def test_gibbs_bottom_block_invariance():
    iv = Interval(0, 1)
    vec = WeylVector((0.5, -0.5))
    spec = avoid.AvoidSpec(iv, vec, vec, Barrier.plus_inf(), Barrier.minus_inf(), 64)
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
    spec = avoid.AvoidSpec(iv, vec, vec, Barrier.plus_inf(), Barrier.minus_inf(), 32)
    reports = verify.gibbs_resample_test(
        spec, (0, 1), (1, 31), [(0, 16), (1, 16)], 1500,
        RngSeed(8).generator(), "t",
    )
    assert all(r.passed for r in reports)


def test_report_line_format():
    rep = verify.TestReport("name", 0.5, 0.01, None, 10, 20, "PASS", "7", "d")
    line = rep.line()
    assert "name" in line and "PASS" in line and "seed=7" in line
