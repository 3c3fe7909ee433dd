import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from bridgelines import bridge
from bridgelines.core import DomainError, Interval, RngSeed


def test_transition_density_values():
    assert bridge.transition_density(1, 0, 0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert bridge.transition_density(2, 0, 2) == pytest.approx(math.exp(-1) / math.sqrt(4 * math.pi))
    assert bridge.transition_density(1, 3, 3) == pytest.approx(1 / math.sqrt(2 * math.pi))
    with pytest.raises(DomainError):
        bridge.transition_density(0, 0, 0)


def test_bridge_max_prob_values():
    assert bridge.bridge_max_prob(1, 0, 1) == pytest.approx(math.exp(-2))
    assert bridge.bridge_max_prob(1, 1, 1) == 1.0  # endpoint attains the level
    assert bridge.bridge_max_prob(2, 0, 1) == pytest.approx(math.exp(-1))
    with pytest.raises(DomainError):
        bridge.bridge_max_prob(0, 0, 1)


def test_midpoint_cdf_single_values():
    assert bridge.midpoint_cdf_single(0, -1, 1, 0, 0) == pytest.approx(0.5)
    phi2 = 0.5 * (1 + math.erf(2 / math.sqrt(2)))
    assert bridge.midpoint_cdf_single(1, 0, 1, 0, 0) == pytest.approx(phi2)
    assert bridge.midpoint_cdf_single(-1, 0, 1, 0, 0) == pytest.approx(1 - phi2)
    with pytest.raises(DomainError):
        bridge.midpoint_cdf_single(0, 1, 1, 0, 0)
    # array endpoints give, bit for bit, the scalar results; scalars give a float
    rng = np.random.default_rng(3)
    xs, ys = rng.normal(0, 2, 500), rng.normal(0, 2, 500)
    arr = bridge.midpoint_cdf_single(0.4, 0.1, 0.35, xs, ys)
    assert arr.shape == (500,)
    assert arr.tolist() == [bridge.midpoint_cdf_single(0.4, 0.1, 0.35, x, y) for x, y in zip(xs, ys)]
    assert type(bridge.midpoint_cdf_single(0.4, 0.1, 0.35, xs[0], ys[0])) is float


def test_midpoint_cdf_single_monotone_and_symmetric():
    rs = np.linspace(-3, 3, 25)
    vals = [bridge.midpoint_cdf_single(r, 0, 2, 0.3, -0.7) for r in rs]
    assert all(0 <= v <= 1 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for r in (-1.0, 0.2, 2.5):
        lhs = bridge.midpoint_cdf_single(r, 0, 2, 0.3, -0.7)
        rhs = 1 - bridge.midpoint_cdf_single((0.3 - 0.7) - r, 0, 2, 0.3, -0.7)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mills_ratio_against_extended_precision():
    assert bridge.mills_ratio(0.0) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    mpmath.mp.dps = 40
    for x in (0.3, 1.0, 5.0, 12.0, 25.0, 40.0):
        exact = float(mpmath.erfc(x / mpmath.sqrt(2)) / 2 / (mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi)))
        assert bridge.mills_ratio(x) == pytest.approx(exact, rel=1e-10)
    v40 = bridge.mills_ratio(40.0) * 41
    assert 1.0 < v40 < 1.1 and math.isfinite(v40)
    with pytest.raises(DomainError):
        bridge.mills_ratio(-0.1)


def test_certify_c0_scan_properties():
    c = bridge.certify_c0(10, 0.01)
    assert 1 < c <= 2
    # two-sided bound holds at x = 0 by construction
    m0 = math.sqrt(math.pi / 2)
    assert 1 / c <= m0 <= c
    # enlarging the scan never decreases the result
    assert bridge.certify_c0(20, 0.01) >= c
    # and the certified bound actually holds on a denser grid
    xs = np.linspace(0, 10, 5001)
    mills = bridge.mills_ratio(xs)
    assert np.all(mills <= c / (1 + xs) + 1e-12)
    assert np.all(mills >= 1 / (c * (1 + xs)) - 1e-12)


def test_sample_bridge_endpoints_exact_and_marginals():
    spec = bridge.BridgeSpec(Interval(0, 1), 0.0, 0.0, 128)
    rng = RngSeed(5).generator()
    paths = bridge.sample_bridge_paths(spec, 100000, rng)
    assert np.all(paths[:, 0] == 0.0) and np.all(paths[:, -1] == 0.0)
    mid = paths[:, 64]
    # midpoint is Normal(0, 1/4)
    assert abs(mid.mean()) < 3 * 0.5 / math.sqrt(100000)
    assert mid.var() == pytest.approx(0.25, rel=0.02)
    # generic interior time: mean (b-t)/(b-a) x + (t-a)/(b-a) y, var (t-a)(b-t)/(b-a)
    spec2 = bridge.BridgeSpec(Interval(0, 2), 0.0, 2.0, 64)
    paths2 = bridge.sample_bridge_paths(spec2, 100000, RngSeed(6).generator())
    t_idx = 16  # t = 0.5
    mean_t = 0.5 / 2 * 2
    var_t = 0.5 * 1.5 / 2
    got = paths2[:, t_idx]
    assert got.mean() == pytest.approx(mean_t, abs=4 * math.sqrt(var_t / 100000))
    assert got.var() == pytest.approx(var_t, rel=0.03)


def test_bridge_variance_against_construction_oracle():
    # independent route: scale a standard bridge built from a discretized
    # Brownian path, W_t - t W_1, instead of the sequential sampler
    rng = RngSeed(7).generator()
    n, m = 200000, 64
    incr = rng.standard_normal((n, m)) / math.sqrt(m)
    w = np.cumsum(incr, axis=1)
    s = 0.5  # looking at t = 1 on [0, 2] -> s = (t-a)/(b-a) = 0.5
    w_s = w[:, m // 2 - 1]
    std_bridge = w_s - s * w[:, -1]
    b_t = math.sqrt(2.0) * std_bridge + s * 2.0  # x = 0, y = 2
    assert b_t.mean() == pytest.approx(1.0, abs=0.02)
    assert b_t.var() == pytest.approx(0.5, rel=0.03)
    # the sequential sampler agrees with the construction
    spec = bridge.BridgeSpec(Interval(0, 2), 0.0, 2.0, 64)
    paths = bridge.sample_bridge_paths(spec, 200000, RngSeed(8).generator())
    assert paths[:, 32].var() == pytest.approx(b_t.var(), rel=0.03)


def test_sample_bridge_at_exact_times():
    iv = Interval(0, 1)
    vals = bridge.sample_bridge_at(iv, 0.0, 0.0, [0.25, 0.5, 0.75], 50000, RngSeed(9).generator())
    assert vals.shape == (50000, 3)
    assert vals[:, 1].var() == pytest.approx(0.25, rel=0.03)
    assert vals[:, 0].var() == pytest.approx(0.25 * 0.75, rel=0.03)
    with pytest.raises(DomainError):
        bridge.sample_bridge_at(iv, 0, 0, [0.0, 0.5], 1, RngSeed(0).generator())


def test_bridge_samplers_pinned_at_fixed_seeds():
    # values and the generator's next draw, recorded before both samplers shared one
    # path constructor: the draws and their arithmetic are unchanged
    iv = Interval(0.0, 2.0)
    rng = RngSeed(41).generator()
    paths = bridge.sample_bridge_paths(bridge.BridgeSpec(iv, 0.5, -0.5, 4), 3, rng)
    assert paths.tolist() == [
        [0.5, -0.5042376769755272, -0.34860392161139186, -0.4277650225875192, -0.5],
        [0.5, 0.557126390281347, -0.5612360101407596, 0.023266078258373235, -0.5],
        [0.5, 0.3074129049391589, -0.6376968615969054, -1.2479686282785045, -0.5],
    ]
    assert rng.random() == 0.6218064009446065
    rng = RngSeed(42).generator()
    at = bridge.sample_bridge_at(iv, 0.5, -0.5, [1.5, 0.25], 2, rng)  # columns in time order
    assert at.tolist() == [[0.517518364042419, -0.8307898459323015], [0.7259914075253211, 0.4123781882735833]]
    assert rng.random() == 0.09417734788764953


def test_grid_max_exceedance_matches_formula_with_allowance():
    rng = RngSeed(11).generator()
    freq, missed = bridge.grid_max_exceedance(1.0, 0.0, 1.0, 256, 40000, rng)
    target = bridge.bridge_max_prob(1.0, 0.0, 1.0)
    se = math.sqrt(target * (1 - target) / 40000)
    assert abs(freq - target) <= 3 * se + missed
    # bias-corrected estimate is centered on the formula
    assert freq + missed == pytest.approx(target, abs=4 * se)
    assert freq < target  # grid max under-counts


def test_grid_allowance_shrinks_with_grid():
    a_coarse = bridge.grid_max_allowance(1.0, 0.0, 1.0, 256)
    a_fine = bridge.grid_max_allowance(1.0, 0.0, 1.0, 512)
    assert 0 < a_fine < a_coarse


def test_spec_validation():
    with pytest.raises(DomainError):
        bridge.BridgeSpec(Interval(0, 1), 0, 0, 1)


def _grid_max_exact(T, a, beta, m):
    """1 - P(all m-1 interior grid values < beta): a Gaussian orthant of the bridge's covariance."""
    t = np.linspace(0.0, T, m + 1)[1:m]
    cov = np.minimum.outer(t, t) - np.outer(t, t) / T
    mvn = stats.multivariate_normal(a * t / T, cov)
    return 1.0 - mvn.cdf(np.full(m - 1, beta), rng=np.random.default_rng(0))


@pytest.mark.parametrize("T, a, beta", [(1.0, 0.0, 0.5), (2.0, 0.5, 1.0)])
@pytest.mark.parametrize("m", [4, 5, 7])
def test_grid_max_exceedance_matches_exact_grid_law(T, a, beta, m):
    n = 200000
    freq, _ = bridge.grid_max_exceedance(T, a, beta, m, n, RngSeed(12).generator())
    exact = _grid_max_exact(T, a, beta, m)
    assert freq == pytest.approx(exact, abs=4 * math.sqrt(exact * (1 - exact) / n))


def test_grid_max_exceedance_bias_estimate_and_degenerate_cases():
    n = 200000
    freq, missed = bridge.grid_max_exceedance(1.0, 0.0, 0.5, 4, n, RngSeed(13).generator())
    target = bridge.bridge_max_prob(1.0, 0.0, 0.5)
    assert 0.3 < missed < 0.36
    # freq + missed averages P(path crosses | grid values), so its spread is below the indicator's
    assert freq + missed == pytest.approx(target, abs=4 * math.sqrt(target * (1 - target) / n))
    # one grid step: no interior value, missed is the formula itself
    assert bridge.grid_max_exceedance(1.0, 0.0, 0.5, 1, 10, RngSeed(0).generator()) == (0.0, pytest.approx(target))
    # an end at or above beta is a hit for every bridge
    for T, a, beta in ((1.0, 0.0, 0.0), (1.0, 0.0, -0.3), (2.0, 1.0, 1.0), (1.0, 2.0, 1.0)):
        assert bridge.grid_max_exceedance(T, a, beta, 64, 1000, RngSeed(0).generator()) == (1.0, 0.0)
    freq, missed = bridge.grid_max_exceedance(1.0, 0.0, 3.0, 2048, 20000, RngSeed(14).generator())
    assert freq == 0.0 and 0.0 <= missed < 1e-6
    for args in ((0.0, 0.0, 1.0, 8, 10), (1.0, 0.0, 1.0, 0, 10), (1.0, 0.0, 1.0, 8, 0)):
        with pytest.raises(DomainError):
            bridge.grid_max_exceedance(*args, RngSeed(0).generator())


class _CountingNormals:
    """Generator proxy that counts the normals requested from standard_normal."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, size):
        self.drawn += int(np.prod(size))
        return self.rng.standard_normal(size)


def test_grid_max_exceedance_draws_only_values_near_the_barrier():
    # bisection skips segments that cannot reach beta: about 45 of the 2,047 interior values
    n = 20000
    rng = _CountingNormals(RngSeed(15).generator())
    bridge.grid_max_exceedance(1.0, 0.0, 1.0, 2048, n, rng)
    assert 0 < rng.drawn < 100 * n
