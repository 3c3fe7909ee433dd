import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from bridgelines import avoid, bridge, walk
from bridgelines.core import DomainError, Interval, LatticeParams, LineEnsemble, RngSeed, WeylVector


def _spec(x, y, grid=128, f=np.inf, g=-np.inf, iv=None):
    return avoid.AvoidSpec(iv or Interval(0, 1), WeylVector(x), WeylVector(y), f, g, grid)


def test_sample_avoiding_values_pinned_at_fixed_seeds():
    # values recorded before the rejection loop gained its row axis: the
    # one-row stream (draws, kept candidates, counts, generator state) is unchanged
    iv = Interval(0.0, 1.0)
    inf = np.full(5, np.inf)

    def run(x, f_vals, g_vals, n_samples, max_attempts, chunk):
        rng = RngSeed(21).generator()
        out = avoid.sample_avoiding_values(iv, x, x, f_vals, g_vals, 4, n_samples, rng, max_attempts,
                                           chunk)
        return out, float(rng.random())

    (vals, drawn, seen, first), nxt = run(np.array([0.5, -0.5]), inf, -inf, 3, 10**4, 2048)
    assert vals.shape == (3, 2, 5) and (drawn, seen, first) == (2048, 1750, 0)
    assert vals[:, :, 2].tolist() == [
        [1.2203003903366865, -0.032433789348743504],
        [0.7289939759327692, -0.7726972674248657],
        [0.8219410634739965, -0.35870574461935445],
    ]
    assert nxt == 0.0894586821003025
    # a tight lower barrier and chunks of 4: the two acceptances come from different chunks
    (vals, drawn, seen, first), nxt = run(np.array([0.15, -0.15]), inf, np.full(5, -0.3), 2, 100, 4)
    assert vals.shape == (2, 2, 5) and (drawn, seen, first) == (28, 2, 23)
    assert vals[:, :, 2].tolist() == [
        [0.3167902207378811, -0.14598353422343416],
        [-0.17089475000503515, -0.28531594732534665],
    ]
    assert nxt == 0.011735130404212257
    # exhaustion: 10 attempts in chunks of 4, 4, 2
    (vals, drawn, seen, first), nxt = run(np.array([0.1, -0.1]), np.full(5, 0.2), np.full(5, -0.2),
                                          1, 10, 4)
    assert vals.shape == (0, 2, 5) and (drawn, seen, first) == (10, 0, -1)
    assert nxt == 0.33930018248772564


# detect's window times: t1 = 1/2 and t1 +/- 1/w for w = 4, 8, 16, 32
DETECT_TIMES = np.array(sorted({0.5} | {0.5 + d / w for w in (4, 8, 16, 32) for d in (-1, 1)}))


def _km_ratio(T, x, y):
    """det[p(T; x_i, y_j)] / prod_i p(T; x_i, y_i), entry by entry from the heat kernel."""
    k = len(x)
    mat = np.array([[bridge.transition_density(T, x[i], y[j]) for j in range(k)] for i in range(k)])
    return float(np.linalg.det(mat) / np.prod(np.diag(mat)))


@pytest.mark.parametrize("iv, x, y, times", [
    (Interval(0.0, 1.0), (0.15, -0.15), (0.15, -0.15), DETECT_TIMES),  # detect's pair: 0.08607
    (Interval(0.0, 2.0), (1.0, 0.2), (0.5, -0.5), [0.3, 1.0, 1.9]),
    (Interval(0.0, 1.0), (0.6, 0.0, -0.6), (0.4, 0.0, -0.8), [0.5]),
])
def test_sample_avoiding_at_acceptance_matches_karlin_mcgregor(iv, x, y, times):
    # accepting a candidate at any set of times happens with the probability that
    # the continuous curves never meet; for k = 2 that is 1 - exp(-(x0-x1)(y0-y1)/T)
    rng = RngSeed(31).generator()
    vals, drawn, seen = avoid.sample_avoiding_at(iv, np.array(x), np.array(y), times, 3000, rng)
    assert vals.shape == (3000, len(x), len(times))
    assert np.all(vals[:, :-1] > vals[:, 1:])
    target = _km_ratio(iv.length, x, y)
    if len(x) == 2:
        assert target == pytest.approx(-math.expm1(-(x[0] - x[1]) * (y[0] - y[1]) / iv.length), abs=1e-12)
    lo, hi = avoid.wilson_ci(seen, drawn)
    assert lo <= target <= hi, (seen / drawn, target)


def test_km_weight_closed_form_and_ordering():
    rng = np.random.default_rng(8)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 6)), [1.0]])
    dt = np.diff(times)
    vals = np.sort(rng.normal(size=(500, 2, times.size)), axis=1)[:, ::-1]
    gaps = vals[:, 0] - vals[:, 1]
    want = np.prod(-np.expm1(-gaps[:, :-1] * gaps[:, 1:] / dt), axis=1)
    np.testing.assert_allclose(avoid._km_weight(vals, times), want, rtol=0, atol=1e-12)
    # k = 3 against LU on inputs mild enough for it: one segment, one determinant
    three = np.sort(rng.normal(size=(200, 3, 2)), axis=1)[:, ::-1]
    lu = [_km_ratio(1.0, v[:, 0], v[:, 1]) for v in three]
    np.testing.assert_allclose(avoid._km_weight(three, np.array([0.0, 1.0])), lu, rtol=0, atol=1e-12)
    # one unordered (or touching) observed time makes the weight 0
    for j in range(times.size):
        bad = vals.copy()
        bad[:, 1, j] = bad[:, 0, j] + rng.uniform(0.0, 0.1, 500) * (j % 2)
        assert not avoid._km_weight(bad, times).any()


@pytest.mark.parametrize("w", [4, 32, 512])
def test_window_top_cdf_matches_quadrature(w):
    # rows in units of sd = sqrt(dt/2): h(t1) at d sd from the free mean (a+b)/2,
    # h at the window edges ga sd and gb sd below the top curve; in g = u sd the
    # density is exp(-(u + d)^2 / 2) (1 - exp(-ga u / 2)) (1 - exp(-gb u / 2))
    dt = 1.0 / w
    sd = math.sqrt(dt / 2.0)
    a, b = 0.3 + 0.5 * sd, 0.3 - 0.5 * sd
    for d in (-30.0, -3.0, 0.0, 3.0, 12.0):  # far below, near and far above the mean
        for ga, gb in ((1.0, 1.0), (0.2, 3.0)):
            h = np.array([a - ga * sd, 0.3 + d * sd, b - gb * sd])
            x1 = np.array([h[1] - sd, h[1] + 0.05 * sd, h[1] + 0.5 * sd, h[1] + 2 * sd,
                           0.3 - sd, 0.3, 0.3 + sd])
            got = avoid.window_top_cdf(x1, a, b, h, dt)
            assert np.isfinite(got).all()

            def dens(u):  # scaled so that its peak over u >= 0 is near 1
                free = math.exp(-((u + d) ** 2 - max(d, 0.0) ** 2) / 2)
                return free * math.expm1(-ga * u / 2) * math.expm1(-gb * u / 2)

            peak, top = max(0.0, -d), max(0.0, -d) + 40.0

            def mass(hi):
                return quad(dens, 0.0, hi, points=[peak] if 0 < peak < hi else None, epsabs=0, epsrel=1e-13,
                            limit=200)[0] if hi > 0 else 0.0

            want = [mass(min(max((x - h[1]) / sd, 0.0), top)) / mass(top) for x in x1]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=f"d={d} ga={ga} gb={gb}")
    # the conditional law is undefined unless the pair is ordered at both window edges
    assert np.isnan(avoid.window_top_cdf(0.0, 0.1, 0.1, [0.1, -1.0, -0.1], dt))


def _bottom_midpoint_cdf(T, x, y, h=0.004, lim=3.0):
    """CDF of the bottom of two avoiding bridges at T/2, from 2-D quadrature of the KM density.

    The pair's density at time t is det[p(t; x_i, u_j)] det[p(T - t; u_i, y_j)]
    on u_0 > u_1, up to normalisation; midpoint-rule cells of side h.
    """
    t = T / 2.0
    u = np.arange(-lim, lim + h / 2, h)
    u0, u1 = np.meshgrid(u, u, indexing="ij")

    def p(dt, a, b):
        return np.exp(-((a - b) ** 2) / (2.0 * dt))

    left = p(t, x[0], u0) * p(t, x[1], u1) - p(t, x[0], u1) * p(t, x[1], u0)
    right = p(T - t, u0, y[0]) * p(T - t, u1, y[1]) - p(T - t, u1, y[0]) * p(T - t, u0, y[1])
    cdf = np.cumsum(np.where(u0 > u1, left * right, 0.0).sum(axis=0))
    return lambda r: np.interp(r, u + h / 2, cdf / cdf[-1])


@pytest.mark.parametrize("times", [[0.5], DETECT_TIMES])
def test_sample_avoiding_at_bottom_midpoint_matches_km_quadrature(times):
    # the grid-checked sampler at M = 128 fails this test (KS p ~ 1e-20 at this size)
    x = np.array([0.15, -0.15])
    cdf = _bottom_midpoint_cdf(1.0, x, x)
    vals, _, _ = avoid.sample_avoiding_at(Interval(0.0, 1.0), x, x, times, 20000, RngSeed(32).generator())
    mid = vals[:, 1, int(np.searchsorted(times, 0.5))]
    assert stats.kstest(mid, cdf).pvalue > 1e-4


def test_sample_avoiding_at_errors():
    iv = Interval(0.0, 1.0)
    x = np.array([0.01, -0.01])
    with pytest.raises(walk.RejectionExhausted) as exc:
        avoid.sample_avoiding_at(iv, x, x, [0.5], 100, RngSeed(33).generator(), max_attempts=50)
    assert exc.value.attempts == 50
    for times in ([0.0, 0.5], [0.5, 1.0], [0.5, 0.25, 0.5]):
        with pytest.raises(DomainError):
            avoid.sample_avoiding_at(iv, x, x, times, 1, RngSeed(33).generator())
    with pytest.raises(DomainError):
        avoid.sample_avoiding_at(iv, x[::-1], x, [0.5], 1, RngSeed(33).generator())


def test_spec_validates_barrier_clearance():
    _spec((1.0,), (1.0,), g=0.0)
    _spec((1.0,), (1.0,), f=1.5, g=0.5)
    for f, g in ((np.inf, 1.5), (0.5, -np.inf), (np.inf, 1.0), (np.nan, -np.inf), (np.inf, np.nan),
                 (-np.inf, -np.inf), (np.inf, np.inf)):
        with pytest.raises(DomainError):
            _spec((1.0,), (1.0,), f=f, g=g)


def test_unconstrained_single_bridge_accepts_first_try():
    iv, x, free = Interval(0, 1), np.array([0.0]), np.full(129, np.inf)
    vals, drawn, seen, first = avoid.sample_avoiding_values(iv, x, x, free, -free, 128, 1,
                                                            RngSeed(1).generator(), 10**6)
    assert first == 0
    assert vals.shape == (1, 1, 129) and seen == drawn


def test_acceptance_rate_matches_reflection_formula():
    # k=1 above a flat barrier: acceptance = 1 - exp(-2 x^2 / T), up to the
    # documented grid over-acceptance (enforced at grid points only)
    spec = _spec((1.0,), (1.0,), g=0.0, grid=512)
    _, drawn, seen = avoid.sample_avoiding_batch(spec, 40000, RngSeed(2).generator(), 10**6)
    rate = seen / drawn
    target = 1 - math.exp(-2.0)
    allowance = bridge.grid_max_allowance(1.0, 0.0, 1.0, 512)
    se = math.sqrt(target * (1 - target) / drawn)
    assert rate >= target - 3 * se  # bias is one-sided: grid only over-accepts
    assert rate <= target + 3 * se + 2 * allowance


def test_grid_over_acceptance_shrinks_with_density():
    rates = []
    for grid in (64, 512):
        spec = _spec((1.0,), (1.0,), g=0.0, grid=grid)
        _, drawn, seen = avoid.sample_avoiding_batch(spec, 20000, RngSeed(3).generator(), 10**6)
        rates.append(seen / drawn)
    assert rates[1] < rates[0]  # finer grid rejects more near-touches


def test_rejection_exhaustion_error():
    spec = _spec((1.0, 0.5), (1.0, 0.5), grid=64)
    bad = avoid.AvoidSpec(spec.interval, spec.x, spec.y, g=0.49, grid_points=64)
    with pytest.raises(walk.RejectionExhausted) as exc:
        avoid.sample_avoiding_batch(bad, 50000, RngSeed(4).generator(), max_attempts=2000)
    assert exc.value.attempts == 2000


def test_affine_transform_examples():
    iv = Interval(0, 1)
    ens = LineEnsemble(iv, np.array([[1.0, 2.0, 1.5], [0.0, -1.0, 0.5]]))
    same = avoid.affine_transform(ens, 1.0, 0.0, 0.0)
    assert same.interval == iv and np.array_equal(same.values, ens.values)
    shifted = avoid.affine_transform(ens, 1.0, 0.0, 5.0)
    assert shifted.interval == iv
    assert np.array_equal(shifted.values, ens.values + 5)
    moved = avoid.affine_transform(ens, 2.0, 3.0, -1.0)
    assert moved.interval == Interval(3.0, 7.0)
    assert np.array_equal(moved.values, 2 * ens.values - 1)
    with pytest.raises(DomainError):
        avoid.affine_transform(ens, 0.0, 0.0, 0.0)


def test_flip_transform_involution_and_ordering():
    iv = Interval(0, 1)
    ens = LineEnsemble(iv, np.array([[2.0, 2.0, 2.0]]))
    flipped = avoid.flip_transform(ens)
    assert np.all(flipped.values == -2.0)
    two = LineEnsemble(iv, np.array([[1.0, 2.0, 1.0], [0.0, 0.5, 0.0]]))
    back = avoid.flip_transform(avoid.flip_transform(two))
    assert np.array_equal(back.values, two.values)
    f = avoid.flip_transform(two)
    assert np.all(f.values[0] > f.values[1])


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 3), st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 1000))
def test_affine_flip_commute_with_sampling_shapes(c, u, r, seed):
    rng = np.random.default_rng(seed)
    vals = np.sort(rng.normal(size=(2, 5)), axis=0)[::-1] + np.array([[1.0], [-1.0]])
    ens = LineEnsemble(Interval(0, 1), vals)
    moved = avoid.affine_transform(ens, c, u, r)
    assert moved.values.shape == vals.shape
    assert moved.interval.length == pytest.approx(c * c * 1.0)
    assert np.allclose(avoid.flip_transform(avoid.flip_transform(moved)).values, moved.values)


def test_affine_law_matches_direct_sampling():
    src = _spec((1.0, -1.0), (1.0, -1.0), grid=64)
    svals, _, _ = avoid.sample_avoiding_batch(src, 2500, RngSeed(5).generator())
    c, u, r = 1.5, 2.0, 0.5
    tgt = avoid.AvoidSpec(
        Interval(u, c * c + u),
        WeylVector((c + r, -c + r)), WeylVector((c + r, -c + r)), grid_points=64,
    )
    tvals, _, _ = avoid.sample_avoiding_batch(tgt, 2500, RngSeed(6).generator())
    moved = c * svals + r
    for i in range(2):
        for col in (16, 32, 48):
            p = stats.ks_2samp(moved[:, i, col], tvals[:, i, col]).pvalue
            assert p > 1e-5


def test_flip_law_matches_direct_sampling():
    src = _spec((2.0, 0.0), (1.0, -1.0), grid=64)
    svals, _, _ = avoid.sample_avoiding_batch(src, 2500, RngSeed(7).generator())
    tgt = _spec((0.0, -2.0), (1.0, -1.0), grid=64)
    tvals, _, _ = avoid.sample_avoiding_batch(tgt, 2500, RngSeed(8).generator())
    flipped = -svals[:, ::-1, :]
    for i in range(2):
        for col in (16, 32, 48):
            p = stats.ks_2samp(flipped[:, i, col], tvals[:, i, col]).pvalue
            assert p > 1e-5


def test_bounds_values_and_ordering():
    assert avoid.bound_inf(1, 0.0) == pytest.approx((1 - 2 / math.e) ** -1)
    assert avoid.bound_inf(1, 0.0) > 1  # vacuous, callers record VACUOUS
    c0 = avoid.default_c0()
    expect = c0 * math.exp(-8) / (math.sqrt(2 * math.pi) * 5)
    assert avoid.bound_bottom_max(2, 2.0, c0) == pytest.approx(expect)
    for r in (0.0, 0.5, 1.0, 2.5):
        assert avoid.bound_bottom_min(3, r, c0) <= avoid.bound_bottom_max(3, r, c0)
    with pytest.raises(DomainError):
        avoid.bound_bottom_max(1, -0.1)
    with pytest.raises(DomainError):
        avoid.bound_inf(0, 1.0)


def _bottom_midpoint_estimate(r, x, n, seed):
    """Share of n exact bottom-curve midpoint draws <= r, with its Wilson interval."""
    vals, _, _ = avoid.sample_avoiding_at(Interval(0, 1), np.array(x), np.array(x), [0.5], n,
                                          RngSeed(seed).generator())
    hits = int(np.count_nonzero(vals[:, -1, 0] <= r))
    return hits / n, avoid.wilson_ci(hits, n)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_midpoint_cdf_avoiding_matches_km_quadrature(seed):
    # the continuous law at the midpoint; the grid-monitored law (M = 512) reads
    # 0.7211-0.7219 at these seeds, each Wilson interval missing the quadrature value
    x = (0.15, -0.15)
    target = float(_bottom_midpoint_cdf(1.0, x, x)(-0.3))
    est, (lo, hi) = _bottom_midpoint_estimate(-0.3, x, 20000, seed)
    assert lo <= target <= hi, (est, target)


def test_midpoint_cdf_avoiding_vs_walk_pipeline():
    # dual route: the exact bridge midpoint law vs the lattice walk sampler, both
    # from endpoints on the dx-lattice; the threshold sits half a cell between
    # lattice values, so the walk's CDF there carries no lattice atom
    iv = Interval(0, 1)
    lat = LatticeParams.scaled(iv, 16)
    level = round(1.0 / lat.dx) * lat.dx
    r = -level - 0.5 * lat.dx
    x_lat = WeylVector((level, -level))
    est, _ = _bottom_midpoint_estimate(r, x_lat.values, 60000, 11)
    wspec = walk.WalkEnsembleSpec(lat, x_lat, x_lat)
    samples, _, _ = walk.sample_avoiding_walks_batch(wspec, 50000, RngSeed(12).generator(), 10**7)
    mids = np.array([ens.values[1, lat.n_steps // 2] for ens in samples])
    walk_est = float(np.mean(mids <= r))
    walk_se = math.sqrt(walk_est * (1 - walk_est) / 50000)
    est_se = math.sqrt(est * (1 - est) / 60000)
    # both routes approximate the continuum law; allow their discretization gaps
    assert abs(est - walk_est) <= 3 * (walk_se + est_se) + 0.02


def test_wilson_ci():
    lo, hi = avoid.wilson_ci(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = avoid.wilson_ci(0, 100)
    assert lo0 == 0.0 and hi0 > 0
    with pytest.raises(DomainError):
        avoid.wilson_ci(0, 0)
