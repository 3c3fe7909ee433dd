import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bridgelines import walk
from bridgelines.core import DomainError, Interval, LatticeParams, RejectionExhausted, RngSeed, StructuralError
from bridgelines.verify import SUITE_P_FLOOR


def brute_count(n, d):
    return sum(1 for s in itertools.product((-1, 0, 1), repeat=n) if sum(s) == d)


def test_count_paths_examples():
    assert walk.count_paths(2, 0) == 3
    assert walk.count_paths(1, 1) == 1
    assert walk.count_paths(3, 0) == 7
    assert walk.count_paths(5, 6) == 0
    assert walk.count_paths(0, 0) == 1


@settings(max_examples=40)
@given(st.integers(0, 8), st.integers(-8, 8))
def test_count_paths_matches_enumeration(n, d):
    assert walk.count_paths(n, d) == brute_count(n, d)


def test_count_paths_big_values_exact():
    # counts grow like 3^n; exact integers must not overflow or round
    total = sum(walk.count_paths(120, d) for d in range(-120, 121))
    assert total == 3**120


def test_sampler_forced_path():
    steps = walk.sample_walk_steps(1, 1, 20, RngSeed(0).generator())
    assert np.all(steps == 1)
    assert walk.sample_walk_steps(0, 0, 3, RngSeed(0).generator()).shape == (3, 0)


def test_sampler_uniform_over_sequences_small():
    rng = RngSeed(1).generator()
    steps = walk.sample_walk_steps(2, 0, 90000, rng).astype(int)
    codes = (steps[:, 0] + 1) * 3 + steps[:, 1] + 1
    counts = np.bincount(codes, minlength=9)
    observed = counts[counts > 0]
    assert observed.size == 3
    _, p = stats.chisquare(observed)
    assert p > 1e-3


def test_sampler_first_step_marginal():
    rng = RngSeed(2).generator()
    steps = walk.sample_walk_steps(4, 0, 100000, rng)
    p0 = np.mean(steps[:, 0] == 0)
    expect = 7 / 19
    assert abs(p0 - expect) < 4 * math.sqrt(expect * (1 - expect) / 100000)


def test_sampler_rejects_unreachable():
    with pytest.raises(DomainError):
        walk.sample_walk_steps(3, 4, 1, RngSeed(0).generator())
    with pytest.raises(DomainError):
        walk.sample_walk_steps(3, np.array([0, -4, 1]), 3, RngSeed(0).generator())


def test_walk_steps_take_one_end_per_walk():
    # an all-equal array of ends reads the scalar call's stream
    scalar = walk.sample_walk_steps(12, -2, 40, RngSeed(11).generator())
    assert np.array_equal(walk.sample_walk_steps(12, np.full(40, -2), 40, RngSeed(11).generator()), scalar)
    # mixed ends: walk i sums to its own end
    z = np.tile([3, 0, -5], 10)
    steps = walk.sample_walk_steps(12, z, 30, RngSeed(12).generator())
    assert steps.shape == (30, 12) and np.array_equal(steps.sum(axis=1), z)
    with pytest.raises(StructuralError):
        walk.sample_walk_steps(12, z, 29, RngSeed(12).generator())


def test_telescoping_identity():
    for n, z in [(6, 0), (6, 2), (30, -5), (64, 10)]:
        rng = RngSeed(3).derive(f"{n}/{z}").generator()
        log_count = math.log(float(walk.count_paths(n, z)))
        steps = walk.sample_walk_steps(n, z, 20, rng)
        assert np.all(np.abs(walk.walk_log_prob(steps, z) + log_count) < 1e-9)


def _tiny_spec(k=1, steps=2, x_units=(0,), y_units=(0,), g=-np.inf):
    lat = LatticeParams(Interval(0, 1), steps)
    return walk.WalkEnsembleSpec(lat, x_units, y_units, g=g * lat.dx), lat


def test_enumerate_tiny_instances():
    spec, _ = _tiny_spec()
    configs = walk.enumerate_avoiding_configs(spec)
    assert len(configs) == 3 and configs.dtype == np.int64
    assert sorted(configs[:, 0, 1].tolist()) == [-1, 0, 1]
    # lower barrier at -dx/2 removes the dipping path
    spec_g, _ = _tiny_spec(g=-0.5)
    configs_g = walk.enumerate_avoiding_configs(spec_g)
    assert configs_g.dtype == np.int64 and sorted(configs_g[:, 0, 1].tolist()) == [0, 1]


@pytest.mark.parametrize("steps", range(2, 9))
def test_enumerated_configs_never_touch_an_integer_barrier(steps):
    # g = u dx exactly, one curve from and to g + 1 or g + 2 units: every listed
    # path stays strictly above g, and each one that stays above is listed
    for u in range(-4, 1):
        for above in (1, 2):
            spec, lat = _tiny_spec(steps=steps, x_units=(u + above,), y_units=(u + above,), g=u)
            configs = walk.enumerate_avoiding_configs(spec)
            assert np.all(configs[:, 0] > u) and np.all(configs[:, 0] * lat.dx > spec.g)
            # paths of `steps` steps from and to u + above that stay at or above u + 1,
            # counted on the shifted walk that starts at above - 1 and stays >= 0
            counts = {above - 1: 1}
            for _ in range(steps):
                nxt = {}
                for h, c in counts.items():
                    for d in (-1, 0, 1):
                        if h + d >= 0:
                            nxt[h + d] = nxt.get(h + d, 0) + c
                counts = nxt
            assert len(configs) == counts[above - 1]


def test_enumerate_guard():
    spec, _ = _tiny_spec(steps=40)
    with pytest.raises(DomainError):
        walk.enumerate_avoiding_configs(spec, guard=10**6)


def test_avoiding_walk_sampler_uniform_vs_enumeration():
    # k = 2 tiny instance: acceptance must be uniform over enumerated configs
    lat = LatticeParams(Interval(0, 1), 2)
    spec = walk.WalkEnsembleSpec(lat, (1, 0), (1, 0))
    configs = walk.enumerate_avoiding_configs(spec)
    # keyed by values: the sampler returns units * dx, the same products
    keys = {tuple((c * lat.dx).ravel()): 0 for c in configs}
    samples, drawn, seen = walk.sample_avoiding_walks_batch(
        spec, 40000, RngSeed(4).generator(), max_attempts=10**6
    )
    assert len(samples) == 40000
    for ens in samples:
        keys[tuple(ens.ravel())] += 1
    tv = 0.5 * sum(abs(v / 40000 - 1 / len(configs)) for v in keys.values())
    assert tv <= 0.02
    # acceptance rate consistent with enumeration: accepted / drawn ~ valid / total
    total_pairs = walk.count_paths(2, 0) ** 2
    expect_rate = len(configs) / total_pairs
    assert seen / drawn == pytest.approx(expect_rate, abs=3 * math.sqrt(expect_rate / drawn) + 0.01)


def test_single_walk_accepted_immediately():
    spec, _ = _tiny_spec()
    samples, drawn, seen = walk.sample_avoiding_walks_batch(spec, 1, RngSeed(5).generator(), 100)
    assert len(samples) == 1 and seen == drawn


def test_impossible_barrier_exhausts():
    # a barrier above the endpoints leaves no avoiding configuration: the spec refuses it
    with pytest.raises(DomainError, match="lower barrier must clear the bottom endpoints"):
        _tiny_spec(g=5)
    # three walks one unit apart for 16 steps, above -0.5 dx: about 4 in 10^6 candidates pass
    spec, _ = _tiny_spec(steps=16, x_units=(2, 1, 0), y_units=(2, 1, 0), g=-0.5)
    # the batch sampler raises rather than returning fewer ensembles
    with pytest.raises(RejectionExhausted) as exc:
        walk.sample_avoiding_walks_batch(spec, 3, RngSeed(6).generator(), max_attempts=500)
    assert exc.value.attempts == 500


def test_walk_midpoint_matches_exact_law():
    # midpoint pmf is count(N/2, s) count(N/2, z-s) / count(N, z)
    n_steps, z = 16, 2
    mids = walk.sample_walk_midpoints(n_steps, z, 60000, RngSeed(7).generator())
    half = n_steps // 2
    total = walk.count_paths(n_steps, z)
    for s in (-2, 0, 1, 3):
        expect = walk.count_paths(half, s) * walk.count_paths(half, z - s) / total
        got = np.mean(mids == s)
        assert abs(got - expect) < 4 * math.sqrt(expect * (1 - expect) / 60000) + 1e-9


def test_midpoint_pmf_matches_exact_count_ratios():
    for n_steps, z in ((1024, 0), (64, 5)):
        d, p = walk._midpoint_pmf(n_steps, z)
        half = n_steps // 2
        assert d.tolist() == list(range(max(-half, z - half), min(half, z + half) + 1))
        total = walk.count_paths(n_steps, z)
        # int / int is correctly rounded, so these are the exact ratios to double precision
        exact = [walk.count_paths(half, int(s)) * walk.count_paths(half, z - int(s)) / total for s in d]
        np.testing.assert_allclose(p, exact, rtol=1e-12, atol=0)


def test_walk_midpoint_draws_match_exact_pmf():
    n = 100000
    d, p = walk._midpoint_pmf(1024, 0)
    mids = walk.sample_walk_midpoints(1024, 0, n, RngSeed(8).generator())
    assert mids.dtype == np.int64 and set(np.unique(mids)) <= set(d.tolist())
    counts = np.bincount(mids - d[0], minlength=len(d))
    big = n * p >= 5  # atoms too rare for the chi-square approximation share one bin
    observed = np.append(counts[big], counts[~big].sum())
    expected = np.append(n * p[big], n * p[~big].sum())
    assert stats.chisquare(observed, expected).pvalue > SUITE_P_FLOOR


def test_walk_midpoints_reject_odd_or_unreachable():
    rng = RngSeed(0).generator()
    for n_steps, z in ((15, 1), (1, 0), (4, 5), (4, -5)):
        with pytest.raises(DomainError):
            walk.sample_walk_midpoints(n_steps, z, 10, rng)


def test_walk_midpoints_pinned_at_fixed_seed():
    # draws and the generator's next value, recorded with the inverse-CDF sampler:
    # one uniform per draw, so the stream after the draws is pinned too
    rng = RngSeed(51).generator()
    assert walk.sample_walk_midpoints(1024, 0, 6, rng).tolist() == [21, -7, -9, -10, 10, -10]
    assert walk.sample_walk_midpoints(16, 3, 6, rng).tolist() == [3, 3, 1, 1, 4, 3]
    assert rng.random() == 0.15380728780750696


def test_step_cuts_match_exact_count_ratios():
    # P(step = -1) and P(step <= 0) with rem steps left and displacement d still needed
    for n in range(1, 13):
        p_dn, p_le = walk._step_cuts(n)
        for rem in range(1, n + 1):
            for d in range(-rem, rem + 1):
                total = walk.count_paths(rem, d)
                down = Fraction(walk.count_paths(rem - 1, d + 1), total)
                le = down + Fraction(walk.count_paths(rem - 1, d), total)
                col = d + n + 1
                assert abs(Fraction(float(p_dn[rem - 1, col])) - down) <= Fraction(1, 10**12)
                assert abs(Fraction(float(p_le[rem - 1, col])) - le) <= Fraction(1, 10**12)


def test_walk_steps_pinned_at_fixed_seeds():
    # recorded with the walk-major sampler that recomputed both cuts per step; one
    # uniform per step is drawn up front, so the generator's next value is pinned too
    for (n_steps, z, n, seed), digest, nxt in (
        ((64, 0, 4096, 61), "23891ed87cdf22f9710964bbc27d15a48e9d2f6843da4ecb6fb7f149d647955d",
         0.8739348230767388),
        ((1024, 0, 200, 62), "7fb2d5ca12f5d8f0c984216c1a69a8e7e680dff3a9ff8b062ddd0cefa72dbe82",
         0.8005573564473778),
    ):
        rng = RngSeed(seed).generator()
        steps = walk.sample_walk_steps(n_steps, z, n, rng)
        assert steps.dtype == np.int8 and steps.shape == (n, n_steps)
        assert hashlib.sha256(steps.tobytes()).hexdigest() == digest
        assert rng.random() == nxt
    rng = RngSeed(63).generator()
    assert walk.sample_walk_steps(7, -3, 5, rng).tolist() == [
        [0, 1, -1, -1, -1, -1, 0],
        [-1, -1, 1, -1, -1, -1, 1],
        [-1, -1, 0, -1, 1, -1, 0],
        [1, -1, -1, -1, -1, 1, -1],
        [-1, 0, 0, -1, 0, 0, -1],
    ]
    assert rng.random() == 0.4452504528266874
    rng = RngSeed(64).generator()
    steps = walk.sample_walk_steps(0, 0, 4, rng)
    assert steps.dtype == np.int8 and steps.shape == (4, 0)
    assert rng.random() == 0.9434934527404035


def test_walk_bridge_struct_validation():
    # walk_log_prob scores (n, N) batches of steps in {-1, 0, 1} that sum to z, and refuses others
    for steps, z in (([[1, 1]], 1), ([[1, 2, -1]], 2), ([[1, 0]], 0), ([1, 0], 1), ([[[1, 0]]], 1),
                     ([[1, 0], [0, 0]], 1)):
        with pytest.raises(StructuralError, match="summing to z"):
            walk.walk_log_prob(np.array(steps), z)
    lp = walk.walk_log_prob(np.array([[1, -1, 1], [0, 0, 1]], dtype=np.int8), 1)
    assert lp.shape == (2,)
    np.testing.assert_allclose(lp, -math.log(walk.count_paths(3, 1)), rtol=0, atol=1e-12)
