import numpy as np
import pytest

from bridgelines import glauber, walk
from bridgelines.core import DomainError, Interval, LatticeParams, RngSeed


def _lat(steps=2):
    return LatticeParams(Interval(0, 1), steps)


def _spec(lat, x_units, y_units, g=-np.inf):
    return walk.WalkEnsembleSpec(lat, x_units, y_units, g=g)


def test_maximal_state_examples():
    lat = _lat(2)
    assert glauber.maximal_state(_spec(lat, [0], [0])).units == ((0, 1, 0),)
    # odd parity inserts the single flat step after the rise
    assert glauber.maximal_state(_spec(lat, [0], [1])).units == ((0, 1, 1),)
    two = glauber.maximal_state(_spec(_lat(4), [2, 0], [2, 0]))
    assert two.units == ((2, 3, 4, 3, 2), (0, 1, 2, 1, 0))
    assert two.is_feasible()


def test_minimal_state_mirrors_and_respects_barrier():
    lat = _lat(2)
    assert glauber.minimal_state(_spec(lat, [0], [0])).units == ((0, -1, 0),)
    # a barrier just below zero forbids the dip
    g = -0.5 * lat.dx
    assert glauber.minimal_state(_spec(lat, [0], [0], g)).units == ((0, 0, 0),)
    lo = glauber.minimal_state(_spec(_lat(4), [2, 0], [2, 0]))
    hi = glauber.maximal_state(_spec(_lat(4), [2, 0], [2, 0]))
    assert all(a <= b for ra, rb in zip(lo.units, hi.units) for a, b in zip(ra, rb))


def test_maximal_state_infeasible_barrier_raises():
    lat = _lat(2)
    with pytest.raises(DomainError, match="lower barrier must clear the bottom endpoints"):
        glauber.maximal_state(_spec(lat, [0], [0], 0.5 * lat.dx))


@pytest.mark.parametrize("state", [glauber.maximal_state, glauber.minimal_state])
def test_extremal_states_refuse_an_upper_barrier(state):
    # the spec accepts f well above the ends; the chain takes a lower barrier only
    lat = _lat(4)
    with pytest.raises(DomainError, match="^the chain takes no upper barrier, got f = "):
        state(walk.WalkEnsembleSpec(lat, (2, 0), (2, 0), f=5 * lat.dx))
    with pytest.raises(DomainError, match="^the chain takes no upper barrier"):
        state(walk.WalkEnsembleSpec(lat, (2, 0), (2, 0), f=5 * lat.dx, g=-1.5 * lat.dx))


class _ScriptedCodes:
    """Stands in for the generator: hands the kernel fixed event codes."""

    def __init__(self, codes):
        self.codes = list(codes)

    def integers(self, low, high, size):
        assert low == 0 and all(0 <= c < high for c in self.codes[:size])
        out, self.codes = self.codes[:size], self.codes[size:]
        return np.array(out, dtype=np.int64)


def test_zero_move_is_always_kept_and_peak_moves_rejected():
    # one curve, one interior site: code 0 moves it by -1, code 1 by 0, code 2 by +1
    lat = _lat(2)
    cfg = glauber.maximal_state(_spec(lat, [0], [0]))  # (0, 1, 0)
    g_units = glauber._barrier_units_floor(cfg.lattice, cfg.g)
    rows = [list(r) for r in cfg.units]
    done, snaps = glauber._run(rows, g_units, 6, _ScriptedCodes([2, 1, 0, 0, 0, 2]), every=1)
    # +1 at the peak and -1 at the trough would need increments of 2
    assert done == 6 and snaps[:, 0, 1].tolist() == [1, 1, 0, -1, -1, 0]
    assert rows == [[0, 0, 0]]


def test_local_feasibility_matches_full_validation():
    # independent oracle: revalidate the whole configuration from scratch
    def full_ok(trial, lat, g_level):
        arr = np.asarray(trial)
        if np.any(np.abs(np.diff(arr, axis=1)) > 1):
            return False
        if not np.all(arr[:-1] > arr[1:]):
            return False
        return bool(np.all(arr[-1] * lat.dx > g_level))

    # replay every event of the kernel from an identically seeded generator
    lat = _lat(6)
    g_level = -2.5 * lat.dx
    cfg = glauber.maximal_state(_spec(lat, [2, 0], [2, 0], g_level))
    n_events, k, n_int = 5000, 2, lat.n_steps - 1
    _, snaps = glauber.simulate_chain(cfg, n_events, RngSeed(0).generator(), record_every=1)
    replay = RngSeed(0).generator()
    codes = np.concatenate([
        replay.integers(0, 3 * k * n_int, size=min(glauber._CHUNK, n_events - done))
        for done in range(0, n_events, glauber._CHUNK)
    ])
    state = [list(r) for r in cfg.units]
    kept = rejected = 0
    for c, snap in zip(codes.tolist(), snaps.tolist()):
        i, r, delta = (c // n_int) % k, c % n_int + 1, c // (n_int * k) - 1
        trial = [list(row) for row in state]
        trial[i][r] += delta
        if delta and full_ok(trial, lat, g_level):
            assert snap == trial
            kept += 1
        else:
            assert snap == state
            rejected += bool(delta)
        state = snap
    assert kept > 500 and rejected > 500


def test_boundary_columns_never_change():
    lat = _lat(4)
    init = glauber.maximal_state(_spec(lat, [2, 0], [2, 0]))
    final, _ = glauber.simulate_chain(init, 20000, RngSeed(1).generator())
    arr = np.asarray(final.units)
    assert list(arr[:, 0]) == [2, 0] and list(arr[:, -1]) == [2, 0]
    assert final.is_feasible()


def test_three_state_chain_uniform():
    lat = _lat(2)
    init = glauber.maximal_state(_spec(lat, [0], [0]))
    counts = glauber.sample_stationary_keys(init, 500, 30000, 3, RngSeed(2).generator())
    assert set(k[0][1] for k in counts) == {-1, 0, 1}
    total = sum(counts.values())
    tv = 0.5 * sum(abs(v / total - 1 / 3) for v in counts.values())
    assert tv <= 0.02


def test_chain_visits_only_enumerated_states():
    lat = _lat(4)
    spec = _spec(lat, [2, 0], [2, 0], -0.5 * lat.dx)
    support = {tuple(map(tuple, units)) for units in walk.enumerate_avoiding_configs(spec).tolist()}
    init = glauber.maximal_state(spec)
    counts = glauber.sample_stationary_keys(init, 1000, 20000, 2, RngSeed(3).generator())
    assert set(counts) <= support


def test_coupled_chain_preserves_order():
    lat = _lat(16)
    a = glauber.maximal_state(_spec(lat, [1, -1], [1, -1]))
    b = glauber.maximal_state(_spec(lat, [3, 0], [2, 0]))
    state = glauber.simulate_coupled(a, b, 30000, RngSeed(4).generator())
    for ra, rb in zip(state.a.units, state.b.units):
        assert all(x <= y for x, y in zip(ra, rb))


def test_coupled_identical_inputs_stay_identical():
    lat = _lat(4)
    init = glauber.maximal_state(_spec(lat, [2, 0], [2, 0]))
    state = glauber.simulate_coupled(init, init, 5000, RngSeed(5).generator())
    assert state.a.units == state.b.units


def test_coupled_state_validates_order():
    lat = _lat(2)
    hi = glauber.maximal_state(_spec(lat, [0], [0]))
    lo = glauber.minimal_state(_spec(lat, [0], [0]))
    with pytest.raises(glauber.InfeasibleState):
        glauber.CoupledState(hi, lo)  # hi above lo: wrong order for (a, b)


def test_mixing_diagnostic():
    lat = _lat(2)
    hi = glauber.maximal_state(_spec(lat, [0], [0]))
    lo = glauber.minimal_state(_spec(lat, [0], [0]))
    assert glauber.mixing_diagnostic(hi, hi, RngSeed(6).generator()) == 0
    # crossing start states: the differences sum to 0 but the pair is not ordered
    lat4 = _lat(4)
    up = glauber.GlauberConfig(lat4, ((0, -1, 0, 1, 0),))
    down = glauber.GlauberConfig(lat4, ((0, 1, 0, -1, 0),))
    with pytest.raises(glauber.InfeasibleState):
        glauber.mixing_diagnostic(up, down, RngSeed(6).generator())
    counts = [
        glauber.mixing_diagnostic(hi, lo, RngSeed(7).derive(i).generator())
        for i in range(16)
    ]
    assert all(0 < c < 10**6 for c in counts)
    seeds = [RngSeed(8).derive(i) for i in range(9)]
    burn = glauber.coalescence_burn_in(_spec(lat, [0], [0], -np.inf), [s.generator() for s in seeds])
    replay = sorted(glauber.mixing_diagnostic(hi, lo, s.generator()) for s in seeds)
    assert burn == 4 * replay[4]


def test_marginal_law_matches_enumeration_after_coupling_run():
    # the A-component of a long coupled run is still uniform on its state space
    lat = _lat(2)
    a0 = glauber.minimal_state(_spec(lat, [0], [0]))
    b0 = glauber.maximal_state(_spec(lat, [0], [0]))
    rng = RngSeed(9).generator()
    counts = {}
    state = glauber.simulate_coupled(a0, b0, 2000, rng)
    for _ in range(6000):
        state = glauber.simulate_coupled(state.a, state.b, 5, rng)
        key = state.a.units
        counts[key] = counts.get(key, 0) + 1
    total = sum(counts.values())
    tv = 0.5 * sum(abs(v / total - 1 / 3) for v in counts.values())
    assert tv <= 0.03


def test_chain_outputs_pinned_at_fixed_seeds():
    # values recorded before the four event loops were merged into one kernel
    lat = _lat(4)
    g = -1.5 * lat.dx
    hi = glauber.maximal_state(_spec(lat, [2, 0], [2, 0], g))
    lo = glauber.minimal_state(_spec(lat, [2, 0], [2, 0], g))
    assert lo.units == ((2, 1, 0, 1, 2), (0, -1, -1, -1, 0))
    counts = [glauber.mixing_diagnostic(hi, lo, RngSeed(7).derive(i).generator()) for i in range(6)]
    assert counts == [110, 140, 192, 140, 132, 116]
    rngs = [RngSeed(8).derive(i).generator() for i in range(5)]
    assert glauber.coalescence_burn_in(_spec(lat, [2, 0], [2, 0], g), rngs) == 728
    # 10,000 events cross several draw pieces
    final, snaps = glauber.simulate_chain(hi, 10000, RngSeed(1).generator(), record_every=2500)
    assert final.units == ((2, 2, 2, 1, 2), (0, 1, 0, -1, 0))
    assert snaps.dtype == np.int64 and snaps.shape == (4, 2, 5)
    assert snaps.tolist() == [
        [[2, 2, 2, 3, 2], [0, 1, 0, 1, 0]],
        [[2, 2, 1, 2, 2], [0, 0, -1, 0, 0]],
        [[2, 3, 2, 2, 2], [0, -1, 0, 0, 0]],
        [[2, 2, 2, 1, 2], [0, 1, 0, -1, 0]],
    ]
    state = glauber.simulate_coupled(lo, hi, 40, RngSeed(2).generator())
    assert state.a.units == ((2, 2, 2, 1, 2), (0, -1, 0, 0, 0))
    assert state.b.units == ((2, 2, 3, 2, 2), (0, -1, 0, 1, 0))
    top = glauber.maximal_state(_spec(_lat(2), [0], [0]))
    keys = glauber.sample_stationary_keys(top, 50, 300, 3, RngSeed(3).generator())
    assert keys == {((0, -1, 0),): 96, ((0, 0, 0),): 107, ((0, 1, 0),): 97}


def test_coupling_check_fires_on_non_monotone_rule():
    # the lower chain's barrier lies above the upper chain's (simulate_coupled
    # refuses this pair): a -1 move at the bottom curve is then kept by the
    # upper chain only, which breaks the order; the touched-site check must catch it
    lat = _lat(4)
    init = glauber.maximal_state(_spec(lat, [2, 0], [2, 0]))
    low_g = glauber._barrier_units_floor(lat, -0.5 * lat.dx)  # the bottom curve may not go below 0
    free_g = glauber._barrier_units_floor(lat, -np.inf)
    rows_a, rows_b = [list(r) for r in init.units], [list(r) for r in init.units]
    with pytest.raises(AssertionError, match="coupling invariant"):
        glauber._run(rows_a, low_g, 5000, RngSeed(5).generator(), upper=(rows_b, free_g))


@pytest.mark.parametrize("n", range(2, 9))
def test_integer_barrier_level_is_strict(n):
    # g = u dx exactly: g / dx can round to just below u, and the chain must
    # still keep the bottom curve off the barrier
    lat = LatticeParams.scaled(Interval(0, 1), n)
    assert glauber._barrier_units_floor(lat, -np.inf) == -np.inf
    for u in range(-6, 0):
        g = u * lat.dx
        assert glauber._barrier_units_floor(lat, g) == u
        assert glauber._barrier_units_floor(lat, (u - 0.5) * lat.dx) == u - 1
        ends = [u + 2, u + 1]
        lo = glauber.minimal_state(_spec(lat, ends, ends, g))
        hi = glauber.maximal_state(_spec(lat, ends, ends, g))
        assert min(lo.units[-1]) == u + 1
        _, snaps = glauber.simulate_chain(hi, 20000, RngSeed(n).derive(u).generator(), record_every=10)
        assert snaps[:, -1].min() == u + 1


@pytest.mark.parametrize("n", range(2, 9))
def test_feasible_integer_floor_matches_float_barrier(n):
    # _feasible compares units with _barrier_units_floor; the float form compares
    # units * dx with g. They must agree on every state, also where the bottom curve
    # sits exactly at the floor or one unit above it, and for g on, just off and
    # half a cell off an integer level
    lat = LatticeParams.scaled(Interval(0, 1), n)
    rng = RngSeed(n).generator()
    cols = lat.n_steps + 1
    steps = rng.integers(-1, 2, size=(3000, 2, cols - 1))
    units = np.concatenate([np.zeros((3000, 2, 1), dtype=np.int64), np.cumsum(steps, axis=-1)], axis=-1)
    units[:, 0] += 3 + rng.integers(0, 3, size=(3000, 1))  # mostly ordered, some curves meet
    units[::7, 1, cols // 2] += 2  # some increments of 2
    for u in (-3, -2, -1):
        for g in (u * lat.dx, np.nextafter(u * lat.dx, 0), np.nextafter(u * lat.dx, -1), (u + 0.5) * lat.dx):
            floor = glauber._barrier_units_floor(lat, g)
            shifted = units - units[:, 1].min(axis=-1)[:, None, None] + floor + rng.integers(0, 2, size=(3000, 1, 1))
            want = (np.abs(np.diff(shifted, axis=-1)) <= 1).all(axis=(-2, -1)) & (
                (shifted[:, 0] > shifted[:, 1]).all(axis=-1) & (shifted[:, 1] * lat.dx > g).all(axis=-1))
            got = glauber._feasible(shifted, lat, g)
            assert np.array_equal(got, want)
            assert want.any() and not want.all()
            assert (shifted[:, 1].min(axis=-1) == floor).any()  # bottom curves at the floor itself
    free = glauber._feasible(units, lat, -np.inf)
    assert np.array_equal(free, (np.abs(np.diff(units, axis=-1)) <= 1).all(axis=(-2, -1))
                          & (units[:, 0] > units[:, 1]).all(axis=-1))
