"""Event-driven lattice-path Markov chain with single-site updates and monotone coupling.

Configurations are k lattice paths on the (dt, dx) grid with fixed endpoint
columns, pairwise strict ordering, and an optional lower barrier. Each of the
3 * k * (n^2 - 1) clocks rings at rate 1; a ring proposes moving one interior
site of one curve by -dx, 0, or +dx and the move is kept iff the configuration
stays feasible. The embedded jump chain (one uniform draw per event) has the
same law as the continuous-time chain watched at event times; holding times are
iid Exp(3 k (n^2 - 1)) independent of everything else, so they are never drawn.

Values are stored as integer multiples of dx, so single-site moves and the
coupling invariant are checked in exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import Barrier, DomainError, LatticeParams, StructuralError, _avoids


class InfeasibleState(ValueError):
    """Requested configuration violates ordering or barrier constraints."""


@dataclass(frozen=True)
class GlauberConfig:
    """Lattice path configuration: units[i][j] is curve i at column j in dx units."""

    lattice: LatticeParams
    units: tuple[tuple[int, ...], ...]
    barrier_g: Barrier

    def __post_init__(self):
        n_cols = self.lattice.n_steps + 1
        if any(len(row) != n_cols for row in self.units):
            raise StructuralError(f"each curve needs {n_cols} columns")
        if not self.is_feasible():
            raise InfeasibleState("configuration violates increments, ordering, or barrier")

    @property
    def k(self) -> int:
        return len(self.units)

    def is_feasible(self) -> bool:
        return bool(_feasible(np.asarray(self.units, dtype=np.int64), self.lattice, self.barrier_g))


def _feasible(units: np.ndarray, lattice: LatticeParams, g: Barrier) -> np.ndarray:
    """Increments in {-1, 0, +1} plus core._avoids over (..., k, cols) units; one bool per state."""
    steps_ok = (np.abs(np.diff(units, axis=-1)) <= 1).all(axis=(-2, -1))
    g_vals = g.at(lattice.time_grid) if g.is_finite else -np.inf
    return steps_ok & _avoids(units * lattice.dx, np.inf, g_vals)


def _config(like: GlauberConfig, rows: list[list[int]]) -> GlauberConfig:
    return GlauberConfig(like.lattice, tuple(tuple(r) for r in rows), like.barrier_g)


def _check_lengths(x_units: list[int], y_units: list[int]) -> None:
    if len(x_units) != len(y_units):
        raise StructuralError(
            f"entrance and exit units must have equal length, got {len(x_units)} and {len(y_units)}"
        )


def maximal_state(
    lattice: LatticeParams, x_units: list[int], y_units: list[int], g: Barrier
) -> GlauberConfig:
    """Highest feasible configuration: every curve rises at full slope then descends.

    Per curve this is the upper envelope min(x + j, y + (n - j)), equivalently
    the lexicographically maximal symbol list (all up-steps, one 0 on odd
    parity, then down-steps).
    """
    _check_lengths(x_units, y_units)
    n = lattice.n_steps
    cols = np.arange(n + 1)
    rows = []
    for xi, yi in zip(x_units, y_units):
        if abs(yi - xi) > n:
            raise DomainError("endpoints not reachable")
        rows.append(tuple(int(v) for v in np.minimum(xi + cols, yi + (n - cols))))
    try:
        return GlauberConfig(lattice, tuple(rows), g)
    except InfeasibleState as exc:
        raise InfeasibleState(
            "maximal state infeasible at this lattice resolution; increase n"
        ) from exc


def minimal_state(
    lattice: LatticeParams, x_units: list[int], y_units: list[int], g: Barrier
) -> GlauberConfig:
    """Lowest feasible configuration, built bottom curve first.

    Each curve is the lower envelope max(x - j, y - (n - j), barrier floor,
    curve below + 1); a max of 1-Lipschitz profiles is 1-Lipschitz, so the
    increments stay in {-1, 0, +1}. With no barrier this is the mirror of the
    maximal construction (all down-steps first).
    """
    _check_lengths(x_units, y_units)
    n = lattice.n_steps
    cols = np.arange(n + 1)
    rows: list[np.ndarray] = []
    # the bottom curve sits at floor + 1 or higher: strictly above the barrier
    below = np.floor(_barrier_units_floor(lattice, g))
    for xi, yi in zip(x_units[::-1], y_units[::-1]):
        if abs(yi - xi) > n:
            raise DomainError("endpoints not reachable")
        below = np.maximum(np.maximum(xi - cols, yi - (n - cols)), below + 1)
        rows.insert(0, below)
    try:
        return GlauberConfig(lattice, tuple(tuple(int(v) for v in r) for r in rows), g)
    except InfeasibleState as exc:
        raise InfeasibleState(
            "minimal state infeasible at this lattice resolution; increase n"
        ) from exc


def _barrier_units_floor(lattice: LatticeParams, g: Barrier) -> list[float]:
    """Per-column strict lower limits for the bottom curve, in dx units (-inf for none)."""
    return (g.at(lattice.time_grid) / lattice.dx).tolist()


def _move_ok(rows: list[list[int]], g_units: list[float], i: int, r: int, v_new: int) -> bool:
    # local feasibility: the 6 constraints touching site (i, r)
    if abs(v_new - rows[i][r - 1]) > 1 or abs(v_new - rows[i][r + 1]) > 1:
        return False
    if i > 0 and v_new >= rows[i - 1][r]:
        return False
    if i + 1 < len(rows):
        if v_new <= rows[i + 1][r]:
            return False
    if i == len(rows) - 1 and not v_new > g_units[r]:
        return False
    return True


def _draw_events(k: int, n_cols: int, num_events: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (site, curve, delta) triples; one row per event."""
    n_interior = n_cols - 2
    raw = rng.integers(0, 3 * k * n_interior, size=num_events)
    out = np.empty((num_events, 3), dtype=np.int64)
    out[:, 0] = raw % n_interior + 1          # interior column
    out[:, 1] = (raw // n_interior) % k       # curve
    out[:, 2] = raw // (n_interior * k) - 1   # delta
    return out


_CHUNK = 4096  # events drawn and decoded per piece; bounds the memory of long runs
_MAX_COALESCENCE_EVENTS = 10**7  # mixing_diagnostic gives up after this many events


def _run(
    rows: list[list[int]],
    g_units: list[float],
    num_events: int,
    rng: np.random.Generator,
    every: int = 0,
    upper: tuple[list[list[int]], list[float]] | None = None,
    stop_at_meet: bool = False,
) -> tuple[int, np.ndarray]:
    """The chain event loop: apply up to num_events clock rings to rows in place.

    Each event moves one site of rows when _move_ok accepts it against the
    bottom-curve limits g_units. With upper = (rows_b, g_b) a second chain sees
    the same events (shared clocks); after each event the touched site must
    keep rows <= rows_b, else AssertionError. With stop_at_meet the loop ends
    at the event where the pair coincides. Every `every` events the state of
    rows is recorded. Events are drawn in pieces of _CHUNK, which give the same
    stream as one draw. Returns (events run, snapshots as an int64 array of
    shape (n, k, cols)).
    """
    if num_events < 0 or every < 0:
        raise DomainError("event counts must be non-negative")
    k, n_cols = len(rows), len(rows[0])
    rows_b, g_b = upper or (None, None)
    flat: list[int] = []
    met = stop_at_meet and rows == rows_b
    done = 0
    while done < num_events and not met:
        events = _draw_events(k, n_cols, min(_CHUNK, num_events - done), rng).tolist()
        for e, (r, i, delta) in enumerate(events, done + 1):
            if delta:
                v = rows[i][r] + delta
                if _move_ok(rows, g_units, i, r, v):
                    rows[i][r] = v
                if rows_b is not None:
                    v = rows_b[i][r] + delta
                    if _move_ok(rows_b, g_b, i, r, v):
                        rows_b[i][r] = v
                    # explicit raise: this check must survive interpreter -O mode
                    if rows[i][r] > rows_b[i][r]:
                        raise AssertionError("coupling invariant broken at touched site")
                    if stop_at_meet and rows[i][r] == rows_b[i][r] and rows == rows_b:
                        met = True
                        break
            if every and e % every == 0:
                for row in rows:
                    flat.extend(row)
        done = e  # the last event of the piece, or the one where the pair met
    return done, np.array(flat, dtype=np.int64).reshape(-1, k, n_cols)


def simulate_chain(
    init: GlauberConfig,
    num_events: int,
    rng: np.random.Generator,
    record_every: int = 0,
) -> tuple[GlauberConfig, np.ndarray]:
    """Run the chain for num_events clock rings; optionally record snapshots.

    Returns (final state, snapshots). With record_every > 0 the state after
    every record_every-th event is recorded, and the snapshots are one int64
    array of shape (num_events // record_every, k, n_steps + 1) in dx units;
    with record_every = 0 the array has no rows. The whole array is checked in
    one batched call of the predicate behind GlauberConfig.is_feasible
    (increments plus core._avoids).
    """
    rows = [list(r) for r in init.units]
    g_units = _barrier_units_floor(init.lattice, init.barrier_g)
    _, snaps = _run(rows, g_units, num_events, rng, every=record_every)
    if not _feasible(snaps, init.lattice, init.barrier_g).all():
        raise InfeasibleState("chain snapshot violates increments, ordering, or barrier")
    return _config(init, rows), snaps


def sample_stationary_keys(
    init: GlauberConfig,
    burn_in: int,
    n_samples: int,
    thin: int,
    rng: np.random.Generator,
) -> dict[tuple, int]:
    """Visit counts of state keys after burn-in, one sample every `thin` events."""
    rows = [list(r) for r in init.units]
    g_units = _barrier_units_floor(init.lattice, init.barrier_g)
    _run(rows, g_units, burn_in, rng)
    _, snaps = _run(rows, g_units, n_samples * thin, rng, every=thin)
    return dict(Counter(tuple(map(tuple, snap)) for snap in snaps.tolist()))


@dataclass(frozen=True)
class CoupledState:
    """Coupled pair: lower chain A (barrier g_b) below upper chain B (barrier g_t)."""

    a: GlauberConfig
    b: GlauberConfig

    def __post_init__(self):
        if self.a.lattice != self.b.lattice or self.a.k != self.b.k:
            raise StructuralError("coupled chains must share lattice and curve count")
        for ra, rb in zip(self.a.units, self.b.units):
            if any(va > vb for va, vb in zip(ra, rb)):
                raise InfeasibleState("coupling order A <= B violated at initialization")


def simulate_coupled(
    init_a: GlauberConfig,
    init_b: GlauberConfig,
    num_events: int,
    rng: np.random.Generator,
) -> CoupledState:
    """Drive both chains with one shared event stream; A <= B is asserted throughout.

    Only the touched site is checked after each event, which is enough by
    induction: CoupledState checks A <= B at every site before the first
    event, and an event changes at most one site, the same one in both chains,
    so every other site keeps its order. An ordering violation raises
    AssertionError: it would falsify the update rule, not the inputs.
    """
    CoupledState(init_a, init_b)  # validates ordering of the inputs
    ga = _barrier_units_floor(init_a.lattice, init_a.barrier_g)
    gb = _barrier_units_floor(init_b.lattice, init_b.barrier_g)
    if any(x > y for x, y in zip(ga, gb)):
        raise InfeasibleState("coupled barriers must satisfy g_b <= g_t")
    rows_a = [list(r) for r in init_a.units]
    rows_b = [list(r) for r in init_b.units]
    _run(rows_a, ga, num_events, rng, upper=(rows_b, gb))
    return CoupledState(_config(init_a, rows_a), _config(init_b, rows_b))


def mixing_diagnostic(
    init_hi: GlauberConfig,
    init_lo: GlauberConfig,
    rng: np.random.Generator,
) -> int:
    """Events until the coupled chains started at (lo, hi) coincide; same barrier both sides.

    init_lo <= init_hi must hold at every site (InfeasibleState otherwise).
    Returns the coalescence event count; raises RuntimeError when the chains
    have not met after _MAX_COALESCENCE_EVENTS.
    """
    CoupledState(init_lo, init_hi)  # validates lo <= hi
    g_units = _barrier_units_floor(init_lo.lattice, init_lo.barrier_g)
    rows_lo = [list(r) for r in init_lo.units]
    rows_hi = [list(r) for r in init_hi.units]
    done, _ = _run(rows_lo, g_units, _MAX_COALESCENCE_EVENTS, rng, upper=(rows_hi, g_units), stop_at_meet=True)
    if rows_lo != rows_hi:
        raise RuntimeError(f"no coalescence within {_MAX_COALESCENCE_EVENTS} events")
    return done


def coalescence_burn_in(
    lattice: LatticeParams,
    x_units: list[int],
    y_units: list[int],
    g: Barrier,
    rngs,
) -> int:
    """Burn-in = 4 x median coalescence count from the extremal states, one run per generator."""
    hi = maximal_state(lattice, x_units, y_units, g)
    lo = minimal_state(lattice, x_units, y_units, g)
    counts = sorted(mixing_diagnostic(hi, lo, rng) for rng in rngs)
    return 4 * counts[len(counts) // 2]
