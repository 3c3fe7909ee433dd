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

from dataclasses import dataclass

import numpy as np

from .core import Barrier, DomainError, LatticeParams, LineEnsemble, StructuralError, _avoids


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
        arr = np.asarray(self.units, dtype=np.int64)
        if np.any(np.abs(np.diff(arr, axis=1)) > 1):
            return False
        g_vals = self.barrier_g.at(self.lattice.time_grid) if self.barrier_g.is_finite else -np.inf
        return bool(_avoids(arr * self.lattice.dx, np.inf, g_vals))

    def to_ensemble(self) -> LineEnsemble:
        return LineEnsemble(
            self.lattice.interval, np.asarray(self.units, dtype=float) * self.lattice.dx
        )


def _barrier_min_units(lattice: LatticeParams, g: Barrier) -> np.ndarray:
    """Per-column smallest lattice value strictly above g."""
    n_cols = lattice.n_steps + 1
    if not g.is_finite:
        return np.full(n_cols, np.iinfo(np.int64).min // 2, dtype=np.int64)
    g_vals = g.at(lattice.time_grid)
    return (np.floor(g_vals / lattice.dx) + 1).astype(np.int64)


def maximal_state(
    lattice: LatticeParams, x_units: list[int], y_units: list[int], g: Barrier
) -> GlauberConfig:
    """Highest feasible configuration: every curve rises at full slope then descends.

    Per curve this is the upper envelope min(x + j, y + (n - j)), equivalently
    the lexicographically maximal symbol list (all up-steps, one 0 on odd
    parity, then down-steps).
    """
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
    n = lattice.n_steps
    cols = np.arange(n + 1)
    k = len(x_units)
    floor_units = _barrier_min_units(lattice, g)
    rows: list[np.ndarray] = [None] * k
    below = floor_units - 1  # bottom curve must stay strictly above the barrier
    for i in range(k - 1, -1, -1):
        xi, yi = x_units[i], y_units[i]
        if abs(yi - xi) > n:
            raise DomainError("endpoints not reachable")
        prof = np.maximum(np.maximum(xi - cols, yi - (n - cols)), below + 1)
        rows[i] = prof
        below = prof
    try:
        return GlauberConfig(lattice, tuple(tuple(int(v) for v in r) for r in rows), g)
    except InfeasibleState as exc:
        raise InfeasibleState(
            "minimal state infeasible at this lattice resolution; increase n"
        ) from exc


def _barrier_units_floor(config: GlauberConfig) -> list[float]:
    """Per-column strict lower limits for the bottom curve, in dx units."""
    if not config.barrier_g.is_finite:
        return [-np.inf] * (config.lattice.n_steps + 1)
    g_vals = config.barrier_g.at(config.lattice.time_grid)
    return list(np.asarray(g_vals, dtype=float) / config.lattice.dx)


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


def simulate_chain(
    init: GlauberConfig,
    num_events: int,
    rng: np.random.Generator,
    record_every: int = 0,
) -> tuple[GlauberConfig, list[GlauberConfig]]:
    """Run the chain for num_events clock rings; optionally record snapshots."""
    rows = [list(r) for r in init.units]
    g_units = _barrier_units_floor(init)
    events = _draw_events(init.k, init.lattice.n_steps + 1, num_events, rng)
    snaps: list[GlauberConfig] = []
    for e in range(num_events):
        r, i, delta = int(events[e, 0]), int(events[e, 1]), int(events[e, 2])
        if delta:
            v_new = rows[i][r] + delta
            if _move_ok(rows, g_units, i, r, v_new):
                rows[i][r] = v_new
        if record_every and (e + 1) % record_every == 0:
            snaps.append(GlauberConfig(init.lattice, tuple(tuple(r_) for r_ in rows), init.barrier_g))
    final = GlauberConfig(init.lattice, tuple(tuple(r_) for r_ in rows), init.barrier_g)
    return final, snaps


def sample_stationary_keys(
    init: GlauberConfig,
    burn_in: int,
    n_samples: int,
    thin: int,
    rng: np.random.Generator,
) -> dict[tuple, int]:
    """Visit counts of state keys after burn-in, one sample every `thin` events."""
    rows = [list(r) for r in init.units]
    g_units = _barrier_units_floor(init)
    total = burn_in + n_samples * thin
    events = _draw_events(init.k, init.lattice.n_steps + 1, total, rng)
    counts: dict[tuple, int] = {}
    for e in range(total):
        r, i, delta = int(events[e, 0]), int(events[e, 1]), int(events[e, 2])
        if delta:
            v_new = rows[i][r] + delta
            if _move_ok(rows, g_units, i, r, v_new):
                rows[i][r] = v_new
        if e >= burn_in and (e - burn_in + 1) % thin == 0:
            key = tuple(tuple(r_) for r_ in rows)
            counts[key] = counts.get(key, 0) + 1
    return counts


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
    full_check_every: int = 1000,
) -> CoupledState:
    """Drive both chains with one shared event stream; A <= B is asserted throughout.

    An ordering violation raises AssertionError: it would falsify the update
    rule, not the inputs.
    """
    CoupledState(init_a, init_b)  # validates ordering of the inputs
    rows_a = [list(r) for r in init_a.units]
    rows_b = [list(r) for r in init_b.units]
    ga = _barrier_units_floor(init_a)
    gb = _barrier_units_floor(init_b)
    if any(x > y for x, y in zip(ga, gb)):
        raise InfeasibleState("coupled barriers must satisfy g_b <= g_t")
    events = _draw_events(init_a.k, init_a.lattice.n_steps + 1, num_events, rng)
    for e in range(num_events):
        r, i, delta = int(events[e, 0]), int(events[e, 1]), int(events[e, 2])
        if delta:
            va = rows_a[i][r] + delta
            if _move_ok(rows_a, ga, i, r, va):
                rows_a[i][r] = va
            vb = rows_b[i][r] + delta
            if _move_ok(rows_b, gb, i, r, vb):
                rows_b[i][r] = vb
            # explicit raise: this check must survive interpreter -O mode
            if rows_a[i][r] > rows_b[i][r]:
                raise AssertionError("coupling invariant broken at touched site")
        if full_check_every and (e + 1) % full_check_every == 0:
            for ra, rb in zip(rows_a, rows_b):
                if any(x > y for x, y in zip(ra, rb)):
                    raise AssertionError("coupling invariant broken")
    return CoupledState(
        GlauberConfig(init_a.lattice, tuple(tuple(r_) for r_ in rows_a), init_a.barrier_g),
        GlauberConfig(init_b.lattice, tuple(tuple(r_) for r_ in rows_b), init_b.barrier_g),
    )


def mixing_diagnostic(
    init_hi: GlauberConfig,
    init_lo: GlauberConfig,
    rng: np.random.Generator,
    max_events: int = 10**7,
) -> int:
    """Events until the coupled chains started at (lo, hi) coincide; same barrier both sides.

    Returns the coalescence event count; raises RejectionExhausted-style RuntimeError
    at the cap.
    """
    rows_lo = [list(r) for r in init_lo.units]
    rows_hi = [list(r) for r in init_hi.units]
    g_units = _barrier_units_floor(init_lo)
    gap = sum(h - l for rl, rh in zip(rows_lo, rows_hi) for l, h in zip(rl, rh))
    if gap < 0:
        raise InfeasibleState("need init_lo <= init_hi coordinatewise")
    if gap == 0:
        return 0
    chunk = 4096
    done = 0
    while done < max_events:
        events = _draw_events(init_lo.k, init_lo.lattice.n_steps + 1, chunk, rng)
        for e in range(chunk):
            r, i, delta = int(events[e, 0]), int(events[e, 1]), int(events[e, 2])
            if delta:
                v = rows_lo[i][r] + delta
                if _move_ok(rows_lo, g_units, i, r, v):
                    rows_lo[i][r] = v
                    gap -= delta
                v = rows_hi[i][r] + delta
                if _move_ok(rows_hi, g_units, i, r, v):
                    rows_hi[i][r] = v
                    gap += delta
            if gap == 0:
                return done + e + 1
        done += chunk
    raise RuntimeError(f"no coalescence within {max_events} events")


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
