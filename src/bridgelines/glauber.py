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

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, LatticeParams, StructuralError, _avoids
from .walk import WalkEnsembleSpec


class InfeasibleState(ValueError):
    """Requested configuration violates ordering or barrier constraints."""


@dataclass(frozen=True)
class GlauberConfig:
    """Lattice path configuration: units[i][j] is curve i at column j in dx units, above the constant g."""

    lattice: LatticeParams
    units: tuple[tuple[int, ...], ...]
    g: float = -np.inf

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
        return bool(_feasible(np.asarray(self.units, dtype=np.int64), self.lattice, self.g))


def _feasible(units: np.ndarray, lattice: LatticeParams, g: float) -> np.ndarray:
    """Increments in {-1, 0, +1} plus core._avoids over (..., k, cols) units; one bool per state.

    The bottom curve is compared in units with _barrier_units_floor, which
    keeps exactly the states whose u * dx clears g.
    """
    steps_ok = (np.abs(np.diff(units, axis=-1)) <= 1).all(axis=(-2, -1))
    return steps_ok & _avoids(units, np.inf, _barrier_units_floor(lattice, g))


def _config(like: GlauberConfig, rows: list[list[int]]) -> GlauberConfig:
    return GlauberConfig(like.lattice, tuple(tuple(r) for r in rows), like.g)


def _check_no_upper_barrier(spec: WalkEnsembleSpec) -> None:
    """DomainError unless f is +inf: the chain takes a lower barrier only.

    The spec has checked its ends, and such ends always give feasible maximal
    and minimal states.
    """
    if spec.f != np.inf:
        raise DomainError(f"the chain takes no upper barrier, got f = {spec.f}")


def maximal_state(spec: WalkEnsembleSpec) -> GlauberConfig:
    """Highest feasible configuration: every curve rises at full slope then descends.

    Per curve this is the upper envelope min(x + j, y + (n - j)), equivalently
    the lexicographically maximal symbol list (all up-steps, one 0 on odd
    parity, then down-steps).
    """
    _check_no_upper_barrier(spec)
    n = spec.lattice.n_steps
    cols = np.arange(n + 1)
    rows = [np.minimum(x + cols, y + (n - cols)) for x, y in zip(spec.x_units, spec.y_units)]
    return GlauberConfig(spec.lattice, tuple(tuple(int(v) for v in r) for r in rows), spec.g)


def minimal_state(spec: WalkEnsembleSpec) -> GlauberConfig:
    """Lowest feasible configuration, built bottom curve first.

    Each curve is the lower envelope max(x - j, y - (n - j), barrier floor,
    curve below + 1); a max of 1-Lipschitz profiles is 1-Lipschitz, so the
    increments stay in {-1, 0, +1}. With no barrier this is the mirror of the
    maximal construction (all down-steps first).
    """
    _check_no_upper_barrier(spec)
    n = spec.lattice.n_steps
    cols = np.arange(n + 1)
    rows: list[np.ndarray] = []
    # the bottom curve sits at floor + 1 or higher: strictly above the barrier
    below = _barrier_units_floor(spec.lattice, spec.g)
    for xi, yi in zip(spec.x_units[::-1], spec.y_units[::-1]):
        below = np.maximum(np.maximum(xi - cols, yi - (n - cols)), below + 1)
        rows.insert(0, below)
    return GlauberConfig(spec.lattice, tuple(tuple(int(v) for v in r) for r in rows), spec.g)


def _barrier_units_floor(lattice: LatticeParams, g: float) -> float:
    """The largest integer u with u * dx <= g (g itself when not finite): the bottom curve stays above it.

    u * dx is the product _feasible compares with g, so a level g = u * dx
    gives u itself, where g / dx can round to just below u.
    """
    if not math.isfinite(g):
        return g
    u = math.floor(g / lattice.dx) - 1
    while (u + 1) * lattice.dx <= g:
        u += 1
    return u


_CHUNK = 4096  # events drawn and decoded per piece; bounds the memory of long runs
_MAX_COALESCENCE_EVENTS = 10**7  # mixing_diagnostic gives up after this many events


def _run(
    rows: list[list[int]],
    g_units: float,
    num_events: int,
    rng: np.random.Generator,
    every: int = 0,
    upper: tuple[list[list[int]], float] | None = None,
    stop_at_meet: bool = False,
) -> tuple[int, np.ndarray]:
    """The chain event loop: apply up to num_events clock rings to rows in place.

    The curves sit in one flat list of row width w between a +inf row and a row
    of the bottom curve's limit g_units (_barrier_units_floor), so site p has
    its neighbours at p-1, p+1 and p-w, p+w. Event code c moves site[c] by -1
    in the first third of [0, 3 k (w-2)) and by +1 in the last. Every caller
    starts from a validated GlauberConfig, and in a feasible state only one
    side of each constraint can break: a -1 move is kept iff the site is at
    least both its curve neighbours and stays above the one below, a +1 move
    iff it is at most both and stays below the one above. With upper = (rows_b,
    g_b) a second chain sees the same events; the touched site must keep rows
    <= rows_b, else AssertionError. stop_at_meet ends the loop where the pair
    coincides. rows is recorded every `every` events into an (num_events //
    every, k, w) int64 array allocated before the first event, so a request
    too large to hold raises MemoryError at once. Events are drawn in pieces
    of _CHUNK, the same stream as one draw, and each piece's records move
    from a flat list into the array at its end. Returns (events run, (n, k,
    w) int64 snapshots).
    """
    if num_events < 0 or every < 0:
        raise DomainError("event counts must be non-negative")
    k, w = len(rows), len(rows[0])
    site = [w * i + j for i in range(1, k + 1) for j in range(1, w - 1)] * 3
    kn, kn2 = len(site) // 3, 2 * len(site) // 3
    x = [float("inf")] * w + sum(rows, []) + [g_units] * w
    y = upper and [float("inf")] * w + sum(upper[0], []) + [upper[1]] * w
    curves = slice(w, w + k * w)
    snaps = np.empty((num_events // every if every else 0, k, w), dtype=np.int64)
    flat: list[int] = []
    filled = 0  # values moved into snaps
    met = stop_at_meet and x[curves] == y[curves]
    if not site and num_events and not met:
        raise DomainError(f"a lattice of {w - 1} step has no interior site for the chain to move")
    done = 0
    while done < num_events and not met:
        codes = rng.integers(0, len(site), size=min(_CHUNK, num_events - done)).tolist()
        # split the piece after each event that is recorded
        ends = list(range(every - done % every, len(codes), every)) if every else []
        a = 0
        for b in ends + [len(codes)]:
            if y is None:
                for c in codes[a:b]:
                    if c < kn:
                        p = site[c]
                        s = x[p]
                        if s >= x[p - 1] and s >= x[p + 1] and s - 1 > x[p + w]:
                            x[p] = s - 1
                    elif c >= kn2:
                        p = site[c]
                        s = x[p]
                        if s <= x[p - 1] and s <= x[p + 1] and s + 1 < x[p - w]:
                            x[p] = s + 1
            else:
                for e, c in enumerate(codes[a:b], a + 1):
                    if kn <= c < kn2:
                        continue
                    p = site[c]
                    for z in (x, y):
                        s = z[p]
                        if c < kn:
                            if s >= z[p - 1] and s >= z[p + 1] and s - 1 > z[p + w]:
                                z[p] = s - 1
                        elif s <= z[p - 1] and s <= z[p + 1] and s + 1 < z[p - w]:
                            z[p] = s + 1
                    # explicit raise: this check must survive interpreter -O mode
                    if x[p] > y[p]:
                        raise AssertionError("coupling invariant broken at touched site")
                    if stop_at_meet and x[p] == y[p] and x[curves] == y[curves]:
                        met, b = True, e
                        break
            if met:
                break
            if every and (done + b) % every == 0:
                flat.extend(x[curves])
            a = b
        done += b  # the last event of the piece, or the one where the pair met
        snaps.reshape(-1)[filled:filled + len(flat)] = flat
        filled += len(flat)
        flat.clear()
    for dest, z in ((rows, x), (upper[0] if upper else [], y)):
        for i, row in enumerate(dest):
            row[:] = z[w * (i + 1):w * (i + 2)]
    return done, snaps[:filled // (k * w)]  # fewer when the pair met early


def simulate_chain(
    init: GlauberConfig,
    num_events: int,
    rng: np.random.Generator,
    record_every: int = 0,
) -> tuple[GlauberConfig, np.ndarray]:
    """Run the chain for num_events clock rings; return (final state, snapshots).

    With record_every > 0 the state after every record_every-th event is
    recorded: one int64 array of shape (num_events // record_every, k,
    n_steps + 1) in dx units, checked by _feasible in pieces of _CHUNK
    snapshots so that its temporaries stay small beside the array.
    """
    rows = [list(r) for r in init.units]
    g_units = _barrier_units_floor(init.lattice, init.g)
    _, snaps = _run(rows, g_units, num_events, rng, every=record_every)
    if not all(_feasible(snaps[i:i + _CHUNK], init.lattice, init.g).all() for i in range(0, len(snaps), _CHUNK)):
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
    g_units = _barrier_units_floor(init.lattice, init.g)
    _run(rows, g_units, burn_in, rng)
    _, snaps = _run(rows, g_units, n_samples * thin, rng, every=thin)
    as_bytes = snaps.reshape(-1).view(f"V{snaps.strides[0]}")  # one flat sort key per snapshot
    _, first, counts = np.unique(as_bytes, return_index=True, return_counts=True)
    return {tuple(map(tuple, key)): n for key, n in zip(snaps[first].tolist(), counts.tolist())}


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
    ga = _barrier_units_floor(init_a.lattice, init_a.g)
    gb = _barrier_units_floor(init_b.lattice, init_b.g)
    if ga > gb:
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
    g_units = _barrier_units_floor(init_lo.lattice, init_lo.g)
    rows_lo = [list(r) for r in init_lo.units]
    rows_hi = [list(r) for r in init_hi.units]
    done, _ = _run(rows_lo, g_units, _MAX_COALESCENCE_EVENTS, rng, upper=(rows_hi, g_units), stop_at_meet=True)
    if rows_lo != rows_hi:
        raise RuntimeError(f"no coalescence within {_MAX_COALESCENCE_EVENTS} events")
    return done


def coalescence_burn_in(spec: WalkEnsembleSpec, rngs) -> int:
    """Burn-in = 4 x median coalescence count from the extremal states, one run per generator."""
    hi = maximal_state(spec)
    lo = minimal_state(spec)
    counts = sorted(mixing_diagnostic(hi, lo, rng) for rng in rngs)
    return 4 * counts[len(counts) // 2]
