"""Trinomial random-walk bridges on the (dt, dx) lattice and avoiding-walk samplers.

An N-step walk bridge has iid steps uniform on {-1, 0, +1}, conditioned to sum to z.
Paths are drawn forward with the step probabilities count(N-m-1, d-delta) / (3 count(N-m, d)),
the midpoint alone from its law count(N/2, d) count(N/2, z-d) / count(N, z). The counts
live in a log-space table so N in the thousands fits; count_paths is the exact integer oracle.
The forward sampler walks time-major: one uniform per (walk, step), drawn up front, and at
each step every walk compares its uniform with two cuts, P(step = -1) and P(step <= 0), read
for its (steps left, displacement) from tables built once per N from the log counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DomainError,
    LatticeParams,
    LineEnsemble,
    RejectionExhausted,
    StructuralError,
    WeylVector,
    _avoids,
    _rejection_sample,
)


@dataclass(frozen=True)
class WalkBridge:
    """N-step walk with steps in {-1, 0, +1} summing to z."""

    n_steps: int
    z: int
    steps: tuple[int, ...]

    def __post_init__(self):
        if len(self.steps) != self.n_steps or sum(self.steps) != self.z:
            raise StructuralError("steps must have length N and sum to z")

    def positions(self) -> np.ndarray:
        out = np.zeros(self.n_steps + 1, dtype=int)
        out[1:] = np.cumsum(self.steps)
        return out


@lru_cache(maxsize=256)
def _count_row(n: int) -> tuple[int, ...]:
    # exact counts for n steps, indexed by d + n
    row = [0] * (2 * n + 1)
    row[n] = 1
    for _ in range(n):
        row = [
            (row[j - 1] if j > 0 else 0) + row[j] + (row[j + 1] if j < 2 * n else 0)
            for j in range(2 * n + 1)
        ]
    return tuple(row)


def count_paths(n: int, d: int) -> int:
    """Exact number of n-step {-1,0,1} sequences summing to d (arbitrary precision)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if abs(d) > n:
        return 0
    return _count_row(n)[d + n]


# candidates per round of sample_avoiding_walks_batch
_AVOID_CHUNK = 4096


@lru_cache(maxsize=64)
def _log_count_table(n_steps: int) -> np.ndarray:
    """table[m, d + n_steps + 1] = log count(m, d); one -inf padding column each side."""
    size = 2 * n_steps + 3
    table = np.full((n_steps + 1, size), -np.inf)
    table[0, n_steps + 1] = 0.0
    for m in range(1, n_steps + 1):
        prev = table[m - 1]
        stacked = np.full((3, size), -np.inf)
        stacked[0, 1:-1] = prev[:-2]
        stacked[1, 1:-1] = prev[1:-1]
        stacked[2, 1:-1] = prev[2:]
        table[m] = np.logaddexp.reduce(stacked, axis=0)
        table[m, 0] = table[m, -1] = -np.inf
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _step_cuts(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut rows p_dn, p_le: P(step = -1), P(step <= 0) at [rem - 1, d + n_steps + 1], rem steps left."""
    table = _log_count_table(n_steps)
    cur = table[1:, :-1]
    with np.errstate(invalid="ignore"):
        # P(step = delta) = count(rem-1, d - delta) / count(rem, d)
        p_dn = np.exp(table[:-1, 1:] - cur)
        p_le = p_dn + np.exp(table[:-1, :-1] - cur)
    p_dn.setflags(write=False)
    p_le.setflags(write=False)
    return p_dn, p_le


def sample_walk_steps(
    n_steps: int, z: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of conditioned walks: int8 array (n_samples, N) of steps summing to z."""
    if abs(z) > n_steps:
        raise DomainError(f"|z| = {abs(z)} exceeds N = {n_steps}")
    p_dn, p_le = _step_cuts(n_steps)
    u = np.ascontiguousarray(rng.random((n_samples, n_steps)).T)
    steps = np.empty((n_steps, n_samples), dtype=np.int8)
    col = np.full(n_samples, z + n_steps + 1, dtype=np.int64)  # displacement still needed, as a column
    for m in range(n_steps):
        rem = n_steps - m
        step, um = steps[m], u[m]
        np.greater_equal(um, p_dn[rem - 1].take(col), out=step)  # step = (u >= p_dn) + (u >= p_le) - 1
        step += um >= p_le[rem - 1].take(col)
        step -= 1
        col -= step
    return np.ascontiguousarray(steps.T)


def sample_walk_bridge(n_steps: int, z: int, rng: np.random.Generator) -> WalkBridge:
    """One exact sample of the conditioned walk."""
    steps = sample_walk_steps(n_steps, z, 1, rng)[0]
    return WalkBridge(n_steps, z, tuple(int(s) for s in steps))


def walk_log_prob(bridge: WalkBridge) -> float:
    """Sum of per-step log conditional probabilities along the path.

    Telescopes to -log count(N, z): the sampled path is uniform among the valid
    step sequences.
    """
    table = _log_count_table(bridge.n_steps)
    off = bridge.n_steps + 1
    d = bridge.z
    total = 0.0
    for m, delta in enumerate(bridge.steps):
        rem = bridge.n_steps - m
        total += float(table[rem - 1][d - delta + off] - table[rem][d + off])
        d -= delta
    return total


def _midpoint_pmf(n_steps: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions d after N/2 steps of the walk bridge and P(d) = count(N/2, d) count(N/2, z-d) / count(N, z)."""
    if n_steps % 2 or abs(z) > n_steps:
        raise DomainError(f"the midpoint law needs an even N >= |z|, got N = {n_steps}, z = {z}")
    half = n_steps // 2
    d = np.arange(max(-half, z - half), min(half, z + half) + 1)
    log_w = _log_count_table(half)[half, [d + half + 1, z - d + half + 1]].sum(axis=0)
    w = np.exp(log_w - log_w.max())
    return d, w / w.sum()


def sample_walk_midpoints(n_steps: int, z: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Positions after N/2 steps for n_samples conditioned walks (N even): one uniform each, by inverse CDF."""
    d, p = _midpoint_pmf(n_steps, z)
    cdf = np.cumsum(p)
    return d[np.searchsorted(cdf, rng.random(n_samples) * cdf[-1], side="right")]


# ---------------------------------------------------------------------------
# avoiding ensembles of walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkEnsembleSpec:
    """k walk bridges on a lattice with entrance/exit data on the dx-grid, between constants f and g."""

    lattice: LatticeParams
    x: WeylVector
    y: WeylVector
    f: float = np.inf
    g: float = -np.inf

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise StructuralError("entrance and exit vectors must have equal length")
        if np.isnan(self.f) or np.isnan(self.g):
            raise DomainError("barriers must be numbers, got NaN")
        for xi, yi in zip(self.x.values, self.y.values):
            zi = self.lattice.snap_units(yi) - self.lattice.snap_units(xi)
            if abs(zi) > self.lattice.n_steps:
                raise DomainError("endpoints not reachable in n^2 steps")

    @property
    def k(self) -> int:
        return len(self.x)


def sample_avoiding_walks_batch(
    spec: WalkEnsembleSpec,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int,
) -> tuple[list[LineEnsemble], int, int]:
    """Accepted ensembles of k independent walk bridges; raises RejectionExhausted when short.

    The grid-checked rejection loop (core._rejection_sample) over the spec's
    one row. Returns (samples, n_drawn, n_accepted_seen): candidates are drawn
    in whole chunks, so n_accepted_seen / n_drawn is an unbiased acceptance-rate
    estimate even when more than n_samples acceptances landed in the final chunk.
    """
    lat = spec.lattice
    n = lat.n_steps
    x_units = np.array([lat.snap_units(v) for v in spec.x.values])
    z_units = np.array([lat.snap_units(v) for v in spec.y.values]) - x_units

    def draw(rows, nc):  # the loop runs one row here, the spec's
        units = np.empty((nc, spec.k, n + 1), dtype=np.int64)
        units[:, :, 0] = 0
        for i in range(spec.k):
            steps = sample_walk_steps(n, int(z_units[i]), nc, rng)
            units[:, i, 1:] = np.cumsum(steps, axis=1, dtype=np.int64)
        units += x_units[None, :, None]
        return units[None] * lat.dx

    vals, drawn, seen, _ = _rejection_sample(draw, spec.f, spec.g, (spec.k, n + 1), n_samples, max_attempts,
                                             _AVOID_CHUNK)
    if vals.shape[0] < n_samples:
        raise RejectionExhausted(drawn, f"{vals.shape[0]}/{n_samples} accepted in {drawn} draws")
    return [LineEnsemble(lat.interval, v) for v in vals], drawn, seen


def enumerate_avoiding_configs(spec: WalkEnsembleSpec, guard: int = 10**7) -> list[LineEnsemble]:
    """Exhaustive list of avoiding lattice configurations, lexicographic in the step lists."""
    lat = spec.lattice
    n = lat.n_steps
    if 3 ** (spec.k * n) > guard:
        raise DomainError(f"state space 3^{spec.k * n} exceeds the enumeration guard")
    x_units = [lat.snap_units(v) for v in spec.x.values]
    z_units = [lat.snap_units(spec.y.values[i]) - x_units[i] for i in range(spec.k)]

    per_curve: list[list[np.ndarray]] = []
    for i in range(spec.k):
        paths = []
        for steps in itertools.product((-1, 0, 1), repeat=n):
            if sum(steps) != z_units[i]:
                continue
            pos = np.zeros(n + 1, dtype=np.int64)
            pos[1:] = np.cumsum(steps)
            paths.append(pos + x_units[i])
        per_curve.append(paths)

    out: list[LineEnsemble] = []
    for combo in itertools.product(*per_curve):
        vals = np.stack(combo) * lat.dx
        if _avoids(vals, spec.f, spec.g):
            out.append(LineEnsemble(lat.interval, vals))
    return out
