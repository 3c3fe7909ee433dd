"""Trinomial random-walk bridges on the (dt, dx) lattice and avoiding-walk samplers.

An N-step walk bridge has iid steps uniform on {-1, 0, +1}, conditioned to sum to z.
Paths are drawn forward with the step probabilities count(N-m-1, d-delta) / (3 count(N-m, d)),
the midpoint alone from its law count(N/2, d) count(N/2, z-d) / count(N, z). The counts
live in a log-space table so N in the thousands fits; count_paths is the exact integer oracle.
The forward sampler walks time-major: one uniform per (walk, step), drawn up front, and at
each step every walk compares its uniform with two cuts, P(step = -1) and P(step <= 0), read
for its (steps left, displacement) from tables built once per N from the log counts.
Paths travel as (n, N) int8 step arrays: walk_log_prob scores such a batch against the
table. An ensemble of k walks is a WalkEnsembleSpec: its entrance and exit data are
integer tuples in dx units, checked once when the spec is made, and its barriers f and g
are constant levels compared with the values units * dx. The avoiding-walk rejection
sampler returns those values, one float array (n, k, N+1); the exhaustive enumeration
oracle returns the units themselves, one int64 array (n_configs, k, N+1).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError, LatticeParams, StructuralError, _avoids, _check_barriers, _rejection_loop


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
    n_steps: int, z, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of conditioned walks: int8 array (n_samples, N) of steps, walk i summing to z or z[i].

    z is one integer for every walk or an integer array with one entry per walk.
    """
    z = np.asarray(z, dtype=np.int64)
    if z.ndim and z.shape != (n_samples,):
        raise StructuralError(f"z needs one entry per walk ({n_samples}), got shape {z.shape}")
    if np.any(np.abs(z) > n_steps):
        raise DomainError(f"|z| = {np.abs(z).max()} exceeds N = {n_steps}")
    p_dn, p_le = _step_cuts(n_steps)
    u = np.ascontiguousarray(rng.random((n_samples, n_steps)).T)
    steps = np.empty((n_steps, n_samples), dtype=np.int8)
    # displacement still needed, as a column
    col = np.broadcast_to(z + n_steps + 1, (n_samples,)).astype(np.int64)
    for m in range(n_steps):
        rem = n_steps - m
        step, um = steps[m], u[m]
        np.greater_equal(um, p_dn[rem - 1].take(col), out=step)  # step = (u >= p_dn) + (u >= p_le) - 1
        step += um >= p_le[rem - 1].take(col)
        step -= 1
        col -= step
    return np.ascontiguousarray(steps.T)


def walk_log_prob(steps: np.ndarray, z: int) -> np.ndarray:
    """Per path of steps (n, N), the sum of its per-step log conditional probabilities.

    Telescopes to -log count(N, z): the sampled path is uniform among the valid
    step sequences. Raises StructuralError unless every step is -1, 0 or +1
    and every path sums to z.
    """
    if steps.ndim != 2 or not np.isin(steps, (-1, 0, 1)).all() or np.any(steps.sum(axis=1) != z):
        raise StructuralError(f"need an (n, N) batch of steps in {{-1, 0, 1}} summing to z = {z}")
    n_steps = steps.shape[1]
    table = _log_count_table(n_steps)
    off = n_steps + 1
    d = np.full(steps.shape[0], z, dtype=np.int64)
    total = np.zeros(steps.shape[0])
    for m in range(n_steps):
        rem = n_steps - m
        delta = steps[:, m]
        total += table[rem - 1][d - delta + off] - table[rem][d + off]
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
    """k walk bridges on a lattice from x_units to y_units (integer dx units), between constants f and g.

    The one check of lattice ends, for the walk sampler, the enumerator and the
    chain: equal lengths (StructuralError), then DomainError unless both unit
    tuples decrease strictly, each walk can reach its exit in n_steps steps and
    core._check_barriers passes the ends as the samplers compare them, u * dx.
    """

    lattice: LatticeParams
    x_units: tuple[int, ...]
    y_units: tuple[int, ...]
    f: float = np.inf
    g: float = -np.inf

    def __post_init__(self):
        xu, yu = (tuple(map(operator.index, units)) for units in (self.x_units, self.y_units))
        object.__setattr__(self, "x_units", xu)
        object.__setattr__(self, "y_units", yu)
        if len(xu) != len(yu):
            raise StructuralError(f"entrance and exit units must have equal length, got {len(xu)} and {len(yu)}")
        if not xu or any(a <= b for units in (xu, yu) for a, b in zip(units, units[1:])):
            raise DomainError(f"entrance and exit units must be strictly decreasing, got {list(xu)} and {list(yu)}")
        if any(abs(b - a) > self.lattice.n_steps for a, b in zip(xu, yu)):
            raise DomainError(f"endpoints not reachable in {self.lattice.n_steps} steps")
        dx = self.lattice.dx
        _check_barriers([u * dx for u in xu], [u * dx for u in yu], self.f, self.g)

    @property
    def k(self) -> int:
        return len(self.x_units)


def sample_avoiding_walks_batch(
    spec: WalkEnsembleSpec,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int,
) -> tuple[np.ndarray, int, int]:
    """Accepted ensembles of k independent walk bridges; raises RejectionExhausted when short.

    The rejection loop (core._rejection_loop) over the spec's one row, each
    candidate kept when _avoids passes it. The first round draws n_samples
    candidates and each later round twice the last, up to _AVOID_CHUNK. A
    round's walks come from one sample_walk_steps call, candidate after
    candidate, so the values returned do not depend on the round sizes.
    Returns (values (n_samples, k, N+1), n_drawn, n_accepted_seen):
    candidates are drawn in whole rounds, so n_accepted_seen / n_drawn is an
    unbiased acceptance-rate estimate even when more than n_samples
    acceptances landed in the final round.
    """
    lat = spec.lattice
    n = lat.n_steps
    x_units = np.array(spec.x_units)
    z_units = np.array(spec.y_units) - x_units

    def draw(rows, nc):  # the loop runs one row here, the spec's
        steps = sample_walk_steps(n, np.tile(z_units, nc), nc * spec.k, rng)
        units = np.empty((nc, spec.k, n + 1), dtype=np.int64)
        units[:, :, 0] = 0
        np.cumsum(steps.reshape(nc, spec.k, n), axis=2, dtype=np.int64, out=units[:, :, 1:])
        units += x_units[None, :, None]
        return units[None] * lat.dx

    def accept(rows, cands):
        return _avoids(cands, spec.f, spec.g)

    vals, drawn, seen, _ = _rejection_loop(draw, accept, 1, (spec.k, n + 1), n_samples, max_attempts,
                                           _AVOID_CHUNK, n_samples)
    return vals[0], int(drawn[0]), int(seen[0])


def enumerate_avoiding_configs(spec: WalkEnsembleSpec, guard: int = 10**7) -> np.ndarray:
    """Every avoiding lattice configuration, int64 dx units (n_configs, k, N+1), lexicographic in the step lists."""
    lat = spec.lattice
    n = lat.n_steps
    if 3 ** (spec.k * n) > guard:
        raise DomainError(f"state space 3^{spec.k * n} exceeds the enumeration guard")

    per_curve: list[list[np.ndarray]] = []
    for x, y in zip(spec.x_units, spec.y_units):
        paths = []
        for steps in itertools.product((-1, 0, 1), repeat=n):
            if sum(steps) != y - x:
                continue
            pos = np.zeros(n + 1, dtype=np.int64)
            pos[1:] = np.cumsum(steps)
            paths.append(pos + x)
        per_curve.append(paths)

    out: list[np.ndarray] = []
    for combo in itertools.product(*per_curve):
        units = np.stack(combo)
        if _avoids(units * lat.dx, spec.f, spec.g):
            out.append(units)
    return np.array(out, dtype=np.int64).reshape(len(out), spec.k, n + 1)
