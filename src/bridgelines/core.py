"""Shared domain types: intervals, ensembles, lattice grids, RNG streams.

Ensembles hold their curves' values on a uniform time grid. A barrier is a
constant float per side: f above the top curve (+inf for none) and g below
the bottom curve (-inf for none). All types are immutable values after
construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class StructuralError(ValueError):
    """Mismatched grids, intervals, or shapes."""


# ---------------------------------------------------------------------------
# intervals and boundary data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Time interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"interval needs a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def grid(self, m: int) -> np.ndarray:
        """Uniform grid of m+1 points from a to b."""
        return np.linspace(self.a, self.b, m + 1)


@dataclass(frozen=True)
class WeylVector:
    """Strictly decreasing k-tuple of spatial positions (valid entrance/exit data)."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 1:
            raise DomainError("need at least one entry")
        if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
            raise DomainError(f"entries must be strictly decreasing, got {vals}")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


# ---------------------------------------------------------------------------
# ensembles and the avoidance predicate
# ---------------------------------------------------------------------------

def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LineEnsemble:
    """k ordered curves on a shared interval and grid (index 0 is the top curve)."""

    interval: Interval
    values: np.ndarray  # shape (k, M+1)

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.ndim != 2 or vals.shape[1] < 2:
            raise StructuralError("ensemble needs a (k, M+1) array with M >= 1")
        object.__setattr__(self, "values", vals)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1] - 1

    @property
    def grid(self) -> np.ndarray:
        return self.interval.grid(self.m)


def check_avoiding(ens: LineEnsemble, f: float = np.inf, g: float = -np.inf) -> bool:
    """True iff f > curve_0 > ... > curve_{k-1} > g strictly at every grid point."""
    return bool(_avoids(ens.values, f, g))


class Barrier:
    """The two infinite barriers under their old names, for perfbench/workloads.py alone.

    Barriers are floats; this class exists only so that the benchmark's
    checker, which imports it, keeps working until it passes floats itself.
    """

    @staticmethod
    def plus_inf() -> float:
        return np.inf

    @staticmethod
    def minus_inf() -> float:
        return -np.inf


def _avoids(vals: np.ndarray, f_vals, g_vals) -> np.ndarray:
    """The avoidance predicate: f > vals[..., 0, :] > ... > vals[..., k-1, :] > g strictly.

    vals has shape (..., k, M+1) and the barriers broadcast against one curve:
    floats, +/-inf for none, or M+1 values; the result has one bool per leading index.
    """
    ok = (vals[..., :-1, :] > vals[..., 1:, :]).all(axis=(-2, -1))
    if np.any(f_vals != np.inf):  # a NaN barrier is compared, so nothing passes it
        ok &= (vals[..., 0, :] < f_vals).all(axis=-1)
    if np.any(g_vals != -np.inf):
        ok &= (vals[..., -1, :] > g_vals).all(axis=-1)
    return ok


class RejectionExhausted(RuntimeError):
    """Rejection sampler ran out of attempts; carries the attempt count."""

    def __init__(self, attempts: int, msg: str = ""):
        super().__init__(msg or f"no acceptance in {attempts} attempts")
        self.attempts = attempts


def _rejection_sample(draw, f, g, shape: tuple, n_samples: int, max_attempts: int, chunk: int):
    """Grid-check rejection over one row: keeps the candidates that pass _avoids.

    shape is one candidate's (k, M+1), f and g the barriers as _avoids takes
    them, and draw returns candidates of shape (1, nc, k, M+1); see
    _rejection_loop. Returns (accepted (n_out, k, M+1), drawn, seen,
    first_hit), the last three as ints.
    """
    def accept(rows, cands):
        return _avoids(cands, f, g)

    vals, drawn, seen, first_hit = _rejection_loop(draw, accept, 1, shape, n_samples, max_attempts, chunk)
    return vals[0], int(drawn[0]), int(seen[0]), int(first_hit[0])


def _rejection_loop(draw, accept, n_rows: int, shape: tuple, n_samples: int, max_attempts: int,
                    chunk: int):
    """The chunked rejection loop over n_rows rows, each keeping the candidates accept passes.

    draw(rows, nc) returns nc candidates for each of the given rows, shape
    (len(rows), nc, *shape), and accept(rows, cands) returns one bool per
    candidate, shape (len(rows), nc); it runs right after each round's draw.
    Each round, every row still short of n_samples draws max(1, chunk //
    pending) candidates (capped at max_attempts per row) and keeps its first
    accepted ones in draw order, so every row samples its own conditional law;
    with one row the draws are whole chunks. Candidates are drawn in whole
    rounds so that seen / drawn is an unbiased acceptance rate. Returns
    (accepted (n_rows, n_out, *shape), drawn, seen, first_hit), the last three
    per row, with n_out the fewest samples any row got and first_hit the
    0-based draw index of a row's first acceptance, or -1.
    """
    out = np.empty((n_rows, n_samples, *shape))
    got = np.zeros(n_rows, dtype=np.int64)
    drawn = np.zeros(n_rows, dtype=np.int64)
    seen = np.zeros(n_rows, dtype=np.int64)
    first_hit = np.full(n_rows, -1, dtype=np.int64)
    pending = np.flatnonzero(got < n_samples)
    # pending rows have all drawn in every round so far, so they share one draw count
    while pending.size and drawn[pending[0]] < max_attempts:
        nc = int(min(max(1, chunk // pending.size), max_attempts - drawn[pending[0]]))
        cands = draw(pending, nc)
        ok = accept(pending, cands)
        # per-row bookkeeping costs a few Python steps per row and round, less
        # than fancy-indexed scatters cost the one-row callers per candidate
        for i, r in enumerate(pending):
            hits = np.flatnonzero(ok[i])
            if hits.size and first_hit[r] < 0:
                first_hit[r] = drawn[r] + hits[0]
            seen[r] += hits.size
            take = hits[: n_samples - got[r]]
            # most rows of a high-acceptance round keep a prefix, which a slice copies
            # without the gather
            prefix = take.size == 0 or take[-1] == take.size - 1
            out[r, got[r] : got[r] + take.size] = cands[i, : take.size] if prefix else cands[i, take]
            got[r] += take.size
        drawn[pending] += nc
        pending = pending[got[pending] < n_samples]
    return out[:, : got.min(initial=n_samples)], drawn, seen, first_hit


# ---------------------------------------------------------------------------
# lattice parameters (walk discretization grids)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeParams:
    """Walk lattice: dt = (b-a)/n_steps and dx = sqrt(3 dt / 2).

    The scaling parameter n gives n_steps = n^2 via `scaled`; instances on
    sub-ranges of a finer grid (a walk of a few lattice steps) construct with
    the step count directly.
    """

    interval: Interval
    n_steps: int
    dt: float = field(init=False)
    dx: float = field(init=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError("n_steps must be a positive integer")
        dt = self.interval.length / self.n_steps
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "dx", float(np.sqrt(1.5 * dt)))

    @classmethod
    def scaled(cls, interval: Interval, n: int) -> "LatticeParams":
        """Standard parameterization: n^2 time steps of size (b-a)/n^2."""
        if n < 1:
            raise DomainError("n must be a positive integer")
        return cls(interval, n * n)

    @property
    def time_grid(self) -> np.ndarray:
        return self.interval.grid(self.n_steps)

    def snap_units(self, x: float) -> int:
        """Nearest lattice index of x; errors if x is off-lattice beyond 1e-12*dx."""
        u = x / self.dx
        r = round(u)
        if abs(u - r) > 1e-12 * max(1.0, abs(u)):
            raise DomainError(f"{x} is not an integer multiple of dx={self.dx}")
        return int(r)


# ---------------------------------------------------------------------------
# seeded RNG streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngSeed:
    """Root seed plus a stream id; equal pairs reproduce identical samples bit-exactly.

    Derived streams are obtained by hashing (stream, label) with blake2b and
    keeping 64 bits, so independently named substreams never collide by
    construction of the hash. This is the single derivation rule used by every
    module and the CLI.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64) or not (0 <= self.stream < 2**64):
            raise DomainError("seed and stream must fit in 64 bits")

    def derive(self, label) -> "RngSeed":
        h = hashlib.blake2b(f"{self.stream}/{label}".encode(), digest_size=8)
        return RngSeed(self.seed, int.from_bytes(h.digest(), "little"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))


# ---------------------------------------------------------------------------
# columnar text serialization (the only on-disk curve format)
# ---------------------------------------------------------------------------

def write_ensembles(path, ensembles: list[LineEnsemble]) -> None:
    """Write ensembles in the columnar format: header `k M a b`, rows `t v_1 ... v_k`."""
    times: dict[str, list[str]] = {}  # "M a b" -> each grid row's leading "t "
    with open(path, "w") as fh:
        for ens in ensembles:
            key = f"{ens.m} {ens.interval.a!r} {ens.interval.b!r}"
            if key not in times:
                times[key] = [f"{t!r} " for t in ens.grid.tolist()]
            rows = (t + " ".join(map(repr, row)) for t, row in zip(times[key], ens.values.T.tolist()))
            fh.write(f"{ens.k} {key}\n" + "\n".join(rows) + "\n")


def read_ensembles(path) -> list[LineEnsemble]:
    """Read back ensembles written by write_ensembles."""
    out = []
    with open(path) as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    pos = 0
    while pos < len(lines):
        k, m, a, b = lines[pos].split()
        k, m = int(k), int(m)
        vals = np.empty((k, m + 1))
        for j in range(m + 1):
            parts = lines[pos + 1 + j].split()
            vals[:, j] = [float(p) for p in parts[1:]]
        out.append(LineEnsemble(Interval(float(a), float(b)), vals))
        pos += m + 2
    return out
