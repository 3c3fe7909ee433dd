"""Exact Brownian-bridge mathematics: samplers, densities, reflection formula, Mills ratio.

All bridges have diffusion parameter 1. Sampling is a single forward pass of
conditional Gaussians: given the value v at time s, the value at t < b is
Normal(v + (t-s)/(b-s) * (y-v), (t-s)(b-t)/(b-s)), drawn by the in-place
_bridge_step. The path constructor _bridge_paths runs that step over blocks
of time steps in one time-major scratch buffer of at most _PATH_BLOCK
doubles, on contiguous rows, and its paths are bit-identical to a step per
time column whatever the block size. The same step, with y the
value at any later time b, fills in a grid by midpoint bisection:
grid_max_exceedance draws only the grid values of segments whose ends lie
close enough to the barrier to matter. Its segments are walked by node rank
in per-depth tables of the bisection (span, step weight and sd, child rank),
and each level is compacted through one index of the segments it splits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Interval

SQRT2 = float(np.sqrt(2.0))
SQRT2PI = float(np.sqrt(2.0 * np.pi))

# Continuity-correction constant for the maximum of a discretely monitored
# diffusion (-zeta(1/2)/sqrt(2*pi)); used for the grid-max bias allowance.
GRID_MAX_BETA = 0.5825971579390107
# bridges per pass of grid_max_exceedance
_GRID_MAX_CHUNK = 20000
# doubles in _bridge_paths's time-major scratch buffer (2 MB), unless two rows of paths need more
_PATH_BLOCK = 2**18


def normal_cdf(z):
    """Standard normal CDF via erfc; stable deep into the left tail."""
    from scipy import special

    z = np.asarray(z, dtype=float)
    out = 0.5 * special.erfc(-z / SQRT2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BridgeSpec:
    """Bridge from finite x at interval.a to finite y at interval.b on a grid of M+1 points."""

    interval: Interval
    x: float
    y: float
    grid_points: int = 512

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise DomainError(f"bridge ends must be finite, got x={self.x}, y={self.y}")
        if self.grid_points < 2:
            raise DomainError("need at least 2 grid points (M >= 2)")


def transition_density(t: float, x: float, y: float) -> float:
    """Heat kernel p(t; x, y) = exp(-(x-y)^2 / 2t) / sqrt(2 pi t)."""
    if t <= 0:
        raise DomainError(f"time increment must be positive, got {t}")
    return float(np.exp(-((x - y) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t))


def _step_coefficients(s, t, b):
    """Weight (t-s)/(b-s) and standard deviation sqrt((t-s)(b-t)/(b-s)) of the step to t."""
    return (t - s) / (b - s), np.sqrt((t - s) * (b - t) / (b - s))


def _bridge_step(v, y, w, sd, z, tmp) -> None:
    """The one forward step, in place: z becomes v + w (y - v) + sd z.

    v is the bridge value at s and y its value at a later time b; w and sd are
    the _step_coefficients of the step to t, and z holds standard normals, so
    z ends up holding a draw of Normal(v + (t-s)/(b-s) * (y-v),
    (t-s)(b-t)/(b-s)), the value at t. The operations run in the order
    y - v, times w, plus v, then plus sd z; tmp, shaped like z, holds the
    mean. v, y, w and sd broadcast against z.
    """
    np.subtract(y, v, out=tmp)
    tmp *= w
    tmp += v
    z *= sd
    z += tmp


def _bridge_paths(x, y, a: float, times, b: float, z) -> np.ndarray:
    """Bridges from x at a to y at b, read at a, the increasing interior times and b.

    Returns a C-contiguous array of shape (*z.shape[:-1], len(times) + 2);
    each z[..., j] drives the _bridge_step to times[j], and x and y broadcast
    against z.shape[:-1]. The n paths step through the times in blocks, in
    one time-major scratch buffer of _PATH_BLOCK doubles (two rows of n at
    least): its first row carries the values at the block's previous time,
    the block's normals are copied in transposed below it, each row is
    stepped in place from the row above, and the block is copied out
    transposed. Each value goes through the same float operations in the
    same order whatever the block size, so the paths are bit-identical to a
    step per column.
    """
    lead, m = z.shape[:-1], z.shape[-1]
    n = math.prod(lead)
    out = np.empty((*lead, m + 2))
    out[..., 0] = x
    out[..., -1] = y
    flat, zf = out.reshape(n, m + 2), z.reshape(n, m)
    ends = np.ascontiguousarray(flat[:, -1])
    times = np.asarray(times, dtype=float)
    w, sd = _step_coefficients(np.concatenate(([a], times[:-1])), times, b)
    rows = max(2, min(m + 1, _PATH_BLOCK // max(n, 1)))
    buf, tmp = np.empty((rows, n)), np.empty(n)
    buf[0] = flat[:, 0]
    for j0 in range(0, m, rows - 1):
        j1 = min(j0 + rows - 1, m)
        block = buf[: j1 - j0 + 1]
        block[1:] = zf[:, j0:j1].T
        for i in range(j1 - j0):
            _bridge_step(block[i], ends, w[j0 + i], sd[j0 + i], block[i + 1], tmp)
        flat[:, j0 + 1 : j1 + 1] = block[1:].T
        buf[0] = block[-1]
    return out


def sample_bridge_paths(spec: BridgeSpec, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """n_samples bridge paths on the grid, shape (n_samples, M+1); endpoints exact."""
    m = spec.grid_points
    iv = spec.interval
    z = rng.standard_normal((n_samples, m - 1))
    return _bridge_paths(spec.x, spec.y, iv.a, iv.grid(m)[1:m], iv.b, z)


def _exact_times(interval: Interval, times, *ends) -> np.ndarray:
    """An exact sampler's times, sorted; DomainError unless they and the ends are sound.

    times must be a non-empty 1-D sequence of finite times strictly inside
    the interval, and every value of the ends (scalars or arrays) a finite
    float. The samplers call it before any draw.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.isfinite(times).all():
        raise DomainError(f"times must be a non-empty 1-D sequence of finite times, got {times}")
    times = np.sort(times)
    if times[0] <= interval.a or times[-1] >= interval.b:
        raise DomainError("times must lie strictly inside the interval")
    if not all(np.all(np.abs(e) <= sys.float_info.max) for e in ends):  # NaN and ints beyond float fail
        raise DomainError(f"bridge ends must be finite, got {ends}")
    return times


def sample_bridge_at(
    interval: Interval,
    x: float,
    y: float,
    times,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact joint samples of the bridge at the given interior times, shape (n, len(times)).

    No grid involved: the finite-dimensional law is sampled directly, so values
    at arbitrary times carry no discretization error.
    """
    times = _exact_times(interval, times, x, y)
    z = rng.standard_normal((n_samples, times.size))
    return _bridge_paths(x, y, interval.a, times, interval.b, z)[:, 1:-1]


def _check_finite(**values) -> None:
    """Raise DomainError unless every value is a finite float: not NaN, not inf, no int beyond float range."""
    bad = {k: v for k, v in values.items() if not abs(v) <= sys.float_info.max}
    if bad:
        raise DomainError(f"need finite values, got {bad}")


def bridge_max_prob(T: float, a: float, beta: float) -> float:
    """P(max of a bridge from 0 to a on [0,T] >= beta) = exp(-2 beta (beta - a) / T), clamped to 1."""
    _check_finite(T=T, a=a, beta=beta)
    if T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    if beta <= 0:
        return 1.0
    return float(min(1.0, np.exp(-2.0 * beta * (beta - a) / T)))


def grid_max_allowance(T: float, a: float, beta: float, m: int) -> float:
    """Upper-bias allowance for estimating the path maximum by the grid maximum.

    The grid maximum under-counts exceedances; the shortfall is approximated by
    the discrete-monitoring continuity correction (shift beta by
    GRID_MAX_BETA * sqrt(dt)), which shrinks like 1/sqrt(m) as the grid refines.
    """
    dt = T / m
    shift = GRID_MAX_BETA * np.sqrt(dt)
    return bridge_max_prob(T, a, beta) - bridge_max_prob(T, a, beta + shift)


def _bisection_levels(grid: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Midpoint bisection of the grid [0, m], one table per depth, each depth's nodes in grid order.

    Each node is a segment between grid points i < k, split at (i + k) // 2.
    Per depth: the nodes' spans k - i (int32), the _step_coefficients of
    their midpoints, and the rank of each node's left child at the next depth
    (int32; the right child is the next rank). Spans at one depth can differ
    by one, so child ranks are stored, not derived. Unit nodes have no
    children; every depth together holds fewer than 2m nodes.
    """
    lo, hi = np.zeros(1, dtype=np.int64), np.full(1, grid.size - 1)
    levels = []
    while lo.size:
        mid = (lo + hi) // 2
        w, sd = _step_coefficients(grid[lo], grid[mid], grid[hi])
        split = hi - lo > 1
        child = 2 * (np.cumsum(split, dtype=np.int32) - split)
        levels.append(((hi - lo).astype(np.int32), w, sd, child))
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.stack((lo, mid), axis=1).ravel(), np.stack((mid, hi), axis=1).ravel()
    return levels


def grid_max_exceedance(
    T: float,
    a: float,
    beta: float,
    m: int,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Grid-max exceedance frequency and an unbiased estimate of the grid bias.

    Bridges run from 0 at time 0 to a at T, read on the m+1 points of the
    uniform grid. Returns (freq, missed): freq counts bridges whose grid
    maximum reaches beta. missed averages, over bridges staying below beta at
    every grid point, the conditional probability that the continuous path
    still crossed between grid points (one factor
    1 - exp(-2 (beta - v_j)(beta - v_{j+1}) / dt) per segment), so
    freq + missed estimates the continuous exceedance probability without
    grid bias.

    Each bridge is built by midpoint bisection (Levy's construction): a
    segment between grid points i < k with values u, v gets the grid value at
    (i + k) // 2 by the bridge step, then splits in two, until segments are
    one grid step long. A segment is refined only while its bridge has not
    reached beta and its gap product (beta - u)(beta - v) is below 20 L, L
    the segment's length; a unit segment is then one crossing factor. A
    skipped segment holds a grid value >= beta, or adds to missed, with
    probability at most exp(-2 (beta - u)(beta - v) / L) <= e^-40, so the
    result keeps the grid law while drawing only the few dozen values per
    bridge that can reach beta. Each bisection level of a chunk of
    _GRID_MAX_CHUNK bridges makes one standard_normal call, one normal per
    split segment, so the random stream follows the bisection.

    The frontier holds each segment's bridge, its node rank in the
    _bisection_levels table of its depth, and its end values; the step
    weight and sd are gathered from the table by rank. Each level computes
    the index of the segments to split once and takes from it into the next
    frontier: left children in its first half, right children in its second.
    """
    _check_finite(T=T, a=a, beta=beta)
    if T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    if m < 1:
        raise DomainError(f"need at least 1 grid step (m >= 1), got {m}")
    if n_samples < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    levels = _bisection_levels(np.linspace(0.0, T, m + 1))
    dt = T / m
    hits = 0
    missed_sum = 0.0
    for done in range(0, n_samples, _GRID_MAX_CHUNK):
        nc = min(_GRID_MAX_CHUNK, n_samples - done)
        hit = np.full(nc, 0.0 >= beta or a >= beta)
        log_survive = np.zeros(nc)
        # the segment frontier: its bridge, its node rank at this depth, its end values
        row, node = np.arange(nc, dtype=np.int32), np.zeros(nc, dtype=np.int32)
        u, v = np.zeros(nc), np.full(nc, float(a))
        for span, weight, sd, child in levels:
            if not row.size:
                break
            span = span.take(node, mode="clip")
            gap = beta - u
            gap *= beta - v
            live = gap < 20.0 * dt * span
            live &= ~hit.take(row, mode="clip")
            unit = live & (span == 1)
            if unit.any():
                log_survive += np.bincount(
                    row[unit], weights=np.log1p(-np.exp(-2.0 * gap[unit] / dt)), minlength=nc
                )
                live &= ~unit
            i = np.flatnonzero(live)
            k = i.size
            nrow, nnode = np.empty(2 * k, dtype=np.int32), np.empty(2 * k, dtype=np.int32)
            nu, nv = np.empty(2 * k), np.empty(2 * k)
            row.take(i, out=nrow[:k], mode="clip")
            nrow[k:] = nrow[:k]
            parent = node.take(i, mode="clip")
            child.take(parent, out=nnode[:k], mode="clip")
            np.add(nnode[:k], 1, out=nnode[k:])
            left, right = nu[:k], nv[k:]
            u.take(i, out=left, mode="clip")
            v.take(i, out=right, mode="clip")
            # the step's mean uses nv[:k] as scratch; the midpoint value lands in mid
            mid = rng.standard_normal(k)
            _bridge_step(left, right, weight.take(parent, mode="clip"), sd.take(parent, mode="clip"), mid,
                         nv[:k])
            nv[:k] = nu[k:] = mid
            hit[nrow[:k][mid >= beta]] = True
            row, node, u, v = nrow, nnode, nu, nv
        hits += int(np.count_nonzero(hit))
        missed_sum += float(np.sum(-np.expm1(log_survive[~hit])))
    return hits / n_samples, missed_sum / n_samples


def midpoint_cdf_single(r, s: float, t: float, x, y) -> float | np.ndarray:
    """P(bridge from x at s to y at t has midpoint <= r): Gaussian with mean (x+y)/2, var (t-s)/4.

    r, x and y broadcast as arrays; scalar input gives a float.
    """
    if s >= t:
        raise DomainError(f"need s < t, got s={s}, t={t}")
    sd = np.sqrt((t - s) / 4.0)
    return normal_cdf((r - 0.5 * (np.asarray(x, dtype=float) + y)) / sd)


def mills_ratio(x) -> float | np.ndarray:
    """(1 - Phi(x)) / phi(x) for x >= 0, via the scaled complementary error function."""
    from scipy import special

    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("mills_ratio requires x >= 0")
    out = 0.5 * SQRT2PI * special.erfcx(x / SQRT2)
    return float(out) if out.ndim == 0 else out


def certify_c0(x_max: float = 20.0, step: float = 1e-3) -> float:
    """Smallest c >= 1 with 1/(c(1+x)) <= mills_ratio(x) <= c/(1+x) on the scan grid."""
    if x_max <= 0 or step <= 0:
        raise DomainError("x_max and step must be positive")
    xs = np.arange(0.0, x_max + step / 2, step)
    prod = mills_ratio(xs) * (1.0 + xs)
    return float(max(1.0, prod.max(), (1.0 / prod).max()))
