"""Exact Brownian-bridge mathematics: samplers, densities, reflection formula, Mills ratio.

All bridges have diffusion parameter 1. Sampling is a single forward pass of
conditional Gaussians: given the value v at time s, the value at t < b is
Normal(v + (t-s)/(b-s) * (y-v), (t-s)(b-t)/(b-s)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import DomainError, Interval

SQRT2 = float(np.sqrt(2.0))
SQRT2PI = float(np.sqrt(2.0 * np.pi))

# Continuity-correction constant for the maximum of a discretely monitored
# diffusion (-zeta(1/2)/sqrt(2*pi)); used for the grid-max bias allowance.
GRID_MAX_BETA = 0.5825971579390107
# bridges per pass of grid_max_exceedance
_GRID_MAX_CHUNK = 20000


def normal_cdf(z):
    """Standard normal CDF via erfc; stable deep into the left tail."""
    z = np.asarray(z, dtype=float)
    out = 0.5 * special.erfc(-z / SQRT2)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BridgeSpec:
    """Bridge from x at interval.a to y at interval.b on a grid of M+1 points."""

    interval: Interval
    x: float
    y: float
    grid_points: int = 512

    def __post_init__(self):
        if self.grid_points < 2:
            raise DomainError("need at least 2 grid points (M >= 2)")


def transition_density(t: float, x: float, y: float) -> float:
    """Heat kernel p(t; x, y) = exp(-(x-y)^2 / 2t) / sqrt(2 pi t)."""
    if t <= 0:
        raise DomainError(f"time increment must be positive, got {t}")
    return float(np.exp(-((x - y) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t))


def _bridge_step(v, y, s: float, t: float, b: float, z):
    """The one forward step: the bridge value at t given v at s, for a bridge ending at y at b.

    Draws Normal(v + (t-s)/(b-s) * (y-v), (t-s)(b-t)/(b-s)) from the standard
    normals z; v, y and z broadcast together.
    """
    w = (t - s) / (b - s)
    var = (t - s) * (b - t) / (b - s)
    return v + w * (y - v) + np.sqrt(var) * z


def _bridge_paths(x, y, a: float, times, b: float, z) -> np.ndarray:
    """Bridges from x at a to y at b, read at a, the increasing interior times and b.

    Returns shape (*z.shape[:-1], len(times) + 2); each z[..., j] drives the
    _bridge_step to times[j], and x and y broadcast against z.shape[:-1].
    """
    out = np.empty((*z.shape[:-1], len(times) + 2))
    out[..., 0] = x
    out[..., -1] = y
    v, s = out[..., 0], a
    for j, t in enumerate(times):
        v = _bridge_step(v, y, s, t, b, z[..., j])
        out[..., j + 1] = v
        s = t
    return out


def sample_bridge_paths(spec: BridgeSpec, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """n_samples bridge paths on the grid, shape (n_samples, M+1); endpoints exact."""
    m = spec.grid_points
    iv = spec.interval
    z = rng.standard_normal((n_samples, m - 1))
    return _bridge_paths(spec.x, spec.y, iv.a, iv.grid(m)[1:m], iv.b, z)


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
    times = np.sort(np.asarray(times, dtype=float))
    if times[0] <= interval.a or times[-1] >= interval.b:
        raise DomainError("times must lie strictly inside the interval")
    z = rng.standard_normal((n_samples, times.size))
    return _bridge_paths(x, y, interval.a, times, interval.b, z)[:, 1:-1]


def bridge_max_prob(T: float, a: float, beta: float) -> float:
    """P(max of a bridge from 0 to a on [0,T] >= beta) = exp(-2 beta (beta - a) / T), clamped to 1."""
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


def grid_max_exceedance(
    T: float,
    a: float,
    beta: float,
    m: int,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Grid-max exceedance frequency and an unbiased estimate of the grid bias.

    Returns (freq, missed): freq counts bridges whose grid maximum reaches beta.
    missed averages, over bridges staying below beta at every grid point, the
    conditional probability that the continuous path still crossed between grid
    points (one factor 1 - exp(-2 (beta - v_j)(beta - v_{j+1}) / dt) per
    segment), so freq + missed estimates the continuous exceedance probability
    without grid bias.
    """
    grid = np.linspace(0.0, T, m + 1)
    dt = T / m
    hits = 0
    missed_sum = 0.0
    done = 0
    while done < n_samples:
        nc = min(_GRID_MAX_CHUNK, n_samples - done)
        v = np.zeros(nc)
        under = v < beta
        log_survive = np.zeros(nc)
        for j in range(1, m + 1):
            if j < m:
                v_new = _bridge_step(v, a, grid[j - 1], grid[j], T, rng.standard_normal(nc))
            else:
                v_new = np.full(nc, float(a))
            # crossing factors are negligible (< e^-40) unless the segment sits
            # within ~sqrt(20 dt) of the boundary, so only compute those
            gap_prod = (beta - v) * (beta - v_new)
            near = under & (v_new < beta) & (gap_prod < 20.0 * dt)
            if np.any(near):
                p_cross = np.exp(-2.0 * gap_prod[near] / dt)
                log_survive[near] += np.log1p(-p_cross)
            under &= v_new < beta
            v = v_new
        hits += int(np.count_nonzero(~under))
        missed_sum += float(np.sum(-np.expm1(log_survive[under])))
        done += nc
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
