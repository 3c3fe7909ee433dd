"""Samplers and transforms for avoiding (non-intersecting) Brownian bridge ensembles.

The primary sampler is rejection: draw k independent bridges, accept iff the
strict ordering and barrier constraints hold at every grid point. Without
barriers, sample_avoiding_at samples the continuous law exactly at a few times
instead, accepting with Karlin-McGregor weights; the same weights give the
top curve's closed-form law in a window above a given second curve. Closed-form
tail bounds for the bottom curve and the affine/flip distributional identities
live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

# midpoint_cdf_single is re-exported: perfbench's tracer test wraps it under this name too
from .bridge import SQRT2PI, _bridge_paths, certify_c0, midpoint_cdf_single  # noqa: F401
from .core import (
    DomainError, Interval, LineEnsemble, RejectionExhausted, StructuralError, WeylVector,
    _avoids, _rejection_loop, _rejection_sample,
)

# half-width, in standard errors, of the Wilson and p_w confidence intervals
CI_Z = 3.0
# candidates per round, and per row before it counts as exhausted, of the Karlin-McGregor
# rejections (sample_avoiding_at, verify.resample_block); a candidate holds k values per time
_KM_CHUNK = 8192
_KM_ATTEMPTS = 10**7


@dataclass(frozen=True)
class AvoidSpec:
    """Avoiding ensemble: k bridges from x to y on interval, squeezed between constants f and g."""

    interval: Interval
    x: WeylVector
    y: WeylVector
    f: float = np.inf
    g: float = -np.inf
    grid_points: int = 512

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise StructuralError("entrance and exit vectors must have equal length")
        if self.grid_points < 2:
            raise DomainError("need at least 2 grid points")
        # plain comparisons, so a NaN barrier fails them too
        if not (self.f > self.x[0] and self.f > self.y[0]):
            raise DomainError("upper barrier must clear the top endpoints")
        if not (self.g < self.x[-1] and self.g < self.y[-1]):
            raise DomainError("lower barrier must clear the bottom endpoints")
        if not self.f > self.g:
            raise DomainError("barriers must satisfy f > g")

    @property
    def k(self) -> int:
        return len(self.x)


def sample_avoiding_values(
    interval: Interval,
    x_vec: np.ndarray,
    y_vec: np.ndarray,
    f_vals: np.ndarray,
    g_vals: np.ndarray,
    grid_points: int,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int,
    chunk: int = 2048,
) -> tuple[np.ndarray, int, int, int]:
    """Rejection sampling between barriers given as floats or as value arrays on the grid.

    Returns (values, n_drawn, n_accepted_seen, first_hit): values has shape
    (n_out, k, M+1) with n_out = min(n_samples, n_accepted_seen), and first_hit
    is the 0-based draw index of the first acceptance (or -1). Candidates are
    drawn in whole chunks so the acceptance rate n_accepted_seen / n_drawn is
    unbiased.
    """
    m = grid_points
    grid = interval.grid(m)
    x, y = np.asarray(x_vec, dtype=float), np.asarray(y_vec, dtype=float)

    def draw(rows, nc):
        z = rng.standard_normal((1, nc, x.size, m - 1))
        return _bridge_paths(x, y, interval.a, grid[1:m], interval.b, z)

    return _rejection_sample(draw, f_vals, g_vals, (x.size, m + 1), n_samples, max_attempts, chunk)


def _km_weight(vals: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Probability that k independent Brownian bridges through vals never meet (Karlin-McGregor).

    vals has shape (..., k, len(times)): the curves at the increasing times,
    interval ends included. The weight is the product over the segments
    between consecutive times of det[p(dt; a_i, b_j)] / prod_i p(dt; a_i, b_i)
    (Karlin & McGregor 1959, "Coincidence probabilities"), each determinant
    clipped at 0; for k = 2 a segment gives 1 - exp(-(a_0 - a_1)(b_0 - b_1) / dt).
    It is 0 unless the curves are strictly ordered at every time.

    The determinant, rows divided by their diagonal entries, is summed over
    the k! permutations s as exp(sum_i [(a_i - b_i)^2 - (a_i - b_s(i))^2] / 2dt).
    For ordered a and b every term lies in [0, 1] (rearrangement inequality),
    so the sum stays accurate where LU elimination of the normalised matrix,
    whose entries reach e^60 on short segments, does not.
    """
    ok = _avoids(vals, np.inf, -np.inf)
    v = vals[ok]  # (n_ok, k, len(times))
    perms = list(itertools.permutations(range(v.shape[-2])))  # the identity first
    sq = ((v[:, None, :, :-1] - v[:, perms, 1:]) ** 2).sum(axis=2)  # (n_ok, k!, segments)
    terms = np.exp((sq[:, :1] - sq) / (2.0 * np.diff(times)))
    det = np.linalg.det(np.eye(v.shape[-2])[perms]) @ terms  # permutation signs times terms
    out = np.zeros(ok.shape)
    out[ok] = np.maximum(det, 0.0).prod(axis=-1)
    return out


def window_top_cdf(x1, a, b, h, dt: float) -> np.ndarray:
    """P(top curve at t1 <= x1) of two avoiding bridges, given the rest at t1 - dt, t1, t1 + dt.

    a and b are the top curve at t1 - dt and t1 + dt, h (..., 3) the bottom
    curve at the three times; x1, a, b and h[..., 1] broadcast. Given these,
    the top curve at t1 has the free density N((a+b)/2, dt/2) times
    _km_weight's two k = 2 segment factors (1 - e^{-alpha g})(1 - e^{-beta g})
    in g = v - h(t1) > 0, alpha = (a - h(t1 - dt))/dt, beta = (b - h(t1 + dt))/dt.
    Expanding the product gives four shifted Gaussians: in standard units
    (sd = sqrt(dt/2), d the standardised h(t1)), the mass of the term with
    rate c beyond z >= d is exp(c sd (d + c sd/2)) Phi(-(z + c sd)), kept as a
    log (scipy's log_ndtr) so that no term overflows at large w. The result
    is 0 for x1 <= h(t1) and NaN unless the pair is ordered at both edges.
    """
    a, b, h = np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(h, dtype=float)
    sd = np.sqrt(dt / 2.0)
    mean = 0.5 * (a + b)
    d = (h[..., 1] - mean) / sd
    z = np.maximum((x1 - mean) / sd, d)
    alpha, beta = (a - h[..., 0]) / dt, (b - h[..., 2]) / dt
    cs = sd * np.stack([np.zeros_like(alpha), alpha, beta, alpha + beta], axis=-1)
    d, z = d[..., None], z[..., None]  # a trailing axis for the four terms

    def beyond(lo):  # each term's mass beyond lo, over the free law's beyond d, signed and summed
        log_mass = cs * (d + cs / 2) + special.log_ndtr(-(lo + cs)) - special.log_ndtr(-d)
        return np.exp(log_mass) @ np.array([1.0, -1.0, -1.0, 1.0])

    with np.errstate(invalid="ignore", divide="ignore"):
        out = 1.0 - beyond(z) / beyond(d)
    return np.where((alpha > 0) & (beta > 0), out, np.nan)


def sample_avoiding_at(
    interval: Interval,
    x_vec: np.ndarray,
    y_vec: np.ndarray,
    times,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int = _KM_ATTEMPTS,
) -> tuple[np.ndarray, int, int]:
    """Exact joint samples of k barrier-free avoiding bridges at the given interior times.

    The k-curve counterpart of bridge.sample_bridge_at: no grid is involved, so
    the values follow the continuous non-intersecting law at those times. Each
    candidate is k independent bridges seen at the sorted times, accepted with
    probability _km_weight; its uniform is drawn after the round's candidates.
    Returns (values (n_samples, k, len(times)) with columns in time order,
    n_drawn, n_accepted_seen) and raises RejectionExhausted when fewer than
    n_samples are accepted within max_attempts candidates.
    """
    times = np.sort(np.asarray(times, dtype=float))
    if times[0] <= interval.a or times[-1] >= interval.b or np.any(np.diff(times) == 0):
        raise DomainError("times must be distinct and lie strictly inside the interval")
    x, y = np.asarray(x_vec, dtype=float), np.asarray(y_vec, dtype=float)
    if x.shape != y.shape or np.any(np.diff(x) >= 0) or np.any(np.diff(y) >= 0):
        raise DomainError("entrance and exit vectors must be strictly decreasing and of equal length")
    knots = np.concatenate([[interval.a], times, [interval.b]])

    def draw(rows, nc):
        z = rng.standard_normal((1, nc, x.size, times.size))
        return _bridge_paths(x, y, interval.a, times, interval.b, z)

    def accept(rows, paths):
        return rng.random(paths.shape[:2]) < _km_weight(paths, knots)

    vals, drawn, seen, _ = _rejection_loop(draw, accept, 1, (x.size, knots.size), n_samples,
                                           max_attempts, _KM_CHUNK)
    drawn, seen = int(drawn[0]), int(seen[0])
    if vals.shape[1] < n_samples:
        raise RejectionExhausted(drawn, f"{vals.shape[1]}/{n_samples} accepted in {drawn} draws")
    return vals[0, ..., 1:-1], drawn, seen


def sample_avoiding_batch(
    spec: AvoidSpec,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int = 10**7,
) -> tuple[np.ndarray, int, int]:
    """Batch of accepted ensembles as an array (n, k, M+1) plus draw statistics."""
    vals, drawn, seen, _ = sample_avoiding_values(
        spec.interval,
        spec.x.as_array(),
        spec.y.as_array(),
        spec.f,
        spec.g,
        spec.grid_points,
        n_samples,
        rng,
        max_attempts,
    )
    if vals.shape[0] < n_samples:
        raise RejectionExhausted(drawn, f"{vals.shape[0]}/{n_samples} accepted in {drawn} draws")
    return vals, drawn, seen


def wilson_ci(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, CI_Z standard errors wide."""
    if n <= 0:
        raise DomainError("need at least one trial")
    z = CI_Z
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# distributional transforms
# ---------------------------------------------------------------------------

def affine_transform(ens: LineEnsemble, c: float, u: float, r: float) -> LineEnsemble:
    """Time grid t -> c^2 t + u, values v -> c v + r; maps avoiding law to avoiding law."""
    if c <= 0:
        raise DomainError("scale c must be positive")
    a, b = ens.interval.a, ens.interval.b
    return LineEnsemble(Interval(c * c * a + u, c * c * b + u), c * ens.values + r)


def flip_transform(ens: LineEnsemble) -> LineEnsemble:
    """Negate values and reverse the curve order; preserves the ordering invariant."""
    return LineEnsemble(ens.interval, -ens.values[::-1, :])


# ---------------------------------------------------------------------------
# closed-form tail bounds for the bottom curve (barrier-free ensembles)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def default_c0() -> float:
    """certify_c0 at its default scan, computed once."""
    return certify_c0()


def bound_bottom_max(k: int, r: float, c0: float | None = None) -> float:
    """Upper bound on P(bottom curve midpoint >= max(x_k, y_k) + sqrt(b-a) * r)."""
    if r < 0 or k < 1:
        raise DomainError("need r >= 0 and k >= 1")
    c0 = default_c0() if c0 is None else c0
    return float(c0 * np.exp(-2.0 * r * r) / (SQRT2PI * (1.0 + 2.0 * r)))


def bound_bottom_min(k: int, r: float, c0: float | None = None) -> float:
    """Lower bound on P(bottom curve midpoint <= max(x_k, y_k) - sqrt(b-a) * r)."""
    if r < 0 or k < 1:
        raise DomainError("need r >= 0 and k >= 1")
    c0 = default_c0() if c0 is None else c0
    return float(np.exp(-2.0 * r * r) / (c0 * SQRT2PI * (1.0 + 2.0 * r)))


def bound_inf(k: int, r: float) -> float:
    """Upper bound on P(inf of bottom curve <= min(x_k, y_k) - sqrt(2) sqrt(b-a) (k + r - 1))."""
    if r < 0 or k < 1:
        raise DomainError("need r >= 0 and k >= 1")
    return float((1.0 - 2.0 * np.exp(-1.0)) ** (-k) * np.exp(-4.0 * r * r))
