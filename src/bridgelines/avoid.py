"""Samplers and transforms for avoiding (non-intersecting) Brownian bridge ensembles.

Every sampler and transform here passes ensembles on as one array of shape
(n, k, M+1), or (n, k, times) for the exact sampler. The grid law has one
entry point, sample_avoiding_values: rejection over k independent bridges,
accepted iff the strict ordering and barrier constraints hold at every grid
point. Without barriers, sample_avoiding_at samples the continuous law exactly
at a few times instead: two curves in closed form, as a free centre and a
Bessel(3)-bridge gap with no rejection, and any other k by accepting with
Karlin-McGregor weights. The same weights redraw blocks of curves for
verify.resample_block and give the top curve's closed-form law in a window
above a given second curve. Closed-form tail bounds for the bottom curve and
the affine/flip distributional identities, which act on whole batches, live
here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# midpoint_cdf_single is re-exported: perfbench's tracer test wraps it under this name too
from .bridge import SQRT2, SQRT2PI, _bridge_paths, _exact_times, certify_c0, midpoint_cdf_single  # noqa: F401
from .core import (
    DomainError, Interval, StructuralError, WeylVector,
    _avoids, _check_barriers, _rejection_loop,
)

# half-width, in standard errors, of the Wilson and p_w confidence intervals
CI_Z = 3.0
# candidates per round of the grid-checked rejection (sample_avoiding_values)
_GRID_CHUNK = 2048
# candidates per round, and per row before it counts as exhausted, of the Karlin-McGregor
# rejection (_km_rejection); a candidate holds k values per time
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
        _check_barriers(self.x, self.y, self.f, self.g)

    @property
    def k(self) -> int:
        return len(self.x)


def sample_avoiding_values(
    spec: AvoidSpec,
    n_samples: int,
    rng: np.random.Generator,
    max_attempts: int = 10**7,
) -> tuple[np.ndarray, int, int, int]:
    """Rejection sampling of spec's ensemble on its grid, between its constant barriers f and g.

    Candidates are k independent bridges, kept when _avoids passes them. The
    first round draws n_samples candidates and each later round twice the
    last, up to _GRID_CHUNK. Each candidate's normals follow the previous
    one's in the generator's stream, so the values returned do not depend on
    the round sizes; only n_drawn and the generator's state after the call
    do. Returns (values, n_drawn, n_accepted_seen, first_hit): values has
    shape (n_samples, k, M+1), and first_hit is the 0-based draw index of the
    first acceptance. Candidates are drawn in whole rounds so the acceptance
    rate n_accepted_seen / n_drawn is unbiased. Raises RejectionExhausted
    when fewer than n_samples are accepted within max_attempts candidates.
    """
    m, iv = spec.grid_points, spec.interval
    grid = iv.grid(m)
    x, y = spec.x.as_array(), spec.y.as_array()

    def draw(rows, nc):
        z = rng.standard_normal((1, nc, spec.k, m - 1))
        return _bridge_paths(x, y, iv.a, grid[1:m], iv.b, z)

    def accept(rows, cands):
        return _avoids(cands, spec.f, spec.g)

    vals, drawn, seen, first_hit = _rejection_loop(draw, accept, 1, (spec.k, m + 1), n_samples, max_attempts,
                                                   _GRID_CHUNK, n_samples)
    return vals[0], int(drawn[0]), int(seen[0]), int(first_hit[0])


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


def _km_rejection(stack: np.ndarray, times: np.ndarray, block: tuple[int, int], n_samples: int,
                  rng: np.random.Generator, max_attempts: int = _KM_ATTEMPTS):
    """n_samples exact draws at times[1:-1] of curves block[0]..block[1] of each row of stack.

    stack (R, k, len(times)) holds the curves at the increasing times; a draw
    follows the block's law given the row's block ends and other curves.
    Candidates are free bridges between the block ends, kept when a uniform,
    drawn after the round's candidates, falls below _km_weight of the
    candidate stacked with the row's other curves (the non-intersecting
    density at a set of times is the free density times that weight). Returns
    (values (R, n_samples, block size, len(times)), drawn, seen), the last two
    per row.
    """
    i0, i1 = block
    x, y = stack[:, None, i0 : i1 + 1, 0], stack[:, None, i0 : i1 + 1, -1]
    whole = i1 - i0 + 1 == stack.shape[1]  # then a candidate is the whole stack

    def draw(rows, nc):
        z = rng.standard_normal((rows.size, nc, i1 - i0 + 1, times.size - 2))
        return _bridge_paths(x[rows], y[rows], times[0], times[1:-1], times[-1], z)

    def accept(rows, cands):
        full = cands
        if not whole:
            full = np.repeat(stack[rows, None], cands.shape[1], axis=1)
            full[:, :, i0 : i1 + 1] = cands
        return rng.random(cands.shape[:2]) < _km_weight(full, times)

    return _rejection_loop(draw, accept, stack.shape[0], (i1 - i0 + 1, times.size), n_samples, max_attempts,
                           _KM_CHUNK)[:3]


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
    from scipy import special

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


def _two_avoiding_at(x: np.ndarray, y: np.ndarray, knots: np.ndarray, n_samples: int,
                     rng: np.random.Generator) -> np.ndarray:
    """n_samples exact draws of two barrier-free avoiding bridges from x to y, shape (n, 2, len(knots)).

    knots are the increasing times, interval ends included, where the ends x
    and y are written exactly. For unit-rate bridges X0, X1 the centre
    c = (X0 + X1)/sqrt(2) is a free bridge independent of the gap (X0 - X1),
    and non-intersection conditions the gap alone, so rho = (X0 - X1)/sqrt(2)
    is a Bessel(3) bridge from r0 = (x0 - x1)/sqrt(2) to r1 = (y0 - y1)/sqrt(2)
    (Revuz & Yor, ch. XI): the norm of a 3-d Brownian bridge from (r0, 0, 0)
    to r1 Theta, Theta von Mises-Fisher with kappa = r0 r1 / T. Its cosine w
    has density proportional to exp(kappa w) on [-1, 1] and is drawn by
    inversion, w = 1 + log1p(u expm1(-2 kappa)) / kappa, which stays finite
    where exp(-2 kappa) underflows; below the smallest normal kappa it is the
    limit 1 - 2u. Two uniforms (u, then the azimuth) per sample come first in
    the stream, then four normals per time, drawn for all samples at once.
    """
    r0, r1 = (x[0] - x[1]) / SQRT2, (y[0] - y[1]) / SQRT2
    kappa = r0 * r1 / (knots[-1] - knots[0])
    u, phi = rng.random((2, n_samples))
    phi *= 2.0 * np.pi
    if kappa >= np.finfo(float).tiny:
        w = np.maximum(1.0 + np.log1p(u * np.expm1(-2.0 * kappa)) / kappa, -1.0)  # rounding can pass -1
    else:
        w = 1.0 - 2.0 * u
    side = r1 * np.sqrt(1.0 - w * w)
    start = np.array([SQRT2 * (x[0] + x[1]) / 2.0, r0, 0.0, 0.0])
    end = np.stack([np.full(n_samples, SQRT2 * (y[0] + y[1]) / 2.0), r1 * w, side * np.cos(phi),
                    side * np.sin(phi)], axis=-1)
    z = rng.standard_normal((n_samples, 4, knots.size - 2))
    paths = _bridge_paths(start, end, knots[0], knots[1:-1], knots[-1], z)
    c, rho = paths[:, 0], np.sqrt((paths[:, 1:] ** 2).sum(axis=1))
    out = np.stack([c + rho, c - rho], axis=1) / SQRT2
    out[..., 0], out[..., -1] = x, y
    return out


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
    the values follow the continuous non-intersecting law at those times.
    Two curves are drawn in closed form by _two_avoiding_at, with no
    rejection, so n_drawn = n_accepted_seen = n_samples; any other k is one
    row of _km_rejection whose block is every curve, and only there does
    max_attempts apply. Returns (values (n_samples, k, len(times)) with
    columns in time order, n_drawn, n_accepted_seen) and raises
    RejectionExhausted when fewer than n_samples are accepted within
    max_attempts candidates.
    """
    x, y = np.asarray(x_vec, dtype=float), np.asarray(y_vec, dtype=float)
    times = _exact_times(interval, times, x, y)
    if np.any(np.diff(times) == 0):
        raise DomainError("times must be distinct")
    if x.shape != y.shape or np.any(np.diff(x) >= 0) or np.any(np.diff(y) >= 0):
        raise DomainError("entrance and exit vectors must be strictly decreasing and of equal length")
    knots = np.concatenate([[interval.a], times, [interval.b]])
    if x.size == 2:
        return _two_avoiding_at(x, y, knots, n_samples, rng)[..., 1:-1], n_samples, n_samples
    stack = np.zeros((1, x.size, knots.size))  # the ends; the interior is drawn
    stack[0, :, 0], stack[0, :, -1] = x, y
    vals, drawn, seen = _km_rejection(stack, knots, (0, x.size - 1), n_samples, rng, max_attempts)
    return vals[0, ..., 1:-1], int(drawn[0]), int(seen[0])


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

def affine_transform(interval: Interval, values: np.ndarray, c: float, u: float,
                     r: float) -> tuple[Interval, np.ndarray]:
    """Time t -> c^2 t + u, values v -> c v + r of ensembles (..., k, M+1) on interval.

    Returns the new interval and values; maps the avoiding law to the avoiding law.
    """
    if c <= 0:
        raise DomainError("scale c must be positive")
    return Interval(c * c * interval.a + u, c * c * interval.b + u), c * values + r


def flip_transform(values: np.ndarray) -> np.ndarray:
    """Negate ensembles (..., k, M+1) and reverse their curve order; preserves the ordering invariant."""
    return -values[..., ::-1, :]


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
