"""Statistical test harness and the top-curve window observable.

Every check emits a TestReport whose verdict is a pure function of the recorded
statistic and threshold, so reports are auditable and reproducible from
(seed, config) alone. Suite-level failure threshold is p < 1e-5 per test, which
keeps the family-wise false-failure rate around 2e-4 at a few dozen tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import avoid  # read at call time, so replacing avoid.sample_avoiding_at reaches gibbs_resample_test
# sample_avoiding_values is re-exported: perfbench's tracer test wraps it under this name too
from .avoid import CI_Z, AvoidSpec, sample_avoiding_values, wilson_ci  # noqa: F401
from .bridge import _bridge_paths, midpoint_cdf_single
from .core import DomainError, Interval, RejectionExhausted, _rejection_loop

SUITE_P_FLOOR = 1e-5
NEGATIVE_CONTROL_P = 1e-6


@dataclass(frozen=True)
class TestReport:
    """One check: statistic, p-value or CI, sample sizes, verdict, seed provenance."""

    name: str
    statistic: float
    p_value: float | None
    ci: tuple[float, float] | None
    n1: int
    n2: int
    verdict: str
    seed_label: str
    details: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in ("PASS", "VACUOUS", "INFO")

    def line(self) -> str:
        p_txt = "-" if self.p_value is None else f"{self.p_value:.3g}"
        ci_txt = "-" if self.ci is None else f"[{self.ci[0]:.6g},{self.ci[1]:.6g}]"
        return (
            f"{self.verdict:12s} {self.name:44s} stat={self.statistic:.6g} "
            f"p={p_txt} ci={ci_txt} n=({self.n1},{self.n2}) seed={self.seed_label}"
        )


def ks_two_sample(
    s1,
    s2,
    name: str = "ks",
    seed_label: str = "",
    alternative: str = "two-sided",
) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test; PASS iff the p-value clears SUITE_P_FLOOR.

    alternative='greater' detects violations of 'sample 1 stochastically
    dominates sample 2' (its statistic is sup of cdf1 - cdf2).
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.size == 0 or s2.size == 0:
        raise DomainError("both sample sets must be nonempty")
    res = stats.ks_2samp(s1, s2, alternative=alternative, method="asymp")
    verdict = "PASS" if res.pvalue >= SUITE_P_FLOOR else "FAIL"
    return TestReport(
        name, float(res.statistic), float(res.pvalue), None,
        s1.size, s2.size, verdict, seed_label,
        details=f"alternative={alternative} floor={SUITE_P_FLOOR:g}",
    )


def marginal_ks(
    s1: np.ndarray,
    s2: np.ndarray,
    cells,
    prefix: str,
    seed_label: str,
    alternative: str = "two-sided",
    cols: list[int] | None = None,
) -> list[TestReport]:
    """One ks_two_sample report per (curve, column) cell of two (n, k, columns) sample arrays.

    Reports are named {prefix}-curve{i}-col{j} and come in the order of cells;
    cols lists the grid columns of the arrays' last axis, if not all of them.
    """
    pos = range(s1.shape[-1]) if cols is None else cols
    return [
        ks_two_sample(s1[:, i, pos.index(j)], s2[:, i, pos.index(j)], f"{prefix}-curve{i}-col{j}",
                      seed_label, alternative)
        for i, j in cells
    ]


def chi_square_uniform(
    observed: np.ndarray,
    name: str,
    seed_label: str,
) -> TestReport:
    """Chi-square test of uniformity over categories from raw counts; PASS iff p >= SUITE_P_FLOOR."""
    observed = np.asarray(observed, dtype=float)
    n = observed.sum()
    expected = np.full(observed.size, n / observed.size)
    stat, p = stats.chisquare(observed, expected)
    verdict = "PASS" if p >= SUITE_P_FLOOR else "FAIL"
    return TestReport(
        name, float(stat), float(p), None, int(n), observed.size, verdict, seed_label,
        details=f"categories={observed.size} floor={SUITE_P_FLOOR:g}",
    )


def frequency_vs_bound(
    hits: int,
    n: int,
    bound: float,
    direction: str,
    name: str,
    seed_label: str,
) -> TestReport:
    """PASS iff the Wilson CI is compatible with the closed-form bound.

    direction='upper': bound is an upper bound on the true probability, so the
    check fails only when the CI lies entirely above it; 'lower' symmetric.
    Bounds that cannot bind (>= 1 for upper, <= 0 for lower) record VACUOUS.
    """
    lo, hi = wilson_ci(hits, n)  # raises DomainError when n <= 0
    freq = hits / n
    if direction == "upper":
        verdict = "VACUOUS" if bound >= 1.0 else ("PASS" if lo <= bound else "FAIL")
    elif direction == "lower":
        verdict = "VACUOUS" if bound <= 0.0 else ("PASS" if hi >= bound else "FAIL")
    else:
        raise DomainError(f"unknown direction {direction!r}")
    return TestReport(
        name, freq, None, (lo, hi), n, 0, verdict, seed_label,
        details=f"{direction} bound={bound:.6g}",
    )


def tv_distance_report(
    counts: dict,
    support: list,
    name: str,
    seed_label: str,
    tol: float = 0.02,
) -> TestReport:
    """Total-variation distance of empirical visit counts from uniform over support."""
    n = sum(counts.values())
    if not set(counts) <= set(support):
        raise DomainError("chain visited a state outside the enumerated support")
    p_unif = 1.0 / len(support)
    tv = 0.5 * sum(abs(counts.get(s, 0) / n - p_unif) for s in support)
    verdict = "PASS" if tv <= tol else "FAIL"
    return TestReport(
        name, tv, None, None, n, len(support), verdict, seed_label,
        details=f"tol={tol} states={len(support)}",
    )


# ---------------------------------------------------------------------------
# Gibbs block-resampling invariance
# ---------------------------------------------------------------------------

def resample_block(
    values: np.ndarray,
    times,
    block: tuple[int, int],
    rng: np.random.Generator,
    ignore_lower: bool = False,
) -> np.ndarray:
    """Redraw curves block[0]..block[1] of every sample at the interior times.

    values has shape (n, k, len(times)), the curves at the increasing times.
    The block gets a draw at times[1:-1] from its exact conditional law given
    every curve at times[0] and times[-1] and the other curves at all times:
    candidates are free bridges between each sample's own block ends, kept when
    a uniform, drawn after the round's candidates, falls below avoid._km_weight
    of the candidate stacked with the sample's other curves (the non-intersecting
    density at a set of times is the free density times that weight). All n
    blocks are redrawn in one batched rejection pass. ignore_lower plants the
    negative-control defect: the curves below the block leave the stack.
    """
    n, k, n_times = values.shape
    i0, i1 = block
    times = np.asarray(times, dtype=float)
    if not 0 <= i0 <= i1 < k or n_times < 3 or times.shape != (n_times,) or np.any(np.diff(times) <= 0):
        raise DomainError("need a block of the curves and 3 or more increasing times, one per column")
    stack = values[:, : i1 + 1] if ignore_lower else values
    x, y = values[:, None, i0 : i1 + 1, 0], values[:, None, i0 : i1 + 1, -1]

    def draw(rows, nc):
        z = rng.standard_normal((rows.size, nc, i1 - i0 + 1, n_times - 2))
        return _bridge_paths(x[rows], y[rows], times[0], times[1:-1], times[-1], z)

    def accept(rows, cands):
        full = np.repeat(stack[rows, None], cands.shape[1], axis=1)
        full[:, :, i0 : i1 + 1] = cands
        return rng.random(cands.shape[:2]) < avoid._km_weight(full, times)

    vals, drawn, _, _ = _rejection_loop(draw, accept, n, (i1 - i0 + 1, n_times), 1, avoid._KM_ATTEMPTS,
                                        avoid._KM_CHUNK)
    if not vals.shape[1]:
        raise RejectionExhausted(int(drawn.max()), f"redraw of block {block} exhausted")
    out = values.copy()
    out[:, i0 : i1 + 1] = vals[:, 0]
    return out


def gibbs_resample_test(
    spec: AvoidSpec,
    block: tuple[int, int],
    sub_cols: tuple[int, int],
    marginals: list[tuple[int, int]],
    num_samples: int,
    rng: np.random.Generator,
    seed_label: str,
    ignore_lower: bool = False,
) -> list[TestReport]:
    """Compare original vs block-resampled marginals of spec's law with two-sample KS tests.

    Marginals are (curve, grid column) pairs, columns strictly inside sub_cols;
    only those columns' grid times are drawn. Two independent outer batches of
    the barrier-free spec come from avoid.sample_avoiding_at, and the second has
    its block redrawn between the sub_cols times by resample_block. Arguments are
    checked before any draw; the aggregate multiplicity rule is the per-test
    suite floor.
    """
    (i0, i1), (j0, j1) = block, sub_cols
    if spec.f != np.inf or spec.g != -np.inf or num_samples < 1:
        raise DomainError(f"need a barrier-free spec and num_samples >= 1, got {num_samples}")
    if not 0 <= i0 <= i1 < spec.k:
        raise DomainError(f"block {block} must name curves 0..{spec.k - 1} in order")
    if not (0 < j0 < j1 < spec.grid_points and marginals
            and all(0 <= i < spec.k and j0 < j < j1 for i, j in marginals)):
        raise DomainError(f"need 0 < j0 < j1 < {spec.grid_points} for sub_cols {sub_cols} and marginal "
                          f"cells of curves with columns strictly between them, got {marginals}")
    cols = sorted({j0, j1, *(j for _, j in marginals)})
    times = spec.interval.grid(spec.grid_points)[cols]
    x, y = spec.x.as_array(), spec.y.as_array()
    originals, _, _ = avoid.sample_avoiding_at(spec.interval, x, y, times, num_samples, rng)
    others, _, _ = avoid.sample_avoiding_at(spec.interval, x, y, times, num_samples, rng)
    resampled = resample_block(others, times, block, rng, ignore_lower=ignore_lower)
    prefix = "defect-marginal" if ignore_lower else "gibbs-marginal"
    return marginal_ks(originals, resampled, marginals, prefix, seed_label, cols=cols)


# ---------------------------------------------------------------------------
# the p_w observable
# ---------------------------------------------------------------------------

# the caps of the truncated variants min(cap, 1/F) that estimate_pw reports
_PW_CAPS = (10, 100, 1000)


@dataclass(frozen=True)
class ObservableSpec:
    """Top-curve window observable: threshold x1 at time t1, window [t1 - 1/w, t1 + 1/w]."""

    t1: float
    x1: float
    w: int

    def __post_init__(self):
        if self.w < 1:
            raise DomainError("w must be positive")

    @property
    def a_w(self) -> float:
        return self.t1 - 1.0 / self.w

    @property
    def b_w(self) -> float:
        return self.t1 + 1.0 / self.w

    def check_inside(self, interval: Interval) -> None:
        if not (interval.a < self.a_w and self.b_w < interval.b):
            raise DomainError("window must lie strictly inside the ensemble interval")


@dataclass(frozen=True)
class PwEstimate:
    """Monte Carlo estimate of the window ratio observable."""

    mean: float
    se: float
    n: int
    capped: dict[int, float] = field(default_factory=dict)
    degenerate: int = 0

    def ci(self) -> tuple[float, float]:
        return (self.mean - CI_Z * self.se, self.mean + CI_Z * self.se)


def estimate_pw(
    spec: ObservableSpec,
    vals_aw: np.ndarray,
    vals_t1: np.ndarray,
    vals_bw: np.ndarray,
    cap: int | None = None,
) -> PwEstimate:
    """Mean of 1{top curve at t1 <= x1} / F over the outer samples.

    vals_* hold the top curve at the window edges and center, shape (n, 1).
    The denominator F is the closed-form midpoint CDF of a free bridge across
    the window between each sample's edge values. Capped variants
    min(cap, 1/F), one per cap in _PW_CAPS, are reported alongside; outer
    samples whose F underflows to 0 while the indicator fires are degenerate
    and excluded from the uncapped mean (they are counted, and enter the
    capped means at the cap).

    With cap set, the primary estimate is the truncated observable
    1{...} min(cap, 1/F) itself: downward biased, but with finite variance,
    which is what CI-based consumers like the curve-count detector need.
    """
    if any(np.shape(v)[1:] != (1,) for v in (vals_aw, vals_t1, vals_bw)):
        raise DomainError("expected the top curve alone, arrays of shape (n, 1)")
    n = vals_aw.shape[0]
    indicator = vals_t1[:, 0] <= spec.x1
    denom = midpoint_cdf_single(spec.x1, spec.a_w, spec.b_w, vals_aw[:, 0], vals_bw[:, 0])
    degenerate = indicator & (denom <= 0.0)
    with np.errstate(divide="ignore"):
        raw = np.where(denom > 0, 1.0 / np.maximum(denom, 1e-300), np.inf)

    def capped_values(c: float) -> np.ndarray:
        return np.where(indicator, np.minimum(float(c), raw), 0.0)

    capped = {c: float(np.mean(capped_values(c))) for c in _PW_CAPS}
    if cap is not None:
        vals = capped_values(cap)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return PwEstimate(mean, se, n, capped, int(np.count_nonzero(degenerate)))
    live = indicator & ~degenerate
    ratios = np.zeros(n)
    ratios[live] = raw[live]
    keep = ~degenerate
    n_eff = int(np.count_nonzero(keep))
    mean = float(np.mean(ratios[keep])) if n_eff else 0.0
    se = float(np.std(ratios[keep], ddof=1) / np.sqrt(n_eff)) if n_eff > 1 else 0.0
    return PwEstimate(mean, se, n_eff, capped, int(np.count_nonzero(degenerate)))


def curve_count_detector(
    estimates: dict[int, PwEstimate],
    tau: float = 0.9,
) -> str:
    """Classify the window-ratio profile: NO_HIDDEN_CURVE, HIDDEN_CURVE, or INCONCLUSIVE.

    NO_HIDDEN_CURVE needs every window's CI to reach 1 - (1-tau)/2 and stay
    consistent with 1; HIDDEN_CURVE needs the largest window's CI upper edge
    below tau. Degenerate profiles (all windows exactly 1 with zero spread, as
    with an unboundedly high threshold) are INCONCLUSIVE.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError("tau must lie in (0, 1)")
    if not estimates:
        raise DomainError("need at least one window estimate")
    ws = sorted(estimates)
    if all(estimates[w].se == 0.0 for w in ws):
        return "INCONCLUSIVE"
    upper_level = 1.0 - (1.0 - tau) / 2.0
    no_hidden = True
    for w in ws:
        lo, hi = estimates[w].ci()
        if hi < upper_level or lo > 1.0:
            no_hidden = False
    if no_hidden:
        return "NO_HIDDEN_CURVE"
    lo, hi = estimates[ws[-1]].ci()
    if hi < tau:
        return "HIDDEN_CURVE"
    return "INCONCLUSIVE"
