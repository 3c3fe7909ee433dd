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

from .avoid import sample_avoiding_values, wilson_ci
from .bridge import midpoint_cdf_single
from .core import DomainError, Interval
from .walk import RejectionExhausted

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
    p_floor: float = SUITE_P_FLOOR,
) -> TestReport:
    """Two-sample Kolmogorov-Smirnov test; PASS iff the p-value clears the floor.

    alternative='greater' detects violations of 'sample 1 stochastically
    dominates sample 2' (its statistic is sup of cdf1 - cdf2).
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    if s1.size == 0 or s2.size == 0:
        raise DomainError("both sample sets must be nonempty")
    res = stats.ks_2samp(s1, s2, alternative=alternative, method="asymp")
    verdict = "PASS" if res.pvalue >= p_floor else "FAIL"
    return TestReport(
        name, float(res.statistic), float(res.pvalue), None,
        s1.size, s2.size, verdict, seed_label,
        details=f"alternative={alternative} floor={p_floor:g}",
    )


def chi_square_uniform(
    observed: np.ndarray,
    name: str,
    seed_label: str,
    p_floor: float = SUITE_P_FLOOR,
) -> TestReport:
    """Chi-square test of uniformity over categories from raw counts."""
    observed = np.asarray(observed, dtype=float)
    n = observed.sum()
    expected = np.full(observed.size, n / observed.size)
    stat, p = stats.chisquare(observed, expected)
    verdict = "PASS" if p >= p_floor else "FAIL"
    return TestReport(
        name, float(stat), float(p), None, int(n), observed.size, verdict, seed_label,
        details=f"categories={observed.size} floor={p_floor:g}",
    )


def frequency_vs_bound(
    hits: int,
    n: int,
    bound: float,
    direction: str,
    name: str,
    seed_label: str,
    z: float = 3.0,
) -> TestReport:
    """PASS iff the Wilson CI is compatible with the closed-form bound.

    direction='upper': bound is an upper bound on the true probability, so the
    check fails only when the CI lies entirely above it; 'lower' symmetric.
    Bounds that cannot bind (>= 1 for upper, <= 0 for lower) record VACUOUS.
    """
    lo, hi = wilson_ci(hits, n, z)  # raises DomainError when n <= 0
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
    unseen = [k for k in counts if k not in set(support)]
    if unseen:
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

# candidate values drawn per round of the batched block redraw (32 MB of floats)
_ROUND_VALUES = 2**22


def resample_block(
    values: np.ndarray,
    interval: Interval,
    block: tuple[int, int],
    sub_cols: tuple[int, int],
    rng: np.random.Generator,
    ignore_lower: bool = False,
    max_attempts: int = 200000,
) -> np.ndarray:
    """Redraw curves block[0]..block[1] on columns sub_cols[0]..sub_cols[1] of every sample.

    values has shape (n, k, M+1). Each sample's boundary data is read from the
    sample itself: entrance/exit vectors at the sub-interval ends, the curve
    above the block as the upper barrier and the curve below as the lower one.
    All n blocks are redrawn in one batched rejection pass, each from its own
    conditional law. ignore_lower plants the negative-control defect (the
    lower bracketing curve is dropped).
    """
    _, k, m_plus = values.shape
    i0, i1 = block
    j0, j1 = sub_cols
    if not (0 <= i0 <= i1 < k) or not (0 <= j0 < j1 <= m_plus - 1):
        raise DomainError("block or sub-interval out of range")
    grid = interval.grid(m_plus - 1)
    sub_iv = Interval(float(grid[j0]), float(grid[j1]))
    width = j1 - j0
    f_vals = values[:, i0 - 1, j0 : j1 + 1] if i0 > 0 else np.full(width + 1, np.inf)
    if i1 < k - 1 and not ignore_lower:
        g_vals = values[:, i1 + 1, j0 : j1 + 1]
    else:
        g_vals = np.full(width + 1, -np.inf)
    block_vals, _, _, _ = sample_avoiding_values(
        sub_iv,
        values[:, i0 : i1 + 1, j0],
        values[:, i0 : i1 + 1, j1],
        f_vals,
        g_vals,
        width,
        1,
        rng,
        max_attempts,
        chunk=max(1, _ROUND_VALUES // ((i1 - i0 + 1) * (width + 1))),
    )
    if not block_vals.shape[1]:
        raise RejectionExhausted(
            max_attempts, f"nested resampling of block {block} on cols {sub_cols} exhausted"
        )
    out = values.copy()
    out[:, i0 : i1 + 1, j0 : j1 + 1] = block_vals[:, 0]
    return out


def gibbs_resample_test(
    sampler,
    interval: Interval,
    block: tuple[int, int],
    sub_cols: tuple[int, int],
    marginals: list[tuple[int, int]],
    num_samples: int,
    rng: np.random.Generator,
    seed_label: str,
    ignore_lower: bool = False,
    p_floor: float = SUITE_P_FLOOR,
) -> list[TestReport]:
    """Compare original vs block-resampled marginals with two-sample KS tests.

    sampler(n, rng) must return an (n, k, M+1) array of ensemble values. Two
    independent outer batches are drawn so the two compared sample sets are
    independent. Marginals are (curve index, grid column) pairs; the aggregate
    multiplicity rule is the per-test suite floor.
    """
    originals = sampler(num_samples, rng)
    others = sampler(num_samples, rng)
    resampled = resample_block(others, interval, block, sub_cols, rng, ignore_lower=ignore_lower)
    tag = "defect" if ignore_lower else "gibbs"
    reports = []
    for ci, col in marginals:
        reports.append(
            ks_two_sample(
                originals[:, ci, col],
                resampled[:, ci, col],
                name=f"{tag}-marginal-curve{ci}-col{col}",
                seed_label=seed_label,
                p_floor=p_floor,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# the p_w observable
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableSpec:
    """Window observable parameters: threshold x1 at time t1 with half-width 1/w."""

    t1: float
    x1: float
    w: int
    n_top: int = 1
    caps: tuple[int, ...] = (10, 100, 1000)

    def __post_init__(self):
        if self.w < 1 or self.n_top < 1:
            raise DomainError("w and n_top must be positive")

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

    def ci(self, z: float = 3.0) -> tuple[float, float]:
        return (self.mean - z * self.se, self.mean + z * self.se)


def _denominators(
    spec: ObservableSpec,
    vals_aw: np.ndarray,
    vals_bw: np.ndarray,
    inner_samples: int,
    rng: np.random.Generator | None,
) -> np.ndarray:
    n = vals_aw.shape[0]
    if spec.n_top == 1:
        return midpoint_cdf_single(spec.x1, spec.a_w, spec.b_w, vals_aw[:, 0], vals_bw[:, 0])
    if rng is None:
        raise DomainError("n_top >= 2 needs an RNG for the nested estimate")
    window = Interval(spec.a_w, spec.b_w)
    inner_grid = 64
    f_inf = np.full(inner_grid + 1, np.inf)
    g_inf = np.full(inner_grid + 1, -np.inf)
    out = np.empty(n)
    for s in range(n):
        vals, _, _, _ = sample_avoiding_values(
            window, vals_aw[s], vals_bw[s], f_inf, g_inf,
            inner_grid, inner_samples, rng, max_attempts=200 * inner_samples,
        )
        if vals.shape[0] == 0:
            out[s] = 0.0
            continue
        mid = vals[:, -1, inner_grid // 2]
        out[s] = float(np.mean(mid <= spec.x1))
    return out


def estimate_pw(
    spec: ObservableSpec,
    vals_aw: np.ndarray,
    vals_t1: np.ndarray,
    vals_bw: np.ndarray,
    inner_samples: int = 10**4,
    rng: np.random.Generator | None = None,
    cap: int | None = None,
) -> PwEstimate:
    """Mean of 1{bottom visible curve at t1 <= x1} / F over the outer samples.

    vals_* hold the visible curves 1..n_top at the window edges and center,
    shape (n, n_top). The denominator F is the closed-form bridge midpoint CDF
    for n_top = 1 and a nested Monte Carlo estimate otherwise. Capped variants
    min(cap, 1/F) are reported alongside; outer samples with a zero denominator
    estimate and a firing indicator are degenerate and excluded from the
    uncapped mean (they are counted, and enter the capped means at the cap).

    With cap set, the primary estimate is the truncated observable
    1{...} min(cap, 1/F) itself: downward biased, but with finite variance,
    which is what CI-based consumers like the curve-count detector need.
    """
    vals_aw = np.atleast_2d(vals_aw)
    vals_t1 = np.atleast_2d(vals_t1)
    vals_bw = np.atleast_2d(vals_bw)
    n = vals_aw.shape[0]
    if vals_aw.shape[1] != spec.n_top:
        raise DomainError(f"expected {spec.n_top} visible curves")
    indicator = vals_t1[:, spec.n_top - 1] <= spec.x1
    denom = _denominators(spec, vals_aw, vals_bw, inner_samples, rng)
    degenerate = indicator & (denom <= 0.0)
    with np.errstate(divide="ignore"):
        raw = np.where(denom > 0, 1.0 / np.maximum(denom, 1e-300), np.inf)

    def capped_values(c: float) -> np.ndarray:
        return np.where(indicator, np.minimum(float(c), raw), 0.0)

    capped = {c: float(np.mean(capped_values(c))) for c in spec.caps}
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
    z: float = 3.0,
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
        lo, hi = estimates[w].ci(z)
        if hi < upper_level or lo > 1.0:
            no_hidden = False
    if no_hidden:
        return "NO_HIDDEN_CURVE"
    lo, hi = estimates[ws[-1]].ci(z)
    if hi < tau:
        return "HIDDEN_CURVE"
    return "INCONCLUSIVE"
