"""Named verification suites: each one runs a fixed, seeded experiment battery.

Every suite takes a config dataclass (seed plus tunables, defaults at desk
scale), derives all randomness from RngSeed(seed) via named streams, and
returns a SuiteResult of TestReports. The CLI maps suite names to these
functions; the acceptance tests call them directly.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import avoid, bridge, glauber, verify, walk
from .core import (
    DomainError, Interval, LatticeParams, RejectionExhausted, RngSeed, WeylVector,
)
from .verify import SUITE_P_FLOOR, TestReport


@dataclass(frozen=True)
class SuiteResult:
    name: str
    reports: list[TestReport]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.reports]
        out.append(f"{'SUITE PASS' if self.passed else 'SUITE FAIL'} {self.name}")
        return out


def _report(name, statistic, verdict, seed_label, p_value=None, ci=None, n1=0, n2=0, details=""):
    return TestReport(name, float(statistic), p_value, ci, n1, n2, verdict, seed_label, details)


# ---------------------------------------------------------------------------
# configs: each field's type is its default's, and its domain is declared on it
# ---------------------------------------------------------------------------

def _same_type(value, default) -> bool:
    """value has default's type; a float takes an int but no bool, a tuple's elements are checked like its first."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_same_type(v, default[0]) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if type(default) is float else type(default))


def _domain(default, rule, words: str):
    """A config field whose value v must satisfy rule(v); a violation says the key must `words`."""
    return field(default=default, metadata={"domain": (rule, words)})


def _at_least(default, least=1):
    return _domain(default, lambda v: v >= least, f"be at least {least}")


def _tuple_of(default, rule, words: str):
    return _domain(default, lambda t: len(t) > 0 and all(rule(v) for v in t), f"be a non-empty tuple of {words}")


def _window_widths(default):
    # on [0, 1] with t1 = 1/2 the window [t1 - 1/w, t1 + 1/w] lies strictly inside iff w >= 3
    return _tuple_of(default, lambda w: w >= 3, "widths >= 3")


@dataclass(frozen=True)
class SuiteConfig:
    """The seed every suite config starts with; building a config checks all its fields.

    In field order, each value must have its default's type (_same_type) and
    satisfy the domain its field declares, so a config is checked before any
    draw, whoever builds it. Checks that tie two fields together stay in the suites.
    """

    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _same_type(value, f.default):
                raise ValueError(f"config key {f.name} must have the type of {f.default!r}, got {value!r}")
            rule, words = f.metadata.get("domain", (None, ""))
            if rule is not None and not rule(value):
                raise DomainError(f"config key {f.name} must {words}, got {value!r}")


# ---------------------------------------------------------------------------
# reflection formula (bridge maximum)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflectionConfig(SuiteConfig):
    cases: tuple[tuple[float, float, float], ...] = _tuple_of(
        ((1.0, 0.0, 1.0), (2.0, 0.0, 1.0), (1.0, 0.5, 1.0)),
        lambda c: len(c) == 3 and c[0] > 0 and all(abs(x) <= sys.float_info.max for x in c),
        "(T, a, beta) of finite numbers with T > 0",
    )
    grid_points: int = _at_least(2048, 2)
    n_samples: int = _at_least(100000)
    shrink_grid_coarse: int = _at_least(512)
    shrink_samples: int = _at_least(30000)


def reflection_suite(cfg: ReflectionConfig) -> SuiteResult:
    if not cfg.shrink_grid_coarse < cfg.grid_points:
        # the shrink check compares the allowance on a coarse grid with the finer main one
        raise DomainError(f"need shrink_grid_coarse < grid_points, got {cfg.shrink_grid_coarse}, {cfg.grid_points}")
    root = RngSeed(cfg.seed)
    reports = []
    for T, a, beta in cfg.cases:
        rng = root.derive(f"reflection/{T}/{a}/{beta}").generator()
        freq, allow = bridge.grid_max_exceedance(T, a, beta, cfg.grid_points, cfg.n_samples, rng)
        target = bridge.bridge_max_prob(T, a, beta)
        se = np.sqrt(target * (1 - target) / cfg.n_samples)
        err = abs(freq - target)
        verdict = "PASS" if err <= 3 * se + allow else "FAIL"
        reports.append(_report(
            f"reflection-T{T}-a{a}-b{beta}-M{cfg.grid_points}", err, verdict,
            f"{cfg.seed}", ci=(freq - 3 * se, freq + 3 * se), n1=cfg.n_samples,
            details=(
                f"freq={freq:.6g} target={target:.6g} tol={3 * se + allow:.6g} "
                f"allowance={allow:.6g} (analytic {bridge.grid_max_allowance(T, a, beta, cfg.grid_points):.6g})"
            ),
        ))
    # allowance shrink: the coarse grid misses more exceedances than the fine one
    T, a, beta = cfg.cases[0]
    rng_c = root.derive("reflection/shrink-coarse").generator()
    rng_f = root.derive("reflection/shrink-fine").generator()
    freq_c, allow_c = bridge.grid_max_exceedance(T, a, beta, cfg.shrink_grid_coarse, cfg.shrink_samples, rng_c)
    freq_f, allow_f = bridge.grid_max_exceedance(T, a, beta, cfg.grid_points, cfg.shrink_samples, rng_f)
    target = bridge.bridge_max_prob(T, a, beta)
    comb_se = np.sqrt(2 * target * (1 - target) / cfg.shrink_samples)
    ok = (allow_f < allow_c) and (freq_f >= freq_c - 3 * comb_se)
    reports.append(_report(
        f"reflection-allowance-shrink-M{cfg.shrink_grid_coarse}->{cfg.grid_points}",
        allow_c - allow_f, "PASS" if ok else "FAIL", f"{cfg.seed}",
        n1=cfg.shrink_samples,
        details=f"allow {allow_c:.6g}->{allow_f:.6g}; freq {freq_c:.6g}->{freq_f:.6g} (bias shrinks toward {target:.6g})",
    ))
    return SuiteResult("reflection", reports)


# ---------------------------------------------------------------------------
# conditioned-walk exactness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkExactConfig(SuiteConfig):
    max_steps: int = _at_least(6)
    n_samples: int = _at_least(100000)
    telescope_cases: tuple[tuple[int, int], ...] = _tuple_of(
        ((6, 0), (6, 3), (40, 7), (64, -10)), lambda c: len(c) == 2 and abs(c[1]) <= c[0], "(N, z) with |z| <= N",
    )
    telescope_paths: int = _at_least(50)
    telescope_tol: float = _at_least(1e-9, 0)


def walk_exact_suite(cfg: WalkExactConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    reports = []
    worst_p = 1.0
    for n in range(1, cfg.max_steps + 1):
        for z in range(-n, n + 1):
            valid = [s for s in itertools.product((-1, 0, 1), repeat=n) if sum(s) == z]
            if len(valid) == 1:
                continue  # forced path, nothing to test
            codes = np.array([sum((s + 1) * 3**j for j, s in enumerate(seq)) for seq in valid])
            order = np.argsort(codes)
            rng = root.derive(f"walk-exact/{n}/{z}").generator()
            steps = walk.sample_walk_steps(n, z, cfg.n_samples, rng).astype(np.int64)
            sample_codes = (steps + 1) @ (3 ** np.arange(n, dtype=np.int64))
            idx = np.searchsorted(codes[order], sample_codes)
            observed = np.bincount(idx, minlength=len(valid))
            rep = verify.chi_square_uniform(observed, f"walk-chi2-N{n}-z{z}", f"{cfg.seed}")
            worst_p = min(worst_p, rep.p_value)
            if rep.verdict == "FAIL":
                reports.append(rep)
    reports.append(_report(
        f"walk-chi2-all-N<={cfg.max_steps}", worst_p,
        "PASS" if worst_p >= SUITE_P_FLOOR else "FAIL", f"{cfg.seed}",
        p_value=worst_p, n1=cfg.n_samples,
        details=f"min p over all (N,z) cases vs floor {SUITE_P_FLOOR:g}",
    ))
    worst_err = 0.0
    for n, z in cfg.telescope_cases:
        rng = root.derive(f"walk-telescope/{n}/{z}").generator()
        log_count = float(np.log(float(walk.count_paths(n, z))))
        steps = walk.sample_walk_steps(n, z, cfg.telescope_paths, rng)
        worst_err = max(worst_err, float(np.abs(walk.walk_log_prob(steps, z) + log_count).max()))
    reports.append(_report(
        "walk-telescoping-logprob", worst_err,
        "PASS" if worst_err <= cfg.telescope_tol else "FAIL", f"{cfg.seed}",
        details=f"max |sum log p + log count| over sampled paths, tol {cfg.telescope_tol:g}",
    ))
    return SuiteResult("walk-exact", reports)


# ---------------------------------------------------------------------------
# walk-to-bridge weak convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceConfig(SuiteConfig):
    # the walk has n^2 steps and its midpoint needs an even count
    scales: tuple[int, ...] = _tuple_of((4, 8, 16, 32), lambda n: n >= 2 and n % 2 == 0, "even integers >= 2")
    n_samples: int = _at_least(100000)
    final_tol: float = 0.02
    inversion_tol: float = 0.005


def _lattice_ks_floor(n_steps: int, dx: float, sd: float) -> float:
    """Exact KS distance between the dx-scaled lattice midpoint law and N(0, sd^2), no sampling."""
    from scipy import stats

    d, p = walk._midpoint_pmf(n_steps, 0)
    cdf = np.cumsum(p)
    gauss = stats.norm.cdf(d * dx, scale=sd)
    # the sup is reached at an atom, from its left (cdf - p) or at it (cdf)
    return float(max(np.abs(cdf - gauss).max(), np.abs(cdf - p - gauss).max()))


def convergence_suite(cfg: ConvergenceConfig) -> SuiteResult:
    from scipy import stats

    root = RngSeed(cfg.seed)
    interval = Interval(0.0, 1.0)
    sd = np.sqrt(interval.length / 4.0)
    distances = []
    reports = []
    for n in cfg.scales:
        lat = LatticeParams.scaled(interval, n)
        rng = root.derive(f"convergence/{n}").generator()
        mids = walk.sample_walk_midpoints(lat.n_steps, 0, cfg.n_samples, rng) * lat.dx
        d = float(stats.kstest(mids, "norm", args=(0.0, sd)).statistic)
        distances.append(d)
        reports.append(_report(
            f"convergence-ks-n{n}", d, "INFO", f"{cfg.seed}", n1=cfg.n_samples,
            details=("KS distance of embedded-walk midpoint vs analytic Gaussian midpoint; "
                     f"lattice_floor={_lattice_ks_floor(lat.n_steps, lat.dx, sd):.4g}"),
        ))
    inversions = sum(1 for i in range(len(distances) - 1) if distances[i + 1] > distances[i])
    hard = sum(1 for i in range(len(distances) - 1) if distances[i + 1] > distances[i] + cfg.inversion_tol)
    mono_ok = inversions <= 1 and hard == 0
    reports.append(_report(
        "convergence-monotone", inversions, "PASS" if mono_ok else "FAIL", f"{cfg.seed}",
        details=f"distances={['%.5f' % d for d in distances]} (<=1 inversion within {cfg.inversion_tol})",
    ))
    reports.append(_report(
        f"convergence-final-n{cfg.scales[-1]}", distances[-1],
        "PASS" if distances[-1] < cfg.final_tol else "FAIL", f"{cfg.seed}",
        n1=cfg.n_samples, details=f"tol {cfg.final_tol}",
    ))
    return SuiteResult("convergence", reports)


# ---------------------------------------------------------------------------
# glauber stationarity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StationarityConfig(SuiteConfig):
    retained: int = _at_least(100000)
    tv_tol: float = _domain(0.02, lambda v: 0 <= v < 1, "be in [0, 1)")  # a TV distance never exceeds 1
    burn_seeds: int = _at_least(32)


def glauber_stationarity_suite(cfg: StationarityConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    reports = []
    lat4 = LatticeParams(Interval(0.0, 1.0), 4)
    instances = [
        ("3state-k1", walk.WalkEnsembleSpec(LatticeParams(Interval(0.0, 1.0), 2), (0,), (0,))),
        ("104state-k2", walk.WalkEnsembleSpec(lat4, (2, 0), (2, 0), g=-0.5 * lat4.dx)),
    ]
    for name, spec in instances:
        # the chain's state keys: each configuration as a tuple of curves of units
        support = [tuple(map(tuple, config)) for config in walk.enumerate_avoiding_configs(spec).tolist()]
        burn_streams = [root.derive(f"stationarity/{name}/burn/{i}").generator() for i in range(cfg.burn_seeds)]
        burn = glauber.coalescence_burn_in(spec, burn_streams)
        thin = max(1, burn // 16)
        init = glauber.maximal_state(spec)
        counts = glauber.sample_stationary_keys(
            init, burn, cfg.retained, thin, root.derive(f"stationarity/{name}/run").generator()
        )
        reports.append(verify.tv_distance_report(
            counts, support, f"stationarity-{name}", f"{cfg.seed}", tol=cfg.tv_tol
        ))
        reports[-1] = replace(
            reports[-1],
            details=reports[-1].details + f" burn={burn} thin={thin}",
        )
    return SuiteResult("glauber-stationarity", reports)


# ---------------------------------------------------------------------------
# monotone coupling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingConfig(SuiteConfig):
    n_chain_seeds: int = _at_least(100)
    chain_events: int = _at_least(10000)
    chain_scale: int = _at_least(4, 2)  # a 1-step lattice (chain_scale 1) has no interior site for the chain to move
    n_marginal_samples: int = _at_least(4000)
    grid_points: int = _at_least(128, 4)  # columns g // 4, g // 2 and 3 g // 4 distinct and interior


def coupling_suite(cfg: CouplingConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    reports = []
    # pathwise: coupled chains on shared clocks, random ordered boundary data
    violations = 0
    lat = LatticeParams.scaled(Interval(0.0, 1.0), cfg.chain_scale)

    def draw_pair(pick):
        lo1 = int(pick.integers(-2, 3))
        lo0 = lo1 + int(pick.integers(1, 4))
        l0, l1 = (int(v) for v in pick.integers(0, 3, size=2))
        hi1 = lo1 + l1
        hi0 = max(lo0 + l0, hi1 + 1)  # keep both the Weyl order and hi >= lo
        return [lo0, lo1], [hi0, hi1]

    for s in range(cfg.n_chain_seeds):
        pick = root.derive(f"coupling/chain/{s}/init").generator()
        xa, xb = draw_pair(pick)
        ya, yb = draw_pair(pick)
        use_barrier = s % 2 == 1
        if use_barrier:
            g_b = (min(xa[1], ya[1]) - 3) * lat.dx
            g_t = (min(xb[1], yb[1]) - 2.5) * lat.dx
        else:
            g_b = g_t = -np.inf
        init_a = glauber.maximal_state(walk.WalkEnsembleSpec(lat, xa, ya, g=g_b))
        init_b = glauber.maximal_state(walk.WalkEnsembleSpec(lat, xb, yb, g=g_t))
        try:
            glauber.simulate_coupled(
                init_a, init_b, cfg.chain_events,
                root.derive(f"coupling/chain/{s}/run").generator(),
            )
        except AssertionError:
            violations += 1
    reports.append(_report(
        f"coupling-pathwise-{cfg.n_chain_seeds}seeds", violations,
        "PASS" if violations == 0 else "FAIL", f"{cfg.seed}",
        n1=cfg.n_chain_seeds * cfg.chain_events,
        details="ordering violations across coupled chain runs",
    ))
    # stochastic dominance of avoiding laws: raised endpoints (one-sided KS)
    iv = Interval(0.0, 1.0)
    lo_spec = avoid.AvoidSpec(iv, WeylVector((1.0, -1.0)), WeylVector((1.0, -1.0)), grid_points=cfg.grid_points)
    hi_spec = avoid.AvoidSpec(iv, WeylVector((2.0, 0.0)), WeylVector((2.0, 0.0)), grid_points=cfg.grid_points)
    lo_vals, _, _, _ = avoid.sample_avoiding_values(lo_spec, cfg.n_marginal_samples,
                                                    root.derive("coupling/xy/lo").generator())
    hi_vals, _, _, _ = avoid.sample_avoiding_values(hi_spec, cfg.n_marginal_samples,
                                                    root.derive("coupling/xy/hi").generator())
    cols = [cfg.grid_points // 4, cfg.grid_points // 2, 3 * cfg.grid_points // 4]
    # dominance: cdf(hi) <= cdf(lo) everywhere; the one-sided statistic
    # sup(cdf_hi - cdf_lo) detects violations of that direction
    reports += verify.marginal_ks(hi_vals, lo_vals, itertools.product(range(2), cols),
                                  "dominance-endpoints", f"{cfg.seed}", alternative="greater")
    # dominance under a raised lower barrier
    base = avoid.AvoidSpec(iv, WeylVector((1.0, -1.0)), WeylVector((1.0, -1.0)), grid_points=cfg.grid_points)
    raised = avoid.AvoidSpec(iv, WeylVector((1.0, -1.0)), WeylVector((1.0, -1.0)), g=-2.0,
                             grid_points=cfg.grid_points)
    b_vals, _, _, _ = avoid.sample_avoiding_values(base, cfg.n_marginal_samples,
                                                   root.derive("coupling/fg/base").generator())
    r_vals, _, _, _ = avoid.sample_avoiding_values(raised, cfg.n_marginal_samples,
                                                   root.derive("coupling/fg/raised").generator())
    reports += verify.marginal_ks(r_vals, b_vals, [(i, cfg.grid_points // 2) for i in range(2)],
                                  "dominance-barrier", f"{cfg.seed}", alternative="greater")
    return SuiteResult("coupling", reports)


# ---------------------------------------------------------------------------
# Gibbs resampling invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsConfig(SuiteConfig):
    n_samples: int = _at_least(5000)
    grid_points: int = _at_least(256, 2)
    endpoints: tuple[float, float] = (0.25, -0.25)
    block: tuple[int, int] = (0, 0)
    sub_cols: tuple[int, int] = (64, 192)
    marginal_cols: tuple[int, ...] = (72, 96, 120, 136, 160, 184)


def gibbs_suite(cfg: GibbsConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    iv = Interval(0.0, 1.0)
    vec = WeylVector(cfg.endpoints)
    spec = avoid.AvoidSpec(iv, vec, vec, grid_points=cfg.grid_points)
    marginals = [(cfg.block[0], col) for col in cfg.marginal_cols]
    reports = verify.gibbs_resample_test(
        spec, cfg.block, cfg.sub_cols, marginals, cfg.n_samples,
        root.derive("gibbs/main").generator(), f"{cfg.seed}",
    )
    # the control draws twice the main check's batches: at n_samples it missed the bar at 5 of
    # seeds 1-200 (min p up to 6.5e-5); at 2 * n_samples it missed none, the largest min p 6.3e-14
    n_defect = 2 * cfg.n_samples
    defect = verify.gibbs_resample_test(
        spec, cfg.block, cfg.sub_cols, marginals, n_defect,
        root.derive("gibbs/defect").generator(), f"{cfg.seed}", ignore_lower=True,
    )
    min_p = min(r.p_value for r in defect)
    reports.append(_report(
        "gibbs-negative-control", min_p,
        "PASS" if min_p < verify.NEGATIVE_CONTROL_P else "FAIL", f"{cfg.seed}",
        p_value=min_p, n1=n_defect,
        details=f"planted defect must be detected: min p < {verify.NEGATIVE_CONTROL_P:g}",
    ))
    return SuiteResult("gibbs", reports)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailsConfig(SuiteConfig):
    ks: tuple[int, ...] = _tuple_of((1, 2, 3), lambda k: k >= 1, "curve counts >= 1")
    rs: tuple[float, ...] = _tuple_of((0.5, 1.0, 1.5), lambda r: r >= 0, "numbers >= 0")
    n_samples: int = _at_least(20000)
    grid_points: int = _at_least(256, 2)
    spacing: float = _domain(1.0, lambda v: 0 < v < np.inf, "be in (0, inf)")


def tails_suite(cfg: TailsConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    iv = Interval(0.0, 1.0)
    length = iv.length
    c0 = avoid.default_c0()
    reports = []
    for k in cfg.ks:
        ends = WeylVector(tuple(cfg.spacing * (k - 1) / 2 - cfg.spacing * i for i in range(k)))
        spec = avoid.AvoidSpec(iv, ends, ends, grid_points=cfg.grid_points)
        vals, _, _, _ = avoid.sample_avoiding_values(spec, cfg.n_samples,
                                                     root.derive(f"tails/k{k}").generator())
        # copies of the bottom curve's midpoint and grid minimum, so the batch is freed
        # before the next k's fills
        mid, inf_vals = vals[:, -1, cfg.grid_points // 2].copy(), vals[:, -1].min(axis=1)
        del vals
        ref = ends[k - 1]  # x = y, so max and min of the endpoint pair coincide
        for r in cfg.rs:
            hits_max = int(np.count_nonzero(mid >= ref + np.sqrt(length) * r))
            reports.append(verify.frequency_vs_bound(
                hits_max, cfg.n_samples, avoid.bound_bottom_max(k, r, c0), "upper",
                f"tail-mid-high-k{k}-r{r}", f"{cfg.seed}",
            ))
            hits_min = int(np.count_nonzero(mid <= ref - np.sqrt(length) * r))
            reports.append(verify.frequency_vs_bound(
                hits_min, cfg.n_samples, avoid.bound_bottom_min(k, r, c0), "lower",
                f"tail-mid-low-k{k}-r{r}", f"{cfg.seed}",
            ))
            thresh = ends[k - 1] - np.sqrt(2.0) * np.sqrt(length) * (k + r - 1)
            hits_inf = int(np.count_nonzero(inf_vals <= thresh))
            reports.append(verify.frequency_vs_bound(
                hits_inf, cfg.n_samples, avoid.bound_inf(k, r), "upper",
                f"tail-inf-k{k}-r{r}", f"{cfg.seed}",
            ))
    return SuiteResult("tails", reports)


# ---------------------------------------------------------------------------
# the p_w mechanism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PwConfig(SuiteConfig):
    windows: tuple[int, ...] = _window_widths((4, 8, 16, 32))
    n_single: int = _at_least(50000)
    single_x1: float = 1.5
    # calibrated two-curve instance: x1 sits at the top curve's upper bulk so the
    # ratio estimator keeps finite weights; n_pair sets the Monte Carlo
    # resolution against which the finite-w sandwich gap is judged
    pair_interval: tuple[float, float] = _domain((0.0, 1.0), lambda iv: len(iv) == 2, "be a pair (a, b)")
    pair_gap: float = _domain(0.5, lambda v: 0 < v < np.inf, "be in (0, inf)")
    pair_grid: int = _at_least(128, 2)
    pair_w: int = 32
    n_pair: int = _at_least(1200)
    pair_top_quantile: float = _domain(0.97, lambda q: 0 <= q <= 1, "be in [0, 1]")
    n_pilot: int = _at_least(2000)
    n_domination: int = _at_least(2000)
    domination_budget: float = _domain(0.001, lambda v: 0 < v <= 1, "be in (0, 1]")


def single_bridge_pw(windows, x1: float, n_samples: int, rng: np.random.Generator,
                     cap: int | None = None) -> dict[int, verify.PwEstimate]:
    """p_w profile of one free bridge from 0 to 0 on [0, 1]: threshold x1 at t1 = 1/2, per window width."""
    iv = Interval(0.0, 1.0)
    times = _window_times(iv, windows)
    samples = bridge.sample_bridge_at(iv, 0.0, 0.0, times, n_samples, rng)
    return _top_curve_profile(iv, times, samples, x1, windows, cap)


def hidden_pair_pw(windows, gap: float, quantile: float, n_pilot: int, n_samples: int,
                   pilot_rng: np.random.Generator, main_rng: np.random.Generator,
                   cap: int | None = None) -> tuple[float, np.ndarray, dict[int, verify.PwEstimate]]:
    """p_w profile of the top curve of two avoiding bridges from (gap/2, -gap/2) back on [0, 1].

    Both batches are drawn exactly at the window times with
    avoid.sample_avoiding_at. The threshold x1 is the given quantile of the
    hidden (bottom) curve at t1 = 1/2 in a pilot batch of n_pilot; the profile
    is read from a main batch of n_samples. Returns (x1, the main batch's
    hidden curve at t1, the profile).
    """
    iv = Interval(0.0, 1.0)
    times = _window_times(iv, windows)
    jt = int(np.searchsorted(times, iv.midpoint))
    ends = np.array([gap / 2.0, -gap / 2.0])
    pilot, _, _ = avoid.sample_avoiding_at(iv, ends, ends, times, n_pilot, pilot_rng)
    x1 = float(np.quantile(pilot[:, 1, jt], quantile))
    vals, _, _ = avoid.sample_avoiding_at(iv, ends, ends, times, n_samples, main_rng)
    return x1, vals[:, 1, jt], _top_curve_profile(iv, times, vals[:, 0], x1, windows, cap)


def _window_times(iv: Interval, windows) -> np.ndarray:
    """The sorted times t1 and t1 +/- 1/w over the window widths, t1 the midpoint of iv.

    Every window must lie strictly inside iv; otherwise DomainError.
    """
    t1 = iv.midpoint
    for w in windows:
        verify.ObservableSpec(t1, 0.0, w).check_inside(iv)  # the threshold does not move the window
    return np.array(sorted({t1} | {t1 - 1.0 / w for w in windows} | {t1 + 1.0 / w for w in windows}))


def _top_curve_profile(iv: Interval, times: np.ndarray, top: np.ndarray, x1: float, windows,
                       cap: int | None) -> dict[int, verify.PwEstimate]:
    """p_w per window width of the top-curve values top (n, len(times)), t1 the midpoint of iv."""
    out = {}
    for w in windows:
        ja, jt, jb = _window_cols(iv, times, w)
        ow = verify.ObservableSpec(iv.midpoint, x1, w)
        out[w] = verify.estimate_pw(ow, top[:, [ja]], top[:, [jt]], top[:, [jb]], cap=cap)
    return out


def _window_cols(iv: Interval, times: np.ndarray, w: int) -> tuple[int, int, int]:
    """Columns of t1 - 1/w, t1 and t1 + 1/w in the time array times, t1 the midpoint of iv.

    The window must lie strictly inside iv and its three times must be among
    times (to 1e-9 relative); otherwise DomainError.
    """
    window = verify.ObservableSpec(iv.midpoint, 0.0, w)  # the threshold does not move the window
    window.check_inside(iv)
    want = np.array([window.a_w, window.t1, window.b_w])
    cols = np.abs(times[:, None] - want).argmin(axis=0)
    if np.any(np.abs(times[cols] - want) > 1e-9 * np.maximum(1.0, np.abs(want))):
        raise DomainError("window edges must land on grid points")
    return tuple(cols.tolist())


# how far the closed-form conditional CDF may exceed its bound by rounding alone
_DOMINATION_ROUNDING = 1e-12


def pw_suite(cfg: PwConfig) -> SuiteResult:
    vec = WeylVector((cfg.pair_gap / 2.0, -cfg.pair_gap / 2.0))
    spec = avoid.AvoidSpec(Interval(*cfg.pair_interval), vec, vec, grid_points=cfg.pair_grid)
    grid = spec.interval.grid(cfg.pair_grid)
    ja, jt, jb = _window_cols(spec.interval, grid, cfg.pair_w)
    root = RngSeed(cfg.seed)
    reports = []
    # (a) one free bridge: every window's CI must contain 1
    singles = single_bridge_pw(cfg.windows, cfg.single_x1, cfg.n_single, root.derive("pw/single").generator())
    for w, est in sorted(singles.items()):
        lo, hi = est.ci()
        ok = lo <= 1.0 <= hi
        reports.append(_report(
            f"pw-single-w{w}", est.mean, "PASS" if ok else "FAIL", f"{cfg.seed}",
            ci=(lo, hi), n1=est.n,
            details=f"se={est.se:.4g} capped={ {c: round(v, 5) for c, v in est.capped.items()} } degenerate={est.degenerate}",
        ))
    # (b) calibrated two-curve ensemble at the largest window
    def pair(n, label):
        return avoid.sample_avoiding_values(spec, n, root.derive(label).generator())[0]

    x1 = float(np.quantile(pair(cfg.n_pilot, "pw/pair/pilot")[:, 0, jt], cfg.pair_top_quantile))
    vals = pair(cfg.n_pair, "pw/pair/main")
    est = _top_curve_profile(spec.interval, grid, vals[:, 0], x1, (cfg.pair_w,), None)[cfg.pair_w]
    hidden = vals[:, 1, jt]
    hits = int(np.count_nonzero(hidden <= x1))
    direct = hits / cfg.n_pair
    direct_se = np.sqrt(direct * (1 - direct) / cfg.n_pair)
    comb = float(np.sqrt(est.se**2 + direct_se**2))
    ok = abs(est.mean - direct) <= 3 * comb
    reports.append(_report(
        f"pw-sandwich-w{cfg.pair_w}", est.mean, "PASS" if ok else "FAIL", f"{cfg.seed}",
        ci=est.ci(), n1=est.n,
        details=(
            f"direct={direct:.5g} x1={x1:.5g} |diff|={abs(est.mean - direct):.5g} "
            f"tol={3 * comb:.5g} capped={ {c: round(v, 5) for c, v in est.capped.items()} } "
            f"degenerate={est.degenerate}"
        ),
    ))
    # (c) per-sample domination against the hidden curve: given the hidden curve at
    # the window's three times and the top curve at its edges, the top curve's exact
    # conditional CDF at x1 may not exceed the free bridge's, nor be positive when the
    # hidden curve sits above x1; a NaN counts as a violation
    dom_vals = pair(cfg.n_domination, "pw/pair/domination")
    top, hidden = dom_vals[:, 0], dom_vals[:, 1, [ja, jt, jb]]
    num = avoid.window_top_cdf(x1, top[:, ja], top[:, jb], hidden, grid[jt] - grid[ja])
    free = bridge.midpoint_cdf_single(x1, grid[ja], grid[jb], top[:, ja], top[:, jb])
    violations = int(np.count_nonzero(~(num <= free * (hidden[:, 1] <= x1) + _DOMINATION_ROUNDING)))
    rate = violations / cfg.n_domination
    reports.append(_report(
        "pw-domination-oracle", rate, "PASS" if rate < cfg.domination_budget else "FAIL", f"{cfg.seed}",
        n1=cfg.n_domination,
        details=f"violations={violations} checked={cfg.n_domination} budget={cfg.domination_budget}",
    ))
    return SuiteResult("pw", reports)


# ---------------------------------------------------------------------------
# curve-count detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectConfig(SuiteConfig):
    n_seeds: int = _at_least(10)
    windows: tuple[int, ...] = _window_widths((4, 8, 16, 32))
    tau: float = _domain(0.9, lambda v: 0 < v < 1, "be in (0, 1)")
    n_samples: int = _at_least(20000, 2)  # the capped estimator's standard error needs two samples
    single_x1: float = 1.5
    pair_gap: float = _domain(0.3, lambda v: 0 < v < np.inf, "be in (0, inf)")
    hidden_quantile: float = _domain(0.8, lambda q: 0 <= q <= 1, "be in [0, 1]")
    n_pilot: int = _at_least(2000)
    cap: int = _at_least(1000)  # detector consumes the truncated (finite-variance) estimator
    planted: str = _domain("both", lambda p: p in ("hidden", "none", "both"), "be hidden, none or both")


def _detect_single_case(cfg: DetectConfig, root: RngSeed, s: int) -> str:
    rng = root.derive(f"detect/none/{s}").generator()
    ests = single_bridge_pw(cfg.windows, cfg.single_x1, cfg.n_samples, rng, cap=cfg.cap)
    return verify.curve_count_detector(ests, cfg.tau)


def _detect_hidden_case(cfg: DetectConfig, root: RngSeed, s: int) -> str:
    _, _, ests = hidden_pair_pw(
        cfg.windows, cfg.pair_gap, cfg.hidden_quantile, cfg.n_pilot, cfg.n_samples,
        root.derive(f"detect/hidden/{s}/pilot").generator(), root.derive(f"detect/hidden/{s}/main").generator(),
        cfg.cap,
    )
    return verify.curve_count_detector(ests, cfg.tau)


def detect_suite(cfg: DetectConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    reports = []
    correct = 0
    total = 0
    for s in range(cfg.n_seeds):
        if cfg.planted in ("none", "both"):
            verdict = _detect_single_case(cfg, root, s)
            total += 1
            ok = verdict == "NO_HIDDEN_CURVE"
            correct += ok
            if not ok:
                reports.append(_report(
                    f"detect-none-seed{s}", 0.0, "FAIL", f"{cfg.seed}", details=f"verdict={verdict}"
                ))
        if cfg.planted in ("hidden", "both"):
            verdict = _detect_hidden_case(cfg, root, s)
            total += 1
            ok = verdict == "HIDDEN_CURVE"
            correct += ok
            if not ok:
                reports.append(_report(
                    f"detect-hidden-seed{s}", 0.0, "FAIL", f"{cfg.seed}", details=f"verdict={verdict}"
                ))
    reports.append(_report(
        "detector-verdicts", correct, "PASS" if correct == total else "FAIL", f"{cfg.seed}",
        n1=total, details=f"{correct}/{total} correct verdicts (planted={cfg.planted})",
    ))
    return SuiteResult("detect", reports)


# ---------------------------------------------------------------------------
# transform laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformsConfig(SuiteConfig):
    n_samples: int = _at_least(4000)
    grid_points: int = _at_least(128, 4)  # columns g // 4, g // 2 and 3 g // 4 distinct and interior
    affine: tuple[float, float, float] = _domain(
        (2.0, 3.0, -1.0), lambda a: len(a) == 3 and a[0] > 0, "be (c, u, r) with c > 0"
    )


def transforms_suite(cfg: TransformsConfig) -> SuiteResult:
    root = RngSeed(cfg.seed)
    iv = Interval(0.0, 1.0)
    src_spec = avoid.AvoidSpec(iv, WeylVector((2.0, 0.0)), WeylVector((1.0, -1.0)), grid_points=cfg.grid_points)
    src, _, _, _ = avoid.sample_avoiding_values(src_spec, cfg.n_samples,
                                                root.derive("transforms/src").generator())
    cols = [cfg.grid_points // 4, cfg.grid_points // 2, 3 * cfg.grid_points // 4]
    cells = list(itertools.product(range(2), cols))
    # affine: transformed source law must match the directly sampled target law
    # on the transformed interval; grid columns correspond under the affine time map
    c, u, r = cfg.affine
    moved_iv, moved = avoid.affine_transform(iv, src, c, u, r)
    tgt_spec = avoid.AvoidSpec(
        moved_iv,
        WeylVector(tuple(c * v + r for v in src_spec.x.values)),
        WeylVector(tuple(c * v + r for v in src_spec.y.values)),
        grid_points=cfg.grid_points,
    )
    tgt, _, _, _ = avoid.sample_avoiding_values(tgt_spec, cfg.n_samples,
                                                root.derive("transforms/affine-tgt").generator())
    reports = verify.marginal_ks(moved, tgt, cells, "affine", f"{cfg.seed}")
    # flip: negate and reverse curve order; target swaps and negates boundary data
    flip_spec = avoid.AvoidSpec(
        iv,
        WeylVector(tuple(-v for v in reversed(src_spec.x.values))),
        WeylVector(tuple(-v for v in reversed(src_spec.y.values))),
        grid_points=cfg.grid_points,
    )
    flp, _, _, _ = avoid.sample_avoiding_values(flip_spec, cfg.n_samples,
                                                root.derive("transforms/flip-tgt").generator())
    reports += verify.marginal_ks(avoid.flip_transform(src), flp, cells, "flip", f"{cfg.seed}")
    return SuiteResult("transforms", reports)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SUITES = {
    "reflection": (ReflectionConfig, reflection_suite),
    "walk-exact": (WalkExactConfig, walk_exact_suite),
    "convergence": (ConvergenceConfig, convergence_suite),
    "glauber-stationarity": (StationarityConfig, glauber_stationarity_suite),
    "coupling": (CouplingConfig, coupling_suite),
    "gibbs": (GibbsConfig, gibbs_suite),
    "tails": (TailsConfig, tails_suite),
    "pw": (PwConfig, pw_suite),
    "detect": (DetectConfig, detect_suite),
    "transforms": (TransformsConfig, transforms_suite),
}


def run_suite(name: str, **overrides) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    cfg_cls, fn = SUITES[name]
    bad = set(overrides) - {f.name for f in fields(cfg_cls)}
    if bad:
        raise KeyError(f"unknown config keys for suite {name}: {sorted(bad)}")
    cfg = cfg_cls(**overrides)  # checks every field's type and domain
    try:
        return fn(cfg)
    except RejectionExhausted as exc:
        return SuiteResult(name, [_report(
            f"{name}-rejection-exhausted", 0.0, "FAIL", f"{cfg.seed}", n1=exc.attempts, details=str(exc),
        )])
