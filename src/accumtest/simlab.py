"""Ranked-hypothesis simulation protocol and Monte Carlo aggregation.

A trial builds a list of hypotheses whose ordering is informative but
noisy.  Each hypothesis gets a prior z-score (nulls centered at zero,
non-nulls at ``mu1``) and the list is sorted by that prior strength;
a fresh z-score with signal ``mu2`` then produces the two-sided
p-value actually fed to the tests.  Powerful orderings put non-nulls
early, so accumulation tests reject long prefixes.

Reproducibility rules used throughout:

* Trial ``t`` draws from a counter-based generator keyed by
  ``seed XOR mix64(t)``, so any subset of trials can be recomputed in
  any order, on any number of workers, with identical results.
* Aggregation stacks per-trial arrays in trial order and reduces with
  fixed-shape array operations, keeping results bitwise independent of
  scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .accumfn import AccumulationSpec, forward_stop, hinge_exp, seq_step
from .densities import AlternativeDensity
from .errors import ContractError, DomainError
from .power_theory import SignalCurve, validate_signal_curve
from .seqtest import (
    OrderedPValues,
    Rule,
    estimated_fdp_path,
    estimated_fdp_path_plus,
    fdp,
    power_of_cutoff,
    select_cutoff,
)

__all__ = [
    "SimConfig",
    "Method",
    "TrialFrame",
    "AggregateResult",
    "default_methods",
    "normal_cdf",
    "normal_quantile",
    "child_seed",
    "child_rng",
    "generate_ranked_trial",
    "generate_from_curve",
    "run_trial",
    "aggregate",
    "collect_trial_frames",
    "run_simulation",
    "simulate_count_ratio",
    "power_table_rows",
    "path_table_rows",
    "WORKERS_ENV_VAR",
]

WORKERS_ENV_VAR = "ACCUMTEST_WORKERS"

_DEFAULT_ALPHAS = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25)

_MASK64 = (1 << 64) - 1

STAT_KHAT, STAT_FALSE_POS, STAT_POWER, STAT_FDP = range(4)


def normal_cdf(x):
    """Standard normal distribution function, absolute error below 1e-12."""
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def normal_quantile(q):
    """Inverse of :func:`normal_cdf`; endpoints map to -inf/+inf."""
    arr = np.asarray(q, dtype=float)
    flat = np.atleast_1d(arr)
    if flat.size and (np.isnan(flat).any() or flat.min() < 0 or flat.max() > 1):
        raise DomainError("quantile levels must lie in [0, 1]")
    out = special.ndtri(arr)
    return float(out) if arr.ndim == 0 else out


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of 64-bit integers."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """Derive the key for stream ``index`` from the master seed."""
    if index < 0:
        raise DomainError(f"stream index must be nonnegative, got {index}")
    return (int(seed) & _MASK64) ^ _mix64(int(index))


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based generator for one trial or stream."""
    return np.random.Generator(np.random.Philox(key=child_seed(seed, index)))


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the ranked-trial protocol.

    ``mu1`` controls how informative the ordering is, ``mu2`` how
    strong the tested signal is.  ``seed`` is interpreted modulo 2^64.
    """

    n: int = 1000
    n_nonnull: int = 100
    mu1: float = 3.0
    mu2: float = 3.0
    alpha_grid: tuple[float, ...] = _DEFAULT_ALPHAS
    trials: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.n_nonnull < self.n:
            raise DomainError(
                f"need 0 < n_nonnull < n, got n_nonnull={self.n_nonnull}, n={self.n}"
            )
        grid = tuple(float(a) for a in self.alpha_grid)
        if not grid or any(not 0.0 < a < 1.0 for a in grid):
            raise DomainError("alpha grid values must lie in (0, 1)")
        object.__setattr__(self, "alpha_grid", grid)
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class Method:
    """One named rejection rule: an accumulation function plus a rule.

    ``c`` is the constant of the conservative rule and defaults to the
    spec's own C parameter; it is ignored under ``Rule.PLAIN``.
    """

    name: str
    spec: AccumulationSpec
    rule: Rule = Rule.PLAIN
    c: Optional[float] = None

    def path(self, pvals) -> np.ndarray:
        if self.rule is Rule.PLAIN:
            return estimated_fdp_path(pvals, self.spec)
        c = self.c if self.c is not None else self.spec.c_param
        if c is None:
            raise ContractError(f"method {self.name!r} needs a plus-rule constant")
        return estimated_fdp_path_plus(pvals, self.spec, c)


def default_methods(c: float = 2.0) -> tuple[Method, ...]:
    """The four standard methods at a common parameter C."""
    return (
        Method("ForwardStop", forward_stop()),
        Method("HingeExp", hinge_exp(c)),
        Method("SeqStep", seq_step(c)),
        Method("SeqStep+", seq_step(c), rule=Rule.PLUS, c=c),
    )


def generate_ranked_trial(config: SimConfig, trial_index: int) -> OrderedPValues:
    """One trial of the ranked protocol; fully determined by (seed, index).

    Nulls and non-nulls receive prior z-scores from Normal(0,1) and
    Normal(mu1,1); positions are sorted by decreasing |z|, ties broken
    by original index.  Fresh z-scores with shift mu2 then give
    two-sided p-values p = 2 * (1 - Phi(|z*|)).
    """
    rng = child_rng(config.seed, trial_index)
    n = config.n
    null_mask = np.ones(n, dtype=bool)
    null_mask[: config.n_nonnull] = False

    prior = rng.standard_normal(n)
    prior[~null_mask] += config.mu1
    order = np.argsort(-np.abs(prior), kind="stable")

    fresh = rng.standard_normal(n)
    fresh[~null_mask] += config.mu2
    pvals = 2.0 * special.ndtr(-np.abs(fresh))

    return OrderedPValues(pvals[order], null_mask=null_mask[order])


def generate_from_curve(
    curve: SignalCurve, n: int, density: AlternativeDensity, seed: int
) -> OrderedPValues:
    """Plant non-nulls so their running proportion tracks the curve.

    Position k is made non-null whenever round(k * f(k/n)) increments,
    which keeps the count within 1/2 of the target mass at every
    prefix.  Non-null p-values are drawn from ``density``, nulls from
    Uniform[0,1].

    Raises
    ------
    ContractError
        If the curve increases somewhere or k * f(k/n) is not
        nondecreasing, since then no 0/1 planting can track it.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    report = validate_signal_curve(curve, alpha=0.5)
    for check in report.checks:
        if check.name in ("nonincreasing", "mass_nondecreasing") and not check.passed:
            raise ContractError(f"curve cannot be planted: {check.detail}")

    k = np.arange(1, n + 1, dtype=float)
    mass = k * np.atleast_1d(curve(k / n))
    counts = np.floor(mass + 0.5).astype(int)
    nonnull = np.diff(np.concatenate([[0], counts])) > 0
    total_nonnull = int(counts[-1])

    rng = child_rng(seed, 0)
    pvals = rng.random(n)
    if total_nonnull:
        pvals[nonnull] = density.sample(rng, total_nonnull)
    return OrderedPValues(pvals, null_mask=~nonnull)


@dataclass
class TrialFrame:
    """Per-trial results: one stats row per (method, alpha).

    ``stats[m, a]`` holds (k_hat, false positives, power, FDP) for
    method m at alpha_grid[a].  Paths are attached only on request.
    """

    method_names: tuple[str, ...]
    alpha_grid: tuple[float, ...]
    stats: np.ndarray
    fdp_hat_paths: Optional[np.ndarray] = None
    fdp_true_path: Optional[np.ndarray] = None


def run_trial(
    pvals: OrderedPValues,
    methods: Sequence[Method],
    alpha_grid: Sequence[float],
    include_paths: bool = False,
) -> TrialFrame:
    """Apply every method at every level to one trial's p-values."""
    if pvals.null_mask is None:
        raise ContractError("run_trial needs ground-truth labels")
    mask = pvals.null_mask
    n = len(pvals)
    alphas = tuple(float(a) for a in alpha_grid)
    stats = np.empty((len(methods), len(alphas), 4))
    paths = np.empty((len(methods), n)) if include_paths else None
    for m, method in enumerate(methods):
        path = method.path(pvals)
        if include_paths:
            paths[m] = path
        for a, alpha in enumerate(alphas):
            k_hat = select_cutoff(path, alpha)
            false_pos = int(np.count_nonzero(mask[:k_hat]))
            stats[m, a] = (
                k_hat,
                false_pos,
                power_of_cutoff(k_hat, mask),
                fdp(k_hat, mask),
            )
    true_path = None
    if include_paths:
        true_path = np.cumsum(mask) / np.arange(1, n + 1, dtype=float)
    return TrialFrame(
        method_names=tuple(m.name for m in methods),
        alpha_grid=alphas,
        stats=stats,
        fdp_hat_paths=paths,
        fdp_true_path=true_path,
    )


@dataclass
class AggregateResult:
    """Across-trial means and standard errors, plus averaged paths."""

    method_names: tuple[str, ...]
    alpha_grid: tuple[float, ...]
    trials: int
    mean_power: np.ndarray
    se_power: np.ndarray
    mean_fdp: np.ndarray
    se_fdp: np.ndarray
    mean_fdp_hat_path: Optional[np.ndarray] = None
    mean_fdp_true_path: Optional[np.ndarray] = None


def _mean_and_se(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = stack.mean(axis=0)
    if stack.shape[0] == 1:
        return mean, np.zeros_like(mean)
    se = stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])
    return mean, se


def aggregate(frames: Sequence[TrialFrame]) -> AggregateResult:
    """Reduce per-trial frames to means and standard errors.

    All frames must come from the same method list and alpha grid;
    mixing shapes is a hard error rather than a silent broadcast.
    """
    if not frames:
        raise ContractError("aggregate needs at least one trial")
    first = frames[0]
    for frame in frames[1:]:
        if (
            frame.method_names != first.method_names
            or frame.alpha_grid != first.alpha_grid
            or frame.stats.shape != first.stats.shape
            or (frame.fdp_hat_paths is None) != (first.fdp_hat_paths is None)
        ):
            raise ContractError("trial frames disagree in shape; cannot aggregate")
    stats = np.stack([f.stats for f in frames])
    mean_power, se_power = _mean_and_se(stats[:, :, :, STAT_POWER])
    mean_fdp, se_fdp = _mean_and_se(stats[:, :, :, STAT_FDP])
    mean_hat = mean_true = None
    if first.fdp_hat_paths is not None:
        mean_hat = np.stack([f.fdp_hat_paths for f in frames]).mean(axis=0)
        mean_true = np.stack([f.fdp_true_path for f in frames]).mean(axis=0)
    return AggregateResult(
        method_names=first.method_names,
        alpha_grid=first.alpha_grid,
        trials=len(frames),
        mean_power=mean_power,
        se_power=se_power,
        mean_fdp=mean_fdp,
        se_fdp=se_fdp,
        mean_fdp_hat_path=mean_hat,
        mean_fdp_true_path=mean_true,
    )


def _trial_worker(args) -> tuple[int, TrialFrame]:
    config, methods, include_paths, index = args
    pvals = generate_ranked_trial(config, index)
    return index, run_trial(pvals, methods, config.alpha_grid, include_paths)


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def collect_trial_frames(
    config: SimConfig,
    methods: Sequence[Method],
    include_paths: bool = False,
    workers: Optional[int] = None,
) -> list[TrialFrame]:
    """Run all trials, optionally across processes, in trial order.

    The pool never exceeds the trial count or the CPU count, whatever
    ``workers`` asks for.  Results are keyed by trial index before
    assembly, so the output is identical for any worker count.
    """
    if workers is None:
        workers = default_workers()
    workers = min(workers, config.trials, os.cpu_count() or 1)
    jobs = [(config, tuple(methods), include_paths, t) for t in range(config.trials)]
    if workers <= 1:
        return [_trial_worker(job)[1] for job in jobs]
    frames: dict[int, TrialFrame] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, frame in pool.map(_trial_worker, jobs):
            frames[index] = frame
    return [frames[t] for t in range(config.trials)]


def run_simulation(
    config: SimConfig,
    methods: Optional[Sequence[Method]] = None,
    include_paths: bool = True,
    workers: Optional[int] = None,
) -> AggregateResult:
    """End-to-end protocol from trial generation through aggregation."""
    if methods is None:
        methods = default_methods()
    frames = collect_trial_frames(config, methods, include_paths, workers)
    return aggregate(frames)


def simulate_count_ratio(
    n: int,
    rho: float,
    trials: int,
    seed: int,
    n_nonnull: int = 0,
) -> np.ndarray:
    """Terminal value of the null-count over null-success ratio.

    For each replicate, ``n`` positions are split at random into nulls
    and interleaved non-nulls, and each null draws an independent
    Bernoulli(rho) success.  The recorded statistic is

        M = (1 + number of nulls) / (1 + null successes).

    Its expectation never exceeds 1/rho; this simulation backs the
    conservativeness argument for the cutoff rules.
    """
    n = int(n)
    trials = int(trials)
    n_nonnull = int(n_nonnull)
    if n < 1 or trials < 1:
        raise DomainError("n and trials must be positive")
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (0, 1), got {rho}")
    if not 0 <= n_nonnull < n:
        raise DomainError("n_nonnull must lie in [0, n)")
    rng = child_rng(seed, 0)
    n_null = n - n_nonnull
    draws = rng.random((trials, n)) < rho
    if n_nonnull:
        # Random interleaving: non-null positions are excluded from both
        # the count and the successes, so scatter a fixed null pattern.
        ranks = np.argsort(rng.random((trials, n)), axis=1)
        null_mask = ranks >= n_nonnull
    else:
        null_mask = np.ones((trials, n), dtype=bool)
    successes = np.count_nonzero(draws & null_mask, axis=1)
    return (1.0 + n_null) / (1.0 + successes)


def power_table_rows(agg: AggregateResult) -> list[tuple]:
    """Rows for the summary table: method and alpha, then the four stats."""
    rows = []
    for m, name in enumerate(agg.method_names):
        for a, alpha in enumerate(agg.alpha_grid):
            rows.append(
                (
                    name,
                    alpha,
                    float(agg.mean_power[m, a]),
                    float(agg.se_power[m, a]),
                    float(agg.mean_fdp[m, a]),
                    float(agg.se_fdp[m, a]),
                )
            )
    return rows


def path_table_rows(agg: AggregateResult) -> list[tuple]:
    """Rows for the averaged-path table: method, k, estimated, true."""
    if agg.mean_fdp_hat_path is None:
        raise ContractError("aggregate was built without paths")
    rows = []
    for m, name in enumerate(agg.method_names):
        for j in range(agg.mean_fdp_hat_path.shape[1]):
            rows.append(
                (
                    name,
                    j + 1,
                    float(agg.mean_fdp_hat_path[m, j]),
                    float(agg.mean_fdp_true_path[j]),
                )
            )
    return rows
