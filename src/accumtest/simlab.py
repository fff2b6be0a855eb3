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
  any order with identical results.
* Trials run in blocks of rows, each drawn from its own generator.
  Per-trial stats are stacked in trial order and reduced with
  fixed-shape array operations; paths are summed in trial order,
  block by block, so no per-trial path is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .densities import AlternativeDensity
from .errors import ContractError, DomainError
from .power_theory import SignalCurve, validate_signal_curve
from .seqtest import (
    Method,
    OrderedPValues,
    check_unit_interval,
    default_methods,
    select_cutoff,
)
# Not called here; kept as module attributes that the benchmark tracer wraps.
from .seqtest import estimated_fdp_path, estimated_fdp_path_plus  # noqa: F401

# scipy is imported inside functions: loading it here would slow every CLI start.

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
    "power_table_columns",
    "path_table_columns",
]

_DEFAULT_ALPHAS = (0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225, 0.25)

_MASK64 = (1 << 64) - 1

STAT_KHAT, STAT_FALSE_POS, STAT_POWER, STAT_FDP = range(4)

# Bytes one block of trials may hold.  At n = 1000, 1 to 4 MiB ran
# within noise of each other and 256 KiB about 1.5x slower.
_BLOCK_BUDGET = 2**20

# Bounds on what one block holds at once besides its paths: (rows x n)
# float64 arrays, and bytes per row and level besides the cutoff scan and
# the stats.  Tracemalloc peaks were 5.7-7.5 arrays at n = 200 to 5000
# and 9 levels, and up to 140 bytes at 120 and 1000 levels.
_BLOCK_ARRAYS = 8
_LEVEL_BYTES = 192


def normal_cdf(x):
    """Standard normal distribution function, absolute error below 1e-12."""
    from scipy import special

    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def normal_quantile(q):
    """Inverse of :func:`normal_cdf`; endpoints map to -inf/+inf."""
    from scipy import special

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


def _row_bytes(n: int, n_methods: int, n_levels: int) -> int:
    """Bound on the bytes one trial adds to a block.

    That is ``_BLOCK_ARRAYS`` float64 arrays of length n plus one path
    per method, and per level the cutoff scan's n bytes, 32 bytes of
    stats per method and ``_LEVEL_BYTES`` of temporaries.
    """
    per_level = n + 32 * n_methods + _LEVEL_BYTES
    return 8 * n * (_BLOCK_ARRAYS + n_methods) + n_levels * per_level


def _block_rows(n: int, n_methods: int, n_levels: int) -> int:
    """Trials per block: the most that fit in ``_BLOCK_BUDGET``, at least 1."""
    return max(1, _BLOCK_BUDGET // _row_bytes(n, n_methods, n_levels))


def _ranked_block(
    config: SimConfig, first: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trials ``first`` to ``stop - 1`` as rows: ordered p-values and null labels.

    Each row draws from its trial's own generator, so it equals that
    trial drawn alone.
    """
    from scipy import special

    n, n_nonnull = config.n, config.n_nonnull
    prior = np.empty((stop - first, n))
    fresh = np.empty((stop - first, n))
    for row, trial in enumerate(range(first, stop)):
        rng = child_rng(config.seed, trial)
        rng.standard_normal(out=prior[row])
        rng.standard_normal(out=fresh[row])
    # Positions below n_nonnull are the non-nulls.
    prior[:, :n_nonnull] += config.mu1
    order = np.argsort(-np.abs(prior), axis=1, kind="stable")
    fresh[:, :n_nonnull] += config.mu2
    pvals = np.take_along_axis(2.0 * special.ndtr(-np.abs(fresh)), order, axis=1)
    check_unit_interval(pvals)
    return pvals, order >= n_nonnull


def generate_ranked_trial(config: SimConfig, trial_index: int) -> OrderedPValues:
    """One trial of the ranked protocol; fully determined by (seed, index).

    Nulls and non-nulls receive prior z-scores from Normal(0,1) and
    Normal(mu1,1); positions are sorted by decreasing |z|, ties broken
    by original index.  Fresh z-scores with shift mu2 then give
    two-sided p-values p = 2 * (1 - Phi(|z*|)).
    """
    pvals, null = _ranked_block(config, trial_index, trial_index + 1)
    return OrderedPValues(pvals[0], null_mask=null[0])


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


def _score_rows(
    pvals: np.ndarray,
    null: np.ndarray,
    methods: Sequence[Method],
    levels: np.ndarray,
    include_paths: bool,
) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Score a block of trials, one per row of ``pvals`` and ``null``.

    Returns the (rows, methods, levels, 4) stats and, when
    ``include_paths``, the (rows, methods, n) estimated paths and the
    (rows, n) true FDP paths.
    """
    rows, n = pvals.shape
    # nulls_before[r, k] counts the nulls among row r's first k positions.
    nulls_before = np.zeros((rows, n + 1), dtype=np.intp)
    np.cumsum(null, axis=1, out=nulls_before[:, 1:])
    nonnull = n - nulls_before[:, -1:]
    if not nonnull.all():
        raise ContractError("power is undefined without any non-null hypothesis")
    stats = np.empty((rows, len(methods), levels.size, 4))
    paths = np.empty((rows, len(methods), n)) if include_paths else None
    for m, method in enumerate(methods):
        path = method.path(pvals)
        if include_paths:
            paths[:, m] = path
        k_hat = select_cutoff(path, levels)
        false_pos = np.take_along_axis(nulls_before, k_hat, axis=1)
        stats[:, m, :, STAT_KHAT] = k_hat
        stats[:, m, :, STAT_FALSE_POS] = false_pos
        stats[:, m, :, STAT_POWER] = (k_hat - false_pos) / nonnull
        stats[:, m, :, STAT_FDP] = false_pos / np.maximum(k_hat, 1)
    true_paths = None
    if include_paths:
        true_paths = nulls_before[:, 1:] / np.arange(1, n + 1, dtype=float)
    return stats, paths, true_paths


def run_trial(
    pvals: OrderedPValues,
    methods: Sequence[Method],
    alpha_grid: Sequence[float],
    include_paths: bool = False,
) -> TrialFrame:
    """Apply every method at every level to one trial's p-values.

    Power is the share of non-nulls within the cutoff and FDP the share
    of nulls among the rejections (0 when nothing is rejected).
    """
    if pvals.null_mask is None:
        raise ContractError("run_trial needs ground-truth labels")
    alphas = tuple(float(a) for a in alpha_grid)
    stats, paths, true_paths = _score_rows(
        pvals.values[np.newaxis], pvals.null_mask[np.newaxis], methods,
        np.array(alphas), include_paths,
    )
    return TrialFrame(
        method_names=tuple(m.name for m in methods),
        alpha_grid=alphas,
        stats=stats[0],
        fdp_hat_paths=None if paths is None else paths[0],
        fdp_true_path=None if true_paths is None else true_paths[0],
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


def _add_rows(total: np.ndarray, rows) -> None:
    """Add ``rows`` into ``total`` one at a time, in trial order.

    From a zero ``total`` this adds in the order numpy's sum over axis 0
    does, so it equals ``np.stack(rows).sum(axis=0)`` bit for bit, and a
    path sum does not depend on how trials are blocked.
    """
    for row in rows:
        total += row


def _reduce(
    method_names: tuple[str, ...],
    alpha_grid: tuple[float, ...],
    stats: np.ndarray,
    hat_sum: Optional[np.ndarray],
    true_sum: Optional[np.ndarray],
) -> AggregateResult:
    """Means and standard errors of stacked stats; path sums become means."""
    trials = stats.shape[0]
    mean_power, se_power = _mean_and_se(stats[:, :, :, STAT_POWER])
    mean_fdp, se_fdp = _mean_and_se(stats[:, :, :, STAT_FDP])
    return AggregateResult(
        method_names=method_names,
        alpha_grid=alpha_grid,
        trials=trials,
        mean_power=mean_power,
        se_power=se_power,
        mean_fdp=mean_fdp,
        se_fdp=se_fdp,
        mean_fdp_hat_path=None if hat_sum is None else hat_sum / trials,
        mean_fdp_true_path=None if true_sum is None else true_sum / trials,
    )


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
            or np.shape(frame.fdp_hat_paths) != np.shape(first.fdp_hat_paths)
            or np.shape(frame.fdp_true_path) != np.shape(first.fdp_true_path)
        ):
            raise ContractError("trial frames disagree in shape; cannot aggregate")
    hat_sum = true_sum = None
    if first.fdp_hat_paths is not None:
        hat_sum = np.zeros(first.fdp_hat_paths.shape)
        true_sum = np.zeros(first.fdp_true_path.shape)
        _add_rows(hat_sum, (f.fdp_hat_paths for f in frames))
        _add_rows(true_sum, (f.fdp_true_path for f in frames))
    stats = np.stack([f.stats for f in frames])
    return _reduce(first.method_names, first.alpha_grid, stats, hat_sum, true_sum)


def collect_trial_frames(
    config: SimConfig,
    methods: Sequence[Method],
    include_paths: bool = False,
    workers: Optional[int] = None,
) -> list[TrialFrame]:
    """Run all trials serially, in trial order, one frame per trial.

    ``workers`` is accepted for compatibility and ignored: trials always
    run in this process.
    """
    return [
        run_trial(generate_ranked_trial(config, t), methods, config.alpha_grid, include_paths)
        for t in range(config.trials)
    ]


def run_simulation(
    config: SimConfig,
    methods: Optional[Sequence[Method]] = None,
    include_paths: bool = True,
) -> AggregateResult:
    """End-to-end protocol from trial generation through aggregation.

    Equal, bit for bit, to ``aggregate(collect_trial_frames(...))``, but
    trials run in blocks of rows and the paths are summed as they come,
    so memory does not grow with trials x n.
    """
    if methods is None:
        methods = default_methods()
    levels = np.array(config.alpha_grid)
    stats = np.empty((config.trials, len(methods), levels.size, 4))
    hat_sum = true_sum = None
    if include_paths:
        hat_sum = np.zeros((len(methods), config.n))
        true_sum = np.zeros(config.n)
    step = _block_rows(config.n, len(methods), levels.size)
    for first in range(0, config.trials, step):
        stop = min(first + step, config.trials)
        pvals, null = _ranked_block(config, first, stop)
        stats[first:stop], paths, true_paths = _score_rows(
            pvals, null, methods, levels, include_paths
        )
        if include_paths:
            _add_rows(hat_sum, paths)
            _add_rows(true_sum, true_paths)
    return _reduce(
        tuple(m.name for m in methods), config.alpha_grid, stats, hat_sum, true_sum
    )


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


def power_table_columns(agg: AggregateResult) -> list[np.ndarray]:
    """Summary-table columns: method, alpha, then the four stats, method-major."""
    n_methods, n_alphas = len(agg.method_names), len(agg.alpha_grid)
    return [
        np.repeat(np.array(agg.method_names, dtype=str), n_alphas),
        np.tile(np.array(agg.alpha_grid, dtype=float), n_methods),
        agg.mean_power.ravel(),
        agg.se_power.ravel(),
        agg.mean_fdp.ravel(),
        agg.se_fdp.ravel(),
    ]


def path_table_columns(agg: AggregateResult) -> list[np.ndarray]:
    """Averaged-path table columns: method, k, estimated, true, method-major."""
    if agg.mean_fdp_hat_path is None:
        raise ContractError("aggregate was built without paths")
    n_methods, n_k = agg.mean_fdp_hat_path.shape
    return [
        np.repeat(np.array(agg.method_names, dtype=str), n_k),
        np.tile(np.arange(1, n_k + 1), n_methods),
        agg.mean_fdp_hat_path.ravel(),
        np.tile(agg.mean_fdp_true_path, n_methods),
    ]
