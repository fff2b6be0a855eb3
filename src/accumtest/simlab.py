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
* One engine scores trials in blocks of rows, each row drawn from its
  trial's own generator, in trial order.  One reducer keeps each trial's
  power and FDP, two floats per method and level, and adds its paths into
  running sums in trial order.  ``run_simulation`` reduces the engine's
  blocks as they come, so it keeps no per-trial path or frame.
  ``collect_trial_frames`` splits each block into one frame per trial,
  and ``aggregate`` feeds any iterable of frames to the reducer as
  one-row blocks.
* A row lists its hypotheses by decreasing |prior z|, ties broken by
  index.  numpy's fastest argsort, which need not be stable, ranks the
  block; distinct keys have one sorted order, so only rows that hold a
  tie are sorted again, stably.
* The engine evaluates h once per run of methods that share an
  accumulation function (SeqStep and SeqStep+), and finds each cutoff by
  a binary search in the path's running minimum from the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _tails
from .accumfn import _eval_array
from .densities import AlternativeDensity
from .errors import ContractError, DomainError, whole_number
from .seqtest import (
    Method,
    OrderedPValues,
    _fdp_path,
    check_unit_interval,
    default_methods,
    select_cutoff,
)
# Not called here; kept as module attributes that the benchmark tracer wraps.
from .seqtest import estimated_fdp_path, estimated_fdp_path_plus  # noqa: F401

# ``power_theory`` is imported by ``generate_from_curve`` alone, which
# simulate does not call.  Nothing here loads scipy: every density
# that a caller may hand to ``generate_from_curve`` samples on numpy alone.
if TYPE_CHECKING:
    from .power_theory import SignalCurve

__all__ = [
    "SimConfig",
    "Method",
    "TrialFrame",
    "AggregateResult",
    "default_methods",
    "normal_cdf",
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

# A block of trials as ``_score_rows`` returns it: stats, paths, true paths.
_Block = tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]

# Bytes one block of trials may hold.  Warm run_simulation of 1000
# trials at n = 1000 took 0.38, 0.29, 0.23, 0.23 and 0.20 s at 256 KiB,
# 512 KiB, 1, 2 and 4 MiB (medians of 7, 2 cores, numpy 2.4).  2 and
# 4 MiB ran 0-10 % faster than 1 MiB at n = 101 and 300, and 20 % at
# n = 5000, where 1 MiB holds one trial, but 2 MiB raised the command's
# peak RSS by 0.5 MB, so the budget stays at 1 MiB.
_BLOCK_BUDGET = 2**20

# Bytes one trial's ``_row_bytes(n, 0, 0)`` arrays may take, as
# ``dosage._TABLE_BUDGET`` caps a design's partition table: n up to
# 2 097 152.  A larger n is refused before anything is allocated,
# instead of failing on an allocation far beyond the host's memory.
# ``simulate_count_ratio`` holds all its (trials x n) cells at once, at
# most ``_RATIO_CELL_BYTES`` each (a tracemalloc peak of 17: a float64
# draw, an intp rank and boolean masks), under the same budget.
_TRIAL_BUDGET = 128 * 2**20
_RATIO_CELL_BYTES = 24

# Bounds on what one block holds at once besides its paths: (rows x n)
# float64 arrays, and bytes per row and level besides the stats.
# Tracemalloc peaks were 5.7-6.7 arrays at n = 200 to 5000 and 9 levels,
# and up to 47 bytes at 120 and 1000 levels.  ``_row_bytes`` adds n bytes
# of slack per level: without them blocks at n = 1000 hold 10 trials
# instead of 9, which raised the command's peak RSS by 0.3 MB and ran no
# faster.
_BLOCK_ARRAYS = 8
_LEVEL_BYTES = 192


def normal_cdf(x):
    """Standard normal distribution function, relative error below 1e-14."""
    out = _tails.ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


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
    strong the tested signal is.  Neither may be NaN; +-inf give the
    limit of an infinitely strong signal, since both scores enter through
    |z|.  ``n``, ``n_nonnull``, ``trials`` and ``seed`` must be whole
    numbers, ``n`` and ``trials`` below 2^63, the largest count numpy
    can index; ``seed`` is interpreted modulo 2^64.  An ``n`` whose one
    trial would take more than ``_TRIAL_BUDGET`` bytes raises
    ``ContractError``.
    """

    n: int = 1000
    n_nonnull: int = 100
    mu1: float = 3.0
    mu2: float = 3.0
    alpha_grid: tuple[float, ...] = _DEFAULT_ALPHAS
    trials: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "n_nonnull", "trials", "seed"):
            value = getattr(self, name)
            number = whole_number(name, value, DomainError)
            if name in ("n", "trials") and number >= 2**63:
                raise DomainError(f"{name} must be below 2^63, got {value!r}")
            object.__setattr__(self, name, number)
        _require_trial_size(self.n)
        if not 0 < self.n_nonnull < self.n:
            raise DomainError(
                f"need 0 < n_nonnull < n, got n_nonnull={self.n_nonnull}, n={self.n}"
            )
        object.__setattr__(self, "alpha_grid", _alpha_grid(self.alpha_grid))
        for name in ("mu1", "mu2"):
            if math.isnan(getattr(self, name)):
                raise DomainError(f"{name} must be a number, got nan")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")


def _require_trial_size(n: int) -> None:
    """Refuse an n whose one trial would take more than ``_TRIAL_BUDGET`` bytes."""
    needed = _row_bytes(n, 0, 0)
    if needed > _TRIAL_BUDGET:
        raise ContractError(
            f"n = {n} needs {needed / 2**20:.0f} MiB per trial, over the "
            f"{_TRIAL_BUDGET // 2**20} MiB budget; the largest n is "
            f"{_TRIAL_BUDGET // _row_bytes(1, 0, 0)}"
        )


def _alpha_grid(values: Iterable[float]) -> tuple[float, ...]:
    """``values`` as a tuple of floats, refused if empty or outside (0, 1)."""
    grid = tuple(float(a) for a in values)
    if not grid or any(not 0.0 < a < 1.0 for a in grid):
        raise DomainError("alpha grid values must lie in (0, 1)")
    return grid


def _method_names(methods: Sequence[Method]) -> tuple[str, ...]:
    """The methods' names, refused if there are none."""
    if not methods:
        raise ContractError("a simulation needs at least one method")
    return tuple(m.name for m in methods)


def _row_bytes(n: int, n_methods: int, n_levels: int) -> int:
    """Bound on the bytes one trial adds to a block.

    That is ``_BLOCK_ARRAYS`` float64 arrays of length n plus one path
    per method, and per level n bytes of slack, 32 bytes of stats per
    method and ``_LEVEL_BYTES`` of temporaries.
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
    n, n_nonnull = config.n, config.n_nonnull
    rows = stop - first
    prior = np.empty((rows, n))
    fresh = np.empty((rows, n))
    for row, trial in enumerate(range(first, stop)):
        rng = child_rng(config.seed, trial)
        rng.standard_normal(out=prior[row])
        rng.standard_normal(out=fresh[row])
    # Positions below n_nonnull are the non-nulls.
    prior[:, :n_nonnull] += config.mu1
    keys = np.abs(prior, out=prior)
    np.negative(keys, out=keys)
    # Distinct keys have one sorted order, so the fast unstable sort gives
    # the stable one except in rows with a tie, which are sorted again.
    # ``order`` holds flat indices into the block from here on.
    order = np.argsort(keys, axis=1)
    offsets = np.arange(0, rows * n, n).reshape(-1, 1)
    order += offsets
    ranked = keys.take(order)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    del ranked
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable") + offsets[tied]
    del prior, keys
    fresh[:, :n_nonnull] += config.mu2
    np.abs(fresh, out=fresh)
    np.negative(fresh, out=fresh)
    tails = _tails.ndtr(fresh)
    tails *= 2.0
    pvals = tails.take(order)
    check_unit_interval(pvals)
    return pvals, order >= offsets + n_nonnull


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
        nondecreasing, since then no 0/1 planting can track it, or if n
        is above the largest n that ``SimConfig`` accepts.
    """
    from .power_theory import _require_shape

    n = int(n)
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    _require_trial_size(n)
    _require_shape(curve, alpha=0.5, need_rate=False)

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
) -> _Block:
    """Score a block of trials, one per row of ``pvals`` and ``null``.

    ``pvals`` must already lie in [0, 1], as ``_ranked_block`` and
    ``OrderedPValues`` check.  Returns the (rows, methods, levels, 4)
    stats and, when ``include_paths``, the (rows, methods, n) estimated
    paths and the (rows, n) true FDP paths.
    """
    rows, n = pvals.shape
    # nulls_before[r, k] counts the nulls among row r's first k positions.
    nulls_before = np.zeros((rows, n + 1), dtype=np.intp)
    np.cumsum(null, axis=1, out=nulls_before[:, 1:])
    nonnull = n - nulls_before[:, -1:]
    if not nonnull.all():
        raise ContractError("power is undefined without any non-null hypothesis")
    offsets = np.arange(0, rows * (n + 1), n + 1).reshape(-1, 1)
    stats = np.empty((rows, len(methods), levels.size, 4))
    paths = np.empty((rows, len(methods), n)) if include_paths else None
    path = None if include_paths else np.empty((rows, n))
    spec = sums = None
    for m, method in enumerate(methods):
        # Consecutive methods with one spec share its running sum of h,
        # and the last spec's sum is dropped before the next one's is made.
        if sums is None or method.spec != spec:
            spec, sums = method.spec, None
            sums = _eval_array(spec, pvals)
            np.cumsum(sums, axis=1, out=sums)
        if include_paths:
            path = paths[:, m]
        _fdp_path(sums, method.plus_constant, out=path)
        k_hat = select_cutoff(path, levels)
        false_pos = nulls_before.take(k_hat + offsets)
        stats[:, m, :, STAT_KHAT] = k_hat
        stats[:, m, :, STAT_FALSE_POS] = false_pos
        stats[:, m, :, STAT_POWER] = (k_hat - false_pos) / nonnull
        stats[:, m, :, STAT_FDP] = false_pos / np.maximum(k_hat, 1)
    true_paths = None
    if include_paths:
        true_paths = nulls_before[:, 1:] / np.arange(1, n + 1, dtype=float)
    return stats, paths, true_paths


def _frames(
    names: tuple[str, ...], alpha_grid: tuple[float, ...], block: _Block
) -> list[TrialFrame]:
    """One frame per trial of a ``_score_rows`` block, viewing its rows."""
    arrays = [a for a in block if a is not None]
    return [TrialFrame(names, alpha_grid, *row) for row in zip(*arrays)]


def run_trial(
    pvals: OrderedPValues,
    methods: Sequence[Method],
    alpha_grid: Sequence[float],
    include_paths: bool = False,
) -> TrialFrame:
    """Apply every method at every level to one trial's p-values.

    Power is the share of non-nulls within the cutoff and FDP the share
    of nulls among the rejections (0 when nothing is rejected).  An empty
    method list or alpha grid is refused, as ``run_simulation`` and
    ``SimConfig`` refuse them.
    """
    if pvals.null_mask is None:
        raise ContractError("run_trial needs ground-truth labels")
    names = _method_names(methods)
    alphas = _alpha_grid(alpha_grid)
    block = _score_rows(
        pvals.values[np.newaxis], pvals.null_mask[np.newaxis], methods,
        np.array(alphas), include_paths,
    )
    return _frames(names, alphas, block)[0]


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


def _reduce(
    names: tuple[str, ...], alpha_grid: tuple[float, ...], blocks: Iterable[_Block]
) -> AggregateResult:
    """Means and standard errors over blocks of trials, in trial order.

    Paths are None in every block or in none.  Power and FDP are kept in
    one buffer that doubles from one row until each block fits, and path
    rows are added into running sums one trial at a time.
    """
    kept = np.empty((1, len(names), len(alpha_grid), 2))
    hat_sum = true_sum = None
    trials = 0
    for stats, paths, true_paths in blocks:
        stop = trials + len(stats)
        if stop > len(kept):
            grown = np.empty((1 << (stop - 1).bit_length(), *kept.shape[1:]))
            grown[:trials] = kept[:trials]
            kept = grown
        # STAT_POWER and STAT_FDP are adjacent, so this copies both at once
        # and holds no reference to the block.
        kept[trials:stop] = stats[..., STAT_POWER:STAT_FDP + 1]
        trials = stop
        if paths is not None:
            if hat_sum is None:
                hat_sum, true_sum = np.zeros(paths.shape[1:]), np.zeros(true_paths.shape[1:])
            for hat, true in zip(paths, true_paths):
                hat_sum += hat
                true_sum += true
    kept = kept[:trials]
    paths = (None, None) if hat_sum is None else (hat_sum / trials, true_sum / trials)
    return AggregateResult(
        names, alpha_grid, trials,
        *_mean_and_se(kept[..., 0]), *_mean_and_se(kept[..., 1]), *paths,
    )


def _frame_key(frame: TrialFrame) -> tuple:
    """What frames must share to be aggregated together: names, grid, shapes."""
    arrays = (frame.stats, frame.fdp_hat_paths, frame.fdp_true_path)
    return (frame.method_names, frame.alpha_grid, *map(np.shape, arrays))


def aggregate(frames: Iterable[TrialFrame]) -> AggregateResult:
    """Reduce per-trial frames to means and standard errors in one pass.

    ``frames`` may be any iterable, a generator included.  Each frame goes
    to ``run_simulation``'s reducer as a block of one trial, so the result
    does not depend on how the frames were produced.  Of its stats only
    power and FDP are kept (576 bytes per trial for four methods at nine
    levels), and its paths are added into running sums in order.  All
    frames must come from the same nonempty method list and alpha grid,
    with stats of shape (methods, levels, 4) and either no paths or paths
    of shapes (methods, n) and (n,); mixing shapes is a hard error rather
    than a silent broadcast.
    """
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise ContractError("aggregate needs at least one trial")
    key = _frame_key(first)
    names, grid, shape, hat, true = key
    cells = (len(names), len(grid))
    if 0 in cells:
        raise ContractError("trial frames need at least one method and one level")
    if shape != (*cells, 4):
        raise ContractError(
            f"trial stats have shape {shape}, need {(*cells, 4)} "
            "for the frame's methods and alpha grid"
        )
    has_paths = first.fdp_hat_paths is not None or first.fdp_true_path is not None
    if has_paths and (len(true) != 1 or hat != (cells[0], *true)):
        raise ContractError(
            f"trial paths have shapes {hat} and {true}, need ({cells[0]}, n) "
            "and (n,) for the frame's methods"
        )

    def blocks() -> Iterator[_Block]:
        for frame in itertools.chain([first], frames):
            if _frame_key(frame) != key:
                raise ContractError("trial frames disagree in shape; cannot aggregate")
            arrays = (frame.stats, frame.fdp_hat_paths, frame.fdp_true_path)
            yield tuple(None if a is None else np.asarray(a)[np.newaxis] for a in arrays)

    return _reduce(names, grid, blocks())


def _blocks(
    config: SimConfig, methods: Sequence[Method], include_paths: bool
) -> Iterator[_Block]:
    """The engine: ``_score_rows`` over blocks of trials, in trial order."""
    levels = np.array(config.alpha_grid)
    step = _block_rows(config.n, len(methods), levels.size)
    for first in range(0, config.trials, step):
        pvals, null = _ranked_block(config, first, min(first + step, config.trials))
        yield _score_rows(pvals, null, methods, levels, include_paths)


def collect_trial_frames(
    config: SimConfig,
    methods: Sequence[Method],
    include_paths: bool = False,
    workers: Optional[int] = None,
) -> list[TrialFrame]:
    """Run all trials in blocks of rows, split into one frame per trial.

    Frames come in trial order, and each equals ``run_trial`` on that
    trial drawn alone.  ``workers`` is accepted for compatibility and
    ignored: trials always run in this process.
    """
    names = _method_names(methods)
    return [
        frame
        for block in _blocks(config, methods, include_paths)
        for frame in _frames(names, config.alpha_grid, block)
    ]


def run_simulation(
    config: SimConfig,
    methods: Optional[Sequence[Method]] = None,
    include_paths: bool = True,
) -> AggregateResult:
    """End-to-end protocol from trial generation through aggregation.

    The engine's blocks go to the reducer as they are scored, so no
    per-trial frame is built and memory does not grow with trials x n.
    The result equals ``aggregate(collect_trial_frames(...))`` bit for bit.
    """
    if methods is None:
        methods = default_methods()
    names = _method_names(methods)
    return _reduce(names, config.alpha_grid, _blocks(config, methods, include_paths))


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
    conservativeness argument for the cutoff rules.  A trials x n above
    ``_TRIAL_BUDGET // _RATIO_CELL_BYTES`` (5 592 405) raises
    ``ContractError`` before anything is drawn.
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
    cells = trials * n
    if cells * _RATIO_CELL_BYTES > _TRIAL_BUDGET:
        raise ContractError(
            f"trials x n = {cells} needs {cells * _RATIO_CELL_BYTES / 2**20:.0f} MiB, "
            f"over the {_TRIAL_BUDGET // 2**20} MiB budget; the largest trials x n is "
            f"{_TRIAL_BUDGET // _RATIO_CELL_BYTES}"
        )
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
