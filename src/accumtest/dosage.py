"""Dose-response screening pipeline with sign-directed permutation tests.

The pipeline turns a gene expression matrix with a control arm and two
dose arms (low and high) into an ordered multiple-testing problem:

1. Each gene gets a two-sided Welch p-value comparing the high-dose arm
   against everything else, plus the sign of that effect.
2. Genes are sorted by this high-dose evidence (ties keep input order).
3. Each gene's low-dose effect is scored by a one-sided Welch p-value
   in the direction the high-dose arm suggested, then calibrated by
   enumerating every way to relabel the control and low-dose columns.
4. Accumulation tests run down the ordered calibrated p-values, while
   Benjamini-Hochberg style baselines see the unordered two-sided ones.

Because the high-dose arm is disjoint from the columns being permuted,
steps 1 and 2 are invariant under any relabeling of control and
low-dose columns, which is what makes the ordering legitimate.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .baselines import bh_select, storey_select
from .errors import ContractError, DomainError, ValidationError
from .seqtest import (
    Method,
    OrderedPValues,
    default_methods,
    select_cutoff,
    shift_discrete_pvalues,
)

# scipy is imported inside functions: loading it here would slow every CLI start.

__all__ = [
    "Group",
    "Sign",
    "ExpressionMatrix",
    "GeneRecord",
    "HighDoseRank",
    "PipelineResult",
    "welch_p_two_sided",
    "welch_p_one_sided",
    "permutation_pvalue",
    "high_dose_ordering",
    "run_pipeline",
    "read_expression_csv",
    "MAX_PARTITIONS",
]

MAX_PARTITIONS = 10**6

_TABLE_BUDGET = 128 * 2**20

_BATCH_BUDGET = 16 * 2**20

# Bound on the (rows x P) float64 arrays one _permutation_rows pass holds
# at once; tracemalloc peaks were 6-7.3 on grid rows and 10.1-10.7 on
# off-grid rows.
_BATCH_ARRAYS = 12

_GRID_DECIMALS = 9

# Half-width of the band around the true labeling's tail inside which
# ``_screened_tails`` evaluates the t-CDF, relative to that tail.  It
# absorbs the t-CDF's wobble in df (below 1e-10 relative beside integer
# df); the absolute 2^-51 added to it makes fl(1 - tail) keep the order
# of tail outside the band.
_TAIL_SLACK = 2.0**-20
_ABS_SLACK = 2.0**-51
# Fourfold steps that move an inverse-CDF threshold outward until a
# forward call confirms it; after these the threshold is dropped.
_WIDEN_STEPS = 40


class Group(Enum):
    """Treatment arm of one sample column."""

    CONTROL = "control"
    LOW = "low"
    HIGH = "high"


class Sign(Enum):
    """Direction of an estimated effect."""

    PLUS = "plus"
    MINUS = "minus"


def _as_sign(sign: Union[Sign, str]) -> Sign:
    return sign if isinstance(sign, Sign) else Sign(str(sign).lower())


@dataclass(frozen=True)
class ExpressionMatrix:
    """Log-expression values, one row per gene, one column per sample."""

    gene_ids: tuple[str, ...]
    values: np.ndarray
    groups: tuple[Group, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError("expression values must form a 2-d matrix")
        if len(self.gene_ids) != values.shape[0]:
            raise ValidationError(
                f"{len(self.gene_ids)} gene ids for {values.shape[0]} rows"
            )
        if len(self.groups) != values.shape[1]:
            raise ValidationError(
                f"{len(self.groups)} group labels for {values.shape[1]} columns"
            )
        if values.size and not np.isfinite(values).all():
            raise ValidationError("expression values must be finite")
        for group in Group:
            if group not in self.groups:
                raise ValidationError(f"no columns labeled {group.value}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gene_ids", tuple(str(g) for g in self.gene_ids))
        object.__setattr__(self, "groups", tuple(self.groups))

    def columns(self, *wanted: Group) -> np.ndarray:
        """Submatrix of the sample columns belonging to the given arms."""
        idx = [j for j, g in enumerate(self.groups) if g in wanted]
        return self.values[:, idx]

    def group_size(self, group: Group) -> int:
        return sum(1 for g in self.groups if g is group)

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)


@dataclass(frozen=True)
class HighDoseRank:
    """One gene's position in the high-dose ordering."""

    original_index: int
    p_high: float
    sign: Sign


@dataclass(frozen=True)
class GeneRecord:
    """Fully scored gene: ordering evidence plus calibrated p-values."""

    p_high: float
    sign: Sign
    p_init: float
    p_final: float
    original_index: int


def _check_sample(name: str, values, minimum: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < minimum:
        raise ContractError(
            f"sample {name!r} too small: need at least {minimum} values, got {arr.size}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"sample {name!r} contains non-finite values")
    return arr


def _exact_units(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each row so that its Welch sums are exact, or nearly so.

    Returns (h, r) with ``values`` = h + r up to a per-row shift and
    scale, h integer-valued with m^2 * max(h)^2 < 2^53 (m columns), so
    that sums of h and h*h over any columns are exact.  A row on a
    decimal grid, where rint(x * 10^d) / 10^d == x for every value and
    the least such d <= ``_GRID_DECIMALS``, becomes its integer grid
    units minus their minimum, with r = 0, whenever those units satisfy
    the bound; ties between relabelings of such a row are then exact.
    Any other row is shifted by its minimum and scaled by a power of two
    to at most 2^bits; h is the rounded value and r in [-1/2, 1/2] the
    rest.  Each row is handled on its own values only.
    """
    m = values.shape[1]
    bits = (53 - 2 * m.bit_length()) // 2
    shifted = values - values.min(axis=1, keepdims=True)
    exponent = np.frexp(shifted.max(axis=1, keepdims=True))[1]
    scaled = np.ldexp(shifted, bits - exponent)
    h = np.rint(scaled)
    r = scaled - h
    pending = np.ones(values.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for decimals in range(_GRID_DECIMALS + 1):
            scale = 10.0**decimals
            units = np.rint(values * scale)
            on_grid = pending & (units / scale == values).all(axis=1)
            units -= units.min(axis=1, keepdims=True)
            exact = on_grid & (m * m * units.max(axis=1) ** 2 < 2.0**53)
            h[exact] = units[exact]
            r[exact] = 0.0
            pending &= ~on_grid
            if not pending.any():
                break
    return h, r


def _group_sums(x: np.ndarray, indicator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x @ indicator and x @ (1 - indicator), adding columns in index order.

    Every element goes through the same additions whatever the number
    of rows, which a BLAS kernel does not promise for inexact values.
    """
    inside = x[:, :1] * indicator[0]
    outside = x[:, :1] - inside
    term = np.empty_like(inside)
    for k in range(1, x.shape[1]):
        np.multiply(x[:, k : k + 1], indicator[k], out=term)
        inside += term
        np.subtract(x[:, k : k + 1], term, out=term)
        outside += term
    return inside, outside


def _welch_tails(
    values: np.ndarray, m_c: int, m_l: int, indicator: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Welch test of every row under every relabeling, from group sums.

    ``values`` has one row per gene and m = m_c + m_l columns; column j
    of the 0/1 ``indicator`` (m x k) marks the pseudo-control columns of
    relabeling j and the rest are pseudo-low.  Relabeling j's statistic
    depends only on the pseudo-control sums S = z @ I and Q = (z*z) @ I
    (the pseudo-low sums are the row totals minus these), through the
    shift-invariant D = m_c S_low - m_l S_control and m Q - S^2 per
    group.  On the exact units of ``_exact_units`` these come from one
    matmul and are exact integers.  The remainder terms of off-grid
    rows are summed over each group's own columns in index order, so
    swapping the groups negates d and keeps the tail bit for bit.
    Groups of size one have zero variance.

    Returns (d, x, df, degenerate), each of shape (rows, k): d has the
    sign of mean(low) - mean(control), x = -|t| and df are the arguments
    of the tail P(T_df <= x), and degenerate marks relabelings where both
    spread terms vanish (their x and df are not used).
    """
    h, r = _exact_units(values)
    g = h.shape[0]
    sums = np.vstack([h, h * h]) @ indicator
    s_c, a_c = sums[:g], sums[g:]
    s_l = h.sum(axis=1, keepdims=True) - s_c
    a_l = (h * h).sum(axis=1, keepdims=True) - a_c
    d = m_c * s_l
    d -= m_l * s_c
    # m Q - S^2 per group, in place of Q.
    a_c *= m_c
    a_c -= s_c * s_c
    a_l *= m_l
    a_l -= s_l * s_l
    if r.any():
        # With S = S_h + S_r and (h + r)^2 = h^2 + w, each group's
        # m Q - S^2 gains m W - (2 S_h + S_r) S_r.
        rs_c, rs_l = _group_sums(r, indicator)
        d += m_c * rs_l - m_l * rs_c
        for s_x, rs_x, a_x in ((s_c, rs_c, a_c), (s_l, rs_l, a_l)):
            s_x *= 2.0
            s_x += rs_x
            s_x *= rs_x
            a_x -= s_x
        del rs_c, rs_l
        w = r * (2.0 * h + r)
        ws_c, ws_l = _group_sums(w, indicator)
        for n, ws_x, a_x in ((m_c, ws_c, a_c), (m_l, ws_l, a_l)):
            ws_x *= n
            a_x += ws_x
            np.maximum(a_x, 0.0, out=a_x)
        del ws_c, ws_l
    del sums, s_c, s_l
    spreads = ((a_l, m_l), (a_c, m_c))
    se2 = np.zeros_like(d)
    for a, n in spreads:
        if n > 1:
            a /= n * n * (n - 1)
            se2 += a
    # Welch df = 1 / sum((a_i / se2)^2 / (n_i - 1)).  Scaling each spread
    # term by se2 before squaring keeps the squares from underflowing
    # when the spread is tiny next to the values.  A degenerate
    # relabeling gets 0/0, so a NaN df, as do all when no group has two
    # members.
    df = np.zeros_like(d) if max(m_c, m_l) > 1 else np.full_like(d, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, n in spreads:
            if n > 1:
                a /= se2
                a *= a
                a /= n - 1
                df += a
        del spreads, a_c, a_l, a
        np.divide(1.0, df, out=df)
        degenerate = se2 == 0.0
        t = np.sqrt(se2)
        t *= m_c * m_l
        np.divide(d, t, out=t)
        np.abs(t, out=t)
        np.negative(t, out=t)
    return d, t, df, degenerate


def _one_sided(
    signed: np.ndarray, tail: np.ndarray, degenerate: np.ndarray
) -> np.ndarray:
    """One-sided p: the tail where the directed difference is positive,
    else 1 - tail; without spread 0, 1/2 or 1 as it is >, = or < 0."""
    one = np.where(signed > 0.0, tail, 1.0 - tail)
    if degenerate.any():
        signed = signed[degenerate]
        one[degenerate] = np.where(signed > 0.0, 0.0, np.where(signed < 0.0, 1.0, 0.5))
    return one


def _two_sided(d: np.ndarray, tail: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Two-sided p: min(2 tail, 1); without spread 1 for equal means, else 0."""
    two = np.minimum(2.0 * tail, 1.0)
    if degenerate.any():
        two[degenerate] = np.where(d[degenerate] == 0.0, 1.0, 0.0)
    return two


def _verified_t(df: np.ndarray, p: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Per element a t with stdtr(df, t) > p where ``above``, else < p.

    Starts from ``stdtrit`` and moves t away from p in growing steps
    until one forward ``stdtr`` call confirms it, so the result rests on
    ``stdtr`` alone, not on the accuracy of the inverse.  NaN where no
    such t was found, as for p outside (0, 1) or a non-finite df.
    """
    from scipy import special

    t = special.stdtrit(df, p)
    above = np.broadcast_to(above, t.shape)
    step = np.ldexp(np.fmax(np.abs(t), 1.0), -40)
    np.negative(step, out=step, where=~above)
    t += step
    finite = np.isfinite(t)
    t[~finite] = np.nan
    idx = np.nonzero(finite)
    for _ in range(_WIDEN_STEPS):
        if not idx[0].size:
            break
        tail = special.stdtr(df[idx], t[idx])
        wrong = np.where(above[idx], tail <= p[idx], tail >= p[idx])
        idx = tuple(i[wrong] for i in idx)
        t[idx] += step[idx]
        step[idx] *= 4.0
    t[idx] = np.nan
    return t


def _screened_tails(x: np.ndarray, df: np.ndarray) -> np.ndarray:
    """The tails stdtr(df, x) as far as the rank comparisons can tell.

    ``x`` and ``df`` are ``_welch_tails`` output with the true labeling
    in column 0; ``x`` is overwritten by the result.  The
    ranks compare each tail with the true labeling's tail tail0,
    directly, doubled, or through fl(1 - tail), and with 1/2, which no
    tail exceeds.  So only the side of tail0 matters, and that side is
    certain outside a band of ``_TAIL_SLACK`` * tail0 + ``_ABS_SLACK``
    around it.  For x <= 0, stdtr(df, x) does not rise with df, so each
    tail lies between stdtr(df_hi, x) and stdtr(df_lo, x), the bounds
    taken over the row.  Two x thresholds per row, each confirmed by a
    forward ``stdtr`` call, mark the relabelings whose tail is certainly
    below the band, which get the surrogate tail 0, or certainly above
    it, which get 1/2; every comparison gives the same answer for the
    surrogate as for the tail.  All other relabelings get the exact
    tail, as do those with a NaN df (every degenerate one has it) and
    every relabeling of a row whose true tail or df bounds are not
    finite.
    """
    from scipy import special

    tail0 = special.stdtr(df[:, 0], x[:, 0])
    df_lo = np.fmin.reduce(df, axis=1)
    df_hi = np.fmax.reduce(df, axis=1)
    slack = tail0 * _TAIL_SLACK + _ABS_SLACK
    below, above = _verified_t(
        np.stack([df_lo, df_hi], axis=1),
        np.stack([tail0 - slack, tail0 + slack], axis=1),
        np.array([False, True]),
    ).T
    # tail <= stdtr(df_lo, x) <= stdtr(df_lo, below) < tail0 - slack.
    low = x <= below[:, None]
    # tail >= stdtr(df_hi, x) >= stdtr(df_hi, above) > tail0 + slack.
    close = x >= above[:, None]
    close |= low
    np.logical_not(close, out=close)
    close |= np.isnan(df)
    close[~(np.isfinite(tail0) & np.isfinite(df_lo) & np.isfinite(df_hi))] = True
    close[:, 0] = False
    idx = np.nonzero(close)
    del close
    exact = special.stdtr(df[idx], x[idx])
    tail = x
    tail.fill(0.5)
    tail[low] = 0.0
    tail[idx] = exact
    tail[:, 0] = tail0
    return tail


def _welch_rows(
    a: np.ndarray, b: np.ndarray, plus
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One- and two-sided Welch p-values per row from one t-CDF call.

    ``plus`` (one bool, or one per row) is true where the one-sided p
    scores mean(a) > mean(b).  Also returns d, which has the sign of
    mean(a) - mean(b) and is exactly zero for equal means on grid rows.
    """
    from scipy import special

    n_b = b.shape[1]
    indicator = np.zeros((n_b + a.shape[1], 1))
    indicator[:n_b] = 1.0
    d, x, df, degenerate = _welch_tails(np.hstack([b, a]), n_b, a.shape[1], indicator)
    tail = special.stdtr(df, x)
    signed = np.where(np.reshape(plus, (-1, 1)), d, -d)
    one = _one_sided(signed, tail, degenerate)
    two = _two_sided(d, tail, degenerate)
    return one[:, 0], two[:, 0], d[:, 0]


def welch_p_two_sided(a, b) -> float:
    """Two-sided unequal-variance t-test p-value.

    Both samples need at least two observations.  When every value in
    both groups is identical the statistic is undefined; the convention
    is p=1 for equal means and p=0 otherwise.
    """
    row_a = _check_sample("a", a, 2)[None, :]
    row_b = _check_sample("b", b, 2)[None, :]
    return float(_welch_rows(row_a, row_b, True)[1][0])


def welch_p_one_sided(a, b, direction: Union[Sign, str]) -> float:
    """One-sided Welch p-value for a mean difference in one direction.

    ``Sign.PLUS`` scores evidence that the mean of ``a`` exceeds the
    mean of ``b``; ``Sign.MINUS`` scores the opposite tail.  The two
    directions sum to one for non-degenerate data.
    """
    row_a = _check_sample("a", a, 2)[None, :]
    row_b = _check_sample("b", b, 2)[None, :]
    plus = _as_sign(direction) is Sign.PLUS
    return float(_welch_rows(row_a, row_b, plus)[0][0])


@lru_cache(maxsize=1)
def _partition_table(m: int, m_first: int) -> np.ndarray:
    """0/1 indicator of every way to choose ``m_first`` of ``m`` columns.

    Column j of the (m, P) float64 matrix marks the chosen columns of
    the j-th index set in lexicographic order, so column 0 is the
    identity labeling.  When m = 2 * m_first the first P/2 sets are the
    ones holding column 0 and their complements are the last P/2; set j
    and set P-1-j are complements.

    Raises ``ContractError`` before allocating when P exceeds
    ``MAX_PARTITIONS`` or the indicator plus its index table, 8 * P *
    (m + m_first) bytes, exceed ``_TABLE_BUDGET``.
    """
    count = math.comb(m, m_first)
    if count > MAX_PARTITIONS:
        raise ContractError(
            f"partition count {count} exceeds {MAX_PARTITIONS}; "
            "subsample the control/low columns instead"
        )
    needed = count * (m * 8 + m_first * np.dtype(np.intp).itemsize)
    if needed > _TABLE_BUDGET:
        raise ContractError(
            f"partition table for {m} columns needs {needed / 2**20:.0f} MiB, "
            f"over the {_TABLE_BUDGET // 2**20} MiB budget; "
            "subsample the control/low columns instead"
        )
    members = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), m_first)),
        dtype=np.intp,
        count=count * m_first,
    ).reshape(count, m_first)
    indicator = np.zeros((m, count))
    indicator[members.T, np.arange(count)] = 1.0
    indicator.setflags(write=False)
    return indicator


def _scored_columns(m_c: int, m_l: int) -> int:
    """Relabelings the engine scores: all P, or P/2 when m_c = m_l."""
    count = math.comb(m_c + m_l, m_c)
    return count // 2 if m_c == m_l else count


def _permutation_rows(
    values: np.ndarray, m_c: int, m_l: int, plus_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-calibrate each row of ``values`` over all relabelings.

    ``values`` has one row per gene and ``m_c + m_l`` columns with the
    true control values first.  One ``_welch_tails`` pass scores every
    relabeling both one-sided, in the row's ``plus_mask`` direction, and
    two-sided; it holds (rows x P) float64 arrays, never the relabeled
    values themselves.  The t-CDF is evaluated only for the relabelings
    whose side of the true labeling's tail ``_screened_tails`` cannot
    tell from bounds, so every comparison, and the rank, is that of the
    full evaluation.  When m_c = m_l only the P/2 relabelings that
    keep column 0 in the control group are scored: swapping the groups
    keeps the tail and df bit for bit and negates the difference, so
    each complement's one-sided p comes from the same tail with the sign
    flipped, and its two-sided p is the same.

    Returns (p_init, p_final, p_perm_two): the one-sided p under the
    true labels, its rank #{relabelings with p <= p_init} / P, and the
    same rank of the two-sided p.  On rows of ``_exact_units`` grid data
    relabelings with equal Welch statistics get bitwise-equal p-values,
    so the rank counts every tie.
    """
    count = math.comb(m_c + m_l, m_c)
    scored = _scored_columns(m_c, m_l)
    indicator = _partition_table(m_c + m_l, m_c)[:, :scored]
    d, x, df, degenerate = _welch_tails(values, m_c, m_l, indicator)
    tail = _screened_tails(x, df)
    del df
    signed = np.where(plus_mask[:, None], d, -d)
    one = _one_sided(signed, tail, degenerate)
    p_init = one[:, :1]
    hits = np.count_nonzero(one <= p_init, axis=1)
    del one
    two = _two_sided(d, tail, degenerate)
    hits_two = np.count_nonzero(two <= two[:, :1], axis=1)
    del two
    if scored < count:
        mirrored = _one_sided(-signed, tail, degenerate)
        hits += np.count_nonzero(mirrored <= p_init, axis=1)
        hits_two *= 2
    return p_init[:, 0], hits / count, hits_two / count


def _chunk_rows(columns: int, chunk: Optional[int] = None) -> int:
    """Gene rows per batch: the most whose ``_BATCH_ARRAYS`` (rows x
    ``columns``) float64 arrays fit in ``_BATCH_BUDGET``, at least 1, at
    most ``chunk``.
    """
    rows = max(1, _BATCH_BUDGET // (columns * 8 * _BATCH_ARRAYS))
    return rows if chunk is None else min(rows, chunk)


def permutation_pvalue(
    control_low_values, m_c: int, m_l: int, sign: Union[Sign, str]
) -> float:
    """Calibrate a one-sided low-versus-control comparison by relabeling.

    ``control_low_values`` holds the pooled sample with the ``m_c``
    true control values first and the ``m_l`` true low-dose values
    after them.  Every partition of the pool into pseudo-control and
    pseudo-low groups of those sizes is scored with the same one-sided
    Welch p-value; the result is the rank of the true labeling,

        #(partitions with p <= p under true labels) / P,

    which always lands on the grid {1/P, ..., P/P} and is at least 1/P
    because the true labeling counts itself.

    Raises
    ------
    ContractError
        If the group sizes are below one or disagree with the pooled
        sample, and also when the partition count exceeds
        ``MAX_PARTITIONS`` (in which case subsample the columns; there
        is no Monte Carlo fallback).
    """
    m_c, m_l = int(m_c), int(m_l)
    if m_c < 1 or m_l < 1:
        raise ContractError(f"need m_c, m_l >= 1, got {m_c}, {m_l}")
    values = _check_sample("control_low_values", control_low_values, 2)
    if values.size != m_c + m_l:
        raise ContractError(
            f"pooled sample has {values.size} values but m_c + m_l = {m_c + m_l}"
        )
    plus = np.array([_as_sign(sign) is Sign.PLUS])
    _, p_final, _ = _permutation_rows(values[None, :], m_c, m_l, plus)
    return float(p_final[0])


def high_dose_ordering(matrix: ExpressionMatrix) -> list[HighDoseRank]:
    """Rank genes by two-sided high-dose-versus-rest evidence.

    The p-value compares the high-dose columns against the pooled
    control and low-dose columns; the sign records whether the
    high-dose mean was at least the pooled mean (ties count as plus).
    Output is sorted by p ascending with ties kept in input order.
    """
    high = matrix.columns(Group.HIGH)
    rest = matrix.columns(Group.CONTROL, Group.LOW)
    if high.shape[1] < 2 or rest.shape[1] < 2:
        raise ContractError(
            "high-dose ordering needs at least 2 high-dose columns and "
            "2 other columns"
        )
    _, p_high, diff = _welch_rows(high, rest, True)
    order = np.lexsort((np.arange(matrix.n_genes), p_high))
    return [
        HighDoseRank(
            original_index=int(i),
            p_high=float(p_high[i]),
            sign=Sign.PLUS if diff[i] >= 0.0 else Sign.MINUS,
        )
        for i in order
    ]


@dataclass(frozen=True)
class PipelineResult:
    """Ordered gene records plus the discovery-count table.

    ``columns`` holds the table's method, alpha and discoveries columns,
    method-major; ``rows`` gives the same table as row tuples.
    """

    records: tuple[GeneRecord, ...]
    columns: tuple[tuple[str, ...], tuple[float, ...], tuple[int, ...]]
    method_names: tuple[str, ...]
    alpha_grid: tuple[float, ...]

    @property
    def rows(self) -> tuple[tuple[str, float, int], ...]:
        return tuple(zip(*self.columns))

    def count(self, method: str, alpha: float) -> int:
        for name, a, c in self.rows:
            if name == method and a == alpha:
                return c
        raise KeyError((method, alpha))


DEFAULT_DOSAGE_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)

_BASELINE_NAMES = ("BH-t", "Storey-t", "BH-perm", "Storey-perm")


def _baseline_counts(name: str, pvals: np.ndarray, alpha: float) -> int:
    if name.startswith("BH"):
        return bh_select(pvals, alpha).count
    return storey_select(pvals, alpha).count


def run_pipeline(
    matrix: ExpressionMatrix,
    methods: Optional[Sequence[Method]] = None,
    alpha_grid: Sequence[float] = DEFAULT_DOSAGE_ALPHAS,
    include_baselines: bool = True,
    chunk: Optional[int] = None,
) -> PipelineResult:
    """Rank genes, calibrate p-values, run every method, and tabulate counts.

    Accumulation methods run down the ordered calibrated p-values and
    report their cutoff position as the discovery count.  Methods whose
    accumulation function blows up at 1 receive the grid-shifted values
    k/(P+1) instead of k/P so a p-value of exactly one stays finite.
    Baselines (Benjamini-Hochberg and its null-fraction-adjusted
    variant, each on both t-test and permutation two-sided p-values)
    see the same genes without the ordering.

    A level of exactly zero yields zero discoveries for every method by
    definition.  Levels must lie in [0, 1).  Gene rows are scored in
    batches by one ``_permutation_rows`` pass each.  The batch size
    follows from the number of relabelings scored, so that the (rows x
    P) float64 arrays a pass holds stay within a fixed byte budget, and
    ``chunk`` caps it.  Results do not depend on the batch size.  The
    count table is built as columns, ready for a column-wise writer.
    """
    if methods is None:
        methods = default_methods()
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise DomainError("alpha grid must be nonempty")
    for a in alphas:
        if not 0.0 <= a < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {a}")
    if chunk is not None and chunk < 1:
        raise DomainError("chunk must be positive")

    ranks = high_dose_ordering(matrix)
    m_c = matrix.group_size(Group.CONTROL)
    m_l = matrix.group_size(Group.LOW)
    control = matrix.columns(Group.CONTROL)
    low = matrix.columns(Group.LOW)
    pooled = np.hstack([control, low])

    row_order = np.array([r.original_index for r in ranks], dtype=np.intp)
    plus_mask = np.array([r.sign is Sign.PLUS for r in ranks])
    ordered_pool = pooled[row_order]

    n = matrix.n_genes
    grid_size = math.comb(m_c + m_l, m_c)
    rows = _chunk_rows(_scored_columns(m_c, m_l), chunk)
    p_init = np.empty(n)
    p_final = np.empty(n)
    p_perm_two = np.empty(n)
    for start in range(0, n, rows):
        batch = slice(start, start + rows)
        p_init[batch], p_final[batch], p_perm_two[batch] = _permutation_rows(
            ordered_pool[batch], m_c, m_l, plus_mask[batch]
        )

    records = tuple(
        GeneRecord(
            p_high=r.p_high,
            sign=r.sign,
            p_init=float(p_init[j]),
            p_final=float(p_final[j]),
            original_index=r.original_index,
        )
        for j, r in enumerate(ranks)
    )

    plain_pvals = OrderedPValues(p_final)
    shifted_pvals = shift_discrete_pvalues(plain_pvals, grid_size)

    levels = np.array(alphas)
    positive = levels > 0.0
    discoveries: list[int] = []
    names: list[str] = []
    for method in methods:
        names.append(method.name)
        inputs = plain_pvals if method.spec.bounded else shifted_pvals
        counts = np.zeros(len(alphas), dtype=int)
        counts[positive] = select_cutoff(method.path(inputs), levels[positive])
        discoveries.extend(counts.tolist())

    if include_baselines:
        if m_c < 2 or m_l < 2:
            raise ContractError(
                "baseline t-tests need at least 2 control and 2 low-dose columns"
            )
        _, p_t_two, _ = _welch_rows(low[row_order], control[row_order], True)
        baseline_inputs = {
            "BH-t": p_t_two,
            "Storey-t": p_t_two,
            "BH-perm": p_perm_two,
            "Storey-perm": p_perm_two,
        }
        for name in _BASELINE_NAMES:
            names.append(name)
            discoveries.extend(
                0
                if alpha == 0.0
                else _baseline_counts(name, baseline_inputs[name], alpha)
                for alpha in alphas
            )

    columns = (
        tuple(name for name in names for _ in alphas),
        alphas * len(names),
        tuple(discoveries),
    )
    return PipelineResult(
        records=records,
        columns=columns,
        method_names=tuple(names),
        alpha_grid=alphas,
    )


def _parse_group(label: str, column: int) -> Group:
    head = label.strip()[:1].upper()
    if head == "C":
        return Group.CONTROL
    if head == "L":
        return Group.LOW
    if head == "H":
        return Group.HIGH
    raise ValidationError(
        f"column {column} label {label!r} must start with C, L, or H"
    )


def read_expression_csv(path) -> ExpressionMatrix:
    """Load a matrix from CSV: header ``gene_id,<labels>``, one gene per row.

    Sample labels are assigned to arms by their first letter (C, L, or
    H, case-insensitive).  Parsing errors report the offending row and
    column using 1-based positions.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "gene_id":
            raise ValidationError(f"{path}: first header column must be gene_id")
        if len(header) < 2:
            raise ValidationError(f"{path}: no sample columns")
        groups = tuple(
            _parse_group(label, column)
            for column, label in enumerate(header[1:], start=2)
        )
        gene_ids = []
        data = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}: row {row_number} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            gene_ids.append(row[0].strip())
            parsed = []
            for column, cell in enumerate(row[1:], start=2):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {row_number}, column {column}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
            data.append(parsed)
    if not data:
        raise ValidationError(f"{path}: no gene rows")
    return ExpressionMatrix(
        gene_ids=tuple(gene_ids),
        values=np.array(data, dtype=float),
        groups=groups,
    )
