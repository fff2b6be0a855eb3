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

Every per-gene result is a numpy array in tested order, from
``high_dose_ordering`` to the ``PipelineResult`` of ``run_pipeline``.

Because the high-dose arm is disjoint from the columns being permuted,
steps 1 and 2 are invariant under any relabeling of control and
low-dose columns, which is what makes the ordering legitimate.

The calibration of step 3 (``_permutation_rows``) scores a relabeling
from the sums of its pseudo-control group.  Each gene's true labeling
is scored once, by ``_true_labeling``, which also gives the Welch
p-values of steps 1 and 3.  One matrix product per batch of genes then
gives every other relabeling's exact integer sums, and from those alone
``_sum_screen`` settles most of them on one side of the true
labeling's tail, under a written bound on the remainder terms of
off-grid values.  Only the relabelings it leaves open, about 2 % on the
benchmark's data sets, go through the float Welch arithmetic of
``_welch_stats`` and the t-CDF.  Every rank and output bit is that of
scoring each relabeling in full.

A gene's rank, the count k of the P relabelings scoring at or below its
true labeling, stays an integer from the engine to ``run_pipeline``,
which divides it once per point where h is read: k/P, the gene's
``p_final``, or k/(P+1) for an h that is infinite at 1.
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

from . import _tails
from .baselines import bh_select, storey_select
from .errors import ContractError, DomainError, ValidationError, whole_number
from .seqtest import Method, default_methods, select_cutoff

__all__ = [
    "Group",
    "Sign",
    "ExpressionMatrix",
    "PipelineResult",
    "welch_p_two_sided",
    "welch_p_one_sided",
    "permutation_pvalue",
    "high_dose_ordering",
    "run_pipeline",
    "read_expression_csv",
    "DEFAULT_DOSAGE_ALPHAS",
]

_TABLE_BUDGET = 128 * 2**20

# Bytes of (rows x P) arrays a batch may hold.  The elementwise passes
# over them run fastest when a batch stays near the core's L2 cache: on
# 2 MiB of L2 per core, 3-8 MiB ran alike and about a quarter faster than
# 16 MiB, and 2 MiB, one gene per batch at 11 440 relabelings, was slower.
_BATCH_BUDGET = 4 * 2**20

# Bound on the (rows x C) float64 arrays one _permutation_rows pass holds
# at once, where C = ``_batch_columns``; at the 4 MiB budget tracemalloc
# peaks were 6.1-7.3 on grid rows and 9.0-10.0 on off-grid rows.  C is
# the larger of P and the m pooled columns, since at m_c = m_l = 2 (P = 3,
# 4 columns) the (rows x m) arrays of _exact_units held 13.4 (rows x P).
_BATCH_ARRAYS = 12

_GRID_DECIMALS = 9

# Half-width of the band around the true labeling's tail that
# ``_thresholds`` keeps clear of, relative to that tail.  It absorbs any
# rounding wobble of the t-CDF in df or x (``_tails.stdtr`` is accurate
# to 1e-13); the absolute 2^-51 added to it makes fl(1 - tail) keep the
# order of tail outside the band.
_TAIL_SLACK = 2.0**-20
_ABS_SLACK = 2.0**-51

# The x at which ``_tail_table`` evaluates the t-CDF: -2^(j/64) from
# -2^64 to -2^-30, then 0, rising.  The table is a fixed cost per design
# and a finer grid leaves fewer relabelings per gene to the t-CDF.  On
# the benchmark's dosage data, 64 steps per octave ran as fast as 32 and
# faster than 128, and pay off over 32 from about 200 (11 440
# relabelings) or 4 500 (462) genes on.
_SCREEN_POINTS = np.append(-np.exp2(np.arange(64 * 64, -30 * 64 - 1, -1) / 64.0), 0.0)


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
    """The ``Sign`` for ``sign``, given as a member or its value in any case."""
    try:
        return sign if isinstance(sign, Sign) else Sign(str(sign).lower())
    except ValueError:
        choices = ", ".join(repr(s.value) for s in Sign)
        raise DomainError(f"unknown sign {sign!r}; expected one of {choices}") from None


@dataclass(frozen=True)
class ExpressionMatrix:
    """Log-expression values, one row per gene, one column per sample.

    Values must be finite, and each gene's must span less than the float
    range; errors name the gene, and a sample column counted from 1.
    """

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
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            row, column = bad[0]
            raise ValidationError(
                f"gene {str(self.gene_ids[row])!r}, sample column {column + 1}: "
                f"expression values must be finite, got {values[row, column]}"
            )
        wide = _wide_rows(values)
        if wide.size:
            gene = str(self.gene_ids[wide[0]])
            raise ValidationError(
                f"gene {gene!r}: values span more than the float range"
            )
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


def _wide_rows(values: np.ndarray) -> np.ndarray:
    """Indices of the rows whose max - min overflows.  No shift of such a
    row to ``_exact_units`` exists, so they are refused."""
    if not values.size:
        return np.empty(0, dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        span = values.max(axis=1) - values.min(axis=1)
    return np.flatnonzero(~np.isfinite(span))


def _check_sample(name: str, values, minimum: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < minimum:
        raise ContractError(
            f"sample {name!r} too small: need at least {minimum} values, got {arr.size}"
        )
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"sample {name!r} contains non-finite values")
    return arr


def _scale_bits(m: int) -> int:
    """log2 of the scale off-grid rows of m columns are brought to: any
    sum of up to m values h <= 2^bits, or of their squares, is below
    2^53 and so exact."""
    return (53 - 2 * m.bit_length()) // 2


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
    to at most 2^``_scale_bits``; h is the rounded value and r in [-1/2,
    1/2] the rest.  Each row is handled on its own values only.
    """
    m = values.shape[1]
    bits = _scale_bits(m)
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


def _remainder_columns(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r and w = r (2h + r) of (rows x m) h and r as an (m, 2, rows)
    array: entry [k, :, i] holds row i's terms of column k."""
    w = h * 2.0
    w += r
    w *= r
    terms = np.empty((r.shape[1], 2, r.shape[0]))
    terms[:, 0] = r.T
    terms[:, 1] = w.T
    return terms


def _pair_sums(x: np.ndarray, indicator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums of x over each pair's marked columns and over the others, in
    index order.

    x is (m, ..., k): column by column, the terms of each of k pairs'
    rows; ``indicator`` (m, k) holds each pair's 0/1 relabeling column.
    Every element goes through the same additions whatever the number
    of pairs, which a BLAS kernel does not promise for inexact values.
    """
    inside = x[0] * indicator[0]
    outside = x[0] - inside
    term = np.empty_like(inside)
    for k in range(1, x.shape[0]):
        np.multiply(x[k], indicator[k], out=term)
        inside += term
        np.subtract(x[k], term, out=term)
        outside += term
    return inside, outside


def _welch_stats(
    s_c: np.ndarray,
    q_c: np.ndarray,
    s: np.ndarray,
    q: np.ndarray,
    m_c: int,
    m_l: int,
    remainders: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Welch test of relabelings from their group sums, element by element.

    For rows in ``_exact_units`` (h, r) with m = m_c + m_l columns,
    element e is one relabeling of one row: s_c and q_c are the sums of
    h and h*h over its pseudo-control columns, and s and q the row's
    totals (the pseudo-low sums are the totals minus these).  These are
    exact integers, and the statistic rests on the shift-invariant
    D = m_c S_low - m_l S_control and m Q - S^2 per group.  Off-grid rows
    pass ``remainders``, the ``_pair_sums`` (inside, outside) of their
    r and w = r (2h + r), each stacked as [r, w]; with S = S_h + S_r and
    (h + r)^2 = h^2 + w, each group's m Q - S^2 gains m W - (2 S_h +
    S_r) S_r, clamped at 0.  On grid rows (r = 0) these terms are exact
    zeros, so a call may pass them or not.  Groups of size one have zero
    variance.

    Returns (d, x, df, degenerate): d has the sign of mean(low) -
    mean(control), x = -|t| and df are the arguments of the tail P(T_df
    <= x), and degenerate marks relabelings where both spread terms
    vanish (their x and df are not used).  Each output element rests on
    its own inputs alone, so the engine may score any subset of
    relabelings and get the same bits.
    """
    s_l = s - s_c
    a_l = q - q_c
    d = m_c * s_l
    d -= m_l * s_c
    # m Q - S^2 per group, in place of Q.
    a_c = q_c * m_c
    a_c -= s_c * s_c
    a_l *= m_l
    a_l -= s_l * s_l
    if remainders is not None:
        (rs_c, ws_c), (rs_l, ws_l) = remainders
        d += m_c * rs_l - m_l * rs_c
        for s_x, rs_x, a_x in ((s_c, rs_c, a_c), (s_l, rs_l, a_l)):
            cross = s_x * 2.0
            cross += rs_x
            cross *= rs_x
            a_x -= cross
        for n, ws_x, a_x in ((m_c, ws_c, a_c), (m_l, ws_l, a_l)):
            a_x += ws_x * n
            np.maximum(a_x, 0.0, out=a_x)
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


def _df_bounds(m_c: int, m_l: int) -> tuple[float, float]:
    """Bounds on the Welch df of every relabeling into groups of m_c and m_l.

    Welch's df lies between min(n_i) - 1 and sum(n_i - 1) over the groups
    of two or more members; with one such group it is that group's n - 1.
    The bounds are widened by 2^-40, relative, past the rounding of the
    computed df.  NaN when no group has two members.
    """
    sizes = [n for n in (m_c, m_l) if n > 1]
    if not sizes:
        return math.nan, math.nan
    lo = min(sizes) - 1
    hi = sum(n - 1 for n in sizes)
    return lo * (1.0 - 2.0**-40), hi * (1.0 + 2.0**-40)


@lru_cache(maxsize=1)
def _tail_table(df_lo: float, df_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The t-CDF at ``_SCREEN_POINTS`` for df_lo and for df_hi, made monotone.

    Entry k of the first is the largest tail of df_lo at points up to
    k, and of the second the smallest tail of df_hi at points from k on,
    so both rise with k, and a bound met by entry k is met at every
    point below it (first) or above it (second).  NaN throughout for NaN
    bounds.
    """
    lower = np.maximum.accumulate(_tails.stdtr(df_lo, _SCREEN_POINTS))
    upper = np.minimum.accumulate(_tails.stdtr(df_hi, _SCREEN_POINTS)[::-1])[::-1]
    lower.setflags(write=False)
    upper.setflags(write=False)
    return lower, upper


def _thresholds(tail0: np.ndarray, df_lo: float, df_hi: float) -> np.ndarray:
    """Per row the x thresholds (below, above) of ``_sum_screen``.

    stdtr(df_lo, below) < tail0 - slack and stdtr(df_hi, above) > tail0 +
    slack, with slack = ``_TAIL_SLACK`` * tail0 + ``_ABS_SLACK``.  For x
    <= 0, stdtr(df, x) does not rise with df, so for any df_lo <= df <=
    df_hi a relabeling's tail lies below that band where x <= below and
    above it where x >= above.  They are read off the ``_tail_table`` of
    the design's df bounds: below is the highest
    point whose entry, and every entry before it, meets its bound, and
    above the lowest such point with every entry after it.  Each chosen
    entry is checked again, so the thresholds rest on ``_tails.stdtr``
    alone.  NaN where no point qualifies, as for a tail0 of NaN (which
    sorts last), a below threshold for a tail0 of 0, or NaN bounds.
    """
    lower, upper = _tail_table(df_lo, df_hi)
    slack = tail0 * _TAIL_SLACK + _ABS_SLACK
    target = tail0 - slack
    k = np.maximum(np.searchsorted(lower, target, side="left") - 1, 0)
    below = np.where(lower[k] < target, _SCREEN_POINTS[k], np.nan)
    target = tail0 + slack
    k = np.minimum(np.searchsorted(upper, target, side="right"), upper.size - 1)
    above = np.where(upper[k] > target, _SCREEN_POINTS[k], np.nan)
    return np.stack([below, above], axis=-1)


def _true_labeling(
    h: np.ndarray, r: np.ndarray, m_first: int, m_second: int, plus
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Welch test of each row under its true labeling, one t-CDF call.

    (h, r) are the ``_exact_units`` of rows whose first ``m_first``
    columns form one group and the other ``m_second`` the second.
    ``_welch_stats`` scores each relabeling from its own sums alone, so
    these bits are those the true labeling would get in any permutation
    pass.  ``plus`` (one bool, or one per row) is true where the
    one-sided p scores mean(second) > mean(first).

    Returns (d, tail, degenerate, one, two) per row: d has the sign of
    mean(second) - mean(first) and is exactly zero for equal means on
    grid rows, tail is P(T_df <= -|t|), degenerate marks rows where both
    spread terms vanish, and one and two are the one- and two-sided p,
    never NaN (``_permutation_rows`` says why).
    """
    hh = h * h
    remainders = None
    if r.any():
        identity = np.zeros((h.shape[1], 1))
        identity[:m_first] = 1.0
        remainders = _pair_sums(_remainder_columns(h, r), identity)
    d, x, df, degenerate = _welch_stats(
        h[:, :m_first].sum(axis=1), hh[:, :m_first].sum(axis=1), h.sum(axis=1),
        hh.sum(axis=1), m_first, m_second, remainders,
    )
    tail = _tails.stdtr(df, x)
    one = _one_sided(np.where(plus, d, -d), tail, degenerate)
    return d, tail, degenerate, one, _two_sided(d, tail, degenerate)


def _pair_units(a, b) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The ``_exact_units`` of b then a as one row, and their sizes; the
    samples are checked, and together narrower than the float range."""
    row_a, row_b = _check_sample("a", a, 2), _check_sample("b", b, 2)
    pooled = np.hstack([row_b, row_a])[None, :]
    if _wide_rows(pooled).size:
        raise ValidationError(
            "samples 'a' and 'b' together span more than the float range"
        )
    return (*_exact_units(pooled), row_b.size, row_a.size)


def welch_p_two_sided(a, b) -> float:
    """Two-sided unequal-variance t-test p-value.

    Both samples need at least two observations, and together they must
    span less than the float range.  When every value in both groups is
    identical the statistic is undefined; the convention is p=1 for equal
    means and p=0 otherwise.
    """
    return float(_true_labeling(*_pair_units(a, b), True)[4][0])


def welch_p_one_sided(a, b, direction: Union[Sign, str]) -> float:
    """One-sided Welch p-value for a mean difference in one direction.

    ``Sign.PLUS`` scores evidence that the mean of ``a`` exceeds the
    mean of ``b``; ``Sign.MINUS`` scores the opposite tail.  The two
    directions sum to one for non-degenerate data.

    Raises
    ------
    DomainError
        If ``direction`` is neither ``plus`` nor ``minus``.
    ContractError
        If a sample has fewer than two values.
    ValidationError
        If a value is not finite, or the samples together span more than
        the float range.
    """
    units = _pair_units(a, b)
    return float(_true_labeling(*units, _as_sign(direction) is Sign.PLUS)[3][0])


@lru_cache(maxsize=1)
def _partition_table(m: int, m_first: int) -> np.ndarray:
    """0/1 indicator of every way to choose ``m_first`` of ``m`` columns.

    Column j of the (m, P) float64 matrix marks the chosen columns of
    the j-th index set in lexicographic order, so column 0 is the
    identity labeling.  When m = 2 * m_first the first P/2 sets are the
    ones holding column 0 and their complements are the last P/2; set j
    and set P-1-j are complements.

    Raises ``ContractError`` before allocating when the indicator plus
    its index table, 8 * P * (m + m_first) bytes, exceed
    ``_TABLE_BUDGET``.  That cap also bounds the work: the largest
    table within 128 MiB, at m = 22 and m_first = 9, has 497 420 sets.
    """
    count = math.comb(m, m_first)
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


def _batch_columns(m_c: int, m_l: int) -> int:
    """Columns of the widest arrays a pass holds: the relabelings scored,
    or the m_c + m_l pooled values where those are more."""
    return max(_scored_columns(m_c, m_l), m_c + m_l)


def _chunk_rows(columns: int) -> int:
    """Gene rows per batch: the most whose ``_BATCH_ARRAYS`` (rows x
    ``columns``) float64 arrays fit in ``_BATCH_BUDGET``, at least 1."""
    return max(1, _BATCH_BUDGET // (columns * 8 * _BATCH_ARRAYS))


def _permutation_rows(
    values: np.ndarray, m_c: int, m_l: int, plus_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rank-calibrate each row of ``values`` over all relabelings.

    ``values`` has one row per gene and ``m_c + m_l`` columns with the
    true control values first.  The ``_exact_units`` of every row, its
    ``_true_labeling`` test and the ``_thresholds`` of that tail are
    found once.  ``_score_batch`` then counts, in batches of
    ``_chunk_rows``, the hits of every other relabeling; results do not
    depend on the batch size.

    The true labeling's own hits are added here: 1 to each rank, and
    when m_c = m_l 1 to the one-sided rank where its complement, with the
    same tail and the negated difference, has a p of at most p_init; the
    two-sided rank is then doubled, as each complement's two-sided p is
    that of its relabeling.  The true p counts itself, as it is never
    NaN.  A degenerate row gets 0, 1/2 or 1 from ``_one_sided`` and 0 or
    1 from ``_two_sided`` whatever its tail, and at m_c = m_l = 1, where
    the true labeling and its complement are all P, every row is
    degenerate.  Otherwise se2 > 0, each spread term a_i / se2 lies in
    [0, 1] and the largest, of group i, is at least about 1/2, so the sum
    behind the Welch df is at least about 1/(4 (n_i - 1)) and at most
    sum 1/(n_i - 1): df is finite and positive.  x = -|d / t| with finite
    d and t > 0 lies in [-inf, 0], where the t-CDF is a number.

    Returns (p_init, rank, rank_two, p_two): the one-sided p under the
    true labels, its rank numerator #{relabelings with p <= p_init} as
    intp in [1, P], the same numerator of the two-sided p, and that
    two-sided p itself, the Welch t-test of low against control.  On
    rows of ``_exact_units`` grid data relabelings with equal Welch
    statistics get bitwise-equal p-values, so the rank counts every tie.
    """
    h, r = _exact_units(values)
    d, tail0, degenerate, p_init, p_two = _true_labeling(h, r, m_c, m_l, plus_mask)
    thresholds = _thresholds(tail0, *_df_bounds(m_c, m_l))
    hits = np.ones((2, values.shape[0]), dtype=np.intp)
    rows = _chunk_rows(_batch_columns(m_c, m_l))
    for start in range(0, values.shape[0], rows):
        batch = slice(start, start + rows)
        hits[:, batch] += _score_batch(
            h[batch], r[batch], m_c, m_l, plus_mask[batch], thresholds[batch],
            p_init[batch], p_two[batch],
        )
    if m_c == m_l:
        hits[0] += _one_sided(np.where(plus_mask, -d, d), tail0, degenerate) <= p_init
        hits[1] *= 2
    return p_init, hits[0], hits[1], p_two


def _sum_screen(
    s_c: np.ndarray,
    q_c: np.ndarray,
    s: np.ndarray,
    q: np.ndarray,
    off_grid: np.ndarray,
    m_c: int,
    m_l: int,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Settle relabelings against the ``_thresholds`` from exact sums alone.

    s_c and q_c (rows x k) are the exact sums of h and h*h over each
    relabeling's pseudo-control columns, s and q (rows x 1) the row
    totals, and ``off_grid`` marks the rows with a remainder r.  On h
    alone, d_h = m_c s - m s_c and a_h = m Q - S^2 per group are exact
    integers, and V = w_l a_l + w_c a_c = W se2_h, with W = k_c k_l and
    (w_l, w_c) = (k_c, k_l) for k_n = n^2 (n - 1), or W = k_n and w_n = 1
    for the one group of two or more; se2_h = sum a_h / k_n.  A
    relabeling is settled low when ``_welch_stats`` would give x <=
    below, and high when it would give x >= above with se2 > 0 (so a
    finite df); ``_settled_hits`` counts what it adds to the ranks.  The
    bound behind that, with u = 2^-53, b =
    ``_scale_bits``(m) and delta = m_c m_l on off-grid rows (0 on grid
    rows, whose sums are exact):

    1. Remainders.  With z = h + r, |r| <= 1/2 and 0 <= h <= 2^b,
       |d - d_h| <= m_c m_l, and a = n Q - S^2 = sum over the group's
       pairs of (z_i - z_j)^2 moves from a_h by at most
       p_n (2^(b+1) + 1) over its p_n = n (n - 1) / 2 pairs.
    2. Their float rounding.  The index-order sums of r and w, the terms
       m W - (2 S_h + S_r) S_r and their addition to a_h round by at
       most 2^-45 n^3 2^(b+1) + 2^-51 a_h; those of d by 2^-40 m_c m_l
       + u |d| (m <= 4096 under ``_TABLE_BUDGET``).  So the computed a
       lies within M_n = p_n (2^(b+1) + 1) + 2^-45 n^3 2^(b+1) (plus
       2^-51 a_h) of a_h, and |d| within delta' = delta (1 + 2^-40) of
       |d_h|, up to a relative u.
    3. The clamp.  max(a, 0) >= a keeps the lower bound a_h - M_n, and
       max(a, 0) <= a_h + M_n as a_h >= 0 keeps the upper one.  So,
       with Mv = w_l M_l + w_c M_c, the computed se2 lies in [(V - Mv),
       (V + Mv)] / W up to a relative 2^-49, and the division, square
       root, products and |d / t| move x by a relative 4u more.
    4. The screen's own rounding.  The evaluation of V from s_c and q_c
       below is off by at most E_V = 2^-49 ((4 w_l + w_c) s^2 + (w_l
       m_l + |w_c m_c - w_l m_l|) q); d and d^2 are exact or off by u.
    5. (|d| - delta')^2 >= (1 - eta) d^2 - delta'^2 / eta and (|d| +
       delta')^2 <= (1 + eta) d^2 + (1 + 1 / eta) delta'^2.

    With B = -below, A = -above and G = (m_c m_l)^2 / W, low is
    d_h^2 > B^2 G (1 + f) / (1 - eta) (V + Mv + E_V) + delta'^2 (1 + f)
    / (eta (1 - eta)), and high is d_h^2 < A^2 G (1 - f) / (1 + eta) (V -
    (Mv + E_V) (1 + f)) - (1 + 1 / eta) delta'^2 (1 + f) / (1 + eta),
    with f = 2^-28 far above the relative error of every step above and
    eta = 2^-20.  Low forces |d_h| > 2^10 delta', so d has the sign
    of d_h; high forces V > Mv, so se2 > 0.  A NaN threshold, or V at or
    below its bound, settles nothing.

    Returns the per-row counts (low, low with d > 0, high) as a (3,
    rows) array, and the mask of the relabelings left open.
    """
    fudge, eta = 2.0**-28, 2.0**-20
    m = m_c + m_l
    top = 2.0 ** _scale_bits(m)
    k = {n: n * n * (n - 1) for n in (m_c, m_l)}
    scale = math.prod(k[n] for n in (m_c, m_l) if n > 1)
    w_c = scale // k[m_c] if m_c > 1 else 0
    w_l = scale // k[m_l] if m_l > 1 else 0
    mixed = w_c * m_c - w_l * m_l
    spread = sum(
        w * (n * (n - 1) // 2 * (2.0 * top + 1.0) + 2.0**-45 * n**3 * 2.0 * top)
        for w, n in ((w_c, m_c), (w_l, m_l))
        if n > 1
    )
    off_grid = off_grid[:, None]
    delta2 = np.where(off_grid, (m_c * m_l * (1.0 + 2.0**-40)) ** 2, 0.0)
    margin = np.where(off_grid, spread, 0.0)
    margin += 2.0**-49 * ((4 * w_l + w_c) * s * s + (w_l * m_l + abs(mixed)) * q)
    margin *= 1.0 + fudge
    gain = (m_c * m_l) ** 2 / scale
    low_scale = thresholds[:, :1] ** 2 * (gain * (1.0 + fudge) / (1.0 - eta))
    low_shift = low_scale * margin
    low_shift += delta2 * ((1.0 + fudge) / (eta * (1.0 - eta)))
    high_scale = thresholds[:, 1:] ** 2 * (gain * (1.0 - fudge) / (1.0 + eta))
    high_shift = high_scale * margin
    high_shift += delta2 * ((1.0 + 1.0 / eta) * (1.0 + fudge) / (1.0 + eta))
    del delta2, margin

    d = np.multiply(s_c, -m)
    d += m_c * s
    up = d > 0.0
    d *= d
    # V = w_l m_l q - w_l s^2 + 2 w_l s s_c - (w_l + w_c) s_c^2 + mixed q_c.
    v = np.multiply(s_c, -(w_l + w_c))
    v += 2.0 * w_l * s
    v *= s_c
    v += w_l * m_l * q - w_l * s * s
    bound = np.empty_like(v)
    if mixed:
        np.multiply(q_c, mixed, out=bound)
        v += bound
    np.multiply(v, low_scale, out=bound)
    bound += low_shift
    low = d > bound
    del bound
    v *= high_scale
    v -= high_shift
    high = d < v
    del d, v
    counts = np.empty((3, s_c.shape[0]), dtype=np.intp)
    counts[0] = np.count_nonzero(low, axis=1)
    up &= low
    counts[1] = np.count_nonzero(up, axis=1)
    del up
    counts[2] = np.count_nonzero(high, axis=1)
    low |= high
    np.logical_not(low, out=low)
    return counts, low


def _settled_hits(
    counts: np.ndarray,
    plus_mask: np.ndarray,
    p_init: np.ndarray,
    mirror: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row rank hits of the relabelings ``_sum_screen`` settled.

    ``counts`` holds per row the relabelings settled low, those of them
    with d > 0, and those settled high.  A settled relabeling's tail lies
    outside the band of ``_thresholds`` around the true tail, below it
    (low) or above it (high), so every rank comparison comes out as for
    the tail 0 or 1/2: its one-sided p as 0 where its directed difference
    is positive and 1 where negative (low), or as 1/2 (high), and its
    mirror's the other way round; its two-sided p as 0 or 1.  Returns the
    one-sided hits, the mirrors' included when ``mirror``, and the
    two-sided hits without them.

    A settled p of 1, a low relabeling's one-sided p where its
    difference is negative or a high one's two-sided p, would count only
    where the true p is 1 as well.  No row with such relabelings has
    that:

    * p_init >= 1 needs fl(1 - tail0) = 1, so tail0 <= 2^-54 (a
      degenerate row has tail0 NaN, and NaN thresholds settle nothing).
      There tail0 - slack < 0, as ``_ABS_SLACK`` = 2^-51, and no table
      entry, a t-CDF value >= 0, lies below it: ``_thresholds`` gives no
      below threshold, and the row has no low relabeling.
    * p_two >= 1 needs 2 tail0 >= 1, so tail0 >= 1/2.  Every ``upper``
      entry is at most the table's last, stdtr(df_hi, 0) = 1/2, so none
      exceeds tail0 + slack: there is no above threshold, and the row
      has no high relabeling.
    """
    low, up, high = counts
    half = high * (p_init >= 0.5)
    if mirror:
        hits = low + 2 * half
    else:
        hits = np.where(plus_mask, up, low - up) + half
    # A fresh array: the caller adds the open relabelings' hits in place.
    return hits, low.copy()


def _score_batch(
    h: np.ndarray, r: np.ndarray, m_c: int, m_l: int, plus_mask: np.ndarray,
    thresholds: np.ndarray, p_init: np.ndarray, p_two: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row one- and two-sided rank hits of all but the true labeling.

    (h, r) are the rows' ``_exact_units``, and ``thresholds``, ``p_init``
    and ``p_two`` their ``_thresholds`` and true one- and two-sided p;
    since each is found row by row, any slice of them belongs to the
    same slice of rows.  One matrix product gives the exact sums of the
    relabelings after the true one, column 0 of the ``_partition_table``,
    and ``_sum_screen`` settles most of them from those alone;
    ``_settled_hits`` counts them per row.  Only the relabelings it
    leaves open get ``_welch_stats`` (with the ``_pair_sums`` of their
    remainders, on off-grid rows) and the t-CDF, a chunk of them at a
    time, so that the pass holds O(open) floats, not O(open x m).  Every
    comparison, and the rank, is that of the full evaluation.  When m_c
    = m_l only the P/2 relabelings that keep column 0 in the control
    group are scored: swapping the groups keeps the tail and df bit for
    bit and negates the difference, so each complement's one-sided p
    comes from the same tail with the sign flipped, and its two-sided p
    is the same.  The one-sided hits count the complements, the
    two-sided ones do not.
    """
    mirror = m_c == m_l
    scored = _scored_columns(m_c, m_l)
    others = scored - 1
    table = _partition_table(m_c + m_l, m_c)
    g = h.shape[0]
    hh = h * h
    factors = np.vstack([h, hh])
    s = h.sum(axis=1, keepdims=True)
    q = hh.sum(axis=1, keepdims=True)
    del hh
    # The sums are exact integers, whatever order a kernel adds them in.
    # OpenBLAS runs a product of at most 2^18 multiply-adds on one thread;
    # a batch's whole (2 rows x m) @ (m x P) product, run on two threads,
    # took from 0.1 to 8 ms on a 2-core host, against 0.2 ms in blocks.
    # Slices of the cached table are views; a copy of all its other
    # columns would outweigh the batch at m = 20.
    sums = np.empty((2 * g, others))
    block = max(1, 2**18 // factors.size)
    for start in range(1, scored, block):
        stop = min(start + block, scored)
        np.matmul(factors, table[:, start:stop], out=sums[:, start - 1 : stop - 1])
    del factors
    off_grid = r.any(axis=1)
    counts, open_ = _sum_screen(
        sums[:g], sums[g:], s, q, off_grid, m_c, m_l, thresholds
    )
    pairs = np.flatnonzero(open_)
    del open_
    hits, hits_two = _settled_hits(counts, plus_mask, p_init, mirror)

    remainders = off_grid.any()
    step = max(1, g * _batch_columns(m_c, m_l) // (2 * (m_c + m_l) + 12))
    for start in range(0, pairs.size, step):
        chunk = pairs[start : start + step]
        rows, cols = np.divmod(chunk, others)
        pair_sums = None
        if remainders:
            terms = _remainder_columns(h.take(rows, axis=0), r.take(rows, axis=0))
            pair_sums = _pair_sums(terms, table.take(cols + 1, axis=1))
            del terms
        d, x, df, degenerate = _welch_stats(
            sums.take(chunk), sums.take(chunk + g * others), s[rows, 0], q[rows, 0],
            m_c, m_l, pair_sums,
        )
        del pair_sums
        tail = _tails.stdtr(df, x)
        del df, x
        signed = np.where(plus_mask[rows], d, -d)
        p0 = p_init[rows]
        one = _one_sided(signed, tail, degenerate)
        hits += np.bincount(rows[one <= p0], minlength=g)
        if mirror:
            mirrored = _one_sided(-signed, tail, degenerate)
            hits += np.bincount(rows[mirrored <= p0], minlength=g)
        two = _two_sided(d, tail, degenerate)
        hits_two += np.bincount(rows[two <= p_two[rows]], minlength=g)
    return hits, hits_two


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
    DomainError
        If ``m_c`` or ``m_l`` is not a whole number, or ``sign`` is
        neither ``plus`` nor ``minus``.
    ContractError
        If the group sizes are below one or disagree with the pooled
        sample, and also when the table of partitions exceeds its
        memory budget (in which case subsample the columns; there is no
        Monte Carlo fallback).
    ValidationError
        If a value is not finite, or the values span more than the float
        range.
    """
    m_c, m_l = whole_number("m_c", m_c, DomainError), whole_number("m_l", m_l, DomainError)
    if m_c < 1 or m_l < 1:
        raise ContractError(f"need m_c, m_l >= 1, got {m_c}, {m_l}")
    values = _check_sample("control_low_values", control_low_values, 2)
    if _wide_rows(values[None, :]).size:
        raise ValidationError(
            "sample 'control_low_values' spans more than the float range"
        )
    if values.size != m_c + m_l:
        raise ContractError(
            f"pooled sample has {values.size} values but m_c + m_l = {m_c + m_l}"
        )
    plus = np.array([_as_sign(sign) is Sign.PLUS])
    rank = _permutation_rows(values[None, :], m_c, m_l, plus)[1]
    return float(rank[0] / math.comb(m_c + m_l, m_c))


def high_dose_ordering(
    matrix: ExpressionMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank genes by two-sided high-dose-versus-rest evidence.

    The p-value compares the high-dose columns against the pooled
    control and low-dose columns.  Returns (order, p_high, plus) in
    tested order, sorted by p ascending with ties kept in input order:
    ``order[j]`` is the input row of the j-th tested gene, ``p_high[j]``
    its p-value, and ``plus[j]`` is true where its high-dose mean was at
    least the pooled mean.
    """
    high = matrix.columns(Group.HIGH)
    rest = matrix.columns(Group.CONTROL, Group.LOW)
    if high.shape[1] < 2 or rest.shape[1] < 2:
        raise ContractError(
            "high-dose ordering needs at least 2 high-dose columns and "
            "2 other columns"
        )
    h, r = _exact_units(np.hstack([rest, high]))
    diff, _, _, _, p_high = _true_labeling(h, r, rest.shape[1], high.shape[1], True)
    order = np.argsort(p_high, kind="stable")
    return order, p_high[order], diff[order] >= 0.0


@dataclass(frozen=True, eq=False)
class PipelineResult:
    """Per-gene arrays in tested order plus the discovery-count table.

    Entry j of each read-only array belongs to the j-th tested gene:
    ``order`` holds its input row, ``p_high`` and ``plus`` its
    ``high_dose_ordering`` p-value and sign, ``p_init`` its one-sided
    low-dose Welch p-value in that direction, ``rank`` the intp count
    k in [1, P] of the P relabelings whose p is at most ``p_init``, and
    ``p_final`` its permutation p-value k / P.  ``columns`` holds the
    table's method, alpha and discoveries columns, method-major;
    ``rows`` gives the same table as row tuples.
    """

    order: np.ndarray
    p_high: np.ndarray
    plus: np.ndarray
    p_init: np.ndarray
    rank: np.ndarray
    p_final: np.ndarray
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


def run_pipeline(
    matrix: ExpressionMatrix,
    methods: Optional[Sequence[Method]] = None,
    alpha_grid: Sequence[float] = DEFAULT_DOSAGE_ALPHAS,
    include_baselines: bool = True,
) -> PipelineResult:
    """Rank genes, calibrate p-values, run every method, and tabulate counts.

    The result holds each gene's input row, high-dose p-value and sign,
    one-sided Welch p-value, permutation rank k and p-value k/P, as
    arrays in tested order.  Accumulation methods run down the ordered
    genes and report their cutoff position as the discovery count.  A
    method reads its h at k/P when h is bounded, and at k/(P+1) when h
    is infinite at 1, so that a rank of P stays finite.
    Baselines (Benjamini-Hochberg and its null-fraction-adjusted
    variant, each on both t-test and permutation two-sided p-values)
    see the same genes without the ordering.  Both kinds come from the
    permutation pass: the t-test p-value is the true labeling's.

    A level of exactly zero yields zero discoveries for every method by
    definition.  Levels must lie in [0, 1).  ``_permutation_rows`` scores
    the gene rows in batches sized so that the (rows x P) float64 arrays
    a pass holds stay within a fixed byte budget; results do not depend
    on the batch size.  The count table is built as columns, ready for a
    column-wise writer.
    """
    if methods is None:
        methods = default_methods()
    alphas = tuple(float(a) for a in alpha_grid)
    if not alphas:
        raise DomainError("alpha grid must be nonempty")
    for a in alphas:
        if not 0.0 <= a < 1.0:
            raise DomainError(f"alpha must lie in [0, 1), got {a}")
    m_c = matrix.group_size(Group.CONTROL)
    m_l = matrix.group_size(Group.LOW)
    if include_baselines and (m_c < 2 or m_l < 2):
        raise ContractError(
            "baseline t-tests need at least 2 control and 2 low-dose columns"
        )

    order, p_high, plus = high_dose_ordering(matrix)
    pooled = np.hstack([matrix.columns(Group.CONTROL), matrix.columns(Group.LOW)])
    p_init, rank, rank_two, p_t_two = _permutation_rows(pooled[order], m_c, m_l, plus)
    count = math.comb(m_c + m_l, m_c)
    p_final = rank / count
    for values in (order, p_high, plus, p_init, rank, p_final):
        values.setflags(write=False)

    levels = np.array(alphas)
    positive = levels > 0.0
    discoveries: list[int] = []
    names: list[str] = []
    for method in methods:
        names.append(method.name)
        inputs = p_final if method.spec.bounded else rank / (count + 1.0)
        counts = np.zeros(len(alphas), dtype=int)
        counts[positive] = select_cutoff(method.path(inputs), levels[positive])
        discoveries.extend(counts.tolist())

    if include_baselines:
        p_perm_two = rank_two / count
        baselines = (
            ("BH-t", bh_select, p_t_two),
            ("Storey-t", storey_select, p_t_two),
            ("BH-perm", bh_select, p_perm_two),
            ("Storey-perm", storey_select, p_perm_two),
        )
        for name, select, pvals in baselines:
            names.append(name)
            discoveries.extend(
                0 if alpha == 0.0 else select(pvals, alpha).count for alpha in alphas
            )

    columns = (
        tuple(name for name in names for _ in alphas),
        alphas * len(names),
        tuple(discoveries),
    )
    return PipelineResult(
        order, p_high, plus, p_init, rank, p_final,
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
    with open(path, newline="", encoding="utf-8-sig") as handle:
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
