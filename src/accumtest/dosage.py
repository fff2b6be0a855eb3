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
from scipy import special

from .baselines import bh_select, storey_select
from .errors import ContractError, DomainError, ValidationError
from .seqtest import (
    Method,
    OrderedPValues,
    default_methods,
    select_cutoff,
    shift_discrete_pvalues,
)

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

_GATHER_BUDGET = 16 * 2**20


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


def _welch_core(a: np.ndarray, b: np.ndarray):
    """Welch statistic pieces for row-aligned sample matrices.

    Groups of size one are treated as having zero sample variance, the
    continuous limit used throughout the permutation engine.  Returns
    the mean difference, the t statistic, the Satterthwaite degrees of
    freedom, and a mask of rows where both spread terms vanish (the t
    statistic is undefined there and callers substitute a convention).
    """
    na, nb = a.shape[1], b.shape[1]
    mean_a = a.mean(axis=1)
    mean_b = b.mean(axis=1)
    var_a = a.var(axis=1, ddof=1) if na > 1 else np.zeros(a.shape[0])
    var_b = b.var(axis=1, ddof=1) if nb > 1 else np.zeros(b.shape[0])
    term_a = var_a / na
    term_b = var_b / nb
    se2 = term_a + term_b
    diff = mean_a - mean_b
    degenerate = se2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se2)
        df_num = se2 * se2
        df_den = np.zeros_like(se2)
        if na > 1:
            df_den += term_a * term_a / (na - 1)
        if nb > 1:
            df_den += term_b * term_b / (nb - 1)
        df = df_num / df_den
    return diff, t, df, degenerate


def _welch_rows(a: np.ndarray, b: np.ndarray, plus) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-sided Welch p-values per row from one t-CDF call.

    ``plus`` (one bool, or one per row) is true where the one-sided p
    scores mean(a) > mean(b).  With tail = stdtr(df, -|t|), the
    two-sided p is min(2 tail, 1) and the one-sided p is the tail if the
    directed difference is positive, else 1 - tail.  Rows without spread
    get one-sided 0, 1/2 or 1 as that difference is >, = or < 0, and
    two-sided 1 for equal means, else 0.
    """
    diff, t, df, degenerate = _welch_core(a, b)
    with np.errstate(invalid="ignore"):
        tail = special.stdtr(df, -np.abs(t))
    signed = np.where(plus, diff, -diff)
    one = np.where(signed > 0.0, tail, 1.0 - tail)
    two = np.minimum(2.0 * tail, 1.0)
    if degenerate.any():
        signed = signed[degenerate]
        one[degenerate] = np.where(signed > 0.0, 0.0, np.where(signed < 0.0, 1.0, 0.5))
        two[degenerate] = np.where(diff[degenerate] == 0.0, 1.0, 0.0)
    return one, two


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


@lru_cache(maxsize=32)
def _partition_table(m: int, m_first: int) -> tuple[np.ndarray, np.ndarray]:
    """Index matrices for all ways to choose ``m_first`` of ``m`` columns.

    Rows are in lexicographic order of the chosen index set, so row 0
    is the identity labeling.  Returns (chosen, complement) index
    arrays of shapes (P, m_first) and (P, m - m_first).
    """
    count = math.comb(m, m_first)
    if count > MAX_PARTITIONS:
        raise ContractError(
            f"partition count {count} exceeds {MAX_PARTITIONS}; "
            "subsample the control/low columns instead"
        )
    chosen = np.array(list(itertools.combinations(range(m), m_first)), dtype=np.intp)
    chosen = chosen.reshape(count, m_first)
    taken = np.zeros((count, m), dtype=bool)
    taken[np.arange(count)[:, None], chosen] = True
    complement = np.nonzero(~taken)[1].reshape(count, m - m_first)
    chosen.setflags(write=False)
    complement.setflags(write=False)
    return chosen, complement


def _permutation_rows(
    values: np.ndarray, m_c: int, m_l: int, plus_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-calibrate each row of ``values`` over all relabelings.

    ``values`` has one row per gene and ``m_c + m_l`` columns with the
    true control values first.  One pass scores every relabeling both
    one-sided, in the row's ``plus_mask`` direction, and two-sided.
    Returns (p_init, p_final, p_perm_two): the one-sided p under the
    true labels, its rank #{relabelings with p <= p_init} / P, and the
    same rank of the two-sided p.  Comparisons are exact since every
    side comes from the same routine.
    """
    chosen, complement = _partition_table(m_c + m_l, m_c)
    count = chosen.shape[0]
    g = values.shape[0]
    flat_control = values[:, chosen].reshape(g * count, m_c)
    flat_low = values[:, complement].reshape(g * count, m_l)
    scores = _welch_rows(flat_low, flat_control, np.repeat(plus_mask, count))
    one, two = (p.reshape(g, count) for p in scores)
    p_final = np.count_nonzero(one <= one[:, :1], axis=1) / count
    p_perm_two = np.count_nonzero(two <= two[:, :1], axis=1) / count
    return one[:, 0], p_final, p_perm_two


def _chunk_rows(count: int, m: int, chunk: Optional[int] = None) -> int:
    """Gene rows per batch: the most whose gathered values, rows * count
    * m float64s, fit in ``_GATHER_BUDGET``, at least 1, at most ``chunk``.
    """
    rows = max(1, _GATHER_BUDGET // (count * m * 8))
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
    _, p_high = _welch_rows(high, rest, True)
    diff = high.mean(axis=1) - rest.mean(axis=1)
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
    """Ordered gene records plus the discovery-count table."""

    records: tuple[GeneRecord, ...]
    rows: tuple[tuple[str, float, int], ...]
    method_names: tuple[str, ...]
    alpha_grid: tuple[float, ...]

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
    batches by one permutation pass each; batch size follows from the
    partition count so gathered values stay within a fixed byte budget,
    and ``chunk`` caps it.  Results do not depend on the batch size.
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
    rows = _chunk_rows(grid_size, m_c + m_l, chunk)
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
    rows: list[tuple[str, float, int]] = []
    names: list[str] = []
    for method in methods:
        names.append(method.name)
        inputs = plain_pvals if method.spec.bounded else shifted_pvals
        counts = np.zeros(len(alphas), dtype=int)
        counts[positive] = select_cutoff(method.path(inputs), levels[positive])
        rows.extend((method.name, alpha, int(k)) for alpha, k in zip(alphas, counts))

    if include_baselines:
        if m_c < 2 or m_l < 2:
            raise ContractError(
                "baseline t-tests need at least 2 control and 2 low-dose columns"
            )
        _, p_t_two = _welch_rows(low[row_order], control[row_order], True)
        baseline_inputs = {
            "BH-t": p_t_two,
            "Storey-t": p_t_two,
            "BH-perm": p_perm_two,
            "Storey-perm": p_perm_two,
        }
        for name in _BASELINE_NAMES:
            names.append(name)
            for alpha in alphas:
                count = (
                    0
                    if alpha == 0.0
                    else _baseline_counts(name, baseline_inputs[name], alpha)
                )
                rows.append((name, alpha, count))

    return PipelineResult(
        records=records,
        rows=tuple(rows),
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
