"""Estimated-FDP paths with adaptive cutoffs and ground-truth error metrics.

The core object is the running estimate

    path[k] = (1/k) * sum_{i <= k} h(p_i),        k = 1..n,

computed over p-values already arranged in their a-priori order.  The
selected cutoff is the largest k whose path entry does not exceed the
target level alpha; everything before it is rejected.  A conservative
variant inflates the estimate to (c + sum h) / (1 + k) before
thresholding.  A ``Method`` names one accumulation function together
with the rule applied to it.  Paths are stored as plain float arrays
where index j corresponds to position k = j + 1; entries may be +inf
when the accumulation function is unbounded and some p-value equals 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .accumfn import AccumulationSpec, evaluate, forward_stop, hinge_exp, seq_step
from .errors import ContractError, DomainError, ValidationError, whole_number

__all__ = [
    "Rule",
    "OrderedPValues",
    "CutoffResult",
    "Method",
    "default_methods",
    "estimated_fdp_path",
    "estimated_fdp_path_plus",
    "select_cutoff",
    "run_accumulation_test",
    "fdp",
    "mfdp",
    "power_of_cutoff",
    "shift_discrete_pvalues",
]

_GRID_TOL = 1e-12


class Rule(enum.Enum):
    """Cutoff rule: the plain estimate or its conservative variant."""

    PLAIN = "plain"
    PLUS = "plus"


def check_unit_interval(values: np.ndarray) -> None:
    """Raise ``ValidationError`` unless every p-value lies in [0, 1]."""
    if np.isnan(values).any() or values.min() < 0.0 or values.max() > 1.0:
        raise ValidationError("p-values must lie in [0, 1]")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class OrderedPValues:
    """P-values in their fixed a-priori order, optionally with truth labels.

    Attributes
    ----------
    values : ndarray of float
        p-values, each in [0, 1]; position i is rank i + 1.
    null_mask : ndarray of bool, optional
        True where the hypothesis is truly null.  Needed only for the
        error metrics, never for running a test.
    """

    values: np.ndarray
    null_mask: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("p-values must form a nonempty 1-d sequence")
        check_unit_interval(values)
        object.__setattr__(self, "values", _frozen(values))
        if self.null_mask is not None:
            mask = np.asarray(self.null_mask)
            if mask.dtype != np.bool_:
                raise ValidationError("null_mask must be boolean")
            if mask.shape != values.shape:
                raise ValidationError("null_mask length must match the p-values")
            object.__setattr__(self, "null_mask", _frozen(mask))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class CutoffResult:
    """Outcome of one accumulation test.

    ``k_hat`` positions are rejected; ``fdp_hat_path[j]`` is the
    estimate at k = j + 1 under the rule that was applied.
    """

    k_hat: int
    fdp_hat_path: np.ndarray
    rule: Rule
    alpha: float
    c_param: Optional[float] = None


PValueInput = Union[OrderedPValues, Sequence[float], np.ndarray]


def _as_values(pvals: PValueInput) -> np.ndarray:
    """One list's p-values, or a 2-d block of lists of equal length, one per row."""
    if isinstance(pvals, OrderedPValues):
        return pvals.values
    values = np.asarray(pvals, dtype=float)
    if values.ndim != 2:
        return OrderedPValues(values).values
    if values.size == 0:
        raise DomainError("a block of p-value lists must be nonempty")
    check_unit_interval(values)
    return values


def estimated_fdp_path(pvals: PValueInput, spec: AccumulationSpec) -> np.ndarray:
    """Running mean of h over the ordered p-values.

    Returns the array of (1/k) * sum_{i<=k} h(p_i) for k = 1..n, taken
    along the last axis, so a 2-d block gives one path per row.
    """
    sums = np.cumsum(evaluate(spec, _as_values(pvals)), axis=-1)
    return _fdp_path(sums, None, out=sums)


def _plus_constant(c: float) -> float:
    c = float(c)
    if not c >= 0.0:
        raise DomainError(f"plus-rule constant must be nonnegative, got {c}")
    return c


def estimated_fdp_path_plus(
    pvals: PValueInput, spec: AccumulationSpec, c: float
) -> np.ndarray:
    """Conservative variant: (c + sum_{i<=k} h(p_i)) / (1 + k) for k = 1..n.

    Like :func:`estimated_fdp_path`, a 2-d block gives one path per row.
    """
    c = _plus_constant(c)
    sums = np.cumsum(evaluate(spec, _as_values(pvals)), axis=-1)
    return _fdp_path(sums, c, out=sums)


def _fdp_path(
    sums: np.ndarray, c: Optional[float], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The path from the running sums of h along the last axis.

    That is sums / k when ``c`` is None and (c + sums) / (1 + k) for the
    plus rule.  ``out`` may be ``sums`` itself.
    """
    k = np.arange(1, sums.shape[-1] + 1, dtype=float)
    if c is None:
        return np.divide(sums, k, out=out)
    out = np.add(sums, c, out=out)
    return np.divide(out, 1.0 + k, out=out)


def _alpha_levels(alpha: Union[float, Sequence[float], np.ndarray]) -> np.ndarray:
    """``alpha`` as an array of levels, refused unless each lies in (0, 1)."""
    levels = np.asarray(alpha, dtype=float)
    if levels.ndim > 1:
        raise DomainError("alpha must be one level or a 1-d sequence of levels")
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return levels


def select_cutoff(
    path: Union[Sequence[float], np.ndarray],
    alpha: Union[float, Sequence[float], np.ndarray],
) -> Union[int, np.ndarray]:
    """Largest k with path[k] <= alpha, scanning every position.

    The scan is deliberately not first-crossing: a path may dip back
    under alpha after exceeding it, and the largest such k wins.  Ties
    at exactly alpha count as rejections, NaN entries never do.  Returns
    0 when no position qualifies.

    ``path`` is one path (1-d) or a block of paths, one per row (2-d).
    ``alpha`` is one level or a 1-d sequence of levels.  A 1-d path
    gives an ``int`` for one level and an int array with one cutoff per
    level for a sequence; a 2-d path gives int arrays of shape
    ``(rows,)`` and ``(rows, levels)``.
    """
    levels = _alpha_levels(alpha)
    arr = np.asarray(path, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise DomainError("path must be a nonempty 1-d sequence or 2-d block of paths")
    # floor[..., j] = min(path[..., j:]) never decreases along the last
    # axis, and floor[..., j] <= alpha exactly when some position at or
    # after j qualifies, so the cutoff is the count of such entries: a
    # binary search for alpha from the right.  fmin skips NaN, so NaN is
    # left only in an all-NaN suffix, where searchsorted places it too.
    floor = np.empty(arr.shape)
    np.fmin.accumulate(arr[..., ::-1], axis=-1, out=floor[..., ::-1])
    rows = floor.reshape(-1, arr.shape[-1])
    flat = levels.ravel()
    cutoffs = np.empty((len(rows), flat.size), dtype=np.intp)
    for row, out in zip(rows, cutoffs):
        out[:] = row.searchsorted(flat, side="right")
    cutoffs = cutoffs.reshape(arr.shape[:-1] + levels.shape)
    return int(cutoffs) if cutoffs.ndim == 0 else cutoffs


def _as_rule(rule: Union[Rule, str]) -> Rule:
    """The ``Rule`` for ``rule``, given as a member or its string value."""
    try:
        return Rule(rule)
    except ValueError:
        choices = ", ".join(repr(r.value) for r in Rule)
        raise DomainError(f"unknown rule {rule!r}; expected one of {choices}") from None


@dataclass(frozen=True)
class Method:
    """One named rejection rule: an accumulation function plus a rule.

    ``rule`` is a ``Rule`` or its string value, resolved to the ``Rule``
    on construction; an unknown value raises ``DomainError``.  ``c`` is
    the constant of the conservative rule and defaults to the spec's own
    C parameter; it is ignored under ``Rule.PLAIN``.
    """

    name: str
    spec: AccumulationSpec
    rule: Rule = Rule.PLAIN
    c: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rule", _as_rule(self.rule))

    @property
    def plus_constant(self) -> Optional[float]:
        """The constant of the plus rule, ``c`` when given, else the
        spec's C parameter; None under ``Rule.PLAIN``.  A constant that
        is negative or NaN raises ``DomainError``."""
        if self.rule is Rule.PLAIN:
            return None
        c = self.spec.c_param if self.c is None else self.c
        if c is None:
            raise ContractError("the plus rule needs an explicit constant c")
        return _plus_constant(c)

    def path(self, pvals: PValueInput) -> np.ndarray:
        c = self.plus_constant
        if c is None:
            return estimated_fdp_path(pvals, self.spec)
        return estimated_fdp_path_plus(pvals, self.spec, c)


def default_methods(c: float = 2.0) -> tuple[Method, ...]:
    """The four standard methods at a common parameter C."""
    return (
        Method("ForwardStop", forward_stop()),
        Method("HingeExp", hinge_exp(c)),
        Method("SeqStep", seq_step(c)),
        Method("SeqStep+", seq_step(c), rule=Rule.PLUS, c=c),
    )


def run_accumulation_test(
    pvals: PValueInput,
    spec: AccumulationSpec,
    alpha: float,
    rule: Union[Rule, str] = Rule.PLAIN,
    c: Optional[float] = None,
) -> CutoffResult:
    """Build the path for the requested rule and select the cutoff.

    ``rule`` is a ``Rule`` or its string value, ``"plain"`` or
    ``"plus"``.  For the plus rule the constant defaults to the spec's C
    parameter; accumulation functions without one must supply ``c``
    explicitly.

    Raises
    ------
    DomainError
        If ``rule`` names no rule.
    """
    method = Method("", spec, rule, c)
    path = method.path(pvals)
    k_hat = select_cutoff(path, alpha)
    return CutoffResult(
        k_hat=k_hat,
        fdp_hat_path=path,
        rule=method.rule,
        alpha=float(alpha),
        c_param=method.plus_constant,
    )


def _check_k(k: int, n: int) -> int:
    k = whole_number("k", k, DomainError)
    if not 0 <= k <= n:
        raise DomainError(f"k must lie in [0, {n}], got {k}")
    return k


def _require_mask(null_mask) -> np.ndarray:
    if null_mask is None:
        raise ContractError("ground-truth null_mask is required for this metric")
    mask = np.asarray(null_mask)
    if mask.dtype != np.bool_ or mask.ndim != 1:
        raise ValidationError("null_mask must be a 1-d boolean sequence")
    return mask


def fdp(k: int, null_mask) -> float:
    """False discovery proportion among the first k positions, 0 at k=0."""
    mask = _require_mask(null_mask)
    k = _check_k(k, mask.size)
    if k == 0:
        return 0.0
    return float(np.count_nonzero(mask[:k])) / k


def _mfdp_constant(c: float) -> float:
    c = float(c)
    if not c >= 0.0:
        raise DomainError(f"mfdp constant must be nonnegative, got {c}")
    return c


def mfdp(k: int, null_mask, c: float) -> float:
    """Modified FDP with c added to the denominator: false / (c + k)."""
    c = _mfdp_constant(c)
    mask = _require_mask(null_mask)
    k = _check_k(k, mask.size)
    if k == 0:
        return 0.0
    return float(np.count_nonzero(mask[:k])) / (c + k)


def power_of_cutoff(k: int, null_mask) -> float:
    """Fraction of all non-nulls that fall within the first k positions."""
    mask = _require_mask(null_mask)
    k = _check_k(k, mask.size)
    total = int(np.count_nonzero(~mask))
    if total == 0:
        raise ContractError("power is undefined without any non-null hypothesis")
    return float(np.count_nonzero(~mask[:k])) / total


def _grid_size(grid_size: int) -> int:
    grid_size = whole_number("grid_size", grid_size, ValidationError)
    if not 1 <= grid_size < 2**53:
        raise ValidationError(f"grid_size must lie in [1, 2^53), got {grid_size}")
    return grid_size


def shift_discrete_pvalues(pvals: PValueInput, grid_size: int) -> OrderedPValues:
    """Remap grid p-values k/G to k/(G+1), clearing exact ones.

    Permutation tests emit p-values on the exact grid {1/G, ..., G/G}.
    The value 1 makes unbounded accumulation functions infinite, so
    this utility nudges every grid point down by one denominator step.
    The transformation is offered separately rather than applied
    silently, because it slightly perturbs the distributional
    guarantees.  It serves ``accumtest test --shift-grid`` and the
    self-check of ``accumtest validate``; the dosage pipeline keeps its
    ranks as integers and divides them by G + 1 itself.

    Raises
    ------
    ValidationError
        If any value is farther than 1e-12 from the grid, or grid_size
        is not a whole number from 1 to 2^53 - 1, past which k/(G+1)
        rounds to k/G.
    """
    grid_size = _grid_size(grid_size)
    mask = pvals.null_mask if isinstance(pvals, OrderedPValues) else None
    values = _as_values(pvals)
    numerators = np.rint(values * grid_size)
    if np.max(np.abs(values * grid_size - numerators)) > _GRID_TOL * grid_size:
        raise ValidationError("p-values are not on the stated grid")
    if numerators.min() < 1 or numerators.max() > grid_size:
        raise ValidationError("grid numerators must lie in [1, grid_size]")
    shifted = numerators / (grid_size + 1.0)
    return OrderedPValues(shifted, null_mask=mask)
