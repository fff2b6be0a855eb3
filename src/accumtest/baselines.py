"""Benjamini-Hochberg and Storey selection over unordered p-values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .seqtest import OrderedPValues

__all__ = ["RejectionSet", "bh_select", "storey_select"]


@dataclass(frozen=True)
class RejectionSet:
    """Outcome of a multiple-testing procedure on an unordered list.

    ``count`` hypotheses are rejected, namely those at ``indices``
    (original positions, ascending p within ties by position).
    """

    count: int
    indices: tuple[int, ...]


def _step_up(pvals: np.ndarray, alpha: float, denominator: float) -> RejectionSet:
    n = pvals.size
    order = np.argsort(pvals, kind="stable")
    sorted_p = pvals[order]
    ranks = np.arange(1, n + 1)
    passing = np.nonzero(sorted_p <= alpha * ranks / denominator)[0]
    if passing.size == 0:
        return RejectionSet(count=0, indices=())
    k = int(passing[-1]) + 1
    return RejectionSet(count=k, indices=tuple(int(i) for i in order[:k]))


def bh_select(pvals, alpha: float) -> RejectionSet:
    """Step-up selection at level alpha.

    Sorts ascending and finds the largest k with p_(k) <= alpha * k / n;
    the k smallest p-values are rejected.  Ties are broken by original
    index so output is deterministic.
    """
    arr = OrderedPValues(pvals).values
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return _step_up(arr, alpha, float(arr.size))


def storey_select(pvals, alpha: float, lam: float = 0.9) -> RejectionSet:
    """Step-up selection with an estimated null count in the threshold.

    The number of true nulls is estimated as #{p > lam} / (1 - lam),
    clamped into [1, n], and replaces n in the step-up comparison.
    Since the clamp keeps the estimate at most n, the result always
    contains the plain step-up rejections.
    """
    arr = OrderedPValues(pvals).values
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")
    n = arr.size
    m0 = np.count_nonzero(arr > lam) / (1.0 - lam)
    m0 = min(float(n), max(1.0, m0))
    return _step_up(arr, alpha, m0)
