"""Adaptive Simpson quadrature with explicit interval splitting.

The package integrates one kind of function: the survival function of
an alternative density, read in log coordinates, which is bounded and
smooth except at the edges of a piecewise density.  Rather than rely on
a general-purpose routine to discover those edges, the caller passes
them in and each smooth piece is integrated separately.

Integrands are array functions: they take a 1-d float array of points
and return the values there.  Refinement runs level by level, so the
integrand sees one call for the endpoints and midpoints of every piece
and then one call per level, holding the new points of every interval
still pending at that level.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

__all__ = ["integrate_with_splits"]

_DEFAULT_TOL = 1e-9
_MAX_DEPTH = 48


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def integrate_with_splits(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    splits: Iterable[float] = (),
    tol: float = _DEFAULT_TOL,
) -> float:
    """Integrate the array function ``f`` over ``[a, b]`` to absolute
    tolerance ``tol``, splitting at known awkward points.

    Interior split points partition the interval so that Simpson's rule
    is only refined on pieces where ``f`` is smooth; each piece gets an
    equal share of ``tol``.  Split points outside ``(a, b)`` are ignored,
    as are duplicates.  An interval is halved until its halves agree
    with the whole to 15 times its tolerance, which halves with every
    level, or until ``_MAX_DEPTH`` halvings; it then contributes its
    halves plus the Richardson correction.  An interval whose difference
    is not finite is accepted as it is: a NaN or infinite node value
    stays a node of every subinterval, and refining it would double the
    pending intervals at every level.

    >>> round(integrate_with_splits(np.exp, 0.0, 1.0), 10)
    1.7182818285
    """
    if b < a:
        raise ValueError(f"integration limits reversed: [{a}, {b}]")
    if b == a:
        return 0.0
    interior = sorted({float(s) for s in splits if a < s < b})
    edges = np.array([a, *interior, b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    values = np.asarray(f(np.concatenate([edges, mid])), dtype=float)
    f_edges, fm = values[: edges.size], values[edges.size :]
    fa, fb = f_edges[:-1], f_edges[1:]
    whole = _simpson(fa, fm, fb, hi - lo)
    tol = tol / lo.size
    accepted = []
    for depth in range(_MAX_DEPTH, -1, -1):
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm, frm = np.split(np.asarray(f(np.concatenate([lm, rm])), dtype=float), 2)
        left = _simpson(fa, flm, fm, mid - lo)
        right = _simpson(fm, frm, fb, hi - mid)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * tol) | ~np.isfinite(delta) | (depth == 0)
        # Richardson extrapolation: Simpson error shrinks 16-fold per halving.
        accepted.append(left[done] + right[done] + delta[done] / 15.0)
        pending = ~done
        if not pending.any():
            break
        # Both halves of every pending interval go on to the next level.
        lo, mid, hi, fa, fm, fb, whole = np.hstack(
            [
                np.stack([lo, lm, mid, fa, flm, fm, left])[:, pending],
                np.stack([mid, rm, hi, fm, frm, fb, right])[:, pending],
            ]
        )
        tol *= 0.5
    # Summed exactly, so the order in which intervals are kept is immaterial.
    return math.fsum(np.concatenate(accepted))
