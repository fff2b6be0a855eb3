"""Validation and evaluation helpers for piecewise-constant functions on [0,1].

Shared by the piecewise accumulation-function family and the piecewise
alternative density; ``unit_points`` and ``shaped`` serve every function
evaluated at points of [0, 1].  A piece list is a sequence of
``(lo, hi, level)`` triples that must tile ``[0, 1]`` contiguously from
0 to 1.  Each piece is half-open ``[lo, hi)`` except the last, which is
closed at 1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

Piece = tuple[float, float, float]

_EDGE_TOL = 1e-12


def normalize_pieces(pieces: Iterable[Sequence[float]]) -> tuple[Piece, ...]:
    """Validate a piece list and return it as a canonical tuple of floats."""
    out: list[Piece] = []
    for item in pieces:
        if len(item) != 3:
            raise ValidationError(f"piece must be (lo, hi, level), got {item!r}")
        lo, hi, level = (float(v) for v in item)
        if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(level)):
            raise DomainError(f"piece values must be finite, got {item!r}")
        if not (0.0 <= lo < hi <= 1.0):
            raise DomainError(f"piece interval [{lo}, {hi}) must nest inside [0, 1]")
        if level < 0.0:
            raise DomainError(f"piece level must be nonnegative, got {level}")
        out.append((lo, hi, level))
    if not out:
        raise ValidationError("piece list is empty")
    out.sort(key=lambda p: p[0])
    if abs(out[0][0]) > _EDGE_TOL or abs(out[-1][1] - 1.0) > _EDGE_TOL:
        raise ValidationError("pieces must start at 0 and end at 1")
    for left, right in zip(out[:-1], out[1:]):
        if abs(left[1] - right[0]) > _EDGE_TOL:
            raise ValidationError(
                f"pieces must be contiguous; gap between {left[1]} and {right[0]}"
            )
    return tuple(out)


def piece_total(pieces: Sequence[Piece]) -> float:
    """Exact integral of the piecewise function, sum of level * width."""
    return float(sum(level * (hi - lo) for lo, hi, level in pieces))


def interior_edges(pieces: Sequence[Piece]) -> tuple[float, ...]:
    return tuple(hi for _, hi, _ in pieces[:-1])


def piece_levels_at(pieces: Sequence[Piece], t: np.ndarray) -> np.ndarray:
    """Level of the piece containing each point of ``t`` (values in [0,1])."""
    uppers = np.array([hi for _, hi, _ in pieces])
    levels = np.array([level for _, _, level in pieces])
    idx = np.searchsorted(uppers, t, side="right")
    idx = np.minimum(idx, len(pieces) - 1)
    return levels[idx]


def unit_points(t, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``t`` as an array, and as a view of at least one dimension, checked
    to lie in [0, 1]; otherwise ``DomainError`` names ``what`` they are."""
    arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(arr)
    if flat.size and (np.isnan(flat).any() or flat.min() < 0 or flat.max() > 1):
        raise DomainError(f"{what} must lie in [0, 1]")
    return arr, flat


def shaped(out: np.ndarray, arr: np.ndarray):
    """``out``, computed on the flat points, in the shape of ``arr``: a
    float for a scalar."""
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)
