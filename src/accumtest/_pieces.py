"""Piece and knot lists, and functions on [0, 1]: their one owner.

Shared by the piecewise accumulation-function family, the piecewise
alternative density and the signal curves; ``unit_points`` and ``shaped``
serve every function evaluated at points of [0, 1].  A piece list is a
sequence of ``(lo, hi, level)`` triples that must tile ``[0, 1]`` from 0
to 1 and integrate to 1 within ``_UNIT_TOL`` by ``piece_total``, the one
step integral.  Each piece is half-open ``[lo, hi)`` except the last.
As text, piece and knot lists share one grammar (``parse_rows``): rows
split on ``;`` and numbers on ``,``, read by ``float()``, written ``%.17g``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ValidationError

Piece = tuple[float, float, float]

_EDGE_TOL = 1e-12
_UNIT_TOL = 1e-9


def unit_pieces(pieces: Iterable[Sequence[float]]) -> tuple[Piece, ...]:
    """Validate a piece list of unit mass; return it as canonical floats."""
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
    total = piece_total(out)
    if abs(total - 1.0) > _UNIT_TOL:
        raise ValidationError(f"piecewise levels integrate to {total:.12g}, expected 1")
    return tuple(out)


def piece_total(pieces: Iterable[Piece]) -> float:
    """Exact integral of the piecewise function, fsum of level * width."""
    return math.fsum(level * (hi - lo) for lo, hi, level in pieces)


def parse_rows(text: str, body: str, width: int, what: str) -> list[tuple[float, ...]]:
    """The rows of ``body``, ``width`` numbers each; the first row that is
    not raises ``ValidationError`` "bad <what> <row> in <text>"."""
    rows = []
    for chunk in body.split(";"):
        try:
            row = tuple(float(v) for v in chunk.split(","))
        except ValueError:
            row = ()
        if len(row) != width:
            raise ValidationError(f"bad {what} {chunk!r} in {text!r}")
        rows.append(row)
    return rows


def format_rows(rows: Iterable[Sequence[float]]) -> str:
    """The text of a list of rows, as :func:`parse_rows` reads it."""
    return ";".join(",".join("%.17g" % v for v in row) for row in rows)


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
