"""Accumulation functions and their integrals.

An accumulation function is a nonnegative function ``h`` on ``[0, 1]``
whose integral is 1.  Applied to a list of ordered p-values and averaged
cumulatively, it yields a running estimate of the false discovery
proportion; the choice of ``h`` trades robustness for power.  Four
families are provided:

* ``ForwardStop``: ``h(t) = log(1/(1-t))``, unbounded as t -> 1.
* ``SeqStep``: ``h(t) = C * 1{t > 1 - 1/C}``, a single step of height C.
* ``HingeExp``: ``h(t) = C * log(1/(C(1-t))) * 1{t > 1 - 1/C}``, a
  log-shaped ramp above the same threshold, unbounded as t -> 1.
* ``PiecewiseConstant``: user-supplied levels on a partition of
  ``[0, 1]``, the only custom family.  Restricting custom shapes to
  piecewise-constant keeps every spec serializable, so any run can be
  reproduced from its textual description.

Each family's h is written once, as the array evaluator behind
:func:`evaluate`, and the integrals hand that same evaluator to the
adaptive Simpson quadrature, which calls it on one array per refinement
level, with explicit splits at the step/hinge points.  The unbounded
families have an integrable logarithmic singularity at t=1, handled by
stopping the numeric sweep at ``1 - 1e-12`` and adding a closed-form
tail for ``A + B*log(1/(1-t))``, which both families match near 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Union

import numpy as np

from ._pieces import (
    Piece,
    interior_edges,
    normalize_pieces,
    piece_levels_at,
    piece_total,
)
from .densities import AlternativeDensity
from .errors import DomainError, ValidationError
from .quadrature import integrate_with_splits

__all__ = [
    "Family",
    "AccumulationSpec",
    "forward_stop",
    "seq_step",
    "hinge_exp",
    "piecewise_constant",
    "evaluate",
    "unit_integral",
    "truncated_integral",
    "nonnull_mean",
    "parse_spec",
    "format_spec",
]

QUAD_TOL = 1e-9
_SING_INSET = 1e-12
_UNIT_TOL = 1e-9


class Family(enum.Enum):
    """The accumulation-function families."""

    FORWARD_STOP = "forwardstop"
    SEQ_STEP = "seqstep"
    HINGE_EXP = "hingeexp"
    PIECEWISE = "piecewise"


@dataclass(frozen=True)
class AccumulationSpec:
    """Immutable description of one accumulation function.

    Attributes
    ----------
    family : Family
        Which functional family this spec belongs to.
    c_param : float or None
        Step height / hinge scale ``C``; required (and > 1) for
        ``SEQ_STEP`` and ``HINGE_EXP``, absent otherwise.
    pieces : tuple of (lo, hi, level) or None
        Partition levels for the ``PIECEWISE`` family only.  Levels
        must be nonnegative and integrate to 1.
    """

    family: Family
    c_param: float | None = None
    pieces: tuple[Piece, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        fam = self.family
        if fam in (Family.SEQ_STEP, Family.HINGE_EXP):
            if self.c_param is None:
                raise DomainError(f"{fam.value} requires the C parameter")
            c = float(self.c_param)
            if not math.isfinite(c) or c <= 1.0:
                raise DomainError(f"{fam.value} requires C > 1, got {self.c_param}")
            object.__setattr__(self, "c_param", c)
            if self.pieces is not None:
                raise ValidationError(f"{fam.value} takes no piece list")
        elif fam is Family.FORWARD_STOP:
            if self.c_param is not None or self.pieces is not None:
                raise ValidationError("forwardstop takes no parameters")
        elif fam is Family.PIECEWISE:
            if self.c_param is not None:
                raise ValidationError("piecewise takes no C parameter")
            if self.pieces is None:
                raise ValidationError("piecewise requires a piece list")
            normalized = normalize_pieces(self.pieces)
            total = piece_total(normalized)
            if abs(total - 1.0) > _UNIT_TOL:
                raise ValidationError(
                    f"piecewise levels integrate to {total:.12g}, expected 1"
                )
            object.__setattr__(self, "pieces", normalized)
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown family {fam!r}")

    @property
    def bounded(self) -> bool:
        """Whether sup h is finite (False for the log-singular families)."""
        return self.family in (Family.SEQ_STEP, Family.PIECEWISE)


def forward_stop() -> AccumulationSpec:
    return AccumulationSpec(Family.FORWARD_STOP)


def seq_step(c: float) -> AccumulationSpec:
    return AccumulationSpec(Family.SEQ_STEP, c_param=c)


def hinge_exp(c: float) -> AccumulationSpec:
    return AccumulationSpec(Family.HINGE_EXP, c_param=c)


def piecewise_constant(pieces) -> AccumulationSpec:
    return AccumulationSpec(Family.PIECEWISE, pieces=tuple(tuple(p) for p in pieces))


def _eval_array(spec: AccumulationSpec, t: np.ndarray) -> np.ndarray:
    fam = spec.family
    if fam is Family.FORWARD_STOP:
        with np.errstate(divide="ignore"):
            return -np.log1p(-t)
    if fam is Family.SEQ_STEP:
        c = spec.c_param
        return np.where(t > 1.0 - 1.0 / c, c, 0.0)
    if fam is Family.HINGE_EXP:
        c = spec.c_param
        out = np.zeros_like(t)
        mask = t > 1.0 - 1.0 / c
        if mask.any():
            with np.errstate(divide="ignore"):
                out[mask] = -c * (math.log(c) + np.log1p(-t[mask]))
        return out
    return piece_levels_at(spec.pieces, t)


def evaluate(
    spec: AccumulationSpec, t: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Evaluate h at one point or elementwise over an array.

    Points must lie in ``[0, 1]``.  The unbounded families return
    ``+inf`` at t=1; that value is deliberate and flows through
    downstream cumulative sums, where it compares greater than any
    rejection threshold.

    Raises
    ------
    DomainError
        If any evaluation point falls outside ``[0, 1]``.
    """
    arr = np.asarray(t, dtype=float)
    flat = np.atleast_1d(arr)
    if flat.size == 0:
        return np.empty_like(arr)
    if np.isnan(flat).any() or flat.min() < 0.0 or flat.max() > 1.0:
        raise DomainError("evaluation points must lie in [0, 1]")
    values = _eval_array(spec, flat)
    if arr.ndim == 0:
        return float(values[0])
    return values.reshape(arr.shape)


def _kinks(spec: AccumulationSpec) -> tuple[float, ...]:
    if spec.family in (Family.SEQ_STEP, Family.HINGE_EXP):
        return (1.0 - 1.0 / spec.c_param,)
    if spec.family is Family.PIECEWISE:
        return interior_edges(spec.pieces)
    return ()


def _log_tail_coeffs(spec: AccumulationSpec) -> tuple[float, float]:
    """Coefficients (A, B) with h(t) = A + B*log(1/(1-t)) near t=1."""
    if spec.family is Family.FORWARD_STOP:
        return 0.0, 1.0
    if spec.family is Family.HINGE_EXP:
        c = spec.c_param
        return -c * math.log(c), c
    raise ValidationError("log tail only defined for the unbounded families")


def _log_tail_integral(a_coef: float, b_coef: float, s: float) -> float:
    """Exact integral of A + B*log(1/(1-t)) over [1-s, 1]."""
    if s <= 0.0:
        return 0.0
    return a_coef * s + b_coef * s * (1.0 - math.log(s))


def unit_integral(spec: AccumulationSpec, tol: float = QUAD_TOL) -> float:
    """Quadrature of the full integral of h over [0, 1].

    Exists to validate specs numerically; every well-formed spec should
    return 1 within ``tol``.
    """
    h = partial(_eval_array, spec)
    splits = _kinks(spec)
    if spec.bounded:
        return integrate_with_splits(h, 0.0, 1.0, splits, tol)
    a_coef, b_coef = _log_tail_coeffs(spec)
    body = integrate_with_splits(h, 0.0, 1.0 - _SING_INSET, splits, tol)
    return body + _log_tail_integral(a_coef, b_coef, _SING_INSET)


def truncated_integral(
    spec: AccumulationSpec, cap: float, tol: float = QUAD_TOL
) -> float:
    """Integral of min(h(t), cap) over [0, 1].

    Equals 1 whenever ``cap`` dominates h everywhere.  For the
    unbounded families the crossing point of h with the cap is known in
    closed form, so the flat capped segment near 1 is integrated
    exactly and no singular region is ever swept numerically.

    Raises
    ------
    DomainError
        If ``cap`` is not a positive finite real.
    """
    cap = float(cap)
    if not math.isfinite(cap) or cap <= 0.0:
        raise DomainError(f"cap must be positive and finite, got {cap}")
    h = partial(_eval_array, spec)
    if spec.bounded:
        capped = lambda t: np.minimum(h(t), cap)
        return integrate_with_splits(capped, 0.0, 1.0, _kinks(spec), tol)

    # Unbounded families increase toward +inf, so h <= cap exactly on
    # [0, t_star] where h(t_star) = cap.
    if spec.family is Family.FORWARD_STOP:
        s_star = math.exp(-cap)
    else:
        c = spec.c_param
        s_star = math.exp(-cap / c) / c
    a_coef, b_coef = _log_tail_coeffs(spec)
    if s_star >= _SING_INSET:
        body = integrate_with_splits(h, 0.0, 1.0 - s_star, _kinks(spec), tol)
        return body + cap * s_star
    body = integrate_with_splits(h, 0.0, 1.0 - _SING_INSET, _kinks(spec), tol)
    between = _log_tail_integral(a_coef, b_coef, _SING_INSET) - _log_tail_integral(
        a_coef, b_coef, s_star
    )
    return body + between + cap * s_star


def nonnull_mean(
    spec: AccumulationSpec,
    density: AlternativeDensity,
    tol: float = QUAD_TOL,
) -> float:
    """Mean of h(p) when p is drawn from ``density``.

    This is the quantity that governs asymptotic power: smaller means
    indicate that the accumulation function assigns little mass to
    p-values typical under the alternative.  Computed as the quadrature
    of ``h * pdf`` with splits at every kink of either factor.

    The stated tolerance is guaranteed when the density is bounded near
    the endpoints; densities that blow up at 0 or 1 are integrated from
    an inset of 1e-12 with a first-order tail correction, which is
    best-effort rather than certified.
    """
    h = partial(_eval_array, spec)
    pdf = density.pdf
    splits = sorted(set(_kinks(spec)) | set(density.kinks()))

    lo = 0.0
    left_tail = 0.0
    if density.unbounded_at_zero():
        lo = _SING_INSET
        left_tail = evaluate(spec, 0.5 * lo) * float(density.cdf(lo))

    hi = 1.0
    right_tail = 0.0
    if not spec.bounded:
        hi = 1.0 - _SING_INSET
        a_coef, b_coef = _log_tail_coeffs(spec)
        right_tail = float(pdf(hi)) * _log_tail_integral(a_coef, b_coef, _SING_INSET)
    elif density.unbounded_at_one():
        hi = 1.0 - _SING_INSET
        right_tail = evaluate(spec, 1.0 - 0.5 * _SING_INSET) * float(
            1.0 - density.cdf(hi)
        )

    integrand = lambda t: h(t) * pdf(t)
    body = integrate_with_splits(integrand, lo, hi, splits, tol)
    return body + left_tail + right_tail


def format_spec(spec: AccumulationSpec) -> str:
    """Render a spec in the textual form accepted by :func:`parse_spec`."""
    fam = spec.family
    if fam is Family.FORWARD_STOP:
        return "forwardstop"
    if fam in (Family.SEQ_STEP, Family.HINGE_EXP):
        return f"{fam.value}:C={spec.c_param:.17g}"
    body = ";".join(
        f"{lo:.17g},{hi:.17g},{level:.17g}" for lo, hi, level in spec.pieces
    )
    return f"piecewise:{body}"


def parse_spec(text: str) -> AccumulationSpec:
    """Parse a textual accumulation-function description.

    Accepted forms::

        forwardstop
        seqstep:C=2
        hingeexp:C=2.5
        piecewise:0,0.5,0.4;0.5,1,1.6

    Raises
    ------
    ValidationError
        If the text does not match any known form.
    """
    text = text.strip()
    if text == "forwardstop":
        return forward_stop()
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValidationError(f"unknown accumulation function {text!r}")
    if head in ("seqstep", "hingeexp"):
        if not rest.startswith("C="):
            raise ValidationError(f"{head} expects C=<value>, got {rest!r}")
        try:
            c = float(rest[2:])
        except ValueError as exc:
            raise ValidationError(f"bad C value in {text!r}") from exc
        family = Family.SEQ_STEP if head == "seqstep" else Family.HINGE_EXP
        return AccumulationSpec(family, c_param=c)
    if head == "piecewise":
        pieces = []
        for chunk in rest.split(";"):
            parts = chunk.split(",")
            if len(parts) != 3:
                raise ValidationError(f"bad piece {chunk!r} in {text!r}")
            try:
                pieces.append(tuple(float(v) for v in parts))
            except ValueError as exc:
                raise ValidationError(f"bad piece {chunk!r} in {text!r}") from exc
        return AccumulationSpec(Family.PIECEWISE, pieces=tuple(pieces))
    raise ValidationError(f"unknown accumulation function {text!r}")
