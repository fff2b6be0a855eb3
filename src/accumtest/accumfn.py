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
:func:`evaluate`.  SeqStep and piecewise h are step functions, so their
integrals are finite sums over :attr:`AccumulationSpec.steps`, and
``truncated_integral`` is closed form for every family.  ForwardStop and
HingeExp rise from 0 with slope C / (1 - t), so ``nonnull_mean``
integrates the density's survival function P(p > 1 - e^-s) over
s >= log C by adaptive Simpson quadrature, with a closed-form tail past
s = 700; the integrand is bounded and smooth between the density's
kinks.  ``unit_integral`` of every family is its mean under the uniform
density.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._pieces import (
    Piece,
    _UNIT_TOL,
    format_rows,
    parse_rows,
    piece_levels_at,
    piece_total,
    shaped,
    unit_pieces,
    unit_points,
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
# Where the survival-form sweep of nonnull_mean stops; exp(-700) is
# still a normal float.
_S_MAX = 700.0


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
            # h is positive only above 1 - 1/C; for large C that edge
            # rounds, and the region loses its 1/C width (all of it once
            # 1 - 1/C rounds to 1, near C = 1e16).
            width = c * (1.0 - (1.0 - 1.0 / c))
            if abs(width - 1.0) > _UNIT_TOL:
                raise DomainError(
                    f"{fam.value} C={c:g} is too large for floating point: the region "
                    f"above 1 - 1/C is {width:.12g}/C wide, not 1/C"
                )
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
            object.__setattr__(self, "pieces", unit_pieces(self.pieces))
        else:  # pragma: no cover - enum is closed
            raise ValidationError(f"unknown family {fam!r}")

    @property
    def steps(self) -> tuple[Piece, ...] | None:
        """The (lo, hi, level) pieces of h, or None when h is not a step
        function (ForwardStop, HingeExp)."""
        if self.family is Family.SEQ_STEP:
            edge = 1.0 - 1.0 / self.c_param
            return ((0.0, edge, 0.0), (edge, 1.0, self.c_param))
        if self.family is Family.PIECEWISE:
            return self.pieces
        return None

    @property
    def bounded(self) -> bool:
        """Whether sup h is finite (False for the log-singular families)."""
        return self.steps is not None


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
        # Every element takes the same steps as -c * (log(c) + log1p(-t)),
        # so no masked copy is made; the zero region is written last.
        with np.errstate(divide="ignore"):
            out = np.log1p(-t)
        out += math.log(c)
        out *= -c
        out[t <= 1.0 - 1.0 / c] = 0.0
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
    arr, flat = unit_points(t, "evaluation points")
    return shaped(_eval_array(spec, flat), arr)


def unit_integral(spec: AccumulationSpec) -> float:
    """Full integral of h over [0, 1]: the mean of h(p) under the uniform
    density, exact for step functions and otherwise to ``QUAD_TOL``.

    Exists to validate specs numerically; every well-formed spec should
    return 1.
    """
    return nonnull_mean(spec, AlternativeDensity.uniform())


def truncated_integral(spec: AccumulationSpec, cap: float) -> float:
    """Integral of min(h(t), cap) over [0, 1], in closed form.

    A step function gives the sum of min(level, cap) times width.
    ForwardStop and HingeExp give ``1 - exp(-cap/C)``, with C = 1 for
    ForwardStop: HingeExp is ForwardStop squeezed into the top 1/C of
    [0, 1] and scaled by C.  Equals 1 whenever ``cap`` dominates h
    everywhere.

    Raises
    ------
    DomainError
        If ``cap`` is not a positive finite real.
    """
    cap = float(cap)
    if not math.isfinite(cap) or cap <= 0.0:
        raise DomainError(f"cap must be positive and finite, got {cap}")
    steps = spec.steps
    if steps is not None:
        return piece_total((lo, hi, min(level, cap)) for lo, hi, level in steps)
    c = 1.0 if spec.family is Family.FORWARD_STOP else spec.c_param
    return -math.expm1(-cap / c)


def nonnull_mean(spec: AccumulationSpec, density: AlternativeDensity) -> float:
    """Mean of h(p) when p is drawn from ``density``.

    This is the quantity that governs asymptotic power: smaller means
    indicate that the accumulation function assigns little mass to
    p-values typical under the alternative.

    A step function gives the exact sum of level times
    ``cdf(hi) - cdf(lo)`` over its pieces.  ForwardStop and HingeExp rise
    from h = 0 at t = 1 - 1/C with h'(t) = C / (1 - t) (C = 1 for
    ForwardStop), so E[h(p)] = int h'(t) P(p > t) dt.  With
    t = 1 - exp(-s) and G(u) = P(p > 1 - u) this is
    ``C * int_{log C}^inf G(exp(-s)) ds``, whose integrand lies in
    [0, 1] and is smooth between the density's kinks: no singularity is
    left.  The sweep stops at s = 700 and adds the rest,
    ``G(exp(-700)) / k``, where G(u) is a constant times u**k up to a
    relative O(u) (``density.upper_tail_power`` gives k).  The
    quadrature runs to ``QUAD_TOL / C``, so that C times it meets
    ``QUAD_TOL``.
    """
    steps = spec.steps
    if steps is not None:
        edges = density.cdf(np.array([(lo, hi) for lo, hi, _ in steps]))
        return piece_total(zip(*edges.T, (level for _, _, level in steps)))
    c = 1.0 if spec.family is Family.FORWARD_STOP else spec.c_param
    integrand = lambda s: density.upper_tail(np.exp(-s))
    kinks = [-math.log1p(-x) for x in density.kinks()]
    body = integrate_with_splits(integrand, math.log(c), _S_MAX, kinks, QUAD_TOL / c)
    tail = float(density.upper_tail(math.exp(-_S_MAX))) / density.upper_tail_power
    return c * (body + tail)


def format_spec(spec: AccumulationSpec) -> str:
    """Render a spec in the textual form accepted by :func:`parse_spec`."""
    fam = spec.family
    if fam is Family.FORWARD_STOP:
        return "forwardstop"
    if fam in (Family.SEQ_STEP, Family.HINGE_EXP):
        return f"{fam.value}:C={spec.c_param:.17g}"
    return "piecewise:" + format_rows(spec.pieces)


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
        return piecewise_constant(parse_rows(text, rest, 3, "piece"))
    raise ValidationError(f"unknown accumulation function {text!r}")
