"""Asymptotic power of accumulation tests and supporting bounds.

The limiting behaviour of an accumulation test is driven by two
summaries of the problem: a signal curve ``f`` giving the limiting
proportion of non-nulls among the first fraction-t of the list, and the
mean ``mu`` of the accumulation function under the alternative p-value
law.  When ``f`` is nonincreasing and ``t * f(t)`` nondecreasing, the
rejected prefix converges to a deterministic fraction ``T`` and the
power to ``T * f(T) / f(1)``.

This module also provides the optimality gap of a bounded accumulation
function against the step function of the same bound, a maximal
envelope for centered random walks with subexponential increments, and
small Monte Carlo checkers mirroring both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._pieces import shaped, unit_points
from .accumfn import AccumulationSpec, nonnull_mean
from .densities import AlternativeDensity
from .errors import ContractError, DomainError, ValidationError

__all__ = [
    "SignalCurve",
    "CurveCheck",
    "CurveReport",
    "parse_curve",
    "format_curve",
    "validate_signal_curve",
    "asymptotic_threshold",
    "asymptotic_power",
    "expected_fdp_curve",
    "step_optimality_gap",
    "random_walk_envelope",
    "envelope_exit_fraction",
    "centered_mgf",
]

# Bytes one block of ``envelope_exit_fraction``'s walks may hold, at
# ``_STEP_BYTES`` per step: a float64 position, a boolean exit flag and
# the envelope (tracemalloc peaks of 9.2 bytes per step at t_max = 100
# and 1000).  At t_max = 1000 a block holds 419 walks; the draws, and so
# the result, do not depend on it.  A t_max above 419 430 is refused.
_WALK_BUDGET = 2**22
_STEP_BYTES = 10


@dataclass(frozen=True)
class SignalCurve:
    """Piecewise-linear proportion-of-signals curve on [0, 1].

    ``knots`` are (t, f(t)) pairs with strictly increasing t, starting
    at t=0 and ending at t=1; values are linearly interpolated between
    them and must stay in [0, 1].  ``delta`` is the minimum decay rate
    the curve claims to satisfy wherever f(t) >= 1 - alpha; it is used
    by the validator and when inverting the curve.
    """

    knots: tuple[tuple[float, float], ...]
    delta: float = 1e-9

    def __post_init__(self) -> None:
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        if len(knots) < 2:
            raise ValidationError("a signal curve needs at least two knots")
        ts = [t for t, _ in knots]
        vs = [v for _, v in knots]
        # Every comparison below is false for NaN, so NaN would pass them.
        if any(math.isnan(x) for x in ts + vs):
            raise DomainError("knot positions and values must not be NaN")
        if ts[0] != 0.0 or ts[-1] != 1.0:
            raise ValidationError("knots must start at t=0 and end at t=1")
        if any(b <= a for a, b in zip(ts[:-1], ts[1:])):
            raise ValidationError("knot positions must be strictly increasing")
        if min(vs) < 0.0 or max(vs) > 1.0:
            raise DomainError("curve values must lie in [0, 1]")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError("delta must be a positive real")
        object.__setattr__(self, "knots", knots)

    @classmethod
    def constant(cls, value: float, delta: float = 1e-9) -> "SignalCurve":
        return cls(((0.0, value), (1.0, value)), delta=delta)

    def __call__(self, t):
        arr, flat = unit_points(t, "curve evaluation points")
        ts = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        return shaped(np.interp(flat, ts, vs), arr)


def parse_curve(text: str, delta: float = 1e-9) -> SignalCurve:
    """Parse the knot-list form ``f:0,0.5;1,0.3``."""
    text = text.strip()
    if not text.startswith("f:"):
        raise ValidationError(f"curve text must start with 'f:', got {text!r}")
    knots = []
    for chunk in text[2:].split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValidationError(f"bad knot {chunk!r} in {text!r}")
        try:
            knots.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"bad knot {chunk!r} in {text!r}") from exc
    return SignalCurve(tuple(knots), delta=delta)


def format_curve(curve: SignalCurve) -> str:
    return "f:" + ";".join(f"{t:.17g},{v:.17g}" for t, v in curve.knots)


@dataclass(frozen=True)
class CurveCheck:
    name: str
    passed: bool
    violation_t: Optional[float]
    detail: str


@dataclass(frozen=True)
class CurveReport:
    passed: bool
    checks: tuple[CurveCheck, ...]

    def first_violation(self) -> Optional[CurveCheck]:
        for check in self.checks:
            if not check.passed:
                return check
        return None


def _dyadic(values) -> tuple[list[int], int]:
    """Integers n_i and one shift s with values[i] == n_i / 2**s exactly.

    Every float is a dyadic rational, so sums and products of these
    integers decide signs exactly, without rational division.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() for _, den in ratios) - 1
    return [num << (shift - den.bit_length() + 1) for num, den in ratios], shift


def _segment(curve: SignalCurve, i: int):
    """Segment i as (t0, v0, t1, v1, slope) in exact rationals."""
    from fractions import Fraction

    (t0, v0), (t1, v1) = (map(Fraction, knot) for knot in curve.knots[i : i + 2])
    return t0, v0, t1, v1, (v1 - v0) / (t1 - t0)


def _rounded(x) -> float:
    """A rational as a float; a slope across a subnormal width may pass the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _failure(name: str, curve: SignalCurve, i: int, alpha: float):
    """Where the failure of check ``name`` on segment i starts, and its detail."""
    from fractions import Fraction

    t0, v0, t1, v1, slope = _segment(curve, i)
    span = f"[{float(t0):.6g}, {float(t1):.6g}]"
    if name == "nonincreasing":
        return t0, f"f rises with slope {_rounded(slope):.6g} on {span}"
    if name == "steep_where_dense":
        level = 1 - Fraction(alpha)
        # Where f first reaches the level: the left end unless f rises.
        start = t0 if v0 >= level else t0 + (level - v0) / slope
        detail = (
            f"f' = {_rounded(slope):.6g} on {span} exceeds -{curve.delta:.6g} "
            f"where f reaches {float(max(v0, v1)):.6g}"
        )
        return start, detail
    # (t * f)' falls through 0 where v0 - slope * t0 + 2 slope t = 0.
    start = max(t0, (slope * t0 - v0) / (2 * slope))
    return start, f"t*f(t) decreases from t = {float(start):.6g} on {span}"


def validate_signal_curve(curve: SignalCurve, alpha: float) -> CurveReport:
    """Exact audit of the shape assumptions behind the power formula.

    f is linear between knots, so each check is decided segment by
    segment, exactly on the float knots: no segment rises; every
    segment that reaches ``f >= 1 - alpha`` has slope at most
    ``-curve.delta``; and the expected rejection mass ``t * f(t)`` never
    decreases, that is ``(t * f)' = f + slope * t``, which is linear on
    a segment, is nonnegative at both of its ends.  Each test is
    multiplied through by the segment's width, so its sign is that of
    an integer polynomial in the knots scaled by a common power of two.
    A failed check records the point where its failure starts; nothing
    is raised.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    (a, *knots), shift = _dyadic([alpha, *(x for knot in curve.knots for x in knot)])
    level = (1 << shift) - a
    d_num, d_den = curve.delta.as_integer_ratio()
    ts, vs = knots[0::2], knots[1::2]
    first = {}  # check name -> the first segment that fails it
    for i, (t0, v0, t1, v1) in enumerate(zip(ts, vs, ts[1:], vs[1:])):
        rise, width = v1 - v0, t1 - t0
        if rise > 0:
            first.setdefault("nonincreasing", i)
        # slope > -delta  <=>  rise * d_den + d_num * width > 0
        if max(v0, v1) >= level and rise * d_den + d_num * width > 0:
            first.setdefault("steep_where_dense", i)
        # (t f)' at either end, times the width: v * width + rise * t.
        if min(v0 * width + rise * t0, v1 * width + rise * t1) < 0:
            first.setdefault("mass_nondecreasing", i)
        if len(first) == 3:
            break
    rules = {
        "nonincreasing": "f must never increase",
        "steep_where_dense": f"f' must be <= -{curve.delta:.6g} "
        f"wherever f >= {1 - alpha:.6g}",
        "mass_nondecreasing": "t * f(t) must never decrease",
    }
    checks = []
    for name, rule in rules.items():
        if name in first:
            start, detail = _failure(name, curve, first[name], alpha)
            checks.append(CurveCheck(name, False, float(start), detail))
        else:
            checks.append(CurveCheck(name, True, None, rule))
    return CurveReport(passed=not first, checks=tuple(checks))


def _require_shape(curve: SignalCurve, alpha: float, need_rate: bool) -> None:
    for check in validate_signal_curve(curve, alpha).checks:
        if not check.passed and (need_rate or check.name != "steep_where_dense"):
            raise ContractError(f"signal curve fails its shape check: {check.detail}")


def asymptotic_threshold(curve: SignalCurve, alpha: float, mu: float) -> float:
    """Limiting rejected fraction T of the list.

    With target ratio r = (1 - alpha) / (1 - mu): T = 0 when r >= f(0)
    (the test rejects a vanishing fraction), T = 1 when r <= f(1)
    (everything is rejected in the limit), and otherwise T solves
    f(T) = r on the first segment whose right end falls below r.  The
    solution is exact on the float inputs and rounded once.  The
    monotonicity checks must pass; the decay-rate check is additionally
    required in the interior case, where it makes the crossing unique.
    """
    from fractions import Fraction

    alpha = float(alpha)
    mu = float(mu)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    target = (1 - Fraction(alpha)) / (1 - Fraction(mu))
    above, below = target >= curve.knots[0][1], target <= curve.knots[-1][1]
    _require_shape(curve, alpha, need_rate=not (above or below))
    if above or below:
        return 0.0 if above else 1.0
    # f(0) > r > f(1), and every segment at or above r falls steeply.
    # v < r  <=>  v * (1 - mu) < 1 - alpha, in integers scaled by 2^shift.
    (a, m, *vs), shift = _dyadic([alpha, mu, *(v for _, v in curve.knots)])
    one = 1 << shift
    i = next(i for i, v in enumerate(vs[1:]) if v * (one - m) < (one - a) * one)
    t0, v0, _, _, slope = _segment(curve, i)
    return float(t0 + (target - v0) / slope)


def asymptotic_power(curve: SignalCurve, alpha: float, mu: float) -> float:
    """Limiting fraction of non-nulls discovered: T * f(T) / f(1)."""
    f1 = float(curve(1.0))
    if f1 <= 0.0:
        raise ContractError("asymptotic power is undefined when f(1) = 0")
    t_star = asymptotic_threshold(curve, alpha, mu)
    return t_star * float(curve(t_star)) / f1


def expected_fdp_curve(curve: SignalCurve, mu: float, t):
    """Limiting value of the estimated FDP at list fraction t.

    Equals 1 - f(t) * (1 - mu); nondecreasing in t whenever the curve
    is nonincreasing.  Accepts scalar or array ``t``.
    """
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"mu must lie in [0, 1], got {mu}")
    f = curve(t)
    out = 1.0 - (1.0 - mu) * np.asarray(f, dtype=float)
    return float(out) if np.ndim(f) == 0 else out


def step_optimality_gap(
    spec: AccumulationSpec,
    c: float,
    density: AlternativeDensity,
) -> float:
    """Excess alternative mean of a bounded ``spec`` over the step function.

    Among accumulation functions bounded by ``c``, the step
    ``h0(t) = c * 1{t > 1 - 1/c}`` minimizes the mean under any
    nonincreasing alternative density, so this gap is nonnegative; it
    is zero exactly when ``spec`` already concentrates all its mass at
    the top in the same way.  The bound of ``spec`` is its highest step
    level, and both means are exact sums over the steps.

    Raises
    ------
    ContractError
        If ``spec`` is unbounded or has a level above ``c``, or if the
        density increases somewhere.
    """
    c = float(c)
    if not c >= 1.0:
        raise DomainError(f"the bound c must be >= 1, got {c}")
    steps = spec.steps
    if steps is None:
        raise ContractError(f"{spec.family.value} is unbounded; gap undefined")
    top = max(level for _, _, level in steps)
    if top > c + 1e-9:
        raise ContractError(f"spec reaches {top:.6g} > bound {c:.6g}; gap undefined")
    if not density.is_nonincreasing():
        raise ContractError("optimality gap requires a nonincreasing density")
    mean_h = nonnull_mean(spec, density)
    mean_step = c * (1.0 - float(density.cdf(1.0 - 1.0 / c)))
    return mean_h - mean_step


def random_walk_envelope(sigma2: float, b: float, epsilon: float, t):
    """High-probability envelope for a centered subexponential walk.

    For i.i.d. centered increments with moment bound parameters
    ``(sigma2, b)``, with probability at least 1 - epsilon the partial
    sums satisfy ``|S_t| <= L * max(sigma, b * L) * sqrt(t * log(1+t))``
    simultaneously for all t >= 1, where ``L = sqrt(2 * log2(4 /
    epsilon))``.  Accepts scalar or array ``t``.
    """
    sigma2 = float(sigma2)
    b = float(b)
    epsilon = float(epsilon)
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"b must be nonnegative, got {b}")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.atleast_1d(t_arr) <= 0.0):
        raise DomainError("envelope times must be positive")
    level = math.sqrt(2.0 * math.log2(4.0 / epsilon))
    scale = level * max(math.sqrt(sigma2), b * level)
    out = scale * np.sqrt(t_arr * np.log1p(t_arr))
    return float(out) if t_arr.ndim == 0 else out


def envelope_exit_fraction(
    sigma2: float,
    b: float,
    epsilon: float,
    t_max: int,
    n_walks: int,
    seed: int,
) -> float:
    """Fraction of simulated walks that ever leave the envelope.

    Walks have ``t_max`` i.i.d. increments drawn from ``Normal(0,
    sigma2)``, as many walks at a time as fit in ``_WALK_BUDGET`` bytes,
    in order from the one stream ``np.random.default_rng(seed)``, not
    from per-walk generators like the simulations' trials; the result
    does not depend on how many walks a block holds.  A ``t_max`` whose
    one walk needs more than the budget raises ``ContractError`` before
    anything is drawn.  The envelope guarantee promises a fraction at
    most ``epsilon`` in the appropriate moment regime, so this is the
    companion empirical check to :func:`random_walk_envelope`.
    """
    t_max = int(t_max)
    n_walks = int(n_walks)
    if t_max < 1 or n_walks < 1:
        raise DomainError("t_max and n_walks must be positive")
    if t_max * _STEP_BYTES > _WALK_BUDGET:
        raise ContractError(
            f"t_max = {t_max} needs {t_max * _STEP_BYTES / 2**20:.0f} MiB per walk, "
            f"over the {_WALK_BUDGET // 2**20} MiB budget; the largest t_max is "
            f"{_WALK_BUDGET // _STEP_BYTES}"
        )
    bound = random_walk_envelope(sigma2, b, epsilon, np.arange(1, t_max + 1))
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(float(sigma2))
    walks = np.empty((min(_WALK_BUDGET // (t_max * _STEP_BYTES), n_walks), t_max))
    exited = 0
    for done in range(0, n_walks, len(walks)):
        block = walks[: n_walks - done]
        rng.standard_normal(out=block)
        block *= sigma
        np.cumsum(block, axis=1, out=block)
        np.abs(block, out=block)
        exited += int(np.count_nonzero(np.any(block > bound, axis=1)))
    return exited / n_walks


def centered_mgf(
    samples: np.ndarray, thetas: np.ndarray, center: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo moment generating function of centered samples.

    Returns per-theta estimates of ``E[exp(theta * (X - center))]``
    together with their standard errors; ``center`` defaults to the
    sample mean.  Used to audit the subexponential moment condition
    ``mgf(theta) <= exp(theta^2 * sigma2 / 2)`` on a theta grid.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise DomainError("need a 1-d sample of size >= 2")
    if center is None:
        center = float(x.mean())
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    deviations = x - center
    estimates = np.empty(thetas.size)
    errors = np.empty(thetas.size)
    for j, theta in enumerate(thetas):
        values = np.exp(theta * deviations)
        estimates[j] = values.mean()
        errors[j] = values.std(ddof=1) / math.sqrt(values.size)
    return estimates, errors
