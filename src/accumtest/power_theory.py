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
from typing import Callable, Optional

import numpy as np

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

_GRID_POINTS = 10_000
_DIFF_SLACK = 1e-8
_BISECT_TOL = 1e-10


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
        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        if flat.size and (np.isnan(flat).any() or flat.min() < 0 or flat.max() > 1):
            raise DomainError("curve evaluation points must lie in [0, 1]")
        ts = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        out = np.interp(flat, ts, vs)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)


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


def _grid_slopes(curve: SignalCurve, grid_size: int):
    t = np.linspace(0.0, 1.0, grid_size + 1)
    f = np.atleast_1d(curve(t))
    step = t[1] - t[0]
    slopes = np.empty_like(f)
    slopes[1:-1] = (f[2:] - f[:-2]) / (2.0 * step)
    slopes[0] = (f[1] - f[0]) / step
    slopes[-1] = (f[-1] - f[-2]) / step
    return t, f, slopes


def validate_signal_curve(
    curve: SignalCurve, alpha: float, grid_size: int = _GRID_POINTS
) -> CurveReport:
    """Grid audit of the shape assumptions behind the power formula.

    On an even grid the audit verifies that the curve never increases
    and that the expected rejection mass ``t * f(t)`` never decreases;
    wherever ``f(t) >= 1 - alpha`` it additionally demands a decrease
    rate of at least ``curve.delta``.  The report records the first
    offending grid point of each check; nothing is raised.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    t, f, slopes = _grid_slopes(curve, grid_size)

    checks = []

    bad = np.nonzero(slopes > _DIFF_SLACK)[0]
    checks.append(
        CurveCheck(
            name="nonincreasing",
            passed=bad.size == 0,
            violation_t=float(t[bad[0]]) if bad.size else None,
            detail="f must never increase"
            if bad.size == 0
            else f"f'({t[bad[0]]:.6g}) = {slopes[bad[0]]:.6g} > 0",
        )
    )

    region = f >= 1.0 - alpha
    bad = np.nonzero(region & (slopes > -curve.delta + _DIFF_SLACK))[0]
    checks.append(
        CurveCheck(
            name="steep_where_dense",
            passed=bad.size == 0,
            violation_t=float(t[bad[0]]) if bad.size else None,
            detail=f"f' must be <= -{curve.delta:.6g} wherever f >= {1 - alpha:.6g}"
            if bad.size == 0
            else (
                f"f'({t[bad[0]]:.6g}) = {slopes[bad[0]]:.6g} "
                f"exceeds -{curve.delta:.6g} where f = {f[bad[0]]:.6g}"
            ),
        )
    )

    mass = t * f
    mass_slopes = np.diff(mass) / (t[1] - t[0])
    bad = np.nonzero(mass_slopes < -_DIFF_SLACK)[0]
    checks.append(
        CurveCheck(
            name="mass_nondecreasing",
            passed=bad.size == 0,
            violation_t=float(t[bad[0]]) if bad.size else None,
            detail="t * f(t) must never decrease"
            if bad.size == 0
            else f"t*f(t) decreasing near t = {t[bad[0]]:.6g}",
        )
    )

    return CurveReport(passed=all(c.passed for c in checks), checks=checks)


def _require_shape(curve: SignalCurve, alpha: float, need_rate: bool) -> None:
    report = validate_signal_curve(curve, alpha)
    for check in report.checks:
        if check.name == "steep_where_dense" and not need_rate:
            continue
        if not check.passed:
            raise ContractError(f"signal curve fails its shape check: {check.detail}")


def asymptotic_threshold(curve: SignalCurve, alpha: float, mu: float) -> float:
    """Limiting rejected fraction T of the list.

    With target ratio r = (1 - alpha) / (1 - mu): T = 0 when r >= f(0)
    (the test rejects a vanishing fraction), T = 1 when r <= f(1)
    (everything is rejected in the limit), and otherwise T solves
    f(T) = r, found by bisection to 1e-10.  The monotonicity checks
    must pass; the decay-rate check is additionally required in the
    interior case, where it guarantees the crossing is unique.
    """
    alpha = float(alpha)
    mu = float(mu)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < mu < 1.0:
        raise DomainError(f"mu must lie in (0, 1), got {mu}")
    target = (1.0 - alpha) / (1.0 - mu)
    f0 = float(curve(0.0))
    f1 = float(curve(1.0))
    if target >= f0:
        _require_shape(curve, alpha, need_rate=False)
        return 0.0
    if target <= f1:
        _require_shape(curve, alpha, need_rate=False)
        return 1.0
    _require_shape(curve, alpha, need_rate=True)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if float(curve(mid)) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
    increments: Optional[Callable[[np.random.Generator, tuple], np.ndarray]] = None,
    chunk: int = 500,
) -> float:
    """Fraction of simulated walks that ever leave the envelope.

    Walks have ``t_max`` i.i.d. centered increments, drawn from
    ``Normal(0, sigma2)`` unless a custom sampler is given; a sampler
    receives the generator and the required shape and must return
    centered draws.  The envelope guarantee promises a fraction at most
    ``epsilon`` in the appropriate moment regime, so this is the
    companion empirical check to :func:`random_walk_envelope`.
    """
    t_max = int(t_max)
    n_walks = int(n_walks)
    if t_max < 1 or n_walks < 1:
        raise DomainError("t_max and n_walks must be positive")
    bound = random_walk_envelope(sigma2, b, epsilon, np.arange(1, t_max + 1))
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(float(sigma2))
    exited = 0
    done = 0
    while done < n_walks:
        m = min(chunk, n_walks - done)
        if increments is None:
            steps = rng.standard_normal((m, t_max)) * sigma
        else:
            steps = increments(rng, (m, t_max))
        walks = np.cumsum(steps, axis=1)
        exited += int(np.count_nonzero(np.any(np.abs(walks) > bound, axis=1)))
        done += m
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
