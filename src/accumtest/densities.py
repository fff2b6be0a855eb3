"""Alternative p-value densities on [0, 1].

These describe how non-null p-values are distributed.  Only a small
closed set of forms is supported so that every density used in an
experiment can be written down exactly and the run replayed:

* ``uniform``: the null distribution itself, useful as a control.
* ``two_sided_z(mu)``: the density of ``p = 2 * (1 - Phi(|Z|))`` when
  ``Z ~ Normal(mu, 1)``.  In closed form,
  ``pdf(t) = cosh(mu * z_t) * exp(-mu^2 / 2)`` with
  ``z_t = -Phi^{-1}(t/2)``, which keeps full precision near t=0; it
  decreases strictly in t for mu != 0 and is unbounded at t=0.
* ``beta(a, b)``: the Beta density, nonincreasing iff a <= 1 <= b.
  Its cdf is the regularized incomplete beta function
  ``scipy.special.betainc`` and its pdf is
  ``exp((a-1) log t + (b-1) log(1-t) - log B(a, b))`` from
  ``scipy.special`` (``xlogy``, ``xlog1py``, ``betaln``), so the
  module never imports ``scipy.stats``.
* ``piecewise(pieces)``: constant levels on a partition of [0, 1].

scipy is an optional extra (``accumtest[theory]``).  Only the pdf, cdf
and upper tail of two_sided_z (for ``ndtri`` and ``erfinv``) and beta
load it, through ``scipy_special``; Phi is the simulations' ``_tails.ndtr``,
so the other forms, and all sampling, run on numpy alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._pieces import Piece, interior_edges, piece_levels_at, shaped, unit_pieces, unit_points
from .errors import ContractError, DomainError, ValidationError

__all__ = ["DensityForm", "AlternativeDensity"]


def scipy_special():
    """``scipy.special``, imported on first use: loading it with this
    module would slow every CLI start, and scipy is an optional extra.

    Raises ``ContractError`` when scipy is not installed.
    """
    try:
        from scipy import special
    except ImportError:
        raise ContractError(
            "scipy is not installed; the two_sided_z and beta densities and "
            "validate need it: pip install 'accumtest[theory]'"
        ) from None
    return special


def _z_center_mass(mu: float, edge: float, z: np.ndarray) -> np.ndarray:
    """P(|Z| < z) for Z ~ Normal(mu, 1), mu > 0 and 0 <= z <= edge =
    min(1, 1/mu) / 2, to full relative precision.

    The mass is 2 phi(mu) times the integral over [0, z] of g(t) =
    exp(-t^2/2) cosh(mu t).  The Taylor coefficients of g and of h(t) =
    exp(-t^2/2) sinh(mu t) in t / edge follow from g' = -t g + mu h and
    h' = -t h + mu g.  Since (t / edge)^2 <= 1, edge^2 <= 1/4 and
    (mu edge)^2 <= 1/4, the terms fall fast (the 16th is below 1e-27)
    and their magnitudes sum to within 9 % of the integral, so 30 of them
    leave only rounding error.
    """
    square, shift = edge * edge, mu * edge
    g, h, g_prev, h_prev = 1.0, 0.0, 0.0, 0.0
    integral = []  # integral / z = sum of integral[k] * (z / edge)^(2k)
    for n in range(60):
        if n % 2 == 0:
            integral.append(g / (n + 1))
        g, h, g_prev, h_prev = (
            (shift * h - square * g_prev) / (n + 1),
            (shift * g - square * h_prev) / (n + 1),
            g,
            h,
        )
    ratio = np.square(z / edge)
    total = np.zeros_like(ratio)
    for coefficient in reversed(integral):
        total = total * ratio + coefficient
    # z last, so a product below the normal range is rounded once.
    return total * (2.0 * math.exp(-0.5 * mu * mu) / math.sqrt(2.0 * math.pi)) * z


class DensityForm(enum.Enum):
    UNIFORM = "uniform"
    TWO_SIDED_Z = "two_sided_z"
    BETA = "beta"
    PIECEWISE = "piecewise"


@dataclass(frozen=True)
class AlternativeDensity:
    """A serializable density on [0, 1]; see the module docstring."""

    form: DensityForm
    mu: float | None = None
    a: float | None = None
    b: float | None = None
    pieces: tuple[Piece, ...] | None = None

    def __post_init__(self) -> None:
        form = self.form
        if form is DensityForm.UNIFORM:
            if (self.mu, self.a, self.b, self.pieces) != (None, None, None, None):
                raise ValidationError("uniform density takes no parameters")
        elif form is DensityForm.TWO_SIDED_Z:
            if self.mu is None or not math.isfinite(float(self.mu)):
                raise DomainError("two_sided_z requires a finite mean shift mu")
            object.__setattr__(self, "mu", float(self.mu))
        elif form is DensityForm.BETA:
            if self.a is None or self.b is None:
                raise DomainError("beta requires shape parameters a and b")
            a, b = float(self.a), float(self.b)
            if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
                raise DomainError(f"beta shapes must be positive, got ({a}, {b})")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        elif form is DensityForm.PIECEWISE:
            if self.pieces is None:
                raise ValidationError("piecewise density requires a piece list")
            object.__setattr__(self, "pieces", unit_pieces(self.pieces))

    # ---- constructors -------------------------------------------------

    @classmethod
    def uniform(cls) -> "AlternativeDensity":
        return cls(DensityForm.UNIFORM)

    @classmethod
    def two_sided_z(cls, mu: float) -> "AlternativeDensity":
        return cls(DensityForm.TWO_SIDED_Z, mu=mu)

    @classmethod
    def beta(cls, a: float, b: float) -> "AlternativeDensity":
        return cls(DensityForm.BETA, a=a, b=b)

    @classmethod
    def piecewise(cls, pieces) -> "AlternativeDensity":
        return cls(DensityForm.PIECEWISE, pieces=tuple(tuple(p) for p in pieces))

    # ---- evaluation ----------------------------------------------------

    def pdf(self, t):
        """Density value at ``t`` (scalar or array), points in [0, 1]."""
        arr, flat = unit_points(t, "density evaluation points")
        form = self.form
        # two_sided_z(0) is the uniform density: its pdf and cdf are exact.
        if form is DensityForm.UNIFORM or self.mu == 0.0:
            out = np.ones_like(flat)
        elif form is DensityForm.TWO_SIDED_Z:
            mu, shift = self.mu, 0.5 * self.mu**2
            # The cosh as two exponentials, so no inf * 0 at large mu.
            z = -scipy_special().ndtri(0.5 * flat)
            with np.errstate(over="ignore"):
                out = 0.5 * (np.exp(mu * z - shift) + np.exp(-mu * z - shift))
        elif form is DensityForm.BETA:
            a, b, special = self.a, self.b, scipy_special()
            with np.errstate(divide="ignore"):
                log_pdf = special.xlogy(a - 1.0, flat) + special.xlog1py(
                    b - 1.0, -flat
                )
                out = np.exp(log_pdf - special.betaln(a, b))
        else:
            out = piece_levels_at(self.pieces, flat)
        return shaped(out, arr)

    def cdf(self, t):
        """Cumulative distribution at ``t``."""
        arr, flat = unit_points(t, "density evaluation points")
        form = self.form
        if form is DensityForm.UNIFORM or self.mu == 0.0:
            out = flat.copy()
        elif form is DensityForm.TWO_SIDED_Z:
            # P(2 * (1 - Phi(|Z|)) <= t) with Z ~ Normal(mu, 1).
            from ._tails import ndtr
            z = -scipy_special().ndtri(0.5 * flat)
            out = ndtr(self.mu - z) + ndtr(-z - self.mu)
        elif form is DensityForm.BETA:
            out = scipy_special().betainc(self.a, self.b, flat)
        else:
            lows, levels, widths = self._piece_arrays()
            cum = np.concatenate([[0.0], np.cumsum(levels * widths)])
            idx = np.minimum(
                np.searchsorted(lows, flat, side="right") - 1, len(self.pieces) - 1
            )
            out = cum[idx] + levels[idx] * (flat - lows[idx])
        return shaped(np.clip(out, 0.0, 1.0), arr)

    def upper_tail(self, u):
        """P(p > 1 - u), the mass within ``u`` of 1, for u in [0, 1].

        No form computes ``1 - cdf(1 - u)``, which has no digits left
        once u is below the float spacing at 1: beta uses the swapped
        incomplete beta (1 - p is Beta(b, a)), and piecewise the overlap
        of each piece with [1 - u, 1].  two_sided_z is u itself at mu = 0;
        otherwise it is the normal mass of |Z| < z with z = sqrt(2)
        erfinv(u), from ``_z_center_mass`` below min(1, 1/|mu|) / 2 and
        from the difference of two normal distribution values above,
        where that loses at most about one digit.
        """
        u = np.asarray(u, dtype=float)
        form = self.form
        if form is DensityForm.UNIFORM or self.mu == 0.0:
            return u.copy()
        if form is DensityForm.TWO_SIDED_Z:
            # p > 1 - u iff |Z| < z; |mu| keeps both terms in the lower tail.
            from ._tails import ndtr
            z = math.sqrt(2.0) * scipy_special().erfinv(u)
            mu = abs(self.mu)
            edge = 0.5 * min(1.0, 1.0 / mu)
            near = _z_center_mass(mu, edge, np.minimum(z, edge))
            return np.where(z < edge, near, ndtr(z - mu) - ndtr(-z - mu))
        if form is DensityForm.BETA:
            return scipy_special().betainc(self.b, self.a, u)
        # Piece [lo, hi) is u-interval [1 - hi, 1 - lo); the top one starts at 0.
        return sum(
            level * np.clip(np.minimum(u, 1.0 - lo) - (1.0 - hi), 0.0, None)
            for lo, hi, level in self.pieces
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent values from the density."""
        form = self.form
        if form is DensityForm.UNIFORM:
            return rng.random(size)
        if form is DensityForm.TWO_SIDED_Z:
            from ._tails import ndtr
            z = rng.standard_normal(size) + self.mu
            return 2.0 * ndtr(-np.abs(z))
        if form is DensityForm.BETA:
            return rng.beta(self.a, self.b, size)
        lows, levels, widths = self._piece_arrays()
        weights = levels * widths
        cum = np.cumsum(weights)
        u = rng.random(size) * cum[-1]
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)
        prev = np.where(idx > 0, cum[idx - 1], 0.0)
        frac = (u - prev) / weights[idx]
        return lows[idx] + frac * widths[idx]

    def _piece_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pieces' lower edges, levels and widths as arrays."""
        lows = np.array([lo for lo, _, _ in self.pieces])
        levels = np.array([level for _, _, level in self.pieces])
        widths = np.array([hi - lo for lo, hi, _ in self.pieces])
        return lows, levels, widths

    # ---- structural queries ---------------------------------------------

    def kinks(self) -> tuple[float, ...]:
        """Interior points where the pdf is not smooth."""
        if self.form is DensityForm.PIECEWISE:
            return interior_edges(self.pieces)
        return ()

    @property
    def upper_tail_power(self) -> float:
        """The leading power k of ``upper_tail(u)`` as u -> 0: b for beta,
        1 for the other forms."""
        return self.b if self.form is DensityForm.BETA else 1.0

    def is_nonincreasing(self) -> bool:
        """Whether the pdf never increases: uniform and two_sided_z always,
        beta iff a <= 1 <= b, piecewise iff its levels never rise."""
        if self.form is DensityForm.BETA:
            return self.a <= 1.0 <= self.b
        if self.form is DensityForm.PIECEWISE:
            levels = [level for _, _, level in self.pieces]
            return all(right <= left for left, right in zip(levels, levels[1:]))
        return True
