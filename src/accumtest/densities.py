"""Alternative p-value densities on [0, 1].

These describe how non-null p-values are distributed.  Only a small
closed set of forms is supported so that every density used in an
experiment can be written down exactly and the run replayed:

* ``uniform``: the null distribution itself, useful as a control.
* ``two_sided_z(mu)``: the density of ``p = 2 * (1 - Phi(|Z|))`` when
  ``Z ~ Normal(mu, 1)``.  In closed form,
  ``pdf(t) = cosh(mu * z_t) * exp(-mu^2 / 2)`` with
  ``z_t = Phi^{-1}(1 - t/2)``; it decreases strictly in t for mu != 0
  and is unbounded at t=0.
* ``beta(a, b)``: the Beta density, nonincreasing iff a <= 1 <= b.
  Its cdf is the regularized incomplete beta function
  ``scipy.special.betainc`` and its pdf is
  ``exp((a-1) log t + (b-1) log(1-t) - log B(a, b))`` from
  ``scipy.special`` (``xlogy``, ``xlog1py``, ``betaln``), so the
  module never imports ``scipy.stats``.
* ``piecewise(pieces)``: constant levels on a partition of [0, 1].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._pieces import (
    Piece,
    interior_edges,
    normalize_pieces,
    piece_levels_at,
    piece_total,
)
from .errors import DomainError, ValidationError

# scipy is imported inside functions: loading it here would slow every CLI start.

__all__ = ["DensityForm", "AlternativeDensity"]

_UNIT_TOL = 1e-9


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
            normalized = normalize_pieces(self.pieces)
            total = piece_total(normalized)
            if abs(total - 1.0) > _UNIT_TOL:
                raise ValidationError(
                    f"piecewise density integrates to {total:.12g}, expected 1"
                )
            object.__setattr__(self, "pieces", normalized)

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
        from scipy import special

        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        if flat.size and (np.isnan(flat).any() or flat.min() < 0 or flat.max() > 1):
            raise DomainError("density evaluation points must lie in [0, 1]")
        form = self.form
        if form is DensityForm.UNIFORM:
            out = np.ones_like(flat)
        elif form is DensityForm.TWO_SIDED_Z:
            with np.errstate(over="ignore"):
                z = special.ndtri(1.0 - 0.5 * flat)
                out = np.cosh(self.mu * z) * math.exp(-0.5 * self.mu**2)
        elif form is DensityForm.BETA:
            a, b = self.a, self.b
            with np.errstate(divide="ignore"):
                log_pdf = special.xlogy(a - 1.0, flat) + special.xlog1py(
                    b - 1.0, -flat
                )
                out = np.exp(log_pdf - special.betaln(a, b))
        else:
            out = piece_levels_at(self.pieces, flat)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def cdf(self, t):
        """Cumulative distribution at ``t``."""
        from scipy import special

        arr = np.asarray(t, dtype=float)
        flat = np.atleast_1d(arr)
        if flat.size and (np.isnan(flat).any() or flat.min() < 0 or flat.max() > 1):
            raise DomainError("density evaluation points must lie in [0, 1]")
        form = self.form
        if form is DensityForm.UNIFORM:
            out = flat.copy()
        elif form is DensityForm.TWO_SIDED_Z:
            # P(2 * (1 - Phi(|Z|)) <= t) with Z ~ Normal(mu, 1).
            z = special.ndtri(1.0 - 0.5 * flat)
            out = special.ndtr(self.mu - z) + special.ndtr(-z - self.mu)
        elif form is DensityForm.BETA:
            out = special.betainc(self.a, self.b, flat)
        else:
            lows = np.array([lo for lo, _, _ in self.pieces])
            levels = np.array([level for _, _, level in self.pieces])
            widths = np.array([hi - lo for lo, hi, _ in self.pieces])
            cum = np.concatenate([[0.0], np.cumsum(levels * widths)])
            idx = np.minimum(
                np.searchsorted(lows, flat, side="right") - 1, len(self.pieces) - 1
            )
            out = cum[idx] + levels[idx] * (flat - lows[idx])
        if arr.ndim == 0:
            return float(np.clip(out[0], 0.0, 1.0))
        return np.clip(out.reshape(arr.shape), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent values from the density."""
        from scipy import special

        form = self.form
        if form is DensityForm.UNIFORM:
            return rng.random(size)
        if form is DensityForm.TWO_SIDED_Z:
            z = rng.standard_normal(size) + self.mu
            return 2.0 * special.ndtr(-np.abs(z))
        if form is DensityForm.BETA:
            return rng.beta(self.a, self.b, size)
        levels = np.array([level for _, _, level in self.pieces])
        lows = np.array([lo for lo, _, _ in self.pieces])
        widths = np.array([hi - lo for lo, hi, _ in self.pieces])
        weights = levels * widths
        cum = np.cumsum(weights)
        u = rng.random(size) * cum[-1]
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)
        prev = np.where(idx > 0, cum[idx - 1], 0.0)
        frac = (u - prev) / weights[idx]
        return lows[idx] + frac * widths[idx]

    # ---- structural queries ---------------------------------------------

    def kinks(self) -> tuple[float, ...]:
        """Interior points where the pdf is not smooth."""
        if self.form is DensityForm.PIECEWISE:
            return interior_edges(self.pieces)
        return ()

    def unbounded_at_zero(self) -> bool:
        if self.form is DensityForm.TWO_SIDED_Z:
            return self.mu != 0.0
        if self.form is DensityForm.BETA:
            return self.a < 1.0
        return False

    def unbounded_at_one(self) -> bool:
        return self.form is DensityForm.BETA and self.b < 1.0

    def is_nonincreasing(self, grid_size: int = 4096, slack: float = 1e-9) -> bool:
        """Grid check that the pdf never increases left to right."""
        grid = np.linspace(0.0, 1.0, grid_size + 1)
        values = np.atleast_1d(self.pdf(grid))
        diffs = np.diff(values)
        return bool(np.all(diffs <= slack))
