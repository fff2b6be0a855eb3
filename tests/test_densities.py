"""Alternative p-value densities: closed forms and sampled moments."""

import math

import mpmath as mp
import numpy as np
import pytest

from accumtest import AlternativeDensity, DomainError, ValidationError

from oracles import beta_cdf_mp, beta_pdf_mp


def z_density_reference(mu, t):
    """Density of p = 2(1 - Phi(|X|)) for X normal with mean mu."""
    t = mp.mpf(repr(t)) if isinstance(t, float) else mp.mpf(t)
    mu = mp.mpf(repr(float(mu)))
    z = mp.sqrt(2) * mp.erfinv(1 - t)
    return mp.cosh(mu * z) * mp.exp(-(mu**2) / 2)


class TestTwoSidedZ:
    def test_pdf_matches_high_precision_formula(self):
        density = AlternativeDensity.two_sided_z(2.0)
        for t in (0.01, 0.1, 0.5, 0.9, 0.999):
            want = float(z_density_reference(2.0, t))
            assert density.pdf(t) == pytest.approx(want, rel=1e-10)

    def test_pdf_reduces_to_uniform_at_zero_shift(self):
        density = AlternativeDensity.two_sided_z(0.0)
        ts = np.linspace(0.001, 1.0, 50)
        assert np.allclose(density.pdf(ts), 1.0, atol=1e-12)

    def test_cdf_increments_match_quadrature_of_pdf(self):
        density = AlternativeDensity.two_sided_z(1.5)
        lower = 0.01
        for t in (0.05, 0.3, 0.8):
            want = mp.quad(lambda s: z_density_reference(1.5, s), [lower, t])
            got = density.cdf(t) - density.cdf(lower)
            assert got == pytest.approx(float(want), abs=1e-10)

    def test_cdf_endpoints(self):
        density = AlternativeDensity.two_sided_z(2.0)
        assert density.cdf(0.0) == 0.0
        assert density.cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sampling_matches_cdf(self):
        density = AlternativeDensity.two_sided_z(2.0)
        rng = np.random.Generator(np.random.Philox(key=50))
        draws = np.sort(density.sample(rng, 100_000))
        ecdf = np.arange(1, draws.size + 1) / draws.size
        gap = np.max(np.abs(ecdf - density.cdf(draws)))
        assert gap < 1.63 / math.sqrt(draws.size)

    def test_unbounded_only_with_shift(self):
        assert AlternativeDensity.two_sided_z(2.0).unbounded_at_zero()
        assert not AlternativeDensity.two_sided_z(0.0).unbounded_at_zero()

    def test_nonincreasing_when_shifted(self):
        assert AlternativeDensity.two_sided_z(2.0).is_nonincreasing()


class TestBeta:
    def test_linear_special_case(self):
        density = AlternativeDensity.beta(1.0, 2.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert np.allclose(density.pdf(ts), 2.0 * (1.0 - ts), atol=1e-12)
        assert np.allclose(density.cdf(ts), 2.0 * ts - ts**2, atol=1e-12)

    @pytest.mark.parametrize(
        "a, b", [(0.3, 0.5), (0.5, 2.0), (2.5, 0.7), (1.0, 1.0), (2.0, 5.0), (4.5, 3.2)]
    )
    def test_pdf_and_cdf_match_high_precision_oracle(self, a, b):
        density = AlternativeDensity.beta(a, b)
        ts = [0.0, 1e-300, 1e-12, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-12, 1.0]
        for t in ts:
            for got, want in (
                (density.pdf(t), beta_pdf_mp(a, b, t)),
                (density.cdf(t), beta_cdf_mp(a, b, t)),
            ):
                assert math.isclose(got, float(want), rel_tol=1e-12), (a, b, t)
        # Unbounded exactly at an endpoint whose exponent is negative.
        assert (density.pdf(0.0) == math.inf) == (a < 1.0)
        assert (density.pdf(1.0) == math.inf) == (b < 1.0)

    def test_parameters_must_be_positive(self):
        with pytest.raises(DomainError):
            AlternativeDensity.beta(0.0, 1.0)
        with pytest.raises(DomainError):
            AlternativeDensity.beta(1.0, -2.0)

    def test_monotonicity_detection(self):
        assert AlternativeDensity.beta(1.0, 2.0).is_nonincreasing()
        assert AlternativeDensity.beta(0.5, 1.0).is_nonincreasing()
        assert not AlternativeDensity.beta(2.0, 1.0).is_nonincreasing()

    def test_singular_endpoints_flagged(self):
        assert AlternativeDensity.beta(0.5, 1.0).unbounded_at_zero()
        assert AlternativeDensity.beta(1.0, 0.5).unbounded_at_one()
        assert not AlternativeDensity.beta(1.0, 2.0).unbounded_at_zero()

    def test_sampling_matches_cdf(self):
        density = AlternativeDensity.beta(1.0, 3.0)
        rng = np.random.Generator(np.random.Philox(key=51))
        draws = np.sort(density.sample(rng, 50_000))
        ecdf = np.arange(1, draws.size + 1) / draws.size
        gap = np.max(np.abs(ecdf - density.cdf(draws)))
        assert gap < 1.63 / math.sqrt(draws.size)


class TestUniform:
    def test_flat_density(self):
        density = AlternativeDensity.uniform()
        ts = np.linspace(0, 1, 11)
        assert np.allclose(density.pdf(ts), 1.0)
        assert np.allclose(density.cdf(ts), ts)
        assert density.is_nonincreasing()


class TestPiecewiseDensity:
    pieces = [(0.0, 0.25, 2.0), (0.25, 1.0, 2.0 / 3.0)]

    def test_total_mass_must_be_one(self):
        with pytest.raises(ValidationError):
            AlternativeDensity.piecewise([(0.0, 1.0, 0.5)])

    def test_pdf_and_cdf(self):
        density = AlternativeDensity.piecewise(self.pieces)
        assert density.pdf(0.1) == pytest.approx(2.0)
        assert density.pdf(0.5) == pytest.approx(2.0 / 3.0)
        assert density.cdf(0.25) == pytest.approx(0.5)
        assert density.cdf(1.0) == pytest.approx(1.0)
        assert density.cdf(0.625) == pytest.approx(0.5 + 0.375 * 2.0 / 3.0)

    def test_sampling_matches_cdf(self):
        density = AlternativeDensity.piecewise(self.pieces)
        rng = np.random.Generator(np.random.Philox(key=52))
        draws = np.sort(density.sample(rng, 50_000))
        ecdf = np.arange(1, draws.size + 1) / draws.size
        gap = np.max(np.abs(ecdf - density.cdf(draws)))
        assert gap < 1.63 / math.sqrt(draws.size)

    def test_monotonicity_detection(self):
        assert AlternativeDensity.piecewise(self.pieces).is_nonincreasing()
        rising = [(0.0, 0.5, 0.5), (0.5, 1.0, 1.5)]
        assert not AlternativeDensity.piecewise(rising).is_nonincreasing()
