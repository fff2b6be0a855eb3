"""Alternative p-value densities: closed forms and sampled moments."""

import math

import mpmath as mp
import numpy as np
import pytest

from accumtest import AlternativeDensity, DomainError, ValidationError

from oracles import beta_cdf_mp, beta_pdf_mp, beta_tail_mp, z_tail_mp


def z_quantile(t):
    """Phi^{-1}(1 - t/2) at the working precision of ``oracles``."""
    t = mp.mpf(repr(t)) if isinstance(t, float) else mp.mpf(t)
    return mp.sqrt(2) * mp.erfinv(1 - t)


def z_density_reference(mu, t):
    """Density of p = 2(1 - Phi(|X|)) for X normal with mean mu."""
    mu = mp.mpf(repr(float(mu)))
    z = z_quantile(t)
    return mp.cosh(mu * z) * mp.exp(-(mu**2) / 2)


def z_cdf_reference(mu, t):
    """P(2(1 - Phi(|X|)) <= t) for X normal with mean mu."""
    mu = mp.mpf(repr(float(mu)))
    z = z_quantile(t)
    return mp.ncdf(mu - z) + mp.ncdf(-z - mu)


class TestTwoSidedZ:
    def test_pdf_matches_high_precision_formula(self):
        density = AlternativeDensity.two_sided_z(2.0)
        for t in (0.01, 0.1, 0.5, 0.9, 0.999):
            want = float(z_density_reference(2.0, t))
            assert density.pdf(t) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("mu", [-1.5, 2.0, 8.0])
    def test_pdf_and_cdf_keep_precision_near_zero(self, mu):
        density = AlternativeDensity.two_sided_z(mu)
        for t in (1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3):
            for got, want in (
                (density.pdf(t), z_density_reference(mu, t)),
                (density.cdf(t), z_cdf_reference(mu, t)),
            ):
                assert math.isclose(got, float(want), rel_tol=1e-12), (mu, t)

    def test_pdf_reduces_to_uniform_at_zero_shift(self):
        density = AlternativeDensity.two_sided_z(0.0)
        ts = np.linspace(0.0, 1.0, 51)
        assert np.all(density.pdf(ts) == 1.0)

    def test_pdf_finite_at_far_shift(self):
        # cosh(mu * z) overflows where exp(-mu^2 / 2) underflows; the true
        # density is below 1e-200000 on (0, 1], so it rounds to 0.
        density = AlternativeDensity.two_sided_z(1000.0)
        ts = np.array([1e-300, 1e-12, 0.3, 0.48, 1.0])
        assert np.all(density.pdf(ts) == 0.0)
        assert density.pdf(0.0) == math.inf

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

    def test_narrow_rise_detected(self):
        # The rise spans 1e-5, narrower than any fixed grid's spacing.
        top = (1.0 - 0.6 - 1e-5 * 5.0) / (1.0 - 0.60001)
        pieces = [(0.0, 0.6, 1.0), (0.6, 0.60001, 5.0), (0.60001, 1.0, top)]
        assert not AlternativeDensity.piecewise(pieces).is_nonincreasing()


def upper_tail_reference(density, u):
    """P(p > 1 - u) in high precision, from each form's distribution."""
    u = mp.mpf(repr(float(u)))
    form = density.form.value
    if form == "uniform":
        return u
    if form == "beta":
        return beta_tail_mp(density.a, density.b)(u)
    if form == "two_sided_z":
        return z_tail_mp(density.mu)(u)
    return sum(
        mp.mpf(level) * max(mp.mpf(0), min(u, 1 - mp.mpf(lo)) - (1 - mp.mpf(hi)))
        for lo, hi, level in density.pieces
    )


class TestUpperTail:
    @pytest.mark.parametrize(
        "density",
        [
            AlternativeDensity.uniform(),
            AlternativeDensity.beta(1.0, 0.05),
            AlternativeDensity.beta(0.3, 4.0),
            AlternativeDensity.beta(2.0, 0.5),
            AlternativeDensity.two_sided_z(0.0),
            AlternativeDensity.two_sided_z(2.0),
            AlternativeDensity.two_sided_z(-2.0),
            AlternativeDensity.piecewise([(0.0, 0.25, 2.0), (0.25, 1.0, 2.0 / 3.0)]),
        ],
        ids=[
            "uniform",
            "beta-1-0.05",
            "beta-0.3-4",
            "beta-2-0.5",
            "z-0",
            "z-2",
            "z-minus-2",
            "piecewise",
        ],
    )
    def test_matches_high_precision_complement(self, density):
        # 1 - cdf(1 - u) would lose every digit below u = 1e-16.  The z
        # form subtracts two normal probabilities of size up to 1/2, so
        # its error is absolute, below 1e-16.
        us = np.array([1e-300, 1e-40, 1e-12, 1e-3, 0.3, 0.9, 1.0])
        got = density.upper_tail(us)
        floor = 1e-16 if density.form.value == "two_sided_z" else 0.0
        for u, value in zip(us, got):
            want = float(upper_tail_reference(density, u))
            assert value == pytest.approx(want, rel=1e-12, abs=floor), u

    @pytest.mark.parametrize("mu", [2.0, 8.0])
    def test_z_tail_depends_on_shift_size_only(self, mu):
        # With -mu both terms would sit near 1, where their difference
        # keeps only ulps of 1 instead of ulps of Phi(-|mu|).
        us = np.logspace(-300, 0, 61)
        tail = AlternativeDensity.two_sided_z(mu).upper_tail(us)
        assert np.array_equal(AlternativeDensity.two_sided_z(-mu).upper_tail(us), tail)

    def test_leading_power(self):
        assert AlternativeDensity.beta(2.0, 0.05).upper_tail_power == 0.05
        assert AlternativeDensity.two_sided_z(3.0).upper_tail_power == 1.0
        density = AlternativeDensity.beta(0.5, 0.3)
        u = np.array([1e-200, 1e-100])
        ratio = density.upper_tail(u[1]) / density.upper_tail(u[0])
        assert ratio == pytest.approx(1e100**density.upper_tail_power, rel=1e-12)
