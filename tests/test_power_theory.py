"""Signal curves, limiting power, optimality gap, and walk envelopes."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import curve_failures_fraction, first_segment_below_fraction

from accumtest import (
    ContractError,
    DomainError,
    ValidationError,
    AlternativeDensity,
    SignalCurve,
    asymptotic_power,
    asymptotic_threshold,
    centered_mgf,
    envelope_exit_fraction,
    evaluate,
    expected_fdp_curve,
    format_curve,
    forward_stop,
    hinge_exp,
    parse_curve,
    piecewise_constant,
    random_walk_envelope,
    seq_step,
    step_optimality_gap,
    validate_signal_curve,
)
from accumtest import power_theory


def linear_curve(a, b):
    """The line a - b*t expressed as a two-knot curve."""
    return SignalCurve(((0.0, a), (1.0, a - b)))


class TestSignalCurve:
    def test_interpolation(self):
        curve = linear_curve(0.5, 0.2)
        assert curve(0.0) == pytest.approx(0.5)
        assert curve(0.5) == pytest.approx(0.4)
        assert curve(1.0) == pytest.approx(0.3)

    def test_knots_must_span_unit_interval(self):
        with pytest.raises(ValidationError):
            SignalCurve(((0.0, 0.5), (0.9, 0.4)))

    def test_values_must_stay_in_unit_interval(self):
        with pytest.raises(DomainError):
            SignalCurve(((0.0, 1.2), (1.0, 0.2)))

    def test_serialization_round_trip(self):
        curve = parse_curve("f:0,0.5;1,0.3")
        assert curve(0.5) == pytest.approx(0.4)
        again = parse_curve(format_curve(curve))
        assert again.knots == curve.knots

    def test_knot_list_text_is_pinned(self):
        curve = parse_curve(" f:0,0.5;0.25,0.4;1,0.3 ")
        assert curve.knots == ((0.0, 0.5), (0.25, 0.4), (1.0, 0.3))
        text = "f:0,0.5;0.25,0.40000000000000002;1,0.29999999999999999"
        assert format_curve(curve) == text
        assert parse_curve(text) == curve

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,0.5;1,0.3", "curve text must start with 'f:', got '0,0.5;1,0.3'"),
            ("f:0,0.5;1", "bad knot '1' in 'f:0,0.5;1'"),
            ("f:0,0.5;1,0.3,0", "bad knot '1,0.3,0' in 'f:0,0.5;1,0.3,0'"),
            (" f:0,x;1,0.3", "bad knot '0,x' in 'f:0,x;1,0.3'"),
            ("f:0,0.5;", "bad knot '' in 'f:0,0.5;'"),
        ],
    )
    def test_bad_curve_text_is_named(self, text, message):
        with pytest.raises(ValidationError) as caught:
            parse_curve(text)
        assert str(caught.value) == message


class TestValidateSignalCurve:
    def test_shallow_decreasing_line_passes(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)), delta=0.2)
        report = validate_signal_curve(curve, alpha=0.8)
        assert report.passed

    def test_mass_violation_detected(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.0)))
        report = validate_signal_curve(curve, alpha=0.5)
        assert not report.passed
        names = {c.name: c for c in report.checks}
        assert not names["mass_nondecreasing"].passed
        violation = names["mass_nondecreasing"].violation_t
        assert violation is not None and violation > 0.5 - 0.01

    def test_zero_curve_passes_trivially(self):
        curve = SignalCurve(((0.0, 0.0), (1.0, 0.0)))
        assert validate_signal_curve(curve, alpha=0.5).passed

    def test_increasing_curve_fails(self):
        curve = SignalCurve(((0.0, 0.1), (1.0, 0.4)))
        report = validate_signal_curve(curve, alpha=0.5)
        names = {c.name: c for c in report.checks}
        assert not names["nonincreasing"].passed


class TestExactShapeChecks:
    spike = "f:0,0.5;0.50002,0.5;0.50003,0.9;0.50004,0.5;1,0.5"

    def test_narrow_spike_fails_nonincreasing(self):
        report = validate_signal_curve(parse_curve(self.spike), alpha=0.5)
        names = {c.name: c for c in report.checks}
        assert not names["nonincreasing"].passed
        assert names["nonincreasing"].violation_t == 0.50002

    def test_boundary_mass_passes(self):
        # t * f(t) peaks exactly at each right end: (t f)' = 0 there.
        rng = np.random.Generator(np.random.Philox(key=12))
        for t1, v0 in rng.random((200, 2)):
            curve = SignalCurve(((0.0, v0), (t1, v0 / 2), (1.0, v0 / 2)))
            names = {c.name: c for c in validate_signal_curve(curve, 0.5).checks}
            assert names["mass_nondecreasing"].passed, (t1, v0)

    def test_violations_start_where_the_failure_starts(self):
        # f = 0.25 + t rises through 1 - alpha = 0.5 at t = 0.25; then
        # f = 1.25 - t, so (t f)' = 1.25 - 2t turns negative at 0.625.
        curve = SignalCurve(((0.0, 0.25), (0.5, 0.75), (1.0, 0.25)))
        names = {c.name: c for c in validate_signal_curve(curve, 0.5).checks}
        assert names["nonincreasing"].violation_t == 0.0
        assert names["steep_where_dense"].violation_t == 0.25
        assert names["mass_nondecreasing"].violation_t == 0.625

    @staticmethod
    def edge_curves():
        """Curves whose checks sit on their bounds, next to them, and at tiny scales."""
        rng = np.random.Generator(np.random.Philox(key=13))
        tiny = (5e-324, 1e-300, 2.0**-1000)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            ts = np.sort(rng.choice([*rng.random(8), *tiny, 0.25, 0.5, 0.75], n - 2, replace=False))
            ts = [0.0, *ts, 1.0]
            vs = [float(rng.choice([rng.random(), 0.5, 0.25, 0.75, 1.0, 0.0, *tiny]))]
            for t0, t1 in zip(ts, ts[1:]):
                v = vs[-1]
                options = [
                    v * t0 / t1,  # (t f)' = 0 at the right end, up to rounding
                    v - 0.25 * (t1 - t0),  # slope -delta, up to rounding
                    np.nextafter(v, 2.0),  # a rise of one ulp
                    v,
                    rng.random(),
                ]
                vs.append(float(min(max(rng.choice(options), 0.0), 1.0)))
            yield SignalCurve(tuple(zip(ts, vs)), delta=0.25), float(rng.choice([0.5, 0.25, 0.3]))

    def test_integer_checks_equal_fraction_reference(self):
        for curve, alpha in self.edge_curves():
            first = curve_failures_fraction(curve.knots, alpha, curve.delta)
            report = validate_signal_curve(curve, alpha)
            failed = {c.name for c in report.checks if not c.passed}
            assert failed == set(first), (curve.knots, alpha)
            for check in report.checks:
                if not check.passed:
                    t0, t1 = (t for t, _ in curve.knots[first[check.name] : first[check.name] + 2])
                    assert t0 <= check.violation_t <= t1, (curve.knots, check)

    def test_threshold_segment_equals_fraction_reference(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        for _ in range(300):
            ts = [0.0, *np.sort(rng.random(4)), 1.0]
            vs = np.sort(rng.random(6))[::-1]
            alpha, mu = rng.random(2) * 0.9 + 0.05
            # Put the target exactly on an interior knot value half the time.
            if rng.random() < 0.5:
                alpha = float(1 - vs[2] * (1 - mu))
            curve = SignalCurve(tuple(zip(ts, vs)), delta=1e-12)
            try:
                got = asymptotic_threshold(curve, alpha, mu)
            except ContractError:
                continue
            target = (1 - Fraction(alpha)) / (1 - Fraction(mu))
            if not Fraction(vs[-1]) < target < Fraction(vs[0]):
                continue
            i = first_segment_below_fraction(curve.knots, alpha, mu)
            (t0, v0), (t1, v1) = (map(Fraction, knot) for knot in curve.knots[i : i + 2])
            assert got == float(t0 + (target - v0) * (t1 - t0) / (v1 - v0))

    def test_threshold_is_exact_on_float_inputs(self):
        curve = parse_curve("f:0,0.5;1,0.3")
        target = (1 - Fraction(0.8)) / (1 - Fraction(0.5))
        exact = (Fraction(0.5) - target) / (Fraction(0.5) - Fraction(0.3))
        assert float(exact) == 0.5000000000000004
        got = asymptotic_threshold(curve, alpha=0.8, mu=0.5)
        assert abs(got - float(exact)) <= math.ulp(float(exact))


class TestAsymptoticThreshold:
    def test_target_above_initial_proportion_stops_at_zero(self):
        curve = linear_curve(0.5, 0.2)
        assert asymptotic_threshold(curve, alpha=0.3, mu=0.2) == 0.0

    def test_interior_inverse(self):
        curve = linear_curve(0.5, 0.2)
        t = asymptotic_threshold(curve, alpha=0.8, mu=0.5)
        assert t == pytest.approx(0.5, abs=1e-9)

    def test_saturated_curve_reaches_one(self):
        curve = SignalCurve(((0.0, 1.0), (1.0, 1.0)))
        assert asymptotic_threshold(curve, alpha=0.5, mu=0.4) == 1.0

    def test_nonincreasing_in_mu(self):
        curve = linear_curve(0.6, 0.3)
        mus = np.linspace(0.05, 0.9, 12)
        ts = [asymptotic_threshold(curve, 0.75, float(m)) for m in mus]
        assert all(b <= a + 1e-9 for a, b in zip(ts, ts[1:]))

    def test_parameters_must_be_interior(self):
        curve = linear_curve(0.5, 0.2)
        with pytest.raises(DomainError):
            asymptotic_threshold(curve, alpha=0.0, mu=0.5)
        with pytest.raises(DomainError):
            asymptotic_threshold(curve, alpha=0.5, mu=1.0)

    def test_interior_case_requires_steepness(self):
        flat = SignalCurve(((0.0, 0.5), (0.4, 0.5), (1.0, 0.1)), delta=0.05)
        with pytest.raises(ContractError):
            asymptotic_threshold(flat, alpha=0.55, mu=0.05)


class TestAsymptoticPower:
    def test_zero_threshold_gives_zero_power(self):
        curve = linear_curve(0.5, 0.2)
        assert asymptotic_power(curve, alpha=0.3, mu=0.2) == 0.0

    def test_interior_value(self):
        curve = linear_curve(0.5, 0.2)
        got = asymptotic_power(curve, alpha=0.8, mu=0.5)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_saturated_curve_gives_full_power(self):
        curve = SignalCurve(((0.0, 1.0), (1.0, 1.0)))
        assert asymptotic_power(curve, alpha=0.5, mu=0.4) == 1.0

    def test_vanishing_tail_proportion_rejected(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.0)))
        with pytest.raises(ContractError):
            asymptotic_power(curve, alpha=0.4, mu=0.2)

    def test_nonincreasing_in_mu(self):
        curve = linear_curve(0.6, 0.3)
        mus = np.linspace(0.05, 0.9, 10)
        powers = [asymptotic_power(curve, 0.75, float(m)) for m in mus]
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))


class TestExpectedFdpCurve:
    def test_full_mean_saturates(self):
        curve = linear_curve(0.5, 0.2)
        ts = np.linspace(0, 1, 7)
        assert np.allclose(expected_fdp_curve(curve, 1.0, ts), 1.0)

    def test_zero_curve_saturates(self):
        curve = SignalCurve(((0.0, 0.0), (1.0, 0.0)))
        assert expected_fdp_curve(curve, 0.3, 0.5) == pytest.approx(1.0)

    def test_pointwise_formula(self):
        curve = linear_curve(0.5, 0.2)
        assert expected_fdp_curve(curve, 0.5, 0.5) == pytest.approx(0.8)

    def test_nondecreasing_in_t(self):
        curve = linear_curve(0.7, 0.4)
        values = expected_fdp_curve(curve, 0.3, np.linspace(0, 1, 50))
        assert np.all(np.diff(values) >= -1e-12)


class TestStepOptimalityGap:
    density = AlternativeDensity.beta(1.0, 2.0)

    def test_step_against_itself(self):
        step = piecewise_constant([(0.0, 0.5, 0.0), (0.5, 1.0, 2.0)])
        got = step_optimality_gap(step, 2.0, self.density)
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_two_level_function_has_positive_gap(self):
        spec = piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
        got = step_optimality_gap(spec, 2.0, self.density)
        assert got == pytest.approx(0.2, abs=1e-6)

    def test_uniform_density_gives_zero_gap(self):
        uniform = AlternativeDensity.uniform()
        for spec in [
            seq_step(2.0),
            piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)]),
        ]:
            assert step_optimality_gap(spec, 2.0, uniform) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_unbounded_spec_rejected(self):
        with pytest.raises(ContractError):
            step_optimality_gap(forward_stop(), 2.0, self.density)

    def test_infinite_bound_rejected(self):
        # The step mean would be inf * 0, a NaN gap.
        with pytest.raises(DomainError, match="finite"):
            step_optimality_gap(seq_step(2.0), math.inf, AlternativeDensity.uniform())

    def test_spec_exceeding_cap_rejected(self):
        spec = piecewise_constant([(0.0, 0.5, 0.0), (0.5, 1.0, 2.0)])
        with pytest.raises(ContractError):
            step_optimality_gap(spec, 1.5, self.density)

    def test_narrow_excess_rejected(self):
        # The level-3 piece spans 1e-5, narrower than any fixed grid's spacing.
        top = (1.0 - 0.6 * 0.5 - 1e-5 * 3.0) / (1.0 - 0.60001)
        spec = piecewise_constant(
            [(0.0, 0.6, 0.5), (0.6, 0.60001, 3.0), (0.60001, 1.0, top)]
        )
        with pytest.raises(ContractError):
            step_optimality_gap(spec, 2.0, self.density)

    def test_increasing_density_rejected(self):
        rising = AlternativeDensity.beta(2.0, 1.0)
        with pytest.raises(ContractError):
            step_optimality_gap(seq_step(2.0), 2.0, rising)


class TestRandomWalkEnvelope:
    def test_epsilon_one_plugin(self):
        got = random_walk_envelope(4.0, 1.5, 1.0, 9.0)
        want = 2.0 * max(2.0, 2.0 * 1.5) * math.sqrt(9.0 * math.log(10.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_subgaussian_reduction(self):
        sigma = 1.7
        got = random_walk_envelope(sigma**2, 0.0, 0.1, 50.0)
        level = math.sqrt(2.0 * math.log2(4.0 / 0.1))
        want = level * sigma * math.sqrt(50.0 * math.log(51.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_arithmetic_reference_value(self):
        got = random_walk_envelope(1.0, 0.0, 0.05, 100.0)
        assert got == pytest.approx(76.38908306389054, abs=1e-9)

    def test_vectorized_over_times(self):
        ts = np.array([1.0, 10.0, 100.0])
        got = random_walk_envelope(1.0, 0.0, 0.5, ts)
        assert got.shape == (3,) and np.all(np.diff(got) > 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            random_walk_envelope(1.0, 0.0, 0.0, 10.0)
        with pytest.raises(DomainError):
            random_walk_envelope(1.0, 0.0, 1.5, 10.0)
        for t in (0.0, math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                random_walk_envelope(1.0, 0.0, 0.5, t)
        for t in (math.inf, np.array([1.0, math.inf])):
            with pytest.raises(DomainError, match="times must be positive and finite"):
                random_walk_envelope(1.0, 0.0, 0.1, t)

    def test_gaussian_walks_rarely_exit(self):
        frac = envelope_exit_fraction(
            1.0, 0.0, 0.05, t_max=200, n_walks=2000, seed=31
        )
        se = math.sqrt(max(frac * (1 - frac), 1e-12) / 2000)
        assert frac <= 0.05 + 4 * se

    def test_result_does_not_depend_on_walks_per_block(self, monkeypatch):
        want = [envelope_exit_fraction(1.0, 0.0, 0.5, t, 300, seed=7) for t in (1, 40)]
        for budget in (40 * power_theory._STEP_BYTES, 1000 * 40 * power_theory._STEP_BYTES):
            monkeypatch.setattr(power_theory, "_WALK_BUDGET", budget)
            got = [envelope_exit_fraction(1.0, 0.0, 0.5, t, 300, seed=7) for t in (1, 40)]
            assert got == want

    def test_seed_read_modulo_2_64(self):
        # A negative seed once raised numpy's bare "expected non-negative integer".
        def fraction(seed):
            return envelope_exit_fraction(1.0, 0.0, 1.0, 40, 500, seed)

        assert fraction(-1) == fraction(2**64 - 1) != fraction(3) == fraction(2**64 + 3)

    def test_oversized_walk_refused_before_allocation(self):
        largest = power_theory._WALK_BUDGET // power_theory._STEP_BYTES
        assert largest >= 1000
        tracemalloc.start()
        try:
            for t_max in (largest + 1, 10**12):
                with pytest.raises(ContractError, match=f"largest t_max is {largest}"):
                    envelope_exit_fraction(1.0, 0.0, 0.05, t_max=t_max, n_walks=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestSubexponentialBounds:
    def test_builtin_transforms_satisfy_mgf_bound(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        draws = rng.random(200_000)
        cases = [
            (seq_step(2.0), 1.0, 0.0),
            (forward_stop(), 4.0, 2.0),
            (hinge_exp(2.0), 8.0, 4.0),
        ]
        for spec, sigma2, b in cases:
            samples = evaluate(spec, draws)
            limit = 1.0 / b if b > 0 else 2.0
            thetas = np.linspace(-limit, limit, 9)
            thetas = thetas[thetas != 0.0]
            estimates, errors = centered_mgf(samples, thetas, center=1.0)
            bound = np.exp(thetas**2 * sigma2 / 2.0)
            assert np.all(estimates <= bound + 4.0 * errors)

    def test_non_finite_inputs_refused(self):
        # NaN samples once gave NaN estimates, and inf ones a RuntimeWarning too.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="samples must be finite"):
                centered_mgf(np.array([1.0, bad]), [0.1])
            with pytest.raises(DomainError, match="thetas must be finite"):
                centered_mgf(np.array([1.0, 2.0]), [0.1, bad])
            with pytest.raises(DomainError, match="center must be finite"):
                centered_mgf(np.array([1.0, 2.0]), [0.1], center=bad)

    def test_finite_inputs_give_finite_results_or_name_the_fault(self):
        # Each once gave inf or NaN with an overflow warning, or blamed a
        # center the caller never gave.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates, errors = centered_mgf(np.array([0.0, 1.0]), [1000.0])
            assert estimates[0] == pytest.approx(math.exp(500.0) / 2.0, rel=1e-12)
            assert errors[0] == pytest.approx(math.exp(500.0) / 2.0, rel=1e-12)
            estimates, errors = centered_mgf(np.array([1e308, 1e308]), [1.0, -3.0])
            assert estimates.tolist() == [1.0, 1.0]
            assert errors.tolist() == [0.0, 0.0]
            with pytest.raises(DomainError, match=r"overflows at theta 2000\.0"):
                centered_mgf(np.array([0.0, 1.0]), [2000.0])
            with pytest.raises(DomainError, match=r"samples minus center .* overflow"):
                centered_mgf(np.array([-1.7e308, 1.7e308, 1.7e308]), [0.0])

    def test_scaling_moves_no_bit_where_nothing_overflows(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        samples = rng.normal(size=1000) * 3.0
        thetas = np.array([-2.0, -0.5, 0.25, 1.0, 2.0])
        estimates, errors = centered_mgf(samples, thetas)
        deviations = samples - samples.mean()
        for j, theta in enumerate(thetas):
            values = np.exp(theta * deviations)
            assert estimates[j] == values.mean()
            assert errors[j] == values.std(ddof=1) / math.sqrt(values.size)
