"""Accumulation function construction, evaluation, integrals, and serialization."""

import math

import numpy as np
import pytest

from accumtest import (
    DomainError,
    ValidationError,
    AlternativeDensity,
    accumfn,
    evaluate,
    format_spec,
    forward_stop,
    hinge_exp,
    nonnull_mean,
    parse_spec,
    piecewise_constant,
    seq_step,
    truncated_integral,
    unit_integral,
)

import oracles


class TestEvaluate:
    def test_forward_stop_at_zero(self):
        assert evaluate(forward_stop(), 0.0) == 0.0

    def test_seq_step_threshold(self):
        spec = seq_step(2.0)
        assert evaluate(spec, 0.4) == 0.0
        assert evaluate(spec, 0.6) == 2.0

    def test_hinge_exp_above_threshold(self):
        got = evaluate(hinge_exp(2.0), 0.75)
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_hinge_exp_at_threshold(self):
        assert evaluate(hinge_exp(2.0), 0.5) == 0.0

    @pytest.mark.parametrize("c", [1.0000001, 1.5, 2.0, 3.0, 10.0])
    def test_hinge_exp_bits_equal_direct_formula(self, c):
        # The evaluator writes the zero region after the formula instead of
        # computing the formula on a masked copy; no bit may change.
        threshold = 1.0 - 1.0 / c
        t = np.concatenate([
            [0.0, 1.0, 1.0 - 1e-17, 0.5 + 2**-53, 0.5, threshold],
            np.nextafter(threshold, [0.0, 1.0]),
            np.random.default_rng(3).random(10_000),
        ])
        with np.errstate(divide="ignore"):
            want = np.where(t > threshold, -c * (math.log(c) + np.log1p(-t)), 0.0)
        got = evaluate(hinge_exp(c), t)
        assert got.tobytes() == want.tobytes()

    def test_infinite_at_one_for_unbounded_families(self):
        assert evaluate(forward_stop(), 1.0) == math.inf
        assert evaluate(hinge_exp(2.0), 1.0) == math.inf

    def test_bounded_families_finite_at_one(self):
        assert evaluate(seq_step(2.0), 1.0) == 2.0
        spec = piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
        assert evaluate(spec, 1.0) == 1.6

    def test_matches_scalar_formulas_on_grid(self):
        grid = np.linspace(0.0, 0.999, 211)
        for spec, h in [
            (forward_stop(), oracles.forward_stop_h),
            (seq_step(3.0), oracles.seq_step_h(3.0)),
            (hinge_exp(2.5), oracles.hinge_exp_h(2.5)),
        ]:
            got = evaluate(spec, grid)
            want = np.array([h(t) for t in grid])
            assert np.allclose(got, want, atol=1e-12)

    def test_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            evaluate(forward_stop(), -0.1)
        with pytest.raises(DomainError):
            evaluate(seq_step(2.0), 1.1)

    def test_nonnegative_everywhere(self):
        grid = np.linspace(0.0, 1.0 - 1e-9, 1000)
        for spec in [forward_stop(), seq_step(2.0), hinge_exp(5.0)]:
            assert np.all(evaluate(spec, grid) >= 0.0)

    def test_seq_step_two_valued(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        values = evaluate(seq_step(3.0), rng.random(500))
        assert set(np.unique(values)) <= {0.0, 3.0}

    def test_hinge_exp_zero_region(self):
        grid = np.linspace(0.0, 1.0 - 1.0 / 3.0, 200)
        assert np.all(evaluate(hinge_exp(3.0), grid) == 0.0)


class TestSpecConstruction:
    def test_c_must_exceed_one(self):
        with pytest.raises(DomainError):
            seq_step(1.0)
        with pytest.raises(DomainError):
            hinge_exp(0.5)

    @pytest.mark.parametrize("make", [seq_step, hinge_exp])
    @pytest.mark.parametrize("c", [1e11, 1e13, 1e16, 1e17, 1e300])
    def test_c_too_large_for_floats(self, make, c):
        # At C = 1e17 the step edge 1 - 1/C rounds to 1 and h is 0 everywhere.
        with pytest.raises(DomainError, match="too large"):
            make(c)

    @pytest.mark.parametrize("make", [seq_step, hinge_exp])
    @pytest.mark.parametrize("c", [2.0, 1e6])
    def test_moderate_c_accepted(self, make, c):
        assert make(c).c_param == c

    def test_piecewise_must_integrate_to_one(self):
        with pytest.raises(ValidationError):
            piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.7)])

    def test_piecewise_must_tile_unit_interval(self):
        with pytest.raises(ValidationError):
            piecewise_constant([(0.0, 0.4, 1.0), (0.5, 1.0, 1.2)])

    def test_piecewise_levels_nonnegative(self):
        with pytest.raises(DomainError):
            piecewise_constant([(0.0, 0.5, -0.2), (0.5, 1.0, 2.2)])


class TestUnitIntegral:
    def test_forward_stop(self):
        assert unit_integral(forward_stop()) == pytest.approx(1.0, abs=1e-9)

    def test_seq_step_exact(self):
        assert unit_integral(seq_step(3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_piecewise(self):
        spec = piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
        assert unit_integral(spec) == pytest.approx(1.0, abs=1e-12)

    def test_all_builtin_families(self):
        specs = [forward_stop()]
        for c in (2.0, 3.0, 5.0):
            specs += [seq_step(c), hinge_exp(c)]
        for spec in specs:
            assert unit_integral(spec) == pytest.approx(1.0, abs=1e-9)


class TestTruncatedIntegral:
    def test_cap_above_bound_gives_one(self):
        assert truncated_integral(seq_step(2.0), 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_forward_stop_cap_one(self):
        want = 0.6321205588285576784045
        got = truncated_integral(forward_stop(), 1.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_forward_stop_cap_two(self):
        want = 0.864664716763387308106
        got = truncated_integral(forward_stop(), 2.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_hinge_exp_monotone_limits(self):
        spec = hinge_exp(2.0)
        small = truncated_integral(spec, 1e-6)
        large = truncated_integral(spec, 60.0)
        assert small < 1e-5
        assert large == pytest.approx(1.0, abs=1e-6)

    def test_nondecreasing_in_cap_and_bounded(self):
        spec = forward_stop()
        caps = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        values = [truncated_integral(spec, c) for c in caps]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12
        for cap, value in zip(caps, values):
            assert value <= min(1.0, cap) + 1e-9

    def test_matches_high_precision_quadrature(self):
        import mpmath as mp

        spec = hinge_exp(2.0)
        cap = 1.5
        h = oracles.hinge_exp_h(2.0)
        crossing = 1.0 - math.exp(-cap / 2.0) / 2.0
        want = mp.quad(
            lambda t: min(h(float(t)), cap),
            [0, 0.5, crossing, 1 - mp.mpf("1e-20")],
        ) + cap * mp.mpf("1e-20")
        got = truncated_integral(spec, cap)
        assert got == pytest.approx(float(want), abs=1e-9)

    def test_cap_must_be_positive(self):
        with pytest.raises(DomainError):
            truncated_integral(forward_stop(), 0.0)
        with pytest.raises(DomainError):
            truncated_integral(forward_stop(), -1.0)


class TestNonnullMean:
    def test_uniform_density_recovers_normalization(self):
        uniform = AlternativeDensity.uniform()
        for spec in [forward_stop(), seq_step(2.0), hinge_exp(3.0)]:
            assert nonnull_mean(spec, uniform) == pytest.approx(1.0, abs=1e-6)

    def test_step_against_linear_density(self):
        density = AlternativeDensity.beta(1.0, 2.0)
        got = nonnull_mean(seq_step(2.0), density)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_forward_stop_against_z_density(self):
        density = AlternativeDensity.two_sided_z(2.0)
        got = nonnull_mean(forward_stop(), density)
        frozen = 0.22980840632732636
        assert got == pytest.approx(frozen, abs=1e-7)
        rng = np.random.Generator(np.random.Philox(key=42))
        samples = density.sample(rng, 200_000)
        values = evaluate(forward_stop(), samples)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(got - values.mean()) <= 3.0 * se

    def test_piecewise_mean_closed_form(self):
        spec = piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
        density = AlternativeDensity.beta(1.0, 2.0)
        want = 0.4 * 0.75 + 1.6 * 0.25
        assert nonnull_mean(spec, density) == pytest.approx(want, abs=1e-9)

    def test_step_mean_across_density_pole(self, monkeypatch):
        # The level at the pole is nonzero, where quadrature of h * pdf
        # refines to full depth; the sum over pieces makes no such call.
        monkeypatch.setattr(accumfn, "integrate_with_splits", None)
        spec = piecewise_constant(
            [(0.0, 0.3, 0.5), (0.3, 0.8, 1.1), (0.8, 1.0, 1.5)]
        )
        got = nonnull_mean(spec, AlternativeDensity.two_sided_z(8.0))
        frozen = 0.50000000000099715  # mpmath, 40 digits
        assert got == pytest.approx(frozen, abs=1e-12)

    def test_zero_shift_z_density_is_uniform(self):
        density = AlternativeDensity.two_sided_z(0.0)
        assert nonnull_mean(seq_step(2.0), density) == 1.0
        assert nonnull_mean(forward_stop(), density) == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_named_forms(self):
        assert format_spec(forward_stop()) == "forwardstop"
        assert format_spec(seq_step(2.0)) == "seqstep:C=2"
        assert format_spec(hinge_exp(2.5)) == "hingeexp:C=2.5"

    def test_round_trip(self):
        specs = [
            forward_stop(),
            seq_step(7.25),
            hinge_exp(2.0),
            piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)]),
        ]
        for spec in specs:
            assert parse_spec(format_spec(spec)) == spec

    def test_parse_examples(self):
        assert parse_spec("forwardstop") == forward_stop()
        assert parse_spec("seqstep:C=2") == seq_step(2.0)
        assert parse_spec("piecewise:0,0.5,0.4;0.5,1,1.6") == piecewise_constant(
            [(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)]
        )

    def test_malformed_strings_rejected(self):
        for text in ["", "unknown", "seqstep", "seqstep:C=x", "piecewise:1,2", "seqstep:C=1"]:
            with pytest.raises((ValidationError, DomainError)):
                parse_spec(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("piecewise:0,0.5;0.5,1,1.6", "bad piece '0,0.5' in 'piecewise:0,0.5;0.5,1,1.6'"),
            ("piecewise:0,0.5,x;0.5,1,1.6", "bad piece '0,0.5,x' in 'piecewise:0,0.5,x;0.5,1,1.6'"),
            (" piecewise:0,1,1;1,1,1,1 ", "bad piece '1,1,1,1' in 'piecewise:0,1,1;1,1,1,1'"),
            ("piecewise:", "bad piece '' in 'piecewise:'"),
        ],
    )
    def test_bad_piece_is_named_with_the_text(self, text, message):
        with pytest.raises(ValidationError) as caught:
            parse_spec(text)
        assert str(caught.value) == message

    def test_piece_list_text_round_trips_every_bit(self):
        third = 1.0 / 3.0
        spec = piecewise_constant([(0.0, third, 0.75), (third, 1.0, 1.125)])
        text = "piecewise:0,0.33333333333333331,0.75;0.33333333333333331,1,1.125"
        assert format_spec(spec) == text
        assert parse_spec(text) == spec
        assert parse_spec(format_spec(spec)).pieces == spec.pieces


def random_piecewise_specs(count, seed):
    """``count`` piecewise specs of 3 to 8 pieces, with random edges and
    levels scaled to integrate to one."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(3, 9))
        edges = np.concatenate([[0.0], np.sort(rng.random(k - 1)), [1.0]])
        levels = rng.random(k)
        levels /= np.sum(levels * np.diff(edges))
        yield piecewise_constant(zip(edges[:-1], edges[1:], levels))


def test_unit_integral_is_the_uncapped_truncated_integral_bit_for_bit():
    # One summation rule for every step integral: with the cap at the top
    # level, min(h, cap) is h, so the two integrals are the same sum.
    for spec in random_piecewise_specs(1000, 5):
        top = max(level for _, _, level in spec.pieces)
        assert unit_integral(spec).hex() == truncated_integral(spec, top).hex()
