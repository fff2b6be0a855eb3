"""Estimated FDP paths, cutoff selection, truth metrics, grid shifts."""

import math

import numpy as np
import pytest

from accumtest import (
    ContractError,
    DomainError,
    ValidationError,
    Method,
    OrderedPValues,
    Rule,
    default_methods,
    estimated_fdp_path,
    estimated_fdp_path_plus,
    fdp,
    forward_stop,
    mfdp,
    power_of_cutoff,
    run_accumulation_test,
    select_cutoff,
    seq_step,
    shift_discrete_pvalues,
)

import oracles


class TestOrderedPValues:
    def test_values_must_lie_in_unit_interval(self):
        with pytest.raises(ValidationError):
            OrderedPValues([0.1, 1.2])
        with pytest.raises(ValidationError):
            OrderedPValues([-0.01])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            OrderedPValues([])

    def test_mask_length_must_match(self):
        with pytest.raises(ValidationError):
            OrderedPValues([0.1, 0.2], null_mask=[True])

    def test_arrays_are_frozen(self):
        pv = OrderedPValues([0.1, 0.2])
        with pytest.raises(ValueError):
            pv.values[0] = 0.5


class TestEstimatedFdpPath:
    def test_forward_stop_triple(self):
        got = estimated_fdp_path([0.1, 0.2, 0.3], forward_stop())
        want = [0.10536051565782630, 0.16425203348601803, 0.22839300363692281]
        assert np.allclose(got, want, atol=1e-12)

    def test_seq_step_hand_enumeration(self):
        got = estimated_fdp_path([0.01, 0.95, 0.02, 0.8, 0.9], seq_step(2.0))
        want = [0.0, 1.0, 2.0 / 3.0, 1.0, 1.2]
        assert np.allclose(got, want, atol=1e-12)

    def test_all_zero_pvalues_give_zero_path(self):
        for spec in [forward_stop(), seq_step(2.0)]:
            got = estimated_fdp_path([0.0, 0.0, 0.0], spec)
            assert np.array_equal(got, np.zeros(3))

    def test_matches_loop_oracle_on_random_input(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        pvals = rng.random(60)
        got = estimated_fdp_path(pvals, forward_stop())
        want = oracles.brute_fdp_path(pvals, oracles.forward_stop_h)
        assert np.allclose(got, want, atol=1e-10)

    def test_infinite_entries_propagate(self):
        got = estimated_fdp_path([0.5, 1.0, 0.1], forward_stop())
        assert math.isfinite(got[0])
        assert got[1] == math.inf and got[2] == math.inf


class TestEstimatedFdpPathPlus:
    def test_two_value_example(self):
        got = estimated_fdp_path_plus([0.1, 0.2], seq_step(2.0), 2.0)
        assert np.allclose(got, [1.0, 2.0 / 3.0], atol=1e-12)

    def test_single_term(self):
        got = estimated_fdp_path_plus([1.0], seq_step(2.0), 2.0)
        assert got[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_pvalues_decay_like_c_over_k_plus_one(self):
        got = estimated_fdp_path_plus([0.0] * 5, seq_step(2.0), 2.0)
        want = [2.0 / (1 + k) for k in range(1, 6)]
        assert np.allclose(got, want, atol=1e-12)

    def test_negative_c_rejected(self):
        with pytest.raises(DomainError):
            estimated_fdp_path_plus([0.5], seq_step(2.0), -1.0)


class TestBlockPaths:
    def test_rows_equal_one_list_paths_bitwise(self):
        rng = np.random.Generator(np.random.Philox(key=19))
        block = rng.random((5, 30))
        block[1, 4] = 1.0
        block[2, :] = 0.0
        for method in default_methods(2.0) + default_methods(3.0):
            got = method.path(block)
            assert got.shape == block.shape
            for row, values in zip(got, block):
                assert row.tobytes() == method.path(values).tobytes()

    def test_out_of_range_or_empty_block_rejected(self):
        block = np.full((2, 3), 0.5)
        block[1, 2] = 1.5
        with pytest.raises(ValidationError):
            estimated_fdp_path(block, forward_stop())
        block[1, 2] = math.nan
        with pytest.raises(ValidationError):
            estimated_fdp_path_plus(block, seq_step(2.0), 2.0)
        with pytest.raises(DomainError):
            estimated_fdp_path(np.empty((2, 0)), forward_stop())


class TestSelectCutoff:
    def test_scan_finds_last_crossing(self):
        assert select_cutoff([0.0, 1.0, 2.0 / 3.0, 1.0, 1.2], 0.5) == 1

    def test_all_entries_below_level(self):
        path = [0.105361, 0.164252, 0.228387]
        assert select_cutoff(path, 0.25) == 3

    def test_empty_set_convention(self):
        assert select_cutoff([0.9, 0.8, 0.99], 0.5) == 0

    def test_ties_at_level_count(self):
        assert select_cutoff([0.6, 0.5, 0.7], 0.5) == 2

    def test_monotone_in_alpha(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        path = rng.random(50) * 1.5
        cuts = [select_cutoff(path, a) for a in np.linspace(0.01, 0.99, 33)]
        assert all(b >= a for a, b in zip(cuts, cuts[1:]))

    def test_raising_entries_beyond_cutoff_never_raises_it(self):
        path = np.array([0.1, 0.4, 0.2, 0.9, 0.8, 1.3])
        alpha = 0.3
        base = select_cutoff(path, alpha)
        bumped = path.copy()
        bumped[base:] += 0.7
        assert select_cutoff(bumped, alpha) <= base

    def test_matches_loop_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        path = rng.random(80)
        for alpha in (0.05, 0.3, 0.71):
            assert select_cutoff(path, alpha) == oracles.brute_select(path, alpha)

    def test_level_outside_open_interval_rejected(self):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                select_cutoff([0.5], alpha)

    def test_vector_of_levels_matches_loop_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        levels = np.array([0.01, 0.05, 0.2, 0.2, 0.5, 0.37, 0.9, 0.999])
        for _ in range(200):
            path = rng.random(int(rng.integers(1, 40))) * 1.2
            path[rng.random(path.size) < 0.1] = math.inf
            path[rng.random(path.size) < 0.1] = math.nan
            got = select_cutoff(path, levels)
            assert got.shape == levels.shape
            want = [oracles.brute_select(path, a) for a in levels]
            assert got.tolist() == want
            scalar = select_cutoff(path, float(levels[2]))
            assert type(scalar) is int and scalar == want[2]

    def test_nan_never_counts_as_a_hit(self):
        assert select_cutoff([math.nan, math.nan], 0.5) == 0
        assert select_cutoff([0.1, math.nan, 0.9, math.nan], [0.05, 0.5]).tolist() == [0, 1]

    def test_bad_level_vectors_rejected(self):
        for levels in ([[0.1, 0.2]], [0.1, 0.0], [0.2, 1.0], [0.3, math.nan]):
            with pytest.raises(DomainError):
                select_cutoff([0.5, 0.1], levels)

    def test_block_rows_equal_one_dimensional_calls(self):
        inf, nan = math.inf, math.nan
        block = np.array([
            [0.1, nan, 0.9, nan, 0.3, 0.2],
            [0.05, 0.4, inf, 0.2, inf, 0.6],
            [0.2, 0.3, 0.2, 0.5, 0.5, 0.5],
            [0.1, 0.8, 0.9, 0.15, 0.7, 0.9],
            [0.01, 0.02, 0.3, nan, nan, nan],
            [nan, nan, nan, nan, nan, nan],
            [inf, 0.6, 0.5, 0.45, 0.55, 0.9],
        ])
        levels = np.array([0.05, 0.2, 0.5, 0.15, 0.999])
        got = select_cutoff(block, levels)
        assert got.shape == (block.shape[0], levels.size)
        for row, path in zip(got, block):
            assert row.tolist() == select_cutoff(path, levels).tolist()
            assert row.tolist() == [oracles.brute_select(path, a) for a in levels]
        one_level = select_cutoff(block, 0.2)
        assert one_level.shape == (block.shape[0],)
        assert one_level.tolist() == [select_cutoff(path, 0.2) for path in block]

    def test_random_blocks_equal_one_dimensional_calls(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        levels = np.array([0.01, 0.05, 0.2, 0.2, 0.5, 0.37, 0.9, 0.999])
        for _ in range(50):
            block = rng.random((int(rng.integers(1, 6)), int(rng.integers(1, 40)))) * 1.2
            block[rng.random(block.shape) < 0.1] = math.inf
            block[rng.random(block.shape) < 0.1] = math.nan
            got = select_cutoff(block, levels)
            want = [select_cutoff(path, levels).tolist() for path in block]
            assert got.tolist() == want

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (9, 1000), (300, 5)])
    def test_blocks_match_loop_oracle(self, shape):
        rows, n = shape
        rng = np.random.Generator(np.random.Philox(key=rows * n))
        # Unsorted, with a duplicate; paths below put entries exactly on
        # the first three.
        levels = np.array([0.3, 0.05, 0.3, 0.2, 0.9, 0.6, 0.11])
        # A random walk around the levels rises and dips back under them.
        block = np.abs(np.cumsum(rng.normal(0.0, 0.2, shape), axis=1) + 0.3)
        block[rng.random(shape) < 0.05] = math.nan
        block[rng.random(shape) < 0.05] = math.inf
        on_level = rng.random(shape) < 0.05
        block[on_level] = rng.choice(levels[:3], size=on_level.sum())
        block[::3, n - n // 4:] = math.nan  # all-NaN suffixes
        block[1::4, -1] = 0.01  # a last entry under every level
        got = select_cutoff(block, levels)
        assert got.shape == (rows, levels.size)
        want = [[oracles.brute_select(path, a) for a in levels] for path in block]
        assert got.tolist() == want
        scalar = select_cutoff(block, 0.2)
        assert scalar.shape == (rows,)
        assert scalar.tolist() == [row[3] for row in want]

    def test_three_dimensional_path_or_two_dimensional_alpha_rejected(self):
        with pytest.raises(DomainError):
            select_cutoff(np.full((2, 2, 3), 0.1), 0.5)
        with pytest.raises(DomainError):
            select_cutoff(np.full((2, 3), 0.1), [[0.1, 0.2]])
        with pytest.raises(DomainError):
            select_cutoff(np.empty((2, 0)), 0.5)


class TestRunAccumulationTest:
    def test_result_invariants(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        pvals = rng.random(40)
        res = run_accumulation_test(pvals, forward_stop(), 0.3)
        assert res.rule is Rule.PLAIN and res.alpha == 0.3
        if res.k_hat > 0:
            assert res.fdp_hat_path[res.k_hat - 1] <= 0.3
        assert all(v > 0.3 for v in res.fdp_hat_path[res.k_hat :])

    def test_plus_rule_matches_direct_formula(self):
        rng = np.random.Generator(np.random.Philox(key=22))
        pvals = rng.random(30)
        c = 2.0
        res = run_accumulation_test(pvals, seq_step(c), 0.4, rule=Rule.PLUS)
        best = 0
        for k in range(1, 31):
            hits = sum(1 for p in pvals[:k] if p > 1.0 - 1.0 / c)
            if (c + c * hits) / (1.0 + k) <= 0.4:
                best = k
        assert res.k_hat == best
        assert res.c_param == c

    def test_plus_rule_without_c_for_custom_spec_fails(self):
        from accumtest import piecewise_constant

        spec = piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
        with pytest.raises(ContractError):
            run_accumulation_test([0.5], spec, 0.3, rule=Rule.PLUS)
        with pytest.raises(ContractError):
            Method("custom", spec, rule=Rule.PLUS).path([0.5])
        res = run_accumulation_test([0.5], spec, 0.9, rule=Rule.PLUS, c=1.0)
        assert res.c_param == 1.0

    @pytest.mark.parametrize("spec", [seq_step(2.0), forward_stop()], ids=repr)
    @pytest.mark.parametrize("rule", list(Rule))
    def test_string_rule_runs_the_same_rule(self, rule, spec):
        pvals = (0.01, 0.02, 0.04, 0.3, 0.8, 0.9, 0.95)
        c = None if spec.c_param else 2.0
        by_enum = run_accumulation_test(pvals, spec, 0.3, rule=rule, c=c)
        by_value = run_accumulation_test(pvals, spec, 0.3, rule=rule.value, c=c)
        assert by_value.rule is rule
        assert by_value.k_hat == by_enum.k_hat
        assert by_value.c_param == by_enum.c_param
        assert by_value.fdp_hat_path.tobytes() == by_enum.fdp_hat_path.tobytes()
        method = Method("m", spec, rule=rule.value, c=c)
        assert method.rule is rule
        assert method.path(pvals).tobytes() == by_enum.fdp_hat_path.tobytes()

    def test_plain_string_rule_on_seq_step(self):
        pvals = (0.01, 0.02, 0.04, 0.3, 0.8, 0.9, 0.95)
        assert run_accumulation_test(pvals, seq_step(2.0), 0.3, rule="plain").k_hat == 4
        assert run_accumulation_test(pvals, seq_step(2.0), 0.3, rule="plus").k_hat == 0

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError, match="bogus"):
            run_accumulation_test([0.5], forward_stop(), 0.3, rule="bogus")
        with pytest.raises(DomainError, match="bogus"):
            Method("m", forward_stop(), rule="bogus")


class TestTruthMetrics:
    mask = np.array([True, False, True, False])

    def test_fdp_conventions(self):
        assert fdp(0, self.mask) == 0.0
        assert fdp(3, self.mask) == pytest.approx(2.0 / 3.0)
        assert fdp(4, np.ones(4, dtype=bool)) == 1.0

    def test_mfdp_conventions(self):
        assert mfdp(0, self.mask, 5.0) == 0.0
        assert mfdp(3, np.array([True, True, False]), 2.0) == pytest.approx(0.4)
        for k in range(1, 5):
            assert mfdp(k, self.mask, 0.0) == pytest.approx(fdp(k, self.mask))

    def test_mfdp_negative_c_rejected(self):
        for c in (-0.5, math.nan):
            with pytest.raises(DomainError):
                mfdp(1, self.mask, c)

    def test_power_conventions(self):
        assert power_of_cutoff(4, self.mask) == 1.0
        assert power_of_cutoff(0, self.mask) == 0.0
        assert power_of_cutoff(2, np.array([False, True, False, True])) == 0.5

    def test_power_without_nonnulls_rejected(self):
        with pytest.raises(ContractError):
            power_of_cutoff(1, np.array([True, True]))

    def test_k_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            fdp(5, self.mask)
        with pytest.raises(DomainError):
            power_of_cutoff(-1, self.mask)

    def test_missing_mask_rejected(self):
        with pytest.raises(ContractError):
            fdp(1, None)


class TestShiftDiscretePValues:
    def test_full_grid_252(self):
        values = np.arange(1, 253) / 252.0
        out = shift_discrete_pvalues(values, 252)
        assert out.values[-1] == pytest.approx(252.0 / 253.0, abs=1e-15)
        assert out.values[0] == pytest.approx(1.0 / 253.0, abs=1e-15)

    def test_small_grid(self):
        out = shift_discrete_pvalues([0.25, 0.5, 1.0], 4)
        assert np.allclose(out.values, [0.2, 0.4, 0.8], atol=1e-15)

    def test_off_grid_rejected(self):
        with pytest.raises(ValidationError):
            shift_discrete_pvalues([0.3], 4)

    def test_zero_not_on_grid(self):
        with pytest.raises(ValidationError):
            shift_discrete_pvalues([0.0, 0.5], 4)

    def test_mask_preserved(self):
        pv = OrderedPValues([0.25, 0.5], null_mask=[True, False])
        out = shift_discrete_pvalues(pv, 4)
        assert out.null_mask is not None
        assert list(out.null_mask) == [True, False]


class TestDistributionalProperties:
    def test_all_null_path_has_unit_mean(self):
        rng = np.random.Generator(np.random.Philox(key=77))
        trials, n = 4000, 16
        draws = rng.random((trials, n))
        for spec in [forward_stop(), seq_step(2.0)]:
            from accumtest import evaluate

            h = evaluate(spec, draws)
            paths = np.cumsum(h, axis=1) / np.arange(1, n + 1)
            for k in (1, 4, 16):
                col = paths[:, k - 1]
                se = col.std(ddof=1) / math.sqrt(trials)
                assert abs(col.mean() - 1.0) <= 4.0 * se

    def test_estimate_dominates_true_fdp_on_mixtures(self):
        rng = np.random.Generator(np.random.Philox(key=78))
        trials, n = 3000, 40
        null_mask = np.zeros(n, dtype=bool)
        null_mask[::2] = True
        pvals = np.where(
            null_mask, rng.random((trials, n)), rng.beta(1.0, 8.0, size=(trials, n))
        )
        from accumtest import evaluate

        h = evaluate(forward_stop(), pvals)
        k = 30
        est = np.cumsum(h, axis=1)[:, k - 1] / k
        true = np.count_nonzero(null_mask[:k]) / k
        se = est.std(ddof=1) / math.sqrt(trials)
        assert est.mean() >= true - 4.0 * se
