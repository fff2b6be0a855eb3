"""Dosage pipeline: Welch tests, partition calibration, ordering, counts."""

import math

import numpy as np
import pytest
from scipy import special

from accumtest import (
    ContractError,
    ExpressionMatrix,
    Group,
    Sign,
    ValidationError,
    default_methods,
    high_dose_ordering,
    mfdp,
    permutation_pvalue,
    read_expression_csv,
    run_pipeline,
    welch_p_one_sided,
    welch_p_two_sided,
)
from accumtest.dosage import (
    _GATHER_BUDGET,
    _chunk_rows,
    _partition_table,
    _permutation_rows,
)

import oracles

FROZEN_SHIFTED_WELCH = 0.3465935070873342


def make_matrix(values, m_c, m_l, m_h, ids=None):
    values = np.asarray(values, dtype=float)
    groups = (
        (Group.CONTROL,) * m_c + (Group.LOW,) * m_l + (Group.HIGH,) * m_h
    )
    if ids is None:
        ids = tuple(f"g{i}" for i in range(values.shape[0]))
    return ExpressionMatrix(ids, values, groups)


def gaussian_matrix(seed, n, m_c, m_l, m_h, planted=0, low_shift=0.0, high_shift=0.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.normal(size=(n, m_c + m_l + m_h))
    values[:planted, m_c : m_c + m_l] += low_shift
    values[:planted, m_c + m_l :] += high_shift
    return make_matrix(values, m_c, m_l, m_h)


class TestWelchTwoSided:
    def test_identical_groups(self):
        assert welch_p_two_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_matches_high_precision_reference(self):
        got = welch_p_two_sided([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        want = float(oracles.welch_two_sided_mp([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(FROZEN_SHIFTED_WELCH, abs=1e-12)

    def test_random_samples_match_reference(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(5):
            a = rng.normal(size=4)
            b = rng.normal(loc=0.5, size=6)
            got = welch_p_two_sided(a, b)
            want = float(oracles.welch_two_sided_mp(list(a), list(b)))
            assert got == pytest.approx(want, abs=1e-11)

    def test_degenerate_zero_variance(self):
        assert welch_p_two_sided([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert welch_p_two_sided([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_sample_too_small(self):
        with pytest.raises(ContractError):
            welch_p_two_sided([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            welch_p_two_sided([1.0, math.nan], [1.0, 2.0])


class TestWelchOneSided:
    def test_identical_groups_give_half(self):
        assert welch_p_one_sided([1.0, 2.0], [1.0, 2.0], Sign.PLUS) == 0.5
        assert welch_p_one_sided([1.0, 2.0], [1.0, 2.0], "minus") == 0.5

    def test_directions_are_complementary(self):
        a = [0.3, 1.1, 0.8, 1.4]
        b = [0.1, 0.9, 0.5]
        plus = welch_p_one_sided(a, b, Sign.PLUS)
        minus = welch_p_one_sided(a, b, Sign.MINUS)
        assert plus + minus == pytest.approx(1.0, abs=1e-12)

    def test_far_shifted_sample(self):
        a = [100.0, 100.5, 101.0, 99.5]
        b = [0.0, 0.4, -0.3, 0.2]
        assert welch_p_one_sided(a, b, Sign.PLUS) < 1e-6
        assert welch_p_one_sided(a, b, Sign.MINUS) > 1.0 - 1e-6

    def test_matches_high_precision_reference(self):
        a = [1.0, 2.5, 0.5, 3.0]
        b = [2.0, 2.2, 1.8]
        got = welch_p_one_sided(a, b, Sign.PLUS)
        want = float(oracles.welch_one_sided_mp(a, b, True))
        assert got == pytest.approx(want, abs=1e-11)

    def test_degenerate_directions(self):
        assert welch_p_one_sided([3.0, 3.0], [2.0, 2.0], Sign.PLUS) == 0.0
        assert welch_p_one_sided([3.0, 3.0], [2.0, 2.0], Sign.MINUS) == 1.0
        assert welch_p_one_sided([2.0, 2.0], [2.0, 2.0], Sign.PLUS) == 0.5


class TestPermutationPvalue:
    def test_five_vs_five_lands_on_grid(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        pool = rng.normal(size=10)
        p = permutation_pvalue(pool, 5, 5, Sign.PLUS)
        assert math.comb(10, 5) == 252
        scaled = p * 252
        assert scaled == pytest.approx(round(scaled), abs=1e-9)
        assert 1.0 / 252 <= p <= 1.0

    def test_two_point_pool_by_hand(self):
        assert permutation_pvalue([0.3, 0.7], 1, 1, Sign.PLUS) == 0.5
        assert permutation_pvalue([0.7, 0.3], 1, 1, Sign.PLUS) == 1.0

    def test_identity_minimum_gives_one_over_p(self):
        pool = [0.0, 0.01, 0.02, 10.0, 10.01, 10.02]
        assert permutation_pvalue(pool, 3, 3, Sign.PLUS) == 1.0 / 20.0

    def test_matches_exhaustive_ordering_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=314))
        for plus in (True, False):
            for _ in range(3):
                pool = rng.normal(size=6)
                got = permutation_pvalue(pool, 3, 3, Sign.PLUS if plus else Sign.MINUS)
                want = oracles.permutation_rank_over_orderings(list(pool), 3, plus)
                assert got == float(want)

    def test_partition_blowup_guard(self):
        pool = list(range(24))
        with pytest.raises(ContractError, match="subsample"):
            permutation_pvalue(pool, 12, 12, Sign.PLUS)

    def test_size_mismatch(self):
        with pytest.raises(ContractError):
            permutation_pvalue([1.0, 2.0, 3.0], 2, 2, Sign.PLUS)
        with pytest.raises(ContractError):
            permutation_pvalue([1.0, 2.0], 2, 0, Sign.PLUS)


class TestTwoSidedPermutationRank:
    @pytest.mark.parametrize("m_c,m_l", [(2, 2), (3, 3), (4, 3), (5, 5)])
    def test_matches_brute_force_enumeration(self, m_c, m_l):
        rng = np.random.Generator(np.random.Philox(key=10 * m_c + m_l))
        pools = rng.normal(size=(6, m_c + m_l))
        plus = np.array([True, False] * 3)
        _, _, p_two = _permutation_rows(pools, m_c, m_l, plus)
        chosen, complement = _partition_table(m_c + m_l, m_c)
        for pool, got in zip(pools, p_two):
            scores = [
                welch_p_two_sided(pool[low], pool[ctrl])
                for ctrl, low in zip(chosen, complement)
            ]
            want = sum(p <= scores[0] for p in scores) / len(scores)
            assert got == want


class TestPartitionTable:
    def test_row_zero_is_identity(self):
        chosen, complement = _partition_table(5, 2)
        assert chosen.shape == (10, 2)
        assert complement.shape == (10, 3)
        assert list(chosen[0]) == [0, 1]
        assert list(complement[0]) == [2, 3, 4]

    def test_rows_partition_all_columns(self):
        chosen, complement = _partition_table(6, 3)
        for row in range(chosen.shape[0]):
            assert sorted(list(chosen[row]) + list(complement[row])) == list(range(6))


class TestHighDoseOrdering:
    def test_dominant_gene_ranks_first(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        values = rng.normal(size=(4, 8))
        values[2, 4:] += 50.0
        ranks = high_dose_ordering(make_matrix(values, 2, 2, 4))
        assert ranks[0].original_index == 2
        assert ranks[0].sign is Sign.PLUS

    def test_all_identical_keeps_input_order(self):
        values = np.tile([1.0, 2.0, 1.0, 2.0, 1.5, 1.5], (3, 1))
        ranks = high_dose_ordering(make_matrix(values, 2, 2, 2))
        assert [r.original_index for r in ranks] == [0, 1, 2]
        assert all(r.p_high == 1.0 for r in ranks)

    def test_sign_follows_mean_difference(self):
        base = np.zeros((2, 6))
        base[0, 4:] = 0.7
        base[1, 4:] = -0.7
        ranks = high_dose_ordering(make_matrix(base, 2, 2, 2))
        by_index = {r.original_index: r for r in ranks}
        assert by_index[0].sign is Sign.PLUS
        assert by_index[1].sign is Sign.MINUS

    def test_needs_two_columns_per_side(self):
        values = np.zeros((2, 3))
        with pytest.raises(ContractError):
            high_dose_ordering(make_matrix(values, 1, 1, 1))


class TestPermutationInvariance:
    def shuffled_within_groups(self, matrix, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        order = []
        for group in (Group.CONTROL, Group.LOW, Group.HIGH):
            idx = [j for j, g in enumerate(matrix.groups) if g is group]
            order.extend(rng.permutation(idx))
        return ExpressionMatrix(
            matrix.gene_ids,
            matrix.values[:, order],
            tuple(matrix.groups[j] for j in order),
        )

    def test_within_group_shuffle_preserves_records(self):
        matrix = gaussian_matrix(23, 30, 3, 3, 2)
        base = run_pipeline(matrix, alpha_grid=(0.2,), include_baselines=False)
        shuffled = run_pipeline(
            self.shuffled_within_groups(matrix, 99),
            alpha_grid=(0.2,),
            include_baselines=False,
        )
        for a, b in zip(base.records, shuffled.records):
            assert a.original_index == b.original_index
            assert a.sign is b.sign
            assert a.p_high == pytest.approx(b.p_high, abs=1e-12)
            assert a.p_init == pytest.approx(b.p_init, abs=1e-12)
            assert a.p_final == b.p_final
        assert base.rows == shuffled.rows

    def test_control_low_swap_preserves_score_multiset(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        row = rng.normal(size=6)
        swapped = row.copy()
        swapped[[0, 3]] = swapped[[3, 0]]

        def score_table(pool):
            chosen, complement = _partition_table(6, 3)
            return sorted(
                welch_p_one_sided(pool[low], pool[ctrl], Sign.PLUS)
                for ctrl, low in zip(chosen, complement)
            )

        before = score_table(row)
        after = score_table(swapped)
        assert before == pytest.approx(after, abs=1e-12)


class TestRunPipeline:
    def test_alpha_zero_means_no_discoveries(self):
        matrix = gaussian_matrix(1, 20, 3, 3, 2)
        result = run_pipeline(matrix, alpha_grid=(0.0, 0.2))
        for name in result.method_names:
            assert result.count(name, 0.0) == 0

    def test_counts_monotone_in_alpha(self):
        matrix = gaussian_matrix(2, 40, 3, 3, 2, planted=10, low_shift=2.0, high_shift=3.0)
        grid = (0.05, 0.1, 0.2, 0.3)
        result = run_pipeline(matrix, alpha_grid=grid)
        for name in result.method_names:
            counts = [result.count(name, a) for a in grid]
            assert counts == sorted(counts)

    def test_record_invariants_and_grid(self):
        matrix = gaussian_matrix(3, 25, 4, 4, 2)
        result = run_pipeline(matrix, alpha_grid=(0.1,), include_baselines=False)
        grid_size = math.comb(8, 4)
        p_highs = [r.p_high for r in result.records]
        assert p_highs == sorted(p_highs)
        assert sorted(r.original_index for r in result.records) == list(range(25))
        for record in result.records:
            assert 0.0 <= record.p_high <= 1.0
            assert 0.0 <= record.p_init <= 1.0
            k = round(record.p_final * grid_size)
            assert 1 <= k <= grid_size
            assert record.p_final == k / grid_size

    def test_chunk_size_does_not_change_output(self):
        matrix = gaussian_matrix(4, 30, 3, 3, 2)
        a = run_pipeline(matrix, alpha_grid=(0.15,), chunk=7)
        b = run_pipeline(matrix, alpha_grid=(0.15,), chunk=512)
        assert a.records == b.records
        assert a.rows == b.rows

    def test_chunk_rule_bounds_gathered_bytes(self):
        assert _chunk_rows(math.comb(20, 10), 20) == 1
        for m_c, m_l in [(2, 2), (3, 3), (6, 6), (9, 7), (8, 8), (10, 9), (20, 10)]:
            count, m = math.comb(m_c + m_l, m_c), m_c + m_l
            rows = _chunk_rows(count, m)
            assert rows >= 1
            if rows > 1:
                assert rows * count * m * 8 <= _GATHER_BUDGET
            assert _chunk_rows(count, m, chunk=3) == min(rows, 3)

    def test_one_tcdf_element_per_relabeling(self, monkeypatch):
        counted = []
        stdtr = special.stdtr

        def counting_stdtr(*args):
            counted.append(np.broadcast(*args).size)
            return stdtr(*args)

        monkeypatch.setattr(special, "stdtr", counting_stdtr)
        genes = 5
        run_pipeline(gaussian_matrix(8, genes, 4, 4, 3), alpha_grid=(0.1,))
        relabelings = math.comb(8, 4)
        assert sum(counted) == genes * relabelings + genes + genes

    def test_planted_signal_beats_step_up_baselines(self):
        matrix = gaussian_matrix(
            0, 500, 5, 5, 4, planted=50, low_shift=1.5, high_shift=5.0
        )
        result = run_pipeline(matrix, alpha_grid=(0.2,))
        accumulation = [m.name for m in default_methods()]
        baseline_best = max(
            result.count(name, 0.2)
            for name in ("BH-t", "Storey-t", "BH-perm", "Storey-perm")
        )
        for name in accumulation:
            assert result.count(name, 0.2) >= baseline_best
        assert result.count("ForwardStop", 0.2) >= 40

    def test_all_null_controls_each_methods_guarantee(self):
        alpha, c_param, trials = 0.1, 2.0, 60
        denominators = {
            "ForwardStop": 0.0,
            "HingeExp": 2.0 * c_param / alpha,
            "SeqStep": c_param / alpha,
            "SeqStep+": 0.0,
        }
        mask = np.ones(100, dtype=bool)
        observed = {name: [] for name in denominators}
        for trial in range(trials):
            matrix = gaussian_matrix(1000 + trial, 100, 3, 3, 2)
            result = run_pipeline(
                matrix, alpha_grid=(alpha,), include_baselines=False
            )
            for name, c in denominators.items():
                k = result.count(name, alpha)
                value = mfdp(k, mask, c) if c else float(k > 0)
                observed[name].append(value)
        for name, values in observed.items():
            arr = np.array(values)
            se = arr.std(ddof=1) / math.sqrt(trials)
            assert arr.mean() <= alpha + 4.0 * se, name

    def test_step_rules_nearly_coincide_at_scale(self):
        matrix = gaussian_matrix(
            21, 5000, 4, 4, 3, planted=3000, low_shift=4.0, high_shift=5.0
        )
        result = run_pipeline(matrix, alpha_grid=(0.3,), include_baselines=False)
        plain = result.count("SeqStep", 0.3)
        plus = result.count("SeqStep+", 0.3)
        assert plain >= 1000
        assert abs(plain - plus) <= 0.01 * plain

    def test_baselines_need_two_columns_each_side(self):
        matrix = gaussian_matrix(6, 10, 1, 2, 2)
        with pytest.raises(ContractError):
            run_pipeline(matrix, alpha_grid=(0.1,))
        result = run_pipeline(matrix, alpha_grid=(0.1,), include_baselines=False)
        assert set(result.method_names) == {m.name for m in default_methods()}

    def test_alpha_domain(self):
        matrix = gaussian_matrix(7, 10, 2, 2, 2)
        with pytest.raises(Exception) as info:
            run_pipeline(matrix, alpha_grid=(1.0,))
        assert "alpha" in str(info.value)


class TestExpressionMatrix:
    def test_missing_group_is_named(self):
        with pytest.raises(ValidationError, match="high"):
            make_matrix(np.zeros((2, 4)), 2, 2, 0)

    def test_non_finite_rejected(self):
        values = np.zeros((2, 6))
        values[1, 3] = math.inf
        with pytest.raises(ValidationError):
            make_matrix(values, 2, 2, 2)

    def test_column_selection(self):
        values = np.arange(12.0).reshape(2, 6)
        matrix = make_matrix(values, 2, 2, 2)
        assert matrix.columns(Group.LOW).tolist() == [[2.0, 3.0], [8.0, 9.0]]
        assert matrix.group_size(Group.HIGH) == 2
        assert matrix.n_genes == 2


class TestReadExpressionCsv(object):
    def write(self, tmp_path, text):
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "gene_id,Control_1,ctrl2,Low_1,low2,High_1,h2\n"
            "g1,0.1,0.2,0.3,0.4,0.5,0.6\n"
            "g2,1,2,3,4,5,6\n",
        )
        matrix = read_expression_csv(path)
        assert matrix.gene_ids == ("g1", "g2")
        assert matrix.groups == (
            Group.CONTROL,
            Group.CONTROL,
            Group.LOW,
            Group.LOW,
            Group.HIGH,
            Group.HIGH,
        )
        assert matrix.values[1].tolist() == [1, 2, 3, 4, 5, 6]

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "name,C1,L1,H1\ng1,1,2,3\n")
        with pytest.raises(ValidationError, match="gene_id"):
            read_expression_csv(path)

    def test_unknown_label(self, tmp_path):
        path = self.write(tmp_path, "gene_id,C1,X1,H1\ng1,1,2,3\n")
        with pytest.raises(ValidationError, match="column 3"):
            read_expression_csv(path)

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        path = self.write(
            tmp_path, "gene_id,C1,C2,L1,L2,H1,H2\ng1,1,oops,3,4,5,6\n"
        )
        with pytest.raises(ValidationError, match="row 2, column 3"):
            read_expression_csv(path)

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "gene_id,C1,L1,H1\ng1,1,2\n")
        with pytest.raises(ValidationError, match="row 2"):
            read_expression_csv(path)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(ValidationError, match="empty"):
            read_expression_csv(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "gene_id,C1,L1,H1\n")
        with pytest.raises(ValidationError, match="no gene rows"):
            read_expression_csv(path)
