"""Dosage pipeline: Welch tests, partition calibration, ordering, counts."""

import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from accumtest import (
    DEFAULT_DOSAGE_ALPHAS,
    ContractError,
    ExpressionMatrix,
    Group,
    Sign,
    ValidationError,
    bh_select,
    default_methods,
    high_dose_ordering,
    mfdp,
    permutation_pvalue,
    read_expression_csv,
    run_pipeline,
    select_cutoff,
    shift_discrete_pvalues,
    storey_select,
    welch_p_one_sided,
    welch_p_two_sided,
)
from accumtest import _tails, dosage
from accumtest.dosage import (
    _BATCH_ARRAYS,
    _BATCH_BUDGET,
    _SCREEN_POINTS,
    _TABLE_BUDGET,
    _TAIL_SLACK,
    _batch_columns,
    _chunk_rows,
    _df_bounds,
    _exact_units,
    _one_sided,
    _pair_sums,
    _partition_table,
    _permutation_rows,
    _remainder_columns,
    _scale_bits,
    _scored_columns,
    _settled_hits,
    _sum_screen,
    _tail_table,
    _thresholds,
    _two_sided,
    _welch_stats,
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


def gaussian_matrix(
    seed, n, m_c, m_l, m_h, planted=0, low_shift=0.0, high_shift=0.0, decimals=None
):
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = rng.normal(size=(n, m_c + m_l + m_h))
    values[:planted, m_c : m_c + m_l] += low_shift
    values[:planted, m_c + m_l :] += high_shift
    if decimals is not None:
        values = values.round(decimals)
    return make_matrix(values, m_c, m_l, m_h)


def rows_per_batch(monkeypatch, m_c, m_l, rows):
    """Set ``_BATCH_BUDGET`` so that the engine scores ``rows`` genes per batch."""
    budget = rows * _batch_columns(m_c, m_l) * 8 * _BATCH_ARRAYS
    monkeypatch.setattr(dosage, "_BATCH_BUDGET", budget)
    assert _chunk_rows(_batch_columns(m_c, m_l)) == rows


def per_gene_bytes(result):
    """The bytes of a ``run_pipeline`` result's per-gene arrays, in field order."""
    return [
        getattr(result, name).tobytes()
        for name in ("order", "p_high", "plus", "p_init", "rank", "p_final")
    ]


def partitions(m, m_c):
    """(control, low) column indices of every relabeling, in table order."""
    return [
        (np.array(chosen), np.array([j for j in range(m) if j not in chosen]))
        for chosen in itertools.combinations(range(m), m_c)
    ]


def brute_force_ranks(pool, m_c, plus):
    """The one- and two-sided rank numerators, by scoring each relabeling
    with the public Welch tests."""
    sign = Sign.PLUS if plus else Sign.MINUS
    one, two = [], []
    for ctrl, low in partitions(len(pool), m_c):
        one.append(welch_p_one_sided(pool[low], pool[ctrl], sign))
        two.append(welch_p_two_sided(pool[low], pool[ctrl]))
    return sum(p <= one[0] for p in one), sum(p <= two[0] for p in two)


def oracle_ranks(pool, m_c, plus):
    """The rank numerators of ``oracles.exact_permutation_ranks``."""
    count = math.comb(len(pool), m_c)
    ranks = [rank * count for rank in oracles.exact_permutation_ranks(pool, m_c, plus)]
    assert all(rank.denominator == 1 for rank in ranks)
    return tuple(int(rank) for rank in ranks)


def assert_pass_within_budget(m_c, m_l, decimals):
    """One full batch of a ``_permutation_rows`` pass holds at most
    ``_BATCH_ARRAYS`` (rows x ``_batch_columns``) float64 arrays."""
    columns = _batch_columns(m_c, m_l)
    rows = _chunk_rows(columns)
    values = gaussian_matrix(9, rows, m_c, m_l, 2, decimals=decimals).values
    pool = np.ascontiguousarray(values[:, : m_c + m_l])
    plus = np.arange(rows) % 2 == 0
    _permutation_rows(pool[:1], m_c, m_l, plus[:1])
    tracemalloc.start()
    try:
        _permutation_rows(pool, m_c, m_l, plus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rows * columns * 8 * _BATCH_ARRAYS


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
        _, _, rank_two, p_t = _permutation_rows(pools, m_c, m_l, plus)
        assert rank_two.dtype == np.intp
        for pool, got, got_t in zip(pools, rank_two, p_t):
            scores = [
                welch_p_two_sided(pool[low], pool[ctrl])
                for ctrl, low in partitions(m_c + m_l, m_c)
            ]
            assert got == sum(p <= scores[0] for p in scores)
            assert got_t.tobytes() == np.float64(scores[0]).tobytes()


class TestPartitionTable:
    def test_row_zero_is_identity(self):
        indicator = _partition_table(5, 2)
        assert indicator.shape == (5, 10)
        assert indicator[:, 0].tolist() == [1, 1, 0, 0, 0]

    def test_rows_partition_all_columns(self):
        indicator = _partition_table(6, 3)
        assert set(np.unique(indicator)) == {0.0, 1.0}
        assert (indicator.sum(axis=0) == 3).all()
        want = [list(ctrl) for ctrl, _ in partitions(6, 3)]
        assert [list(np.flatnonzero(col)) for col in indicator.T] == want

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_set_and_mirror_are_complements(self, m):
        indicator = _partition_table(m, m // 2)
        assert (indicator + indicator[:, ::-1] == 1.0).all()
        half = _scored_columns(m // 2, m // 2)
        assert (indicator[0, :half] == 1.0).all()
        assert (indicator[0, half:] == 0.0).all()

    def test_cache_keeps_one_table(self):
        _partition_table.cache_clear()
        _partition_table(6, 3)
        _partition_table(7, 3)
        assert _partition_table.cache_info().currsize == 1

    def test_footprint_guard_fires_before_allocating(self):
        assert math.comb(22, 11) * (22 + 11) * 8 > _TABLE_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="MiB budget; subsample"):
                _partition_table(22, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ContractError, match="MiB budget"):
            permutation_pvalue(np.arange(22.0), 11, 11, Sign.PLUS)


class TestHighDoseOrdering:
    def test_dominant_gene_ranks_first(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        values = rng.normal(size=(4, 8))
        values[2, 4:] += 50.0
        order, _, plus = high_dose_ordering(make_matrix(values, 2, 2, 4))
        assert order[0] == 2
        assert plus[0]

    def test_all_identical_keeps_input_order(self):
        values = np.tile([1.0, 2.0, 1.0, 2.0, 1.5, 1.5], (3, 1))
        order, p_high, _ = high_dose_ordering(make_matrix(values, 2, 2, 2))
        assert order.tolist() == [0, 1, 2]
        assert (p_high == 1.0).all()

    def test_sign_follows_mean_difference(self):
        base = np.zeros((2, 6))
        base[0, 4:] = 0.7
        base[1, 4:] = -0.7
        order, _, plus = high_dose_ordering(make_matrix(base, 2, 2, 2))
        by_index = dict(zip(order.tolist(), plus.tolist()))
        assert by_index[0] is True
        assert by_index[1] is False

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
        assert (base.order == shuffled.order).all()
        assert (base.plus == shuffled.plus).all()
        assert base.p_high == pytest.approx(shuffled.p_high, abs=1e-12)
        assert base.p_init == pytest.approx(shuffled.p_init, abs=1e-12)
        assert (base.p_final == shuffled.p_final).all()
        assert base.rows == shuffled.rows

    def test_control_low_swap_preserves_score_multiset(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        row = rng.normal(size=6)
        swapped = row.copy()
        swapped[[0, 3]] = swapped[[3, 0]]

        def score_table(pool):
            return sorted(
                welch_p_one_sided(pool[low], pool[ctrl], Sign.PLUS)
                for ctrl, low in partitions(6, 3)
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
        assert (np.diff(result.p_high) >= 0.0).all()
        assert sorted(result.order.tolist()) == list(range(25))
        assert ((0.0 <= result.p_high) & (result.p_high <= 1.0)).all()
        assert ((0.0 <= result.p_init) & (result.p_init <= 1.0)).all()
        k = result.rank
        assert k.dtype == np.intp
        assert ((1 <= k) & (k <= grid_size)).all()
        assert result.p_final.tobytes() == (k / grid_size).tobytes()

    @pytest.mark.parametrize("decimals", [2, None])
    def test_tables_equal_the_public_route(self, decimals):
        # The public route reads h at shift_discrete_pvalues(p_final) for
        # h infinite at 1 and at p_final otherwise.
        matrix = gaussian_matrix(
            43, 80, 3, 3, 2, planted=30, low_shift=2.0, high_shift=2.5,
            decimals=decimals,
        )
        result = run_pipeline(matrix, include_baselines=False)
        grid_size = math.comb(6, 3)
        # A gene ranked last, where h infinite at 1 must not be read at 1.
        assert (result.rank == grid_size).any()
        levels = np.array(DEFAULT_DOSAGE_ALPHAS)
        want = []
        for method in default_methods():
            x = result.p_final
            if not method.spec.bounded:
                x = shift_discrete_pvalues(x, grid_size)
            want.extend(select_cutoff(method.path(x), levels).tolist())
        assert result.columns[2] == tuple(want)
        assert sum(want) > 0

    def test_pair_sums_add_columns_in_index_order_for_any_pair_count(self):
        # Terms over 16 decades, so that any other order of additions
        # changes the bits; BLAS kernels may pick their order by the row
        # count, which the engine's output must not see.
        rng = np.random.Generator(np.random.Philox(key=23))
        x = rng.normal(size=(6, 9)) * 10.0 ** rng.integers(-8, 9, size=(6, 9))
        indicator = _partition_table(9, 4)
        count = indicator.shape[1]
        rows = np.repeat(np.arange(6), count)
        cols = np.tile(np.arange(count), 6)
        inside, outside = _pair_sums(x.T[:, rows], indicator[:, cols])
        inside, outside = inside.reshape(6, count), outside.reshape(6, count)
        for row in range(x.shape[0]):
            alone = _pair_sums(x.T[:, [row] * count], indicator)
            assert alone[0].tobytes() == inside[row].tobytes()
            assert alone[1].tobytes() == outside[row].tobytes()
            for j in range(0, count, 17):
                one = _pair_sums(x.T[:, [row]], indicator[:, [j]])
                assert (one[0][0], one[1][0]) == (inside[row, j], outside[row, j])
                total_in = x[row, 0] * indicator[0, j]
                total_out = x[row, 0] - total_in
                for k in range(1, x.shape[1]):
                    term = x[row, k] * indicator[k, j]
                    total_in += term
                    total_out += x[row, k] - term
                assert (inside[row, j], outside[row, j]) == (total_in, total_out)

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        # Off-grid rows must not take their bits from the BLAS kernel,
        # whose summation order changes with the number of rows.
        for (m_c, m_l), decimals in itertools.product([(3, 3), (4, 3)], [2, None]):
            matrix = gaussian_matrix(4, 30, m_c, m_l, 2, decimals=decimals)
            results = []
            for rows in (1, 7, 512):
                rows_per_batch(monkeypatch, m_c, m_l, rows)
                results.append(run_pipeline(matrix, alpha_grid=(0.15,)))
            for other in results[1:]:
                assert per_gene_bytes(other) == per_gene_bytes(results[0])
                assert other.rows == results[0].rows

    @pytest.mark.parametrize("m_c,m_l,decimals", [(9, 7, None), (6, 6, 2)])
    def test_batch_budget_does_not_change_output(self, m_c, m_l, decimals, monkeypatch):
        # At the cache-sized budget the genes span two full batches and a
        # short third; at 16 MiB they fit in one.
        columns = _scored_columns(m_c, m_l)
        rows = _chunk_rows(columns)
        n = 2 * rows + max(1, rows // 3)
        matrix = gaussian_matrix(
            14, n, m_c, m_l, 2, planted=n // 3, low_shift=1.5, high_shift=2.0,
            decimals=decimals,
        )
        results = []
        for budget in (_BATCH_BUDGET, 16 * 2**20):
            monkeypatch.setattr(dosage, "_BATCH_BUDGET", budget)
            results.append(run_pipeline(matrix, alpha_grid=(0.05, 0.2)))
        assert _chunk_rows(columns) >= n > 2 * rows
        assert per_gene_bytes(results[0]) == per_gene_bytes(results[1])
        assert results[0].rows == results[1].rows

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_exact_units_once_for_ordering_once_for_pool(self, chunk, monkeypatch):
        shapes = []
        exact_units = dosage._exact_units

        def counted(values):
            shapes.append(values.shape)
            return exact_units(values)

        monkeypatch.setattr(dosage, "_exact_units", counted)
        matrix = gaussian_matrix(15, 7, 9, 7, 4)
        assert _chunk_rows(_scored_columns(9, 7)) < 7
        if chunk is not None:
            rows_per_batch(monkeypatch, 9, 7, chunk)
        run_pipeline(matrix, alpha_grid=(0.1,))
        assert shapes == [(7, 20), (7, 16)]

    def test_chunk_rule_bounds_gathered_bytes(self):
        assert _chunk_rows(math.comb(20, 10) // 2) == 1
        for m_c, m_l in [(2, 2), (3, 3), (6, 6), (9, 7), (8, 8), (10, 9), (20, 10)]:
            columns = _scored_columns(m_c, m_l)
            rows = _chunk_rows(columns)
            assert rows >= 1
            if rows > 1:
                assert rows * columns * 8 * _BATCH_ARRAYS <= _BATCH_BUDGET

    @pytest.mark.parametrize(
        "m_c,m_l,decimals",
        [(6, 6, 2), (9, 7, None), (4, 3, None), (10, 10, None), (2, 2, None)],
    )
    def test_batch_rule_bounds_what_a_pass_holds(self, m_c, m_l, decimals):
        # At (2, 2) the 3 relabelings are fewer than the 4 pooled columns.
        assert_pass_within_budget(m_c, m_l, decimals)

    @pytest.mark.parametrize("m_c,m_l", [(9, 7), (2, 2)])
    def test_batch_rule_bounds_a_pass_that_settles_nothing(self, m_c, m_l, monkeypatch):
        # Every relabeling left open by the screen is scored exactly, a
        # chunk of them at a time.
        settle_nothing(monkeypatch)
        assert_pass_within_budget(m_c, m_l, None)

    def test_one_tcdf_element_per_relabeling(self, monkeypatch):
        # At most one t-CDF element per scored relabeling, plus one per
        # gene for the ordering and one per gene of slack, plus the
        # screen's table at the design's two df bounds, made once per
        # design; the baselines reuse the true labeling's tail.  The
        # screen pays for the table and the true labeling's tail by
        # skipping most relabelings.
        counted = []
        stdtr = _tails.stdtr

        def counting_stdtr(*args):
            counted.append(np.broadcast(*args).size)
            return stdtr(*args)

        monkeypatch.setattr(_tails, "stdtr", counting_stdtr)
        table = 2 * _SCREEN_POINTS.size
        genes = 5
        # With m_c = m_l only half the relabelings are scored.
        for m_c, m_l in [(4, 4), (4, 3)]:
            counted.clear()
            _tail_table.cache_clear()
            run_pipeline(gaussian_matrix(8, genes, m_c, m_l, 3), alpha_grid=(0.1,))
            bound = genes * _scored_columns(m_c, m_l) + genes + genes + table
            assert sum(counted) <= bound
        counted.clear()
        _tail_table.cache_clear()
        genes = 200
        run_pipeline(gaussian_matrix(3, genes, 6, 5, 3), alpha_grid=(0.1,))
        assert sum(counted) < 0.1 * genes * _scored_columns(6, 5) + table
        # A second run of the same design reads the cached table.
        counted.clear()
        run_pipeline(gaussian_matrix(4, genes, 6, 5, 3), alpha_grid=(0.1,))
        assert sum(counted) < 0.1 * genes * _scored_columns(6, 5)

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

    def test_baseline_check_fails_before_any_scoring(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("scored before the baseline check")

        monkeypatch.setattr(dosage, "high_dose_ordering", unreachable)
        monkeypatch.setattr(dosage, "_permutation_rows", unreachable)
        with pytest.raises(ContractError, match="baseline t-tests"):
            run_pipeline(gaussian_matrix(6, 30, 1, 11, 3), alpha_grid=(0.1,))

    @pytest.mark.parametrize("m_c,m_l,decimals", [(3, 3, 2), (4, 3, None), (2, 5, 1)])
    def test_t_baselines_are_welch_per_gene(self, m_c, m_l, decimals, monkeypatch):
        matrix = gaussian_matrix(
            31, 80, m_c, m_l, 2, planted=30, low_shift=2.5, high_shift=2.0,
            decimals=decimals,
        )
        alphas = (0.05, 0.2, 0.5)
        rows_per_batch(monkeypatch, m_c, m_l, 7)
        result = run_pipeline(matrix, alpha_grid=alphas)
        control = matrix.columns(Group.CONTROL)
        low = matrix.columns(Group.LOW)
        p_t = [welch_p_two_sided(low[i], control[i]) for i in range(matrix.n_genes)]
        for alpha in alphas:
            assert result.count("BH-t", alpha) == bh_select(p_t, alpha).count
            assert result.count("Storey-t", alpha) == storey_select(p_t, alpha).count
        assert result.count("BH-t", 0.5) > 0

    @pytest.mark.parametrize("m_c,m_l,decimals", [(3, 3, 2), (4, 3, None)])
    def test_per_gene_arrays_are_the_public_functions(
        self, m_c, m_l, decimals, monkeypatch
    ):
        matrix = gaussian_matrix(
            17, 30, m_c, m_l, 2, planted=10, low_shift=2.0, high_shift=2.5,
            decimals=decimals,
        )
        rows_per_batch(monkeypatch, m_c, m_l, 7)
        result = run_pipeline(matrix, alpha_grid=(0.1,))
        assert sorted(result.order.tolist()) == list(range(30))
        assert 0 < result.plus.sum() < 30
        control = matrix.columns(Group.CONTROL)
        low = matrix.columns(Group.LOW)
        high = matrix.columns(Group.HIGH)
        rest = matrix.columns(Group.CONTROL, Group.LOW)
        for j, i in enumerate(result.order):
            sign = Sign.PLUS if result.plus[j] else Sign.MINUS
            want = (
                welch_p_two_sided(high[i], rest[i]),
                welch_p_one_sided(low[i], control[i], sign.value),
                permutation_pvalue(rest[i], m_c, m_l, sign),
            )
            got = (result.p_high[j], result.p_init[j], result.p_final[j])
            assert np.array(got).tobytes() == np.array(want).tobytes(), (j, got, want)

    def test_per_gene_arrays_are_read_only(self):
        result = run_pipeline(gaussian_matrix(5, 6, 2, 2, 2), alpha_grid=(0.1,))
        for name in ("order", "p_high", "plus", "p_init", "rank", "p_final"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name)[0] = 0

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
        with pytest.raises(ValidationError, match="'g1', sample column 4: .* got inf"):
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

    def test_byte_order_mark(self, tmp_path):
        text = "gene_id,C1,C2,L1,L2,H1,H2\ng1,0.1,0.2,0.3,0.4,0.5,0.6\n"
        plain = read_expression_csv(self.write(tmp_path, text))
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        matrix = read_expression_csv(path)
        assert matrix.gene_ids == plain.gene_ids
        assert matrix.groups == plain.groups
        assert matrix.values.tobytes() == plain.values.tobytes()

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


class TestExactTies:
    """Rounded data: every relabeling that ties the true labeling counts."""

    @pytest.mark.parametrize("decimals", [1, 2])
    @pytest.mark.parametrize(
        "m_c,m_l", [(3, 3), (4, 4), (4, 3), (5, 3), (1, 1), (1, 5), (5, 1), (2, 2)]
    )
    def test_ranks_equal_exact_oracle(self, m_c, m_l, decimals):
        rng = np.random.Generator(np.random.Philox(key=100 * m_c + 10 * m_l + decimals))
        # About 20 grid points per pool, so equal values and tied
        # relabelings are common.
        pools = (rng.normal(size=(12, m_c + m_l)) * 3 * 10.0**-decimals).round(decimals)
        # The true labeling's own hits, and its complement's when m_c =
        # m_l: flat rows, rows flat within each arm (degenerate, with a
        # difference either way) and, when m_c = m_l, a row whose low arm
        # repeats the control values in reverse (d = 0).
        extra = np.repeat(pools[:4, :1], m_c + m_l, axis=1)
        extra[1:3, m_c:] = pools[1:3, -1:]
        if m_c == m_l:
            extra[3, :m_c] = pools[3, :m_c]
            extra[3, m_c:] = pools[3, m_c - 1 :: -1]
        pools = np.vstack([pools, extra])
        plus = np.arange(len(pools)) % 2 == 0
        _, rank, rank_two, _ = _permutation_rows(pools, m_c, m_l, plus)
        assert rank.dtype == rank_two.dtype == np.intp
        mismatches = []
        tied = 0
        for pool, direction, got_one, got_two in zip(pools, plus, rank, rank_two):
            want = oracle_ranks(list(pool), m_c, direction)
            if (got_one, got_two) != want:
                mismatches.append((list(pool), direction, got_one, got_two, want))
            keys = [
                oracles.welch_key(pool[low], pool[ctrl])
                for ctrl, low in partitions(m_c + m_l, m_c)
            ]
            tied += keys.count(keys[0]) > 1
        assert mismatches == []
        assert tied >= 3

    def test_ordering_keeps_input_order_for_permuted_twins(self):
        # Two genes holding the same 2-decimal values, permuted within
        # each arm: their high-dose p-values must be bitwise equal.
        first = [8.69, 7.85, 6.49, 7.13, 7.33, 8.39]
        second = [7.85, 8.69, 7.13, 6.49, 8.39, 7.33]
        order, p_high, plus = high_dose_ordering(make_matrix([first, second], 2, 2, 2))
        assert order.tolist() == [0, 1]
        assert p_high[0] == p_high[1]
        assert plus[0] == plus[1]


class TestFloatPath:
    """Rows off any decimal grid, or past the exactness bound."""

    @pytest.mark.parametrize("m_c,m_l", [(3, 3), (4, 3)])
    @pytest.mark.parametrize("spread", [1.0, 0.1])
    def test_far_shifted_gene_is_accurate(self, m_c, m_l, spread):
        rng = np.random.Generator(np.random.Philox(key=10 * m_c + m_l))
        control = rng.normal(size=m_c) * spread
        low = 1e4 + rng.normal(size=m_l) * spread
        pool = np.concatenate([control, low])
        plus = np.array([True])
        p_init, rank, rank_two, _ = _permutation_rows(pool[None, :], m_c, m_l, plus)
        with mp.workdps(60):
            want = oracles.welch_one_sided_mp(list(low), list(control), True)
        assert float(p_init[0]) == pytest.approx(float(want), rel=1e-9)
        assert (rank[0], rank_two[0]) == brute_force_ranks(pool, m_c, True)

    def test_tiny_spread_keeps_the_one_over_p_floor(self):
        # Spread terms whose squares underflow once made the Welch df 0/0,
        # and every comparison with a NaN tail false: a rank of 0.
        pool = [0.0, 1e-100, 3e-100, 1.0, 1.0, 1.0]
        assert permutation_pvalue(pool, 3, 3, Sign.PLUS) == 1.0 / 20.0
        for plus in (True, False):
            rows = _permutation_rows(np.array([pool]), 3, 3, np.array([plus]))
            assert (rows[1][0], rows[2][0]) == oracle_ranks(pool, 3, plus)

    def test_values_beyond_the_float_range_are_refused(self):
        # max - min of such values overflows, so no shift to exact units
        # exists; the rank once came out 0, below its 1/P floor.
        rows = [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1e308, -1e308, 1.0, 2.0, 3.0, 4.0]]
        with pytest.raises(ValidationError, match="'huge'.*float range"):
            make_matrix(rows, 2, 2, 2, ids=("g0", "huge"))
        with pytest.raises(ValidationError, match="float range"):
            permutation_pvalue([1e308, -1e308, 1.0, 2.0], 2, 2, "plus")
        for welch in (welch_p_two_sided, lambda a, b: welch_p_one_sided(a, b, "plus")):
            with pytest.raises(ValidationError, match="float range"):
                welch([1e308, -1e308], [1.0, 2.0])
        # Just inside the range the float path scores the row.
        assert permutation_pvalue([8e307, -8e307, 1.0, 2.0], 2, 2, "plus") >= 1.0 / 6.0
        assert 0.0 <= welch_p_two_sided([8e307, -8e307], [1.0, 2.0]) <= 1.0

    def test_gene_past_the_bound_falls_back_to_floats(self):
        row = np.array([[0.0, 3e7, 1e7 + 1.0, 2e7 + 3.0, 5.0, 17.0]])
        assert 6**2 * 3e7**2 >= 2.0**53
        h, r = _exact_units(row)
        assert h.max() <= 2.0**23
        assert r.any()
        near = np.array([[0.0, 3e6, 1e6 + 1.0, 2e6 + 3.0, 5.0, 17.0]])
        h_near, r_near = _exact_units(near)
        assert (h_near == near).all()
        assert not r_near.any()
        for plus in (True, False):
            _, rank, rank_two, _ = _permutation_rows(row, 3, 3, np.array([plus]))
            assert (rank[0], rank_two[0]) == brute_force_ranks(row[0], 3, plus)


def settle_nothing(monkeypatch):
    """The full evaluation: with NaN thresholds ``_sum_screen`` settles no
    relabeling, so every one but the true labeling, which
    ``_true_labeling`` scores once per gene outside the batches, is scored
    by ``_welch_stats`` and the t-CDF in its batch."""
    monkeypatch.setattr(
        dosage,
        "_thresholds",
        lambda tail0, df_lo, df_hi: np.full((np.size(tail0), 2), np.nan),
    )


def screening_pools(case, m_c, m_l, rows=12):
    """``rows`` pools of one kind, true control values first."""
    rng = np.random.Generator(np.random.Philox(key=10 * m_c + m_l))
    pools = rng.normal(size=(rows, m_c + m_l))
    if case == "grid1":
        return (3 * pools).round(1)
    if case == "grid2":
        return pools.round(2)
    if case == "constant":
        pools[::2] = 1.25
        pools[1::4, :m_c] = 0.5
        pools[3::4, m_c:] = -2.0
    elif case == "underflow":
        # A control spread of 1e-70 against a constant low arm: the true
        # labeling's tail underflows to 0.
        pools[:, :m_c] *= 1e-70
        pools[:, m_c:] = 1.0
    elif case == "tiny-spread":
        # Spread terms whose squares would underflow: the Welch df must
        # stay finite for every relabeling with any spread.
        pools = np.where(pools > 0.0, 1.0, 1e-100 * pools)
    elif case == "near-half":
        # Arm means equal up to rounding, or exactly on grid rows where
        # the low arm repeats the control values: the true tail is at or
        # just below 1/2.
        low = pools[:, m_c:]
        low -= low.mean(axis=1, keepdims=True)
        low += pools[:, :m_c].mean(axis=1, keepdims=True)
        low += 1e-7 * rng.normal(size=(rows, 1))
        if m_c == m_l:
            pools[::2] = pools[::2].round(2)
            pools[::2, m_c:] = pools[::2, m_c - 1 :: -1]
    elif case == "top-scale":
        # Units up to the top of the 2^bits scale, each with a remainder
        # near +-1/2, where the remainder terms are largest; half the rows
        # hold every value but one (0) within 8 units of the top.
        top = 2.0 ** _scale_bits(m_c + m_l)
        units = top - 1.0 - rng.integers(0, int(top) // 2, size=pools.shape)
        units[::2] = top - 1.0 - rng.integers(0, 8, size=units[::2].shape)
        sign = np.where(rng.random(pools.shape) < 0.5, -1.0, 1.0)
        pools = (units + sign * (0.5 - 2.0**-10 * rng.random(pools.shape))) / top
        pools[np.arange(rows), rng.integers(0, m_c + m_l, size=rows)] = 0.0
    elif case == "clusters":
        # m_c columns, not the true control ones, within 8 units of the
        # bottom of the 2^bits scale and the rest within 8 of the top:
        # the relabeling that splits the clusters has spreads of a few
        # units, which the remainders move by a large share.
        top = 2.0 ** _scale_bits(m_c + m_l)
        units = top - 1.0 - rng.integers(0, 8, size=pools.shape)
        for row in range(rows):
            bottom = rng.choice(m_c + m_l, size=m_c, replace=False)
            if (m_c + m_l > 2) and set(bottom) == set(range(m_c)):
                bottom[0] = m_c
            units[row, bottom] = rng.integers(0, 8, size=m_c)
        pools = (units + rng.uniform(-0.49, 0.49, size=pools.shape)) / top
    elif case == "tiny-next-to-large":
        # A spread of an ulp or two next to values near 1, against one
        # 1e-25 wide next to 0: the first arm's spread is lost when its
        # remainder terms round.
        pools = 1.0 + 2.0**-52 * rng.integers(0, 3, size=pools.shape)
        pools[:, m_c:] = 1e-25 * rng.integers(0, 4, size=(rows, m_l))
        if (m_c, m_l) == (2, 2):
            pools[:4] = [
                [0.0, 1e-25, 1.0, 1.0 + 2.0**-52],
                [1.0, 1.0 + 2.0**-52, 0.0, 1e-25],
                [-2.0, -2.0, 0.0, 3e-25],
                [0.0, 3e-25, -2.0, -2.0],
            ]
    return pools


def every_relabeling(pools, m_c, m_l, remainders=True):
    """``_welch_stats`` (d, x, df, degenerate) of every scored relabeling of
    each pool, (rows x P'), from its exact sums and, unless
    ``remainders`` is false, the sums of its remainders."""
    h, r = _exact_units(pools)
    indicator = _partition_table(m_c + m_l, m_c)[:, : _scored_columns(m_c, m_l)]
    sums = np.vstack([h, h * h]) @ indicator
    pair_sums = None
    if remainders and r.any():
        pair_sums = _pair_sums(_remainder_columns(h, r)[..., None], indicator[:, None, :])
    g = h.shape[0]
    totals = h.sum(axis=1, keepdims=True), (h * h).sum(axis=1, keepdims=True)
    return _welch_stats(sums[:g], sums[g:], *totals, m_c, m_l, pair_sums)


def true_tails(pools, m_c, m_l):
    """The t-CDF of the true labeling per row, and the df and degenerate
    mask of every relabeling."""
    _, x, df, degenerate = every_relabeling(pools, m_c, m_l)
    return _tails.stdtr(df[:, 0], x[:, 0]), df, degenerate


SCREEN_CASES = [
    ("grid1", 4, 3),
    ("grid1", 3, 3),
    ("grid2", 4, 4),
    ("grid2", 5, 3),
    ("off-grid", 4, 3),
    ("off-grid", 5, 5),
    ("off-grid", 1, 5),
    ("grid2", 1, 4),
    ("off-grid", 5, 1),
    ("grid1", 4, 1),
    ("off-grid", 1, 1),
    ("constant", 3, 3),
    ("constant", 4, 3),
    ("underflow", 6, 3),
    ("underflow", 6, 6),
    ("tiny-spread", 3, 3),
    ("tiny-spread", 5, 4),
    ("near-half", 4, 4),
    ("near-half", 5, 3),
    ("top-scale", 4, 3),
    ("top-scale", 3, 3),
    ("top-scale", 3, 18),
    ("clusters", 4, 3),
    ("clusters", 5, 5),
    ("tiny-next-to-large", 2, 2),
    ("tiny-next-to-large", 5, 4),
    ("off-grid", 2, 18),
    ("off-grid", 1, 20),
]


def shift_points(monkeypatch, error):
    """Move every point of the screen's t-CDF table by ``error``, relative."""
    monkeypatch.setattr(dosage, "_SCREEN_POINTS", _SCREEN_POINTS * (1.0 + error))
    _tail_table.cache_clear()


class TestTailScreen:
    """The t-CDF is skipped only where no rank comparison can change.

    ``error`` moves every point of the threshold table by that much, so
    that the thresholds rest on the ``stdtr`` values at the points alone,
    not on where the points lie.
    """

    @pytest.fixture(autouse=True)
    def fresh_table(self):
        _tail_table.cache_clear()
        yield
        _tail_table.cache_clear()

    @pytest.mark.parametrize("error", [0.0, 1e-3, -1e-3])
    @pytest.mark.parametrize("case,m_c,m_l", SCREEN_CASES)
    def test_ranks_equal_full_evaluation(self, case, m_c, m_l, error, monkeypatch):
        shift_points(monkeypatch, error)
        pools = screening_pools(case, m_c, m_l)
        plus = np.arange(len(pools)) % 2 == 0
        got = _permutation_rows(pools, m_c, m_l, plus)
        settle_nothing(monkeypatch)
        want = _permutation_rows(pools, m_c, m_l, plus)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        tail0, df, degenerate = true_tails(pools, m_c, m_l)
        if case in ("top-scale", "tiny-next-to-large"):
            # The remainder terms move x past the rounding of any float
            # step, so that the screen's margin has to hold them.
            if case == "top-scale":
                h, r = _exact_units(pools)
                assert ((abs(r) > 0.49).sum(axis=1) == m_c + m_l - 1).all()
                assert (h.max(axis=1) > 0.75 * 2.0 ** _scale_bits(m_c + m_l)).all()
            x = every_relabeling(pools, m_c, m_l)[1]
            x_h = every_relabeling(pools, m_c, m_l, remainders=False)[1]
            with np.errstate(invalid="ignore"):
                moved = abs(x - x_h) > 2.0**-30 * abs(x)
            assert moved.any()
        if case == "underflow":
            assert (tail0 == 0.0).all()
        elif case == "near-half":
            assert (abs(tail0 - 0.5) < 1e-6).all()
            assert (tail0 < 0.5).any()
            assert (tail0 == 0.5).any() == (m_c == m_l)
        elif case == "tiny-spread":
            assert np.isfinite(df[~degenerate]).all() and np.isfinite(tail0).any()

    @pytest.mark.parametrize("screen", [True, False])
    @pytest.mark.parametrize(
        "case,m_c,m_l", [("grid2", 5, 3), ("off-grid", 4, 3), ("grid1", 4, 4), ("off-grid", 1, 5)]
    )
    def test_tcdf_elements_equal_the_open_relabelings(self, case, m_c, m_l, screen, monkeypatch):
        # t-CDF elements = open relabelings + one per gene: the true
        # labeling's, in the call that scores every row's true tail, and
        # one for each other relabeling the sum screen leaves open, in
        # its batch.  Without the screen every other scored relabeling
        # is open.
        pools = screening_pools(case, m_c, m_l, rows=40)
        plus = np.arange(len(pools)) % 3 == 0
        if not screen:
            settle_nothing(monkeypatch)
        # The design's table is made here, and read from the cache below.
        _permutation_rows(pools, m_c, m_l, plus)
        counted, opened = [], []
        stdtr, sum_screen = _tails.stdtr, dosage._sum_screen

        def counting_stdtr(*args):
            counted.append(np.broadcast(*args).size)
            return stdtr(*args)

        def counting_screen(*args):
            counts, open_ = sum_screen(*args)
            opened.append(np.count_nonzero(open_))
            return counts, open_

        monkeypatch.setattr(_tails, "stdtr", counting_stdtr)
        monkeypatch.setattr(dosage, "_sum_screen", counting_screen)
        _permutation_rows(pools, m_c, m_l, plus)
        assert sum(counted) == sum(opened) + len(pools)
        scored = len(pools) * _scored_columns(m_c, m_l)
        if screen:
            assert sum(opened) + len(pools) < scored / 2
        else:
            assert sum(opened) + len(pools) == scored

    @pytest.mark.parametrize("case,m_c,m_l", SCREEN_CASES)
    def test_design_df_bounds_hold_for_every_relabeling(self, case, m_c, m_l):
        # The pipeline screens with these bounds before it scores a batch.
        _, df, _ = true_tails(screening_pools(case, m_c, m_l), m_c, m_l)
        lo, hi = _df_bounds(m_c, m_l)
        finite = df[np.isfinite(df)]
        assert ((lo <= finite) & (finite <= hi)).all()
        assert finite.size or (m_c, m_l) == (1, 1)

    @pytest.mark.parametrize("decimals", [2, None])
    def test_pipeline_batches_equal_full_evaluation(self, decimals, monkeypatch):
        matrix = gaussian_matrix(
            12, 40, 5, 4, 2, planted=8, low_shift=2.0, high_shift=3.0, decimals=decimals
        )
        with monkeypatch.context() as patch:
            rows_per_batch(patch, 5, 4, 1)
            got = run_pipeline(matrix, alpha_grid=(0.1, 0.3))
        settle_nothing(monkeypatch)
        want = run_pipeline(matrix, alpha_grid=(0.1, 0.3))
        assert per_gene_bytes(got) == per_gene_bytes(want)
        assert got.rows == want.rows

    @pytest.mark.parametrize("error", [0.0, 1e-3, -1e-3])
    def test_every_comparison_agrees_on_set_tails(self, error, monkeypatch):
        """Rows built around a given true tail, where rank comparisons
        are closest: fl(1 - tail) collapsing near 1, a true tail of 1/2
        or 0, tails just beside the true one or just below 1/2, NaN df,
        and degenerate relabelings with and without a difference.  Each
        target gets a row at the lower df bound, where the screen settles
        tails closest to the true one, a row with one df and a row with a
        wide df range; one pair of df bounds covers every row.  The x of
        each tail comes from scipy's inverse t.  The relabelings the
        screen may settle, low at x <= below and high at x >= above with
        a finite df, never the true labeling, must add to each row's
        one-sided, mirrored and two-sided ranks, through
        ``_settled_hits``, what their exact comparisons add."""
        rng = np.random.Generator(np.random.Philox(key=77))
        k = 400
        targets = [1e-16, 3e-17, 2.0**-52, 6e-16, 0.5, 0.0, 1e-3, 0.2, 0.4999]
        tails, df = [], []
        for target, size in itertools.product(targets, (0, 1, k)):
            near = np.minimum(target * rng.uniform(0.2, 2.0, size=k), 0.5)
            near[: k // 4] = rng.uniform(0.0, 0.5, size=k // 4)
            near[k // 4 : k // 2] = 0.5 - rng.uniform(0.0, 1e-6, size=k // 4)
            near[0] = target
            tails.append(near)
            row_df = rng.uniform(2.0, 12.0, size=size) if size else 2.0
            df.append(np.broadcast_to(row_df, k))
        df = np.array(df)
        degenerate = np.zeros(df.shape, dtype=bool)
        degenerate[:, -3:] = True
        df[degenerate] = np.nan
        df[-1, 5:9] = np.nan
        tails = np.array(tails)
        x = special.stdtrit(df, tails)
        x[tails == 0.0] = -1e80
        x[3 * targets.index(0.5) : 3 * targets.index(0.5) + 3, 0] = -0.0
        x[:, 1::37] = -0.0
        d = rng.normal(size=x.shape)
        # As ``_welch_stats`` gives them: without spread, x = -|d / 0|.
        d[:, -1] = 0.0
        x[:, -3:-1] = -np.inf
        exact = _tails.stdtr(df, x)
        assert (exact[:, 0] == 0.0).any() and (exact[:, 0] == 0.5).any()
        assert (1.0 - exact[0, 0] == 1.0 - exact[0, 1:]).any()

        shift_points(monkeypatch, error)
        # Every row's df was drawn from [2, 12).
        thresholds = _thresholds(exact[:, 0], 2.0, 12.0)
        low = x <= thresholds[:, :1]
        high = (x >= thresholds[:, 1:]) & np.isfinite(df)
        low[:, 0] = high[:, 0] = False
        settled = low | high
        assert settled.mean() > 0.5 and low[:, -3:-1].any()
        counts = np.stack([low.sum(axis=1), (low & (d > 0.0)).sum(axis=1), high.sum(axis=1)])

        def settled_hits(p, p0):
            return ((p <= p0[:, None]) & settled).sum(axis=1).tolist()

        two = _two_sided(d, exact, degenerate)
        rows = np.arange(x.shape[0])
        for plus in (rows % 2 == 0, rows % 2 == 1):
            signed = np.where(plus[:, None], d, -d)
            one = _one_sided(signed, exact, degenerate)
            mirrored = _one_sided(-signed, exact, degenerate)
            for mirror in (False, True):
                hits, hits_two = _settled_hits(counts, plus, one[:, 0], mirror)
                want = np.array(settled_hits(one, one[:, 0]))
                if mirror:
                    want += settled_hits(mirrored, one[:, 0])
                assert hits.tolist() == want.tolist()
                assert hits_two.tolist() == settled_hits(two, two[:, 0])

    def test_thresholds_at_the_ends_of_the_table(self, monkeypatch):
        lo, hi = _df_bounds(2, 2)
        far = _tails.stdtr(lo, _SCREEN_POINTS[0])
        below, above = _thresholds(np.array([np.nan, 0.0, 0.25]), lo, hi).T
        # NaN sorts last, past every entry: no threshold may come of it.
        assert np.isnan(below[0]) and np.isnan(above[0])
        assert np.isnan(below[1]) and above[1] < 0.0
        assert below[2] < above[2] < 0.0
        # True tails below the table's far end at m_c = m_l = 2, where the
        # df bound is 1: a spread of 1e-25 against a constant arm, in both
        # directions and with the arms swapped.
        pools = np.array(
            [
                [0.0, 1e-25, 1.0, 1.0],
                [0.0, 3e-25, 2.0, 2.0],
                [5.0, 5.0, 0.0, 2e-25],
                [1.0, 1.0, 0.0, 4e-25],
            ]
        )
        plus = np.array([True, False, True, False])
        tail0 = true_tails(pools, 2, 2)[0]
        assert (tail0 < far).all() and (tail0 > 0.0).all()
        got = _permutation_rows(pools, 2, 2, plus)
        settle_nothing(monkeypatch)
        want = _permutation_rows(pools, 2, 2, plus)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_tail_premise_holds(self):
        # The screen bounds each tail by the t-CDF at the row's df bounds.
        df = np.geomspace(0.5, 200.0, 300)[:, None]
        x = np.geomspace(1e-3, 40.0, 300)[None, :]
        tail = _tails.stdtr(df, -x)
        assert (np.diff(tail, axis=0) <= 0.0).all()
        assert (np.diff(tail, axis=1) <= 0.0).all()
        assert (tail <= 0.5).all()
        # Where the kernel switches method it may wobble; any rise must
        # stay far inside the slack the bands allow.
        df = np.add.outer(np.arange(1.0, 40.0), [-1e-9, 0.0, 1e-9, 0.5]).ravel()
        tail = _tails.stdtr(df[:, None], -np.geomspace(1e-6, 1e3, 1000)[None, :])
        for axis in (0, 1):
            rise = np.diff(tail, axis=axis) / np.delete(tail, -1, axis=axis)
            assert rise.max() < _TAIL_SLACK / 8

    @pytest.mark.parametrize("m_c,m_l", [(2, 2), (4, 3), (9, 7), (3, 18), (1, 20)])
    def test_remainders_stay_within_the_written_bound(self, m_c, m_l):
        # Units from 0 to 2^bits and remainders up to +-1/2.  Half the
        # rows alternate low and 2^bits units within each group, with
        # remainders that widen every such pair, and a quarter put -1/2
        # on the control columns and +1/2 on the low ones: there the
        # true labeling's se2 and d come close to their bounds.
        m = m_c + m_l
        top = 2.0 ** _scale_bits(m)
        rng = np.random.Generator(np.random.Philox(key=m_c * 100 + m_l))
        rows = 40
        h = rng.integers(0, int(top) + 1, size=(rows, m)).astype(float)
        r = rng.uniform(-0.5, 0.5, size=(rows, m))
        columns = np.arange(m)
        alternate = np.where((columns - np.where(columns < m_c, 0, m_c)) % 2 == 1, top, 0.0)
        # Low units of 1 in the low group keep the arms' means apart.
        alternate[m_c:][alternate[m_c:] == 0.0] = 1.0
        h[::2] = alternate
        r[::2] = np.where(alternate == top, 0.5, -0.5)
        r[1::4] = np.where(columns < m_c, -0.5, 0.5)
        indicator = _partition_table(m, m_c)[:, : _scored_columns(m_c, m_l)]
        sums = np.vstack([h, h * h]) @ indicator
        totals = h.sum(axis=1, keepdims=True), (h * h).sum(axis=1, keepdims=True)
        pair_sums = _pair_sums(_remainder_columns(h, r)[..., None], indicator[:, None, :])
        d, x, _, _ = _welch_stats(sums[:rows], sums[rows:], *totals, m_c, m_l, pair_sums)
        d_h, x_h, _, _ = _welch_stats(sums[:rows], sums[rows:], *totals, m_c, m_l)
        # se2 from d and x = -|d / (sqrt(se2) m_c m_l)|, to a few ulps.
        with np.errstate(divide="ignore", invalid="ignore"):
            se2 = (d / (x * m_c * m_l)) ** 2
            se2_h = (d_h / (x_h * m_c * m_l)) ** 2
        known = (d != 0.0) & (d_h != 0.0) & (x != 0.0) & (x_h != 0.0)
        # 1. |d - d_h| <= m_c m_l, and a per group within its pairs'
        # p_n (2^(b+1) + 1), plus the rounding the bound allows.
        gap_d = abs(d - d_h) - 2.0**-52 * abs(d_h)
        assert (gap_d <= m_c * m_l * (1.0 + 2.0**-40)).all()
        spread = sum(
            (n * (n - 1) // 2 * (2.0 * top + 1.0) + 2.0**-45 * n**3 * 2.0 * top) / (n * n * (n - 1))
            for n in (m_c, m_l)
            if n > 1
        )
        gap_se2 = abs(se2 - se2_h)[known] - 2.0**-46 * se2_h[known]
        assert (gap_se2 <= spread).all()
        # The rows built to meet the bound come close to it.
        assert gap_d.max() > 0.9 * m_c * m_l
        assert gap_se2.max() > 0.4 * spread

    @pytest.mark.parametrize(
        "case,m_c,m_l",
        [("top-scale", 4, 3), ("top-scale", 3, 18), ("clusters", 4, 3), ("clusters", 3, 18),
         ("off-grid", 5, 5), ("tiny-next-to-large", 5, 4), ("grid2", 4, 3), ("off-grid", 1, 20)],
    )
    def test_settled_relabelings_lie_past_their_thresholds(self, case, m_c, m_l):
        # Thresholds a hair beyond each relabeling's own x, so that the
        # screen must leave that relabeling open, however little its
        # remainder terms move x.
        pools = screening_pools(case, m_c, m_l, rows=4)
        _, x, df, degenerate = every_relabeling(pools, m_c, m_l)
        k = x.shape[1]
        rng = np.random.Generator(np.random.Philox(key=7))
        picks = rng.integers(1, k, size=(60, len(pools)))
        # The relabeling with the largest |t|, the cluster split on
        # ``clusters`` rows.
        picks[0] = 1 + np.argmin(x[:, 1:], axis=1)
        rows = np.tile(np.arange(len(pools)), 60)
        near = x[rows, picks.ravel()][:, None]
        thresholds = np.hstack([near * (1.0 + 2.0**-40), near * (1.0 - 2.0**-40)])
        thresholds[1::2, 0] = near[1::2, 0] * (1.0 - 2.0**-40)
        thresholds[1::2, 1] = near[1::2, 0] * (1.0 + 2.0**-40)
        h, r = _exact_units(pools[rows])
        sums = np.vstack([h, h * h]) @ _partition_table(m_c + m_l, m_c)[:, :k]
        g = h.shape[0]
        counts, open_ = _sum_screen(
            sums[:g], sums[g:], h.sum(axis=1, keepdims=True),
            (h * h).sum(axis=1, keepdims=True), r.any(axis=1), m_c, m_l, thresholds,
        )
        x, df, degenerate = x[rows], df[rows], degenerate[rows]
        settled = ~open_
        low = settled & (x <= thresholds[:, :1])
        high = settled & (x >= thresholds[:, 1:]) & np.isfinite(df) & ~degenerate
        assert (low | high).tolist() == settled.tolist()
        assert (counts[0] == low.sum(axis=1)).all()
        assert (counts[2] == high.sum(axis=1)).all()
        assert settled.mean() > 0.3
