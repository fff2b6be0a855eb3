"""Ranked-trial generation, trial scoring, aggregation, RNG streams."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from accumtest import (
    ContractError,
    DomainError,
    AlternativeDensity,
    Method,
    OrderedPValues,
    Rule,
    SignalCurve,
    SimConfig,
    aggregate,
    child_rng,
    child_seed,
    collect_trial_frames,
    default_methods,
    fdp,
    forward_stop,
    generate_from_curve,
    generate_ranked_trial,
    parse_curve,
    power_of_cutoff,
    run_accumulation_test,
    run_trial,
    select_cutoff,
    seq_step,
    simulate_count_ratio,
)
from accumtest import _tails, simlab
from accumtest.errors import _MEMORY_BUDGET
from accumtest.simlab import (
    STAT_FDP,
    STAT_KHAT,
    STAT_POWER,
    AggregateResult,
    TrialFrame,
    path_table_columns,
    power_table_columns,
    run_simulation,
)

import oracles


class TestNormalFunctions:
    """``_tails.ndtr`` is the Phi the engine draws two-sided p-values with."""

    def test_cdf_matches_high_precision_references(self):
        for x, want in oracles.NORMAL_CDF_REFERENCE.items():
            assert abs(_tails.ndtr(x) - want) <= 1e-12
            assert abs(_tails.ndtr(-x) - (1.0 - want)) <= 1e-12


class TestChildStreams:
    def test_deterministic_per_index(self):
        a = child_rng(123, 5).random(8)
        b = child_rng(123, 5).random(8)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = child_rng(123, 5).random(8)
        b = child_rng(123, 6).random(8)
        assert not np.array_equal(a, b)

    def test_seed_mixing_is_xor_based(self):
        assert child_seed(0, 0) == child_seed(0, 0)
        assert child_seed(1, 0) != child_seed(0, 0)
        assert child_seed(0, 0) ^ child_seed(1, 0) == 1

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            child_seed(0, -1)


class TestGenerateRankedTrial:
    def test_same_inputs_same_output(self):
        config = SimConfig(n=50, n_nonnull=5, trials=1, seed=9)
        a = generate_ranked_trial(config, 0)
        b = generate_ranked_trial(config, 0)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.null_mask, b.null_mask)

    def test_extreme_separation_puts_nonnulls_first(self):
        config = SimConfig(n=200, n_nonnull=30, mu1=60.0, mu2=1.0, trials=1, seed=4)
        trial = generate_ranked_trial(config, 0)
        assert not trial.null_mask[:30].any()
        assert trial.null_mask[30:].all()

    def test_null_pvalues_are_uniform(self):
        config = SimConfig(n=100_000, n_nonnull=1, mu1=0.0, mu2=0.0, trials=1, seed=12)
        trial = generate_ranked_trial(config, 0)
        draws = np.sort(trial.values)
        ecdf = np.arange(1, draws.size + 1) / draws.size
        statistic = np.max(np.abs(ecdf - draws))
        assert statistic < 1.63 / math.sqrt(draws.size)

    def test_config_invariants(self):
        with pytest.raises(DomainError):
            SimConfig(n=10, n_nonnull=10)
        with pytest.raises(DomainError):
            SimConfig(alpha_grid=(0.5, 1.0))
        with pytest.raises(DomainError):
            SimConfig(trials=0)

    def test_oversized_n_refused_before_allocation(self):
        # The config is what run_simulation and generate_ranked_trial
        # take, so no trial array exists when it is refused.
        largest = _MEMORY_BUDGET // simlab._row_bytes(1, 0, 0)
        assert largest >= 100_000
        assert SimConfig(n=largest, n_nonnull=1, trials=1).n == largest
        tracemalloc.start()
        try:
            for n in (largest + 1, 10**11, 2**63 - 1):
                with pytest.raises(ContractError, match=f"largest n is {largest}"):
                    SimConfig(n=n, n_nonnull=1, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestRunTrial:
    methods = (
        Method("step", seq_step(2.0)),
        Method("step+", seq_step(2.0), rule=Rule.PLUS, c=2.0),
    )

    def test_all_zero_pvalues_reject_everything(self):
        mask = np.array([False] * 3 + [True] * 7)
        pvals = OrderedPValues(np.zeros(10), null_mask=mask)
        frame = run_trial(pvals, [Method("step", seq_step(2.0))], [0.3])
        assert frame.stats[0, 0, 0, STAT_POWER] == 1.0
        assert frame.stats[0, 0, 0, STAT_FDP] == pytest.approx(0.7)

    def test_all_one_pvalues_reject_nothing(self):
        mask = np.array([False, True, True])
        pvals = OrderedPValues(np.ones(3), null_mask=mask)
        frame = run_trial(pvals, [Method("step", seq_step(2.0))], [0.2])
        assert frame.stats[0, 0, 0, STAT_KHAT] == 0
        assert frame.stats[0, 0, 0, STAT_POWER] == 0.0
        assert frame.stats[0, 0, 0, STAT_FDP] == 0.0

    def test_hand_checked_instance(self):
        pvals = OrderedPValues(
            [0.01, 0.95, 0.02, 0.8, 0.9],
            null_mask=[False, True, False, True, True],
        )
        frame = run_trial(pvals, [Method("step", seq_step(2.0))], [0.5])
        assert frame.stats[0, 0, 0, STAT_KHAT] == 1
        assert frame.stats[0, 0, 0, STAT_POWER] == pytest.approx(0.5)
        assert frame.stats[0, 0, 0, STAT_FDP] == 0.0

    def test_paths_on_request(self):
        pvals = OrderedPValues([0.1, 0.9], null_mask=[False, True])
        frame = run_trial(pvals, self.methods, [0.5], include_paths=True)
        assert frame.fdp_hat_paths.shape == (1, 2, 2)
        assert np.allclose(frame.fdp_true_path, [[0.0, 0.5]])

    def test_mask_required(self):
        with pytest.raises(ContractError):
            run_trial(OrderedPValues([0.1]), self.methods, [0.5])

    def test_empty_method_list_refused_as_by_run_simulation(self):
        pvals = OrderedPValues([0.1, 0.9], null_mask=[False, True])
        with pytest.raises(ContractError, match="a simulation needs at least one method"):
            run_trial(pvals, [], [0.1])

    @pytest.mark.parametrize("grid", [(), (0.1, 1.0)])
    def test_bad_alpha_grid_refused_as_by_sim_config(self, grid):
        pvals = OrderedPValues([0.1, 0.9], null_mask=[False, True])
        with pytest.raises(DomainError, match=r"alpha grid values must lie in \(0, 1\)"):
            SimConfig(alpha_grid=grid)
        with pytest.raises(DomainError, match=r"alpha grid values must lie in \(0, 1\)"):
            run_trial(pvals, self.methods, grid)

    def test_all_null_mask_rejected(self):
        pvals = OrderedPValues([0.01, 0.5, 0.9], null_mask=np.ones(3, dtype=bool))
        with pytest.raises(ContractError):
            run_trial(pvals, self.methods, [0.5])

    def test_stats_equal_loop_over_public_metrics(self):
        alphas = (0.05, 0.1, 0.2, 0.35, 0.6)
        methods = default_methods(2.0)
        config = SimConfig(n=150, n_nonnull=20, mu1=1.5, mu2=2.0, seed=4)
        for t in range(8):
            pvals = generate_ranked_trial(config, t)
            mask = pvals.null_mask
            frame = run_trial(pvals, methods, alphas)
            want = np.empty_like(frame.stats[0])
            for m, method in enumerate(methods):
                path = method.path(pvals)
                for a, alpha in enumerate(alphas):
                    k = select_cutoff(path, alpha)
                    want[m, a] = (
                        k,
                        np.count_nonzero(mask[:k]),
                        power_of_cutoff(k, mask),
                        fdp(k, mask),
                    )
            assert np.array_equal(frame.stats[0], want)

    @pytest.mark.parametrize("mu1", [1.5, math.inf])
    def test_block_stats_equal_loop_over_public_metrics(self, monkeypatch, mu1):
        # A repeated spec, the plus rule with its own c, and an unsorted
        # grid that repeats a level; mu1 = inf ties the non-nulls' priors.
        methods = (
            Method("SeqStep", seq_step(2.0)),
            Method("SeqStep+", seq_step(2.0), rule=Rule.PLUS, c=0.5),
            Method("ForwardStop", forward_stop()),
            Method("SeqStep again", seq_step(2.0)),
            Method("ForwardStop+", forward_stop(), rule=Rule.PLUS, c=3.0),
        )
        alphas = (0.3, 0.03, 0.11, 0.03, 0.6)
        config = SimConfig(n=90, n_nonnull=15, mu1=mu1, mu2=2.0, alpha_grid=alphas,
                           trials=8, seed=6)
        rows = 3  # blocks of 3, 3 and 2 trials
        budget = rows * simlab._row_bytes(config.n, len(methods), len(alphas))
        monkeypatch.setattr(simlab, "_BLOCK_BUDGET", budget)
        frames = collect_trial_frames(config, methods)
        assert [len(frame.stats) for frame in frames] == [3, 3, 2]
        stats = np.concatenate([frame.stats for frame in frames])
        want = np.empty_like(stats)
        for t in range(config.trials):
            pvals = generate_ranked_trial(config, t)
            mask = pvals.null_mask
            for m, method in enumerate(methods):
                path = method.path(pvals)
                for a, alpha in enumerate(alphas):
                    k = select_cutoff(path, alpha)
                    want[t, m, a] = (
                        k, np.count_nonzero(mask[:k]), power_of_cutoff(k, mask), fdp(k, mask)
                    )
        assert stats.tobytes() == want.tobytes()
        assert (stats[..., STAT_KHAT] > 0).any()


class TestAggregate:
    def make_frame(self, power, fdp_value):
        stats = np.zeros((1, 1, 1, 4))
        stats[0, 0, 0, STAT_POWER] = power
        stats[0, 0, 0, STAT_FDP] = fdp_value
        return TrialFrame(("m",), (0.1,), stats)

    def test_single_trial_passthrough(self):
        agg = aggregate([self.make_frame(0.4, 0.1)])
        assert agg.mean_power[0, 0] == pytest.approx(0.4)
        assert agg.se_power[0, 0] == 0.0

    def test_identical_trials_have_zero_se(self):
        agg = aggregate([self.make_frame(0.4, 0.1)] * 2)
        assert agg.mean_power[0, 0] == pytest.approx(0.4)
        assert agg.se_power[0, 0] == 0.0

    def test_two_trial_arithmetic(self):
        agg = aggregate([self.make_frame(0.2, 0.0), self.make_frame(0.4, 0.0)])
        assert agg.mean_power[0, 0] == pytest.approx(0.3)
        assert agg.se_power[0, 0] == pytest.approx(0.1)

    def test_frames_given_as_nested_lists(self):
        frame = TrialFrame(("a",), (0.1,), [[[[1, 0, 1, 0]]]], [[[0.5, 0.25]]], [[0.0, 0.5]])
        agg = aggregate([frame, frame])
        assert agg.mean_power.tolist() == [[1.0]] and agg.mean_fdp.tolist() == [[0.0]]
        assert agg.mean_fdp_hat_path.tolist() == [[0.5, 0.25]]
        assert agg.mean_fdp_true_path.tolist() == [0.0, 0.5]

    def test_shape_mismatch_rejected(self):
        good = self.make_frame(0.2, 0.0)
        bad = TrialFrame(("other",), (0.1,), np.zeros((1, 1, 1, 4)))
        with pytest.raises(ContractError):
            aggregate([good, bad])
        frames = [
            collect_trial_frames(
                SimConfig(n=n, n_nonnull=5, trials=1, seed=2), default_methods(),
                include_paths=True,
            )[0]
            for n in (50, 60)
        ]
        with pytest.raises(ContractError):
            aggregate(frames)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            aggregate([])
        with pytest.raises(ContractError):
            aggregate(frame for frame in [])

    @pytest.mark.parametrize("names, grid", [((), (0.1,)), (("m",), ())])
    def test_frames_without_methods_or_levels_rejected(self, names, grid):
        # They would give empty tables, where run_simulation refuses an
        # empty method list and SimConfig an empty grid.
        with pytest.raises(ContractError, match="at least one method and one level"):
            TrialFrame(names, grid, np.zeros((1, len(names), len(grid), 4)))

    def test_generator_streams_like_a_list(self):
        config = SimConfig(n=60, n_nonnull=6, trials=5, seed=3)
        frames = collect_trial_frames(config, default_methods(), include_paths=True)
        assert_bitwise_equal(aggregate(f for f in frames), aggregate(frames))

    def test_stats_wider_than_names_and_grid_rejected(self):
        # A 2 x 3 grid of stats under one name and one level would give
        # table columns of different lengths.
        with pytest.raises(ContractError):
            TrialFrame(("m",), (0.1,), np.zeros((1, 2, 3, 4)))

    def test_paths_disagreeing_with_names_or_each_other_rejected(self):
        # Path-table columns of lengths 10, 15, 15 and 21 once came out.
        with pytest.raises(ContractError, match="trial paths"):
            TrialFrame(
                ("a", "b"), (0.1,), np.zeros((1, 2, 1, 4)),
                fdp_hat_paths=np.zeros((1, 3, 5)), fdp_true_path=np.zeros((1, 7)),
            )
        cases = (
            ((1, 3, 5), (1, 5)), ((1, 2, 5), (1, 7)), ((1, 2, 5), None), (None, (1, 5)),
            # Paths of another trial count than the stats, or without a trial axis.
            ((2, 2, 5), (2, 5)), ((1, 2, 5), (5,)), ((2, 5), (1, 5)),
        )
        for hat, true in cases:
            with pytest.raises(ContractError, match="trial paths"):
                TrialFrame(
                    ("a", "b"), (0.1,), np.zeros((1, 2, 1, 4)),
                    fdp_hat_paths=None if hat is None else np.zeros(hat),
                    fdp_true_path=None if true is None else np.zeros(true),
                )

    # (1, 1, 4) is one trial's stats without the trial axis.
    @pytest.mark.parametrize("shape", [(1, 1, 1, 3), (4,), (1, 1, 4)])
    def test_stats_without_four_per_level_rejected(self, shape):
        with pytest.raises(ContractError, match="trial stats have shape"):
            TrialFrame(("m",), (0.1,), np.zeros(shape))

    def test_mismatched_last_frame_rejected(self):
        config = SimConfig(n=60, n_nonnull=6, trials=4, seed=3)
        frames = collect_trial_frames(config, default_methods(), include_paths=True)
        without_paths = dataclasses.replace(
            frames[-1], fdp_hat_paths=None, fdp_true_path=None
        )
        other_grid = dataclasses.replace(frames[-1], alpha_grid=(0.1,) * 9)
        other_n = collect_trial_frames(
            dataclasses.replace(config, n=61), default_methods(), include_paths=True
        )[-1]
        for last in (without_paths, other_grid, other_n):
            with pytest.raises(ContractError, match="disagree"):
                aggregate(f for f in frames + [last])


class TestAggregateOracle:
    """``aggregate`` equals the stacked-stats formula bit for bit.

    The paths' means are their running sums in trial order over trials.
    """

    def check(self, frames):
        want = (
            *oracles.stacked_mean_and_se(frames, STAT_POWER),
            *oracles.stacked_mean_and_se(frames, STAT_FDP),
        )
        trials = sum(len(frame.stats) for frame in frames)
        hat_sum = true_sum = None
        if frames[0].fdp_hat_paths is not None:
            hat_sum = np.zeros(frames[0].fdp_hat_paths.shape[1:])
            true_sum = np.zeros(frames[0].fdp_true_path.shape[1:])
            for frame in frames:
                for hat, true in zip(frame.fdp_hat_paths, frame.fdp_true_path):
                    hat_sum += hat
                    true_sum += true
        for agg in (aggregate(frames), aggregate(frame for frame in frames)):
            assert agg.trials == trials
            got = (agg.mean_power, agg.se_power, agg.mean_fdp, agg.se_fdp)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            if hat_sum is None:
                assert agg.mean_fdp_hat_path is None and agg.mean_fdp_true_path is None
            else:
                assert agg.mean_fdp_hat_path.tobytes() == (hat_sum / trials).tobytes()
                assert agg.mean_fdp_true_path.tobytes() == (true_sum / trials).tobytes()

    @pytest.mark.parametrize("include_paths", [True, False])
    @pytest.mark.parametrize("trials", [1, 2, 3, 1000])
    def test_engine_frames(self, trials, include_paths):
        config = SimConfig(n=40, n_nonnull=8, mu1=1.0, mu2=1.5, trials=trials, seed=29)
        self.check(collect_trial_frames(config, default_methods(), include_paths))

    def test_one_method_at_one_level(self):
        # numpy sums a single reduced axis pairwise, in pieces whose size
        # could depend on the layout of the kept stats.
        config = SimConfig(
            n=20, n_nonnull=4, mu1=1.0, mu2=1.5, alpha_grid=(0.2,), trials=10_000, seed=31
        )
        self.check(collect_trial_frames(config, default_methods()[:1]))

    @pytest.mark.parametrize("include_paths", [True, False])
    def test_many_levels(self, include_paths):
        grid = tuple(np.linspace(0.01, 0.99, 120))
        config = SimConfig(n=20, n_nonnull=4, alpha_grid=grid, trials=300, seed=43)
        self.check(collect_trial_frames(config, default_methods(), include_paths))

    @pytest.mark.parametrize("shape", [(10_000, 1, 1), (3, 4, 2), (2_000, 4, 120)])
    def test_full_precision_stats(self, shape):
        # The engine's power and FDP are ratios of small counts; uniform
        # draws use every bit, so any change in the order of the additions
        # would show.
        trials, n_methods, n_levels = shape
        stats = np.random.default_rng(37).random((trials, n_methods, n_levels, 4))
        names = tuple(f"m{i}" for i in range(n_methods))
        grid = tuple(np.linspace(0.05, 0.95, n_levels))
        self.check([TrialFrame(names, grid, stats[t:t + 1]) for t in range(trials)])
        self.check([TrialFrame(names, grid, stats)])

    @pytest.mark.parametrize("include_paths", [True, False])
    @pytest.mark.parametrize("trials", [4, 10, 1000])
    def test_frame_sizes_do_not_change_bits(self, trials, include_paths):
        config = SimConfig(n=40, n_nonnull=8, mu1=1.0, mu2=1.5, trials=trials, seed=29)
        whole = joined(collect_trial_frames(config, default_methods(), include_paths))
        parts = [sliced(whole, first, stop) for first, stop in ((0, 1), (1, 3), (3, trials))]
        assert [len(part.stats) for part in parts] == [1, 2, trials - 3]
        assert_bitwise_equal(aggregate(parts), aggregate([whole]))
        self.check(parts)
        self.check([whole])


class TestCollectTrialFrames:
    config = SimConfig(n=80, n_nonnull=10, trials=6, seed=77, alpha_grid=(0.1, 0.2))

    def test_worker_count_does_not_change_results(self):
        methods = default_methods()
        seq = collect_trial_frames(self.config, methods, workers=1)
        par = collect_trial_frames(self.config, methods, workers=3)
        for a, b in zip(seq, par):
            assert np.array_equal(a.stats, b.stats)

    def test_empty_method_list_refused_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(simlab, "_ranked_block", no_trial)
        with pytest.raises(ContractError, match="at least one method"):
            run_simulation(self.config, methods=())
        with pytest.raises(ContractError, match="at least one method"):
            collect_trial_frames(self.config, [])

    @pytest.mark.parametrize("include_paths", [True, False])
    def test_run_simulation_aggregates_one_frame_per_block(self, monkeypatch, include_paths):
        # 70 trials at n = 300 fill two blocks and part of a third.
        config = SimConfig(n=300, n_nonnull=30, trials=70, seed=7)
        methods = default_methods()
        rows = simlab._block_rows(config.n, len(methods), len(config.alpha_grid))
        blocks = math.ceil(config.trials / rows)
        assert 1 < blocks < config.trials
        frames = collect_trial_frames(config, methods, include_paths)
        assert [len(f.stats) for f in frames] == [rows] * (blocks - 1) + [70 - rows * (blocks - 1)]
        want = aggregate(frames)
        built, reduced = [], []

        def counted_frame(*args, **kwargs):
            built.append(TrialFrame(*args, **kwargs))
            return built[-1]

        def counted_aggregate(frames):
            reduced.append(None)
            return aggregate(frames)

        monkeypatch.setattr(simlab, "TrialFrame", counted_frame)
        monkeypatch.setattr(simlab, "aggregate", counted_aggregate)
        assert_bitwise_equal(run_simulation(config, methods, include_paths), want)
        assert len(built) == blocks and len(reduced) == 1

    def test_aggregate_means_in_range(self):
        frames = collect_trial_frames(self.config, default_methods(), workers=1)
        agg = aggregate(frames)
        assert np.all(agg.mean_power >= 0.0) and np.all(agg.mean_power <= 1.0)
        assert np.all(agg.mean_fdp >= 0.0) and np.all(agg.mean_fdp <= 1.0)
        assert np.all(agg.se_power >= 0.0) and np.all(agg.se_fdp >= 0.0)

    def test_table_columns_list_rows_method_major(self):
        agg = run_simulation(self.config, default_methods(), include_paths=True)
        power_rows = [
            (name, alpha, agg.mean_power[m, a], agg.se_power[m, a],
             agg.mean_fdp[m, a], agg.se_fdp[m, a])
            for m, name in enumerate(agg.method_names)
            for a, alpha in enumerate(agg.alpha_grid)
        ]
        assert list(zip(*power_table_columns(agg))) == power_rows
        n_k = self.config.n
        path_rows = [
            (name, j + 1, agg.mean_fdp_hat_path[m, j], agg.mean_fdp_true_path[j])
            for m, name in enumerate(agg.method_names)
            for j in range(n_k)
        ]
        assert list(zip(*path_table_columns(agg))) == path_rows
        without = run_simulation(self.config, default_methods(), include_paths=False)
        with pytest.raises(ContractError):
            path_table_columns(without)


def assert_bitwise_equal(got: AggregateResult, want: AggregateResult):
    for field in dataclasses.fields(AggregateResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def reference_ranked_trial(config, trial_index):
    """The ranked protocol for one trial, written out one list at a time.

    It draws from ``simlab.child_rng``, so a test that patches that
    generator patches the oracle too.
    """
    rng = simlab.child_rng(config.seed, trial_index)
    null_mask = np.arange(config.n) >= config.n_nonnull
    prior = rng.standard_normal(config.n)
    prior[~null_mask] += config.mu1
    order = np.argsort(-np.abs(prior), kind="stable")
    fresh = rng.standard_normal(config.n)
    fresh[~null_mask] += config.mu2
    pvals = 2.0 * _tails.ndtr(-np.abs(fresh))
    return pvals[order], null_mask[order]


def joined(frames: list[TrialFrame]) -> TrialFrame:
    """One frame holding every trial of ``frames``, in order."""
    arrays = [
        [getattr(frame, name) for frame in frames]
        for name in ("stats", "fdp_hat_paths", "fdp_true_path")
    ]
    return TrialFrame(
        frames[0].method_names, frames[0].alpha_grid,
        *(None if a[0] is None else np.concatenate(a) for a in arrays),
    )


def sliced(frame: TrialFrame, first: int, stop: int) -> TrialFrame:
    """Trials ``first`` to ``stop - 1`` of ``frame``."""
    arrays = (frame.stats, frame.fdp_hat_paths, frame.fdp_true_path)
    return TrialFrame(
        frame.method_names, frame.alpha_grid,
        *(None if a is None else a[first:stop] for a in arrays),
    )


def assert_frames_bitwise_equal(got: TrialFrame, want: TrialFrame):
    assert got.method_names == want.method_names
    assert got.alpha_grid == want.alpha_grid
    for name in ("stats", "fdp_hat_paths", "fdp_true_path"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


class TestBlockEngine:
    """Trials run in blocks; one-row blocks, one trial at a time, are the oracle."""

    n = 300
    block = simlab._block_rows(n, 4, 9)

    def check(self, trials, methods=None, include_paths=True, **config):
        config = SimConfig(n=self.n, n_nonnull=30, trials=trials, seed=41, **config)
        methods = default_methods() if methods is None else methods
        got = run_simulation(config, methods, include_paths)
        frames = collect_trial_frames(config, methods, include_paths)
        one_row = [
            run_trial(generate_ranked_trial(config, t), methods, config.alpha_grid, include_paths)
            for t in range(trials)
        ]
        rows = simlab._block_rows(config.n, len(methods), len(config.alpha_grid))
        assert len(frames) == math.ceil(trials / rows)
        assert_frames_bitwise_equal(joined(frames), joined(one_row))
        assert_bitwise_equal(got, aggregate(one_row))
        if include_paths:
            # The stacked mean that aggregate computed before paths were summed.
            stacked = joined(one_row).fdp_hat_paths.mean(axis=0)
            assert got.mean_fdp_hat_path.tobytes() == stacked.tobytes()
            stacked = joined(one_row).fdp_true_path.mean(axis=0)
            assert got.mean_fdp_true_path.tobytes() == stacked.tobytes()
        else:
            assert got.mean_fdp_hat_path is None and got.mean_fdp_true_path is None

    @pytest.mark.parametrize("include_paths", [True, False])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "twice"])
    def test_block_edges(self, extra, include_paths):
        trials = 2 * self.block + 1 if extra == "twice" else self.block + extra
        self.check(trials, include_paths=include_paths)

    def test_block_holds_several_trials(self):
        assert 6 <= self.block < 70

    def test_one_trial(self):
        self.check(1)

    def test_fewer_trials_than_a_block(self):
        self.check(self.block - 5)

    def test_trials_not_a_multiple_of_the_block(self):
        self.check(2 * self.block + 7)

    def test_without_paths(self):
        self.check(self.block + 3, include_paths=False)

    def test_custom_alpha_grid(self):
        self.check(self.block + 1, alpha_grid=(0.3, 0.03, 0.11))

    def test_other_plus_rule_constant(self):
        self.check(self.block + 2, methods=default_methods(3.0))

    def test_block_rows_equal_one_trial_draws(self):
        config = SimConfig(n=90, n_nonnull=9, mu1=0.5, trials=1, seed=13)
        pvals, null = simlab._ranked_block(config, 3, 11)
        assert pvals.shape == null.shape == (8, 90)
        for row, trial in enumerate(range(3, 11)):
            want_p, want_null = reference_ranked_trial(config, trial)
            assert pvals[row].tobytes() == want_p.tobytes()
            assert np.array_equal(null[row], want_null)
            one = generate_ranked_trial(config, trial)
            assert one.values.tobytes() == want_p.tobytes()
            assert np.array_equal(one.null_mask, want_null)


class RoundedNormals:
    """A generator whose normals are rounded to one decimal, so that
    |z| ties within a list."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size=None, out=None):
        draws = self.rng.standard_normal(size, out=out)
        return np.round(draws, 1, out=draws)


class TestTiedKeys:
    """Rows with tied |prior z| keep the stable order, ties broken by index.

    The block engine sorts with numpy's fastest argsort, which need not
    be stable, and sorts again stably only the rows that hold a tie.
    """

    def check(self, config, first, stop):
        pvals, null = simlab._ranked_block(config, first, stop)
        for row, trial in enumerate(range(first, stop)):
            want_p, want_null = reference_ranked_trial(config, trial)
            assert pvals[row].tobytes() == want_p.tobytes(), trial
            assert np.array_equal(null[row], want_null), trial

    @pytest.mark.parametrize("mu1", [math.inf, -math.inf])
    def test_infinite_prior_mean_ties_every_non_null(self, mu1):
        config = SimConfig(n=1000, n_nonnull=100, mu1=mu1, trials=1, seed=19)
        self.check(config, 0, 9)

    def test_finite_ties_in_some_rows(self, monkeypatch):
        # Even trials draw rounded normals, odd ones continuous normals,
        # so one block holds rows with and without ties.
        child_rng = simlab.child_rng

        def rounded_on_even_trials(seed, index):
            rng = child_rng(seed, index)
            return RoundedNormals(rng) if index % 2 == 0 else rng

        monkeypatch.setattr(simlab, "child_rng", rounded_on_even_trials)
        config = SimConfig(n=1000, n_nonnull=100, mu1=0.5, trials=1, seed=23)
        rounded = np.abs(simlab.child_rng(config.seed, 4).standard_normal(config.n))
        assert np.unique(rounded).size < rounded.size
        self.check(config, 3, 12)


class TestBoundedMemory:
    def peak(self, trials, n=2000):
        config = SimConfig(n=n, n_nonnull=n // 10, trials=trials, seed=5)
        tracemalloc.start()
        try:
            run_simulation(config, default_methods(), include_paths=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_is_flat_in_trials(self):
        self.peak(1)  # a first run outside the measured ones
        small, large = self.peak(50), self.peak(400)
        # Only the kept stats may grow, here bounded by all four per level.
        stats_growth = (400 - 50) * 4 * 9 * 4 * 8
        assert large - small <= stats_growth + 256 * 2**10

    def test_kept_stats_per_trial(self):
        # Keeping every frame's stats and stacking them grew the peak by
        # 2 677 to 2 753 bytes per trial (2 753 on Python 3.11.7 with numpy
        # 2.4.6), about 75 bytes per method and level.  Power and FDP alone,
        # 16 bytes in a buffer that doubles, must take at most half of 2 677.
        self.peak(1, n=100)
        small, large = self.peak(2_000, n=100), self.peak(12_000, n=100)
        assert (large - small) / 10_000 <= 2677 / 2

    def test_block_rule_bounds_what_a_block_holds(self):
        self.peak(1)
        cases = (
            (2000, default_methods(), SimConfig.alpha_grid),
            (300, default_methods()[:1], SimConfig.alpha_grid),
            (300, default_methods()[:1], tuple(np.linspace(0.01, 0.99, 120))),
            (300, default_methods(), tuple(np.linspace(0.01, 0.99, 1000))),
            (100, default_methods(), tuple(np.linspace(0.01, 0.99, 1000))),
        )
        for n, methods, grid in cases:
            config = SimConfig(n=n, n_nonnull=n // 10, alpha_grid=grid, trials=1, seed=8)
            rows = simlab._block_rows(n, len(methods), len(grid))
            tracemalloc.start()
            try:
                pvals, null = simlab._ranked_block(config, 0, rows)
                simlab._score_rows(pvals, null, methods, config.alpha_grid, include_paths=True)
                del pvals, null
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= rows * simlab._row_bytes(n, len(methods), len(grid))


class TestGenerateFromCurve:
    density = AlternativeDensity.beta(1.0, 2.0)

    def test_zero_curve_all_null(self):
        curve = SignalCurve(((0.0, 0.0), (1.0, 0.0)))
        out = generate_from_curve(curve, 200, self.density, seed=1)
        assert out.null_mask.all()

    def test_unit_curve_all_nonnull(self):
        curve = SignalCurve(((0.0, 1.0), (1.0, 1.0)))
        out = generate_from_curve(curve, 200, self.density, seed=1)
        assert not out.null_mask.any()

    def test_counts_track_curve(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
        n = 10_000
        out = generate_from_curve(curve, n, self.density, seed=3)
        k = np.arange(1, n + 1)
        counts = np.cumsum(~out.null_mask)
        target = k * np.atleast_1d(curve(k / n))
        assert np.max(np.abs(counts - target)) <= 0.5 + 1e-9
        start = int(math.sqrt(n) / 4)
        proportion = counts[start - 1 :] / k[start - 1 :]
        drift = np.abs(proportion - np.atleast_1d(curve(k[start - 1 :] / n)))
        assert np.max(drift) <= 2.0 / math.sqrt(n)

    def test_infeasible_curve_rejected(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.0)))
        with pytest.raises(ContractError):
            generate_from_curve(curve, 100, self.density, seed=1)

    def test_narrow_spike_rejected(self):
        curve = parse_curve("f:0,0.5;0.50002,0.5;0.50003,0.9;0.50004,0.5;1,0.5")
        with pytest.raises(ContractError):
            generate_from_curve(curve, 100, self.density, seed=1)

    def test_oversized_n_refused_before_allocation(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
        largest = _MEMORY_BUDGET // simlab._row_bytes(1, 0, 0)
        tracemalloc.start()
        try:
            for n in (largest + 1, 10**11):
                with pytest.raises(ContractError, match=f"largest n is {largest}"):
                    generate_from_curve(curve, n, self.density, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_deterministic_in_seed(self):
        curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
        a = generate_from_curve(curve, 300, self.density, seed=8)
        b = generate_from_curve(curve, 300, self.density, seed=8)
        assert np.array_equal(a.values, b.values)


class TestCountRatio:
    def test_bounded_mean(self):
        ratios = simulate_count_ratio(n=100, rho=0.5, trials=4000, seed=19)
        se = ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert ratios.mean() <= 2.0 + 4.0 * se

    def test_interleaving_preserves_null_count(self):
        ratios = simulate_count_ratio(n=60, rho=0.3, trials=500, seed=2, n_nonnull=20)
        assert np.all(ratios >= (1.0 + 40.0) / (1.0 + 40.0))
        assert np.all(ratios <= 41.0)

    def test_oversized_draw_refused_before_allocation(self):
        largest = _MEMORY_BUDGET // simlab._RATIO_CELL_BYTES
        assert largest >= 2_000_000
        tracemalloc.start()
        try:
            for n, trials in ((largest + 1, 1), (1000, largest // 1000 + 1), (10**9, 10**9)):
                with pytest.raises(ContractError, match=f"largest trials x n is {largest}"):
                    simulate_count_ratio(n, 0.5, trials, 1, n_nonnull=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_parameter_domains(self):
        with pytest.raises(DomainError):
            simulate_count_ratio(0, 0.5, 10, 1)
        with pytest.raises(DomainError):
            simulate_count_ratio(10, 1.0, 10, 1)
        with pytest.raises(DomainError):
            simulate_count_ratio(10, 0.5, 10, 1, n_nonnull=10)


class TestPlusRuleAgainstDirectForm:
    def test_sequence_reproduces_direct_formula(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        pvals = rng.random(200)
        mask = rng.random(200) < 0.5
        trial = OrderedPValues(pvals, null_mask=mask)
        method = Method("plus", seq_step(3.0), rule=Rule.PLUS, c=3.0)
        frame = run_trial(trial, [method], [0.25])
        c = 3.0
        best = 0
        for k in range(1, 201):
            hits = sum(1 for p in pvals[:k] if p > 1.0 - 1.0 / c)
            if (c + c * hits) / (1.0 + k) <= 0.25:
                best = k
        assert frame.stats[0, 0, 0, STAT_KHAT] == best

    @pytest.mark.parametrize("c", [-1.0, math.nan])
    def test_bad_constant_is_refused_as_in_the_one_list_test(self, c):
        # The block engine once scored these constants: c = -1 gave a
        # mean power of 0.667 and c = NaN a power of 0.0.
        method = Method("S+", seq_step(2.0), "plus", c=c)
        config = SimConfig(n=50, n_nonnull=5, trials=3, seed=1)
        with pytest.raises(DomainError, match="plus-rule constant"):
            run_simulation(config, [method], include_paths=False)
        with pytest.raises(DomainError, match="plus-rule constant"):
            run_accumulation_test([0.1, 0.5, 0.9], seq_step(2.0), 0.2, "plus", c)
