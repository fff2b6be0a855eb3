"""Acceptance suite: fourteen gating criteria, one visible pass/fail line each.

Each criterion records a single line, then asserts.  The lines are
printed together in pytest's terminal summary, so the run log always
shows the full scorecard.
Monte Carlo criteria use fixed seeds, so every number below is
reproducible bit for bit.
"""

import itertools
import math
import time

import numpy as np
import pytest

from accumtest import (
    AlternativeDensity,
    Method,
    SignalCurve,
    SimConfig,
    cli,
    collect_trial_frames,
    default_methods,
    envelope_exit_fraction,
    forward_stop,
    generate_from_curve,
    hinge_exp,
    nonnull_mean,
    permutation_pvalue,
    piecewise_constant,
    run_trial,
    seq_step,
    simulate_count_ratio,
    step_optimality_gap,
    truncated_integral,
    unit_integral,
    Sign,
    asymptotic_power,
)
from accumtest.simlab import STAT_FDP, STAT_FALSE_POS, STAT_KHAT, STAT_POWER

import oracles


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


@pytest.fixture(scope="session")
def shared_trials():
    """500 ranked trials at n=1000 with 100 signals, ordering and test
    strength both 3, levels 0.1 and 0.2; reused by criteria 2, 3, 4,
    10, and 11."""
    start = time.perf_counter()
    config = SimConfig(
        n=1000,
        n_nonnull=100,
        mu1=3.0,
        mu2=3.0,
        alpha_grid=(0.1, 0.2),
        trials=500,
        seed=2030,
    )
    frames = collect_trial_frames(config, default_methods(2.0), workers=1)
    stats = np.concatenate([frame.stats for frame in frames])
    return {
        "names": list(frames[0].method_names),
        "alphas": (0.1, 0.2),
        "stats": stats,
        "build_seconds": time.perf_counter() - start,
    }


def modified_fdp_series(stats, method_index, alpha_index, denominator_c):
    k = stats[:, method_index, alpha_index, STAT_KHAT]
    false_pos = stats[:, method_index, alpha_index, STAT_FALSE_POS]
    return false_pos / (denominator_c + k)


def test_criterion_01_unit_normalization(scorecard):
    start = time.perf_counter()
    specs = [forward_stop()]
    specs += [seq_step(c) for c in (2.0, 3.0, 5.0)]
    specs += [hinge_exp(c) for c in (2.0, 3.0, 5.0)]
    worst = max(abs(unit_integral(spec) - 1.0) for spec in specs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    scorecard(1, ok, f"7 unit integrals within {worst:.2e} of 1 in {elapsed:.2f}s")
    assert ok


def test_criterion_02_bounded_step_error_control(shared_trials, scorecard):
    start = time.perf_counter()
    names, stats = shared_trials["names"], shared_trials["stats"]
    step_i = names.index("SeqStep")
    plus_i = names.index("SeqStep+")
    margins = []
    for alpha_index, alpha in enumerate(shared_trials["alphas"]):
        plain_mean, plain_se = mean_and_se(
            modified_fdp_series(stats, step_i, alpha_index, 2.0 / alpha)
        )
        plus_mean, plus_se = mean_and_se(stats[:, plus_i, alpha_index, STAT_FDP])
        margins.append(alpha + 4.0 * plain_se - plain_mean)
        margins.append(alpha + 4.0 * plus_se - plus_mean)
    elapsed = shared_trials["build_seconds"] + time.perf_counter() - start
    ok = min(margins) >= 0.0 and elapsed < 120.0
    scorecard(
        2,
        ok,
        "SeqStep modified FDP and SeqStep+ FDP under target at both levels, "
        f"500 trials, worst margin {min(margins):.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_hinge_error_control(shared_trials, scorecard):
    start = time.perf_counter()
    names, stats = shared_trials["names"], shared_trials["stats"]
    hinge_i = names.index("HingeExp")
    margins = []
    for alpha_index, alpha in enumerate(shared_trials["alphas"]):
        mean, se = mean_and_se(
            modified_fdp_series(stats, hinge_i, alpha_index, 4.0 / alpha)
        )
        margins.append(alpha + 4.0 * se - mean)
    elapsed = time.perf_counter() - start
    ok = min(margins) >= 0.0 and elapsed < 60.0
    scorecard(
        3,
        ok,
        "HingeExp modified FDP (doubled denominator constant) under target, "
        f"worst margin {min(margins):.4f}",
    )
    assert ok


def test_criterion_04_unbounded_truncation_bound(shared_trials, scorecard):
    names, stats = shared_trials["names"], shared_trials["stats"]
    fs_i = names.index("ForwardStop")
    inflation = 1.0 / truncated_integral(forward_stop(), 2.0)
    margins = []
    for alpha_index, alpha in enumerate(shared_trials["alphas"]):
        mean, se = mean_and_se(
            modified_fdp_series(stats, fs_i, alpha_index, 2.0 / alpha)
        )
        margins.append(alpha * inflation + 4.0 * se - mean)
    ok = min(margins) >= 0.0
    scorecard(
        4,
        ok,
        f"ForwardStop modified FDP under inflated target x{inflation:.4f}, "
        f"worst margin {min(margins):.4f}",
    )
    assert ok


def test_criterion_05_limiting_power_convergence(scorecard):
    start = time.perf_counter()
    curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
    density = AlternativeDensity.beta(1.0, 2.0)
    mu = nonnull_mean(seq_step(2.0), density)
    assert abs(mu - 0.5) <= 1e-9
    target = asymptotic_power(curve, 0.8, 0.5)
    methods = [Method("step", seq_step(2.0))]
    powers = []
    for trial in range(50):
        pvals = generate_from_curve(curve, 20_000, density, seed=9000 + trial)
        frame = run_trial(pvals, methods, [0.8])
        powers.append(frame.stats[0, 0, 0, STAT_POWER])
    gap = abs(float(np.mean(powers)) - target)
    elapsed = time.perf_counter() - start
    ok = gap <= 0.05 and elapsed < 120.0
    scorecard(
        5,
        ok,
        f"empirical power {np.mean(powers):.4f} within {gap:.4f} of limit "
        f"{target:.4f} at n=20000 ({elapsed:.1f}s)",
    )
    assert ok


def random_bounded_spec(rng):
    while True:
        cuts = np.sort(rng.uniform(0.05, 0.95, size=rng.integers(2, 5)))
        edges = np.concatenate([[0.0], cuts, [1.0]])
        levels = rng.uniform(0.0, 2.0, size=len(edges) - 1)
        total = float(np.sum(levels * np.diff(edges)))
        if total < 0.3:
            continue
        levels = levels / total
        if np.max(levels) <= 2.0:
            return piecewise_constant(
                tuple(
                    (float(edges[i]), float(edges[i + 1]), float(levels[i]))
                    for i in range(len(levels))
                )
            )


def measure_of_difference_from_step(spec, c=2.0):
    threshold = 1.0 - 1.0 / c
    total = 0.0
    for lo, hi, level in spec.pieces:
        for a, b in ((lo, min(hi, threshold)), (max(lo, threshold), hi)):
            if b <= a:
                continue
            step_level = 0.0 if b <= threshold else c
            if abs(level - step_level) > 1e-12:
                total += b - a
    return total


def test_criterion_06_step_function_optimality(scorecard):
    start = time.perf_counter()
    density = AlternativeDensity.beta(1.0, 2.0)
    rng = np.random.default_rng(606)
    gaps, measures = [], []
    for _ in range(20):
        spec = random_bounded_spec(rng)
        gaps.append(step_optimality_gap(spec, 2.0, density))
        measures.append(measure_of_difference_from_step(spec))
    elapsed = time.perf_counter() - start
    nonnegative = all(g >= -1e-9 for g in gaps)
    strict = all(g > 1e-6 for g, m in zip(gaps, measures) if m >= 0.01)
    ok = nonnegative and strict and elapsed < 5.0
    scorecard(
        6,
        ok,
        f"20 random bounded specs: min gap {min(gaps):.3e} over the step "
        f"function, all positive off the step ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_07_count_ratio_supermartingale(scorecard):
    start = time.perf_counter()
    ratios = simulate_count_ratio(n=200, rho=0.5, trials=10_000, seed=404)
    mean, se = mean_and_se(ratios)
    elapsed = time.perf_counter() - start
    ok = mean <= 2.0 + 4.0 * se and elapsed < 30.0
    scorecard(
        7,
        ok,
        f"count-ratio mean {mean:.4f} <= 2 + 4se = {2.0 + 4.0 * se:.4f} "
        f"over 10000 replicates ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_08_envelope_exit_fraction(scorecard):
    fraction = envelope_exit_fraction(
        sigma2=1.0, b=0.0, epsilon=0.05, t_max=1000, n_walks=10_000, seed=505
    )
    se = math.sqrt(max(fraction * (1.0 - fraction), 1e-12) / 10_000)
    ok = fraction <= 0.05 + 4.0 * se
    scorecard(
        8,
        ok,
        f"envelope exit fraction {fraction:.4f} <= 0.05 + 4se over 10000 "
        "Gaussian walks of length 1000",
    )
    assert ok


def test_criterion_09_permutation_enumeration_oracle(scorecard):
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=271))
    pool = rng.normal(size=6)
    got = permutation_pvalue(pool, 3, 3, Sign.PLUS)
    want = float(oracles.permutation_rank_over_orderings(list(pool), 3, True))
    elapsed = time.perf_counter() - start
    ok = got == want and elapsed < 1.0
    scorecard(
        9,
        ok,
        f"20-partition rank {got:.6f} equals the 720-ordering enumeration "
        f"exactly ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_10_power_ordering(shared_trials, scorecard):
    names, stats = shared_trials["names"], shared_trials["stats"]
    alpha_index = shared_trials["alphas"].index(0.2)
    first_50 = stats[:50]
    hinge_i = names.index("HingeExp")
    step_i = names.index("SeqStep")
    plus_i = names.index("SeqStep+")
    d_top = (
        first_50[:, hinge_i, alpha_index, STAT_POWER]
        - first_50[:, step_i, alpha_index, STAT_POWER]
    )
    d_next = (
        first_50[:, step_i, alpha_index, STAT_POWER]
        - first_50[:, plus_i, alpha_index, STAT_POWER]
    )
    top_mean, top_se = mean_and_se(d_top)
    next_mean, next_se = mean_and_se(d_next)
    ok = top_mean >= -2.0 * top_se and next_mean >= -2.0 * next_se
    scorecard(
        10,
        ok,
        "mean power order HingeExp >= SeqStep >= SeqStep+ at level 0.2 "
        f"(paired diffs {top_mean:+.4f}, {next_mean:+.4f}, 50 trials)",
    )
    assert ok


def test_criterion_11_error_control_scales_with_n(shared_trials, scorecard):
    names, stats = shared_trials["names"], shared_trials["stats"]
    alpha_index = shared_trials["alphas"].index(0.2)
    fs_i = names.index("ForwardStop")
    small_mean, small_se = mean_and_se(stats[:, fs_i, alpha_index, STAT_FDP])
    big_config = SimConfig(
        n=10_000,
        n_nonnull=1000,
        mu1=3.0,
        mu2=3.0,
        alpha_grid=(0.2,),
        trials=200,
        seed=78,
    )
    frames = collect_trial_frames(
        big_config, [Method("ForwardStop", forward_stop())], workers=1
    )
    big_mean, big_se = mean_and_se(
        np.concatenate([frame.stats[:, 0, 0, STAT_FDP] for frame in frames])
    )
    combined = math.hypot(small_se, big_se)
    ok = big_mean <= 0.2 + 4.0 * big_se and big_mean <= small_mean + 2.0 * combined
    scorecard(
        11,
        ok,
        f"ForwardStop FDR {big_mean:.4f} at n=10000 stays under target and "
        f"under the n=1000 value {small_mean:.4f} + 2se",
    )
    assert ok


def test_criterion_12_byte_identical_determinism(tmp_path, scorecard):
    def run(out_prefix, extra=()):
        argv = ["simulate", "--seed", "7", "--out", str(tmp_path / out_prefix)]
        argv += list(extra)
        assert cli.main(argv) == 0
        summary = (tmp_path / f"{out_prefix}_summary.csv").read_bytes()
        paths = (tmp_path / f"{out_prefix}_paths.csv").read_bytes()
        return summary, paths

    first = run("a")
    second = run("b")
    serial = run("w1", ["--workers", "1"])
    parallel = run("w8", ["--workers", "8"])
    ok = first == second and serial == parallel
    scorecard(
        12,
        ok,
        "simulate --seed 7 reruns and worker counts 1 vs 8 produce "
        "byte-identical tables",
    )
    assert ok


# Plantings of generate_from_curve for the exact step-family criteria:
# criterion 5's curve, a flat 20 % of non-nulls (an ordering with no
# information), and all non-nulls first, thinning to 45 %.
STEP_CURVES = (
    ((0.0, 0.5), (1.0, 0.3)),
    ((0.0, 0.2), (1.0, 0.2)),
    ((0.0, 1.0), (0.2, 1.0), (0.4, 0.7), (1.0, 0.45)),
)


def test_criterion_13_exact_step_family_error_control(scorecard):
    start = time.perf_counter()
    ratios = {False: 0.0, True: 0.0}
    # Non-null p-values Beta(1, 2), Beta(0.3, 3) and uniform.
    betas = ((1.0, 2.0), (0.3, 3.0), (1.0, 1.0))
    for knots, n in itertools.product(STEP_CURVES, (50, 200)):
        planting = generate_from_curve(SignalCurve(knots), n, AlternativeDensity.uniform(), 0)
        mask = planting.null_mask
        for (a, b), c in itertools.product(betas, (2.0, 2.5, 3.0)):
            tail = float(oracles.beta_tail_mp(a, b)(1.0 / c))
            for alpha, plus in itertools.product((0.05, 0.1, 0.2, 0.3), (False, True)):
                law = oracles.step_cutoff_law(mask, tail, c, alpha, plus)
                _, fdr, mfdr = oracles.step_risks(law, mask, c / alpha)
                # SeqStep bounds the modified FDR, SeqStep+ the FDR.
                ratios[plus] = max(ratios[plus], (fdr if plus else mfdr) / alpha)
    elapsed = time.perf_counter() - start
    ok = max(ratios.values()) <= 1.0 and elapsed < 30.0
    scorecard(
        13,
        ok,
        f"exact SeqStep mFDR <= {ratios[False]:.3f} alpha and SeqStep+ FDR <= "
        f"{ratios[True]:.3f} alpha over 216 plantings and levels ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_14_step_family_trials_match_exact_law(scorecard):
    start = time.perf_counter()
    curve = SignalCurve(((0.0, 0.5), (1.0, 0.3)))
    density = AlternativeDensity.beta(1.0, 2.0)
    methods = [
        Method("SeqStep", seq_step(2.0)),
        Method("SeqStep+", seq_step(2.0), rule="plus", c=2.0),
    ]
    alphas, trials = (0.5, 0.8), 1000
    planted = [generate_from_curve(curve, 500, density, 31_000 + t) for t in range(trials)]
    stats = np.concatenate([run_trial(pvals, methods, alphas).stats for pvals in planted])
    mask = planted[0].null_mask  # the planting does not depend on the seed
    worst = 0.0
    for m, plus in enumerate((False, True)):
        for a, alpha in enumerate(alphas):
            # P(p > 1/2) = 1/4 for Beta(1, 2).
            law = oracles.step_cutoff_law(mask, 0.25, 2.0, alpha, plus)
            power, fdr, _ = oracles.step_risks(law, mask, 2.0 / alpha)
            for stat, exact in ((STAT_POWER, power), (STAT_FDP, fdr)):
                mean, se = mean_and_se(stats[:, m, a, stat])
                worst = max(worst, abs(mean - exact) / se)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 30.0
    scorecard(
        14,
        ok,
        f"SeqStep and SeqStep+ power and FDP of {trials} trials at n=500 within "
        f"{worst:.2f} SE of exact ({elapsed:.1f}s)",
    )
    assert ok
