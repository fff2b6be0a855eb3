"""Built-in self-checks runnable from the command line.

Each check re-derives a known quantity through an independent route,
most often a closed form, and compares it to the library's answer.
Everything is deterministic and the whole suite runs in a few seconds,
so it doubles as a quick install check.  Several checks integrate the
two_sided_z and beta densities, so the suite needs scipy, the
``accumtest[theory]`` extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import _ENGINES, accumfn, baselines, densities, dosage, power_theory, seqtest, simlab

__all__ = list(_ENGINES["validation"])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _close(actual: float, expected: float, tol: float, label: str) -> None:
    if not abs(actual - expected) <= tol:
        raise AssertionError(f"{label}: got {actual!r}, want {expected!r} +/- {tol}")


def check_normalization() -> None:
    specs = [accumfn.forward_stop()]
    for c in (2.0, 3.0, 5.0):
        specs.append(accumfn.seq_step(c))
        specs.append(accumfn.hinge_exp(c))
    for spec in specs:
        total = accumfn.unit_integral(spec)
        _close(total, 1.0, 1e-9, accumfn.format_spec(spec))


def check_truncated_tail() -> None:
    fs = accumfn.forward_stop()
    _close(accumfn.truncated_integral(fs, 1.0), 1.0 - math.exp(-1.0), 1e-9, "cap 1")
    _close(accumfn.truncated_integral(fs, 2.0), 1.0 - math.exp(-2.0), 1e-9, "cap 2")
    for cap in (0.5, 3.0):
        v = accumfn.truncated_integral(accumfn.hinge_exp(2.0), cap)
        if not 0.0 < v <= 1.0 + 1e-12:
            raise AssertionError(f"hinge truncation at {cap} out of range: {v}")


def check_cutoff_scan() -> None:
    rng = np.random.Generator(np.random.Philox(key=2024))
    # Sorted, so that each cutoff is an inner position: 3, 15 and 28.
    pvals = np.sort(rng.random(40))
    spec = accumfn.forward_stop()
    path = seqtest.estimated_fdp_path(pvals, spec)
    for alpha in (0.05, 0.2, 0.5):
        brute = 0
        for k in range(1, len(pvals) + 1):
            total = sum(-math.log(1.0 - p) for p in pvals[:k])
            if total / k <= alpha:
                brute = k
        if seqtest.select_cutoff(path, alpha) != brute:
            raise AssertionError(f"cutoff disagrees with loop at alpha={alpha}")


def check_path_identity() -> None:
    rng = np.random.Generator(np.random.Philox(key=7))
    pvals = rng.random(25)
    spec = accumfn.seq_step(2.0)
    path = seqtest.estimated_fdp_path(pvals, spec)
    for k in range(1, 26):
        manual = sum(2.0 * (p > 0.5) for p in pvals[:k]) / k
        _close(path[k - 1], manual, 1e-12, f"path at {k}")
    plus = seqtest.estimated_fdp_path_plus(pvals, spec, 2.0)
    for k in range(1, 26):
        manual = (2.0 + sum(2.0 * (p > 0.5) for p in pvals[:k])) / (1.0 + k)
        _close(plus[k - 1], manual, 1e-12, f"plus path at {k}")


def check_shift_grid() -> None:
    grid = 252
    values = np.arange(1, grid + 1) / grid
    shifted = seqtest.shift_discrete_pvalues(values, grid)
    target = np.arange(1, grid + 1) / (grid + 1)
    if not np.array_equal(shifted.values, target):
        raise AssertionError("shifted values left the k/(grid+1) lattice")


def check_step_up_rules() -> None:
    sel = baselines.bh_select([0.01, 0.02, 0.5], 0.05)
    if sel.count != 2 or set(sel.indices) != {0, 1}:
        raise AssertionError(f"expected 2 rejections, got {sel}")
    storey = baselines.storey_select([0.01, 0.2, 0.8, 0.95], 0.1, lam=0.9)
    bh = baselines.bh_select([0.01, 0.2, 0.8, 0.95], 0.1)
    if storey.count < bh.count:
        raise AssertionError("null-fraction adjustment lost rejections")


def check_threshold_exact() -> None:
    curve = power_theory.parse_curve("f:0,0.5;1,0.3")
    t = power_theory.asymptotic_threshold(curve, alpha=0.8, mu=0.5)
    # f(T) = (1 - alpha) / (1 - mu) solved in rationals on the float
    # inputs: 0.5 + 4.2e-16, as 0.8 and 0.3 are not exact in binary.
    alpha, mu, f0, f1 = (Fraction(x) for x in (0.8, 0.5, 0.5, 0.3))
    exact = (f0 - (1 - alpha) / (1 - mu)) / (f0 - f1)
    _close(t, float(exact), 4e-16, "threshold")
    power = power_theory.asymptotic_power(curve, alpha=0.8, mu=0.5)
    _close(power, 2.0 / 3.0, 1e-9, "limit power")
    fdp = power_theory.expected_fdp_curve(curve, 0.5, t)
    _close(fdp, 0.8, 1e-9, "on-path level")


def check_envelope_formula() -> None:
    level = math.sqrt(2.0 * math.log2(4.0 / 0.05))
    expected = level * 1.0 * math.sqrt(100.0 * math.log(101.0))
    got = power_theory.random_walk_envelope(1.0, 0.0, 0.05, 100.0)
    _close(got, expected, 1e-12, "envelope at t=100")


def check_step_gap() -> None:
    density = power_theory.AlternativeDensity.beta(1.0, 2.0)
    spec = accumfn.piecewise_constant([(0.0, 0.5, 0.4), (0.5, 1.0, 1.6)])
    gap = power_theory.step_optimality_gap(spec, 2.0, density)
    _close(gap, 0.2, 1e-6, "gap for the two-level function")
    step = accumfn.piecewise_constant([(0.0, 0.5, 0.0), (0.5, 1.0, 2.0)])
    gap0 = power_theory.step_optimality_gap(step, 2.0, density)
    _close(gap0, 0.0, 1e-6, "gap of the step against itself")


def check_welch_conventions() -> None:
    same = [1.0, 2.0, 3.0]
    _close(dosage.welch_p_two_sided(same, same), 1.0, 0.0, "identical groups")
    _close(
        dosage.welch_p_one_sided(same, same, dosage.Sign.PLUS),
        0.5,
        0.0,
        "identical groups, one-sided",
    )
    a = [5.0, 5.0, 5.0]
    b = [1.0, 1.0, 1.0]
    _close(dosage.welch_p_two_sided(a, b), 0.0, 0.0, "flat unequal groups")


def check_permutation_rank() -> None:
    pooled = [1.0, 2.0]
    got = dosage.permutation_pvalue(pooled, 1, 1, dosage.Sign.PLUS)
    _close(got, 0.5, 0.0, "two-point pool, favorable direction")
    got = dosage.permutation_pvalue(pooled, 1, 1, dosage.Sign.MINUS)
    _close(got, 1.0, 0.0, "two-point pool, unfavorable direction")


def check_child_streams() -> None:
    a = simlab.child_rng(7, 3).random(4)
    b = simlab.child_rng(7, 3).random(4)
    c = simlab.child_rng(7, 4).random(4)
    if not np.array_equal(a, b):
        raise AssertionError("same trial stream produced different draws")
    if np.array_equal(a, c):
        raise AssertionError("distinct trials shared a stream")


def check_curve_planting() -> None:
    curve = power_theory.SignalCurve(((0.0, 0.5), (1.0, 0.3)))
    n = 500
    pvals = simlab.generate_from_curve(
        curve, n, power_theory.AlternativeDensity.beta(1.0, 2.0), seed=11
    )
    counts = np.cumsum(~pvals.null_mask)
    k = np.arange(1, n + 1)
    target = k * np.atleast_1d(curve(k / n))
    worst = np.max(np.abs(counts - target))
    if worst > 0.5 + 1e-9:
        raise AssertionError(f"planted counts drift {worst} from the curve")


def check_metric_conventions() -> None:
    mask = np.array([False, True, False, True])
    if seqtest.fdp(0, mask) != 0.0 or seqtest.power_of_cutoff(0, mask) != 0.0:
        raise AssertionError("empty rejection set should score zero")
    _close(seqtest.fdp(3, mask), 1.0 / 3.0, 1e-15, "fdp at 3")
    _close(seqtest.mfdp(3, mask, 2.0), 1.0 / 5.0, 1e-15, "mfdp at 3")
    _close(seqtest.power_of_cutoff(3, mask), 1.0, 1e-15, "power at 3")


def check_spec_roundtrip() -> None:
    specs = [
        accumfn.forward_stop(),
        accumfn.seq_step(2.5),
        accumfn.hinge_exp(3.0),
        accumfn.piecewise_constant([(0.0, 0.25, 0.0), (0.25, 1.0, 4.0 / 3.0)]),
    ]
    for spec in specs:
        back = accumfn.parse_spec(accumfn.format_spec(spec))
        if back != spec:
            raise AssertionError(f"round-trip changed {accumfn.format_spec(spec)}")
    curve = power_theory.parse_curve("f:0,1;0.25,0.5;1,0.125")
    back = power_theory.parse_curve(power_theory.format_curve(curve))
    if back.knots != curve.knots:
        raise AssertionError("curve round-trip changed knots")


def check_density_mean() -> None:
    density = power_theory.AlternativeDensity.beta(1.0, 2.0)
    mu = accumfn.nonnull_mean(accumfn.seq_step(2.0), density)
    _close(mu, 0.5, 1e-9, "step mean under linear density")
    uniform = power_theory.AlternativeDensity.uniform()
    mu1 = accumfn.nonnull_mean(accumfn.forward_stop(), uniform)
    _close(mu1, 1.0, 1e-9, "uniform mean is the unit integral")
    # psi(1 + b) - psi(b) = 1/b, nearly all of it from the pole at p = 1.
    pole = power_theory.AlternativeDensity.beta(1.0, 0.05)
    mu2 = accumfn.nonnull_mean(accumfn.forward_stop(), pole)
    _close(mu2, 20.0, 1e-9, "forwardstop mean under beta(1, 0.05)")
    # No shift is the uniform density, reached through erfinv and ndtr.
    flat_z = power_theory.AlternativeDensity.two_sided_z(0.0)
    mu3 = accumfn.nonnull_mean(accumfn.forward_stop(), flat_z)
    _close(mu3, 1.0, 1e-9, "forwardstop mean under two_sided_z(0)")


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("normalization", check_normalization),
    ("truncated-tail", check_truncated_tail),
    ("cutoff-scan", check_cutoff_scan),
    ("path-identity", check_path_identity),
    ("shift-grid", check_shift_grid),
    ("step-up-rules", check_step_up_rules),
    ("threshold-exact", check_threshold_exact),
    ("envelope-formula", check_envelope_formula),
    ("step-gap", check_step_gap),
    ("welch-conventions", check_welch_conventions),
    ("permutation-rank", check_permutation_rank),
    ("child-streams", check_child_streams),
    ("curve-planting", check_curve_planting),
    ("metric-conventions", check_metric_conventions),
    ("spec-roundtrip", check_spec_roundtrip),
    ("density-mean", check_density_mean),
)


def run_suite(write=print) -> list[CheckResult]:
    """Run every check, emitting one pass/fail line per check.

    Raises ``ContractError`` before any check runs when scipy is not
    installed.
    """
    densities.scipy_special()
    results = []
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:
            results.append(CheckResult(name, False, str(exc)))
            write(f"FAIL {name}: {exc}")
        else:
            results.append(CheckResult(name, True))
            write(f"ok   {name}")
    failed = sum(1 for r in results if not r.passed)
    write(f"{len(results) - failed}/{len(results)} checks passed")
    return results
