"""Adaptive Simpson integration against closed forms and against the
recursive scalar reference in ``oracles``, the library's closed-form
integrals against that reference, and the survival-form means against
high-precision values within a bound on integrand points."""

import math

import numpy as np
import pytest

from accumtest import (
    AlternativeDensity,
    accumfn,
    evaluate,
    forward_stop,
    hinge_exp,
    nonnull_mean,
    piecewise_constant,
    seq_step,
    step_optimality_gap,
    truncated_integral,
    unit_integral,
)
from accumtest.quadrature import _MAX_DEPTH, integrate_with_splits

import oracles


def test_polynomial_is_exact():
    got = integrate_with_splits(lambda t: 3.0 * t * t, 0.0, 1.0)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_transcendental_integrand():
    got = integrate_with_splits(np.exp, 0.0, 2.0)
    assert got == pytest.approx(math.e**2 - 1.0, abs=1e-9)


def test_split_points_handle_jumps():
    step = lambda t: np.where(t > 0.5, 2.0, 0.0)
    got = integrate_with_splits(step, 0.0, 1.0, splits=(0.5,))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_log_singularity_via_splits():
    # integral of -log(1 - t) over [0, 1] equals 1
    f = lambda t: np.where(t < 1.0, -np.log1p(-t), 0.0)
    got = integrate_with_splits(f, 0.0, 1.0 - 1e-15, splits=(0.5, 0.9, 0.99, 0.999))
    assert got == pytest.approx(1.0, abs=1e-6)


def test_reversed_interval_is_zero_width():
    assert integrate_with_splits(np.sin, 1.0, 1.0) == 0.0


def test_reversed_limits_rejected():
    with pytest.raises(ValueError):
        integrate_with_splits(np.sin, 1.0, 0.0)


def test_depth_cap_bounds_integrand_calls():
    # A jump off the split points never converges: the interval holding
    # it is halved at every level down to the cap.
    calls = []
    jump = lambda t: np.where(t > 1.0 / 3.0, 1.0, 0.0)
    got = integrate_with_splits(lambda t: calls.append(t.size) or jump(t), 0.0, 1.0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert len(calls) == _MAX_DEPTH + 2
    assert max(calls) <= 4


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "f,want",
    [
        (lambda t: np.full_like(t, np.nan), "nan"),
        (lambda t: np.where(t < 0.5, np.nan, 1.0), "nan"),
        (lambda t: np.where(t == 0.0, np.inf, 1.0), "nan"),
    ],
    ids=["nan", "half-nan", "inf-at-edge"],
)
def test_nonfinite_values_are_accepted_at_once(f, want):
    calls = []
    got = integrate_with_splits(lambda t: calls.append(t.size) or f(t), 0.0, 1.0)
    assert str(got) == want
    assert sum(calls) < 1000


def recorded(integrate, log):
    """A stand-in for ``integrate_with_splits`` that runs ``integrate``
    and logs each integral's point set, value and integrand call count."""

    def run(f, a, b, splits=(), tol=accumfn.QUAD_TOL):
        batches = []

        def counted(t):
            # A runaway refinement fails here instead of exhausting memory.
            assert t.size <= 100_000
            batches.append(np.array(t, dtype=float))
            return f(t)

        value = integrate(counted, a, b, splits, tol)
        points = set(np.concatenate(batches).tolist()) if batches else set()
        log.append((points, value, len(batches)))
        return value

    return run


def reference(f, a, b, splits, tol):
    """The recursive scalar Simpson, fed the array integrand one point
    at a time."""
    return oracles.simpson_with_splits(
        lambda t: float(f(np.array([t]))[0]), a, b, splits, tol
    )


def test_far_shifted_density_gives_finite_mean(monkeypatch):
    # p lies below 1e-200 almost surely, so P(p > 1 - exp(-s)) is 1 at
    # s = 0 and rounds to 0 beyond: E[h(p)] is below 1e-12, and only the
    # interval at s = 0 refines, down to the depth cap.
    log = []
    monkeypatch.setattr(
        accumfn, "integrate_with_splits", recorded(integrate_with_splits, log)
    )
    density = AlternativeDensity.two_sided_z(1000.0)
    assert nonnull_mean(forward_stop(), density) == pytest.approx(0.0, abs=1e-12)
    assert log[0][2] <= _MAX_DEPTH + 2


# Integrand points one nonnull_mean call may evaluate.
POINT_BUDGET = 20_000


def counted_points(compute, monkeypatch):
    """The value of ``compute()`` and the integrand points its quadrature
    calls evaluate."""
    log = []
    monkeypatch.setattr(
        accumfn, "integrate_with_splits", recorded(integrate_with_splits, log)
    )
    return compute(), sum(len(points) for points, _, _ in log)


# (spec, density, high-precision mean) for ForwardStop and HingeExp.
MEAN_ORACLES = [
    # psi(1.05) - psi(0.05) = 1 / 0.05.
    pytest.param(
        forward_stop(), AlternativeDensity.beta(1.0, 0.05), 20.0, id="fs-beta-pole-20"
    ),
    # 3**(1 - b) / b with b = 0.05, from mpmath.
    pytest.param(
        hinge_exp(3.0),
        AlternativeDensity.beta(1.0, 0.05),
        56.7930493584096,
        id="he-3-beta-1-0.05",
    ),
    pytest.param(
        hinge_exp(1.5),
        AlternativeDensity.beta(2.0, 0.5),
        float(oracles.survival_mean_mp(1.5, oracles.beta_tail_mp(2.0, 0.5))),
        id="he-1.5-beta-2-0.5",
    ),
    pytest.param(
        forward_stop(),
        AlternativeDensity.two_sided_z(2.0),
        float(oracles.survival_mean_mp(1, oracles.z_tail_mp(2.0))),
        id="fs-z-2",
    ),
]


def forward_stop_cdf_mp(t):
    """int_0^t -log(1 - x) dx = t + (1 - t) log(1 - t)."""
    t = oracles.mp.mpf(t)
    return t + (1 - t) * oracles.mp.log(1 - t)


# A density with a kink at 0.2: the sum of level times the integral of h
# over each piece.
MEAN_ORACLES.append(
    pytest.param(
        forward_stop(),
        AlternativeDensity.piecewise([(0.0, 0.2, 3.0), (0.2, 1.0, 0.5)]),
        float(3 * forward_stop_cdf_mp(0.2) + 0.5 * (1 - forward_stop_cdf_mp(0.2))),
        id="fs-piecewise",
    )
)
MEAN_ORACLES += [
    pytest.param(
        forward_stop(),
        AlternativeDensity.beta(a, b),
        float(oracles.forward_stop_beta_mean_mp(a, b)),
        id=f"fs-beta-{a:g}-{b:g}",
    )
    for a in (0.3, 0.5, 1.0, 2.0)
    for b in (1e-3, 0.05, 0.5, 1.0, 4.0)
]


@pytest.mark.parametrize("spec,density,want", MEAN_ORACLES)
def test_survival_mean_matches_oracle(spec, density, want, monkeypatch):
    got, points = counted_points(lambda: nonnull_mean(spec, density), monkeypatch)
    assert got == pytest.approx(want, abs=1e-9)
    assert points <= POINT_BUDGET


PIECES = [(0.0, 0.3, 0.5), (0.3, 0.8, 1.1), (0.8, 1.0, 1.5)]
SPECS = {
    "forwardstop": forward_stop(),
    "seqstep-2": seq_step(2.0),
    "seqstep-3": seq_step(3.0),
    "hingeexp-2": hinge_exp(2.0),
    "hingeexp-5": hinge_exp(5.0),
    "piecewise": piecewise_constant(PIECES),
    "piecewise-falling": piecewise_constant([(0.0, 0.5, 1.6), (0.5, 1.0, 0.4)]),
}
STEP_DENSITY = AlternativeDensity.piecewise([(0.0, 0.2, 3.0), (0.2, 1.0, 0.5)])
# Each density with specs of every family, poles at 0 and at 1 included.
NONNULL_CASES = [
    ("uniform", AlternativeDensity.uniform(), "forwardstop"),
    ("uniform", AlternativeDensity.uniform(), "piecewise"),
    ("z-2", AlternativeDensity.two_sided_z(2.0), "forwardstop"),
    ("z-3", AlternativeDensity.two_sided_z(3.0), "hingeexp-2"),
    ("z-8", AlternativeDensity.two_sided_z(8.0), "seqstep-2"),
    ("z-8", AlternativeDensity.two_sided_z(8.0), "forwardstop"),
    ("beta-0.5-2", AlternativeDensity.beta(0.5, 2.0), "forwardstop"),
    ("beta-0.5-2", AlternativeDensity.beta(0.5, 2.0), "seqstep-2"),
    ("beta-2-0.5", AlternativeDensity.beta(2.0, 0.5), "piecewise-falling"),
    ("beta-2-0.5", AlternativeDensity.beta(2.0, 0.5), "forwardstop"),
    ("beta-2-0.5", AlternativeDensity.beta(2.0, 0.5), "hingeexp-2"),
    ("beta-1-0.05", AlternativeDensity.beta(1.0, 0.05), "forwardstop"),
    ("beta-1-0.05", AlternativeDensity.beta(1.0, 0.05), "hingeexp-2"),
    ("beta-1-2", AlternativeDensity.beta(1.0, 2.0), "hingeexp-2"),
    ("beta-1-2", AlternativeDensity.beta(1.0, 2.0), "piecewise"),
    ("piecewise", STEP_DENSITY, "hingeexp-2"),
    ("piecewise", STEP_DENSITY, "seqstep-3"),
]


@pytest.mark.parametrize(
    "density,name",
    [pytest.param(d, n, id=f"{n}-{label}") for label, d, n in NONNULL_CASES],
)
def test_nonnull_mean_point_budget(density, name, monkeypatch):
    _, points = counted_points(lambda: nonnull_mean(SPECS[name], density), monkeypatch)
    assert points <= POINT_BUDGET


GAP_CASES = [
    ("piecewise-beta-1-2", "piecewise", 2.0, AlternativeDensity.beta(1.0, 2.0)),
    ("seqstep-3-piecewise", "seqstep-3", 3.0, STEP_DENSITY),
    ("seqstep-2-uniform", "seqstep-2", 2.0, AlternativeDensity.uniform()),
]


def step_edges(spec):
    return [hi for _, hi, _ in spec.steps[:-1]]


def h_of(spec):
    return lambda t: evaluate(spec, t)


def capped(spec, cap):
    """min(h, cap) on [0, 1], split where h is not smooth: at the step
    edges, or at the hinge and where h crosses the cap, 1 - exp(-cap/C)/C
    (C = 1 for ForwardStop)."""
    if spec.bounded:
        splits = step_edges(spec)
    else:
        c = spec.c_param or 1.0
        splits = [1.0 - 1.0 / c, 1.0 - math.exp(-cap / c) / c]
    return (lambda t: np.minimum(evaluate(spec, t), cap)), 0.0, 1.0, splits, 0.0


def weighted(h, splits, density):
    """h * pdf for a step function h, swept to 1e-12 short of a pole of
    the density; h is constant beyond, so its mass there is exact."""
    lo = 1e-12 if math.isinf(density.pdf(0.0)) else 0.0
    hi = 1.0 - 1e-12 if math.isinf(density.pdf(1.0)) else 1.0
    ends = h(np.array([0.0, 1.0]))
    tail = ends[0] * density.cdf(lo) + ends[1] * (1.0 - density.cdf(hi))
    f = lambda t: h(t) * density.pdf(t)
    return f, lo, hi, [*splits, *density.kinks()], tail


def gap_integrand(spec, c, density):
    """(h - h0) * pdf, with h0 the step of height ``c``."""
    step = seq_step(c)
    h = lambda t: evaluate(spec, t) - evaluate(step, t)
    return weighted(h, step_edges(spec) + step_edges(step), density)


# Each case is the library call and, where the library now has a closed
# form, the integrand it replaces as (f, a, b, splits, tail).
CASES = [
    pytest.param(
        lambda spec=spec: unit_integral(spec),
        (h_of(spec), 0.0, 1.0, step_edges(spec), 0.0) if spec.bounded else None,
        id=f"unit-{name}",
    )
    for name, spec in SPECS.items()
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], cap=cap: truncated_integral(spec, cap),
        capped(SPECS[name], cap),
        id=f"truncated-{name}-{cap:g}",
    )
    for name in ("forwardstop", "seqstep-2", "hingeexp-2", "piecewise")
    for cap in (1e-6, 1.0, 2.0, 60.0)
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], density=density: nonnull_mean(spec, density),
        weighted(h_of(SPECS[name]), step_edges(SPECS[name]), density)
        if SPECS[name].bounded
        else None,
        id=f"nonnull-{name}-{label}",
    )
    for label, density, name in NONNULL_CASES
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], c=c, density=density: step_optimality_gap(
            spec, c, density
        ),
        gap_integrand(SPECS[name], c, density),
        id=f"gap-{label}",
    )
    for label, name, c, density in GAP_CASES
]


@pytest.mark.parametrize("compute,direct", CASES)
def test_level_by_level_matches_recursive_reference(compute, direct, monkeypatch):
    """Same points, values within 1e-14, and at most one integrand call
    per refinement level plus the one for endpoints and midpoints.

    Where the library integrates by quadrature, both routines run inside
    it.  Where it has a closed form, both integrate the replaced
    integrand ``direct``, and the closed form makes no quadrature call
    and lies within 1e-12 of the reference."""
    got_log, want_log = [], []
    if direct is None:
        monkeypatch.setattr(
            accumfn, "integrate_with_splits", recorded(integrate_with_splits, got_log)
        )
        got = compute()
        monkeypatch.setattr(
            accumfn, "integrate_with_splits", recorded(reference, want_log)
        )
        want = compute()
    else:
        f, a, b, splits, tail = direct
        got = recorded(integrate_with_splits, got_log)(f, a, b, splits) + tail
        want = recorded(reference, want_log)(f, a, b, splits) + tail
        closed_log = []
        monkeypatch.setattr(
            accumfn, "integrate_with_splits", recorded(integrate_with_splits, closed_log)
        )
        assert compute() == pytest.approx(want, abs=1e-12)
        assert closed_log == []
    assert got == pytest.approx(want, abs=1e-14)
    assert len(got_log) == len(want_log) >= 1
    for (got_points, got_value, calls), (want_points, want_value, _) in zip(
        got_log, want_log
    ):
        assert got_points == want_points
        assert got_value == pytest.approx(want_value, abs=1e-14)
        assert calls <= _MAX_DEPTH + 2
