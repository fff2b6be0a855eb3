"""Adaptive Simpson integration against closed forms and against the
recursive scalar reference in ``oracles``."""

import math

import numpy as np
import pytest

from accumtest import (
    AlternativeDensity,
    accumfn,
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_density_ends_refinement(monkeypatch):
    # cosh(mu * z) overflows and exp(-mu^2 / 2) underflows at this shift,
    # so the pdf is NaN near 0; each NaN interval is accepted at once.
    log = []
    monkeypatch.setattr(
        accumfn, "integrate_with_splits", recorded(integrate_with_splits, log)
    )
    density = AlternativeDensity.two_sided_z(1000.0)
    assert math.isnan(nonnull_mean(forward_stop(), density))
    assert log[0][2] <= _MAX_DEPTH + 2


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
# Each density with specs whose integrals the reference finishes within a
# second.  Near a pole of the density at 0 or 1, refinement runs to full
# depth where h does not vanish, and the reference can take minutes:
# nonnull_mean(piecewise, two_sided_z(8)) evaluates 10.9 million points.
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
    ("beta-1-2", AlternativeDensity.beta(1.0, 2.0), "hingeexp-2"),
    ("beta-1-2", AlternativeDensity.beta(1.0, 2.0), "piecewise"),
    ("piecewise", STEP_DENSITY, "hingeexp-2"),
    ("piecewise", STEP_DENSITY, "seqstep-3"),
]
GAP_CASES = [
    ("piecewise-beta-1-2", "piecewise", 2.0, AlternativeDensity.beta(1.0, 2.0)),
    ("seqstep-3-piecewise", "seqstep-3", 3.0, STEP_DENSITY),
    ("seqstep-2-uniform", "seqstep-2", 2.0, AlternativeDensity.uniform()),
]

CASES = [
    pytest.param(lambda spec=spec: unit_integral(spec), id=f"unit-{name}")
    for name, spec in SPECS.items()
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], cap=cap: truncated_integral(spec, cap),
        id=f"truncated-{name}-{cap:g}",
    )
    for name in ("forwardstop", "seqstep-2", "hingeexp-2", "piecewise")
    for cap in (1e-6, 1.0, 2.0, 60.0)
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], density=density: nonnull_mean(spec, density),
        id=f"nonnull-{name}-{label}",
    )
    for label, density, name in NONNULL_CASES
]
CASES += [
    pytest.param(
        lambda spec=SPECS[name], c=c, density=density: step_optimality_gap(
            spec, c, density
        ),
        id=f"gap-{label}",
    )
    for label, name, c, density in GAP_CASES
]


@pytest.mark.parametrize("compute", CASES)
def test_level_by_level_matches_recursive_reference(compute, monkeypatch):
    """Same points, values within 1e-14, and at most one integrand call
    per refinement level plus the one for endpoints and midpoints."""
    got_log, want_log = [], []
    monkeypatch.setattr(
        accumfn, "integrate_with_splits", recorded(integrate_with_splits, got_log)
    )
    got = compute()
    monkeypatch.setattr(accumfn, "integrate_with_splits", recorded(reference, want_log))
    want = compute()
    assert got == pytest.approx(want, abs=1e-14)
    assert len(got_log) == len(want_log) >= 1
    for (got_points, got_value, calls), (want_points, want_value, _) in zip(
        got_log, want_log
    ):
        assert got_points == want_points
        assert got_value == pytest.approx(want_value, abs=1e-14)
        assert calls <= _MAX_DEPTH + 2
