"""The numpy normal and Student-t kernels against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from accumtest import _tails

import oracles

# Relative-error bounds wherever the exact value is a normal float.
NDTR_BOUND = 1e-14
STDTR_BOUND = 2e-14
TINY = np.finfo(float).tiny

# Degrees of freedom across every method of the t kernel: both fractions
# (a = df/2 up to 15), the expansion past a = 15, non-integer values, and
# df = 1e6 where the tail is normal down to 1e-300.
STDTR_DF = (1.0, 1.5, 2.5, 4.2, 7.3, 13.7, 29.9, 30.1, 57.5, 230.25, 1000.5, 15000.0, 1e6)
STDTR_TAILS = (0.3, 0.01, 1e-5, 1e-20, 1e-100, 1e-300)


def stdtr_points():
    """(df, t) pairs: t at set tails, placed by scipy's inverse t, where
    |t| <= 1e4, at |t| = 1e4, on both sides of each crossover x = (a +
    1)/(a + 5/2) and of y = 0.3, and a few positive t."""
    df, t = [], []
    for d in STDTR_DF:
        for tail in STDTR_TAILS:
            value = float(special.stdtrit(d, tail))
            if abs(value) <= 1e4:
                df.append(d)
                t.append(value)
        a = d / 2
        for x in ((a + 1) / (a + 2.5), 0.7):
            for side in (1 - 1e-12, 1 + 1e-12):
                df.append(d)
                t.append(-math.sqrt(d * (1 - x * side) / (x * side)))
        df += [d, d]
        t += [-1e4, 1.7]
    return np.array(df), np.array(t)


def t_cdf_reference(df, t):
    tail = oracles.t_tail_quad_mp(df, abs(t))
    return float(tail if t < 0 else 1 - tail)


def relative_errors(got, want):
    normal = want >= TINY
    return np.abs(got[normal] - want[normal]) / want[normal], normal


def test_ndtr_relative_error():
    x = np.concatenate([np.linspace(-38.0, 38.0, 1521), [-0.67448975, 0.67448975, -32**0.5]])
    x = np.concatenate([x, np.nextafter(x, np.inf)])
    with mp.workdps(30):
        want = np.array([float(mp.ncdf(mp.mpf(v))) for v in x])
    got = _tails.ndtr(x)
    rel, normal = relative_errors(got, want)
    assert rel.max() < NDTR_BOUND
    # Below the normal range the result keeps its absolute accuracy.
    assert np.abs(got[~normal] - want[~normal]).max() <= NDTR_BOUND * TINY


def test_ndtr_special_values_and_shapes():
    got = _tails.ndtr(np.array([np.nan, -np.inf, np.inf, 0.0, -0.0, -40.0, 40.0, 1e300]))
    assert np.isnan(got[0])
    assert got[1:].tolist() == [0.0, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0]
    assert _tails.ndtr(np.zeros((2, 3))).shape == (2, 3)
    assert float(_tails.ndtr(-1.0)) == float(_tails.ndtr(np.array([-1.0]))[0])


def test_stdtr_relative_error():
    df, t = stdtr_points()
    with mp.workdps(30):
        want = np.array([t_cdf_reference(d, v) for d, v in zip(df, t)])
    got = _tails.stdtr(df, t)
    rel, normal = relative_errors(got, want)
    assert rel.max() < STDTR_BOUND
    assert want[normal].min() < 1e-299
    assert np.abs(got[~normal] - want[~normal]).max() <= STDTR_BOUND * TINY


def test_quadrature_oracle_matches_the_incomplete_beta():
    with mp.workdps(30):
        for d, s in [(1.0, 3.0), (7.3, 2.2), (29.9, 40.0), (1000.5, 5.0)]:
            quad = oracles.t_tail_quad_mp(d, s)
            beta = oracles.t_cdf_mp(-s, d)
            assert abs(quad / beta - 1) < mp.mpf(10) ** -25


def test_stdtr_special_values():
    got = _tails.stdtr(
        [0.0, -1.0, np.nan, 3.0, 3.0, 3.0, 3.0, np.inf, 3.0],
        [1.0, 1.0, 1.0, np.nan, -np.inf, np.inf, 0.0, -2.0, 2.0],
    )
    assert np.isnan(got[:4]).all()
    assert got[4:7].tolist() == [0.0, 1.0, 0.5]
    assert got[7] == _tails.ndtr(-2.0)
    assert got[8] == 1.0 - _tails.stdtr(3.0, -2.0)
    # Past the square of the float range the tail is x^a times a constant.
    assert _tails.stdtr(1.0, -1e200) == pytest.approx(1.0 / (math.pi * 1e200), rel=1e-12)


def test_bits_do_not_depend_on_the_other_elements():
    rng = np.random.default_rng(5)
    df = np.exp(rng.uniform(0.0, math.log(1e6), 600))
    t = -np.exp(rng.uniform(math.log(1e-3), math.log(1e4), 600))
    t[::7] *= -1
    df[::11] = np.nan
    together = _tails.stdtr(df, t)
    alone = np.array([_tails.stdtr(d, v) for d, v in zip(df, t)])
    assert together.tobytes() == alone.tobytes()
    order = rng.permutation(600)
    assert _tails.stdtr(df[order], t[order]).tobytes() == together[order].tobytes()
    x = rng.normal(scale=10.0, size=600)
    assert _tails.ndtr(x).tobytes() == np.array([_tails.ndtr(v) for v in x]).tobytes()
