"""Independent reference implementations used by the tests.

Everything here is deliberately written without the package's own
numerics, using plain Python loops, exact ``fractions.Fraction``
statistics and high-precision ``mpmath`` arithmetic.  Tests compare
library output against these oracles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

mp.mp.dps = 30

# High-precision standard normal CDF values at x = 0, 1, 2, 3, 4,
# frozen from mpmath.ncdf at 25 significant digits.
NORMAL_CDF_REFERENCE = {
    0.0: 0.5,
    1.0: 0.8413447460685429485852325,
    2.0: 0.9772498680518207927997174,
    3.0: 0.9986501019683699054733482,
    4.0: 0.9999683287581668800787462,
}


def brute_fdp_path(pvals, h):
    """Cumulative average of h over prefixes, by explicit loop."""
    out = []
    total = 0.0
    for k, p in enumerate(pvals, start=1):
        total += h(p)
        out.append(total / k)
    return out


def brute_select(path, alpha):
    """Largest index (1-based) whose entry is at most alpha, else 0."""
    best = 0
    for k, value in enumerate(path, start=1):
        if value <= alpha:
            best = k
    return best


def forward_stop_h(p):
    return -math.log(1.0 - p) if p < 1.0 else math.inf


def seq_step_h(c):
    return lambda p: c if p > 1.0 - 1.0 / c else 0.0


def hinge_exp_h(c):
    def h(p):
        if p <= 1.0 - 1.0 / c:
            return 0.0
        if p >= 1.0:
            return math.inf
        return c * math.log(1.0 / (c * (1.0 - p)))

    return h


def stacked_mean_and_se(frames, stat):
    """Mean and standard error over trials of one stat, from all frames stacked.

    ``np.stack`` of every frame's (methods, levels, 4) stats, then the
    sample mean and ``std(ddof=1) / sqrt(trials)`` of the ``stat`` slice
    along the trial axis, with a standard error of 0 for one trial.
    """
    stack = np.stack([frame.stats for frame in frames])[:, :, :, stat]
    mean = stack.mean(axis=0)
    if stack.shape[0] == 1:
        return mean, np.zeros_like(mean)
    return mean, stack.std(axis=0, ddof=1) / np.sqrt(stack.shape[0])


def brute_bh(pvals, alpha):
    """Step-up rejection count by explicit scan over sorted p-values."""
    n = len(pvals)
    ordered = sorted(pvals)
    best = 0
    for k in range(1, n + 1):
        if ordered[k - 1] <= alpha * k / n:
            best = k
    return best


def t_cdf_mp(x, df):
    """P(T <= x) for Student t via the regularized incomplete beta."""
    x = mp.mpf(x)
    v = mp.mpf(df)
    if x == 0:
        return mp.mpf("0.5")
    tail = mp.betainc(v / 2, mp.mpf("0.5"), 0, v / (v + x * x), regularized=True) / 2
    return tail if x < 0 else 1 - tail


def t_tail_quad_mp(df, s):
    """P(T_df <= -s) for s > 0 by quadrature, for any df and tail depth.

    With a = df/2, x = df/(df + s^2) and w = x exp(-v) in the incomplete
    beta integral, B(a, 1/2) I_x(a, 1/2) = x^a int_0^inf exp(-a v) (1 -
    x exp(-v))^(-1/2) dv, whose integrand is smooth and positive; the
    breakpoints follow its scales 1/a and 1 - x.  Unlike ``t_cdf_mp``,
    this holds for large df with tails far below the float range.
    """
    df = mp.mpf(df)
    s = mp.mpf(s)
    a = df / 2
    x = df / (df + s * s)
    y = s * s / (df + s * s)
    integral = mp.quad(
        lambda v: mp.exp(-a * v) / mp.sqrt(1 - x * mp.exp(-v)),
        sorted({mp.mpf(0), y, 1 / a, 10 / a, 100 / a, 1000 / a}) + [mp.inf],
    )
    ratio = mp.gamma(a + mp.mpf("0.5")) / (mp.gamma(a) * mp.sqrt(mp.pi))
    return mp.power(x, a) * integral * ratio / 2


def _welch_parts_mp(a, b):
    a = [mp.mpf(repr(float(x))) for x in a]
    b = [mp.mpf(repr(float(x))) for x in b]
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1) if na > 1 else mp.mpf(0)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1) if nb > 1 else mp.mpf(0)
    se2 = va / na + vb / nb
    diff = ma - mb
    if se2 == 0:
        return diff, None, None
    t = diff / mp.sqrt(se2)
    den = mp.mpf(0)
    if na > 1:
        den += (va / na) ** 2 / (na - 1)
    if nb > 1:
        den += (vb / nb) ** 2 / (nb - 1)
    df = se2**2 / den
    return diff, t, df


def welch_two_sided_mp(a, b):
    diff, t, df = _welch_parts_mp(a, b)
    if t is None:
        return mp.mpf(1) if diff == 0 else mp.mpf(0)
    return 2 * t_cdf_mp(-abs(t), df)


def welch_one_sided_mp(a, b, plus):
    diff, t, df = _welch_parts_mp(a, b)
    if t is None:
        signed = diff if plus else -diff
        if signed > 0:
            return mp.mpf(0)
        if signed < 0:
            return mp.mpf(1)
        return mp.mpf("0.5")
    upper = 1 - t_cdf_mp(t, df)
    return upper if plus else 1 - upper


def _exact(x):
    """The decimal a float prints as, exactly (0.1 is 1/10, not the double)."""
    return Fraction(repr(float(x)))


def welch_key(a, b):
    """Exact Welch statistic of mean(a) - mean(b) as a hashable key.

    Returns ("zero",) when the means are equal, whatever the spread or
    df: t = 0 gives one-sided p = 1/2 and two-sided p = 1 for every df.
    Otherwise (sign, t^2, df) in ``Fraction`` arithmetic, with t^2 and df
    None when neither group has spread.  Groups of size one count as
    having zero variance.
    """
    a = [_exact(x) for x in a]
    b = [_exact(x) for x in b]
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    diff = ma - mb
    if diff == 0:
        return ("zero",)
    terms = []
    for values, mean, n in ((a, ma, na), (b, mb, nb)):
        if n > 1:
            var = sum((x - mean) ** 2 for x in values) / (n - 1)
            terms.append((var / n, n))
    se2 = sum(term for term, _ in terms)
    sign = 1 if diff > 0 else -1
    if se2 == 0:
        return (sign, None, None)
    df = se2**2 / sum(term**2 / (n - 1) for term, n in terms)
    return (sign, diff**2 / se2, df)


def _fraction_mp(q):
    return mp.mpf(q.numerator) / q.denominator


def _tail_mp(t2, df, cache):
    """P(T_df <= -sqrt(t2)) in high precision, memoised on (t2, df)."""
    if (t2, df) not in cache:
        cache[t2, df] = t_cdf_mp(-mp.sqrt(_fraction_mp(t2)), _fraction_mp(df))
    return cache[t2, df]


def one_sided_key(key, plus):
    """The key with its sign turned to the scored direction."""
    return key if key[0] == "zero" or plus else (-key[0],) + key[1:]


def two_sided_key(key):
    return key if key[0] == "zero" else key[1:]


def one_sided_p(key, cache):
    """p of a directed key: the upper tail where the sign is +1."""
    if key[0] == "zero":
        return mp.mpf("0.5")
    if key[1] is None:
        return mp.mpf(0 if key[0] > 0 else 1)
    tail = _tail_mp(key[1], key[2], cache)
    return tail if key[0] > 0 else 1 - tail


def two_sided_p(key, cache):
    if key[0] == "zero":
        return mp.mpf(1)
    if key[0] is None:
        return mp.mpf(0)
    return min(2 * _tail_mp(key[0], key[1], cache), mp.mpf(1))


def tie_aware_rank(keys, pvalue, cache):
    """#{labelings whose key equals labeling 0's or whose p <= its p} / count."""
    pvals = [pvalue(key, cache) for key in keys]
    hits = sum(1 for key, p in zip(keys, pvals) if key == keys[0] or p <= pvals[0])
    return Fraction(hits, len(keys))


def exact_permutation_ranks(values, m_c, plus):
    """Exact (p_final, p_perm_two) of a pooled sample, ties counted.

    Enumerates every choice of ``m_c`` pseudo-control values out of the
    pool (the first ``m_c`` entries are the true controls) and keys each
    relabeling by ``welch_key(pseudo-low, pseudo-control)``, read in the
    ``plus`` direction for the one-sided rank and without sign for the
    two-sided one.  A relabeling counts toward the rank of the true
    labeling when its key equals the true labeling's, or when its
    high-precision p-value is no larger.
    Returns ``Fraction`` ranks.
    """
    m = len(values)
    keys = []
    for chosen in itertools.combinations(range(m), m_c):
        control = [values[i] for i in chosen]
        low = [values[i] for i in range(m) if i not in chosen]
        keys.append(welch_key(low, control))
    cache = {}
    return (
        tie_aware_rank([one_sided_key(k, plus) for k in keys], one_sided_p, cache),
        tie_aware_rank([two_sided_key(k) for k in keys], two_sided_p, cache),
    )


def permutation_rank_over_orderings(values, m_c, plus):
    """Rank-based calibrated p-value over all orderings of the pool.

    Scores every permutation of the pooled values (first ``m_c``
    entries acting as pseudo-controls) by its exact Welch key, then
    returns #(orderings tying the true labels' key or with p <= their
    p) / (pool size)!.  The true labels are the identity ordering.
    """
    m = len(values)
    keys = []
    for perm in itertools.permutations(range(m)):
        control = [values[i] for i in perm[:m_c]]
        low = [values[i] for i in perm[m_c:]]
        keys.append(one_sided_key(welch_key(low, control), plus))
    return tie_aware_rank(keys, one_sided_p, {})


def survival_mean_mp(c, tail):
    """E[h(p)] for HingeExp(c), or ForwardStop when c = 1, in high
    precision: c times the integral of tail(exp(-s)) over s > log c,
    where tail(u) = P(p > 1 - u) takes and returns mpmath numbers."""
    c = mp.mpf(c)
    start = mp.log(c)
    return c * mp.quad(
        lambda s: tail(mp.exp(-s)), [start, start + 1, start + 40, mp.inf]
    )


def forward_stop_beta_mean_mp(a, b):
    """E[-log(1 - p)] for p ~ Beta(a, b): 1 - p is Beta(b, a), and
    E[-log X] = psi(a + b) - psi(b) for X ~ Beta(b, a)."""
    a, b = mp.mpf(float(a)), mp.mpf(float(b))
    return mp.digamma(a + b) - mp.digamma(b)


def beta_tail_mp(a, b):
    """u -> P(p > 1 - u) for p ~ Beta(a, b)."""
    a, b = mp.mpf(float(a)), mp.mpf(float(b))
    return lambda u: mp.betainc(b, a, 0, u, regularized=True)


def z_tail_mp(mu):
    """u -> P(p > 1 - u) for the two-sided z density: P(|Z| < z) with
    z = sqrt(2) erfinv(u) and Z normal with mean mu."""
    mu = mp.mpf(float(mu))

    def tail(u):
        z = mp.sqrt(2) * mp.erfinv(u)
        return mp.ncdf(z - mu) - mp.ncdf(-z - mu)

    return tail


def _power_mp(base, exponent):
    """base**exponent with 0**0 = 1 and 0**negative = +inf."""
    if base == 0:
        return mp.inf if exponent < 0 else mp.mpf(exponent == 0)
    return base**exponent


def beta_pdf_mp(a, b, t):
    """Beta(a, b) density at t in [0, 1], +inf where it is unbounded."""
    a, b, t = mp.mpf(float(a)), mp.mpf(float(b)), mp.mpf(float(t))
    return _power_mp(t, a - 1) * _power_mp(1 - t, b - 1) / mp.beta(a, b)


def beta_cdf_mp(a, b, t):
    """Beta(a, b) distribution function at t in [0, 1]."""
    a, b, t = mp.mpf(float(a)), mp.mpf(float(b)), mp.mpf(float(t))
    return mp.betainc(a, b, 0, t, regularized=True)


# The recursive scalar adaptive Simpson that the package's level-by-level
# quadrature replaced, kept as its reference: same accept rule, Richardson
# step, tolerance halving and depth cap, one integrand call per point.
SIMPSON_MAX_DEPTH = 48


def _simpson(fa, fm, fb, width):
    return width * (fa + 4.0 * fm + fb) / 6.0


def _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = float(f(lm))
    frm = float(f(rm))
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _simpson_recurse(
        f, a, fa, m, fm, lm, flm, left, half, depth - 1
    ) + _simpson_recurse(f, m, fm, b, fb, rm, frm, right, half, depth - 1)


def adaptive_simpson(f, a, b, tol):
    """Integral of the scalar function ``f`` over [a, b] by recursion."""
    if b == a:
        return 0.0
    fa = float(f(a))
    fb = float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = _simpson(fa, fm, fb, b - a)
    return _simpson_recurse(f, a, fa, b, fb, m, fm, whole, tol, SIMPSON_MAX_DEPTH)


def simpson_with_splits(f, a, b, splits=(), tol=1e-9):
    """Sum of ``adaptive_simpson`` over the pieces between split points,
    each with an equal share of ``tol``."""
    interior = sorted({float(s) for s in splits if a < s < b})
    points = [a, *interior, b]
    piece_tol = tol / max(1, len(points) - 1)
    pieces = zip(points[:-1], points[1:])
    return sum(adaptive_simpson(f, lo, hi, piece_tol) for lo, hi in pieces)


def curve_failures_fraction(knots, alpha, delta):
    """First failing segment of each signal-curve check, in ``Fraction`` arithmetic.

    The checks as rationals on the float knots: a segment rises; a segment
    reaching f >= 1 - alpha has slope above -delta; (t f)' = v + slope t is
    negative at either end of a segment.  Returns {name: segment index}.
    """
    level = 1 - Fraction(alpha)
    points = [(Fraction(t), Fraction(v)) for t, v in knots]
    first = {}
    for i, ((t0, v0), (t1, v1)) in enumerate(zip(points, points[1:])):
        slope = (v1 - v0) / (t1 - t0)
        if slope > 0:
            first.setdefault("nonincreasing", i)
        if max(v0, v1) >= level and slope > -Fraction(delta):
            first.setdefault("steep_where_dense", i)
        if min(v0 + slope * t0, v1 + slope * t1) < 0:
            first.setdefault("mass_nondecreasing", i)
    return first


def first_segment_below_fraction(knots, alpha, mu):
    """Index of the first segment whose right end lies below (1 - alpha) / (1 - mu)."""
    target = (1 - Fraction(alpha)) / (1 - Fraction(mu))
    return next(i for i, (_, v) in enumerate(knots[1:]) if Fraction(v) < target)
