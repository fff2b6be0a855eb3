"""Independent reference implementations used by the tests.

Everything here is deliberately written without the package's own
numerics, using plain Python loops and high-precision ``mpmath``
arithmetic.  Tests compare library output against these oracles.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp

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


def permutation_rank_over_orderings(values, m_c, plus):
    """Rank-based calibrated p-value over all orderings of the pool.

    Scores every permutation of the pooled values (first ``m_c``
    entries acting as pseudo-controls) in high precision, then returns
    #(orderings with p <= p under the true labels) / (pool size)!.
    The true labels are the identity ordering.
    """
    m = len(values)
    pvals = []
    for perm in itertools.permutations(range(m)):
        control = [values[i] for i in perm[:m_c]]
        low = [values[i] for i in perm[m_c:]]
        pvals.append(welch_one_sided_mp(low, control, plus))
    p_init = pvals[0]
    count = sum(1 for p in pvals if p <= p_init)
    return mp.mpf(count) / len(pvals)


def quad_mean_mp(h, density, singular_at_one=False):
    """High-precision integral of h times density over [0, 1]."""
    upper = 1 - mp.mpf("1e-25") if singular_at_one else mp.mpf(1)
    return mp.quad(lambda t: h(t) * density(t), [0, mp.mpf("0.5"), upper])


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
