"""Normal and Student-t tails in numpy alone.

``ndtr`` is the normal distribution function and ``stdtr`` the
Student-t distribution function for real degrees of freedom.  They serve
the ``dosage`` and ``simulate`` commands, which therefore load no scipy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "stdtr"]

# W. J. Cody's rational Chebyshev approximations of erfc (Math. Comp. 23,
# 1969), written for the normal argument as in his ANORM (SPECFUN),
# highest power first.  Up to _NEAR, Phi(x) = 1/2 + x P(x^2)/Q(x^2); up
# to _MID, Phi(-y) = exp(-y^2/2) P(y)/Q(y); beyond, Phi(-y) =
# exp(-y^2/2) (1/sqrt(2 pi) - z P(z)/Q(z)) / y with z = 1/y^2.
_NEAR = 0.67448975
_MID = math.sqrt(32.0)
_NEAR_P = (
    0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881,
    1067.6894854603709582, 18154.981253343561249,
)
_NEAR_Q = (
    1.0, 47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
    45507.789335026729956,
)
_MID_P = (
    1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
    93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
    6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218,
)
_MID_Q = (
    1.0, 22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
    6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
    38912.003286093271411, 19685.429676859990727,
)
_FAR_P = (
    0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
    0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5,
)
_FAR_Q = (
    1.0, 1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
    0.00378239633202758244, 7.29751555083966205e-5,
)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ratio(z: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """num(z) / den(z) by Horner's rule; coefficients highest power first,
    as many for each."""
    p = np.full_like(z, num[0])
    q = np.full_like(z, den[0])
    for cp, cq in zip(num[1:], den[1:]):
        p *= z
        p += cp
        q *= z
        q += cq
    p /= q
    return p


def _half_square_exp(y: np.ndarray) -> np.ndarray:
    """exp(-y^2/2) to a few ulps at every y, through Cody's split of y^2:
    y = r + (y - r) with r = trunc(16 y)/16, whose square is exact."""
    r = np.trunc(y * 16.0)
    r /= 16.0
    rest = y - r
    rest *= y + r
    rest *= -0.5
    np.exp(rest, out=rest)
    r *= r
    r *= -0.5
    np.exp(r, out=r)
    r *= rest
    return r


def _far_scaled(y: np.ndarray) -> np.ndarray:
    """exp(y^2/2) Phi(-y) for y > ``_MID``."""
    z = 1.0 / (y * y)
    r = _ratio(z, _FAR_P, _FAR_Q)
    r *= z
    np.subtract(_INV_SQRT_2PI, r, out=r)
    r /= y
    return r


def _upper(y: np.ndarray) -> np.ndarray:
    """Phi(-y) for y > ``_NEAR`` (NaN stays NaN); overwrites y.

    Up to ``_MID`` the rounding of y^2 costs at most 16 ulps in exp(-y^2/2);
    beyond, ``_half_square_exp`` keeps the relative error at a few ulps.
    """
    np.minimum(y, 40.0, out=y)
    out = _mid_upper(y)
    far = y > _MID
    if far.any():
        i = np.flatnonzero(far)
        yf = y.take(i)
        tail = _half_square_exp(yf)
        tail *= _far_scaled(yf)
        out[i] = tail
    return out


def _mid_upper(y: np.ndarray) -> np.ndarray:
    """Phi(-y) for ``_NEAR`` < y <= ``_MID`` (finite, and meaningless,
    for y up to 40)."""
    out = y * y
    out *= -0.5
    np.exp(out, out=out)
    out *= _ratio(y, _MID_P, _MID_Q)
    return out


def ndtr(x):
    """Standard normal distribution function Phi(x).

    Relative error below 2e-15 wherever the result is a normal float,
    the lower tail included (Phi(-37.5) is about 4.6e-308).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.abs(flat)
    near = out <= _NEAR
    i = np.flatnonzero(~near)
    tail = _upper(out.take(i))
    out[i] = np.where(flat.take(i) > 0.0, 1.0 - tail, tail)
    del tail
    i = np.flatnonzero(near)
    xn = flat.take(i)
    r = _ratio(xn * xn, _NEAR_P, _NEAR_Q)
    r *= xn
    r += 0.5
    out[i] = r
    return out.reshape(x.shape)[()]


# --- Student t ------------------------------------------------------------
#
# For s >= 0, P(T_df <= -s) = I_x(a, 1/2) / 2 with a = df/2, x = df/(df +
# s^2) and y = 1 - x = s^2/(df + s^2), both formed from s^2, never as
# 1 - x.  With K = x^a y^(1/2) Gamma(a + 1/2) / (Gamma(a) sqrt(pi)):
#   * left of the crossover x = (a + 1)/(a + 5/2) the fraction of
#     I_x(a, 1/2) gives the tail K F / (2a);
#   * right of it, that of I_y(1/2, a) gives 1/2 - K F;
#   * for a > _BGRAT_A and y < 0.3, where the first fraction converges
#     slowly, DiDonato and Morris's BGRAT (ACM TOMS 18, 1992, Algorithm
#     708) expands I_x(a, 1/2) about the normal tail.
# x^a = exp(-a log1p(s^2/df)) is the one factor whose exponent needs more
# than double precision: past _PLAIN_EXPONENT it is formed in
# double-double arithmetic, since an absolute error e in the exponent is a
# relative error e in the tail.

# ln(Gamma(a + 1/2) / Gamma(a)) - ln(a)/2 as a series in 1/a: the
# coefficients of a^-1, a^-3, ..., (-1)^(n+1) (2^-n - 2) B_(n+1) / (n (n+1))
# with B the Bernoulli numbers.  From a = 12 on, these seven terms are
# exact to 4e-18; smaller a is first raised by the recurrence.
_RATIO_SERIES = (
    -1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
    -5461 / 425984,
)
_RATIO_SHIFT = 12

# The fractions are evaluated backward from a fixed depth: their terms
# tend to -z/4, so the tail error shrinks by about rho(z) = (1 -
# sqrt(1 - z)) / (1 + sqrt(1 - z)) per term.  The depth gives 2^-56 at
# that rate, plus a margin; the fraction of I_y(1/2, a) takes at least
# _SWAPPED_DEPTH terms, for its early terms, which run up to a y / (4 m)
# (a y < 3/2) before they decay.  Depths are tabulated in pairs of terms
# over 1024 cells of z, each cell taking the depth at its upper edge; z
# stays below 0.92.
_DEPTH_LOG = 56 * math.log(2.0)
_DEPTH_MARGIN = 4
_SWAPPED_DEPTH = 18
_DEPTH_CELLS = 1024


def _depth_pairs(least: int) -> np.ndarray:
    """Pairs of terms per cell of z for 2^-56, at least ``least`` terms."""
    upper = np.minimum(np.arange(1.0, _DEPTH_CELLS + 1.0) / _DEPTH_CELLS, 0.95)
    root = np.sqrt(1.0 - upper)
    depth = np.ceil(_DEPTH_LOG / -np.log((1.0 - root) / (1.0 + root))) + _DEPTH_MARGIN
    return np.ceil((np.maximum(depth, least) - 1.0) / 2.0)


_DIRECT_PAIRS = _depth_pairs(0)
_SWAPPED_PAIRS = _depth_pairs(_SWAPPED_DEPTH)

# Elements per pass of the t kernels, whose temporaries, the fraction's
# table of up to 70 terms among them, stay below 1 MB.
_CHUNK = 1024
_BGRAT_A = 15.0
_BGRAT_TERMS = 30
_PLAIN_EXPONENT = 16.0

_SPLIT = 2.0**27 + 1.0
# ln 2 = _LN2_HI + _LN2_LO, _LN2_HI with its last 21 bits zero (fdlibm).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def _gamma_ratio(a: np.ndarray) -> np.ndarray:
    """Gamma(a + 1/2) / Gamma(a) for a > 0, from the series at a + n >= 12
    and Gamma(a + 1/2)/Gamma(a) = Gamma(a + 3/2)/Gamma(a + 1) * a/(a + 1/2)."""
    shifts = np.maximum(np.ceil(_RATIO_SHIFT - a), 0.0)
    big = a + shifts
    inv = 1.0 / big
    inv2 = inv * inv
    series = np.full_like(a, _RATIO_SERIES[-1])
    for c in _RATIO_SERIES[-2::-1]:
        series *= inv2
        series += c
    series *= inv
    np.exp(series, out=series)
    series *= np.sqrt(big)
    # The factors a/(a + 1/2), ..., one per shift and exactly 1 past them,
    # multiplied in order down the rows.
    k = np.arange(float(_RATIO_SHIFT))[:, None]
    factors = (a + k) / (a + (k + 0.5))
    factors[k >= shifts] = 1.0
    series *= factors.prod(axis=0)
    return series


def _two_prod(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = p q exactly (Dekker), for |p|, |q| < 1e300."""
    hi = p * q
    c = _SPLIT * p
    p_hi = c - (c - p)
    p_lo = p - p_hi
    c = _SPLIT * q
    q_hi = c - (c - q)
    q_lo = q - q_hi
    lo = ((p_hi * q_hi - hi) + p_hi * q_lo + p_lo * q_hi) + p_lo * q_lo
    return hi, lo


def _precise_power(c: np.ndarray, s: np.ndarray, df: np.ndarray) -> np.ndarray:
    """exp(-c log1p(s^2/df)) with the exponent in double-double arithmetic.

    1 + s^2/df = 2^k m with m in [sqrt(1/2), sqrt(2)), and log m = 2
    atanh(f) with f = (m - 1)/(m + 1), |f| < 0.172; every rounding of the
    leading terms is carried, so the exponent is exact to about 1e-30
    relative.  Needs s < 1e150 and df < 1e290.
    """
    sq_hi, sq_lo = _two_prod(s, s)
    w_hi = sq_hi / df
    p_hi, p_lo = _two_prod(w_hi, df)
    w_lo = (((sq_hi - p_hi) - p_lo) + sq_lo) / df
    v_hi = 1.0 + w_hi
    b = v_hi - 1.0
    v_lo = ((1.0 - (v_hi - b)) + (w_hi - b)) + w_lo
    m_hi, k = np.frexp(v_hi)
    low = m_hi < _SQRT_HALF
    m_hi[low] *= 2.0
    k[low] -= 1
    g_hi = m_hi - 1.0
    g_lo = np.ldexp(v_lo, -k)
    d_hi = 2.0 + g_hi
    d_lo = (g_hi - (d_hi - 2.0)) + g_lo
    f_hi = g_hi / d_hi
    q_hi, q_lo = _two_prod(f_hi, d_hi)
    f_lo = (((g_hi - q_hi) - q_lo) + (g_lo - f_hi * d_lo)) / d_hi
    f2 = f_hi * f_hi
    series = np.full_like(f2, 1.0 / 23.0)
    for n in range(21, 1, -2):
        series *= f2
        series += 1.0 / n
    series *= 2.0 * f_hi * f2
    k_ln2 = k * _LN2_HI
    head = k_ln2 + 2.0 * f_hi
    b = head - k_ln2
    rest = ((k_ln2 - (head - b)) + (2.0 * f_hi - b)) + (
        k * _LN2_LO + 2.0 * f_lo + series
    )
    log_hi = head + rest
    log_lo = rest - (log_hi - head)
    e_hi, e_lo = _two_prod(c, log_hi)
    e_lo += c * log_lo
    out = np.exp(-e_hi)
    out *= 1.0 - e_lo
    return out


def _power(c: np.ndarray, log1p_w: np.ndarray, s, df) -> np.ndarray:
    """exp(-c log1p_w) where log1p_w = log1p(s^2/df); precise when large."""
    out = c * log1p_w
    deep = out > _PLAIN_EXPONENT
    np.negative(out, out=out)
    np.exp(out, out=out)
    if deep.any():
        i = np.flatnonzero(deep & (s < 1e150) & (df < 1e290))
        out[i] = _precise_power(c[i], s[i], df[i])
    return out


def _pairs(table: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each element's depth in pairs of terms, and the column m = 1, ...,
    (most pairs) + 1 of term indices."""
    pairs = table.take((z * _DEPTH_CELLS).astype(np.intp))
    return pairs, np.arange(1.0, pairs.max(initial=0.0) + 2.0)[:, None]


def _contracted(first, even, odd, pairs, m) -> np.ndarray:
    """F = 1/(1 + d1/(1 + d2/(1 + d3/(1 + ...)))) from d1 = ``first`` and
    rows m - 1 of ``even`` = d2m and ``odd`` = -d2m+1.

    Summed backward in the even contraction d1/(1 + d2 - d2 d3/(1 + d3 +
    d4 - d4 d5/(1 + ...))), which has the fraction's even approximants,
    from each element's own depth: past it the numerators are zero and
    leave g at exactly 0, so that no element's bits depend on the others.
    """
    numerators = even[:-1] * odd[:-1]
    numerators *= m[:-1] <= pairs
    denominators = even[1:] - odd[:-1]
    denominators += 1.0
    g = np.zeros_like(first)
    for a, b in zip(numerators[::-1], denominators[::-1]):
        g += b
        np.divide(a, g, out=g)
    g += 1.0
    g += even[0]
    np.divide(first, g, out=g)
    g += 1.0
    np.divide(1.0, g, out=g)
    return g


def _direct_fraction(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F in I_x(a, 1/2) = x^a (1 - x)^(1/2) / (a B(a, 1/2)) F, for x left of
    the crossover, from the modified-Lentz fraction of Numerical Recipes:
    d1 = -(a + 1/2) x/(a + 1), d2m = m (1/2 - m) x / ((a + 2m - 1)(a +
    2m)) and d2m+1 = -(a + m)(a + m + 1/2) x / ((a + 2m)(a + 2m + 1))."""
    pairs, m = _pairs(_DIRECT_PAIRS, x)
    p2 = a + 2.0 * m
    even = (p2 - 1.0) * p2
    np.divide(x * (m * (0.5 - m)), even, out=even)
    odd = (a + m) * (a + (m + 0.5))
    odd *= x
    odd /= p2 * (p2 + 1.0)
    return _contracted(-(a + 0.5) * x / (a + 1.0), even, odd, pairs, m)


def _swapped_fraction(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F in I_y(1/2, a) = y^(1/2) (1 - y)^a / (B(1/2, a) / 2) F, for y left
    of the crossover: the same fraction with 1/2 and a exchanged, whose
    denominators no longer depend on the element."""
    pairs, m = _pairs(_SWAPPED_PAIRS, y)
    even = a - m
    even *= y
    even *= m / ((2.0 * m - 0.5) * (2.0 * m + 0.5))
    odd = a + (m + 0.5)
    odd *= y
    odd *= (m + 0.5) / ((2.0 * m + 0.5) * (2.0 * m + 1.5))
    return _contracted(-(a + 0.5) * y / 1.5, even, odd, pairs, m)


def _scaled(y: np.ndarray) -> np.ndarray:
    """exp(y^2/2) Phi(-y) for y > ``_NEAR``."""
    out = np.empty_like(y)
    mid = y <= _MID
    i = np.flatnonzero(mid)
    out[i] = _ratio(y.take(i), _MID_P, _MID_Q)
    i = np.flatnonzero(~mid)
    out[i] = _far_scaled(y.take(i))
    return out


def _bgrat_coefficients() -> tuple[float, ...]:
    """The d_n of BGRAT for b = 1/2, which depend on b alone."""
    b = 0.5
    c, d = [], []
    cn = 1.0
    for n in range(1, _BGRAT_TERMS + 1):
        cn /= 2 * n * (2 * n + 1)
        c.append(cn)
        s = sum((i * b - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n))
        d.append((b - 1.0) * cn + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients()


def _bgrat(
    a: np.ndarray, log1p_w: np.ndarray, x_a: np.ndarray, ratio: np.ndarray
) -> np.ndarray:
    """P(T <= -s) = I_x(a, 1/2)/2 by BGRAT's expansion, for a > ``_BGRAT_A``.

    With nu = a - 1/4 and z = nu (-ln x), I_x(a, 1/2) = Gamma(a + 1/2) /
    (Gamma(a) sqrt(nu pi)) exp(-z) sqrt(z) (J_0 + sum_n d_n J_n), where
    J_0 = sqrt(pi) erfcx(sqrt z) / sqrt(z) and J_n follows by recurrence;
    exp(-z) = x^a exp(-(ln x)/4).
    """
    nu = a - 0.25
    z = nu * log1p_w
    root_z = np.sqrt(z)
    j = _scaled(np.sqrt(2.0 * z))
    j *= 2.0 / (_INV_SQRT_PI * root_z)
    total = j.copy()
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log1p_w * log1p_w
    power = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    for n, d in enumerate(_BGRAT_D, start=1):
        b2 = 0.5 + 2 * (n - 1)
        j *= b2 * (b2 + 1.0)
        j += (z + (b2 + 1.0)) * power
        j *= v
        power *= t2
        step = d * j
        # Each element stops at its own first term below 2^-54 of the sum.
        total += np.where(active, step, 0.0)
        active &= np.abs(step) > 2.0**-54 * total
        if not active.any():
            break
    total *= ratio
    total *= x_a
    total *= np.exp(0.25 * log1p_w)
    total *= root_z
    total *= 0.5 * _INV_SQRT_PI / np.sqrt(nu)
    return total


def _lower_tail(df: np.ndarray, s: np.ndarray) -> np.ndarray:
    """P(T_df <= -s) for finite df > 0 and finite s >= 0, 1-d arrays."""
    a = 0.5 * df
    with np.errstate(over="ignore", invalid="ignore"):
        square = s * s
        den = df + square
        log1p_w = np.log1p(square / df)
        x = df / den
        y = square / den
    huge = np.isinf(den)
    if huge.any():
        # s^2 overflows: x = df/s^2 to working precision and y = 1.
        log1p_w[huge] = 2.0 * np.log(s[huge]) - np.log(df[huge])
        y[huge] = 1.0
    x_a = _power(a, log1p_w, s, df)
    ratio = _gamma_ratio(a)
    k = np.sqrt(y)
    k *= x_a
    k *= ratio
    k *= _INV_SQRT_PI
    swap = x > (a + 1.0) / (a + 2.5)
    if a.max(initial=0.0) <= _BGRAT_A:
        tail = _fraction_tail(df, x, y, k, swap)
    else:
        big = (a > _BGRAT_A) & (y < 0.3) & ~swap
        tail = np.empty_like(s)
        i = np.flatnonzero(~big)
        tail[i] = _fraction_tail(df[i], x[i], y[i], k[i], swap[i])
        i = np.flatnonzero(big)
        tail[i] = _bgrat(a[i], log1p_w[i], x_a[i], ratio[i])
    return tail


def _fraction_tail(df, x, y, k, swap) -> np.ndarray:
    """The tail K F / (2a) of I_x(a, 1/2), or 1/2 - K F from I_y(1/2, a)
    where ``swap``; K = x^a y^(1/2) Gamma(a + 1/2) / (Gamma(a) sqrt(pi))."""
    tail = np.empty_like(k)
    i = np.flatnonzero(~swap)
    if i.size:
        f = _direct_fraction(0.5 * df[i], x[i])
        f *= k[i]
        f /= df[i]
        tail[i] = f
    i = np.flatnonzero(swap)
    if i.size:
        f = _swapped_fraction(0.5 * df[i], y[i])
        f *= k[i]
        tail[i] = 0.5 - f
    return tail


def stdtr(df, t):
    """Student-t distribution function P(T_df <= t) for real df > 0.

    NaN where df <= 0 or either argument is NaN; df = inf gives
    ``ndtr(t)``.  Relative error below 2e-14 wherever the result is a
    normal float, for df from 1 to 1e6 and |t| up to 1e4, tails down to
    1e-300 included; past |t| = 1e150 below 1e-13.
    """
    df, t = np.broadcast_arrays(np.asarray(df, dtype=float), np.asarray(t, dtype=float))
    shape = df.shape
    df, t = df.ravel(), t.ravel()
    s = np.abs(t)
    tail = np.full(df.shape, np.nan)
    tail[(df > 0.0) & (s == np.inf)] = 0.0
    normal = (df == np.inf) & (s < np.inf)
    if normal.any():
        tail[normal] = ndtr(-s[normal])
    with np.errstate(invalid="ignore"):
        i = np.flatnonzero((df > 0.0) & np.isfinite(df + s))
    for k in range(0, i.size, _CHUNK):
        j = i[k : k + _CHUNK]
        tail[j] = _lower_tail(df.take(j), s.take(j))
    np.subtract(1.0, tail, out=tail, where=t > 0.0)
    return tail.reshape(shape)[()]
