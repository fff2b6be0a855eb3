"""CSV text of a block of columns, built by numpy as one character matrix.

Each row of a block is laid out in fixed columns of a ``uint8``
matrix: one field per cell, wide enough for any value of its column,
then the separator.  A character a cell leaves out (a minus sign, a
leading or trailing zero, a decimal point, an exponent) is a NUL, and
one ``bytes.translate`` that deletes every NUL turns the matrix into
the text.  The text is what ``'%.17g'`` gives for floats, ``'%d'`` for
integers and bools and ``'%s'`` for strings.

Floats take 17 significant digits, which round-trip every double.  For
|x| in [1e-280, 1e280] the digits are D = round(|x| * 10^(16-q)) with
q = floor(log10 |x|), formed from a double-double product whose error
stays below 2^-46 of a unit of D.  Python rounds exact ties half to
even, so any value whose scaled fraction lies within 2^-30 of 1/2 is
formatted by Python, and so are subnormals and values outside that
range.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["block_text", "check_column"]

_NUL = 0
_MINUS = ord("-")
_ZERO = ord("0")
_DIGITS = 17
_POWERS = np.array([10**i for i in range(_DIGITS + 1)], dtype=np.int64)

# Outside this range the scaled product could overflow, or lose bits in
# the Veltkamp split or in the low part of 10^k.
_FAST_MIN = 1e-280
_FAST_MAX = 1e280
_SPLITTER = 134217729.0  # 2^27 + 1
_TIE_BAND = 2.0**-30


def block_text(arrays: list[np.ndarray]) -> str:
    """The CSV rows of equally long 1-d columns, each row ended by a newline.

    Raises as :func:`check_column` does.
    """
    layouts = [_layout(array) for array in arrays]
    out = np.zeros((len(arrays[0]), sum(width + 1 for width, _ in layouts)), np.uint8)
    end = 0
    for width, fill in layouts:
        fill(out[:, end : end + width])
        end += width + 1
        out[:, end - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode()


def check_column(array: np.ndarray) -> None:
    """Raise TypeError for a dtype with no text format, ValueError for a NUL in a string.

    NUL marks the characters a cell leaves out, so a string holding one
    cannot be written as given.
    """
    kind = array.dtype.kind
    if kind not in _LAYOUTS:
        raise TypeError(f"cannot write a column of dtype {array.dtype}")
    if kind == "U" and "\0" in "".join(np.unique(array).tolist()):
        raise ValueError("cannot write a string holding a NUL character")


def _layout(array: np.ndarray):
    """The width of a column's field and the function that fills it."""
    check_column(array)
    return _LAYOUTS[array.dtype.kind](array)


def _bool_layout(values: np.ndarray):
    return 1, lambda cells: np.add(values, _ZERO, out=cells[:, 0], casting="unsafe")


def _digit_rows(values: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` decimal digits of non-negative ints, one row per digit.

    Row 0 holds the most significant digit.  Digit-major rows keep every
    step contiguous; the caller copies them into its field transposed.
    Digits are taken eight at a time in int32, whose steps are several
    times faster than int64 ones.
    """
    digits = np.empty((count, values.size), np.uint8)
    rest = values
    for end in range(count, 0, -8):
        head = rest // 10**8
        group = (rest - head * 10**8).astype(np.int32)
        for row in range(end - 1, max(end - 8, 0) - 1, -1):
            step = group // 10
            digits[row] = group - step * 10
            group = step
        rest = head
    return digits


def _characters(digits: np.ndarray, rows) -> np.ndarray:
    """Turn ``digits`` into ASCII in place, NUL until a nonzero digit is seen.

    ``rows`` gives the order in which the rows are scanned: the leading
    rows for integer parts, all of them in reverse for fractions.
    """
    seen = np.zeros(digits.shape[1], bool)
    for row in rows:
        seen |= row != 0
        row += _ZERO
        row *= seen
    return digits


def _integer_text(values: np.ndarray, count: int) -> np.ndarray:
    """ASCII rows of non-negative ints right-aligned in ``count`` digits, leading zeros NUL."""
    digits = _digit_rows(values, count)
    digits[-1] += _ZERO  # the units digit shows even for 0
    return _characters(digits, digits[:-1])


def _int_layout(values: np.ndarray):
    negative = values < 0
    # abs of the int64 minimum wraps to itself, whose bits read as 2^63.
    unsigned = values.dtype.str.replace("i", "u")
    magnitude = np.abs(values).astype(unsigned).astype(np.uint64)
    width = len(str(int(magnitude.max())))
    sign = int(negative.any())

    def fill(cells):
        if sign:
            cells[:, 0] = negative * _MINUS
        cells[:, sign:] = _integer_text(magnitude, width).T

    return sign + width, fill


def _str_layout(values: np.ndarray):
    texts, index = np.unique(values, return_inverse=True)
    encoded = [text.encode() for text in texts.tolist()]
    table = np.zeros((len(encoded), max(map(len, encoded))), np.uint8)
    for row, text in enumerate(encoded):
        table[row, : len(text)] = np.frombuffer(text, np.uint8)

    def fill(cells):
        cells[:] = table[index.reshape(-1)]

    return table.shape[1], fill


@functools.lru_cache(maxsize=None)
def _power_of_ten(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi the nearest double, lo the nearest double to the rest."""
    num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: v = hi + lo with 26-bit halves, so their products are exact."""
    c = v * _SPLITTER
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10^k) and its fraction, within 2^-46 for products below 2^58."""
    first = int(k.min())
    his, los = zip(*(_power_of_ten(e) for e in range(first, int(k.max()) + 1)))
    index = k - first
    hi, lo = np.take(his, index), np.take(los, index)
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    error = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    whole = np.floor(p)
    rest = (p - whole) + (error + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _float_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 significant digits D and exponent q of positive normal a, a ~ D 10^(q-16).

    Also returns the elements whose digits are not settled here: near
    ties, and elements whose exponent one correction did not fix.
    """
    q = np.floor(np.log10(a)).astype(np.int64)
    floor, frac = _scaled(a, 16 - q)
    # log10 may miss the exponent by one next to a power of ten.
    low, high = floor < _POWERS[16], floor >= _POWERS[17]
    moved = np.flatnonzero(low | high)
    if moved.size:
        q[moved] += high[moved].astype(np.int64) - low[moved]
        floor[moved], frac[moved] = _scaled(a[moved], 16 - q[moved])
        low, high = floor < _POWERS[16], floor >= _POWERS[17]
    unsettled = low | high | (np.abs(frac - 0.5) < _TIE_BAND)
    digits = floor + (frac > 0.5)
    carried = np.flatnonzero(digits == _POWERS[17])
    digits[carried] = _POWERS[16]
    q[carried] += 1
    return digits, q, unsettled


def _float_layout(values: np.ndarray):
    """A float field: sign, integer part, point, "000", 17 fraction digits, exponent.

    Fixed notation splits D at the point into an integer part I and a
    fraction G, scaled to 17 digits, so every digit has a fixed column:
    I right-aligned with its leading zeros left out, G left-aligned with
    its trailing zeros left out.  Values in [1e-4, 0.1) put the zeros
    after the point in the "000" columns.  Scientific notation is the
    fixed layout of the leading digit, followed by the exponent.
    """
    x = values.astype(np.float64)
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    digits, q, unsettled = _float_digits(np.where(fast, a, 1.0))
    scientific = (q < -4) | (q >= _DIGITS)
    lead = np.where(scientific, 0, q)
    # Digits after the point: all 17 below 1, else those after digit ``lead``.
    after = np.where(lead < 0, _DIGITS, _DIGITS - 1 - lead)
    shift = np.take(_POWERS, after)
    whole = digits // shift
    fraction = (digits - whole * shift) * np.take(_POWERS, _DIGITS - after)
    width = len(str(int(whole.max())))
    point = 1 + width
    zeros = point + 1
    body = zeros + 3
    exponent = body + _DIGITS

    def fill(cells):
        cells[:, 0] = np.signbit(x) * _MINUS
        cells[:, 1:point] = _integer_text(whole, width).T
        cells[:, point] = (fraction != 0) * ord(".")
        for j in range(3):
            cells[:, zeros + j] = (lead < -1 - j) * _ZERO
        digits = _digit_rows(fraction, _DIGITS)
        cells[:, body:exponent] = _characters(digits, digits[::-1]).T
        rows = np.flatnonzero(scientific)
        if rows.size:
            cells[rows, exponent:] = _exponents(q[rows])
        # Zeros, infinities and NaN are written here; subnormals, extreme
        # magnitudes and near ties by Python.
        zero, infinite, nan = a == 0.0, a == np.inf, np.isnan(a)
        cells[zero | infinite | nan, 1:] = _NUL
        cells[nan, 0] = _NUL
        cells[zero, 1] = _ZERO
        cells[infinite, 1:4] = np.frombuffer(b"inf", np.uint8)
        cells[nan, 1:4] = np.frombuffer(b"nan", np.uint8)
        for row in np.flatnonzero(unsettled | ~(fast | zero | infinite | nan)).tolist():
            text = ("%.17g" % x[row]).encode()
            cells[row] = _NUL
            cells[row, : len(text)] = np.frombuffer(text, np.uint8)

    return exponent + 5, fill


def _exponents(q: np.ndarray) -> np.ndarray:
    """The text "e+dd" or "e-ddd" of each exponent, NUL-padded to 5 columns."""
    e = np.abs(q)
    text = np.empty((q.size, 5), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(q < 0, _MINUS, ord("+"))
    text[:, 2] = (e >= 100) * (e // 100 + _ZERO)
    text[:, 3] = e // 10 % 10 + _ZERO
    text[:, 4] = e % 10 + _ZERO
    return text


_LAYOUTS = {
    "f": _float_layout,
    "b": _bool_layout,
    "i": _int_layout,
    "u": _int_layout,
    "U": _str_layout,
}
