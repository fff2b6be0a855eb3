"""The package's CSV: :func:`read_table`, the one reader of its input
files, and :func:`write_table` and :func:`cell_text`, its one writer,
which builds the text of a block of rows with numpy as one matrix.

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

import codecs
import contextlib
import errno
import functools
import os
import sys
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = ["BadRow", "cell_text", "read_table", "write_table"]

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
# Rows formatted at once, which bounds the text held at once.
_BLOCK_ROWS = 1 << 14


def write_table(path: Optional[str], header: Sequence[str], columns) -> None:
    """Write a table given column by column to ``path``, or to stdout if None.

    Columns of unequal length or strings holding a NUL raise ValueError,
    and a dtype with no format TypeError, before anything is written.
    """
    arrays = [np.asarray(column) for column in columns]
    for array in arrays:
        _check_column(array)
    if len({len(array) for array in arrays}) > 1:
        raise ValueError("columns differ in length")
    # stdout is looked up here, so that a redirected stream is written to.
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with target as out:
        out.write(",".join(header) + "\n")
        for start in range(0, len(arrays[0]) if arrays else 0, _BLOCK_ROWS):
            out.write(_block_text([array[start : start + _BLOCK_ROWS] for array in arrays]))


def cell_text(value) -> str:
    """One cell's text, as :func:`write_table` writes it; raises as it does."""
    array = np.asarray(value).reshape(1)
    _check_column(array)
    return _block_text([array])[:-1]


def _block_text(arrays: list[np.ndarray]) -> str:
    """The CSV rows of equally long, checked 1-d columns, each row ended by a newline."""
    layouts = [_LAYOUTS[array.dtype.kind](array) for array in arrays]
    out = np.zeros((len(arrays[0]), sum(width + 1 for width, _ in layouts)), np.uint8)
    end = 0
    for width, fill in layouts:
        fill(out[:, end : end + width])
        end += width + 1
        out[:, end - 1] = ord(",")
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode()


def _check_column(array: np.ndarray) -> None:
    """Raise TypeError for a dtype with no text format, ValueError for a NUL in a string.

    NUL marks the characters a cell leaves out, so a string holding one
    cannot be written as given.
    """
    kind = array.dtype.kind
    if kind not in _LAYOUTS:
        raise TypeError(f"cannot write a column of dtype {array.dtype}")
    if kind == "U" and "\0" in "".join(array.tolist()):
        raise ValueError("cannot write a string holding a NUL character")


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


# Characters on which np.loadtxt and the csv route part ways: numpy
# drops trailing NULs from strings (``1\x00`` reads back as ``1``), and
# strips \x1c-\x1f around numbers as whitespace where float() refuses them.
_LOADTXT_UNSAFE = "\x00\x1c\x1d\x1e\x1f"
# np.loadtxt opens a str path through numpy's DataSource, which
# decompresses a file by these suffixes and fetches a name holding "://".
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_FLAGS = {"0": False, "false": False, "1": True, "true": True}
# Each kind of cell as np.loadtxt reads it, and as the csv route parses it.
_LOADTXT_DTYPES = {float: float, bool: "U2", str: object}
_PARSERS = {float: float, bool: lambda cell: _FLAGS[cell.strip().lower()], str: str.strip}


class BadRow(Exception):
    """The first data row the csv route refuses; ``args`` are its 1-based
    number (the header is row 1), the (column, kind) field at fault or
    None for a row of another width than the header's, and its cells."""


def read_table(path, fields_of: Callable[[list[str]], list], full_width: bool = False):
    """One value per data row for each field of a CSV, or None for an empty file.

    The file is read as UTF-8 with a byte-order mark skipped, cells split
    as the ``csv`` module splits them and blank rows skipped.
    ``fields_of`` maps the header's cells to the fields, (column, kind)
    pairs, or raises the caller's error.  A kind is ``float`` (what
    ``float()`` accepts), ``bool`` (``0``, ``1``, ``true`` or ``false``
    in any case, blanks around) or ``str`` (stripped); its field is a
    float or bool array or a tuple of strings.  With ``full_width``,
    every row has the header's cell count and the fields are every
    column in order.  A plain file is read by one ``np.loadtxt`` call on
    its path, any other by the csv route, which imports ``csv`` and
    raises :class:`BadRow`; both routes give the same result.  A file
    that is not UTF-8 raises ``OSError`` (``EILSEQ``) naming it and the
    offset of its first undecodable byte.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            fields = _loadtxt_route(handle, path, fields_of, full_width)
            if fields is None:
                handle.seek(0)
                fields = _csv_route(handle, fields_of, full_width)
    except UnicodeDecodeError:
        problem = f"not UTF-8 text at byte {_undecodable_at(path)}"
        raise OSError(errno.EILSEQ, problem, os.fspath(path)) from None
    return fields


def _undecodable_at(path) -> int:
    """The offset of the first byte of ``path`` that UTF-8 cannot decode."""
    done, rest = 0, b""
    with open(path, "rb") as raw:
        while chunk := raw.read(1 << 20):
            data = rest + chunk
            try:
                used = codecs.utf_8_decode(data)[1]
            except UnicodeDecodeError as exc:
                return done + exc.start
            done, rest = done + used, data[used:]
    return done  # a sequence cut short by the end of the file


def _loadtxt_route(handle, path, fields_of, full_width: bool) -> Optional[list]:
    """The fields ``np.loadtxt`` reads from ``path``, or None for a file
    that is not plain: a quoted header or first data row, a first
    ``bool`` cell other than ``0`` or ``1``, a character of
    ``_LOADTXT_UNSAFE``, a ``str`` field wanted from rows holding both
    ``"`` and ``\\r``, a name numpy would not open as a local file, or a
    cell or row numpy refuses (without ``usecols``, a row of another
    width).  ``handle``, the file as :func:`read_table` opened it, is
    read for the screen alone."""
    path = os.fspath(path)
    if path.endswith(_DECOMPRESSED) or "://" in path:
        return None
    header = handle.readline()
    if not header or '"' in header:
        return None
    wanted = fields_of(header.rstrip("\r\n").split(","))
    start = handle.tell()
    line = handle.readline()
    while line in ("\n", "\r\n", "\r"):
        line = handle.readline()
    if not line or '"' in line:
        return None
    cells = line.rstrip("\r\n").split(",")
    for column, kind in wanted:
        if kind is bool and (column >= len(cells) or cells[column] not in ("0", "1")):
            return None
    handle.seek(start)
    quote = carriage = False
    while chunk := handle.read(1 << 20):
        if any(char in chunk for char in _LOADTXT_UNSAFE):
            return None
        quote |= '"' in chunk
        carriage |= "\r" in chunk
    # numpy reads a path with universal newlines: a quoted "a\rb" would read as a\nb.
    if quote and carriage and any(kind is str for _, kind in wanted):
        return None
    dtype = [(f"f{i}", _LOADTXT_DTYPES[kind]) for i, (_, kind) in enumerate(wanted)]
    usecols = None if full_width else [column for column, _ in wanted]
    try:
        table = np.loadtxt(
            path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
            usecols=usecols, ndmin=1, skiprows=1, encoding="utf-8-sig",
        )
    except (TypeError, ValueError):  # TypeError: a numpy refusing object fields
        return None
    fields = []
    for name, (_, kind) in zip(table.dtype.names, wanted):
        values = table[name]
        if kind is bool:
            flags = values == "1"
            if not (flags | (values == "0")).all():
                return None
            values = flags
        elif kind is str:
            values = tuple(cell.strip() for cell in values.tolist())
        fields.append(values)
    return fields


def _csv_route(handle, fields_of, full_width: bool) -> Optional[list]:
    """The fields parsed row by row with the ``csv`` module."""
    import csv

    # No cell is longer than the file.  The limit is process-wide, so the
    # module's own is put back after the read.
    limit = csv.field_size_limit(os.fstat(handle.fileno()).st_size)
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return None
        wanted = fields_of(header)
        columns = [[] for _ in wanted]
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if full_width and len(row) != len(header):
                raise BadRow(row_number, None, row)
            for field, values in zip(wanted, columns):
                try:
                    values.append(_PARSERS[field[1]](row[field[0]]))
                except (IndexError, KeyError, ValueError):
                    raise BadRow(row_number, field, row) from None
    finally:
        csv.field_size_limit(limit)
    return [
        tuple(values) if kind is str else np.array(values, dtype=kind)
        for (_, kind), values in zip(wanted, columns)
    ]
