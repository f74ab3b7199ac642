"""Byte-exact CSV text of numeric columns, formatted in numpy.

:func:`write_csv` writes every float cell as ``"%.{p-1}e" % value`` and
every integer or boolean cell as ``"%d" % value``, byte for byte, without
running ``%`` on each cell.  The text goes into one preallocated uint8
buffer, header line first, and is decoded once.

The rows are taken in chunks of :data:`CSV_CHUNK_ROWS`, and each chunk
is written straight into one fixed row layout.  A row is its cells, each
led by its separator (the newline that ends the line before it, then
commas).  A float cell is [sign,] first digit, '.', the other p-1 digits
and "e+XX"; it has a sign slot only when its column holds a negative
(sign bit set) cell in that chunk.  An integer cell is one digit.  Every
piece of a cell (the separator, sign, first digit and '.' as one word,
the digits as left-aligned 4-digit words, the exponent word written last
over their pad bytes) is one strided view per run of adjacent columns of
equal width.  A positive cell in a column with a sign slot leaves a NUL
there, and the NULs are deleted from the text in one pass, only when
some were written.

A float cell takes the fast path only when its digits are certain.  With
e = floor(log10|x|), corrected by one either way, the mantissa
m = |x| * 10^(p-1-e) is formed by one exact power-of-ten multiply or
divide when |p-1-e| <= 22, or by two when it is <= 44.  One correctly
rounded operation cannot carry m across a half-integer n + 1/2, which is
itself a double below 2^52, so only m = n + 1/2 exactly is in doubt.
After two, m lies within about m * 2^-52 of the exact product, and any m
within m * 2^-51 of a half-integer is in doubt.  The cell is accepted
when x is finite, m is in [10^(p-1), 10^p) and m is not in doubt.
rint(m) then holds the digits the correctly rounded ``%`` prints,
because the exact product rounds to the same integer; rint(m) = 10^p is
the carry into the next decade.  |e| <= 44 + p < 100, so the exponent
has two digits.  +-0 is written directly.

A row with any other cell (a tie, NaN, inf, a subnormal, a three-digit
exponent, an integer outside 0..9) is written by ``%`` into its slot,
padded with NULs; bytes past the end of the slot are spliced in after
it.  At 16 or more digits m can pass 2^52, where n + 1/2 is no longer a
double, so every row goes through ``%``.
"""

from __future__ import annotations

import functools

import numpy as np

#: rows formatted per numpy block; bounds the block's memory
CSV_CHUNK_ROWS = 2048

#: highest precision with a numpy fast path
_FAST_MAX_PRECISION = 15

#: largest exponent k with 10**k an exact double
_EXACT = 22

#: the four ASCII digits of every integer 0..9999, as one uint32 each
_DIGITS4 = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
).view(np.uint32)[:, 0]

_n = np.arange(-99, 100)
#: the exponent field "e+XX" of every exponent -99..99, as one uint32 each
_EXPONENT4 = np.stack(
    [np.full_like(_n, ord("e")), np.where(_n < 0, ord("-"), ord("+")),
     abs(_n) // 10 + ord("0"), abs(_n) % 10 + ord("0")],
    axis=1).astype(np.uint8).view(np.uint32)[:, 0]
del _n


def _scale_table() -> np.ndarray:
    """Column 45 + k: factors a, b, c, d and tie guard g of 10**k, |k| <= 45.

    |x| * 10**k is ((|x| * a) / b) * c / d, each factor an exact power of
    ten and all but one or two of them 1.  A cell is in doubt when the
    fraction of the product is within g times the product of one half:
    g = 0 after one rounding (|k| <= 22), twice the two-rounding error up
    to |k| = 44, and inf at |k| = 45 (and beyond, clipped).
    """
    exact = np.array([10**j for j in range(_EXACT + 1)], dtype=float)
    k = np.arange(-2 * _EXACT - 1, 2 * _EXACT + 2)
    first = np.clip(k, -_EXACT, _EXACT)
    rest = np.clip(k - first, -_EXACT, _EXACT)
    power, rest_power = exact[abs(first)], exact[abs(rest)]
    return np.stack([
        np.where(first > 0, power, 1.0), np.where(first < 0, power, 1.0),
        np.where(rest > 0, rest_power, 1.0), np.where(rest < 0, rest_power, 1.0),
        np.select([abs(k) <= _EXACT, abs(k) <= 2 * _EXACT],
                  [0.0, 2.0**-51], np.inf)])


#: factors and guard of every power 10**k, k = -45..45 (see _scale_table)
_SCALE = _scale_table()


def write_csv(header: list[str], columns: list, precision: int) -> str:
    """The header line, then one line per row of the equal-length columns.

    Float columns are written in scientific notation with ``precision``
    significant digits, integer and boolean columns as ``%d``.
    """
    columns = [np.asarray(column) for column in columns]
    kinds = tuple(column.dtype.kind in "biu" for column in columns)
    row_format = ",".join("%d" if is_int else f"%.{precision - 1}e"
                          for is_int in kinds)
    n_rows = len(columns[0])
    chunks = [slice(start, start + CSV_CHUNK_ROWS)
              for start in range(0, n_rows, CSV_CHUNK_ROWS)]
    # every row is written with the newline that ends the line before it
    if precision > _FAST_MAX_PRECISION:
        pieces = [",".join(header)]
        for rows in chunks:
            pieces += _percent_lines(row_format, columns, rows)
        pieces.append("\n")
        return "".join(pieces)

    head = ",".join(header).encode()
    widest = _layout(kinds, tuple(not is_int for is_int in kinds),
                     precision)[0]
    buf = np.empty(len(head) + n_rows * widest + 1, dtype=np.uint8)
    memoryview(buf)[:len(head)] = head
    end, any_nul, splices = len(head), False, []
    for rows in chunks:
        end, nul = _write_chunk(buf, end, kinds, row_format, precision,
                                columns, rows, splices)
        any_nul |= nul
    buf[end] = ord("\n")
    data = memoryview(buf)[:end + 1]
    if not (any_nul or splices):
        return str(data, "utf-8")
    parts, done = [], 0
    for at, tail in splices:
        parts += [data[done:at], tail]
        done = at
    parts.append(data[done:])
    data = b"".join(parts)
    del parts, buf   # at most two copies of the text at once
    if any_nul:
        data = data.translate(None, b"\0")
    return str(data, "utf-8")


def _percent_lines(row_format: str, columns: list, rows) -> list[str]:
    """A newline, then ``row_format % row``, for each selected row."""
    return ["\n" + row_format % row for row in
            zip(*(column[rows].tolist() for column in columns))]


@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple, signed: tuple, precision: int):
    """The byte layout of a row of cells of these kinds and sign slots.

    Returns the row length; the multiplier, constant and sign word of
    each column's lead word, which is first digit * multiplier + constant
    (+ the sign word where the cell is negative); and one run per group
    of adjacent columns of equal width: (its columns, byte offset, cell
    width, offset of the digit groups, or None for integer cells).

    The lead word of a float cell is a little-endian uint32 of the
    separator, the sign slot if any, the first digit and '.', the last
    byte of an unsigned one left for the digits to overwrite; that of an
    integer cell is a little-endian uint16 of the separator and its digit.
    """
    widths, multiplier, const, sign = [], [], [], []
    for j, (is_int, slot) in enumerate(zip(kinds, signed)):
        shift = 16 if slot else 8   # the first digit's bit in the lead word
        widths.append(2 if is_int else precision + 6 + slot)
        multiplier.append(1 << shift)
        const.append(ord(",\n"[j == 0]) + (ord("0") << shift)
                     + (0 if is_int else ord(".") << shift + 8))
        sign.append(ord("-") << 8 if slot else 0)
    runs, offset, start = [], 0, 0
    for j in range(1, len(kinds) + 1):
        if j < len(kinds) and widths[j] == widths[start]:
            continue
        digits_at = None if kinds[start] else offset + 3 + signed[start]
        runs.append((slice(start, j), offset, widths[start], digits_at))
        offset += widths[start] * (j - start)
        start = j
    return (offset, *(np.array(words, dtype=float)
                      for words in (multiplier, const, sign)), tuple(runs))


def _mantissa(ax: np.ndarray, e: np.ndarray, precision: int):
    """m = |x| * 10**(p-1-e) by exact powers of ten, and its tie guard."""
    k = np.clip(precision + 2 * _EXACT - e, 0, 4 * _EXACT + 2).astype(np.intp)
    a, b, c, d, g = (row.take(k) for row in _SCALE)
    m = np.multiply(ax, a, out=a)
    m /= b
    m *= c
    m /= d
    g *= m
    return m, g


def _write_chunk(buf, start: int, kinds, row_format, precision, columns,
                 rows: slice, splices: list):
    """Write one chunk of rows into ``buf`` at byte ``start``.

    Returns the byte after the chunk and whether a NUL was written;
    (offset, bytes) pairs still to be spliced in are appended to
    ``splices``.
    """
    x = np.stack([column[rows] for column in columns], axis=1).astype(
        float, copy=False)
    n_rows = len(x)
    lo, hi = 10.0 ** (precision - 1), 10.0 ** precision

    ax = np.abs(x)
    zero = ax == 0.0
    regular = (ax > 0.0) & (ax < np.inf)
    np.copyto(ax, 1.0, where=~regular)
    e = np.floor(np.log10(ax))
    m, guard = _mantissa(ax, e, precision)
    if ((m < lo) | (m >= hi)).any():   # log10 was one off
        e += (m >= hi).astype(float) - (m < lo)
        m, guard = _mantissa(ax, e, precision)
    accept = (regular & (m >= lo) & (m < hi)
              & (np.abs(m - np.floor(m) - 0.5) > guard))
    digits = np.where(accept, np.rint(m), 0.0)
    carry = digits == hi
    e += carry
    digits[carry] = lo
    accept |= zero
    if any(kinds):   # an integer cell is its one digit
        is_int = np.array(kinds)
        ints = x[:, is_int]
        accept[:, is_int] = (ints >= 0.0) & (ints <= 9.0)
        digits[:, is_int] = np.where(accept[:, is_int], ints * lo, 0.0)

    negative = np.signbit(x)
    counts = negative.sum(axis=0).tolist()
    signed = tuple(count > 0 and not is_int
                   for count, is_int in zip(counts, kinds))
    # a positive cell in a column with a sign slot leaves it NUL
    nul = any(slot and count < n_rows for slot, count in zip(signed, counts))
    row_len, multiplier, const, sign, runs = _layout(kinds, signed, precision)
    first = np.floor(digits / lo)
    lead = first * multiplier + const
    if any(signed):
        lead += negative * sign
    # the other p-1 digits, left-aligned in whole 4-digit groups
    groups = -(-(precision - 1) // 4)
    rest = (digits - first * lo).astype(np.int64) * 10 ** (
        4 * groups - precision + 1)
    words = np.empty((groups, *x.shape), dtype=np.uint32)
    for k in range(groups - 1, 0, -1):
        if k == 1:   # the first two groups fit int32, which divides faster
            rest = rest.astype(np.int32)
        quotient = rest // 10_000
        _DIGITS4.take(rest - quotient * 10_000, out=words[k])
        rest = quotient
    _DIGITS4.take(rest, out=words[0])
    exponent = _EXPONENT4.take((e + 99.0).astype(np.intp), mode="clip")

    for cols, offset, width, digits_at in runs:
        shape, strides = (n_rows, cols.stop - cols.start), (row_len, width)
        at = start + offset
        if digits_at is None:   # an integer cell is its lead word
            np.ndarray(shape, "<u2", buf, at, strides)[...] = lead[:, cols]
            continue
        np.ndarray(shape, "<u4", buf, at, strides)[...] = lead[:, cols]
        for k, group in enumerate(words):
            np.ndarray(shape, np.uint32, buf, start + digits_at + 4 * k,
                       strides)[...] = group[:, cols]
        np.ndarray(shape, np.uint32, buf, at + width - 4, strides)[...] \
            = exponent[:, cols]

    if accept.all():
        return start + n_rows * row_len, nul
    text = memoryview(buf)
    fallback = np.flatnonzero(~accept.all(axis=1))
    lines = _percent_lines(row_format, columns, fallback + rows.start)
    for i, line in zip(fallback.tolist(), lines):
        at, line = start + i * row_len, line.encode()
        fits, tail = line[:row_len], line[row_len:]
        text[at:at + len(fits)] = fits
        if len(fits) < row_len:   # pad the slot with NULs
            text[at + len(fits):at + row_len] = bytes(row_len - len(fits))
            nul = True
        if tail:
            splices.append((at + row_len, tail))
    return start + n_rows * row_len, nul
