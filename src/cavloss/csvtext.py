"""Byte-exact CSV text of numeric columns, formatted in numpy.

:func:`write_csv` writes every float cell as ``"%.{p-1}e" % value`` and
every integer or boolean cell as ``"%d" % value``, byte for byte, without
running ``%`` on each cell.  The rows are taken in chunks of
:data:`CSV_CHUNK_ROWS`; each chunk is formatted at once into a row-major
``(rows, cols, width)`` uint8 block of fixed-width cells, and the bytes
a cell does not use are dropped by one boolean mask.

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
exponent, an integer outside 0..9) is written by ``%`` and spliced into
the chunk's text at its byte offset.  At 16 or more digits m can pass
2^52, where n + 1/2 is no longer a double, so every row goes through
``%``.
"""

from __future__ import annotations

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
    is_int = np.array([column.dtype.kind in "biu" for column in columns])
    row_format = ",".join("%d" if flag else f"%.{precision - 1}e"
                          for flag in is_int)
    n_rows = len(columns[0])
    chunks = [slice(start, start + CSV_CHUNK_ROWS)
              for start in range(0, n_rows, CSV_CHUNK_ROWS)]
    # every row is written with the newline that ends the line before it
    pieces = [",".join(header)]
    if precision > _FAST_MAX_PRECISION:
        for rows in chunks:
            pieces += _percent_lines(row_format, columns, rows)
        pieces.append("\n")
        return "".join(pieces)

    # a cell is 4-byte words: [separator before it, sign, first digit, '.'],
    # the other p-1 digits as 4-digit groups led by `pad` unused bytes,
    # and "e+XX"
    groups = -(-(precision - 1) // 4)
    pad = 4 * groups - (precision - 1)
    block = np.zeros((min(n_rows, CSV_CHUNK_ROWS), len(columns),
                      4 * groups + 8), dtype=np.uint8)
    block[:, :, 0] = ord(",")
    block[:, 0, 0] = ord("\n")
    block[:, :, 1] = ord("-")
    block[:, :, 3] = ord(".")
    # the bytes every row keeps; the sign is kept where a cell is negative
    keep = np.zeros(block.shape[1:], dtype=bool)
    keep[:, [0, 2]] = True
    keep[~is_int, 3] = True
    keep[~is_int, 4 + pad:] = True
    for rows in chunks:
        pieces += _chunk_text(block, keep, is_int, row_format, precision,
                              columns, rows)
    pieces.append("\n")
    return "".join(pieces)


def _percent_lines(row_format: str, columns: list, rows) -> list[str]:
    """A newline, then ``row_format % row``, for each selected row."""
    return ["\n" + row_format % row for row in
            zip(*(column[rows].tolist() for column in columns))]


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


def _chunk_text(block, keep, is_int, row_format, precision, columns,
                rows: slice) -> list[str]:
    """One chunk of rows as text pieces: the numpy block, with ``%`` rows
    spliced in."""
    x = np.stack([column[rows] for column in columns], axis=1).astype(
        float, copy=False)
    n_rows = len(x)
    cells = block[:n_rows]
    words = cells.view(np.uint32)
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
    if is_int.any():   # an integer cell is its one digit
        ints = x[:, is_int]
        accept[:, is_int] = (ints >= 0.0) & (ints <= 9.0)
        digits[:, is_int] = np.where(accept[:, is_int], ints * lo, 0.0)

    first = np.floor(digits / lo)
    cells[:, :, 2] = first + ord("0")
    rest = (digits - first * lo).astype(np.int64)
    for j in range(words.shape[2] - 2, 0, -1):
        quotient = rest // 10_000
        words[:, :, j] = _DIGITS4.take(rest - quotient * 10_000)
        rest = quotient
    words[:, :, -1] = _EXPONENT4.take(np.clip(e, -99, 99).astype(np.intp) + 99)

    negative = np.signbit(x) & ~is_int
    row_ok = accept.all(axis=1)
    fallback = np.flatnonzero(~row_ok)
    kept = np.repeat(keep[None], n_rows, axis=0)
    kept[:, :, 1] = negative
    kept[fallback] = False
    fast = cells[kept].tobytes().decode("ascii")
    if not len(fallback):
        return [fast]

    row_bytes = np.where(row_ok, keep.sum() + negative.sum(axis=1), 0)
    offsets = np.cumsum(row_bytes)[fallback].tolist()
    slow = _percent_lines(row_format, columns, fallback + rows.start)
    pieces, done = [], 0
    for offset, line in zip(offsets, slow):
        pieces += [fast[done:offset], line]
        done = offset
    pieces.append(fast[done:])
    return pieces
