"""Byte-exact CSV text of numeric columns, formatted in numpy.

:func:`csv_pieces` writes every float cell as ``"%.{p-1}e" % value``
and every integer or boolean cell as ``"%d" % value``, byte for byte,
without running ``%`` on each cell.  It hands the text out chunk by
chunk, each chunk written into one uint8 buffer that the next chunk
reuses and decoded on its own, so a caller can send it to a file or pipe
without holding the whole text.

The rows are taken in chunks of :data:`CSV_CHUNK_ROWS`, and each chunk
is written straight into one fixed row layout.  A row is its cells, each
led by its separator (the newline that ends the line before it, then
commas).  A float cell is [sign,] first digit, '.', the other p-1 digits
and "e+XX"; it has a sign slot only when its column holds a negative
(sign bit set) cell in that chunk, which the least of the column's cells
read as 64-bit integers tells.  An integer cell is one digit.  Every
piece of a cell (the separator, sign, first digit and '.' as one word,
the digits as left-aligned 4-digit words, the exponent word written last
over their pad bytes) is one strided view per run of adjacent columns of
equal width.  A positive cell in a column with a sign slot leaves a NUL
there, and the NULs are deleted from the chunk's text in one pass, only
when some were written.

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

Each chunk runs only the passes its cells need, decided from its own
values: x * 1 and x / 1 are exact, so leaving out a factor that is 1 for
every cell changes no bit.  From the least and greatest k = p-1-e of the
chunk, the multiply by 10^min(k, 22) runs only when some k > 0 and the
divide only when some k < 0.  The second factor and the tie guard run
only on the cells with |k| > 22, found when the chunk has any.  At the
default 12 digits a scan's cells have k in 6..20, so one multiply and no
guard; a ``dynamics`` run's reach k = 26 in its ``abs_err`` cells and
first ``t_s`` cells, which alone take the second multiply and the guard.
Likewise a chunk whose cells are all
finite and nonzero, all in [10^(p-1), 10^p) on the first try and none
in doubt (a few min/max reductions tell) builds no per-cell mask, and
its rows need no search for ``%`` rows.

A row with any other cell (a tie, NaN, inf, a subnormal, a three-digit
exponent, an integer outside 0..9) is written by ``%`` over its whole
slot when it is as long as the slot, and otherwise spliced into the
chunk's text in place of the slot.  At 16 or more digits m can
pass 2^52, where n + 1/2 is no longer a double, so every row goes
through ``%``.
"""

from __future__ import annotations

import functools
from typing import Iterator, Mapping

import numpy as np

#: rows formatted per numpy block; bounds the block's memory
CSV_CHUNK_ROWS = 2048

#: highest precision with a numpy fast path
_FAST_MAX_PRECISION = 15

#: largest exponent k with 10**k an exact double
_EXACT = 22

#: the exponent tables below are indexed by e + _E0, e = floor(log10|x|);
#: every finite double has e in -324..308
_E0 = 324
_E_SIZE = 2 * _E0

#: the lead word of a cell with first digit 0: its separator ',', the digit
#: and, for a float cell, '.' (the low two bytes for an integer cell); a
#: first digit d adds d * 256
_LEAD = ord(",") + (ord("0") << 8) + (ord(".") << 16)
#: what the newline that leads a row adds to the lead word of its first cell
_NEWLINE = ord("\n") - ord(",")

#: the four ASCII digits of every integer 0..9999, as one uint32 each
_DIGITS4 = np.ascontiguousarray(
    np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
).view(np.uint32)[:, 0]

_n = np.clip(np.arange(_E_SIZE) - _E0, -99, 99)
#: the exponent field "e+XX" of every exponent e, as one uint32 each at
#: e + _E0 (+-99 beyond that)
_EXPONENT4 = np.stack(
    [np.full_like(_n, ord("e")), np.where(_n < 0, ord("-"), ord("+")),
     abs(_n) // 10 + ord("0"), abs(_n) % 10 + ord("0")],
    axis=1).astype(np.uint8).view(np.uint32)[:, 0]
del _n


@functools.cache
def _scale_table(precision: int) -> np.ndarray:
    """Factors a, b, c, d and tie guard g of 10**(p-1-e), at e + _E0.

    With k = p-1-e clipped to |k| <= 45, |x| * 10**k is
    ((|x| * a) / b) * c / d, each factor an exact power of ten and all but
    one or two of them 1.  A cell is in doubt when the fraction of the
    product is within g times the product of one half: g = 0 after one
    rounding (|k| <= 22), twice the two-rounding error up to |k| = 44, and
    inf at |k| = 45 (and beyond, clipped).
    """
    exact = np.array([10**j for j in range(_EXACT + 1)], dtype=float)
    k = np.clip(precision - 1 + _E0 - np.arange(_E_SIZE),
                -2 * _EXACT - 1, 2 * _EXACT + 1)
    first = np.clip(k, -_EXACT, _EXACT)
    rest = np.clip(k - first, -_EXACT, _EXACT)
    power, rest_power = exact[abs(first)], exact[abs(rest)]
    return np.stack([
        np.where(first > 0, power, 1.0), np.where(first < 0, power, 1.0),
        np.where(rest > 0, rest_power, 1.0), np.where(rest < 0, rest_power, 1.0),
        np.select([abs(k) <= _EXACT, abs(k) <= 2 * _EXACT],
                  [0.0, 2.0**-51], np.inf)])


def csv_pieces(columns: Mapping[str, object],
               precision: int) -> Iterator[str]:
    """The header line, then one line per row of the columns, in pieces.

    ``columns`` maps each column name to its values, in output order; a
    plain number is a one-row column.  Float columns are written in
    scientific notation with ``precision`` significant digits, integer and
    boolean columns as ``%d``.  The pieces are the header, the rows of
    each chunk of :data:`CSV_CHUNK_ROWS` and the final newline, handed out
    one at a time.
    """
    header = ",".join(columns)
    columns = [np.atleast_1d(column) for column in columns.values()]
    kinds = tuple(column.dtype.kind in "biu" for column in columns)
    row_format = ",".join("%d" if is_int else f"%.{precision - 1}e"
                          for is_int in kinds)
    n_rows = len(columns[0])
    chunks = [slice(start, start + CSV_CHUNK_ROWS)
              for start in range(0, n_rows, CSV_CHUNK_ROWS)]
    # every row is written with the newline that ends the line before it
    yield header
    if precision > _FAST_MAX_PRECISION:
        for rows in chunks:
            yield "".join(_percent_lines(row_format, columns, rows))
    else:
        widest = _layout(kinds, tuple(not is_int for is_int in kinds),
                         precision)[0]
        buf = np.empty(min(n_rows, CSV_CHUNK_ROWS) * widest, dtype=np.uint8)
        for rows in chunks:
            yield str(_write_chunk(buf, kinds, row_format, precision,
                                   columns, rows), "utf-8")
    yield "\n"


def _percent_lines(row_format: str, columns: list, rows) -> list[str]:
    """A newline, then ``row_format % row``, for each selected row."""
    return ["\n" + row_format % row for row in
            zip(*(column[rows].tolist() for column in columns))]


@functools.lru_cache(maxsize=64)
def _layout(kinds: tuple, signed: tuple, precision: int):
    """The byte layout of a row of cells of these kinds and sign slots.

    Returns the row length and one run per group of adjacent columns of
    equal width: (its columns among the columns of its kind, byte offset,
    cell width, offset of the digit groups, or None for integer cells).
    """
    widths = [2 if is_int else precision + 6 + slot
              for is_int, slot in zip(kinds, signed)]
    runs, offset, start, seen = [], 0, 0, [0, 0]
    for j in range(1, len(kinds) + 1):
        if j < len(kinds) and widths[j] == widths[start]:
            continue
        is_int = kinds[start]
        first, seen[is_int] = seen[is_int], seen[is_int] + j - start
        digits_at = None if is_int else offset + 3 + signed[start]
        runs.append((slice(first, seen[is_int]), offset, widths[start],
                     digits_at))
        offset += widths[start] * (j - start)
        start = j
    return offset, tuple(runs)


def _mantissa(ax: np.ndarray, index: np.ndarray, precision: int):
    """m = |x| * 10**(p-1-e) by exact powers of ten, and its tie guard.

    ``index`` is e + _E0.  The first factor is applied to the whole chunk
    when it differs from 1 somewhere in it, since x * 1 and x / 1 are
    exact, so m is ``ax`` itself when it does not; the second factor and
    the guard only to the cells with |p-1-e| > 22.  Returns m, the flat
    positions of those cells and their guards, (None, None) for none.
    """
    k_low = precision - 1 + _E0 - index.max()
    k_high = precision - 1 + _E0 - index.min()
    a, b, c, d, g = _scale_table(precision)
    m = ax
    for factor, used, apply in ((a, k_high > 0, np.multiply),
                                (b, k_low < 0, np.divide)):
        if used:
            scaled = factor.take(index, mode="clip")
            m = apply(m, scaled, out=scaled)
    if k_low >= -_EXACT and k_high <= _EXACT:
        return m, None, None
    # k > 22 below this index, k < -22 above it
    top = precision - 1 + _E0 - _EXACT
    wide = np.flatnonzero((index < top) | (index > top + 2 * _EXACT))
    at = index.take(wide)
    twice = m.take(wide) * c.take(at, mode="clip") / d.take(at, mode="clip")
    np.put(m, wide, twice)
    return m, wide, twice * g.take(at, mode="clip")


def _float_cells(x: np.ndarray, precision: int):
    """The digits, exponent index e + _E0 and accepted mask of float cells.

    The mask is None when every cell is accepted; the digits of a cell
    that is not are 0.
    """
    lo, hi = 10.0 ** (precision - 1), 10.0 ** precision
    ax = np.abs(x)
    regular = zero = None
    if not (ax.min() > 0.0 and ax.max() < np.inf):   # a zero, inf or NaN
        zero = ax == 0.0
        regular = (ax > 0.0) & (ax < np.inf)
        np.copyto(ax, 1.0, where=~regular)
    index = np.floor(np.log10(ax)).astype(np.intp)
    index += _E0
    m, wide, guard = _mantissa(ax, index, precision)
    in_range = None
    if m.min() < lo or m.max() >= hi:   # log10 was one off
        index += (m >= hi).astype(np.intp) - (m < lo)
        m, wide, guard = _mantissa(ax, index, precision)
        in_range = (m >= lo) & (m < hi)
    digits = np.rint(m)
    # |m - rint(m)| = 1/2 - |frac(m) - 1/2|, both exact below 2**52
    off = np.abs(np.subtract(m, digits, out=m), out=m)
    sure = None if off.max() < 0.5 else off < 0.5
    if wide is not None:
        doubt = wide[0.5 - off.take(wide) <= guard]
        if len(doubt):
            sure = off < 0.5
            np.put(sure, doubt, False)
    accept = None
    for mask in (regular, in_range, sure):
        if mask is not None:
            accept = mask if accept is None else accept & mask
    if accept is not None:
        digits *= accept
        if zero is not None:
            accept |= zero
    if digits.max() == hi:   # rint carried into the next decade
        carry = digits == hi
        index += carry
        digits[carry] = lo
    return digits, index, accept


def _float_words(digits, index, by_column, negative, leads_row: bool,
                 precision: int):
    """The lead words, 4-digit words and exponent words of float cells.

    ``by_column`` holds the cells column by column, ``negative`` flags the
    columns that take a sign slot, and ``leads_row`` says whether the
    first of them starts the row.
    """
    # the p digits, then zeros to fill whole 4-digit groups after the first
    groups = -(-(precision - 1) // 4)
    rest = digits.astype(np.int64)
    rest *= 10 ** (4 * groups - precision + 1)
    words = []
    for _ in range(groups):
        quotient = rest // 10_000
        rest -= quotient * 10_000
        words.append(_DIGITS4.take(rest))
        rest = quotient
    lead = rest * 256.0 + _LEAD   # rest is now the first digit
    if leads_row:
        lead[:, 0] += _NEWLINE
    for j in np.flatnonzero(negative).tolist():
        # a sign slot after the separator moves the digit and '.' up
        separator = ord("\n" if j == 0 and leads_row else ",")
        column = lead[:, j]
        column *= 256.0
        column -= 255.0 * separator
        column += np.signbit(by_column[j]) * float(ord("-") << 8)
    return lead, words[::-1], _EXPONENT4.take(index, mode="clip")


def _write_chunk(buf, kinds, row_format, precision, columns, rows: slice):
    """The text of one chunk of rows, written into the start of ``buf``.

    Returns a view of ``buf``, or bytes when ``%`` rows longer or shorter
    than their slots had to be spliced in or sign-slot NULs deleted.
    """
    floats = [column[rows] for column, is_int in zip(columns, kinds)
              if not is_int]
    ints = [column[rows] for column, is_int in zip(columns, kinds) if is_int]
    n_rows = len((floats or ints)[0])
    percent = np.zeros(n_rows, dtype=bool)   # the rows left to `%`
    negative, nul = np.zeros(0, dtype=bool), False
    if floats:
        by_column = np.array(floats, dtype=float)
        bits = by_column.view(np.int64)   # negative where the sign bit is
        negative = bits.min(axis=1) < 0
        # a positive cell in a column with a sign slot leaves it NUL
        nul = bool((negative & (bits.max(axis=1) >= 0)).any())
        digits, index, accept = _float_cells(
            np.ascontiguousarray(by_column.T), precision)
        if accept is not None:
            percent[np.flatnonzero(~accept) // len(floats)] = True
        lead, words, exponent = _float_words(
            digits, index, by_column, negative, not kinds[0], precision)
    if ints:   # an integer cell is its one digit
        values = np.stack(ints, axis=1)
        digit = (values >= 0) & (values <= 9)
        int_lead = np.where(digit, values, 0) * 256 + (_LEAD & 0xFFFF)
        if kinds[0]:
            int_lead[:, 0] += _NEWLINE
        if not digit.all():
            percent[np.flatnonzero(~digit) // len(ints)] = True
    signs = iter(negative.tolist())
    row_len, runs = _layout(
        kinds, tuple(not is_int and next(signs) for is_int in kinds),
        precision)

    for cols, offset, width, digits_at in runs:
        shape, strides = (n_rows, cols.stop - cols.start), (row_len, width)
        if digits_at is None:   # an integer cell is its lead word
            np.ndarray(shape, "<u2", buf, offset, strides)[...] \
                = int_lead[:, cols]
            continue
        np.ndarray(shape, "<u4", buf, offset, strides)[...] = lead[:, cols]
        for k, group in enumerate(words):
            np.ndarray(shape, np.uint32, buf, digits_at + 4 * k,
                       strides)[...] = group[:, cols]
        np.ndarray(shape, np.uint32, buf, offset + width - 4, strides)[...] \
            = exponent[:, cols]

    text = memoryview(buf)[:n_rows * row_len]
    fallback = np.flatnonzero(percent)
    parts, done = [], 0
    if len(fallback):   # each `%` row takes the place of its whole slot
        lines = _percent_lines(row_format, columns, fallback + rows.start)
        for i, line in zip(fallback.tolist(), lines):
            line = line.encode()
            if len(line) == row_len:   # it fits its slot: written in place
                text[i * row_len:(i + 1) * row_len] = line
                continue
            parts += [text[done:i * row_len], line]
            done = (i + 1) * row_len
    if not (nul or parts):
        return text
    parts.append(text[done:])
    data = b"".join(parts)
    return data.translate(None, b"\0") if nul else data
