"""The numpy CSV writer against the row-by-row ``%`` oracle, byte for byte."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cavloss import cli, csvtext
from cavloss.csvtext import CSV_CHUNK_ROWS, csv_pieces
from oracles import percent_csv_oracle
from test_properties import PROPERTY


def same_as_oracle(columns, precision):
    header = [f"c{j}" for j in range(len(columns))]
    text = "".join(csv_pieces(header, columns, precision))
    assert text == percent_csv_oracle(header, columns, precision)
    assert "\0" not in text


def same_pieces_as_oracle(columns, precision):
    """The header, one piece per chunk and the final newline, joined."""
    header = [f"c{j}" for j in range(len(columns))]
    pieces = list(csv_pieces(header, columns, precision))
    assert "".join(pieces) == percent_csv_oracle(header, columns, precision)
    assert pieces[0] == ",".join(header) and pieces[-1] == "\n"
    assert len(pieces) == 2 + -(-len(columns[0]) // CSV_CHUNK_ROWS)


@st.composite
def tables(draw):
    """(precision, columns) with cells drawn to sit on every edge.

    Float cells are arbitrary doubles (NaN, inf, +-0 and subnormals
    included), numbers from decimal strings over the whole exponent range,
    exact and decimal ties at the drawn precision, values that round up
    into the next decade and values that need two power-of-ten scalings;
    an integer or boolean column is added half the time.
    """
    precision = draw(st.integers(6, 17))
    sign = st.sampled_from(["", "-"])
    exponent = st.integers(-330, 310)
    digits = st.integers(10**(precision - 1), 10**precision - 1).map(str)
    value = st.one_of(
        st.floats(width=64),
        st.builds(lambda s, m, e: float(f"{s}{m!r}e{e}"),
                  sign, st.floats(1.0, 10.0), exponent),
        # exact ties: n + 1/2 and 10n + 5 with n of `precision` digits
        st.builds(lambda s, n: float(f"{s}{n}.5"), sign, digits),
        st.builds(lambda s, n: float(f"{s}{n}5"), sign, digits),
        # the decimal tie d.ddd...5 at every exponent
        st.builds(lambda s, n, e: float(f"{s}{n[0]}.{n[1:]}5e{e}"),
                  sign, digits, exponent),
        # 9.99...9x rounds up to 1.0 times the next power of ten
        st.builds(lambda s, t, e: float(f"{s}9.{'9' * (precision - 1)}{t}e{e}"),
                  sign, st.integers(0, 99), exponent),
        # |p - 1 - e| beyond 22: two scalings
        st.builds(lambda s, m, e: float(f"{s}{m!r}e{e}"), sign,
                  st.floats(1.0, 10.0),
                  st.one_of(st.integers(-45, -8), st.integers(30, 62))))
    n_rows = draw(st.integers(1, 12))
    columns = [np.array(draw(st.lists(value, min_size=n_rows,
                                      max_size=n_rows)))
               for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        integers = st.one_of(st.booleans(), st.integers(-3, 12),
                             st.integers(-2**62, 2**62))
        columns.insert(draw(st.integers(0, len(columns))),
                       np.array(draw(st.lists(integers, min_size=n_rows,
                                              max_size=n_rows))))
    return precision, columns


@PROPERTY
@given(tables())
@example((6, [np.array([123456.5, -123456.5, 1234565.0, 0.5, 2.5])]))
@example((12, [np.array([0.9999999999999, -9.9999999999995, 99.99999999999])]))
@example((12, [np.array([1.0e-15, -1.0e-15, 3.3e-40, 7.0e50])]))
@example((12, [np.array([math.nan, math.inf, -math.inf, 1.0])]))
@example((6, [np.array([0.0, -0.0, 5.0e-324, 2.2250738585072014e-308,
                        1.0e100, -1.0e-100, 9.9999995e99])]))
@example((15, [np.array([0.1, 1.0 / 3.0, -2.0 / 3.0, 1.0e14 + 0.5])]))
@example((16, [np.array([0.1, -1.0 / 3.0, 0.0])]))
@example((16, [np.array([9.123456789012345, -9.876543210987653e-5])]))
@example((17, [np.array([0.1, -1.0 / 3.0, 0.0])]))
def test_byte_identical_to_percent(table):
    precision, columns = table
    same_as_oracle(columns, precision)
    same_pieces_as_oracle(columns, precision)


@pytest.mark.parametrize("precision", [6, 12, 15])
def test_two_scaling_near_ties(precision):
    # the double nearest a decimal tie d.dd...d5e<e> lies within an ulp or
    # so of it, and when |p - 1 - e| > 22 the two scalings can carry the
    # mantissa across it
    rng = np.random.default_rng(precision)
    exponents = np.r_[precision - 45:precision - 23,
                      precision + 23:precision + 45]
    values = [float(f"{sign}{n[0]}.{n[1:]}5e{e}") for sign, n, e in zip(
        rng.choice(["", "-"], 4000),
        rng.integers(10**(precision - 1), 10**precision, 4000).astype(str),
        rng.choice(exponents, 4000))]
    same_as_oracle([np.array(values)], precision)


def scan_like(rows):
    """Three columns shaped like a scan's: negative, positive, mixed sign."""
    delta = np.linspace(-1000.0, -350.0, rows)
    return [delta, np.exp(delta / 300.0), np.sin(delta) * 1.0e-9]


@pytest.mark.parametrize("precision", [6, 12, 17])
@pytest.mark.parametrize("rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                  CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1])
def test_chunk_edges(rows, precision):
    same_as_oracle(scan_like(rows), precision)
    same_pieces_as_oracle(scan_like(rows), precision)


@pytest.mark.parametrize("precision", [6, 12])
@pytest.mark.parametrize("rejected", [
    [0], [CSV_CHUNK_ROWS - 1], [CSV_CHUNK_ROWS], [2 * CSV_CHUNK_ROWS],
    [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS],
])
def test_rejected_row_at_chunk_edge(rejected, precision):
    # an exact tie at 6 digits, NaN at any precision
    columns = scan_like(2 * CSV_CHUNK_ROWS + 1)
    columns[1][rejected] = 123456.5
    columns[2][rejected[::2]] = math.nan
    same_as_oracle(columns, precision)
    same_pieces_as_oracle(columns, precision)


def test_all_fallback_chunk():
    columns = scan_like(3 * CSV_CHUNK_ROWS)
    columns[2][CSV_CHUNK_ROWS:2 * CSV_CHUNK_ROWS] = math.inf
    columns.append(np.arange(3 * CSV_CHUNK_ROWS) % 11)   # 10 falls back too
    same_as_oracle(columns, 12)
    same_pieces_as_oracle(columns, 12)


def test_no_rows_is_the_header_line():
    columns = [np.array([]), np.array([])]
    for precision in (12, 17):
        assert "".join(csv_pieces(["a", "b"], columns, precision)) == "a,b\n"
        assert list(csv_pieces(["a", "b"], columns, precision)) \
            == ["a,b", "\n"]


@pytest.fixture
def slow(monkeypatch):
    """The lines written by ``%`` rather than the numpy fast path."""
    lines = []
    percent_lines = csvtext._percent_lines

    def counting(row_format, columns, rows):
        written = percent_lines(row_format, columns, rows)
        lines.extend(written)
        return written

    monkeypatch.setattr(csvtext, "_percent_lines", counting)
    return lines


def test_powers_of_ten_take_the_fast_path(slow):
    # log10 rounds the double just below 10**n up to n: the exponent is
    # corrected, not sent to `%`
    powers = 10.0 ** np.arange(-25, 26)
    columns = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, 1.0e26)]
    for precision in (6, 12, 14):
        same_as_oracle(columns, precision)
    assert slow == []


def test_near_ties_are_rare(slow):
    # the fast path must carry the rows: only near-tie rows go through `%`
    rng = np.random.default_rng(7)
    columns = [rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.integers(
        -30, 30, 20_000) for _ in range(6)]
    header = [f"c{j}" for j in range(6)]
    for precision in (6, 12):
        slow.clear()
        text = "".join(csv_pieces(header, columns, precision))
        assert text == percent_csv_oracle(header, columns, precision)
        assert len(slow) < 200


def test_sign_slots_follow_each_chunk(slow):
    # a column takes a sign slot only in the chunks where it is negative;
    # where it also holds positive cells those leave the slot empty
    rows = np.arange(3 * CSV_CHUNK_ROWS)
    chunk = rows // CSV_CHUNK_ROWS
    negative_first = np.where(chunk == 0, -1.0, 1.0) * np.exp(rows / 997.0)
    mixed_in_one = np.where(chunk == 1, np.cos(rows), 1.5 + np.cos(rows))
    for precision in (6, 12):
        same_as_oracle([negative_first, -negative_first, mixed_in_one],
                       precision)
    assert len(slow) < 10


def test_negative_zero_in_a_positive_column(slow):
    column = np.exp(np.arange(CSV_CHUNK_ROWS + 5) / 100.0)
    column[[3, CSV_CHUNK_ROWS + 2]] = -0.0
    column[[4, CSV_CHUNK_ROWS + 3]] = 0.0
    for precision in (6, 12):
        same_as_oracle([column, -column[::-1]], precision)
    assert slow == []


def test_integer_columns_between_float_columns(slow):
    rows = np.arange(CSV_CHUNK_ROWS + 3)
    delta, loss, mixed = scan_like(len(rows))
    columns = [delta, rows % 10, loss, rows % 3 == 0, (rows * 7) % 10, mixed]
    for precision in (6, 12):
        same_as_oracle(columns, precision)
    assert slow == []


@pytest.mark.parametrize("row", [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                 CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("column, value", [
    (1, 1.0e-100),    # one byte longer than its unsigned slot
    (0, -1.0e-100),   # one byte longer than its signed slot
    (1, math.nan), (0, math.inf), (2, -math.inf),   # shorter than the slot
])
def test_percent_row_longer_or_shorter_than_its_slot(slow, row, column,
                                                      value):
    columns = scan_like(2 * CSV_CHUNK_ROWS + 2)
    columns[column][row] = value
    same_as_oracle(columns, 12)
    assert slow == ["\n" + "%.11e,%.11e,%.11e" % tuple(
        float(cells[row]) for cells in columns)]
    # spliced in, or its NULs deleted, within the chunk's own piece
    same_pieces_as_oracle(columns, 12)


@pytest.mark.parametrize("row", [0, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                 2 * CSV_CHUNK_ROWS + 1])
@pytest.mark.parametrize("cells, nul", [
    ({1: 1.0e11 + 0.5}, False),   # an exact tie, as long as its slot
    # one byte longer in one column, one shorter in the signed column,
    # whose other cells are negative: its NULs are still deleted
    ({0: 1.0, 1: 1.0e-100}, True),
])
def test_percent_row_as_long_as_its_slot_is_written_in_place(
        slow, monkeypatch, row, cells, nul):
    columns = scan_like(2 * CSV_CHUNK_ROWS + 2)[:2]   # no mixed signs
    for column, value in cells.items():
        columns[column][row] = value
    chunks = []
    write_chunk = csvtext._write_chunk

    def recording(*args):
        chunks.append(write_chunk(*args))
        return chunks[-1]

    monkeypatch.setattr(csvtext, "_write_chunk", recording)
    same_pieces_as_oracle(columns, 12)
    assert slow == ["\n" + "%.11e,%.11e" % tuple(
        float(cells[row]) for cells in columns)]
    # only the chunk with a NUL sign slot is copied out of the buffer
    copied = [not isinstance(chunk, memoryview) for chunk in chunks]
    assert copied == [nul and index == row // CSV_CHUNK_ROWS
                      for index in range(len(chunks))]


def near_tie_lines(columns, precision):
    """The ``%`` lines of the rows with a cell whose exact mantissa, in
    [10**(p-1), 10**p), lies within m * 2**-50 of a half-integer."""
    row_format = ",".join([f"%.{precision - 1}e"] * len(columns))
    lo, hi = 10 ** (precision - 1), 10 ** precision
    near = set()
    for column in columns:
        ax = np.abs(column)
        with np.errstate(divide="ignore"):
            e = np.floor(np.log10(ax))
        for shift in (-1, 0, 1):   # log10 may be one off
            m = ax * 10.0 ** (precision - 1 - e + shift)
            for i in np.flatnonzero(np.abs(m - np.floor(m) - 0.5) < 1.0e-3):
                exact = Fraction(float(ax[i])) \
                    * Fraction(10) ** int(precision - 1 - e[i] + shift)
                if lo <= exact < hi and abs(exact - math.floor(exact)
                                            - Fraction(1, 2)) <= exact / 2**50:
                    near.add(int(i))
    return {"\n" + row_format % row for row in
            zip(*(column[sorted(near)].tolist() for column in columns))}


def test_scan_rows_take_the_fast_path_except_near_ties(slow, monkeypatch,
                                                       capsys):
    tables = []

    def capture(header, columns, precision):
        tables.append(columns)
        return csv_pieces(header, columns, precision)

    monkeypatch.setattr(cli, "csv_pieces", capture)
    assert cli.main(["scan", "--points", "20000"]) == 0
    capsys.readouterr()
    [columns] = tables
    for precision in (6, 12):
        slow.clear()
        same_as_oracle(columns, precision)
        assert set(slow) <= near_tie_lines(columns, precision)
    assert len(slow) < 50


@pytest.mark.parametrize("exponents", [(-10, 11), (10, 11)])
def test_every_cell_scaled_up_once(slow, exponents):
    # p-1-e in 1..22 for every cell: only the multiply by 10**(p-1-e)
    rng = np.random.default_rng(11)
    columns = [rng.uniform(1.0, 10.0, 3 * CSV_CHUNK_ROWS) * 10.0 ** rng.integers(
        *exponents, 3 * CSV_CHUNK_ROWS) for _ in range(4)]
    columns[1] *= -1.0
    same_as_oracle(columns, 12)
    assert set(slow) <= near_tie_lines(columns, 12)


@pytest.mark.parametrize("exponents", [(12, 34), (12, 13)])
def test_every_cell_scaled_down_once(slow, exponents):
    # values >= 1e12 at 12 digits: p-1-e in -22..-1, only the divide
    rng = np.random.default_rng(12)
    columns = [rng.uniform(1.0, 10.0, 3 * CSV_CHUNK_ROWS) * 10.0 ** rng.integers(
        *exponents, 3 * CSV_CHUNK_ROWS) for _ in range(4)]
    columns[2] *= np.where(np.arange(3 * CSV_CHUNK_ROWS) % 3, 1.0, -1.0)
    same_as_oracle(columns, 12)
    assert set(slow) <= near_tie_lines(columns, 12)


@pytest.mark.parametrize("tiny, huge", [(1.0e-15, 1.0e3), (3.0e-30, 7.0e35)])
def test_one_column_scaled_twice_beside_single_scaled_ones(slow, tiny, huge):
    rng = np.random.default_rng(13)
    rows = 2 * CSV_CHUNK_ROWS + 7
    single = rng.uniform(0.1, 10.0, rows)
    twice = rng.uniform(1.0, 10.0, rows) * tiny
    columns = [single, twice, -single * huge, np.exp(-single)]
    same_as_oracle(columns, 12)
    assert set(slow) <= near_tie_lines(columns, 12)


@pytest.mark.parametrize("precision", [6, 12])
@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("once_first", [True, False])
def test_scaling_crosses_22_at_the_chunk_edge(slow, precision, side,
                                              once_first):
    # |p-1-e| is 22 on one side of rows 2047/2048 and 23 on the other, so
    # one chunk takes one scaling and the next two
    rows = np.arange(2 * CSV_CHUNK_ROWS)
    mantissa = 1.0 + (rows % 997) / 997.0
    once = mantissa * 10.0 ** (precision - 1 - side * 22)
    twice = mantissa * 10.0 ** (precision - 1 - side * 23)
    first = (rows < CSV_CHUNK_ROWS) == once_first
    column = np.where(first, once, twice)
    columns = [column, -3.0 * column]
    same_as_oracle(columns, precision)
    assert set(slow) <= near_tie_lines(columns, precision)


def run_command(argv, tmp_path, precision, capsys):
    """The stdout of ``cli.main(argv)`` at ``precision`` digits."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output": {"precision": precision}}))
    assert cli.main(["--config", str(config)] + argv) == 0
    return capsys.readouterr().out


def exp_dispatch() -> str:
    """The kernel that numpy dispatches for float64 exp in this process."""
    info = np.lib.introspect.opt_func_info(func_name="^exp$",
                                           signature="float64")
    return " ".join(kernel["current"] for signatures in info.values()
                    for kernel in signatures.values())


# Which rows are near ties depends on the last bits of the values, and so on
# numpy's exp kernel: one count table per dispatch, each measured under it
# (X86_V3 and the baseline with NPY_DISABLE_CPU_FEATURES set in a child).
@pytest.mark.parametrize("argv, percent_rows", [
    (["scan", "--points", "20000"],
     {"X86_V4": {6: 0, 12: 17, 14: 1711}, "X86_V3": {6: 0, 12: 19, 14: 1665},
      "baseline(X86_V2)": {6: 0, 12: 19, 14: 1665}}),
    (["dynamics", "--delta-mhz=-600"],
     {"X86_V4": {6: 0, 12: 9, 14: 1557}, "X86_V3": {6: 0, 12: 8, 14: 1571},
      "baseline(X86_V2)": {6: 0, 12: 8, 14: 1571}}),
])
def test_percent_rows_of_the_commands_are_pinned(slow, tmp_path, capsys, argv,
                                                  percent_rows):
    dispatch = exp_dispatch()
    if dispatch not in percent_rows:
        pytest.fail(f"no `%` row counts are pinned for numpy's float64 exp "
                    f"dispatch {dispatch!r}")
    for precision, count in percent_rows[dispatch].items():
        slow.clear()
        text = run_command(argv, tmp_path, precision, capsys)
        assert len(slow) == count
        assert "\0" not in text
