"""Fuzzed input files: the market, EPU, risk-free and panel parsers either
return or raise a ValidationError, never any other exception. Each file
starts as valid rows (none, or some, ended by CRLF, LF or CR, the last
maybe by nothing), then some cells are swapped for awkward tokens and some
raw bytes are spliced in anywhere, the header included.

A panel file must give the Panel, bit for bit, or the MalformedRow line,
message and file of the reader it replaced (tests/reference_reader.py),
but for two rules of its own: text that is not UTF-8 is rejected before
any row, and a series that differs within a date raises a MalformedRow,
where the old reader's Panel raised InvalidConfig. The EPU and
risk-free parsers must give the rows, or the error type and message, of
the dict-returning parsers they replaced (tests/reference_levels.py),
whatever the row order and wherever a date repeats. A market file longer
than one block of the block route must give the bars, or the error type and
text, of the row-by-row parser it replaced (tests/reference_bars.py), but
for the panel reader's rule on text that is not UTF-8."""

import csv
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_bars
import reference_levels
import reference_reader
from coinfactors import ingest
from coinfactors import panel as panel_module
from coinfactors.errors import (
    InvalidConfig,
    MalformedRow,
    NonPositivePrice,
    ValidationError,
)
from coinfactors.ingest import (
    EPU_HEADER,
    MARKET_HEADER,
    RISKFREE_HEADER,
    parse_epu_csv,
    parse_market_csv,
    parse_riskfree_csv,
    read_csv_rows,
)
from coinfactors.panel import _COLUMNS, PANEL_HEADER, read_panel_csv

LONG = "9" * 200_000  # over the csv module's 131072-character field limit
# float() takes 1_0 and the full-width and Arabic-Indic digits, which
# np.loadtxt rejects; np.loadtxt takes U+001C-U+001F around a number, and
# with its default comments would cut 1.0#x at #, which float() rejects
TOKENS = ["", "\x00", "\ufeff", "\xff", '"', '""', "a\"b", LONG, "1_0", " 1.0",
          "nan", "1e999", "-1e999", "-1", "0", "-0.0", "1e-320", "2020-02-30",
          "2020-1-1", "C001", "abc", "1.0#x", "infinity", "\u30001", "\uff11",
          "\u0663", "1,0", "\x1c1", "1\x1f", "\t1", "1e308"]
BYTES = [b"\x00", b"\xff", b"\xef\xbb\xbf", b'"', b"\r", b"\n", b",", b"\xc3",
         LONG.encode()]


def _date(i):
    return f"2020-01-{i + 1:02d}"


def _panel_row(i):
    numbers = ["0.01"] * (len(PANEL_HEADER) - 2)
    numbers[PANEL_HEADER.index("size_raw") - 2] = "15.0"
    return [f"C{i % 3:03d}", _date(i // 3)] + numbers


PARSERS = {
    "market": (MARKET_HEADER, lambda i: [_date(i), "1.5", "10.0", "1e6"],
               lambda path: parse_market_csv(path, "C000")),
    "epu": (EPU_HEADER, lambda i: [_date(i), "120.5"], parse_epu_csv),
    "riskfree": (RISKFREE_HEADER, lambda i: [_date(i), "0.02"], parse_riskfree_csv),
    "panel": (PANEL_HEADER, _panel_row, read_panel_csv),
}


@st.composite
def spoiled_files(draw, kinds=tuple(sorted(PARSERS))):
    kind = draw(st.sampled_from(kinds))
    header, make_row, _ = PARSERS[kind]
    rows = [list(header)] + [make_row(i) for i in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
    text = io.StringIO()
    terminator = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    csv.writer(text, lineterminator=terminator).writerows(rows)
    data = text.getvalue().encode("utf-8", "surrogatepass")
    if draw(st.booleans()):  # the last line has no line end
        data = data[: -len(terminator)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BYTES)) + data[at:]
    return kind, data


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spoiled=spoiled_files())
def test_parsers_return_or_raise_validation_error(tmp_path, spoiled):
    kind, data = spoiled
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(data)
    try:
        PARSERS[kind][2](path)
    except ValidationError:
        pass


def _level_outcome(parse, path):
    """A level parser's (day, level) rows in order, or the type and text of
    the ValidationError it raised."""
    try:
        levels = parse(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    if isinstance(levels, dict):
        levels = [(d.toordinal(), value) for d, value in levels.items()]
    else:
        levels = levels.tolist()
    return repr(levels)


ORACLES = {"epu": reference_levels.parse_epu_csv,
           "riskfree": reference_levels.parse_riskfree_csv}


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spoiled=spoiled_files(kinds=("epu", "riskfree")),
       repeats=st.integers(0, 2), order=st.randoms(use_true_random=False))
def test_level_parsers_equal_the_dict_oracle(tmp_path, spoiled, repeats, order):
    kind, data = spoiled
    lines = data.split(b"\n")
    body = lines[1:] + lines[1 : 1 + repeats]
    order.shuffle(body)  # rows in any order, repeated dates anywhere
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(b"\n".join(lines[:1] + body))
    got = _level_outcome(PARSERS[kind][2], path)
    assert got == _level_outcome(ORACLES[kind], path)


def _outcome(read):
    """What a read gives: the Panel's fields, the MalformedRow's line,
    message and file, or the InvalidConfig's text."""
    try:
        panel = read()
    except MalformedRow as exc:
        return ("error", exc.line, exc.message, exc.path)
    except InvalidConfig as exc:
        return ("invalid", str(exc))
    arrays = [getattr(panel, name).tobytes() for name in _COLUMNS]
    return ("panel", panel.coins, panel.dates, panel.riskfree_mode, arrays)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(spoiled=spoiled_files(kinds=("panel",)))
def test_panel_path_reads_as_its_text_stream(tmp_path, spoiled):
    _, data = spoiled
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    got = _outcome(lambda: read_panel_csv(path, riskfree_mode="btc"))
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:  # or a header or csv error read before it
        assert got[0] == "error" and got[3] == path
        if got[2].startswith("not UTF-8 text: "):
            assert got[1] == data.count(b"\n", 0, exc.start) + 1
        return
    want = _outcome(lambda: reference_reader.read_panel_csv(path, riskfree_mode="btc"))
    if want[0] == "invalid":  # the old reader's Panel rejects a series
        assert want[1].endswith("the series holds one value per date")
        assert got[0] == "error" and got[3] == path
    else:
        assert got == want


def test_panel_path_parses_numbers_as_float_does(tmp_path, monkeypatch):
    # cells both parsers take, in a file laid out for np.loadtxt
    cells = ["1e-320", "-0.0", " 1.5", "2.5 ", "+3", "4.", ".5", "\u30006",
             "1e308", "0.1", "\xa07"]
    rows = [["A", f"2020-01-{i + 1:02d}"] + [cell] * 6 + ["15.0"] + [cell] * 5
            for i, cell in enumerate(cells)]
    text = io.StringIO()
    csv.writer(text).writerows([PANEL_HEADER, *rows])
    path = tmp_path / "panel.csv"
    path.write_text(text.getvalue(), encoding="utf-8", newline="")
    with monkeypatch.context() as patch:  # no row is checked one at a time
        patch.setattr(panel_module, "_rows", None)
        panel = read_panel_csv(path)
    expected = np.array([float(cell) for cell in cells])
    assert panel.ret[0].tobytes() == expected.tobytes()
    with read_csv_rows(path) as rows:  # the old reader's float() per cell
        old = reference_reader._assemble_panel(*reference_reader._read_panel_rows(rows), "tbill")
    assert _outcome(lambda: panel) == _outcome(lambda: old)


# cells of a market file: TOKENS; the control characters loadtxt skips; and
# dates that np.datetime64 parses where parse_iso_date rejects them, one of
# them with a time zone, which numpy warns of, and two of ten characters
MARKET_TOKENS = TOKENS + ["\x1c", "\x1d", "\x1e", "\x1f", "NaT", "0000-01-01",
                          "10000-01-01", "2020-01-01T00", " 2020-01-01",
                          "2020-01-01T00Z", "today", "+020-01-01", "      2020"]
# text spliced in raw, where csv.writer would have quoted it
RAW = ['"', '"1.5"', "\x00", "\x1e", "\r", "\n", ","]


def _market_rows(n):
    """n valid market rows on consecutive days from 2020-01-01."""
    start = dt.date(2020, 1, 1)
    return [[(start + dt.timedelta(days=i)).isoformat(), repr(1.0 + i / 7), repr(i / 10),
             repr(1e6 + i)] for i in range(n)]


@st.composite
def spoiled_market_files(draw):
    """A market file of up to three blocks of the block route: rows in
    regions ended by CRLF, LF or CR, the last line maybe by nothing; some
    rows quoted, some dates repeated, some cells swapped for MARKET_TOKENS,
    some rows reversed, and text of RAW, or bytes that are not UTF-8,
    spliced in anywhere."""
    n = draw(st.integers(0, 3 * ingest._BLOCK_ROWS))
    rows = _market_rows(n)
    for _ in range(draw(st.integers(0, 2)) if rows else 0):  # a repeated date
        rows[draw(st.integers(0, n - 1))][0] = rows[draw(st.integers(0, n - 1))][0]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):  # counted from the end,
        row = rows[-1 - draw(st.integers(0, n - 1))]  # as small draws lead: in a late block
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(MARKET_TOKENS))
    if rows and draw(st.booleans()):
        i, j = sorted(draw(st.integers(0, n)) for _ in range(2))
        rows[i:j] = rows[i:j][::-1]
    quoted = draw(st.sets(st.integers(0, n), max_size=draw(st.sampled_from([0, 0, 3]))))
    ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=1, max_size=3))
    text = io.StringIO()
    for k, row in enumerate([list(MARKET_HEADER)] + rows):
        csv.writer(text, lineterminator=ends[k * len(ends) // (n + 1)],
                   quoting=csv.QUOTE_ALL if k in quoted else csv.QUOTE_MINIMAL).writerow(row)
    text = text.getvalue()
    if draw(st.booleans()):  # the last line has no line end
        text = text.rstrip("\r\n")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = len(text) - draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(RAW)) + text[at:]
    data = text.encode("utf-8", "surrogatepass")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) + data[at:]
    return data


def _market_outcome(parse, path):
    """A market parser's bars as DailyBar rows, in repr (which separates
    -0.0 from 0.0), or the type and text of the ValidationError it raised."""
    try:
        series = parse(path, "C000")
    except ValidationError as exc:
        return type(exc), str(exc)
    if isinstance(series, ingest.CoinSeries):
        series = reference_bars.rows_of(series)
    return repr(series)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=spoiled_market_files())
def test_market_parser_equals_the_row_oracle(tmp_path, data):
    path = tmp_path / "C000.csv"
    path.write_bytes(data)
    got = _market_outcome(parse_market_csv, path)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:  # rejected before any row is checked
        line = data.count(b"\n", 0, exc.start) + 1
        assert got == (MalformedRow, f"{path}: line {line}: not UTF-8 text: {exc.reason}")
        return
    assert got == _market_outcome(reference_bars.parse_market_csv, path)


@pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
def test_market_parser_equals_the_row_oracle_on_each_token(tmp_path, end):
    # each token in each column of the 600th of 700 rows, in the third block
    rows = _market_rows(700)
    path = tmp_path / "C000.csv"
    for token in MARKET_TOKENS:
        for column in range(4):
            spoiled = rows[599][:column] + [token] + rows[599][column + 1 :]
            text = io.StringIO()
            csv.writer(text, lineterminator=end).writerows(
                [MARKET_HEADER, *rows[:599], spoiled, *rows[600:]])
            path.write_text(text.getvalue(), encoding="utf-8", newline="")
            got = _market_outcome(parse_market_csv, path)
            assert got == _market_outcome(reference_bars.parse_market_csv, path), (token, column)


@pytest.mark.parametrize("bad_line", [101, 201])
def test_market_file_not_utf8_is_rejected_before_its_rows(tmp_path, bad_line):
    # a bad close on line 4; the row-by-row reader met a bad byte on line
    # 101 before that close, and one on line 201 after it
    lines = [",".join(row).encode() for row in [MARKET_HEADER, *_market_rows(300)]]
    lines[3] = lines[3].replace(b",", b",-", 1)
    path = tmp_path / "C000.csv"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(NonPositivePrice) as info:
        parse_market_csv(path, "C000")
    assert info.value.line == 4
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(MalformedRow) as info:
        parse_market_csv(path, "C000")
    assert str(info.value) == f"{path}: line {bad_line}: not UTF-8 text: invalid start byte"
