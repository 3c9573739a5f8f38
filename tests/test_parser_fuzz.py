"""Fuzzed input files: the market, EPU, risk-free and panel parsers either
return or raise a ValidationError, never any other exception. Each file
starts as valid rows (none, or some, ended by CRLF or LF), then some cells
are swapped for awkward tokens and some raw bytes are spliced in anywhere,
the header included.

A panel file path may take the one-call parse, while a text stream always
takes the row parser, so the same text read both ways must give the same
Panel bit for bit, or the same MalformedRow line and message. The EPU and
risk-free parsers must give the rows, or the error type and message, of
the dict-returning parsers they replaced (tests/reference_levels.py),
whatever the row order and wherever a date repeats."""

import csv
import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_levels
from coinfactors import panel as panel_module
from coinfactors.errors import MalformedRow, ValidationError
from coinfactors.ingest import (
    EPU_HEADER,
    MARKET_HEADER,
    RISKFREE_HEADER,
    parse_epu_csv,
    parse_market_csv,
    parse_riskfree_csv,
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
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    csv.writer(text, lineterminator=terminator).writerows(rows)
    data = text.getvalue().encode("utf-8", "surrogatepass")
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
    """What a read gives: the Panel's fields, or the MalformedRow's line,
    message and file."""
    try:
        panel = read()
    except MalformedRow as exc:
        return ("error", exc.line, exc.message, exc.path)
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
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        assert got[0] == "error" and got[3] == path
        return
    stream = io.StringIO(text, newline="")
    want = _outcome(lambda: read_panel_csv(stream, riskfree_mode="btc"))
    if want[0] == "error":
        want = want[:3] + (path,)
    assert got == want


def test_panel_path_parses_numbers_as_float_does(tmp_path, monkeypatch):
    # cells both parsers take, in a file laid out for the one-call parse
    cells = ["1e-320", "-0.0", " 1.5", "2.5 ", "+3", "4.", ".5", "\u30006",
             "1e308", "0.1", "\xa07"]
    rows = [["A", f"2020-01-{i + 1:02d}"] + [cell] * 6 + ["15.0"] + [cell] * 5
            for i, cell in enumerate(cells)]
    text = io.StringIO()
    csv.writer(text).writerows([PANEL_HEADER, *rows])
    path = tmp_path / "panel.csv"
    path.write_text(text.getvalue(), encoding="utf-8", newline="")
    with monkeypatch.context() as patch:  # the row parser must not run
        patch.setattr(panel_module, "_read_panel_rows", None)
        panel = read_panel_csv(path)
    expected = np.array([float(cell) for cell in cells])
    assert panel.ret[0].tobytes() == expected.tobytes()
    assert _outcome(lambda: panel) == _outcome(
        lambda: read_panel_csv(io.StringIO(text.getvalue(), newline=""))
    )
