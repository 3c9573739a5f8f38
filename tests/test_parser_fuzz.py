"""Fuzzed input files: the market, EPU, risk-free and panel parsers either
return or raise a ValidationError, never any other exception. Each file
starts as valid rows, then some cells are swapped for awkward tokens and
some raw bytes are spliced in anywhere, the header included."""

import csv
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coinfactors.errors import ValidationError
from coinfactors.ingest import (
    EPU_HEADER,
    MARKET_HEADER,
    RISKFREE_HEADER,
    parse_epu_csv,
    parse_market_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import PANEL_HEADER, read_panel_csv

LONG = "9" * 200_000  # over the csv module's 131072-character field limit
TOKENS = ["", "\x00", "﻿", "\xff", '"', '""', "a\"b", LONG, "1_0", " 1.0",
          "nan", "1e999", "-1e999", "-1", "0", "-0.0", "1e-320", "2020-02-30",
          "2020-1-1", "C001", "abc"]
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
def spoiled_files(draw):
    kind = draw(st.sampled_from(sorted(PARSERS)))
    header, make_row, _ = PARSERS[kind]
    rows = [list(header)] + [make_row(i) for i in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
    text = io.StringIO()
    csv.writer(text).writerows(rows)
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
