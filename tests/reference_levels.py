"""The level parsers that coinfactors.ingest replaced with LEVEL_DTYPE
arrays, kept verbatim as exact oracles: each returns a {date: level} dict
ascending by date. The row checks and the CSV reader are unchanged and
come from the package.
"""

from __future__ import annotations

import datetime as dt
import io
from pathlib import Path
from typing import Callable

from coinfactors.errors import DuplicateDate, MalformedRow, NegativeLevel
from coinfactors.ingest import (
    EPU_HEADER,
    RISKFREE_HEADER,
    _check_header,
    _parse_date,
    _parse_float,
    read_csv_rows,
)


def _parse_level_csv(
    source: str | Path | io.TextIOBase,
    header: tuple[str, ...],
    column: str,
    check: Callable[[float, dt.date, int], None],
) -> dict[dt.date, float]:
    values: dict[dt.date, float] = {}
    with read_csv_rows(source) as rows:
        _check_header(next(rows, None), header)
        for line, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRow(line, f"{len(row)} fields, expected 2")
            date = _parse_date(row[0], line)
            value = _parse_float(row[1], line, column)
            check(value, date, line)
            if date in values:
                raise DuplicateDate(date, context=column)
            values[date] = value
    return dict(sorted(values.items()))


def _check_epu(value: float, date: dt.date, line: int) -> None:
    if value < 0.0:
        raise NegativeLevel(date)


def _check_rate(value: float, date: dt.date, line: int) -> None:
    # (1 + rate)^(1/365) de-annualizes the rate, so 1 + rate must be positive
    if value <= -1.0:
        raise MalformedRow(line, f"rate {value!r} on {date.isoformat()} must exceed -1")


def parse_epu_csv(source: str | Path | io.TextIOBase) -> dict[dt.date, float]:
    """Parse the date,epu uncertainty series. Negative levels are rejected.

    Returns a dict whose iteration order is ascending by date.
    """
    return _parse_level_csv(source, EPU_HEADER, "epu", _check_epu)


def parse_riskfree_csv(source: str | Path | io.TextIOBase) -> dict[dt.date, float]:
    """Parse the date,rate annualized risk-free series. Rates may be negative
    but must exceed -1 (MalformedRow otherwise)."""
    return _parse_level_csv(source, RISKFREE_HEADER, "rate", _check_rate)
