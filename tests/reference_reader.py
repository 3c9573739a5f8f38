"""The panel file reader and the per-build cap computation that
coinfactors replaced, kept verbatim as exact oracles: read_panel_csv and its
three helpers, which carried each row's coin id and date string to one
assembly, and factors._caps, which every factor build called on the
panel's size_raw cells. The row checks and the CSV reader are unchanged and
come from the package. _panel_of is the package's as it was when the Panel
held u and r_btc as (coins, dates) grids: it hands the Panel both as grids,
and the Panel keeps their one value per date, or raises InvalidConfig where
a date's rows differ. That is the one place the package parts from this
oracle: its reader rejects such a file with a MalformedRow.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import math
import operator
from pathlib import Path
from typing import Sequence

import numpy as np

from coinfactors.errors import MalformedRow
from coinfactors.ingest import parse_iso_date, read_csv_rows
from coinfactors.panel import (
    CHARACTERISTIC_NAMES,
    PANEL_HEADER,
    Panel,
    _is_market_cap,
)


def read_panel_csv(
    source: str | Path | io.TextIOBase, riskfree_mode: str = "tbill"
) -> Panel:
    """Parse a panel CSV back into a Panel.

    The file format carries no risk-free mode, so the caller supplies it
    (it travels in run configs and manifests). A row with the wrong field
    count, an unparsable or non-finite value, a size_raw whose exponential
    is no positive finite market cap, a (coin_id, date) seen on an earlier
    line, text that is not UTF-8 or an over-long field raises MalformedRow
    naming its line, and the file when source is a path; so does a header
    with no data rows below it.

    A file laid out as write_panel_csv writes it is parsed by one
    np.loadtxt call. Any other file, and every text stream, goes through
    the row parser, which alone accepts, rejects and words the errors.
    """
    if isinstance(source, (str, Path)):
        panel = _read_panel_file(source, riskfree_mode)
        if panel is not None:
            return panel
    with read_csv_rows(source) as rows:
        return _assemble_panel(*_read_panel_rows(rows), riskfree_mode)



_HEADER_LINE = ",".join(PANEL_HEADER) + "\r\n"  # the first line write_panel_csv writes
_SIZE_AT = PANEL_HEADER.index("size_raw") - 2  # position among the numbers
# a quote or NUL needs the csv reader's judgement; loadtxt skips U+001C-U+001F
# around a number as whitespace, where float() rejects them
_IRREGULAR = '"\x00\x1c\x1d\x1e\x1f'
_BLOCK_CHARS = 1 << 16  # size hint of the line blocks fed to loadtxt
_split_keys = operator.methodcaller("split", ",", 2)


def _read_panel_file(path: str | Path, riskfree_mode: str) -> Panel | None:
    """The Panel of a panel file in write_panel_csv's layout, its numbers
    parsed by one np.loadtxt call; None for any file the row parser must
    judge. Raises only what opening the file raises.

    The file streams through in blocks of lines. A block qualifies when
    every line ends in CRLF and is no longer than the csv module's field
    limit, and no character of _IRREGULAR occurs: the csv reader then
    splits each line at its commas. loadtxt takes the numbers after the
    second comma and rejects a line whose count differs. Where loadtxt and
    float() both take a cell they give the same bits, and comments=None
    keeps loadtxt from cutting a cell at #; a cell only float() takes (1_0,
    a non-ASCII digit) fails loadtxt.
    """
    coins: list[str] = []
    days: list[str] = []
    limit = csv.field_size_limit()

    def numbers(handle):
        for lines in iter(lambda: handle.readlines(_BLOCK_CHARS), []):
            block = "".join(lines)
            if (
                block.count("\r\n") != len(lines)
                or max(map(len, lines)) > limit
                or any(c in block for c in _IRREGULAR)
            ):
                raise ValueError("irregular block")
            block_coins, block_days, rest = zip(*map(_split_keys, lines))
            coins.extend(block_coins)
            days.extend(block_days)
            yield from rest

    try:
        with open(path, newline="", encoding="utf-8") as handle:
            if handle.readline() != _HEADER_LINE:
                return None
            lines = numbers(handle)
            first = next(lines, None)
            if first is None:  # loadtxt warns on empty input
                return None
            table = np.loadtxt(
                itertools.chain([first], lines),
                delimiter=",", comments=None, dtype=float, ndmin=2,
            )
        date_of = {day: parse_iso_date(day) for day in set(days)}
    except ValueError:  # UnicodeDecodeError is one too
        return None
    if table.shape[1] != len(PANEL_HEADER) - 2 or not np.isfinite(table).all():
        return None
    size = table[:, _SIZE_AT]
    # exp of anything within +-700 is a positive finite float
    if not all(map(_is_market_cap, size[np.abs(size) > 700.0].tolist())):
        return None
    panel = _assemble_panel(coins, [date_of[d] for d in days], table, riskfree_mode)
    if int(panel.mask.sum()) != len(table):  # a (coin_id, date) repeats
        return None
    return panel


def _read_panel_rows(rows) -> tuple[list[str], list[dt.date], np.ndarray]:
    """Each data row's coin_id, date and numbers, checked row by row."""
    header = next(rows, None)
    if header is None or tuple(header) != PANEL_HEADER:
        raise MalformedRow(1, f"header {header!r}, expected {list(PANEL_HEADER)!r}")
    day_of: dict[str, dt.date] = {}
    seen: set[tuple[str, dt.date]] = set()
    coins = []
    dates = []
    values = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(PANEL_HEADER):
            raise MalformedRow(line, f"{len(row)} fields, expected {len(PANEL_HEADER)}")
        try:
            date = day_of.get(row[1])
            if date is None:
                date = day_of[row[1]] = parse_iso_date(row[1])
            numbers = [float(x) for x in row[2:]]
        except ValueError as exc:
            raise MalformedRow(line, str(exc)) from None
        if not all(map(math.isfinite, numbers)):
            raise MalformedRow(line, "non-finite value")
        if not _is_market_cap(numbers[_SIZE_AT]):
            raise MalformedRow(
                line,
                f"size_raw {numbers[_SIZE_AT]!r}: exp(size_raw) is no positive finite "
                "market cap",
            )
        key = (row[0], date)
        if key in seen:
            raise MalformedRow(
                line, f"duplicate observation of {row[0]} on {date.isoformat()}"
            )
        seen.add(key)
        coins.append(row[0])
        dates.append(date)
        values.append(numbers)
    if not values:
        raise MalformedRow(2, "the file has a header but no data rows")
    table = np.array(values, dtype=float)
    return coins, dates, table


def _assemble_panel(
    coins: Sequence[str],
    dates: Sequence[dt.date],
    table: np.ndarray,
    riskfree_mode: str,
) -> Panel:
    """The Panel of parsed panel rows: row k is coins[k] on dates[k], with
    table[k] the numbers in PANEL_HEADER order."""
    coin_ids = sorted(set(coins))
    days = sorted(set(dates))
    row_of = {c: i for i, c in enumerate(coin_ids)}
    col_of = {d: j for j, d in enumerate(days)}
    rows = [row_of[c] for c in coins]
    cols = [col_of[d] for d in dates]
    return _panel_of(coin_ids, days, rows, cols, table.T, riskfree_mode)


def _panel_of(
    coins: Sequence[str], dates: Sequence[dt.date], rows, cols, columns,
    riskfree_mode: str,
) -> Panel:
    """The Panel of a coin-day table: entry k of each of columns (the
    numbers in PANEL_HEADER order) is coins[rows[k]] on dates[cols[k]]."""
    shape = (len(coins), len(dates))
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    grid = np.zeros((len(PANEL_HEADER) - 2,) + shape)
    grid[:, rows, cols] = columns
    n = len(CHARACTERISTIC_NAMES)
    ret, excess, z, raw = grid[0], grid[1], grid[2 : 2 + n], grid[2 + n : 2 + 2 * n]
    u, r_btc = grid[2 + 2 * n :]
    return Panel(coins, dates, mask, ret, excess, z, raw, u, r_btc, riskfree_mode)


def _caps(size_raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Lagged market caps from size_raw (ln cap), one math.exp per value:
    np.exp can differ from it in the last bit."""
    return np.array([math.exp(x) for x in np.asarray(size_raw, dtype=float).tolist()])
