"""Input acquisition: strict CSV parsers for the three source tables, the
package's one CSV reader and one CSV writer (UTF-8 whatever the locale), and
universe selection. Every input is read from local files; ingest does no
network access, so its only I/O failures are file-system ones.

Parsers are deliberately unforgiving. A malformed row names its file and
line, text must be UTF-8, headers must match exactly (extra columns
rejected, not ignored), dates must be YYYY-MM-DD, and duplicates are
errors: silent repair upstream turns into unexplainable numbers downstream.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import datetime as dt
import functools
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyUniverse,
    InvalidConfig,
    MalformedRow,
    NegativeLevel,
    NonPositivePrice,
)

MARKET_HEADER = ("date", "close", "volume", "market_cap")
EPU_HEADER = ("date", "epu")
RISKFREE_HEADER = ("date", "rate")


# One coin-day: day is date.toordinal(); close, 24h traded value and cap in USD.
BAR_DTYPE = np.dtype(
    [("day", np.int64), ("close", float), ("volume", float), ("market_cap", float)]
)

# One day of a conditioning series (uncertainty, annual risk-free rate).
LEVEL_DTYPE = np.dtype([("day", np.int64), ("level", float)])


@dataclass(frozen=True, eq=False)
class CoinSeries:
    """One coin's bars: a read-only 1-D BAR_DTYPE array, ascending by day
    with unique days. The constructor raises DuplicateDate for a repeated
    day and InvalidConfig for any other malformed layout."""

    coin_id: str
    bars: np.ndarray

    def __post_init__(self):
        bars = np.array(self.bars)  # a copy no caller holds, so none can write it
        if bars.dtype != BAR_DTYPE or bars.ndim != 1:
            raise InvalidConfig(f"{self.coin_id}: bars must be a 1-D BAR_DTYPE array")
        step = np.diff(bars["day"])
        if (step < 0).any():
            raise InvalidConfig(f"{self.coin_id}: bars must ascend by day")
        if (step == 0).any():
            day = int(bars["day"][np.flatnonzero(step == 0)[0]])
            raise DuplicateDate(dt.date.fromordinal(day), context=self.coin_id)
        bars.flags.writeable = False
        object.__setattr__(self, "bars", bars)


@dataclass(frozen=True)
class UniverseConfig:
    """Universe filter: coins ranked by cap at rank_date, kept if their
    history starts at least min_history_days earlier. filter_universe needs
    a rank_date; None stands for the last date seen in the data. top_n must
    be at least 1 and min_history_days non-negative; InvalidConfig
    otherwise."""

    rank_date: dt.date | None = None
    top_n: int = 200
    min_history_days: int = 365

    def __post_init__(self):
        if self.top_n < 1:
            raise InvalidConfig(f"top_n {self.top_n} must be at least 1")
        if self.min_history_days < 0:
            raise InvalidConfig(
                f"min_history_days {self.min_history_days} must be non-negative"
            )


@contextlib.contextmanager
def read_csv_rows(source: str | Path) -> Iterator[Iterator[list[str]]]:
    """The rows of the CSV file at source, for one with block, under
    _file_errors: a MalformedRow raised in the block names the file, and so
    does text that is not UTF-8. A field over the csv module's size limit
    raises MalformedRow too, never csv.Error."""
    with _file_errors(source), open(source, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None


@contextlib.contextmanager
def write_csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[Callable]:
    """A new UTF-8 CSV file at path, its header row written, for one with
    block, in csv.writer's dialect: fields quoted only where they must be,
    lines ended by CRLF. The block gets write: write(rows) writes rows as
    csv.writer does; write(tails, key) writes one row per tail in one write,
    key quoted as csv.writer quotes it, then tail, already in the dialect."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        # a csv.writer keeps a 128 KiB record buffer: none outlives its call
        def write(rows: Iterable, key: str | None = None) -> None:
            if key is None:
                csv.writer(handle).writerows(rows)
            else:
                lead = io.StringIO()
                csv.writer(lead).writerow((key, ""))
                lead = lead.getvalue()[: -len("\r\n")]
                handle.write("".join(lead + tail + "\r\n" for tail in rows))

        write([header])
        yield write


@contextlib.contextmanager
def _file_errors(path: str | Path) -> Iterator[None]:
    """The one error rule of a file's reads, for one with block: a
    MalformedRow raised in the block names path, and text that is not UTF-8
    raises a MalformedRow naming path and the line of its first bad byte."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path)
        raise MalformedRow(line, f"not UTF-8 text: {exc.reason}", path) from None
    except MalformedRow as exc:
        exc.path = path
        raise


def _undecodable_line(path: str | Path) -> int:
    """The line of the first byte of a file that is not UTF-8, 0 if none,
    decoding the file 64 KiB at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    with open(path, "rb") as handle:
        for chunk in iter(functools.partial(handle.read, 1 << 16), b""):
            try:
                decoder.decode(chunk)
            except UnicodeDecodeError as exc:  # exc.object: held bytes, then chunk
                return line + exc.object.count(b"\n", 0, exc.start)
            line += chunk.count(b"\n")
    try:
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:  # a character cut off by the end of the file
        return line
    return 0


def _check_header(row: Sequence[str] | None, expected: tuple[str, ...]) -> None:
    if row is None:
        raise MalformedRow(1, "empty input, expected a header row")
    if tuple(row) != expected:
        raise MalformedRow(1, f"header {row!r}, expected {list(expected)!r}")


def parse_iso_date(text: str) -> dt.date:
    """A YYYY-MM-DD date; ValueError for any other text. date.fromisoformat
    alone also takes 20200102 and 2020-W01-3 from Python 3.11 on."""
    date = dt.date.fromisoformat(text)
    if date.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date


def _parse_date(text: str, line: int) -> dt.date:
    try:
        return parse_iso_date(text)
    except ValueError:
        raise MalformedRow(line, f"bad date {text!r}") from None


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(line, f"bad {column} {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line, f"non-finite {column} {text!r}")
    return value


def _dated_rows(
    rows: Iterator[list[str]], header: tuple[str, ...]
) -> Iterator[tuple[int, dt.date, list[float], list[str]]]:
    """The data rows of a table whose header must be header, a date column
    first: (line, date, the other columns' numbers, row). Blank rows are
    skipped; a wrong field count, a bad date or a bad or non-finite number
    raises MalformedRow, in that order."""
    _check_header(next(rows, None), header)
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise MalformedRow(line, f"{len(row)} fields, expected {len(header)}")
        date = _parse_date(row[0], line)
        values = list(map(_parse_float, row[1:], itertools.repeat(line), header[1:]))
        yield line, date, values, row


def parse_market_csv(source: str | Path, coin_id: str) -> CoinSeries:
    """Parse one coin's date,close,volume,market_cap table.

    Rows may arrive in any order; bars come out sorted ascending. Raises
    MalformedRow, naming its file and line, for structural problems and,
    as NonPositivePrice, for close <= 0; DuplicateDate when a date repeats.
    """
    records = []
    with read_csv_rows(source) as rows:
        for line, date, (close, volume, cap), row in _dated_rows(rows, MARKET_HEADER):
            if close <= 0.0:
                raise NonPositivePrice(date, line)
            if volume < 0.0:
                raise MalformedRow(line, f"negative volume {row[2]!r}")
            if cap < 0.0:
                raise MalformedRow(line, f"negative market_cap {row[3]!r}")
            records.append((date.toordinal(), close, volume, cap))
    bars = np.array(records, dtype=BAR_DTYPE)
    # sorted by day, the constructor raises DuplicateDate for the first repeat
    return CoinSeries(coin_id, bars[np.argsort(bars["day"], kind="stable")])


def _parse_level_csv(
    source: str | Path,
    header: tuple[str, ...],
    check: Callable[[float, dt.date, int], None],
) -> np.ndarray:
    values: dict[int, float] = {}  # by day ordinal, in line order
    with read_csv_rows(source) as rows:
        for line, date, (value,), _ in _dated_rows(rows, header):
            check(value, date, line)
            if date.toordinal() in values:
                raise DuplicateDate(date, context=header[1])
            values[date.toordinal()] = value
    return np.array(sorted(values.items()), dtype=LEVEL_DTYPE)


def _check_epu(value: float, date: dt.date, line: int) -> None:
    if value < 0.0:
        raise NegativeLevel(date)


def _check_rate(value: float, date: dt.date, line: int) -> None:
    # (1 + rate)^(1/365) de-annualizes the rate, so 1 + rate must be positive
    if value <= -1.0:
        raise MalformedRow(line, f"rate {value!r} on {date.isoformat()} must exceed -1")


def parse_epu_csv(source: str | Path) -> np.ndarray:
    """Parse the date,epu uncertainty series into a LEVEL_DTYPE array,
    ascending by day. Negative levels are rejected."""
    return _parse_level_csv(source, EPU_HEADER, _check_epu)


def parse_riskfree_csv(source: str | Path) -> np.ndarray:
    """Parse the date,rate annualized risk-free series into a LEVEL_DTYPE
    array, ascending by day. Rates may be negative but must exceed -1
    (MalformedRow otherwise)."""
    return _parse_level_csv(source, RISKFREE_HEADER, _check_rate)


def write_market_csv(series: CoinSeries, path: str | Path) -> None:
    """Inverse of parse_market_csv, with repr round-trip float formatting."""
    with write_csv_rows(path, MARKET_HEADER) as write:
        write(
            (dt.date.fromordinal(day).isoformat(), repr(close), repr(volume), repr(cap))
            for day, close, volume, cap in series.bars.tolist()
        )


def filter_universe(
    coins: Sequence[CoinSeries], cfg: UniverseConfig
) -> tuple[str, ...]:
    """Select the estimation universe as of cfg.rank_date.

    A coin qualifies when its first bar is at least min_history_days before
    rank_date and it has a market-cap observation at or before rank_date
    (the latest such bar ranks it). Qualifying coins are ordered by that cap,
    descending, ties broken by ascending coin_id, and the top_n ids returned.
    Raises EmptyUniverse when nothing survives.
    """
    rank = cfg.rank_date.toordinal()
    ranked = []
    for coin in coins:
        day = coin.bars["day"]
        if not day.size or rank - day[0] < cfg.min_history_days:
            continue
        # the latest bar at or before rank_date; the age check puts one there
        at = np.searchsorted(day, rank, side="right") - 1
        ranked.append((-coin.bars["market_cap"][at].item(), coin.coin_id))
    if not ranked:
        raise EmptyUniverse(
            f"no coins with {cfg.min_history_days}+ days of history "
            f"at {cfg.rank_date}"
        )
    ranked.sort()
    return tuple(coin_id for _, coin_id in ranked[: cfg.top_n])


def load_coin_dir(directory: str | Path) -> tuple[CoinSeries, ...]:
    """Read every *.csv in directory as one coin. The stem is the coin id.

    Raises EmptyUniverse when the directory holds no such file, and
    MalformedRow, naming the file, for one with a header but no data rows.
    """
    paths = sorted(Path(directory).glob("*.csv"))
    if not paths:
        raise EmptyUniverse(f"no market CSV files in {directory}")
    coins = []
    for path in paths:
        series = parse_market_csv(path, path.stem)
        if not series.bars.size:
            raise MalformedRow(2, "the file has a header but no data rows", path=path)
        coins.append(series)
    return tuple(coins)
