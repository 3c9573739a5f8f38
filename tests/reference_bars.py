"""The one-object-per-coin-day bar model that coinfactors.ingest replaced
with a BAR_DTYPE array, kept verbatim as exact oracles: DailyBar and the
tuple-of-bars CoinSeries, the market CSV parser and writer, the universe
filter, the per-bar return loop that coinfactors.panel replaced, and the
per-date emit_raw_files that coinfactors.synth replaced.

rows_of and array_of turn a coinfactors.ingest.CoinSeries into this
module's CoinSeries and back, so that one set of bars feeds both sides.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from coinfactors import ingest
from coinfactors.errors import (
    DuplicateDate,
    EmptyUniverse,
    MalformedRow,
    NonPositivePrice,
    TooShort,
)
from coinfactors.ingest import (
    BAR_DTYPE,
    MARKET_HEADER,
    UniverseConfig,
    _check_header,
    _parse_date,
    _parse_float,
    read_csv_rows,
)
from coinfactors.panel import CHARACTERISTIC_NAMES, Panel

ONE_DAY = dt.timedelta(days=1)


@dataclass(frozen=True)
class DailyBar:
    """One coin-day: close in USD, 24h traded value in USD, cap in USD."""

    date: dt.date
    close: float
    volume: float
    market_cap: float


@dataclass(frozen=True)
class CoinSeries:
    coin_id: str
    bars: tuple[DailyBar, ...]  # ascending by date, unique dates

    def first_date(self) -> dt.date:
        return self.bars[0].date

    def last_date(self) -> dt.date:
        return self.bars[-1].date

    def cap_at_or_before(self, date: dt.date) -> float | None:
        cap = None
        for bar in self.bars:
            if bar.date > date:
                break
            cap = bar.market_cap
        return cap


def rows_of(series: ingest.CoinSeries) -> CoinSeries:
    """The bars of an array series as DailyBar rows."""
    return CoinSeries(series.coin_id, tuple(
        DailyBar(dt.date.fromordinal(day), close, volume, cap)
        for day, close, volume, cap in series.bars.tolist()
    ))


def array_of(series: CoinSeries) -> ingest.CoinSeries:
    """The DailyBar rows of a series as a BAR_DTYPE array series."""
    bars = np.array(
        [(b.date.toordinal(), b.close, b.volume, b.market_cap) for b in series.bars],
        dtype=BAR_DTYPE,
    )
    return ingest.CoinSeries(series.coin_id, bars)


def parse_market_csv(source: str | Path | io.TextIOBase, coin_id: str) -> CoinSeries:
    """Parse one coin's date,close,volume,market_cap table.

    Rows may arrive in any order; bars come out sorted ascending. Raises
    MalformedRow, naming its line (and file), for structural problems and,
    as NonPositivePrice, for close <= 0; DuplicateDate when a date repeats.
    """
    bars = []
    with read_csv_rows(source) as rows:
        _check_header(next(rows, None), MARKET_HEADER)
        for line, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise MalformedRow(line, f"{len(row)} fields, expected 4")
            date = _parse_date(row[0], line)
            close = _parse_float(row[1], line, "close")
            volume = _parse_float(row[2], line, "volume")
            cap = _parse_float(row[3], line, "market_cap")
            if close <= 0.0:
                raise NonPositivePrice(date, line)
            if volume < 0.0:
                raise MalformedRow(line, f"negative volume {row[2]!r}")
            if cap < 0.0:
                raise MalformedRow(line, f"negative market_cap {row[3]!r}")
            bars.append(DailyBar(date, close, volume, cap))
    bars.sort(key=lambda b: b.date)
    for prev, cur in zip(bars, bars[1:]):
        if prev.date == cur.date:
            raise DuplicateDate(cur.date, context=coin_id)
    return CoinSeries(coin_id=coin_id, bars=tuple(bars))


def write_market_csv(series: CoinSeries, path: str | Path) -> None:
    """Inverse of parse_market_csv, with repr round-trip float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MARKET_HEADER)
        for bar in series.bars:
            writer.writerow(
                [
                    bar.date.isoformat(),
                    repr(bar.close),
                    repr(bar.volume),
                    repr(bar.market_cap),
                ]
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
    ranked = []
    for coin in coins:
        if not coin.bars:
            continue
        age = (cfg.rank_date - coin.first_date()).days
        if age < cfg.min_history_days:
            continue
        cap = coin.cap_at_or_before(cfg.rank_date)
        if cap is None:
            continue
        ranked.append((-cap, coin.coin_id))
    if not ranked:
        raise EmptyUniverse(
            f"no coins with {cfg.min_history_days}+ days of history "
            f"at {cfg.rank_date}"
        )
    ranked.sort()
    return tuple(coin_id for _, coin_id in ranked[: cfg.top_n])


def compute_returns(series: CoinSeries) -> tuple[tuple[dt.date, float], ...]:
    """Simple daily returns close_t / close_{t-1} - 1.

    A return exists only when the immediately preceding calendar day has a
    bar; after a gap the first day gets no return. Raises TooShort below
    2 bars.
    """
    if len(series.bars) < 2:
        raise TooShort(f"{series.coin_id}: {len(series.bars)} bars, need 2")
    out = []
    for prev, cur in zip(series.bars, series.bars[1:]):
        if cur.date - prev.date == ONE_DAY:
            out.append((cur.date, cur.close / prev.close - 1.0))
    return tuple(out)


def emit_raw_files(panel: Panel, truth, out_dir: str | Path) -> None:
    """Write ingest-schema raw files consistent with the synthetic panel:
    per-coin market CSVs under market/, a Bitcoin series from the
    conditioning returns, and uncertainty / risk-free tables alongside.

    The files re-ingest cleanly; the resulting panel is not expected to be
    numerically identical to the synthetic one, because ingestion recomputes
    characteristics from rolling windows over these raw series.
    """
    out = Path(out_dir)
    market = out / "market"
    market.mkdir(parents=True, exist_ok=True)
    cfg = truth.config
    dates = [cfg.start + dt.timedelta(days=i) for i in range(cfg.n_days)]

    size = panel.raw[CHARACTERISTIC_NAMES.index("size")]
    for i, coin_id in enumerate(panel.coins):
        cols = np.flatnonzero(panel.mask[i]).tolist()
        days = [panel.dates[j] for j in cols]
        ret_by_date = dict(zip(days, panel.ret[i, cols].tolist()))
        cap_by_lag = {
            d - ONE_DAY: math.exp(s) for d, s in zip(days, size[i, cols].tolist())
        }
        close = 100.0
        bars = []
        last_cap = next(iter(cap_by_lag.values()))
        for date in dates:
            ret = ret_by_date.get(date)
            if ret is not None:
                close *= 1.0 + ret
            cap = cap_by_lag.get(date)
            if cap is not None:
                last_cap = cap
            bars.append(
                DailyBar(
                    date=date,
                    close=close,
                    volume=last_cap / 20.0,
                    market_cap=last_cap,
                )
            )
        write_market_csv(CoinSeries(coin_id, tuple(bars)), market / f"{coin_id}.csv")

    close = 20000.0
    btc_bars = []
    for i, date in enumerate(dates):
        if i > 0:
            close *= 1.0 + truth.r_btc.get(date, 0.0)
        cap = close * 1.9e7
        btc_bars.append(DailyBar(date=date, close=close, volume=cap / 20.0,
                                 market_cap=cap))
    write_market_csv(CoinSeries("BTC", tuple(btc_bars)), market / "BTC.csv")

    with open(out / "epu.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("date", "epu"))
        for date in dates:
            u = truth.u.get(date, 0.0)
            writer.writerow((date.isoformat(), repr(100.0 * math.exp(0.2 * u))))
    with open(out / "riskfree.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("date", "rate"))
        for date in dates:
            writer.writerow((date.isoformat(), repr(0.0)))
