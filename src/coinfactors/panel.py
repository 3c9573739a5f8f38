"""Aligned coin-day panel: daily returns, excess returns, lagged coin
characteristics, and lagged conditioning variables (uncertainty level,
Bitcoin return).

Look-ahead safety is the organizing rule: everything attached to an
observation at date t other than the return itself must be computable from
data dated t-1 or earlier. Characteristic windows therefore end at t-1, and
the conditioning values carry an explicit one-day lag.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoverageGap,
    DuplicateDate,
    InsufficientHistory,
    InvalidConfig,
    MalformedRow,
    MissingBitcoin,
    MissingCharacteristic,
    TooShort,
)
from .ingest import CoinSeries

ONE_DAY = dt.timedelta(days=1)

CHARACTERISTIC_NAMES = ("size", "momentum", "liquidity", "value")

# tbill: excess over the de-annualized T-bill rate; btc: over Bitcoin's return
RISKFREE_MODES = ("tbill", "btc")

WINSOR = (1.0, 99.0)  # default cross-sectional percentiles (lower, upper)

# short column codes used by every CSV surface
SHORT_CODES = {"size": "size", "momentum": "mom", "liquidity": "liq", "value": "val"}

PANEL_HEADER = (
    "coin_id",
    "date",
    "ret",
    "excess",
    "size_z",
    "mom_z",
    "liq_z",
    "val_z",
    "size_raw",
    "mom_raw",
    "liq_raw",
    "val_raw",
    "u_lag",
    "rbtc_lag",
)


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


def daily_riskfree(annual_rate: float) -> float:
    """Geometric de-annualization over 365 days: (1 + a)^(1/365) - 1."""
    if annual_rate <= -1.0:
        raise ValueError(f"annual rate {annual_rate} must exceed -1")
    return (1.0 + annual_rate) ** (1.0 / 365.0) - 1.0


@dataclass(frozen=True)
class CharacteristicWindows:
    """Lookback windows in calendar days. The momentum window covers
    [d-momentum_days, d-1]; liquidity covers the liquidity_days ending at d;
    the long-horizon value proxy covers [d-value_far_days, d-value_near_days].
    A window with under min_valid_share of its days valid yields no value.
    Every window must hold at least one day and end no later than d, and
    min_valid_share must lie in (0, 1]; InvalidConfig otherwise.
    """

    momentum_days: int = 28
    liquidity_days: int = 30
    value_near_days: int = 31
    value_far_days: int = 365
    min_valid_share: float = 0.5

    def __post_init__(self):
        if self.momentum_days < 1 or self.liquidity_days < 1:
            raise InvalidConfig(
                f"momentum_days {self.momentum_days} and liquidity_days "
                f"{self.liquidity_days} must be at least 1"
            )
        if not 0 <= self.value_near_days <= self.value_far_days:
            raise InvalidConfig(
                f"value window needs 0 <= value_near_days "
                f"({self.value_near_days}) <= value_far_days ({self.value_far_days})"
            )
        if not 0.0 < self.min_valid_share <= 1.0:
            raise InvalidConfig(
                f"min_valid_share {self.min_valid_share} must lie in (0, 1]"
            )


@dataclass(frozen=True)
class RawCharacteristics:
    """Raw characteristic levels at one coin-date; None marks a
    characteristic whose window had too little data."""

    size: float | None
    momentum: float | None
    liquidity: float | None
    value: float | None

    def missing(self) -> tuple[str, ...]:
        return tuple(n for n in CHARACTERISTIC_NAMES if getattr(self, n) is None)


def _trailing(
    combine: np.ufunc, start: float, daily: np.ndarray, valid: np.ndarray, backs: range
) -> tuple[list[float], list[int]]:
    """For every grid day i, fold daily[i - back] into start with combine,
    one back-offset at a time in the order of backs, and count the valid
    days. Offsets that reach before the grid contribute nothing.

    The fold keeps the per-day loop's order of operations, so do not replace
    it with np.prod, np.sum, cumsum or prefix differences: they reorder the
    arithmetic and change the last bits.
    """
    n = daily.size
    total = np.full(n, start)
    count = np.zeros(n, dtype=np.int64)
    for back in backs:
        combine(total[back:], daily[: n - back], out=total[back:])
        count[back:] += valid[: n - back]
    return total.tolist(), count.tolist()


class _CoinView:
    """One coin's raw characteristics on its calendar grid.

    Grid day k is the first bar's date plus k days. The grid runs from the
    first bar to the last day whose windows still reach a bar, plus one
    final day on which every window is empty; dates off the grid resolve to
    that final day. Each window is folded once for every grid day, with 1.0
    (products) or 0.0 (sums) on days without data. Both are exact, so every
    value equals a day-by-day walk over the same window bit for bit.
    """

    def __init__(self, series: CoinSeries, windows: CharacteristicWindows):
        self.windows = w = windows
        bars = series.bars
        if len(bars) >= 2:
            self.returns = dict(compute_returns(series))
        else:
            self.returns = {}
        self.origin = bars[0].date if bars else dt.date.min
        span = (bars[-1].date - self.origin).days + 1 if bars else 0
        reach = max(w.momentum_days, w.liquidity_days - 1, w.value_far_days)
        n = span + reach + 1

        cap = np.zeros(n)
        growth = np.ones(n)  # 1 + ret; 1.0 on a day with no return
        has_return = np.zeros(n, dtype=np.int64)
        amihud = np.zeros(n)  # |ret| / volume; 0.0 without return or volume
        has_amihud = np.zeros(n, dtype=np.int64)
        volume = {}
        for bar in bars:
            cap[(bar.date - self.origin).days] = bar.market_cap
            volume[bar.date] = bar.volume
        for date, ret in self.returns.items():
            k = (date - self.origin).days
            growth[k] = 1.0 + ret
            has_return[k] = 1
            if volume[date] > 0.0:
                amihud[k] = abs(ret) / volume[date]
                has_amihud[k] = 1

        self.cap = cap.tolist()
        # each window: (fold, valid-day count), one entry per grid day
        self.momentum = _trailing(
            np.multiply, 1.0, growth, has_return, range(1, w.momentum_days + 1)
        )
        self.amihud = _trailing(
            np.add, 0.0, amihud, has_amihud, range(w.liquidity_days)
        )
        self.long_term = _trailing(
            np.multiply,
            1.0,
            growth,
            has_return,
            range(w.value_near_days, w.value_far_days + 1),
        )

    def _cumulative_return(
        self, window: tuple[list[float], list[int]], k: int, window_len: int
    ) -> float | None:
        growth, valid = window[0][k], window[1][k]
        if valid < self.windows.min_valid_share * window_len:
            return None
        return growth - 1.0

    def raw_at(self, date: dt.date) -> RawCharacteristics:
        w = self.windows
        k = (date - self.origin).days
        if not 0 <= k < len(self.cap):
            k = -1
        size = None
        if self.cap[k] > 0.0:
            size = math.log(self.cap[k])

        momentum = self._cumulative_return(self.momentum, k, w.momentum_days)

        amihud_sum, amihud_days = self.amihud[0][k], self.amihud[1][k]
        liquidity = None
        if amihud_days >= w.min_valid_share * w.liquidity_days:
            mean = amihud_sum / amihud_days
            if mean > 0.0:
                liquidity = -math.log(mean)

        long_term = self._cumulative_return(
            self.long_term, k, w.value_far_days - w.value_near_days + 1
        )
        value = None if long_term is None else -long_term

        return RawCharacteristics(size, momentum, liquidity, value)


def compute_characteristics(
    series: CoinSeries,
    date: dt.date,
    windows: CharacteristicWindows = CharacteristicWindows(),
    require_all: bool = False,
) -> RawCharacteristics:
    """Raw characteristics for one coin at one date.

    size: ln(market cap at date); momentum: cumulative return over the
    momentum window ending the day before; liquidity: -ln(mean |ret|/volume
    over the liquidity window, zero-volume days excluded); value: sign-flipped
    cumulative return over the long-horizon window. A window with under
    min_valid_share valid days yields None, or InsufficientHistory when
    require_all is set.
    """
    raw = _CoinView(series, windows).raw_at(date)
    if require_all:
        missing = raw.missing()
        if missing:
            raise InsufficientHistory(missing[0], f"{series.coin_id} at {date}")
    return raw


@dataclass(frozen=True)
class Drop:
    """One excluded coin-day (date None when the whole coin fell out)."""

    coin_id: str
    date: dt.date | None
    reason: str


# the Panel's array fields, one cell per (coin, date)
_COLUMNS = ("mask", "ret", "excess", "z", "raw", "u", "r_btc")


@dataclass(frozen=True, eq=False)
class Panel:
    """Coin-day observations as columns over sorted coins x sorted dates.

    mask[i, j] marks the coin-days present; the other arrays hold one value
    per cell, and only present cells carry meaning. ret, excess, u (the
    standardized uncertainty level at t-1) and r_btc (the Bitcoin return at
    t-1) are (coins, dates); z (winsorized cross-sectional z-scores) and raw
    (levels at t-1) are (characteristics, coins, dates) in
    CHARACTERISTIC_NAMES order. Every coin and every date has at least one
    observation, and the arrays are read-only. riskfree_mode records whether
    excess returns were taken against the treasury rate ("tbill") or the
    Bitcoin return ("btc").

    The constructor raises DuplicateDate for a repeated date and
    InvalidConfig for any other malformed layout.
    """

    coins: tuple[str, ...]
    dates: tuple[dt.date, ...]
    mask: np.ndarray
    ret: np.ndarray
    excess: np.ndarray
    z: np.ndarray
    raw: np.ndarray
    u: np.ndarray
    r_btc: np.ndarray
    riskfree_mode: str
    dropped: tuple[Drop, ...] = ()
    coin_index: Mapping[str, int] = field(init=False, repr=False)
    date_index: Mapping[dt.date, int] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("coins", "dates", "dropped"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur == prev:
                raise DuplicateDate(cur, context="panel dates")
        for axis in (self.coins, self.dates):
            if any(cur <= prev for prev, cur in zip(axis, axis[1:])):
                raise InvalidConfig("panel coins and dates must be sorted and unique")
        shape = (len(self.coins), len(self.dates))
        for name in _COLUMNS:
            values = np.asarray(
                getattr(self, name), dtype=bool if name == "mask" else float
            )
            want = shape
            if name in ("z", "raw"):
                want = (len(CHARACTERISTIC_NAMES),) + shape
            if values.shape != want:
                raise InvalidConfig(
                    f"panel {name} has shape {values.shape}, expected {want}"
                )
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if not (self.mask.any(axis=1).all() and self.mask.any(axis=0).all()):
            raise InvalidConfig("every panel coin and date needs an observation")
        object.__setattr__(self, "coin_index", {c: i for i, c in enumerate(self.coins)})
        object.__setattr__(self, "date_index", {d: j for j, d in enumerate(self.dates)})


def characteristic_index(name: str) -> int:
    """Position of a characteristic in Panel.z and Panel.raw."""
    if name not in CHARACTERISTIC_NAMES:
        raise MissingCharacteristic(name)
    return CHARACTERISTIC_NAMES.index(name)


def winsorized_zscores(
    values: Sequence[float] | np.ndarray,
    lower: float = WINSOR[0],
    upper: float = WINSOR[1],
) -> np.ndarray:
    """Winsorize each row (the last axis) at the given percentiles of that
    row, then z-score it with the row's population standard deviation. A
    row of under 2 values, or of zero variance after clipping, scores 0
    throughout; a 1-D argument is one row.

    The clipped values land in a fresh C-ordered buffer that is then scored
    in place, so every mean and standard deviation reduces one contiguous
    row. numpy sums such a row pairwise exactly as it sums a 1-D array, so
    a row scores the same bits whatever stack it sits in."""
    x = np.asarray(values, dtype=float)
    out = np.zeros(x.shape)
    if x.shape[-1] < 2:
        return out
    lo, hi = np.percentile(x, [lower, upper], axis=-1, keepdims=True)
    np.clip(x, lo, hi, out=out)
    sd = out.std(axis=-1, keepdims=True)
    out -= out.mean(axis=-1, keepdims=True)
    flat = sd == 0.0
    np.divide(out, sd, out=out, where=~flat)
    np.copyto(out, 0.0, where=flat)
    return out


def columns_by_count(mask: np.ndarray, cols: np.ndarray | None = None):
    """Group columns of a boolean (rows, columns) mask by how many entries
    they set, all columns unless cols names some. Yields (count, cols, rows)
    per distinct count, ascending: cols keeps the given order and rows is a
    (len(cols), count) array whose row b lists the set rows of cols[b]
    ascending, ready to gather one stacked cross-section per column."""
    if cols is None:
        cols = np.arange(mask.shape[1])
    sub = mask[:, cols]
    counts = sub.sum(axis=0)
    # not np.unique, which imports numpy.ma: about 1 MB of resident memory
    for n in sorted(set(counts.tolist())):
        group = np.flatnonzero(counts == n)
        rows = np.nonzero(sub[:, group].T)[1].reshape(group.size, n)
        yield n, cols[group], rows


def standardize_cross_section(
    panel: Panel, lower: float = WINSOR[0], upper: float = WINSOR[1]
) -> Panel:
    """Recompute every z-unit characteristic from the stored raw levels,
    per date across the coins present. Idempotent; raw values pass through
    unchanged. Dates with the same number of coins present are scored as
    one stack, one row per date."""
    z = np.zeros_like(panel.raw)
    for _, cols, rows in columns_by_count(panel.mask):
        at = (rows, cols[:, None])
        for m in range(len(CHARACTERISTIC_NAMES)):
            z[m][at] = winsorized_zscores(panel.raw[m][at], lower, upper)
    return dataclasses.replace(panel, z=z)


@dataclass(frozen=True)
class PanelOptions:
    """riskfree_mode must be one of RISKFREE_MODES, ffill_limit_days must be
    non-negative, and the winsor percentiles must satisfy
    0 <= lower < upper <= 100; InvalidConfig otherwise."""

    riskfree_mode: str = "tbill"
    btc_id: str = "BTC"
    ffill_limit_days: int = 3
    windows: CharacteristicWindows = CharacteristicWindows()
    winsor: tuple[float, float] = WINSOR

    def __post_init__(self):
        if self.riskfree_mode not in RISKFREE_MODES:
            raise InvalidConfig(f"unknown riskfree_mode {self.riskfree_mode!r}")
        if self.ffill_limit_days < 0:
            raise InvalidConfig(
                f"ffill_limit_days {self.ffill_limit_days} must be non-negative"
            )
        lower, upper = self.winsor
        if not 0.0 <= lower < upper <= 100.0:
            raise InvalidConfig(
                f"winsor percentiles {list(self.winsor)} must satisfy "
                f"0 <= lower < upper <= 100"
            )


class _ForwardFilled:
    """Stepwise lookup with a staleness bound. A date before the first
    observation resolves to None (the sample has not started); a date more
    than limit_days past the latest observation at or before it is a
    CoverageGap."""

    def __init__(self, values: Mapping[dt.date, float], limit_days: int, name: str):
        self.name = name
        self.limit = limit_days
        self.dates = sorted(values)
        self.values = dict(values)

    def at(self, date: dt.date) -> float | None:
        idx = bisect_right(self.dates, date) - 1
        if idx < 0:
            return None
        anchor = self.dates[idx]
        if (date - anchor).days > self.limit:
            raise CoverageGap(self.name, date, anchor, self.limit)
        return self.values[anchor]


def build_panel(
    coins: Sequence[CoinSeries],
    epu: Mapping[dt.date, float],
    riskfree: Mapping[dt.date, float],
    options: PanelOptions = PanelOptions(),
) -> Panel:
    """Assemble the estimation panel.

    An observation (coin, t) exists when all of these resolve: the return at
    t (consecutive-day rule), the Bitcoin return at t-1, the uncertainty
    level at t-1 (forward-filled up to ffill_limit_days), the risk-free rate
    at t (same fill rule; in btc mode the Bitcoin return at t instead), and
    all four raw characteristics at t-1. Anything else becomes a Drop record.
    Uncertainty is z-scored over the distinct conditioning dates of the final
    sample; characteristics are winsorized and z-scored per date.
    """
    btc = next((c for c in coins if c.coin_id == options.btc_id), None)
    if btc is None:
        raise MissingBitcoin(
            f"conditioning requires {options.btc_id!r} among the input series"
        )
    btc_returns = dict(compute_returns(btc))
    epu_fill = _ForwardFilled(epu, options.ffill_limit_days, "epu")
    rf_fill = _ForwardFilled(riskfree, options.ffill_limit_days, "riskfree")

    drops: list[Drop] = []
    candidates = []
    for coin in sorted(coins, key=lambda c: c.coin_id):
        if options.riskfree_mode == "btc" and coin.coin_id == options.btc_id:
            drops.append(Drop(coin.coin_id, None, "btc_is_riskfree"))
            continue
        if len(coin.bars) < 2:
            drops.append(Drop(coin.coin_id, None, "too_short"))
            continue
        view = _CoinView(coin, options.windows)
        for date in sorted(view.returns):
            ret = view.returns[date]
            lag = date - ONE_DAY
            r_btc = btc_returns.get(lag)
            if r_btc is None:
                drops.append(Drop(coin.coin_id, date, "no_btc_return_lag"))
                continue
            u_raw = epu_fill.at(lag)
            if u_raw is None:
                drops.append(Drop(coin.coin_id, date, "no_epu"))
                continue
            if options.riskfree_mode == "tbill":
                annual = rf_fill.at(date)
                if annual is None:
                    drops.append(Drop(coin.coin_id, date, "no_riskfree"))
                    continue
                excess = ret - daily_riskfree(annual)
            else:
                btc_today = btc_returns.get(date)
                if btc_today is None:
                    drops.append(Drop(coin.coin_id, date, "no_btc_return"))
                    continue
                excess = ret - btc_today
            raw = view.raw_at(lag)
            missing = raw.missing()
            if missing:
                drops.append(Drop(coin.coin_id, date, f"missing_{missing[0]}"))
                continue
            candidates.append((coin.coin_id, date, ret, excess, raw, lag, u_raw))

    u_by_date = {lag: u_raw for _, _, _, _, _, lag, u_raw in candidates}
    u_values = np.array([u_by_date[d] for d in sorted(u_by_date)], dtype=float)
    if u_values.size >= 2 and float(u_values.std()) > 0.0:
        u_mean = float(u_values.mean())
        u_sd = float(u_values.std())
    else:
        u_mean, u_sd = 0.0, 0.0

    coin_ids = sorted({c[0] for c in candidates})
    dates = sorted({c[1] for c in candidates})
    shape = (len(coin_ids), len(dates))
    row = {c: i for i, c in enumerate(coin_ids)}
    col = {d: j for j, d in enumerate(dates)}
    cells = (
        [row[c[0]] for c in candidates],
        [col[c[1]] for c in candidates],
    )
    mask = np.zeros(shape, dtype=bool)
    mask[cells] = True
    ret, excess, u, r_btc = (np.zeros(shape) for _ in range(4))
    raw = np.zeros((len(CHARACTERISTIC_NAMES),) + shape)
    if candidates:
        _, _, rets, excesses, raws, lags, u_raws = zip(*candidates)
        ret[cells] = rets
        excess[cells] = excesses
        for m, name in enumerate(CHARACTERISTIC_NAMES):
            raw[m][cells] = [getattr(r, name) for r in raws]
        if u_sd > 0.0:
            u[cells] = (np.array(u_raws) - u_mean) / u_sd
        r_btc[cells] = [btc_returns[lag] for lag in lags]

    panel = Panel(
        coin_ids, dates, mask, ret, excess, np.zeros_like(raw), raw, u, r_btc,
        options.riskfree_mode, drops,
    )
    return standardize_cross_section(panel, *options.winsor)


def write_panel_csv(panel: Panel, path: str | Path) -> None:
    """Serialize observations in (coin_id, date) order with repr round-trip
    float formatting."""
    days = [d.isoformat() for d in panel.dates]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PANEL_HEADER)
        for i, coin_id in enumerate(panel.coins):
            cols = np.flatnonzero(panel.mask[i])
            columns = [
                panel.ret[i, cols],
                panel.excess[i, cols],
                *panel.z[:, i, cols],
                *panel.raw[:, i, cols],
                panel.u[i, cols],
                panel.r_btc[i, cols],
            ]
            writer.writerows(
                zip(
                    itertools.repeat(coin_id),
                    [days[j] for j in cols.tolist()],
                    *(map(repr, c.tolist()) for c in columns),
                )
            )


def read_panel_csv(
    source: str | Path | io.TextIOBase, riskfree_mode: str = "tbill"
) -> Panel:
    """Parse a panel CSV back into a Panel.

    The file format carries no risk-free mode, so the caller supplies it
    (it travels in run configs and manifests). A row with the wrong field
    count, an unparsable or non-finite value, a size_raw whose exponential
    is no positive finite market cap, or a (coin_id, date) seen on an
    earlier line raises MalformedRow naming its line.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as handle:
            return _read_panel_rows(csv.reader(handle), riskfree_mode)
    return _read_panel_rows(csv.reader(source), riskfree_mode)


def _read_panel_rows(rows, riskfree_mode: str) -> Panel:
    header = next(rows, None)
    if header is None or tuple(header) != PANEL_HEADER:
        raise MalformedRow(1, f"header {header!r}, expected {list(PANEL_HEADER)!r}")
    size_at = PANEL_HEADER.index("size_raw") - 2  # position among the numbers
    day_of: dict[str, dt.date] = {}
    seen: set[tuple[str, dt.date]] = set()
    keys = []
    values = []
    for line, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(PANEL_HEADER):
            raise MalformedRow(line, f"{len(row)} fields, expected {len(PANEL_HEADER)}")
        try:
            date = day_of.get(row[1])
            if date is None:
                date = day_of[row[1]] = dt.date.fromisoformat(row[1])
            numbers = [float(x) for x in row[2:]]
        except ValueError as exc:
            raise MalformedRow(line, str(exc)) from None
        if not all(map(math.isfinite, numbers)):
            raise MalformedRow(line, "non-finite value")
        if not _is_market_cap(numbers[size_at]):
            raise MalformedRow(
                line,
                f"size_raw {numbers[size_at]!r}: exp(size_raw) is no positive finite "
                "market cap",
            )
        key = (row[0], date)
        if key in seen:
            raise MalformedRow(
                line, f"duplicate observation of {row[0]} on {date.isoformat()}"
            )
        seen.add(key)
        keys.append(key)
        values.append(numbers)

    coin_ids = sorted({c for c, _ in keys})
    dates = sorted({d for _, d in keys})
    row_of = {c: i for i, c in enumerate(coin_ids)}
    col_of = {d: j for j, d in enumerate(dates)}
    cells = ([row_of[c] for c, _ in keys], [col_of[d] for _, d in keys])
    table = np.array(values, dtype=float).reshape(len(values), len(PANEL_HEADER) - 2)
    shape = (len(coin_ids), len(dates))
    mask = np.zeros(shape, dtype=bool)
    mask[cells] = True
    columns = np.zeros((table.shape[1],) + shape)
    columns[(slice(None),) + cells] = table.T
    n_chars = len(CHARACTERISTIC_NAMES)
    ret, excess = columns[0], columns[1]
    z, raw = columns[2 : 2 + n_chars], columns[2 + n_chars : 2 + 2 * n_chars]
    u, r_btc = columns[2 + 2 * n_chars], columns[3 + 2 * n_chars]
    return Panel(coin_ids, dates, mask, ret, excess, z, raw, u, r_btc, riskfree_mode)


def _is_market_cap(size_raw: float) -> bool:
    """Whether exp(size_raw), the lagged cap that factor weights use, is a
    positive finite float."""
    try:
        return math.exp(size_raw) > 0.0
    except OverflowError:
        return False


def write_drop_report(drops: Sequence[Drop], path: str | Path) -> None:
    """Audit CSV of excluded coin-days: coin_id,date,reason."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("coin_id", "date", "reason"))
        for d in drops:
            writer.writerow(
                (d.coin_id, "" if d.date is None else d.date.isoformat(), d.reason)
            )
