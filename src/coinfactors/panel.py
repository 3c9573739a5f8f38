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
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CoverageGap,
    DuplicateDate,
    EmptyPanel,
    InvalidConfig,
    MalformedRow,
    MissingBitcoin,
    MissingCharacteristic,
    TooShort,
)
from .ingest import CoinSeries, parse_iso_date, read_csv_rows

CHARACTERISTIC_NAMES = ("size", "momentum", "liquidity", "value")

# tbill: excess over the de-annualized T-bill rate; btc: over Bitcoin's return
RISKFREE_MODES = ("tbill", "btc")

WINSOR = (1.0, 99.0)  # default cross-sectional percentiles (lower, upper)

# The most cells (slices x rows x columns, 256 KB of float64) one stacked
# kernel call takes: enough to amortize numpy's per-call overhead, few
# enough that a wide panel's stack stays small in memory.
STACK_CELLS = 2**15

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


def _trailing(
    combine: np.ufunc, start: float, daily: np.ndarray, valid: np.ndarray, backs: range
) -> tuple[np.ndarray, np.ndarray]:
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
    return total, count


class _CoinView:
    """One coin's returns and raw characteristics on its calendar grid.

    Grid day k is the day ordinal origin + k, origin being the first bar's.
    The grid runs from the first bar to the last day whose windows still
    reach a bar, plus one final day on which every window is empty; dates off
    the grid resolve to that final day. ret holds each grid day's return and
    raw the levels (characteristics x grid days, in CHARACTERISTIC_NAMES
    order) from the windows ending that day, NaN meaning no value. Each
    window is folded once for every grid day, with 1.0 (products) or 0.0
    (sums) on days without data. Both are exact, so every level equals a
    day-by-day walk over the same window bit for bit.
    """

    def __init__(self, series: CoinSeries, windows: CharacteristicWindows):
        w = windows
        bars = series.bars
        self.origin = int(bars["day"][0]) if bars.size else dt.date.min.toordinal()
        day = bars["day"] - self.origin
        span = int(day[-1]) + 1 if bars.size else 0
        reach = max(w.momentum_days, w.liquidity_days - 1, w.value_far_days)
        n = span + reach + 1

        # a return close_t / close_{t-1} - 1 only where the day before has a bar
        close = bars["close"]
        after = np.flatnonzero(np.diff(day) == 1) + 1
        self.ret = np.full(n, np.nan)
        self.ret[day[after]] = close[after] / close[after - 1] - 1.0
        has_return = ~np.isnan(self.ret)
        growth = np.where(has_return, 1.0 + self.ret, 1.0)
        grid_volume, grid_cap = np.zeros((2, n))
        grid_volume[day] = bars["volume"]
        grid_cap[day] = bars["market_cap"]
        has_amihud = has_return & (grid_volume > 0.0)
        amihud = np.zeros(n)  # |ret| / volume; 0.0 without return or volume
        np.divide(np.abs(self.ret), grid_volume, out=amihud, where=has_amihud)
        share = w.min_valid_share

        def cumulative(backs: range) -> np.ndarray:
            total, count = _trailing(np.multiply, 1.0, growth, has_return, backs)
            return np.where(count >= share * len(backs), total - 1.0, np.nan)

        self.raw = raw = np.full((len(CHARACTERISTIC_NAMES), n), np.nan)
        sized = np.flatnonzero(grid_cap > 0.0)
        raw[0, sized] = [math.log(c) for c in grid_cap[sized].tolist()]
        raw[1] = cumulative(range(1, w.momentum_days + 1))
        total, count = _trailing(np.add, 0.0, amihud, has_amihud, range(w.liquidity_days))
        liquid = np.flatnonzero(count >= share * w.liquidity_days)
        mean = total[liquid] / count[liquid]
        raw[2, liquid[mean > 0.0]] = [-math.log(m) for m in mean[mean > 0.0].tolist()]
        raw[3] = -cumulative(range(w.value_near_days, w.value_far_days + 1))


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


def stacks_by_count(mask: np.ndarray, cols: np.ndarray | None = None, width: int = 1):
    """columns_by_count, with each group cut into stacks of at most
    STACK_CELLS cells, a column taking count x width of them (always at
    least one column per stack). Yields (count, cols, rows) per stack."""
    for n, group, rows in columns_by_count(mask, cols):
        step = max(1, STACK_CELLS // max(1, n * width))
        for start in range(0, group.size, step):
            yield n, group[start : start + step], rows[start : start + step]


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


def _forward_fill(
    days: np.ndarray, observed: np.ndarray, values: np.ndarray, limit_days: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """values, observed on the sorted day ordinals observed, carried forward
    to each of days: NaN before the first observation. Also returns each
    day's position in observed (-1 before the first) and whether the day is
    more than limit_days past that observation."""
    at = np.searchsorted(observed, days, side="right") - 1
    stale = at >= 0
    stale[stale] = days[stale] - observed[at[stale]] > limit_days
    return np.append(values, np.nan)[at], at, stale


def _on_grid(grid: np.ndarray, k: np.ndarray) -> np.ndarray:
    """grid[k], NaN where k falls off the grid."""
    return np.append(grid, np.nan)[np.where((k >= 0) & (k < grid.size), k, -1)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-D array; not np.unique, which
    imports numpy.ma: about 1 MB of resident memory."""
    values = np.sort(values)
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


def build_panel(
    coins: Sequence[CoinSeries],
    epu: np.ndarray,
    riskfree: np.ndarray,
    options: PanelOptions = PanelOptions(),
) -> Panel:
    """Assemble the estimation panel. epu and riskfree are ingest.LEVEL_DTYPE
    arrays, ascending by unique day, as parse_epu_csv and
    parse_riskfree_csv return them.

    An observation (coin, t) exists when all of these resolve: the return at
    t (consecutive-day rule), the Bitcoin return at t-1, the uncertainty
    level at t-1 (forward-filled up to ffill_limit_days), the risk-free rate
    at t (same fill rule; in btc mode the Bitcoin return at t instead), and
    all four raw characteristics at t-1. Anything else becomes a Drop record
    naming the first of these, in that order, that fails. A conditioning
    series staler than ffill_limit_days where it is looked up is a
    CoverageGap instead, raised for the first such coin-day in coin then
    date order. A build in which no coin-day survives raises EmptyPanel.
    Uncertainty is z-scored over the distinct conditioning dates of the
    final sample; characteristics are winsorized and z-scored per date.

    Each coin is handled whole on its calendar grid, every condition one
    array over the coin's return days.
    """
    btc = next((c for c in coins if c.coin_id == options.btc_id), None)
    if btc is None:
        raise MissingBitcoin(
            f"conditioning requires {options.btc_id!r} among the input series"
        )
    if len(btc.bars) < 2:
        raise TooShort(f"{btc.coin_id}: {len(btc.bars)} bars, need 2")
    btc_view = _CoinView(btc, options.windows)
    limit = options.ffill_limit_days
    tbill = options.riskfree_mode == "tbill"
    epu_days, epu_levels = epu["day"], epu["level"]
    riskfree = riskfree if tbill else riskfree[:0]  # btc mode never reads it
    rf_days = riskfree["day"]
    rf_daily = np.array([daily_riskfree(r) for r in riskfree["level"].tolist()])

    drops: list[Drop] = []
    coin_ids: list[str] = []
    # per coin: row, day, ret, excess, u, r_btc, raw (one row per characteristic)
    kept = []
    for coin in sorted(coins, key=lambda c: c.coin_id):
        if not tbill and coin.coin_id == options.btc_id:
            drops.append(Drop(coin.coin_id, None, "btc_is_riskfree"))
            continue
        if len(coin.bars) < 2:
            drops.append(Drop(coin.coin_id, None, "too_short"))
            continue
        view = btc_view if coin is btc else _CoinView(coin, options.windows)
        k = np.flatnonzero(~np.isnan(view.ret))  # grid days with a return
        if not k.size:
            drops.append(Drop(coin.coin_id, None, "no_returns"))
            continue
        day = view.origin + k
        ret = view.ret[k]
        r_btc = _on_grid(btc_view.ret, day - 1 - btc_view.origin)
        u_raw, epu_at, epu_stale = _forward_fill(day - 1, epu_days, epu_levels, limit)
        # the stale entries name their series; the rest are drop reasons
        gaps = {"epu": (day - 1, epu_days, epu_at)}
        checks = [
            ("no_btc_return_lag", np.isnan(r_btc)),
            ("epu", epu_stale),
            ("no_epu", epu_at < 0),
        ]
        if tbill:
            benchmark, rf_at, rf_stale = _forward_fill(day, rf_days, rf_daily, limit)
            gaps["riskfree"] = (day, rf_days, rf_at)
            checks += [("riskfree", rf_stale), ("no_riskfree", rf_at < 0)]
        else:
            benchmark = _on_grid(btc_view.ret, day - btc_view.origin)
            checks.append(("no_btc_return", np.isnan(benchmark)))
        raw = view.raw[:, k - 1]
        checks += [
            (f"missing_{name}", np.isnan(level))
            for name, level in zip(CHARACTERISTIC_NAMES, raw)
        ]

        fate = np.full(k.size, len(checks))  # the first check each day fails
        for i in reversed(range(len(checks))):
            fate[checks[i][1]] = i
        for j in np.flatnonzero(fate < len(checks)).tolist():
            reason = checks[fate[j]][0]
            if reason in gaps:
                looked_up, observed, at = gaps[reason]
                raise CoverageGap(
                    reason,
                    dt.date.fromordinal(int(looked_up[j])),
                    dt.date.fromordinal(int(observed[at[j]])),
                    limit,
                )
            drops.append(Drop(coin.coin_id, dt.date.fromordinal(int(day[j])), reason))
        keep = fate == len(checks)
        if keep.any():
            row = np.full(k.size, len(coin_ids))
            columns = [row, day, ret, ret - benchmark, u_raw, r_btc, raw]
            kept.append(np.vstack(columns)[:, keep])
            coin_ids.append(coin.coin_id)

    if not coin_ids:
        raise EmptyPanel(drops)
    block = np.concatenate(kept, axis=1)
    rows, days = block[:2].astype(np.int64)
    ret, excess, u_raw, r_btc, *raw = block[2:]
    u_values = _forward_fill(_distinct(days - 1), epu_days, epu_levels, limit)[0]
    if u_values.size >= 2 and float(u_values.std()) > 0.0:
        u_mean = float(u_values.mean())
        u_sd = float(u_values.std())
        u = (u_raw - u_mean) / u_sd
    else:
        u = np.zeros_like(u_raw)

    dates = _distinct(days)
    z = np.zeros((len(CHARACTERISTIC_NAMES), ret.size))
    panel = _panel_of(
        coin_ids, [dt.date.fromordinal(d) for d in dates.tolist()],
        rows, np.searchsorted(dates, days), [ret, excess, *z, *raw, u, r_btc],
        options.riskfree_mode, drops,
    )
    return standardize_cross_section(panel, *options.winsor)


def _panel_of(
    coins: Sequence[str], dates: Sequence[dt.date], rows, cols, columns,
    riskfree_mode: str, dropped: Sequence[Drop] = (),
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
    return Panel(coins, dates, mask, ret, excess, z, raw, u, r_btc, riskfree_mode, dropped)


_HEADER_LINE = ",".join(PANEL_HEADER) + "\r\n"


def write_panel_csv(panel: Panel, path: str | Path) -> None:
    """Serialize observations in (coin_id, date) order with repr round-trip
    float formatting, in csv.writer's dialect: fields quoted only where they
    must be, lines ended by CRLF. Each coin's rows go out as one write."""
    days = [d.isoformat() for d in panel.dates]
    with open(path, "w", newline="") as handle:
        handle.write(_HEADER_LINE)
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
            rows = np.stack(columns, axis=1).tolist()
            lead = csv_lead(coin_id)
            handle.write("".join(
                lead + days[j] + "," + ",".join(map(repr, row)) + "\r\n"
                for j, row in zip(cols.tolist(), rows)
            ))


def csv_lead(field: str) -> str:
    """field as csv.writer writes it first in a row of several, with the
    comma after it: quoted only when it must be."""
    out = io.StringIO()
    csv.writer(out).writerow((field, ""))
    return out.getvalue()[: -len("\r\n")]


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
