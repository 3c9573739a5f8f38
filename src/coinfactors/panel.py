"""Aligned coin-day panel: daily returns, excess returns, lagged coin
characteristics, and lagged conditioning variables (uncertainty level,
Bitcoin return).

Look-ahead safety is the organizing rule: everything attached to an
observation at date t other than the return itself must be computable from
data dated t-1 or earlier. Characteristic windows therefore end at t-1, and
the conditioning values carry an explicit one-day lag.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import functools
import io
import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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
from .ingest import CoinSeries, parse_iso_date, read_csv_rows, write_csv_rows

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
# where the market-wide series, u_lag and rbtc_lag, start among the numbers
_SERIES_AT = PANEL_HEADER.index("u_lag") - 2


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


@dataclass(frozen=True, slots=True)
class Drop:
    """One excluded coin-day (date None when the whole coin fell out)."""

    coin_id: str
    date: dt.date | None
    reason: str


# the Panel's array fields: grids of one cell per (coin, date), then the
# market-wide conditioning series of one value per date
_COLUMNS = ("mask", "ret", "excess", "z", "raw", "u", "r_btc")


@dataclass(frozen=True, eq=False)
class Panel:
    """Coin-day observations as columns over sorted coins x sorted dates.

    mask[i, j] marks the coin-days present; ret, excess, z and raw hold one
    value per cell, and only present cells carry meaning. ret and excess are
    (coins, dates); z (winsorized cross-sectional z-scores) and raw (levels
    at t-1) are (characteristics, coins, dates) in CHARACTERISTIC_NAMES
    order. u (the standardized uncertainty level at t-1) and r_btc (the
    Bitcoin return at t-1) are market-wide: one value per date, (dates,).
    Every coin and every date has at least one observation, and the arrays
    are read-only. riskfree_mode records whether excess returns were taken
    against the treasury rate ("tbill") or the Bitcoin return ("btc").

    The constructor also takes u or r_btc as a (coins, dates) grid, when
    every date's present cells hold the same bits, and keeps that one value
    per date. It raises DuplicateDate for a repeated date and InvalidConfig
    for any other malformed layout, naming the coin and the date of a grid
    cell that differs from its date's first.
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
            elif name in ("u", "r_btc"):
                if values.shape == shape:
                    values = self._date_vector(name, values)
                want = shape[1:]
            if values.shape != want:
                raise InvalidConfig(
                    f"panel {name} has shape {values.shape}, expected {want}"
                )
            values.flags.writeable = False
            object.__setattr__(self, name, values)
            if name == "mask" and not (values.any(1).all() and values.any(0).all()):
                raise InvalidConfig("every panel coin and date needs an observation")
        object.__setattr__(self, "coin_index", {c: i for i, c in enumerate(self.coins)})
        object.__setattr__(self, "date_index", {d: j for j, d in enumerate(self.dates)})

    def _date_vector(self, name: str, grid: np.ndarray) -> np.ndarray:
        """The one value per date of a (coins, dates) grid of a series."""
        rows, cols = np.nonzero(self.mask)
        (vector,), odd = _one_per_date(grid[None, rows, cols], cols, len(self.dates))
        if odd is not None:
            _, k, first = odd
            raise InvalidConfig(
                f"panel {name} of {self.coins[rows[k]]} on {self.dates[cols[k]]} is "
                f"{float(grid[rows[k], cols[k]])!r}, where {self.coins[rows[first]]} has "
                f"{float(vector[cols[k]])!r}: the series holds one value per date"
            )
        return vector

    @functools.cached_property
    def caps(self) -> np.ndarray:
        """The lagged market caps that factor weights use, exp(size_raw)
        on present cells and 0.0 elsewhere: a read-only (coins, dates) array
        computed at first use. One math.exp per value, taken STACK_CELLS
        values at a time; np.exp can differ from it in the last bit."""
        size = self.raw[characteristic_index("size")].ravel()
        present = np.flatnonzero(self.mask)
        caps = np.zeros(self.mask.size)
        for start in range(0, present.size, STACK_CELLS):
            at = present[start : start + STACK_CELLS]
            caps[at] = np.fromiter(map(math.exp, size[at].tolist()), float, at.size)
        caps = caps.reshape(self.mask.shape)
        caps.flags.writeable = False
        return caps


def _one_per_date(values: np.ndarray, cols, n_dates: int):
    """Series that hold one value per date, from a (series, entries) array
    whose entry k lies on date cols[k], every date having an entry: each
    date takes its first entry's values. Returns these (series, n_dates)
    vectors and None, or, when an entry's bits differ from its date's first
    in some series, (series, entry, first entry of its date) for the first
    such entry. Bits, so that -0.0 differs from 0.0."""
    cols = np.asarray(cols)
    first = np.full(n_dates, cols.size)
    np.minimum.at(first, cols, np.arange(cols.size))
    vectors = values[:, first]
    odd = np.argwhere((values.view(np.int64) != vectors[:, cols].view(np.int64)).T)
    if not odd.size:
        return vectors, None
    k, m = odd[0].tolist()
    return vectors, (m, k, int(first[cols[k]]))


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
    np.clip(x, *_percentiles(x, (lower, upper)), out=out)
    sd = out.std(axis=-1, keepdims=True)
    out -= out.mean(axis=-1, keepdims=True)
    flat = sd == 0.0
    np.divide(out, sd, out=out, where=~flat)
    np.copyto(out, 0.0, where=flat)
    return out


def _percentiles(x: np.ndarray, percents: Sequence[float]) -> list[np.ndarray]:
    """np.percentile(x, percents, axis=-1, keepdims=True) of a float array
    of at least one value a row, bit for bit, by numpy's steps for its
    default linear method: one partition of a copy, the two neighbours of
    each virtual index, and numpy's lerp; a row holding NaN gives its last
    partitioned value, NaN. Not np.percentile, which imports numpy.ma
    through np.unique: about 1 MB of resident memory."""
    n = x.shape[-1]
    picks, kth = [], {0, -1}
    for p in percents:
        index = (n - 1) * (p / 100)
        below = math.floor(index) if index < n - 1 else -1  # -1: the last
        above = below + 1 if below >= 0 else -1
        picks.append((index - below, below, above))
        kth.update((below, above))
    # numpy's very kth list, so that tied values (0.0 and -0.0) land alike
    ranked = x.copy()
    ranked.partition(sorted(kth), axis=-1)
    nan = np.isnan(ranked[..., -1:])
    out = []
    for t, below, above in picks:
        a, b = ranked[..., below, None], ranked[..., above, None]
        diff = b - a
        value = b - diff * (1 - t) if t >= 0.5 else a + diff * t
        np.copyto(value, ranked[..., -1:], where=nan)
        out.append(value)
    return out


def stacks_by_count(mask: np.ndarray, cols: np.ndarray | None = None, width: int = 1):
    """Group columns of a boolean (rows, columns) mask by how many entries
    they set, all columns unless cols names some, and cut each group into
    stacks of at most STACK_CELLS cells, a column taking count x width of
    them (always at least one column per stack). Yields (count, cols, rows)
    per stack, counts ascending: cols keeps the given order and rows is a
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
        step = max(1, STACK_CELLS // max(1, n * width))
        for start in range(0, group.size, step):
            yield n, cols[group[start : start + step]], rows[start : start + step]


def _standardize(
    mask: np.ndarray, raw: np.ndarray, z: np.ndarray, lower: float, upper: float
) -> None:
    """Write into z the winsorized z-scores of the raw levels (both
    (characteristics, coins, dates)) per date across the coins that mask
    marks present, leaving the other cells as they are. Dates with the same
    number of coins present are scored in stacks (stacks_by_count), one row
    per date."""
    for _, cols, rows in stacks_by_count(mask):
        at = (rows, cols[:, None])
        for m in range(len(raw)):
            z[m][at] = winsorized_zscores(raw[m][at], lower, upper)


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
    array over the coin's return days. Its kept coin-days wait in one block
    until every coin is done and the dates are known, then go straight
    into the Panel's grid, whose z layers are scored in place.
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

    date_of = functools.cache(dt.date.fromordinal)  # one date object a day
    drops: list[Drop] = []
    kept = []  # per coin: its id, kept days, and (ret, excess, *raw) on them
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
        _, epu_at, epu_stale = _forward_fill(day - 1, epu_days, epu_levels, limit)
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
            drops.append(Drop(coin.coin_id, date_of(int(day[j])), reason))
        keep = fate == len(checks)
        if keep.any():
            block = np.vstack([ret, ret - benchmark, raw])[:, keep]
            kept.append((coin.coin_id, day[keep], block))

    if not kept:
        raise EmptyPanel(drops)
    dates = _distinct(np.concatenate([day for _, day, _ in kept]))
    u = _forward_fill(dates - 1, epu_days, epu_levels, limit)[0]
    if u.size >= 2 and float(u.std()) > 0.0:
        u = (u - float(u.mean())) / float(u.std())
    else:
        u = np.zeros(u.size)
    r_btc = _on_grid(btc_view.ret, dates - 1 - btc_view.origin)

    n = len(CHARACTERISTIC_NAMES)
    mask = np.zeros((len(kept), dates.size), dtype=bool)
    grid = np.zeros((_SERIES_AT,) + mask.shape)
    ret, excess, z, raw = grid[0], grid[1], grid[2 : 2 + n], grid[2 + n :]
    coin_ids = []
    for i, (coin_id, day, block) in enumerate(kept):
        cols = np.searchsorted(dates, day)
        mask[i, cols] = True
        ret[i, cols], excess[i, cols] = block[:2]
        raw[:, i, cols] = block[2:]
        coin_ids.append(coin_id)
    del kept
    _standardize(mask, raw, z, *options.winsor)
    return Panel(
        coin_ids, list(map(date_of, dates.tolist())), mask, ret, excess, z, raw,
        u, r_btc, options.riskfree_mode, drops,
    )


def _panel_of(
    coins: Sequence[str], dates: Sequence[dt.date], rows, cols, columns,
    u: np.ndarray, r_btc: np.ndarray, riskfree_mode: str, dropped: Sequence[Drop] = (),
) -> Panel:
    """The Panel of a coin-day table and the two series on its dates: entry
    k of each of columns (the numbers in PANEL_HEADER order up to u_lag) is
    coins[rows[k]] on dates[cols[k]]."""
    shape = (len(coins), len(dates))
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    grid = np.zeros((_SERIES_AT,) + shape)
    grid[:, rows, cols] = columns
    n = len(CHARACTERISTIC_NAMES)
    ret, excess, z, raw = grid[0], grid[1], grid[2 : 2 + n], grid[2 + n :]
    return Panel(coins, dates, mask, ret, excess, z, raw, u, r_btc, riskfree_mode, dropped)


_HEADER_LINE = ",".join(PANEL_HEADER) + "\r\n"


def write_panel_csv(panel: Panel, path: str | Path) -> None:
    """Serialize observations in (coin_id, date) order with repr round-trip
    float formatting, through write_csv_rows: each coin's rows go out as one
    write."""
    days = [d.isoformat() for d in panel.dates]
    with write_csv_rows(path, PANEL_HEADER) as write:
        for i, coin_id in enumerate(panel.coins):
            cols = np.flatnonzero(panel.mask[i])
            columns = [
                panel.ret[i, cols],
                panel.excess[i, cols],
                *panel.z[:, i, cols],
                *panel.raw[:, i, cols],
                panel.u[cols],
                panel.r_btc[cols],
            ]
            rows = np.stack(columns, axis=1).tolist()
            write((
                days[j] + "," + ",".join(map(repr, row))
                for j, row in zip(cols.tolist(), rows)
            ), key=coin_id)


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
    with no data rows below it. u_lag and rbtc_lag are market-wide, so
    every row of a date must hold the same bits in each: once every row
    has passed, the first row that differs from its date's first row
    raises MalformedRow naming both lines, the coin and the date.

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
    a non-ASCII digit) fails loadtxt. Each block's coin ids and date
    strings leave it as integer codes, so no per-row string outlives its
    block.
    """
    coin_code: dict[str, int] = {}
    day_code: dict[str, int] = {}
    coins, days = array("q"), array("q")
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
            coins.extend(_encode(coin_code, block_coins))
            days.extend(_encode(day_code, block_days))
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
        date_code = {parse_iso_date(day): k for day, k in day_code.items()}
    except ValueError:  # UnicodeDecodeError is one too
        return None
    if table.shape[1] != len(PANEL_HEADER) - 2 or not np.isfinite(table).all():
        return None
    size = table[:, _SIZE_AT]
    # exp of anything within +-700 is a positive finite float
    if not all(map(_is_market_cap, size[np.abs(size) > 700.0].tolist())):
        return None
    series, odd = _one_per_date(table.T[_SERIES_AT:], days, len(date_code))
    if odd is not None:
        return None
    panel = _assemble_panel(coin_code, date_code, coins, days, table, series, riskfree_mode)
    if int(panel.mask.sum()) != len(table):  # a (coin_id, date) repeats
        return None
    return panel


def _encode(code: dict, keys: Sequence) -> Iterator[int]:
    """The code of each of keys, giving each key not yet in code the next
    free one (in no set order: _decode ranks the keys)."""
    for key in set(keys).difference(code):
        code[key] = len(code)
    return map(code.__getitem__, keys)


def _read_panel_rows(rows) -> tuple[dict, dict, array, array, np.ndarray, np.ndarray]:
    """Each data row's coin_id and date, as codes in order of first sight,
    and numbers, checked row by row and kept in one float array; then the
    u_lag and rbtc_lag series by date code, checked to hold one value per
    date."""
    header = next(rows, None)
    if header is None or tuple(header) != PANEL_HEADER:
        raise MalformedRow(1, f"header {header!r}, expected {list(PANEL_HEADER)!r}")
    day_of: dict[str, dt.date] = {}
    seen: set[tuple[str, dt.date]] = set()
    coin_code: dict[str, int] = {}
    date_code: dict[dt.date, int] = {}
    coins, dates = array("q"), array("q")
    values = array("d")
    blanks = array("q")  # the number of data rows above each blank row
    for line, row in enumerate(rows, start=2):
        if not row:
            blanks.append(len(coins))
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
        coins.append(coin_code.setdefault(row[0], len(coin_code)))
        dates.append(date_code.setdefault(date, len(date_code)))
        values.extend(numbers)
    if not values:
        raise MalformedRow(2, "the file has a header but no data rows")
    del seen  # a set of every row's key: free it before the series check
    table = np.frombuffer(values).reshape(-1, len(PANEL_HEADER) - 2)
    series, odd = _one_per_date(table.T[_SERIES_AT:], dates, len(date_code))
    if odd is not None:
        m, k, j = odd
        at, coin_ids = _SERIES_AT + m, list(coin_code)
        line, first = (2 + i + bisect.bisect_right(blanks, i) for i in (k, j))
        raise MalformedRow(line, (
            f"{PANEL_HEADER[2 + at]} {float(table[k, at])!r} of {coin_ids[coins[k]]} on "
            f"{list(date_code)[dates[k]]} differs from {float(table[j, at])!r} of "
            f"{coin_ids[coins[j]]} on line {first}: the series holds one value per date"))
    return coin_code, date_code, coins, dates, table, series


def _assemble_panel(
    coin_code: Mapping[str, int],
    date_code: Mapping[dt.date, int],
    coins: array,
    dates: array,
    table: np.ndarray,
    series: np.ndarray,
    riskfree_mode: str,
) -> Panel:
    """The Panel of parsed panel rows: row k is the coin coded coins[k] on
    the date coded dates[k], with table[k] the numbers in PANEL_HEADER
    order, and series[:, c] the u_lag and rbtc_lag of the date coded c."""
    coin_ids, rows, _ = _decode(coin_code, coins)
    days, cols, order = _decode(date_code, dates)
    u, r_btc = series[:, order]
    return _panel_of(coin_ids, days, rows, cols, table.T[:_SERIES_AT], u, r_btc,
                     riskfree_mode)


def _decode(code: Mapping, codes: array) -> tuple[list, np.ndarray, np.ndarray]:
    """The sorted keys of code, each of codes as its key's position among
    them, and the codes in key order."""
    keys = sorted(code)
    order = np.array([code[key] for key in keys], dtype=np.intp)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys))
    return keys, rank[np.frombuffer(codes, dtype=np.int64)], order


def _is_market_cap(size_raw: float) -> bool:
    """Whether exp(size_raw), the lagged cap that factor weights use, is a
    positive finite float."""
    try:
        return math.exp(size_raw) > 0.0
    except OverflowError:
        return False


def write_drop_report(drops: Sequence[Drop], path: str | Path) -> None:
    """Audit CSV of excluded coin-days: coin_id,date,reason."""
    with write_csv_rows(path, ("coin_id", "date", "reason")) as write:
        write(
            (d.coin_id, "" if d.date is None else d.date.isoformat(), d.reason)
            for d in drops
        )
