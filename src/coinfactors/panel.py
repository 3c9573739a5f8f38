"""Aligned coin-day panel: daily returns, excess returns, lagged coin
characteristics, and lagged conditioning variables (uncertainty level,
Bitcoin return).

Look-ahead safety is the organizing rule: everything attached to an
observation at date t other than the return itself must be computable from
data dated t-1 or earlier. Characteristic windows therefore end at t-1, and
the conditioning values carry an explicit one-day lag.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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
from .ingest import CoinSeries, _file_errors, parse_iso_date, write_csv_rows

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
    """For every calendar day i (the last axis), fold daily[..., i - back]
    into start with combine, one back-offset at a time in the order of
    backs, and count the valid days. Offsets that reach before the calendar
    contribute nothing, and the fold stops at the first offset past its end.

    The fold keeps the per-day loop's order of operations, so do not replace
    it with np.prod, np.sum, cumsum or prefix differences: they reorder the
    arithmetic and change the last bits.
    """
    n = daily.shape[-1]
    total = np.full(daily.shape, start)
    count = np.zeros(daily.shape, dtype=np.int64)
    for back in backs:
        if back >= n:
            break
        combine(total[..., back:], daily[..., : n - back], out=total[..., back:])
        count[..., back:] += valid[..., : n - back]
    return total, count


def _calendar(
    coins: Sequence[CoinSeries], windows: CharacteristicWindows
) -> tuple[int, np.ndarray, list[np.ndarray]]:
    """The coins' returns and raw characteristics on one calendar.

    Calendar day k is the day ordinal first + k, from the earliest bar of
    any coin to the latest. Returns first; ret (coins x days), each day's
    return; and the four levels (coins x days each, in CHARACTERISTIC_NAMES
    order) from the windows ending each day, NaN meaning no value. Each
    window is folded once for every day, with 1.0 (products) or 0.0 (sums)
    on days without data. Both are exact, so every level equals a
    day-by-day walk over the same window bit for bit. A window's day count
    is taken from its range, not len(), which overflows past int64.
    """
    w, share = windows, windows.min_valid_share
    spans = [c.bars["day"][[0, -1]].tolist() for c in coins if c.bars.size]
    first = min(a for a, _ in spans)
    shape = (len(coins), max(b for _, b in spans) - first + 1)
    # each bar's cell in the flattened calendar
    cells = np.concatenate(
        [c.bars["day"] + (i * shape[1] - first) for i, c in enumerate(coins)]
    )

    def on_calendar(name: str, fill: float = 0.0) -> np.ndarray:
        grid = np.full(shape, fill)
        np.put(grid, cells, np.concatenate([c.bars[name] for c in coins]))
        return grid

    def logs(values: np.ndarray, where: np.ndarray | bool = True) -> np.ndarray:
        """math.log of the positive values where given, NaN elsewhere."""
        out = np.full(shape, np.nan)
        at = np.nonzero((values > 0.0) & where)
        out[at] = np.fromiter(map(math.log, values[at]), float, at[0].size)
        return out

    def liquidity() -> np.ndarray:
        volume = on_calendar("volume")
        has_amihud = has_return & (volume > 0.0)
        amihud = np.zeros(shape)  # |ret| / volume; 0.0 without return or volume
        np.divide(np.abs(ret), volume, out=amihud, where=has_amihud)
        total, count = _trailing(np.add, 0.0, amihud, has_amihud, range(w.liquidity_days))
        liquid = count >= share * w.liquidity_days
        return -logs(np.divide(total, count, out=total, where=liquid), liquid)

    def cumulative(backs: range) -> np.ndarray:
        total, count = _trailing(np.multiply, 1.0, growth, has_return, backs)
        days = backs.stop - backs.start
        return np.where(count >= share * days, total - 1.0, np.nan)

    # a return close_t / close_{t-1} - 1 only where the day before has a bar
    ret = on_calendar("close", np.nan)
    ret[:, 1:] = ret[:, 1:] / ret[:, :-1] - 1.0
    ret[:, 0] = np.nan
    has_return = ~np.isnan(ret)
    size, liquid = logs(on_calendar("market_cap")), liquidity()
    growth = np.where(has_return, 1.0 + ret, 1.0)
    momentum = cumulative(range(1, w.momentum_days + 1))
    value = -cumulative(range(w.value_near_days, w.value_far_days + 1))
    return first, ret, [size, momentum, liquid, value]


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
        vector, first = np.zeros((1, len(self.dates))), np.full((1, len(self.dates)), -1)
        odd = _one_per_date(vector, first, grid[None, rows, cols], cols, rows[None])
        if odd is not None:
            k = odd[0]
            raise InvalidConfig(
                f"panel {name} of {self.coins[rows[k]]} on {self.dates[cols[k]]} is "
                f"{float(grid[rows[k], cols[k]])!r}, where {self.coins[first[0, cols[k]]]} "
                f"has {float(vector[0, cols[k]])!r}: the series holds one value per date"
            )
        return vector[0]

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


def _one_per_date(
    series: np.ndarray, first: np.ndarray, values: np.ndarray, cols, labels: np.ndarray
) -> tuple[int, int] | None:
    """Check entries in order against each date's first: entry k holds
    values[:, k] of each series on date cols[k] and carries labels[:, k].
    series (series, dates) holds each date's first entry's values, and
    first (labels, dates) its labels, first[0] being -1 until a date's
    first entry comes. Returns (k, m) for the first entry k whose bits
    differ from its date's in series m, or None. Bits, so that -0.0
    differs from 0.0."""
    at = np.full(first.shape[1], len(cols))
    np.minimum.at(at, cols, np.arange(len(cols)))
    new = (first[0] < 0) & (at < len(cols))
    series[:, new] = values[:, at[new]]
    first[:, new] = labels[:, at[new]]
    odd = np.argwhere((values.view(np.int64) != series[:, cols].view(np.int64)).T)
    return tuple(odd[0].tolist()) if odd.size else None


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

    Every coin sits on one calendar (_calendar), and every condition is one
    array over its coins x days, the market-wide ones one value per day.
    Each coin-day's fate is the first check it fails; the kept coin-days
    are copied from the calendar into the Panel's grid, whose columns are
    the days with a kept coin-day and whose z layers are scored in place.
    """
    btc = next((c for c in coins if c.coin_id == options.btc_id), None)
    if btc is None:
        raise MissingBitcoin(
            f"conditioning requires {options.btc_id!r} among the input series"
        )
    if len(btc.bars) < 2:
        raise TooShort(f"{btc.coin_id}: {len(btc.bars)} bars, need 2")
    limit = options.ffill_limit_days
    tbill = options.riskfree_mode == "tbill"
    date_of = functools.cache(dt.date.fromordinal)  # one date object a day
    coins = sorted(coins, key=lambda c: c.coin_id)
    first, ret, levels = _calendar(coins, options.windows)
    btc_ret = ret[next(i for i, c in enumerate(coins) if c is btc)]
    # column j: the return on calendar day j + 1, the lagged values of day j
    ret, day = ret[:, 1:], first + 1 + np.arange(ret.shape[1] - 1)
    epu_days = epu["day"]
    u, epu_at, epu_stale = _forward_fill(day - 1, epu_days, epu["level"], limit)
    # the stale entries name their series; the rest are drop reasons
    gaps = {"epu": (day - 1, epu_days, epu_at)}
    checks = [
        ("no_btc_return_lag", np.isnan(btc_ret[:-1])),
        ("epu", epu_stale),
        ("no_epu", epu_at < 0),
    ]
    if tbill:
        rf_days = riskfree["day"]
        rf_daily = np.array([daily_riskfree(r) for r in riskfree["level"].tolist()])
        benchmark, rf_at, rf_stale = _forward_fill(day, rf_days, rf_daily, limit)
        gaps["riskfree"] = (day, rf_days, rf_at)
        checks += [("riskfree", rf_stale), ("no_riskfree", rf_at < 0)]
    else:
        benchmark = btc_ret[1:]
        checks.append(("no_btc_return", np.isnan(benchmark)))
    checks += [
        (f"missing_{name}", np.isnan(level[:, :-1]))
        for name, level in zip(CHARACTERISTIC_NAMES, levels)
    ]
    reasons = [name for name, _ in checks]

    # the first check each coin-day fails, len(reasons) if none, -1 off the sample
    fate = np.full(ret.shape, len(reasons), dtype=np.int8)
    for i in reversed(range(len(checks))):
        np.copyto(fate, i, where=checks[i][1])
    np.copyto(fate, -1, where=np.isnan(ret))
    if not tbill:
        fate[[c.coin_id == options.btc_id for c in coins]] = -1
    stale = np.logical_or.reduce([fate == reasons.index(name) for name in gaps])
    if stale.any():
        i, j = divmod(int(stale.argmax()), stale.shape[1])
        name = reasons[fate[i, j]]
        looked_up, observed, at = gaps[name]
        raise CoverageGap(name, date_of(looked_up[j]), date_of(observed[at[j]]), limit)

    del checks  # the missing-level flags, one a coin-day each
    kept = fate == len(reasons)
    rows, cols = np.flatnonzero(kept.any(1)), np.flatnonzero(kept.any(0))
    at = np.ix_(rows, cols)
    mask = kept[at]
    grid = np.zeros((_SERIES_AT,) + mask.shape)
    z, raw = np.split(grid[2:], 2)  # (characteristics, coins, dates) each
    np.copyto(grid[0], ret[at], where=mask)
    np.subtract(grid[0], benchmark[cols], out=grid[1], where=mask)
    for layer in raw:  # each calendar level goes as it is copied
        np.copyto(layer, levels.pop(0)[:, :-1][at], where=mask)
    _standardize(mask, raw, z, *options.winsor)

    drops: list[Drop] = []
    for coin, row in zip(coins, fate):
        if not tbill and coin.coin_id == options.btc_id:
            drops.append(Drop(coin.coin_id, None, "btc_is_riskfree"))
        elif len(coin.bars) < 2:
            drops.append(Drop(coin.coin_id, None, "too_short"))
        elif (row < 0).all():
            drops.append(Drop(coin.coin_id, None, "no_returns"))
        else:
            j = np.flatnonzero((row >= 0) & (row < len(reasons)))
            drops += (
                Drop(coin.coin_id, date_of(d), reasons[f])
                for d, f in zip(day[j].tolist(), row[j].tolist())
            )
    if not cols.size:
        raise EmptyPanel(drops)
    u = u[cols]
    if u.size >= 2 and float(u.std()) > 0.0:
        u = (u - float(u.mean())) / float(u.std())
    else:
        u = np.zeros(u.size)
    return Panel(
        [coins[i].coin_id for i in rows.tolist()], list(map(date_of, day[cols].tolist())),
        mask, grid[0], grid[1], z, raw, u, btc_ret[:-1][cols], options.riskfree_mode,
        drops,
    )


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


def read_panel_csv(source: str | Path, riskfree_mode: str = "tbill") -> Panel:
    """Parse a panel CSV file back into a Panel.

    The file format carries no risk-free mode, so the caller supplies it
    (it travels in run configs and manifests). A row with the wrong field
    count, an unparsable or non-finite value, a size_raw whose exponential
    is no positive finite market cap, a (coin_id, date) seen on an earlier
    line or an over-long field raises MalformedRow naming the file and the
    row's line; so does a header with no data rows below it. u_lag and
    rbtc_lag are market-wide, so every row of a date must hold the same
    bits in each: once every row has passed, the first row that differs
    from its date's first row raises MalformedRow naming both lines, the
    coin and the date. Text that is not UTF-8 is rejected before any row is
    checked, unless a bad header or a record the csv reader rejects comes
    before it, naming the line of its first bad byte (_file_errors).

    The file is read twice (_read_twice). One whose text differs on the
    second read is read again as held lines.
    """
    opened = functools.partial(open, source, newline="", encoding="utf-8")
    with _file_errors(source):
        panel = _read_twice(opened, riskfree_mode)
        if panel is None:  # the file changed between its reads
            with opened() as handle:
                held = list(handle)
            panel = _read_twice(lambda: contextlib.nullcontext(held), riskfree_mode)
    return panel


_SIZE_AT = PANEL_HEADER.index("size_raw") - 2  # position among the numbers
# a quote or NUL needs the csv reader's judgement; loadtxt skips U+001C-U+001F
# around a number as whitespace, where float() rejects them
_IRREGULAR = '"\x00\x1c\x1d\x1e\x1f'
_BLOCK_ROWS = 256  # the rows of a block, the unit of both reads
_split_keys = operator.methodcaller("split", ",", 2)


def _read_twice(open_lines, riskfree_mode: str) -> Panel | None:
    """The Panel of the panel text whose lines open_lines() opens, read
    twice in the blocks of _blocks; None when a block's text differs on
    the second read (the file changed in between).

    The first read gathers the distinct coin ids and dates, which rank the
    Panel's axes, and each block's hash. The second puts each block's rows
    straight into the Panel's grid, so no table of every row's numbers is
    held beside it. Each block's u_lag and rbtc_lag are checked against
    each date's first row; the first row that differs is raised once every
    row has passed.
    """
    coin_ids: set[str] = set()
    days: set[str] = set()
    hashes = []
    # the second read raises a MalformedRow of _blocks after the rows above it
    with open_lines() as lines, contextlib.suppress(MalformedRow):
        for _, digest, is_plain, block in _blocks(lines):
            hashes.append(digest)
            if is_plain:
                block_coins, block_days, _ = zip(*map(_split_keys, block))
            else:
                block = [row for row in block if len(row) == len(PANEL_HEADER)]
                block_coins, block_days = [r[0] for r in block], [r[1] for r in block]
            coin_ids.update(block_coins)
            days.update(block_days)
    coins, coin_at = _axes(coin_ids)
    dates, day_at = _axes(days, parse_iso_date)
    mask = np.zeros((len(coins), len(dates)), dtype=bool)
    grid = np.zeros((_SERIES_AT,) + mask.shape)
    series = np.zeros((2, len(dates)))  # each date's u_lag and rbtc_lag
    first = np.full((2, len(dates)), -1)  # the line and coin of its first row
    odd = None
    expected = iter(hashes)
    with open_lines() as lines:
        for line, digest, is_plain, block in _blocks(lines):
            if digest != next(expected, None):
                return None
            placed = _parsed(block, line, coin_at, day_at, mask) if is_plain else None
            rows, cols, at, table = placed or _rows(
                csv.reader(block) if is_plain else block, line, coin_at, day_at, mask
            )
            mask[rows, cols] = True
            grid[:, rows, cols] = table.T[:_SERIES_AT]
            labels = np.stack([at, rows])
            found = _one_per_date(series, first, table.T[_SERIES_AT:], cols, labels)
            if found is not None and odd is None:
                k, m = found
                j = cols[k]
                odd = MalformedRow(int(at[k]), (
                    f"{PANEL_HEADER[2 + _SERIES_AT + m]} {float(table[k, _SERIES_AT + m])!r} "
                    f"of {coins[rows[k]]} on {dates[j]} differs from {float(series[m, j])!r} "
                    f"of {coins[first[1, j]]} on line {first[0, j]}: "
                    "the series holds one value per date"))
    if next(expected, None) is not None:  # the text got shorter
        return None
    if not mask.any():
        raise MalformedRow(2, "the file has a header but no data rows")
    if odd is not None:
        raise odd
    n = len(CHARACTERISTIC_NAMES)
    ret, excess, z, raw = grid[0], grid[1], grid[2 : 2 + n], grid[2 + n :]
    return Panel(coins, dates, mask, ret, excess, z, raw, *series, riskfree_mode)


def _blocks(lines: Iterable[str]) -> Iterator[tuple]:
    """The data rows of panel text, given as its lines as open(newline="")
    splits them (at CR, LF or CRLF), in blocks of _BLOCK_ROWS lines: (line
    of the first row, hash of the block's text, whether the block is plain,
    the block), where a row's line is its record's number. The header
    record, read by csv, must be PANEL_HEADER.

    Each block is judged on its own. A plain block is a list of lines, each
    with 13 commas, no character of _IRREGULAR and no more characters than
    the csv field limit: with no CR before any line's end, the csv reader
    would split each at its commas, whatever its line end. Any other block is a
    list of as many records, read by a csv.reader of its own, so a record
    that runs past the block takes its extra lines with it; a csv.Error
    raises MalformedRow once the records above it are yielded.
    """
    lines = iter(lines)
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    if header is None or tuple(header) != PANEL_HEADER:
        raise MalformedRow(1, f"header {header!r}, expected {list(PANEL_HEADER)!r}")
    line, read = 2, reader.line_num  # the next record's line, the lines of text read
    for block in iter(lambda: list(itertools.islice(lines, _BLOCK_ROWS)), []):
        text = "".join(block)
        is_plain = (
            not any(c in text for c in _IRREGULAR)
            and set(map(str.count, block, itertools.repeat(","))) == {len(PANEL_HEADER) - 1}
            and max(map(len, block)) <= csv.field_size_limit()
        )
        taken, records, error = block, block, None  # the block's lines of text, its rows
        if not is_plain:
            taken, records = [], []
            reader = csv.reader(taken.append(t) or t for t in itertools.chain(block, lines))
            try:
                records.extend(itertools.islice(reader, len(block)))  # kept on an error
            except csv.Error as exc:
                error = MalformedRow(read + reader.line_num, str(exc))
        if records:
            yield line, hash(text if is_plain else "".join(taken)), is_plain, records
        if error is not None:
            raise error
        line += len(records)
        read += len(taken)


def _parsed(lines: list[str], line: int, coin_at: dict, day_at: dict, mask: np.ndarray):
    """The rows, cols, lines and numbers of a plain block whose first row
    is on the given line, the numbers parsed by np.loadtxt; None when _rows
    must check the block: loadtxt rejects a cell, a number or cap fails its
    check, a date has no column, or a (coin_id, date) is on mask already or
    repeats in the block. Where loadtxt and float() both take a cell they
    give the same bits, and comments=None keeps loadtxt from cutting a cell
    at #; a cell only float() takes (1_0, a non-ASCII digit) fails loadtxt.
    """
    block_coins, block_days, rest = zip(*map(_split_keys, lines))
    try:
        table = np.loadtxt(rest, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    size = table[:, _SIZE_AT]
    rows = np.fromiter(map(coin_at.__getitem__, block_coins), np.intp, len(lines))
    cols = np.fromiter(map(day_at.get, block_days, itertools.repeat(-1)), np.intp, len(lines))
    keys = np.sort(rows * mask.shape[1] + cols)
    if (
        not np.isfinite(table).all()
        # exp of anything within +-700 is a positive finite float
        or not all(map(_is_market_cap, size[np.abs(size) > 700.0].tolist()))
        or (cols < 0).any()
        or mask[rows, cols].any()
        or (keys[1:] == keys[:-1]).any()
    ):
        return None
    return rows, cols, np.arange(line, line + len(lines)), table


def _rows(records: Iterable[list[str]], line: int, coin_at: dict, day_at: dict,
          mask: np.ndarray):
    """The rows, cols, lines and numbers of a block's records, the first on
    the given line, each checked as read_panel_csv checks a row; blank
    records are skipped. Each row marks its cell on mask, so that a later
    row repeating its (coin_id, date) fails."""
    cells, values = [], []
    for line, row in enumerate(records, start=line):
        if not row:
            continue
        if len(row) != len(PANEL_HEADER):
            raise MalformedRow(line, f"{len(row)} fields, expected {len(PANEL_HEADER)}")
        try:
            if row[1] not in day_at:  # every date that parses has a column
                parse_iso_date(row[1])
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
        i, j = coin_at[row[0]], day_at[row[1]]
        if mask[i, j]:
            raise MalformedRow(line, f"duplicate observation of {row[0]} on {row[1]}")
        mask[i, j] = True
        cells.append((i, j, line))
        values.append(numbers)
    rows, cols, lines = np.array(cells, np.intp).reshape(-1, 3).T
    return rows, cols, lines, np.array(values).reshape(-1, len(PANEL_HEADER) - 2)


def _axes(keys: Iterable, parse=None) -> tuple[list, dict]:
    """The sorted values of the distinct keys, parse(key) or the key itself,
    and a dict from each key to its value's position. A key that parse
    rejects with ValueError is left out: its row fails _rows."""
    values = {}
    for key in keys:
        with contextlib.suppress(ValueError):
            values[key] = key if parse is None else parse(key)
    ranked = sorted(values, key=values.__getitem__)
    return [values[key] for key in ranked], {key: i for i, key in enumerate(ranked)}


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
