"""The per-day characteristic loop and the per-coin-day build_panel that
coinfactors.panel replaced, kept verbatim as exact oracles for the grid
implementation.

Every window is walked one calendar day at a time with a dict lookup per
day. The grid version multiplies by 1.0 and adds 0.0 on days without data,
which is exact, so the two must agree bit for bit. build_panel visits one
coin-day at a time, looks each conditioning series up by bisection, and
collects the kept coin-days as tuples before filling the panel arrays,
then scores a second z grid with standardize_cross_section, the package's
z-score pass before build_panel wrote into its own grid.
Both take reference_bars' DailyBar series; reference_bars.rows_of turns an
array series into one.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from coinfactors.errors import CoverageGap, MissingBitcoin
from coinfactors.panel import (
    CHARACTERISTIC_NAMES,
    WINSOR,
    CharacteristicWindows,
    Drop,
    Panel,
    PanelOptions,
    daily_riskfree,
    stacks_by_count,
    winsorized_zscores,
)
from reference_bars import ONE_DAY, CoinSeries, compute_returns


@dataclass(frozen=True)
class RawCharacteristics:
    """Raw characteristic levels at one coin-date; None marks a
    characteristic whose window had too little data."""

    size: float | None
    momentum: float | None
    liquidity: float | None
    value: float | None


class _CoinView:
    """Per-coin lookup tables shared by characteristic computation."""

    def __init__(self, series: CoinSeries, windows: CharacteristicWindows):
        self.windows = windows
        self.bars = {bar.date: bar for bar in series.bars}
        if len(series.bars) >= 2:
            self.returns = dict(compute_returns(series))
        else:
            self.returns = {}

    def _cumulative_return(
        self, date: dt.date, first_back: int, last_back: int
    ) -> float | None:
        # window [date - last_back, date - first_back], both inclusive
        window_len = last_back - first_back + 1
        growth = 1.0
        valid = 0
        for back in range(first_back, last_back + 1):
            ret = self.returns.get(date - dt.timedelta(days=back))
            if ret is not None:
                growth *= 1.0 + ret
                valid += 1
        if valid < self.windows.min_valid_share * window_len:
            return None
        return growth - 1.0

    def raw_at(self, date: dt.date) -> RawCharacteristics:
        w = self.windows
        bar = self.bars.get(date)
        size = None
        if bar is not None and bar.market_cap > 0.0:
            size = math.log(bar.market_cap)

        momentum = self._cumulative_return(date, 1, w.momentum_days)

        amihud_sum = 0.0
        amihud_days = 0
        for back in range(w.liquidity_days):
            day = date - dt.timedelta(days=back)
            ret = self.returns.get(day)
            day_bar = self.bars.get(day)
            if ret is None or day_bar is None or day_bar.volume <= 0.0:
                continue
            amihud_sum += abs(ret) / day_bar.volume
            amihud_days += 1
        liquidity = None
        if amihud_days >= w.min_valid_share * w.liquidity_days:
            mean = amihud_sum / amihud_days
            if mean > 0.0:
                liquidity = -math.log(mean)

        long_term = self._cumulative_return(date, w.value_near_days, w.value_far_days)
        value = None if long_term is None else -long_term

        return RawCharacteristics(size, momentum, liquidity, value)


def _missing(raw: RawCharacteristics) -> tuple[str, ...]:
    return tuple(n for n in CHARACTERISTIC_NAMES if getattr(raw, n) is None)


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
        if not view.returns:
            drops.append(Drop(coin.coin_id, None, "no_returns"))
            continue
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
            missing = _missing(raw)
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


def standardize_cross_section(
    panel: Panel, lower: float = WINSOR[0], upper: float = WINSOR[1]
) -> Panel:
    """Recompute every z-unit characteristic from the stored raw levels,
    per date across the coins present. Idempotent; raw values pass through
    unchanged. Dates with the same number of coins present are scored in
    stacks (stacks_by_count), one row per date."""
    z = np.zeros_like(panel.raw)
    for _, cols, rows in stacks_by_count(panel.mask):
        at = (rows, cols[:, None])
        for m in range(len(CHARACTERISTIC_NAMES)):
            z[m][at] = winsorized_zscores(panel.raw[m][at], lower, upper)
    return dataclasses.replace(panel, z=z)
