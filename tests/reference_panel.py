"""The per-day characteristic loop that coinfactors.panel._CoinView
replaced, kept verbatim as the exact oracle for the grid implementation.

Every window is walked one calendar day at a time with a dict lookup per
day. The grid version multiplies by 1.0 and adds 0.0 on days without data,
which is exact, so the two must agree bit for bit.
"""

from __future__ import annotations

import datetime as dt
import math

from coinfactors.ingest import CoinSeries
from coinfactors.panel import (
    CharacteristicWindows,
    RawCharacteristics,
    compute_returns,
)


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
