"""Daily risk factors: value-weighted market excess return plus long-short
factors from single sorts on lagged characteristics.

Sorts use raw (pre-standardization) characteristic levels with 30/70
breakpoints; legs are value-weighted by lagged market cap. All inputs are
dated t-1 through the panel, so factor values at t use no information from t
beyond the returns being priced.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDate, EmptyLeg, InvalidConfig, TooFewCoins
from .panel import Panel, PanelObservation

FACTOR_NAMES = ("mkt", "smb", "val", "mom", "liq")

FACTOR_MENU = {
    "CAPM": ("mkt",),
    "FF3": ("mkt", "smb", "val"),
    "C4": ("mkt", "smb", "val", "mom"),
    "FF3LIQ": ("mkt", "smb", "val", "liq"),
    "ALL": ("mkt", "smb", "val", "mom", "liq"),
}

# long-short construction per factor: characteristic sorted on, long leg,
# short leg. liq goes long the LOW leg because low liquidity means illiquid.
LONG_SHORT = {
    "smb": ("size", "LOW", "HIGH"),
    "val": ("value", "HIGH", "LOW"),
    "mom": ("momentum", "HIGH", "LOW"),
    "liq": ("liquidity", "LOW", "HIGH"),
}

LOW_BREAK = 0.30
HIGH_BREAK = 0.70


@dataclass(frozen=True)
class FactorOptions:
    min_sort_coins: int = 5
    exclude_btc_from_market: bool = False
    btc_id: str = "BTC"


def resolve_factor_names(menu: str | Sequence[str]) -> tuple[str, ...]:
    """Map a menu label (CAPM/FF3/C4/FF3LIQ/ALL) or explicit name list to the
    factor tuple it demands."""
    if isinstance(menu, str):
        names = FACTOR_MENU.get(menu)
        if names is None:
            raise InvalidConfig(
                f"unknown factor menu {menu!r}, expected one of {sorted(FACTOR_MENU)}"
            )
        return names
    names = tuple(menu)
    for name in names:
        if name not in FACTOR_NAMES:
            raise InvalidConfig(f"unknown factor {name!r}")
    if not names:
        raise InvalidConfig("factor list is empty")
    return names


def value_weights(observations: Sequence[PanelObservation]) -> np.ndarray:
    """Normalized lagged-cap weights (size_raw is ln cap, so exp recovers
    the cap). Sums to 1."""
    w = np.array([math.exp(o.chars.size_raw) for o in observations], dtype=float)
    return w / w.sum()


def market_factor(
    panel: Panel, date: dt.date, options: FactorOptions = FactorOptions()
) -> float:
    """Value-weighted average excess return across the universe at date."""
    obs = panel.by_date(date)
    if options.exclude_btc_from_market:
        obs = tuple(o for o in obs if o.coin_id != options.btc_id)
    if not obs:
        raise EmptyDate(date)
    weights = value_weights(obs)
    excess = np.array([o.excess for o in obs], dtype=float)
    return float(weights @ excess)


@dataclass(frozen=True)
class PortfolioAssignment:
    """Leg labels (LOW/MID/HIGH) per coin for one date and characteristic."""

    date: dt.date
    characteristic: str
    legs: Mapping[str, str]

    def leg(self, label: str) -> tuple[str, ...]:
        return tuple(sorted(c for c, l in self.legs.items() if l == label))


def sort_portfolios(
    panel: Panel,
    date: dt.date,
    characteristic: str,
    options: FactorOptions = FactorOptions(),
) -> PortfolioAssignment:
    """Assign every coin at date to LOW / MID / HIGH by the lagged raw
    characteristic, breakpoints at the 30th/70th percentile ranks.

    Percentile rank = position / n in (value, coin_id) ascending order, with
    ties sharing the rank of their first occurrence, so the partition does
    not depend on input order. LOW is rank < 0.30, HIGH is rank >= 0.70.
    """
    obs = panel.by_date(date)
    n = len(obs)
    if n < options.min_sort_coins:
        raise TooFewCoins(date, options.min_sort_coins, n)
    ordered = sorted(obs, key=lambda o: (o.chars.raw(characteristic), o.coin_id))
    legs = {}
    first_at_value: dict[float, int] = {}
    for position, o in enumerate(ordered):
        value = o.chars.raw(characteristic)
        rank = first_at_value.setdefault(value, position) / n
        if rank < LOW_BREAK:
            legs[o.coin_id] = "LOW"
        elif rank >= HIGH_BREAK:
            legs[o.coin_id] = "HIGH"
        else:
            legs[o.coin_id] = "MID"
    return PortfolioAssignment(date=date, characteristic=characteristic, legs=legs)


def _leg_return(
    obs_by_coin: Mapping[str, PanelObservation],
    assignment: PortfolioAssignment,
    label: str,
) -> float:
    members = [obs_by_coin[c] for c in assignment.leg(label)]
    if not members:
        raise EmptyLeg(assignment.date, label)
    weights = value_weights(members)
    excess = np.array([o.excess for o in members], dtype=float)
    return float(weights @ excess)


def long_short_factor(
    panel: Panel,
    date: dt.date,
    name: str,
    options: FactorOptions = FactorOptions(),
) -> float:
    """Value-weighted long-leg return minus short-leg return of the named
    long-short factor; LONG_SHORT gives its sort characteristic and legs."""
    if name not in LONG_SHORT:
        raise InvalidConfig(
            f"unknown long-short factor {name!r}, expected one of {sorted(LONG_SHORT)}"
        )
    characteristic, long_label, short_label = LONG_SHORT[name]
    assignment = sort_portfolios(panel, date, characteristic, options)
    obs_by_coin = {o.coin_id: o for o in panel.by_date(date)}
    long_ret = _leg_return(obs_by_coin, assignment, long_label)
    short_ret = _leg_return(obs_by_coin, assignment, short_label)
    return long_ret - short_ret


@dataclass(frozen=True)
class FactorSet:
    """Daily factor vectors, one tuple per surviving date, plus the dates
    dropped during construction with their reasons."""

    names: tuple[str, ...]
    values: Mapping[dt.date, tuple[float, ...]]
    dropped: tuple[tuple[dt.date, str], ...] = ()

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(sorted(self.values))

    def vector(self, date: dt.date) -> tuple[float, ...]:
        return self.values[date]


def build_factor_set(
    panel: Panel,
    menu: str | Sequence[str],
    options: FactorOptions = FactorOptions(),
) -> FactorSet:
    """Compute the demanded factors for every panel date.

    A date where any demanded factor fails its precondition (too few coins,
    an empty leg, an empty market) is dropped from the set and recorded, not
    imputed.
    """
    names = resolve_factor_names(menu)
    values: dict[dt.date, tuple[float, ...]] = {}
    dropped = []
    for date in panel.dates():
        row = []
        try:
            for name in names:
                if name == "mkt":
                    row.append(market_factor(panel, date, options))
                else:
                    row.append(long_short_factor(panel, date, name, options))
        except (TooFewCoins, EmptyLeg, EmptyDate) as exc:
            dropped.append((date, f"{type(exc).__name__}: {exc}"))
            continue
        values[date] = tuple(row)
    return FactorSet(names=names, values=values, dropped=tuple(dropped))


def write_factor_csv(factor_set: FactorSet, path: str | Path) -> None:
    """Serialize as date,mkt,smb,val,mom,liq with empty cells for factors
    the set does not carry."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("date",) + FACTOR_NAMES)
        for date in factor_set.dates():
            vector = factor_set.vector(date)
            cells = {name: repr(v) for name, v in zip(factor_set.names, vector)}
            writer.writerow(
                [date.isoformat()] + [cells.get(name, "") for name in FACTOR_NAMES]
            )
