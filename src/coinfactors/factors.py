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
from .panel import Panel, characteristic_index

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
    """min_sort_coins must be at least 1; InvalidConfig otherwise."""

    min_sort_coins: int = 5
    exclude_btc_from_market: bool = False
    btc_id: str = "BTC"

    def __post_init__(self):
        if self.min_sort_coins < 1:
            raise InvalidConfig(
                f"min_sort_coins {self.min_sort_coins} must be at least 1"
            )


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


def _caps(size_raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Lagged market caps from size_raw (ln cap), one math.exp per value:
    np.exp can differ from it in the last bit."""
    return np.array([math.exp(x) for x in np.asarray(size_raw, dtype=float).tolist()])


def value_weights(size_raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized lagged-cap weights (size_raw is ln cap, so exp recovers
    the cap). Sums to 1."""
    w = _caps(size_raw)
    return w / w.sum()


def _weighted_return(caps: np.ndarray, excess: np.ndarray) -> float:
    """Cap-weighted excess return, with weights normalized to sum to 1."""
    return float((caps / caps.sum()) @ excess)


_LEG_LABELS = ("LOW", "MID", "HIGH")


def _sort_legs(values: np.ndarray) -> np.ndarray:
    """Leg code per entry (0 LOW, 1 MID, 2 HIGH), entries in coin order.

    Percentile rank = position / n in (value, coin) ascending order, with
    ties sharing the rank of their first occurrence, so the partition does
    not depend on input order. LOW is rank < 0.30, HIGH is rank >= 0.70.
    """
    n = values.size
    order = np.lexsort((np.arange(n), values))
    ordered = values[order]
    rank = np.searchsorted(ordered, ordered, side="left") / n
    legs = np.empty(n, dtype=np.int64)
    legs[order] = (rank >= LOW_BREAK).astype(np.int64) + (rank >= HIGH_BREAK)
    return legs


def _date_factors(
    panel: Panel,
    col: int,
    names: Sequence[str],
    options: FactorOptions,
    caps: np.ndarray,
) -> tuple[float, ...]:
    """The named factors on date column col, in order. caps holds the lagged
    cap of every coin-day, as build_factor_set makes it. The first factor
    that fails its precondition raises EmptyDate, TooFewCoins or EmptyLeg."""
    date = panel.dates[col]
    rows = np.flatnonzero(panel.mask[:, col])
    caps = caps[rows, col]
    excess = panel.excess[rows, col]
    out = []
    for name in names:
        if name == "mkt":
            keep = np.ones(rows.size, dtype=bool)
            if options.exclude_btc_from_market:
                keep = rows != panel.coin_index.get(options.btc_id, -1)
            if not keep.any():
                raise EmptyDate(date)
            out.append(_weighted_return(caps[keep], excess[keep]))
            continue
        if rows.size < options.min_sort_coins:
            raise TooFewCoins(date, options.min_sort_coins, rows.size)
        characteristic, long_label, short_label = LONG_SHORT[name]
        legs = _sort_legs(panel.raw[characteristic_index(characteristic), rows, col])
        spread = []
        for label in (long_label, short_label):
            members = legs == _LEG_LABELS.index(label)
            if not members.any():
                raise EmptyLeg(date, label)
            spread.append(_weighted_return(caps[members], excess[members]))
        out.append(spread[0] - spread[1])
    return tuple(out)


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
    characteristic, breakpoints at the 30th/70th percentile ranks (see
    _sort_legs for the tie rule)."""
    m = characteristic_index(characteristic)
    col = panel.date_index.get(date)
    rows = np.empty(0, dtype=np.intp)
    if col is not None:
        rows = np.flatnonzero(panel.mask[:, col])
    if rows.size < options.min_sort_coins:
        raise TooFewCoins(date, options.min_sort_coins, rows.size)
    legs = _sort_legs(panel.raw[m, rows, col]) if rows.size else rows
    return PortfolioAssignment(
        date=date,
        characteristic=characteristic,
        legs={
            panel.coins[i]: _LEG_LABELS[k] for i, k in zip(rows.tolist(), legs.tolist())
        },
    )


@dataclass(frozen=True, eq=False)
class FactorSet:
    """Daily factor vectors on a panel's date axis: values is a read-only
    dates x names array, NaN off the kept dates that mask marks, and
    dropped lists the other dates with their reasons."""

    names: tuple[str, ...]
    dates: tuple[dt.date, ...]
    mask: np.ndarray
    values: np.ndarray
    dropped: tuple[tuple[dt.date, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        for name, kind in (("mask", bool), ("values", float)):
            array = np.array(getattr(self, name), dtype=kind)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        want = (len(self.dates), len(self.names))
        if (self.mask.shape, self.values.shape) != (want[:1], want):
            raise InvalidConfig(f"factor set arrays do not fit {want} dates x factors")

    def require_dates(self, dates: tuple[dt.date, ...]) -> None:
        """Raise InvalidConfig unless the set lies on exactly these dates."""
        if self.dates != dates:
            raise InvalidConfig("factor set is not on the panel's dates")


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
    caps = np.zeros(panel.mask.shape)
    caps[panel.mask] = _caps(panel.raw[characteristic_index("size")][panel.mask])
    mask = np.zeros(len(panel.dates), dtype=bool)
    values = np.full((len(panel.dates), len(names)), np.nan)
    dropped = []
    for col, date in enumerate(panel.dates):
        try:
            values[col] = _date_factors(panel, col, names, options, caps)
            mask[col] = True
        except (TooFewCoins, EmptyLeg, EmptyDate) as exc:
            dropped.append((date, f"{type(exc).__name__}: {exc}"))
    return FactorSet(names, panel.dates, mask, values, tuple(dropped))


def write_factor_csv(factor_set: FactorSet, path: str | Path) -> None:
    """Serialize the kept dates as date,mkt,smb,val,mom,liq with empty cells
    for factors the set does not carry."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("date",) + FACTOR_NAMES)
        for col in np.flatnonzero(factor_set.mask).tolist():
            vector = factor_set.values[col].tolist()
            cells = {name: repr(v) for name, v in zip(factor_set.names, vector)}
            writer.writerow(
                [factor_set.dates[col].isoformat()]
                + [cells.get(name, "") for name in FACTOR_NAMES]
            )
