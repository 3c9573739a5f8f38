"""Daily risk factors: value-weighted market excess return plus long-short
factors from single sorts on lagged characteristics.

Sorts use raw (pre-standardization) characteristic levels with 30/70
breakpoints; legs are value-weighted by lagged market cap. All inputs are
dated t-1 through the panel, so factor values at t use no information from t
beyond the returns being priced.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyDate, EmptyLeg, InvalidConfig, TooFewCoins
from .ingest import write_csv_rows
from .panel import Panel, characteristic_index, stacks_by_count

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


def value_weights(size_raw: Sequence[float] | np.ndarray) -> np.ndarray:
    """Normalized lagged-cap weights (size_raw is ln cap, so exp recovers
    the cap, one math.exp per value as Panel.caps takes it). Sums to 1."""
    w = np.array([math.exp(x) for x in np.asarray(size_raw, dtype=float).tolist()])
    return w / w.sum()


_LEG_LABELS = ("LOW", "MID", "HIGH")


def _sort_legs(values: np.ndarray) -> np.ndarray:
    """Leg code per entry (0 LOW, 1 MID, 2 HIGH) of each row, sorting along
    the last axis; a 1-D argument is one row of entries in coin order.

    Percentile rank = position / n in (value, coin) ascending order, with
    ties sharing the rank of their first occurrence, so the partition does
    not depend on input order. LOW is rank < 0.30, HIGH is rank >= 0.70.
    """
    n = values.shape[-1]
    position = np.broadcast_to(np.arange(n), values.shape)
    order = np.lexsort((position, values))
    ordered = np.take_along_axis(values, order, axis=-1)
    starts = np.ones(values.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    rank = np.maximum.accumulate(np.where(starts, position, 0), axis=-1) / n
    legs = np.empty(values.shape, dtype=np.int64)
    codes = (rank >= LOW_BREAK).astype(np.int64) + (rank >= HIGH_BREAK)
    np.put_along_axis(legs, order, codes, axis=-1)
    return legs


def _weighted_returns(
    members: np.ndarray, caps: np.ndarray, excess: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cap-weighted excess return of each date's members, weights
    normalized to sum to 1, and which dates have a member. members is a
    boolean (coins x dates) mask, caps and excess (coins x dates) arrays.
    Dates with the same member count are weighted as one stack
    (panel.stacks_by_count): each row sums and dots contiguously, so every
    date gets the bits (c / c.sum()) @ excess gives on its members alone."""
    values = np.zeros(members.shape[1])
    for _, cols, rows in stacks_by_count(members):
        at = (rows, cols[:, None])
        c = caps[at]
        weights = c / c.sum(axis=-1, keepdims=True)
        values[cols] = (weights[:, None, :] @ excess[at][..., None])[:, 0, 0]
    return values, members.any(axis=0)


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
    imputed. The reason is that of the first failing check, in menu order.
    """
    names = resolve_factor_names(menu)
    caps = panel.caps
    counts = panel.mask.sum(axis=0)
    values = np.empty((len(panel.dates), len(names)))
    checks = []  # (failing dates, the error of one date column), in order
    for k, name in enumerate(names):
        if name == "mkt":
            members = panel.mask.copy()
            if options.exclude_btc_from_market and options.btc_id in panel.coin_index:
                members[panel.coin_index[options.btc_id]] = False
            values[:, k], held = _weighted_returns(members, caps, panel.excess)
            checks.append((~held, lambda col: EmptyDate(panel.dates[col])))
            continue
        need = options.min_sort_coins
        checks.append(
            (counts < need, lambda col: TooFewCoins(panel.dates[col], need, int(counts[col])))
        )
        characteristic, *labels = LONG_SHORT[name]
        # each coin-day's leg, sorted in stacks of dates with one coin count
        raw = panel.raw[characteristic_index(characteristic)]
        legs = np.full(panel.mask.shape, -1, dtype=np.int8)
        for _, cols, rows in stacks_by_count(panel.mask):
            legs[rows, cols[:, None]] = _sort_legs(raw[rows, cols[:, None]])
        spread = []
        for label in labels:  # long, then short
            leg, held = _weighted_returns(legs == _LEG_LABELS.index(label), caps, panel.excess)
            spread.append(leg)
            checks.append((~held, lambda col, label=label: EmptyLeg(panel.dates[col], label)))
        values[:, k] = spread[0] - spread[1]
    failing = np.array([fails for fails, _ in checks])
    mask = ~failing.any(axis=0)
    values[~mask] = np.nan
    dropped = []
    for col in np.flatnonzero(~mask).tolist():
        exc = checks[int(failing[:, col].argmax())][1](col)
        dropped.append((panel.dates[col], f"{type(exc).__name__}: {exc}"))
    return FactorSet(names, panel.dates, mask, values, tuple(dropped))


def write_factor_csv(factor_set: FactorSet, path: str | Path) -> None:
    """Serialize the kept dates as date,mkt,smb,val,mom,liq with empty cells
    for factors the set does not carry."""

    def row(col: int) -> list[str]:
        vector = factor_set.values[col].tolist()
        cells = {name: repr(v) for name, v in zip(factor_set.names, vector)}
        return [factor_set.dates[col].isoformat()] + [cells.get(n, "") for n in FACTOR_NAMES]

    with write_csv_rows(path, ("date",) + FACTOR_NAMES) as write:
        write(map(row, np.flatnonzero(factor_set.mask).tolist()))
