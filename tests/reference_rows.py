"""The per-row data model and estimation code that the columnar Panel
replaced, kept verbatim as the exact oracle for the column code.

Each coin-day is one frozen PanelObservation; factor sorts, the first pass
and the second pass walk those rows. Factors and risk-adjusted returns are
{date: value} mappings, in the FactorSet and FirstPassFit types that held
them before they moved onto the panel's date axis. row_view turns a
columnar Panel into these rows and panel_from_rows goes the other way, so
the same panel can be fed to both implementations. Both keep every float as stored, so the column
code must agree with this module bit for bit. Its z-scores and fits come
from the per-row kernels in reference_kernels.py, not from the batched ones,
and its Fama-MacBeth step and cross-section records from reference_fits.py.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from coinfactors.condbeta import (
    MIN_OBS_MARGIN,
    BetaSpec,
    build_design_matrix,
    param_names,
)
from coinfactors.econometrics import DEFAULT_RANK_TOLERANCE
from coinfactors.errors import (
    DuplicateDate,
    EmptyDate,
    EmptyLeg,
    InsufficientObservations,
    InvalidConfig,
    MissingCharacteristic,
    NoEligibleDates,
    RankDeficient,
    TooFewCoins,
)
from coinfactors.factors import (
    HIGH_BREAK,
    LONG_SHORT,
    LOW_BREAK,
    FactorOptions,
    resolve_factor_names,
)
from coinfactors.panel import _NO_DROPS, CHARACTERISTIC_NAMES, Drops
from coinfactors.panel import Panel as ColumnPanel
from coinfactors.pipeline import SIGNIFICANCE_Z, cross_section_floor
from reference_fits import CrossSectionFit, SecondPassResult, fama_macbeth
from reference_kernels import ols, winsorized_zscores


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


@dataclass(frozen=True)
class FirstPassFit:
    """Per-coin time-series fit and its risk-adjusted return series.

    coefficients, param_names and stderr align index for index in design
    column order, alpha first. risk_adjusted maps every fitted date to
    alpha plus that date's residual.
    """

    coin_id: str
    param_names: tuple[str, ...]
    coefficients: np.ndarray
    stderr: np.ndarray
    r2: float
    adj_r2: float
    n_obs: int
    n_params: int
    risk_adjusted: Mapping[dt.date, float]


def row_view(panel: ColumnPanel) -> "Panel":
    """Every present coin-day of a columnar panel as one PanelObservation."""
    observations = []
    for i, coin_id in enumerate(panel.coins):
        for j in np.flatnonzero(panel.mask[i]).tolist():
            chars = CharacteristicVector(
                *panel.z[:, i, j].tolist(), *panel.raw[:, i, j].tolist()
            )
            cond = ConditioningInfo(float(panel.u[j]), float(panel.r_btc[j]))
            observations.append(
                PanelObservation(
                    coin_id,
                    panel.dates[j],
                    float(panel.ret[i, j]),
                    float(panel.excess[i, j]),
                    chars,
                    cond,
                )
            )
    return Panel.from_observations(observations, panel.riskfree_mode, panel.dropped)


def panel_from_rows(
    observations: Iterable["PanelObservation"],
    riskfree_mode: str = "tbill",
    dropped: Drops = _NO_DROPS,
) -> ColumnPanel:
    """The columnar panel holding exactly these observations; a repeated
    (coin, date) raises DuplicateDate, as the row panel does."""
    rows = Panel.from_observations(observations, riskfree_mode, dropped)
    coins, dates = rows.coins(), rows.dates()
    row = {c: i for i, c in enumerate(coins)}
    col = {d: j for j, d in enumerate(dates)}
    shape = (len(coins), len(dates))
    mask = np.zeros(shape, dtype=bool)
    ret, excess, u, r_btc = (np.zeros(shape) for _ in range(4))
    z = np.zeros((len(CHARACTERISTIC_NAMES),) + shape)
    raw = np.zeros_like(z)
    for o in rows.observations:
        i, j = row[o.coin_id], col[o.date]
        mask[i, j] = True
        ret[i, j], excess[i, j] = o.ret, o.excess
        u[i, j], r_btc[i, j] = o.cond.u, o.cond.r_btc
        for m, name in enumerate(CHARACTERISTIC_NAMES):
            z[m, i, j] = o.chars.z(name)
            raw[m, i, j] = o.chars.raw(name)
    return ColumnPanel(
        coins, dates, mask, ret, excess, z, raw, u, r_btc,
        riskfree_mode, rows.dropped,
    )


@dataclass(frozen=True)
class CharacteristicVector:
    """Cross-sectionally standardized characteristics with raw levels kept
    alongside. z fields are winsorized z-scores within the observation date's
    cross-section."""

    size: float
    momentum: float
    liquidity: float
    value: float
    size_raw: float
    momentum_raw: float
    liquidity_raw: float
    value_raw: float

    def z(self, name: str) -> float:
        if name not in CHARACTERISTIC_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def raw(self, name: str) -> float:
        if name not in CHARACTERISTIC_NAMES:
            raise KeyError(name)
        return getattr(self, f"{name}_raw")


@dataclass(frozen=True)
class ConditioningInfo:
    """Lagged state at t-1: standardized uncertainty level and Bitcoin
    daily return in raw decimal units."""

    u: float
    r_btc: float


@dataclass(frozen=True)
class PanelObservation:
    coin_id: str
    date: dt.date
    ret: float
    excess: float
    chars: CharacteristicVector
    cond: ConditioningInfo


@dataclass(frozen=True)
class Panel:
    """Immutable observation set with date and coin indexes.

    observations are sorted by (date, coin_id); each (coin, date) appears at
    most once, and the constructor raises DuplicateDate otherwise.
    riskfree_mode records whether excess returns were taken against the
    treasury rate ("tbill") or the Bitcoin return ("btc").
    """

    observations: tuple[PanelObservation, ...]
    riskfree_mode: str
    dropped: Drops = _NO_DROPS
    _by_date: dict = field(init=False, repr=False, compare=False, default=None)
    _by_coin: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        by_date: dict[dt.date, list[PanelObservation]] = {}
        by_coin: dict[str, list[PanelObservation]] = {}
        seen = set()
        for obs in self.observations:
            key = (obs.coin_id, obs.date)
            if key in seen:
                raise DuplicateDate(obs.date, context=obs.coin_id)
            seen.add(key)
            by_date.setdefault(obs.date, []).append(obs)
            by_coin.setdefault(obs.coin_id, []).append(obs)
        object.__setattr__(
            self, "_by_date", {d: tuple(v) for d, v in sorted(by_date.items())}
        )
        object.__setattr__(
            self, "_by_coin", {c: tuple(v) for c, v in sorted(by_coin.items())}
        )

    @classmethod
    def from_observations(
        cls,
        observations: Iterable[PanelObservation],
        riskfree_mode: str,
        dropped: Drops = _NO_DROPS,
    ) -> "Panel":
        obs = sorted(observations, key=lambda o: (o.date, o.coin_id))
        return cls(tuple(obs), riskfree_mode, dropped)

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(self._by_date)

    def coins(self) -> tuple[str, ...]:
        return tuple(self._by_coin)

    def by_date(self, date: dt.date) -> tuple[PanelObservation, ...]:
        return self._by_date.get(date, ())

    def by_coin(self, coin_id: str) -> tuple[PanelObservation, ...]:
        return self._by_coin.get(coin_id, ())


def standardize_cross_section(
    panel: Panel, lower: float = 1.0, upper: float = 99.0
) -> Panel:
    """Recompute every z-unit characteristic from the stored raw levels,
    per date across coins. Idempotent; raw values pass through unchanged."""
    out = []
    for date in panel.dates():
        obs = panel.by_date(date)
        zs = {
            name: winsorized_zscores([o.chars.raw(name) for o in obs], lower, upper)
            for name in CHARACTERISTIC_NAMES
        }
        for i, o in enumerate(obs):
            chars = CharacteristicVector(
                size=float(zs["size"][i]),
                momentum=float(zs["momentum"][i]),
                liquidity=float(zs["liquidity"][i]),
                value=float(zs["value"][i]),
                size_raw=o.chars.size_raw,
                momentum_raw=o.chars.momentum_raw,
                liquidity_raw=o.chars.liquidity_raw,
                value_raw=o.chars.value_raw,
            )
            out.append(
                PanelObservation(o.coin_id, o.date, o.ret, o.excess, chars, o.cond)
            )
    return Panel.from_observations(out, panel.riskfree_mode, panel.dropped)


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


def _own_lagged_returns(
    observations: Sequence[PanelObservation],
) -> dict[dt.date, float]:
    ret_by_date = {o.date: o.ret for o in observations}
    return {
        o.date: ret_by_date[o.date - dt.timedelta(days=1)]
        for o in observations
        if o.date - dt.timedelta(days=1) in ret_by_date
    }


def first_pass(
    observations: Sequence[PanelObservation],
    factor_set: FactorSet,
    spec: BetaSpec,
    min_obs_margin: int = MIN_OBS_MARGIN,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> FirstPassFit:
    """Time-series regression of one coin's excess returns on the expanded
    factor design, over the dates present in both the coin and the factor
    set. Requires n >= n_params + min_obs_margin observations.
    """
    if not observations:
        raise InsufficientObservations("<empty>", min_obs_margin + 1, 0)
    coin_id = observations[0].coin_id
    obs = sorted(observations, key=lambda o: o.date)
    if spec.lagged_return == "own":
        own = _own_lagged_returns(obs)
        rows = [o for o in obs if o.date in factor_set.values and o.date in own]
        r_values = [own[o.date] for o in rows]
    else:
        rows = [o for o in obs if o.date in factor_set.values]
        r_values = [o.cond.r_btc for o in rows]
    names = param_names(factor_set.names, spec)
    p = len(names)
    n = len(rows)
    if n < p + min_obs_margin:
        raise InsufficientObservations(coin_id, p + min_obs_margin, n)

    F = np.array([factor_set.vector(o.date) for o in rows], dtype=float)
    u = np.array([o.cond.u for o in rows], dtype=float)
    r = np.array(r_values, dtype=float)
    try:
        C = np.array(
            [[o.chars.z(c) for c in spec.characteristics] for o in rows], dtype=float
        ).reshape(n, len(spec.characteristics))
    except KeyError as exc:
        raise MissingCharacteristic(str(exc.args[0])) from None

    design = build_design_matrix(F, u, r, C, spec)
    X = np.hstack([np.ones((n, 1)), design])
    y = np.array([o.excess for o in rows], dtype=float)
    try:
        fit = ols(X, y, rank_tolerance=rank_tolerance)
    except RankDeficient as exc:
        raise RankDeficient(
            [names[i] for i in exc.columns], message=f"coin {coin_id}"
        ) from None

    alpha = float(fit.coefficients[0])
    return FirstPassFit(
        coin_id=coin_id,
        param_names=names,
        coefficients=fit.coefficients,
        stderr=fit.stderr,
        r2=fit.r2,
        adj_r2=fit.adj_r2,
        n_obs=fit.n_obs,
        n_params=fit.n_params,
        risk_adjusted={o.date: alpha + float(e) for o, e in zip(rows, fit.residuals)},
    )


def second_pass(
    risk_adjusted: Mapping[str, Mapping[dt.date, float]],
    panel: Panel,
    anomalies: Sequence[str],
    floor_base: int = 20,
    nw_lags: int | None = None,
    significance_z: float = SIGNIFICANCE_Z,
    rank_tolerance: float = DEFAULT_RANK_TOLERANCE,
) -> SecondPassResult:
    """Daily cross-sections of R* on the standardized anomaly vector.

    Dates with fewer coins than the floor, or with a degenerate design
    (for example all-zero z-scores), are skipped and recorded. Requires at
    least 2 surviving dates.
    """
    anomalies = tuple(anomalies)
    floor = cross_section_floor(len(anomalies), floor_base)
    by_date: dict[dt.date, list[tuple[str, float]]] = {}
    for coin_id in sorted(risk_adjusted):
        for date, rstar in risk_adjusted[coin_id].items():
            by_date.setdefault(date, []).append((coin_id, rstar))
    obs_index = {(o.coin_id, o.date): o for o in panel.observations}

    fits = []
    skipped = []
    for date in sorted(by_date):
        rows = [
            (obs_index[(coin_id, date)], rstar)
            for coin_id, rstar in sorted(by_date[date])
            if (coin_id, date) in obs_index
        ]
        if len(rows) < floor:
            skipped.append((date, f"below_floor:{len(rows)}<{floor}"))
            continue
        X = np.column_stack(
            [np.ones(len(rows))]
            + [np.array([o.chars.z(a) for o, _ in rows]) for a in anomalies]
        )
        y = np.array([rstar for _, rstar in rows])
        try:
            fit = ols(X, y, rank_tolerance=rank_tolerance)
        except RankDeficient as exc:
            skipped.append((date, f"rank_deficient:{exc.columns}"))
            continue
        fits.append(CrossSectionFit(date=date, fit=fit, n_coins=len(rows)))
    if len(fits) < 2:
        raise NoEligibleDates(
            f"{len(fits)} eligible dates after floor {floor}, need at least 2"
        )
    fm = fama_macbeth(
        {f.date: f.fit for f in fits},
        ("c0",) + anomalies,
        nw_lags=nw_lags,
        significance_z=significance_z,
    )
    return SecondPassResult(fits=tuple(fits), fm=fm, skipped=tuple(skipped))
