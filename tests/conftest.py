import datetime as dt
import math

import numpy as np
import pytest

from coinfactors.condbeta import build_design_matrix
from coinfactors.factors import FactorSet
from coinfactors.ingest import BAR_DTYPE, LEVEL_DTYPE, CoinSeries
from coinfactors.panel import CharacteristicWindows, PanelOptions, _CoinView, build_panel
from coinfactors.synth import generate_synthetic, scenario
from reference_panel import RawCharacteristics
from reference_rows import (
    CharacteristicVector,
    ConditioningInfo,
    PanelObservation,
    panel_from_rows,
)

D0 = dt.date(2021, 1, 1)


def day(i: int) -> dt.date:
    return D0 + dt.timedelta(days=i)


def make_series(coin_id, closes, start=D0, volume=1_000_000.0, caps=None):
    """CoinSeries over consecutive days; caps default to 100x close."""
    closes = np.array(closes, dtype=float)
    bars = np.empty(closes.size, dtype=BAR_DTYPE)
    bars["day"] = start.toordinal() + np.arange(closes.size)
    bars["close"] = closes
    bars["volume"] = volume
    bars["market_cap"] = closes * 100.0 if caps is None else caps
    return CoinSeries(coin_id, bars)


def bar_series(coin_id, rows):
    """CoinSeries of (date, close, volume, market_cap) rows."""
    bars = [(d.toordinal(), close, volume, cap) for d, close, volume, cap in rows]
    return CoinSeries(coin_id, np.array(bars, dtype=BAR_DTYPE))


def level_array(levels):
    """A {date: level} mapping as the LEVEL_DTYPE array a level parser
    returns."""
    rows = sorted((d.toordinal(), value) for d, value in levels.items())
    return np.array(rows, dtype=LEVEL_DTYPE)


def level_dict(levels):
    """A LEVEL_DTYPE array as the {date: level} mapping the old level
    parsers returned."""
    return {dt.date.fromordinal(d): value for d, value in levels.tolist()}


def build_panel_of_dicts(coins, epu, riskfree, options=PanelOptions()):
    """build_panel on {date: level} mappings of the two series."""
    return build_panel(coins, level_array(epu), level_array(riskfree), options)


def raw_characteristics(series, date, windows=CharacteristicWindows()):
    """The coin's raw characteristic levels at date from its calendar grid,
    None where a window had too little data. A date off the grid reads the
    grid's final day, on which every window is empty."""
    view = _CoinView(series, windows)
    k = date.toordinal() - view.origin
    if not 0 <= k < view.ret.size:
        k = -1
    levels = view.raw[:, k].tolist()
    return RawCharacteristics(*(None if math.isnan(v) else v for v in levels))


def make_obs(
    coin_id,
    date,
    ret=0.0,
    excess=None,
    u=0.0,
    r_btc=0.0,
    size=0.0,
    momentum=0.0,
    liquidity=0.0,
    value=0.0,
    size_raw=18.0,
    momentum_raw=0.0,
    liquidity_raw=17.0,
    value_raw=0.0,
):
    chars = CharacteristicVector(
        size=size,
        momentum=momentum,
        liquidity=liquidity,
        value=value,
        size_raw=size_raw,
        momentum_raw=momentum_raw,
        liquidity_raw=liquidity_raw,
        value_raw=value_raw,
    )
    return PanelObservation(
        coin_id=coin_id,
        date=date,
        ret=ret,
        excess=ret if excess is None else excess,
        chars=chars,
        cond=ConditioningInfo(u=u, r_btc=r_btc),
    )


def make_panel(observations, riskfree_mode="tbill"):
    """The columnar panel holding these make_obs rows."""
    return panel_from_rows(observations, riskfree_mode)


def factor_set_on(panel, names, values):
    """A FactorSet on the panel's dates holding values[date] (a tuple in
    names order) on each date values has; the other dates are dropped."""
    rows = [values.get(d) for d in panel.dates]
    return FactorSet(
        names,
        panel.dates,
        np.array([row is not None for row in rows]),
        np.array([(np.nan,) * len(names) if row is None else row for row in rows]),
    )


def fitted_dates(fit, dates):
    """The dates on which a first-pass fit holds a risk-adjusted return."""
    return [dates[j] for j in np.flatnonzero(~np.isnan(fit.risk_adjusted))]


def decomposition_errors(fit, observations, factor_set, spec, r_by_date=None):
    """|excess - R* - design @ loadings| on every date the first-pass fit
    used, with the design rebuilt through build_design_matrix. r_by_date
    gives the lagged return per date; by default it is the Bitcoin lag."""
    by_date = {o.date: o for o in observations}
    cols = np.flatnonzero(~np.isnan(fit.risk_adjusted))
    dates = [factor_set.dates[j] for j in cols]
    rows = [by_date[d] for d in dates]
    if r_by_date is None:
        r_by_date = {o.date: o.cond.r_btc for o in rows}
    design = build_design_matrix(
        factor_set.values[cols],
        np.array([o.cond.u for o in rows]),
        np.array([r_by_date[d] for d in dates]),
        np.array([[o.chars.z(c) for c in spec.characteristics] for o in rows]),
        spec,
    )
    excess = np.array([o.excess for o in rows])
    rstar = fit.risk_adjusted[cols]
    return np.abs(excess - rstar - design @ fit.coefficients[1:])


@pytest.fixture(scope="session")
def synth_b():
    """One moderately sized conditional-world draw shared across tests."""
    return generate_synthetic(scenario("B", 30, 420, seed=5))


@pytest.fixture(scope="session")
def synth_a():
    return generate_synthetic(scenario("A", 20, 420, seed=9))
