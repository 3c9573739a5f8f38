"""The columnar factor build, standardization and both passes against the
per-row code they replaced (tests/reference_rows.py). Both sides read the
same stored floats in the same order, so agreement is exact: equal values
and equal reprs, which also separate -0.0 from 0.0 and catch a changed
exception message. The oracle keeps factors and risk-adjusted returns in
{date: value} mappings; the column code keeps them on the panel's date
axis, and each is turned into the other's form only to compare.
"""

from unittest import mock

import numpy as np
import pytest

import coinfactors.panel
import reference_rows as ref
from coinfactors.condbeta import BetaSpec, first_pass
from coinfactors.factors import FactorOptions, build_factor_set, sort_portfolios
from coinfactors.ingest import (
    CoinSeries,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import (
    CHARACTERISTIC_NAMES,
    STACK_CELLS,
    CharacteristicWindows,
    PanelOptions,
    build_panel,
)
from coinfactors.pipeline import second_pass
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario
from conftest import standardized
from oracle_compare import assert_same
from reference_fits import fitted_rows
from reference_rows import panel_from_rows, row_view

SPECS = (
    BetaSpec("unconditional"),
    BetaSpec("conditional"),
    BetaSpec("conditional", characteristics=("size", "value"), lagged_return="own"),
)
ANOMALIES = (("size", "liquidity", "momentum"), ("value",))


def _outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure must match too
        return (type(exc), str(exc))


def _dict_factor_set(factor_set):
    """A columnar factor set as the oracle's {date: tuple} FactorSet."""
    values = {
        date: tuple(vector)
        for date, kept, vector in zip(
            factor_set.dates, factor_set.mask.tolist(), factor_set.values.tolist()
        )
        if kept
    }
    return ref.FactorSet(factor_set.names, values, factor_set.dropped)


def _fit_key(fit, dates=None):
    """A fit's exact content, its arrays to be compared by bytes; dates is
    the axis of a columnar fit's R* row, None for an oracle fit."""
    if isinstance(fit, tuple):
        return fit
    if dates is None:
        risk_adjusted = sorted(fit.risk_adjusted.items())
    else:
        cols = np.flatnonzero(~np.isnan(fit.risk_adjusted)).tolist()
        values = fit.risk_adjusted.tolist()
        risk_adjusted = [(dates[j], values[j]) for j in cols]
    return {
        "coin_id": fit.coin_id,
        "param_names": fit.param_names,
        "coefficients": fit.coefficients,
        "stderr": fit.stderr,
        "stats": (fit.r2, fit.adj_r2, fit.n_obs, fit.n_params),
        "risk_adjusted": risk_adjusted,
    }


def _second_pass_key(result):
    if isinstance(result, tuple):
        return result
    return {"fits": fitted_rows(result.fits), "fm": result.fm, "skipped": result.skipped}


def assert_matches_reference(panel, menus, options=FactorOptions(), floor_base=20):
    """Factor sets, every coin's first pass under every spec, and the second
    pass on each spec's risk-adjusted returns equal the per-row code's.
    Returns the counts of first-pass fits, first-pass failures and skipped
    cross-section dates."""
    rows = row_view(panel)
    expected = ref.standardize_cross_section(rows).observations
    # budgets of one date a stack, of a few small dates a stack, and the default
    for cells in (1, 16, STACK_CELLS):
        with mock.patch.object(coinfactors.panel, "STACK_CELLS", cells):
            rescored = standardized(panel)
        assert_same(row_view(rescored).observations, expected,
                    f"z-scores at STACK_CELLS={cells}: observations")
    fitted = failed = skipped = 0
    for menu in menus:
        factor_set = build_factor_set(panel, menu, options)
        reference = ref.build_factor_set(rows, menu, options)
        as_dict = _dict_factor_set(factor_set)
        assert_same(as_dict.values, reference.values, f"{menu} factor values")
        assert as_dict == reference
        for spec in SPECS:
            fits = {}
            rstar = np.full(panel.mask.shape, np.nan)
            for coin in panel.coins:
                new = _outcome(first_pass, panel, coin, factor_set, spec)
                old = _outcome(ref.first_pass, rows.by_coin(coin), reference, spec)
                assert_same(_fit_key(new, panel.dates), _fit_key(old),
                            f"{menu} {spec} first pass of {coin}", exact=True)
                if not isinstance(new, tuple):
                    fits[coin] = old.risk_adjusted
                    rstar[panel.coin_index[coin]] = new.risk_adjusted
            fitted += len(fits)
            failed += len(panel.coins) - len(fits)
            for anomalies in ANOMALIES:
                new = _outcome(second_pass, rstar, panel, anomalies, floor_base=floor_base)
                old = _outcome(ref.second_pass, fits, rows, anomalies, floor_base=floor_base)
                assert_same(_second_pass_key(new), _second_pass_key(old),
                            f"{menu} {spec} second pass on {anomalies}")
                if not isinstance(new, tuple):
                    skipped += len(new.skipped)
    return fitted, failed, skipped


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_passes_match_reference_on_scenarios(name):
    panel, _ = generate_synthetic(scenario(name, 24, 240, seed=7))
    fitted, _, _ = assert_matches_reference(panel, ("CAPM", "FF3", "ALL"))
    assert fitted > 0
    rows = row_view(panel)
    for date in panel.dates[:40]:
        for characteristic in CHARACTERISTIC_NAMES:
            assert sort_portfolios(panel, date, characteristic).legs == \
                ref.sort_portfolios(rows, date, characteristic).legs


def test_own_lag_across_missing_calendar_date():
    # with a whole date gone, the previous date column is two calendar days
    # back, which an own-lag fit must not use as the previous day
    panel, _ = generate_synthetic(scenario("B", 24, 240, seed=8))
    gone = set(panel.dates[100:101] + panel.dates[150:153])
    observations = [
        o for k, o in enumerate(row_view(panel).observations)
        if o.date not in gone and k % 17 != 0
    ]
    gapped = panel_from_rows(observations)
    assert len(gapped.dates) == len(panel.dates) - 4
    fitted, _, _ = assert_matches_reference(gapped, ("CAPM", "FF3"))
    assert fitted > 0
    own = BetaSpec("conditional", lagged_return="own")
    factor_set = build_factor_set(gapped, "CAPM")
    btc = first_pass(gapped, gapped.coins[0], factor_set, BetaSpec("conditional"))
    fit = first_pass(gapped, gapped.coins[0], factor_set, own)
    after_gap = gapped.date_index[panel.dates[101]]
    assert not np.isnan(btc.risk_adjusted[after_gap])
    assert np.isnan(fit.risk_adjusted[after_gap])


def _gapped(series, phase):
    """The series with a bar removed every 11 days, shifted by phase."""
    keep = (np.arange(len(series.bars)) + phase) % 11 != 0
    return CoinSeries(series.coin_id, series.bars[keep])


def test_passes_match_reference_on_reingested_fixture(tmp_path):
    panel, truth = generate_synthetic(scenario("B", 24, 330, seed=9))
    emit_raw_files(panel, truth, tmp_path / "raw")
    coins = []
    for j, series in enumerate(load_coin_dir(tmp_path / "raw" / "market")):
        if series.coin_id == "BTC":
            coins.append(series)
        elif j == 3:  # a coin too short to fit
            coins.append(CoinSeries(series.coin_id, series.bars[-70:]))
        elif j == 5:  # a coin with a single bar, dropped from the panel
            coins.append(CoinSeries(series.coin_id, series.bars[:1]))
        else:
            coins.append(_gapped(series, j))
    windows = CharacteristicWindows(
        momentum_days=14, liquidity_days=14, value_near_days=15, value_far_days=60
    )
    rebuilt = build_panel(
        coins,
        parse_epu_csv(tmp_path / "raw" / "epu.csv"),
        parse_riskfree_csv(tmp_path / "raw" / "riskfree.csv"),
        PanelOptions(windows=windows),
    )
    assert any(d.reason == "too_short" for d in rebuilt.dropped)
    # dates with fewer than 21 coins drop their sorted factors
    options = FactorOptions(min_sort_coins=21, exclude_btc_from_market=True)
    dropped = build_factor_set(rebuilt, "FF3", options).dropped
    assert dropped
    fitted, failed, skipped = assert_matches_reference(rebuilt, ("CAPM", "FF3"), options)
    assert fitted > 0 and failed > 0 and skipped > 0
