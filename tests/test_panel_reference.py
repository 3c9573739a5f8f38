"""The shared calendar of _calendar and build_panel against the per-day
loops they replaced (tests/reference_panel.py). The calendar keeps the
loops' order of floating-point operations, so agreement is exact: equal
values, equal reprs (which also separates -0.0 from 0.0 and a numpy scalar
from a float), None where None, equal panel bytes, drops and errors. The
drop columns of each build also equal the records the per-coin loop over
its fate grid made (reference_panel.drop_loop).
"""

import datetime as dt
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_panel
from coinfactors import panel as panel_module
from coinfactors.errors import CoinFactorsError
from coinfactors.ingest import (
    BAR_DTYPE,
    CoinSeries,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import (
    CharacteristicWindows,
    PanelOptions,
    build_panel,
    write_drop_report,
    write_panel_csv,
)
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario

from conftest import D0, level_dict, raw_characteristics
from oracle_compare import assert_same
from reference_bars import rows_of

DEFAULT = CharacteristicWindows()
SMALL = CharacteristicWindows(
    momentum_days=4, liquidity_days=4, value_near_days=2, value_far_days=8,
    min_valid_share=0.5,
)
# one valid day fills any of these windows, so an off-by-one at a window's
# edge shows as a value where None was due; liquidity reaches furthest back
SPARSE = CharacteristicWindows(
    momentum_days=3, liquidity_days=7, value_near_days=1, value_far_days=5,
    min_valid_share=0.14,
)


@st.composite
def coin_series(draw, max_bars):
    """Bars with calendar gaps, zero-volume days and zero caps. A third of
    the draws are 1-3 bar coins and a third reach past half of max_bars."""
    n = draw(
        st.one_of(
            st.integers(1, 3),
            st.integers(4, max_bars // 4),
            st.integers(max_bars // 2, max_bars),
        )
    )
    gap_share = draw(st.sampled_from([0.0, 0.02, 0.2]))
    zero_volume_share = draw(st.sampled_from([0.0, 0.1, 0.6]))
    zero_cap_share = draw(st.sampled_from([0.0, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.where(rng.random(n) < gap_share, rng.integers(2, 40, n), 1)
    offsets = np.concatenate([[0], np.cumsum(steps[1:])])
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.05, n)))
    volumes = rng.lognormal(14.0, 1.0, n) * (rng.random(n) >= zero_volume_share)
    caps = rng.lognormal(20.0, 1.0, n) * (rng.random(n) >= zero_cap_share)
    bars = np.empty(n, dtype=BAR_DTYPE)
    bars["day"] = D0.toordinal() + offsets
    bars["close"], bars["volume"], bars["market_cap"] = closes, volumes, caps
    return CoinSeries("X", bars)


def _query_dates(series, extra_offsets):
    """Before the first bar, inside every gap, at the first and last bar,
    past the last bar, far off either end, and the drawn offsets from the
    first bar."""
    days = series.bars["day"].tolist()
    first, last = dt.date.fromordinal(days[0]), dt.date.fromordinal(days[-1])
    far = dt.timedelta(days=1000)
    dates = {first - far, first - dt.timedelta(days=1), first, last,
             last + dt.timedelta(days=1), last + far}
    for prev, cur in zip(days, days[1:]):
        if cur - prev > 1:
            dates.add(dt.date.fromordinal(prev + 1))
    dates.update(first + dt.timedelta(days=k) for k in extra_offsets)
    return sorted(dates)


def _assert_matches_reference(series, offsets, windows):
    oracle = reference_panel._CoinView(rows_of(series), windows)
    for date in _query_dates(series, offsets):
        grid = raw_characteristics(series, date, windows)
        expected = oracle.raw_at(date)
        assert_same(grid, expected, f"raw_at({date})")
        assert grid == expected, date


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    series=coin_series(max_bars=450),
    offsets=st.lists(st.integers(-40, 520), max_size=20),
)
def test_characteristics_match_reference_default_windows(series, offsets):
    _assert_matches_reference(series, offsets, DEFAULT)


@pytest.mark.parametrize("windows", [SMALL, SPARSE], ids=["small", "sparse"])
@settings(max_examples=150, deadline=None)
@given(
    series=coin_series(max_bars=40),
    offsets=st.lists(st.integers(-15, 90), max_size=20),
)
def test_characteristics_match_reference_small_windows(windows, series, offsets):
    _assert_matches_reference(series, offsets, windows)


def _gapped(series, phase):
    """The series with a bar removed every 13 days and zero volume every 7,
    the pattern shifted by phase so coins differ."""
    i = np.arange(len(series.bars)) + phase
    bars = series.bars.copy()
    bars["volume"][i % 7 == 0] = 0.0
    return CoinSeries(series.coin_id, bars[i % 13 != 0])


def _panel_bytes(panel, tmp_path, name):
    write_panel_csv(panel, tmp_path / f"{name}.csv")
    write_drop_report(panel.dropped, tmp_path / f"{name}_drops.csv")
    return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}_drops.csv").read_bytes()


def _outcome(build, inputs, tmp_path, name):
    """The panel and drop CSV bytes and the drops, or the error's type and
    message."""
    try:
        panel = build(*inputs)
    except CoinFactorsError as exc:
        return type(exc), str(exc)
    return _panel_bytes(panel, tmp_path, name), reference_panel.drop_records(panel.dropped)


def _thinned(levels, keep):
    return levels[[bool(keep(i)) for i in range(len(levels))]]


def _staggered(coins):
    """BTC whole and the j-th other coin cut to its bars [40 j, n - 25 j),
    so coins list and delist on different days; of those bars the last
    coin keeps only the first and the one before it every other one."""
    others = [c for c in coins if c.coin_id != "BTC"]
    staggered = [c for c in coins if c.coin_id == "BTC"]
    for j, coin in enumerate(others):
        bars = coin.bars[40 * j : len(coin.bars) - 25 * j]
        bars = {len(others) - 1: bars[:1], len(others) - 2: bars[::2]}.get(j, bars)
        staggered.append(CoinSeries(coin.coin_id, bars))
    return staggered


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_build_panel_matches_reference(name, tmp_path, monkeypatch):
    panel, truth = generate_synthetic(scenario(name, 6, 420, seed=3))
    emit_raw_files(panel, truth, tmp_path / "raw")
    coins = load_coin_dir(tmp_path / "raw" / "market")
    epu = parse_epu_csv(tmp_path / "raw" / "epu.csv")
    rf = parse_riskfree_csv(tmp_path / "raw" / "riskfree.csv")
    gapped = [c if c.coin_id == "BTC" else _gapped(c, j) for j, c in enumerate(coins)]
    gapped_btc = [_gapped(c, 5) if c.coin_id == "BTC" else c for c in coins]
    staggered = _staggered(coins)
    conditioning = [
        (_thinned(epu, lambda i: i % 5), rf),  # one-day holes: stale at limit 0
        (epu, _thinned(rf, lambda i: not 200 < i < 206)),  # stale at limit 3
        (_thinned(epu, lambda i: i > 120), _thinned(rf, lambda i: i > 300)),  # late starts
    ]

    # default windows on the three coin sets, and in both modes on the
    # staggered one; the short windows keep the per-day oracle quick across
    # modes, fill limits and thinned series
    cases = [(c, epu, rf, PanelOptions()) for c in (coins, gapped, gapped_btc)]
    cases += [(staggered, epu, rf, PanelOptions(riskfree_mode=m)) for m in ("tbill", "btc")]
    for mode, limit in itertools.product(["tbill", "btc"], [0, 3]):
        options = PanelOptions(riskfree_mode=mode, ffill_limit_days=limit, windows=SMALL)
        cases += [(c, epu, rf, options) for c in (coins, gapped, gapped_btc, staggered)]
        cases += [(coins, e, r, options) for e, r in conditioning]

    def drops(*args):  # panel._drops against the record loop on its arguments
        columns = real_drops(*args)
        assert reference_panel.drop_records(columns) == reference_panel.drop_loop(*args)
        checked.append(len(columns))
        return columns

    real_drops, checked = panel_module._drops, []
    monkeypatch.setattr(panel_module, "_drops", drops)
    errors = []
    for inputs in cases:
        grid = _outcome(build_panel, inputs, tmp_path, "grid")
        series, epu_levels, rf_levels, options = inputs
        rows = ([rows_of(c) for c in series], level_dict(epu_levels),
                level_dict(rf_levels), options)
        loop = _outcome(reference_panel.build_panel, rows, tmp_path, "loop")
        assert grid == loop, inputs[3]
        if isinstance(grid[0], type):
            errors.append(grid[1].split()[0])
    assert set(errors) == {"epu", "riskfree"}  # a CoverageGap for each series
    assert len(checked) == len(cases) - len(errors) and all(checked)
