import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from coinfactors import panel as panel_module
from coinfactors.errors import (
    CoverageGap,
    DuplicateDate,
    EmptyPanel,
    InvalidConfig,
    MalformedRow,
    MissingBitcoin,
    TooShort,
    ValidationError,
)
from coinfactors.ingest import CoinSeries
from coinfactors.panel import (
    CHARACTERISTIC_NAMES,
    PANEL_HEADER,
    CharacteristicWindows,
    Drop,
    Panel,
    PanelOptions,
    _calendar,
    daily_riskfree,
    read_panel_csv,
    winsorized_zscores,
    write_drop_report,
    write_panel_csv,
)

from conftest import (
    bar_series,
    build_panel_of_dicts,
    day,
    make_obs,
    make_panel,
    make_series,
    raw_characteristics,
    standardized,
)
import reference_reader
from reference_rows import row_view

# mpmath 50-digit evaluations of (1 + annual)^(1/365) - 1
RF_365 = 9.82230506740072e-05
RF_NEG = -2.7410930475360352e-06

# -ln(2e-8), frozen with mpmath: 30 days of |ret| = 0.02 at volume 1e6
LIQ_ORACLE = 17.72753356339242

SMALL = CharacteristicWindows(
    momentum_days=4, liquidity_days=4, value_near_days=2, value_far_days=8,
    min_valid_share=0.5,
)


def _returns(series):
    """The coin's (date, return) pairs off the calendar of its bars."""
    if not series.bars.size:
        return []
    first, ret, _ = _calendar([series], CharacteristicWindows())
    k = np.flatnonzero(~np.isnan(ret[0]))
    return [(dt.date.fromordinal(first + j), r) for j, r in zip(k, ret[0, k])]


def test_returns_examples():
    single = _returns(make_series("A", [100.0, 110.0]))
    assert [d for d, _ in single] == [day(1)]
    assert [r for _, r in single] == pytest.approx([0.10])
    zero = _returns(make_series("A", [50.0, 50.0, 50.0]))
    assert [r for _, r in zero] == [0.0, 0.0]
    seq = _returns(make_series("A", [100.0, 110.0, 99.0]))
    assert [r for _, r in seq] == pytest.approx([0.10, -0.10])


def test_returns_gap_skips_post_gap_day():
    series = bar_series("G", [
        (day(0), 100.0, 1.0, 1.0),
        (day(1), 110.0, 1.0, 1.0),
        (day(3), 121.0, 1.0, 1.0),  # day 2 missing
        (day(4), 133.1, 1.0, 1.0),
    ])
    assert [d for d, _ in _returns(series)] == [day(1), day(4)]


def test_returns_too_short():
    assert _returns(make_series("A", [100.0])) == []
    assert _returns(bar_series("A", [])) == []
    coins, epu, rf = _inputs()
    coins[0] = make_series("BTC", [100.0])
    with pytest.raises(TooShort, match="BTC: 1 bars, need 2"):
        build_panel_of_dicts(coins, epu, rf, OPTIONS)


def test_daily_riskfree_values():
    assert daily_riskfree(0.0) == 0.0
    assert daily_riskfree(0.0365) == pytest.approx(RF_365, rel=1e-12)
    rate = daily_riskfree(-0.001)
    assert rate == pytest.approx(RF_NEG, rel=1e-12)
    assert -1.0 < rate < 0.0


def test_daily_riskfree_rejects_rate_at_or_below_minus_one():
    with pytest.raises(ValueError):
        daily_riskfree(-1.0)


@pytest.mark.parametrize(
    "fields",
    [
        {"momentum_days": 0},
        {"liquidity_days": 0},
        {"value_near_days": -1},
        {"value_near_days": 40, "value_far_days": 30},
        {"min_valid_share": 0.0},
        {"min_valid_share": 1.5},
    ],
)
def test_characteristic_windows_reject_empty_or_future_windows(fields):
    with pytest.raises(InvalidConfig):
        CharacteristicWindows(**fields)


def _flat_series(n, close=100.0, cap=None, volume=1e6):
    closes = [close] * n
    caps = None if cap is None else [cap] * n
    return make_series("C", closes, caps=caps, volume=volume)


def test_size_raw_is_log_cap():
    series = _flat_series(40, cap=math.exp(20.0))
    raw = raw_characteristics(series, day(39))
    assert raw.size == pytest.approx(20.0, rel=1e-13)


def test_momentum_zero_returns():
    raw = raw_characteristics(_flat_series(40), day(39))
    assert raw.momentum == 0.0


def test_momentum_window_endpoints():
    # Moves sit at d-29, d-28, d-1, d; the window [d-28, d-1] compounds
    # exactly the middle two.
    n = 40
    d = 35
    factors = {d - 29: 1.5, d - 28: 1.01, d - 1: 1.02, d: 1.9}
    closes = [100.0]
    for i in range(1, n):
        closes.append(closes[-1] * factors.get(i, 1.0))
    raw = raw_characteristics(make_series("C", closes), day(d))
    assert raw.momentum == pytest.approx(1.01 * 1.02 - 1.0, rel=1e-10)


def _alternating_series(n, volumes=None):
    # |ret| = 0.02 every day while the level stays bounded
    closes = [100.0]
    for i in range(1, n):
        sign = 1.0 if i % 2 else -1.0
        closes.append(closes[-1] * (1.0 + sign * 0.02))
    if volumes is None:
        return make_series("C", closes, volume=1e6)
    return bar_series(
        "C", [(day(i), closes[i], volumes[i], closes[i] * 100.0) for i in range(n)]
    )


def test_liquidity_amihud_oracle():
    raw = raw_characteristics(_alternating_series(45), day(44))
    assert raw.liquidity == pytest.approx(LIQ_ORACLE, rel=1e-12)


def test_liquidity_excludes_zero_volume_days():
    n = 45
    volumes = [1e6] * n
    for i in range(n - 10, n):
        volumes[i] = 0.0  # 10 of the last 30 days carry no volume
    raw = raw_characteristics(_alternating_series(n, volumes), day(n - 1))
    # mean still over |ret|/vol = 2e-8 on the remaining valid days
    assert raw.liquidity == pytest.approx(LIQ_ORACLE, rel=1e-12)


def test_liquidity_missing_when_all_returns_zero():
    raw = raw_characteristics(_flat_series(45), day(44))
    assert raw.liquidity is None  # Amihud mean is zero, log undefined


def test_value_is_sign_flipped_long_horizon_return():
    n = 20
    d = 15
    # one +10% move inside [d-8, d-2], larger moves just outside both ends
    factors = {d - 9: 1.5, d - 5: 1.10, d - 1: 1.3}
    closes = [100.0]
    for i in range(1, n):
        closes.append(closes[-1] * factors.get(i, 1.0))
    raw = raw_characteristics(make_series("C", closes), day(d), SMALL)
    assert raw.value == pytest.approx(-0.10, rel=1e-10)


def test_characteristic_missing_below_valid_share():
    # window [d-28, d-1] at d=13 holds 12 valid days, under the 14-day floor
    raw = raw_characteristics(_flat_series(14), day(13))
    assert raw.momentum is None
    # 14 valid days meets the floor exactly
    raw16 = raw_characteristics(_flat_series(16), day(15))
    assert raw16.momentum == 0.0


def test_winsorized_zscores_two_point_example():
    z = winsorized_zscores([10.0, 20.0])
    assert z == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_winsorized_zscores_degenerate_cases():
    assert winsorized_zscores([7.0]) == pytest.approx([0.0])
    assert winsorized_zscores([3.0, 3.0, 3.0]) == pytest.approx([0.0, 0.0, 0.0])


def test_winsorized_zscores_clips_outliers():
    # 201 values put the 99th percentile exactly on the largest non-outlier,
    # so both tail points clip to it and magnitude beyond the clip is
    # irrelevant
    base = list(np.linspace(0.0, 1.0, 199))
    a = winsorized_zscores(base + [500.0, 1000.0])
    b = winsorized_zscores(base + [500.0, 5000.0])
    assert a[-1] == a[-2]
    assert np.array_equal(a, b)
    assert np.mean(a) == pytest.approx(0.0, abs=1e-12)
    assert np.std(a) == pytest.approx(1.0, rel=1e-12)


def test_standardize_cross_section_properties():
    obs = [
        make_obs("A", day(1), size_raw=10.0, momentum_raw=0.1,
                 liquidity_raw=15.0, value_raw=-0.2),
        make_obs("B", day(1), size_raw=20.0, momentum_raw=0.3,
                 liquidity_raw=16.0, value_raw=0.4),
        make_obs("C", day(1), size_raw=14.0, momentum_raw=-0.2,
                 liquidity_raw=17.5, value_raw=0.1),
    ]
    panel = standardized(make_panel(obs))
    for name in CHARACTERISTIC_NAMES:
        zs = [o.chars.z(name) for o in row_view(panel).by_date(day(1))]
        assert abs(np.mean(zs)) < 1e-9
        assert abs(np.std(zs) - 1.0) < 1e-9
    again = standardized(panel)
    assert row_view(again).observations == row_view(panel).observations


def test_standardize_single_coin_zeroes():
    panel = standardized(make_panel([make_obs("A", day(1))]))
    obs = row_view(panel).observations[0]
    assert all(obs.chars.z(n) == 0.0 for n in CHARACTERISTIC_NAMES)


def _geometric(coin_id, n, rate, cap0=1e9, volume=1e7):
    closes = [100.0 * (1.0 + rate) ** i for i in range(n)]
    caps = [cap0 * (1.0 + rate) ** i for i in range(n)]
    return make_series(coin_id, closes, caps=caps, volume=volume)


def _epu_level(i):
    return 100.0 + 3.0 * (i % 5)


def _inputs(n=20):
    coins = [
        _geometric("BTC", n, 0.002, cap0=5e11),
        _geometric("AAA", n, 0.01),
        _geometric("CCC", n, -0.005),
        _geometric("EEE", n, 0.02),
    ]
    epu = {day(i): _epu_level(i) for i in range(n)}
    rf = {day(i): 0.02 for i in range(n)}
    return coins, epu, rf


OPTIONS = PanelOptions(windows=SMALL)


def test_build_panel_alignment_and_exactness():
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    # value window [lag-8, lag-2] first has 4 valid days at lag 6, so
    # observations start at t = 7
    assert panel.dates == tuple(day(i) for i in range(7, 20))
    assert set(panel.coins) == {"BTC", "AAA", "CCC", "EEE"}
    assert int(panel.mask.sum()) == 4 * 13
    daily = daily_riskfree(0.02)
    for o in row_view(panel).observations:
        assert o.excess == o.ret - daily  # exact, same float op


def test_build_panel_lagged_conditioning_values():
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    obs = row_view(panel).by_date(day(12))[0]
    assert obs.cond.r_btc == pytest.approx(0.002, rel=1e-9)
    # u is the z-scored epu level at t-1 over the distinct lag dates
    lags = [d - dt.timedelta(days=1) for d in panel.dates]
    levels = np.array([epu[d] for d in lags])
    expected = (epu[day(11)] - levels.mean()) / levels.std()
    assert obs.cond.u == pytest.approx(expected, rel=1e-12)


def test_build_panel_u_zscore_moments():
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    u_by_lag = {o.date: o.cond.u for o in row_view(panel).observations}
    u = np.array(sorted(u_by_lag.values()))
    assert abs(u.mean()) < 1e-12
    assert abs(u.std() - 1.0) < 1e-12


def test_build_panel_constant_uncertainty_level_scores_zero():
    # the level has no spread over the lag dates: u is +0.0 on every date
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, dict.fromkeys(epu, 120.0), rf, OPTIONS)
    u = np.asarray(panel.u)
    assert u.size and u.tobytes() == np.zeros(u.shape).tobytes()


def test_build_panel_btc_mode():
    coins, epu, rf = _inputs()
    options = PanelOptions(riskfree_mode="btc", windows=SMALL)
    panel = build_panel_of_dicts(coins, epu, rf, options)
    assert panel.riskfree_mode == "btc"
    assert "BTC" not in panel.coins
    assert any(d.coin_id == "BTC" and d.reason == "btc_is_riskfree"
               for d in panel.dropped)
    # same-day bitcoin return is the benchmark: 0.03 vs 0.01 nets to 0.02
    for o in row_view(panel).observations:
        assert o.excess == pytest.approx(o.ret - 0.002, abs=1e-12)


@pytest.mark.parametrize("series", ["epu", "riskfree"])
def test_build_panel_without_any_coin_day_raises(series):
    # a header-only conditioning file used to give an empty panel, which
    # ingest wrote out with exit code 0
    coins, epu, rf = _inputs()
    levels = {"epu": epu, "riskfree": rf}
    levels[series] = {}
    with pytest.raises(EmptyPanel) as info:
        build_panel_of_dicts(coins, levels["epu"], levels["riskfree"], OPTIONS)
    assert isinstance(info.value, ValidationError)
    dropped = info.value.dropped
    reason = "no_epu" if series == "epu" else "no_riskfree"
    assert {d.reason for d in dropped} >= {reason}
    # the message names the commonest reason before the first drop, which
    # here is BTC's first day, with no lagged Bitcoin return
    count = sum(d.reason == reason for d in dropped)
    assert count > len(dropped) / 2
    first = dropped[0]
    assert first.reason != reason
    assert str(info.value) == (
        f"no coin-day survives the panel build: {len(dropped)} drops, most often "
        f"{reason} ({count}); the first {first.coin_id} on "
        f"{first.date.isoformat()}: {first.reason}"
    )
    # every return day of every coin is one drop
    candidates = sum(len(c.bars) - 1 for c in coins)
    assert len(dropped) == candidates


def test_build_panel_requires_bitcoin():
    coins, epu, rf = _inputs()
    with pytest.raises(MissingBitcoin):
        build_panel_of_dicts([c for c in coins if c.coin_id != "BTC"], epu, rf, OPTIONS)


def test_build_panel_rejects_unknown_mode():
    coins, epu, rf = _inputs()
    with pytest.raises(InvalidConfig):
        build_panel_of_dicts(coins, epu, rf, PanelOptions(riskfree_mode="gold"))


def test_build_panel_forward_fill_within_limit():
    coins, epu, rf = _inputs()
    del epu[day(11)], epu[day(12)]  # 2-day hole, inside the 3-day limit
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    assert panel.dates == tuple(day(i) for i in range(7, 20))
    # lag dates 11 and 12 resolve to the day-10 level before z-scoring
    filled = {i: _epu_level(10 if i in (11, 12) else i) for i in range(6, 19)}
    levels = np.array([filled[i] for i in sorted(filled)])
    expected = (filled[11] - levels.mean()) / levels.std()
    obs = row_view(panel).by_date(day(12))[0]
    assert obs.cond.u == pytest.approx(expected, rel=1e-12)


def test_build_panel_coverage_gap_beyond_limit():
    coins, epu, rf = _inputs()
    for i in range(11, 16):  # 5-day hole > 3-day fill limit
        del epu[day(i)]
    with pytest.raises(CoverageGap) as info:
        build_panel_of_dicts(coins, epu, rf, OPTIONS)
    assert info.value.series == "epu"
    # lag day 14 is the first more than 3 days past the day-10 level
    assert (info.value.date, info.value.last, info.value.limit_days) == (day(14), day(10), 3)
    assert "ffill_limit_days=3" in str(info.value)


def test_build_panel_leading_edge_skips_not_raises():
    coins, epu, rf = _inputs()
    late_epu = {d: v for d, v in epu.items() if d >= day(14)}
    panel = build_panel_of_dicts(coins, late_epu, rf, OPTIONS)
    assert panel.dates[0] == day(15)
    assert any(d.reason == "no_epu" for d in panel.dropped)


def test_build_panel_drop_reasons():
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    reasons = {d.reason for d in panel.dropped}
    assert "no_btc_return_lag" in reasons  # t=1 has no lagged btc return
    assert "missing_momentum" in reasons
    assert "missing_value" in reasons
    stub = make_series("ZZZ", [50.0])
    panel2 = build_panel_of_dicts(coins + [stub], epu, rf, OPTIONS)
    assert any(d.coin_id == "ZZZ" and d.reason == "too_short"
               for d in panel2.dropped)


def test_build_panel_drops_a_coin_without_returns(tmp_path):
    # bars every other day: two or more bars, yet no day follows another
    coins, epu, rf = _inputs()
    rows = [(day(2 * i), 10.0 + i, 1e6, 1e9) for i in range(250)]
    panel = build_panel_of_dicts(coins + [bar_series("ALT", rows)], epu, rf, OPTIONS)
    assert "ALT" not in panel.coins
    assert [d for d in panel.dropped if d.coin_id == "ALT"] == [
        Drop("ALT", None, "no_returns")
    ]
    write_drop_report(panel.dropped, tmp_path / "drops.csv")
    assert b"ALT,,no_returns\r\n" in (tmp_path / "drops.csv").read_bytes()


def test_build_panel_order_independent():
    coins, epu, rf = _inputs()
    a = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    b = build_panel_of_dicts(list(reversed(coins)), epu, rf, OPTIONS)
    assert row_view(a).observations == row_view(b).observations
    assert a.dropped == b.dropped


def test_build_panel_look_ahead_safety():
    # everything attached at (coin, t) except the return recomputes from
    # inputs truncated at t-1
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    target = row_view(panel).by_date(day(15))[0]
    lag = day(14)
    series = next(c for c in coins if c.coin_id == target.coin_id)
    truncated = CoinSeries(
        series.coin_id, series.bars[series.bars["day"] <= lag.toordinal()]
    )
    raw = raw_characteristics(truncated, lag, SMALL)
    assert raw.size == target.chars.size_raw
    assert raw.momentum == target.chars.momentum_raw
    assert raw.liquidity == target.chars.liquidity_raw
    assert raw.value == target.chars.value_raw


def test_panel_duplicate_observation_rejected():
    # the grid holds one cell per (coin, date); a coin-day stored twice
    # would need a repeated date column
    panel = make_panel([make_obs("A", day(1)), make_obs("B", day(2))])
    with pytest.raises(DuplicateDate):
        dataclasses.replace(panel, dates=(day(1), day(1)))


def test_panel_constructor_rejects_malformed_layout():
    panel = make_panel([make_obs("A", day(1)), make_obs("B", day(2))])
    with pytest.raises(InvalidConfig):
        dataclasses.replace(panel, coins=("B", "A"))  # unsorted
    with pytest.raises(InvalidConfig):
        dataclasses.replace(panel, coins=("A", "A"))  # repeated coin
    with pytest.raises(InvalidConfig):
        dataclasses.replace(panel, u=np.zeros((2, 3)))  # wrong shape
    with pytest.raises(InvalidConfig):
        dataclasses.replace(panel, mask=np.array([[True, False], [False, False]]))
    assert not panel.ret.flags.writeable


def test_panel_keeps_one_value_per_date_of_a_series_grid():
    # A on days 1 and 2, B on day 2 only: B's day-1 cell is absent and ignored
    panel = make_panel([make_obs("A", day(1), u=0.5, r_btc=-0.0),
                        make_obs("A", day(2), u=0.25), make_obs("B", day(2), u=0.25)])
    assert panel.u.tolist() == [0.5, 0.25] and not panel.u.flags.writeable
    assert panel.r_btc.tobytes() == np.array([-0.0, 0.0]).tobytes()
    grid = np.array([[0.5, 0.25], [7.0, 0.25]])
    assert dataclasses.replace(panel, u=grid).u.tobytes() == panel.u.tobytes()
    grid[1, 1] = 0.125
    with pytest.raises(InvalidConfig, match=(
        r"panel u of B on 2021-01-03 is 0.125, where A has 0.25: "
        "the series holds one value per date"
    )):
        dataclasses.replace(panel, u=grid)
    with pytest.raises(InvalidConfig, match="panel r_btc of B on 2021-01-03 is -0.0"):
        dataclasses.replace(panel, r_btc=np.array([[0.0, 0.0], [0.0, -0.0]]))


def _read_both(tmp_path, text):
    """read_panel_csv and its oracle (tests/reference_reader.py) over text
    in a file: the same Panel bit for bit, or the same MalformedRow line,
    message and file. Where the oracle's Panel rejects a series that
    differs within a date, the reader raises a MalformedRow. Returns the
    Panel or raises the reader's MalformedRow."""
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = reference_reader.read_panel_csv(path)
    except (MalformedRow, InvalidConfig) as exc:
        expected = exc
    try:
        panel = read_panel_csv(path)
    except MalformedRow as exc:
        assert exc.path == path
        if isinstance(expected, InvalidConfig):
            assert str(expected).endswith("the series holds one value per date")
        else:
            assert isinstance(expected, MalformedRow), "only the reader failed"
            assert (exc.line, exc.message, exc.path) == (
                expected.line, expected.message, expected.path)
        raise
    assert isinstance(expected, Panel), "only the oracle failed"
    assert (panel.coins, panel.dates) == (expected.coins, expected.dates)
    for name in panel_module._COLUMNS:
        assert getattr(panel, name).tobytes() == getattr(expected, name).tobytes()
    return panel


def _csv_text(rows, terminator="\r\n"):
    """rows as write_panel_csv lays them out: comma-joined, CRLF-ended."""
    return "".join(",".join(row) + terminator for row in rows)


def test_read_panel_csv_rejects_duplicate_observation(tmp_path):
    row = ["A", "2021-01-02"] + ["0.0"] * 12
    other = ["B", "2021-01-02"] + ["0.0"] * 12
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text([PANEL_HEADER, row, other, row]))
    assert info.value.line == 4
    assert "A" in str(info.value) and "2021-01-02" in str(info.value)


@pytest.mark.parametrize("column, first, odd", [
    ("u_lag", "0.5", "0.25"), ("rbtc_lag", "0.0", "-0.0"), ("u_lag", "1e-310", "0.0"),
])
@pytest.mark.parametrize("blank", [False, True])
def test_read_panel_csv_rejects_a_series_that_differs_within_a_date(
    tmp_path, column, first, odd, blank
):
    # u_lag and rbtc_lag are market-wide: every row of a date holds the same
    # bits; the row blamed is the first that differs from its date's first
    at = PANEL_HEADER.index(column)

    def row(coin, date, value="0.0"):
        cells = [coin, date] + ["0.0"] * 12
        cells[at] = value
        return cells

    rows = [PANEL_HEADER, row("A", "2021-01-02", first), row("A", "2021-01-03"),
            row("B", "2021-01-03"), row("B", "2021-01-02", odd), row("C", "2021-01-02", odd)]
    if blank:
        rows.insert(3, [])
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text(rows))
    assert info.value.line == 5 + blank
    assert str(info.value) == (
        f"{tmp_path / 'panel.csv'}: line {5 + blank}: {column} {float(odd)!r} of B on "
        f"2021-01-02 differs from {float(first)!r} of A on line 2: "
        "the series holds one value per date"
    )


@pytest.mark.parametrize("size_raw", ["1000.0", "-1000.0"])
def test_read_panel_csv_rejects_size_raw_without_market_cap(tmp_path, size_raw):
    # exp overflows at 1000 and underflows to 0.0 at -1000
    good = ["A", "2021-01-02"] + ["0.0"] * 12
    bad = ["B", "2021-01-02"] + ["0.0"] * 6 + [size_raw] + ["0.0"] * 5
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text([PANEL_HEADER, good, bad]))
    assert info.value.line == 3 and "size_raw" in str(info.value)


def test_panel_csv_round_trip(tmp_path):
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ",".join(PANEL_HEADER)
    again = read_panel_csv(path)
    assert row_view(again).observations == row_view(panel).observations
    assert again.riskfree_mode == "tbill"
    first = path.read_bytes()
    write_panel_csv(again, path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("terminator, quoted", [
    ("\r\n", False), ("\n", False), ("\r", False), ("\r\n", True),
], ids=["\r\n", "\n", "\r", "quoted"])
def test_read_panel_csv_path_matches_stream(tmp_path, monkeypatch, terminator, quoted):
    # the reader gives its oracle's outcome on a file that write_panel_csv
    # could have written, the same data rows ended by LF or CR, which
    # np.loadtxt reads as well, and one with a quoted coin id, which only
    # the row checks read; also the header alone
    coins, epu, rf = _inputs()
    path = tmp_path / "panel.csv"
    write_panel_csv(build_panel_of_dicts(coins, epu, rf, OPTIONS), path)
    header, rows = path.read_bytes().decode("utf-8").split("\r\n", 1)
    if quoted:
        rows = '"' + rows.replace(",", '",', 1)
    text = header + "\r\n" + rows.replace("\r\n", terminator)
    assert text.count(terminator) <= panel_module._BLOCK_ROWS  # one block
    row_checks = []
    check_rows = panel_module._rows
    monkeypatch.setattr(panel_module, "_rows",
                        lambda *args: row_checks.append(1) or check_rows(*args))
    assert len(_read_both(tmp_path, text).coins) == len(coins)
    assert len(row_checks) == quoted
    for only_header in (header + "\r\n", header + "\r\n\r\n"):
        with pytest.raises(MalformedRow, match="has a header but no data rows") as info:
            _read_both(tmp_path, only_header)
        assert info.value.line == 2


@pytest.mark.parametrize("change", ["number", "appended", "cut", "blocks cut", "not utf-8"])
def test_read_panel_csv_declines_a_file_that_changes_between_its_reads(
    tmp_path, monkeypatch, change
):
    # the reader reads the file twice; a change in between declines those
    # reads, and the file is read again, as held lines, as it is after the change
    path = tmp_path / "panel.csv"
    if change in ("blocks cut", "not utf-8"):  # 600 rows
        days = [(dt.date(2020, 1, 1) + dt.timedelta(days=j)).isoformat() for j in range(200)]
        rows = [[f"C{i}", day] + ["1.0"] * 12 for i in range(3) for day in days]
        path.write_text(_csv_text([PANEL_HEADER, *rows]), encoding="utf-8", newline="")
    else:
        coins, epu, rf = _inputs()
        write_panel_csv(build_panel_of_dicts(coins, epu, rf, OPTIONS), path)
    before = path.read_bytes()
    lines = before.splitlines(keepends=True)
    cells = lines[-1].split(b",")
    if change == "number":
        lines[-1] = b",".join(cells[:2] + [b"0.5"] + cells[3:])
    elif change == "appended":  # a new coin on a date the file holds
        lines.append(b",".join([b"ZZZ"] + cells[1:]))
    elif change == "cut":
        del lines[-1]
    elif change == "blocks cut":  # every block of the second read matches one of the first
        del lines[1 + 2 * panel_module._BLOCK_ROWS :]
    else:  # the first block differs; the last line, decoded by no read of
        # the file but the held one, is not UTF-8
        lines[1] = lines[1].replace(b"1.0", b"0.5", 1)
        lines[-1] = b"\xff" + lines[-1]
    after = b"".join(lines)
    path.write_bytes(after)
    if change != "not utf-8":
        expected = read_panel_csv(path)

    reads = []
    blocks = panel_module._blocks

    def changing_blocks(lines):
        reads.append(lines)
        if len(reads) == 2:
            path.write_bytes(after)
        return blocks(lines)

    monkeypatch.setattr(panel_module, "_blocks", changing_blocks)
    monkeypatch.setattr(panel_module, "_rows", None)  # every block stays plain
    path.write_bytes(before)
    if change == "not utf-8":
        with pytest.raises(MalformedRow) as info:
            read_panel_csv(path)
        assert len(reads) == 2  # the held lines failed to decode
        assert str(info.value) == f"{path}: line 601: not UTF-8 text: invalid start byte"
        return
    panel = read_panel_csv(path)
    assert len(reads) == 4  # the file twice, then its held text twice
    assert [isinstance(lines, list) for lines in reads] == [False, False, True, True]
    assert panel.coins == expected.coins and panel.dates == expected.dates
    for name in panel_module._COLUMNS:
        assert getattr(panel, name).tobytes() == getattr(expected, name).tobytes()


def test_read_panel_csv_path_names_exact_undecodable_line(tmp_path):
    # the bad byte sits far past the first 8 KB that the reader decodes
    coins, epu, rf = _inputs()
    path = tmp_path / "panel.csv"
    write_panel_csv(build_panel_of_dicts(coins, epu, rf, OPTIONS), path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert sum(map(len, lines[:49])) > 8192
    lines[49] = b"\xff" + lines[49]
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRow) as info:
        read_panel_csv(path)
    assert info.value.line == 50 and info.value.path == path
    assert "not UTF-8" in str(info.value)


def test_read_panel_csv_names_a_character_cut_off_by_the_end_of_the_file(tmp_path):
    rows = [["A", "2020-01-02"] + ["1.0"] * 12, ["B", "2020-01-02"] + ["1.0"] * 12]
    path = tmp_path / "panel.csv"
    path.write_bytes(_csv_text([PANEL_HEADER, *rows]).encode("utf-8") + b"\xc3")
    with pytest.raises(MalformedRow) as info:
        read_panel_csv(path)
    assert str(info.value) == f"{path}: line 4: not UTF-8 text: unexpected end of data"


def test_read_panel_csv_rejects_text_that_is_not_utf8_before_any_row(tmp_path):
    # the first read decodes the whole file before the second checks a row,
    # so a bad byte on line 5,000 wins over a bad number on line 3
    days = [(dt.date(2020, 1, 1) + dt.timedelta(days=j)).isoformat() for j in range(250)]
    rows = [[f"C{i:02d}", day] + ["1.0"] * 12 for i in range(20) for day in days]
    rows[1][4] = "x"
    lines = _csv_text([PANEL_HEADER, *rows]).encode("utf-8").splitlines(keepends=True)
    lines[4999] = b"\xff" + lines[4999]
    path = tmp_path / "panel.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(MalformedRow) as info:
        read_panel_csv(path)
    assert str(info.value) == f"{path}: line 5000: not UTF-8 text: invalid start byte"


# cells the two parsers judge apart: loadtxt would cut 1.0#x at # under its
# default comments and skips U+001C-U+001F as whitespace; float() takes the
# underscore and the non-ASCII digits that loadtxt rejects
@pytest.mark.parametrize("cell, value", [
    ("1.0#x", None), ("\x1c1", None), ("1\x1f", None),
    ("1_0", 10.0), ("\u0663", 3.0), ("\uff11", 1.0),
])
def test_read_panel_csv_judges_cells_as_float_does(tmp_path, cell, value):
    rows = [PANEL_HEADER, ["A", "2020-01-02"] + ["1.0"] * 11 + [cell]]
    if value is None:
        with pytest.raises(MalformedRow) as info:
            _read_both(tmp_path, _csv_text(rows))
        assert info.value.line == 2 and repr(cell) in str(info.value)
    else:
        assert _read_both(tmp_path, _csv_text(rows)).r_btc[0] == value


def test_read_panel_csv_rejects_bad_header(tmp_path):
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text([["coin_id", "date", "ret"], ["A", "2021-01-01", "0.1"]]))
    assert info.value.line == 1


def test_read_panel_csv_rejects_nonfinite(tmp_path):
    row = ["A", "2021-01-02", "nan"] + ["0.0"] * 11
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text([PANEL_HEADER, row]))
    assert info.value.line == 2 and "non-finite" in str(info.value)


@pytest.mark.parametrize("date", ["20200102", "2020-W01-3"])
def test_read_panel_csv_rejects_other_iso_date_forms(tmp_path, date):
    rows = [["A", "2020-01-02"] + ["1.0"] * 12, ["B", date] + ["1.0"] * 12]
    with pytest.raises(MalformedRow) as info:
        _read_both(tmp_path, _csv_text([PANEL_HEADER, *rows]))
    assert info.value.line == 3
    assert repr(date) in str(info.value)


def test_write_drop_report(tmp_path):
    coins, epu, rf = _inputs()
    panel = build_panel_of_dicts(coins, epu, rf, OPTIONS)
    path = tmp_path / "drops.csv"
    write_drop_report(panel.dropped, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "coin_id,date,reason"
    assert len(lines) == len(panel.dropped) + 1
