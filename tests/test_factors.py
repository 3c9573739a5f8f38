import dataclasses
import math
import random

import numpy as np
import pytest

from coinfactors.errors import InvalidConfig, TooFewCoins, ValidationError
from coinfactors.factors import (
    FACTOR_MENU,
    FACTOR_NAMES,
    FactorOptions,
    build_factor_set,
    resolve_factor_names,
    sort_portfolios,
    value_weights,
    write_factor_csv,
)

from conftest import day, make_obs, make_panel


def _obs(coin_id, date, excess, cap, **chars):
    kwargs = {"size_raw": math.log(cap)}
    kwargs.update(chars)  # an explicit size_raw outranks the cap
    return make_obs(coin_id, date, ret=excess, excess=excess, **kwargs)


def _coin_id(i):
    return f"C{i:02d}"


def _cross_section(date, excesses, caps=None, char_name=None, char_values=None):
    caps = caps if caps is not None else [1000.0] * len(excesses)
    out = []
    for i, (e, cap) in enumerate(zip(excesses, caps)):
        extra = {}
        if char_name is not None:
            extra[f"{char_name}_raw"] = char_values[i]
        out.append(_obs(_coin_id(i), date, e, cap, **extra))
    return out


def _factor(panel, date, name, options=FactorOptions()):
    """The named factor at date, read from a one-factor build_factor_set."""
    fs = build_factor_set(panel, [name], options)
    col = panel.date_index[date]
    assert fs.mask[col], fs.dropped
    return fs.values[col, 0]


def test_market_factor_value_weighted_example():
    # caps 100 and 300 with excess 0.02 and 0.04 blend to 0.035
    obs = _cross_section(day(1), [0.02, 0.04], caps=[100.0, 300.0])
    mkt = _factor(make_panel(obs), day(1), "mkt")
    assert mkt == pytest.approx(0.035, rel=1e-12)


def test_market_factor_exclude_btc():
    obs = [
        _obs("BTC", day(1), 0.10, 1e12),
        _obs("AAA", day(1), 0.01, 100.0),
        _obs("BBB", day(1), 0.03, 300.0),
    ]
    options = FactorOptions(exclude_btc_from_market=True)
    mkt = _factor(make_panel(obs), day(1), "mkt", options)
    assert mkt == pytest.approx(0.025, rel=1e-12)


def test_market_factor_empty_date():
    # a date where BTC is the only coin has no market once BTC is excluded
    panel = make_panel([
        _obs("BTC", day(1), 0.10, 1e12),
        _obs("BTC", day(2), 0.02, 1e12),
        _obs("AAA", day(2), 0.01, 100.0),
    ])
    options = FactorOptions(exclude_btc_from_market=True)
    fs = build_factor_set(panel, "CAPM", options)
    assert fs.mask.tolist() == [False, True]
    assert [date for date, _ in fs.dropped] == [day(1)]
    assert fs.dropped[0][1].startswith("EmptyDate:")


def test_value_weights_sum_to_one():
    rng = random.Random(3)
    obs = _cross_section(day(1), [0.0] * 12,
                         caps=[rng.uniform(1e3, 1e9) for _ in range(12)])
    w = value_weights([o.chars.size_raw for o in obs])
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w > 0.0).all()


def test_sort_ten_distinct_values_split_3_4_3():
    obs = _cross_section(day(1), [0.0] * 10, char_name="momentum",
                         char_values=[float(i) for i in range(10)])
    a = sort_portfolios(make_panel(obs), day(1), "momentum")
    assert len(a.leg("LOW")) == 3
    assert len(a.leg("MID")) == 4
    assert len(a.leg("HIGH")) == 3
    assert a.leg("LOW") == ("C00", "C01", "C02")
    assert a.leg("HIGH") == ("C07", "C08", "C09")


def test_sort_partition_covers_every_coin_once():
    obs = _cross_section(day(1), [0.0] * 10, char_name="value",
                         char_values=[0.1 * i - 0.3 for i in range(10)])
    a = sort_portfolios(make_panel(obs), day(1), "value")
    combined = a.leg("LOW") + a.leg("MID") + a.leg("HIGH")
    assert sorted(combined) == [_coin_id(i) for i in range(10)]


def test_sort_ties_share_first_occurrence_rank():
    # 8 coins stuck at the same value all take rank 0, landing in LOW
    values = [1.0] * 8 + [2.0, 3.0]
    obs = _cross_section(day(1), [0.0] * 10, char_name="size",
                         char_values=values)
    a = sort_portfolios(make_panel(obs), day(1), "size")
    assert len(a.leg("LOW")) == 8
    assert len(a.leg("MID")) == 0
    assert len(a.leg("HIGH")) == 2


def test_sort_too_few_coins():
    obs = _cross_section(day(1), [0.0] * 4, char_name="size",
                         char_values=[1.0, 2.0, 3.0, 4.0])
    with pytest.raises(TooFewCoins):
        sort_portfolios(make_panel(obs), day(1), "size")


def test_sort_unknown_characteristic_is_an_input_error():
    # the name BetaSpec rejects as a config error is an input error here too
    obs = _cross_section(day(1), [0.0] * 10)
    with pytest.raises(ValidationError, match=r"^unknown characteristic 'beta'$"):
        sort_portfolios(make_panel(obs), day(1), "beta")


def test_sort_independent_of_input_order():
    values = [5.0, 1.0, 1.0, 3.0, 2.0, 2.0, 4.0, 0.5, 6.0, 1.5]
    obs = _cross_section(day(1), [0.0] * 10, char_name="liquidity",
                         char_values=values)
    a = sort_portfolios(make_panel(obs), day(1), "liquidity")
    b = sort_portfolios(make_panel(list(reversed(obs))), day(1), "liquidity")
    assert a.legs == b.legs


def test_long_short_leg_spread_example():
    # low-size leg earns 0.05, high-size leg 0.01: the spread is 0.04
    values = [float(i) for i in range(10)]
    excesses = [0.05] * 3 + [0.0] * 4 + [0.01] * 3
    obs = _cross_section(day(1), excesses, char_name="size",
                         char_values=values)
    smb = _factor(make_panel(obs), day(1), "smb")
    assert smb == pytest.approx(0.04, rel=1e-12)


def test_long_short_orientation_antisymmetry():
    # negating the sorted characteristic swaps the legs and exactly negates
    # the factor
    rng = random.Random(11)
    excesses = [rng.gauss(0.0, 0.03) for _ in range(10)]
    caps = [rng.uniform(1e3, 1e7) for _ in range(10)]
    values = [rng.gauss(0.0, 1.0) for _ in range(10)]
    panel = make_panel(_cross_section(day(1), excesses, caps=caps,
                                      char_name="momentum", char_values=values))
    flipped = make_panel(_cross_section(day(1), excesses, caps=caps,
                                        char_name="momentum",
                                        char_values=[-v for v in values]))
    mom = _factor(panel, day(1), "mom")
    assert mom != 0.0
    assert _factor(flipped, day(1), "mom") == -mom


def test_long_short_zero_when_legs_match():
    obs = _cross_section(day(1), [0.03] * 10, char_name="value",
                         char_values=[float(i) for i in range(10)])
    spread = _factor(make_panel(obs), day(1), "val")
    assert spread == 0.0


def test_long_short_rejects_unknown_orientation():
    obs = _cross_section(day(1), [0.0] * 10, char_name="size",
                         char_values=[float(i) for i in range(10)])
    # the factor name fixes the legs; a characteristic names no orientation
    with pytest.raises(InvalidConfig):
        build_factor_set(make_panel(obs), ["size"])


def test_long_short_empty_leg():
    obs = _cross_section(day(1), [0.0] * 10, char_name="size",
                         char_values=[1.0] * 10)
    fs = build_factor_set(make_panel(obs), ["smb"])
    assert fs.dropped[0][0] == day(1)
    assert fs.dropped[0][1].startswith("EmptyLeg:")


def test_cap_scale_invariance():
    rng = random.Random(7)
    excesses = [rng.gauss(0.0, 0.02) for _ in range(10)]
    caps = [rng.uniform(1e3, 1e9) for _ in range(10)]
    values = [rng.gauss(0.0, 1.0) for _ in range(10)]
    base = make_panel(_cross_section(day(1), excesses, caps=caps,
                                     char_name="momentum", char_values=values))
    scaled = make_panel(_cross_section(
        day(1), excesses, caps=[c * 1000.0 for c in caps],
        char_name="momentum", char_values=values))
    assert _factor(scaled, day(1), "mkt") == pytest.approx(
        _factor(base, day(1), "mkt"), abs=1e-15)
    hml_base = _factor(base, day(1), "mom")
    hml_scaled = _factor(scaled, day(1), "mom")
    assert hml_scaled == pytest.approx(hml_base, abs=1e-15)


def test_menu_contents():
    assert FACTOR_MENU["CAPM"] == ("mkt",)
    assert FACTOR_MENU["FF3"] == ("mkt", "smb", "val")
    assert FACTOR_MENU["C4"] == ("mkt", "smb", "val", "mom")
    assert FACTOR_MENU["FF3LIQ"] == ("mkt", "smb", "val", "liq")
    assert FACTOR_MENU["ALL"] == FACTOR_NAMES


def test_resolve_factor_names():
    assert resolve_factor_names("CAPM") == ("mkt",)
    assert resolve_factor_names(["mkt", "liq"]) == ("mkt", "liq")
    with pytest.raises(InvalidConfig):
        resolve_factor_names("CAPM5")
    with pytest.raises(InvalidConfig):
        resolve_factor_names(["mkt", "gold"])
    with pytest.raises(InvalidConfig):
        resolve_factor_names([])


def _two_day_panel():
    rng = random.Random(19)
    obs = []
    for d in (1, 2):
        for i in range(10):
            obs.append(make_obs(
                _coin_id(i), day(d),
                ret=rng.gauss(0.0, 0.02), excess=rng.gauss(0.0, 0.02),
                size_raw=14.0 + i, momentum_raw=rng.gauss(0.0, 1.0),
                liquidity_raw=10.0 + i * 0.5, value_raw=rng.gauss(0.0, 0.5),
            ))
    return make_panel(obs)


def test_build_factor_set_all_menu():
    panel = _two_day_panel()
    fs = build_factor_set(panel, "ALL")
    assert fs.names == FACTOR_NAMES
    assert fs.dates == panel.dates == (day(1), day(2))
    assert fs.mask.tolist() == [True, True]
    assert fs.dropped == ()
    assert fs.values.shape == (2, 5)
    assert np.isfinite(fs.values).all()
    assert not (fs.values.flags.writeable or fs.mask.flags.writeable)
    assert fs.values[0, fs.names.index("mkt")] == _factor(panel, day(1), "mkt")


def test_build_factor_set_drops_failing_dates():
    rng = random.Random(23)
    obs = []
    for i in range(10):
        obs.append(make_obs(_coin_id(i), day(1), excess=rng.gauss(0.0, 0.02),
                            size_raw=14.0 + i, value_raw=0.1 * i))
    for i in range(4):  # below the 5-coin sorting floor
        obs.append(make_obs(_coin_id(i), day(2), excess=0.01,
                            size_raw=14.0 + i, value_raw=0.1 * i))
    fs = build_factor_set(make_panel(obs), "FF3")
    assert fs.dates == (day(1), day(2))
    assert fs.mask.tolist() == [True, False]
    assert np.isnan(fs.values[1]).all()
    assert len(fs.dropped) == 1
    date, reason = fs.dropped[0]
    assert date == day(2)
    assert "TooFewCoins" in reason


def test_build_factor_set_capm_survives_tied_characteristics():
    # CAPM never sorts, so a date with all-tied characteristics keeps it
    obs = [make_obs(_coin_id(i), day(1), excess=0.01, size_raw=14.0)
           for i in range(10)]
    fs = build_factor_set(make_panel(obs), "CAPM")
    assert fs.mask.tolist() == [True]
    fs_smb = build_factor_set(make_panel(obs), ["smb"])
    assert fs_smb.mask.tolist() == [False]
    assert "EmptyLeg" in fs_smb.dropped[0][1]


def test_factor_csv_pads_missing_columns(tmp_path):
    panel = _two_day_panel()
    fs = build_factor_set(panel, "CAPM")
    path = tmp_path / "factors.csv"
    write_factor_csv(fs, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date," + ",".join(FACTOR_NAMES)
    first = lines[1].split(",")
    assert first[0] == day(1).isoformat()
    assert first[1] == repr(fs.values[0, 0].item())
    assert first[2:] == ["", "", "", ""]
    assert len(lines) == 3


def test_factor_csv_skips_dropped_dates(tmp_path):
    fs = build_factor_set(_two_day_panel(), "FF3")
    mask = fs.mask.copy()
    mask[0] = False
    path = tmp_path / "factors.csv"
    write_factor_csv(dataclasses.replace(fs, mask=mask), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [day(2).isoformat()]
    assert lines[1].split(",")[1:4] == [repr(v) for v in fs.values[1].tolist()]


def test_factor_set_rejects_misshapen_arrays():
    fs = build_factor_set(_two_day_panel(), "FF3")
    with pytest.raises(InvalidConfig):
        dataclasses.replace(fs, values=fs.values[:, :2])
    with pytest.raises(InvalidConfig):
        dataclasses.replace(fs, mask=fs.mask[:1])


def test_factor_set_series_alignment():
    panel = _two_day_panel()
    fs = build_factor_set(panel, "C4")
    idx = fs.names.index("mom")
    mom = fs.values[:, idx]
    assert mom.shape == (2,)
    assert mom[1] == _factor(panel, day(2), "mom")
    with pytest.raises(ValueError):
        fs.names.index("liq")
