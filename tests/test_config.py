import json

import pytest

from coinfactors import config
from coinfactors.config import load_config, resolved_dict
from coinfactors.errors import InvalidConfig


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _data_section(tmp_path):
    market = tmp_path / "market"
    market.mkdir(exist_ok=True)
    epu = tmp_path / "epu.csv"
    epu.write_text("date,epu\n", encoding="utf-8")
    rf = tmp_path / "riskfree.csv"
    rf.write_text("date,rate\n", encoding="utf-8")
    return {
        "market_dir": str(market),
        "epu_file": str(epu),
        "riskfree_file": str(rf),
    }


SPEC = {
    "label": "capm-c",
    "factors": "CAPM",
    "beta": {"mode": "conditional"},
}


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {}))
    assert cfg.data is None
    assert cfg.panel_file is None
    assert cfg.universe.top_n == 200
    assert cfg.universe.min_history_days == 365
    assert cfg.universe.rank_date is None
    assert cfg.panel.riskfree_mode == "tbill"
    assert cfg.panel.btc_id == "BTC"
    assert cfg.panel.ffill_limit_days == 3
    assert cfg.panel.winsor == (1.0, 99.0)
    assert cfg.panel.windows.momentum_days == 28
    assert cfg.panel.windows.value_far_days == 365
    assert cfg.pipeline.min_obs_margin == 30
    assert cfg.pipeline.floor_base == 20
    assert cfg.pipeline.nw_lags is None
    assert cfg.pipeline.significance_z == 1.96
    assert cfg.pipeline.rank_tolerance == 1e-10
    assert cfg.pipeline.factor_options.min_sort_coins == 5
    assert not cfg.pipeline.factor_options.exclude_btc_from_market
    assert cfg.specs == ()
    assert cfg.synth is None
    assert cfg.seed is None
    assert cfg.output_dir is None


def test_full_config_round_trip(tmp_path):
    doc = {
        "data": _data_section(tmp_path),
        "universe": {"top_n": 50, "min_history_days": 100,
                     "rank_date": "2021-06-30"},
        "windows": {"momentum_days": 14, "min_valid_share": 0.6},
        "panel": {"riskfree_mode": "btc", "btc_id": "XBT",
                  "ffill_limit_days": 5, "winsor": [2, 98]},
        "factors": {"min_sort_coins": 8, "exclude_btc_from_market": True},
        "econometrics": {"nw_lags": 4, "significance_z": 2.58,
                         "rank_tolerance": 1e-8},
        "pipeline": {"min_obs_margin": 10, "floor_base": 12},
        "specs": [
            {
                "label": "all-c",
                "factors": "ALL",
                "beta": {"mode": "conditional",
                         "characteristics": ["size", "value"],
                         "lagged_return": "own"},
                "anomalies": ["size", "value"],
                "riskfree_mode": "btc",
            }
        ],
        "synth": {"scenario": "B", "n_coins": 12, "n_days": 300,
                  "emit_raw": False},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.universe.top_n == 50
    assert cfg.universe.rank_date.isoformat() == "2021-06-30"
    assert cfg.panel.windows.momentum_days == 14
    assert cfg.panel.windows.min_valid_share == 0.6
    assert cfg.panel.riskfree_mode == "btc"
    assert cfg.panel.btc_id == "XBT"
    assert cfg.panel.winsor == (2.0, 98.0)
    assert cfg.pipeline.factor_options.exclude_btc_from_market
    # the factor builder inherits the panel's coin id unless overridden
    assert cfg.pipeline.factor_options.btc_id == "XBT"
    assert cfg.pipeline.nw_lags == 4
    assert cfg.pipeline.significance_z == 2.58
    spec = cfg.specs[0]
    assert spec.beta.characteristics == ("size", "value")
    assert spec.beta.lagged_return == "own"
    assert spec.anomalies == ("size", "value")
    assert cfg.synth.scenario == "B"
    assert not cfg.synth.emit_raw
    assert cfg.seed == 7


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidConfig):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InvalidConfig):
        load_config(arr)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InvalidConfig):
        load_config(binary)


@pytest.mark.parametrize(
    "doc",
    [
        {"mystery": 1},
        {"universe": {"top": 5}},
        {"windows": {"momentum": 28}},
        {"panel": {"mode": "tbill"}},
        {"factors": {"sort_coins": 5}},
        {"econometrics": {"lags": 3}},
        {"pipeline": {"margin": 10}},
        {"synth": {"scenario": "A", "n_coins": 5, "n_days": 250, "x": 1}},
        {"specs": [{"label": "a", "factors": "CAPM",
                    "beta": {"mode": "conditional", "extra": 1}}]},
        {"specs": [{"label": "a", "factors": "CAPM",
                    "beta": {"mode": "conditional"}, "notes": "hi"}]},
    ],
)
def test_unknown_keys_rejected_everywhere(tmp_path, doc):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, doc))
    assert "unknown key" in str(info.value)


def test_nonexistent_paths_rejected(tmp_path):
    data = _data_section(tmp_path)
    data["epu_file"] = str(tmp_path / "nope.csv")
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"data": data}))
    assert "does not exist" in str(info.value)
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"panel_file": str(tmp_path / "no.csv")}))
    # a name the file system cannot take at all (an embedded NUL)
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"panel_file": "a\u0000b"}))
    assert str(info.value) == "panel_file: path 'a\\x00b' does not exist"


@pytest.mark.parametrize("date", ["20200102", "2020-W01-3"])
def test_rank_date_must_be_yyyy_mm_dd(tmp_path, date):
    # both parse with date.fromisoformat on Python 3.11 and later
    with pytest.raises(InvalidConfig, match=f"universe.rank_date: bad date '{date}'"):
        load_config(_write(tmp_path, {"universe": {"rank_date": date}}))


def test_type_errors_rejected(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"universe": {"top_n": "many"}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"universe": {"top_n": True}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"universe": {"rank_date": "junk"}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"seed": 1.5}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"panel": {"winsor": [1.0]}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"panel": {"winsor": "1-99"}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"panel": {"riskfree_mode": "gold"}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"specs": "CAPM"}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"windows": {"min_valid_share": 0.0}}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"windows": {"value_near_days": 400}}))


def test_spec_requirements(tmp_path):
    with pytest.raises(InvalidConfig, match=r"specs\[0\]: expected an object"):
        load_config(_write(tmp_path, {"specs": [None]}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"specs": [{"label": "x"}]}))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {
            "specs": [{"label": "x", "factors": "CAPM", "beta": {}}]
        }))
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {
            "specs": [{"label": "x", "factors": "CAPM",
                       "beta": {"mode": "conditional",
                                "characteristics": "size"}}]
        }))


@pytest.mark.parametrize("spec, where, repeated", [
    (dict(SPEC, anomalies=["size", "liquidity", "size"]), "specs[0]", "anomaly 'size'"),
    (dict(SPEC, beta={"mode": "conditional", "characteristics": ["value", "value"]}),
     "specs[0].beta", "characteristic 'value'"),
])
def test_repeated_anomaly_or_characteristic_rejected(tmp_path, spec, where, repeated):
    # every design would hold two equal columns, so the run could only fail late
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"specs": [spec]}))
    assert str(info.value).startswith(f"{where}: ")
    assert f"{repeated} repeated" in str(info.value)


def test_duplicate_spec_labels_rejected(tmp_path):
    doc = {"specs": [SPEC, dict(SPEC, factors="FF3")]}
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, doc))
    assert "duplicate" in str(info.value)


def test_synth_required_fields(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(_write(tmp_path, {"synth": {"scenario": "A"}}))


def test_resolved_dict_is_complete_and_stable(tmp_path):
    cfg = load_config(_write(tmp_path, {"specs": [SPEC], "seed": 3}))
    doc = resolved_dict(cfg)
    # round trips through JSON and reloads to the same resolved form
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == set(config.SECTIONS)
    assert doc["universe"] == {"top_n": 200, "min_history_days": 365,
                               "rank_date": None}
    assert doc["windows"]["value_far_days"] == 365
    assert doc["econometrics"] == {"nw_lags": None, "significance_z": 1.96,
                                   "rank_tolerance": 1e-10}
    assert doc["specs"][0]["beta"] == {
        "mode": "conditional",
        "characteristics": ["size", "momentum", "liquidity"],
        "lagged_return": "btc",
    }
    assert doc["specs"][0]["anomalies"] == ["size", "liquidity", "momentum"]
    assert doc["seed"] == 3
    # materialized defaults reload identically
    reloaded = load_config(_write(tmp_path, doc, name="resolved.json"))
    assert resolved_dict(reloaded) == doc


SECTIONS = ["data", "universe", "windows", "panel", "factors",
            "econometrics", "pipeline", "synth"]


@pytest.mark.parametrize("value", [5, 2.5, "five", [1, 2], True])
@pytest.mark.parametrize("section", SECTIONS + ["specs[0]", "specs[0].beta"])
def test_non_object_section_names_itself(tmp_path, section, value):
    if section == "specs[0]":
        doc = {"specs": [value]}
    elif section == "specs[0].beta":
        doc = {"specs": [dict(SPEC, beta=value)]}
    else:
        doc = {section: value}
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, doc))
    assert f"{section}: expected an object" in str(info.value)


def test_explicit_null_means_unset(tmp_path):
    doc = {
        "universe": None,
        "panel": {"btc_id": "XBT", "winsor": None, "ffill_limit_days": None},
        "factors": {"btc_id": None},
        "specs": [dict(SPEC, anomalies=None,
                       beta={"mode": "conditional", "characteristics": None})],
        "synth": None,
    }
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.universe.top_n == 200
    assert cfg.panel.winsor == (1.0, 99.0)
    assert cfg.panel.ffill_limit_days == 3
    assert cfg.pipeline.factor_options.btc_id == "XBT"
    assert cfg.specs[0].anomalies == ("size", "liquidity", "momentum")
    assert cfg.specs[0].beta.characteristics == ("size", "momentum", "liquidity")
    assert cfg.synth is None


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"seed": -1}))
    assert "seed" in str(info.value)
    assert load_config(_write(tmp_path, {"seed": 0})).seed == 0


@pytest.mark.parametrize("winsor", [[99, 1], [50, 50], [-5, 150], [0, 100.5],
                                    [1e400, 99], [True, 99]])
def test_winsor_bounds_out_of_range_rejected(tmp_path, winsor):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"panel": {"winsor": winsor}}))
    assert "winsor" in str(info.value)


def test_winsor_bounds_at_the_ends_accepted(tmp_path):
    cfg = load_config(_write(tmp_path, {"panel": {"winsor": [0, 100]}}))
    assert cfg.panel.winsor == (0.0, 100.0)


@pytest.mark.parametrize("top_n", [-5, 0])
def test_universe_top_n_below_one_rejected(tmp_path, top_n):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"universe": {"top_n": top_n}}))
    assert "top_n" in str(info.value)


@pytest.mark.parametrize("econometrics", [
    {"nw_lags": -1},
    {"rank_tolerance": -1},
    {"rank_tolerance": 1},
    {"rank_tolerance": 1.5},
])
def test_econometrics_out_of_range_rejected(tmp_path, econometrics):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {"econometrics": econometrics}))
    assert next(iter(econometrics)) in str(info.value)


def test_econometrics_range_ends_accepted(tmp_path):
    doc = {"econometrics": {"nw_lags": 0, "rank_tolerance": 0}}
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.pipeline.nw_lags == 0
    assert cfg.pipeline.rank_tolerance == 0.0


# section, key, the first rejected value, the boundary value accepted
NUMERIC_RANGES = [
    ("panel", "ffill_limit_days", -1, 0),
    ("universe", "min_history_days", -1, 0),
    ("factors", "min_sort_coins", 0, 1),
    ("pipeline", "min_obs_margin", 0, 1),
    ("pipeline", "floor_base", -1, 0),
    ("econometrics", "significance_z", -0.5, 0),
]


@pytest.mark.parametrize("section, key, bad, _", NUMERIC_RANGES)
def test_numeric_setting_below_its_range_rejected(tmp_path, section, key, bad, _):
    with pytest.raises(InvalidConfig) as info:
        load_config(_write(tmp_path, {section: {key: bad}}))
    assert f"{key} {bad}" in str(info.value)


@pytest.mark.parametrize("section, key, _, edge", NUMERIC_RANGES)
def test_numeric_setting_at_its_range_end_accepted(tmp_path, section, key, _, edge):
    cfg = load_config(_write(tmp_path, {section: {key: edge}}))
    assert resolved_dict(cfg)[section][key] == edge


def test_option_classes_hold_the_range_checks():
    from coinfactors.factors import FactorOptions
    from coinfactors.ingest import UniverseConfig
    from coinfactors.panel import PanelOptions
    from coinfactors.pipeline import PipelineOptions

    with pytest.raises(InvalidConfig):
        PanelOptions(winsor=(99.0, 1.0))
    with pytest.raises(InvalidConfig):
        PanelOptions(riskfree_mode="gold")
    with pytest.raises(InvalidConfig):
        UniverseConfig(top_n=0)
    with pytest.raises(InvalidConfig):
        PipelineOptions(nw_lags=-1)
    with pytest.raises(InvalidConfig):
        PipelineOptions(rank_tolerance=-1e-10)
    with pytest.raises(InvalidConfig):
        PanelOptions(ffill_limit_days=-1)
    with pytest.raises(InvalidConfig):
        UniverseConfig(min_history_days=-1)
    with pytest.raises(InvalidConfig):
        FactorOptions(min_sort_coins=0)
    for bad in ({"min_obs_margin": 0}, {"floor_base": -1}, {"significance_z": -1.0},
                {"significance_z": float("nan")}):
        with pytest.raises(InvalidConfig):
            PipelineOptions(**bad)
