import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

from coinfactors.condbeta import BetaSpec
from coinfactors.errors import InvalidConfig, SpecMismatch
from coinfactors.ingest import load_coin_dir, parse_epu_csv, parse_riskfree_csv
from coinfactors.panel import CHARACTERISTIC_NAMES, PanelOptions, build_panel
from coinfactors.pipeline import ModelSpec, run_model
from coinfactors.synth import (
    FactorDynamics,
    SynthConfig,
    coin_label,
    emit_raw_files,
    generate_synthetic,
    scenario,
    truth_to_json,
    verify_recovery,
    write_truth_json,
)
from reference_rows import row_view


def test_same_seed_reproduces_exactly():
    cfg = scenario("B", 6, 220, seed=31)
    panel_a, truth_a = generate_synthetic(cfg)
    panel_b, truth_b = generate_synthetic(cfg)
    assert row_view(panel_a).observations == row_view(panel_b).observations
    assert truth_a.factor_set.values.tobytes() == truth_b.factor_set.values.tobytes()
    for coin in truth_a.theta:
        assert np.array_equal(truth_a.theta[coin], truth_b.theta[coin])


def test_different_seed_differs():
    panel_a, _ = generate_synthetic(scenario("B", 6, 220, seed=31))
    panel_b, _ = generate_synthetic(scenario("B", 6, 220, seed=32))
    assert row_view(panel_a).observations != row_view(panel_b).observations


def test_panel_shape_and_dates(synth_b):
    panel, truth = synth_b
    cfg = truth.config
    assert len(panel.coins) == cfg.n_coins
    assert panel.coins[0] == "C000"
    # day 0 exists only as the first lag, so observations span n_days - 1
    assert len(panel.dates) == cfg.n_days - 1
    assert panel.dates[0] == cfg.start + dt.timedelta(days=1)
    assert truth.factor_set.dates == panel.dates
    assert truth.factor_set.mask.all()
    assert panel.mask.all()
    assert panel.riskfree_mode == "tbill"


def test_riskfree_is_zero_in_synthetic_world(synth_b):
    panel, _ = synth_b
    for o in row_view(panel).observations[:500]:
        assert o.ret == o.excess


def test_characteristics_standardized_per_date(synth_b):
    panel, _ = synth_b
    rows = row_view(panel)
    for date in panel.dates[:5]:
        obs = rows.by_date(date)
        for name in CHARACTERISTIC_NAMES:
            z = np.array([o.chars.z(name) for o in obs])
            assert abs(z.mean()) < 1e-9
            assert abs(z.std() - 1.0) < 1e-9


def test_conditioning_series_standardized(synth_b):
    panel, truth = synth_b
    assert not truth.u.flags.writeable and not truth.r_btc.flags.writeable
    u = np.sort(truth.u)
    assert abs(u.mean()) < 1e-9
    assert abs(u.std() - 1.0) < 1e-9
    # observations carry the lagged value, entry t of the lag axis being
    # config.start + t days
    obs = row_view(panel).observations[0]
    t = (obs.date - dt.timedelta(days=1) - truth.config.start).days
    assert obs.cond.u == truth.u[t]
    assert obs.cond.r_btc == truth.r_btc[t]


def test_coin_label_width():
    assert coin_label(0, 30) == "C000"
    assert coin_label(29, 30) == "C029"
    assert coin_label(7, 1000) == "C007"
    assert coin_label(12, 20000) == "C00012"


def test_scenario_presets():
    a = scenario("A", 10, 250, seed=1)
    assert a.beta_spec.mode == "unconditional"
    assert a.anomaly_effects == {}
    b = scenario("B", 10, 250, seed=1)
    assert b.beta_spec.mode == "conditional"
    assert b.factor_dynamics["mkt"] == FactorDynamics(mean=0.002, vol=0.02)
    assert b.theta_law.u != (0.0, 0.0)
    c = scenario("C", 10, 250, seed=1)
    assert c.beta_spec.mode == "unconditional"
    assert c.anomaly_effects == {"size": 0.001}
    with pytest.raises(InvalidConfig):
        scenario("D", 10, 250, seed=1)


def test_synth_config_validation():
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=199, seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=0, n_days=250, seed=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=250, seed=0, noise_vol=-0.1)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=250, seed=0, noise_vol=float("nan"))
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=250, seed=0, epu_phi=1.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=250, seed=0, factor_names=("gold",))
    with pytest.raises(InvalidConfig):
        SynthConfig(n_coins=5, n_days=250, seed=0,
                    anomaly_effects={"beta": 0.1})


def test_truth_json_round_trip(tmp_path, synth_b):
    _, truth = synth_b
    doc = truth_to_json(truth)
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["factor_names"] == ["mkt"]
    coin = sorted(truth.theta)[0]
    assert parsed["theta"][coin] == list(truth.theta[coin])
    assert parsed["config"]["n_coins"] == truth.config.n_coins
    assert "true_theta" not in parsed["config"]
    path = tmp_path / "truth.json"
    write_truth_json(truth, path)
    first = path.read_bytes()
    write_truth_json(truth, path)
    assert path.read_bytes() == first
    assert json.loads(first)["beta_spec"]["mode"] == "conditional"


def test_verify_recovery_on_true_model(synth_b):
    panel, truth = synth_b
    spec = ModelSpec(label="true", factors="CAPM", beta=truth.beta_spec)
    result = run_model(panel, spec, factor_set=truth.factor_set)
    report = verify_recovery(result, truth, tolerance=1e9)
    assert report.n_parameters == truth.config.n_coins * 12
    assert set(report.per_coin_max_error) == set(panel.coins)
    # noisy interaction terms carry large absolute errors, but the nominal
    # 95% intervals should cover close to 95% of true parameters
    assert 0.90 <= report.ci_coverage <= 0.99
    assert report.max_abs_error == max(report.per_coin_max_error.values())
    assert report.passed
    strict = verify_recovery(result, truth, tolerance=1e-30)
    assert not strict.passed
    assert strict.max_abs_error == report.max_abs_error


def test_verify_recovery_spec_mismatches(synth_b):
    panel, truth = synth_b
    uncond = ModelSpec(label="u", factors="CAPM",
                       beta=BetaSpec(mode="unconditional"))
    result_u = run_model(panel, uncond, factor_set=truth.factor_set)
    with pytest.raises(SpecMismatch):
        verify_recovery(result_u, truth)
    spec = ModelSpec(label="c", factors="CAPM", beta=truth.beta_spec)
    result = run_model(panel, spec, factor_set=truth.factor_set)
    renamed = dataclasses.replace(
        truth,
        factor_set=dataclasses.replace(truth.factor_set, names=("smb",)),
    )
    with pytest.raises(SpecMismatch):
        verify_recovery(result, renamed)


def test_emit_raw_files_reingests(tmp_path, synth_b):
    panel, truth = synth_b
    emit_raw_files(panel, truth, tmp_path)
    market = tmp_path / "market"
    coin_files = sorted(p.name for p in market.glob("*.csv"))
    assert len(coin_files) == truth.config.n_coins + 1  # plus the BTC series
    assert "BTC.csv" in coin_files
    coins = load_coin_dir(market)
    epu = parse_epu_csv(tmp_path / "epu.csv")
    riskfree = parse_riskfree_csv(tmp_path / "riskfree.csv")
    assert epu["day"].tolist() == riskfree["day"].tolist()
    rebuilt = build_panel(coins, epu, riskfree, PanelOptions())
    assert rebuilt.riskfree_mode == "tbill"
    assert len(rebuilt.coins) == truth.config.n_coins + 1
    # rolling windows need roughly a year of warmup before dates survive
    assert len(rebuilt.dates) >= 30
    # returns in the rebuilt panel match the synthetic ones where both exist
    synth_rets = {(o.coin_id, o.date): o.ret for o in row_view(panel).observations}
    checked = 0
    for o in row_view(rebuilt).observations:
        key = (o.coin_id, o.date)
        if key in synth_rets:
            assert o.ret == pytest.approx(synth_rets[key], rel=1e-9)
            checked += 1
    assert checked > 100


def test_emit_raw_files_deterministic(tmp_path, synth_b):
    panel, truth = synth_b
    emit_raw_files(panel, truth, tmp_path / "one")
    emit_raw_files(panel, truth, tmp_path / "two")
    for name in ("epu.csv", "riskfree.csv", "market/C000.csv", "market/BTC.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()
