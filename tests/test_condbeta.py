import dataclasses
import datetime as dt
import random

import numpy as np
import pytest

from coinfactors.condbeta import (
    MIN_OBS_MARGIN,
    BetaSpec,
    build_design_matrix,
    first_pass,
    param_names,
    write_first_pass_params_csv,
    write_risk_adjusted_csv,
)
from coinfactors.errors import (
    InsufficientObservations,
    InvalidConfig,
    RankDeficient,
    SpecMismatch,
)
from coinfactors.pipeline import ModelSpec, run_model
from coinfactors.synth import verify_recovery

from conftest import (
    day,
    decomposition_errors,
    factor_set_on,
    fitted_dates,
    make_obs,
    make_panel,
)
from reference_rows import row_view

COND_SIZE = BetaSpec(mode="conditional", characteristics=("size",))


def _params_per_factor(spec):
    """Design columns per factor: param_names of one factor, less alpha."""
    return len(param_names(("mkt",), spec)) - 1


def test_beta_spec_validation():
    with pytest.raises(InvalidConfig):
        BetaSpec(mode="rolling")
    with pytest.raises(InvalidConfig):
        BetaSpec(mode="conditional", lagged_return="spot")
    with pytest.raises(InvalidConfig):
        BetaSpec(mode="conditional", characteristics=())
    with pytest.raises(InvalidConfig, match="characteristic 'size' repeated"):
        BetaSpec(mode="conditional", characteristics=("size", "value", "size"))
    assert _params_per_factor(BetaSpec(mode="unconditional")) == 1
    assert _params_per_factor(BetaSpec(mode="conditional")) == 12
    assert _params_per_factor(COND_SIZE) == 6


def test_param_names_layout():
    assert param_names(("mkt", "smb"), BetaSpec(mode="unconditional")) == (
        "alpha", "mkt.base", "smb.base",
    )
    assert param_names(("mkt",), COND_SIZE) == (
        "alpha",
        "mkt.base", "mkt.u", "mkt.r",
        "mkt.size.base", "mkt.size.u", "mkt.size.r",
    )


def test_expand_design_oracle():
    row = build_design_matrix([[2.0]], [1.0], [0.5], [[2.0]], COND_SIZE)[0]
    # f * [1, u, r, c, u*c, r*c] with f=2, u=1, r=0.5, c=2
    assert row == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0, 2.0], abs=1e-15)


def test_expand_design_unconditional_passthrough():
    row = build_design_matrix([[0.03, -0.01]], [1.0], [0.5], [[2.0]],
                              BetaSpec(mode="unconditional"))[0]
    assert row == pytest.approx([0.03, -0.01], abs=1e-18)


def test_expand_design_unknown_characteristic():
    with pytest.raises(InvalidConfig, match="unknown characteristic 'sizzle'"):
        BetaSpec(mode="conditional", characteristics=("sizzle",))


def test_design_matrix_matches_manual_expansion():
    rng = np.random.default_rng(41)
    T = 25
    F = rng.normal(size=(T, 2))
    u = rng.normal(size=T)
    r = rng.normal(size=T)
    C = rng.normal(size=(T, 2))
    spec = BetaSpec(mode="conditional", characteristics=("size", "value"))
    design = build_design_matrix(F, u, r, C, spec)
    assert design.shape == (T, 2 * 9)
    for t in range(T):
        base = [1.0, u[t], r[t]]
        for m in range(2):
            c = C[t, m]
            base.extend([c, u[t] * c, r[t] * c])
        manual = np.concatenate([F[t, 0] * np.array(base),
                                 F[t, 1] * np.array(base)])
        assert design[t] == pytest.approx(manual, abs=1e-15)


def test_design_matrix_nests_unconditional_columns():
    rng = np.random.default_rng(42)
    T = 30
    F = rng.normal(size=(T, 3))
    u = rng.normal(size=T)
    r = rng.normal(size=T)
    C = rng.normal(size=(T, 1))
    cond = build_design_matrix(F, u, r, C, COND_SIZE)
    uncond = build_design_matrix(F, u, r, C, BetaSpec(mode="unconditional"))
    per = _params_per_factor(COND_SIZE)
    for k in range(3):
        assert np.array_equal(cond[:, k * per], uncond[:, k])


def test_beta_params_vector_round_trip():
    # a loading vector pushed through the design comes back from first_pass
    # in the same flat layout, aligned with param_names and stderr
    rng = np.random.default_rng(43)
    spec = BetaSpec(mode="conditional", characteristics=("size", "momentum"))
    vector = rng.normal(size=_params_per_factor(spec) * 2)
    T = 120
    F = rng.normal(0.001, 0.02, size=(T, 2))
    u = rng.normal(size=T)
    r = rng.normal(0.0, 0.03, size=T)
    C = rng.normal(size=(T, 2))
    excess = 0.002 + build_design_matrix(F, u, r, C, spec) @ vector
    obs = [
        make_obs("X", day(t + 1), excess=float(excess[t]), u=float(u[t]),
                 r_btc=float(r[t]), size=float(C[t, 0]), momentum=float(C[t, 1]))
        for t in range(T)
    ]
    panel = make_panel(obs)
    fs = factor_set_on(panel, ("mkt", "smb"),
                       {day(t + 1): tuple(F[t]) for t in range(T)})
    fit = first_pass(panel, "X", fs, spec)
    assert fit.coefficients.shape == fit.stderr.shape == (1 + vector.size,)
    assert len(fit.param_names) == 1 + vector.size
    assert fit.coefficients[0] == pytest.approx(0.002, abs=1e-10)
    assert fit.coefficients[1:] == pytest.approx(vector, abs=1e-8)
    assert fit.param_names[1 + 9] == "smb.base"
    assert fit.param_names[1 + 17] == "smb.momentum.r"


def test_beta_params_from_vector_size_check(synth_b):
    # recovery checks refuse a true loading vector whose size differs from
    # the estimated one
    panel, truth = synth_b
    spec = ModelSpec(label="c", factors="CAPM", beta=truth.beta_spec)
    result = run_model(panel, spec, factor_set=truth.factor_set)
    short = dataclasses.replace(
        truth, theta={coin: theta[:-1] for coin, theta in truth.theta.items()}
    )
    with pytest.raises(SpecMismatch):
        verify_recovery(result, short)


TRUTH = {
    "alpha": 0.0012, "base": 1.2, "u": 0.3, "r": -0.5,
    "c_base": 0.2, "c_u": 0.1, "c_r": 0.05,
}


def _noiseless_coin(T, seed, truth=TRUTH, own_lag=False):
    """One coin whose excess return follows the conditional one-factor
    model exactly, with the expansion written out by hand."""
    rng = random.Random(seed)
    obs = []
    values = {}
    rets = {}
    for t in range(1, T + 1):
        rets[day(t)] = rng.gauss(0.0, 0.03)
    for t in range(1, T + 1):
        d = day(t)
        f = rng.gauss(0.001, 0.02)
        u = rng.gauss(0.0, 1.0)
        r = rets.get(day(t - 1), 0.0) if own_lag else rng.gauss(0.0, 0.03)
        c = rng.gauss(0.0, 1.0)
        beta = (truth["base"] + truth["u"] * u + truth["r"] * r
                + (truth["c_base"] + truth["c_u"] * u + truth["c_r"] * r) * c)
        excess = truth["alpha"] + beta * f
        obs.append(make_obs("X", d, ret=rets[d], excess=excess, u=u,
                            r_btc=r, size=c))
        values[d] = (f,)
    return obs, factor_set_on(make_panel(obs), ("mkt",), values)


def test_first_pass_noiseless_recovery():
    obs, fs = _noiseless_coin(120, seed=6)
    fit = first_pass(make_panel(obs), "X", fs, COND_SIZE)
    assert fit.coin_id == "X"
    est = dict(zip(fit.param_names, fit.coefficients))
    assert est["alpha"] == pytest.approx(TRUTH["alpha"], abs=1e-12)
    assert est["mkt.base"] == pytest.approx(TRUTH["base"], abs=1e-10)
    assert est["mkt.u"] == pytest.approx(TRUTH["u"], abs=1e-10)
    assert est["mkt.r"] == pytest.approx(TRUTH["r"], abs=1e-10)
    assert est["mkt.size.base"] == pytest.approx(TRUTH["c_base"], abs=1e-10)
    assert est["mkt.size.u"] == pytest.approx(TRUTH["c_u"], abs=1e-10)
    assert est["mkt.size.r"] == pytest.approx(TRUTH["c_r"], abs=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.n_obs == 120
    assert fit.n_params == 7


def test_first_pass_own_lag_mode():
    spec = BetaSpec(mode="conditional", characteristics=("size",),
                    lagged_return="own")
    obs, fs = _noiseless_coin(150, seed=8, own_lag=True)
    fit = first_pass(make_panel(obs), "X", fs, spec)
    # day 1 has no prior return to condition on, so it drops out
    assert fit.n_obs == 149
    est = dict(zip(fit.param_names, fit.coefficients))
    assert est["mkt.r"] == pytest.approx(TRUTH["r"], abs=1e-9)
    assert est["mkt.base"] == pytest.approx(TRUTH["base"], abs=1e-9)


def test_own_lag_decomposition_identity(synth_b):
    panel, truth = synth_b
    spec = BetaSpec(mode="conditional", lagged_return="own")
    one_day = dt.timedelta(days=1)
    worst = 0.0
    worst_btc = 0.0
    rows = row_view(panel)
    for coin in panel.coins:
        obs = rows.by_coin(coin)
        fit = first_pass(panel, coin, truth.factor_set, spec)
        ret = {o.date: o.ret for o in obs}
        own = {d: ret[d - one_day] for d in fitted_dates(fit, panel.dates)}
        worst = max(worst, decomposition_errors(
            fit, obs, truth.factor_set, spec, own).max())
        # the Bitcoin lag does not rebuild an own-lag fit
        worst_btc = max(worst_btc, decomposition_errors(
            fit, obs, truth.factor_set, spec).max())
    assert worst < 1e-10
    assert worst_btc > 1e-3


def test_first_pass_observation_floor():
    p = 1 + _params_per_factor(COND_SIZE)
    obs, fs = _noiseless_coin(p + MIN_OBS_MARGIN, seed=10)
    fit = first_pass(make_panel(obs), "X", fs, COND_SIZE)
    assert fit.n_obs == p + MIN_OBS_MARGIN
    short, short_fs = _noiseless_coin(p + MIN_OBS_MARGIN - 1, seed=10)
    with pytest.raises(InsufficientObservations) as info:
        first_pass(make_panel(short), "X", short_fs, COND_SIZE)
    assert info.value.needed == p + MIN_OBS_MARGIN


def test_first_pass_empty_observations():
    obs, fs = _noiseless_coin(40, seed=12)
    with pytest.raises(InsufficientObservations) as info:
        first_pass(make_panel(obs), "Y", fs, COND_SIZE)  # no rows for Y
    assert info.value.available == 0


def test_first_pass_rank_deficient_names_parameters():
    # two identical factor series collapse the unconditional design
    obs, fs = _noiseless_coin(80, seed=14)
    twin = dataclasses.replace(
        fs, names=("mkt", "smb"), values=np.repeat(fs.values, 2, axis=1)
    )
    with pytest.raises(RankDeficient) as info:
        first_pass(make_panel(obs), "X", twin, BetaSpec(mode="unconditional"))
    assert set(info.value.columns) == {"mkt.base", "smb.base"}


def test_risk_adjusted_is_alpha_plus_residual():
    obs, fs = _noiseless_coin(90, seed=16)
    # add noise so residuals are non-trivial
    noisy = [
        make_obs(o.coin_id, o.date, ret=o.ret,
                 excess=o.excess + random.Random(i).gauss(0.0, 0.01),
                 u=o.cond.u, r_btc=o.cond.r_btc, size=o.chars.size)
        for i, o in enumerate(obs)
    ]
    fit = first_pass(make_panel(noisy), "X", fs, COND_SIZE)
    assert fitted_dates(fit, fs.dates) == [o.date for o in noisy]
    # the fitted factor component plus alpha plus residual rebuilds the
    # observation, so excess - R* is the factor component alone
    assert decomposition_errors(fit, noisy, fs, COND_SIZE).max() < 1e-15
    assert np.abs(fit.risk_adjusted - fit.coefficients[0]).max() > 1e-3


def test_risk_adjusted_is_a_read_only_row_on_the_panel_dates():
    # own-lag mode cannot fit day 1 and the factor set drops day 5, so both
    # cells hold NaN on the coin's row
    obs, fs = _noiseless_coin(80, seed=17, own_lag=True)
    panel = make_panel(obs)
    mask = fs.mask.copy()
    mask[4] = False
    gapped = dataclasses.replace(fs, mask=mask)
    spec = BetaSpec(mode="conditional", characteristics=("size",),
                    lagged_return="own")
    fit = first_pass(panel, "X", gapped, spec)
    assert fit.risk_adjusted.shape == (len(panel.dates),)
    assert not fit.risk_adjusted.flags.writeable
    assert np.flatnonzero(np.isnan(fit.risk_adjusted)).tolist() == [0, 4]
    assert fit.n_obs == 78


def test_first_pass_rejects_factor_set_on_other_dates():
    obs, fs = _noiseless_coin(80, seed=19)
    shorter = make_panel(obs[1:])
    with pytest.raises(InvalidConfig, match="not on the panel's dates"):
        first_pass(shorter, "X", fs, COND_SIZE)


def test_first_pass_param_csv(tmp_path):
    obs, fs = _noiseless_coin(60, seed=18)
    fit = first_pass(make_panel(obs), "X", fs, COND_SIZE)
    path = tmp_path / "params.csv"
    write_first_pass_params_csv([fit], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "coin_id,param_name,estimate,stderr"
    assert len(lines) == 1 + fit.n_params
    first = lines[1].split(",")
    assert first[:2] == ["X", "alpha"]
    assert float(first[2]) == fit.coefficients[0]


def test_risk_adjusted_csv(tmp_path):
    obs, fs = _noiseless_coin(60, seed=20)
    fit = first_pass(make_panel(obs), "X", fs, COND_SIZE)
    path = tmp_path / "ra.csv"
    write_risk_adjusted_csv([fit], fs.dates, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "coin_id,date,risk_adjusted"
    assert len(lines) == 1 + fit.n_obs
    row = lines[1].split(",")
    assert row == ["X", day(1).isoformat(), repr(fit.risk_adjusted[0].item())]
