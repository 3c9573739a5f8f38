import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from coinfactors import pipeline
from coinfactors.condbeta import BetaSpec
from coinfactors.errors import (
    EmptyDate,
    EstimationError,
    InvalidConfig,
    NoEligibleDates,
    StageError,
)
from coinfactors.panel import characteristic_index
from coinfactors.pipeline import (
    ComparisonReport,
    ModelSpec,
    PipelineOptions,
    compare_models,
    cross_section_floor,
    run_model,
    second_pass,
    significant_anomaly_count,
)
from coinfactors.report import (
    COMPARISON_COLUMNS,
    PAIR_COLUMNS,
    anomaly_rows,
    comparison_rows,
    pair_rows,
)
from coinfactors.synth import generate_synthetic, scenario

from conftest import day, decomposition_errors, factor_set_on, make_obs, make_panel
from reference_rows import row_view

UNCOND = ModelSpec(label="capm-u", factors="CAPM",
                   beta=BetaSpec(mode="unconditional"))
COND = ModelSpec(label="capm-c", factors="CAPM",
                 beta=BetaSpec(mode="conditional"))


def test_cross_section_floor():
    assert cross_section_floor(3) == 20
    assert cross_section_floor(10) == 33
    assert cross_section_floor(1, base=2) == 6
    assert cross_section_floor(6, base=30) == 30


def test_model_spec_validation():
    with pytest.raises(InvalidConfig):
        ModelSpec(label="", factors="CAPM", beta=BetaSpec(mode="unconditional"))
    with pytest.raises(InvalidConfig):
        ModelSpec(label="x", factors="CAPM5", beta=BetaSpec(mode="unconditional"))
    with pytest.raises(InvalidConfig):
        ModelSpec(label="x", factors="CAPM", beta=BetaSpec(mode="unconditional"),
                  anomalies=())
    with pytest.raises(InvalidConfig):
        ModelSpec(label="x", factors="CAPM", beta=BetaSpec(mode="unconditional"),
                  anomalies=("size", "beta"))
    with pytest.raises(InvalidConfig, match="spec 'x': anomaly 'size' repeated"):
        ModelSpec(label="x", factors="CAPM", beta=BetaSpec(mode="unconditional"),
                  anomalies=("size", "size"))
    with pytest.raises(InvalidConfig):
        ModelSpec(label="x", factors="CAPM", beta=BetaSpec(mode="unconditional"),
                  riskfree_mode="gold")


def _coin_id(i):
    return f"C{i:02d}"


def _linear_cross_sections(n_dates=30, a=0.001, b=0.0005):
    """Panel and risk-adjusted returns with R* = a + b * size_z exactly,
    six coins per date."""
    sizes = [-1.5, -0.9, -0.1, 0.4, 0.8, 1.3]
    obs = []
    rstar = {}
    for t in range(1, n_dates + 1):
        for i, z in enumerate(sizes):
            coin = _coin_id(i)
            obs.append(make_obs(coin, day(t), size=z))
            rstar.setdefault(coin, {})[day(t)] = a + b * z
    return make_panel(obs), rstar


def _grid(panel, rstar):
    """R* per coin and date as the panel's coins x dates grid, NaN where a
    coin-day has none."""
    grid = np.full(panel.mask.shape, np.nan)
    for coin, series in rstar.items():
        for date, value in series.items():
            grid[panel.coin_index[coin], panel.date_index[date]] = value
    return grid


def test_second_pass_recovers_exact_linear_premium():
    panel, rstar = _linear_cross_sections()
    result = second_pass(_grid(panel, rstar), panel, ("size",), floor_base=2)
    assert len(result.fits) == 30
    assert result.skipped == ()
    assert result.fits.dates == panel.dates
    assert result.fits.coefficients.shape == (30, 2)
    for c0, c_size in result.fits.coefficients.tolist():
        assert c0 == pytest.approx(0.001, abs=1e-14)
        assert c_size == pytest.approx(0.0005, abs=1e-14)
    names = [c.name for c in result.fm.coefficients]
    assert names == ["c0", "size"]
    premium = result.fm.coefficients[1]
    assert premium.mean == pytest.approx(0.0005, abs=1e-14)
    # near-identical daily estimates leave (almost) nothing to average over
    assert premium.fm_se < 1e-15
    assert premium.daily_significant_share == 1.0


def test_second_pass_skips_below_floor_dates():
    panel_obs, rstar = _linear_cross_sections()
    extra_date = day(31)
    extras = [make_obs(_coin_id(i), extra_date, size=0.1 * i) for i in range(5)]
    panel = make_panel(list(row_view(panel_obs).observations) + extras)
    for i in range(5):
        rstar[_coin_id(i)][extra_date] = 0.002
    result = second_pass(_grid(panel, rstar), panel, ("size",), floor_base=2)
    assert len(result.fits) == 30
    assert result.skipped == ((extra_date, "below_floor:5<6"),)


def test_second_pass_skips_rank_deficient_dates():
    panel_obs, rstar = _linear_cross_sections()
    extra_date = day(31)
    extras = [make_obs(_coin_id(i), extra_date, size=0.0) for i in range(6)]
    panel = make_panel(list(row_view(panel_obs).observations) + extras)
    for i in range(6):
        rstar[_coin_id(i)][extra_date] = 0.002
    result = second_pass(_grid(panel, rstar), panel, ("size",), floor_base=2)
    assert len(result.fits) == 30
    assert len(result.skipped) == 1
    date, reason = result.skipped[0]
    assert date == extra_date
    assert reason.startswith("rank_deficient:")


def test_second_pass_needs_two_eligible_dates():
    panel, rstar = _linear_cross_sections(n_dates=1)
    with pytest.raises(NoEligibleDates):
        second_pass(_grid(panel, rstar), panel, ("size",), floor_base=2)


def test_second_pass_rejects_overflowed_coefficients():
    # a finite R* near the top of the float range overflows the fit, which
    # would otherwise write inf or nan premia to the cross-section file
    panel, rstar = _linear_cross_sections()
    grid = _grid(panel, rstar)
    with pytest.raises(EstimationError, match="not finite"):
        second_pass(np.where(np.isnan(grid), np.nan, 1.5e308), panel, ("size",),
                    floor_base=2)


def test_second_pass_ignores_pairs_missing_from_panel():
    # GHOST is in the panel on day 31 only; its R* on days 1-30, coin-days
    # the panel lacks, joins no cross-section
    panel_obs, rstar = _linear_cross_sections()
    ghost = make_obs("GHOST", day(31), size=0.3)
    panel = make_panel(list(row_view(panel_obs).observations) + [ghost])
    rstar["GHOST"] = {day(t): 0.5 for t in range(1, 31)}
    result = second_pass(_grid(panel, rstar), panel, ("size",), floor_base=2)
    assert result.fits.dates == panel.dates[:30]
    # a leaked GHOST would join each date at size z 0 (its value off the
    # mask), the mean of the six sizes: the slope would hold and the
    # intercept move to about 0.072
    assert result.fits.coefficients[:, 0] == pytest.approx(0.001, abs=1e-14)
    assert result.fits.coefficients[:, 1] == pytest.approx(0.0005, abs=1e-14)
    assert result.skipped == ()


def test_second_pass_rejects_grid_of_another_shape():
    panel, rstar = _linear_cross_sections()
    grid = _grid(panel, rstar)
    with pytest.raises(InvalidConfig, match="R\\* grid has shape"):
        second_pass(grid[:, 1:], panel, ("size",), floor_base=2)


def test_run_model_stacks_fits_into_the_second_pass_grid(synth_b, monkeypatch):
    panel, truth = synth_b
    grids = []
    real = pipeline.second_pass

    def spy(rstar, *args, **kwargs):
        grids.append(rstar)
        return real(rstar, *args, **kwargs)

    monkeypatch.setattr(pipeline, "second_pass", spy)
    result = run_model(panel, UNCOND, factor_set=truth.factor_set)
    (grid,) = grids
    assert grid.shape == panel.mask.shape
    for fit in result.fits:
        row = grid[panel.coin_index[fit.coin_id]]
        assert row.tobytes() == fit.risk_adjusted.tobytes()


def test_run_model_riskfree_mode_mismatch():
    panel, _ = _linear_cross_sections()
    spec = ModelSpec(label="btc-spec", factors="CAPM",
                     beta=BetaSpec(mode="unconditional"), riskfree_mode="btc")
    with pytest.raises(InvalidConfig):
        run_model(panel, spec)


def test_run_model_factor_set_name_mismatch():
    panel, _ = _linear_cross_sections()
    wrong = factor_set_on(panel, ("mkt", "smb"), {day(1): (0.01, 0.0)})
    with pytest.raises(InvalidConfig):
        run_model(panel, UNCOND, factor_set=wrong)


def test_run_model_rejects_factor_set_on_other_dates(synth_b):
    # a set built on another panel's dates is refused, not misaligned
    panel, truth = synth_b
    shorter = make_panel(
        [o for o in row_view(panel).observations if o.date != panel.dates[-1]]
    )
    with pytest.raises(InvalidConfig, match="not on the panel's dates"):
        run_model(shorter, UNCOND, factor_set=truth.factor_set)


def test_run_model_empty_factor_set_is_stage_error():
    panel, _ = _linear_cross_sections()
    empty = factor_set_on(panel, ("mkt",), {})
    with pytest.raises(StageError) as info:
        run_model(panel, UNCOND, factor_set=empty)
    assert info.value.stage == "factors"
    assert info.value.label == "capm-u"


def test_run_model_drops_a_coin_with_a_rank_deficient_first_pass(synth_b):
    # a size z of 0 on all of a coin's dates zeroes its three size columns
    panel, truth = synth_b
    z = np.array(panel.z)
    z[characteristic_index("size"), 3] = 0.0
    result = run_model(dataclasses.replace(panel, z=z), COND, factor_set=truth.factor_set)
    (drop,) = result.dropped_coins
    assert (drop.coin_id, drop.date) == (panel.coins[3], None)
    size = ["mkt.size.base", "mkt.size.u", "mkt.size.r"]
    assert drop.reason == (
        f"rank_deficient: rank-deficient design: coin {panel.coins[3]}: "
        f"dependent columns {size}"
    )
    assert [fit.coin_id for fit in result.fits] == [
        c for c in panel.coins if c != panel.coins[3]
    ]


def test_run_model_first_pass_overflow_is_stage_error(synth_b):
    # finite excess returns near the top of the float range overflow a
    # full-rank fit; run_model stops and names the stage
    panel, truth = synth_b
    excess = np.array(panel.excess)
    excess[0] = 1.5e308
    with pytest.raises(StageError) as info:
        run_model(dataclasses.replace(panel, excess=excess), UNCOND,
                  factor_set=truth.factor_set)
    assert (info.value.label, info.value.stage) == ("capm-u", "first_pass")
    assert isinstance(info.value.__cause__, EstimationError)
    assert "not finite" in str(info.value)


def test_compare_models_rejects_bad_spec_sets(synth_b):
    panel, _ = synth_b
    with pytest.raises(InvalidConfig):
        compare_models({panel.riskfree_mode: panel}, [])
    dup = ModelSpec(label="capm-u", factors="CAPM",
                    beta=BetaSpec(mode="conditional"))
    with pytest.raises(InvalidConfig):
        compare_models({panel.riskfree_mode: panel}, [UNCOND, dup])


def test_compare_models_requires_panel_for_mode(synth_b):
    panel, _ = synth_b
    btc_spec = ModelSpec(label="b", factors="CAPM",
                         beta=BetaSpec(mode="unconditional"),
                         riskfree_mode="btc")
    with pytest.raises(InvalidConfig):
        compare_models({panel.riskfree_mode: panel}, [btc_spec])


def test_run_model_second_pass_floor_failure_is_stage_error(synth_b):
    panel, truth = synth_b
    options = PipelineOptions(floor_base=10_000)
    with pytest.raises(StageError) as info:
        run_model(panel, UNCOND, factor_set=truth.factor_set, options=options)
    assert info.value.stage == "second_pass"


def test_run_model_end_to_end_decomposition(synth_b):
    panel, truth = synth_b
    result = run_model(panel, COND, factor_set=truth.factor_set)
    assert result.spec is COND
    assert len(result.fits) == len(panel.coins)
    assert np.isfinite(result.first_pass_avg_adj_r2)
    assert [c.name for c in result.fm.coefficients] == [
        "c0", "size", "liquidity", "momentum",
    ]
    assert result.anomaly_summaries() == result.fm.coefficients[1:]
    # excess decomposes into fitted factor component plus alpha plus
    # residual at every fitted coin-day
    fit = result.fits[0]
    errors = decomposition_errors(
        fit, row_view(panel).by_coin(fit.coin_id), truth.factor_set, COND.beta
    )
    assert errors.max() < 1e-10


def _named(columns, rows):
    """Row-builder rows as objects with one attribute per column."""
    names = [name for name, _, _ in columns]
    return [SimpleNamespace(**dict(zip(names, row, strict=True))) for row in rows]


def test_compare_models_pairs_conditional_with_unconditional(synth_b):
    panel, truth = synth_b
    report = compare_models({panel.riskfree_mode: panel}, [COND, UNCOND])
    assert isinstance(report, ComparisonReport)
    rows = _named(COMPARISON_COLUMNS, comparison_rows(report))
    assert [r.label for r in rows] == ["capm-c", "capm-u"]
    assert len(report.pairs) == 1
    (pair,) = _named(PAIR_COLUMNS, pair_rows(report))
    assert pair.unconditional_label == "capm-u"
    assert pair.conditional_label == "capm-c"
    assert pair.factors == "CAPM"
    cond_row = rows[0]
    uncond_row = rows[1]
    assert pair.delta_sp_adj_r2 == (pair.conditional_sp_adj_r2
                                    - pair.unconditional_sp_adj_r2)
    assert pair.conditional_sp_adj_r2 == cond_row.second_pass_avg_adj_r2
    assert pair.unconditional_sp_adj_r2 == uncond_row.second_pass_avg_adj_r2
    assert pair.significant_change == (pair.conditional_significant
                                       - pair.unconditional_significant)
    assert pair.conditional_coins == cond_row.n_coins
    results = report.results
    assert cond_row.significant_anomalies == significant_anomaly_count(
        results["capm-c"], report.significance_z)
    assert [row[1:7] for row in anomaly_rows(report) if row[0] == "capm-c"] == [
        (c.name, c.mean, c.fm_se, c.fm_t, c.nw_se, c.nw_t)
        for c in results["capm-c"].anomaly_summaries()
    ]


def test_compare_models_no_pairs_without_both_modes(synth_b):
    panel, _ = synth_b
    report = compare_models({panel.riskfree_mode: panel}, [UNCOND])
    assert report.pairs == ()
    assert len(report.results) == 1


def test_compare_models_keeps_r_star_and_a_run_keeps_only_its_tables(synth_b):
    """compare_models, the in-memory API, keeps every fit's R* row; what a
    run keeps of a model for its comparison tables has none, and gives the
    same table rows."""
    panel, truth = synth_b
    report = compare_models({panel.riskfree_mode: panel}, [COND, UNCOND])
    for label, result in report.results.items():
        alone = run_model(panel, result.spec, factor_set=result.factor_set)
        assert [f.risk_adjusted.tobytes() for f in result.fits] == [
            f.risk_adjusted.tobytes() for f in alone.fits]
    kept = {label: r.without_risk_adjusted() for label, r in report.results.items()}
    assert all(f.risk_adjusted is None for r in kept.values() for f in r.fits)
    slim = pipeline.comparison_report(kept, report.significance_z)
    assert slim.pairs == report.pairs
    for build in (comparison_rows, anomaly_rows, pair_rows):
        assert repr(build(slim)) == repr(build(report))


FF3_SPECS = [
    ModelSpec(label="ff3-u", factors="FF3", beta=BetaSpec(mode="unconditional")),
    ModelSpec(label="ff3-c", factors="FF3", beta=BetaSpec(mode="conditional")),
]


def test_compare_models_builds_each_menu_once(synth_b, monkeypatch):
    panel, _ = synth_b
    menus = []
    build = pipeline.build_factor_set

    def counting_build(panel, menu, options):
        menus.append(menu)
        return build(panel, menu, options)

    monkeypatch.setattr(pipeline, "build_factor_set", counting_build)
    report = compare_models({panel.riskfree_mode: panel}, [COND, UNCOND] + FF3_SPECS)
    assert sorted(menus) == ["CAPM", "FF3"]
    assert list(report.results) == ["capm-c", "capm-u", "ff3-c", "ff3-u"]
    for label, result in report.results.items():
        assert result.factor_set is report.results[label[:-1] + "u"].factor_set


def test_compare_models_failed_build_names_first_spec(synth_b, monkeypatch):
    panel, _ = synth_b

    def failing_build(panel, menu, options):
        raise EmptyDate(day(1))

    monkeypatch.setattr(pipeline, "build_factor_set", failing_build)
    with pytest.raises(StageError) as info:
        compare_models({panel.riskfree_mode: panel}, FF3_SPECS)
    assert info.value.label == "ff3-c"
    assert info.value.stage == "factors"
    assert isinstance(info.value.cause, EmptyDate)


def test_compare_models_empty_factor_set_names_first_spec():
    # four coins cannot be sorted into legs, so every FF3 date drops out
    obs = [make_obs(_coin_id(i), day(t), size_raw=14.0 + i)
           for t in range(1, 6) for i in range(4)]
    panel = make_panel(obs)
    with pytest.raises(StageError) as info:
        compare_models({panel.riskfree_mode: panel}, FF3_SPECS)
    assert info.value.label == "ff3-c"
    assert info.value.stage == "factors"


@pytest.mark.parametrize("z", [0.5, 50.0])
def test_comparison_rows_count_significance_at_configured_z(z):
    # comparison rows and pairs count the same anomalies, at the configured
    # threshold, not the 1.96 default
    panel, _ = generate_synthetic(scenario("C", 40, 300, seed=3))
    report = compare_models(
        {panel.riskfree_mode: panel}, [COND, UNCOND], PipelineOptions(significance_z=z)
    )
    rows = _named(COMPARISON_COLUMNS, comparison_rows(report))
    rows = {row.label: row for row in rows}
    (pair,) = _named(PAIR_COLUMNS, pair_rows(report))
    for label in ("capm-c", "capm-u"):
        assert rows[label].significant_anomalies == significant_anomaly_count(
            report.results[label], z
        )
    assert rows["capm-c"].significant_anomalies == pair.conditional_significant
    assert rows["capm-u"].significant_anomalies == pair.unconditional_significant
    default = [
        significant_anomaly_count(report.results[label]) for label in rows
    ]
    assert [row.significant_anomalies for row in rows.values()] != default
