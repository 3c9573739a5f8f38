"""Acceptance gate: ten build criteria, one test each.

Every test ends by printing a single line naming the criterion, its verdict,
and the measured margin, so a verbose run reads as a checklist. Tolerances
are pinned here and nowhere else.
"""

import dataclasses
import datetime as dt
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from mpmath import mp

from coinfactors.cli import main
from coinfactors.condbeta import BetaSpec, first_pass
from coinfactors.econometrics import ols
from coinfactors.factors import (
    build_factor_set,
    sort_portfolios,
    value_weights,
)
from coinfactors.ingest import (
    UniverseConfig,
    filter_universe,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import Panel, build_panel
from coinfactors.pipeline import (
    ModelSpec,
    compare_models,
    run_model,
    second_pass,
    significant_anomaly_count,
)
from coinfactors.synth import (
    emit_raw_files,
    generate_synthetic,
    scenario,
    verify_recovery,
)

from conftest import (
    D0,
    day,
    decomposition_errors,
    make_obs,
    make_panel,
    make_series,
)
from reference_rows import row_view

UNCOND = ModelSpec(label="capm-u", factors="CAPM", beta=BetaSpec("unconditional"))
COND = ModelSpec(label="capm-c", factors="CAPM", beta=BetaSpec("conditional"))
ANOMALIES = ("size", "liquidity", "momentum")


@pytest.fixture(scope="module")
def scenario_b_run():
    """One scenario-B draw shared by the identity and nesting criteria."""
    return generate_synthetic(scenario("B", n_coins=30, n_days=420, seed=21))


def _observation_index(panel: Panel) -> dict:
    return {(o.coin_id, o.date): o for o in row_view(panel).observations}


def _max_decomposition_error(result, panel: Panel) -> float:
    """Worst pointwise |excess - R* - beta'F| over every fitted coin-day of a
    Bitcoin-lag spec."""
    rows = row_view(panel)
    return max(
        float(
            decomposition_errors(
                fit, rows.by_coin(fit.coin_id), result.factor_set, result.spec.beta
            ).max()
        )
        for fit in result.fits
    )


def test_ac01_noiseless_identification():
    started = time.perf_counter()
    cfg = dataclasses.replace(
        scenario("B", n_coins=20, n_days=500, seed=101), noise_vol=0.0
    )
    panel, truth = generate_synthetic(cfg)
    result = run_model(panel, COND, factor_set=truth.factor_set)
    report = verify_recovery(result, truth)
    worst_r2 = max(abs(fit.adj_r2 - 1.0) for fit in result.fits)
    elapsed = time.perf_counter() - started

    assert report.max_abs_error < 1e-8
    assert worst_r2 <= 1e-9
    assert elapsed < 5.0
    print(
        f"AC1 noiseless identification: PASS "
        f"(max |theta_hat - theta| = {report.max_abs_error:.3e} < 1e-8, "
        f"max |adj R2 - 1| = {worst_r2:.3e}, {elapsed:.2f}s)"
    )


def test_ac02_monte_carlo_ci_coverage():
    coverages = []
    slowest = 0.0
    for seed in range(100):
        started = time.perf_counter()
        panel, truth = generate_synthetic(scenario("B", n_coins=50, n_days=730, seed=seed))
        result = run_model(panel, COND, factor_set=truth.factor_set)
        report = verify_recovery(result, truth)
        slowest = max(slowest, time.perf_counter() - started)
        assert report.n_parameters == 50 * 12  # equal weight per seed
        coverages.append(report.ci_coverage)
    pooled = float(np.mean(coverages))

    assert 0.90 <= pooled <= 0.99
    assert slowest < 10.0
    print(
        f"AC2 Monte Carlo CI coverage: PASS "
        f"(pooled 95% coverage = {pooled:.4f} in [0.90, 0.99] over 100 seeds, "
        f"slowest seed {slowest:.2f}s)"
    )


def test_ac03_conditional_pattern_on_synthetic():
    r2_lower = 0
    sig_not_higher = 0
    for seed in range(100):
        panel, _ = generate_synthetic(scenario("B", n_coins=50, n_days=730, seed=seed))
        report = compare_models({"tbill": panel}, [COND, UNCOND])
        results = report.results
        sig = {
            label: significant_anomaly_count(result, report.significance_z)
            for label, result in results.items()
        }
        if results["capm-c"].second_pass_avg_adj_r2 < results["capm-u"].second_pass_avg_adj_r2:
            r2_lower += 1
        if sig["capm-c"] <= sig["capm-u"]:
            sig_not_higher += 1

    assert r2_lower >= 80
    assert sig_not_higher >= 80
    print(
        f"AC3 conditional-spec pattern: PASS "
        f"(conditional adj R2 lower in {r2_lower}/100 seeds, "
        f"significant anomalies not higher in {sig_not_higher}/100, both >= 80)"
    )


def _null_second_pass(seed: int, n_dates: int = 500, n_coins: int = 50):
    """Cross-sections of pure noise on random standardized characteristics."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_dates, n_coins, 3))
    rstar = rng.normal(0.0, 0.02, size=(n_dates, n_coins))
    coins = tuple(f"C{j:03d}" for j in range(n_coins))
    dates = tuple(D0 + dt.timedelta(days=i) for i in range(n_dates))
    shape = (n_coins, n_dates)
    zeros = np.zeros(shape)
    chars = np.zeros((4,) + shape)  # size, momentum, liquidity, value
    chars[0], chars[1], chars[2] = z[:, :, 0].T, z[:, :, 2].T, z[:, :, 1].T
    raw = np.zeros((4,) + shape)
    raw[0], raw[2] = 18.0, 17.0
    panel = Panel(
        coins, dates, np.ones(shape, dtype=bool), zeros, zeros, chars, raw,
        zeros, zeros, "tbill",
    )
    return second_pass(rstar.T, panel, ANOMALIES)


def test_ac04_null_calibration():
    shares = {a: [] for a in ANOMALIES}
    fm_inside = {a: 0 for a in ANOMALIES}
    for seed in range(100):
        result = _null_second_pass(seed)
        for name in ANOMALIES:
            c = result.fm.coefficient(name)
            shares[name].append(c.daily_significant_share)
            fm_inside[name] += int(abs(c.fm_t) < 1.96)

    mean_shares = {a: float(np.mean(shares[a])) for a in ANOMALIES}
    for name in ANOMALIES:
        assert 0.02 <= mean_shares[name] <= 0.10
        assert fm_inside[name] >= 90
    detail = ", ".join(
        f"{a} share {mean_shares[a]:.3f} fm_ok {fm_inside[a]}/100" for a in ANOMALIES
    )
    print(f"AC4 null calibration: PASS ({detail})")


def test_ac05_decomposition_identity(scenario_b_run, tmp_path):
    panel, truth = scenario_b_run
    worst = 0.0
    for spec in (UNCOND, COND):
        worst = max(worst, _max_decomposition_error(run_model(panel, spec), panel))

    raw_dir = tmp_path / "raw"
    emit_raw_files(panel, truth, raw_dir)
    rebuilt = build_panel(
        load_coin_dir(raw_dir / "market"),
        parse_epu_csv(raw_dir / "epu.csv"),
        parse_riskfree_csv(raw_dir / "riskfree.csv"),
    )
    worst_fixture = _max_decomposition_error(run_model(rebuilt, COND), rebuilt)

    assert worst < 1e-10
    assert worst_fixture < 1e-10
    print(
        f"AC5 decomposition identity: PASS "
        f"(synthetic max = {worst:.3e}, re-ingested fixture max = "
        f"{worst_fixture:.3e}, both < 1e-10)"
    )


def test_ac06_nesting_invariant(scenario_b_run):
    panel, _ = scenario_b_run
    factor_set = build_factor_set(panel, "CAPM")
    worst_deficit = 0.0
    for coin in panel.coins:
        uncond = first_pass(panel, coin, factor_set, UNCOND.beta)
        cond = first_pass(panel, coin, factor_set, COND.beta)
        worst_deficit = max(worst_deficit, uncond.r2 - cond.r2)

    assert worst_deficit <= 1e-12
    print(
        f"AC6 nesting invariant: PASS "
        f"(conditional unadjusted R2 >= unconditional for all "
        f"{len(panel.coins)} coins, worst deficit = {worst_deficit:.3e})"
    )


def test_ac07_ols_oracle_equivalence():
    mp.dps = 50
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 2, 9))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = ols(X, y)

        Xm = mp.matrix([[mp.mpf(X[i, j]) for j in range(p)] for i in range(n)])
        ym = mp.matrix([mp.mpf(v) for v in y])
        reference = mp.lu_solve(Xm.T * Xm, Xm.T * ym)
        for j in range(p):
            ref = float(reference[j])
            rel = abs(fit.coefficients[j] - ref) / max(1.0, abs(ref))
            worst_rel = max(worst_rel, rel)

    assert worst_rel < 1e-10
    print(
        f"AC7 OLS oracle equivalence: PASS "
        f"(1000 instances, worst relative error = {worst_rel:.3e} < 1e-10)"
    )


def test_ac08_factor_invariants():
    date = day(1)

    def ten_coins(cap_scale: float) -> Panel:
        observations = []
        for i in range(10):
            observations.append(
                make_obs(
                    f"C{i}",
                    date,
                    ret=0.01 * i - 0.03,
                    size_raw=18.0 + 0.1 * i + np.log(cap_scale),
                    momentum_raw=0.01 * i,
                    liquidity_raw=17.0 + 0.05 * i,
                    value_raw=0.02 * i,
                )
            )
        return make_panel(observations)

    panel = ten_coins(1.0)
    index = _observation_index(panel)
    worst_weight = 0.0
    for characteristic in ("size", "momentum", "liquidity", "value"):
        assignment = sort_portfolios(panel, date, characteristic)
        low, mid, high = (assignment.leg(l) for l in ("LOW", "MID", "HIGH"))
        all_assigned = sorted(low + mid + high)
        assert all_assigned == sorted(f"C{i}" for i in range(10))  # exact partition
        assert not (set(low) & set(mid) or set(mid) & set(high) or set(low) & set(high))
        for leg in (low, high):
            weights = value_weights([index[(c, date)].chars.size_raw for c in leg])
            worst_weight = max(worst_weight, abs(float(weights.sum()) - 1.0))

    base = build_factor_set(panel, "ALL")
    scaled = build_factor_set(ten_coins(1000.0), "ALL")
    col = base.dates.index(date)
    worst_scale = max(
        abs(b - s) for b, s in zip(base.values[col], scaled.values[col])
    )

    assert worst_weight <= 1e-12
    assert worst_scale <= 1e-12
    print(
        f"AC8 factor invariants: PASS "
        f"(leg weight sums off by {worst_weight:.3e}, cap-scale drift "
        f"{worst_scale:.3e}, partitions exact)"
    )


def test_ac09_end_to_end_determinism(tmp_path):
    runner = CliRunner()
    synth_dir = tmp_path / "synth"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "synth": {"scenario": "A", "n_coins": 22, "n_days": 420, "emit_raw": False},
                "seed": 13,
                "output_dir": str(synth_dir),
            }
        )
    )
    assert runner.invoke(main, ["synth", "--config", str(synth_cfg)]).exit_code == 0

    run_dir = tmp_path / "run"
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(
        json.dumps(
            {
                "panel_file": str(synth_dir / "panel.csv"),
                "specs": [
                    {"label": "capm-u", "factors": "CAPM", "beta": {"mode": "unconditional"}},
                    {"label": "capm-c", "factors": "CAPM", "beta": {"mode": "conditional"}},
                ],
                "output_dir": str(run_dir),
            }
        )
    )

    def run_once() -> dict[str, bytes]:
        result = runner.invoke(main, ["run", "--config", str(run_cfg)])
        assert result.exit_code == 0, result.output + result.stderr
        return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}

    first = run_once()
    second = run_once()
    assert first == second
    assert "manifest.json" in first and "comparison.md" in first
    print(
        f"AC9 end-to-end determinism: PASS "
        f"({len(first)} output files byte-identical across reruns)"
    )


def test_ac10_universe_filter():
    rank_date = D0 + dt.timedelta(days=600)
    coins = []
    caps = {}
    for i in range(249):
        coin_id = f"COIN{i:03d}"
        n_bars = 366 + (i % 30)
        cap = 1_000_000.0 * (1 + (i * 37) % 250)
        caps[coin_id] = cap
        start = rank_date - dt.timedelta(days=n_bars - 1)
        coins.append(
            make_series(coin_id, [1.0] * n_bars, start=start, caps=[cap] * n_bars)
        )
    # young coin: largest cap of all, 200 days of history, must not be chosen
    coins.append(
        make_series(
            "SHORTIE",
            [1.0] * 201,
            start=rank_date - dt.timedelta(days=200),
            caps=[1e12] * 201,
        )
    )

    selected = filter_universe(
        coins, UniverseConfig(rank_date=rank_date, top_n=200, min_history_days=365)
    )
    expected = tuple(
        coin_id
        for _, coin_id in sorted((-caps[c], c) for c in caps)[:200]
    )

    assert len(selected) == 200
    assert "SHORTIE" not in selected
    assert selected == expected
    print(
        "AC10 universe filter: PASS "
        "(top-200-by-cap year-aged subset matches the sort-and-truncate "
        "oracle exactly; 200-day coin excluded)"
    )
