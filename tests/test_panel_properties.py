"""Properties of the columnar panel that hold for any input: the panel CSV
round trip is exact, a coin on dates of its own leaves every other coin's
first pass untouched, rescaling every market cap leaves the factors
unchanged on every date, build_panel does not depend on the order of its
coin series, and renaming the coins leaves every run output unchanged up to
labels and row order.
"""

import csv
import dataclasses
import datetime as dt
import functools
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coinfactors.condbeta import BetaSpec, first_pass
from coinfactors.factors import build_factor_set
from coinfactors.ingest import (
    CoinSeries,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import (
    _COLUMNS,
    CHARACTERISTIC_NAMES,
    CharacteristicWindows,
    Panel,
    PanelOptions,
    build_panel,
    read_panel_csv,
    write_drop_report,
    write_panel_csv,
)
from coinfactors.pipeline import ModelSpec, PipelineOptions, compare_models
from coinfactors.report import write_model_outputs, write_report_files
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario

from conftest import D0, make_obs
from reference_rows import panel_from_rows, row_view

N_CHARS = len(CHARACTERISTIC_NAMES)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# exp(size_raw) must stay a positive finite cap for the reader to accept it
SIZE_RAW = st.floats(min_value=-700.0, max_value=700.0)


@st.composite
def gapped_panels(draw):
    """Small panels with gapped dates, coins missing on some of them, and
    any finite values, -0.0 and subnormals included: one per cell, and one
    per date for u and r_btc."""
    n_coins = draw(st.integers(1, 4))
    n_dates = draw(st.integers(1, 6))
    coins = sorted(draw(st.sets(st.text("AZ09-_, \"", min_size=1, max_size=4),
                                min_size=n_coins, max_size=n_coins)))
    offsets = sorted(draw(st.sets(st.integers(0, 40), min_size=n_dates, max_size=n_dates)))
    shape = (n_coins, n_dates)
    mask = draw(arrays(bool, shape))
    for i in range(n_coins):  # every coin and every date keeps a cell
        mask[i, i % n_dates] = True
    for j in range(n_dates):
        mask[j % n_coins, j] = True
    raw = draw(arrays(float, (N_CHARS,) + shape, elements=FINITE))
    raw[0] = draw(arrays(float, shape, elements=SIZE_RAW))
    return Panel(
        coins=coins,
        dates=[D0 + dt.timedelta(days=k) for k in offsets],
        mask=mask,
        ret=draw(arrays(float, shape, elements=FINITE)),
        excess=draw(arrays(float, shape, elements=FINITE)),
        z=draw(arrays(float, (N_CHARS,) + shape, elements=FINITE)),
        raw=raw,
        u=draw(arrays(float, n_dates, elements=FINITE)),
        r_btc=draw(arrays(float, n_dates, elements=FINITE)),
        riskfree_mode="tbill",
    )


@settings(max_examples=200, deadline=None)
@given(panel=gapped_panels())
def test_panel_csv_round_trip_is_exact(panel, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_panel_csv(panel, path)
    again = read_panel_csv(path)
    assert again.coins == panel.coins
    assert again.dates == panel.dates
    assert np.array_equal(again.mask, panel.mask)
    present = panel.mask
    for name in ("ret", "excess"):
        assert getattr(again, name)[present].tobytes() == getattr(panel, name)[present].tobytes()
    for name in ("u", "r_btc"):
        assert getattr(again, name).tobytes() == getattr(panel, name).tobytes()
    for name in ("z", "raw"):
        assert getattr(again, name)[:, present].tobytes() == \
            getattr(panel, name)[:, present].tobytes()


SPECS = (
    BetaSpec("unconditional"),
    BetaSpec("conditional"),
    BetaSpec("conditional", lagged_return="own"),
)


@pytest.fixture(scope="module")
def gapped_base():
    """A scenario-B panel with dates 100-109 removed, so that another coin
    can sit inside the gap as well as before and after the sample."""
    panel, _ = generate_synthetic(scenario("B", 6, 220, seed=4))
    gap = set(panel.dates[100:110])
    return panel_from_rows(o for o in row_view(panel).observations if o.date not in gap)


def _fit_bytes(fit, dates):
    """A fit's exact content, its R* keyed by date so that fits on panels
    with different date axes compare."""
    cols = np.flatnonzero(~np.isnan(fit.risk_adjusted))
    return (fit.coefficients.tobytes(), fit.stderr.tobytes(), repr(fit.r2),
            repr(fit.adj_r2), [dates[j] for j in cols],
            fit.risk_adjusted[cols].tobytes())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    coin_id=st.sampled_from(["A", "C0025", "ZZZ"]),
    offsets=st.sets(st.sampled_from(list(range(-30, 0)) + list(range(101, 111))
                                    + list(range(220, 250))), min_size=1, max_size=25),
    values=st.lists(st.floats(-2.0, 2.0), min_size=10, max_size=10),
)
def test_disjoint_coin_leaves_other_fits_unchanged(gapped_base, coin_id, offsets, values):
    base = gapped_base
    start = base.dates[0] - dt.timedelta(days=1)
    extra = [
        make_obs(coin_id, start + dt.timedelta(days=k), ret=values[0], excess=values[1],
                 u=values[2], r_btc=values[3], size=values[4], momentum=values[5],
                 liquidity=values[6], size_raw=18.0 + values[7],
                 liquidity_raw=17.0 + values[8], momentum_raw=values[9])
        for k in sorted(offsets)
    ]
    assert not {o.date for o in extra} & set(base.dates)
    wider = panel_from_rows(list(row_view(base).observations) + extra)
    assert len(wider.dates) == len(base.dates) + len(offsets)
    for menu in ("CAPM", "FF3"):
        base_factors = build_factor_set(base, menu)
        wider_factors = build_factor_set(wider, menu)
        for spec in SPECS:
            for coin in base.coins:
                wide = first_pass(wider, coin, wider_factors, spec)
                narrow = first_pass(base, coin, base_factors, spec)
                assert _fit_bytes(wide, wider.dates) == _fit_bytes(narrow, base.dates)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.floats(1e-6, 1e6))
def test_rescaling_caps_leaves_every_factor_unchanged(seed, k):
    # size_raw is ln cap: multiplying every cap by k adds ln k to it
    panel, _ = generate_synthetic(scenario("A", 12, 200, seed=seed))
    raw = panel.raw.copy()
    raw[CHARACTERISTIC_NAMES.index("size")] += math.log(k)
    scaled = dataclasses.replace(panel, raw=raw)
    base = build_factor_set(panel, "ALL")
    other = build_factor_set(scaled, "ALL")
    assert other.dates == base.dates == panel.dates
    assert other.mask.tolist() == base.mask.tolist()
    # a long-short spread that nearly cancels keeps its legs' last-bit
    # differences (about 1e-17), hence the absolute floor next to 1e-12
    for col in np.flatnonzero(base.mask):
        assert other.values[col] == pytest.approx(base.values[col], rel=1e-12, abs=1e-15)


@pytest.fixture(scope="module")
def raw_inputs(tmp_path_factory):
    """Raw coin series of a small scenario-B draw, one coin with every fifth
    bar removed and one with a single bar, and the conditioning series."""
    panel, truth = generate_synthetic(scenario("B", 5, 200, seed=6))
    raw = tmp_path_factory.mktemp("raw_inputs")
    emit_raw_files(panel, truth, raw)
    coins = list(load_coin_dir(raw / "market"))
    gapped = coins[1]
    kept = np.arange(len(gapped.bars)) % 5 != 0
    coins[1] = CoinSeries(gapped.coin_id, gapped.bars[kept])
    coins.append(CoinSeries("ONE", coins[2].bars[:1]))
    return coins, parse_epu_csv(raw / "epu.csv"), parse_riskfree_csv(raw / "riskfree.csv")


def _build_bytes(coins, epu, rf, options, out):
    panel = build_panel(coins, epu, rf, options)
    write_panel_csv(panel, out / "panel.csv")
    write_drop_report(panel.dropped, out / "drops.csv")
    return (out / "panel.csv").read_bytes(), (out / "drops.csv").read_bytes()


SHORT_WINDOWS = CharacteristicWindows(
    momentum_days=7, liquidity_days=7, value_near_days=3, value_far_days=20
)


@pytest.mark.parametrize("mode", ["tbill", "btc"])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(7)))
def test_build_panel_bytes_do_not_depend_on_coin_order(
    raw_inputs, tmp_path_factory, mode, order
):
    coins, epu, rf = raw_inputs
    assert len(coins) == len(order)
    options = PanelOptions(riskfree_mode=mode, windows=SHORT_WINDOWS)
    out = tmp_path_factory.getbasetemp()
    expected = _build_bytes(coins, epu, rf, options, out)
    assert expected[0].count(b"\n") > 100  # the panel holds observations
    shuffled = [coins[i] for i in order]
    assert _build_bytes(shuffled, epu, rf, options, out) == expected


# with floor_base 0 a single anomaly needs 6 coins a date, which 8 coins
# keep: every spec reaches the second pass
RELABEL_SPECS = [
    ModelSpec(label, menu, BetaSpec(mode), anomalies=("size",))
    for label, menu, mode in (
        ("capm-u", "CAPM", "unconditional"),
        ("capm-c", "CAPM", "conditional"),
        ("ff3-c", "FF3", "conditional"),
    )
]
RELABEL_OPTIONS = PipelineOptions(floor_base=0)


@functools.lru_cache(maxsize=None)
def _relabel_base():
    """8 scenario-B coins, one short of history (dropped by every spec) and
    one missing a block of dates."""
    panel, _ = generate_synthetic(scenario("B", 8, 200, seed=9))
    mask = np.ones(panel.mask.shape, dtype=bool)
    mask[2, 30:] = False
    mask[5, 60:90] = False
    columns = {name: getattr(panel, name) for name in _COLUMNS}
    columns.update(mask=mask, u=np.array(panel.u), r_btc=np.array(panel.r_btc))
    return Panel(coins=panel.coins, dates=panel.dates,
                 riskfree_mode=panel.riskfree_mode, **columns)


def _run_outputs(panel):
    """Every file a run writes for RELABEL_SPECS, by name."""
    report = compare_models({panel.riskfree_mode: panel}, RELABEL_SPECS, RELABEL_OPTIONS)
    with tempfile.TemporaryDirectory() as out:
        names = [name for result in report.results.values()
                 for name in write_model_outputs(result, out)]
        names += write_report_files(report, out)
        return {name: (Path(out) / name).read_text(encoding="utf-8") for name in names}


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|-?inf|nan")


def _assert_same_up_to_rounding(a, b, rel):
    """Equal text around the numbers, and numbers equal or within rel."""
    assert NUMBER.split(a) == NUMBER.split(b)
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        assert x == y or math.isclose(float(x), float(y), rel_tol=rel, abs_tol=rel * 1e-3)


def _sorted_rows(text, rename):
    """A CSV's header and its rows with every coin label mapped by rename,
    sorted, one text line per row."""
    rows = [[rename.get(cell, cell) for cell in row] for row in csv.reader(io.StringIO(text))]
    return "\n".join("\x1f".join(row) for row in rows[:1] + sorted(rows[1:]))


@settings(max_examples=15, deadline=None)
@example(labels=["A", "B", "C", "X", "Y", "Z", "ZA", "ZB"])  # the same order
@example(labels=["ZB", "ZA", "Z", "Y", "X", "C", "B", "A"])  # reversed
@given(labels=st.lists(st.text("ABCXYZ,\"-_ ", min_size=1, max_size=4),
                       min_size=8, max_size=8, unique=True))
def test_renaming_coins_changes_no_run_output_but_the_labels(labels):
    base = _relabel_base()
    order = sorted(range(len(labels)), key=labels.__getitem__)
    columns = {}
    for name in _COLUMNS:  # u and r_btc, one value per date, stay as they are
        values = np.asarray(getattr(base, name))
        if values.ndim > 1:
            values = values[..., order, :]
        columns[name] = values
    renamed = Panel(coins=[labels[i] for i in order], dates=base.dates,
                    riskfree_mode=base.riskfree_mode, **columns)
    expected = _run_outputs(base)
    got = _run_outputs(renamed)
    assert sorted(got) == sorted(expected)
    back = {labels[i]: coin for i, coin in enumerate(base.coins)}
    # the same coin order sums every cross-section in the same order, so the
    # bytes agree; another order may move the last bits of a sum
    exact = order == sorted(order)
    for name, text in expected.items():
        if name.endswith(".csv"):
            want, have, rel = _sorted_rows(text, {}), _sorted_rows(got[name], back), 1e-9
        else:  # the summary and the charts, whose numbers are rounded
            want, have, rel = text, got[name], 1e-4
        if exact:
            assert have == want, name
        else:
            _assert_same_up_to_rounding(want, have, rel)
