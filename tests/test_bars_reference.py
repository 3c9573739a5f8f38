"""The bar-array ingest, returns and raw-file writer against the DailyBar
code they replaced (tests/reference_bars.py). Both sides do the same float
operations in the same order, so agreement is exact: equal bars and equal
reprs (which separate -0.0 from 0.0), equal file bytes, and the same error
type and message.
"""

import dataclasses
import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_bars as ref
from coinfactors.errors import CoinFactorsError, DuplicateDate, InvalidConfig
from coinfactors.ingest import (
    BAR_DTYPE,
    CoinSeries,
    UniverseConfig,
    filter_universe,
    parse_market_csv,
    write_market_csv,
)
from coinfactors.panel import CharacteristicWindows, _CoinView
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario

from conftest import D0, bar_series, make_series
from oracle_compare import assert_same


def _outcome(fn, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except CoinFactorsError as exc:
        return type(exc), str(exc)


def _rows(result):
    """An outcome with an array series turned into DailyBar rows."""
    return ref.rows_of(result) if isinstance(result, CoinSeries) else result


# cells that parse: zeros of both signs, subnormals, exponents, padding
NUMBERS = st.one_of(
    st.floats(1e-300, 1e15).map(repr),
    st.sampled_from(["0", "0.0", "-0.0", "5e-324", "1E3", " 7 ", "1_0", "+2.5"]),
)
# cells that fail one check or another, each with its own message
BAD_CELLS = st.sampled_from(["", "x", "nan", "inf", "-1", "-1e-300", "0x10"])
BAD_DATES = st.sampled_from(["2021-1-01", "20210101", "2021-02-30", "", " 2021-01-01"])


@st.composite
def market_text(draw):
    """A market CSV over gapped days, its rows shuffled, now and then with
    a repeated date, a blank line, a short row or a bad cell."""
    n = draw(st.integers(0, 25))
    offsets = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    if offsets and draw(st.booleans()):
        offsets.append(draw(st.sampled_from(offsets)))  # a repeated date
    rows = []
    for offset in offsets:
        volume = draw(st.one_of(NUMBERS, st.just("0")))
        cap = draw(st.one_of(NUMBERS, st.just("0.0")))
        date = (D0 + dt.timedelta(days=offset)).isoformat()
        rows.append([date, draw(NUMBERS), volume, cap])
    rows = draw(st.permutations(rows))
    if rows and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, 3))
        rows[k] = list(rows[k])
        rows[k][column] = draw(BAD_DATES if column == 0 else BAD_CELLS)
    lines = [",".join(row) for row in rows]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "1,2"])))
    return "date,close,volume,market_cap\n" + "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=market_text())
def test_parse_market_csv_matches_reference(text, tmp_path_factory):
    new = _rows(_outcome(parse_market_csv, io.StringIO(text), "C,1"))
    old = _outcome(ref.parse_market_csv, io.StringIO(text), "C,1")
    assert_same(new, old, "parsed series")
    assert new == old
    if isinstance(old, ref.CoinSeries):
        out = tmp_path_factory.mktemp("market")
        write_market_csv(ref.array_of(old), out / "new.csv")
        ref.write_market_csv(old, out / "old.csv")
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


@st.composite
def gapped_bars(draw, coin_id="X", max_bars=40):
    """Bars over gapped days with repeated closes, zero volume and zero or
    tied caps."""
    n = draw(st.integers(0, max_bars))
    days = sorted(draw(st.lists(st.integers(0, 3 * max_bars), min_size=n, max_size=n,
                                unique=True)))
    values = st.sampled_from([0.0, 1.0, 2.5, 1e9])
    return bar_series(coin_id, [
        (D0 + dt.timedelta(days=d), draw(values) + 0.5, draw(values), draw(values))
        for d in days
    ])


@settings(max_examples=200, deadline=None)
@given(
    coins=st.lists(st.sampled_from("ABCDEF"), unique=True, max_size=6).flatmap(
        lambda ids: st.tuples(*(gapped_bars(c) for c in ids))
    ),
    rank=st.integers(-5, 130),
    min_history_days=st.one_of(st.just(0), st.integers(0, 60)),
    top_n=st.integers(1, 7),
)
def test_filter_universe_matches_reference(coins, rank, min_history_days, top_n):
    # a rank_date before the first bar, between bars and past the last
    cfg = UniverseConfig(D0 + dt.timedelta(days=rank), top_n, min_history_days)
    new = _outcome(filter_universe, coins, cfg)
    old = _outcome(ref.filter_universe, [ref.rows_of(c) for c in coins], cfg)
    assert new == old


@settings(max_examples=200, deadline=None)
@given(series=gapped_bars(max_bars=60))
def test_grid_returns_match_reference(series):
    view = _CoinView(series, CharacteristicWindows())
    k = np.flatnonzero(~np.isnan(view.ret))
    new = [(dt.date.fromordinal(view.origin + j), r)
           for j, r in zip(k.tolist(), view.ret[k].tolist())]
    rows = ref.rows_of(series)
    old = list(ref.compute_returns(rows)) if len(rows.bars) >= 2 else []
    assert_same(new, old, "returns")


def _thinned(panel, rng, date_share, cell_share):
    """The panel without a share of its dates and of its remaining cells,
    every coin and date keeping at least one observation."""
    cols = np.flatnonzero(rng.random(len(panel.dates)) >= date_share)
    cols = cols if cols.size else np.arange(1)
    mask = panel.mask[:, cols] & (rng.random((len(panel.coins), cols.size)) >= cell_share)
    mask[rng.integers(0, len(panel.coins), cols.size), np.arange(cols.size)] = True
    mask[np.arange(len(panel.coins)), rng.integers(0, cols.size, len(panel.coins))] = True
    return dataclasses.replace(
        panel,
        dates=[panel.dates[j] for j in cols],
        **{name: getattr(panel, name)[..., cols] for name in
           ("ret", "excess", "z", "raw", "u", "r_btc")},
        mask=mask,
    )


def _dated(truth):
    """The truth with its lag-axis series as the {date: value} dicts the
    reference reads. Entry t of an array is the value on config.start + t
    days by definition, so a truth whose start was shifted puts the series
    on its own shifted calendar."""
    start = truth.config.start
    return dataclasses.replace(truth, **{
        name: {start + dt.timedelta(days=t): v for t, v in enumerate(getattr(truth, name).tolist())}
        for name in ("u", "r_btc")
    })


@pytest.fixture(scope="module")
def small_draw():
    return generate_synthetic(scenario("B", 4, 200, seed=11))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    date_share=st.sampled_from([0.0, 0.1, 0.6]),
    cell_share=st.sampled_from([0.0, 0.3, 0.9]),
    shift=st.integers(-3, 3),
)
def test_emit_raw_files_matches_reference(small_draw, tmp_path_factory, seed,
                                          date_share, cell_share, shift):
    panel, truth = small_draw
    gapped = _thinned(panel, np.random.default_rng(seed), date_share, cell_share)
    # a shifted calendar leaves some panel dates outside the emitted days
    config = dataclasses.replace(
        truth.config, start=truth.config.start + dt.timedelta(days=shift)
    )
    truth = dataclasses.replace(truth, config=config)
    out = tmp_path_factory.mktemp("raw")
    emit_raw_files(gapped, truth, out / "new")
    ref.emit_raw_files(gapped, _dated(truth), out / "old")
    names = sorted(p.relative_to(out / "old") for p in (out / "old").rglob("*.csv"))
    assert names == sorted(p.relative_to(out / "new") for p in (out / "new").rglob("*.csv"))
    for name in names:
        assert (out / "new" / name).read_bytes() == (out / "old" / name).read_bytes(), name


def test_emit_raw_files_matches_reference_on_full_panel(small_draw, tmp_path):
    panel, truth = small_draw
    # and once on a calendar shifted by 3 days, with C000 missing the
    # panel's fourth date: no C000 observation lags onto the first emitted
    # day, so that day takes the cap of C000's first observation, not of
    # the last one whose lag lies before the calendar
    mask = panel.mask.copy()
    mask[0, 3] = False
    gapped = dataclasses.replace(panel, mask=mask)
    start = truth.config.start + dt.timedelta(days=3)
    shifted = dataclasses.replace(truth, config=dataclasses.replace(truth.config, start=start))
    for case, (panel, truth) in {"full": small_draw, "shifted": (gapped, shifted)}.items():
        out = tmp_path / case
        emit_raw_files(panel, truth, out / "new")
        ref.emit_raw_files(panel, _dated(truth), out / "old")
        for path in sorted((out / "old").rglob("*.csv")):
            name = path.relative_to(out / "old")
            assert (out / "new" / name).read_bytes() == path.read_bytes(), (case, name)


@settings(max_examples=200, deadline=None)
@given(days=st.lists(st.integers(0, 20), max_size=8))
def test_coin_series_takes_only_strictly_increasing_days(days):
    bars = np.zeros(len(days), dtype=BAR_DTYPE)
    bars["day"] = D0.toordinal() + np.array(days, dtype=np.int64)
    step = np.diff(days)
    if (step < 0).any():
        with pytest.raises(InvalidConfig, match="Q: bars must ascend by day"):
            CoinSeries("Q", bars)
    elif (step == 0).any():
        repeat = D0 + dt.timedelta(days=days[int(np.flatnonzero(step == 0)[0])])
        with pytest.raises(DuplicateDate) as info:
            CoinSeries("Q", bars)
        assert str(info.value) == f"duplicate date {repeat.isoformat()} (Q)"
    else:
        assert CoinSeries("Q", bars).bars["day"].tolist() == bars["day"].tolist()


def test_coin_series_rejects_other_layouts_and_owns_its_bars():
    bars = make_series("Q", [1.0, 2.0, 3.0]).bars
    with pytest.raises(InvalidConfig, match="1-D BAR_DTYPE"):
        CoinSeries("Q", bars.reshape(1, 3))
    with pytest.raises(InvalidConfig, match="1-D BAR_DTYPE"):
        CoinSeries("Q", np.zeros((3, 4)))
    own = bars.copy()
    series = CoinSeries("Q", own)
    own["day"] = own["day"][::-1]  # the series keeps its own ascending copy
    assert series.bars["day"].tolist() == bars["day"].tolist()
    with pytest.raises(ValueError):
        series.bars["close"][0] = 9.0


def test_reversed_bars_are_refused():
    # build_panel once met such a series and died of a negative array size
    bars = make_series("REV", [1.0, 2.0, 3.0]).bars[::-1]
    with pytest.raises(InvalidConfig, match="REV: bars must ascend by day"):
        CoinSeries("REV", bars)
