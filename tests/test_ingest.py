import io

import pytest

from coinfactors.errors import (
    DuplicateDate,
    EmptyUniverse,
    MalformedRow,
    NegativeLevel,
    NonPositivePrice,
)
from coinfactors.ingest import (
    LEVEL_DTYPE,
    UniverseConfig,
    filter_universe,
    load_coin_dir,
    parse_epu_csv,
    parse_market_csv,
    parse_riskfree_csv,
    write_market_csv,
)

from conftest import D0, day, make_series

MARKET_TEXT = """date,close,volume,market_cap
2021-01-01,100.0,5000.0,1000000.0
2021-01-02,110.0,6000.0,1100000.0
2021-01-03,99.0,0.0,990000.0
"""


def test_parse_market_csv_basic():
    series = parse_market_csv(io.StringIO(MARKET_TEXT), "ABC")
    assert series.coin_id == "ABC"
    assert series.bars["day"].tolist() == [day(i).toordinal() for i in range(3)]
    assert series.bars["close"][1] == 110.0
    assert series.bars["volume"][2] == 0.0  # zero volume is data, not an error


def test_parse_market_csv_sorts_rows():
    shuffled = (
        "date,close,volume,market_cap\n"
        "2021-01-03,99.0,1.0,3.0\n"
        "2021-01-01,100.0,1.0,1.0\n"
        "2021-01-02,110.0,1.0,2.0\n"
    )
    series = parse_market_csv(io.StringIO(shuffled), "X")
    assert series.bars["market_cap"].tolist() == [1.0, 2.0, 3.0]


def test_parse_market_csv_rejects_bad_header():
    for text in ("date,close\n2021-01-01,1.0\n", ""):
        with pytest.raises(MalformedRow) as info:
            parse_market_csv(io.StringIO(text), "X")
        assert info.value.line == 1


def test_empty_input_asks_for_a_header(tmp_path):
    empty = "line 1: empty input, expected a header row"
    for parse in (lambda f: parse_market_csv(f, "X"), parse_epu_csv, parse_riskfree_csv):
        with pytest.raises(MalformedRow, match=f"^{empty}$"):
            parse(io.StringIO(""))
    (tmp_path / "X.csv").write_bytes(b"")
    with pytest.raises(MalformedRow) as info:
        load_coin_dir(tmp_path)
    assert str(info.value) == f"{tmp_path / 'X.csv'}: {empty}"


def test_parse_market_csv_rejects_extra_column():
    text = "date,close,volume,market_cap,extra\n2021-01-01,1.0,1.0,1.0,9\n"
    with pytest.raises(MalformedRow):
        parse_market_csv(io.StringIO(text), "X")


def test_parse_market_csv_duplicate_date():
    text = (
        "date,close,volume,market_cap\n"
        "2021-01-01,1.0,1.0,1.0\n"
        "2021-01-01,2.0,1.0,1.0\n"
    )
    with pytest.raises(DuplicateDate) as info:
        parse_market_csv(io.StringIO(text), "DUP")
    assert "DUP" in str(info.value)


def test_parse_market_csv_nonpositive_price():
    text = "date,close,volume,market_cap\n2021-01-01,0.0,1.0,1.0\n"
    with pytest.raises(NonPositivePrice):
        parse_market_csv(io.StringIO(text), "X")


def test_parse_market_csv_negative_volume_and_cap():
    for column in ("volume", "market_cap"):
        cells = {"close": "1.0", "volume": "1.0", "market_cap": "1.0"}
        cells[column] = "-1.0"
        text = (
            "date,close,volume,market_cap\n"
            f"2021-01-01,{cells['close']},{cells['volume']},{cells['market_cap']}\n"
        )
        with pytest.raises(MalformedRow):
            parse_market_csv(io.StringIO(text), "X")


def test_parse_market_csv_bad_number_reports_line():
    text = (
        "date,close,volume,market_cap\n"
        "2021-01-01,1.0,1.0,1.0\n"
        "2021-01-02,oops,1.0,1.0\n"
    )
    with pytest.raises(MalformedRow) as info:
        parse_market_csv(io.StringIO(text), "X")
    assert info.value.line == 3


# both parse on Python 3.11 and later, the second as 2020-01-01
NOT_YYYY_MM_DD = ["20200102", "2020-W01-3"]


@pytest.mark.parametrize("text", NOT_YYYY_MM_DD)
def test_parse_market_csv_rejects_other_iso_forms(text):
    rows = f"date,close,volume,market_cap\n2021-01-01,1.0,1.0,1.0\n{text},1.0,1.0,1.0\n"
    with pytest.raises(MalformedRow) as info:
        parse_market_csv(io.StringIO(rows), "X")
    assert info.value.line == 3
    assert f"bad date {text!r}" in str(info.value)


def test_market_csv_round_trip(tmp_path):
    series = make_series("RT", [100.0, 101.5, 99.25])
    path = tmp_path / "RT.csv"
    write_market_csv(series, path)
    again = parse_market_csv(path, "RT")
    assert again.coin_id == series.coin_id
    assert again.bars.tolist() == series.bars.tolist()
    # byte-stable rewrite
    first = path.read_bytes()
    write_market_csv(again, path)
    assert path.read_bytes() == first


def test_parse_epu_csv():
    text = "date,epu\n2021-01-02,120.5\n2021-01-01,100.25\n"
    levels = parse_epu_csv(io.StringIO(text))
    assert levels.dtype == LEVEL_DTYPE
    assert levels.tolist() == [(day(0).toordinal(), 100.25), (day(1).toordinal(), 120.5)]


def test_parse_epu_rejects_negative_level():
    with pytest.raises(NegativeLevel):
        parse_epu_csv(io.StringIO("date,epu\n2021-01-01,-5.0\n"))


def test_parse_epu_csv_names_a_character_cut_off_by_the_end_of_the_file(tmp_path):
    path = tmp_path / "epu.csv"
    path.write_bytes(b"date,epu\r\n2020-01-01,1.0\r\n2020-01-02,2.0\r\n\xc3")
    with pytest.raises(MalformedRow) as info:
        parse_epu_csv(path)
    assert str(info.value) == f"{path}: line 4: not UTF-8 text: unexpected end of data"


def test_parse_riskfree_allows_negative_rate():
    rates = parse_riskfree_csv(io.StringIO("date,rate\n2021-01-01,-0.001\n"))
    assert rates.tolist() == [(day(0).toordinal(), -0.001)]


def test_parse_riskfree_rejects_rate_at_or_below_minus_one():
    text = "date,rate\n2021-01-01,0.01\n2021-01-02,-1.5\n2021-01-03,-1\n"
    with pytest.raises(MalformedRow) as info:
        parse_riskfree_csv(io.StringIO(text))
    assert info.value.line == 3
    assert "must exceed -1" in str(info.value)
    with pytest.raises(MalformedRow) as info:
        parse_riskfree_csv(io.StringIO("date,rate\n2021-01-03,-1\n"))
    assert info.value.line == 2


def test_parse_riskfree_duplicate_date():
    text = "date,rate\n2021-01-01,0.01\n2021-01-01,0.02\n"
    with pytest.raises(DuplicateDate):
        parse_riskfree_csv(io.StringIO(text))


def _aged_series(coin_id, cap, n_days=400, start=D0):
    closes = [10.0] * n_days
    caps = [cap] * n_days
    return make_series(coin_id, closes, start=start, caps=caps)


def test_filter_universe_ranks_by_cap_desc():
    coins = [
        _aged_series("AAA", 100.0),
        _aged_series("BBB", 300.0),
        _aged_series("CCC", 200.0),
    ]
    cfg = UniverseConfig(rank_date=day(399), top_n=2, min_history_days=365)
    assert filter_universe(coins, cfg) == ("BBB", "CCC")


def test_filter_universe_ties_break_by_coin_id():
    coins = [_aged_series(c, 100.0) for c in ("ZZ", "AA", "MM")]
    cfg = UniverseConfig(rank_date=day(399), top_n=3, min_history_days=365)
    assert filter_universe(coins, cfg) == ("AA", "MM", "ZZ")


def test_filter_universe_age_requirement():
    young = _aged_series("YNG", 9999.0, n_days=100, start=day(300))
    old = _aged_series("OLD", 1.0)
    cfg = UniverseConfig(rank_date=day(399), top_n=10, min_history_days=365)
    assert filter_universe([young, old], cfg) == ("OLD",)


def test_filter_universe_cap_at_or_before_rank_date():
    # Last bar before the rank date carries the qualifying cap.
    caps = [100.0] * 399 + [5.0]
    fading = make_series("FAD", [10.0] * 400, caps=caps)
    steady = _aged_series("STD", 50.0)
    cfg = UniverseConfig(rank_date=day(398), top_n=1, min_history_days=365)
    assert filter_universe([fading, steady], cfg) == ("FAD",)
    cfg_after = UniverseConfig(rank_date=day(399), top_n=1, min_history_days=365)
    assert filter_universe([fading, steady], cfg_after) == ("STD",)


def test_filter_universe_empty_raises():
    young = _aged_series("YNG", 1.0, n_days=10)
    cfg = UniverseConfig(rank_date=day(9), top_n=5, min_history_days=365)
    with pytest.raises(EmptyUniverse):
        filter_universe([young], cfg)


def test_load_coin_dir(tmp_path):
    write_market_csv(make_series("AAA", [1.0, 2.0]), tmp_path / "AAA.csv")
    write_market_csv(make_series("BBB", [3.0, 4.0]), tmp_path / "BBB.csv")
    coins = load_coin_dir(tmp_path)
    assert [c.coin_id for c in coins] == ["AAA", "BBB"]
    (tmp_path / "EMPTY.csv").write_text("date,close,volume,market_cap\n", encoding="utf-8")
    empty = "EMPTY.csv: line 2: the file has a header but no data rows"
    with pytest.raises(MalformedRow, match=empty) as info:
        load_coin_dir(tmp_path)
    assert info.value.path == tmp_path / "EMPTY.csv"
    with pytest.raises(EmptyUniverse, match="no market CSV files"):
        load_coin_dir(tmp_path / "none")

