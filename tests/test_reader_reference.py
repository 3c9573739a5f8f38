"""read_panel_csv and Panel.caps against the code they replaced
(tests/reference_reader.py).

The reader now reads every file twice in blocks of rows,
first for its distinct coin ids and dates, then block by block into the
Panel's grid; the oracle had a fast path and a row parser, and carried
every row's strings and numbers to one assembly. Written panel files,
then shuffled, thinned, given a repeated (coin, date), quoted coin ids or
bytes that its fast path declines, must give both the same Panel array
for array and byte for byte, or the same error type and text; a file is
checked row by row exactly where the oracle's fast path declines its text
with every line end made CRLF. The files of up to 20 rows are one block;
longer ones put a quoted id, a quoted line break, an irregular tail or two
errors around and across the block boundaries. The one
exception is a file whose u_lag or rbtc_lag differs across one date's
rows: the oracle's reader accepts it and the Panel it builds raises
InvalidConfig, where the reader rejects it with a MalformedRow. Panel.caps
must hold the bits the per-build cap computation gave.
"""

import csv
import datetime as dt
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_reader as ref
from coinfactors import panel as panel_module
from coinfactors.errors import InvalidConfig, MalformedRow
from coinfactors.ingest import _BLOCK_ROWS, read_csv_rows
from coinfactors.panel import (
    _COLUMNS,
    CHARACTERISTIC_NAMES,
    Panel,
    read_panel_csv,
    write_panel_csv,
)
from coinfactors.synth import generate_synthetic, scenario

D0 = dt.date(2020, 12, 28)
# plain ids give plain blocks; csv.writer quotes the others
IDS = st.sampled_from(["BTC", "ETH", "C001", "a b", "é", "a,b", 'q"t', "n\nl", ""])
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e308, -1e308, 0.1, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# exp overflows above about 709.78 and reaches 0.0 below about -745.13; the
# reader checks |size_raw| > 700 one value at a time
SIZES = st.one_of(
    st.sampled_from([700.0, -700.0, 700.0000000000001, -700.0000000000001,
                     709.782712893384, -708.4, -745.1, 0.0, -0.0, 15.0]),
    st.floats(-745.1, 709.78),
)
BAD_SIZES = ["709.7827128933841", "709.79", "-745.2", "-760.0"]
# what sends a block to the row checks, or is rejected there
IRREGULAR = ["LF", "blank", "size", "\x00", "\x1c", '"', "1_0", " 1.0", "nan", "1e999"]
SERIES_RULE = "the series holds one value per date"
SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


def _grid(draw, shape, values=VALUES):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)


@st.composite
def panels(draw, sizes=SIZES):
    """A Panel of up to 4 coins and 5 dates, every coin and date present,
    with one draw of u and r_btc per date."""
    coins = sorted(draw(st.lists(IDS, min_size=1, max_size=4, unique=True)))
    offsets = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5)))
    shape = (len(coins), len(offsets))
    mask = _grid(draw, shape, st.booleans())
    for i in range(shape[0]):  # every coin and every date needs a cell
        mask[i, draw(st.integers(0, shape[1] - 1))] = True
    for j in range(shape[1]):
        mask[draw(st.integers(0, shape[0] - 1)), j] = True
    chars = (len(CHARACTERISTIC_NAMES),) + shape
    raw = _grid(draw, chars)
    raw[0] = _grid(draw, shape, sizes)
    return Panel(
        coins, [D0 + dt.timedelta(days=k) for k in offsets], mask,
        _grid(draw, shape), _grid(draw, shape), _grid(draw, chars), raw,
        _grid(draw, shape[1:]), _grid(draw, shape[1:]),
        draw(st.sampled_from(["tbill", "btc"])),
    )


def _outcome(read, source, riskfree_mode):
    """The Panel a reader returns, as its fields with every array in bytes,
    or the type and text of what it raised."""
    try:
        panel = read(source, riskfree_mode)
    except Exception as exc:  # every failure must match too
        return type(exc), str(exc)
    arrays = [(name, getattr(panel, name)) for name in _COLUMNS]
    return (panel.coins, panel.dates, panel.riskfree_mode, len(panel.dropped),
            [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in arrays])


@st.composite
def panel_files(draw):
    """The text of a written panel file, its data lines shuffled and
    thinned, maybe with one line repeated and one irregular edit."""
    panel = draw(panels())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        write_panel_csv(panel, path)
        text = path.read_bytes().decode("utf-8")
    header, *lines = [line + "\r\n" for line in text.split("\r\n")[:-1]]
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):  # missing coin-days, maybe all of them
        keep = draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))
        lines = [line for line, kept in zip(lines, keep) if kept]
    if lines and draw(st.booleans()):  # a (coin_id, date) repeats
        lines.insert(draw(st.integers(0, len(lines))),
                     lines[draw(st.integers(0, len(lines) - 1))])
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(IRREGULAR))
        if edit == "LF":
            lines[k] = lines[k][:-2] + "\n"
        elif edit == "blank":
            lines.insert(k, "\r\n")
        elif len(edit) == 1:  # a character anywhere in the line
            at = draw(st.integers(0, len(lines[k]) - 2))
            lines[k] = lines[k][:at] + edit + lines[k][at:]
        else:  # a cell from the end, counted as a quoted id may hold commas
            cells = lines[k][:-2].split(",")
            if edit == "size":  # a size_raw whose exp is no market cap
                at, edit = -6, draw(st.sampled_from(BAD_SIZES))
            else:  # a number only float() takes, or neither
                at = draw(st.integers(-12, -1))
            cells[at] = edit
            lines[k] = ",".join(cells) + "\r\n"
    return panel.riskfree_mode, header + "".join(lines)


def _series_rule(outcome):
    """Whether an oracle outcome is its Panel's rejection of a u_lag or
    rbtc_lag that differs across one date's rows."""
    return outcome[0] is InvalidConfig and outcome[1].endswith(SERIES_RULE)


def _assert_agrees(new, old):
    if _series_rule(old):  # the one intended divergence
        assert new[0] is MalformedRow, new
    else:
        assert new == old


def _oracle_rows(path, riskfree_mode):
    """The oracle's row parser, which its fast path falls back on, over
    every row of the file at path."""
    with read_csv_rows(path) as rows:
        return ref._assemble_panel(*ref._read_panel_rows(rows), riskfree_mode)


@SETTINGS
@given(drawn=panel_files())
def test_read_panel_csv_equals_oracle(tmp_path, drawn):
    riskfree_mode, text = drawn
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    with mock.patch.object(panel_module, "_rows", wraps=panel_module._rows) as rows:
        new = _outcome(read_panel_csv, path, riskfree_mode)
    _assert_agrees(new, _outcome(ref.read_panel_csv, path, riskfree_mode))
    # and so does the oracle's row parser, on text its fast path takes too
    _assert_agrees(new, _outcome(_oracle_rows, path, riskfree_mode))
    # and a path is checked row by row exactly where the oracle's fast path
    # declines the same text with every line end made CRLF, unless it holds
    # no data row or breaks only the series rule
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\r\n", "\n").replace("\n", "\r\n")
                     .encode("utf-8", "surrogatepass"))
    try:
        declined = ref._read_panel_file(crlf, riskfree_mode) is None
    except InvalidConfig as exc:  # its Panel rejects the series before any repeat
        assert str(exc).endswith(SERIES_RULE)
        # every row passed the oracle's checks but a repeat, which the oracle's
        # row parser raises and the reader too, each before the series rule
        old = _outcome(_oracle_rows, path, riskfree_mode)
        declined = not _series_rule(old)
        assert new[0] is MalformedRow
        assert new[1].endswith(old[1] if declined else SERIES_RULE)
    empty = new == (MalformedRow, f"{path}: line 2: the file has a header but no data rows")
    assert rows.called == (declined and not empty)


@SETTINGS
@given(panel=panels(), data=st.data())
def test_read_panel_csv_rejects_what_the_oracle_panel_rejects(tmp_path, panel, data):
    """A written file with one u_lag or rbtc_lag cell redrawn: where the
    oracle's Panel rejects it, the reader raises a MalformedRow for the
    first row whose series bits differ from its date's first row; where
    another row on that date holds the same bits, or none, it reads the
    file."""
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    header, *rows = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
    k = data.draw(st.integers(0, len(rows) - 1))
    at = data.draw(st.sampled_from([-2, -1]))
    rows[k][at] = repr(data.draw(VALUES))
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header] + rows)
    path.write_text(out.getvalue(), encoding="utf-8", newline="")
    old = _outcome(ref.read_panel_csv, path, panel.riskfree_mode)
    first = {}
    odd = next((line for line, row in enumerate(rows, start=2)
                if first.setdefault(row[1], (line, row))[1][-2:] != row[-2:]), None)
    new = _outcome(read_panel_csv, path, panel.riskfree_mode)
    if odd is None:
        assert new == old
        return
    assert _series_rule(old)
    coin, date = rows[odd - 2][:2]
    line, row = first[date]
    assert new[0] is MalformedRow
    assert new[1].startswith(f"{path}: line {odd}: ")
    assert f" of {coin} on {date} differs from " in new[1]
    assert new[1].endswith(f" of {row[0]} on line {line}: {SERIES_RULE}")


def test_read_panel_csv_equals_oracle_on_a_written_synthetic_panel(tmp_path):
    panel = generate_synthetic(scenario("B", n_coins=12, n_days=200, seed=4))[0]
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    with mock.patch.object(panel_module, "_rows", wraps=panel_module._rows) as rows:
        new = _outcome(read_panel_csv, path, "tbill")
    assert not rows.called  # np.loadtxt parses every block
    assert new == _outcome(ref.read_panel_csv, path, "tbill")
    assert new == _outcome(lambda *_: panel, path, "tbill")


def _written_lines(tmp_path):
    """The header and the 897 data lines, CRLF ended, of a written scenario-B
    panel: four blocks of rows, the last one short."""
    panel = generate_synthetic(scenario("B", n_coins=3, n_days=300, seed=4))[0]
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    header, *lines = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    assert len(lines) == 897 and _BLOCK_ROWS == 256
    return header, lines


def _assert_reads_as_oracle(path, text):
    path.write_text(text, encoding="utf-8", newline="")
    new = _outcome(read_panel_csv, path, "tbill")
    assert new == _outcome(ref.read_panel_csv, path, "tbill")
    return new


@pytest.mark.parametrize("k", [0, 254, 255, 256, 257, 510, 511, 512, 896])
def test_read_panel_csv_reads_a_line_break_in_a_quoted_id_at_any_row(tmp_path, k):
    # the quoted id's record spans two lines of text, one of them maybe the
    # last line of a block of rows, and is a new coin's one observation
    header, lines = _written_lines(tmp_path)
    lines[k] = '"n\nl' + lines[k][lines[k].index(","):].replace(",", '",', 1)
    new = _assert_reads_as_oracle(tmp_path / "panel.csv", header + "".join(lines))
    assert "n\nl" in new[0]


def _checked_blocks(path, text):
    """The outcome of reading text from path, equal to the oracle's, and
    the line of the first row of each block that went to the row checks."""
    with mock.patch.object(panel_module, "_rows", wraps=panel_module._rows) as rows:
        new = _assert_reads_as_oracle(path, text)
    return new, [call.args[1] for call in rows.call_args_list]


@pytest.mark.parametrize("k", [0, 255, 256, 511, 896])
def test_read_panel_csv_checks_row_by_row_only_the_block_of_a_quoted_id(tmp_path, k):
    # each block is judged on its own: the blocks after a quoted id are plain
    header, lines = _written_lines(tmp_path)
    lines[k] = '"' + lines[k].replace(",", '",', 1)
    new, checked = _checked_blocks(tmp_path / "panel.csv", header + "".join(lines))
    assert len(new[0]) == 3
    assert checked == [2 + k // 256 * 256]


@pytest.mark.parametrize("tail", ["LF", "CR", "quoted"])
@pytest.mark.parametrize("k", [300, 512, 896])
def test_read_panel_csv_reads_plain_blocks_then_an_irregular_tail(tmp_path, tail, k):
    # np.loadtxt reads lines ended by LF or CR as it reads CRLF ones
    header, lines = _written_lines(tmp_path)
    if tail == "quoted":  # csv.writer would not quote these ids
        lines[k:] = ['"' + line.replace(",", '",', 1) for line in lines[k:]]
    else:
        lines[k:] = [line.replace("\r\n", "\n" if tail == "LF" else "\r") for line in lines[k:]]
    new, checked = _checked_blocks(tmp_path / "panel.csv", header + "".join(lines))
    assert len(new[0]) == 3
    assert checked == (list(range(2 + k // 256 * 256, 899, 256)) if tail == "quoted" else [])


@pytest.mark.parametrize("end", ["\r\n", "\n"])
@pytest.mark.parametrize("at", [0, 20])
def test_read_panel_csv_rejects_a_cr_inside_a_line_of_a_stream(tmp_path, end, at):
    # a file's lines end at CR, LF or CRLF, so no line holds a CR before its
    # end: a CR put before the coin id ends a blank line, and one put in a
    # number cuts its row in two, each read as the oracle reads it
    header, lines = _written_lines(tmp_path)
    lines = [line.replace("\r\n", end) for line in lines]
    for cr in ("\r", "\r\r"):
        spoiled = lines.copy()
        spoiled[300] = lines[300][:at] + cr + lines[300][at:]
        new = _assert_reads_as_oracle(tmp_path / "panel.csv", header + "".join(spoiled))
        if at == 0:
            assert len(new[0]) == 3
        else:
            assert new == (MalformedRow,
                           f"{tmp_path / 'panel.csv'}: line 302: 3 fields, expected 14")


def test_read_panel_csv_checks_a_block_of_13_commas_a_line_only_on_average(tmp_path):
    # two rows on one line and a blank line: 26 commas and none
    header, lines = _written_lines(tmp_path)
    lines[300] = lines[300].rstrip("\r\n") + lines[301]
    lines[301] = "\r\n"
    new = _assert_reads_as_oracle(tmp_path / "panel.csv", header + "".join(lines))
    assert new == (MalformedRow, f"{tmp_path / 'panel.csv'}: line 302: 27 fields, expected 14")


def test_read_panel_csv_raises_a_repeat_just_above_a_nul_in_one_block(tmp_path):
    header, lines = _written_lines(tmp_path)
    lines[300] = lines[299]
    lines[301] = lines[301].replace(",", ",\x00", 3)
    new = _assert_reads_as_oracle(tmp_path / "panel.csv", header + "".join(lines))
    coin, day = lines[300].split(",")[:2]
    assert new[1].endswith(f"line 302: duplicate observation of {coin} on {day}")


@pytest.mark.parametrize("bad, long", [(100, 600), (600, 100)])
def test_read_panel_csv_raises_the_first_of_a_bad_number_and_an_over_long_field(
    tmp_path, bad, long
):
    # the over-long field stops the csv reader; the bad number fails np.loadtxt
    # and then the row checks
    header, lines = _written_lines(tmp_path)
    for k, cell in ((bad, "x1.0"), (long, "9" * 200_000)):
        cells = lines[k].split(",")
        cells[4] = cell
        lines[k] = ",".join(cells)
    new = _assert_reads_as_oracle(tmp_path / "panel.csv", header + "".join(lines))
    expected = ("could not convert" if bad < long else "field larger than field limit")
    assert f"line {min(bad, long) + 2}: {expected}" in new[1]


def _old_caps(panel):
    """The caps grid build_factor_set made on every build."""
    caps = np.zeros(panel.mask.shape)
    caps[panel.mask] = ref._caps(panel.raw[0][panel.mask])
    return caps


def _caps_outcome(make):
    try:
        return make().tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@SETTINGS
@given(panel=panels(st.one_of(SIZES, st.sampled_from(list(map(float, BAD_SIZES))))),
       cells=st.integers(1, 7))
def test_panel_caps_equal_the_per_build_caps(panel, cells):
    with mock.patch.object(panel_module, "STACK_CELLS", cells):  # many chunks
        new = _caps_outcome(lambda: panel.caps)
    assert new == _caps_outcome(lambda: _old_caps(panel))


def test_panel_caps_are_read_only_and_computed_once():
    rng = np.random.default_rng(0)
    shape = (200, 200)  # 40,000 cells: two chunks of STACK_CELLS
    raw = rng.uniform(-700.0, 700.0, size=(len(CHARACTERISTIC_NAMES),) + shape)
    mask = rng.random(shape) < 0.9
    mask[:, 0] = mask[0] = True
    grid = np.zeros(shape)
    panel = Panel([f"C{i:03d}" for i in range(shape[0])],
                  [D0 + dt.timedelta(days=j) for j in range(shape[1])],
                  mask, grid, grid, raw, raw, grid, grid, "tbill")
    assert panel.mask.sum() > panel_module.STACK_CELLS
    caps = panel.caps
    assert caps.tobytes() == _old_caps(panel).tobytes()
    assert panel.caps is caps
    with pytest.raises(ValueError):
        caps[0, 0] = 1.0
