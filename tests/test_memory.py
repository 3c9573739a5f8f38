"""Memory the panel reader, the panel build and the factor build may use,
and a module no command imports.

read_panel_csv reads every file twice in blocks of 256 rows: once for its
coin ids and dates, then block by block into the Panel's grid, so no table
of every row's numbers, and no array of every row's series values or
dates, is held beside the grid. Its traced peak is the grid, the sets of
coin ids and dates, and one block: about 1.09 times the Panel's array
bytes on a dense 200 x 365 panel, where one np.loadtxt table of the whole
file held beside the grid read 2.61 times and per-row series values and
dates 1.59 times; the bound is 1.5. A file whose blocks all go to the csv
reader and the row checks (every coin id quoted; each block is judged on
its own) peaks at about 2.0 times on a 60 x 200 panel, against 3.3 times
for the row parser that kept every row's numbers and a set of every
row's key; the bound there is 3. Finding the line of a byte that is not
UTF-8 decodes the file 64 KiB at a time, where decoding it whole held
two copies of it. A factor build reads the panel's cached caps, so a
second build on one panel takes no exponential at all.

build_panel puts every coin on one calendar, copies the kept coin-days
from it into the Panel's grid, freeing each calendar level as it is
copied, writes the z-scores into the grid's z layers and only then takes
the drops from its grid of each coin-day's fate. Its traced peak is the
grid and the calendar's returns and levels: about 2.4 times the Panel's
array bytes on a small raw set, where per-coin blocks scattered into the
grid beside the drop records took 2.8 times. Holding the joined coin-day
table, a list-to-array temporary and a second z grid besides lifted it to
about 6.3 times; the bound is 4. After the build, the Panel holds its
drops as three columns, 9 bytes a drop: about 1.16 times the Panel's
array bytes are still traced on that raw set, where a frozen record per
drop held 1.84 times; the bound is 1.25.

np.percentile reaches np.unique, which imports numpy.ma: 1.3 MB of
resident memory that no command needs. hashlib loads OpenSSL (_hashlib),
3.4 MB, so the package hashes with CPython's own _sha256 where the
interpreter has it; numpy.random loads OpenSSL too, so only the commands
that draw no random numbers, ingest and run, go without it.
"""

import datetime as dt
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coinfactors.factors import build_factor_set
from coinfactors.ingest import (
    _undecodable_line,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from coinfactors.panel import (
    _COLUMNS,
    CHARACTERISTIC_NAMES,
    Panel,
    build_panel,
    read_panel_csv,
    write_panel_csv,
)
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario

PEAK_PER_PANEL_BYTE = 1.5
ROW_PARSER_PEAK_PER_PANEL_BYTE = 3.0
BUILD_PEAK_PER_PANEL_BYTE = 4.0
BUILD_HELD_PER_PANEL_BYTE = 1.25


def _dense_panel(n_coins, n_dates, seed=0):
    """A full panel of normal draws, ln caps around 20, and one draw of each
    market-wide series per date."""
    rng = np.random.default_rng(seed)
    shape = (n_coins, n_dates)
    chars = (len(CHARACTERISTIC_NAMES),) + shape
    raw = rng.normal(size=chars)
    raw[0] += 20.0
    return Panel(
        [f"C{i:04d}" for i in range(n_coins)],
        [dt.date(2020, 1, 1) + dt.timedelta(days=j) for j in range(n_dates)],
        np.ones(shape, dtype=bool), rng.normal(size=shape), rng.normal(size=shape),
        rng.normal(size=chars), raw, rng.normal(size=n_dates), rng.normal(size=n_dates),
        "tbill",
    )


def _traced_read(path):
    """The panel read from path, and the peak of memory traced meanwhile."""
    tracemalloc.start()
    try:
        panel = read_panel_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return panel, peak


def _panel_bytes(panel):
    return sum(getattr(panel, name).nbytes for name in _COLUMNS)


def test_read_panel_csv_traced_peak_is_bounded_by_the_panel(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(_dense_panel(200, 365), path)  # 73,000 rows, 18 MB
    panel, peak = _traced_read(path)
    assert peak <= PEAK_PER_PANEL_BYTE * _panel_bytes(panel), (peak, _panel_bytes(panel))


def test_row_parser_traced_peak_is_bounded_by_the_panel(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(_dense_panel(60, 200), path)  # 12,000 rows
    header, *lines, end = path.read_bytes().split(b"\r\n")
    lines = [b'"' + line.replace(b",", b'",', 1) for line in lines]  # every block to csv
    path.write_bytes(b"\r\n".join([header, *lines, end]))
    panel, peak = _traced_read(path)
    assert panel.coins[0] == "C0000" and panel.mask.all()
    bound = ROW_PARSER_PEAK_PER_PANEL_BYTE * _panel_bytes(panel)
    assert peak <= bound, (peak, _panel_bytes(panel))


def test_finding_an_undecodable_line_holds_no_copy_of_the_file(tmp_path):
    path = tmp_path / "panel.csv"
    lines = [b"C0001,2020-01-01," + b"0.1234567890123," * 11 + b"0.5\r\n"] * 20_000
    lines[-3] = b"\xff" + lines[-3]  # 4 MB of text in, near its end
    path.write_bytes(b"".join(lines))
    tracemalloc.start()
    try:
        line = _undecodable_line(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert line == 19_998
    assert peak < 2**20, peak


def test_second_factor_build_takes_no_exponential(monkeypatch):
    panel = _dense_panel(40, 60)
    first = build_factor_set(panel, "ALL")
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    second = build_factor_set(panel, "FF3")
    assert calls == []
    assert second.values.tobytes() == first.values[:, :3].tobytes()


def _raw_set(directory, n_coins, n_days, seed=3):
    """build_panel's arguments for the raw files of a scenario-B run."""
    panel, truth = generate_synthetic(scenario("B", n_coins, n_days, seed=seed))
    emit_raw_files(panel, truth, directory)
    return (
        load_coin_dir(directory / "market"),
        parse_epu_csv(directory / "epu.csv"),
        parse_riskfree_csv(directory / "riskfree.csv"),
    )


@pytest.fixture(scope="module")
def traced_build(tmp_path_factory):
    """A build on the raw files of 30 coins x 400 days, the memory traced
    after it, and the traced peak during it."""
    inputs = _raw_set(tmp_path_factory.mktemp("build") / "raw", 30, 400)
    build_panel(*inputs)  # the first call's imports are not the build's
    tracemalloc.start()
    try:
        panel = build_panel(*inputs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert panel.dropped
    return panel, held, peak


def test_build_panel_traced_peak_is_bounded_by_the_panel(traced_build):
    panel, _, peak = traced_build
    bound = BUILD_PEAK_PER_PANEL_BYTE * _panel_bytes(panel)
    assert peak <= bound, (peak, _panel_bytes(panel))


def test_build_panel_holds_little_beside_the_panel(traced_build):
    panel, held, _ = traced_build
    bound = BUILD_HELD_PER_PANEL_BYTE * _panel_bytes(panel)
    assert held <= bound, (held, _panel_bytes(panel))


# Runs a command line (argv after the script's name), or with no arguments
# a synthetic scenario through run_model, then checks the modules loaded:
# no numpy.ma, and no OpenSSL in ingest or run where CPython's own sha256 is
# there to use. synth draws with numpy.random, which loads OpenSSL itself
# (through secrets and hmac).
_NO_NUMPY_MA = """
import importlib.util
import sys

if sys.argv[1:]:
    from coinfactors.cli import main

    try:
        main(sys.argv[1:])
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    from coinfactors.condbeta import BetaSpec
    from coinfactors.pipeline import ModelSpec, run_model
    from coinfactors.synth import generate_synthetic, scenario

    panel, truth = generate_synthetic(scenario("B", 24, 240, seed=4))
    run_model(panel, ModelSpec("capm-c", "CAPM", BetaSpec("conditional")))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
if sys.argv[1:2] in (["ingest"], ["run"]) and importlib.util.find_spec("_sha256"):
    assert "_hashlib" not in sys.modules, "_hashlib (OpenSSL) was imported"
"""


def _no_numpy_ma(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA, *argv], capture_output=True,
        encoding="utf-8", env={**os.environ, "PYTHONPATH": str(src)}, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.fixture(scope="module")
def command_configs(tmp_path_factory):
    """Configs of synth, ingest, run on raw files and run on a panel file,
    the inputs written here so that each command runs on its own."""
    root = tmp_path_factory.mktemp("commands")
    panel, truth = generate_synthetic(scenario("B", 24, 400, seed=5))
    emit_raw_files(panel, truth, root / "raw")
    write_panel_csv(panel, root / "panel.csv")
    data = {
        "market_dir": str(root / "raw" / "market"),
        "epu_file": str(root / "raw" / "epu.csv"),
        "riskfree_file": str(root / "raw" / "riskfree.csv"),
    }
    specs = [{"label": "capm-c", "factors": "CAPM", "beta": {"mode": "conditional"}}]
    docs = {
        "synth": {"synth": {"scenario": "B", "n_coins": 24, "n_days": 400,
                            "emit_raw": True}, "seed": 5},
        "ingest": {"data": data},
        "run_raw": {"data": data, "specs": specs},
        "run_panel": {"panel_file": str(root / "panel.csv"), "specs": specs},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({**doc, "output_dir": str(root / name)}), encoding="utf-8")
    return paths


@pytest.mark.parametrize("config", ["synth", "ingest", "run_raw", "run_panel"])
def test_command_does_not_import_numpy_ma(config, command_configs):
    command = config.split("_")[0]
    _no_numpy_ma(command, "--config", str(command_configs[config]))


def test_synthetic_run_model_does_not_import_numpy_ma():
    _no_numpy_ma()
