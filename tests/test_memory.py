"""Memory the panel reader and the factor build may use.

read_panel_csv holds the loadtxt table and the Panel's grid at once, so its
traced peak cannot fall much below twice the Panel's array bytes. Per-row
coin and date strings, or per-row index lists, lifted it to about 3.8
times; the bound is 3. The row parser, which takes any irregular file,
keeps its numbers in one float array: as a list of float lists per row
they lifted its peak to about 8 times, and the bound there is 4. A factor
build reads the panel's cached caps, so a second build on one panel takes
no exponential at all.
"""

import datetime as dt
import math
import tracemalloc

import numpy as np

from coinfactors.factors import build_factor_set
from coinfactors.panel import (
    _COLUMNS,
    CHARACTERISTIC_NAMES,
    Panel,
    read_panel_csv,
    write_panel_csv,
)

PEAK_PER_PANEL_BYTE = 3.0
ROW_PARSER_PEAK_PER_PANEL_BYTE = 4.0


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
    write_panel_csv(_dense_panel(60, 100), path)  # 6,000 rows, 1.5 MB
    panel, peak = _traced_read(path)
    assert peak <= PEAK_PER_PANEL_BYTE * _panel_bytes(panel), (peak, _panel_bytes(panel))


def test_row_parser_traced_peak_is_bounded_by_the_panel(tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(_dense_panel(60, 200), path)  # 12,000 rows
    lines = path.read_bytes().split(b"\r\n")
    lines[1] = b'"' + lines[1].replace(b",", b'",', 1)  # a quote takes the row parser
    path.write_bytes(b"\r\n".join(lines))
    panel, peak = _traced_read(path)
    assert panel.coins[0] == "C0000" and panel.mask.all()
    bound = ROW_PARSER_PEAK_PER_PANEL_BYTE * _panel_bytes(panel)
    assert peak <= bound, (peak, _panel_bytes(panel))


def test_second_factor_build_takes_no_exponential(monkeypatch):
    panel = _dense_panel(40, 60)
    first = build_factor_set(panel, "ALL")
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    second = build_factor_set(panel, "FF3")
    assert calls == []
    assert second.values.tobytes() == first.values[:, :3].tobytes()
