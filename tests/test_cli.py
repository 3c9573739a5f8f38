"""End-to-end exercises of the command-line interface.

The flow test drives synth -> ingest -> run -> report through real files in a
temp directory; the rest pin exit codes and the override flags.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from click.testing import CliRunner

from coinfactors.cli import main
from coinfactors.panel import write_panel_csv
from coinfactors.synth import generate_synthetic, scenario


def _config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _capm_specs() -> list[dict]:
    return [
        {"label": "capm-u", "factors": "CAPM", "beta": {"mode": "unconditional"}},
        {"label": "capm-c", "factors": "CAPM", "beta": {"mode": "conditional"}},
    ]


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "coinfactors" in result.output


def test_synth_ingest_run_report_flow(tmp_path):
    runner = CliRunner()

    synth_dir = tmp_path / "synth"
    synth_cfg = _config(
        tmp_path / "synth.json",
        {
            "synth": {"scenario": "B", "n_coins": 25, "n_days": 480, "emit_raw": True},
            "seed": 11,
            "output_dir": str(synth_dir),
        },
    )
    result = runner.invoke(main, ["synth", "--config", synth_cfg])
    assert result.exit_code == 0, result.output + result.stderr
    assert "scenario B" in result.output and "seed 11" in result.output
    assert (synth_dir / "panel.csv").is_file()
    assert (synth_dir / "truth.json").is_file()
    assert (synth_dir / "raw" / "epu.csv").is_file()
    assert (synth_dir / "raw" / "riskfree.csv").is_file()
    market = sorted((synth_dir / "raw" / "market").glob("*.csv"))
    assert len(market) == 26  # 25 coins plus the BTC conditioning series
    assert (synth_dir / "raw" / "market" / "BTC.csv") in market

    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 11
    assert manifest["inputs"] == {}
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert "panel.csv" in manifest["outputs"] and "truth.json" in manifest["outputs"]
    assert manifest["config"]["synth"]["scenario"] == "B"
    assert "timestamp" not in manifest and "created" not in manifest

    ingest_dir = tmp_path / "ingest"
    ingest_cfg = _config(
        tmp_path / "ingest.json",
        {
            "data": {
                "market_dir": str(synth_dir / "raw" / "market"),
                "epu_file": str(synth_dir / "raw" / "epu.csv"),
                "riskfree_file": str(synth_dir / "raw" / "riskfree.csv"),
            },
            "output_dir": str(ingest_dir),
        },
    )
    result = runner.invoke(main, ["ingest", "--config", ingest_cfg])
    assert result.exit_code == 0, result.output + result.stderr
    assert "panel:" in result.output and "26 coins" in result.output
    assert (ingest_dir / "panel.csv").is_file()
    assert (ingest_dir / "drops.csv").is_file()
    manifest = json.loads((ingest_dir / "manifest.json").read_text())
    assert manifest["command"] == "ingest"
    names = {Path(key).name for key in manifest["inputs"]}
    assert names >= {"epu.csv", "riskfree.csv"}
    assert all(len(digest) == 64 for digest in manifest["inputs"].values())

    run_dir = tmp_path / "run"
    run_cfg = _config(
        tmp_path / "run.json",
        {
            "panel_file": str(ingest_dir / "panel.csv"),
            "specs": _capm_specs(),
            "output_dir": str(run_dir),
        },
    )
    result = runner.invoke(main, ["run", "--config", run_cfg])
    assert result.exit_code == 0, result.output + result.stderr
    assert "capm-u:" in result.output and "capm-c:" in result.output
    for name in ("comparison.csv", "anomalies.csv", "pairs.csv", "comparison.md"):
        assert (run_dir / name).is_file()
    for label in ("capm-u", "capm-c"):
        for suffix in ("factors", "first_pass", "risk_adjusted", "crosssection"):
            assert (run_dir / f"{label}_{suffix}.csv").is_file()
        assert (run_dir / f"{label}_cumulative.svg").is_file()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert {Path(key).name for key in manifest["inputs"]} == {"panel.csv"}
    assert manifest["config"]["econometrics"]["significance_z"] == 1.96

    before = _snapshot(run_dir)
    result = runner.invoke(main, ["run", "--config", run_cfg])
    assert result.exit_code == 0, result.output + result.stderr
    assert _snapshot(run_dir) == before  # byte-identical rerun

    result = runner.invoke(main, ["report", "--output", str(run_dir)])
    assert result.exit_code == 0, result.output + result.stderr
    assert "re-rendered" in result.output
    assert _snapshot(run_dir) == before  # re-render reproduces the same bytes


def test_synth_seed_and_output_overrides(tmp_path):
    runner = CliRunner()
    section = {"scenario": "A", "n_coins": 6, "n_days": 220, "emit_raw": False}

    plain_dir = tmp_path / "plain"
    plain_cfg = _config(
        tmp_path / "plain.json",
        {"synth": dict(section), "seed": 7, "output_dir": str(plain_dir)},
    )
    assert runner.invoke(main, ["synth", "--config", plain_cfg]).exit_code == 0

    ignored_dir = tmp_path / "ignored"
    override_dir = tmp_path / "override"
    override_cfg = _config(
        tmp_path / "override.json",
        {"synth": dict(section), "seed": 1, "output_dir": str(ignored_dir)},
    )
    result = CliRunner().invoke(
        main,
        [
            "synth",
            "--config",
            override_cfg,
            "--seed",
            "7",
            "--output",
            str(override_dir),
        ],
    )
    assert result.exit_code == 0, result.output + result.stderr
    assert not ignored_dir.exists()

    plain_panel = (plain_dir / "panel.csv").read_bytes()
    assert (override_dir / "panel.csv").read_bytes() == plain_panel
    manifest = json.loads((override_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_missing_config_file_is_validation_error(tmp_path):
    result = CliRunner().invoke(main, ["synth", "--config", str(tmp_path / "nope.json")])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_unknown_config_key_is_validation_error(tmp_path):
    cfg = _config(tmp_path / "cfg.json", {"bogus": 1, "output_dir": str(tmp_path / "o")})
    result = CliRunner().invoke(main, ["ingest", "--config", cfg])
    assert result.exit_code == 2
    assert "bogus" in result.stderr


def test_repeated_anomaly_is_validation_error(tmp_path):
    spec = {"label": "a", "factors": "CAPM", "beta": {"mode": "unconditional"},
            "anomalies": ["size", "size"]}
    cfg = _config(tmp_path / "cfg.json", {"specs": [spec], "output_dir": str(tmp_path / "o")})
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2
    assert "specs[0]: spec 'a': anomaly 'size' repeated" in result.stderr
    assert not (tmp_path / "o").exists()


def test_unknown_beta_characteristic_exits_2_at_config_load(tmp_path, monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("input read before the config was checked")

    monkeypatch.setattr("coinfactors.cli.read_panel_csv", no_read)
    panel_path = tmp_path / "panel.csv"
    panel_path.write_text("")
    spec = {"label": "c", "factors": "CAPM",
            "beta": {"mode": "conditional", "characteristics": ["sise"]}}
    cfg = _config(tmp_path / "cfg.json", {"panel_file": str(panel_path), "specs": [spec],
                                          "output_dir": str(tmp_path / "o")})
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2, result.output + result.stderr
    assert "specs[0].beta: unknown characteristic 'sise'" in result.stderr
    assert not (tmp_path / "o").exists()


def test_synth_requires_section_and_seed(tmp_path):
    out = str(tmp_path / "out")
    no_section = _config(tmp_path / "a.json", {"output_dir": out, "seed": 3})
    result = CliRunner().invoke(main, ["synth", "--config", no_section])
    assert result.exit_code == 2

    no_seed = _config(
        tmp_path / "b.json",
        {
            "synth": {"scenario": "A", "n_coins": 5, "n_days": 210},
            "output_dir": out,
        },
    )
    result = CliRunner().invoke(main, ["synth", "--config", no_seed])
    assert result.exit_code == 2
    assert "seed" in result.stderr


def test_run_requires_specs(tmp_path, synth_a):
    panel, _ = synth_a
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(panel, panel_path)
    cfg = _config(
        tmp_path / "cfg.json",
        {"panel_file": str(panel_path), "output_dir": str(tmp_path / "out")},
    )
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2
    assert "specs" in result.stderr


def test_run_rejects_riskfree_mode_mismatch_with_panel_file(tmp_path, synth_a):
    panel, _ = synth_a
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(panel, panel_path)
    spec = {
        "label": "capm-btc",
        "factors": "CAPM",
        "beta": {"mode": "unconditional"},
        "riskfree_mode": "btc",
    }
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "panel_file": str(panel_path),
            "specs": [spec],
            "output_dir": str(tmp_path / "out"),
        },
    )
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2
    assert "btc" in result.stderr


def test_run_estimation_failure_exits_4(tmp_path):
    panel, _ = generate_synthetic(scenario("A", n_coins=6, n_days=220, seed=3))
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(panel, panel_path)
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "panel_file": str(panel_path),
            "specs": _capm_specs()[:1],
            "pipeline": {"floor_base": 10000},
            "output_dir": str(tmp_path / "out"),
        },
    )
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 4
    assert "capm-u" in result.stderr


def test_unwritable_output_dir_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "synth": {"scenario": "A", "n_coins": 5, "n_days": 210},
            "seed": 2,
            "output_dir": str(blocker / "out"),
        },
    )
    result = CliRunner().invoke(main, ["synth", "--config", cfg])
    assert result.exit_code == 3


def test_report_requires_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = CliRunner().invoke(main, ["report", "--output", str(empty)])
    assert result.exit_code == 2
    assert "manifest" in result.stderr


def _raw_inputs(tmp_path: Path) -> tuple[Path, dict]:
    """Raw files of a small scenario-B draw and an ingest config over them."""
    synth_dir = tmp_path / "synth"
    synth_cfg = _config(
        tmp_path / "synth.json",
        {
            "synth": {"scenario": "B", "n_coins": 5, "n_days": 400, "emit_raw": True},
            "seed": 4,
            "output_dir": str(synth_dir),
        },
    )
    assert CliRunner().invoke(main, ["synth", "--config", synth_cfg]).exit_code == 0
    raw = synth_dir / "raw"
    doc = {
        "data": {
            "market_dir": str(raw / "market"),
            "epu_file": str(raw / "epu.csv"),
            "riskfree_file": str(raw / "riskfree.csv"),
        },
        "output_dir": str(tmp_path / "ingest"),
    }
    return raw, doc


def test_ingest_riskfree_rate_below_minus_one_exits_2(tmp_path):
    raw, doc = _raw_inputs(tmp_path)
    path = raw / "riskfree.csv"
    lines = path.read_text().splitlines()
    date = lines[100].split(",")[0]
    lines[100] = f"{date},-1.5"
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["ingest", "--config", _config(tmp_path / "i.json", doc)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "line 101" in result.stderr and "must exceed -1" in result.stderr


def test_ingest_epu_coverage_gap_exits_2(tmp_path):
    raw, doc = _raw_inputs(tmp_path)
    path = raw / "epu.csv"
    lines = path.read_text().splitlines()
    hole = lines[200:205]  # five consecutive days, beyond the 3-day fill limit
    path.write_text("\n".join(lines[:200] + lines[205:]) + "\n")
    result = CliRunner().invoke(main, ["ingest", "--config", _config(tmp_path / "i.json", doc)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "epu" in result.stderr
    # the first lag date past the fill limit, and the last value before the hole
    assert hole[3].split(",")[0] in result.stderr
    assert lines[199].split(",")[0] in result.stderr
    assert "ffill_limit_days" in result.stderr


@pytest.mark.parametrize("name, command", [
    ("epu.csv", "ingest"), ("riskfree.csv", "ingest"), ("epu.csv", "run"),
])
def test_header_only_conditioning_series_exits_2(tmp_path, name, command):
    # every coin-day drops for want of the series; ingest used to exit 0
    # with a header-only panel.csv, run to exit 4 at the factor stage
    raw, doc = _raw_inputs(tmp_path)
    path = raw / name
    path.write_text(path.read_text().splitlines()[0] + "\n")
    if command == "run":
        doc = dict(doc, specs=_capm_specs()[:1])
    result = CliRunner().invoke(main, [command, "--config", _config(tmp_path / "c.json", doc)])
    assert result.exit_code == 2, result.output + result.stderr
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "no coin-day survives the panel build" in result.stderr
    # the cause, not only the first drop, which is BTC's first return day
    reason = "no_epu" if name == "epu.csv" else "no_riskfree"
    assert f"most often {reason} (" in result.stderr
    assert not (tmp_path / "ingest" / "panel.csv").exists()


def test_run_header_only_panel_file_exits_2_naming_it(tmp_path):
    def keep_header(lines):
        del lines[1:]

    result = _panel_run(tmp_path, keep_header)
    assert result.exit_code == 2, result.output + result.stderr
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"{tmp_path / 'panel.csv'}: line 2:" in result.stderr
    assert "has a header but no data rows" in result.stderr


def _panel_run(tmp_path, edit):
    """Write a small synthetic panel.csv, let edit change its lines, and run
    one CAPM spec on it."""
    panel, _ = generate_synthetic(scenario("A", n_coins=6, n_days=220, seed=3))
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "panel_file": str(path),
            "specs": _capm_specs()[:1],
            "output_dir": str(tmp_path / "out"),
        },
    )
    return CliRunner().invoke(main, ["run", "--config", cfg])


def _set_size_raw(lines, index, value):
    cells = lines[index].split(",")
    cells[8] = value  # size_raw
    lines[index] = ",".join(cells)


def test_run_rejects_overflowing_size_raw_exits_2(tmp_path):
    # exp(1000) overflows, so the row has no market cap to weight by
    result = _panel_run(tmp_path, lambda lines: _set_size_raw(lines, 40, "1000.0"))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "line 41" in result.stderr and "size_raw" in result.stderr


def test_run_rejects_vanishing_size_raw_exits_2(tmp_path):
    # exp(-1000) is 0.0: with every coin of one date at zero cap, the
    # date's value weights would be 0/0
    def edit(lines):
        date = lines[50].split(",")[1]
        for i, line in enumerate(lines):
            if line.split(",")[1] == date:
                _set_size_raw(lines, i, "-1000.0")

    result = _panel_run(tmp_path, edit)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "line 51" in result.stderr and "size_raw" in result.stderr


def test_run_duplicate_panel_row_names_line_exits_2(tmp_path):
    result = _panel_run(tmp_path, lambda lines: lines.insert(31, lines[30]))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    coin, date = (tmp_path / "panel.csv").read_text().splitlines()[31].split(",")[:2]
    assert "line 32" in result.stderr
    assert coin in result.stderr and date in result.stderr


def _run_labels(tmp_path, panel, labels):
    """Run one unconditional CAPM spec per label on the panel."""
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(panel, panel_path)
    specs = [
        {"label": label, "factors": "CAPM", "beta": {"mode": "unconditional"}}
        for label in labels
    ]
    cfg = _config(
        tmp_path / "cfg.json",
        {"panel_file": str(panel_path), "specs": specs,
         "output_dir": str(tmp_path / "out")},
    )
    return CliRunner().invoke(main, ["run", "--config", cfg])


def test_run_rejects_labels_sharing_file_names_exits_2(tmp_path, synth_a):
    # both labels slugify to capm-u, so their files would overwrite each other
    result = _run_labels(tmp_path, synth_a[0], ["CAPM u", "capm-u"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "'CAPM u'" in result.stderr and "'capm-u'" in result.stderr
    assert not (tmp_path / "out").exists()


def test_run_rejects_label_without_usable_characters_before_writing(tmp_path, synth_a):
    result = _run_labels(tmp_path, synth_a[0], ["capm-u", "***"])
    assert result.exit_code == 2
    assert "'***'" in result.stderr
    assert not (tmp_path / "out").exists()


def test_chart_title_is_escaped_xml(tmp_path, synth_a):
    label = "a&b <c>"
    result = _run_labels(tmp_path, synth_a[0], [label])
    assert result.exit_code == 0, result.output + result.stderr
    svg = tmp_path / "out" / "a-b-c_cumulative.svg"
    written = svg.read_bytes()
    assert ElementTree.parse(svg).getroot()[1].text == f"{label}: cumulative premia"
    result = CliRunner().invoke(main, ["report", "--output", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output + result.stderr
    assert ElementTree.parse(svg).getroot()[1].text == f"{label}: cumulative premia"
    assert svg.read_bytes() == written


def test_non_object_config_section_exits_2(tmp_path):
    cfg = _config(tmp_path / "cfg.json", {"universe": 5, "output_dir": str(tmp_path / "o")})
    result = CliRunner().invoke(main, ["ingest", "--config", cfg])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "universe: expected an object" in result.stderr


def test_synth_negative_config_seed_exits_2(tmp_path):
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "synth": {"scenario": "A", "n_coins": 5, "n_days": 210},
            "seed": -1,
            "output_dir": str(tmp_path / "out"),
        },
    )
    result = CliRunner().invoke(main, ["synth", "--config", cfg])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "seed" in result.stderr
    assert not (tmp_path / "out").exists()


def test_ingest_out_of_range_settings_exit_2(tmp_path):
    _, doc = _raw_inputs(tmp_path)
    for key, section, word in [
        ("panel", {"winsor": [99, 1]}, "winsor"),
        ("panel", {"winsor": [-5, 150]}, "winsor"),
        ("universe", {"top_n": -5}, "top_n"),
        ("universe", {"top_n": 0}, "top_n"),
        ("panel", {"ffill_limit_days": -1}, "ffill_limit_days"),
        ("universe", {"min_history_days": -1}, "min_history_days"),
    ]:
        cfg = _config(tmp_path / "i.json", {**doc, key: section})
        result = CliRunner().invoke(main, ["ingest", "--config", cfg])
        assert result.exit_code == 2, (section, result.output)
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert word in result.stderr
    assert not (tmp_path / "ingest").exists()


def test_run_negative_nw_lags_exits_2_before_estimating(tmp_path, synth_a):
    panel, _ = synth_a
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(panel, panel_path)
    cfg = _config(
        tmp_path / "cfg.json",
        {
            "panel_file": str(panel_path),
            "specs": _capm_specs(),
            "econometrics": {"nw_lags": -1},
            "output_dir": str(tmp_path / "out"),
        },
    )
    result = CliRunner().invoke(main, ["run", "--config", cfg])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert "nw_lags" in result.stderr
    assert not (tmp_path / "out").exists()


def test_empty_market_dir_exits_2_naming_it(tmp_path):
    _, doc = _raw_inputs(tmp_path)
    empty = tmp_path / "no_coins"
    empty.mkdir()
    doc = {**doc, "data": {**doc["data"], "market_dir": str(empty)}}
    for command, extra in [("ingest", {}), ("run", {"specs": _capm_specs()})]:
        cfg = _config(tmp_path / "e.json", {**doc, **extra})
        result = CliRunner().invoke(main, [command, "--config", cfg])
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert str(empty) in result.stderr


def test_header_only_market_csv_exits_2_naming_it(tmp_path):
    raw, doc = _raw_inputs(tmp_path)
    header_only = raw / "market" / "EMPTY.csv"
    header_only.write_text("date,close,volume,market_cap\n")
    for command, extra in [("ingest", {}), ("run", {"specs": _capm_specs()})]:
        cfg = _config(tmp_path / "e.json", {**doc, **extra})
        result = CliRunner().invoke(main, [command, "--config", cfg])
        assert result.exit_code == 2, (command, result.output)
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert str(header_only) in result.stderr


def _spoil_line(path: Path, index: int, text: bytes) -> None:
    """Append text to line index (0-based) of a file."""
    lines = path.read_bytes().splitlines()
    lines[index] += text
    path.write_bytes(b"\n".join(lines) + b"\n")


# a byte that is not UTF-8, and a field over the csv module's 131072 limit
UNREADABLE = pytest.mark.parametrize(
    "text, word",
    [(b"\xff", "not UTF-8"), (b"1" * 200_000, "field larger than field limit")],
    ids=["not-utf8", "long-field"],
)


@UNREADABLE
@pytest.mark.parametrize("name", ["market/C001.csv", "epu.csv", "riskfree.csv"])
def test_ingest_unreadable_raw_csv_exits_2_naming_file(tmp_path, name, text, word):
    raw, doc = _raw_inputs(tmp_path)
    _spoil_line(raw / name, 30, text)
    cfg = _config(tmp_path / "i.json", doc)
    result = CliRunner().invoke(main, ["ingest", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"{raw / name}: line 31:" in result.stderr and word in result.stderr


@UNREADABLE
def test_run_unreadable_panel_file_exits_2_naming_it(tmp_path, text, word):
    _panel_run(tmp_path, lambda lines: None)
    _spoil_line(tmp_path / "panel.csv", 60, text)
    result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "cfg.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"{tmp_path / 'panel.csv'}: line 61:" in result.stderr
    assert word in result.stderr


@pytest.mark.parametrize(
    "row, message",
    [("{date},abc,1,1", "line 4: bad close 'abc'"),
     ("{date},0.0,1,1", "line 4: non-positive close on {date}")],
)
def test_market_csv_error_names_file_and_line(tmp_path, row, message):
    raw, doc = _raw_inputs(tmp_path)
    path = raw / "market" / "C001.csv"
    lines = path.read_text().splitlines()
    date = lines[3].split(",")[0]
    lines[3] = row.format(date=date)
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["ingest", "--config", _config(tmp_path / "i.json", doc)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"error: {path}: {message.format(date=date)}" in result.stderr


def _cut_columns(path: Path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(",".join(line.split(",")[:3]) for line in lines) + "\n")


@pytest.mark.parametrize(
    "name, spoil",
    [
        ("comparison.csv", _cut_columns),
        ("pairs.csv", lambda path: path.write_bytes(path.read_bytes() + b"\xff")),
        ("anomalies.csv", lambda path: path.write_text(
            path.read_text().splitlines()[0].replace("label", "lbl", 1) + "\n")),
        ("anomalies.csv", lambda path: path.write_text(
            path.read_text().replace(",false", "", 1))),
        ("comparison.csv", lambda path: path.write_text(
            path.read_text().replace("CAPM,", "CAPM,x", 1).replace(",0.", ",x", 1))),
        ("pairs.csv", lambda path: path.write_text('"\n')),
    ],
    ids=["three-columns", "not-utf8", "renamed-header", "short-row", "not-a-number",
         "open-quote"],
)
def test_report_rejects_spoiled_table_exits_2_naming_it(tmp_path, synth_a, name, spoil):
    result = _run_labels(tmp_path, synth_a[0], ["capm-u"])
    assert result.exit_code == 0, result.output + result.stderr
    run_dir = tmp_path / "out"
    before = (run_dir / "comparison.md").read_bytes()
    spoil(run_dir / name)
    result = CliRunner().invoke(main, ["report", "--output", str(run_dir)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert str(run_dir / name) in result.stderr
    assert (run_dir / "comparison.md").read_bytes() == before  # nothing rewritten


def _spoil_line_3(path: Path, spoil) -> None:
    lines = path.read_text().splitlines()
    lines[2] = spoil(lines[2])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda line: ",".join(
            "abc" if k == 2 else cell for k, cell in enumerate(line.split(","))),
         "could not convert string to float: 'abc'"),
        (lambda line: ",".join(line.split(",")[:2]), "expected {fields} fields"),
        (lambda line: ",".join(
            "nan" if k == 2 else cell for k, cell in enumerate(line.split(","))),
         "c_size 'nan' makes its running sum non-finite"),
        (lambda line: ",".join(
            "-inf" if k == 2 else cell for k, cell in enumerate(line.split(","))),
         "c_size '-inf' makes its running sum non-finite"),
    ],
    ids=["not-a-number", "short-row", "nan", "inf"],
)
def test_report_rejects_spoiled_cross_section_exits_2_naming_it(
    tmp_path, synth_a, spoil, message
):
    result = _run_labels(tmp_path, synth_a[0], ["capm-u"])
    assert result.exit_code == 0, result.output + result.stderr
    path = tmp_path / "out" / "capm-u_crosssection.csv"
    header = path.read_text().splitlines()[0].split(",")
    assert header[2] == "c_size"
    _spoil_line_3(path, spoil)
    result = CliRunner().invoke(main, ["report", "--output", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"{path} line 3: {message.format(fields=len(header))}" in result.stderr


@UNREADABLE
def test_report_rejects_unreadable_cross_section_exits_2_naming_it(
    tmp_path, synth_a, text, word
):
    result = _run_labels(tmp_path, synth_a[0], ["capm-u"])
    assert result.exit_code == 0, result.output + result.stderr
    path = tmp_path / "out" / "capm-u_crosssection.csv"
    _spoil_line(path, 300, text)
    result = CliRunner().invoke(main, ["report", "--output", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # handled, no traceback
    assert f"{path}: line 301:" in result.stderr and word in result.stderr


def test_report_rejects_cross_section_whose_running_sum_overflows(tmp_path, synth_a):
    result = _run_labels(tmp_path, synth_a[0], ["capm-u"])
    assert result.exit_code == 0, result.output + result.stderr
    path = tmp_path / "out" / "capm-u_crosssection.csv"
    lines = path.read_text().splitlines()
    for i in (1, 2):  # two finite cells whose sum overflows
        cells = lines[i].split(",")
        cells[2] = "1e308"
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    result = CliRunner().invoke(main, ["report", "--output", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"{path} line 3: c_size '1e308' makes its running sum non-finite" in (
        result.stderr)


def _posix_locale(utf8: bool, *args: str) -> subprocess.CompletedProcess:
    """Python in a subprocess under the POSIX locale, in UTF-8 mode or, with
    utf8 false, with ASCII as the preferred encoding."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-X", f"utf8={int(utf8)}", *args],
        env=env, capture_output=True, timeout=300,
    )


@pytest.mark.parametrize(
    "label, coin, slug", [("é-capm", "C000", "capm"), ("capm-u", "é000", "capm-u")],
    ids=["label", "coin-id"],
)
def test_run_outputs_do_not_depend_on_the_locale(tmp_path, synth_a, label, coin, slug):
    probe = _posix_locale(False, "-c", "import codecs, locale; "
                          "print(codecs.lookup(locale.getpreferredencoding(False)).name)")
    assert probe.stdout.strip() == b"ascii", probe
    panel_path = tmp_path / "panel.csv"
    write_panel_csv(synth_a[0], panel_path)
    text = panel_path.read_bytes().replace(b"\nC000,", b"\n" + coin.encode() + b",")
    panel_path.write_bytes(text)
    outputs = {}
    for utf8 in (False, True):
        out = tmp_path / f"utf8-{int(utf8)}"
        cfg = tmp_path / f"cfg-{int(utf8)}.json"
        cfg.write_bytes(json.dumps({  # the label as UTF-8 bytes, not a \u escape
            "panel_file": str(panel_path), "output_dir": str(out),
            "specs": [{"label": label, "factors": "CAPM",
                       "beta": {"mode": "unconditional"}}],
        }, ensure_ascii=False).encode())
        done = _posix_locale(utf8, "-m", "coinfactors.cli", "run", "--config", str(cfg))
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        outputs[utf8] = _snapshot(out)
        manifest = json.loads(outputs[utf8].pop("manifest.json"))
        assert manifest["config"].pop("output_dir") == str(out)
        outputs[utf8]["manifest.json"] = manifest
    assert outputs[False] == outputs[True]
    assert label.encode() in outputs[False]["comparison.csv"]
    assert b"\r\n" + coin.encode() + b"," in outputs[False][f"{slug}_first_pass.csv"]
    out = tmp_path / "utf8-0"
    before = _snapshot(out)
    done = _posix_locale(False, "-m", "coinfactors.cli", "report", "--output", str(out))
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    assert _snapshot(out) == before
