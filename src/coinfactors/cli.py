"""Command-line entry points.

Four subcommands share one JSON config: `ingest` builds the panel from raw
market files, `run` estimates every configured model and writes reports,
`synth` generates a simulated panel with its ground truth, and `report`
re-renders markdown and charts from a finished run directory.

Exit codes: 0 success, 2 validation (bad config, bad input data), 3 I/O
failure (a file that cannot be read or written), 4 estimation failure. All
file outputs are deterministic; status messages on stdout are informational
only.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import sys
from pathlib import Path

import click

from . import __version__
from .config import RunConfig, load_config, resolved_dict
from .errors import (
    EstimationError,
    InvalidConfig,
    ValidationError,
)
from .ingest import (
    filter_universe,
    load_coin_dir,
    parse_epu_csv,
    parse_riskfree_csv,
)
from .panel import Panel, build_panel, read_panel_csv, write_drop_report, write_panel_csv
from .pipeline import comparison_report, fit_models, significant_anomaly_count
from .report import (
    check_labels,
    rerender_report,
    sha256_file,
    write_manifest,
    write_model_outputs,
    write_report_files,
)
from .synth import emit_raw_files, generate_synthetic, scenario, write_truth_json

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ESTIMATION = 4


def _fail(code: int, exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(action) -> None:
    try:
        action()
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, exc)
    except EstimationError as exc:
        _fail(EXIT_ESTIMATION, exc)
    except OSError as exc:
        _fail(EXIT_IO, exc)


def _shared_options(fn):
    fn = click.option(
        "--config", "config_path", required=True, help="Path to the JSON config."
    )(fn)
    fn = click.option(
        "--output", "output", default=None, help="Output directory (overrides config)."
    )(fn)
    fn = click.option(
        "--seed",
        "seed",
        default=None,
        type=click.IntRange(min=0),
        help="Seed override (overrides config).",
    )(fn)
    return fn


def _load(config_path: str, output: str | None, seed: int | None) -> RunConfig:
    cfg = load_config(config_path)
    if output is not None:
        cfg = dataclasses.replace(cfg, output_dir=output)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    if cfg.output_dir is None:
        raise InvalidConfig("no output directory: set output_dir or pass --output")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(cfg: RunConfig, out: Path, command: str, inputs, outputs) -> None:
    write_manifest(
        out / "manifest.json",
        command=command,
        config=resolved_dict(cfg),
        inputs=inputs,
        outputs=outputs,
        seed=cfg.seed,
        version=__version__,
    )


def _raw_panels(cfg: RunConfig, modes: set[str]) -> tuple[dict[str, Panel], dict[str, str]]:
    """One panel per risk-free mode from the raw data, over the ranked
    universe plus the Bitcoin series, whatever its rank, since it drives the
    conditioning state; and the raw files' content digests."""
    if cfg.data is None:
        raise InvalidConfig("config has no data section")
    coins = load_coin_dir(cfg.data.market_dir)
    epu = parse_epu_csv(cfg.data.epu_file)
    riskfree = parse_riskfree_csv(cfg.data.riskfree_file)
    digests = {
        cfg.data.epu_file: sha256_file(cfg.data.epu_file),
        cfg.data.riskfree_file: sha256_file(cfg.data.riskfree_file),
    }
    market_dir = Path(cfg.data.market_dir)
    for file in sorted(market_dir.glob("*.csv")):
        digests[str(file)] = sha256_file(file)
    universe = cfg.universe
    if universe.rank_date is None:
        last = dt.date.fromordinal(max(int(series.bars["day"][-1]) for series in coins))
        universe = dataclasses.replace(universe, rank_date=last)
    keep = set(filter_universe(coins, universe)) | {cfg.panel.btc_id}
    selected = [series for series in coins if series.coin_id in keep]
    panels = {}
    for mode in sorted(modes):
        options = dataclasses.replace(cfg.panel, riskfree_mode=mode)
        panels[mode] = build_panel(selected, epu, riskfree, options)
    return panels, digests


def _build_panels(cfg: RunConfig, modes: set[str]):
    """One panel per risk-free mode, from a prebuilt panel file or raw data."""
    if cfg.panel_file is None:
        return _raw_panels(cfg, modes)
    mode = cfg.panel.riskfree_mode
    missing = modes - {mode}
    if missing:
        raise InvalidConfig(
            f"panel_file carries riskfree_mode {mode!r} but specs also "
            f"need {sorted(missing)}; provide raw data instead"
        )
    panel = read_panel_csv(cfg.panel_file, riskfree_mode=mode)
    return {mode: panel}, {cfg.panel_file: sha256_file(cfg.panel_file)}


@click.group()
@click.version_option(version=__version__, prog_name="coinfactors")
def main() -> None:
    """Two-pass factor pricing with state-dependent betas."""


@main.command("ingest")
@_shared_options
def cmd_ingest(config_path: str, output: str | None, seed: int | None) -> None:
    """Build the panel CSV and drop report from raw market files."""

    def action() -> None:
        cfg = _load(config_path, output, seed)
        out = _out_dir(cfg)
        panels, digests = _raw_panels(cfg, {cfg.panel.riskfree_mode})
        panel = panels[cfg.panel.riskfree_mode]
        write_panel_csv(panel, out / "panel.csv")
        write_drop_report(panel.dropped, out / "drops.csv")
        _write_manifest(cfg, out, "ingest", digests, ["panel.csv", "drops.csv"])
        click.echo(
            f"panel: {int(panel.mask.sum())} observations, "
            f"{len(panel.coins)} coins, {len(panel.dates)} dates, "
            f"{len(panel.dropped)} drops -> {out / 'panel.csv'}"
        )

    _guarded(action)


@main.command("run")
@_shared_options
def cmd_run(config_path: str, output: str | None, seed: int | None) -> None:
    """Estimate every configured model and write comparison reports."""

    def action() -> None:
        cfg = _load(config_path, output, seed)
        if not cfg.specs:
            raise InvalidConfig("run requires a non-empty specs list")
        check_labels(spec.label for spec in cfg.specs)
        out = _out_dir(cfg)
        modes = {spec.riskfree_mode for spec in cfg.specs}
        panels, digests = _build_panels(cfg, modes)
        names, results = [], {}
        for result in fit_models(panels, cfg.specs, cfg.pipeline):
            names += write_model_outputs(result, out)
            results[result.spec.label] = result.without_risk_adjusted()
            del result  # one model's R* rows at a time
        report = comparison_report(results, cfg.pipeline.significance_z)
        names = write_report_files(report, out) + names
        _write_manifest(cfg, out, "run", digests, names)  # last: marks a finished run
        for label, result in report.results.items():
            count = significant_anomaly_count(result, report.significance_z)
            click.echo(
                f"{label}: second-pass adj R2 "
                f"{result.second_pass_avg_adj_r2:.6g}, "
                f"{count} significant anomalies"
            )
        click.echo(f"wrote {len(names) + 1} files -> {out}")

    _guarded(action)


@main.command("synth")
@_shared_options
def cmd_synth(config_path: str, output: str | None, seed: int | None) -> None:
    """Generate a synthetic panel plus its ground-truth record."""

    def action() -> None:
        cfg = _load(config_path, output, seed)
        if cfg.synth is None:
            raise InvalidConfig("config has no synth section")
        if cfg.seed is None:
            raise InvalidConfig("synth requires a seed: set seed or pass --seed")
        out = _out_dir(cfg)
        synth_cfg = scenario(
            cfg.synth.scenario, cfg.synth.n_coins, cfg.synth.n_days, cfg.seed
        )
        panel, truth = generate_synthetic(synth_cfg)
        write_panel_csv(panel, out / "panel.csv")
        write_truth_json(truth, out / "truth.json")
        outputs = ["panel.csv", "truth.json"]
        if cfg.synth.emit_raw:
            raw_dir = out / "raw"
            emit_raw_files(panel, truth, raw_dir)
            outputs.extend(
                str(p.relative_to(out)) for p in sorted(raw_dir.rglob("*.csv"))
            )
        _write_manifest(cfg, out, "synth", {}, outputs)
        click.echo(
            f"scenario {cfg.synth.scenario}: {int(panel.mask.sum())} "
            f"observations, seed {cfg.seed} -> {out}"
        )

    _guarded(action)


@main.command("report")
@click.option(
    "--output",
    "output",
    required=True,
    help="Run directory holding comparison CSVs and manifest.json.",
)
def cmd_report(output: str) -> None:
    """Re-render markdown and charts from an existing run directory."""

    def action() -> None:
        out = Path(output)
        manifest_path = out / "manifest.json"
        if not manifest_path.exists():
            raise InvalidConfig(f"{manifest_path} is missing, run first")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            z = float(manifest["config"]["econometrics"]["significance_z"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise InvalidConfig(
                f"{manifest_path} does not look like a run manifest"
            ) from None
        names = rerender_report(out, z)
        click.echo(f"re-rendered {len(names)} files -> {out}")

    _guarded(action)


if __name__ == "__main__":
    main()
