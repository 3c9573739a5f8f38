"""Run outputs: comparison tables as CSV, a markdown summary, per-model
artifact files, cumulative-coefficient SVG charts, and the run manifest.

Everything here is a pure serialization of already-computed results. Charts
are rendered from the emitted CSV text, never from in-memory arrays, so a
re-render from disk is byte-identical to the original. No timestamps, no
environment-dependent values; floats are written with repr for exact
round-trips and displayed with %.6g in human-facing tables.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .condbeta import write_first_pass_params_csv, write_risk_adjusted_csv
from .errors import InvalidConfig
from .factors import write_factor_csv
from .panel import SHORT_CODES
from .pipeline import ComparisonReport, ModelResult

COMPARISON_HEADER = (
    "label",
    "factors",
    "beta_mode",
    "riskfree_mode",
    "first_pass_avg_adj_r2",
    "second_pass_avg_adj_r2",
    "n_coins",
    "n_coins_dropped",
    "n_dates",
    "n_dates_skipped",
    "significant_anomalies",
)

ANOMALY_HEADER = (
    "label",
    "anomaly",
    "mean",
    "fm_se",
    "fm_t",
    "nw_se",
    "nw_t",
    "nw_lags",
    "daily_significant_share",
    "degenerate",
)

PAIR_HEADER = (
    "factors",
    "riskfree_mode",
    "unconditional_label",
    "conditional_label",
    "unconditional_sp_adj_r2",
    "conditional_sp_adj_r2",
    "delta_sp_adj_r2",
    "unconditional_significant",
    "conditional_significant",
    "significant_change",
    "unconditional_coins",
    "conditional_coins",
)

CHART_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def slugify(label: str) -> str:
    """Filesystem-safe lowercase identifier for a model label."""
    slug = re.sub(r"[^a-z0-9]+", "-", label.lower()).strip("-")
    if not slug:
        raise InvalidConfig(f"label {label!r} has no usable characters")
    return slug


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def comparison_rows(report: ComparisonReport) -> list[dict[str, str]]:
    return [
        {h: _cell(getattr(row, h)) for h in COMPARISON_HEADER} for row in report.rows
    ]


def anomaly_rows(report: ComparisonReport) -> list[dict[str, str]]:
    rows = []
    for row in report.rows:
        result = report.results[row.label]
        for summary in row.anomalies:
            rows.append(
                {
                    "label": row.label,
                    "anomaly": summary.name,
                    "mean": _cell(summary.mean),
                    "fm_se": _cell(summary.fm_se),
                    "fm_t": _cell(summary.fm_t),
                    "nw_se": _cell(summary.nw_se),
                    "nw_t": _cell(summary.nw_t),
                    "nw_lags": _cell(result.fm.nw_lags),
                    "daily_significant_share": _cell(
                        summary.daily_significant_share
                    ),
                    "degenerate": _cell(summary.degenerate),
                }
            )
    return rows


def pair_rows(report: ComparisonReport) -> list[dict[str, str]]:
    return [{h: _cell(getattr(pair, h)) for h in PAIR_HEADER} for pair in report.pairs]


def write_rows_csv(
    path: str | Path, header: Sequence[str], rows: Sequence[Mapping[str, str]]
) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[column] for column in header])


def read_rows_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return [dict(row) for row in reader]


def write_cross_section_csv(result: ModelResult, path: str | Path) -> None:
    """Daily second-pass coefficients: date,c0,c_<anomaly codes>,adj_r2."""
    codes = [f"c_{SHORT_CODES[a]}" for a in result.spec.anomalies]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "c0"] + codes + ["adj_r2"])
        for cs in result.cross_sections:
            row = [cs.date.isoformat(), repr(cs.c0)]
            row.extend(repr(float(v)) for v in cs.c)
            row.append(repr(cs.adj_r2))
            writer.writerow(row)


def _g(text: str) -> str:
    """Display form of a CSV numeric cell."""
    if text == "":
        return ""
    return format(float(text), ".6g")


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def markdown_report(
    comparison: Sequence[Mapping[str, str]],
    anomalies: Sequence[Mapping[str, str]],
    pairs: Sequence[Mapping[str, str]],
    significance_z: float,
) -> str:
    """Human-readable summary of the emitted comparison tables."""
    lines = ["# Model comparison", ""]
    lines.append(
        "A coefficient counts as significant when |t| exceeds "
        f"{significance_z:.6g} under Newey-West standard errors with lag "
        "L = floor(4 * (T / 100)^(2/9)); the FM column uses the plain "
        "Fama-MacBeth standard error."
    )
    lines.append("")
    lines.append("## Models")
    lines.append("")
    lines.extend(
        _md_table(
            (
                "label",
                "factors",
                "beta",
                "riskfree",
                "first-pass adj R2",
                "second-pass adj R2",
                "coins",
                "dropped",
                "dates",
                "skipped",
                "significant",
            ),
            [
                (
                    row["label"],
                    row["factors"],
                    row["beta_mode"],
                    row["riskfree_mode"],
                    _g(row["first_pass_avg_adj_r2"]),
                    _g(row["second_pass_avg_adj_r2"]),
                    row["n_coins"],
                    row["n_coins_dropped"],
                    row["n_dates"],
                    row["n_dates_skipped"],
                    row["significant_anomalies"],
                )
                for row in comparison
            ],
        )
    )
    lines.append("")
    lines.append("## Anomaly premia")
    lines.append("")
    lines.extend(
        _md_table(
            (
                "label",
                "anomaly",
                "mean",
                "FM t",
                "NW t",
                "NW lag",
                "daily share",
                "degenerate",
            ),
            [
                (
                    row["label"],
                    row["anomaly"],
                    _g(row["mean"]),
                    _g(row["fm_t"]),
                    _g(row["nw_t"]),
                    row["nw_lags"],
                    _g(row["daily_significant_share"]),
                    row["degenerate"],
                )
                for row in anomalies
            ],
        )
    )
    if pairs:
        lines.append("")
        lines.append("## Conditional vs unconditional")
        lines.append("")
        lines.extend(
            _md_table(
                (
                    "factors",
                    "riskfree",
                    "unconditional",
                    "conditional",
                    "delta second-pass adj R2",
                    "significant (uncond)",
                    "significant (cond)",
                ),
                [
                    (
                        row["factors"],
                        row["riskfree_mode"],
                        row["unconditional_label"],
                        row["conditional_label"],
                        _g(row["delta_sp_adj_r2"]),
                        row["unconditional_significant"],
                        row["conditional_significant"],
                    )
                    for row in pairs
                ],
            )
        )
    lines.append("")
    return "\n".join(lines)


def render_cumulative_chart(
    csv_path: str | Path, svg_path: str | Path, title: str
) -> None:
    """SVG line chart of the running sums of each c_* column in an emitted
    cross-section CSV. Reads the file back rather than taking arrays, so the
    chart reflects exactly what was serialized."""
    rows = read_rows_csv(csv_path)
    if rows:
        columns = [k for k in rows[0] if k.startswith("c_")]
    else:
        columns = []
    series = {}
    for column in columns:
        total = 0.0
        points = []
        for row in rows:
            total += float(row[column])
            points.append(total)
        series[column] = points

    width, height = 800.0, 420.0
    left, right, top, bottom = 60.0, 20.0, 50.0, 40.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    values = [v for pts in series.values() for v in pts] or [0.0]
    lo = min(values + [0.0])
    hi = max(values + [0.0])
    if hi - lo < 1e-30:
        hi = lo + 1.0
    n = max(len(rows), 1)

    def x_at(i: int) -> float:
        if n == 1:
            return left + plot_w / 2.0
        return left + plot_w * i / (n - 1)

    def y_at(v: float) -> float:
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    # escaped here: importing xml.sax.saxutils loads urllib.request (~7 MB)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    out.write(f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n')
    out.write(
        f'<text x="{left:.1f}" y="24" font-family="sans-serif" font-size="16" '
        f'fill="#222222">{title}</text>\n'
    )
    axis = (
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="#444444" stroke-width="1"/>\n'
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" '
        f'x2="{left + plot_w:.1f}" y2="{top + plot_h:.1f}" '
        f'stroke="#444444" stroke-width="1"/>\n'
    )
    out.write(axis)
    if lo < 0.0 < hi:
        zero_y = y_at(0.0)
        out.write(
            f'<line x1="{left:.1f}" y1="{zero_y:.2f}" x2="{left + plot_w:.1f}" '
            f'y2="{zero_y:.2f}" stroke="#cccccc" stroke-width="1" '
            'stroke-dasharray="4 3"/>\n'
        )
    out.write(
        f'<text x="{left - 6:.1f}" y="{y_at(hi) + 4:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#444444">{hi:.4g}</text>\n'
    )
    out.write(
        f'<text x="{left - 6:.1f}" y="{y_at(lo) + 4:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11" fill="#444444">{lo:.4g}</text>\n'
    )
    if rows:
        out.write(
            f'<text x="{left:.1f}" y="{height - 14:.1f}" '
            f'font-family="sans-serif" font-size="11" fill="#444444">'
            f'{rows[0]["date"]}</text>\n'
        )
        out.write(
            f'<text x="{left + plot_w:.1f}" y="{height - 14:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#444444">{rows[-1]["date"]}</text>\n'
        )
    for idx, column in enumerate(columns):
        color = CHART_COLORS[idx % len(CHART_COLORS)]
        points = " ".join(
            f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(series[column])
        )
        out.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n'
        )
        out.write(
            f'<text x="{left + plot_w - 110:.1f}" y="{top + 14 * idx + 2:.1f}" '
            f'font-family="sans-serif" font-size="12" fill="{color}">'
            f"{column}</text>\n"
        )
    out.write("</svg>\n")
    Path(svg_path).write_text(out.getvalue())


def write_model_outputs(result: ModelResult, out_dir: str | Path) -> list[str]:
    """Per-model artifact files, named by the slugified label. Returns the
    relative file names written, chart included."""
    out_dir = Path(out_dir)
    base = slugify(result.spec.label)
    names = []

    name = f"{base}_factors.csv"
    write_factor_csv(result.factor_set, out_dir / name)
    names.append(name)

    name = f"{base}_first_pass.csv"
    write_first_pass_params_csv(result.fits, out_dir / name)
    names.append(name)

    name = f"{base}_risk_adjusted.csv"
    write_risk_adjusted_csv(result.fits, result.factor_set.dates, out_dir / name)
    names.append(name)

    cross_name = f"{base}_crosssection.csv"
    write_cross_section_csv(result, out_dir / cross_name)
    names.append(cross_name)

    name = f"{base}_cumulative.svg"
    render_cumulative_chart(
        out_dir / cross_name, out_dir / name, f"{result.spec.label}: cumulative premia"
    )
    names.append(name)
    return names


def check_labels(labels: Iterable[str]) -> None:
    """Raise InvalidConfig unless every label slugifies, each to its own
    file prefix."""
    seen: dict[str, str] = {}
    for label in labels:
        base = slugify(label)
        if base in seen:
            raise InvalidConfig(
                f"labels {seen[base]!r} and {label!r} would both write "
                f"the files {base}_*"
            )
        seen[base] = label


def write_report_files(report: ComparisonReport, out_dir: str | Path) -> list[str]:
    """All comparison-level and per-model files for a finished run. Labels
    are checked with check_labels before any file is written."""
    check_labels(row.label for row in report.rows)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = comparison_rows(report)
    anomalies = anomaly_rows(report)
    pairs = pair_rows(report)

    write_rows_csv(out_dir / "comparison.csv", COMPARISON_HEADER, comparison)
    write_rows_csv(out_dir / "anomalies.csv", ANOMALY_HEADER, anomalies)
    write_rows_csv(out_dir / "pairs.csv", PAIR_HEADER, pairs)
    markdown = markdown_report(comparison, anomalies, pairs, report.significance_z)
    (out_dir / "comparison.md").write_text(markdown)
    names = ["comparison.csv", "anomalies.csv", "pairs.csv", "comparison.md"]

    for row in report.rows:
        names.extend(write_model_outputs(report.results[row.label], out_dir))
    return names


def rerender_report(out_dir: str | Path, significance_z: float) -> list[str]:
    """Rebuild comparison.md and every cumulative chart from the CSVs already
    present in a run directory. Produces byte-identical files because the
    markdown and charts are functions of the CSV text alone."""
    out_dir = Path(out_dir)
    for required in ("comparison.csv", "anomalies.csv", "pairs.csv"):
        if not (out_dir / required).exists():
            raise InvalidConfig(f"{out_dir / required} is missing, run first")
    comparison = read_rows_csv(out_dir / "comparison.csv")
    anomalies = read_rows_csv(out_dir / "anomalies.csv")
    pairs = read_rows_csv(out_dir / "pairs.csv")
    markdown = markdown_report(comparison, anomalies, pairs, significance_z)
    (out_dir / "comparison.md").write_text(markdown)
    names = ["comparison.md"]
    for row in comparison:
        base = slugify(row["label"])
        cross = out_dir / f"{base}_crosssection.csv"
        if cross.exists():
            name = f"{base}_cumulative.svg"
            render_cumulative_chart(
                cross, out_dir / name, f"{row['label']}: cumulative premia"
            )
            names.append(name)
    return names


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    path: str | Path,
    *,
    command: str,
    config: Mapping,
    inputs: Mapping[str, str],
    outputs: Sequence[str],
    seed: int | None,
    version: str,
) -> None:
    """Reproducibility record: the fully resolved configuration, sha256 of
    every input file, the output names, seed, and package version. No
    timestamps, keys sorted, so identical runs write identical manifests."""
    doc = {
        "command": command,
        "config": config,
        "inputs": dict(sorted(inputs.items())),
        "outputs": sorted(outputs),
        "seed": seed,
        "version": version,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
