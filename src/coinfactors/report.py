"""Run outputs: comparison tables as CSV, a markdown summary, per-model
artifact files, cumulative-coefficient SVG charts, and the run manifest.

Everything here is a pure serialization of already-computed results.
comparison.md and the charts are rendered from the emitted CSV text alone,
at run and at report, so a re-render from disk is byte-identical to the
original. No timestamps, no environment-dependent values, UTF-8 whatever the
locale; floats are written with repr for exact round-trips and displayed
with %.6g in human-facing tables.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .condbeta import write_first_pass_params_csv, write_risk_adjusted_csv
from .errors import InvalidConfig
from .factors import write_factor_csv
from .ingest import read_csv_rows, write_csv_rows
from .panel import SHORT_CODES
from .pipeline import ComparisonReport, ModelResult, significant_anomaly_count

# Each comparison table, one entry per column in file order: the CSV column,
# its comparison.md heading (None: the summary leaves it out), and whether
# the summary shows the cell with %.6g.
COMPARISON_COLUMNS = (
    ("label", "label", False),
    ("factors", "factors", False),
    ("beta_mode", "beta", False),
    ("riskfree_mode", "riskfree", False),
    ("first_pass_avg_adj_r2", "first-pass adj R2", True),
    ("second_pass_avg_adj_r2", "second-pass adj R2", True),
    ("n_coins", "coins", False),
    ("n_coins_dropped", "dropped", False),
    ("n_dates", "dates", False),
    ("n_dates_skipped", "skipped", False),
    ("significant_anomalies", "significant", False),
)

ANOMALY_COLUMNS = (
    ("label", "label", False),
    ("anomaly", "anomaly", False),
    ("mean", "mean", True),
    ("fm_se", None, False),
    ("fm_t", "FM t", True),
    ("nw_se", None, False),
    ("nw_t", "NW t", True),
    ("nw_lags", "NW lag", False),
    ("daily_significant_share", "daily share", True),
    ("degenerate", "degenerate", False),
)

PAIR_COLUMNS = (
    ("factors", "factors", False),
    ("riskfree_mode", "riskfree", False),
    ("unconditional_label", "unconditional", False),
    ("conditional_label", "conditional", False),
    ("unconditional_sp_adj_r2", None, False),
    ("conditional_sp_adj_r2", None, False),
    ("delta_sp_adj_r2", "delta second-pass adj R2", True),
    ("unconditional_significant", "significant (uncond)", False),
    ("conditional_significant", "significant (cond)", False),
    ("significant_change", None, False),
    ("unconditional_coins", None, False),
    ("conditional_coins", None, False),
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


def comparison_rows(report: ComparisonReport) -> list[tuple]:
    """One row of COMPARISON_COLUMNS values per model, in label order."""
    return [
        (
            r.spec.label, r.spec.factors, r.spec.beta.mode, r.spec.riskfree_mode,
            r.first_pass_avg_adj_r2, r.second_pass_avg_adj_r2,
            len(r.fits), len(r.dropped_coins),
            len(r.cross_sections), len(r.skipped_dates),
            significant_anomaly_count(r, report.significance_z),
        )
        for r in report.results.values()
    ]


def anomaly_rows(report: ComparisonReport) -> list[tuple]:
    """One row of ANOMALY_COLUMNS values per anomaly premium of each model."""
    return [
        (
            label, c.name, c.mean, c.fm_se, c.fm_t, c.nw_se, c.nw_t,
            result.fm.nw_lags, c.daily_significant_share, c.degenerate,
        )
        for label, result in report.results.items()
        for c in result.anomaly_summaries()
    ]


def pair_rows(report: ComparisonReport) -> list[tuple]:
    """One row of PAIR_COLUMNS values per conditional-unconditional pair."""
    rows = []
    for u_label, c_label in report.pairs:
        uncond, cond = report.results[u_label], report.results[c_label]
        u_r2, c_r2 = uncond.second_pass_avg_adj_r2, cond.second_pass_avg_adj_r2
        u_sig = significant_anomaly_count(uncond, report.significance_z)
        c_sig = significant_anomaly_count(cond, report.significance_z)
        rows.append(
            (
                uncond.spec.factors, uncond.spec.riskfree_mode, u_label, c_label,
                u_r2, c_r2, c_r2 - u_r2,
                u_sig, c_sig, c_sig - u_sig,
                len(uncond.fits), len(cond.fits),
            )
        )
    return rows


# Each table's file, its comparison.md section, columns and row builder.
TABLES = (
    ("comparison.csv", "Models", COMPARISON_COLUMNS, comparison_rows),
    ("anomalies.csv", "Anomaly premia", ANOMALY_COLUMNS, anomaly_rows),
    ("pairs.csv", "Conditional vs unconditional", PAIR_COLUMNS, pair_rows),
)


def read_table_csv(path: Path, columns: tuple) -> list[list[str]]:
    """The cells of a comparison table as write_report_files wrote it.

    Raises InvalidConfig, naming the file, when it is missing, has any
    header but the table's, has a row with the wrong number of fields, or
    has a cell comparison.md rounds that is no number; read_csv_rows raises
    MalformedRow, naming the file and line, for text that is no UTF-8 CSV.
    """
    header = [name for name, _, _ in columns]
    with read_csv_rows(_existing(path)) as reader:
        rows = list(reader)
    if rows[:1] != [header]:
        found = rows[0] if rows else None
        raise InvalidConfig(f"{path} has header {found!r}, expected {header!r}")
    rounded = [i for i, (_, _, g) in enumerate(columns) if g]
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            for i in rounded:
                _g(row[i])
        except ValueError as exc:
            raise InvalidConfig(f"{path}: line {line}: {exc}") from None
    return rows[1:]


def _existing(path: Path) -> Path:
    """path, or InvalidConfig naming it when there is no such file."""
    if not path.exists():
        raise InvalidConfig(f"{path} is missing, run first")
    return path


def write_cross_section_csv(result: ModelResult, path: str | Path) -> None:
    """Daily second-pass coefficients: date,c0,c_<anomaly codes>,adj_r2."""
    codes = [f"c_{SHORT_CODES[a]}" for a in result.spec.anomalies]
    cross = result.cross_sections
    with write_csv_rows(path, ["date", "c0"] + codes + ["adj_r2"]) as write:
        write(
            [date.isoformat(), *map(repr, coefs), repr(adj_r2)]
            for date, coefs, adj_r2 in zip(
                cross.dates, cross.coefficients.tolist(), cross.adj_r2.tolist()
            )
        )


def _g(text: str) -> str:
    """Display form of a CSV numeric cell."""
    if text == "":
        return ""
    return format(float(text), ".6g")


def _md_section(title: str, columns: tuple, rows: list[list[str]]) -> list[str]:
    shown = [(i, heading, g) for i, (_, heading, g) in enumerate(columns) if heading]
    lines = ["", f"## {title}", ""]
    lines.append("| " + " | ".join(heading for _, heading, _ in shown) + " |")
    lines.append("|" + "|".join(" --- " for _ in shown) + "|")
    for row in rows:
        cells = (_g(row[i]) if g else row[i] for i, _, g in shown)
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def markdown_report(tables: Sequence[list[list[str]]], significance_z: float) -> str:
    """Human-readable summary of the comparison tables, from the CSV cells of
    each TABLES entry in turn. A table with no rows gets no section."""
    lines = ["# Model comparison", ""]
    lines.append(
        "A coefficient counts as significant when |t| exceeds "
        f"{significance_z:.6g} under Newey-West standard errors with lag "
        "L = floor(4 * (T / 100)^(2/9)); the FM column uses the plain "
        "Fama-MacBeth standard error."
    )
    for (_, title, columns, _), rows in zip(TABLES, tables):
        if rows:
            lines.extend(_md_section(title, columns, rows))
    lines.append("")
    return "\n".join(lines)


def render_cumulative_chart(
    csv_path: str | Path, svg_path: str | Path, title: str
) -> None:
    """SVG line chart of the running sums of each c_* column in an emitted
    cross-section CSV. Reads the file back rather than taking arrays, so the
    chart reflects exactly what was serialized. A row with the wrong number
    of fields, or a c_* cell that is no number or makes its running sum
    nan or infinite, raises InvalidConfig naming the file and line;
    read_csv_rows raises MalformedRow for text that is no UTF-8 CSV."""
    with read_csv_rows(csv_path) as reader:
        header = next(reader, [])
        numbered = [(reader.line_num, row) for row in reader if row]
    dates = [row[0] for _, row in numbered]
    at = {k: i for i, k in enumerate(header) if k.startswith("c_")} if numbered else {}
    series = {column: [] for column in at}
    for line, row in numbered:
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields")
            for column, points in series.items():
                cell = row[at[column]]
                total = (points[-1] if points else 0.0) + float(cell)
                if not math.isfinite(total):
                    raise ValueError(f"{column} {cell!r} makes its running sum non-finite")
                points.append(total)
        except ValueError as exc:
            raise InvalidConfig(f"{csv_path}: line {line}: {exc}") from None

    width, height = 800.0, 420.0
    left, right, top, bottom = 60.0, 20.0, 50.0, 40.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    values = [v for pts in series.values() for v in pts] + [0.0]
    lo, hi = min(values), max(values)
    if hi - lo < 1e-30:
        hi = lo + 1.0
    n = max(len(dates), 1)

    def x_at(i: int) -> float:
        if n == 1:
            return left + plot_w / 2.0
        return left + plot_w * i / (n - 1)

    def y_at(v: float) -> float:
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    out = io.StringIO()

    def text(x: float, y: str, body: str, size=11, fill="#444444", end=False) -> None:
        anchor = ' text-anchor="end"' if end else ""
        out.write(
            f'<text x="{x:.1f}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}">{body}</text>\n'
        )

    # escaped here: importing xml.sax.saxutils loads urllib.request (~7 MB)
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    out.write(f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>\n')
    text(left, "24", title, 16, "#222222")
    out.write(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="#444444" stroke-width="1"/>\n'
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" '
        f'x2="{left + plot_w:.1f}" y2="{top + plot_h:.1f}" '
        f'stroke="#444444" stroke-width="1"/>\n'
    )
    if lo < 0.0 < hi:
        zero_y = y_at(0.0)
        out.write(
            f'<line x1="{left:.1f}" y1="{zero_y:.2f}" x2="{left + plot_w:.1f}" '
            f'y2="{zero_y:.2f}" stroke="#cccccc" stroke-width="1" '
            'stroke-dasharray="4 3"/>\n'
        )
    text(left - 6, f"{y_at(hi) + 4:.2f}", f"{hi:.4g}", end=True)
    text(left - 6, f"{y_at(lo) + 4:.2f}", f"{lo:.4g}", end=True)
    if dates:
        text(left, f"{height - 14:.1f}", dates[0])
        text(left + plot_w, f"{height - 14:.1f}", dates[-1], end=True)
    for idx, (column, sums) in enumerate(series.items()):
        color = CHART_COLORS[idx % len(CHART_COLORS)]
        points = " ".join(f"{x_at(i):.2f},{y_at(v):.2f}" for i, v in enumerate(sums))
        out.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n'
        )
        text(left + plot_w - 110, f"{top + 14 * idx + 2:.1f}", column, 12, color)
    out.write("</svg>\n")
    Path(svg_path).write_text(out.getvalue(), encoding="utf-8")


# Each per-model file after its label's slug, and its writer.
MODEL_FILES = (
    ("_factors.csv", lambda r, path: write_factor_csv(r.factor_set, path)),
    ("_first_pass.csv", lambda r, path: write_first_pass_params_csv(r.fits, path)),
    ("_risk_adjusted.csv",
     lambda r, path: write_risk_adjusted_csv(r.fits, r.factor_set.dates, path)),
    ("_crosssection.csv", write_cross_section_csv),
)


def write_model_outputs(result: ModelResult, out_dir: str | Path) -> list[str]:
    """The per-model CSVs of MODEL_FILES, named by the slugified label.
    Returns the relative file names written."""
    base = slugify(result.spec.label)
    names = [base + suffix for suffix, _ in MODEL_FILES]
    for name, (_, write) in zip(names, MODEL_FILES):
        write(result, Path(out_dir) / name)
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
    """The comparison-level files of a finished run: the table CSVs, then
    comparison.md and the charts from them by rerender_report. Each model's
    files (write_model_outputs) must be in out_dir already: run writes them
    as each model is fitted. Labels are checked with check_labels first."""
    check_labels(report.results)
    out_dir = Path(out_dir)
    names = []
    for name, _, columns, build in TABLES:
        with write_csv_rows(out_dir / name, [column for column, _, _ in columns]) as write:
            write(
                [_cell(value) for _, value in zip(columns, values, strict=True)]
                for values in build(report)
            )
        names.append(name)
    return names + rerender_report(out_dir, report.significance_z)


def rerender_report(out_dir: str | Path, significance_z: float) -> list[str]:
    """Rebuild comparison.md and every cumulative chart from the CSVs already
    present in a run directory. Produces byte-identical files because the
    markdown and charts are functions of the CSV text alone. A missing
    table or cross-section CSV raises InvalidConfig naming it before any
    file is written."""
    out_dir = Path(out_dir)
    tables = [read_table_csv(out_dir / name, columns) for name, _, columns, _ in TABLES]
    labels = [row[0] for row in tables[0]]  # COMPARISON_COLUMNS starts with the label
    crosses = [_existing(out_dir / f"{slugify(label)}_crosssection.csv") for label in labels]
    markdown = markdown_report(tables, significance_z)
    (out_dir / "comparison.md").write_text(markdown, encoding="utf-8")
    names = ["comparison.md"]
    for label, cross in zip(labels, crosses):
        name = f"{slugify(label)}_cumulative.svg"
        render_cumulative_chart(cross, out_dir / name, f"{label}: cumulative premia")
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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
