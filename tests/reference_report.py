"""The comparison tabulation that the column tables in report.py replaced,
kept verbatim as the exact oracle for the files they write.

Each table's columns were stated here several times: as the fields of
ComparisonRow and PairRow, in _row_from_result and the pairing loop, in the
header tuples read back with getattr, and in the hand-written markdown
tables. write_tables takes the ModelResults that compare_models computed and
writes comparison.csv, anomalies.csv, pairs.csv and comparison.md the way
the old write_report_files did, so the new files must equal these byte for
byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from coinfactors.pipeline import ModelResult, significant_anomaly_count

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


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    factors: str
    beta_mode: str
    riskfree_mode: str
    first_pass_avg_adj_r2: float
    second_pass_avg_adj_r2: float
    n_coins: int
    n_coins_dropped: int
    n_dates: int
    n_dates_skipped: int
    significant_anomalies: int
    anomalies: tuple  # CoefficientSummary per anomaly, spec order


@dataclass(frozen=True)
class PairRow:
    """Conditional-vs-unconditional delta for one factor menu."""

    factors: str
    riskfree_mode: str
    unconditional_label: str
    conditional_label: str
    unconditional_sp_adj_r2: float
    conditional_sp_adj_r2: float
    delta_sp_adj_r2: float
    unconditional_significant: int
    conditional_significant: int
    significant_change: int
    unconditional_coins: int
    conditional_coins: int


def _row_from_result(result: ModelResult, significance_z: float) -> ComparisonRow:
    return ComparisonRow(
        label=result.spec.label,
        factors=result.spec.factors,
        beta_mode=result.spec.beta.mode,
        riskfree_mode=result.spec.riskfree_mode,
        first_pass_avg_adj_r2=result.first_pass_avg_adj_r2,
        second_pass_avg_adj_r2=result.second_pass_avg_adj_r2,
        n_coins=len(result.fits),
        n_coins_dropped=len(result.dropped_coins),
        n_dates=len(result.cross_sections),
        n_dates_skipped=len(result.skipped_dates),
        significant_anomalies=significant_anomaly_count(result, significance_z),
        anomalies=result.anomaly_summaries(),
    )


def tabulate(
    results: Mapping[str, ModelResult], significance_z: float
) -> tuple[tuple[ComparisonRow, ...], tuple[PairRow, ...]]:
    """The rows and pairs compare_models used to return."""
    rows = tuple(
        _row_from_result(results[label], significance_z)
        for label in sorted(results)
    )
    significant = {row.label: row.significant_anomalies for row in rows}

    groups: dict[tuple, dict[str, list[ModelResult]]] = {}
    for result in results.values():
        key = (result.spec.factors, result.spec.anomalies, result.spec.riskfree_mode)
        groups.setdefault(key, {}).setdefault(result.spec.beta.mode, []).append(result)
    pairs = []
    for key in sorted(groups, key=repr):
        modes = groups[key]
        for uncond in sorted(modes.get("unconditional", []), key=lambda r: r.spec.label):
            for cond in sorted(modes.get("conditional", []), key=lambda r: r.spec.label):
                u_sig = significant[uncond.spec.label]
                c_sig = significant[cond.spec.label]
                pairs.append(
                    PairRow(
                        factors=key[0],
                        riskfree_mode=key[2],
                        unconditional_label=uncond.spec.label,
                        conditional_label=cond.spec.label,
                        unconditional_sp_adj_r2=uncond.second_pass_avg_adj_r2,
                        conditional_sp_adj_r2=cond.second_pass_avg_adj_r2,
                        delta_sp_adj_r2=cond.second_pass_avg_adj_r2
                        - uncond.second_pass_avg_adj_r2,
                        unconditional_significant=u_sig,
                        conditional_significant=c_sig,
                        significant_change=c_sig - u_sig,
                        unconditional_coins=len(uncond.fits),
                        conditional_coins=len(cond.fits),
                    )
                )
    return rows, tuple(pairs)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def comparison_rows(rows: Sequence[ComparisonRow]) -> list[dict[str, str]]:
    return [{h: _cell(getattr(row, h)) for h in COMPARISON_HEADER} for row in rows]


def anomaly_rows(
    rows: Sequence[ComparisonRow], results: Mapping[str, ModelResult]
) -> list[dict[str, str]]:
    out = []
    for row in rows:
        result = results[row.label]
        for summary in row.anomalies:
            out.append(
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
    return out


def pair_rows(pairs: Sequence[PairRow]) -> list[dict[str, str]]:
    return [{h: _cell(getattr(pair, h)) for h in PAIR_HEADER} for pair in pairs]


def write_rows_csv(
    path: str | Path, header: Sequence[str], rows: Sequence[Mapping[str, str]]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[column] for column in header])


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


def write_tables(
    results: Mapping[str, ModelResult], significance_z: float, out_dir: str | Path
) -> None:
    """comparison.csv, anomalies.csv, pairs.csv and comparison.md as the old
    write_report_files wrote them."""
    out_dir = Path(out_dir)
    rows, pairs = tabulate(results, significance_z)
    comparison = comparison_rows(rows)
    anomalies = anomaly_rows(rows, results)
    pair_dicts = pair_rows(pairs)
    write_rows_csv(out_dir / "comparison.csv", COMPARISON_HEADER, comparison)
    write_rows_csv(out_dir / "anomalies.csv", ANOMALY_HEADER, anomalies)
    write_rows_csv(out_dir / "pairs.csv", PAIR_HEADER, pair_dicts)
    markdown = markdown_report(comparison, anomalies, pair_dicts, significance_z)
    (out_dir / "comparison.md").write_text(markdown, encoding="utf-8")
