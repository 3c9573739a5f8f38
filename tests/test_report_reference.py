"""The column tables in report.py against the tabulation they replaced
(tests/reference_report.py): comparison.csv, anomalies.csv, pairs.csv and
comparison.md must be byte-identical, as written by a run and as rebuilt by
a re-render from the CSVs."""

import dataclasses

import pytest

import reference_report as ref
from coinfactors.condbeta import BetaSpec
from coinfactors.pipeline import (
    ComparisonReport,
    ModelSpec,
    PipelineOptions,
    compare_models,
)
from coinfactors.report import rerender_report, write_model_outputs, write_report_files

TABLE_FILES = ("comparison.csv", "anomalies.csv", "pairs.csv", "comparison.md")


def _spec(label, factors, mode, **kwargs):
    return ModelSpec(label=label, factors=factors, beta=BetaSpec(mode=mode), **kwargs)


def _by_mode(panel):
    return {panel.riskfree_mode: panel}


def _assert_matches_reference(report, tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    for result in report.results.values():
        write_model_outputs(result, new)
    write_report_files(report, new)
    ref.write_tables(report.results, report.significance_z, old)
    for name in TABLE_FILES:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
    (new / "comparison.md").unlink()
    rerender_report(new, report.significance_z)
    assert (new / "comparison.md").read_bytes() == (old / "comparison.md").read_bytes()


def test_several_pairs_per_menu(tmp_path, synth_b):
    specs = [
        _spec("capm-u", "CAPM", "unconditional"),
        _spec("capm-u2", "CAPM", "unconditional"),
        _spec("capm-c", "CAPM", "conditional"),
        _spec("capm-c2", "CAPM", "conditional"),
        _spec("ff3-u", "FF3", "unconditional", anomalies=("size", "momentum")),
        _spec("ff3-c", "FF3", "conditional", anomalies=("size", "momentum")),
        _spec("ff3-c3", "FF3", "conditional"),  # other anomalies: no partner
    ]
    report = compare_models(_by_mode(synth_b[0]), specs)
    assert len(report.pairs) == 5
    _assert_matches_reference(report, tmp_path)


def test_no_pairs(tmp_path, synth_b):
    report = compare_models(_by_mode(synth_b[0]), [_spec("capm-c", "CAPM", "conditional")])
    assert report.pairs == ()
    _assert_matches_reference(report, tmp_path)


def test_two_riskfree_modes(tmp_path, synth_a, synth_b):
    panels = {
        "tbill": synth_b[0],
        "btc": dataclasses.replace(synth_a[0], riskfree_mode="btc"),
    }
    specs = [
        _spec(f"capm-{mode[0]}-{rf}", "CAPM", mode, riskfree_mode=rf)
        for rf in ("tbill", "btc")
        for mode in ("unconditional", "conditional")
    ]
    report = compare_models(panels, specs)
    assert len(report.pairs) == 2
    _assert_matches_reference(report, tmp_path)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_degenerate_anomaly(tmp_path, synth_b, t):
    report = compare_models(
        _by_mode(synth_b[0]),
        [_spec("capm-u", "CAPM", "unconditional"), _spec("capm-c", "CAPM", "conditional")],
    )
    result = report.results["capm-c"]
    coefficients = list(result.fm.coefficients)
    coefficients[1] = dataclasses.replace(
        coefficients[1], fm_se=0.0, fm_t=t, nw_se=0.0, nw_t=t, degenerate=True
    )
    coefficients[2] = dataclasses.replace(coefficients[2], nw_t=50.0)
    fm = dataclasses.replace(result.fm, coefficients=tuple(coefficients))
    results = {**report.results, "capm-c": dataclasses.replace(result, fm=fm)}
    report = ComparisonReport(results, report.pairs, report.significance_z)
    _assert_matches_reference(report, tmp_path)


@pytest.mark.parametrize("z", [0.5, 2.576])
def test_non_default_significance_z(tmp_path, synth_b, z):
    specs = [_spec("capm-u", "CAPM", "unconditional"), _spec("capm-c", "CAPM", "conditional")]
    report = compare_models(_by_mode(synth_b[0]), specs, PipelineOptions(significance_z=z))
    assert report.significance_z == z
    _assert_matches_reference(report, tmp_path)
