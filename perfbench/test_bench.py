"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {
    "estimate": run.Workload("small-estimate", "estimate", coins=30, days=200),
    "montecarlo": run.Workload("small-montecarlo", "montecarlo", coins=30, days=240),
    "ingest": run.Workload("small-ingest", "ingest", coins=8, days=420),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def references(work):
    return {kind: run.record_values(wl, [1], work) for kind, wl in SMALL.items()}


def test_compare_accepts_tiny_float_drift_and_flags_real_changes():
    reference = {"obs": 100, "r2": 0.25, "mean": -3.2e-5, "zero": 0.0}
    drifted = {"obs": 100, "r2": 0.25 * (1 + 1e-10), "mean": -3.2e-5 * (1 - 1e-10), "zero": 1e-15}
    assert run.compare(drifted, reference) == []
    assert run.compare({**reference, "r2": 0.25 * (1 + 1e-4)}, reference)
    assert run.compare({**reference, "obs": 101}, reference)
    assert run.compare({**reference, "obs": 100.0}, reference)
    assert run.compare({k: v for k, v in reference.items() if k != "mean"}, reference)
    assert run.compare({**reference, "extra": 1}, reference)


def test_compare_treats_nan_as_equal_only_to_nan():
    assert run.compare({"t": float("nan")}, {"t": float("nan")}) == []
    assert run.compare({"t": 1.0}, {"t": float("nan")})


def test_tree_digest_sees_one_byte(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.csv").write_bytes(b"x,1.0\n")
    before = run.tree_digest(tmp_path)
    (tmp_path / "sub" / "a.csv").write_bytes(b"x,1.1\n")
    assert run.tree_digest(tmp_path) != before


@pytest.mark.parametrize("kind", ["estimate", "montecarlo", "ingest"])
def test_small_run_is_correct_and_reports_end_to_end_metrics(kind, work, references):
    doc = run.run_workload(SMALL[kind], 1, 0.1, False, references[kind], work)
    result = doc["result"]
    assert result["correct"], doc["passes"]
    assert result["attempted"] >= run.MIN_PASSES and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_perturbed_reference_value_fails_every_pass(work, references):
    reference = {key: dict(values) for key, values in references["estimate"].items()}
    key = next(k for k, v in reference["1"].items() if isinstance(v, float) and v != 0.0)
    reference["1"][key] *= 1 + 1e-4
    doc = run.run_workload(SMALL["estimate"], 1, 0.1, False, reference, work)
    assert not doc["result"]["correct"]
    assert doc["result"]["failed"] == doc["result"]["attempted"]
    assert all(key in p["problems"][0] for p in doc["passes"])


def test_byte_change_between_passes_fails_the_pass(work, references):
    job = run.Job(SMALL["estimate"], 1, work / "bytes")
    job.write_configs()
    deadline = run.time.monotonic() + 120
    run.run_setup(job, 1, False, deadline)
    first, digest = run.run_pass(job, references["estimate"]["1"], None, False, deadline)
    assert not first.failed, first.problems
    again, _ = run.run_pass(job, references["estimate"]["1"], digest, False, deadline)
    assert not again.failed, again.problems
    changed, _ = run.run_pass(job, references["estimate"]["1"], "0" * 64, False, deadline)
    assert changed.problems == ["run directory differs byte for byte from the previous pass"]


def test_traced_run_reports_every_layer_metric(work, references):
    doc = run.run_workload(SMALL["estimate"], 1, 0.1, True, references["estimate"], work)
    metrics = doc["result"]["metrics"]
    assert doc["result"]["correct"], doc["passes"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert "panel.build_s" in doc["absent"] and metrics["panel.build_s"]["value"] == 0.0
    assert metrics["factors.builds"]["value"] == 6
    assert metrics["condbeta.first_pass_calls"]["value"] == 6 * 30
    assert metrics["pipeline.second_pass_s"]["value"] > 0
    assert doc["missing_wraps"] == []


def test_traced_ingest_puts_most_self_time_in_build_panel(work, references):
    doc = run.run_workload(SMALL["ingest"], 1, 0.1, True, references["ingest"], work)
    metrics = doc["result"]["metrics"]
    times = {k: m["value"] for k, m in metrics.items() if k in run.SELF_TIME_METRICS}
    assert max(times, key=times.get) == "panel.build_s"
    assert metrics["panel.observations"]["value"] > 0
    assert 0 < metrics["panel.yield"]["value"] < 1
    assert metrics["ingest.bars"]["value"] > 0
    assert "factors.build_s" in doc["absent"]


def test_missing_wrapped_function_gives_absent_metric_not_a_crash():
    fake = types.ModuleType("fake_layer")
    fake.build_panel = lambda: types.SimpleNamespace(observations=[1, 2], dropped=[])
    sys.modules["fake_layer"] = fake
    try:
        t = tracer.Tracer()
        t.install(
            [
                ("fake_layer", "build_panel", "panel.build", tracer.count_panel),
                ("fake_layer", "second_pass", "pipeline.second_pass", tracer.count_second_pass),
            ]
        )
        fake.build_panel()
    finally:
        del sys.modules["fake_layer"]
    doc = json.loads(json.dumps(t.document()))
    assert doc["missing"] == ["fake_layer.second_pass"]
    metrics = run.layer_metrics(doc["spans"], [], 1.0)
    assert metrics["panel.observations"] == 2
    assert metrics["pipeline.second_pass_s"] is None
    assert metrics["pipeline.date_yield"] is None


def test_counter_that_meets_an_unknown_result_leaves_its_counts_absent():
    t = tracer.Tracer()
    traced = t.wrap(lambda: object(), "panel.build", tracer.count_panel)
    traced()
    metrics = run.layer_metrics(t.document()["spans"], [], 1.0)
    assert metrics["panel.build_s"] is not None
    assert metrics["panel.observations"] is None
