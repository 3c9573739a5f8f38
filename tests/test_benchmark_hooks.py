"""The benchmark under perfbench/ reaches into the package by name: the
tracer wraps module attributes, and the Monte Carlo pass calls pipeline and
synth functions. The tracer skips a wrap target that is gone and its metrics
go absent, so a deletion that breaks a hook has to fail here instead."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the package names perfbench/mcpass.py uses
MCPASS_NAMES = (
    ("coinfactors.pipeline", "ModelSpec"),
    ("coinfactors.pipeline", "run_model"),
    ("coinfactors.pipeline", "compare_models"),
    ("coinfactors.pipeline", "significant_anomaly_count"),
    ("coinfactors.synth", "generate_synthetic"),
    ("coinfactors.synth", "scenario"),
    ("coinfactors.synth", "verify_recovery"),
    ("coinfactors.condbeta", "BetaSpec"),
)


def _unresolved(names):
    return [
        f"{module}.{attr}"
        for module, attr in names
        if not hasattr(importlib.import_module(module), attr)
    ]


def test_every_tracer_wrap_target_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    assert _unresolved((module, attr) for module, attr, _, _ in tracer.WRAPS) == []


def test_every_name_the_monte_carlo_pass_uses_resolves():
    assert _unresolved(MCPASS_NAMES) == []
