"""Moving a raw data set along the calendar changes no output but its dates.

Every date of a scenario-B raw set (market files, EPU and risk-free series)
is shifted by a whole number of days; ingest and an FF3 unconditional and
conditional run on the shifted files then give, once their dates are
shifted back, the bytes of the unshifted flow. The parsers hand dates on as
day ordinals, so this holds only if no stage reads where in the calendar a
day falls: across leap days, year ends and any offset.
"""

import datetime as dt
import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coinfactors.cli import main
from coinfactors.synth import emit_raw_files, generate_synthetic, scenario

DATE = re.compile(rb"\d{4}-\d{2}-\d{2}")

SPECS = [
    {"label": "ff3-u", "factors": "FF3", "beta": {"mode": "unconditional"}},
    {"label": "ff3-c", "factors": "FF3", "beta": {"mode": "conditional"}},
]


def _shifted(data: bytes, days: int) -> bytes:
    """data with every YYYY-MM-DD date moved by days."""
    def move(match):
        date = dt.date.fromisoformat(match.group().decode())
        return (date + dt.timedelta(days=days)).isoformat().encode()

    return DATE.sub(move, data)


def _flow(raw, out) -> dict[str, bytes]:
    """Every file but the manifests that ingest and the FF3 run write from
    the raw files, by path below out."""
    data = {"market_dir": str(raw / "market"), "epu_file": str(raw / "epu.csv"),
            "riskfree_file": str(raw / "riskfree.csv")}
    steps = [
        ("ingest", {"data": data}),
        ("run", {"data": data, "specs": SPECS, "pipeline": {"floor_base": 5}}),
    ]
    for command, config in steps:
        path = out / f"{command}.json"
        path.write_text(json.dumps(dict(config, output_dir=str(out / command))))
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 0, result.output + result.stderr
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.parent != out and path.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def unshifted(tmp_path_factory):
    """The raw set of a 12-coin, 400-day scenario-B draw starting on
    2020-01-01, and the outputs of the flow on it."""
    work = tmp_path_factory.mktemp("unshifted")
    panel, truth = generate_synthetic(scenario("B", 12, 400, seed=3))
    emit_raw_files(panel, truth, work / "raw")
    out = work / "out"
    out.mkdir()
    return work / "raw", _flow(work / "raw", out)


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(days=st.integers(-5000, 5000))
@example(days=59)  # starts on 2020-02-29 and crosses a year end
@example(days=1150)  # 2023-02-24 to 2024-03-29, across 2024-02-29
@example(days=-366)  # 2018-12-31 to 2020-02-04, before any leap day
def test_outputs_do_not_depend_on_the_calendar(unshifted, tmp_path_factory, days):
    raw, expected = unshifted
    work = tmp_path_factory.mktemp("shifted")
    for path in sorted(raw.rglob("*.csv")):
        target = work / "raw" / path.relative_to(raw)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(_shifted(path.read_bytes(), days))
    out = work / "out"
    out.mkdir()
    got = _flow(work / "raw", out)
    assert days == 0 or got["ingest/panel.csv"] != expected["ingest/panel.csv"]
    assert {name: _shifted(data, -days) for name, data in got.items()} == expected
