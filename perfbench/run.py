#!/usr/bin/env python3
"""coinfactors benchmark.

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --workload estimate --record 0-23

Run from the repository root. Each workload makes its inputs from the seed
with the program's own `synth` command (set-up), then runs timed passes back
to back for up to --seconds, with a minimum of two. Every pass is its own child
process with PYTHONPATH=src and a fixed BLAS thread count, and is checked:
a pass fails on a nonzero exit, on an output that disagrees with the recorded
reference for its workload and seed, or on a run directory that is not
byte-identical to the previous pass's.

--trace 0 reports the end-to-end metrics (median over passes). --trace 1
alternates untraced passes with passes run under tracer.py and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. --record runs one pass per
listed seed and rewrites the workload's reference file instead.

See README.md in this directory for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"

# --seed s selects input family member s mod SEED_FAMILY; the reference files
# hold the expected outputs of every member. Seed 23 is held out: do not run
# it while tuning a change, run it once to confirm the claim.
SEED_FAMILY = 24

SETUP_REPEATS = 3
MIN_PASSES = 2
# One BLAS thread in every child: fixed, never above nproc, and a change that
# adds threads shows as cpu_s rising above wall_s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; no pass starts unless it can finish by this.
DEADLINE_S = 165.0

# Float outputs must agree with the reference to RTOL relative (ATOL absolute
# near zero). Rewrites planned to change values by at most 1e-10 relative
# stay well inside; a wrong number does not.
RTOL = 1e-6
ATOL = 1e-12

MENUS = ("CAPM", "FF3", "ALL")
MC_WARMUP_COINS, MC_WARMUP_DAYS = 30, 240


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # ingest | estimate | montecarlo
    coins: int
    days: int
    seeds_per_pass: int = 1  # montecarlo only


WORKLOADS = {
    # build_panel runs here and nowhere else (raw CSVs -> panel.csv).
    "ingest": Workload("ingest", "ingest", coins=30, days=730),
    # Wide, short panel read from panel.csv; six specs, reports written.
    "estimate": Workload("estimate", "estimate", coins=200, days=365),
    # Medium panels generated and estimated in memory, no file I/O.
    "montecarlo": Workload("montecarlo", "montecarlo", coins=50, days=730, seeds_per_pass=3),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Self time (span minus child spans) of each layer, in seconds.
SELF_TIME_METRICS = {
    "ingest.load_s": "ingest.load",
    "panel.build_s": "panel.build",
    "panel.csv_write_s": "panel.csv_write",
    "panel.csv_read_s": "panel.csv_read",
    "factors.build_s": "factors.build",
    "condbeta.first_pass_s": "condbeta.first_pass",
    "econometrics.ols_s": "econometrics.ols",
    "econometrics.fm_s": "econometrics.fm",
    "pipeline.second_pass_s": "pipeline.second_pass",
    "pipeline.run_model_self_s": "pipeline.run_model",
    "synth.generate_s": "synth.generate",
    "synth.emit_raw_s": "synth.emit_raw",
    "report.write_s": "report.write",
}
# Sums of a count the tracer took at one span name.
COUNT_METRICS = {
    "ingest.bars": ("ingest.load", "bars", "count"),
    "panel.observations": ("panel.build", "observations", "count"),
    "panel.drops": ("panel.build", "drops", "count"),
    "panel.csv_bytes": ("panel.csv_read", "bytes", "bytes"),
    "factors.dates": ("factors.build", "dates", "count"),
    "factors.dropped_dates": ("factors.build", "dropped_dates", "count"),
    "condbeta.params": ("condbeta.first_pass", "params", "count"),
    "econometrics.ols_rows": ("econometrics.ols", "rows", "count"),
    "pipeline.cross_sections": ("pipeline.second_pass", "cross_sections", "count"),
    "synth.observations": ("synth.generate", "observations", "count"),
    "report.files": ("report.write", "files", "count"),
    "report.bytes": ("report.write", "bytes", "bytes"),
}
# Number of spans (calls) of one name.
CALL_METRICS = {
    "factors.builds": "factors.build",
    "condbeta.first_pass_calls": "condbeta.first_pass",
    "econometrics.ols_calls": "econometrics.ols",
}
# Useful outcomes over attempts.
RATIO_METRICS = ("panel.yield", "condbeta.fit_yield", "pipeline.date_yield")
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: unit for name, (_, _, unit) in COUNT_METRICS.items()},
    **{name: "count" for name in CALL_METRICS},
    **{name: "ratio" for name in RATIO_METRICS},
    "condbeta.coins_fitted": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


# ---------------------------------------------------------------- children


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # bytecode is cached by the set-up and reused by every pass, whatever the
    # caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Run argv from the repository root and time it from start to exit.
    CPU time and peak RSS come from the child's own rusage. The child is
    killed at the deadline."""
    remaining = max(deadline - time.monotonic(), 1.0)
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=log.read_text(errors="replace")[-600:],
    )


def command(target: tuple[str, list[str]], spans: Path | None = None) -> list[str]:
    """The argv for a target: ("cli", args) is the coinfactors command line,
    ("mc", args) the Monte Carlo pass script. With spans, run it under the
    tracer, which writes its spans there."""
    kind, args = target
    if spans is not None:
        return [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans), kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "coinfactors.cli", *args]
    return [sys.executable, str(BENCH_DIR / "mcpass.py"), *args]


# ---------------------------------------------------------------- workloads


def mc_seeds(wl: Workload, data_seed: int) -> str:
    first = data_seed * wl.seeds_per_pass
    return ",".join(str(first + i) for i in range(wl.seeds_per_pass))


class Job:
    """The files of one workload on one seed, under its run directory."""

    def __init__(self, wl: Workload, data_seed: int, run_dir: Path):
        self.wl = wl
        self.data_seed = data_seed
        self.dir = run_dir
        self.inputs = run_dir / "inputs"
        self.out = run_dir / "out"

    def rel(self, path: Path) -> str:
        return os.path.relpath(path, ROOT)

    def write_configs(self) -> None:
        wl = self.wl
        self.dir.mkdir(parents=True, exist_ok=True)
        if wl.kind == "montecarlo":
            return
        synth = {
            "synth": {
                "scenario": "B",
                "n_coins": wl.coins,
                "n_days": wl.days,
                "emit_raw": wl.kind == "ingest",
            },
            "seed": self.data_seed,
            "output_dir": self.rel(self.inputs),
        }
        (self.dir / "synth.json").write_text(json.dumps(synth, indent=1))
        if wl.kind == "ingest":
            raw = self.inputs / "raw"
            config = {
                "data": {
                    "market_dir": self.rel(raw / "market"),
                    "epu_file": self.rel(raw / "epu.csv"),
                    "riskfree_file": self.rel(raw / "riskfree.csv"),
                },
                "output_dir": self.rel(self.out),
            }
        else:
            specs = [
                {"label": f"{menu.lower()}-{mode[0]}", "factors": menu, "beta": {"mode": mode}}
                for menu in MENUS
                for mode in ("unconditional", "conditional")
            ]
            config = {
                "panel_file": self.rel(self.inputs / "panel.csv"),
                "specs": specs,
                "output_dir": self.rel(self.out),
            }
        (self.dir / "pass.json").write_text(json.dumps(config, indent=1))

    def setup_target(self) -> tuple[str, list[str]]:
        """Input generation; for montecarlo, whose panels are generated in
        the pass, a small warm-up pass."""
        if self.wl.kind == "montecarlo":
            args = ["--seeds", str(self.data_seed * self.wl.seeds_per_pass),
                    "--coins", str(MC_WARMUP_COINS), "--days", str(MC_WARMUP_DAYS),
                    "--out", self.rel(self.inputs / "warmup.json")]
            return ("mc", args)
        return ("cli", ["synth", "--config", self.rel(self.dir / "synth.json")])

    def pass_target(self) -> tuple[str, list[str]]:
        if self.wl.kind == "montecarlo":
            args = ["--seeds", mc_seeds(self.wl, self.data_seed),
                    "--coins", str(self.wl.coins), "--days", str(self.wl.days),
                    "--out", self.rel(self.out / "summary.json")]
            return ("mc", args)
        sub = "ingest" if self.wl.kind == "ingest" else "run"
        return ("cli", [sub, "--config", self.rel(self.dir / "pass.json")])

    def input_digest(self) -> str:
        if self.wl.kind == "montecarlo":
            text = f"scenario B {self.wl.coins}x{self.wl.days} seeds {mc_seeds(self.wl, self.data_seed)}"
            return hashlib.sha256(text.encode()).hexdigest()
        if self.wl.kind == "ingest":
            return tree_digest(self.inputs / "raw")
        return hashlib.sha256((self.inputs / "panel.csv").read_bytes()).hexdigest()


def tree_digest(path: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


# ---------------------------------------------------------------- output check


def _signed_sums(values: list[float]) -> tuple[float, float]:
    """Sums of the positive and of the negative entries, so that neither
    cancels to near zero and a relative tolerance applies to both."""
    return (math.fsum(v for v in values if v > 0), math.fsum(v for v in values if v < 0))


def summarize_ingest(out: Path) -> dict:
    with open(out / "panel.csv", newline="") as handle:
        rows = csv.reader(handle)
        header = next(rows)
        columns = [[] for _ in header[2:]]
        coins, dates, n = set(), set(), 0
        for row in rows:
            n += 1
            coins.add(row[0])
            dates.add(row[1])
            for column, cell in zip(columns, row[2:]):
                column.append(float(cell))
    values = {"observations": n, "coins": len(coins), "dates": len(dates)}
    for name, column in zip(header[2:], columns):
        values[f"pos_sum.{name}"], values[f"neg_sum.{name}"] = _signed_sums(column)
    with open(out / "drops.csv", newline="") as handle:
        reasons = Counter(row["reason"] for row in csv.DictReader(handle))
    values["drops"] = sum(reasons.values())
    for reason, count in sorted(reasons.items()):
        values[f"drops.{reason}"] = count
    return values


def summarize_estimate(out: Path) -> dict:
    values = {}
    with open(out / "comparison.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            label = row["label"]
            for key in ("n_coins", "n_coins_dropped", "n_dates", "n_dates_skipped",
                        "significant_anomalies"):
                values[f"{label}.{key}"] = int(row[key])
            for key in ("first_pass_avg_adj_r2", "second_pass_avg_adj_r2"):
                values[f"{label}.{key}"] = float(row[key])
    with open(out / "anomalies.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            for key in ("mean", "fm_t", "nw_t"):
                values[f"{row['label']}.{row['anomaly']}.{key}"] = float(row[key])
    return values


def summarize(wl: Workload, out: Path) -> dict:
    if wl.kind == "ingest":
        return summarize_ingest(out)
    if wl.kind == "estimate":
        return summarize_estimate(out)
    return json.loads((out / "summary.json").read_text())


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def compare(values: dict, reference: dict, rtol: float = RTOL, atol: float = ATOL) -> list[str]:
    """Every difference between a pass's output summary and the reference:
    integers and labels must match exactly, floats within rtol/atol."""
    problems = []
    for key in sorted(set(reference) - set(values)):
        problems.append(f"{key}: missing (reference {reference[key]!r})")
    for key in sorted(set(values) - set(reference)):
        problems.append(f"{key}: not in reference (got {values[key]!r})")
    for key in sorted(set(values) & set(reference)):
        got, want = values[key], reference[key]
        if isinstance(want, float) and isinstance(got, (int, float)):
            ok = _close(float(got), want, rtol, atol)
        else:
            ok = type(got) is type(want) and got == want
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def reference_path(wl: Workload) -> Path:
    return REFERENCE_DIR / f"{wl.name}.json"


def load_reference(wl: Workload) -> dict:
    """Expected output summaries of wl, by data seed. Empty when the file is
    missing or was recorded for other workload settings."""
    path = reference_path(wl)
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    if doc.get("workload") != dataclasses.asdict(wl):
        return {}
    return doc["seeds"]


# ---------------------------------------------------------------- traces


def self_times(spans: list[dict]) -> dict[int, float]:
    child_total = Counter()
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - child_total[s["id"]] for s in spans}


def layer_metrics(pass_spans: list[dict], setup_spans: list[dict], pass_wall: float) -> dict:
    """Per-layer metrics of one traced pass; None marks a metric whose layer
    did not run or whose count the tracer could not take. synth.* also counts
    the traced set-up, where the inputs are generated."""
    own = self_times(pass_spans)
    setup_own = self_times(setup_spans)
    spans = [(s, own[s["id"]]) for s in pass_spans] + [
        (s, setup_own[s["id"]]) for s in setup_spans if s["name"].startswith("synth.")
    ]

    def of(name):
        return [(s, t) for s, t in spans if s["name"] == name]

    def count_sum(name, key):
        # spans of a function without a counter, or that raised, carry no
        # counts; a counter that failed on the result leaves count_error
        counted = [s for s, _ in of(name) if "counts" in s or "count_error" in s]
        if not counted or any(key not in s.get("counts", {}) for s in counted):
            return None
        return sum(s["counts"][key] for s in counted)

    def ratio(num, den):
        return num / den if num is not None and den else None

    metrics = {}
    for metric, name in SELF_TIME_METRICS.items():
        matched = of(name)
        metrics[metric] = sum(t for _, t in matched) if matched else None
    for metric, (name, key, _) in COUNT_METRICS.items():
        metrics[metric] = count_sum(name, key)
    for metric, name in CALL_METRICS.items():
        metrics[metric] = len(of(name)) or None
    # the tracer marks a call that raised (a dropped coin) with "error"
    fits = of("condbeta.first_pass")
    fitted = sum(1 for s, _ in fits if "error" not in s)
    metrics["condbeta.coins_fitted"] = fitted if fits else None
    metrics["condbeta.fit_yield"] = ratio(fitted, len(fits))
    metrics["panel.yield"] = ratio(
        count_sum("panel.build", "observations"), count_sum("panel.build", "candidates")
    )
    sections = count_sum("pipeline.second_pass", "cross_sections")
    skipped = count_sum("pipeline.second_pass", "skipped")
    metrics["pipeline.date_yield"] = ratio(
        sections, None if sections is None or skipped is None else sections + skipped
    )
    roots = sum(s["end"] - s["start"] for s in pass_spans if s["parent"] is None)
    metrics["cli.self_s"] = pass_wall - roots
    return metrics


# ---------------------------------------------------------------- one run


@dataclass
class Pass:
    traced: bool
    child: Child
    problems: list[str]
    layers: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_setup(job: Job, repeats: int, traced: bool, deadline: float) -> tuple[list[float], list[dict], str]:
    """Generate the inputs `repeats` times; returns the set-up times, the
    spans of a traced set-up, and the input digest. Inputs must come out
    identical every time."""
    times, spans, digests = [], [], set()
    for _ in range(repeats):
        shutil.rmtree(job.inputs, ignore_errors=True)
        job.inputs.mkdir(parents=True)
        spans_file = job.dir / "setup-spans.json" if traced else None
        child = run_child(command(job.setup_target(), spans_file), job.dir / "setup.log", deadline)
        if child.code != 0:
            raise BenchError(f"set-up exited {child.code}: {child.stderr.strip()}")
        times.append(child.wall_s)
        if spans_file is not None:
            spans = json.loads(spans_file.read_text())["spans"]
        digests.add(job.input_digest())
    if len(digests) != 1:
        raise BenchError("set-up produced different inputs from the same seed")
    return times, spans, digests.pop()


def run_pass(job: Job, reference: dict | None, previous: str | None, traced: bool,
             deadline: float) -> tuple[Pass, str | None]:
    shutil.rmtree(job.out, ignore_errors=True)
    job.out.mkdir(parents=True)
    spans_file = job.dir / "pass-spans.json" if traced else None
    child = run_child(command(job.pass_target(), spans_file), job.dir / "pass.log", deadline)
    if child.code != 0:
        return Pass(traced, child, [f"exit {child.code}: {child.stderr.strip()}"]), previous
    try:
        values = summarize(job.wl, job.out)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return Pass(traced, child, [f"unreadable output: {type(exc).__name__}: {exc}"]), previous
    if reference is None:
        problems = [f"no reference for {job.wl.name} seed {job.data_seed}; run --record"]
    else:
        problems = compare(values, reference)
    digest = tree_digest(job.out)
    if previous is not None and digest != previous:
        problems.append("run directory differs byte for byte from the previous pass")
    result = Pass(traced, child, problems)
    if traced:
        doc = json.loads(spans_file.read_text())
        result.layers = {"spans": doc["spans"], "missing": doc["missing"]}
    return result, digest


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 references: dict | None = None, work: Path = WORK) -> dict:
    """One benchmark run. Returns the result document: the JSON line under
    "result", plus what the human summary and the results file need."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    data_seed = seed % SEED_FAMILY
    if references is None:
        references = load_reference(wl)
    reference = references.get(str(data_seed))
    job = Job(wl, data_seed, work / f"{wl.name}-{seed}")
    shutil.rmtree(job.dir, ignore_errors=True)
    job.write_configs()
    try:
        trace_setup = trace and wl.kind != "montecarlo"
        setup_times, setup_spans, input_digest = run_setup(
            job, 1 if trace else SETUP_REPEATS, trace_setup, deadline
        )
        passes: list[Pass] = []
        digest = None
        measure_start = time.perf_counter()
        # untraced passes, or untraced and traced pairs, back to back; none
        # starts that would end past --seconds at the mean pass time so far
        kinds = (False, True) if trace else (False,)
        while True:
            for traced in kinds:
                done, digest = run_pass(job, reference, digest, traced, deadline)
                passes.append(done)
            elapsed = time.perf_counter() - measure_start
            next_end = elapsed * (len(passes) + len(kinds)) / len(passes)
            longest = max(p.child.wall_s for p in passes)
            if time.monotonic() + 1.1 * len(kinds) * longest > deadline:
                break
            if next_end > seconds and (trace or len(passes) >= MIN_PASSES):
                break
    finally:
        spans_kept = job.dir / "pass-spans.json"
        if spans_kept.exists():
            (work / "results").mkdir(parents=True, exist_ok=True)
            shutil.copyfile(spans_kept, work / "results" / f"{wl.name}-seed{seed}-spans.json")
        shutil.rmtree(job.dir, ignore_errors=True)

    # A pass whose output check failed still ran to completion and is timed;
    # it counts in failed, which makes the run incorrect.
    timed = [p for p in passes if p.child.code == 0]
    if not timed:
        raise BenchError(f"every pass failed; first: {passes[0].problems[0]}")
    failed = sum(1 for p in passes if p.failed)
    if trace:
        metrics, absent, missing = _traced_metrics(timed, setup_spans)
    else:
        metrics = {
            "wall_s": statistics.median(p.child.wall_s for p in timed),
            "cpu_s": statistics.median(p.child.cpu_s for p in timed),
            "peak_rss_mb": statistics.median(p.child.peak_rss_mb for p in timed),
            "setup_s": statistics.median(setup_times),
        }
        absent, missing = [], []
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": wl.name,
        "seed": seed,
        "data_seed": data_seed,
        "input_digest": input_digest,
        "reference": reference is not None,
        "seconds": round(time.monotonic() - started, 3),
        "setup_times": setup_times,
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.child.wall_s,
                "cpu_s": p.child.cpu_s,
                "peak_rss_mb": p.child.peak_rss_mb,
                "problems": p.problems,
            }
            for p in passes
        ],
        "absent": absent,
        "missing_wraps": missing,
        "result": {
            "correct": failed == 0,
            "attempted": len(passes),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
            },
        },
    }


def _traced_metrics(timed: list[Pass], setup_spans: list[dict]):
    traced = [p for p in timed if p.traced]
    plain = [p for p in timed if not p.traced]
    if not traced or not plain:
        raise BenchError("a trace run needs a traced and an untraced pass that exit 0")
    per_pass = [layer_metrics(p.layers["spans"], setup_spans, p.child.wall_s) for p in traced]
    metrics, absent = {}, []
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_pass]
        if any(v is None for v in values):
            absent.append(name)
            metrics[name] = 0.0 if PER_LAYER_UNITS[name] in ("s", "ratio") else 0
        elif PER_LAYER_UNITS[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            # counts repeat exactly from pass to pass; keep them whole numbers
            metrics[name] = statistics.median_low(values)
    metrics["trace.overhead_s"] = statistics.median(
        p.child.wall_s for p in traced
    ) - statistics.median(p.child.wall_s for p in plain)
    return metrics, sorted(absent), traced[-1].layers["missing"]


# ---------------------------------------------------------------- context


PROBE = (
    "import json, numpy\n"
    "blas = {}\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "except (TypeError, KeyError):\n"
    "    pass\n"
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
    " 'blas_version': blas.get('version')}))\n"
)


def run_context() -> dict:
    """Where and on what the numbers were taken."""
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {}
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = git.stdout.strip() or None
    src_lines = 0
    for file in sorted(SRC.rglob("*.py")):
        with open(file, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **libs,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------- record


def record_values(wl: Workload, seeds: list[int], work: Path = WORK) -> dict:
    """Output summaries of one untimed pass per data seed."""
    recorded = {}
    for data_seed in seeds:
        job = Job(wl, data_seed, work / f"record-{wl.name}-{data_seed}")
        shutil.rmtree(job.dir, ignore_errors=True)
        job.write_configs()
        deadline = time.monotonic() + 600
        try:
            run_setup(job, 1, False, deadline)
            job.out.mkdir(parents=True)
            child = run_child(command(job.pass_target()), job.dir / "pass.log", deadline)
            if child.code != 0:
                raise BenchError(f"{wl.name} seed {data_seed}: exit {child.code}: {child.stderr}")
            recorded[str(data_seed)] = summarize(wl, job.out)
        finally:
            shutil.rmtree(job.dir, ignore_errors=True)
        print(f"recorded {wl.name} seed {data_seed}", flush=True)
    return recorded


def write_reference(wl: Workload, seeds: list[int]) -> None:
    """Record seeds into wl's reference file, keeping the other entries."""
    entries = {**load_reference(wl), **record_values(wl, seeds)}
    doc = {
        "workload": dataclasses.asdict(wl),
        "seeds": dict(sorted(entries.items(), key=lambda kv: int(kv[0]))),
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(wl).write_text(json.dumps(doc, indent=1) + "\n")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


# ---------------------------------------------------------------- main


def human_line(doc: dict) -> str:
    result = doc["result"]
    ref = "reference" if doc["reference"] else "NO REFERENCE"
    verdict = "pass" if result["correct"] else "FAIL"
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    rate = result["failed"] / result["attempted"]
    return (
        f"{doc['workload']} seed {doc['seed']} (inputs {doc['data_seed']}, "
        f"sha256 {doc['input_digest'][:12]}): "
        + " | ".join(parts)
        + f" | error_rate {rate:.3g} ({result['failed']}/{result['attempted']} passes)"
        + f" | check {verdict} against {ref}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="coinfactors benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="write reference outputs for data seeds, e.g. 0-23")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "coinfactors" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'coinfactors'})", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record:
            for name in names:
                write_reference(WORKLOADS[name], parse_seeds(args.record))
            return 0
        context = run_context()
        print("context: " + json.dumps(context, sort_keys=True), flush=True)
        lines = []
        for name in names:
            doc = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            doc["context"] = context
            results = WORK / "results"
            results.mkdir(parents=True, exist_ok=True)
            stem = f"{name}-seed{args.seed}-trace{args.trace}"
            (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
            for p in doc["passes"]:
                for problem in p["problems"][:5]:
                    print(f"{name}: {problem}", flush=True)
            if doc["absent"]:
                print(f"{name}: absent (layer did not run): {', '.join(doc['absent'])}")
            if doc["missing_wraps"]:
                print(f"{name}: not wrapped (no such function): {', '.join(doc['missing_wraps'])}")
            print(human_line(doc), flush=True)
            lines.append(json.dumps(doc["result"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
