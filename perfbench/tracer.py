"""Run one coinfactors command in-process with its layer functions wrapped,
then write the recorded spans as JSON.

    python3 perfbench/tracer.py --spans spans.json cli run --config run.json
    python3 perfbench/tracer.py --spans spans.json mc --seeds 0,1,2 --out mc.json

`cli` runs the command-line front end, `mc` the Monte Carlo pass script in
`mcpass.py`. Each wrapped function is replaced at the module attribute its
caller looks up, so the program under test is unchanged. A function that no
longer exists is listed under "missing" and skipped, so a refactor that
renames one leaves its metrics absent instead of crashing the run.

A span records its name, start, end, parent span and the counts taken from
the call's arguments and result. Spans stay in memory and are written once,
when the command exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Counters read a call's arguments and result. A counter that meets an API it
# does not know leaves its counts out; the metrics built from them go absent.
COUNTER_ERRORS = (AttributeError, KeyError, TypeError, IndexError, ValueError, OSError)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def count_bars(args, kwargs, result):
    return {"bars": sum(len(series.bars) for series in result)}


def count_panel(args, kwargs, result):
    dated_drops = sum(1 for drop in result.dropped if drop.date is not None)
    return {
        "observations": len(result.observations),
        "drops": len(result.dropped),
        "candidates": len(result.observations) + dated_drops,
    }


def count_file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_first(args, kwargs, "source"))}


def count_factor_set(args, kwargs, result):
    return {"dates": len(result.values), "dropped_dates": len(result.dropped)}


def count_first_pass(args, kwargs, result):
    return {"fitted": 1, "params": int(result.n_params)}


def count_ols_rows(args, kwargs, result):
    return {"rows": len(_first(args, kwargs, "X"))}


def count_second_pass(args, kwargs, result):
    return {"cross_sections": len(result.fits), "skipped": len(result.skipped)}


def count_synth(args, kwargs, result):
    return {"observations": len(result[0].observations)}


def count_report(args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {
        "files": len(result),
        "bytes": sum(os.path.getsize(os.path.join(out_dir, name)) for name in result),
    }


# (module, attribute, span name, counter). The module is the one whose code
# looks the name up: cli for the ingest and report layers it calls, pipeline
# and condbeta for the estimation layers.
WRAPS = (
    ("coinfactors.cli", "load_coin_dir", "ingest.load", count_bars),
    ("coinfactors.cli", "parse_epu_csv", "ingest.load", None),
    ("coinfactors.cli", "parse_riskfree_csv", "ingest.load", None),
    ("coinfactors.cli", "build_panel", "panel.build", count_panel),
    ("coinfactors.cli", "write_panel_csv", "panel.csv_write", None),
    ("coinfactors.cli", "write_drop_report", "panel.csv_write", None),
    ("coinfactors.cli", "read_panel_csv", "panel.csv_read", count_file_bytes),
    ("coinfactors.pipeline", "build_factor_set", "factors.build", count_factor_set),
    ("coinfactors.pipeline", "first_pass", "condbeta.first_pass", count_first_pass),
    ("coinfactors.condbeta", "ols", "econometrics.ols", count_ols_rows),
    ("coinfactors.pipeline", "ols", "econometrics.ols", count_ols_rows),
    ("coinfactors.pipeline", "fama_macbeth", "econometrics.fm", None),
    ("coinfactors.pipeline", "second_pass", "pipeline.second_pass", count_second_pass),
    ("coinfactors.pipeline", "run_model", "pipeline.run_model", None),
    ("coinfactors.cli", "generate_synthetic", "synth.generate", count_synth),
    ("coinfactors.synth", "generate_synthetic", "synth.generate", count_synth),
    ("coinfactors.cli", "emit_raw_files", "synth.emit_raw", None),
    ("coinfactors.cli", "write_report_files", "report.write", count_report),
)


class Tracer:
    """Collects spans from the functions it wraps. Single-threaded: the
    parent of a span is whichever wrapped call was open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "name": name,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                try:
                    span["counts"] = counter(args, kwargs, result)
                except COUNTER_ERRORS as exc:
                    span["count_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self, wraps=WRAPS) -> None:
        for module_name, attr, name, counter in wraps:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counter))

    def document(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


def run_target(kind: str, argv: list[str]) -> int:
    """Run the command in this process and return its exit code."""
    try:
        if kind == "cli":
            from coinfactors import cli

            cli.main(args=argv, prog_name="coinfactors")
        elif kind == "mc":
            import mcpass

            mcpass.main(argv)
        else:
            raise SystemExit(f"unknown target {kind!r}, expected cli or mc")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: tracer.py --spans FILE {cli|mc} ARGS...", file=sys.stderr)
        return 2
    spans_path, kind, rest = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return run_target(kind, rest)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.document(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
