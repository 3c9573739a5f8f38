"""Run one fixed small flow on two source trees and list the outputs whose
bytes differ.

    python3 scripts/compare_outputs.py BASE_TREE HEAD_TREE [--seeds 0,23]
        [--work DIR] [--summary PATH]

Each tree is a checkout of this repository (a git worktree of the base
commit, say, and the working copy). Per seed the flow runs, from each
tree's own src/ and perfbench/:

- `synth` of 30 coins x 730 days with raw files, `ingest` of those files,
  and a four-spec `run` from them (BTC left out of the market, 8 coins per
  sort, C4 on the coin's own lagged return, FF3LIQ over Bitcoin's return);
- `ingest` of a staggered copy of those market files, every coin whole in
  the universe: BTC whole, the j-th other coin by name without its first
  20 j and last 10 j data lines (one that would keep none keeps its middle
  line), so coins list and delist on different days of one calendar;
- `synth` of a 200 x 365 `panel.csv` and a six-spec `run` on it
  (CAPM, FF3 and ALL, each unconditional and conditional);
- the same six specs on a copy of that `panel.csv` whose first 10,000 data
  lines end in LF, the next 10,000 in a bare CR, and the rest in LF with
  their coin ids quoted, which `read_panel_csv` reads in `np.loadtxt`
  blocks up to there and through the csv reader and its row checks from
  there on;
- `synth` of scenarios A and C, each 30 x 365 with raw files, so every
  preset's panel, truth and raw bytes are compared;
- `perfbench/mcpass.py` on the seed at 50 x 730.

Every file written, except each `manifest.json` (it records paths and
input digests), is compared by sha256. The markdown report goes to stdout
and is appended to PATH when given (in CI, $GITHUB_STEP_SUMMARY). The exit
status is 0 whether or not bytes differ: a change may alter outputs on
purpose. It is 1 when a command of the flow fails on either tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RAW_SPECS = [
    {"label": "capm-u", "factors": "CAPM", "beta": {"mode": "unconditional"}},
    {"label": "ff3-c", "factors": "FF3", "beta": {"mode": "conditional"}},
    {"label": "c4-c-own", "factors": "C4",
     "beta": {"mode": "conditional", "lagged_return": "own"}},
    {"label": "ff3liq-u-btc", "factors": "FF3LIQ", "beta": {"mode": "unconditional"},
     "riskfree_mode": "btc"},
]
PANEL_SPECS = [
    {"label": f"{menu.lower()}-{mode[0]}", "factors": menu, "beta": {"mode": mode}}
    for menu in ("CAPM", "FF3", "ALL")
    for mode in ("unconditional", "conditional")
]
# copies argv[1] to argv[2] with the CRLF line ends of the header and the
# first 10,000 data lines turned into LF, of the next 10,000 into a bare CR,
# and of the rest into LF, the coin id of each of the rest quoted
LF_COPY = ("import pathlib, sys; source, target = map(pathlib.Path, sys.argv[1:]); "
           "*head, tail = source.read_bytes().split(b'\\r\\n', 20_001); "
           "target.write_bytes(b''.join(line + (b'\\n' if k <= 10_000 else b'\\r') "
           "for k, line in enumerate(head)) + b''.join("
           "b'\"' + line.replace(b',', b'\",', 1) + b'\\n' "
           "for line in tail.split(b'\\r\\n')[:-1]))")

# copies the market files of directory argv[1] into directory argv[2]: BTC
# whole, the j-th other coin by name without its first 20 j and last 10 j
# data lines, and its middle line alone where that would leave none
STAGGER_COPY = ("import pathlib, sys; source, target = map(pathlib.Path, sys.argv[1:]); "
                "target.mkdir(parents=True, exist_ok=True); "
                "(target / 'BTC.csv').write_bytes((source / 'BTC.csv').read_bytes()); "
                "coins = sorted(p for p in source.glob('*.csv') if p.stem != 'BTC'); "
                "[(target / p.name).write_bytes(b''.join(lines[:1] + ("
                "lines[1 + 20 * j:len(lines) - 10 * j] or [lines[len(lines) // 2]]))) "
                "for j, p in enumerate(coins) for lines in [p.read_bytes().splitlines(True)]]")


def _steps(seed: int, out: Path) -> list[tuple[str, list[str], dict | None]]:
    """(name, argv after the interpreter, config written to <name>.json)."""
    raw = out / "synth-raw" / "raw"
    data = {"market_dir": str(raw / "market"), "epu_file": str(raw / "epu.csv"),
            "riskfree_file": str(raw / "riskfree.csv")}
    panel, lf_panel = out / "synth-panel" / "panel.csv", out / "lf-panel" / "panel.csv"
    staggered = out / "staggered" / "market"
    configs = {
        "synth-raw": {"synth": {"scenario": "B", "n_coins": 30, "n_days": 730,
                                "emit_raw": True}},
        "ingest": {"data": data},
        "ingest-staggered": {"data": dict(data, market_dir=str(staggered)),
                             "universe": {"min_history_days": 0}},
        "run-raw": {"data": data, "specs": RAW_SPECS,
                    "factors": {"exclude_btc_from_market": True, "min_sort_coins": 8}},
        "synth-panel": {"synth": {"scenario": "B", "n_coins": 200, "n_days": 365,
                                  "emit_raw": False}},
        "run-panel": {"panel_file": str(panel), "specs": PANEL_SPECS},
        "run-lf": {"panel_file": str(lf_panel), "specs": PANEL_SPECS},
        "synth-a": {"synth": {"scenario": "A", "n_coins": 30, "n_days": 365,
                              "emit_raw": True}},
        "synth-c": {"synth": {"scenario": "C", "n_coins": 30, "n_days": 365,
                              "emit_raw": True}},
    }
    steps = []
    for name, config in configs.items():
        if name == "run-lf":
            steps.append(("lf-panel", ["-c", LF_COPY, str(panel), str(lf_panel)], None))
        if name == "ingest-staggered":
            steps.append(("staggered", ["-c", STAGGER_COPY, str(raw / "market"),
                                        str(staggered)], None))
        command = name.split("-")[0]
        config = dict(config, seed=seed, output_dir=str(out / name))
        steps.append((name, ["-m", "coinfactors.cli", command, "--config"], config))
    mc = ["perfbench/mcpass.py", "--seeds", str(seed), "--coins", "50", "--days", "730",
          "--out", str(out / "mcpass" / "summary.json")]
    steps.append(("mcpass", mc, None))
    return steps


def run_flow(tree: Path, seed: int, out: Path) -> list[str]:
    """Run the flow from tree into out; the failed steps' messages."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    where = subprocess.run(
        [sys.executable, "-c", "import coinfactors; print(coinfactors.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(tree / "src"):
        return [f"coinfactors imports from {where or 'nowhere'}, not {tree / 'src'}"]
    failures = []
    for name, argv, config in _steps(seed, out):
        (out / name).mkdir(parents=True, exist_ok=True)
        if config is not None:
            path = out / f"{name}.json"
            path.write_text(json.dumps(config, indent=1))
            argv = argv + [str(path)]
        done = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            failures.append(f"{name} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return failures


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file below out, manifests and configs excepted."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json" and path.parent != out
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--seeds", default="0", help="comma-separated seeds")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the outputs (default: a temporary one)")
    parser.add_argument("--summary", type=Path, default=None,
                        help="file to append the markdown report to")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="compare-outputs-"))

    lines = ["## Output bytes, base against head", ""]
    failed = False
    compared = 0
    differing = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        sides = {}
        for side, tree in (("base", args.base), ("head", args.head)):
            out = (work / side / f"seed{seed}").resolve()
            for failure in run_flow(tree.resolve(), seed, out):
                lines.append(f"- seed {seed}, {side}: {failure}")
                failed = True
            sides[side] = digests(out)
        base, head = sides["base"], sides["head"]
        for name in sorted(set(base) | set(head)):
            compared += 1
            if base.get(name) != head.get(name):
                state = ("only in head" if name not in base
                         else "only in base" if name not in head else "bytes differ")
                differing.append(f"- seed {seed}: `{name}` ({state})")
    if differing:
        lines.append(f"{len(differing)} of {compared} outputs differ "
                     f"(manifest.json excluded):")
        lines += differing
    else:
        lines.append(f"All {compared} outputs are byte-identical "
                     f"(manifest.json excluded).")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.summary is not None:
        with open(args.summary, "a") as handle:
            handle.write(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
