"""One Monte Carlo pass: the per-seed work of the simulation studies.

    PYTHONPATH=src python3 perfbench/mcpass.py --seeds 0,1,2 --coins 50 --days 730 --out mc.json

For each seed it draws a scenario-B panel, fits the conditional CAPM with the
true factor set, checks parameter recovery against the generator, and
compares the conditional and unconditional CAPM. Everything stays in memory;
the only file written is the summary the benchmark checks.

Layer functions are looked up on their modules at call time, so a tracer that
wraps them there sees these calls.
"""

from __future__ import annotations

import argparse
import json

from coinfactors import pipeline, synth
from coinfactors.condbeta import BetaSpec

COND = pipeline.ModelSpec(label="capm-c", factors="CAPM", beta=BetaSpec("conditional"))
UNCOND = pipeline.ModelSpec(label="capm-u", factors="CAPM", beta=BetaSpec("unconditional"))


def result_values(prefix: str, result) -> dict:
    values = {
        f"{prefix}.coins_fitted": len(result.fits),
        f"{prefix}.coins_dropped": len(result.dropped_coins),
        f"{prefix}.cross_sections": len(result.cross_sections),
        f"{prefix}.skipped_dates": len(result.skipped_dates),
        f"{prefix}.first_pass_avg_adj_r2": float(result.first_pass_avg_adj_r2),
        f"{prefix}.second_pass_avg_adj_r2": float(result.second_pass_avg_adj_r2),
        f"{prefix}.significant_anomalies": pipeline.significant_anomaly_count(result),
    }
    for c in result.fm.coefficients:
        values[f"{prefix}.{c.name}.mean"] = float(c.mean)
        values[f"{prefix}.{c.name}.nw_t"] = float(c.nw_t)
    return values


def seed_values(seed: int, coins: int, days: int) -> dict:
    panel, truth = synth.generate_synthetic(synth.scenario("B", coins, days, seed))
    result = pipeline.run_model(panel, COND, factor_set=truth.factor_set)
    recovery = synth.verify_recovery(result, truth)
    report = pipeline.compare_models({"tbill": panel}, [COND, UNCOND])
    values = result_values(f"{seed}.true_factors", result)
    values[f"{seed}.ci_coverage"] = float(recovery.ci_coverage)
    values[f"{seed}.n_parameters"] = int(recovery.n_parameters)
    for label, model in sorted(report.results.items()):
        values.update(result_values(f"{seed}.{label}", model))
    return values


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--coins", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    values = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        values.update(seed_values(seed, args.coins, args.days))
    with open(args.out, "w") as handle:
        json.dump(values, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
