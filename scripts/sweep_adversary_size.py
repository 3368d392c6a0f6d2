#!/usr/bin/env python3
"""Sweep the number of malicious nodes and emit plot-ready tables.

Runs the central and random placement scenarios for each m, collecting the
share of compromised paths and per-estimator precision/recall/F1, one CSV
row per (scenario, m, amount, estimator, target).

Example:
    python scripts/sweep_adversary_size.py --synthetic scale-free:200 \
        --m 1 2 4 8 16 --seeds 10 --payments 500 --out results/sweep
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pcnsim.cli import INPUT_ERRORS, add_graph_options, load_graph
from pcnsim.harness import (
    AGGREGATE_CSV_FIELDS,
    ScenarioConfig,
    aggregate_rows,
    check_scenario,
    run_experiment,
    write_table,
)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    add_graph_options(p)
    p.add_argument("--m", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--scenarios", nargs="+", default=["central", "random"])
    p.add_argument("--amounts", type=int, nargs="+", default=[1000])
    p.add_argument("--payments", type=int, default=500)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    try:
        graph = load_graph(args)
        configs = [
            ScenarioConfig(
                scenario=scenario,
                m=m,
                amounts_sat=tuple(args.amounts),
                payments_per_run=args.payments,
                repetitions=args.seeds,
                base_seed=args.base_seed,
                probes_per_path=args.probes,
                max_estimates_per_channel=2,
            )
            for scenario in args.scenarios
            for m in args.m
        ]
        for cfg in configs:
            check_scenario(graph, cfg)
        os.makedirs(args.out, exist_ok=True)
    except INPUT_ERRORS as exc:
        p.error(str(exc))
    rows = []
    failures = []
    for cfg in configs:
        result = run_experiment(graph, cfg)
        for agg in result.aggregate:
            rows.append(agg)
            print(
                f"{cfg.scenario} m={cfg.m} amount={agg['amount_sat']} "
                f"{agg['estimator']}/{agg['target']}: F1={agg['f1_mean']:.3f} "
                f"compromised={agg['compromised_mean']:.3f}"
            )
        failures += result.failures
    if rows:
        out_file = os.path.join(args.out, "sweep.csv")
        write_table(out_file, AGGREGATE_CSV_FIELDS, aggregate_rows(rows))
        print(f"wrote {out_file} ({len(rows)} rows)")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
