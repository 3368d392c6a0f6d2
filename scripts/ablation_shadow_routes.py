#!/usr/bin/env python3
"""Measure what disabling the timelock-based anonymity-set reduction costs.

Shadow-route style padding hides the remaining lock time from the
destination estimator.  This script runs the destination estimation twice
per observation (reduction on and off) and reports the precision/recall
change, the worst-case estimate of that padding's effect.

Example:
    python scripts/ablation_shadow_routes.py --synthetic scale-free:100 --seeds 10
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pcnsim.cli import INPUT_ERRORS, add_graph_options, load_graph
from pcnsim.harness import ScenarioConfig, ablation_summary, run_experiment


def main():
    p = argparse.ArgumentParser(description=__doc__)
    add_graph_options(p)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--payments", type=int, default=500)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--amount", type=int, default=1000)
    args = p.parse_args()

    try:
        graph = load_graph(args)
        cfg = ScenarioConfig(
            scenario="central",
            m=args.m,
            amounts_sat=(args.amount,),
            payments_per_run=args.payments,
            repetitions=args.seeds,
            probes_per_path=20,
            max_estimates_per_channel=2,
            report_ablation=True,
        )
    except INPUT_ERRORS as exc:
        p.error(str(exc))
    result = run_experiment(graph, cfg)
    delta = ablation_summary(result)
    if delta is None:
        print("no destination observations collected")
    else:
        print(
            f"destination estimator with vs without timelock reduction "
            f"(m={args.m}, {args.seeds} seeds): "
            f"precision delta {delta[0]:+.4f}, recall delta {delta[1]:+.4f}"
        )
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
