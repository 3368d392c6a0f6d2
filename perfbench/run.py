#!/usr/bin/env python3
"""Benchmark of the pcnsim experiment pipeline.

    python3 perfbench/run.py --workload probe-heavy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each invocation is one fresh
process that drives the public entry points (`generate_synthetic_graph` or
`load_snapshot`, then `run_experiment` and `emit_results`): it times the
cold import of the program plus the base-graph build, then measures rounds
for `--seconds`.  A round is one `run_experiment` plus `emit_results` of
the workload's configuration with a run seed of its own, drawn from
`--seed` (see `workloads.round_seeds`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced rounds on the same inputs and prints the per-layer metrics,
including the traced-minus-untraced overhead.  Both check every run's
outputs and print a sha256 of each round's CSVs, so two commits can be
compared for byte-identical output.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The simulator's latencies come from a region table, not from a measured
network, so no figure here is an error against real payment timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# The import is cold only once per process; the graph build is repeated and
# its median taken.
SETUP_BUILDS = 5
TIME_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, round_seeds  # noqa: E402
import tracing  # noqa: E402

EXPECTED_REPORTS = {
    (estimator, target)
    for estimator in ("timing", "first_spy")
    for target in ("source", "destination", "both")
}


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _set_up(workload):
    """Import the program and build the base graph; time both.

    Runs before anything else imports the program, so the import is cold.
    Returns (graph, setup_s, median build_s).
    """
    start = time.perf_counter()
    import pcnsim.harness  # noqa: F401

    imported = time.perf_counter() - start
    document = workload.document()
    builds = []
    for _ in range(SETUP_BUILDS):
        start = time.perf_counter()
        graph = workload.load(document)
        builds.append(time.perf_counter() - start)
    load_s = statistics.median(builds)
    return graph, imported + load_s, load_s


def _check(result, cfg, paths) -> tuple[int, list[str]]:
    """Count the runs that aborted or broke an output invariant, with reasons.

    Channel conservation is already asserted inside every run.
    """
    expected = len(cfg.amounts_sat) * cfg.repetitions
    problems = list(result.failures)
    good = 0
    for rec in result.records:
        errors = []
        pairs = [(r.estimator, r.target) for r in rec.reports]
        if len(pairs) != len(EXPECTED_REPORTS) or set(pairs) != EXPECTED_REPORTS:
            errors.append("reports are not the six estimator/target pairs")
        for r in rec.reports:
            if not all(0.0 <= v <= 1.0 for v in (r.precision, r.recall, r.f1)):
                errors.append(f"{r.estimator}/{r.target} outside [0, 1]")
        if not 0.0 <= rec.compromised <= 1.0:
            errors.append("compromised share outside [0, 1]")
        if len(rec.truth) + rec.unrouted != cfg.payments_per_run:
            errors.append(f"{len(rec.truth)} routed + {rec.unrouted} unrouted "
                          f"!= {cfg.payments_per_run} payments")
        if errors:
            problems.append(f"run amount={rec.amount_sat} seed={rec.seed}: " + "; ".join(errors))
        else:
            good += 1
    if len(result.records) + len(result.failures) != expected:
        problems.append(f"{len(result.records)} records + {len(result.failures)} failures, "
                        f"wanted {expected} runs")
    written = {os.path.basename(p): p for p in paths}
    missing = {"metrics.csv", "metrics_aggregate.csv", "observations.csv"} - set(written)
    if missing:
        problems.append(f"outputs not written: {sorted(missing)}")
    else:
        with open(written["metrics.csv"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != len(EXPECTED_REPORTS) * len(result.records):
            problems.append(f"metrics.csv has {rows} rows for {len(result.records)} runs")
    return max(expected - good, 0), problems


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _round(graph, cfg, out_dir, tracer=None) -> dict:
    from pcnsim.harness import emit_results, run_experiment

    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        result = run_experiment(graph, cfg)
        ran = time.perf_counter()
        paths = emit_results(result, out_dir)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, problems = _check(result, cfg, paths)
    both = [r.f1 for rec in result.records for r in rec.reports
            if (r.estimator, r.target) == ("timing", "both")]
    return {
        "wall_s": end - start,
        "emit_s": end - ran,
        "attempted": len(cfg.amounts_sat) * cfg.repetitions,
        "failed": failed,
        "problems": problems,
        "digest": _digest(paths),
        "observations": sum(len(rec.observations) for rec in result.records),
        "timing_f1_both": statistics.fmean(both) if both else 0.0,
        "traced": tracer is not None,
        "base_seed": cfg.base_seed,
    }


def _measure(args, workload):
    """Set up, then run rounds for `--seconds`.  Returns (metrics, rounds)."""
    graph, setup_s, load_s = _set_up(workload)

    # the program's warnings are counted by the tracer, not printed
    quiet = logging.getLogger("pcnsim")
    quiet.addHandler(logging.NullHandler())
    quiet.propagate = False
    tracer = tracing.Tracer() if args.trace else None
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    rounds = []
    start = time.perf_counter()
    for base_seed in round_seeds(workload.name, args.seed):
        begun = time.perf_counter()
        cfg = workload.scenario_config(base_seed)
        plain = _round(graph, cfg, out / f"{base_seed}")
        rounds.append(plain)
        if tracer is not None:
            traced = _round(graph, cfg, out / f"{base_seed}-traced", tracer)
            if traced["digest"] != plain["digest"]:
                traced["problems"].append("traced output differs from untraced output")
            rounds.append(traced)
        now = time.perf_counter()
        if (now - start) + (now - begun) > args.seconds:
            break

    if tracer is None:
        wall_s = statistics.median(r["wall_s"] for r in rounds)
        cfg = workload.config
        payments = cfg["payments_per_run"] * cfg["repetitions"] * len(cfg["amounts_sat"])
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        return {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "payments_per_s": (payments / wall_s, "1/s"),
            "peak_rss_mb": (max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
                            / 1024.0, "MB"),
            "ok_run_share": ((attempted - failed) / attempted, "share"),
        }, rounds

    tracer.write_spans(out / "spans.csv")
    traced = [r for r in rounds if r["traced"]]
    metrics = tracing.layer_metrics(tracer.spans, tracer.log_counter.counts,
                                    sum(r["observations"] for r in traced), workload.tail_pct)
    metrics["graph.load_s"] = (load_s, "s")
    metrics["harness.emit_s"] = (statistics.median(r["emit_s"] for r in traced), "s")
    metrics["metrics.timing_f1_both"] = (
        statistics.fmean(r["timing_f1_both"] for r in traced), "share")
    plain_s = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced_s = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    split = " ".join(f"{k}={v:.1%}" for k, v in
                     sorted(tracing.phase_split(tracer.spans).items(), key=lambda kv: -kv[1]))
    print(f"phase split of run_single: {split}")
    print(f"adversary.estimate_tail_ms is the p{workload.tail_pct:g} of "
          f"{int(metrics['adversary.estimate_samples'][0])} estimates")
    for name in tracer.missing:
        print(f"not traced: {name} no longer exists")
    return metrics, rounds


class TimeLimit(BaseException):
    """Raised by SIGALRM.  Not an Exception, so `run_experiment`'s per-run
    isolation does not swallow it and the invocation fails without a result."""


def _time_limit(signum, frame):
    raise TimeLimit(f"no result within {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "pcnsim" / "__init__.py").is_file():
        print(f"error: no pcnsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _time_limit)
    signal.alarm(TIME_LIMIT_S)
    workload = WORKLOADS[args.workload]
    metrics, rounds = _measure(args, workload)
    signal.alarm(0)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} runs attempted, {failed} failed")
    for i, r in enumerate(rounds):
        kind = "traced" if r["traced"] else "untraced"
        print(f"round {i} {kind} base_seed={r['base_seed']} "
              f"wall_s={r['wall_s']:.4f} timing_f1_both={r['timing_f1_both']:.6f} "
              f"csv_sha256={r['digest']}")
    for p in problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
