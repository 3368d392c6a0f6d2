"""Command-line entry point.

`pcnsim run` executes a configured experiment against a snapshot file or a
synthetic topology and writes metric/observation CSVs; `pcnsim sweep` runs
that experiment once per (scenario, m) cell and writes every cell's
aggregate to one `sweep.csv`; `pcnsim convert` turns an LND describegraph
dump into the snapshot schema.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from .graph import (
    DEFAULT_REGION_RTT,
    RegionLatencyTable,
    SnapshotError,
    convert_describegraph,
    load_snapshot,
)
from .harness import (
    AGGREGATE_CSV_FIELDS,
    ConfigError,
    ScenarioConfig,
    ablation_summary,
    check_scenario,
    emit_results,
    generate_synthetic_graph,
    run_experiment,
    write_table,
)

log = logging.getLogger(__name__)


# What a malformed input file or option raises; `main` turns these into an
# `error:` line and exit code 2.  A file that is not UTF-8 raises
# UnicodeDecodeError, and JSON nested too deeply for the decoder raises
# RecursionError.
INPUT_ERRORS = (ConfigError, SnapshotError, OSError, json.JSONDecodeError, TypeError,
                UnicodeDecodeError, RecursionError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pcnsim")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options `run` and `sweep` share
    experiment = argparse.ArgumentParser(add_help=False)
    src = experiment.add_mutually_exclusive_group(required=True)
    src.add_argument("--snapshot", help="snapshot JSON file")
    src.add_argument("--synthetic", help="synthetic topology as kind:n, e.g. scale-free:200")
    experiment.add_argument("--config", help="JSON file with ScenarioConfig fields")
    experiment.add_argument("--out", required=True, help="output directory")
    experiment.add_argument("--seed", type=int, help="override base_seed")
    experiment.add_argument("--latency-table",
                            help="CSV region_a,region_b,rtt_mean_ms,rtt_std_ms")
    experiment.add_argument("--paper-t4", action="store_true",
                            help="use 4 instead of 6 message traversals per hop in the estimator")
    experiment.add_argument("--no-timelock-reduction", action="store_true",
                            help="disable timelock-based anonymity set reduction")
    experiment.add_argument("--no-source-attack", action="store_true",
                            help="disable the fail-and-retry source measurement")

    sub.add_parser("run", parents=[experiment], help="run an experiment")
    sweep = sub.add_parser("sweep", parents=[experiment],
                           help="run the experiment per (scenario, m) cell into sweep.csv")
    sweep.add_argument("--m", type=int, nargs="+", required=True,
                       help="adversary sizes, one cell each per scenario")
    sweep.add_argument("--scenarios", nargs="+", choices=("central", "random"),
                       default=["central", "random"], help="placements to sweep")

    conv = sub.add_parser("convert", help="convert an LND describegraph dump")
    conv.add_argument("describegraph", help="describegraph JSON file")
    conv.add_argument("--out", required=True, help="snapshot JSON to write")
    return parser


def _load_json(path, error: type[ValueError]):
    """The JSON document in `path`.  An integer too long for `int` (more
    than `sys.get_int_max_str_digits()` digits) raises `error` naming the
    file, not the bare ValueError `int` raises."""

    def parse_int(digits: str) -> int:
        try:
            return int(digits)
        except ValueError as exc:
            raise error(f"{path}: {exc}") from exc

    with open(path) as fh:
        return json.load(fh, parse_int=parse_int)


def _load_config(args) -> ScenarioConfig:
    fields = {}
    if args.config:
        document = _load_json(args.config, ConfigError)
        if not isinstance(document, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        fields = {k: v for k, v in document.items() if not k.startswith("_")}
    for key in ("amounts_sat", "node_list"):
        if key in fields and isinstance(fields[key], list):
            fields[key] = tuple(fields[key])
    if args.seed is not None:
        fields["base_seed"] = args.seed
    if args.paper_t4:
        fields["traversal_weight"] = 4
    if args.no_timelock_reduction:
        fields["timelock_reduction"] = False
    if args.no_source_attack:
        fields["retry_attack"] = False
    return ScenarioConfig(**fields)


def load_graph(args):
    """Base graph from the --snapshot / --synthetic choice."""
    if args.snapshot:
        return load_snapshot(_load_json(args.snapshot, SnapshotError))
    kind, _, n = args.synthetic.partition(":")
    if not n.isdigit():
        raise ConfigError(f"--synthetic wants kind:n, got {args.synthetic!r}")
    return generate_synthetic_graph(kind, int(n))


_TABLE_COLUMNS = ("region_a", "region_b", "rtt_mean_ms", "rtt_std_ms")


def _load_table(path) -> RegionLatencyTable:
    """Region table from a CSV; a malformed row, or text that is not UTF-8,
    raises ConfigError naming the file."""
    import csv

    table = RegionLatencyTable()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for r in reader:
                where = f"{path} line {reader.line_num}"
                missing = [col for col in _TABLE_COLUMNS if r.get(col) is None]
                if missing:
                    raise ConfigError(f"{where}: missing {', '.join(missing)}")
                try:
                    table.add(r["region_a"], r["region_b"],
                              float(r["rtt_mean_ms"]), float(r["rtt_std_ms"]))
                except ValueError as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return table


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    if args.command == "convert":
        try:
            snapshot = convert_describegraph(_load_json(args.describegraph, SnapshotError))
            with open(args.out, "w") as fh:
                json.dump(snapshot, fh, indent=1)
        except INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}: {len(snapshot['nodes'])} nodes, {len(snapshot['edges'])} edges")
        return 0

    try:
        cfg = _load_config(args)
        graph = load_graph(args)
        # a sweep's cells run scenario-major, then in --m order
        cells = [cfg] if args.command == "run" else [
            replace(cfg, scenario=scenario, m=m) for scenario in args.scenarios for m in args.m
        ]
        for cell in cells:
            check_scenario(graph, cell)
        table = _load_table(args.latency_table) if args.latency_table else DEFAULT_REGION_RTT
        os.makedirs(args.out, exist_ok=True)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = [run_experiment(graph, cell, table) for cell in cells]
    if args.command == "run":
        paths = emit_results(results[0], args.out)
    else:
        paths = [os.path.join(args.out, "sweep.csv")]
        write_table(paths[0], AGGREGATE_CSV_FIELDS,
                    [row for result in results for row in result.aggregate])
    for p in paths:
        print(f"wrote {p}")
    for result in results:
        for scenario, m, amount, estimator, target, _, d, r, f1, compromised in result.aggregate:
            print(f"{scenario} m={m} amount={amount}sat {estimator}/{target}: "
                  f"D={d:.3f} R={r:.3f} F1={f1:.3f} compromised={compromised:.3f}")
        if cfg.report_ablation:
            delta = ablation_summary(result)
            print("timelock-reduction ablation (destination): " + (
                "no destination observations collected" if delta is None else
                f"precision delta {delta[0]:+.4f}, recall delta {delta[1]:+.4f}"
            ))
    failures = [failure for result in results for failure in result.failures]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
