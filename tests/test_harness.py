import copy
import csv
import hashlib
import io
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim.harness import (
    AGGREGATE_CSV_FIELDS,
    METRICS_CSV_FIELDS,
    OBSERVATION_CSV_FIELDS,
    TIMELINE_CSV_FIELDS,
    ConfigError,
    ExperimentResult,
    ScenarioConfig,
    build_latency_model,
    build_scenario,
    check_scenario,
    emit_results,
    generate_synthetic_graph,
    generate_workload,
    probe_plan,
    run_experiment,
    run_single,
)
from pcnsim import cli, harness
from pcnsim.adversary import TOWARD_DESTINATION
from pcnsim.graph import (
    RegionLatencyTable,
    SnapshotError,
    assign_latencies,
    init_balances,
    load_snapshot,
)
from pcnsim.latency import aggregate_models
from pcnsim.routing import Payment, find_route
from conftest import make_graph
from oracles import reference_route


def tiny_cfg(**kw):
    defaults = dict(
        scenario="central", m=1, amounts_sat=(100,), payments_per_run=15,
        repetitions=1, probes_per_path=4, probe_max_depth=2,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestBuildScenario:
    def test_central_path_picks_middle(self):
        g, _ = make_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        adv = build_scenario(g, tiny_cfg(), seed=0)
        assert adv.malicious_nodes == {"b"}

    def test_random_all_nodes(self):
        g, _ = make_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        adv = build_scenario(g, tiny_cfg(scenario="random", m=3), seed=5)
        assert adv.malicious_nodes == {"a", "b", "c"}

    def test_random_seeded_deterministic(self):
        g = generate_synthetic_graph("scale-free", 20, seed=1)
        picks = {
            frozenset(build_scenario(g, tiny_cfg(scenario="random", m=3), seed=9).malicious_nodes)
            for _ in range(3)
        }
        assert len(picks) == 1

    def test_explicit_list(self):
        g, _ = make_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        adv = build_scenario(g, tiny_cfg(scenario="list", node_list=("a", "c")), seed=0)
        assert adv.malicious_nodes == {"a", "c"}

    def test_unknown_node_rejected(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b")])
        with pytest.raises(ConfigError):
            build_scenario(g, tiny_cfg(scenario="list", node_list=("ghost",)), seed=0)

    def test_m_exceeding_nodes_rejected(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b")])
        with pytest.raises(ConfigError):
            build_scenario(g, tiny_cfg(m=5), seed=0)

    def test_amount_above_largest_capacity_rejected(self):
        # a route's last hop carries the amount whole: the largest channel
        # takes 1,000,000 sat, and no route carries one more
        g, _ = make_graph(["a", "b", "c"],
                          [("e0", "a", "b", {"capacity_sat": 10}), ("e1", "b", "c")])
        check_scenario(g, tiny_cfg(amounts_sat=(100, 1_000_000)))
        with pytest.raises(ConfigError, match="amounts_sat 1000001 exceeds the largest "
                                              "channel capacity, 1000000 sat"):
            check_scenario(g, tiny_cfg(amounts_sat=(1_000_001, 100)))

    def test_traversal_weight_bounded(self):
        tiny_cfg(traversal_weight=1_000)  # the bound itself is allowed
        with pytest.raises(ConfigError, match="traversal_weight must be <= 1000, got 1001"):
            tiny_cfg(traversal_weight=1_001)


class TestWorkload:
    def test_two_node_graph_only_pair(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b")])
        wl = generate_workload(g, tiny_cfg(payments_per_run=10), np.random.default_rng(0), 100)
        assert all({s, t} == {"a", "b"} for s, t, _ in wl)

    def test_single_amount(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b")])
        wl = generate_workload(g, tiny_cfg(amounts_sat=(1,)), np.random.default_rng(0), 1)
        assert {amt for _, _, amt in wl} == {1000}

    def test_seed_stable(self):
        g = generate_synthetic_graph("ring", 8)
        runs = [
            generate_workload(g, tiny_cfg(), np.random.default_rng(3), 100)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSyntheticGraph:
    def test_path(self):
        g = generate_synthetic_graph("path", 3)
        assert len(g.channels) == 2

    def test_star_hub_degree(self):
        g = generate_synthetic_graph("star", 5)
        assert len(g.channels) == 4
        assert sum(len(sides) for _, sides in g.neighbour_groups()["n000"]) == 4

    def test_ring(self):
        g = generate_synthetic_graph("ring", 5)
        assert len(g.channels) == 5
        groups = g.neighbour_groups()
        assert all(sum(len(sides) for _, sides in groups[n]) == 2 for n in g.nodes)

    def test_scale_free_deterministic(self):
        a = generate_synthetic_graph("scale-free", 50, seed=4)
        b = generate_synthetic_graph("scale-free", 50, seed=4)
        assert [(c.id, c.u, c.v) for c in a.channels.values()] == [
            (c.id, c.u, c.v) for c in b.channels.values()
        ]

    def test_default_policies(self):
        g = generate_synthetic_graph("path", 2)
        ch = next(iter(g.channels.values()))
        assert ch.policy_uv.base_fee_msat == 1000
        assert ch.policy_uv.fee_rate_ppm == 10
        assert ch.policy_uv.timelock_delta == 40


class TestProbePlan:
    def test_line_depths(self):
        g = generate_synthetic_graph("path", 5)
        plan = probe_plan(g, "n000", max_depth=3)
        assert [(cid, len(p)) for cid, p in plan] == [
            ("c0000", 1), ("c0001", 2), ("c0002", 3)
        ]

    def test_prefixes_estimated_first(self):
        g = generate_synthetic_graph("scale-free", 25, seed=2)
        plan = probe_plan(g, "n000", max_depth=3)
        seen = set()
        for cid, path in plan:
            assert all(p in seen for p in path[:-1])
            assert path[-1] == cid
            seen.add(cid)

    def test_disabled_direction_not_probed(self):
        g, _ = make_graph(["a", "b", "c"],
                       [("e0", "a", "b"), ("e1", "b", "c", {"enabled_uv": False})])
        plan = probe_plan(g, "a", max_depth=3)
        assert [cid for cid, _ in plan] == ["e0"]


class TestBuildLatencyModel:
    def test_noiseless_recovery_exact(self):
        rows = [
            ("e0", "a", "b", {"latency_ms": 10.0}),
            ("e1", "b", "c", {"latency_ms": 22.5}),
            ("e2", "c", "d", {"latency_ms": 40.0}),
            ("e3", "b", "d", {"latency_ms": 60.0}),
        ]
        g, latencies = make_graph(["a", "b", "c", "d"], rows)
        cfg = tiny_cfg(probes_per_path=3, probe_max_depth=3)
        model, estimates = build_latency_model(
            g, init_balances(g), latencies, frozenset({"a"}), cfg, np.random.SeedSequence(0)
        )
        for cid in ("e0", "e1", "e2", "e3"):
            assert model.edges[cid].mean == latencies[cid].mean

    def test_multi_vantage_aggregates(self):
        g = generate_synthetic_graph("ring", 6)
        latencies = assign_latencies(g, RegionLatencyTable(), rng_seed=0)
        cfg = tiny_cfg(probes_per_path=3, probe_max_depth=2)
        model, estimates = build_latency_model(
            g, init_balances(g), latencies, frozenset({"n000", "n003"}), cfg,
            np.random.SeedSequence(1),
        )
        vantages = {vantage for group in estimates.values() for _, vantage, _ in group}
        assert vantages == {"n000", "n003"}
        assert len(model.edges) == 6

    def test_model_is_aggregate_of_kept_estimates(self):
        # one definition: the campaign's model is exactly aggregate_models of
        # the estimates it made, single-vantage channels included
        g = generate_synthetic_graph("ring", 6)
        latencies = assign_latencies(g, RegionLatencyTable(), rng_seed=0)
        cfg = tiny_cfg(probes_per_path=5, probe_max_depth=2, traversal_weight=4)
        model, estimates = build_latency_model(
            g, init_balances(g), latencies, frozenset({"n000", "n003"}), cfg,
            np.random.SeedSequence(3),
        )
        single = [cid for cid, group in estimates.items() if len(group) == 1]
        assert single and len(single) < len(estimates)
        assert all(model.edges[cid].std > 0 for cid in single)
        assert model == aggregate_models(estimates, cfg.max_estimates_per_channel,
                                         cfg.traversal_weight)

    def test_noisy_sigma_retained(self):
        g, latencies = make_graph(
            ["a", "b"], [("e0", "a", "b", {"latency_ms": 50.0, "sigma_ms": 10.0})]
        )
        cfg = tiny_cfg(probes_per_path=50, probe_max_depth=1)
        model, _ = build_latency_model(g, init_balances(g), latencies, frozenset({"a"}), cfg,
                                       np.random.SeedSequence(2))
        assert model.edges["e0"].std > 0


class TestRunSingle:
    def graph(self):
        return generate_synthetic_graph("scale-free", 12, seed=7)

    def test_deterministic(self):
        recs = [run_single(self.graph(), tiny_cfg(), 100, seed=3) for _ in range(2)]
        assert recs[0].reports == recs[1].reports
        assert repr(recs[0].observations) == repr(recs[1].observations)
        assert recs[0].compromised == recs[1].compromised

    def test_seed_independence_of_order(self):
        g = self.graph()
        first = run_single(g, tiny_cfg(), 100, seed=1)
        run_single(g, tiny_cfg(), 100, seed=0)
        again = run_single(g, tiny_cfg(), 100, seed=1)
        assert first.reports == again.reports

    def test_truth_covers_routed_payments(self):
        rec = run_single(self.graph(), tiny_cfg(payments_per_run=25), 100, seed=0)
        assert len(rec.truth) + rec.unrouted == 25
        for t in rec.truth.values():
            assert t.source != t.dest
            assert t.status in ("fulfilled", "failed")

    def test_estimate_streams_share_payments(self):
        # both estimators classify every payment observed on a leg, and
        # "both" the payments observed on both legs
        rec = run_single(self.graph(), tiny_cfg(payments_per_run=40), 100, seed=2)
        legs = {
            target: {o.payment_id for o in rec.observations
                     if (o.direction == TOWARD_DESTINATION) == (target == "destination")}
            for target in ("source", "destination")
        }
        legs["both"] = legs["source"] & legs["destination"]
        assert legs["both"]
        assert len(rec.reports) == 6
        for r in rec.reports:
            assert r.classified == len(legs[r.target])

    def test_no_source_attack_no_source_estimates(self):
        rec = run_single(self.graph(), tiny_cfg(retry_attack=False), 100, seed=0)
        classified = {(r.estimator, r.target): r.classified for r in rec.reports}
        assert classified["timing", "source"] == 0
        assert classified["first_spy", "source"] == 0
        assert classified["timing", "destination"] > 0


class TestWorkloadRouting:
    """run_single routes every payment as a fresh per-payment search would,
    the payments to one (destination, amount) over one kept route tree."""

    def bridged_graph(self):
        # two rings joined by a 1 sat bridge that no 100 sat payment can cross
        left, right = ["a", "b", "c", "d", "e"], ["v", "w", "x", "y", "z"]
        rows = [(f"l{i}", left[i], left[(i + 1) % 5]) for i in range(5)]
        rows += [(f"r{i}", right[i], right[(i + 1) % 5]) for i in range(5)]
        rows += [("lx", "a", "c"), ("rx", "w", "z"), ("bridge", "e", "v", {"capacity_sat": 1})]
        return make_graph(left + right, rows)[0]

    def test_routes_match_fresh_search(self, monkeypatch):
        g = self.bridged_graph()
        cfg = tiny_cfg(scenario="random", payments_per_run=80, amounts_sat=(100, 1_000))
        seed, amount_sat = 4, 100
        routes = []  # the route run_single finds for each workload payment

        def record_route(graph, payment):
            routes.append(find_route(graph, payment))
            return routes[-1]

        monkeypatch.setattr(harness, "find_route", record_route)
        rec = run_single(g, cfg, amount_sat, seed)
        # the workload stream run_single draws from
        root = np.random.SeedSequence(entropy=(seed, amount_sat))
        workload = generate_workload(g, cfg, np.random.default_rng(root.spawn(5)[4]), amount_sat)
        fresh = [reference_route(g, Payment(s, t, amount)) for s, t, amount in workload]
        assert 0 < sum(p is None for p in fresh) < len(fresh)
        assert len({(t, amount) for _, t, amount in workload}) < len(workload)
        assert [p if p is None else p.nodes() for p in routes] == [
            p if p is None else p.nodes() for p in fresh]
        routed = {f"p{amount_sat}s{seed}n{i:05d}" for i, p in enumerate(fresh) if p is not None}
        assert set(rec.truth) == routed
        assert rec.unrouted == len(fresh) - len(routed)


class TestRunExperiment:
    def test_repeatable_aggregate(self):
        g = generate_synthetic_graph("scale-free", 10, seed=5)
        cfg = tiny_cfg(repetitions=2)
        a = run_experiment(g, cfg)
        b = run_experiment(g, cfg)
        assert a.aggregate == b.aggregate
        assert not a.failures

    def test_runs_leave_the_graph_unchanged(self, tmp_path):
        # no run copies the graph, so none may change it; and every file a
        # rerun writes, the timeline and the ablation's runs included, is
        # byte-identical
        g = generate_synthetic_graph("scale-free", 12, seed=7)
        before = copy.deepcopy(g)
        cfg = tiny_cfg(amounts_sat=(10, 100), repetitions=2, scenario="random", m=3,
                       export_timeline=True, report_ablation=True)
        outputs = []
        for run_dir in ("one", "two"):
            paths = emit_results(run_experiment(g, cfg), tmp_path / run_dir)
            outputs.append({Path(p).name: Path(p).read_bytes() for p in paths})
        assert sorted(outputs[0]) == [
            "metrics.csv", "metrics_aggregate.csv", "observations.csv", "timeline.csv",
        ]
        assert all(body.count(b"\n") > 1 for body in outputs[0].values())
        assert outputs[0] == outputs[1]
        assert g == before

    def test_failing_repetition_isolated(self, monkeypatch):
        import pcnsim.harness as harness

        g = generate_synthetic_graph("path", 4, seed=0)
        original = harness.run_single

        def flaky(base_graph, cfg, amount_sat, seed, latency_table=None):
            if seed == 1:
                raise RuntimeError("boom")
            return original(base_graph, cfg, amount_sat, seed)

        monkeypatch.setattr(harness, "run_single", flaky)
        result = harness.run_experiment(g, tiny_cfg(repetitions=3))
        assert len(result.failures) == 1 and "boom" in result.failures[0]
        assert {r.seed for r in result.records} == {0, 2}


# sha256 of every file the pinned experiment writes, as drawn with numpy
# 2.4.6: a change that keeps outputs byte-identical leaves each one as it is
PINNED_NUMPY = "2.4.6"
PINNED_DIGESTS = {
    "metrics.csv": "15f92cf5ca42d392d52c0146abc40b14fc2a2e220d62e2a0b609aaec15c00ee3",
    "metrics_aggregate.csv": "c8b4318e3da521bd14a04ddbdb80ed5f85f77f560085d10c3643755049f6e586",
    "observations.csv": "e9a2689965c9d8b9fa04e2909d2ea76788a49df0472e81e3670cb2e655838333",
    "timeline.csv": "59e31b35bab2ef94e8e13f2ce45db2a6dee60834fb3a5e316d067d0f2065138c",
}


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory):
    """The pinned experiment run twice on one graph, cold then warm (every
    kept route tree and probe path reused): each round's file digests."""
    g = generate_synthetic_graph("scale-free", 60, seed=5)
    cfg = ScenarioConfig(
        scenario="central", m=3, amounts_sat=(100, 10_000), payments_per_run=200,
        repetitions=2, probes_per_path=5, report_ablation=True, export_timeline=True,
    )
    rounds = []
    for name in ("cold", "warm"):
        paths = emit_results(run_experiment(g, cfg), tmp_path_factory.mktemp(name))
        rounds.append({Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                       for p in paths})
    return rounds


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_output_bytes_pinned(pinned_outputs, name):
    cold, warm = pinned_outputs
    assert sorted(cold) == sorted(warm) == sorted(PINNED_DIGESTS)
    assert cold[name] == warm[name] == PINNED_DIGESTS[name], (
        f"{name}: cold {cold[name][:12]}, warm {warm[name][:12]}, pinned "
        f"{PINNED_DIGESTS[name][:12]} (pinned with numpy {PINNED_NUMPY}, "
        f"running numpy {np.__version__})"
    )


class TestEmitResults:
    def test_empty_records_header_only(self, tmp_path):
        paths = emit_results(ExperimentResult(records=[]), tmp_path)
        metrics = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert metrics == [
            "scenario,estimator,target,m,amount_sat,seed,precision,recall,f1,compromised_share"
        ]
        assert len(paths) == 3

    def test_row_counts_and_idempotence(self, tmp_path):
        g = generate_synthetic_graph("scale-free", 10, seed=5)
        result = run_experiment(g, tiny_cfg(amounts_sat=(1, 10), repetitions=2))
        emit_results(result, tmp_path)
        first = (tmp_path / "metrics.csv").read_bytes()
        lines = first.decode().strip().splitlines()
        # 2 amounts x 2 seeds = 4 runs, 6 report rows per run
        assert len(lines) == 1 + 4 * 6
        emit_results(result, tmp_path)
        assert (tmp_path / "metrics.csv").read_bytes() == first
        assert not (tmp_path / "timeline.csv").exists()

    def test_aggregate_is_mean_of_metrics_rows(self, tmp_path):
        # each metrics_aggregate.csv row is its group's metrics.csv rows:
        # their count and each score column's mean
        g = generate_synthetic_graph("scale-free", 10, seed=5)
        emit_results(run_experiment(g, tiny_cfg(amounts_sat=(10, 100), repetitions=3)), tmp_path)
        tables = {}
        for name in ("metrics.csv", "metrics_aggregate.csv"):
            with open(tmp_path / name, newline="") as fh:
                tables[name] = list(csv.DictReader(fh))
        group_of = itemgetter("scenario", "m", "amount_sat", "estimator", "target")
        groups = {}
        for row in tables["metrics.csv"]:
            groups.setdefault(group_of(row), []).append(row)
        aggregate = tables["metrics_aggregate.csv"]
        assert sorted(map(group_of, aggregate)) == sorted(groups) and len(groups) == 2 * 6
        assert any(len({row["recall"] for row in rows}) > 1 for rows in groups.values())
        for agg in aggregate:
            rows = groups[group_of(agg)]
            assert int(agg["runs"]) == len(rows) == 3
            for mean, column in (("precision_mean", "precision"), ("recall_mean", "recall"),
                                 ("f1_mean", "f1"), ("compromised_mean", "compromised_share")):
                expected = statistics.fmean(float(row[column]) for row in rows)
                assert abs(float(agg[mean]) - expected) <= 1e-12, (agg, column)

    def test_readme_quotes_the_headers(self):
        # the column constants are the one schema; the README quotes them
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for name, fields in (
            ("metrics.csv", METRICS_CSV_FIELDS),
            ("observations.csv", OBSERVATION_CSV_FIELDS),
            ("timeline.csv", TIMELINE_CSV_FIELDS),
        ):
            quoted = re.search(rf"`{re.escape(name)}`[^`]*`([^`]*)`", readme)
            assert quoted is not None, name
            assert quoted.group(1).split(",") == fields, name

    def test_timeline_export_optional(self, tmp_path):
        g = generate_synthetic_graph("path", 4, seed=0)
        result = run_experiment(g, tiny_cfg(payments_per_run=5, export_timeline=True))
        emit_results(result, tmp_path)
        lines = (tmp_path / "timeline.csv").read_text().strip().splitlines()
        assert lines[0] == "time_ns,payment_id,from_node,to_node,channel_id,kind"
        assert len(lines) > 5


# a valid config that runs in well under a second on path:4
SMALL_RUN = {
    "amounts_sat": [100], "payments_per_run": 5, "repetitions": 1,
    "probes_per_path": 3, "probe_max_depth": 1,
}


def policy_snapshot(**policy):
    """Two nodes and one channel whose node1 policy has the given fields."""
    return {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
            "edges": [{"channel_id": "c0", "node1_pub": "A", "node2_pub": "B",
                       "capacity_sat": 1000, "node1_policy": policy}]}


def lnd_dump(capacity="1000", channel_id="7", **policy):
    """A describegraph dump of two nodes and one channel whose node1 policy
    has the given fields."""
    return {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
            "edges": [{"channel_id": channel_id, "node1_pub": "A", "node2_pub": "B",
                       "capacity": capacity, "node1_policy": policy, "node2_policy": None}]}


def write_input(path, document):
    """Write bytes as they are and anything else as JSON."""
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(json.dumps(document))


def readme_ablation_config():
    """The shadow-route ablation preset: README's `ablation.json` for `pcnsim run`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"With `ablation.json`:\n\n```json\n(.*?)```", readme, re.S)
    return json.loads(block.group(1))


# the ablation preset's cases keep the ids they had when a script held it
ablation_preset = pytest.mark.parametrize(
    "preset", [readme_ablation_config], ids=["ablation_shadow_routes.py-extra1"])


class TestCli:
    def test_convert_roundtrip(self, tmp_path, capsys):
        # LND writes its 64-bit fields as strings of decimal digits
        dump = {
            "nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
            "edges": [{
                "channel_id": "7", "node1_pub": "A", "node2_pub": "B", "capacity": "99",
                "node1_policy": {"fee_base_msat": "1", "fee_rate_milli_msat": "2",
                                 "time_lock_delta": 3, "disabled": False},
                "node2_policy": None,
            }],
        }
        src = tmp_path / "describegraph.json"
        src.write_text(json.dumps(dump))
        out = tmp_path / "snapshot.json"
        assert cli.main(["convert", str(src), "--out", str(out)]) == 0
        snap = json.loads(out.read_text())
        assert snap["edges"][0]["capacity_sat"] == 99
        assert snap["edges"][0]["node1_policy"] == {
            "base_fee_msat": 1, "fee_rate_ppm": 2, "time_lock_delta": 3, "disabled": False,
        }

    def test_run_synthetic(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "scenario": "central", "m": 1, "amounts_sat": [100],
            "payments_per_run": 8, "repetitions": 1, "probes_per_path": 3,
            "probe_max_depth": 2,
        }))
        out = tmp_path / "results"
        code = cli.main([
            "run", "--synthetic", "scale-free:10", "--config", str(cfg_file),
            "--out", str(out), "--seed", "4",
        ])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "observations.csv").exists()

    def test_rejected_records_reported_once(self, tmp_path, capsys, caplog):
        snapshot = copy.deepcopy(FUZZ_SNAPSHOT)
        snapshot["edges"].append({**snapshot["edges"][0], "channel_id": "c2", "node2_pub": "D"})
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        (tmp_path / "cfg.json").write_text(json.dumps(SMALL_RUN))
        assert cli.main(["run", "--snapshot", str(tmp_path / "snapshot.json"),
                         "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "r")]) == 0
        captured = capsys.readouterr()
        output = captured.out + captured.err + caplog.text
        assert output.count("1 channel records") == 1
        assert "snapshot load rejected 1 channel records" in caplog.text

    def test_run_flags_map_to_config(self, tmp_path, monkeypatch):
        # each flag sets its config field, for `run` and for every sweep cell
        configs = []

        def record_config(graph, cfg, table):
            configs.append(cfg)
            return ExperimentResult(records=[])

        monkeypatch.setattr(cli, "run_experiment", record_config)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**SMALL_RUN, "base_seed": 3}))
        flags = ["--paper-t4", "--no-timelock-reduction", "--no-source-attack", "--seed", "7"]
        for command, cells in (
            (["run"], [("central", 1)]),
            (["sweep", "--m", "1", "2"], [("central", 1), ("central", 2),
                                          ("random", 1), ("random", 2)]),
        ):
            for options, fields in (([], (6, True, True, 3)), (flags, (4, False, False, 7))):
                configs.clear()
                assert cli.main([*command, "--synthetic", "path:4", "--config", str(cfg_file),
                                 "--out", str(tmp_path / "out"), *options]) == 0
                assert [(c.scenario, c.m) for c in configs] == cells
                assert [(c.traversal_weight, c.timelock_reduction, c.retry_attack, c.base_seed)
                        for c in configs] == [fields] * len(cells)

    def test_bad_synthetic_spec(self, tmp_path, capsys):
        code = cli.main(["run", "--synthetic", "wat", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("document, message", [
        ({"nodes": [{"pub_key": "A"}, {"region": "EU"}], "edges": []}, "nodes[1]: missing pub_key"),
        ([{"pub_key": "A"}], "must be a mapping"),
        ({"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
          "edges": [{"channel_id": "c0", "node1_pub": "A", "node2_pub": "B",
                     "capacity_sat": -5}]},
         "edges[0]: negative capacity_sat -5"),
        ({"nodes": [{"pub_key": "A", "region": "EU"}, {"pub_key": "A", "region": "NA"}],
          "edges": []},
         "nodes[1]: duplicate pub_key A"),
        ({"nodes": [{"pub_key": "A"}], "edges": []}, "workload needs at least two nodes"),
        (policy_snapshot(time_lock_delta=10**400),
         "malformed policy in edges[0]: timelock_delta must be in 0..4294967295"),
        (policy_snapshot(base_fee_msat=10**400),
         "malformed policy in edges[0]: base_fee_msat must be in 0..4294967295"),
        (policy_snapshot(fee_rate_ppm=2**32),
         "malformed policy in edges[0]: fee_rate_ppm must be in 0..4294967295"),
        (b"\xff{}", "can't decode byte 0xff"),
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        ({"nodes": [{"pub_key": "A"}, {"pub_key": "B"}, {"pub_key": "C"}],
          "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b,
                     "capacity_sat": 1_000_000, "node1_policy": None, "node2_policy": None}
                    for cid, a, b in (("c0", "A", "B"), ("c1", "B", "C"))]},
         "amounts_sat 100000 exceeds the largest channel capacity, 0 sat"),
        ({"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
          "edges": [{"channel_id": "c0", "node1_pub": "A", "node2_pub": "B",
                     "capacity_sat": 1.5}]},
         "edges[0]: capacity_sat must be an integer, got 1.5"),
        (policy_snapshot(fee_rate_ppm=True),
         "malformed policy in edges[0]: fee_rate_ppm must be an integer, got True"),
        (policy_snapshot(time_lock_delta="40"),
         "malformed policy in edges[0]: time_lock_delta must be an integer, got '40'"),
        (policy_snapshot(disabled="false"),
         "malformed policy in edges[0]: disabled must be true or false, got 'false'"),
    ], ids=["node-without-pub-key", "top-level-list", "negative-capacity", "duplicate-pub-key",
            "one-node", "huge-time-lock-delta", "huge-base-fee", "fee-rate-above-u32",
            "not-utf-8", "nested-too-deeply", "every-channel-disabled", "fractional-capacity",
            "boolean-fee-rate", "string-time-lock-delta", "string-disabled"])
    def test_malformed_snapshot_clean_error(self, tmp_path, capsys, document, message):
        snap = tmp_path / "snapshot.json"
        write_input(snap, document)
        code = cli.main(["run", "--snapshot", str(snap), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("document, options", [
        ([1, 2], []),
        ({**SMALL_RUN, "amounts_sat": 5}, []),
        ({**SMALL_RUN, "amounts_sat": [0]}, []),
        ({**SMALL_RUN, "amounts_sat": ["10"]}, []),
        ({**SMALL_RUN, "traversal_weight": 0}, []),
        ({**SMALL_RUN, "probes_per_path": -1}, []),
        ({**SMALL_RUN, "probes_per_path": 1}, []),
        ({**SMALL_RUN, "payments_per_run": 0}, []),
        ({**SMALL_RUN, "risk_factor": -1}, []),
        ({**SMALL_RUN, "final_cltv_delta": -3}, []),
        ({**SMALL_RUN, "scenario": "list", "node_list": "n001"}, []),
        ({**SMALL_RUN, "risk_factor": float("inf")}, []),
        ({**SMALL_RUN, "repetitions": 1.5}, []),
        ({**SMALL_RUN, "base_seed": "x"}, []),
        ({**SMALL_RUN, "m": True}, []),
        ({**SMALL_RUN, "payments_per_run": 2.5}, []),
        ({**SMALL_RUN, "retry_attack": "no"}, []),
        ({**SMALL_RUN, "base_seed": -1}, []),
        (SMALL_RUN, ["--seed", "-1"]),
        ({**SMALL_RUN, "amounts_sat": [True]}, []),
        ({**SMALL_RUN, "workload_mode": "per-amount"}, []),
        ({**SMALL_RUN, "scenario": "list", "node_list": []}, []),
        ({**SMALL_RUN, "scenario": "list", "node_list": ["nope"]}, []),
        ({**SMALL_RUN, "m": 50}, []),
        ({**SMALL_RUN, "scenario": "random", "m": 5}, []),
        (b"\xff{}", []),
        (b"[" * 200_000, []),
        ({**SMALL_RUN, "traversal_weight": 10**400}, []),
        ({**SMALL_RUN, "traversal_weight": 1_001}, []),
        ({**SMALL_RUN, "amounts_sat": [2_000_000]}, []),
    ], ids=[
        "top-level-list", "amounts-not-a-list", "zero-amount", "string-amount",
        "zero-traversal-weight", "negative-probes", "one-probe", "zero-payments",
        "negative-risk-factor", "negative-final-cltv-delta", "node-list-not-a-list",
        "infinite-risk-factor", "fractional-repetitions", "string-seed", "boolean-m",
        "fractional-payments", "string-retry-attack", "negative-seed",
        "negative-seed-option", "boolean-amount", "unknown-field",
        "empty-node-list", "unknown-node", "m-exceeds-nodes", "random-m-exceeds-nodes",
        "not-utf-8", "nested-too-deeply", "huge-traversal-weight",
        "traversal-weight-above-bound", "amount-above-capacity",
    ])
    def test_malformed_config_clean_error(self, tmp_path, capsys, document, options):
        cfg_file = tmp_path / "cfg.json"
        write_input(cfg_file, document)
        code = cli.main([
            "run", "--synthetic", "path:4", "--config", str(cfg_file),
            "--out", str(tmp_path / "r"), *options,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "r").exists()

    def test_out_is_a_file_clean_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = cli.main(["run", "--synthetic", "path:4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert out.read_text() == "not a directory"

    def test_convert_malformed_clean_error(self, tmp_path, capsys):
        src = tmp_path / "describegraph.json"
        out = tmp_path / "snapshot.json"
        for document, message in [
            ([{"pub_key": "A"}], "must be a mapping"),
            (b"\xff{}", "can't decode byte 0xff"),
            (b"[" * 200_000, "maximum recursion depth exceeded"),
            (lnd_dump(capacity=1.5), "edges[0]: capacity must be an integer, got 1.5"),
            (lnd_dump(capacity="1e3"), "edges[0]: capacity must be an integer, got '1e3'"),
            (lnd_dump(time_lock_delta=40.9),
             "edges[0]: time_lock_delta must be an integer, got 40.9"),
            (lnd_dump(fee_rate_milli_msat=True),
             "edges[0]: fee_rate_milli_msat must be an integer, got True"),
            (lnd_dump(disabled="false"), "edges[0]: disabled must be true or false, got 'false'"),
            (lnd_dump(channel_id=None), "edges[0]: channel_id must be a non-empty string or a "
                                        "non-negative integer, got None"),
        ]:
            write_input(src, document)
            assert cli.main(["convert", str(src), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert not out.exists()

    @pytest.mark.parametrize("table, message", [
        ("region,rtt\nEU,40\n", "line 2: missing region_a"),
        ("region_a,region_b,rtt_mean_ms,rtt_std_ms\nEU,NA,40,5\nEU,EU,abc,3\n",
         "line 3: could not convert string to float: 'abc'"),
        (None, "No such file or directory"),
        ("region_a,region_b,rtt_mean_ms,rtt_std_ms\nEU,EU,-40,1\n", "line 2: round-trip time"),
        ("region_a,region_b,rtt_mean_ms,rtt_std_ms\nEU,EU,nan,1\n", "line 2: round-trip time"),
        ("region_a,region_b,rtt_mean_ms,rtt_std_ms\nEU,EU,inf,1\n", "line 2: round-trip time"),
        ("region_a,region_b,rtt_mean_ms,rtt_std_ms\nEU,EU,40,1e308\n", "line 2: round-trip time"),
        (b"\xffregion_a,region_b,rtt_mean_ms,rtt_std_ms\n", "can't decode byte 0xff"),
    ], ids=["missing-column", "non-numeric-rtt", "missing-file", "negative", "nan", "inf", "1e308",
            "not-utf-8"])
    def test_malformed_latency_table_clean_error(self, tmp_path, capsys, table, message):
        path = tmp_path / "rtt.csv"
        if isinstance(table, bytes):
            path.write_bytes(table)
        elif table is not None:
            path.write_text(table)
        code = cli.main([
            "run", "--synthetic", "path:3", "--latency-table", str(path),
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "rtt.csv" in err
        assert not (tmp_path / "r").exists()

    def test_imports_without_networkx(self, tmp_path):
        # networkx is a dev extra: the package and its CLI must not need it
        src = Path(__file__).resolve().parent.parent / "src"
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                "sys.modules['networkx'] = None; import pcnsim, pcnsim.cli")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, template", [
        (["sweep", "--synthetic", "path:4", "--m", "1", "--config"],
         {**SMALL_RUN, "traversal_weight": "HUGE"}),
        (["run", "--snapshot"],
         {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
          "edges": [{"channel_id": "c0", "node1_pub": "A", "node2_pub": "B",
                     "capacity_sat": "HUGE"}]}),
        (["convert"],
         {"nodes": [{"pub_key": "A"}, {"pub_key": "B"}],
          "edges": [{"channel_id": "7", "node1_pub": "A", "node2_pub": "B",
                     "capacity": "HUGE"}]}),
    ], ids=["config", "snapshot", "describegraph"])
    def test_integer_beyond_digit_limit_clean_error(self, tmp_path, capsys, argv, template):
        # an integer of more digits than `int` parses (4,300 by default)
        document = tmp_path / "input.json"
        document.write_text(json.dumps(template).replace('"HUGE"', "1" + "0" * 5_000))
        out = tmp_path / "out"
        assert cli.main([*argv, str(document), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {document}: Exceeds the limit")
        assert not out.exists()

    def test_sweep_writes_one_row_per_cell(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**SMALL_RUN, "amounts_sat": [100, 1000]}))
        out = tmp_path / "out"
        code = cli.main(["sweep", "--synthetic", "scale-free:10", "--m", "1", "2",
                         "--config", str(cfg_file), "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == AGGREGATE_CSV_FIELDS
        assert [tuple(row[:5]) for row in rows] == [
            (scenario, m, amount, estimator, target)
            for scenario in ("central", "random")
            for m in ("1", "2")
            for amount in ("100", "1000")
            for estimator in ("first_spy", "timing")
            for target in ("both", "destination", "source")
        ]

    def test_sweep_rows_equal_run_aggregates(self, tmp_path):
        # one aggregate definition: each cell's sweep rows are the bytes
        # `pcnsim run` writes to metrics_aggregate.csv for that cell's config
        base = {**SMALL_RUN, "amounts_sat": [10, 100], "repetitions": 2}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(base))
        graph = ["--synthetic", "scale-free:10"]
        assert cli.main(["sweep", *graph, "--m", "1", "2", "--config", str(cfg_file),
                         "--out", str(tmp_path / "sweep")]) == 0
        rows = []
        for scenario in ("central", "random"):
            for m in (1, 2):
                cell = tmp_path / f"{scenario}-{m}"
                cell_cfg = tmp_path / f"{scenario}-{m}.json"
                cell_cfg.write_text(json.dumps({**base, "scenario": scenario, "m": m}))
                assert cli.main(["run", *graph, "--config", str(cell_cfg),
                                 "--out", str(cell)]) == 0
                header, *cell_rows = (cell / "metrics_aggregate.csv").read_bytes().splitlines(True)
                assert len(cell_rows) == 2 * 6
                rows += cell_rows
        sweep = (tmp_path / "sweep" / "sweep.csv").read_bytes().splitlines(True)
        assert sweep == [header, *rows]

    def test_sweep_rejects_synthetic_without_size(self, tmp_path, capsys):
        code = cli.main(["sweep", "--synthetic", "scale-free", "--m", "1",
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error: --synthetic wants kind:n, got 'scale-free'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_sweep_rejects_malformed_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**SMALL_RUN, "payments_per_run": 0}))
        code = cli.main(["sweep", "--synthetic", "path:4", "--m", "1", "--config", str(cfg_file),
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error: payments_per_run must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_sweep_out_is_a_file_clean_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        code = cli.main(["sweep", "--synthetic", "path:4", "--m", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "taken" in err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("m, message", [
        ("5", "error: m=5 exceeds 3 nodes"),
        ("0", "error: m must be >= 1"),
    ], ids=["m-exceeds-nodes", "zero-m"])
    def test_sweep_rejects_any_bad_cell(self, tmp_path, capsys, m, message):
        # every cell is checked before any run, the valid m=1 cells too
        code = cli.main(["sweep", "--synthetic", "path:3", "--m", "1", m,
                         "--out", str(tmp_path / "r")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--m", "1", "--scenarios", "central"],
    ], ids=["run", "sweep"])
    def test_fails_when_every_repetition_aborts(self, tmp_path, monkeypatch, capsys, command):
        def abort(*args):
            raise RuntimeError("run aborted on purpose")

        monkeypatch.setattr(harness, "run_single", abort)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**SMALL_RUN, "repetitions": 2}))
        code = cli.main([*command, "--synthetic", "path:3", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        failed = [line for line in err.splitlines() if line.startswith("FAILED: ")]
        assert len(failed) == 2 and all("run aborted on purpose" in line for line in failed)

    @staticmethod
    def run_preset(tmp_path, preset, graph, **changes):
        cfg_file = tmp_path / "preset.json"
        cfg_file.write_text(json.dumps({**preset(), **changes}))
        return cli.main(["run", *graph, "--config", str(cfg_file), "--out", str(tmp_path / "r")])

    @ablation_preset
    def test_scripts_reject_synthetic_without_size(self, tmp_path, capsys, preset):
        assert self.run_preset(tmp_path, preset, ["--synthetic", "scale-free"]) == 2
        assert "error: --synthetic wants kind:n, got 'scale-free'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @ablation_preset
    def test_scripts_reject_malformed_config(self, tmp_path, capsys, preset):
        code = self.run_preset(tmp_path, preset, ["--synthetic", "path:4"], payments_per_run=0)
        assert code == 2
        assert "error: payments_per_run must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @ablation_preset
    def test_scripts_reject_graph_dependent_config(self, tmp_path, capsys, preset):
        # the preset's m=4 is checked once against the graph, before any run
        assert self.run_preset(tmp_path, preset, ["--synthetic", "path:3"]) == 2
        assert "error: m=4 exceeds 3 nodes" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_ablation_without_destination_observations(self, tmp_path, capsys):
        # on path:2 every payment runs between the only two nodes, so the
        # adversary forwards none and has no delta to report
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**SMALL_RUN, "report_ablation": True}))
        code = cli.main(["run", "--synthetic", "path:2", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        ablation = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("timelock-reduction ablation")]
        assert ablation == [
            "timelock-reduction ablation (destination): no destination observations collected"
        ]


# What a fuzzed field becomes: a huge integer, a huge float, NaN, Infinity, a
# string, a nested list or null.
FUZZ_VALUES = (2**64, 10**400, 1e308, math.nan, math.inf, "x", [[1]], None)
_DELETE = object()


def _paths(document, prefix=()):
    """Every path into `document`, the root first, then each key and index."""
    yield prefix
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _mutated(document, path, value=_DELETE):
    """A copy of `document` with the field at `path` replaced by `value`, or deleted."""
    if not path:
        return value
    document = copy.deepcopy(document)
    holder = document
    for key in path[:-1]:
        holder = holder[key]
    if value is _DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    return document


def mutated_texts(document, dumps=json.dumps):
    """The text of `document` with one field replaced by a `FUZZ_VALUES`
    entry or deleted, or the text truncated."""
    paths = list(_paths(document))
    text = dumps(document)
    return st.one_of(
        st.tuples(st.sampled_from(paths), st.sampled_from(FUZZ_VALUES)).map(
            lambda change: dumps(_mutated(document, *change))),
        st.sampled_from(paths[1:]).map(lambda path: dumps(_mutated(document, path))),
        st.integers(0, len(text) - 1).map(lambda n: text[:n]),
    )


def table_text(rows) -> str:
    """A latency table's CSV text: each cell as written if text, else as JSON."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows if isinstance(rows, list) else [rows]:
        cells = row if isinstance(row, list) else [row]
        writer.writerow([c if isinstance(c, str) else json.dumps(c) for c in cells])
    return out.getvalue()


FUZZ_CONFIG = {**SMALL_RUN, "scenario": "list", "m": 1, "node_list": ["n001"], "base_seed": 0,
               "retry_attack": True, "timelock_reduction": True, "traversal_weight": 6,
               "max_estimates_per_channel": 3, "report_ablation": False,
               "export_timeline": False}
FUZZ_POLICY = {"base_fee_msat": 1000, "fee_rate_ppm": 10, "time_lock_delta": 40,
               "disabled": False}
FUZZ_SNAPSHOT = {
    "nodes": [{"pub_key": "A", "region": "EU"}, {"pub_key": "B", "region": "NA"},
              {"pub_key": "C"}],
    "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b, "capacity_sat": 1000,
               "node1_policy": FUZZ_POLICY, "node2_policy": FUZZ_POLICY}
              for cid, a, b in (("c0", "A", "B"), ("c1", "B", "C"))],
}
FUZZ_LND_POLICY = {"fee_base_msat": "1000", "fee_rate_milli_msat": "10", "time_lock_delta": 40,
                   "disabled": False}
FUZZ_DUMP = {
    "nodes": [{"pub_key": "A"}, {"pub_key": "B"}, {"pub_key": "C"}],
    "edges": [{"channel_id": cid, "node1_pub": a, "node2_pub": b, "capacity": "1000",
               "node1_policy": FUZZ_LND_POLICY, "node2_policy": FUZZ_LND_POLICY}
              for cid, a, b in (("7", "A", "B"), (8, "B", "C"))],
}
FUZZ_TABLE = [["region_a", "region_b", "rtt_mean_ms", "rtt_std_ms"], ["EU", "NA", "110", "25"],
              ["EU", "EU", "40", "12"]]
fuzz_settings = settings(max_examples=150, deadline=None)


class TestCliFuzz:
    """`cli.main` on a valid input of each kind with one field replaced or
    deleted, or its text truncated: `run` reaches its experiment, stubbed
    here, or exits 2, `convert` writes a snapshot that `load_snapshot`
    loads or rejects, or exits 2, and exit 2 prints one `error:` line,
    never a traceback, and writes nothing."""

    @staticmethod
    def main(argv, out):
        calls = []

        def stub(graph, cfg, table):
            calls.append(cfg)
            return ExperimentResult(records=[])

        err = io.StringIO()
        with mock.patch.object(cli, "run_experiment", stub), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([*argv, "--out", str(out)])
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert [line.startswith("error:") for line in err.getvalue().splitlines()] == [True]
            assert not out.exists()
        return code, calls

    def run(self, files, argv):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for name, text in files.items():
                (tmp / name).write_text(text)
            code, calls = self.main([arg.format(tmp=tmp) for arg in argv], tmp / "out")
        assert (code, len(calls)) in ((0, 1), (2, 0))

    @given(text=mutated_texts(FUZZ_CONFIG))
    @fuzz_settings
    def test_config(self, text):
        self.run({"cfg.json": text},
                 ["run", "--synthetic", "path:4", "--config", "{tmp}/cfg.json"])

    @given(text=mutated_texts(FUZZ_TABLE, table_text))
    @fuzz_settings
    def test_latency_table(self, text):
        self.run({"cfg.json": json.dumps(SMALL_RUN), "rtt.csv": text},
                 ["run", "--synthetic", "path:4", "--config", "{tmp}/cfg.json",
                  "--latency-table", "{tmp}/rtt.csv"])

    @given(text=mutated_texts(FUZZ_SNAPSHOT))
    @fuzz_settings
    def test_snapshot(self, text):
        self.run({"cfg.json": json.dumps(SMALL_RUN), "snapshot.json": text},
                 ["run", "--snapshot", "{tmp}/snapshot.json", "--config", "{tmp}/cfg.json"])

    @given(text=mutated_texts(FUZZ_DUMP))
    @fuzz_settings
    def test_describegraph(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / "describegraph.json", Path(tmp) / "snapshot.json"
            src.write_text(text)
            code, _ = self.main(["convert", str(src)], out)
            if code == 0:
                try:
                    load_snapshot(json.loads(out.read_text()))
                except SnapshotError:
                    pass
        assert code in (0, 2)
