"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the heavy estimator-ordering and
monotonicity runs share the module-scoped 200-node topology.
"""

import time
from collections import deque

import numpy as np
import pytest

from pcnsim.adversary import AdversaryConfig, estimate_endpoint
from pcnsim.graph import ConservationError, check_conservation
from pcnsim.harness import (
    ScenarioConfig,
    build_latency_model,
    build_scenario,
    emit_results,
    generate_synthetic_graph,
    generate_workload,
    run_experiment,
    run_single,
)
from pcnsim.latency import Gaussian, LatencyModel, aggregate_models, EdgeLatencyEstimate, path_distribution
from pcnsim.routing import Payment, find_route, path_from_channels
from pcnsim.sim import ADD, FULFILL, PaymentEngine
from conftest import make_graph, split_balances
from oracles import brute_estimate, observation_walk_inputs
from pipeline import mixed_topology_graph, simulate_observations, true_latency_model

MS = 1_000_000


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def big_graph():
    return generate_synthetic_graph("scale-free", 200, seed=11)


def test_criterion_1_estimator_oracle_equivalence():
    start = time.time()
    total = matched = 0
    for idx in range(50):
        g, balances, latencies = mixed_topology_graph(idx)
        names = sorted(g.nodes)
        malicious = names[1:3] if idx % 2 else names[:2]
        observer, _ = simulate_observations(g, balances, latencies, malicious, 25, seed=idx)
        model = true_latency_model(latencies)
        cfg = AdversaryConfig(frozenset(malicious))
        for inputs in observer.estimation_inputs().values():
            for obs in inputs.values():
                result = estimate_endpoint(obs, g, model, cfg)
                anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
                top, _ = brute_estimate(
                    g=g, model=model, obs_edge_id=obs.edge_observed,
                    observer=obs.observer, delta_ms=obs.delta_t_ms,
                    seed_amount=seed_amt, direction=direction, budget=budget,
                )
                total += 1
                matched += result.top == top
    elapsed = time.time() - start
    ok = total >= 500 and matched == total and elapsed < 120
    _report(1, ok, f"{matched}/{total} top candidates match brute force ({elapsed:.1f}s)")


def test_criterion_2_message_count_ground_truth():
    names = ["a", "b", "c", "d", "e"]
    rows = [(f"e{i}", names[i], names[i + 1]) for i in range(4)]
    checks = []
    for hops in (1, 2, 3, 4):
        g, latencies = make_graph(names, rows)
        engine = PaymentEngine(g, split_balances(g), latencies,  # fresh balances per run
                               np.random.default_rng(0))
        path = path_from_channels(g, "a", [f"e{i}" for i in range(hops)], 50_000)
        outcome = engine.execute_payment(path, f"L{hops}")
        checks.append(outcome.completed_at - outcome.started_at == hops * 60 * MS)
        # every intermediary's forward->fulfill span is 6 traversals per
        # downstream edge
        for i in range(1, hops):
            node = names[i]
            t0 = next(m.sent_at for m in outcome.messages if m.kind == ADD and m.frm == node)
            t1 = next(m.delivered_at for m in outcome.messages
                      if m.kind == FULFILL and m.to == node)
            checks.append(t1 - t0 == (hops - i) * 60 * MS)
    _report(2, all(checks), f"{len(checks)} exact 6*L*latency checks at sigma=0")


def _hop_distances(g, start):
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for ch in g.channels_at(node):
            other = ch.other_end(node)
            if other not in dist:
                dist[other] = dist[node] + 1
                frontier.append(other)
    return dist


def _latency_test_graph(n, seed, relative_sigma):
    """(graph, balances, latencies) of a scale-free graph."""
    g = generate_synthetic_graph("scale-free", n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    latencies = {}
    for cid in sorted(g.channels):
        mean = float(rng.integers(8, 80))
        latencies[cid] = Gaussian(mean, relative_sigma * mean)
    return g, split_balances(g), latencies


def test_criterion_3_latency_model_recovery():
    start = time.time()
    # noiseless: every probed edge mean is recovered bit-exactly
    g, balances, latencies = _latency_test_graph(30, seed=21, relative_sigma=0.0)
    from pcnsim.graph import betweenness_ranking

    vantage = betweenness_ranking(g)[0]
    cfg = ScenarioConfig(amounts_sat=(1,), probes_per_path=5, probe_max_depth=3)
    model, _ = build_latency_model(g, balances, latencies, frozenset({vantage}), cfg,
                                   np.random.SeedSequence(0))
    dist = _hop_distances(g, vantage)
    within = {
        cid for cid, ch in g.channels.items()
        if min(dist[ch.u], dist[ch.v]) < 3
    }
    coverage_ok = within <= set(model.edges)
    exact = [model.edges[cid].mean == latencies[cid].mean for cid in model.edges]
    # noisy: 100 probes per path, recovered means within 10% for >= 95% of edges
    gn, balances_n, latencies_n = _latency_test_graph(30, seed=21, relative_sigma=0.2)
    cfg_n = ScenarioConfig(amounts_sat=(1,), probes_per_path=100, probe_max_depth=3)
    model_n, _ = build_latency_model(gn, balances_n, latencies_n, frozenset({vantage}), cfg_n,
                                     np.random.SeedSequence(7))
    rel_ok = [
        abs(model_n.edges[cid].mean - latencies_n[cid].mean) <= 0.10 * latencies_n[cid].mean
        for cid in model_n.edges
    ]
    share = sum(rel_ok) / len(rel_ok)
    elapsed = time.time() - start
    ok = coverage_ok and all(exact) and share >= 0.95 and elapsed < 60
    _report(
        3,
        ok,
        f"{len(exact)} noiseless edges exact, {share:.1%} of {len(rel_ok)} noisy edges "
        f"within 10% ({elapsed:.1f}s)",
    )


def test_criterion_4_gaussian_arithmetic():
    model = LatencyModel(edges={"a": Gaussian(1.0, 2.0), "b": Gaussian(2.0, 3.0)})
    total = path_distribution(model, ["a", "b"], weights=[1, 1])
    sum_ok = (
        abs(total.mean - 3.0) <= 1e-9 * 3.0
        and abs(total.variance - 13.0) <= 1e-9 * 13.0
    )
    agg = aggregate_models(
        [
            EdgeLatencyEstimate("c", Gaussian(10.0, 0.0), 10, "m0", 1),
            EdgeLatencyEstimate("c", Gaussian(16.0, 0.0), 10, "m1", 2),
        ]
    )
    agg_ok = abs(agg.edges["c"].mean - 12.0) <= 1e-9 * 12.0
    _report(4, sum_ok and agg_ok, "N(1,4)+N(2,9)=N(3,13) and 1/d-weighted mean = 12")


def test_criterion_5_estimator_ordering(big_graph):
    start = time.time()
    seeds = range(30)
    ms = (1, 5, 10)
    cells = []
    deanon = {"timing": [], "first_spy": []}
    for m in ms:
        cfg = ScenarioConfig(
            scenario="central", m=m, amounts_sat=(1000,), payments_per_run=1000,
            repetitions=1, probes_per_path=10, probe_max_depth=3,
            max_estimates_per_channel=2,
        )
        for seed in seeds:
            rec = run_single(big_graph, cfg, amount_sat=1000, seed=seed)
            reps = {(r.estimator, r.target): r for r in rec.reports}
            cells.append(
                reps[("timing", "source")].f1 >= reps[("first_spy", "source")].f1
                and reps[("timing", "destination")].f1 >= reps[("first_spy", "destination")].f1
            )
            deanon["timing"].append(reps[("timing", "both")].f1)
            deanon["first_spy"].append(reps[("first_spy", "both")].f1)
    share = sum(cells) / len(cells)
    mean_timing = sum(deanon["timing"]) / len(deanon["timing"])
    mean_fs = sum(deanon["first_spy"]) / len(deanon["first_spy"])
    elapsed = time.time() - start
    ok = share >= 0.90 and mean_timing > mean_fs and elapsed < 900
    _report(
        5,
        ok,
        f"timing>=first-spy on both targets in {share:.1%} of {len(cells)} (m,seed) "
        f"cells; full-deanonymization F1 {mean_timing:.3f} vs {mean_fs:.3f} "
        f"({elapsed / 60:.1f} min)",
    )


def test_criterion_6_compromised_share_monotonicity(big_graph):
    start = time.time()
    ranked_ms = (1, 2, 4, 8, 16)
    central_share = {m: [] for m in ranked_ms}
    random_share = {m: [] for m in ranked_ms}
    base_cfg = ScenarioConfig(
        scenario="central", m=1, amounts_sat=(1000,), payments_per_run=400, repetitions=1
    )
    for seed in range(30):
        wl = generate_workload(big_graph, base_cfg, np.random.default_rng(seed), 1000)
        intermediaries = []
        for s, t, amount in wl:
            path = find_route(big_graph, Payment(s, t, amount))
            if path is not None:
                intermediaries.append(set(path.intermediaries()))
        for m in ranked_ms:
            central = build_scenario(
                big_graph, ScenarioConfig(scenario="central", m=m, amounts_sat=(1,)), seed
            ).malicious_nodes
            rand = build_scenario(
                big_graph, ScenarioConfig(scenario="random", m=m, amounts_sat=(1,)), seed
            ).malicious_nodes
            total = len(intermediaries)
            central_share[m].append(sum(1 for i in intermediaries if i & central) / total)
            random_share[m].append(sum(1 for i in intermediaries if i & rand) / total)
    central_means = [sum(central_share[m]) / 30 for m in ranked_ms]
    random_means = [sum(random_share[m]) / 30 for m in ranked_ms]
    monotone = all(a <= b + 1e-12 for a, b in zip(central_means, central_means[1:]))
    dominated = all(r <= c + 1e-12 for r, c in zip(random_means, central_means))
    elapsed = time.time() - start
    detail = (
        f"central means {[round(x, 3) for x in central_means]} non-decreasing; "
        f"random means {[round(x, 3) for x in random_means]} dominated ({elapsed:.0f}s)"
    )
    _report(6, monotone and dominated, detail)


def test_criterion_7_shadow_route_ablation_hook():
    g = generate_synthetic_graph("scale-free", 30, seed=3)
    cfg = ScenarioConfig(
        scenario="central", m=2, amounts_sat=(100,), payments_per_run=300,
        repetitions=1, probes_per_path=10, report_ablation=True,
    )
    rec = run_single(g, cfg, amount_sat=100, seed=1)
    d_precision, d_recall = rec.ablation_delta
    print(
        "timelock-reduction ablation (destination): "
        f"precision delta {d_precision:+.4f}, recall delta {d_recall:+.4f}"
    )
    ok = all(np.isfinite(v) for v in rec.ablation_delta)
    _report(7, ok, f"ablation delta reported: dD={d_precision:+.4f} dR={d_recall:+.4f} (not gated)")


def test_criterion_8_determinism_byte_identical(tmp_path):
    g = generate_synthetic_graph("scale-free", 15, seed=9)
    cfg = ScenarioConfig(
        scenario="central", m=2, amounts_sat=(10, 1000), payments_per_run=40,
        repetitions=2, probes_per_path=5, probe_max_depth=2,
    )
    contents = []
    for run_dir in ("one", "two"):
        result = run_experiment(g, cfg)
        out = tmp_path / run_dir
        emit_results(result, out)
        contents.append(
            ((out / "metrics.csv").read_bytes(), (out / "metrics_aggregate.csv").read_bytes())
        )
    ok = contents[0] == contents[1]
    _report(8, ok, "two identical invocations emit byte-identical metric CSVs")


def test_criterion_9_channel_conservation():
    g = generate_synthetic_graph("scale-free", 15, seed=9)
    cfg = ScenarioConfig(
        scenario="central", m=2, amounts_sat=(1000,), payments_per_run=60,
        repetitions=2, probes_per_path=5, probe_max_depth=2,
    )
    result = run_experiment(g, cfg)
    clean = not result.failures and len(result.records) == 2
    # a violated channel must fail the run, not pass silently
    g2 = generate_synthetic_graph("path", 3)
    balances = split_balances(g2)
    balances[next(iter(balances))] += 1
    try:
        check_conservation(g2, balances)
        caught = False
    except ConservationError:
        caught = True
    _report(
        9,
        clean and caught,
        "every experiment run re-verified bal_uv + bal_vu = cap; tampering raises",
    )
