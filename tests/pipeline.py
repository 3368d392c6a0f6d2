"""Shared test pipeline: fixture graphs, simulated payments, observations."""

from __future__ import annotations

import numpy as np

from pcnsim.adversary import AdversaryConfig, AdversaryObserver
from pcnsim.latency import Gaussian, LatencyModel
from pcnsim.routing import Payment, find_route
from pcnsim.sim import PaymentEngine
from conftest import make_graph, split_balances


def mixed_topology_graph(idx: int):
    """Seeded small graph from one of five families, with noisy latencies:
    (graph, balances, latencies)."""
    rng = np.random.default_rng(1000 + idx)
    n = int(rng.integers(6, 13))
    names = [f"n{i:02d}" for i in range(n)]
    rows = []

    def row(cid, a, b):
        mean = float(rng.integers(8, 60))
        return (cid, a, b, {"latency_ms": mean, "sigma_ms": 0.2 * mean,
                            "capacity_sat": 2_000_000})

    family = idx % 5
    if family == 0:  # random tree
        for i in range(1, n):
            rows.append(row(f"t{i:02d}", names[i], names[int(rng.integers(0, i))]))
    elif family == 1:  # ring
        for i in range(n):
            rows.append(row(f"r{i:02d}", names[i], names[(i + 1) % n]))
    elif family == 2:  # star
        for i in range(1, n):
            rows.append(row(f"s{i:02d}", names[0], names[i]))
    elif family == 3:  # path
        for i in range(n - 1):
            rows.append(row(f"p{i:02d}", names[i], names[i + 1]))
    else:  # two hubs
        for i in range(2, n):
            rows.append(row(f"h{i:02d}", names[i % 2], names[i]))
        rows.append(row("hub", names[0], names[1]))
    for k in range(int(rng.integers(1, 4))):  # a few chords
        i, j = rng.integers(0, n, size=2)
        if i != j:
            rows.append(row(f"x{k:02d}", names[int(i)], names[int(j)]))
    g, latencies = make_graph(names, rows)
    return g, split_balances(g), latencies


def true_latency_model(latencies, traversal_weight=6) -> LatencyModel:
    """The adversary's best case: the model equals the real edge latencies."""
    return LatencyModel(
        edges={cid: Gaussian(lat.mean, lat.std) for cid, lat in latencies.items()},
        traversal_weight=traversal_weight,
    )


def simulate_observations(graph, balances, latencies, malicious, n_payments, seed, retry=True):
    """Route and execute random payments with an observing adversary.

    Returns (observer, truth dict payment_id -> (source, dest)).
    """
    cfg = AdversaryConfig(
        malicious_nodes=frozenset(malicious), source_attack_enabled=retry
    )
    observer = AdversaryObserver(cfg)
    engine = PaymentEngine(graph, balances, latencies, np.random.default_rng(seed), observer)
    rng = np.random.default_rng(seed + 1)
    nodes = sorted(graph.nodes)
    truth = {}
    for i in range(n_payments):
        s, t = (nodes[int(x)] for x in rng.integers(len(nodes), size=2))
        if s == t:
            continue
        amount = int(rng.integers(1, 200)) * 1000
        path = find_route(graph, Payment(s, t, amount))
        if path is None:
            continue
        pid = f"p{i:04d}"
        outcome = engine.execute_payment(path, pid)
        if outcome.status == "failed" and retry and observer.adversarially_failed(pid):
            outcome = engine.execute_payment(path, pid)
        truth[pid] = (s, t)
    return observer, truth
