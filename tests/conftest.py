import numpy as np
import pytest

from pcnsim.graph import Channel, ChannelGraph, DirectedPolicy, Node
from pcnsim.latency import Gaussian
from pcnsim.sim import NodeBehavior


def make_graph(nodes, channels, capacity_sat=1_000_000, base_fee=1_000,
               rate_ppm=10, delta=40, latency_ms=10.0, sigma_ms=0.0):
    """Small fixture builder: the graph and its channels' true latencies.

    `channels` rows: (cid, u, v) or (cid, u, v, overrides) where overrides
    may set capacity_sat, per-direction policy fields or latency.
    """
    g = ChannelGraph()
    latencies = {}
    for n in nodes:
        g.add_node(Node(id=n))
    for row in channels:
        cid, u, v = row[:3]
        over = row[3] if len(row) > 3 else {}
        cap = over.get("capacity_sat", capacity_sat)

        def policy(side):
            return DirectedPolicy(
                base_fee_msat=over.get(f"base_fee_{side}", over.get("base_fee", base_fee)),
                fee_rate_ppm=over.get(f"rate_ppm_{side}", over.get("rate_ppm", rate_ppm)),
                timelock_delta=over.get(f"delta_{side}", over.get("delta", delta)),
                enabled=over.get(f"enabled_{side}", over.get("enabled", True)),
            )

        a, b = sorted((u, v))
        g.add_channel(
            Channel(
                id=cid,
                u=a,
                v=b,
                capacity_msat=cap * 1000,
                policy_uv=policy("uv"),
                policy_vu=policy("vu"),
            )
        )
        latencies[cid] = Gaussian(over.get("latency_ms", latency_ms),
                                  over.get("sigma_ms", sigma_ms))
    return g, latencies


def split_balances(g):
    """Half of each channel's capacity to either end, the odd msat to u."""
    balances = {}
    for cid, ch in g.channels.items():
        half = ch.capacity_msat // 2
        balances[cid, ch.u] = ch.capacity_msat - half
        balances[cid, ch.v] = half
    return balances


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def line_graph():
    """a - b - c - d, uniform 10 ms edges: (graph, balances, latencies)."""
    g, latencies = make_graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
    )
    return g, split_balances(g), latencies


class RejectAt(NodeBehavior):
    """Rejects every add committed at `node`, as a probe's target does, and
    hands every call on to `inner` first."""

    def __init__(self, node, inner=None):
        self.node = node
        self.inner = inner or NodeBehavior()

    def on_commit(self, t_ns, view):
        return self.inner.on_commit(t_ns, view) or view.node == self.node

    def on_fulfill(self, t_ns, node, payment_id):
        self.inner.on_fulfill(t_ns, node, payment_id)
