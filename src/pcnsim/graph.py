"""Payment channel network graph model.

A channel network is a loopless multigraph holding only what gossip
publishes: capacities, fee policies, time-lock deltas and enabled flags,
which is all a routing node (or an attacker) legitimately sees.  One graph
serves every run of an experiment and no run changes it.  A run's private
state lives beside it in two plain maps: channel balances, keyed by
(channel id, node) for the side that node can spend (`init_balances`), and
true one-way latencies keyed by channel id (`assign_latencies`).

Amounts are millisatoshi throughout; snapshot capacities arrive in satoshi
and are scaled by 1000 on ingestion so fees never go fractional.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

NodeId = str
ChannelId = str

MSAT_PER_SAT = 1000

# Fallback round-trip entry when a region pair is missing from the table;
# one-way latencies are half of these.
GLOBAL_DEFAULT_RTT = (250.0, 50.0)
# Largest round-trip mean or std a table accepts: a 1000 s round trip,
# thousands of times the slowest default; latency draws in int64
# nanoseconds keep millions of sigmas of room above it.
MAX_RTT_MS = 1e6
# Largest base fee, fee rate or time-lock delta a policy accepts: BOLT 7's
# channel_update carries the widest of them in 32 bits.
MAX_POLICY_FIELD = 2**32 - 1


class SnapshotError(ValueError):
    """Malformed snapshot document."""


@dataclass(frozen=True)
class Gaussian:
    """Normal distribution with mean/std in milliseconds."""

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError(f"negative std {self.std}")

    @property
    def variance(self) -> float:
        return self.std * self.std


@dataclass(frozen=True)
class DirectedPolicy:
    """One direction of a channel: its forwarding terms."""

    base_fee_msat: int = 0
    fee_rate_ppm: int = 0
    timelock_delta: int = 0
    enabled: bool = True

    def __post_init__(self):
        for name in ("base_fee_msat", "fee_rate_ppm", "timelock_delta"):
            if not 0 <= getattr(self, name) <= MAX_POLICY_FIELD:
                raise ValueError(f"{name} must be in 0..{MAX_POLICY_FIELD}")

    def fee_msat(self, amount_msat: int) -> int:
        """Forwarding fee: base_fee + floor(amount * rate), exact in msat."""
        return self.base_fee_msat + (amount_msat * self.fee_rate_ppm) // 1_000_000


@dataclass(frozen=True)
class Channel:
    """Bidirectional payment channel between u and v (u < v lexicographically)."""

    id: ChannelId
    u: NodeId
    v: NodeId
    capacity_msat: int
    policy_uv: DirectedPolicy
    policy_vu: DirectedPolicy

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"channel {self.id} is a self-loop")
        if self.capacity_msat < 0:
            raise ValueError("capacity must be non-negative")

    def other_end(self, node: NodeId) -> NodeId:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise KeyError(f"{node} is not an endpoint of {self.id}")

    def policy_from(self, node: NodeId) -> DirectedPolicy:
        """Policy governing forwards leaving `node` over this channel."""
        if node == self.u:
            return self.policy_uv
        if node == self.v:
            return self.policy_vu
        raise KeyError(f"{node} is not an endpoint of {self.id}")


@dataclass
class Node:
    id: NodeId
    region: str | None = None


# A channel seen from one of its ends: the channel, the policy for forwarding
# over it away from that end, and the policy for forwarding over it toward it.
ChannelSide = tuple[Channel, DirectedPolicy, DirectedPolicy]
# One neighbour's group: the neighbour and every channel to it.
NeighbourGroup = tuple[NodeId, tuple[ChannelSide, ...]]
# A run's private state: the balance each node can spend on each of its
# channels, and each channel's true one-way latency.
Balances = dict[tuple[ChannelId, NodeId], int]
Latencies = dict[ChannelId, Gaussian]


@dataclass
class ChannelGraph:
    """The gossiped network: nodes, channels and their public policies."""

    nodes: dict[NodeId, Node] = field(default_factory=dict)
    channels: dict[ChannelId, Channel] = field(default_factory=dict)
    rejections: list[str] = field(default_factory=list)
    # key -> a result derived from the graph alone (`derived`); filled on
    # first use, emptied by add_node and add_channel
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def add_node(self, node: Node) -> None:
        if not node.id:
            raise ValueError("node id must be non-empty")
        self.nodes[node.id] = node
        self._derived.clear()

    def add_channel(self, channel: Channel) -> None:
        if channel.id in self.channels:
            raise ValueError(f"duplicate channel id {channel.id}")
        if channel.u not in self.nodes or channel.v not in self.nodes:
            raise KeyError(f"channel {channel.id} references unknown node")
        self.channels[channel.id] = channel
        self._derived.clear()

    def derived(self, key, build):
        """`build()`, called once per `key` and kept until the graph changes.

        For work that depends only on the public graph and `key` (the
        neighbour groups, the betweenness ranking, probe paths, route
        trees), so that every run of an experiment shares it and a kept
        result is exactly what a fresh `build()` would return.  Channels
        and their policies are frozen, so no caller edits one under a kept
        result, and `add_node` and `add_channel` drop every kept result.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def neighbour_groups(self) -> dict[NodeId, tuple[NeighbourGroup, ...]]:
        """Every node's channels grouped by neighbour: the one per-node index.

        Maps each node to its groups, sorted by neighbour id, `()` for a
        node with no channel; a group's channels keep the order the graph
        added them.  Built in one pass over the channels and kept
        (`derived`), so betweenness, the probing campaign, route search and
        the candidate-path walks all read one index built once per graph.
        """
        def build():
            by_node: dict[NodeId, dict[NodeId, list[ChannelSide]]] = {n: {} for n in self.nodes}
            for ch in self.channels.values():
                by_node[ch.u].setdefault(ch.v, []).append((ch, ch.policy_uv, ch.policy_vu))
                by_node[ch.v].setdefault(ch.u, []).append((ch, ch.policy_vu, ch.policy_uv))
            return {node: tuple((nb, tuple(sides[nb])) for nb in sorted(sides))
                    for node, sides in by_node.items()}

        return self.derived("neighbour groups", build)


class ConservationError(AssertionError):
    """A channel's balances no longer sum to its capacity."""


# ---------------------------------------------------------------------------
# snapshot ingestion


def _integer(raw: dict, key: str, default: int | None = None, digits: bool = False) -> int:
    """`raw[key]`, or `default` if absent: a JSON integer (`true` and
    `false` are none) or, with `digits`, a string of decimal digits too, as
    LND writes its 64-bit fields.  Anything else raises SnapshotError
    naming `key`; more digits than `int` parses raise ValueError."""
    value = raw.get(key, default)
    if digits and isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SnapshotError(f"{key} must be an integer, got {value!r}")
    return value


def _boolean(raw: dict, key: str) -> bool:
    """`raw[key]`, false if absent; anything but a JSON boolean raises SnapshotError."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise SnapshotError(f"{key} must be true or false, got {value!r}")
    return value


def _parse_policy(raw, record_name: str, known: dict[tuple, DirectedPolicy]) -> DirectedPolicy:
    """The record's policy: one shared frozen object per distinct policy in `known`."""
    try:
        # a missing policy is a one-sided channel: keep the edge, disable
        # the unknown direction
        fields = (0, 0, 0, False) if raw is None else (
            _integer(raw, "base_fee_msat", 0),
            _integer(raw, "fee_rate_ppm", 0),
            _integer(raw, "time_lock_delta", 0),
            not _boolean(raw, "disabled"),
        )
        if fields not in known:
            known[fields] = DirectedPolicy(*fields)
    except (ValueError, AttributeError) as exc:
        raise SnapshotError(f"malformed policy in {record_name}: {exc}") from exc
    return known[fields]


def _records(document: dict, key: str) -> list:
    """The document's list of node or edge records (none if absent)."""
    records = document.get(key, [])
    if not isinstance(records, list):
        raise SnapshotError(f"{key} must be a list, got {type(records).__name__}")
    return records


def _text(raw, key: str, record_name: str) -> str:
    """A record's required non-empty string field."""
    try:
        value = raw[key]
    except (TypeError, KeyError) as exc:
        raise SnapshotError(f"{record_name}: missing {key}") from exc
    if not isinstance(value, str) or not value:
        raise SnapshotError(f"{record_name}: {key} must be a non-empty string, got {value!r}")
    return value


def load_snapshot(document: dict) -> ChannelGraph:
    """Build a ChannelGraph from a snapshot document.

    Channels referencing unknown nodes (or forming self-loops) are skipped
    and reported in graph.rejections; structurally malformed records raise
    SnapshotError naming the offending record.  `capacity_sat` and the
    policy integers must be JSON integers, `disabled` a JSON boolean.
    """
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a mapping")
    g = ChannelGraph()
    policies: dict[tuple, DirectedPolicy] = {}
    for i, raw in enumerate(_records(document, "nodes")):
        name = f"nodes[{i}]"
        pub_key = _text(raw, "pub_key", name)
        region = raw.get("region")
        if region is not None and not isinstance(region, str):
            raise SnapshotError(f"{name}: region must be a string, got {region!r}")
        if pub_key in g.nodes:
            raise SnapshotError(f"{name}: duplicate pub_key {pub_key}")
        g.add_node(Node(id=pub_key, region=region))
    for i, raw in enumerate(_records(document, "edges")):
        name = f"edges[{i}]"
        cid = _text(raw, "channel_id", name)
        n1, n2 = _text(raw, "node1_pub", name), _text(raw, "node2_pub", name)
        try:
            cap_sat = _integer(raw, "capacity_sat")
        except SnapshotError as exc:
            raise SnapshotError(f"{name}: {exc}") from exc
        if cap_sat < 0:
            raise SnapshotError(f"{name}: negative capacity_sat {cap_sat}")
        if cid in g.channels:
            raise SnapshotError(f"{name}: duplicate channel_id {cid}")
        if n1 not in g.nodes or n2 not in g.nodes:
            g.rejections.append(f"{name} ({cid}): dangling endpoint")
            continue
        if n1 == n2:
            g.rejections.append(f"{name} ({cid}): self-loop")
            continue
        p1 = _parse_policy(raw.get("node1_policy"), name, policies)
        p2 = _parse_policy(raw.get("node2_policy"), name, policies)
        if n1 > n2:
            n1, n2 = n2, n1
            p1, p2 = p2, p1
        g.add_channel(
            Channel(
                id=cid,
                u=n1,
                v=n2,
                capacity_msat=cap_sat * MSAT_PER_SAT,
                policy_uv=p1,
                policy_vu=p2,
            )
        )
    if g.rejections:
        log.warning("snapshot load rejected %d channel records", len(g.rejections))
    return g


def convert_describegraph(dump: dict) -> dict:
    """Map an LND `describegraph` dump onto the snapshot schema.

    Field mapping: capacity (sat) -> capacity_sat, fee_base_msat ->
    base_fee_msat, fee_rate_milli_msat (millionths) -> fee_rate_ppm,
    time_lock_delta and disabled pass through.  Each integer field may be a
    JSON integer or a string of decimal digits, and is written as an
    integer; `disabled` must be a JSON boolean.  `channel_id` must be a
    non-empty string or a non-negative JSON integer, written as its digits.
    Nodes carry no region in an LND dump, so regions are assigned later by
    assign_latencies.  A malformed record raises SnapshotError naming it;
    edge endpoints pass through, and load_snapshot checks them.
    """
    if not isinstance(dump, dict):
        raise SnapshotError("describegraph dump must be a mapping")
    nodes = [{"pub_key": _text(n, "pub_key", f"nodes[{i}]")}
             for i, n in enumerate(_records(dump, "nodes"))]
    edges = []
    for i, e in enumerate(_records(dump, "edges")):
        try:
            edges.append(_convert_edge(e))
        except SnapshotError as exc:
            raise SnapshotError(f"edges[{i}]: {exc}") from exc
        except (TypeError, KeyError, ValueError, AttributeError) as exc:
            raise SnapshotError(f"edges[{i}]: {exc!r}") from exc
    return {"nodes": nodes, "edges": edges}


def _convert_edge(e: dict) -> dict:
    cid = e["channel_id"]
    if isinstance(cid, int) and not isinstance(cid, bool) and cid >= 0:
        cid = str(cid)
    if not isinstance(cid, str) or not cid:
        raise SnapshotError("channel_id must be a non-empty string or a non-negative "
                            f"integer, got {cid!r}")
    rec = {
        "channel_id": cid,
        "node1_pub": e["node1_pub"],
        "node2_pub": e["node2_pub"],
        "capacity_sat": _integer(e, "capacity", digits=True),
    }
    for key in ("node1_policy", "node2_policy"):
        raw = e.get(key)
        rec[key] = (
            None
            if raw is None
            else {
                "base_fee_msat": _integer(raw, "fee_base_msat", 0, digits=True),
                "fee_rate_ppm": _integer(raw, "fee_rate_milli_msat", 0, digits=True),
                "time_lock_delta": _integer(raw, "time_lock_delta", 0, digits=True),
                "disabled": _boolean(raw, "disabled"),
            }
        )
    return rec


# ---------------------------------------------------------------------------
# balances and latencies


def init_balances(g: ChannelGraph) -> Balances:
    """Split each channel's capacity into the balances its two ends can spend.

    Each side gets capacity//2; an odd msat goes to the lexicographically
    smaller endpoint so runs are reproducible.
    """
    balances: Balances = {}
    for cid, ch in g.channels.items():
        half = ch.capacity_msat // 2
        balances[cid, ch.u] = ch.capacity_msat - half
        balances[cid, ch.v] = half
    return balances


def check_conservation(g: ChannelGraph, balances: Balances) -> None:
    """Every channel's two balances must sum to its capacity."""
    for cid, ch in g.channels.items():
        bal_u, bal_v = balances[cid, ch.u], balances[cid, ch.v]
        if bal_u + bal_v != ch.capacity_msat:
            raise ConservationError(f"channel {cid}: {bal_u} + {bal_v} != {ch.capacity_msat}")


@dataclass
class RegionLatencyTable:
    """Round-trip-time table keyed by unordered region pair (ms)."""

    entries: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def add(self, region_a: str, region_b: str, rtt_mean_ms: float, rtt_std_ms: float) -> None:
        """Set a region pair's round trip; a mean or std that is not a
        number from 0 to `MAX_RTT_MS` raises ValueError."""
        if not (0 <= rtt_mean_ms <= MAX_RTT_MS and 0 <= rtt_std_ms <= MAX_RTT_MS):
            raise ValueError(f"round-trip time must be from 0 to {MAX_RTT_MS:.0f} ms, "
                             f"got mean {rtt_mean_ms} and std {rtt_std_ms}")
        self.entries[self._key(region_a, region_b)] = (rtt_mean_ms, rtt_std_ms)

    def lookup_one_way(self, region_a: str | None, region_b: str | None) -> Gaussian:
        """One-way Gaussian for a region pair: half of the measured RTT.

        A pair missing from the table, or with an unknown region, takes
        `GLOBAL_DEFAULT_RTT`.
        """
        if region_a is None or region_b is None:
            rtt = GLOBAL_DEFAULT_RTT
        else:
            rtt = self.entries.get(self._key(region_a, region_b), GLOBAL_DEFAULT_RTT)
        return Gaussian(rtt[0] / 2.0, rtt[1] / 2.0)

    def regions(self) -> list[str]:
        out = sorted({r for pair in self.entries for r in pair})
        return out

    @classmethod
    def from_rows(cls, rows) -> "RegionLatencyTable":
        t = cls()
        for region_a, region_b, mean, std in rows:
            t.add(region_a, region_b, float(mean), float(std))
        return t


# Desk-scale defaults: intra-EU/NA links are fast, cross-continent links
# slow, everything below the ~500 ms ceiling observed in the wild, with the
# global median round trip around 250 ms.
DEFAULT_REGION_RTT = RegionLatencyTable.from_rows(
    [
        ("EU", "EU", 40, 12),
        ("NA", "NA", 60, 18),
        ("AS", "AS", 90, 28),
        ("OC", "OC", 70, 20),
        ("SA", "SA", 110, 30),
        ("CN", "CN", 100, 30),
        ("AF", "AF", 130, 40),
        ("EU", "NA", 110, 25),
        ("AS", "EU", 240, 50),
        ("AS", "NA", 180, 45),
        ("EU", "OC", 290, 55),
        ("NA", "OC", 190, 45),
        ("EU", "SA", 220, 45),
        ("NA", "SA", 160, 40),
        ("CN", "EU", 310, 60),
        ("CN", "NA", 250, 55),
        ("AF", "EU", 200, 50),
        ("AF", "NA", 260, 55),
        ("AS", "OC", 160, 40),
        ("AS", "CN", 120, 35),
    ]
)


def assign_latencies(
    g: ChannelGraph, table: RegionLatencyTable, rng_seed: int
) -> Latencies:
    """One-way latency Gaussian of every channel, from the region table.

    Nodes without a region get one drawn uniformly from the table's regions,
    deterministically from rng_seed.  Missing region pairs fall back to
    `GLOBAL_DEFAULT_RTT`.
    """
    rng = np.random.default_rng(rng_seed)
    regions = table.regions()
    assigned: dict[NodeId, str | None] = {}
    for node_id in sorted(g.nodes):
        node = g.nodes[node_id]
        if node.region is not None:
            assigned[node_id] = node.region
        elif regions:
            assigned[node_id] = regions[int(rng.integers(len(regions)))]
        else:
            assigned[node_id] = None
    latencies: Latencies = {}
    for cid in sorted(g.channels):
        ch = g.channels[cid]
        latencies[cid] = table.lookup_one_way(assigned[ch.u], assigned[ch.v])
    return latencies


# ---------------------------------------------------------------------------
# centrality


# Each (nodes, sources) float64 array of the batched Brandes pass stays at
# or below 256 KiB; wider batches raise peak memory without running faster.
_BRANDES_CELLS = 32768
# Neighbour slots taken one at a time; higher-degree rows share one
# segmented sum for the rest, which beats a slot per remaining neighbour.
_BRANDES_SLOTS = 8


def betweenness_ranking(g: ChannelGraph) -> list[NodeId]:
    """Nodes by descending shortest-path betweenness, ties by ascending id.

    Unit edge weights; parallel channels collapse to a single edge.  Scores
    are rounded to 10 significant digits before sorting: exactly tied nodes
    (symmetric positions in a grid, say) come out of the float summation
    a few ulps apart, in an order set by the summation order rather than by
    the graph, and the rounding makes such ties fall back to the node id.
    Computed once per graph; each call returns a fresh list.
    """
    return list(g.derived("betweenness ranking", lambda: _ranking(g)))


def _ranking(g: ChannelGraph) -> tuple[NodeId, ...]:
    ids = sorted(g.nodes)
    scores = _betweenness_scores(ids, g.neighbour_groups())
    rounded = [float(f"{s:.9e}") for s in scores]
    order = sorted(range(len(ids)), key=lambda i: (-rounded[i], ids[i]))
    return tuple(ids[i] for i in order)


def _betweenness_scores(ids: list[NodeId], groups) -> np.ndarray:
    """Unnormalised betweenness of each node in `ids` (Brandes 2001).

    The edges are the neighbour groups (`ChannelGraph.neighbour_groups`):
    one directed edge per node and neighbour, however many channels join
    them.  All sources of a batch are searched at once, one BFS level at a
    time, in (nodes, sources) arrays: a forward pass counts shortest paths
    (`sigma`) level by level, a backward pass accumulates dependencies with
    delta(v) += sigma(v) * sum over successors w of (1 + delta(w)) / sigma(w).
    Every unordered pair is counted from both ends, so the sum is halved.
    """
    n = len(ids)
    index = {node: i for i, node in enumerate(ids)}
    edges = [(i, index[nb]) for i, node in enumerate(ids) for nb, _ in groups[node]]
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    degree = np.bincount(src, minlength=n)
    # Renumber rows by descending degree, so that the j-th neighbour slot
    # exists for a prefix of the rows: slot j lists, for rows 0..len-1, the
    # row of their j-th neighbour (`rank` is a neighbour's j within its row).
    by_degree = np.argsort(-degree, kind="stable")
    row = np.empty(n, dtype=np.int64)
    row[by_degree] = np.arange(n)
    src, dst = row[src], row[dst]
    edge_order = np.lexsort((dst, src))
    src, dst = src[edge_order], dst[edge_order]
    degree = degree[by_degree]
    rank = np.arange(len(src)) - (np.cumsum(degree) - degree)[src]
    slots = [
        dst[rank == j] for j in range(min(_BRANDES_SLOTS, int(degree.max(initial=0))))
    ]
    # Neighbours past the last slot belong to a few hubs; one gather and
    # one segmented sum cover them all.
    beyond = rank >= _BRANDES_SLOTS
    rest = dst[beyond]
    rest_start = np.flatnonzero(rank[beyond] == _BRANDES_SLOTS)

    def spread(x: np.ndarray) -> np.ndarray:
        """y[v] = sum of x over the neighbours of v."""
        y = np.zeros_like(x)
        for slot in slots:
            y[: len(slot)] += x[slot]
        y[: len(rest_start)] += np.add.reduceat(x[rest], rest_start, axis=0)
        return y

    total = np.zeros(n)
    width = max(1, _BRANDES_CELLS // max(n, 1))
    for first in range(0, n, width):
        sources = np.arange(first, min(first + width, n))
        total += _brandes_batch(spread, n, sources)
    scores = np.empty(n)
    scores[by_degree] = total / 2.0
    return scores


def _brandes_batch(spread, n: int, sources: np.ndarray) -> np.ndarray:
    """Summed dependencies of every row on the given source rows."""
    sigma = np.zeros((n, len(sources)))
    sigma[sources, np.arange(len(sources))] = 1.0
    levels = [sigma > 0]  # levels[d]: the rows at distance d from each source
    frontier = sigma
    while True:
        reach = spread(frontier)
        new = (reach > 0) & (sigma == 0)
        if not new.any():
            break
        levels.append(new)
        frontier = np.where(new, reach, 0.0)
        sigma += frontier
    delta = np.zeros_like(sigma)
    # Sources (distance 0) take no dependency, so the walk stops at 1.
    for d in range(len(levels) - 1, 1, -1):
        coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=levels[d])
        delta += np.where(levels[d - 1], sigma * spread(coeff), 0.0)
    return delta.sum(axis=1)
