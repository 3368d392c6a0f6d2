"""Source routing over the public graph.

Route search runs backward from the destination so the per-hop forwarding
amounts are exact: the last edge carries the payment amount and every edge
before it adds the downstream forwarder's fee.  Edge selection minimizes
fee(a) + a * timelock_delta * RISK_FACTOR, the weight most deployed client
software uses; the last hop's time lock holds `FINAL_CLTV_DELTA` on top of
the route's deltas.  Both are fixed, as LND fixes its risk factor.

Route search and the adversary's candidate-path walks pick a node pair's
channel by one rule, `TraversalRules.cross`: the cheapest channel that can
carry the amount in the payment's direction, weighed at the amount it
carries, ties by channel id.

Route search never reads a balance, so one search per (destination,
amount) serves every source: it settles the whole graph into a route
tree, one channel per node, which the graph keeps for every later run
(`ChannelGraph.derived`).  `find_route` follows the tree from the
source and hands its channels to `path_from_channels`, which builds every
`Hop`: the one record of what an HTLC carries over one channel.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

from .graph import Channel, ChannelGraph, ChannelId, ChannelSide, DirectedPolicy, NodeId

# Weight per msat and block of time lock an edge holds (LND's 15 per billion).
RISK_FACTOR = 1.5e-8
# Blocks the last hop's time lock holds beyond the route's deltas.
FINAL_CLTV_DELTA = 40


@dataclass(frozen=True)
class Payment:
    """A transfer request, amount in msat.  Its lock budget is derived from
    the route chosen."""

    source: NodeId
    dest: NodeId
    amount_msat: int

    def __post_init__(self):
        if self.source == self.dest:
            raise ValueError("source and destination must differ")
        if self.amount_msat <= 0:
            raise ValueError("amount must be positive")


@dataclass(frozen=True, slots=True)
class Hop:
    """One HTLC of a payment: the channel it crosses from `frm` to `to`, the
    amount it carries and the time lock it still holds."""

    channel: ChannelId
    frm: NodeId
    to: NodeId
    forward_amount_msat: int
    remaining_timelock: int


@dataclass(frozen=True, slots=True)
class PaymentPath:
    hops: tuple[Hop, ...]

    def __post_init__(self):
        for a, b in zip(self.hops, self.hops[1:]):
            if a.to != b.frm:
                raise ValueError(f"hops do not chain at {a.to} -> {b.frm}")

    @property
    def source(self) -> NodeId:
        return self.hops[0].frm

    @property
    def dest(self) -> NodeId:
        return self.hops[-1].to

    def nodes(self) -> list[NodeId]:
        return [self.hops[0].frm] + [h.to for h in self.hops]

    def intermediaries(self) -> list[NodeId]:
        return [h.to for h in self.hops[:-1]]


def edge_weight(amount_msat: int, policy: DirectedPolicy) -> float:
    """Routing weight of forwarding `amount_msat` under `policy`: its fee
    plus the amount times the policy's time-lock delta times `RISK_FACTOR`."""
    if amount_msat <= 0:
        raise ValueError("amount must be positive")
    if not policy.enabled:
        return math.inf
    return (
        policy.fee_msat(amount_msat)
        + amount_msat * policy.timelock_delta * RISK_FACTOR
    )


def forwarded_amount(policy: DirectedPolicy, incoming_msat: int) -> int | None:
    """Largest f with f + fee(f) <= incoming, or None if no positive f fits.

    Inverts the fee recursion when walking a path in payment direction,
    where only the delivered amount is known.
    """
    # fee(f) <= fee(incoming) for every f <= incoming, so this f fits
    f = incoming_msat - policy.fee_msat(incoming_msat)
    if f < 1:
        return None
    while f + 1 + policy.fee_msat(f + 1) <= incoming_msat:
        f += 1
    return f


@dataclass(frozen=True)
class TraversalRules:
    """Which channels of a node pair a payment may cross, and what crossing costs.

    A walk from the anchor moves with the payment: the amount shrinks by
    fees and the consumed time-lock deltas stay within the budget.  A walk
    toward the anchor, as backward route search is, moves against it and
    the amount grows by fees.  Every edge must be enabled in the payment's
    direction and have capacity for the amount it carries.
    """

    direction: str  # "from-anchor" | "toward-anchor"
    timelock_budget: int | None = None

    def step(self, side: ChannelSide, amount: int, delta_used: int):
        """State after crossing `side`'s channel away from the walk's current
        node, None if infeasible.

        State is (amount over the next edge, timelock consumed so far); the
        delta component stays 0 when no budget applies so it never distorts
        dominance checks.
        """
        channel, policy_out, policy_in = side
        if self.direction == "from-anchor":
            if not policy_out.enabled:
                return None
            nxt = forwarded_amount(policy_out, amount)
            if nxt is None or channel.capacity_msat < nxt:
                return None
            if self.timelock_budget is None:
                return nxt, 0
            delta = delta_used + policy_out.timelock_delta
            if delta > self.timelock_budget:
                return None
            return nxt, delta
        # toward-anchor: the payment flowed other end -> current node, so the
        # walk moves against it and the amount grows by the fee of the edge
        # the walk just crossed.  `amount` is what arrived at the current node.
        if not policy_in.enabled or channel.capacity_msat < amount:
            return None
        return amount + policy_in.fee_msat(amount), 0

    def cross(self, sides: tuple[ChannelSide, ...], amount: int,
              delta_used: int) -> tuple[tuple[ChannelSide, tuple[int, int]], ...]:
        """The channels of one neighbour group (`ChannelGraph.neighbour_groups`)
        the payment may have crossed, each with the `step` state after it.

        Route search picks the least (weight, channel id) at the amount a
        channel carries among the group's channels that could carry it:
        enabled in the payment's direction, with capacity for it, weighed
        under the policy the payment crossed by (the walk node's own from
        the anchor, the neighbour's toward it).  A channel `step` can cross
        is kept when it is that pick at the amount it would carry.  Toward
        the anchor every channel carries `amount`, so at most one is kept;
        from the anchor each carries what the walk node would forward over
        it, so several may be.
        """
        if len(sides) == 1:
            state = self.step(sides[0], amount, delta_used)
            return () if state is None else ((sides[0], state),)
        from_anchor = self.direction == "from-anchor"
        paid = 1 if from_anchor else 2
        crossings = []
        for side in sides:
            state = self.step(side, amount, delta_used)
            if state is None:
                continue
            carried = state[0] if from_anchor else amount
            pick = min((edge_weight(carried, other[paid]), other[0].id)
                       for other in sides
                       if other[paid].enabled and other[0].capacity_msat >= carried)
            if pick[1] == side[0].id:
                crossings.append((side, state))
        return tuple(crossings)


# Route search runs backward from the destination, against the payment.
_TOWARD_DEST = TraversalRules("toward-anchor")


# ---------------------------------------------------------------------------
# route search


# Route-tree cells kept per graph, one 4-byte channel index per node and
# tree (16 MiB): every tree of a 1000-payment run on 3000 nodes fits.
_ROUTE_TREE_CELLS = 1 << 22


def _route_index(g: ChannelGraph) -> tuple[dict[NodeId, int], dict[ChannelId, int], list[Channel]]:
    """Each node's index into a route tree, each channel's tree entry, and
    the channels by tree entry."""
    channels = list(g.channels.values())
    return ({node: i for i, node in enumerate(g.nodes)},
            {ch.id: i for i, ch in enumerate(channels)}, channels)


def _route_tree(g: ChannelGraph, dest: NodeId, amount_msat: int) -> array:
    """Backward Dijkstra from `dest` for `amount_msat`, run until every node
    it reaches has settled.

    Tie-breaks on (weight, hop count, node id), then channel id within one
    node pair.  Returns each node's channel toward `dest` on its cheapest
    capacity-valid route, as an index into `_route_index`'s channels, -1
    for none.  A node's successor never changes once it settles, so the
    tree gives every source the route a search stopped at that source
    would give.
    """
    # state per node: (weight from node to dest, hops) and the amount the
    # node must receive
    best: dict[NodeId, tuple[float, int]] = {dest: (0.0, 0)}
    req_in: dict[NodeId, int] = {dest: amount_msat}
    succ: dict[NodeId, ChannelId] = {}
    heap: list[tuple[float, int, NodeId]] = [(0.0, 0, dest)]
    settled: set[NodeId] = set()
    groups = g.neighbour_groups()
    while heap:
        w_u, hops_u, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        amount_over_edge = req_in[u]
        for x, sides in groups[u]:
            if x in settled:
                continue
            # x would forward toward u: the walk from u crosses against
            # the payment, as a source-leg walk toward its anchor does
            # at most one channel: every one carries the same amount
            for (ch, _, policy), (amount_in, _) in _TOWARD_DEST.cross(
                    sides, amount_over_edge, 0):
                cand = (w_u + edge_weight(amount_over_edge, policy), hops_u + 1)
                if x in best and best[x] <= cand:
                    continue
                best[x] = cand
                req_in[x] = amount_in
                succ[x] = ch.id
                heapq.heappush(heap, (cand[0], cand[1], x))
    node_index, channel_index, _ = g.derived("route index", lambda: _route_index(g))
    tree = array("i", [-1]) * len(node_index)
    for node, cid in succ.items():
        tree[node_index[node]] = channel_index[cid]
    return tree


def find_route(g: ChannelGraph, payment: Payment) -> PaymentPath | None:
    """Cheapest capacity-valid route, or None.

    Follows the route tree of the payment's (destination, amount),
    built by `_route_tree` on first use and kept on the graph, oldest
    trees dropped first past `_ROUTE_TREE_CELLS`.  `path_from_channels`
    then builds the hops, by the fee recursion the search used.
    """
    source, dest, amount = payment.source, payment.dest, payment.amount_msat
    if source not in g.nodes or dest not in g.nodes:
        raise KeyError("payment endpoints missing from graph")
    trees = g.derived("route trees", dict)
    key = (dest, amount)
    tree = trees.get(key)
    if tree is None:
        tree = trees[key] = _route_tree(g, dest, amount)
        while len(trees) * len(tree) > _ROUTE_TREE_CELLS:
            del trees[next(iter(trees))]
    node_index, _, channels = g.derived("route index", lambda: _route_index(g))
    route: list[ChannelId] = []
    node = source
    while node != dest:
        entry = tree[node_index[node]]
        if entry < 0:
            return None
        channel = channels[entry]
        route.append(channel.id)
        node = channel.other_end(node)
    return path_from_channels(g, source, route, amount)


def path_from_channels(
    g: ChannelGraph,
    start: NodeId,
    channel_ids: list[ChannelId],
    amount_msat: int,
) -> PaymentPath:
    """Build a concrete payment path along the given channels.

    One backward pass from the last hop, which carries `amount_msat` and
    holds `FINAL_CLTV_DELTA` plus its own: each earlier hop carries the next
    hop's amount plus the fee of that hop's forwarder, and holds the next
    hop's time lock plus its own delta.  Route search, crafted probe
    payments and fixtures all build their hops here.
    """
    ends: list[tuple[ChannelId, NodeId, NodeId, DirectedPolicy]] = []
    node = start
    for cid in channel_ids:
        ch = g.channels[cid]
        nxt = ch.other_end(node)
        ends.append((cid, node, nxt, ch.policy_from(node)))
        node = nxt
    hops: list[Hop] = []
    amount, timelock = amount_msat, FINAL_CLTV_DELTA
    for cid, frm, to, policy in reversed(ends):
        timelock += policy.timelock_delta
        hops.append(Hop(cid, frm, to, amount, timelock))
        amount += policy.fee_msat(amount)
    hops.reverse()
    return PaymentPath(tuple(hops))


# ---------------------------------------------------------------------------
# candidate-path walks


def feasible_endpoints(
    g: ChannelGraph,
    anchor: NodeId,
    amount_msat: int,
    rules: TraversalRules,
    forbidden: frozenset[NodeId] = frozenset(),
) -> frozenset[NodeId]:
    """Nodes reached by at least one feasible simple path from the anchor.

    Exhaustive DFS over simple paths.  Feasibility is path-level, so states
    from different paths are never merged; a node joins the set as soon as
    one prefix reaching it satisfies every constraint.  A lock budget or
    tight capacities bound the search depth; without either the walk
    enumerates every simple path.  Each step crosses each channel to a
    neighbour that `TraversalRules.cross` keeps: one route search could
    have picked, the cheapest that can carry the amount it carries.
    """
    members = {anchor}
    stack = [(anchor, amount_msat, 0, frozenset({anchor}) | forbidden)]
    groups = g.neighbour_groups()
    while stack:
        node, amount, delta_used, visited = stack.pop()
        for nxt_node, sides in groups[node]:
            if nxt_node in visited:
                continue
            for _, state in rules.cross(sides, amount, delta_used):
                members.add(nxt_node)
                stack.append((nxt_node, state[0], state[1], visited | {nxt_node}))
    return frozenset(members)
