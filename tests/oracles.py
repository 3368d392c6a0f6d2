"""Independent brute-force oracles.

Everything here recomputes results from first principles (exhaustive
enumeration over simple paths, direct formula evaluation) without calling
the search code under test, so the two routes to each answer stay
independent.  The brute-force oracles find a node's channels by scanning
every channel (`conftest.channels_at`), not through the graph's own index.
`ReferenceEngine` is the payment engine as it was written before
`PaymentEngine` became one loop over message records: a chain of
closures, one pair per message, each message drawing its traversal time
with one scalar `rng.normal` (`sample_latency`), which the loop's
per-phase draws must match draw for draw.  Its closures wait on an
`EventQueue` of its own that lives as long as the engine and carries its
clock; the engine under test keeps each attempt's messages on a heap local
to the attempt and only its clock between attempts, so the two share no
queue code.
It runs one behaviour through the same two hooks: `on_commit`, whose
return rejects the add, and `on_fulfill`.
`reference_route` is route search as it was written before `find_route`
read route trees kept on the graph: one search per payment, stopped once
its source settles.
`reference_estimate` and `reference_anonymity_set` are the candidate-path
walks as they were written before they read the graph's neighbour groups:
every choice of channel rescans all channels at the node.  They
share `_walk_setup` and `TraversalRules.step` with the walks under test.
`reference_estimate` is also the full breadth-first walk that ranks every
node it reaches; the best-first `estimate_endpoint` returns its first
candidate.

Every walk here picks a node pair's channels by the rule route search
uses: a channel the payment could cross (`_can_cross`) is taken when it is
the cheapest (weight, channel id) at the amount it carries among the
channels enabled in the payment's direction with capacity for that amount.
From the anchor each channel carries what the walk node would forward over
it, so a walk may take several channels of one pair; weighing them all at
the amount the walk node holds would cross a channel route search did not
pick.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

from pcnsim.adversary import (
    SIGMA_FLOOR_MS,
    EstimationError,
    EstimationResult,
    _walk_setup,
)
from pcnsim.graph import Balances, ChannelGraph, Gaussian, Latencies, NodeId
from pcnsim.latency import normal_logpdf
from pcnsim.routing import (
    _TOWARD_DEST,
    FINAL_CLTV_DELTA,
    RISK_FACTOR,
    Hop,
    PaymentPath,
    edge_weight,
)
from pcnsim.sim import (
    ADD,
    FAIL,
    FULFILL,
    HANDSHAKE,
    LATENCY_FLOOR_NS,
    NS_PER_MS,
    HopView,
    MessageRecord,
    NodeBehavior,
    PaymentOutcome,
    _can_forward,
    _check_hops,
)
from conftest import channels_at


def fee(policy, amount):
    return policy.base_fee_msat + (amount * policy.fee_rate_ppm) // 1_000_000


def brute_betweenness(g) -> dict[str, float]:
    """Shortest-path betweenness by explicit enumeration of all shortest
    paths between every node pair (unit weights, parallel edges collapsed)."""
    adj: dict[str, set[str]] = {n: set() for n in g.nodes}
    for ch in g.channels.values():
        adj[ch.u].add(ch.v)
        adj[ch.v].add(ch.u)
    scores = {n: 0.0 for n in g.nodes}
    nodes = sorted(g.nodes)
    for i, s in enumerate(nodes):
        # BFS levels from s
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for t in nodes[i + 1 :]:
            if t not in dist or t == s:
                continue
            # enumerate all shortest s-t paths by DFS constrained to levels
            all_paths = []

            def dfs(node, path):
                if node == t:
                    all_paths.append(list(path))
                    return
                for y in adj[node]:
                    if dist.get(y) == dist[node] + 1 and dist[y] <= dist[t]:
                        path.append(y)
                        dfs(y, path)
                        path.pop()

            dfs(s, [s])
            if not all_paths:
                continue
            share = 1.0 / len(all_paths)
            for p in all_paths:
                for interior in p[1:-1]:
                    scores[interior] += share
    return scores


def _simple_paths(g, source, dest):
    """All simple paths source -> dest as channel-object sequences."""
    out = []

    def dfs(node, visited, channels):
        if node == dest:
            out.append(list(channels))
            return
        for ch in channels_at(g, node):
            other = ch.other_end(node)
            if other in visited:
                continue
            visited.add(other)
            channels.append((ch, node))
            dfs(other, visited, channels)
            channels.pop()
            visited.remove(other)

    dfs(source, {source}, [])
    return out


def path_amounts(g, channel_seq, amount):
    """Forward amounts per edge: the last edge delivers `amount`, every
    earlier edge adds the downstream forwarder's fee."""
    amounts = [0] * len(channel_seq)
    f = amount
    for i in range(len(channel_seq) - 1, -1, -1):
        amounts[i] = f
        if i > 0:
            ch, frm = channel_seq[i]
            f = f + fee(ch.policy_from(frm), f)
    return amounts


def brute_route(g, source, dest, amount):
    """Minimum total weight over all capacity-valid simple paths, or None."""
    best = None
    for channel_seq in _simple_paths(g, source, dest):
        amounts = path_amounts(g, channel_seq, amount)
        ok = True
        weight = 0.0
        for (ch, frm), f in zip(channel_seq, amounts):
            policy = ch.policy_from(frm)
            if not policy.enabled or ch.capacity_msat < f:
                ok = False
                break
            weight += fee(policy, f) + f * policy.timelock_delta * RISK_FACTOR
        if not ok:
            continue
        if best is None or weight < best:
            best = weight
    return best


def reference_route(g, payment) -> PaymentPath | None:
    """`find_route` as it was written before route trees: a backward
    Dijkstra from the destination that stops once the source settles and
    carries each hop's amount and delta along its successor pointers.

    Tie-breaks on (weight, hop count, node id), then channel id within one
    node pair (`TraversalRules.cross`).
    """
    source, dest, amount_msat = payment.source, payment.dest, payment.amount_msat
    best = {dest: (0.0, 0)}
    req_in = {dest: amount_msat}
    succ = {}
    heap = [(0.0, 0, dest)]
    settled = set()
    while source not in settled and heap:
        w_u, hops_u, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        amount_over_edge = req_in[u]
        for x, sides in g.neighbour_groups()[u]:
            if x in settled:
                continue
            for (ch, _, policy), (amount_in, _) in _TOWARD_DEST.cross(
                    sides, amount_over_edge, 0):
                cand = (w_u + edge_weight(amount_over_edge, policy), hops_u + 1)
                if x in best and best[x] <= cand:
                    continue
                best[x] = cand
                req_in[x] = amount_in
                succ[x] = (ch.id, u, amount_over_edge, policy.timelock_delta)
                heapq.heappush(heap, (cand[0], cand[1], x))
    if source not in succ:
        return None
    rows = []
    node = source
    while node != dest:
        cid, nxt, amount, delta = succ[node]
        rows.append((cid, node, nxt, amount, delta))
        node = nxt
    # the time lock counts down from the summed deltas plus the final delta
    remaining = sum(row[4] for row in rows) + FINAL_CLTV_DELTA
    hops = []
    for cid, frm, to, amount, delta in rows:
        hops.append(Hop(cid, frm, to, amount, remaining))
        remaining -= delta
    return PaymentPath(tuple(hops))


def _inverted_amount(policy, incoming):
    """Largest f >= 1 with f + fee(f) <= incoming, by plain scan from an
    upper bound (amounts here are test-sized)."""
    f = incoming - policy.base_fee_msat
    while f >= 1 and f + fee(policy, f) > incoming:
        f -= 1
    return f if f >= 1 else None


def _neighbours(g, node):
    """The nodes sharing at least one channel with `node`."""
    return {ch.other_end(node) for ch in channels_at(g, node)}


def _can_cross(ch, frm, amount, direction, used_delta=0, budget=None):
    """Whether a walk at `amount` could cross `ch`, which the payment leaves
    `frm` by.  From the anchor `amount` arrived at `frm`: the amount `frm`
    forwards must exist and fit the capacity, and the deltas stay within
    `budget`.  Toward the anchor `amount` is what `ch` carried, so it must
    fit the capacity."""
    policy = ch.policy_from(frm)
    if not policy.enabled:
        return False
    if direction == "toward-anchor":
        return ch.capacity_msat >= amount
    nxt = _inverted_amount(policy, amount)
    if nxt is None or ch.capacity_msat < nxt:
        return False
    return budget is None or used_delta + policy.timelock_delta <= budget


def _cheapest(g, frm, to, amount, direction, used_delta=0, budget=None):
    """The channels frm -> to a walk at `amount` crosses: each that
    `_can_cross` accepts and that route search would pick at the amount it
    carries, the least (weight under frm's policy, channel id) among the
    channels frm -> to enabled from frm with capacity for that amount.
    From the anchor a channel carries what frm forwards over it, toward the
    anchor `amount`."""
    pair = [ch for ch in channels_at(g, frm) if ch.other_end(frm) == to]

    def key(ch, carried):
        policy = ch.policy_from(frm)
        return (fee(policy, carried) + carried * policy.timelock_delta * RISK_FACTOR, ch.id)

    out = []
    for ch in pair:
        if not _can_cross(ch, frm, amount, direction, used_delta, budget):
            continue
        carried = amount
        if direction == "from-anchor":
            carried = _inverted_amount(ch.policy_from(frm), amount)
        rivals = [key(other, carried) for other in pair
                  if other.policy_from(frm).enabled and other.capacity_msat >= carried]
        if key(ch, carried) == min(rivals):
            out.append(ch)
    return out


def candidate_paths(
    g,
    anchor,
    seed_amount,
    direction,
    budget=None,
    forbidden=(),
):
    """All feasible simple candidate paths beyond the observed edge.

    Yields (endpoint, edge_id_list).  Walks use each channel of a node pair
    that route search could have picked (`_cheapest`).  Downstream
    ("from-anchor") the amount
    shrinks by fees and each edge must have capacity for it; consumed
    time-lock deltas must stay within `budget` when one is given.  Upstream
    ("toward-anchor") the amount grows by the fee of the edge just crossed
    and no lock budget applies.  The empty path (the anchor itself) is
    always yielded.
    """
    results = []

    def dfs(node, amount, used_delta, visited, edges):
        results.append((node, list(edges)))
        for nb in sorted(_neighbours(g, node) - visited):
            if direction == "from-anchor":
                for ch in _cheapest(g, node, nb, amount, direction, used_delta, budget):
                    policy = ch.policy_from(node)
                    nxt = _inverted_amount(policy, amount)
                    delta = used_delta + policy.timelock_delta
                    dfs(nb, nxt, delta, visited | {nb}, edges + [ch.id])
            else:
                for ch in _cheapest(g, nb, node, amount, direction):
                    policy = ch.policy_from(nb)
                    nxt = amount + fee(policy, amount)
                    dfs(nb, nxt, used_delta, visited | {nb}, edges + [ch.id])

    dfs(anchor, seed_amount, 0, {anchor} | set(forbidden), [])
    return results


def brute_reduced_set(g, anchor, seed_amount, direction, budget, forbidden=()):
    return {node for node, _ in candidate_paths(
        g, anchor, seed_amount, direction, budget, forbidden=forbidden
    )}


def loglik_at(delta_ms, mean, var, sigma_floor):
    s = max(math.sqrt(var), sigma_floor)
    z = (delta_ms - mean) / s
    return -0.5 * z * z - math.log(s) - 0.5 * math.log(2.0 * math.pi)


def observation_walk_inputs(obs, g):
    """Anchor, seed amount, direction and lock budget implied by an
    observation, spelled out from the definitions: toward the destination
    the observed amount arrives at the anchor and the observed remaining
    lock time, less the observed edge's own delta, bounds further hops;
    toward the source the far endpoint forwarded the observed amount, so
    the first upstream edge carried it plus the observed edge's fee."""
    channel = g.channels[obs.edge_observed]
    anchor = channel.other_end(obs.observer)
    if obs.direction == "toward-destination":
        budget = max(
            0, obs.timelock_blocks - channel.policy_from(obs.observer).timelock_delta
        )
        return anchor, obs.amount_msat, "from-anchor", budget
    seed = obs.amount_msat + fee(channel.policy_from(anchor), obs.amount_msat)
    return anchor, seed, "toward-anchor", None


def brute_estimate(
    g,
    model,
    obs_edge_id,
    observer,
    delta_ms,
    seed_amount,
    direction,
    budget=None,
    sigma_floor=0.1,
):
    """Argmax endpoint over exhaustive candidate-path enumeration.

    Every candidate path's total latency Gaussian is the weighted sum of
    its edges' model Gaussians (observed edge included); each endpoint
    scores its best path; ties break toward the smaller node id.
    """
    t = model.traversal_weight
    anchor = g.channels[obs_edge_id].other_end(observer)
    base = model.edge_gaussian(obs_edge_id)
    best: dict[str, float] = {}
    for endpoint, edges in candidate_paths(
        g, anchor, seed_amount, direction, budget, forbidden=(observer,)
    ):
        mean = t * base.mean
        var = t * base.variance
        for eid in edges:
            ge = model.edge_gaussian(eid)
            mean += t * ge.mean
            var += t * ge.variance
        ll = loglik_at(delta_ms, mean, var, sigma_floor)
        if ll > best.get(endpoint, -math.inf):
            best[endpoint] = ll
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[0][0], ranked


# ---------------------------------------------------------------------------
# reference candidate-path walks: one rescan of the node's channels per neighbour


def _reference_edges(rules):
    """Edge chooser: per neighbor, the channels route search could have
    picked (`_cheapest`), weighed in the direction the payment crossed
    them."""
    direction, budget = rules.direction, rules.timelock_budget

    def candidates(g, node, amount, used_delta):
        out = []
        for nb in sorted(_neighbours(g, node)):
            if direction == "from-anchor":
                out += _cheapest(g, node, nb, amount, direction, used_delta, budget)
            else:
                out += _cheapest(g, nb, node, amount, direction)
        return out

    return candidates


def reference_anonymity_set(obs, g, cfg) -> frozenset[NodeId]:
    """`adversary.reduce_anonymity_set` over `_reference_edges`."""
    if obs.edge_observed not in g.channels:
        raise EstimationError(f"observed edge {obs.edge_observed} not in graph")
    anchor, seed, rules = _walk_setup(obs, g, cfg)
    edge_candidates = _reference_edges(rules)
    members = {anchor}
    stack = [(anchor, seed, 0, frozenset({anchor, obs.observer}))]
    while stack:
        node, amount, delta_used, visited = stack.pop()
        for ch in edge_candidates(g, node, amount, delta_used):
            nxt_node = ch.other_end(node)
            if nxt_node in visited:
                continue
            state = rules.step((ch, ch.policy_from(node), ch.policy_from(nxt_node)),
                               amount, delta_used)
            if state is None:
                continue
            members.add(nxt_node)
            stack.append((nxt_node, state[0], state[1], visited | {nxt_node}))
    return frozenset(members)


def reference_estimate(obs, g, model, cfg) -> EstimationResult:
    """Every node an increasing chain reaches, ranked by its best
    log-likelihood, ties by node id, over `_reference_edges`."""
    if obs.edge_observed not in g.channels:
        raise EstimationError(f"observed edge {obs.edge_observed} not in graph")
    t_weight = model.traversal_weight
    delta_ms = obs.delta_t_ms
    floor = SIGMA_FLOOR_MS
    anchor, seed, rules = _walk_setup(obs, g, cfg)
    edge_candidates = _reference_edges(rules)

    g0 = model.edge_gaussian(obs.edge_observed)
    mean0 = t_weight * g0.mean
    var0 = t_weight * g0.variance
    ll0 = normal_logpdf(delta_ms, mean0, math.sqrt(var0), floor)
    best_ll: dict[NodeId, float] = {anchor: ll0}
    queue: deque[tuple[NodeId, float, float, int, int, frozenset[NodeId], float]] = deque(
        [(anchor, mean0, var0, seed, 0, frozenset({obs.observer, anchor}), ll0)]
    )
    while queue:
        cur, mean_c, var_c, amount_c, delta_c, on_path, ll_cur = queue.popleft()
        for ch in edge_candidates(g, cur, amount_c, delta_c):
            nb = ch.other_end(cur)
            if nb in on_path:
                continue
            step = rules.step((ch, ch.policy_from(cur), ch.policy_from(nb)), amount_c, delta_c)
            if step is None:
                continue
            g_e = model.edge_gaussian(ch.id)
            mean_n = mean_c + t_weight * g_e.mean
            var_n = var_c + t_weight * g_e.variance
            ll_n = normal_logpdf(delta_ms, mean_n, math.sqrt(var_n), floor)
            if ll_n <= ll_cur:
                continue  # only increasing likelihood
            if ll_n > best_ll.get(nb, -math.inf):
                best_ll[nb] = ll_n
            queue.append((nb, mean_n, var_n, step[0], step[1], on_path | {nb}, ll_n))
    ranked = tuple(
        sorted(best_ll.items(), key=lambda item: (-item[1], item[0]))
    )
    return EstimationResult(candidates=ranked)


# ---------------------------------------------------------------------------
# reference payment engine: every message is a closure scheduled on an EventQueue


def sample_latency(latency: Gaussian, rng) -> int:
    """One edge traversal time in ns, clamped below at 1 ms: one scalar
    draw per message.

    Clamping (rather than resampling) keeps the number of RNG draws per
    message fixed, so seeded runs stay aligned.
    """
    ms = rng.normal(latency.mean, latency.std)
    return max(LATENCY_FLOOR_NS, int(round(ms * NS_PER_MS)))


class SchedulingError(RuntimeError):
    """An event was scheduled before the current simulation time."""


class EventQueue:
    """Min-heap of (fire_at, insertion sequence, event) tuples."""

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, object]] = []
        self._seq = itertools.count()

    def schedule(self, fire_at: int, event) -> None:
        if fire_at < self.now:
            raise SchedulingError(f"cannot schedule at {fire_at} < now {self.now}")
        heapq.heappush(self._heap, (fire_at, next(self._seq), event))

    def next_event(self):
        """The earliest event, or None; the clock moves to its time."""
        if not self._heap:
            return None
        self.now, _, event = heapq.heappop(self._heap)
        return event


class _PaymentRun:
    """Mutable state of one in-flight payment attempt."""

    def __init__(self, path: PaymentPath, payment_id: str):
        self.path = path
        self.payment_id = payment_id
        self.status: str | None = None
        self.failed_at_hop: int | None = None
        self.started_at: int | None = None
        self.completed_at: int | None = None
        self.messages: list[MessageRecord] = []


class ReferenceEngine:
    """Executes payments sequentially over one graph.

    One engine instance is one logical timeline: the clock is monotone over
    all payments it runs, which is what lets a fail-then-retry pair of
    attempts yield meaningful time differences at an observer.
    """

    def __init__(self, graph: ChannelGraph, balances: Balances, latencies: Latencies, rng,
                 behavior: NodeBehavior | None = None):
        self.graph = graph
        self.balances = balances
        self.latencies = latencies
        self.rng = rng
        self.behavior = behavior or NodeBehavior()
        self.queue = EventQueue()

    @property
    def now(self) -> int:
        """The engine's clock in ns, as `PaymentEngine.now` reads it."""
        return self.queue.now

    # -- message plumbing ---------------------------------------------------

    def _send(self, run: _PaymentRun, channel: str, frm: NodeId, to: NodeId,
              kind: str, on_delivery=None) -> None:
        sent_at = self.queue.now
        delivered_at = sent_at + sample_latency(self.latencies[channel], self.rng)

        def deliver():
            run.messages.append(
                MessageRecord(sent_at, delivered_at, run.payment_id, frm, to, channel, kind)
            )
            if on_delivery is not None:
                on_delivery()

        self.queue.schedule(delivered_at, deliver)

    def _handshake(self, run: _PaymentRun, channel: str, initiator: NodeId,
                   responder: NodeId, then=None) -> None:
        """commitment_signed/revoke_and_ack exchange, strictly sequential."""

        def send_next(i: int):
            if i == len(HANDSHAKE):
                if then is not None:
                    then()
                return
            kind, by_initiator = HANDSHAKE[i]
            frm, to = (initiator, responder) if by_initiator else (responder, initiator)
            self._send(run, channel, frm, to, kind, on_delivery=lambda: send_next(i + 1))

        send_next(0)

    # -- choreography -------------------------------------------------------

    def execute_payment(self, path: PaymentPath, payment_id: str) -> PaymentOutcome:
        """Run one payment attempt to completion and drain the queue."""
        if not path.hops:
            raise ValueError("payment path must contain at least one hop")
        _check_hops(self.graph, path)
        run = _PaymentRun(path, payment_id)
        run.started_at = self.queue.now
        if not _can_forward(self.balances, path.hops[0].frm, path.hops[0]):
            run.status = "failed"
            run.failed_at_hop = 0
            run.completed_at = self.queue.now
            return self._finish(run)
        self._start_hop(run, 0)
        while (action := self.queue.next_event()) is not None:
            action()
        assert run.status is not None, "payment did not complete"
        return self._finish(run)

    def _view(self, run: _PaymentRun, hop_index: int) -> HopView:
        """What the receiver of hop `hop_index`'s add learns."""
        hops = run.path.hops
        nxt = hops[hop_index + 1] if hop_index + 1 < len(hops) else None
        return HopView(run.payment_id, hops[hop_index], nxt)

    def _start_hop(self, run: _PaymentRun, hop_index: int) -> None:
        hop = run.path.hops[hop_index]
        channel = hop.channel

        def committed():
            view = self._view(run, hop_index)
            rejects = self.behavior.on_commit(self.queue.now, view)
            self._act(run, hop_index, rejects)

        def add_delivered():
            self._handshake(run, channel, hop.frm, hop.to, then=committed)

        self._send(run, channel, hop.frm, hop.to, ADD, on_delivery=add_delivered)

    def _act(self, run: _PaymentRun, hop_index: int, rejects: bool) -> None:
        """Receiving node of hop `hop_index` decides what happens next;
        `rejects` is its behaviour's decision."""
        hops = run.path.hops
        node = hops[hop_index].to
        view = self._view(run, hop_index)
        if rejects:
            # the first edge not added: the rejecting node's would-be outgoing
            # hop (== len(hops) when the final node rejects)
            self._reject(run, hop_index, at_hop=hop_index + 1)
            return
        if view.is_final:
            self._fulfill(run, hop_index)
            return
        if not _can_forward(self.balances, node, hops[hop_index + 1]):
            self._reject(run, hop_index, at_hop=hop_index + 1)
            return
        self._start_hop(run, hop_index + 1)

    def _reject(self, run: _PaymentRun, hop_index: int, at_hop: int) -> None:
        run.failed_at_hop = at_hop
        self._propagate_back(run, hop_index, FAIL)

    def _fulfill(self, run: _PaymentRun, hop_index: int) -> None:
        self._propagate_back(run, hop_index, FULFILL)

    def _propagate_back(self, run: _PaymentRun, hop_index: int, kind: str) -> None:
        """Relay fulfill/fail upstream, one traversal per edge, immediately."""
        hop = run.path.hops[hop_index]
        channel = hop.channel

        def delivered():
            if kind == FULFILL:
                self._settle(hop)
                # settlement handshake: simulated, gates nothing
                self._handshake(run, channel, hop.to, hop.frm)
                self.behavior.on_fulfill(self.queue.now, hop.frm, run.payment_id)
            if hop_index == 0:
                run.status = "fulfilled" if kind == FULFILL else "failed"
                run.completed_at = self.queue.now
            else:
                self._propagate_back(run, hop_index - 1, kind)

        self._send(run, channel, hop.to, hop.frm, kind, on_delivery=delivered)

    def _settle(self, hop: Hop) -> None:
        """Move the hop's amount from its sender's side to its receiver's, atomically."""
        out, into = (hop.channel, hop.frm), (hop.channel, hop.to)
        if self.balances[out] < hop.forward_amount_msat:
            raise RuntimeError(
                f"settling {hop.forward_amount_msat} over {hop.channel} exceeds balance"
            )
        self.balances[out] -= hop.forward_amount_msat
        self.balances[into] += hop.forward_amount_msat

    def _finish(self, run: _PaymentRun) -> PaymentOutcome:
        return PaymentOutcome(
            payment_id=run.payment_id,
            status=run.status,
            failed_at_hop=run.failed_at_hop,
            started_at=run.started_at,
            completed_at=run.completed_at,
            messages=run.messages,
        )
