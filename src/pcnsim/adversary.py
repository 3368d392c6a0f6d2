"""On-path adversary: observation capture and endpoint estimation.

Malicious intermediaries time two interactive exchanges.  Toward the
destination they record when they forward an add and when the matching
fulfill returns; toward the source they deliberately fail a payment's first
attempt and time the gap until the retried attempt is committed at them.
Either time difference grows with the observer's distance from the
respective endpoint, so ranking candidate endpoints by the likelihood of
the observed difference under per-edge Gaussian latency models yields a
maximum-likelihood guess.  A First-Spy estimator (guess the adjacent node)
serves as the baseline.  `AdversaryObserver` is the engine's behaviour:
each malicious node makes its choice, to fail or to forward and time, when
an add is committed at it.

Both candidate-path walks, the anonymity-set reduction and the estimator,
cross to a neighbour over each channel the victim's route search could have
picked (`TraversalRules.cross`): among the channels that can carry the
amount in the payment's direction, the cheapest at that amount under the
policy the payment crossed it by.  They pick inside the graph's neighbour
groups (`ChannelGraph.neighbour_groups`), which hold each node's channels
grouped by neighbour and are built once per graph, so a walk never rescans
a node's channels per neighbour.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graph import ChannelGraph, NodeId
from .latency import LatencyModel, normal_logpdf
from .routing import RoutingParams, TraversalRules, feasible_endpoints
from .sim import HopView, NodeBehavior

TOWARD_SOURCE = "toward-source"
TOWARD_DESTINATION = "toward-destination"

SIGMA_FLOOR_MS = 0.1


class EstimationError(RuntimeError):
    """Estimation could not produce a candidate (distinct from 'no valid
    endpoint exists', which reports the anchor as the only candidate)."""


@dataclass(frozen=True)
class AdversaryConfig:
    malicious_nodes: frozenset[NodeId]
    source_attack_enabled: bool = True
    timelock_reduction_enabled: bool = True

    def __post_init__(self):
        if not self.malicious_nodes:
            raise ValueError("adversary needs at least one malicious node")


@dataclass(frozen=True)
class Observation:
    """One timed sighting pair recorded at a malicious intermediary."""

    payment_id: str
    observer: NodeId
    edge_observed: str
    direction: str  # TOWARD_SOURCE | TOWARD_DESTINATION
    t0_ns: int
    t1_ns: int
    amount_msat: int
    timelock_blocks: int

    def __post_init__(self):
        if self.t1_ns < self.t0_ns:
            raise ValueError("t1 before t0")

    @property
    def delta_t_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    @property
    def delta_t_ms(self) -> float:
        return self.delta_t_ns / 1e6


@dataclass(frozen=True)
class EstimationResult:
    payment_id: str
    target: str  # "source" | "destination"
    candidates: tuple[tuple[NodeId, float], ...]  # sorted by descending loglik

    @property
    def top(self) -> NodeId:
        return self.candidates[0][0]


class AdversaryObserver(NodeBehavior):
    """The behaviour of one run's engine; only malicious nodes act.

    At its commit of an add a malicious intermediary fails the payment, if
    the source attack is enabled and no malicious node has failed it yet,
    and times the retry; otherwise it notes the add it forwards and times
    the matching fulfill.
    """

    def __init__(self, config: AdversaryConfig):
        self.config = config
        self.observations: list[Observation] = []
        # (node, payment) -> partially filled destination observation
        self._pending_dest: dict[tuple[NodeId, str], tuple[int, str, int, int]] = {}
        # payment -> (node, t0, edge, amount, timelock) waiting for the retry
        self._pending_src: dict[str, tuple[NodeId, int, str, int, int]] = {}
        self._failed_once: set[str] = set()

    # -- engine hooks --------------------------------------------------------

    def on_commit(self, t_ns: int, view: HopView) -> bool:
        """Close a pending source observation, then fail the payment or note
        the forwarded add.  The note is read only by a fulfill, which reaches
        a node only in an attempt it forwarded, so noting it at the commit
        records what the forward would."""
        node, pid = view.node, view.payment_id
        if node not in self.config.malicious_nodes:
            return False  # a pending source entry always names a malicious node
        pending = self._pending_src.get(pid)
        if pending is not None and pending[0] == node:
            _, t0, channel, amount, timelock = self._pending_src.pop(pid)
            self.observations.append(
                Observation(
                    payment_id=pid,
                    observer=node,
                    edge_observed=channel,
                    direction=TOWARD_SOURCE,
                    t0_ns=t0,
                    t1_ns=t_ns,
                    amount_msat=amount,
                    timelock_blocks=timelock,
                )
            )
        if view.is_final:
            return False
        if self.config.source_attack_enabled and pid not in self._failed_once:
            self._failed_once.add(pid)
            self._pending_src[pid] = (node, t_ns, view.in_channel, view.amount_msat,
                                      view.remaining_timelock)
            return True
        self._pending_dest[(node, pid)] = (
            t_ns, view.next_channel, view.forward_amount_msat, view.forward_timelock,
        )
        return False

    def on_fulfill(self, t_ns: int, node: NodeId, payment_id: str) -> None:
        pending = self._pending_dest.pop((node, payment_id), None)
        if pending is None:
            return
        t0, channel, amount, timelock = pending
        self.observations.append(
            Observation(
                payment_id=payment_id,
                observer=node,
                edge_observed=channel,
                direction=TOWARD_DESTINATION,
                t0_ns=t0,
                t1_ns=t_ns,
                amount_msat=amount,
                timelock_blocks=timelock,
            )
        )

    # -- selection ------------------------------------------------------------

    def adversarially_failed(self, payment_id: str) -> bool:
        """Whether a malicious node rejected `payment_id` to time its retry."""
        return payment_id in self._failed_once

    def estimation_inputs(self) -> dict[str, dict[str, Observation]]:
        """Pick the estimation observation per payment and direction.

        With several malicious observers on one path, the destination leg
        uses the observation of the node closest to the destination: adds
        propagate forward in time, so that is the one forwarded last.
        """
        out: dict[str, dict[str, Observation]] = {}
        for obs in self.observations:
            slot = out.setdefault(obs.payment_id, {})
            if obs.direction == TOWARD_DESTINATION:
                cur = slot.get("destination")
                if cur is None or obs.t0_ns > cur.t0_ns:
                    slot["destination"] = obs
            else:
                cur = slot.get("source")
                if cur is None or obs.t0_ns < cur.t0_ns:
                    slot["source"] = obs
        return out


# ---------------------------------------------------------------------------
# anonymity-set reduction


def _anchor_of(obs: Observation, g: ChannelGraph) -> NodeId:
    return g.channels[obs.edge_observed].other_end(obs.observer)


def _walk_setup(obs: Observation, g: ChannelGraph, cfg: AdversaryConfig):
    """Anchor, seed amount and traversal rules for candidate-path walks.

    Destination leg: the observed amount arrives at the anchor over the
    observed edge and shrinks by fees beyond it; the observed remaining
    timelock, less the observed edge's own delta, bounds how many deltas
    the downstream hops may still consume.  That budget still holds the
    route's final CLTV delta, which no hop consumes, so it exceeds the true
    downstream deltas by exactly that much (40 blocks by default); whether
    to subtract it is an open modelling question.  Source leg: the far endpoint
    forwarded the observed amount, so the walk grows it by the observed
    edge's fee first; the lock budget is unbounded from below.
    """
    channel = g.channels[obs.edge_observed]
    anchor = channel.other_end(obs.observer)
    if obs.direction == TOWARD_DESTINATION:
        budget = None
        if cfg.timelock_reduction_enabled:
            budget = obs.timelock_blocks - channel.policy_from(obs.observer).timelock_delta
            budget = max(budget, 0)
        return anchor, obs.amount_msat, TraversalRules("from-anchor", budget)
    policy = channel.policy_from(anchor)
    seed = obs.amount_msat + policy.fee_msat(obs.amount_msat)
    return anchor, seed, TraversalRules("toward-anchor")


def reduce_anonymity_set(
    obs: Observation,
    g: ChannelGraph,
    cfg: AdversaryConfig,
    params: RoutingParams | None = None,
) -> frozenset[NodeId]:
    """Candidate endpoints compatible with the observed amount and lock time.

    Nodes are kept only if some simple path from the anchor satisfies the
    capacity and (destination leg, unless ablated) time-lock constraints
    jointly.  The walk crosses each channel of a node pair that the
    victim's route search could have picked (`TraversalRules.cross`): the
    cheapest one with capacity for the amount it carries, at that amount.
    It never re-crosses the observer.

    Only the destination leg has a lock budget to bound the walk.  The
    source leg has none and enumerates every simple path from the anchor:
    on 200-node scale-free graphs each of 20 sampled source-leg walks ran
    past 5 s.  Call this with destination observations.
    """
    params = params or RoutingParams()
    if obs.edge_observed not in g.channels:
        raise EstimationError(f"observed edge {obs.edge_observed} not in graph")
    anchor, seed, rules = _walk_setup(obs, g, cfg)
    return feasible_endpoints(g, anchor, seed, rules, params, frozenset({obs.observer}))


# ---------------------------------------------------------------------------
# estimators


def estimate_endpoint(
    obs: Observation,
    g: ChannelGraph,
    model: LatencyModel,
    cfg: AdversaryConfig,
    params: RoutingParams | None = None,
) -> EstimationResult:
    """Rank candidate endpoints by the likelihood of the observed delta-t.

    Iterative traversal seeded with the known first hop across the observed
    edge.  A candidate path is extended to a neighbor only while the
    extension strictly increases the log-density of delta-t along that
    chain (the only-increasing-likelihood rule) and stays feasible for the
    observed amount and lock budget; each node's reported likelihood is the
    best over the chains that reached it.  All visited candidates are
    returned ranked, ties broken by node id.
    """
    params = params or RoutingParams()
    if obs.edge_observed not in g.channels:
        raise EstimationError(f"observed edge {obs.edge_observed} not in graph")
    t_weight = model.traversal_weight
    delta_ms = obs.delta_t_ms
    floor = SIGMA_FLOOR_MS
    anchor, seed, rules = _walk_setup(obs, g, cfg)

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
        for nb, sides in g.neighbour_groups(cur):
            if nb in on_path:
                continue  # before choosing its channel: that choice would be dropped
            for side, step in rules.cross(sides, amount_c, delta_c, params):
                g_e = model.edge_gaussian(side[0].id)
                mean_n = mean_c + t_weight * g_e.mean
                var_n = var_c + t_weight * g_e.variance
                ll_n = normal_logpdf(delta_ms, mean_n, math.sqrt(var_n), floor)
                if ll_n <= ll_cur:
                    continue  # only increasing likelihood
                if ll_n > best_ll.get(nb, -math.inf):
                    best_ll[nb] = ll_n
                queue.append((nb, mean_n, var_n, step[0], step[1], on_path | {nb}, ll_n))
    if not best_ll:
        raise EstimationError(f"no candidates for payment {obs.payment_id}")
    ranked = tuple(
        sorted(best_ll.items(), key=lambda item: (-item[1], item[0]))
    )
    return EstimationResult(
        payment_id=obs.payment_id,
        target="destination" if obs.direction == TOWARD_DESTINATION else "source",
        candidates=ranked,
    )


def first_spy_estimate(obs: Observation, g: ChannelGraph) -> EstimationResult:
    """Baseline: the node adjacent across the observed edge is the endpoint."""
    anchor = _anchor_of(obs, g)
    return EstimationResult(
        payment_id=obs.payment_id,
        target="destination" if obs.direction == TOWARD_DESTINATION else "source",
        candidates=((anchor, 0.0),),
    )
