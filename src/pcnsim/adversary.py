"""On-path adversary: observation capture and endpoint estimation.

Malicious intermediaries time two interactive exchanges.  Toward the
destination they record when they forward an add and when the matching
fulfill returns; toward the source they deliberately fail a payment's first
attempt and time the gap until the retried attempt is committed at them.
Either time difference grows with the observer's distance from the
respective endpoint, so ranking candidate endpoints by the likelihood of
the observed difference under per-edge Gaussian latency models yields a
maximum-likelihood guess.  A best-first search finds that guess without
walking the candidate chains that cannot beat it.  A First-Spy estimator
(guess the adjacent node) serves as the baseline.  `AdversaryObserver` is
the engine's behaviour: each malicious node makes its choice, to fail or to
forward and time, when an add is committed at it.

Both candidate-path walks, the anonymity-set reduction and the estimator,
cross to a neighbour over each channel the victim's route search could have
picked (`TraversalRules.cross`): among the channels that can carry the
amount in the payment's direction, the cheapest at that amount under the
policy the payment crossed it by.  They pick inside the graph's neighbour
groups (`ChannelGraph.neighbour_groups`), which hold every node's channels
grouped by neighbour and are built in one pass once per graph; a walk
fetches them once and never rescans a node's channels per neighbour.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .graph import Channel, ChannelGraph, NodeId
from .latency import LatencyModel, logpdf_bound, normal_logpdf
from .routing import Hop, TraversalRules, feasible_endpoints
from .sim import HopView, NodeBehavior

TOWARD_SOURCE = "toward-source"
TOWARD_DESTINATION = "toward-destination"

SIGMA_FLOOR_MS = 0.1
# Relative slack on the search bound; see `estimate_endpoint`.
_PRUNE_MARGIN = 1e-9


class EstimationError(RuntimeError):
    """The observation names a channel the graph does not have.  (When no
    endpoint beyond the anchor is feasible, the anchor is the only
    candidate.)"""


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
    """`estimate_endpoint`'s guess for one payment's source or destination.

    `candidates` is the 1-tuple `((node, loglik),)` of the likeliest
    endpoint.
    """

    candidates: tuple[tuple[NodeId, float], ...]

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
        # (node, payment) -> (t0, forwarded hop) of a destination observation
        self._pending_dest: dict[tuple[NodeId, str], tuple[int, Hop]] = {}
        # payment -> (node, t0, failed incoming hop) waiting for the retry
        self._pending_src: dict[str, tuple[NodeId, int, Hop]] = {}
        self._failed_once: set[str] = set()

    def _observe(self, payment_id: str, node: NodeId, hop: Hop, direction: str,
                 t0_ns: int, t1_ns: int) -> None:
        self.observations.append(
            Observation(
                payment_id=payment_id,
                observer=node,
                edge_observed=hop.channel,
                direction=direction,
                t0_ns=t0_ns,
                t1_ns=t1_ns,
                amount_msat=hop.forward_amount_msat,
                timelock_blocks=hop.remaining_timelock,
            )
        )

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
            _, t0, hop = self._pending_src.pop(pid)
            self._observe(pid, node, hop, TOWARD_SOURCE, t0, t_ns)
        if view.is_final:
            return False
        if self.config.source_attack_enabled and pid not in self._failed_once:
            self._failed_once.add(pid)
            self._pending_src[pid] = (node, t_ns, view.incoming)
            return True
        self._pending_dest[(node, pid)] = (t_ns, view.outgoing)
        return False

    def on_fulfill(self, t_ns: int, node: NodeId, payment_id: str) -> None:
        pending = self._pending_dest.pop((node, payment_id), None)
        if pending is not None:
            t0, hop = pending
            self._observe(payment_id, node, hop, TOWARD_DESTINATION, t0, t_ns)

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


def _observed_channel(obs: Observation, g: ChannelGraph) -> Channel:
    channel = g.channels.get(obs.edge_observed)
    if channel is None:
        raise EstimationError(f"observed edge {obs.edge_observed} not in graph")
    return channel


def _walk_setup(obs: Observation, g: ChannelGraph, cfg: AdversaryConfig):
    """Anchor, seed amount and traversal rules for candidate-path walks.

    Destination leg: the observed amount arrives at the anchor over the
    observed edge and shrinks by fees beyond it; the observed remaining
    timelock, less the observed edge's own delta, bounds how many deltas
    the downstream hops may still consume.  That budget still holds the
    route's final CLTV delta (`routing.FINAL_CLTV_DELTA`), which no hop
    consumes, so it exceeds the true downstream deltas by exactly that
    much; whether to subtract it is an open modelling question.  Source
    leg: the far endpoint forwarded the observed amount, so the walk grows
    it by the observed edge's fee first; the lock budget is unbounded from
    below.  An observed edge the graph lacks raises EstimationError.
    """
    channel = _observed_channel(obs, g)
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
    anchor, seed, rules = _walk_setup(obs, g, cfg)
    return feasible_endpoints(g, anchor, seed, rules, frozenset({obs.observer}))


# ---------------------------------------------------------------------------
# estimators


def estimate_endpoint(
    obs: Observation,
    g: ChannelGraph,
    model: LatencyModel,
    cfg: AdversaryConfig,
) -> EstimationResult:
    """The likeliest endpoint under the observed delta-t.

    A candidate chain starts with the known first hop across the observed
    edge and is extended to a neighbour only while the extension strictly
    increases the log-density of delta-t along it (the only-increasing-
    likelihood rule) and stays feasible for the observed amount and lock
    budget.  The endpoint is the node that some chain reaches with the
    highest log-likelihood, ties going to the least node id; the result
    holds that one (node, log-likelihood) pair.

    Chains are extended best-first by `logpdf_bound`, the most any of their
    extensions can reach: every edge mean is non-negative, as every model
    the probing campaign builds has, so an extension's mean and variance are
    at least its prefix's.  A chain whose bound, plus a margin of
    `_PRUNE_MARGIN` times one more than the bound's magnitude, falls below
    the best log-likelihood found is not extended, and the search stops
    when the best chain left is such a chain.  Ties survive: a chain whose
    bound equals the best is still extended.

    Why the stop is exact in floating point: the rounded sums of
    non-negative terms never fall below their prefix's under
    round-to-nearest, so a longer chain's float mean and variance are at
    least its prefix's, and `sqrt` and `log` are monotone to within an
    ulp.  The computed log-density and bound each lie within
    a few ulps of their terms (z^2 / 2, |log sigma|, log(2 pi) / 2) of the
    exact values for those floats.  Where an extension's log-density comes
    near the bound, z is at most about 1 and, with sigma at least
    `SIGMA_FLOOR_MS`, every term is a small multiple of 1 + |bound|; the
    margin, 1e-9 of that, is millions of ulps wide.  So no pruned chain
    had an extension that ties or beats the best, and the result is the
    one the full walk gives (`tests/oracles.py` `reference_estimate`).
    """
    anchor, seed, rules = _walk_setup(obs, g, cfg)
    t_weight = model.traversal_weight
    delta_ms = obs.delta_t_ms
    floor = SIGMA_FLOOR_MS

    def reach(mean: float, var: float) -> float:
        bound = logpdf_bound(delta_ms, mean, var, floor)
        return bound + _PRUNE_MARGIN * (1.0 + abs(bound))

    g0 = model.edge_gaussian(obs.edge_observed)
    mean0 = t_weight * g0.mean
    var0 = t_weight * g0.variance
    best_ll = normal_logpdf(delta_ms, mean0, math.sqrt(var0), floor)
    best_node = anchor
    order = itertools.count()  # breaks ties in reach before the states compare
    heap = [(-reach(mean0, var0), next(order), anchor, mean0, var0, seed, 0,
             frozenset({obs.observer, anchor}), best_ll)]
    groups = g.neighbour_groups()
    while heap:
        neg_reach, _, cur, mean_c, var_c, amount_c, delta_c, on_path, ll_cur = heapq.heappop(heap)
        if -neg_reach < best_ll:
            break  # no chain left can reach the best guess
        for nb, sides in groups[cur]:
            if nb in on_path:
                continue  # before choosing its channel: that choice would be dropped
            for side, step in rules.cross(sides, amount_c, delta_c):
                g_e = model.edge_gaussian(side[0].id)
                mean_n = mean_c + t_weight * g_e.mean
                var_n = var_c + t_weight * g_e.variance
                ll_n = normal_logpdf(delta_ms, mean_n, math.sqrt(var_n), floor)
                if ll_n <= ll_cur:
                    continue  # only increasing likelihood
                if ll_n > best_ll or (ll_n == best_ll and nb < best_node):
                    best_ll, best_node = ll_n, nb
                r = reach(mean_n, var_n)
                if r >= best_ll:
                    heapq.heappush(heap, (-r, next(order), nb, mean_n, var_n, step[0], step[1],
                                          on_path | {nb}, ll_n))
    return EstimationResult(candidates=((best_node, best_ll),))


def first_spy_estimate(obs: Observation, g: ChannelGraph) -> NodeId:
    """Baseline: the node adjacent across the observed edge is the endpoint."""
    return _observed_channel(obs, g).other_end(obs.observer)
