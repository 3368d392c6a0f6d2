"""Deterministic discrete-event execution of multi-hop payments.

The engine replays the interactive channel-update choreography one message
at a time on a 1 ns clock: an add crosses its edge, the four-message
commitment/revocation handshake runs on that edge, and only then does the
receiving node act (forward, fulfill, or fail).  Fulfills and fails are
relayed upstream immediately, one edge traversal each; the settlement
handshake after a fulfill is simulated for timeline completeness but gates
nothing.  Each edge of a completed hop is therefore crossed exactly six
times, which is the ground truth the adversarial timing model calibrates
against.

Probes (payments crafted to fail at their last hop) are evaluated in closed
form by `probe_batch` rather than on the engine: they move no balances and
their messages are strictly sequential, so one vectorised draw per probed
path gives, draw for draw, the durations, failing hop and random-stream
state of running each probe through `PaymentEngine.execute_payment`.
"""

from __future__ import annotations

import csv
import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .graph import Channel, FullGraph, NodeId
from .routing import PaymentPath

NS_PER_MS = 1_000_000
LATENCY_FLOOR_NS = 1 * NS_PER_MS

ADD = "update_add_htlc"
COMMIT = "commitment_signed"
REVOKE = "revoke_and_ack"
FULFILL = "update_fulfill_htlc"
FAIL = "update_fail_htlc"

# What one hop puts on its channel, strictly in sequence, before its
# receiving node acts: the add, then the commitment/revocation handshake.
# Each entry is (kind, sent by the side that opened the exchange).
HOP_MESSAGES = (
    (ADD, True),
    (COMMIT, True),
    (REVOKE, False),
    (COMMIT, False),
    (REVOKE, True),
)
HANDSHAKE = HOP_MESSAGES[1:]

# per fully processed edge: the hop's messages plus the fulfill/fail back
TRAVERSALS_PER_EDGE = len(HOP_MESSAGES) + 1


class SchedulingError(RuntimeError):
    """An event was scheduled before the current simulation time."""


class EventQueue:
    """Min-heap of (fire_at, insertion sequence, action) tuples."""

    def __init__(self, start_ns: int = 0):
        self.now = start_ns
        self._heap: list[tuple[int, int, object]] = []
        self._seq = itertools.count()

    def schedule(self, fire_at: int, action) -> None:
        if fire_at < self.now:
            raise SchedulingError(f"cannot schedule at {fire_at} < now {self.now}")
        heapq.heappush(self._heap, (fire_at, next(self._seq), action))

    def next_event(self):
        """Action of the earliest event, or None; the clock moves to its time."""
        if not self._heap:
            return None
        self.now, _, action = heapq.heappop(self._heap)
        return action

    def __len__(self):
        return len(self._heap)


def sample_latency(channel: Channel, rng) -> int:
    """One edge traversal time in ns, clamped below at 1 ms.

    Clamping (rather than resampling) keeps the number of RNG draws per
    message fixed, so seeded runs stay aligned.
    """
    if channel.latency is None:
        raise ValueError(f"channel {channel.id} has no latency assigned")
    ms = rng.normal(channel.latency.mean, channel.latency.std)
    return max(LATENCY_FLOOR_NS, int(round(ms * NS_PER_MS)))


@dataclass(frozen=True)
class HopView:
    """Everything a node legitimately learns about one payment it handles.

    Downstream hop payloads stay inside the engine; behaviors only ever see
    this view (onion semantics without the cryptography).
    """

    payment_id: str
    node: NodeId
    in_channel: str | None
    amount_msat: int
    remaining_timelock: int
    is_final: bool
    next_channel: str | None = None
    forward_amount_msat: int | None = None
    forward_timelock: int | None = None


class NodeBehavior:
    """Per-node policy and observation hooks; the default is honest."""

    def wants_reject(self, view: HopView) -> bool:
        return False

    def on_commit(self, t_ns: int, view: HopView) -> None:
        """Incoming add fully committed at view.node (before it acts)."""

    def on_forward(self, t_ns: int, view: HopView) -> None:
        """view.node sent its outgoing add."""

    def on_fulfill(self, t_ns: int, node: NodeId, payment_id: str) -> None:
        """A fulfill for payment_id was delivered to node."""

    def on_fail_sent(self, t_ns: int, view: HopView) -> None:
        """view.node rejected the payment and sent the fail upstream."""


HONEST = NodeBehavior()


@dataclass(frozen=True)
class MessageRecord:
    sent_at: int
    delivered_at: int
    payment_id: str
    frm: NodeId
    to: NodeId
    channel: str
    kind: str


@dataclass
class PaymentOutcome:
    payment_id: str
    status: str  # "fulfilled" | "failed"
    failed_at_hop: int | None
    started_at: int
    completed_at: int
    messages: list[MessageRecord] = field(default_factory=list)


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


class PaymentEngine:
    """Executes payments sequentially over one FullGraph.

    One engine instance is one logical timeline: the clock is monotone over
    all payments it runs, which is what lets a fail-then-retry pair of
    attempts yield meaningful time differences at an observer.
    """

    def __init__(self, graph: FullGraph, rng, behaviors: dict[NodeId, NodeBehavior] | None = None):
        self.graph = graph
        self.rng = rng
        self.behaviors = behaviors or {}
        self.queue = EventQueue()

    def _behavior(self, node: NodeId) -> NodeBehavior:
        return self.behaviors.get(node, HONEST)

    # -- message plumbing ---------------------------------------------------

    def _send(self, run: _PaymentRun, channel: Channel, frm: NodeId, to: NodeId,
              kind: str, on_delivery=None) -> None:
        sent_at = self.queue.now
        delivered_at = sent_at + sample_latency(channel, self.rng)

        def deliver():
            run.messages.append(
                MessageRecord(sent_at, delivered_at, run.payment_id, frm, to, channel.id, kind)
            )
            if on_delivery is not None:
                on_delivery()

        self.queue.schedule(delivered_at, deliver)

    def _handshake(self, run: _PaymentRun, channel: Channel, initiator: NodeId,
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

    def execute_payment(
        self,
        path: PaymentPath,
        payment_id: str,
        fail_at: NodeId | None = None,
    ) -> PaymentOutcome:
        """Run one payment attempt to completion and drain the queue.

        `fail_at` marks a node that must reject the payment when it would
        otherwise act on it (used by crafted probe payments).
        """
        if not path.hops:
            raise ValueError("payment path must contain at least one hop")
        _check_hops(self.graph, path)
        run = _PaymentRun(path, payment_id)
        run.started_at = self.queue.now
        if not _can_forward(self.graph, path.hops[0].frm, path.hops[0]):
            run.status = "failed"
            run.failed_at_hop = 0
            run.completed_at = self.queue.now
            return self._finish(run)
        self._start_hop(run, 0, fail_at)
        while (action := self.queue.next_event()) is not None:
            action()
        assert run.status is not None, "payment did not complete"
        return self._finish(run)

    def _view(self, run: _PaymentRun, hop_index: int) -> HopView:
        """What the receiver of hop `hop_index`'s add learns."""
        hops = run.path.hops
        hop = hops[hop_index]
        nxt = hops[hop_index + 1] if hop_index + 1 < len(hops) else None
        return HopView(
            payment_id=run.payment_id,
            node=hop.to,
            in_channel=hop.channel,
            amount_msat=hop.forward_amount_msat,
            remaining_timelock=hop.remaining_timelock,
            is_final=nxt is None,
            next_channel=nxt.channel if nxt else None,
            forward_amount_msat=nxt.forward_amount_msat if nxt else None,
            forward_timelock=nxt.remaining_timelock if nxt else None,
        )

    def _start_hop(self, run: _PaymentRun, hop_index: int, fail_at: NodeId | None) -> None:
        hop = run.path.hops[hop_index]
        channel = self.graph.channels[hop.channel]
        if hop_index > 0:
            view = self._view(run, hop_index - 1)
            self._behavior(hop.frm).on_forward(self.queue.now, view)

        def committed():
            view = self._view(run, hop_index)
            self._behavior(hop.to).on_commit(self.queue.now, view)
            self._act(run, hop_index, fail_at)

        def add_delivered():
            self._handshake(run, channel, hop.frm, hop.to, then=committed)

        self._send(run, channel, hop.frm, hop.to, ADD, on_delivery=add_delivered)

    def _act(self, run: _PaymentRun, hop_index: int, fail_at: NodeId | None) -> None:
        """Receiving node of hop `hop_index` decides what happens next."""
        hops = run.path.hops
        node = hops[hop_index].to
        view = self._view(run, hop_index)
        if node == fail_at or self._behavior(node).wants_reject(view):
            # the first edge not added: the rejecting node's would-be outgoing
            # hop (== len(hops) when the final node rejects)
            self._reject(run, hop_index, at_hop=hop_index + 1)
            return
        if view.is_final:
            self._fulfill(run, hop_index)
            return
        if not _can_forward(self.graph, node, hops[hop_index + 1]):
            self._reject(run, hop_index, at_hop=hop_index + 1)
            return
        self._start_hop(run, hop_index + 1, fail_at)

    def _reject(self, run: _PaymentRun, hop_index: int, at_hop: int) -> None:
        node = run.path.hops[hop_index].to
        run.failed_at_hop = at_hop
        self._behavior(node).on_fail_sent(self.queue.now, self._view(run, hop_index))
        self._propagate_back(run, hop_index, FAIL)

    def _fulfill(self, run: _PaymentRun, hop_index: int) -> None:
        self._propagate_back(run, hop_index, FULFILL)

    def _propagate_back(self, run: _PaymentRun, hop_index: int, kind: str) -> None:
        """Relay fulfill/fail upstream, one traversal per edge, immediately."""
        hop = run.path.hops[hop_index]
        channel = self.graph.channels[hop.channel]

        def delivered():
            if kind == FULFILL:
                self._settle(channel, hop.frm, hop.forward_amount_msat)
                # settlement handshake: simulated, gates nothing
                self._handshake(run, channel, hop.to, hop.frm)
                self._behavior(hop.frm).on_fulfill(self.queue.now, hop.frm, run.payment_id)
            if hop_index == 0:
                run.status = "fulfilled" if kind == FULFILL else "failed"
                run.completed_at = self.queue.now
            else:
                self._propagate_back(run, hop_index - 1, kind)

        self._send(run, channel, hop.to, hop.frm, kind, on_delivery=delivered)

    def _settle(self, channel: Channel, frm: NodeId, amount_msat: int) -> None:
        """Move amount from frm's side to the other side, atomically."""
        out_policy = channel.policy_from(frm)
        in_policy = channel.policy_from(channel.other_end(frm))
        assert out_policy.balance_msat is not None and in_policy.balance_msat is not None
        if out_policy.balance_msat < amount_msat:
            raise RuntimeError(
                f"settling {amount_msat} over {channel.id} exceeds balance"
            )
        out_policy.balance_msat -= amount_msat
        in_policy.balance_msat += amount_msat

    def _finish(self, run: _PaymentRun) -> PaymentOutcome:
        return PaymentOutcome(
            payment_id=run.payment_id,
            status=run.status,
            failed_at_hop=run.failed_at_hop,
            started_at=run.started_at,
            completed_at=run.completed_at,
            messages=run.messages,
        )


def _check_hops(graph: FullGraph, path: PaymentPath) -> None:
    for hop in path.hops:
        ch = graph.channels.get(hop.channel)
        if ch is None or {hop.frm, hop.to} != {ch.u, ch.v}:
            raise ValueError(f"hop {hop} does not match the graph")
        if hop.forward_amount_msat <= 0:
            raise ValueError("forward amounts must be positive")


def _can_forward(graph: FullGraph, node: NodeId, hop) -> bool:
    """Whether `node` holds enough balance on hop's channel to send its add."""
    bal = graph.channels[hop.channel].policy_from(node).balance_msat
    return bal is not None and bal >= hop.forward_amount_msat


# ---------------------------------------------------------------------------
# probes in closed form


@dataclass(frozen=True)
class ProbeBatch:
    """n probes of one path, crafted to be rejected by its last node."""

    hop_count: int
    failed_at_hop: int  # as the engine reports it; the same for every probe
    durations_ms: list[float]  # add-to-fail round trip of each probe, in order

    @property
    def samples_ms(self) -> list[float]:
        """Durations of the probes that failed at the last hop: only these
        time the whole path.  The others are discarded."""
        return self.durations_ms if self.failed_at_hop == self.hop_count else []

    @property
    def discarded(self) -> int:
        return len(self.durations_ms) - len(self.samples_ms)


def probe_batch(graph: FullGraph, vantage: NodeId, path: PaymentPath, n: int,
                rng) -> ProbeBatch:
    """Run `n` probes from `vantage` over `path`, each failed by the path's
    last node, with one vectorised draw.

    Equivalent, draw for draw, to `n` sequential
    `PaymentEngine(graph, rng).execute_payment(path, pid, fail_at=last node)`
    calls on an engine with no behaviours.  Such a probe moves no balance,
    so every probe stops at the same hop k, found by the checks `_act` makes
    in order; its messages are strictly sequential: the hop messages on
    channels 0..k, then one fail back on each of channels k..0.  A normal
    draw with per-element parameters consumes the random stream exactly as
    the engine's scalar draws do, and latencies are clamped as
    `sample_latency` clamps them.
    """
    hops = path.hops
    if not hops:
        raise ValueError("probe path must contain at least one hop")
    if hops[0].frm != vantage:
        raise ValueError(f"probe path does not start at {vantage}")
    _check_hops(graph, path)
    if not _can_forward(graph, vantage, hops[0]):
        return ProbeBatch(len(hops), 0, [0.0] * n)
    target = hops[-1].to
    k = 0
    while hops[k].to != target and _can_forward(graph, hops[k].to, hops[k + 1]):
        k += 1
    channels = [graph.channels[hop.channel] for hop in hops[: k + 1]]
    for ch in channels:
        if ch.latency is None:
            raise ValueError(f"channel {ch.id} has no latency assigned")
    sequence = [ch for ch in channels for _ in HOP_MESSAGES] + channels[::-1]
    mean = np.array([ch.latency.mean for ch in sequence])
    std = np.array([ch.latency.std for ch in sequence])
    ms = rng.normal(mean, std, size=(n, len(sequence)))
    ns = np.maximum(LATENCY_FLOOR_NS, np.rint(ms * NS_PER_MS)).astype(np.int64)
    durations = ns.sum(axis=1) / NS_PER_MS
    return ProbeBatch(len(hops), k + 1, durations.tolist())


TIMELINE_CSV_FIELDS = ["time_ns", "payment_id", "from_node", "to_node", "channel_id", "kind"]


def export_timeline(path, outcomes: list[PaymentOutcome]) -> None:
    """One row per delivered message, ordered by delivery time."""
    rows = []
    for outcome in outcomes:
        for m in outcome.messages:
            rows.append([m.delivered_at, m.payment_id, m.frm, m.to, m.channel, m.kind])
    rows.sort(key=lambda r: (r[0], r[1], r[4], r[5]))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TIMELINE_CSV_FIELDS)
        w.writerows(rows)
