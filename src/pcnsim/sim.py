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

`PaymentEngine.execute_payment` is one loop over an `EventQueue` of plain
records, one per message in flight: (phase, hop index, position in the
phase's script, sender, receiver, sent_at).  A phase is the script the
message belongs to: the hop messages going forward, the fulfill or fail
going back, or the settlement handshake.  Delivering a record logs it as a
`MessageRecord`, then sends the next message of its script or, at the end
of the script, runs the step that follows: the receiving node's decision
after a forward hop, the relay upstream (and settlement) after a back one.

The engine runs one `NodeBehavior` for every node, with two hooks.
`on_commit` sees each committed add as a `HopView`, the path's incoming and
outgoing `Hop` at the receiving node, and returns that node's decision to
reject it; the node also rejects when it cannot forward.  `on_fulfill`
sees each fulfill delivered.

The engine reads the graph's public data and keeps a run's private state in
the two maps it is given: the balances, which settlement moves, and the
true latencies, from which every message's traversal time is drawn.

Probes (payments crafted to fail at their last hop) are evaluated in closed
form by `probe_batch` rather than on the engine: they move no balances and
their messages are strictly sequential, so one vectorised draw per probed
path gives, draw for draw, the durations, failing hop and random-stream
state of running each probe through an engine whose behaviour rejects at
the path's last node.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .graph import Balances, ChannelGraph, Gaussian, Latencies, NodeId
from .routing import Hop, PaymentPath

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

# The phases of an attempt's messages, each the script it runs on one hop.
# FORWARD is opened by the hop's sender; the others by its receiver: the
# fulfill or fail relayed back, and the settlement handshake after a fulfill.
FORWARD = HOP_MESSAGES
FULFILL_BACK = ((FULFILL, True),)
FAIL_BACK = ((FAIL, True),)
SETTLE = HANDSHAKE


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

    def clear(self) -> None:
        """Drop every pending event; the clock stays where it is."""
        self._heap.clear()

    def next_event(self):
        """The earliest event, or None; the clock moves to its time."""
        if not self._heap:
            return None
        self.now, _, event = heapq.heappop(self._heap)
        return event


def sample_latency(latency: Gaussian, rng) -> int:
    """One edge traversal time in ns, clamped below at 1 ms.

    Clamping (rather than resampling) keeps the number of RNG draws per
    message fixed, so seeded runs stay aligned.
    """
    ms = rng.normal(latency.mean, latency.std)
    return max(LATENCY_FLOOR_NS, int(round(ms * NS_PER_MS)))


@dataclass(frozen=True, slots=True)
class HopView:
    """Everything a node legitimately learns about one payment it handles:
    the hop that reached it and, unless it is the final node, the hop it is
    asked to forward.

    The incoming hop's `frm` and the outgoing hop's `to` are the node's own
    channel peers, so the view shows nothing past the next hop (onion
    semantics without the cryptography).
    """

    payment_id: str
    incoming: Hop
    outgoing: Hop | None

    @property
    def node(self) -> NodeId:
        return self.incoming.to

    @property
    def is_final(self) -> bool:
        return self.outgoing is None


class NodeBehavior:
    """What every node of an engine does beyond forwarding; the default is
    honest.

    One behaviour serves all nodes of an engine, so each hook names the node
    it is called for.
    """

    def on_commit(self, t_ns: int, view: HopView) -> bool:
        """Incoming add fully committed at view.node, before it acts; a true
        return rejects the payment there."""
        return False

    def on_fulfill(self, t_ns: int, node: NodeId, payment_id: str) -> None:
        """A fulfill for payment_id was delivered to node."""


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


class PaymentEngine:
    """Executes payments sequentially over one graph.

    One engine instance is one logical timeline: the clock is monotone over
    all payments it runs, which is what lets a fail-then-retry pair of
    attempts yield meaningful time differences at an observer.  Settled
    payments move amounts in `balances`, which the engine owns for its run.
    """

    def __init__(self, graph: ChannelGraph, balances: Balances, latencies: Latencies, rng,
                 behavior: NodeBehavior | None = None):
        self.graph = graph
        self.balances = balances
        self.latencies = latencies
        self.rng = rng
        self.behavior = behavior or NodeBehavior()
        self.queue = EventQueue()

    def execute_payment(self, path: PaymentPath, payment_id: str) -> PaymentOutcome:
        """Run one payment attempt to completion and drain the queue.

        If the attempt raises, its pending messages are dropped, so the next
        payment on this engine starts from an empty queue.
        """
        hops = path.hops
        if not hops:
            raise ValueError("payment path must contain at least one hop")
        _check_hops(self.graph, path)
        balances, queue, rng, behavior = self.balances, self.queue, self.rng, self.behavior
        outcome = PaymentOutcome(payment_id, None, None, queue.now, None)
        if not _can_forward(balances, hops[0].frm, hops[0]):
            outcome.status, outcome.failed_at_hop, outcome.completed_at = "failed", 0, queue.now
            return outcome
        latencies = [self.latencies[hop.channel] for hop in hops]
        messages = outcome.messages

        def send(phase, i: int, j: int) -> None:
            """Put message j of `phase`'s script on hop i's channel."""
            hop, now = hops[i], queue.now
            opener, other = (hop.frm, hop.to) if phase is FORWARD else (hop.to, hop.frm)
            frm, to = (opener, other) if phase[j][1] else (other, opener)
            queue.schedule(now + sample_latency(latencies[i], rng), (phase, i, j, frm, to, now))

        send(FORWARD, 0, 0)
        try:
            while (event := queue.next_event()) is not None:
                phase, i, j, frm, to, sent_at = event
                hop, now = hops[i], queue.now
                messages.append(
                    MessageRecord(sent_at, now, payment_id, frm, to, hop.channel, phase[j][0])
                )
                if j + 1 < len(phase):
                    send(phase, i, j + 1)
                elif phase is FORWARD:
                    # the add is committed at `to`, which decides what happens next
                    view = HopView(payment_id, hop, hops[i + 1] if i + 1 < len(hops) else None)
                    if (behavior.on_commit(now, view)
                            or not (view.is_final or _can_forward(balances, to, view.outgoing))):
                        # the first edge not added: the rejecting node's would-be
                        # outgoing hop (== len(hops) when the final node rejects)
                        outcome.failed_at_hop = i + 1
                        send(FAIL_BACK, i, 0)
                    elif view.is_final:
                        send(FULFILL_BACK, i, 0)
                    else:
                        send(FORWARD, i + 1, 0)
                elif phase is not SETTLE:
                    # a fulfill or fail reached `to`, which relays it upstream at once
                    if phase is FULFILL_BACK:
                        self._settle(hop)
                        send(SETTLE, i, 0)  # simulated, gates nothing
                        behavior.on_fulfill(now, to, payment_id)
                    if i == 0:
                        outcome.status = "fulfilled" if phase is FULFILL_BACK else "failed"
                        outcome.completed_at = now
                    else:
                        send(phase, i - 1, 0)
        finally:
            # a completed payment leaves the queue empty; an aborted one's
            # messages must not reach the next payment
            queue.clear()
        assert outcome.status is not None, "payment did not complete"
        return outcome

    def _settle(self, hop: Hop) -> None:
        """Move the hop's amount from its sender's side to its receiver's."""
        balances, amount = self.balances, hop.forward_amount_msat
        if balances[hop.channel, hop.frm] < amount:
            raise RuntimeError(f"settling {amount} over {hop.channel} exceeds balance")
        balances[hop.channel, hop.frm] -= amount
        balances[hop.channel, hop.to] += amount


def _check_hops(graph: ChannelGraph, path: PaymentPath) -> None:
    for hop in path.hops:
        ch = graph.channels.get(hop.channel)
        if ch is None or {hop.frm, hop.to} != {ch.u, ch.v}:
            raise ValueError(f"hop {hop} does not match the graph")
        if hop.forward_amount_msat <= 0:
            raise ValueError("forward amounts must be positive")


def _can_forward(balances: Balances, node: NodeId, hop: Hop) -> bool:
    """Whether `node` holds enough balance on hop's channel to send its add."""
    return balances[hop.channel, node] >= hop.forward_amount_msat


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


def probe_batch(graph: ChannelGraph, balances: Balances, latencies: Latencies,
                vantage: NodeId, path: PaymentPath, n: int, rng) -> ProbeBatch:
    """Run `n` probes from `vantage` over `path`, each failed by the path's
    last node, with one vectorised draw.

    Equivalent, draw for draw, to `n` sequential `execute_payment(path, pid)`
    calls on a `PaymentEngine(graph, balances, latencies, rng, behavior)`
    whose behaviour rejects at the path's last node and nowhere else.  Such
    a probe moves no balance,
    so every probe stops at the same hop k, found by the checks the engine's
    receiving node makes in order; its messages are strictly sequential: the hop messages on
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
    if not _can_forward(balances, vantage, hops[0]):
        return ProbeBatch(len(hops), 0, [0.0] * n)
    target = hops[-1].to
    k = 0
    while hops[k].to != target and _can_forward(balances, hops[k].to, hops[k + 1]):
        k += 1
    used = [latencies[hop.channel] for hop in hops[: k + 1]]
    sequence = [lat for lat in used for _ in HOP_MESSAGES] + used[::-1]
    mean = np.array([lat.mean for lat in sequence])
    std = np.array([lat.std for lat in sequence])
    ms = rng.normal(mean, std, size=(n, len(sequence)))
    ns = np.maximum(LATENCY_FLOOR_NS, np.rint(ms * NS_PER_MS)).astype(np.int64)
    durations = ns.sum(axis=1) / NS_PER_MS
    return ProbeBatch(len(hops), k + 1, durations.tolist())
