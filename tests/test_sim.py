import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim.adversary import AdversaryConfig, AdversaryObserver
from pcnsim.graph import check_conservation, init_balances
from pcnsim.routing import Hop, Payment, find_route, path_from_channels
from pcnsim.sim import (
    ADD,
    COMMIT,
    FAIL,
    FULFILL,
    REVOKE,
    TRAVERSALS_PER_EDGE,
    HopView,
    NodeBehavior,
    PaymentEngine,
    probe_batch,
)
from pcnsim.latency import LatencyModel
from conftest import RejectAt, channels_at, make_graph
from oracles import EventQueue, ReferenceEngine, SchedulingError, sample_latency

MS = 1_000_000  # ns


class TestEventQueue:
    """The reference engine's queue."""

    def test_same_fire_at_pops_in_schedule_order(self):
        q = EventQueue()
        q.schedule(5, "second")  # scheduled first, same time
        q.schedule(5, "third")
        popped = [q.next_event() for _ in range(2)]
        assert popped == ["second", "third"]

    def test_empty_returns_none(self):
        assert EventQueue().next_event() is None

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(10, "x")
        q.next_event()
        with pytest.raises(SchedulingError):
            q.schedule(9, "y")

    def test_random_events_pop_sorted(self, rng):
        q = EventQueue()
        fire_ats = [int(t) for t in rng.integers(0, 10_000, size=1000)]
        scheduled = []
        for i, t in enumerate(fire_ats):
            q.schedule(t, i)
            scheduled.append((t, i))
        popped = []
        while (action := q.next_event()) is not None:
            popped.append((q.now, action))
        assert popped == sorted(scheduled)  # sequence follows schedule order

    def test_clock_advances(self):
        q = EventQueue()
        q.schedule(7, "a")
        assert q.next_event() == "a"
        assert q.now == 7


class TestSampleLatency:
    def test_degenerate_exact(self, line_graph):
        rng = np.random.default_rng(0)
        lat = line_graph[2]["e0"]
        assert all(sample_latency(lat, rng) == 10 * MS for _ in range(5))

    def test_negative_draw_clamped(self, line_graph):
        class Rigged:
            def normal(self, mu, sigma):
                return -50.0

        assert sample_latency(line_graph[2]["e0"], Rigged()) == 1 * MS

    def test_seeded_sequence_identical(self):
        _, latencies = make_graph(["a", "b"], [("e0", "a", "b", {"sigma_ms": 3.0})])
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            draws.append([sample_latency(latencies["e0"], rng) for _ in range(10)])
        assert draws[0] == draws[1]


def run_payment(net, channels, source, amount=100_000, behavior=None, seed=0, engine=None):
    """`net` is (graph, balances, latencies)."""
    graph = net[0]
    path = path_from_channels(graph, source, channels, amount)
    engine = engine or PaymentEngine(*net, np.random.default_rng(seed), behavior)
    return engine.execute_payment(path, "pay-0"), engine


class TestChoreography:
    def test_single_hop_completes_in_six_traversals(self, line_graph):
        outcome, _ = run_payment(line_graph, ["e0"], "a")
        assert outcome.status == "fulfilled"
        assert outcome.completed_at - outcome.started_at == 60 * MS

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_l_hop_completes_in_6l(self, line_graph, hops):
        channels = ["e0", "e1", "e2"][:hops]
        outcome, _ = run_payment(line_graph, channels, "a")
        assert outcome.status == "fulfilled"
        assert outcome.completed_at - outcome.started_at == hops * 60 * MS

    def test_intermediary_fulfill_span_is_six_traversals(self, line_graph):
        outcome, _ = run_payment(line_graph, ["e0", "e1"], "a")
        t0 = next(m.sent_at for m in outcome.messages if m.kind == ADD and m.frm == "b")
        t1 = next(m.delivered_at for m in outcome.messages if m.kind == FULFILL and m.to == "b")
        assert t1 - t0 == 60 * MS

    def test_probe_style_fail_roundtrip(self, line_graph):
        outcome, _ = run_payment(line_graph, ["e0"], "a", behavior=RejectAt("b"))
        assert outcome.status == "failed"
        assert outcome.failed_at_hop == 1
        assert outcome.completed_at - outcome.started_at == 60 * MS
        kinds = [m.kind for m in outcome.messages]
        assert kinds.count(FAIL) == 1 and FULFILL not in kinds

    def test_intermediary_without_balance_fails_cleanly(self, line_graph):
        g, balances, _ = line_graph
        balances["e1", "c"] += balances["e1", "b"]  # drain b's side
        balances["e1", "b"] = 0
        before = dict(balances)
        outcome, _ = run_payment(line_graph, ["e0", "e1"], "a")
        assert outcome.status == "failed"
        assert outcome.failed_at_hop == 1
        assert balances == before
        check_conservation(g, balances)

    def test_sender_without_balance_fails_at_hop_zero(self, line_graph):
        _, balances, _ = line_graph
        balances["e0", "b"] += balances["e0", "a"]
        balances["e0", "a"] = 0
        outcome, _ = run_payment(line_graph, ["e0"], "a")
        assert outcome.status == "failed" and outcome.failed_at_hop == 0
        assert not outcome.messages

    def test_fulfilled_payment_moves_balances(self, line_graph):
        g, balances, _ = line_graph
        amount = 100_000
        e0_before = balances["e0", "a"]
        outcome, _ = run_payment(line_graph, ["e0", "e1"], "a", amount=amount)
        assert outcome.status == "fulfilled"
        fee = g.channels["e1"].policy_uv.fee_msat(amount)
        assert balances["e0", "a"] == e0_before - (amount + fee)
        check_conservation(g, balances)

    def test_structurally_invalid_path_rejected(self, line_graph):
        path = path_from_channels(line_graph[0], "a", ["e0"], 1000)
        bad = dataclasses.replace(
            path, hops=(dataclasses.replace(path.hops[0], channel="e2"),)
        )
        engine = PaymentEngine(*line_graph, np.random.default_rng(0))
        with pytest.raises(ValueError):
            engine.execute_payment(bad, "bad-0")

    def test_determinism_byte_identical(self):
        results = []
        for _ in range(2):
            g, latencies = make_graph(["a", "b", "c"], [("e0", "a", "b", {"sigma_ms": 4.0}),
                                                         ("e1", "b", "c", {"sigma_ms": 4.0})])
            outcome, _ = run_payment((g, init_balances(g), latencies), ["e0", "e1"], "a", seed=77)
            results.append(repr(outcome))
        assert results[0] == results[1]

    def test_engine_clock_monotone_across_payments(self, line_graph):
        engine = PaymentEngine(*line_graph, np.random.default_rng(0))
        o1, _ = run_payment(line_graph, ["e0"], "a", engine=engine)
        o2, _ = run_payment(line_graph, ["e0"], "a", engine=engine)
        assert o2.started_at >= o1.completed_at

    def test_settlement_overlaps_the_fulfill_upstream(self):
        g, latencies = make_graph(
            ["a", "b", "c"],
            [("e0", "a", "b", {"latency_ms": 5.0}), ("e1", "b", "c", {"latency_ms": 30.0})],
        )
        net = (g, init_balances(g), latencies)
        o1, engine = run_payment(net, ["e0", "e1"], "a")
        # forward: e0's five messages end at 25 ms, e1's at 175 ms
        assert [(m.channel, m.delivered_at) for m in o1.messages[:10]] == (
            [("e0", t * MS) for t in (5, 10, 15, 20, 25)]
            + [("e1", t * MS) for t in (55, 85, 115, 145, 175)]
        )
        # the fulfill reaches b at 205 ms and a at 210 ms; each edge's
        # settlement handshake starts when its fulfill is delivered, so all
        # four of e0's land before the first of e1's
        assert [(m.channel, m.kind, m.frm, m.delivered_at) for m in o1.messages[10:]] == [
            ("e1", FULFILL, "c", 205 * MS),
            ("e0", FULFILL, "b", 210 * MS),
            ("e0", COMMIT, "b", 215 * MS),
            ("e0", REVOKE, "a", 220 * MS),
            ("e0", COMMIT, "a", 225 * MS),
            ("e0", REVOKE, "b", 230 * MS),
            ("e1", COMMIT, "c", 235 * MS),
            ("e1", REVOKE, "b", 265 * MS),
            ("e1", COMMIT, "b", 295 * MS),
            ("e1", REVOKE, "c", 325 * MS),
        ]
        assert o1.completed_at == 210 * MS
        # an attempt runs until its last message is delivered: the next
        # payment starts after e1's last settlement message, not when the
        # first one completed
        o2, _ = run_payment(net, ["e0", "e1"], "a", engine=engine)
        assert o2.started_at == 325 * MS

    def test_equal_time_deliveries_keep_send_order(self, line_graph):
        # every traversal takes exactly 10 ms, so from the fulfill on each
        # hop's settlement messages land at the same nanosecond as another
        # hop's settlement message and the fulfill relayed upstream: the
        # order they were sent in decides which is delivered first
        g, balances, latencies = line_graph
        path = path_from_channels(g, "a", ["e0", "e1", "e2"], 100_000)
        reference = ReferenceEngine(g, dict(balances), latencies, np.random.default_rng(0))
        expected = reference.execute_payment(path, "pay-0").messages
        outcome, _ = run_payment(line_graph, ["e0", "e1", "e2"], "a")
        assert outcome.status == "fulfilled" and outcome.messages == expected
        assert [(m.delivered_at, m.channel, m.kind, m.frm) for m in outcome.messages[15:]] == [
            (160 * MS, "e2", FULFILL, "d"),
            (170 * MS, "e2", COMMIT, "d"),
            (170 * MS, "e1", FULFILL, "c"),
            (180 * MS, "e2", REVOKE, "c"),
            (180 * MS, "e1", COMMIT, "c"),
            (180 * MS, "e0", FULFILL, "b"),
            (190 * MS, "e2", COMMIT, "c"),
            (190 * MS, "e1", REVOKE, "b"),
            (190 * MS, "e0", COMMIT, "b"),
            (200 * MS, "e2", REVOKE, "d"),
            (200 * MS, "e1", COMMIT, "b"),
            (200 * MS, "e0", REVOKE, "a"),
            (210 * MS, "e1", REVOKE, "c"),
            (210 * MS, "e0", COMMIT, "a"),
            (220 * MS, "e0", REVOKE, "b"),
        ]


class ViewRecorder(NodeBehavior):
    def __init__(self):
        self.views = []

    def on_commit(self, t_ns, view):
        self.views.append(view)


class TestAbortedPayment:
    def test_engine_usable_after_failed_settlement(self):
        # a's side of each parallel channel holds 3500 msat; every add of a
        # path crossing e0 twice fits a's unreduced balance, but once the
        # last hop has settled, e0's first hop (3000 msat) no longer does
        g, latencies = make_graph(
            ["a", "b"],
            [("e0", "a", "b", {"capacity_sat": 7}), ("e1", "a", "b", {"capacity_sat": 7})],
        )
        balances = init_balances(g)
        engine = PaymentEngine(g, balances, latencies, np.random.default_rng(0))
        aborted = path_from_channels(g, "a", ["e0", "e1", "e0"], 1000)
        with pytest.raises(RuntimeError, match="settling 3000 over e0 exceeds balance"):
            engine.execute_payment(aborted, "p0")
        outcome = engine.execute_payment(path_from_channels(g, "a", ["e1"], 1000), "p1")
        assert outcome.status == "fulfilled"
        assert outcome.completed_at - outcome.started_at == 60 * MS
        assert {m.payment_id for m in outcome.messages} == {"p1"}
        check_conservation(g, balances)


class TestOnionOpacity:
    def test_behavior_sees_only_its_own_payload(self, line_graph):
        rec = ViewRecorder()
        outcome, _ = run_payment(
            line_graph, ["e0", "e1", "e2"], "a", behavior=rec
        )
        assert outcome.status == "fulfilled"
        by_node = {v.node: v for v in rec.views}
        b = by_node["b"]
        path = path_from_channels(line_graph[0], "a", ["e0", "e1", "e2"], 100_000)
        assert (b.incoming, b.outgoing) == path.hops[:2]
        assert not b.is_final
        # the view's full field set carries nothing about hops beyond the
        # next: each hop names only the channel and its two ends, so the
        # nodes it shows are the viewing node's own channel peers
        assert {f.name for f in dataclasses.fields(HopView)} == {
            "payment_id", "incoming", "outgoing"}
        assert {f.name for f in dataclasses.fields(Hop)} == {
            "channel", "frm", "to", "forward_amount_msat", "remaining_timelock"}
        graph = line_graph[0]
        for view in rec.views:
            hops = [view.incoming] + ([view.outgoing] if view.outgoing else [])
            for hop in hops:
                assert {hop.frm, hop.to} == {view.node,
                                             graph.channels[hop.channel].other_end(view.node)}
        c = by_node["c"]
        assert c.outgoing.channel == "e2"
        assert b.outgoing.forward_amount_msat != c.outgoing.forward_amount_msat
        assert by_node["d"].is_final and by_node["d"].outgoing is None
        assert not any(hasattr(x, "__dict__") for x in (b, b.incoming, path))  # slotted


class TestConservationProperty:
    @given(
        amounts=st.lists(st.integers(min_value=1, max_value=400_000), min_size=1, max_size=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_outcomes_conserve_capacity(self, amounts, seed):
        g, latencies = make_graph(
            ["a", "b", "c", "d"],
            [("e0", "a", "b", {"capacity_sat": 500}), ("e1", "b", "c", {"capacity_sat": 500}),
             ("e2", "c", "d", {"capacity_sat": 500}), ("e3", "a", "d", {"capacity_sat": 500})],
        )
        balances = init_balances(g)
        reject = RejectAt(None)
        engine = PaymentEngine(g, balances, latencies, np.random.default_rng(seed), reject)
        nodes = sorted(g.nodes)
        rng = np.random.default_rng(seed + 1)
        for i, amount in enumerate(amounts):
            s, t = (nodes[int(x)] for x in rng.integers(len(nodes), size=2))
            if s == t:
                continue
            path = find_route(g, Payment(s, t, amount))
            if path is None:
                continue
            reject.node = t if i % 3 == 0 else None
            engine.execute_payment(path, f"p{i}")
        check_conservation(g, balances)


def assert_probes_match_engine(net, vantage, channels, n, seed):
    """probe_batch against n sequential engine probes from equal generators;
    `net` is (graph, balances, latencies)."""
    path = path_from_channels(net[0], vantage, channels, 1000)
    target = path.hops[-1].to
    engine_rng = np.random.default_rng(seed)
    engine = PaymentEngine(*net, engine_rng, RejectAt(target))
    outcomes = [engine.execute_payment(path, f"probe-{i}") for i in range(n)]
    batch_rng = np.random.default_rng(seed)
    batch = probe_batch(*net, vantage, path, n, batch_rng)

    assert all(o.status == "failed" for o in outcomes)
    assert [o.failed_at_hop for o in outcomes] == [batch.failed_at_hop] * n
    assert [(o.completed_at - o.started_at) / 1e6 for o in outcomes] == batch.durations_ms
    kept = [o for o in outcomes if o.failed_at_hop == len(path.hops)]
    assert batch.discarded == n - len(kept)
    assert batch.samples_ms == [(o.completed_at - o.started_at) / 1e6 for o in kept]
    assert batch_rng.bit_generator.state == engine_rng.bit_generator.state
    return batch


# per-direction balances: none, enough only for the last hop (1000 msat,
# no fee), or plenty; forward amounts grow by about 1000 msat of fees per hop
BALANCES = (0, 1_500) + (10**9,) * 5


@st.composite
def probed_graphs(draw):
    names = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=7,
    ))
    rows = []
    for i, (u, v) in enumerate(pairs):
        mean = draw(st.one_of(st.floats(0.0, 1.5), st.floats(0.0, 200.0)))
        std = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
        rows.append((f"e{i}", u, v, {"latency_ms": mean, "sigma_ms": std}))
    g, latencies = make_graph(sorted(set(names)), rows)
    balances = {}
    for cid, ch in g.channels.items():
        balances[cid, ch.u] = draw(st.sampled_from(BALANCES))
        balances[cid, ch.v] = draw(st.sampled_from(BALANCES))
    # a walk may revisit nodes, including the target before its last hop
    e0 = g.channels["e0"]
    vantage = node = draw(st.sampled_from([e0.u, e0.v]))
    channels = []
    for _ in range(draw(st.integers(1, 5))):
        ch = draw(st.sampled_from(sorted(channels_at(g, node), key=lambda c: c.id)))
        channels.append(ch.id)
        node = ch.other_end(node)
    return (g, balances, latencies), vantage, channels


class TestProbeBatch:
    """The closed-form probes are the engine's probes, draw for draw."""

    def test_traversals_match_estimator_default(self):
        assert LatencyModel().traversal_weight == TRAVERSALS_PER_EDGE == 6

    def test_noisy_path_matches_engine(self):
        g, latencies = make_graph(
            ["a", "b", "c", "d"],
            [("e0", "a", "b", {"sigma_ms": 4.0}), ("e1", "b", "c", {"sigma_ms": 9.0}),
             ("e2", "c", "d", {"latency_ms": 80.0, "sigma_ms": 25.0})],
        )
        batch = assert_probes_match_engine((g, init_balances(g), latencies), "a",
                                           ["e0", "e1", "e2"], 20, seed=3)
        assert batch.failed_at_hop == 3 and batch.discarded == 0
        assert len(set(batch.samples_ms)) > 1

    def test_first_hop_shortfall_discards_all_without_draws(self, line_graph):
        line_graph[1]["e0", "a"] = 0
        batch = assert_probes_match_engine(line_graph, "a", ["e0", "e1"], 4, seed=0)
        assert batch.failed_at_hop == 0
        assert batch.discarded == 4 and batch.samples_ms == []

    def test_mid_path_shortfall_discards_all(self, line_graph):
        line_graph[1]["e1", "b"] = 0
        batch = assert_probes_match_engine(line_graph, "a", ["e0", "e1", "e2"], 4, seed=0)
        assert batch.failed_at_hop == 1
        assert batch.discarded == 4
        assert batch.durations_ms == [60.0] * 4  # one hop forward, one fail back

    def test_small_means_hit_the_clamp(self):
        g, latencies = make_graph(
            ["a", "b", "c"],
            [("e0", "a", "b", {"latency_ms": 0.2, "sigma_ms": 0.5}),
             ("e1", "b", "c", {"latency_ms": 0.0})],
        )
        batch = assert_probes_match_engine((g, init_balances(g), latencies), "a",
                                           ["e0", "e1"], 10, seed=5)
        assert min(batch.samples_ms) >= 12.0  # every traversal at least 1 ms
        assert 12.0 in batch.samples_ms

    def test_target_on_the_way_rejects_early(self, line_graph):
        batch = assert_probes_match_engine(line_graph, "a", ["e0", "e1", "e1"], 3, seed=0)
        assert batch.failed_at_hop == 1 and batch.discarded == 3

    def test_missing_latency_rejected(self, line_graph):
        g, _, latencies = line_graph
        del latencies["e1"]
        path = path_from_channels(g, "a", ["e0", "e1"], 1000)
        with pytest.raises(KeyError, match="e1"):
            probe_batch(*line_graph, "a", path, 2, np.random.default_rng(0))

    def test_invalid_hops_rejected(self, line_graph):
        path = path_from_channels(line_graph[0], "a", ["e0"], 1000)
        for hop in (dataclasses.replace(path.hops[0], channel="e2"),
                    dataclasses.replace(path.hops[0], forward_amount_msat=0)):
            bad = dataclasses.replace(path, hops=(hop,))
            with pytest.raises(ValueError):
                probe_batch(*line_graph, "a", bad, 2, np.random.default_rng(0))

    @given(case=probed_graphs(), n=st.integers(1, 6), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_match_engine(self, case, n, seed):
        g, vantage, channels = case
        assert_probes_match_engine(g, vantage, channels, n, seed)


# per-direction balances: none, enough for a one- or two-hop payment of
# 1000 msat (forward amounts grow by about 1000 msat of fees per hop), plenty
ENGINE_BALANCES = (0, 2_500, 10**9)


@st.composite
def payment_sequences(draw):
    names = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=7,
    ))
    rows = []
    for i, (u, v) in enumerate(pairs):
        # below 1.5 ms draws hit the clamp; whole means with sigma 0 tie
        mean = draw(st.one_of(st.floats(0.0, 1.5), st.sampled_from([1.0, 5.0, 30.0]),
                              st.floats(0.0, 200.0)))
        std = draw(st.one_of(st.just(0.0), st.floats(0.0, 30.0)))
        rows.append((f"e{i}", u, v, {"latency_ms": mean, "sigma_ms": std}))
    g, latencies = make_graph(names, rows)
    balances = {}
    for cid, ch in g.channels.items():
        balances[cid, ch.u] = draw(st.sampled_from(ENGINE_BALANCES))
        balances[cid, ch.v] = draw(st.sampled_from(ENGINE_BALANCES))
    starts = sorted({n for ch in g.channels.values() for n in (ch.u, ch.v)})
    payments = []
    for _ in range(draw(st.integers(1, 8))):
        start = node = draw(st.sampled_from(starts))
        channels = []
        for _ in range(draw(st.integers(1, 4))):
            ch = draw(st.sampled_from(sorted(channels_at(g, node), key=lambda c: c.id)))
            channels.append(ch.id)
            node = ch.other_end(node)
        amount = draw(st.sampled_from([1_000, 50_000]))
        # a probe of the last node, or a node anywhere (on the path or not)
        reject_at = draw(st.one_of(st.none(), st.just(node), st.sampled_from(names)))
        payments.append((start, channels, amount, reject_at))
    malicious = frozenset(draw(st.lists(st.sampled_from(names), min_size=1, unique=True)))
    return g, balances, latencies, payments, malicious


def engine_state(observer, engine, outcome):
    return (outcome, list(observer.observations), engine.now, dict(engine.balances),
            engine.rng.bit_generator.state)


class TestReferenceEngine:
    """The record loop is the closure-chain engine, draw for draw."""

    @given(case=payment_sequences(), retry=st.booleans(), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_random_payment_sequences_match(self, case, retry, seed):
        g, balances, latencies, payments, malicious = case
        runs = []
        for engine_class in (PaymentEngine, ReferenceEngine):
            observer = AdversaryObserver(AdversaryConfig(malicious, source_attack_enabled=retry))
            engine = engine_class(g, dict(balances), latencies, np.random.default_rng(seed),
                                  RejectAt(None, observer))
            runs.append((observer, engine))
        for k, (start, channels, amount, reject_at) in enumerate(payments):
            path = path_from_channels(g, start, channels, amount)
            for _, engine in runs:
                engine.behavior.node = reject_at
            for _ in range(2):  # the attempt, then its retry after an adversarial fail
                states = [
                    engine_state(observer, engine, engine.execute_payment(path, f"p{k}"))
                    for observer, engine in runs
                ]
                assert states[0] == states[1]
                if not (states[0][0].status == "failed" and retry
                        and runs[0][0].adversarially_failed(f"p{k}")):
                    break


def assert_one_draw_per_message(engine, path, payment_id):
    """Run one attempt; the engine's generator must end where a same-seed
    twin ends after one standard normal per message the attempt sent."""
    twin = np.random.default_rng()
    twin.bit_generator.state = engine.rng.bit_generator.state
    outcome = engine.execute_payment(path, payment_id)
    twin.standard_normal(len(outcome.messages))
    assert engine.rng.bit_generator.state == twin.bit_generator.state
    return outcome


def eight_hop_line():
    names = [f"n{k}" for k in range(9)]
    g, latencies = make_graph(
        names, [(f"e{k}", names[k], names[k + 1], {"sigma_ms": 3.0}) for k in range(8)])
    return (g, init_balances(g), latencies), names


class TestTraversalDraws:
    """Each message the engine sends takes exactly one normal draw."""

    def test_each_rejecting_node_in_turn(self):
        net, names = eight_hop_line()
        path = path_from_channels(net[0], "n0", [f"e{k}" for k in range(8)], 100_000)
        reject = RejectAt(None)
        engine = PaymentEngine(*net, np.random.default_rng(7), reject)
        for k in range(1, 9):
            reject.node = names[k]
            outcome = assert_one_draw_per_message(engine, path, f"p{k}")
            assert outcome.failed_at_hop == k
            assert len(outcome.messages) == k * TRAVERSALS_PER_EDGE

    def test_fulfilled_payment(self):
        net, _ = eight_hop_line()
        path = path_from_channels(net[0], "n0", [f"e{k}" for k in range(8)], 100_000)
        engine = PaymentEngine(*net, np.random.default_rng(7))
        outcome = assert_one_draw_per_message(engine, path, "p0")
        assert outcome.status == "fulfilled"
        assert len(outcome.messages) == 8 * 10  # six traversals and four settlement messages a hop

    def test_sender_without_balance_draws_nothing(self, line_graph):
        _, balances, _ = line_graph
        balances["e0", "b"] += balances["e0", "a"]
        balances["e0", "a"] = 0
        path = path_from_channels(line_graph[0], "a", ["e0", "e1"], 100_000)
        engine = PaymentEngine(*line_graph, np.random.default_rng(7))
        outcome = assert_one_draw_per_message(engine, path, "p0")
        assert outcome.failed_at_hop == 0 and not outcome.messages

    @given(case=payment_sequences(), seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_random_payment_sequences(self, case, seed):
        g, balances, latencies, payments, _ = case
        reject = RejectAt(None)
        engine = PaymentEngine(g, dict(balances), latencies, np.random.default_rng(seed), reject)
        for k, (start, channels, amount, reject_at) in enumerate(payments):
            reject.node = reject_at
            assert_one_draw_per_message(
                engine, path_from_channels(g, start, channels, amount), f"p{k}")

    def test_short_traversals_clamp_to_one_ms(self):
        g, latencies = make_graph(["a", "b"], [("e0", "a", "b", {"latency_ms": 0.25})])
        outcome, engine = run_payment((g, init_balances(g), latencies), ["e0"], "a")
        assert outcome.status == "fulfilled"
        assert [m.delivered_at - m.sent_at for m in outcome.messages] == [1 * MS] * 10
        assert outcome.completed_at - outcome.started_at == 6 * MS
        assert engine.now == 10 * MS
