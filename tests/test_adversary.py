import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim.adversary import (
    TOWARD_DESTINATION,
    TOWARD_SOURCE,
    AdversaryConfig,
    AdversaryObserver,
    EstimationError,
    Observation,
    estimate_endpoint,
    first_spy_estimate,
    reduce_anonymity_set,
)
from pcnsim.harness import ExperimentResult, RunRecord, emit_results
from pcnsim.latency import Gaussian, LatencyModel
from pcnsim.routing import Payment, RoutingParams, find_route
from pcnsim.sim import PaymentEngine
from conftest import make_graph, split_balances
from oracles import (
    brute_estimate,
    brute_reduced_set,
    observation_walk_inputs,
    reference_anonymity_set,
    reference_estimate,
)
from pipeline import simulate_observations, true_latency_model

MS = 1_000_000


def mk_obs(pid="p0", observer="b", edge="e1", direction=TOWARD_DESTINATION,
           t0=0, t1=60 * MS, amount=100_000, timelock=80):
    return Observation(
        payment_id=pid, observer=observer, edge_observed=edge, direction=direction,
        t0_ns=t0, t1_ns=t1, amount_msat=amount, timelock_blocks=timelock,
    )


class TestObservation:
    def test_delta(self):
        obs = mk_obs(t0=10, t1=70)
        assert obs.delta_t_ns == 60

    def test_time_order_enforced(self):
        with pytest.raises(ValueError):
            mk_obs(t0=100, t1=50)


def run_line_payment(retry, nodes=("a", "b", "c"), malicious=("b",), amount=100_000):
    chans = [(f"e{i}", nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
    g, latencies = make_graph(list(nodes), chans)
    cfg = AdversaryConfig(malicious_nodes=frozenset(malicious), source_attack_enabled=retry)
    observer = AdversaryObserver(cfg)
    engine = PaymentEngine(g, split_balances(g), latencies, np.random.default_rng(0), observer)
    path = find_route(g, Payment(nodes[0], nodes[-1], amount))
    outcome = engine.execute_payment(path, "p0")
    if outcome.status == "failed" and observer.adversarially_failed("p0"):
        outcome = engine.execute_payment(path, "p0")
    return g, path, observer, outcome


class TestObserverCapture:
    def test_destination_leg_delta_is_one_edge(self):
        g, path, observer, outcome = run_line_payment(retry=False)
        assert outcome.status == "fulfilled"
        obs = [o for o in observer.observations if o.direction == TOWARD_DESTINATION]
        assert len(obs) == 1
        o = obs[0]
        assert o.observer == "b"
        assert o.edge_observed == "e1"
        assert o.delta_t_ns == 60 * MS
        assert o.amount_msat == path.hops[1].forward_amount_msat
        assert o.timelock_blocks == path.hops[1].remaining_timelock

    def test_source_leg_fail_retry_delta(self):
        g, path, observer, outcome = run_line_payment(retry=True)
        assert outcome.status == "fulfilled"  # the retry went through
        src = [o for o in observer.observations if o.direction == TOWARD_SOURCE]
        assert len(src) == 1
        o = src[0]
        assert o.edge_observed == "e0"
        assert o.delta_t_ns == 60 * MS  # fail-back + add + handshake on one edge
        assert o.amount_msat == path.hops[0].forward_amount_msat
        # the retry also produced a destination-leg observation
        assert any(o.direction == TOWARD_DESTINATION for o in observer.observations)

    def test_retry_disabled_no_source_observation(self):
        _, _, observer, _ = run_line_payment(retry=False)
        assert not [o for o in observer.observations if o.direction == TOWARD_SOURCE]

    def test_balance_shortfall_is_no_adversarial_fail(self):
        # b cannot forward, and with the source attack off it rejects for no
        # other reason: the fail is the network's, not the adversary's
        g, latencies = make_graph(["a", "b", "c"], [("e0", "a", "b"), ("e1", "b", "c")])
        balances = split_balances(g)
        balances["e1", "b"] = 0
        cfg = AdversaryConfig(frozenset({"b"}), source_attack_enabled=False)
        observer = AdversaryObserver(cfg)
        engine = PaymentEngine(g, balances, latencies, np.random.default_rng(0), observer)
        outcome = engine.execute_payment(find_route(g, Payment("a", "c", 100_000)), "p0")
        assert outcome.status == "failed" and outcome.failed_at_hop == 1
        assert not observer.adversarially_failed("p0")
        assert observer.observations == []

    def test_closest_observer_selected_per_leg(self):
        nodes = ("a", "m1", "m2", "d")
        g, path, observer, outcome = run_line_payment(
            retry=True, nodes=nodes, malicious=("m1", "m2")
        )
        assert outcome.status == "fulfilled"
        inputs = observer.estimation_inputs()["p0"]
        assert inputs["destination"].observer == "m2"  # fewest hops to d
        assert inputs["source"].observer == "m1"  # the node that failed attempt one
        # only the first malicious node rejects; the payment fails exactly once
        src = [o for o in observer.observations if o.direction == TOWARD_SOURCE]
        assert len(src) == 1


class TestReduceAnonymitySet:
    def fixture(self):
        # m - x - y - z line plus x - w branch
        return make_graph(
            ["m", "x", "y", "z", "w"],
            [("e1", "m", "x"), ("e2", "x", "y"), ("e3", "y", "z"), ("e4", "w", "x")],
        )[0]

    def test_amount_beyond_capacities_singleton(self):
        pub = self.fixture()
        obs = mk_obs(observer="m", edge="e1", amount=2_000_000_000, timelock=200)
        cfg = AdversaryConfig(malicious_nodes=frozenset({"m"}))
        assert reduce_anonymity_set(obs, pub, cfg) == {"x"}

    def test_timelock_ablation_superset(self):
        pub = self.fixture()
        # budget after e1's delta: 80 - 40 = 40, one more hop only
        obs = mk_obs(observer="m", edge="e1", amount=100_000, timelock=80)
        on = reduce_anonymity_set(obs, pub, AdversaryConfig(frozenset({"m"})))
        off = reduce_anonymity_set(
            obs, pub, AdversaryConfig(frozenset({"m"}), timelock_reduction_enabled=False)
        )
        assert on <= off
        assert on == {"x", "y", "w"}
        assert off == {"x", "y", "z", "w"}

    def test_source_direction_grows_amount(self):
        pub = self.fixture()
        obs = mk_obs(observer="x", edge="e2", direction=TOWARD_SOURCE,
                     amount=100_000, timelock=120)
        # anchor is y; candidate sources grow the amount by fees upstream
        got = reduce_anonymity_set(obs, pub, AdversaryConfig(frozenset({"x"})))
        assert got == {"y", "z"}

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_bruteforce_on_random_fixture(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"n{i}" for i in range(6)]
        rows = []
        k = 0
        for i in range(6):
            for j in range(i + 1, 6):
                if rng.random() < 0.5:
                    rows.append((f"c{k}", names[i], names[j],
                                 {"capacity_sat": int(rng.integers(1, 300)),
                                  "delta": int(rng.integers(10, 60))}))
                    k += 1
        if not rows:
            rows = [("c0", names[0], names[1])]
        pub, _ = make_graph(names, rows)
        observer = rows[0][1]
        edge = rows[0][0]
        anchor = pub.channels[edge].other_end(observer)
        obs = mk_obs(observer=observer, edge=edge, amount=120_000, timelock=100)
        cfg = AdversaryConfig(frozenset({observer}))
        got = reduce_anonymity_set(obs, pub, cfg)
        budget = max(0, 100 - pub.channels[edge].policy_from(observer).timelock_delta)
        expected = brute_reduced_set(
            pub, anchor, 120_000, "from-anchor", budget, forbidden=(observer,)
        )
        assert got == expected


def line_model_fixture():
    pub, _ = make_graph(
        ["m", "x", "y"],
        [("e1", "m", "x", {"latency_ms": 10.0, "sigma_ms": 1.0}),
         ("e2", "x", "y", {"latency_ms": 10.0, "sigma_ms": 1.0})],
    )
    model = LatencyModel(
        edges={"e1": Gaussian(10.0, 1.0), "e2": Gaussian(10.0, 1.0)}, traversal_weight=6
    )
    return pub, model


class TestEstimateEndpoint:
    def test_two_edge_delta_picks_far_node(self):
        pub, model = line_model_fixture()
        obs = mk_obs(observer="m", edge="e1", amount=100_000, timelock=120, t1=119 * MS)
        cfg = AdversaryConfig(frozenset({"m"}))
        result = estimate_endpoint(obs, pub, model, cfg)
        assert result.top == "y"
        assert result.target == "destination"

    def test_one_edge_delta_picks_adjacent(self):
        pub, model = line_model_fixture()
        obs = mk_obs(observer="m", edge="e1", amount=100_000, timelock=120, t1=61 * MS)
        cfg = AdversaryConfig(frozenset({"m"}))
        result = estimate_endpoint(obs, pub, model, cfg)
        assert result.top == "x"
        fs = first_spy_estimate(obs, pub)
        assert fs.top == "x"  # agrees on the adjacent endpoint

    def test_candidates_sorted_and_deterministic(self):
        pub, model = line_model_fixture()
        obs = mk_obs(observer="m", edge="e1", amount=100_000, timelock=120, t1=90 * MS)
        cfg = AdversaryConfig(frozenset({"m"}))
        runs = [estimate_endpoint(obs, pub, model, cfg) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]
        lls = [ll for _, ll in runs[0].candidates]
        assert lls == sorted(lls, reverse=True)

    def test_unknown_edge_raises(self):
        pub, model = line_model_fixture()
        obs = mk_obs(observer="m", edge="ghost")
        with pytest.raises(EstimationError):
            estimate_endpoint(obs, pub, model, AdversaryConfig(frozenset({"m"})))


class TestFirstSpy:
    def test_adjacent_source(self):
        pub, _ = line_model_fixture()
        obs = mk_obs(observer="x", edge="e1", direction=TOWARD_SOURCE)
        assert first_spy_estimate(obs, pub).top == "m"

    def test_known_failure_mode_far_destination(self):
        # observer right after the source of a 3-hop path: the successor it
        # sees is an intermediary, not the destination
        g, latencies = make_graph(
            ["a", "b", "c", "d"],
            [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
        )
        observer = AdversaryObserver(
            AdversaryConfig(frozenset({"b"}), source_attack_enabled=False)
        )
        path = find_route(g, Payment("a", "d", 1000))
        engine = PaymentEngine(g, split_balances(g), latencies, np.random.default_rng(0),
                               observer)
        engine.execute_payment(path, "px")
        obs = observer.estimation_inputs()["px"]["destination"]
        assert first_spy_estimate(obs, g).top == "c" != "d"


def random_attack_graph(seed, n=10, extra_edges=4, one_sided=0, starved=0):
    """Connected random graph, a spanning tree plus a few chords:
    (graph, balances, latencies).  `one_sided` channels have one direction
    disabled, as a snapshot's missing policy leaves them.  `starved`
    channels run parallel to others, charge no fee and hold 1 sat, so they
    are the cheapest of their node pair but too small for most payments."""
    rng = np.random.default_rng(seed)
    names = [f"n{i:02d}" for i in range(n)]
    rows = []

    def row(cid, a, b):
        mean = float(rng.integers(8, 60))
        return (cid, a, b, {"latency_ms": mean, "sigma_ms": 0.2 * mean,
                            "capacity_sat": 2_000_000})

    for i in range(1, n):
        j = int(rng.integers(0, i))
        rows.append(row(f"t{i:02d}", names[i], names[j]))
    for k in range(extra_edges):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        rows.append(row(f"x{k:02d}", names[int(i)], names[int(j)]))
    for k in rng.choice(len(rows), size=one_sided, replace=False):
        rows[int(k)][3][f"enabled_{rng.choice(['uv', 'vu'])}"] = False
    if starved:  # nothing drawn otherwise, so other graphs stay as they were
        for j, k in enumerate(rng.choice(len(rows), size=starved, replace=False)):
            _, a, b, _ = rows[int(k)]
            cid, _, _, over = row(f"s{j:02d}", a, b)
            rows.append((cid, a, b, over | {"capacity_sat": 1, "base_fee": 0, "rate_ppm": 0}))
    g, latencies = make_graph(names, rows)
    return g, split_balances(g), latencies


class TestEstimatorOracleEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_top_candidate_matches_bruteforce(self, seed):
        g, balances, latencies = random_attack_graph(seed)
        malicious = sorted(g.nodes)[:2]
        observer, _ = simulate_observations(g, balances, latencies, malicious, 60,
                                            seed=seed * 7 + 1)
        model = true_latency_model(latencies)
        cfg = AdversaryConfig(frozenset(malicious))
        checked = 0
        for inputs in observer.estimation_inputs().values():
            for obs in inputs.values():
                result = estimate_endpoint(obs, g, model, cfg)
                anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
                top, _ = brute_estimate(
                    g=g, model=model, obs_edge_id=obs.edge_observed,
                    observer=obs.observer, delta_ms=obs.delta_t_ms,
                    seed_amount=seed_amt, direction=direction, budget=budget,
                )
                assert result.top == top
                checked += 1
        assert checked >= 20


@st.composite
def walk_cases(draw):
    """A small multigraph, latency-model entries for some of its channels,
    and one observation on it.

    Parallel channels mix base fees and rates, so which of them is cheapest
    changes with the amount; directions may be disabled and capacities sit
    near the amount, which the walks shrink or grow by fees.
    """
    n = draw(st.integers(4, 8))
    names = [f"n{i}" for i in range(n)]
    amount = draw(st.integers(1, 400)) * 1000 + draw(st.integers(0, 999))
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    pairs += draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=5,
    ))
    fees = st.sampled_from([0, 1, 1000, 2000])
    rates = st.sampled_from([0, 1, 10, 5000])
    deltas = st.sampled_from([0, 9, 40, 144])
    enabled = st.sampled_from([True, True, True, True, False])
    rows, edges = [], {}
    for i, j in pairs:
        for _ in range(draw(st.integers(1, 3))):
            cid = f"c{len(rows):02d}"
            cap_sat = max(0, amount // 1000 + draw(st.integers(-1, 2)))
            over = {"capacity_sat": draw(st.sampled_from([cap_sat, 10_000, 10_000]))}
            for side in ("uv", "vu"):
                over |= {f"base_fee_{side}": draw(fees), f"rate_ppm_{side}": draw(rates),
                         f"delta_{side}": draw(deltas), f"enabled_{side}": draw(enabled)}
            rows.append((cid, names[i], names[j], over))
            if draw(st.booleans()):  # otherwise the model falls back to its default
                edges[cid] = Gaussian(draw(st.floats(1.0, 80.0)), draw(st.floats(0.0, 20.0)))
    pub, _ = make_graph(names, rows)
    observer = names[draw(st.integers(0, n - 1))]
    obs = Observation(
        payment_id="p0",
        observer=observer,
        edge_observed=draw(st.sampled_from([ch.id for ch in pub.channels_at(observer)])),
        direction=draw(st.sampled_from([TOWARD_DESTINATION, TOWARD_SOURCE])),
        t0_ns=0,
        t1_ns=draw(st.integers(0, 1500)) * MS,
        amount_msat=amount,
        timelock_blocks=draw(st.sampled_from([0, 40, 60, 100, 200, 1000])),
    )
    cfg = AdversaryConfig(
        frozenset({observer}), timelock_reduction_enabled=draw(st.booleans())
    )
    params = RoutingParams(risk_factor=draw(st.sampled_from([0.0, 1.5e-8, 1e-5])))
    return pub, edges, obs, cfg, params


class TestReferenceWalk:
    """The walks over neighbour groups give what the rescanning walks gave."""

    @given(case=walk_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_reference(self, case):
        pub, edges, obs, cfg, params = case
        # channels without an entry take the default, which sits among the
        # drawn means so that the likelihood walks get past the anchor
        model, ref_model = (LatencyModel(dict(edges), default=Gaussian(40.0, 10.0)) for _ in range(2))
        assert estimate_endpoint(obs, pub, model, cfg, params) == reference_estimate(
            obs, pub, ref_model, cfg, params
        )
        assert reduce_anonymity_set(obs, pub, cfg, params) == reference_anonymity_set(
            obs, pub, cfg, params
        )


class TestAnonymitySetSoundness:
    @staticmethod
    def check_members(net, seed):
        g, balances, latencies = net
        malicious = sorted(g.nodes)[:2]
        observer, truth = simulate_observations(g, balances, latencies, malicious, 60, seed=seed)
        cfg = AdversaryConfig(frozenset(malicious))
        checked = 0
        for pid, inputs in observer.estimation_inputs().items():
            source, dest = truth[pid]
            for target, obs in inputs.items():
                members = reduce_anonymity_set(obs, g, cfg)
                assert (source if target == "source" else dest) in members
                checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("seed", range(4))
    def test_true_endpoint_always_member(self, seed):
        self.check_members(random_attack_graph(seed), seed + 50)

    @pytest.mark.parametrize("seed", range(4))
    def test_true_endpoint_member_with_one_sided_channels(self, seed):
        self.check_members(random_attack_graph(seed, extra_edges=8, one_sided=6), seed + 50)

    @pytest.mark.parametrize("seed", range(4))
    def test_true_endpoint_member_with_starved_parallel_channels(self, seed):
        self.check_members(random_attack_graph(seed, starved=4), seed + 50)


def source_leg_case(kind):
    """An observation at m of a payment that crossed b -> m, toward its
    source, where the a-b channels a payment from a could have used are
    chosen by the a -> b policy, not by b -> a.

    "parallel": p (a -> b fee 0, b -> a fee 1000) and q (a -> b disabled,
    b -> a fee 0); "one-sided": p alone, with b -> a disabled."""
    if kind == "parallel":
        rows = [("p", "a", "b", {"base_fee_uv": 0, "base_fee_vu": 1000}),
                ("q", "a", "b", {"base_fee_vu": 0, "enabled_uv": False})]
    else:
        rows = [("p", "a", "b", {"enabled_vu": False})]
    g, _ = make_graph(["a", "b", "m"], rows + [("e", "b", "m")], rate_ppm=0)
    obs = mk_obs(observer="m", edge="e", direction=TOWARD_SOURCE, amount=5000, t1=120 * MS)
    return g, obs


class TestSourceLegChannelChoice:
    """Toward the source, the walks weigh the policy the payment crossed under."""

    @pytest.mark.parametrize("kind", ["parallel", "one-sided"])
    def test_anonymity_set_matches_bruteforce(self, kind):
        g, obs = source_leg_case(kind)
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        expected = brute_reduced_set(g, anchor, seed_amt, direction, budget, forbidden=("m",))
        assert expected == {"a", "b"}
        assert reduce_anonymity_set(obs, g, AdversaryConfig(frozenset({"m"}))) == expected

    @pytest.mark.parametrize("kind", ["parallel", "one-sided"])
    def test_estimate_matches_bruteforce(self, kind):
        g, obs = source_leg_case(kind)
        # the two-hop path a - b - m takes exactly the observed 120 ms
        model = LatencyModel({"p": Gaussian(10.0, 1.0), "e": Gaussian(10.0, 1.0)})
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        top, _ = brute_estimate(
            g=g, model=model, obs_edge_id="e", observer="m", delta_ms=obs.delta_t_ms,
            seed_amount=seed_amt, direction=direction, budget=budget,
        )
        assert top == "a"
        assert estimate_endpoint(obs, g, model, AdversaryConfig(frozenset({"m"}))).top == top


def starved_channel_case():
    """s -> b for 1,000,000 msat over c1 (s-m), c2 (m-a) and q, observed at m
    toward the destination.  Of the parallel a-b channels, p charges no fee
    but holds 1 sat, so the payment crossed q (base fee 1000)."""
    g, latencies = make_graph(
        ["s", "m", "a", "b"],
        [("c1", "s", "m"), ("c2", "m", "a"),
         ("p", "a", "b", {"capacity_sat": 1, "base_fee": 0, "rate_ppm": 0}),
         ("q", "a", "b", {"base_fee": 1000})],
    )
    path = find_route(g, Payment("s", "b", 1_000_000))
    assert [h.channel for h in path.hops] == ["c1", "c2", "q"]
    cfg = AdversaryConfig(frozenset({"m"}), source_attack_enabled=False)
    observer = AdversaryObserver(cfg)
    engine = PaymentEngine(g, split_balances(g), latencies, np.random.default_rng(0), observer)
    assert engine.execute_payment(path, "p0").status == "fulfilled"
    (obs,) = observer.observations
    assert obs.edge_observed == "c2"
    return g, cfg, obs


class TestStarvedParallelChannel:
    """The walks skip a cheaper parallel channel that cannot carry the
    amount, as route search does, so the payment's destination stays."""

    def test_anonymity_set_matches_bruteforce(self):
        g, cfg, obs = starved_channel_case()
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        expected = brute_reduced_set(g, anchor, seed_amt, direction, budget, forbidden=("m",))
        assert expected == {"a", "b"}
        assert reduce_anonymity_set(obs, g, cfg) == expected

    def test_estimate_matches_bruteforce(self):
        g, cfg, obs = starved_channel_case()
        model = LatencyModel({cid: Gaussian(10.0, 1.0) for cid in g.channels})
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        top, _ = brute_estimate(
            g=g, model=model, obs_edge_id="c2", observer="m", delta_ms=obs.delta_t_ms,
            seed_amount=seed_amt, direction=direction, budget=budget,
        )
        assert top == "b"
        result = estimate_endpoint(obs, g, model, cfg)
        assert result.top == top
        assert {node for node, _ in result.candidates} == {"a", "b"}


def amount_dependent_channel_case():
    """s -> c for 997,891 msat over c1 (s-m), c2 (m-a), q and e (b-c),
    observed at m toward the destination.  Of the parallel a-b channels, p
    (base fee 998, delta 100) is the cheaper at the 999,898 msat that reach
    a, but q (1000 ppm, delta 40) is the cheaper at the 998,900 msat it
    carries, so route search picked q; p's delta would exceed the lock
    budget before c."""
    g, latencies = make_graph(
        ["s", "m", "a", "b", "c"],
        [("c1", "s", "m"), ("c2", "m", "a"),
         ("p", "a", "b", {"base_fee": 998, "rate_ppm": 0, "delta": 100}),
         ("q", "a", "b", {"base_fee": 0, "rate_ppm": 1000, "delta": 40}),
         ("e", "b", "c")],
    )
    path = find_route(g, Payment("s", "c", 997_891))
    assert [h.channel for h in path.hops] == ["c1", "c2", "q", "e"]
    cfg = AdversaryConfig(frozenset({"m"}), source_attack_enabled=False)
    observer = AdversaryObserver(cfg)
    engine = PaymentEngine(g, split_balances(g), latencies, np.random.default_rng(0), observer)
    assert engine.execute_payment(path, "p0").status == "fulfilled"
    (obs,) = observer.observations
    assert obs.edge_observed == "c2"
    return g, cfg, obs


class TestAmountDependentParallelChannel:
    """From the anchor the walks weigh each parallel channel at the amount
    it would carry, as route search does, so the payment's destination
    stays."""

    def test_anonymity_set_matches_bruteforce(self):
        g, cfg, obs = amount_dependent_channel_case()
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        expected = brute_reduced_set(g, anchor, seed_amt, direction, budget, forbidden=("m",))
        assert expected == {"a", "b", "c"}
        assert reduce_anonymity_set(obs, g, cfg) == expected

    def test_estimate_matches_bruteforce(self):
        g, cfg, obs = amount_dependent_channel_case()
        model = LatencyModel({cid: Gaussian(10.0, 1.0) for cid in g.channels})
        anchor, seed_amt, direction, budget = observation_walk_inputs(obs, g)
        top, _ = brute_estimate(
            g=g, model=model, obs_edge_id="c2", observer="m", delta_ms=obs.delta_t_ms,
            seed_amount=seed_amt, direction=direction, budget=budget,
        )
        assert top == "c"
        result = estimate_endpoint(obs, g, model, cfg)
        assert result.top == top
        assert {node for node, _ in result.candidates} == {"a", "b", "c"}


class TestObservationExport:
    def test_csv_schema(self, tmp_path):
        record = RunRecord(
            scenario="central", m=1, amount_sat=100, seed=0, truth={},
            observations=[mk_obs()], reports=[], compromised=0.0, unrouted=0,
        )
        emit_results(ExperimentResult(records=[record], aggregate=[]), tmp_path)
        lines = (tmp_path / "observations.csv").read_text().strip().splitlines()
        assert lines[0] == "payment_id,observer,channel_id,direction,t0_ns,t1_ns,amount_msat,timelock_blocks"
        assert len(lines) == 2
