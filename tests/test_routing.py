import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcnsim.graph import Channel, ChannelGraph, DirectedPolicy, Node
from pcnsim import harness, routing
from pcnsim.harness import PROBE_AMOUNT_MSAT, probe_paths, probe_plan
from pcnsim.routing import (
    Payment,
    RoutingParams,
    TraversalRules,
    edge_weight,
    feasible_endpoints,
    find_route,
    forwarded_amount,
    path_from_channels,
)
from conftest import make_graph
from oracles import brute_reduced_set, brute_route, path_amounts, reference_route


PARAMS = RoutingParams()


class TestEdgeWeight:
    def test_worked_example(self):
        policy = DirectedPolicy(base_fee_msat=1000, fee_rate_ppm=10, timelock_delta=40)
        w = edge_weight(1_000_000, policy, RoutingParams(risk_factor=1.5e-8))
        assert w == pytest.approx(1010.6, abs=1e-12)

    def test_all_zero(self):
        policy = DirectedPolicy()
        assert edge_weight(5, policy, RoutingParams(risk_factor=0.0)) == 0

    def test_disabled_infinite(self):
        policy = DirectedPolicy(enabled=False)
        assert math.isinf(edge_weight(5, policy, PARAMS))


class TestForwardedAmount:
    @pytest.mark.parametrize("base,ppm,incoming", [(0, 0, 10), (10, 0, 110), (1000, 10, 10**6)])
    def test_inverts_fee(self, base, ppm, incoming):
        policy = DirectedPolicy(base_fee_msat=base, fee_rate_ppm=ppm)
        f = forwarded_amount(policy, incoming)
        assert f + policy.fee_msat(f) <= incoming
        assert (f + 1) + policy.fee_msat(f + 1) > incoming

    def test_nothing_left(self):
        policy = DirectedPolicy(base_fee_msat=100)
        assert forwarded_amount(policy, 100) is None


def msat_graph(channels):
    """Graph with msat-precision capacities: rows (cid, u, v, cap_msat, policy_uv, policy_vu)."""
    g = ChannelGraph()
    names = sorted({u for _, u, _, _, _, _ in channels} | {v for _, _, v, _, _, _ in channels})
    for n in names:
        g.add_node(Node(n))
    for cid, u, v, cap, puv, pvu in channels:
        assert u < v
        g.add_channel(Channel(cid, u, v, cap, puv, pvu))
    return g


class TestValidity:
    def test_fee_recursion_amounts(self):
        p_fee10 = DirectedPolicy(base_fee_msat=10, timelock_delta=40)
        g = msat_graph(
            [
                ("e0", "a", "b", 110, DirectedPolicy(timelock_delta=40), DirectedPolicy()),
                ("e1", "b", "c", 100, p_fee10, DirectedPolicy()),
            ]
        )
        path = path_from_channels(g, "a", ["e0", "e1"], 100)
        assert [h.forward_amount_msat for h in path.hops] == [110, 100]


class TestFindRoute:
    def test_single_hop_no_fee(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b")])
        path = find_route(g, Payment("a", "b", 5_000))
        assert [h.channel for h in path.hops] == ["e0"]
        assert path.hops[0].forward_amount_msat == 5_000

    def test_triangle_prefers_cheap_two_hop(self):
        g, _ = make_graph(
            ["s", "m", "t"],
            [
                ("direct", "s", "t", {"base_fee": 100_000, "rate_ppm": 0}),
                ("sm", "m", "s", {"base_fee": 1_000, "rate_ppm": 0}),
                ("mt", "m", "t", {"base_fee": 1_000, "rate_ppm": 0}),
            ],
        )
        path = find_route(g, Payment("s", "t", 10_000))
        assert [h.channel for h in path.hops] == ["sm", "mt"]
        assert [h.forward_amount_msat for h in path.hops] == [11_000, 10_000]

    def test_no_capacity_returns_none(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b", {"capacity_sat": 1})])
        assert find_route(g, Payment("a", "b", 2_000_000)) is None

    def test_disabled_direction_skipped(self):
        g, _ = make_graph(["a", "b"], [("e0", "a", "b", {"enabled_uv": False})])
        assert find_route(g, Payment("a", "b", 1000)) is None
        assert find_route(g, Payment("b", "a", 1000)) is not None

    def test_remaining_timelock_decreases(self):
        g, _ = make_graph(["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")])
        path = find_route(g, Payment("a", "d", 1000))
        remaining = [h.remaining_timelock for h in path.hops]
        assert remaining == sorted(remaining, reverse=True)
        deltas = [g.channels[h.channel].policy_from(h.frm).timelock_delta for h in path.hops]
        assert remaining[0] == sum(deltas) + PARAMS.final_cltv_delta
        # after the last hop's delta, exactly the final delta remains
        last_delta = g.channels[path.hops[-1].channel].policy_from(path.hops[-1].frm).timelock_delta
        assert remaining[-1] - last_delta == PARAMS.final_cltv_delta

    def test_parallel_channels_cheapest_wins(self):
        g, _ = make_graph(
            ["a", "b"],
            [("exp", "a", "b", {"base_fee": 5_000}), ("cheap", "a", "b", {"base_fee": 100})],
        )
        path = find_route(g, Payment("a", "b", 1000))
        assert path.hops[0].channel == "cheap"

    def test_parallel_channels_tie_by_channel_id(self):
        g, _ = make_graph(["a", "b", "c"], [("z", "a", "b"), ("y", "a", "b"), ("e", "b", "c")])
        path = find_route(g, Payment("a", "c", 1000))
        assert [h.channel for h in path.hops] == ["y", "e"]

    def test_deterministic_tiebreak(self):
        g, _ = make_graph(
            ["s", "x", "y", "t"],
            [("sx", "s", "x"), ("xt", "t", "x"), ("sy", "s", "y"), ("yt", "t", "y")],
        )
        paths = {tuple(h.channel for h in find_route(g, Payment("s", "t", 1000)).hops)
                 for _ in range(3)}
        assert len(paths) == 1
        # equal weight and hop count: the lexicographically smaller interior node wins
        assert paths.pop() == ("sx", "xt")


def random_graph(seed, n=8, p=0.4, cap_sat=10_000_000):
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n)]
    rows = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows.append(
                    (f"c{k}", names[i], names[j],
                     {"base_fee": int(rng.integers(0, 3000)), "rate_ppm": 0,
                      "delta": int(rng.integers(10, 100)), "capacity_sat": cap_sat})
                )
                k += 1
    if not rows:
        rows = [("c0", names[0], names[1])]
    return make_graph(names, rows)[0]


class TestRouteOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_min_weight_matches_bruteforce(self, seed):
        g = random_graph(seed)
        rng = np.random.default_rng(100 + seed)
        names = sorted(g.nodes)
        for _ in range(6):
            s, t = (names[int(i)] for i in rng.integers(len(names), size=2))
            if s == t:
                continue
            amount = int(rng.integers(1, 10_000)) * 1000
            oracle = brute_route(g, s, t, amount, PARAMS.risk_factor)
            path = find_route(g, Payment(s, t, amount), PARAMS)
            if oracle is None:
                assert path is None
                continue
            got = 0.0
            for hop in path.hops:
                policy = g.channels[hop.channel].policy_from(hop.frm)
                got += policy.fee_msat(hop.forward_amount_msat) + (
                    hop.forward_amount_msat * policy.timelock_delta * PARAMS.risk_factor
                )
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_route_is_capacity_valid_and_amounts_exact(self, seed):
        g = random_graph(seed, cap_sat=50)
        rng = np.random.default_rng(200 + seed)
        names = sorted(g.nodes)
        for _ in range(8):
            s, t = (names[int(i)] for i in rng.integers(len(names), size=2))
            if s == t:
                continue
            amount = int(rng.integers(1, 60)) * 1000
            path = find_route(g, Payment(s, t, amount), PARAMS)
            if path is None:
                continue
            seq = [(g.channels[h.channel], h.frm) for h in path.hops]
            assert [h.forward_amount_msat for h in path.hops] == path_amounts(g, seq, amount)
            for hop in path.hops:
                assert g.channels[hop.channel].capacity_msat >= hop.forward_amount_msat


# capacities from one that starves even a 1 sat payment after a hop's fees
# to ones no test amount reaches
CAPACITIES_SAT = (1, 2, 45, 1_000, 10**6)


PARAMS_CHOICES = (
    PARAMS,
    RoutingParams(risk_factor=0.0),
    RoutingParams(risk_factor=1e-3, final_cltv_delta=9),
)


@st.composite
def route_cases(draw):
    """A multigraph and a sequence of (destination, amount, params) keys."""
    names = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=14,
    ))  # a repeated pair is a parallel channel; a name in no pair is unreachable
    fees = draw(st.sampled_from(("uniform", "mixed", "free")))
    rows = []
    for i, (u, v) in enumerate(pairs):
        over = {"capacity_sat": draw(st.sampled_from(CAPACITIES_SAT))}
        for side in ("uv", "vu"):
            over[f"enabled_{side}"] = draw(st.sampled_from((True, True, True, False)))
            if fees == "mixed":
                over[f"base_fee_{side}"] = draw(st.integers(0, 3_000))
                over[f"rate_ppm_{side}"] = draw(st.sampled_from((0, 10, 5_000)))
                over[f"delta_{side}"] = draw(st.integers(0, 144))
            elif fees == "free":  # under a zero risk factor every route ties on weight
                over[f"base_fee_{side}"] = over[f"rate_ppm_{side}"] = 0
        rows.append((f"c{i}", u, v, over))
    g, _ = make_graph(names, rows)
    keys = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from((1_000, 40_000, 900_000)),
                  st.sampled_from(PARAMS_CHOICES)),
        min_size=1, max_size=6,
    ))  # a repeated key reads the tree its first use built
    return g, keys


def check_routes(g, keys):
    """Every source's cached route equals the reference search's, hop for hop."""
    for dest, amount, params in keys:
        for source in sorted(g.nodes):
            if source != dest:
                payment = Payment(source, dest, amount)
                assert find_route(g, payment, params) == reference_route(g, payment, params)


def fresh_probe_paths(g, vantage, depth, params):
    """`probe_paths` built anew from `probe_plan` and `path_from_channels`."""
    return tuple(
        (cid, tuple(channels), path_from_channels(g, vantage, channels, PROBE_AMOUNT_MSAT, params))
        for cid, channels in probe_plan(g, vantage, depth)
    )


class TestRouteTree:
    """A route read off a kept route tree equals a fresh search's."""

    @given(case=route_cases())
    @settings(max_examples=300, deadline=None)
    @example(case=(
        make_graph(["a", "b", "c", "d"], [("e0", "a", "b"), ("e1", "b", "c")])[0],
        [("a", 1_000, PARAMS), ("c", 1_000, PARAMS), ("a", 1_000, PARAMS)],
    ))
    @example(case=(  # weight ties: aa - c - d has fewer hops than aa - a - b - d
        make_graph(["aa", "a", "b", "c", "d"],
                   [("db", "b", "d"), ("ba", "a", "b"), ("aaa", "a", "aa"),
                    ("dc", "c", "d"), ("caa", "aa", "c")], base_fee=0, rate_ppm=0)[0],
        [("d", 1_000, RoutingParams(risk_factor=0.0))],
    ))
    def test_matches_reference(self, case):
        check_routes(*case)

    @given(case=route_cases())
    @settings(max_examples=100, deadline=None)
    def test_probe_paths_match_fresh(self, case):
        g, keys = case
        check_routes(g, keys[:1])  # other kept results share the store
        for _, _, params in keys:
            for vantage, depth in itertools.product(sorted(g.nodes), range(4)):
                assert probe_paths(g, vantage, depth, params) == fresh_probe_paths(
                    g, vantage, depth, params)
                assert probe_paths(g, vantage, depth, params) is probe_paths(
                    g, vantage, depth, params)

    def test_source_relaxed_when_settled(self):
        # d - a - b is cheaper than d - c - b; a tree that stopped relaxing
        # at a would leave b routed over c, or not at all
        g, _ = make_graph(
            ["a", "b", "c", "d"],
            [("da", "a", "d", {"base_fee": 0}), ("ab", "a", "b", {"base_fee": 0}),
             ("dc", "c", "d", {"base_fee": 0}), ("cb", "b", "c", {"base_fee": 500})],
        )
        assert find_route(g, Payment("a", "d", 1_000), PARAMS).nodes() == ["a", "d"]
        assert find_route(g, Payment("b", "d", 1_000), PARAMS).nodes() == ["b", "a", "d"]
        check_routes(g, [("d", 1_000, PARAMS)])


class TestRouteCache:
    """Kept route trees follow the graph and never serve another key."""

    def test_cheaper_channel_added_is_used(self):
        g, _ = make_graph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])
        assert [h.channel for h in find_route(g, Payment("a", "c", 1_000)).hops] == ["ab", "bc"]
        g.add_channel(Channel("ac", "a", "c", 10**9, DirectedPolicy(), DirectedPolicy()))
        assert [h.channel for h in find_route(g, Payment("a", "c", 1_000)).hops] == ["ac"]

    def test_node_added_is_routed(self):
        g, _ = make_graph(["a", "b"], [("ab", "a", "b")])
        assert find_route(g, Payment("a", "b", 1_000)) is not None
        g.add_node(Node("c"))
        g.add_channel(Channel("bc", "b", "c", 10**9, DirectedPolicy(), DirectedPolicy()))
        assert find_route(g, Payment("a", "c", 1_000)).nodes() == ["a", "b", "c"]

    def test_tree_kept_per_key(self):
        # the direct channel is cheap but holds 5 sat, and it charges a long
        # time lock that only a positive risk factor weighs
        g, _ = make_graph(
            ["s", "m", "t"],
            [("st", "s", "t", {"capacity_sat": 5, "base_fee": 0, "rate_ppm": 0, "delta": 10**6}),
             ("sm", "m", "s", {"base_fee": 100, "rate_ppm": 0, "delta": 0}),
             ("mt", "m", "t", {"base_fee": 100, "rate_ppm": 0, "delta": 0})],
        )
        keys = [(1_000, RoutingParams(risk_factor=0.0)), (9_000, RoutingParams(risk_factor=0.0)),
                (1_000, RoutingParams(risk_factor=1.0))]
        expected = [["s", "t"], ["s", "m", "t"], ["s", "m", "t"]]
        for _ in range(2):  # the second pass reads kept trees
            for (amount, params), nodes in zip(keys, expected):
                path = find_route(g, Payment("s", "t", amount), params)
                assert path.nodes() == nodes
                assert path == reference_route(g, Payment("s", "t", amount), params)

    def test_stores_stay_within_caps(self, monkeypatch):
        # caps of two trees and of one vantage's probe paths: every result is
        # still right, and the oldest entries go first
        g = random_graph(3, n=8, p=0.5)
        monkeypatch.setattr(routing, "_ROUTE_TREE_CELLS", 2 * len(g.nodes))
        monkeypatch.setattr(harness, "_PROBE_PATHS_KEPT", len(g.channels))
        names = sorted(g.nodes)
        check_routes(g, [(dest, 1_000, PARAMS) for dest in names[:3]])
        assert list(g.derived("route trees", dict)) == [(dest, 1_000, PARAMS) for dest in names[1:3]]
        for vantage in names[:3]:
            assert probe_paths(g, vantage, 3, PARAMS) == fresh_probe_paths(g, vantage, 3, PARAMS)
        assert list(g.derived("probe paths", dict)) == [(names[2], 3, PARAMS)]

    def test_policies_frozen(self):
        g, _ = make_graph(["a", "b"], [("ab", "a", "b")])
        ch = g.channels["ab"]
        with pytest.raises(FrozenInstanceError):
            ch.policy_uv.base_fee_msat = 0
        with pytest.raises(FrozenInstanceError):
            ch.capacity_msat = 0


def reachable(g, anchor, amount, direction="from-anchor", budget=None):
    """`feasible_endpoints` over graphs with one channel per node pair."""
    return feasible_endpoints(g, anchor, amount, TraversalRules(direction, budget), PARAMS)


class TestReachability:
    def test_amount_exceeds_all_caps(self):
        g, _ = make_graph(["a", "b", "c"], [("e0", "a", "b", {"capacity_sat": 1}),
                                         ("e1", "b", "c", {"capacity_sat": 1})])
        assert reachable(g, "a", 5_000_000) == {"a"}

    def test_tiny_amount_reaches_all(self):
        g, _ = make_graph(["a", "b", "c", "d"],
                       [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")])
        assert reachable(g, "a", 200_000) == {"a", "b", "c", "d"}

    def test_timelock_budget_limits_depth(self):
        g, _ = make_graph(["a", "b", "c", "d"],
                       [("e0", "a", "b", {"delta": 40}), ("e1", "b", "c", {"delta": 40}),
                        ("e2", "c", "d", {"delta": 40})], base_fee=0, rate_ppm=0)
        assert reachable(g, "a", 1000, budget=80) == {"a", "b", "c"}

    def test_bottleneck_fixture_matches_bruteforce(self):
        # a - b - c - d plus a detour a - e - d; b-c is a 3 sat bottleneck
        rows = [
            ("ab", "a", "b", {"capacity_sat": 1000}),
            ("bc", "b", "c", {"capacity_sat": 3}),
            ("cd", "c", "d", {"capacity_sat": 1000}),
            ("ae", "a", "e", {"capacity_sat": 1000}),
            ("ed", "d", "e", {"capacity_sat": 1000}),
        ]
        amount = 500_000
        pub, _ = make_graph(["a", "b", "c", "d", "e"], rows, base_fee=100, rate_ppm=0)
        got = reachable(pub, "a", amount)
        assert got == brute_reduced_set(pub, "a", amount, "from-anchor", None)
        assert got == {"a", "b", "c", "d", "e"}  # c is reachable around the bottleneck
        # without the detour the bottleneck cuts c and d off
        pub2, _ = make_graph(["a", "b", "c", "d"], rows[:3], base_fee=100, rate_ppm=0)
        got2 = reachable(pub2, "a", amount)
        assert got2 == brute_reduced_set(pub2, "a", amount, "from-anchor", None)
        assert got2 == {"a", "b"}

    def test_toward_anchor_amount_grows(self):
        # upstream walk adds fees: with a tight capacity right above, distance limits
        pub, _ = make_graph(
            ["a", "b", "c"],
            [("ab", "a", "b", {"capacity_sat": 1, "base_fee": 0, "rate_ppm": 0}),
             ("bc", "b", "c", {"capacity_sat": 1000})],
        )
        # anchor b received 900 msat; edge into b must carry 900 (cap 1000 ok);
        # edge a-b above needs 900 + fee, over its 1000 msat capacity? no: 1000 >= 900
        assert reachable(pub, "b", 900, "toward-anchor") == {"b", "a", "c"}
        assert reachable(pub, "b", 1_500, "toward-anchor") == {"b", "c"}  # a-b cap 1000 msat < 1500
