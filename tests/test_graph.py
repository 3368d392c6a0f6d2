import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcnsim.graph import (
    DEFAULT_REGION_RTT,
    Channel,
    ChannelGraph,
    DirectedPolicy,
    Node,
    RegionLatencyTable,
    SnapshotError,
    _betweenness_scores,
    assign_latencies,
    betweenness_ranking,
    check_conservation,
    convert_describegraph,
    init_balances,
    load_snapshot,
)
from pcnsim.harness import generate_synthetic_graph
from conftest import channels_at, make_graph
from oracles import brute_betweenness
from test_routing import multigraphs


def snapshot_doc(nodes, edges):
    return {"nodes": nodes, "edges": edges}


def node(pub, region=None):
    d = {"pub_key": pub}
    if region:
        d["region"] = region
    return d


def edge(cid, n1, n2, cap_sat, p1=None, p2=None):
    default = {"base_fee_msat": 1000, "fee_rate_ppm": 10, "time_lock_delta": 40, "disabled": False}
    return {
        "channel_id": cid,
        "node1_pub": n1,
        "node2_pub": n2,
        "capacity_sat": cap_sat,
        "node1_policy": default if p1 is None else p1,
        "node2_policy": default if p2 is None else p2,
    }


class TestLoadSnapshot:
    def test_empty(self):
        g = load_snapshot(snapshot_doc([], []))
        assert len(g.nodes) == 0 and len(g.channels) == 0

    def test_unit_conversion(self):
        g = load_snapshot(snapshot_doc([node("A"), node("B")], [edge("c0", "A", "B", 1000)]))
        assert g.channels["c0"].capacity_msat == 1_000_000

    def test_dangling_endpoint_rejected(self):
        g = load_snapshot(
            snapshot_doc([node("A"), node("B")],
                         [edge("c0", "A", "B", 10), edge("c1", "A", "GHOST", 10)])
        )
        assert set(g.channels) == {"c0"}
        assert len(g.rejections) == 1
        assert "c1" in g.rejections[0]

    def test_self_loop_rejected(self):
        g = load_snapshot(snapshot_doc([node("A")], [edge("c0", "A", "A", 10)]))
        assert not g.channels and len(g.rejections) == 1

    def test_malformed_names_record(self):
        with pytest.raises(SnapshotError, match="edges\\[0\\]"):
            load_snapshot(snapshot_doc([node("A")], [{"channel_id": "c0"}]))
        with pytest.raises(SnapshotError, match="nodes\\[1\\]"):
            load_snapshot(snapshot_doc([node("A"), {"wat": 1}], []))

    def test_negative_capacity_names_record(self):
        with pytest.raises(SnapshotError, match="edges\\[1\\]: negative capacity_sat"):
            load_snapshot(
                snapshot_doc([node("A"), node("B")],
                             [edge("c0", "A", "B", 10), edge("c1", "A", "B", -5)])
            )

    def test_malformed_describegraph_names_record(self):
        with pytest.raises(SnapshotError, match="mapping"):
            convert_describegraph([])
        with pytest.raises(SnapshotError, match="edges\\[0\\]"):
            convert_describegraph({"nodes": [], "edges": [{"channel_id": "7"}]})

    def test_duplicate_channel_id(self):
        with pytest.raises(SnapshotError, match="duplicate"):
            load_snapshot(
                snapshot_doc([node("A"), node("B")],
                             [edge("c0", "A", "B", 10), edge("c0", "B", "A", 10)])
            )

    def test_duplicate_pub_key(self):
        with pytest.raises(SnapshotError, match="nodes\\[1\\]: duplicate pub_key A"):
            load_snapshot(snapshot_doc([node("A", "EU"), node("A", "NA")], []))

    def test_one_sided_policy_disabled(self):
        doc = snapshot_doc([node("A"), node("B")], [edge("c0", "A", "B", 10, p2=False)])
        doc["edges"][0]["node2_policy"] = None
        g = load_snapshot(doc)
        ch = g.channels["c0"]
        assert ch.policy_uv.enabled and not ch.policy_vu.enabled

    def test_endpoint_normalization(self):
        # node1 > node2 in the document: policies must follow the swap
        doc = snapshot_doc(
            [node("B"), node("A")],
            [edge("c0", "B", "A", 10,
                  p1={"base_fee_msat": 7, "fee_rate_ppm": 0, "time_lock_delta": 1, "disabled": False},
                  p2={"base_fee_msat": 9, "fee_rate_ppm": 0, "time_lock_delta": 2, "disabled": False})],
        )
        ch = load_snapshot(doc).channels["c0"]
        assert (ch.u, ch.v) == ("A", "B")
        assert ch.policy_uv.base_fee_msat == 9  # A's policy came from node2_policy
        assert ch.policy_vu.base_fee_msat == 7


class TestDescribegraphConverter:
    def test_field_mapping(self):
        dump = {
            "nodes": [{"pub_key": "A", "addresses": []}, {"pub_key": "B"}],
            "edges": [
                {
                    "channel_id": "123456",
                    "node1_pub": "A",
                    "node2_pub": "B",
                    "capacity": "50000",
                    "node1_policy": {
                        "fee_base_msat": "1000",
                        "fee_rate_milli_msat": "10",
                        "time_lock_delta": 40,
                        "disabled": False,
                    },
                    "node2_policy": None,
                }
            ],
        }
        g = load_snapshot(convert_describegraph(dump))
        ch = g.channels["123456"]
        assert ch.capacity_msat == 50_000_000
        assert ch.policy_uv.base_fee_msat == 1000
        assert ch.policy_uv.fee_rate_ppm == 10
        assert not ch.policy_vu.enabled


@pytest.mark.parametrize("load, document, record", [
    (load_snapshot, {"nodes": 5}, "nodes"),
    (load_snapshot, snapshot_doc([node(["A"])], []), "nodes[0]"),
    (load_snapshot, snapshot_doc([node("A"), node("B")], [edge(["c0"], "A", "B", 10)]), "edges[0]"),
    (load_snapshot, snapshot_doc([node("A"), node("B")], [edge("c0", ["A"], "B", 10)]), "edges[0]"),
    (convert_describegraph, {"edges": 3}, "edges"),
], ids=["nodes-not-a-list", "list-pub-key", "list-channel-id", "list-node1-pub",
        "edges-not-a-list"])
def test_wrong_type_names_record(load, document, record):
    with pytest.raises(SnapshotError) as info:
        load(document)
    assert str(info.value).startswith(f"{record}")


# Any JSON value, and records whose every field is either plausible or any JSON value.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def maybe(plausible):
    return st.one_of(plausible, JSON)


def records(required, optional=None):
    return maybe(st.lists(
        maybe(st.fixed_dictionaries({k: maybe(v) for k, v in required.items()},
                                    optional={k: maybe(v) for k, v in (optional or {}).items()})),
        max_size=4,
    ))


PUBS = st.sampled_from(["A", "B", "C", ""])
CHANNEL_IDS = st.sampled_from(["c0", "c1"])
SNAPSHOT_POLICY = st.none() | st.fixed_dictionaries({}, optional={
    "base_fee_msat": st.integers(-1, 5000), "fee_rate_ppm": st.integers(-1, 100),
    "time_lock_delta": st.integers(-1, 144), "disabled": st.booleans(),
})
SNAPSHOTS = maybe(st.fixed_dictionaries({}, optional={
    "nodes": records({"pub_key": PUBS}, {"region": st.sampled_from(["EU", "NA"])}),
    "edges": records(
        {"channel_id": CHANNEL_IDS, "node1_pub": PUBS, "node2_pub": PUBS,
         "capacity_sat": st.integers(-5, 10**6)},
        {"node1_policy": SNAPSHOT_POLICY, "node2_policy": SNAPSHOT_POLICY},
    ),
}))
LND_POLICY = st.none() | st.fixed_dictionaries({}, optional={
    "fee_base_msat": st.integers(0, 5000).map(str), "fee_rate_milli_msat": st.integers(0, 100).map(str),
    "time_lock_delta": st.integers(0, 144), "disabled": st.booleans(),
})
DESCRIBEGRAPHS = maybe(st.fixed_dictionaries({}, optional={
    "nodes": records({"pub_key": PUBS}),
    "edges": records(
        {"channel_id": CHANNEL_IDS, "node1_pub": PUBS, "node2_pub": PUBS,
         "capacity": st.integers(0, 10**6).map(str)},
        {"node1_policy": LND_POLICY, "node2_policy": LND_POLICY},
    ),
}))


def load_or_reject(document):
    """load_snapshot's result, checked usable end to end, or None on SnapshotError."""
    try:
        g = load_snapshot(document)
    except SnapshotError:
        return None
    assert all(isinstance(n, str) and n for n in g.nodes)
    for cid, ch in g.channels.items():
        assert isinstance(cid, str) and ch.u < ch.v and {ch.u, ch.v} <= set(g.nodes)
        assert ch.capacity_msat >= 0
    check_conservation(g, init_balances(g))
    assert set(assign_latencies(g, DEFAULT_REGION_RTT, 0)) == set(g.channels)
    assert sorted(betweenness_ranking(g)) == sorted(g.nodes)
    return g


class TestLoaderFuzz:
    """Both loaders return a usable graph or raise SnapshotError, nothing else."""

    @given(document=SNAPSHOTS)
    @settings(max_examples=300, deadline=None)
    def test_load_snapshot(self, document):
        load_or_reject(document)

    @given(dump=DESCRIBEGRAPHS)
    @settings(max_examples=300, deadline=None)
    def test_convert_describegraph(self, dump):
        try:
            document = convert_describegraph(dump)
        except SnapshotError:
            return
        load_or_reject(document)


class TestInitBalances:
    @pytest.mark.parametrize(
        "cap_msat,expect_uv,expect_vu",
        [(1000, 500, 500), (0, 0, 0), (7, 4, 3)],
    )
    def test_split(self, cap_msat, expect_uv, expect_vu):
        g = ChannelGraph()
        g.add_node(Node("a"))
        g.add_node(Node("b"))
        from pcnsim.graph import Channel, DirectedPolicy

        g.add_channel(Channel("c0", "a", "b", cap_msat, DirectedPolicy(), DirectedPolicy()))
        balances = init_balances(g)
        assert balances["c0", "a"] == expect_uv  # u == "a", the smaller id
        assert balances["c0", "b"] == expect_vu
        check_conservation(g, balances)

    @given(caps=st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, caps):
        g = ChannelGraph()
        names = [f"n{i}" for i in range(len(caps) + 1)]
        for n in names:
            g.add_node(Node(n))
        from pcnsim.graph import Channel, DirectedPolicy

        for i, cap in enumerate(caps):
            g.add_channel(
                Channel(f"c{i}", names[i], names[i + 1], cap, DirectedPolicy(), DirectedPolicy())
            )
        balances = init_balances(g)
        check_conservation(g, balances)
        for cid, ch in g.channels.items():
            assert abs(balances[cid, ch.u] - balances[cid, ch.v]) <= 1


class TestAssignLatencies:
    def table(self):
        return RegionLatencyTable.from_rows([("EU", "EU", 40, 12), ("EU", "NA", 110, 25)])

    def test_region_pair_lookup(self):
        g = load_snapshot(
            snapshot_doc([node("A", "EU"), node("B", "EU")], [edge("c0", "A", "B", 10)])
        )
        latencies = assign_latencies(g, self.table(), rng_seed=0)
        assert latencies["c0"].mean == 20.0  # half of the 40 ms RTT
        assert latencies["c0"].std == 6.0

    def test_missing_pair_falls_back(self):
        g = load_snapshot(
            snapshot_doc([node("A", "EU"), node("B", "SA")], [edge("c0", "A", "B", 10)])
        )
        assert assign_latencies(g, self.table(), rng_seed=0)["c0"].mean == 125.0

    def test_unknown_region_deterministic(self):
        doc = snapshot_doc([node("A"), node("B", "EU")], [edge("c0", "A", "B", 10)])
        lat = []
        for _ in range(2):
            g = load_snapshot(doc)
            lat.append(assign_latencies(g, self.table(), rng_seed=42)["c0"])
        assert lat[0] == lat[1]

    def test_empty_table_global_default(self):
        g = load_snapshot(snapshot_doc([node("A"), node("B")], [edge("c0", "A", "B", 10)]))
        latencies = assign_latencies(g, RegionLatencyTable(), rng_seed=0)
        assert latencies["c0"].mean == 125.0
        assert latencies["c0"].std == 25.0

    def test_equal_seeds_identical(self):
        runs = []
        for _ in range(2):
            g, _ = make_graph(list("abcdef"), [
                ("c0", "a", "b"), ("c1", "b", "c"), ("c2", "c", "d"),
                ("c3", "d", "e"), ("c4", "e", "f"),
            ])
            runs.append(assign_latencies(g, DEFAULT_REGION_RTT, rng_seed=7))
        assert runs[0] == runs[1]


class TestPublicView:
    def test_neighbour_groups(self):
        rows = [("c2", "a", "c"), ("c0", "b", "a", {"base_fee_uv": 5, "base_fee_vu": 7}),
                ("c1", "a", "b")]
        pub, _ = make_graph(["a", "b", "c"], rows)
        groups = pub.neighbour_groups()["a"]
        assert [(nb, [side[0].id for side in sides]) for nb, sides in groups] == [
            ("b", ["c0", "c1"]), ("c", ["c2"]),
        ]
        for nb, sides in groups:
            for ch, policy_out, policy_in in sides:
                assert policy_out is ch.policy_from("a") and policy_in is ch.policy_from(nb)
        assert groups[0][1][0][1].base_fee_msat == 5
        assert pub.neighbour_groups()["a"] is groups
        # built groups take no part in equality, and a new channel rebuilds them
        assert pub == make_graph(["a", "b", "c"], rows)[0]
        pub.add_channel(Channel("c3", "a", "b", 1000, DirectedPolicy(), DirectedPolicy()))
        assert [side[0].id for side in pub.neighbour_groups()["a"][0][1]] == ["c0", "c1", "c3"]

    @given(g=multigraphs())
    @settings(max_examples=200, deadline=None)
    # parallel channels whose insertion order is not their id order
    @example(g=make_graph(["n0", "n1", "n2"], [
        ("c2", "n0", "n1"), ("c10", "n1", "n2"), ("c1", "n1", "n0"), ("c0", "n0", "n1"),
    ])[0])
    def test_neighbour_groups_match_channel_scan(self, g):
        # the one pass over the channels groups each node's channels as a
        # scan of every channel at that node does
        groups = g.neighbour_groups()
        assert sorted(groups) == sorted(g.nodes)
        for node in g.nodes:
            by_neighbour = {}
            for ch in channels_at(g, node):
                nb = ch.other_end(node)
                by_neighbour.setdefault(nb, []).append(
                    (ch, ch.policy_from(node), ch.policy_from(nb)))
            assert groups[node] == tuple((nb, tuple(by_neighbour[nb]))
                                         for nb in sorted(by_neighbour))
        assert g.neighbour_groups() is groups
        new = f"n{len(g.nodes)}"
        g.add_node(Node(new))
        assert g.neighbour_groups()[new] == ()


class TestBetweenness:
    def test_path_center_first(self):
        g, _ = make_graph(["a", "b", "c"], [("c0", "a", "b"), ("c1", "b", "c")])
        assert betweenness_ranking(g)[0] == "b"

    def test_star_hub_value(self):
        n = 6
        g, _ = make_graph(
            [f"n{i}" for i in range(n)],
            [(f"c{i}", "n0", f"n{i}") for i in range(1, n)],
        )
        scores = brute_betweenness(g)
        assert scores["n0"] == (n - 1) * (n - 2) / 2
        assert betweenness_ranking(g)[0] == "n0"

    def test_ties_by_node_id(self):
        g, _ = make_graph(["a", "b"], [("c0", "a", "b")])
        assert betweenness_ranking(g) == ["a", "b"]

    def test_ranking_follows_added_node_and_channel(self):
        g, _ = make_graph(["a", "b"], [("c0", "a", "b")])
        assert betweenness_ranking(g) == ["a", "b"]
        g.add_node(Node("0"))
        assert betweenness_ranking(g) == ["0", "a", "b"]
        g.add_channel(Channel("c1", "0", "b", 1000, DirectedPolicy(), DirectedPolicy()))
        assert betweenness_ranking(g) == ["b", "0", "a"]

    def test_returned_ranking_is_a_copy(self):
        g, _ = make_graph(["a", "b", "c"], [("c0", "a", "b"), ("c1", "b", "c")])
        ranking = betweenness_ranking(g)
        ranking.reverse()
        ranking.append("z")
        assert betweenness_ranking(g) == ["b", "a", "c"]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        names = [f"n{i}" for i in range(n)]
        edges = []
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.append((f"c{k}", names[i], names[j]))
                    k += 1
        if not edges:
            edges = [("c0", names[0], names[1])]
        g, _ = make_graph(names, edges)
        oracle = brute_betweenness(g)
        expected = sorted(names, key=lambda x: (-oracle[x], x))
        assert betweenness_ranking(g) == expected

    @pytest.mark.parametrize("side, expected", [
        (3, ["n04", "n01", "n03", "n05", "n07", "n00", "n02", "n06", "n08"]),
        (4, ["n05", "n06", "n09", "n10", "n01", "n02", "n04", "n07",
             "n08", "n11", "n13", "n14", "n00", "n03", "n12", "n15"]),
    ])
    def test_grid_ties_by_node_id(self, side, expected):
        # Nodes in symmetric positions are exactly tied, but float summation
        # leaves some of them a few ulps apart: networkx scores n03 below n01
        # in the 3x3 grid, the numpy pass scores n05 below n09 in the 4x4 one.
        names = [f"n{i:02d}" for i in range(side * side)]
        rows = [(f"h{i}", names[i], names[i + 1])
                for i in range(side * side) if (i + 1) % side]
        rows += [(f"v{i}", names[i], names[i + side]) for i in range(side * (side - 1))]
        g, _ = make_graph(names, rows)
        assert betweenness_ranking(g) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20),
    )))
    @example((2, []))
    @example((2, [(0, 1), (1, 0), (0, 1)]))
    @example((7, [(0, 1), (1, 2), (4, 5), (5, 6), (6, 4)]))
    def test_matches_bruteforce_with_tie_rule(self, graph_spec):
        n, pairs = graph_spec
        names = [f"n{i}" for i in range(n)]
        rows = [(f"c{k}", names[a], names[b]) for k, (a, b) in enumerate(pairs) if a != b]
        g, _ = make_graph(names, rows)
        assert betweenness_ranking(g) == _tie_rule_ranking(brute_betweenness(g))

    @pytest.mark.parametrize("n, seed", [(15, 9), (30, 3), (30, 21), (200, 11), (1000, 11)])
    def test_matches_networkx_on_scale_free(self, n, seed):
        import networkx as nx

        g = generate_synthetic_graph("scale-free", n, seed=seed)
        nxg = nx.Graph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from((ch.u, ch.v) for ch in g.channels.values())
        scores = nx.betweenness_centrality(nxg, normalized=False)
        assert betweenness_ranking(g) == _tie_rule_ranking(scores)
        # summation order differs, so scores agree to float64 rounding only
        ids = sorted(g.nodes)
        np.testing.assert_allclose(
            _betweenness_scores(ids, g.neighbour_groups()),
            [scores[x] for x in ids], rtol=1e-12, atol=1e-9,
        )


@pytest.mark.parametrize("seed", [0, 3, 9, 11, 21])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 50, 200, 1000, 3000])
def test_scale_free_matches_networkx(n, seed):
    import networkx as nx

    ba = nx.barabasi_albert_graph(n, min(2, n - 1), seed=seed)
    expected = [
        tuple(sorted((f"n{a:03d}", f"n{b:03d}")))
        for a, b in sorted(tuple(sorted(e)) for e in ba.edges())
    ]
    g = generate_synthetic_graph("scale-free", n, seed=seed)
    assert [(ch.u, ch.v) for ch in g.channels.values()] == expected
    assert list(g.channels) == [f"c{i:04d}" for i in range(len(expected))]


def _tie_rule_ranking(scores):
    """Descending score rounded to 10 significant digits, ties by id."""
    return sorted(scores, key=lambda x: (-float(f"{scores[x]:.9e}"), x))
