import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcnsim.latency import (
    EdgeLatencyEstimate,
    Gaussian,
    InsufficientSamples,
    LatencyModel,
    aggregate_models,
    estimate_next_hop,
    normal_logpdf,
    path_distribution,
)
from pcnsim.graph import RegionLatencyTable
from pcnsim.routing import path_from_channels
from pcnsim.sim import probe_batch
from conftest import make_graph, split_balances


class TestGaussian:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            Gaussian(1.0, -0.5)

    def test_logpdf_matches_closed_form(self):
        g = Gaussian(3.0, 2.0)
        x = 4.7
        expected = math.log(
            math.exp(-((x - 3.0) ** 2) / (2 * 4.0)) / math.sqrt(2 * math.pi * 4.0)
        )
        assert normal_logpdf(x, g.mean, g.std) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_needs_floor(self):
        with pytest.raises(ValueError):
            normal_logpdf(1.0, 1.0, 0.0)
        assert normal_logpdf(1.0, 1.0, 0.0, sigma_floor=0.1) > 0  # peak of a tight pdf


class TestFirstHop:
    """A one-hop probing path: `estimate_next_hop` with no prior hops."""

    def test_degenerate_samples(self):
        assert estimate_next_hop([60.0] * 5, [], 6) == Gaussian(10.0, 0.0)

    def test_alternative_weighting(self):
        assert estimate_next_hop([40.0, 40.0], [], 4) == Gaussian(10.0, 0.0)

    def test_spread(self):
        est = estimate_next_hop([50.0, 70.0], [], 6)
        assert est.mean == 10.0
        assert est.std == pytest.approx(math.sqrt(200.0 / 12.0), rel=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            estimate_next_hop([60.0], [], 6)


class TestNextHop:
    def test_subtraction_identity(self):
        est = estimate_next_hop([120.0, 120.0], [Gaussian(10.0, 0.0)], 6)
        assert est == Gaussian(10.0, 0.0)

    def test_overshooting_prior_clamped(self, caplog):
        with caplog.at_level("WARNING"):
            est = estimate_next_hop([60.0, 60.0], [Gaussian(50.0, 0.0)], 6)
        assert est.mean == 1.0
        assert "clamp" in caplog.text

    def test_prior_uncertainty_adds_in_quadrature(self):
        est = estimate_next_hop(
            [600.0, 600.0], [Gaussian(40.0, 3.0), Gaussian(30.0, 4.0)], 6
        )
        assert est.mean == 30.0
        assert est.std == 5.0


class TestAggregation:
    def test_single_estimate_keeps_mean_zero_spread(self):
        # a lone estimate has no cross-vantage spread, so its probe sigma stays
        est = EdgeLatencyEstimate("c0", Gaussian(12.0, 3.0), 10, "m0", 2)
        model = aggregate_models([est])
        assert model.edges["c0"] == Gaussian(12.0, 3.0)

    def test_reciprocal_distance_weighting(self):
        ests = [
            EdgeLatencyEstimate("c0", Gaussian(10.0, 0.0), 10, "m0", 1),
            EdgeLatencyEstimate("c0", Gaussian(16.0, 0.0), 10, "m1", 2),
        ]
        model = aggregate_models(ests)
        assert model.edges["c0"].mean == pytest.approx(12.0, rel=1e-12)

    def test_identical_estimates_any_distance(self):
        ests = [
            EdgeLatencyEstimate("c0", Gaussian(9.0, 1.0), 10, "m0", d) for d in (1, 2, 3)
        ]
        model = aggregate_models(ests)
        assert model.edges["c0"].mean == pytest.approx(9.0)
        assert model.edges["c0"].std == 1.0  # no spread: the probes' weighted sigma

    @given(perm=st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, perm):
        base = [
            EdgeLatencyEstimate("c0", Gaussian(10.0 + i, 0.5), 10, f"m{i}", i + 1)
            for i in range(4)
        ]
        reference = aggregate_models(base).edges["c0"]
        shuffled = aggregate_models([base[i] for i in perm]).edges["c0"]
        assert shuffled.mean == pytest.approx(reference.mean, rel=1e-12)
        assert shuffled.std == pytest.approx(reference.std, rel=1e-12)


class TestPathDistribution:
    def model(self, mapping, t=6):
        return LatencyModel(edges={k: Gaussian(*v) for k, v in mapping.items()},
                            traversal_weight=t)

    def test_gaussian_sum_formula(self):
        model = self.model({"a": (1.0, 2.0), "b": (2.0, 3.0)})
        total = path_distribution(model, ["a", "b"], weights=[1, 1])
        assert total.mean == pytest.approx(3.0, rel=1e-12)
        assert total.variance == pytest.approx(13.0, rel=1e-12)

    def test_single_edge_identity(self):
        model = self.model({"a": (7.0, 1.5)})
        assert path_distribution(model, ["a"], weights=[1]) == Gaussian(7.0, 1.5)

    def test_independent_mode_scales_variance_linearly(self):
        model = self.model({"a": (10.0, 2.0)})
        total = path_distribution(model, ["a"])  # default weight 6
        assert total.mean == pytest.approx(60.0)
        assert total.variance == pytest.approx(24.0)

    def test_independent_mode_against_monte_carlo(self):
        # six independent crossings of N(10, 4): check both moments
        rng = np.random.default_rng(5)
        sums = rng.normal(10.0, 2.0, size=(200_000, 6)).sum(axis=1)
        model = self.model({"a": (10.0, 2.0)})
        total = path_distribution(model, ["a"])
        assert total.mean == pytest.approx(sums.mean(), rel=0.01)
        assert total.variance == pytest.approx(sums.var(), rel=0.02)

    def test_unknown_edge_falls_back_flagged(self):
        model = self.model({"a": (10.0, 2.0)})
        total = path_distribution(model, ["a", "ghost"], weights=[1, 1])
        assert total.mean == pytest.approx(10.0 + model.default.mean)
        assert total.variance == pytest.approx(4.0 + model.default.variance)

    def test_default_is_the_unknown_region_latency(self):
        # the fallback is what the simulator gives a channel of unknown regions
        assert LatencyModel().default == RegionLatencyTable().lookup_one_way(None, None)
        assert LatencyModel().default == Gaussian(125.0, 25.0)

    @given(split=st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_grouping_associative(self, split):
        model = self.model({c: (5.0 + i, 1.0 + 0.1 * i) for i, c in enumerate("abcd")})
        edges = list("abcd")
        whole = path_distribution(model, edges)
        left = path_distribution(model, edges[:split])
        right = path_distribution(model, edges[split:])
        assert whole.mean == pytest.approx(left.mean + right.mean, rel=1e-12)
        assert whole.variance == pytest.approx(left.variance + right.variance, rel=1e-12)


def probing_fixture():
    """(graph, balances, latencies) of a noiseless a - b - c - d line."""
    g, latencies = make_graph(
        ["a", "b", "c", "d"],
        [("e0", "a", "b", {"latency_ms": 10.0}),
         ("e1", "b", "c", {"latency_ms": 7.5}),
         ("e2", "c", "d", {"latency_ms": 30.0})],
    )
    return g, split_balances(g), latencies


class TestProbePath:
    def test_one_hop_roundtrip_six_traversals(self):
        net = probing_fixture()
        path = path_from_channels(net[0], "a", ["e0"], 1000)
        assert probe_batch(*net, "a", path, 1, np.random.default_rng(0)).samples_ms == [60.0]

    def test_repeated_probes_identical(self):
        net = probing_fixture()
        path = path_from_channels(net[0], "a", ["e0", "e1"], 1000)
        batch = probe_batch(*net, "a", path, 5, np.random.default_rng(0))
        assert len(batch.samples_ms) == 5
        assert set(batch.samples_ms) == {105.0}

    def test_empty_path_rejected(self):
        net = probing_fixture()

        class Empty:
            hops = ()

        with pytest.raises(ValueError):
            probe_batch(*net, "a", Empty(), 1, np.random.default_rng(0))

    def test_wrong_start_rejected(self):
        net = probing_fixture()
        path = path_from_channels(net[0], "b", ["e1"], 1000)
        with pytest.raises(ValueError):
            probe_batch(*net, "a", path, 1, np.random.default_rng(0))


class TestNoiselessRecovery:
    def test_iterative_chain_recovers_exact_means(self):
        net = probing_fixture()
        rng = np.random.default_rng(0)
        t = 6
        n = 5
        estimates = {}
        for channels, true_mean in [(["e0"], 10.0), (["e0", "e1"], 7.5),
                                    (["e0", "e1", "e2"], 30.0)]:
            path = path_from_channels(net[0], "a", channels, 1000)
            samples = probe_batch(*net, "a", path, n, rng).samples_ms
            assert len(samples) == n
            est = estimate_next_hop(samples, [estimates[c] for c in channels[:-1]], t)
            estimates[channels[-1]] = est
            assert est.mean == true_mean  # bit-exact in a noiseless network
            assert est.std == 0.0

