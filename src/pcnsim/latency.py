"""Adversarial edge-latency models.

Edge latencies are modelled as Gaussians in milliseconds.  An attacker node
measures round trips of payments that are crafted to fail at a chosen hop,
turns the samples into per-edge estimates (iteratively, subtracting the
already-estimated prefix of the probing path), and merges each channel's
nearest estimates from several vantage points into one model, weighting by
reciprocal hop distance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from operator import itemgetter

from .graph import Gaussian, RegionLatencyTable
from .sim import LATENCY_FLOOR_NS, NS_PER_MS, TRAVERSALS_PER_EDGE

log = logging.getLogger(__name__)

# Estimated edge means are clamped at the simulator's floor for one traversal.
MEAN_FLOOR_MS = LATENCY_FLOOR_NS / NS_PER_MS

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class InsufficientSamples(ValueError):
    """Raised when an estimate is requested from fewer than two probes."""


def normal_logpdf(x: float, mean: float, std: float, sigma_floor: float = 0.0) -> float:
    """Log-density of N(mean, max(std, sigma_floor)^2) at x."""
    s = max(std, sigma_floor)
    if s <= 0:
        raise ValueError("degenerate Gaussian needs a sigma floor")
    z = (x - mean) / s
    return -0.5 * z * z - math.log(s) - _HALF_LOG_2PI


def logpdf_bound(x: float, mean: float, var: float, sigma_floor: float) -> float:
    """Upper bound on `normal_logpdf(x, m, sqrt(v), sigma_floor)` over every
    m >= mean and v >= var.

    With s = max(sqrt(var), sigma_floor): at or below x the best mean is x
    itself, with the least sigma s; above it the mean can only move away
    from x, and for a distance d = mean - x the density in sigma peaks at
    sigma d, so the bound takes sigma max(s, d).

    Both branches evaluate `normal_logpdf`, so the bound rounds as the
    densities it covers do; `adversary.estimate_endpoint` states the
    margin, relative to the bound's magnitude, that makes pruning on it
    exact in floating point.
    """
    s = max(math.sqrt(var), sigma_floor)
    if mean <= x:
        return normal_logpdf(x, x, s)
    return normal_logpdf(x, mean, max(s, mean - x))


@dataclass
class LatencyModel:
    """Per-channel Gaussian latency map used by the timing estimators."""

    edges: dict[str, Gaussian] = field(default_factory=dict)
    traversal_weight: int = TRAVERSALS_PER_EDGE
    default: Gaussian = RegionLatencyTable().lookup_one_way(None, None)

    def edge_gaussian(self, channel_id: str) -> Gaussian:
        """Look up a channel, falling back to the model default."""
        return self.edges.get(channel_id, self.default)


def estimate_next_hop(
    samples_ms: list[float],
    prior_hops: list[Gaussian],
    traversal_weight: int,
) -> Gaussian:
    """Estimate the last edge of a probing path from its round trips.

    The path mean is sum(samples) / (T*n), per traversal; the residuals for
    the spread are taken against T times it, so both operands are full
    round-trip durations.  The edge's mean subtracts the already-estimated
    prefix edges (`prior_hops`, empty for a one-hop path); the variance of
    that subtraction inherits the prior estimates' variances, so they are
    added in quadrature to the path-level sample spread.

    A negative mean (prior estimates overshooting the path measurement) is
    clamped to `MEAN_FLOOR_MS` and logged rather than aborting the model build.
    """
    n = len(samples_ms)
    if n < 2:
        raise InsufficientSamples(f"need >= 2 probes, got {n}")
    t = traversal_weight
    path_mean = sum(samples_ms) / (t * n)
    mean = path_mean - sum(g.mean for g in prior_hops)
    resid = sum((s - t * path_mean) ** 2 for s in samples_ms)
    variance = resid / (t * n) + sum(g.variance for g in prior_hops)
    if mean < MEAN_FLOOR_MS:
        log.warning(
            "edge mean estimate %.3f ms below floor (priors overshoot), clamping", mean
        )
        mean = MEAN_FLOOR_MS
    return Gaussian(mean, math.sqrt(variance))


def aggregate_models(
    estimates: dict[str, list[tuple[int, str, Gaussian]]],
    keep: int,
    traversal_weight: int = TRAVERSALS_PER_EDGE,
) -> LatencyModel:
    """Merge per-vantage estimates into one model.

    `estimates` maps a channel to its (hop distance, vantage, Gaussian)
    triples.  Per channel only the `keep` nearest triples, by (hop distance,
    vantage), are merged; farther ones add little beyond their noise.  They
    are combined by an arithmetic mean weighted with the reciprocal hop
    distance; the merged sigma is the weighted spread of the per-vantage
    means.  That spread is zero whenever a channel keeps a single estimate,
    which would collapse density ranking to nearest-mean; the probes did
    measure the per-traversal spread, so a zero spread is replaced by the
    same weighted mean of the estimates' sigmas.  A channel left with no
    estimate (`keep` 0) gets no edge.
    """
    edges: dict[str, Gaussian] = {}
    for cid in sorted(estimates):
        group = sorted(estimates[cid], key=itemgetter(0, 1))[:keep]
        if not group:
            continue
        hops, _, gaussians = zip(*group)
        weights = [1.0 / h for h in hops]
        wsum = sum(weights)
        if len(group) == 1:
            # weighting by w/w would only round the mean; its spread over
            # one mean is zero
            mu, sigma = gaussians[0].mean, 0.0
        else:
            mu = sum(w * g.mean for w, g in zip(weights, gaussians)) / wsum
            var = sum(w * (g.mean - mu) ** 2 for w, g in zip(weights, gaussians)) / wsum
            sigma = math.sqrt(var)
        if sigma == 0.0:
            sigma = sum(w * g.std for w, g in zip(weights, gaussians)) / wsum
        edges[cid] = Gaussian(mu, sigma)
    return LatencyModel(edges=edges, traversal_weight=traversal_weight)


def path_distribution(
    model: LatencyModel,
    edge_ids: list[str],
    weights: list[int] | None = None,
) -> Gaussian:
    """Gaussian of the total time a message exchange spends on `edge_ids`.

    Each edge i is crossed weights[i] times (default: the model's traversal
    weight).  The crossings are independent samples, so the variance scales
    linearly with the weight.
    """
    if weights is None:
        weights = [model.traversal_weight] * len(edge_ids)
    if len(weights) != len(edge_ids):
        raise ValueError("one weight per edge required")
    mean = 0.0
    variance = 0.0
    for cid, t in zip(edge_ids, weights):
        g = model.edge_gaussian(cid)
        mean += t * g.mean
        variance += t * g.variance
    return Gaussian(mean, math.sqrt(variance))
