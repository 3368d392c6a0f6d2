"""Adversarial edge-latency models.

Edge latencies are modelled as Gaussians in milliseconds.  An attacker node
measures round trips of payments that are crafted to fail at a chosen hop,
turns the samples into per-edge estimates (iteratively, subtracting the
already-estimated prefix of the probing path), and merges estimates from
several vantage points into one model, weighting by reciprocal hop distance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class EdgeLatencyEstimate:
    """One vantage point's Gaussian estimate for one channel."""

    channel: str
    estimate: Gaussian
    sample_count: int
    source_vantage: str
    hop_distance: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if self.hop_distance < 1:
            raise ValueError("hop_distance must be >= 1")


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
    estimates: list[EdgeLatencyEstimate],
    traversal_weight: int = TRAVERSALS_PER_EDGE,
) -> LatencyModel:
    """Merge per-vantage estimates into one model.

    Per channel the estimates are combined by an arithmetic mean weighted
    with the reciprocal hop distance of the measuring vantage; the merged
    sigma is the weighted spread of the per-vantage means.  That spread is
    zero whenever a channel was probed from a single vantage, which would
    collapse density ranking to nearest-mean; the probes did measure the
    per-traversal spread, so a zero spread is replaced by the same weighted
    mean of the estimates' sigmas.
    """
    by_channel: dict[str, list[EdgeLatencyEstimate]] = {}
    for est in estimates:
        by_channel.setdefault(est.channel, []).append(est)
    edges: dict[str, Gaussian] = {}
    for cid in sorted(by_channel):
        group = by_channel[cid]
        weights = [1.0 / e.hop_distance for e in group]
        wsum = sum(weights)
        if len(group) == 1:
            # weighting by w/w would only round the mean; its spread over
            # one mean is zero
            mu, sigma = group[0].estimate.mean, 0.0
        else:
            mu = sum(w * e.estimate.mean for w, e in zip(weights, group)) / wsum
            var = sum(w * (e.estimate.mean - mu) ** 2 for w, e in zip(weights, group)) / wsum
            sigma = math.sqrt(var)
        if sigma == 0.0:
            sigma = sum(w * e.estimate.std for w, e in zip(weights, group)) / wsum
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
