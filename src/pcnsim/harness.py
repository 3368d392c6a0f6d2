"""Experiment orchestration.

A scenario places the adversary (top-betweenness nodes, a random sample, or
an explicit list), generates a payment workload, runs a probing campaign to
build the adversary's latency model, executes the workload on the event
engine while the malicious nodes observe, and scores both estimator
families against the ground truth; `emit_results` writes every file an
experiment produces.  Every run is a pure function of
(graph, config, seed).  The graph holds only public data and no run
changes it: each run builds its own balance and latency maps and passes
the one graph, unchanged, to every layer.
"""

from __future__ import annotations

import csv
import logging
import numbers
import os
import random
from dataclasses import dataclass, field, replace
from operator import itemgetter

import numpy as np

from .adversary import (
    AdversaryConfig,
    AdversaryObserver,
    Observation,
    estimate_endpoint,
    first_spy_estimate,
)
from .graph import (
    Balances,
    Channel,
    ChannelGraph,
    DirectedPolicy,
    Latencies,
    Node,
    NodeId,
    RegionLatencyTable,
    DEFAULT_REGION_RTT,
    MSAT_PER_SAT,
    assign_latencies,
    betweenness_ranking,
    check_conservation,
    init_balances,
)
from .latency import (
    Gaussian,
    InsufficientSamples,
    LatencyModel,
    aggregate_models,
    estimate_next_hop,
)
from .metrics import (
    GroundTruth,
    MetricsReport,
    PaymentTruth,
    compromised_share,
    report,
)
from .routing import Payment, PaymentPath, find_route, path_from_channels
from .sim import TRAVERSALS_PER_EDGE, PaymentEngine, probe_batch

log = logging.getLogger(__name__)

DEFAULT_AMOUNTS_SAT = (1, 10, 100, 1_000, 10_000, 100_000)
PROBE_AMOUNT_MSAT = 1_000
# Probe paths kept per graph, about 420 bytes each (2.4 MiB): at depth 3
# the plans of the ten top-betweenness vantages of criterion 5's 200-node
# graph take 3,223, those of the top three of the 1000-node large-graph
# snapshot 4,322.  A random scenario's vantages rarely repeat, so a larger
# store would mostly hold paths no later run reads.
_PROBE_PATHS_KEPT = 6_000
# Every synthetic channel's capacity and, in both directions, its policy.
SYNTHETIC_CAPACITY_SAT = 1_000_000
SYNTHETIC_POLICY = dict(base_fee_msat=1_000, fee_rate_ppm=10, timelock_delta=40)
# The most message traversals per hop a config may weigh: the engine's
# choreography has six, the paper's alternative four.  Far larger weights
# overflow the latency model's float arithmetic.
MAX_TRAVERSAL_WEIGHT = 1_000


class ConfigError(ValueError):
    """Scenario configuration does not fit the graph."""


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "central"  # "central" | "random" | "list"
    m: int = 1
    node_list: tuple[NodeId, ...] = ()
    amounts_sat: tuple[int, ...] = DEFAULT_AMOUNTS_SAT
    payments_per_run: int = 1000
    repetitions: int = 30
    base_seed: int = 0
    retry_attack: bool = True
    timelock_reduction: bool = True
    traversal_weight: int = TRAVERSALS_PER_EDGE  # 4 replays the alternative per-hop weighting
    probes_per_path: int = 100
    probe_max_depth: int = 3
    max_estimates_per_channel: int = 3
    report_ablation: bool = False
    export_timeline: bool = False

    def __post_init__(self):
        for name in (
            "m", "base_seed", "payments_per_run", "repetitions", "traversal_weight",
            "probes_per_path", "probe_max_depth", "max_estimates_per_channel",
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("retry_attack", "timelock_reduction", "report_ablation", "export_timeline"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if self.scenario not in ("central", "random", "list"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.scenario != "list" and self.m < 1:
            raise ConfigError("m must be >= 1")
        if not isinstance(self.node_list, (tuple, list)) or not all(
            isinstance(n, str) for n in self.node_list
        ):
            raise ConfigError(f"node_list must be a list of node ids, got {self.node_list!r}")
        if self.scenario == "list" and not self.node_list:
            raise ConfigError("explicit scenario needs a node list")
        if (
            not isinstance(self.amounts_sat, (tuple, list))
            or not self.amounts_sat
            or not all(
                isinstance(a, int) and not isinstance(a, bool) and a >= 1
                for a in self.amounts_sat
            )
        ):
            raise ConfigError(
                f"amounts_sat must be a non-empty list of positive integers, "
                f"got {self.amounts_sat!r}"
            )
        for name, low in (
            ("base_seed", 0),
            ("payments_per_run", 1),
            ("repetitions", 1),
            ("traversal_weight", 1),
            ("probes_per_path", 0),
            ("probe_max_depth", 0),
            ("max_estimates_per_channel", 0),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.traversal_weight > MAX_TRAVERSAL_WEIGHT:
            raise ConfigError(f"traversal_weight must be <= {MAX_TRAVERSAL_WEIGHT}, "
                              f"got {self.traversal_weight!r}")
        if self.probes_per_path == 1:
            raise ConfigError(
                "probes_per_path must be 0 (no probing) or >= 2, since an edge "
                "estimate needs two probes; got 1"
            )


@dataclass
class RunRecord:
    scenario: str
    m: int
    amount_sat: int
    seed: int
    truth: GroundTruth
    observations: list[Observation]
    reports: list[MetricsReport]
    compromised: float
    unrouted: int
    ablation_delta: tuple[float, float] | None = None  # (d_precision, d_recall)
    outcomes: list = field(default_factory=list)  # kept only when exporting timelines


@dataclass
class ExperimentResult:
    """An experiment's runs, each scored once: `metrics` holds their rows
    of `METRICS_CSV_FIELDS` in record order, `aggregate` the rows of
    `AGGREGATE_CSV_FIELDS` that `_aggregate` makes of them."""

    records: list[RunRecord]
    failures: list[str] = field(default_factory=list)
    metrics: list[list] = field(init=False)
    aggregate: list[list] = field(init=False)

    def __post_init__(self):
        self.metrics = [
            [rec.scenario, rep.estimator, rep.target, rec.m, rec.amount_sat, rec.seed,
             rep.precision, rep.recall, rep.f1, rec.compromised]
            for rec in self.records for rep in rec.reports
        ]
        self.aggregate = _aggregate(self.metrics)


# ---------------------------------------------------------------------------
# scenario pieces


def check_scenario(g: ChannelGraph, cfg: ScenarioConfig) -> None:
    """Raise ConfigError if `g` has too few nodes for a workload, an amount
    above the largest capacity of its channels with an enabled direction,
    or `cfg`'s adversary placement does not fit it.  A route's last hop
    carries the amount whole, so no route can carry an amount above every
    such capacity.

    `build_scenario` checks this in every run; `pcnsim run` and `pcnsim
    sweep` check it, for every cell of a sweep, once before any run.
    """
    if len(g.nodes) < 2:
        raise ConfigError("workload needs at least two nodes")
    amount = max(cfg.amounts_sat)
    largest = max((ch.capacity_msat for ch in g.channels.values()
                   if ch.policy_uv.enabled or ch.policy_vu.enabled), default=0)
    if amount * MSAT_PER_SAT > largest:
        raise ConfigError(f"amounts_sat {amount} exceeds the largest channel capacity, "
                          f"{largest // MSAT_PER_SAT} sat")
    if cfg.scenario == "list":
        unknown = [n for n in cfg.node_list if n not in g.nodes]
        if unknown:
            raise ConfigError(f"explicit node list contains unknown nodes: {unknown}")
    elif cfg.m > len(g.nodes):
        raise ConfigError(f"m={cfg.m} exceeds {len(g.nodes)} nodes")


def build_scenario(g: ChannelGraph, cfg: ScenarioConfig, seed: int) -> AdversaryConfig:
    """Pick the malicious node set for one run."""
    check_scenario(g, cfg)
    if cfg.scenario == "central":
        malicious = frozenset(betweenness_ranking(g)[: cfg.m])
    elif cfg.scenario == "random":
        ids = sorted(g.nodes)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(ids), size=cfg.m, replace=False)
        malicious = frozenset(ids[i] for i in picks)
    else:
        malicious = frozenset(cfg.node_list)
    return AdversaryConfig(
        malicious_nodes=malicious,
        source_attack_enabled=cfg.retry_attack,
        timelock_reduction_enabled=cfg.timelock_reduction,
    )


def generate_workload(
    g: ChannelGraph, cfg: ScenarioConfig, rng, amount_sat: int
) -> list[tuple[NodeId, NodeId, int]]:
    """(source, dest, amount_msat) triples between uniformly random nodes."""
    ids = sorted(g.nodes)
    if len(ids) < 2:
        raise ConfigError("workload needs at least two nodes")
    out = []
    for _ in range(cfg.payments_per_run):
        while True:
            s, t = (ids[int(k)] for k in rng.integers(len(ids), size=2))
            if s != t:
                break
        out.append((s, t, amount_sat * MSAT_PER_SAT))
    return out


def generate_synthetic_graph(kind: str, n: int, seed: int = 0) -> ChannelGraph:
    """Deterministic test topology: every channel holds `SYNTHETIC_CAPACITY_SAT`
    and both directions charge `SYNTHETIC_POLICY`."""
    if n < 2:
        raise ConfigError("synthetic graph needs n >= 2")
    names = [f"n{i:03d}" for i in range(n)]
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "scale-free":
        edges = sorted(_preferential_attachment(n, min(2, n - 1), seed))
    else:
        raise ConfigError(f"unknown synthetic kind {kind!r}")
    g = ChannelGraph()
    for name in names:
        g.add_node(Node(id=name))
    policy = DirectedPolicy(**SYNTHETIC_POLICY)
    for idx, (a, b) in enumerate(edges):
        u, v = sorted((names[a], names[b]))
        g.add_channel(
            Channel(
                id=f"c{idx:04d}",
                u=u,
                v=v,
                capacity_msat=SYNTHETIC_CAPACITY_SAT * MSAT_PER_SAT,
                policy_uv=policy,
                policy_vu=policy,
            )
        )
    return g


def _preferential_attachment(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Barabasi-Albert edges (a, b) with a < b: a star on m + 1 nodes, then
    each new node links to m distinct nodes drawn in proportion to degree.

    Draw for draw the algorithm of `networkx.barabasi_albert_graph`, so a
    seed gives the same graph as there.
    """
    rng = random.Random(seed)
    edges = [(0, leaf) for leaf in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))  # each node once per edge end
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        edges += [(t, source) for t in targets]
        repeated.extend(targets)
        repeated.extend([source] * m)
    return edges


# ---------------------------------------------------------------------------
# probing campaign


def probe_plan(
    g: ChannelGraph, vantage: NodeId, max_depth: int
) -> list[tuple[str, list[str]]]:
    """(channel to estimate, probing path channels) per reachable channel.

    Breadth-first tree from the vantage; each channel is probed over the
    tree path to its closer endpoint plus the channel itself, so prefix
    edges are always estimated before they are needed as priors.
    """
    dist: dict[NodeId, int] = {vantage: 0}
    tree: dict[NodeId, list[str]] = {vantage: []}
    frontier = [vantage]
    depth = 0
    groups = g.neighbour_groups()
    while frontier and depth < max_depth:
        nxt = []
        for node in frontier:
            # channel ids are unique, so the sort never compares further
            steps = sorted((ch.id, nb, policy_out)
                           for nb, sides in groups[node] for ch, policy_out, _ in sides)
            for cid, other, policy_out in steps:
                if not policy_out.enabled or other in dist:
                    continue
                dist[other] = depth + 1
                tree[other] = tree[node] + [cid]
                nxt.append(other)
        frontier = nxt
        depth += 1
    plan: list[tuple[int, str, list[str]]] = []
    for cid in sorted(g.channels):
        ch = g.channels[cid]
        options = []
        for end in (ch.u, ch.v):
            if end in dist and dist[end] < max_depth and ch.policy_from(end).enabled:
                options.append((dist[end], end))
        if not options:
            continue
        d, end = min(options)
        plan.append((d + 1, cid, tree[end] + [cid]))
    plan.sort()
    return [(cid, path) for _, cid, path in plan]


def probe_paths(
    g: ChannelGraph, vantage: NodeId, max_depth: int
) -> tuple[tuple[str, PaymentPath], ...]:
    """`probe_plan` with each probing path built by `path_from_channels`:
    (channel to estimate, probe payment path), whose last hop crosses that
    channel.

    Built once per graph, vantage and depth and kept on the graph, the
    oldest vantages' paths dropped first past `_PROBE_PATHS_KEPT`; the
    paths just built are kept even when they alone exceed it.
    """
    kept = g.derived("probe paths", dict)
    key = (vantage, max_depth)
    paths = kept.get(key)
    if paths is None:
        paths = kept[key] = tuple(
            (cid, path_from_channels(g, vantage, channels, PROBE_AMOUNT_MSAT))
            for cid, channels in probe_plan(g, vantage, max_depth)
        )
        while len(kept) > 1 and sum(map(len, kept.values())) > _PROBE_PATHS_KEPT:
            del kept[next(iter(kept))]
    return paths


def build_latency_model(
    graph: ChannelGraph,
    balances: Balances,
    latencies: Latencies,
    malicious: frozenset[NodeId],
    cfg: ScenarioConfig,
    rng_seed_seq,
) -> tuple[LatencyModel, dict[str, list[tuple[int, str, Gaussian]]]]:
    """Run the probing campaign from every malicious vantage and aggregate.

    Probes run against the run's true balances and latencies but only ever
    fail at their crafted hop, so balances are untouched; each probed
    path's probes are evaluated at once by `probe_batch`.  Returns the
    model and every estimate the campaign made, as the (hop distance,
    vantage, Gaussian) triples of each channel; `aggregate_models` keeps
    the nearest `cfg.max_estimates_per_channel` of them.
    """
    estimates: dict[str, list[tuple[int, str, Gaussian]]] = {}
    children = rng_seed_seq.spawn(len(malicious))
    for vantage, child in zip(sorted(malicious), children):
        rng = np.random.default_rng(child)
        per_edge: dict[str, Gaussian] = {}
        for cid, path in probe_paths(graph, vantage, cfg.probe_max_depth):
            prefix = path.hops[:-1]
            if any(hop.channel not in per_edge for hop in prefix):
                continue  # a prior estimate failed; cannot isolate this edge
            batch = probe_batch(graph, balances, latencies, vantage, path,
                                cfg.probes_per_path, rng)
            samples = batch.samples_ms
            if batch.discarded:
                log.warning("%d probes to %s failed early", batch.discarded, cid)
            priors = [per_edge[hop.channel] for hop in prefix]
            try:
                est = estimate_next_hop(samples, priors, cfg.traversal_weight)
            except InsufficientSamples:
                continue
            per_edge[cid] = est
            estimates.setdefault(cid, []).append((len(path.hops), vantage, est))
    model = aggregate_models(estimates, cfg.max_estimates_per_channel, cfg.traversal_weight)
    return model, estimates


# ---------------------------------------------------------------------------
# single run


def run_single(
    base_graph: ChannelGraph,
    cfg: ScenarioConfig,
    amount_sat: int,
    seed: int,
    latency_table: RegionLatencyTable = DEFAULT_REGION_RTT,
) -> RunRecord:
    """One seeded repetition at one amount.

    `base_graph` is read, never changed: the run's balances and latencies
    are maps of its own.
    """
    root = np.random.SeedSequence(entropy=(seed, amount_sat))
    ss_latency, ss_scenario, ss_probe, ss_engine, ss_workload = root.spawn(5)
    g = base_graph
    balances = init_balances(g)
    latencies = assign_latencies(g, latency_table, int(ss_latency.generate_state(1)[0]))
    adv_cfg = build_scenario(g, cfg, int(ss_scenario.generate_state(1)[0]))
    model, _ = build_latency_model(g, balances, latencies, adv_cfg.malicious_nodes, cfg, ss_probe)

    observer = AdversaryObserver(adv_cfg)
    engine = PaymentEngine(g, balances, latencies, np.random.default_rng(ss_engine), observer)
    workload = generate_workload(g, cfg, np.random.default_rng(ss_workload), amount_sat)

    truth: GroundTruth = {}
    unrouted = 0
    outcomes = []
    paths = [find_route(g, Payment(s, t, amount)) for s, t, amount in workload]
    for i, ((s, t, amount), path) in enumerate(zip(workload, paths)):
        pid = f"p{amount_sat}s{seed}n{i:05d}"
        if path is None:
            unrouted += 1
            continue
        outcome = engine.execute_payment(path, pid)
        if cfg.export_timeline:
            outcomes.append(outcome)
        if observer.adversarially_failed(pid):
            # the sender retries over the same path right after the fail
            outcome = engine.execute_payment(path, pid)
            if cfg.export_timeline:
                outcomes.append(outcome)
        truth[pid] = PaymentTruth(
            source=s,
            dest=t,
            observed_by=frozenset(adv_cfg.malicious_nodes & set(path.intermediaries())),
            status=outcome.status,
        )
    check_conservation(g, balances)

    inputs = observer.estimation_inputs()
    guesses: dict[tuple[str, str], dict[str, NodeId]] = {
        (estimator, target): {}
        for estimator in ("timing", "first_spy")
        for target in ("source", "destination")
    }
    ablated_dst: dict[str, NodeId] = {}
    ablated_cfg = replace(adv_cfg, timelock_reduction_enabled=False)
    for pid in sorted(inputs):
        for target in sorted(inputs[pid]):
            obs = inputs[pid][target]
            guesses["timing", target][pid] = estimate_endpoint(obs, g, model, adv_cfg).top
            guesses["first_spy", target][pid] = first_spy_estimate(obs, g)
            if cfg.report_ablation and target == "destination":
                ablated_dst[pid] = estimate_endpoint(obs, g, model, ablated_cfg).top

    reports: dict[tuple[str, str], MetricsReport] = {}
    for estimator in ("timing", "first_spy"):
        src, dst = guesses[estimator, "source"], guesses[estimator, "destination"]
        both = {pid: (guess, dst[pid]) for pid, guess in src.items() if pid in dst}
        for target, leg in (("source", src), ("destination", dst), ("both", both)):
            reports[estimator, target] = report(estimator, target, leg, truth)
    ablation_delta = None
    if cfg.report_ablation:
        base = reports["timing", "destination"]
        off = report("timing_ablated", "destination", ablated_dst, truth)
        ablation_delta = (base.precision - off.precision, base.recall - off.recall)
    return RunRecord(
        scenario=cfg.scenario,
        m=len(adv_cfg.malicious_nodes),
        amount_sat=amount_sat,
        seed=seed,
        truth=truth,
        observations=list(observer.observations),
        reports=list(reports.values()),
        compromised=compromised_share(truth),
        unrouted=unrouted,
        ablation_delta=ablation_delta,
        outcomes=outcomes,
    )


# ---------------------------------------------------------------------------
# experiment


def run_experiment(
    base_graph: ChannelGraph,
    cfg: ScenarioConfig,
    latency_table: RegionLatencyTable = DEFAULT_REGION_RTT,
) -> ExperimentResult:
    """All (amount, repetition) runs plus cross-run mean aggregates.

    A failing repetition is reported and skipped; the others proceed.
    """
    records: list[RunRecord] = []
    failures: list[str] = []
    for amount_sat in cfg.amounts_sat:
        for rep in range(cfg.repetitions):
            seed = cfg.base_seed + rep
            try:
                records.append(run_single(base_graph, cfg, amount_sat, seed, latency_table))
            except Exception as exc:  # noqa: BLE001 - repetition isolation
                msg = f"run amount={amount_sat} seed={seed} aborted: {exc!r}"
                log.error(msg)
                failures.append(msg)
    return ExperimentResult(records=records, failures=failures)


# Every file a run writes, declared once each: its columns here, its rows
# and their order in `emit_results`.
METRICS_CSV_FIELDS = [
    "scenario", "estimator", "target", "m", "amount_sat", "seed",
    "precision", "recall", "f1", "compromised_share",
]
AGGREGATE_CSV_FIELDS = [
    "scenario", "m", "amount_sat", "estimator", "target", "runs",
    "precision_mean", "recall_mean", "f1_mean", "compromised_mean",
]
OBSERVATION_CSV_FIELDS = [
    "payment_id", "observer", "channel_id", "direction",
    "t0_ns", "t1_ns", "amount_msat", "timelock_blocks",
]
TIMELINE_CSV_FIELDS = ["time_ns", "payment_id", "from_node", "to_node", "channel_id", "kind"]


def write_table(path, fields: list[str], rows) -> None:
    """One CSV file: the header `fields`, then `rows` in the order given.

    `csv` writes a Python float with `repr`, so equal rows give equal bytes;
    a numpy float would print differently, so every value must be a plain
    Python one.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        w.writerows(rows)


def _aggregate(metrics: list[list]) -> list[list]:
    """Rows of `AGGREGATE_CSV_FIELDS` from rows of `METRICS_CSV_FIELDS`:
    per (scenario, m, amount_sat, estimator, target) group, in key order,
    its row count and the mean of each score column, summed in row order."""
    groups: dict[tuple, list[list]] = {}
    for scenario, estimator, target, m, amount_sat, _, *scores in metrics:
        groups.setdefault((scenario, m, amount_sat, estimator, target), []).append(scores)
    return [[*key, len(scores), *(sum(column) / len(scores) for column in zip(*scores))]
            for key, scores in sorted(groups.items())]


def emit_results(result: ExperimentResult, out_dir) -> list[str]:
    """Write every output file of an experiment; return the paths.

    One table per file, each fully ordered: the per-run metrics, their
    aggregate, the observations and, when any run kept its payment
    outcomes, the message timeline.  Two runs of the same experiment
    produce byte-identical files.
    """
    records = result.records
    observations = [
        [o.payment_id, o.observer, o.edge_observed, o.direction,
         o.t0_ns, o.t1_ns, o.amount_msat, o.timelock_blocks]
        for rec in records for o in rec.observations
    ]
    tables = [
        ("metrics.csv", METRICS_CSV_FIELDS,
         sorted(result.metrics, key=itemgetter(0, 3, 4, 5, 1, 2))),
        ("metrics_aggregate.csv", AGGREGATE_CSV_FIELDS, result.aggregate),
        ("observations.csv", OBSERVATION_CSV_FIELDS,
         sorted(observations, key=itemgetter(4, 0, 1, 3))),
    ]
    if any(rec.outcomes for rec in records):
        # one row per delivered message, ordered by delivery time
        timeline = [
            [m.delivered_at, m.payment_id, m.frm, m.to, m.channel, m.kind]
            for rec in records for outcome in rec.outcomes for m in outcome.messages
        ]
        tables.append(("timeline.csv", TIMELINE_CSV_FIELDS,
                       sorted(timeline, key=itemgetter(0, 1, 4, 5))))

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, fields, rows in tables:
        path = os.path.join(out_dir, name)
        write_table(path, fields, rows)
        written.append(path)
    return written


def ablation_summary(result: ExperimentResult) -> tuple[float, float] | None:
    """Mean (precision, recall) change from disabling the time-lock
    reduction for the destination estimator; None when it was not recorded
    or no run estimated a destination, which leaves nothing to compare."""
    deltas = [r.ablation_delta for r in result.records if r.ablation_delta is not None]
    estimated = any(rep.classified for r in result.records for rep in r.reports
                    if rep.target == "destination")
    if not deltas or not estimated:
        return None
    n = len(deltas)
    return (sum(d[0] for d in deltas) / n, sum(d[1] for d in deltas) / n)
