"""Spans and counters recorded from outside the program.

`pcnsim.harness` binds its collaborators with `from .module import name`,
so a function is wrapped where harness looks it up (`pcnsim.harness.find_route`),
which catches every call a run makes; wrapping `pcnsim.routing.find_route`
would catch none.  `PaymentEngine.execute_payment` is wrapped on the class.

A span is `[name, start_ns, end_ns, parent_index, run_id, note]`, where
`run_id` is the `(amount_sat, seed)` of the enclosing `run_single`.  Spans
stay in memory until `write_spans` at the end of the invocation.
"""

from __future__ import annotations

import csv
import functools
import logging
import statistics
import time

# (name bound in pcnsim.harness, span name).  The prefix is the layer.
HARNESS_CALLS = (
    ("copy_graph", "graph.copy"),
    ("init_balances", "graph.init_balances"),
    ("assign_latencies", "graph.assign_latencies"),
    ("betweenness_ranking", "graph.betweenness"),
    ("public_view", "graph.public_view"),
    ("build_latency_model", "latency.campaign"),
    ("probe_path", "latency.probe"),
    ("estimate_first_hop", "latency.estimate_hop"),
    ("estimate_next_hop", "latency.estimate_hop"),
    ("aggregate_models", "latency.aggregate"),
    ("path_from_channels", "routing.path_from_channels"),
    ("find_route", "routing.find_route"),
    ("estimate_endpoint", "adversary.estimate"),
    ("first_spy_estimate", "adversary.first_spy"),
    ("report", "metrics.report"),
    ("full_deanonymization", "metrics.full_deanonymization"),
    ("compromised_share", "metrics.compromised_share"),
    ("precision", "metrics.precision"),
    ("recall", "metrics.recall"),
)


def _note_campaign(args, kwargs, result):
    return len(result[0].edges)


def _note_route(args, kwargs, result):
    return result is None


def _note_estimate(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return len(result.candidates), not cfg.timelock_reduction_enabled


def _note_payment(args, kwargs, result):
    fail_at = kwargs["fail_at"] if "fail_at" in kwargs else (args[3] if len(args) > 3 else None)
    return fail_at is not None, len(result.messages), result.payment_id


NOTES = {
    "latency.campaign": _note_campaign,
    "routing.find_route": _note_route,
    "adversary.estimate": _note_estimate,
}


class Tracer:
    """Wraps the harness's calls into each layer, and counts the program's
    log records, while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = None
        self.log_counter = LogCounter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from pcnsim import harness
        from pcnsim.sim import PaymentEngine

        logging.getLogger("pcnsim").addHandler(self.log_counter)
        for attr, name in HARNESS_CALLS:
            if not hasattr(harness, attr):
                self.missing.append(f"pcnsim.harness.{attr}")
                continue
            self._patch(harness, attr, self.span(name, getattr(harness, attr), NOTES.get(name)))

        run_single = self.span("harness.run_single", harness.run_single)

        def enter_run(base_graph, cfg, amount_sat, seed, *args, **kwargs):
            self.run_id = (amount_sat, seed)
            try:
                return run_single(base_graph, cfg, amount_sat, seed, *args, **kwargs)
            finally:
                self.run_id = None

        self._patch(harness, "run_single", enter_run)
        self._patch(
            PaymentEngine, "execute_payment",
            self.span("sim.execute_payment", PaymentEngine.execute_payment, _note_payment),
        )

    def uninstall(self) -> None:
        logging.getLogger("pcnsim").removeHandler(self.log_counter)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_ns", "end_ns", "parent", "run_id", "note"])
            for i, (name, start, end, parent, run_id, note) in enumerate(self.spans):
                w.writerow([i, name, start, end, parent, run_id, note])


class LogCounter(logging.Handler):
    """Counts the program's warning records that mark discarded or patched work."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = {"probes_discarded": 0, "mean_clamps": 0, "zero_classified": 0}

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        if "failed early" in msg:
            self.counts["probes_discarded"] += int(record.args[0])
        elif "below floor" in msg:
            self.counts["mean_clamps"] += 1
        elif "zero classified" in msg:
            self.counts["zero_classified"] += 1


def layer_metrics(spans: list[list], counts: dict, observations: int,
                  tail_pct: float) -> dict[str, tuple]:
    """Per-layer figures, normalised per `run_single` so that runs of any
    length compare.  `estimate_tail_ms` is the `tail_pct` percentile of the
    estimate durations.  Returns {name: (value, unit)}."""
    runs = 0
    child_s = [0.0] * len(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    run_s: list[float] = []
    estimate_ms: list[float] = []
    candidates = 0
    ablation = 0
    unrouted = 0
    edges = 0
    sim = {True: [0, 0, 0.0], False: [0, 0, 0.0]}  # probe?: [calls, events, s]
    retries = 0
    seen_payments: set = set()
    for name, start, end, parent, run_id, note in spans:
        dur = (end - start) / 1e9
        if parent >= 0:
            child_s[parent] += dur
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        if name == "harness.run_single":
            runs += 1
            run_s.append(dur)
        elif name == "adversary.estimate" and note is not None:
            estimate_ms.append(dur * 1e3)
            candidates += note[0]
            ablation += note[1]
        elif name == "routing.find_route":
            unrouted += bool(note)
        elif name == "latency.campaign" and note is not None:
            edges += note
        elif name == "sim.execute_payment" and note is not None:
            probe, events, payment_id = note
            bucket = sim[probe]
            bucket[0] += 1
            bucket[1] += events
            bucket[2] += dur
            if not probe:
                key = (run_id, payment_id)
                retries += key in seen_payments
                seen_payments.add(key)
    self_s = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) / 1e9 - child_s[i]
    per_run = max(runs, 1)

    def t(name):
        return total.get(name, 0.0) / per_run

    def c(name):
        return calls.get(name, 0) / per_run

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    probes = calls.get("latency.probe", 0)
    routes = calls.get("routing.find_route", 0)
    estimates = len(estimate_ms)
    if len(estimate_ms) > 1 and tail_pct < 100:
        tail_ms = statistics.quantiles(estimate_ms, n=1000, method="inclusive")[
            round(tail_pct * 10) - 1]
    else:
        tail_ms = max(estimate_ms, default=0.0)
    metrics_s = sum(v for k, v in total.items() if k.startswith("metrics."))
    return {
        "graph.betweenness_s": (t("graph.betweenness"), "s/run"),
        "graph.betweenness_calls": (c("graph.betweenness"), "1/run"),
        "graph.copy_s": (t("graph.copy"), "s/run"),
        "graph.public_view_s": (t("graph.public_view"), "s/run"),
        "latency.campaign_s": (t("latency.campaign"), "s/run"),
        "latency.campaign_self_s": (self_s.get("latency.campaign", 0.0) / per_run, "s/run"),
        "latency.probes": (probes / per_run, "1/run"),
        "latency.probes_discarded": (counts["probes_discarded"] / per_run, "1/run"),
        "latency.us_per_probe": (ratio(total.get("latency.probe", 0.0), probes, 1e6), "us"),
        "latency.edges_modelled": (edges / per_run, "1/run"),
        "latency.mean_clamps": (counts["mean_clamps"] / per_run, "1/run"),
        "sim.probe_events": (sim[True][1] / per_run, "1/run"),
        "sim.probe_s": (sim[True][2] / per_run, "s/run"),
        "sim.workload_attempts": (sim[False][0] / per_run, "1/run"),
        "sim.retries": (retries / per_run, "1/run"),
        "sim.workload_events": (sim[False][1] / per_run, "1/run"),
        "sim.workload_s": (sim[False][2] / per_run, "s/run"),
        "sim.ns_per_workload_event": (ratio(sim[False][2], sim[False][1], 1e9), "ns"),
        "routing.find_route_calls": (routes / per_run, "1/run"),
        "routing.unrouted": (unrouted / per_run, "1/run"),
        "routing.find_route_s": (t("routing.find_route"), "s/run"),
        "routing.us_per_route": (ratio(total.get("routing.find_route", 0.0), routes, 1e6), "us"),
        "routing.path_from_channels_s": (t("routing.path_from_channels"), "s/run"),
        "adversary.estimates": ((estimates - ablation) / per_run, "1/run"),
        "adversary.ablation_estimates": (ablation / per_run, "1/run"),
        "adversary.estimate_s": (t("adversary.estimate"), "s/run"),
        "adversary.us_per_estimate": (ratio(sum(estimate_ms), estimates, 1e3), "us"),
        "adversary.estimate_tail_ms": (tail_ms, "ms"),
        "adversary.estimate_samples": (float(estimates), "count"),
        "adversary.estimate_max_ms": (max(estimate_ms, default=0.0), "ms"),
        "adversary.candidates_mean": (ratio(candidates, estimates, 1), "count"),
        "adversary.observations": (observations / per_run, "1/run"),
        "metrics.s": (metrics_s / per_run, "s/run"),
        "metrics.zero_classified": (counts["zero_classified"] / per_run, "1/run"),
        "harness.run_s_p50": (statistics.median(run_s) if run_s else 0.0, "s"),
        "harness.self_s": (self_s.get("harness.run_single", 0.0) / per_run, "s/run"),
    }


def phase_split(spans: list[list]) -> dict[str, float]:
    """Share of `run_single` time per phase, for the dominant-layer check."""
    phases = {
        "betweenness": ("graph.betweenness",),
        "probing": ("latency.campaign",),
        "routing": ("routing.find_route",),
        "simulation": ("sim.execute_payment",),
        "estimation": ("adversary.estimate", "adversary.first_spy"),
        "metrics": ("metrics.",),
    }
    run_total = 0.0
    shares = dict.fromkeys(phases, 0.0)
    for name, start, end, parent, _run, note in spans:
        dur = (end - start) / 1e9
        if name == "harness.run_single":
            run_total += dur
        elif parent >= 0 and spans[parent][0] == "harness.run_single":
            for phase, prefixes in phases.items():
                if name.startswith(prefixes):
                    shares[phase] += dur
    return {k: v / run_total if run_total else 0.0 for k, v in shares.items()}
