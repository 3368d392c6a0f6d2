"""Payment channel network simulator and timing-privacy toolkit."""

from .adversary import (
    AdversaryConfig,
    AdversaryObserver,
    EstimationResult,
    Observation,
    estimate_endpoint,
    first_spy_estimate,
    reduce_anonymity_set,
)
from .graph import (
    Channel,
    ChannelGraph,
    DirectedPolicy,
    Node,
    RegionLatencyTable,
    assign_latencies,
    betweenness_ranking,
    check_conservation,
    convert_describegraph,
    init_balances,
    load_snapshot,
)
from .harness import (
    ScenarioConfig,
    build_scenario,
    emit_results,
    generate_synthetic_graph,
    generate_workload,
    run_experiment,
    run_single,
)
from .latency import (
    Gaussian,
    LatencyModel,
    aggregate_models,
    estimate_next_hop,
    path_distribution,
)
from .metrics import (
    MetricsReport,
    PaymentTruth,
    compromised_share,
    f1,
)
from .routing import (
    Payment,
    PaymentPath,
    RoutingParams,
    edge_weight,
    find_route,
)
from .sim import EventQueue, PaymentEngine, PaymentOutcome, probe_batch

__version__ = "0.1.0"
