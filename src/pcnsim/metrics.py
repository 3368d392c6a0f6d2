"""Attack-success metrics: one scorer for every estimator and target.

`report` scores an estimator's top guesses for the source, the destination
or both endpoints of each payment by precision (share of guessed payments
guessed right), recall (share of all routed payments guessed right) and
F1.  `compromised_share` counts the payments an adversary could observe.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .graph import NodeId

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PaymentTruth:
    payment_id: str
    source: NodeId
    dest: NodeId
    path_nodes: tuple[NodeId, ...]
    observed_by: frozenset[NodeId]  # malicious intermediaries on the path
    status: str


GroundTruth = dict[str, PaymentTruth]
# a guessed endpoint, or for target "both" the guessed (source, destination)
Guess = NodeId | tuple[NodeId, NodeId]


@dataclass(frozen=True)
class MetricsReport:
    estimator: str
    target: str  # "source" | "destination" | "both"
    precision: float
    recall: float
    f1: float
    classified: int
    total: int


def _true_endpoint(truth: PaymentTruth, target: str) -> Guess:
    if target == "source":
        return truth.source
    if target == "destination":
        return truth.dest
    if target == "both":
        return (truth.source, truth.dest)
    raise ValueError(f"unknown target {target!r}")


def f1(precision_value: float, recall_value: float) -> float:
    """Harmonic mean, 0 when both inputs are 0."""
    if precision_value + recall_value == 0:
        return 0.0
    return 2.0 * precision_value * recall_value / (precision_value + recall_value)


def report(
    estimator: str, target: str, guesses: dict[str, Guess], truth: GroundTruth
) -> MetricsReport:
    """Score `guesses`, payment id -> guessed endpoint (for target "both",
    the guessed (source, destination) pair), against `truth`.

    A payment is classified if it has a guess and correct if the guess is
    its true endpoint, or both true endpoints.  Precision over zero
    classified payments is reported as 0 and logged.  A guess about a
    payment not in `truth` raises KeyError, and an empty `truth`
    ValueError.
    """
    correct = 0
    for pid, guess in guesses.items():
        if pid not in truth:
            raise KeyError(f"guess for unknown payment {pid}")
        if guess == _true_endpoint(truth[pid], target):
            correct += 1
    if not truth:
        raise ValueError("metrics undefined without any payments")
    if guesses:
        d = correct / len(guesses)
    else:
        log.warning("%s/%s precision over zero classified payments, reporting 0",
                    estimator, target)
        d = 0.0
    r = correct / len(truth)
    return MetricsReport(
        estimator=estimator,
        target=target,
        precision=d,
        recall=r,
        f1=f1(d, r),
        classified=len(guesses),
        total=len(truth),
    )


def compromised_share(truth: GroundTruth) -> float:
    """Fraction of routed payments with a malicious intermediary on the path."""
    if not truth:
        return 0.0
    hit = sum(1 for t in truth.values() if t.observed_by)
    return hit / len(truth)
