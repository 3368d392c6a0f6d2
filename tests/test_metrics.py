import unittest

import pytest
from hypothesis import given, settings, strategies as st

from pcnsim.metrics import PaymentTruth, compromised_share, f1, report

NODES = ("a", "b", "c")


def truth_entry(source="s", dest="t", observed=("m",)):
    return PaymentTruth(source=source, dest=dest, observed_by=frozenset(observed),
                        status="fulfilled")


def make_case(correct, wrong, total):
    truth = {f"p{i}": truth_entry() for i in range(total)}
    guesses = {f"p{i}": "s" if i < correct else "x" for i in range(correct + wrong)}
    return guesses, truth


def score(guesses, truth, target="source"):
    return report("timing", target, guesses, truth)


class TestPrecisionRecall:
    def test_three_of_four(self):
        guesses, truth = make_case(correct=3, wrong=1, total=10)
        assert score(guesses, truth).precision == 0.75

    def test_all_correct(self):
        guesses, truth = make_case(correct=4, wrong=0, total=4)
        assert score(guesses, truth).precision == 1.0

    def test_none_classified_flagged_zero(self, caplog):
        _, truth = make_case(0, 0, 5)
        with caplog.at_level("WARNING"):
            assert score({}, truth).precision == 0.0
        assert "zero classified" in caplog.text

    def test_recall_three_of_ten(self):
        guesses, truth = make_case(correct=3, wrong=1, total=10)
        assert score(guesses, truth).recall == 0.3

    def test_recall_unobserved_adversary(self):
        _, truth = make_case(0, 0, 6)
        assert score({}, truth).recall == 0.0

    def test_recall_all_observed_correct(self):
        guesses, truth = make_case(correct=5, wrong=0, total=5)
        assert score(guesses, truth).recall == 1.0

    def test_recall_needs_payments(self):
        with pytest.raises(ValueError):
            score({}, {})

    @given(correct=st.integers(0, 20), wrong=st.integers(0, 20), extra=st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_recall_identity(self, correct, wrong, extra):
        total = correct + wrong + extra
        if total == 0:
            return
        guesses, truth = make_case(correct, wrong, total)
        rep = score(guesses, truth)
        assert rep.recall == pytest.approx(rep.precision * len(guesses) / total, abs=1e-12)


class TestF1:
    def test_worked_example(self):
        assert f1(0.75, 0.3) == pytest.approx(2 * 0.75 * 0.3 / 1.05, rel=1e-12)

    def test_perfect(self):
        assert f1(1.0, 1.0) == 1.0

    def test_zero(self):
        assert f1(0.0, 0.0) == 0.0
        assert f1(0.0, 0.5) == 0.0


class TestCompromisedShare:
    def test_no_malicious(self):
        truth = {f"p{i}": truth_entry(observed=()) for i in range(4)}
        assert compromised_share(truth) == 0.0

    def test_all_cross_hub(self):
        truth = {f"p{i}": truth_entry(observed=("hub",)) for i in range(4)}
        assert compromised_share(truth) == 1.0

    def test_fixture_count(self):
        truth = {
            "p0": truth_entry(observed=("m",)),
            "p1": truth_entry(observed=()),
            "p2": truth_entry(observed=("m", "m2")),
            "p3": truth_entry(observed=()),
        }
        assert compromised_share(truth) == 0.5


class TestFullDeanonymization:
    """Target "both": a guess is the (source, destination) pair, correct
    only if both endpoints match."""

    def truth(self):
        return {f"p{i}": truth_entry() for i in range(5)}

    def test_both_correct_counts(self):
        rep = score({"p0": ("s", "t")}, self.truth(), "both")
        assert rep.classified == 1 and rep.precision == 1.0
        assert rep.recall == 0.2

    def test_one_wrong_is_classified_incorrect(self):
        rep = score({"p0": ("s", "x")}, self.truth(), "both")
        assert rep.classified == 1 and rep.precision == 0.0

    def test_single_leg_not_classified(self):
        # a payment seen on one leg only has no pair to guess
        rep = score({}, self.truth(), "both")
        assert rep.classified == 0 and rep.precision == 0.0

    def test_matches_set_intersection_recount(self):
        truth = {f"p{i}": truth_entry() for i in range(20)}
        src = {f"p{i}": "s" if i % 2 == 0 else "x" for i in range(12)}
        dst = {f"p{i}": "t" if i % 3 == 0 else "y" for i in range(4, 16)}
        both = {pid: (src[pid], dst[pid]) for pid in src.keys() & dst.keys()}
        rep = score(both, truth, "both")
        # independent recount over the intersection
        pids = src.keys() & dst.keys()
        correct = sum(1 for p in pids
                      if int(p[1:]) % 2 == 0 and int(p[1:]) % 3 == 0)
        assert rep.classified == len(pids)
        assert rep.precision == correct / len(pids)
        assert rep.recall == correct / 20

    def test_precision_bounded_by_single_legs(self):
        truth = self.truth()
        src = {f"p{i}": "s" if i < 2 else "x" for i in range(4)}
        dst = {f"p{i}": "t" if i % 2 else "y" for i in range(4)}
        rep = score({pid: (src[pid], dst[pid]) for pid in src}, truth, "both")
        src_p = score(src, truth, "source").precision
        dst_p = score(dst, truth, "destination").precision
        assert rep.precision <= min(src_p, dst_p) + 1e-12


@st.composite
def scoring_cases(draw):
    """(target, truth, guesses) over a few payments between three nodes."""
    target = draw(st.sampled_from(["source", "destination", "both"]))
    truth = {}
    for i in range(draw(st.integers(1, 12))):
        s, t = draw(st.lists(st.sampled_from(NODES), min_size=2, max_size=2, unique=True))
        truth[f"p{i}"] = truth_entry(source=s, dest=t)
    node = st.sampled_from(NODES)
    guess = st.tuples(node, node) if target == "both" else node
    guessed = draw(st.lists(st.sampled_from(sorted(truth)), unique=True))
    return target, truth, {pid: draw(guess) for pid in guessed}


class TestReport:
    def test_reorder_invariant(self):
        guesses, truth = make_case(correct=3, wrong=2, total=8)
        fwd = score(guesses, truth)
        rev = score(dict(reversed(guesses.items())), truth)
        assert fwd == rev

    def test_unknown_payment_rejected(self):
        with pytest.raises(KeyError):
            score({"ghost": "s"}, {})

    @given(case=scoring_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_recount(self, case):
        target, truth, guesses = case
        true = {
            pid: {"source": t.source, "destination": t.dest, "both": (t.source, t.dest)}[target]
            for pid, t in truth.items()
        }
        correct = len(set(guesses.items()) & set(true.items()))
        logs = unittest.TestCase()
        with logs.assertNoLogs("pcnsim.metrics") if guesses else logs.assertLogs(
            "pcnsim.metrics", "WARNING"
        ):
            rep = report("timing", target, guesses, truth)
        precision = correct / len(guesses) if guesses else 0.0
        recall = correct / len(truth)
        assert (rep.estimator, rep.target) == ("timing", target)
        assert (rep.precision, rep.recall) == (precision, recall)
        assert rep.classified == len(guesses)
        assert rep.f1 == pytest.approx(
            2 * precision * recall / (precision + recall) if correct else 0.0, rel=1e-12
        )
        with pytest.raises(KeyError):
            report("timing", target, {**guesses, "ghost": true["p0"]}, truth)
