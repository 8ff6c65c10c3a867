"""The benchmark's answer checker counts every wrong answer as a failure.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

from repro.engine.config import EstimatorConfig
from repro.engine.deltas import SetEdgeProbability
from repro.engine.queries import KTerminalQuery
from repro.graph.uncertain_graph import UncertainGraph

from perfbench.check import Checker, accuracy
from perfbench.loadgen import Outcome

CONFIG = EstimatorConfig(backend="sampling", samples=64, rng=3)
QUERY = KTerminalQuery(terminals=("a", "c"))


def _graph() -> UncertainGraph:
    return UncertainGraph.from_edge_list(
        [("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.7), ("c", "d", 0.6)]
    )


def _read(index, fingerprint, checksum):
    return Outcome(index=index, kind="query", started=0.0, seconds=0.001, query=QUERY,
                   fingerprint=fingerprint, checksum=checksum)


def test_correct_answers_pass():
    checker = Checker(CONFIG, _graph())
    good = _read(0, checker.fingerprint, checker.expected(QUERY))
    assert checker.check([good]) == []


def test_corrupted_checksum_and_unknown_fingerprint_both_fail():
    checker = Checker(CONFIG, _graph())
    good = _read(0, checker.fingerprint, checker.expected(QUERY))
    corrupted = _read(1, checker.fingerprint, "0" * 64)
    unknown = _read(2, "f" * 64, checker.expected(QUERY))
    failures = checker.check([good, corrupted, unknown])
    assert [failure.index for failure in failures] == [1, 2]
    assert "checksum" in failures[0].reason
    assert "unknown graph fingerprint" in failures[1].reason


def test_transport_errors_fail():
    checker = Checker(CONFIG, _graph())
    broken = Outcome(index=0, kind="query", started=0.0, seconds=0.1, query=QUERY,
                     error="ServiceError: service answered 500")
    assert [failure.index for failure in checker.check([broken])] == [0]


def test_reads_are_checked_on_the_version_they_name():
    graph = _graph()
    delta = SetEdgeProbability(edge_id=0, probability=0.25)
    after = _graph()
    after.set_probability(0, 0.25)
    reference = Checker(CONFIG, after)
    checker = Checker(CONFIG, graph)
    before = _read(0, checker.fingerprint, checker.expected(QUERY))
    update = Outcome(index=1, kind="update", started=0.0, seconds=0.001, delta=delta,
                     fingerprint=reference.fingerprint)
    later = _read(2, reference.fingerprint, reference.expected(QUERY))
    stale = _read(3, reference.fingerprint, before.checksum)
    failures = checker.check([before, update, later, stale], applied=[1])
    assert [failure.index for failure in failures] == [3]


def test_update_to_the_wrong_fingerprint_fails():
    checker = Checker(CONFIG, _graph())
    update = Outcome(index=0, kind="update", started=0.0, seconds=0.001,
                     delta=SetEdgeProbability(edge_id=1, probability=0.5),
                     fingerprint="0" * 64)
    assert [failure.kind for failure in checker.check([update], applied=[0])] == ["update"]


def test_accuracy_is_one_for_exact_answers():
    from repro.baselines.exact_bdd import exact_bdd_reliability

    graph = _graph()
    exact = exact_bdd_reliability(graph, ("a", "c"))
    assert accuracy([(("a", "c"), exact, graph)]) == 1.0
    assert abs(accuracy([(("a", "c"), exact * 0.9, graph)]) - 0.9) < 1e-12
