"""Correctness of every served answer, and the accuracy axis.

:class:`Checker` holds a reference :class:`~repro.service.catalog.GraphCatalog`
prepared in-process from the dataset (not from the snapshot the cluster
serves).  It knows the graph at every version the run produced: version 1
at start, then one more per delta replayed in the order the fleet applied
them.  An answer is correct only when

* the request succeeded (no error status, timeout or transport failure),
* the ``graph_fingerprint`` it names is a version the reference reached,
* its ``checksum`` equals ``results_checksum`` of a direct
  ``ReliabilityEngine.query(q, seed_index=0)`` on that version,

and an update is correct when the fingerprint it reports is the one the
reference reaches by applying the same delta.  Every failure is kept with
its reason, so the run can print it.

:func:`accuracy` is the paper's quality axis: one minus the mean relative
error of served k-terminal reliabilities against ``exact_bdd_reliability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.exact_bdd import exact_bdd_reliability
from repro.engine.config import EstimatorConfig
from repro.engine.parallel import results_checksum
from repro.engine.queries import Query
from repro.graph.uncertain_graph import UncertainGraph
from repro.service.catalog import GraphCatalog

from perfbench.workloads import GRAPH


@dataclass
class Failure:
    index: int
    kind: str
    reason: str


class Checker:
    """Reference answers for every graph version a run reaches."""

    def __init__(self, config: EstimatorConfig, graph: UncertainGraph) -> None:
        self._catalog = GraphCatalog(config)
        self._catalog.register(GRAPH, graph.copy())
        self._graphs: Dict[str, UncertainGraph] = {}
        self._expected: Dict[Tuple[str, str], str] = {}
        self._remember_version()

    @property
    def fingerprint(self) -> str:
        return self._catalog.entry(GRAPH).fingerprint

    def graph_at(self, fingerprint: str) -> Optional[UncertainGraph]:
        return self._graphs.get(fingerprint)

    def _remember_version(self) -> None:
        self._graphs[self.fingerprint] = self._catalog.entry(GRAPH).graph.copy()

    def expected(self, query: Query) -> str:
        """The reference checksum of ``query`` on the current version."""
        key = (self.fingerprint, query.canonical_key())
        if key not in self._expected:
            result = self._catalog.engine(GRAPH).query(query, seed_index=0)
            self._expected[key] = results_checksum([result])
        return self._expected[key]

    def apply(self, delta: Any) -> str:
        """Replay one delta; returns the new fingerprint."""
        self._catalog.update(GRAPH, delta)
        self._remember_version()
        return self.fingerprint

    def check(self, outcomes: Iterable[Any], *, applied: Sequence[int] = ()) -> List[Failure]:
        """Check ``outcomes`` (reads and deltas); returns every failure.

        ``applied`` lists the positions of the delta outcomes in the order
        the fleet applied them.  Reads are checked on the version they
        name, so a read that raced a delta is still judged fairly.
        """
        outcomes = list(outcomes)
        failures: List[Failure] = []
        # Group reads by the version they name; replay deltas in applied
        # order and check each group while the reference sits on it.
        reads: Dict[str, List[Any]] = {}
        for outcome in outcomes:
            if outcome.error is not None:
                failures.append(Failure(outcome.index, outcome.kind, outcome.error))
            elif outcome.kind == "query":
                reads.setdefault(outcome.fingerprint, []).append(outcome)
        failures += self._check_reads(reads)
        for position in applied:
            outcome = outcomes[position]
            if outcome.error is not None:
                continue
            fingerprint = self.apply(outcome.delta)
            if outcome.fingerprint != fingerprint:
                failures.append(Failure(
                    outcome.index, "update",
                    f"update reports fingerprint {outcome.fingerprint!r}, "
                    f"reference reaches {fingerprint!r}",
                ))
            failures += self._check_reads(reads)
        for fingerprint, pending in reads.items():
            for outcome in pending:
                failures.append(Failure(
                    outcome.index, "query",
                    f"unknown graph fingerprint {fingerprint!r}",
                ))
        return sorted(failures, key=lambda failure: failure.index)

    def _check_reads(self, reads: Dict[str, List[Any]]) -> List[Failure]:
        failures = []
        for outcome in reads.pop(self.fingerprint, []):
            if outcome.checksum != self.expected(outcome.query):
                failures.append(Failure(
                    outcome.index, "query",
                    f"checksum {outcome.checksum!r} != reference {self.expected(outcome.query)!r} "
                    f"for {outcome.query.canonical_key()}",
                ))
        return failures


def accuracy(answers: Sequence[Tuple[Tuple[Any, ...], float, UncertainGraph]]) -> float:
    """``1 - mean relative error`` of ``(terminals, served, graph)`` triples
    against ``exact_bdd_reliability`` on the graph each was served from."""
    errors = []
    for terminals, served, graph in answers:
        exact = exact_bdd_reliability(graph, terminals)
        errors.append(abs(served - exact) / exact)
    return 1.0 - sum(errors) / len(errors)
