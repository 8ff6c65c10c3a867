"""The benchmark's workloads: fixed, seeded request lists over karate.

Every workload is a :class:`Workload` (what the cluster runs with, and
why the workload exists) plus :func:`build_inputs`, which turns a seed
and a run length into the exact lists the cluster receives: the distinct
queries of the warm-up pass, the timed operation stream, and the deltas:
inside the stream for ``update-mix``, after it for the read-only mixes.  The same seed and run length always give the
same lists; the program sees nothing but them.

A run ends when its list is done, not after a set duration.  The list
length is ``seconds`` times a fixed per-workload rate.  On a 2-CPU host
the timed stream of ``s2bdd-cold`` lasts about ``seconds``, and those of
the cheaper ``zipf-hot`` and ``update-mix`` about 1.2 times that; a
faster program finishes the same list sooner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.deltas import SetEdgeProbability
from repro.engine.queries import KTerminalQuery, Query
from repro.experiments.workloads import generate_searches, service_workload, zipf_indices
from repro.graph.uncertain_graph import UncertainGraph

GRAPH = "karate"

#: The accuracy reference subset: k-terminal queries scored against
#: ``exact_bdd_reliability`` in every workload.  Fixed (not seeded) and
#: chosen among karate terminal sets whose exact BDD finishes well inside
#: its node budget (0.1-0.5 s each), so the reference never fails.
REFERENCE_TERMINALS: Tuple[Tuple[int, ...], ...] = (
    (24, 28, 22),
    (6, 2, 15),
    (31, 32, 33),
    (11, 20, 23),
)

#: The query that ends each set-up: the first correct answer.  Two
#: terminals, so it never coincides with a (three-terminal) stream query.
SETUP_PROBE = KTerminalQuery(terminals=(1, 34))


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the cluster configuration it runs against.

    Why each workload exists, and which layers it exercises and bypasses,
    is written down in ``perfbench/README.md``.
    """

    name: str
    backend: str
    clients: int
    #: Operations per second of ``--seconds`` (sizes the timed stream).
    ops_per_second: int
    samples: int = 1000
    #: The S2BDD width cap (the sampling backend ignores it).
    max_width: int = 10_000
    #: Distinct read queries (zipf workloads) before the reference subset.
    distinct: int = 0
    #: One ``set-probability`` delta after every this many reads.
    update_every: int = 0
    #: Deltas sent one at a time after the timed stream, on an otherwise
    #: idle fleet: ``update_p50_ms`` of a workload whose stream sends none.
    tail_updates: int = 0


#: Deltas after the timed stream of the read-only workloads.
TAIL_UPDATES = 60

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="zipf-hot",
            backend="sampling",
            clients=2,
            ops_per_second=800,
            distinct=32,
            tail_updates=TAIL_UPDATES,
        ),
        Workload(
            name="s2bdd-cold",
            backend="s2bdd",
            max_width=500,
            clients=1,
            ops_per_second=9,
            tail_updates=TAIL_UPDATES,
        ),
        Workload(
            name="update-mix",
            backend="sampling",
            clients=2,
            ops_per_second=400,
            distinct=32,
            update_every=100,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation of the timed stream: a read or a delta."""

    index: int
    query: Optional[Query] = None
    delta: Optional[SetEdgeProbability] = None


@dataclass(frozen=True)
class Inputs:
    """Everything a run sends to the cluster besides the reference subset."""

    warmup: List[Query]
    stream: List[Op]
    #: Deltas sent after the timed stream (read-only workloads only).
    tail: List[Op]


def reference_queries() -> List[KTerminalQuery]:
    return [KTerminalQuery(terminals=terminals) for terminals in REFERENCE_TERMINALS]


def build_inputs(
    workload: Workload, graph: UncertainGraph, *, seed: int, seconds: int
) -> Inputs:
    """The seeded request lists of one run of ``workload``."""
    length = max(1, workload.ops_per_second * seconds)
    if workload.name == "s2bdd-cold":
        stream = _cold_stream(graph, seed, length)
        return Inputs(warmup=[], stream=stream, tail=_tail(workload, graph, seed, len(stream)))
    distinct = _distinct_reads(graph, workload.distinct)
    every = workload.update_every
    reads = length - length // (every + 1) if every else length
    picks = zipf_indices(len(distinct), reads, skew=1.1, seed=seed + 1)
    deltas = iter(_deltas(graph, seed, reads // every) if every else [])
    stream: List[Op] = []
    for position, pick in enumerate(picks, start=1):
        stream.append(Op(len(stream), query=distinct[pick]))
        if every and position % every == 0:
            stream.append(Op(len(stream), delta=next(deltas)))
    return Inputs(warmup=distinct, stream=stream, tail=_tail(workload, graph, seed, len(stream)))


def _tail(workload: Workload, graph: UncertainGraph, seed: int, start: int) -> List[Op]:
    """The deltas sent after the timed stream, numbered on from it."""
    deltas = _deltas(graph, seed, workload.tail_updates)
    return [Op(start + offset, delta=delta) for offset, delta in enumerate(deltas)]


def _distinct_reads(graph: UncertainGraph, count: int) -> List[Query]:
    """The distinct read queries: ``count`` of ``service_workload``'s
    default set (all six kinds, cycled), then the reference subset.

    The set is the same for every seed.  Query cost on the sampling
    backend depends on the terminal set (a cold ``subgraph`` query costs
    2-200 ms), and the hottest query takes about a quarter of all reads,
    so a seeded set would change the workload's cost from seed to seed.
    The seed draws the request order and the deltas instead.
    """
    queries, _ = service_workload(graph, GRAPH, distinct=count, length=1)
    seen = {query.canonical_key() for query in queries}
    return queries + [query for query in reference_queries() if query.canonical_key() not in seen]


def _cold_stream(graph: UncertainGraph, seed: int, length: int) -> List[Op]:
    """``length`` k-terminal queries, each on a terminal set not sent before
    in the run; the reference subset is spread evenly through the list."""
    taken = {tuple(sorted(terminals)) for terminals in REFERENCE_TERMINALS}
    taken.add(tuple(sorted(SETUP_PROBE.terminals)))
    queries: List[Query] = []
    attempt = 0
    while len(queries) < max(0, length - len(REFERENCE_TERMINALS)):
        (search,) = generate_searches(graph, GRAPH, 3, 1, seed=seed * 100_003 + attempt)
        attempt += 1
        key = tuple(sorted(search.terminals))
        if key not in taken:
            taken.add(key)
            queries.append(KTerminalQuery(terminals=search.terminals))
    step = max(1, len(queries) // len(REFERENCE_TERMINALS))
    for offset, query in enumerate(reference_queries()):
        queries.insert(min(len(queries), offset * (step + 1)), query)
    return [Op(index, query=query) for index, query in enumerate(queries)]


def _deltas(graph: UncertainGraph, seed: int, count: int) -> List[SetEdgeProbability]:
    """``count`` probability-only deltas: each moves one seeded edge to
    within 0.02 of its original probability.

    Re-weighting telemetry nudges probabilities; it does not random-walk
    them.  Keeping every version close to the original graph also keeps
    the engine's cost per recomputed query the same all run long.
    """
    generator = random.Random(seed * 7919 + 17)
    edges = sorted(graph.edges(), key=lambda edge: edge.id)
    deltas = []
    for _ in range(count):
        edge = generator.choice(edges)
        nudge = generator.choice((-1, 1)) * generator.uniform(0.002, 0.02)
        probability = min(1.0, max(0.01, edge.probability + nudge))
        deltas.append(SetEdgeProbability(edge_id=edge.id, probability=round(probability, 6)))
    return deltas

