"""The load generator: closed-loop :class:`ClusterClient` threads.

Each client thread takes the next operation of the shared stream, sends
it, waits for the answer and only then takes another (a closed loop), so
``clients`` bounds the requests in flight.  Deltas are sent one at a time
under a lock, so the order in which the fleet applied them is the order
recorded here, and the reference replay can follow it exactly.

Every answer is kept as an :class:`Outcome`; nothing is checked while the
clock runs.  With ``trace_every=n`` each n-th read asks for the program's
``timings`` under a trace id the benchmark picks, and its client-side
``client.request`` span is stored beside the spans the program returns.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.client import ClusterClient

from perfbench.workloads import GRAPH, Op

CLIENT_TIMEOUT = 60.0


@dataclass
class Outcome:
    """What one operation sent, and the parts of the answer the checks need.

    Only those parts are kept: the load generator holds every outcome of
    a run, and full answers would grow its heap (and its garbage
    collector's pauses, which land in the measured latency) with the run.
    """

    index: int
    kind: str  # "query" or "update"
    started: float
    seconds: float
    query: Any = None
    delta: Any = None
    #: The graph version a read was answered on, or the one an update made.
    fingerprint: Optional[str] = None
    checksum: Optional[str] = None
    #: The estimate of a k-terminal read (scored by ``accuracy``).
    reliability: Optional[float] = None
    #: Cache and store entries an update dropped, over all replicas.
    invalidated: int = 0
    error: Optional[str] = None
    trace_id: Optional[str] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)


def send(client: ClusterClient, op: Op, *, trace_id: Optional[str] = None) -> Outcome:
    """Send one operation and time it from the client's side."""
    outcome = Outcome(
        index=op.index,
        kind="update" if op.delta is not None else "query",
        started=time.perf_counter(),
        seconds=0.0,
        query=op.query,
        delta=op.delta,
        trace_id=trace_id,
    )
    try:
        if op.delta is not None:
            payload = client.update(GRAPH, op.delta)
        else:
            response = client.query(
                GRAPH, op.query, timings=trace_id is not None, trace_id=trace_id
            )
    except Exception as exc:  # every failure is counted, never raised
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.seconds = time.perf_counter() - outcome.started
    if outcome.error is not None:
        return outcome
    if op.delta is not None:
        outcome.fingerprint = payload.get("fingerprint")
        outcome.invalidated = sum(
            sum(replica.get("invalidated", {}).values())
            for replica in payload.get("replicas", {}).values()
        )
        return outcome
    outcome.fingerprint = response.raw.get("graph_fingerprint")
    outcome.checksum = response.checksum
    if response.kind == "k-terminal":
        outcome.reliability = response.result.reliability
    if trace_id is not None:
        outcome.spans.append(
            {"name": "client.request", "start_ms": 0.0, "wall_ms": outcome.seconds * 1000.0}
        )
        outcome.spans.extend((response.raw.get("timings") or {}).get("spans", []))
    return outcome


def client_for(host: str, port: int) -> ClusterClient:
    return ClusterClient(host, port, timeout=CLIENT_TIMEOUT)


def run_stream(
    host: str,
    port: int,
    ops: Sequence[Op],
    *,
    clients: int,
    seed: int,
    trace_every: int = 0,
) -> Dict[str, Any]:
    """Drive ``ops`` through ``clients`` closed-loop threads.

    Returns the outcomes in stream order, the timed wall seconds, and the
    order in which deltas were applied.
    """
    # next() on an itertools.count is a single C call, so the two threads
    # never take the same position.
    positions = itertools.count()
    update_lock = threading.Lock()
    applied: List[int] = []
    outcomes: List[Optional[Outcome]] = [None] * len(ops)

    def _client() -> None:
        client = client_for(host, port)
        while True:
            position = next(positions)
            if position >= len(ops):
                return
            op = ops[position]
            if op.delta is not None:
                with update_lock:
                    outcomes[position] = send(client, op)
                    applied.append(position)
                continue
            trace_id = None
            if trace_every and op.index % trace_every == 0:
                trace_id = f"{seed & 0xFFFFFFFF:08x}{op.index:08x}"
            outcomes[position] = send(client, op, trace_id=trace_id)

    threads = [threading.Thread(target=_client, daemon=True) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {"outcomes": outcomes, "wall_seconds": wall, "applied": applied}
