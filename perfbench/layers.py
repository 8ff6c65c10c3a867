"""Per-layer metrics of a traced run, from the span file and ``/stats``.

The traced run writes every traced request to a JSON-lines span file:
the benchmark's own ``client.request`` span plus the spans the program
returned for ``"timings": true`` under the same trace id
(``router.forward``, ``service.lookup``, ``service.wait``,
``engine.query:<kind>``, ``s2bdd.construct``).  :func:`span_metrics`
reads that file back; :func:`counter_metrics` turns two router ``/stats``
snapshots, taken around the timed stream, into deltas.

Derived self times, per request:

* ``router.self_ms``  = ``client.request`` - ``router.forward``
  (client hop plus the router's own work),
* ``replica.http_ms`` = ``router.forward`` - (``service.lookup`` +
  ``service.wait``) (router-to-replica hop plus the replica's HTTP layer).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

#: Every per-layer metric of a traced run, in print order, with its unit.
UNITS: Dict[str, str] = {
    "router.self_ms.p50": "ms",
    "router.self_ms.p90": "ms",
    "router.forward_ms.p50": "ms",
    "router.failovers": "count",
    "replica.http_ms.p50": "ms",
    "replica.http_ms.p90": "ms",
    "server.rejected": "count",
    "transport.share": "ratio",
    "service.lookup_ms.p50": "ms",
    "cache.hit_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p90": "ms",
    "service.wait.samples": "count",
    "coalescer.batch_size.mean": "count",
    "engine.query_ms.p50": "ms",
    "engine.query.samples": "count",
    "engine.evaluations_per_req": "ratio",
    "engine.world_pools_built": "count",
    "engine.worlds_sampled": "count",
    "s2bdd.construct_ms.p50": "ms",
    "s2bdd.construct_ms.p90": "ms",
    "s2bdd.construct.samples": "count",
    "s2bdd.construct_share": "ratio",
    "engine.s2bdds_built": "count",
    "engine.s2bdd_cache_hit_ratio": "ratio",
    "update.count": "count",
    "catalog.update_ms.p50": "ms",
    "router.broadcast_ms.p50": "ms",
    "engine.incremental_prepares": "count",
    "update.invalidated_per_update": "count",
    "setup.snapshot_build_s": "s",
    "setup.cluster_boot_s": "s",
    "snapshot.load_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.requests": "count",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile; 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def write_spans(path: str, outcomes: Iterable[Any]) -> None:
    """Write every traced outcome's spans as one JSON line."""
    with open(path, "w") as handle:
        for outcome in outcomes:
            if outcome.trace_id is None:
                continue
            record = {
                "trace_id": outcome.trace_id,
                "index": outcome.index,
                "kind": outcome.kind,
                "ok": outcome.error is None,
                "spans": outcome.spans,
            }
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def span_metrics(path: str) -> Dict[str, float]:
    """Per-layer times (ms) and the S2BDD construction share from a span file."""
    series: Dict[str, List[float]] = {
        "client": [], "forward": [], "router_self": [], "replica_http": [],
        "lookup": [], "wait": [], "engine": [], "construct": [],
    }
    engine_total = construct_total = 0.0
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for record in records:
        if not record["ok"]:
            continue
        walls: Dict[str, List[float]] = {}
        for span in record["spans"]:
            name = span["name"].split(":", 1)[0]
            walls.setdefault(name, []).append(float(span["wall_ms"]))
        client = sum(walls.get("client.request", []))
        forward = sum(walls.get("router.forward", []))
        lookup = walls.get("service.lookup", [])
        wait = walls.get("service.wait", [])
        engine = walls.get("engine.query", [])
        construct = walls.get("s2bdd.construct", [])
        series["client"].append(client)
        series["forward"].append(forward)
        series["router_self"].append(client - forward)
        series["replica_http"].append(forward - sum(lookup) - sum(wait))
        series["lookup"] += lookup
        series["wait"] += wait
        series["engine"] += engine
        series["construct"] += construct
        if engine:
            engine_total += sum(engine)
            construct_total += sum(construct)
    return {
        "trace.requests": len(series["client"]),
        "router.self_ms.p50": percentile(series["router_self"], 50),
        "router.self_ms.p90": percentile(series["router_self"], 90),
        "router.forward_ms.p50": percentile(series["forward"], 50),
        "replica.http_ms.p50": percentile(series["replica_http"], 50),
        "replica.http_ms.p90": percentile(series["replica_http"], 90),
        "service.lookup_ms.p50": percentile(series["lookup"], 50),
        "service.wait_ms.p50": percentile(series["wait"], 50),
        "service.wait_ms.p90": percentile(series["wait"], 90),
        "service.wait.samples": len(series["wait"]),
        "engine.query_ms.p50": percentile(series["engine"], 50),
        "engine.query.samples": len(series["engine"]),
        "s2bdd.construct_ms.p50": percentile(series["construct"], 50),
        "s2bdd.construct_ms.p90": percentile(series["construct"], 90),
        "s2bdd.construct.samples": len(series["construct"]),
        "s2bdd.construct_share": construct_total / engine_total if engine_total else 0.0,
        "transport.share": (
            (sum(series["router_self"]) + sum(series["replica_http"])) / sum(series["client"])
            if sum(series["client"]) else 0.0
        ),
    }


def _replica_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}

    def add(key: str, value: Any) -> None:
        totals[key] = totals.get(key, 0) + int(value or 0)

    for replica in stats.get("replicas", {}).values():
        for section in ("service", "cache", "shared_store", "coalescer", "admission"):
            for key, value in replica.get(section, {}).items():
                if isinstance(value, int):
                    add(f"{section}.{key}", value)
        for per_config in replica.get("engines", {}).values():
            for engine in per_config.values():
                for key, value in engine.items():
                    add(f"engine.{key}", value)
    for key, value in stats.get("router", {}).items():
        add(f"router.{key}", value)
    return totals


def counter_metrics(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Counter deltas over the timed stream, summed over the replicas."""
    start, end = _replica_totals(before), _replica_totals(after)
    delta = {key: end.get(key, 0) - start.get(key, 0) for key in end}

    def ratio(hits: str, misses: str) -> float:
        total = delta.get(hits, 0) + delta.get(misses, 0)
        return delta.get(hits, 0) / total if total else 0.0

    requests = delta.get("service.requests", 0)
    batches = delta.get("coalescer.batches", 0)
    return {
        "router.failovers": delta.get("router.failovers", 0),
        "server.rejected": delta.get("admission.rejected", 0),
        "cache.hit_ratio": ratio("cache.hits", "cache.misses"),
        "store.hit_ratio": ratio("shared_store.hits", "shared_store.misses"),
        "coalescer.batch_size.mean": (
            delta.get("coalescer.batched_requests", 0) / batches if batches else 0.0
        ),
        "engine.evaluations_per_req": (
            delta.get("service.engine_evaluations", 0) / requests if requests else 0.0
        ),
        "engine.world_pools_built": delta.get("engine.world_pools_built", 0),
        "engine.worlds_sampled": delta.get("engine.worlds_sampled", 0),
        "engine.s2bdds_built": delta.get("engine.s2bdds_built", 0),
        "engine.s2bdd_cache_hit_ratio": ratio("engine.s2bdd_cache_hits", "engine.s2bdds_built"),
        "engine.incremental_prepares": delta.get("engine.incremental_prepares", 0),
    }
