"""The cluster front-end: one address, consistent routing, failover.

The :class:`Router` speaks exactly the service's JSON/HTTP wire format —
a :class:`~repro.service.client.ServiceClient` pointed at the router
cannot tell it from a single replica — and forwards each query to the
replica that owns its routing key on the consistent-hash ring:

    ``graph_fingerprint | query.canonical_key()``

The graph fingerprint leads (a replica accumulates affinity for the
graphs it serves), and the query key refines it so a workload on *one*
graph — the common case — still spreads over every replica instead of
saturating a single owner.  Placement is per-*key*, which is exactly the
unit of the replicas' result caches: repeats of a query hit the same
replica's warm memory cache, while distinct queries fan out.

Failure handling is two-layer.  The router walks the ring's preference
list when a forward fails (the answer is deterministic, so *any* replica
can serve any key — affinity is an optimization, never a correctness
constraint), counting a ``failovers``; and it reports the replica to the
supervisor, whose monitor respawns it with backoff.  ``/stats`` and
``/healthz`` aggregate over every live replica, adding the router's own
counters and the supervisor's restart counts.

``POST /update`` is the one write path and the one *broadcast*: a graph
delta must reach every live replica or the shared-nothing fleet forks,
so the router fans it out to all of them and only answers 200 when all
of them did (replicas launched without ``--allow-updates`` answer 403,
surfacing the read-only default).  A successful update drops the learned
fingerprint map so routing keys re-learn the new content fingerprint.

Observability: an ``X-Repro-Trace`` header (or a ``"timings": true``
request field) rides through to the owning replica, so one trace id
spans router → replica → engine and the replica's ``timings`` section
comes back with the router's own forwarding span stitched in.  ``GET
/metrics`` scrapes every live replica's exposition, re-labels each
series with ``replica="..."``, and merges them with the router's own
registry and forwarding counters into one Prometheus text page.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.queries import query_from_dict
from repro.exceptions import ClusterError
from repro.cluster.ring import HashRing
from repro.cluster.supervisor import ReplicaSupervisor
from repro.obs import bridge, get_registry
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text
from repro.obs.trace import TRACE_HEADER, new_trace, parse_header
from repro.service.http import (
    IO_TIMEOUT,
    BadRequest,
    HttpServer,
    Request,
    UpstreamPool,
    json_body,
    json_bytes,
)

__all__ = ["Router", "RouterStats"]

#: Transport failures of one forward: the replica, not its answer, failed.
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError)


@dataclass
class RouterStats:
    """Forwarding counters of one :class:`Router`."""

    requests: int = 0
    forwarded: int = 0
    failovers: int = 0
    errors: int = 0
    no_replica: int = 0
    updates: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class Router(HttpServer):
    """Route service requests onto a supervised replica pool.

    Parameters
    ----------
    supervisor:
        The (started) :class:`ReplicaSupervisor` owning the replicas.
        The ring is built over its slot identities, so respawns (new
        ports) never move keys.
    host / port:
        The router's own bind address (``port=0`` for ephemeral).
    route_by:
        ``"query"`` (default) keys the ring by graph fingerprint *and*
        query canonical key; ``"graph"`` by fingerprint alone, pinning
        each graph wholly to one replica (useful when per-graph engine
        state dwarfs the query mix).
    forward_timeout:
        Seconds one forwarded request may take end to end.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` behind the
        router's own series on ``GET /metrics`` (front-end latency by
        path).  Defaults to the process-global registry.
    """

    _thread_name = "repro-cluster-router"
    _not_started = ClusterError

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        route_by: str = "query",
        forward_timeout: float = 300.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if route_by not in ("query", "graph"):
            raise ClusterError(
                f"route_by must be 'query' or 'graph', got {route_by!r}"
            )
        self._registry = registry if registry is not None else get_registry()
        super().__init__(
            host,
            port,
            self._registry,
            ("repro_router_request_seconds", "Router front-end latency by path."),
        )
        self._supervisor = supervisor
        self._route_by = route_by
        self._forward_timeout = forward_timeout
        self._pool = UpstreamPool(self._registry)
        self._ring = HashRing(supervisor.keys())
        self._stats = RouterStats()
        self._stats_lock = threading.Lock()
        self._fingerprints: Dict[str, str] = {}

    def stats(self) -> RouterStats:
        """An independent snapshot of the router's forwarding counters."""
        with self._stats_lock:
            return RouterStats(**asdict(self._stats))

    async def _on_shutdown(self) -> None:
        self._pool.close()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def routing_key(self, graph: str, query_payload: Any) -> str:
        """The ring key of one query (public so tests can predict owners)."""
        fingerprint = self._fingerprints.get(graph, graph)
        if self._route_by == "graph":
            return fingerprint
        try:
            canonical = query_from_dict(query_payload).canonical_key()
        except Exception:
            # Malformed queries still route (the replica will answer 400
            # with the real error); any stable key works.
            canonical = json.dumps(query_payload, sort_keys=True, default=repr)
        return f"{fingerprint}|{canonical}"

    async def _refresh_fingerprints(self) -> None:
        """Learn ``{graph name: content fingerprint}`` from a live replica.

        Best-effort: until it succeeds, names themselves serve as ring
        keys — still deterministic, merely not content-addressed.
        """
        # Slot order (replica-0, replica-1, ...) is insertion-ordered and
        # only picks which replica answers first; the learned mapping is
        # identical whichever one does.
        for key, endpoint in self._supervisor.live_endpoints().items():  # reprolint: ok(ORD001)
            try:
                status, payload = await self._pool.request(endpoint, "GET", "/graphs")
            except _TRANSPORT_ERRORS:
                continue
            if status == 200:
                self._fingerprints = {
                    entry["name"]: entry["fingerprint"]
                    for entry in payload.get("graphs", [])
                }
                return

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(self, request: Request) -> Tuple[int, Any]:
        with self._stats_lock:
            self._stats.requests += 1
        try:
            return await self._route(request)
        except BadRequest:
            raise
        except Exception as error:
            with self._stats_lock:
                self._stats.errors += 1
            return 500, {"error": str(error), "error_type": type(error).__name__}

    async def _route(self, request: Request) -> Tuple[int, Any]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return await self._aggregate_healthz()
        if path == "/stats" and method == "GET":
            return await self._aggregate_stats()
        if path == "/metrics" and method == "GET":
            return 200, await self._aggregate_metrics()
        if path == "/graphs" and method == "GET":
            return await self._forward_any("GET", "/graphs")
        if path in ("/query", "/query_batch", "/update") and method != "POST":
            return 405, {"error": f"{path} expects POST"}
        if path == "/query":
            return await self._forward_query(request)
        if path == "/query_batch":
            return await self._forward_batch(request)
        if path == "/update":
            return await self._forward_update(request)
        return 404, {"error": f"unknown endpoint {path!r}"}

    async def _forward_query(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        payload = json_body(request, "graph")
        graph = payload["graph"]
        if not self._fingerprints:
            await self._refresh_fingerprints()
        key = self.routing_key(graph, payload.get("query"))
        # Adopt the caller's trace id (or mint one when the body asks for
        # timings) and propagate it to the replica, so one id spans
        # router → replica → engine.
        trace_id = parse_header(request.headers.get(TRACE_HEADER.lower()))
        trace = new_trace(trace_id) if (trace_id or payload.get("timings")) else None
        extra_headers = {TRACE_HEADER: trace.trace_id} if trace is not None else None
        started = time.perf_counter()
        status, answer = await self._forward_keyed(
            "POST", "/query", request.body, key, extra_headers=extra_headers
        )
        if trace is not None:
            # The one answer the router decodes: its span goes into the
            # replica's timings.  Others pass through as the replica's bytes.
            answer = _decoded(answer)
            timings = answer.get("timings")
            if isinstance(timings, dict):
                # The replica built its trace from the forwarded id; add
                # the router's enveloping span so the timeline shows the
                # hop's full cost (forward + failovers + transport).
                wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
                timings.setdefault("spans", []).insert(
                    0, {"name": "router.forward", "start_ms": 0.0, "wall_ms": wall_ms}
                )
        return status, answer

    async def _forward_batch(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        """Scatter a batch over the ring, gather in submission order.

        Items are partitioned by owning replica and each partition goes
        out as one ``/query_batch`` sub-request, concurrently; replicas
        keep their micro-batching advantage for the items they own.  A
        failed partition degrades to per-item error entries — batch
        semantics stay per-item, exactly like a single replica's.
        """
        payload = json_body(request, "graph", "queries")
        graph, queries = payload["graph"], payload["queries"]
        if not isinstance(queries, list):
            return 400, {"error": "bad request body: 'queries' must be a list"}
        if not self._fingerprints:
            await self._refresh_fingerprints()
        trace_id = parse_header(request.headers.get(TRACE_HEADER.lower()))
        extra_headers = {TRACE_HEADER: trace_id} if trace_id else None

        live = self._supervisor.live_endpoints()
        partitions: Dict[str, List[int]] = {}
        for position, query in enumerate(queries):
            owner_key = self.routing_key(graph, query)
            try:
                owner = self._preferred_live(owner_key, live)[0]
            except ClusterError:
                with self._stats_lock:
                    self._stats.no_replica += 1
                return 503, {"error": "no live replica to serve the batch"}
            partitions.setdefault(owner, []).append(position)

        results: List[Optional[Dict[str, Any]]] = [None] * len(queries)

        async def _run_partition(member: str, positions: List[int]) -> None:
            sub_body = json.dumps(
                {"graph": graph, "queries": [queries[i] for i in positions]}
            ).encode("utf-8")
            # Failover starts from the partition's owner and walks the
            # same preference order every router would.
            status, answer = await self._forward_with_failover(
                "POST",
                "/query_batch",
                sub_body,
                first=member,
                live=live,
                extra_headers=extra_headers,
            )
            payload = _decoded(answer)
            if status == 200:
                sub_results = payload.get("results", [])
                for offset, position in enumerate(positions):
                    if offset < len(sub_results):
                        results[position] = sub_results[offset]
                    else:  # pragma: no cover - defensive
                        results[position] = {
                            "error": "replica returned too few results",
                            "error_type": "ClusterError",
                        }
            else:
                error = {
                    "error": str(payload.get("error", f"status {status}")),
                    "error_type": payload.get("error_type", "ClusterError"),
                }
                for position in positions:
                    results[position] = dict(error)

        await asyncio.gather(
            *(
                _run_partition(member, positions)
                for member, positions in partitions.items()
            )
        )
        return 200, {"graph": graph, "results": results}

    async def _forward_update(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        """Broadcast a graph delta to *every* live replica.

        Queries route to one owner, but replicas are shared-nothing: a
        delta applied to only one would silently fork the fleet, so an
        update is all-or-error.  Every live replica gets the same
        ``POST /update``; the response reports each replica's outcome
        under ``"replicas"`` and carries the first replica's payload as
        the summary (the catalog's update result is deterministic, so
        all successful replicas report the same fingerprints/version).
        Any non-200 answer comes back as that failure's status — the
        caller must treat the fleet as divergent and rebuild or retry.
        Transport failures are reported to the supervisor like any
        failed forward, but never failed over: the point is reaching
        *this* replica, not any replica.
        """
        json_body(request, "graph")
        live = self._supervisor.live_endpoints()
        if not live:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": "no live replica to apply the update"}

        outcomes: Dict[str, Tuple[int, Dict[str, Any]]] = {}

        async def _apply(member: str, endpoint: str) -> None:
            try:
                status, answer = await asyncio.wait_for(
                    self._pool.request(endpoint, "POST", "/update", request.body),
                    self._forward_timeout,
                )
            except _TRANSPORT_ERRORS as error:
                self._pool.discard(endpoint)
                self._supervisor.notify_failure(member)
                outcomes[member] = (502, {
                    "error": f"replica unreachable: {error}",
                    "error_type": "ClusterError",
                })
                return
            with self._stats_lock:
                self._stats.forwarded += 1
            outcomes[member] = (
                status, answer if isinstance(answer, dict) else {"result": answer}
            )

        await asyncio.gather(
            *(_apply(member, endpoint) for member, endpoint in live.items())
        )
        per_replica = {
            member: {"status": status, **answer}
            for member, (status, answer) in sorted(outcomes.items())
        }
        failures = [
            (status, answer)
            for status, answer in (outcomes[m] for m in sorted(outcomes))
            if status != 200
        ]
        if failures:
            with self._stats_lock:
                self._stats.errors += 1
            status, answer = failures[0]
            return status, {
                "error": str(answer.get("error", f"status {status}")),
                "error_type": answer.get("error_type", "ClusterError"),
                "replicas": per_replica,
            }
        with self._stats_lock:
            self._stats.updates += 1
        # The graph's content fingerprint changed on every replica: drop
        # the learned mapping so the next query re-learns it and routing
        # keys follow the new content.
        self._fingerprints = {}
        first = outcomes[sorted(outcomes)[0]][1]
        return 200, {**first, "replicas": per_replica}

    # ------------------------------------------------------------------
    # Forwarding primitives
    # ------------------------------------------------------------------
    def _preferred_live(self, key: str, live: Dict[str, str]) -> List[str]:
        """The ring's preference list for ``key``, filtered to ``live`` replicas."""
        order = [member for member in self._ring.preference(key) if member in live]
        if not order:
            raise ClusterError("no live replica to serve the request")
        return order

    async def _forward_keyed(
        self,
        method: str,
        path: str,
        body: bytes,
        key: str,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        live = self._supervisor.live_endpoints()  # re-read only after a failure
        try:
            first = self._preferred_live(key, live)[0]
        except ClusterError as error:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": str(error)}
        return await self._forward_with_failover(
            method, path, body, first=first, live=live, extra_headers=extra_headers
        )

    async def _forward_with_failover(
        self,
        method: str,
        path: str,
        body: bytes,
        *,
        first: str,
        live: Dict[str, str],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        """Forward to ``first``, then down the ``live`` member list on failure.

        Only transport-level failures (connect/read errors, timeouts)
        fail over — an HTTP error status is the replica's *answer* and is
        passed through; retrying a 400 elsewhere would just repeat it.
        The answer is the replica's JSON bytes with ``served_by`` spliced
        in, or a dict the router made itself.
        """
        members = [first] + [key for key in sorted(live) if key != first]
        last_error: Optional[BaseException] = None
        for attempt, member in enumerate(members):
            endpoint = live.get(member)
            if endpoint is None:
                continue
            try:
                status, blob = await asyncio.wait_for(
                    self._pool.request(
                        endpoint, method, path, body, headers=extra_headers, raw=True
                    ),
                    self._forward_timeout,
                )
            except _TRANSPORT_ERRORS as error:
                last_error = error
                self._pool.discard(endpoint)
                self._supervisor.notify_failure(member)
                with self._stats_lock:
                    self._stats.failovers += 1
                live = self._supervisor.live_endpoints()
                continue
            with self._stats_lock:
                self._stats.forwarded += 1
            if blob[:1] == b"{" and blob[-1:] == b"}" and blob != b"{}":
                return status, blob[:-1] + b',"served_by":' + json_bytes(member) + b"}"
            return status, {"error": blob.decode("utf-8", "replace"), "served_by": member}
        with self._stats_lock:
            self._stats.errors += 1
        return 502, {
            "error": f"every live replica failed the request: {last_error}",
            "error_type": "ClusterError",
        }

    async def _forward_any(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, Any]]:
        """Forward to whichever live replica answers first in slot order."""
        live = self._supervisor.live_endpoints()
        if not live:
            with self._stats_lock:
                self._stats.no_replica += 1
            return 503, {"error": "no live replica"}
        first = sorted(live)[0]
        return await self._forward_with_failover(method, path, body, first=first, live=live)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    async def _fan_out(
        self, path: str, *, raw: bool = False
    ) -> Dict[str, Tuple[str, Optional[Tuple[int, Any]]]]:
        """``GET path`` on every live replica at once.

        Returns ``{member: (endpoint, (status, payload))}``, with ``None``
        in place of the answer for a replica that failed to give one.
        """
        live = self._supervisor.live_endpoints()

        async def _get(endpoint: str) -> Optional[Tuple[int, Any]]:
            try:
                return await asyncio.wait_for(
                    self._pool.request(endpoint, "GET", path, raw=raw), IO_TIMEOUT
                )
            except _TRANSPORT_ERRORS:
                return None

        answers = await asyncio.gather(*(_get(endpoint) for endpoint in live.values()))
        return {member: (live[member], answer) for member, answer in zip(live, answers)}

    async def _aggregate_healthz(self) -> Tuple[int, Dict[str, Any]]:
        replicas: Dict[str, Any] = {}
        for member, (_, answer) in (await self._fan_out("/healthz")).items():
            if answer is None:
                replicas[member] = {"status": "unreachable"}
            else:
                status, payload = answer
                replicas[member] = payload if status == 200 else {"status": f"error {status}"}
        for member in self._supervisor.keys():
            replicas.setdefault(member, {"status": "down"})
        healthy = sum(
            1 for payload in replicas.values() if payload.get("status") == "ok"
        )
        status = "ok" if healthy else "down"
        return (200 if healthy else 503), {
            "status": status,
            "replicas": replicas,
            "healthy": healthy,
            "expected": len(self._supervisor.keys()),
        }

    async def _aggregate_stats(self) -> Tuple[int, Dict[str, Any]]:
        restarts = self._supervisor.restart_counts()
        per_replica: Dict[str, Any] = {}
        for member, (endpoint, answer) in (await self._fan_out("/stats")).items():
            # Each replica's section leads with its identity — slot key,
            # endpoint, supervisor respawn count — so aggregated numbers
            # stay attributable to the process that produced them.
            identity = {
                "member": member,
                "endpoint": endpoint,
                "restarts": int(restarts.get(member, 0)),
            }
            if answer is None:
                per_replica[member] = {**identity, "status": "unreachable"}
            elif answer[0] == 200:
                per_replica[member] = {**identity, **answer[1]}
            else:
                per_replica[member] = {**identity, "status": f"error {answer[0]}"}
        for member in self._supervisor.keys():
            per_replica.setdefault(member, {
                "member": member,
                "endpoint": None,
                "restarts": int(restarts.get(member, 0)),
                "status": "down",
            })
        totals = dict.fromkeys(
            ("requests", "cache_hits", "shared_store_hits", "engine_evaluations", "errors"),
            0,
        )
        for payload in per_replica.values():
            service = payload.get("service", {})
            for field in totals:
                totals[field] += int(service.get(field, 0))
        return 200, {
            "router": self.stats().to_dict(),
            "http": {
                "connections_opened": int(self.connections_opened.value),
                "upstream_opened": int(self._pool.opened.value),
                "upstream_reused": int(self._pool.reused.value),
            },
            "totals": totals,
            "replicas": dict(sorted(per_replica.items())),
            "restarts": restarts,
            "route_by": self._route_by,
        }

    async def _aggregate_metrics(self) -> str:
        """One Prometheus text page for the whole cluster.

        Scrapes every live replica's ``/metrics``, re-emits each parsed
        series with a ``replica="<member>"`` label, and appends the
        router's own registry plus its forwarding counters and the
        supervisor's respawn counts.  Replicas that fail to answer or
        serve unparseable text are skipped — a scrape must never take
        the router down.
        """
        scraped: Dict[str, Tuple[Any, Dict[str, str], Dict[str, str]]] = {}
        for member, (_, answer) in (await self._fan_out("/metrics", raw=True)).items():
            if answer is None or answer[0] != 200:
                continue
            try:
                scraped[member] = parse_prometheus_text(answer[1].decode("utf-8", "replace"))
            except ValueError:
                continue
        extra: List[bridge.Sample] = bridge.router_samples(
            self.stats().to_dict(), self._supervisor.restart_counts()
        )
        for member in sorted(scraped):
            samples, types, helps = scraped[member]
            for name, labels, value in samples:
                # Histogram component series (_bucket/_sum/_count) carry
                # their family's TYPE line; re-emitted standalone they
                # must go out untyped to stay valid exposition.
                base = name
                for suffix in ("_bucket", "_sum", "_count"):
                    if name.endswith(suffix) and name[: -len(suffix)] in types:
                        base = name[: -len(suffix)]
                        break
                kind = types.get(base, "untyped") if base == name else "untyped"
                extra.append(
                    (
                        name,
                        kind,
                        helps.get(base, ""),
                        {**labels, "replica": member},
                        value,
                    )
                )
        return self._registry.render(extra_samples=extra)


def _decoded(answer: Any) -> Dict[str, Any]:
    """A forwarded answer as a dict (the router's own answers already are)."""
    return json.loads(answer) if isinstance(answer, bytes) else answer
