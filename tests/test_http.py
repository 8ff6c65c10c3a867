"""Tests of the shared HTTP layer (:mod:`repro.service.http`).

Keep-alive on the server side (two requests on one socket,
``Connection: close`` and HTTP/1.0, the silent idle close), the router's
upstream pool (reconnecting after a replica restart, never resending an
update), the router's own framing (413, ``Retry-After``), connection
counters, memory-cache hits answered on the event loop outside admission
control, and client connections closed when their thread ends.  Then the
encode-once byte path: a routed answer is the replica's plus
``served_by``, one liveness read per forward, and the blocking client
against a raw-socket peer scripted to misbehave.
"""

from __future__ import annotations

import asyncio
import http.server
import json
import socket
import threading
import time

import pytest

from repro.cluster import ClusterClient, Router
from repro.datasets import load_dataset
from repro.engine import EstimatorConfig
from repro.engine.queries import KTerminalQuery
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.service import (
    GraphCatalog,
    ReliabilityService,
    ServiceClient,
    ServiceOverloadedError,
    ServiceServer,
)
from repro.service import client as repro_client
from repro.service import http as repro_http
from repro.service.http import MAX_BODY_BYTES, UpstreamPool

DELTA = {"kind": "set-probability", "edge_id": 3, "probability": 0.42}


def _start_server(port: int = 0, registry=None):
    catalog = GraphCatalog(EstimatorConfig(backend="sampling", samples=200, rng=7))
    catalog.register("karate", load_dataset("karate"))
    service = ReliabilityService(catalog, registry=registry)
    server = ServiceServer(service, port=port, registry=registry).start_background()
    return server, service


@pytest.fixture()
def served():
    registry = MetricsRegistry()
    server, service = _start_server(registry=registry)
    yield server, service, registry
    server.close()
    service.close()


class _FakeSupervisor:
    """The slice of :class:`ReplicaSupervisor` a router uses, over fixed endpoints."""

    def __init__(self, endpoints):
        self.endpoints = dict(endpoints)
        self.failures = []
        self.live_reads = 0

    def keys(self):
        return sorted(self.endpoints)

    def live_endpoints(self):
        self.live_reads += 1
        return dict(self.endpoints)

    def notify_failure(self, member):
        self.failures.append(member)

    def restart_counts(self):
        return {member: 0 for member in self.endpoints}


def _router_over(endpoint: str) -> Router:
    supervisor = _FakeSupervisor({"replica-0": endpoint})
    return Router(supervisor, registry=MetricsRegistry()).start_background()


def _raw_request(path: str, *, version: str = "HTTP/1.1", extra: str = "") -> bytes:
    return f"GET {path} {version}\r\nHost: test\r\n{extra}\r\n".encode("ascii")


def _read_head(stream):
    """``(first line, headers)`` of one message read off a socket file."""
    first_line = stream.readline()
    headers = {}
    while True:
        line = stream.readline().decode("ascii").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return first_line, headers


def _read_response(stream):
    """``(status, headers, body)`` of one response read off a socket file."""
    status_line, headers = _read_head(stream)
    if not status_line:
        return None
    body = stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def _reply(status, body, *, headers="", length=None, content_type="application/json"):
    """A canned response; ``length`` may overstate the body (a truncation)."""
    length = len(body) if length is None else length
    head = (
        f"HTTP/1.1 {status} Canned\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n{headers}\r\n"
    )
    return head.encode("ascii") + body


class _ScriptedPeer:
    """A raw-socket HTTP server answering each request with canned bytes.

    ``replies`` holds one ``(bytes, then)`` per request, in order: after
    sending, ``"keep"`` reads the next request on the same socket,
    ``"close"`` closes it, and ``"await-eof"`` waits for the client to
    close its side and sets :attr:`client_closed`.
    """

    def __init__(self, replies):
        self.replies = list(replies)
        self.connections = 0
        self.client_closed = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10)  # a failed test leaves replies unsent
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            while self.replies:
                sock, _ = self._listener.accept()
                sock.settimeout(10)
                self.connections += 1
                with sock, sock.makefile("rb") as stream:
                    then = "keep"
                    while then == "keep" and self.replies:
                        request_line, headers = _read_head(stream)
                        if not request_line:
                            break
                        stream.read(int(headers.get("content-length", 0)))
                        reply, then = self.replies.pop(0)
                        sock.sendall(reply)
                    if then == "await-eof" and stream.read() == b"":
                        self.client_closed.set()
        except OSError:
            pass  # the listener was closed, or a socket or accept timed out

    def close(self):
        self._listener.close()
        self._thread.join(timeout=15)


def _responses_total(registry: MetricsRegistry) -> float:
    family = registry.to_dict().get("repro_http_responses_total", {"values": []})
    return sum(entry["value"] for entry in family["values"])


# ----------------------------------------------------------------------
# Server-side keep-alive
# ----------------------------------------------------------------------
class TestServerKeepAlive:
    def test_two_requests_on_one_socket(self, served):
        server, _, registry = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            # Both requests in one write: the second waits in the buffer.
            sock.sendall(_raw_request("/healthz") + _raw_request("/graphs"))
            first, second = _read_response(stream), _read_response(stream)
            stream.close()
        assert first[0] == 200 and json.loads(first[2])["status"] == "ok"
        assert second[0] == 200 and json.loads(second[2])["graphs"][0]["name"] == "karate"
        assert "connection" not in first[1]
        opened = registry.to_dict()["repro_http_connections_opened_total"]
        assert opened["values"][0]["value"] == 1

    @pytest.mark.parametrize(
        "request_bytes",
        [
            _raw_request("/healthz", extra="Connection: close\r\n"),
            _raw_request("/healthz", version="HTTP/1.0"),
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_after_one_response(self, served, request_bytes):
        server, _, _ = served
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(request_bytes)
            status, headers, _ = _read_response(stream)
            assert status == 200
            assert headers["connection"] == "close"
            assert stream.read() == b""  # the server closed its side
            stream.close()

    def test_idle_connection_closes_silently(self, served, monkeypatch):
        server, _, registry = served
        monkeypatch.setattr(repro_http, "IO_TIMEOUT", 0.2)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(_raw_request("/healthz"))
            assert _read_response(stream)[0] == 200
            before = _responses_total(registry)
            started = time.monotonic()
            assert stream.read() == b""  # closed: no 400, no bytes at all
            assert time.monotonic() - started < 5.0
            stream.close()
        assert _responses_total(registry) == before

    def test_memory_hit_answered_on_the_loop(self, served):
        server, service, _ = served
        submitted = []
        original_submit = server._executor.submit

        def counting_submit(*args, **kwargs):
            submitted.append(args)
            return original_submit(*args, **kwargs)

        server._executor.submit = counting_submit
        query = KTerminalQuery(terminals=(4, 30))
        with ServiceClient("127.0.0.1", server.port) as client:
            assert not client.query("karate", query).cached  # miss: pool hop
            assert len(submitted) == 1
            before = service.stats()["service"]["requests"]
            hit = client.query("karate", query, timings=True)
        assert hit.cached and hit.raw["cache_tier"] == "memory"
        assert len(submitted) == 1  # the hit never reached the thread pool
        assert service.stats()["service"]["requests"] == before + 1
        names = [span["name"] for span in hit.raw["timings"]["spans"]]
        assert names.count("service.lookup") == 1
        assert "service.wait" not in names

    def test_shed_miss_not_counted_and_hit_bypasses_admission(self, served):
        server, service, _ = served
        hot, cold = KTerminalQuery(terminals=(5, 31)), KTerminalQuery(terminals=(6, 32))
        with ServiceClient("127.0.0.1", server.port) as client:
            client.query("karate", hot)
            requests = service.stats()["service"]["requests"]
            accepted = server._admission_snapshot()["accepted"]
            # Hold every admission slot, as a saturated pool would.
            held = 0
            while server._try_admit() is None:
                held += 1
            try:
                with pytest.raises(ServiceOverloadedError):
                    client.query("karate", cold)  # a miss: shed with 429
                assert client.query("karate", hot).cached  # a hit: answered
            finally:
                for _ in range(held):
                    server._release()
        assert service.stats()["service"]["requests"] == requests + 1  # the hit only
        assert server._admission_snapshot()["accepted"] == accepted + held

    def test_client_reuses_one_connection(self, served):
        server, _, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            for _ in range(5):
                client.healthz()
            assert client.stats()["http"]["connections_opened"] == 1

    def test_finished_threads_leave_no_connection_open(self, served):
        server, _, _ = served
        with ServiceClient("127.0.0.1", server.port) as client:
            threads = [threading.Thread(target=client.healthz) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert server.connections_opened.value == 4
            # Each finished thread's socket was closed, so the server sees
            # every connection end while the client itself is still open.
            deadline = time.monotonic() + 5.0
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not server._connections
            assert not list(client._connections)


# ----------------------------------------------------------------------
# The router: upstream pool and framing
# ----------------------------------------------------------------------
class TestRouterConnections:
    def test_reconnects_after_replica_restart_without_failover(self):
        server, service = _start_server()
        port = server.port
        router = _router_over(f"127.0.0.1:{port}")
        query = KTerminalQuery(terminals=(2, 33))
        try:
            with ClusterClient(port=router.port) as client:
                expected = client.query("karate", query).checksum
                server.close()  # closes the router's pooled connection too
                service.close()
                server, service = _start_server(port=port)
                assert client.query("karate", query).checksum == expected
            stats = router.stats()
            assert stats.failovers == 0 and stats.errors == 0
        finally:
            router.close()
            server.close()
            service.close()

    def test_update_on_peer_closed_connection_applied_once(self, served, monkeypatch):
        server, service, _ = served
        router = _router_over(f"127.0.0.1:{server.port}")
        try:
            with ClusterClient(port=router.port) as client:
                client.query("karate", KTerminalQuery(terminals=(1, 34)))
                # Every idle connection — client→router and router→replica —
                # is now closed by its server before the update is sent.
                monkeypatch.setattr(repro_http, "IO_TIMEOUT", 0.2)
                client.healthz()  # re-arm both idle timers at 0.2 s
                time.sleep(0.8)
                payload = client.update("karate", DELTA)
            assert payload["version"] == 2
            assert service.stats()["service"]["updates_applied"] == 1
            assert service.catalog.entry("karate").version == 2
        finally:
            router.close()

    def test_pool_resends_reads_but_never_updates(self):
        """A pooled connection the peer drops mid-exchange: reads retry once
        on a fresh connection, an update surfaces the transport error."""
        received = []

        async def upstream(reader, writer):
            served_here = 0
            while True:
                line = await reader.readline()
                if not line:
                    break
                headers = await repro_http._read_headers(reader)
                length = int(headers.get("content-length", 0))
                if length:
                    await reader.readexactly(length)
                received.append(line.split()[1].decode())
                if served_here == 1:  # drop the connection on its 2nd request
                    break
                served_here += 1
                writer.write(repro_http.encode_response(200, {"ok": True}))
                await writer.drain()
            writer.close()

        async def scenario():
            listener = await asyncio.start_server(upstream, "127.0.0.1", 0)
            endpoint = f"127.0.0.1:{listener.sockets[0].getsockname()[1]}"
            pool = UpstreamPool(MetricsRegistry())
            try:
                assert (await pool.request(endpoint, "GET", "/healthz"))[0] == 200
                assert (await pool.request(endpoint, "GET", "/healthz"))[0] == 200
                # The second read's pooled exchange failed: it was resent
                # on a fresh connection and does not count as reused.
                assert pool.opened.value == 2 and pool.reused.value == 0
                with pytest.raises((OSError, asyncio.IncompleteReadError)):
                    await pool.request(endpoint, "POST", "/update", b"{}")
            finally:
                pool.close()
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())
        assert received == ["/healthz", "/healthz", "/healthz", "/update"]

    def test_router_counts_connections_and_reuse(self, served):
        server, _, _ = served
        router = _router_over(f"127.0.0.1:{server.port}")
        try:
            with ClusterClient(port=router.port) as client:
                for terminals in ((1, 20), (2, 21), (3, 22), (1, 20), (2, 21)):
                    client.query("karate", KTerminalQuery(terminals=terminals))
                stats = client.stats()["http"]
                text = client.metrics()
            assert stats["connections_opened"] == 1
            assert stats["upstream_reused"] >= 4
            assert stats["upstream_opened"] < stats["upstream_reused"]
            assert "repro_http_connections_opened_total" in text
            assert "repro_router_upstream_reused_total" in text
            assert 'repro_http_responses_total{path="/query",status="200"} 5' in text
        finally:
            router.close()

    def test_router_oversized_body_rejected_413(self, served):
        import http.client

        server, _, _ = served
        router = _router_over(f"127.0.0.1:{server.port}")
        connection = http.client.HTTPConnection("127.0.0.1", router.port, timeout=10)
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()  # never send the body
            assert connection.getresponse().status == 413
        finally:
            connection.close()
            router.close()

    def test_forwarded_429_carries_retry_after(self):
        class Overloaded(http.server.BaseHTTPRequestHandler):
            """A replica that sheds every query, without a Retry-After."""

            def _answer(self, status, payload):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                self._answer(200, {"graphs": []})

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers["Content-Length"]))
                self._answer(429, {"error": "overloaded"})

            def log_message(self, *args):  # noqa: A003
                pass

        replica = http.server.HTTPServer(("127.0.0.1", 0), Overloaded)
        thread = threading.Thread(target=replica.serve_forever, daemon=True)
        thread.start()
        router = _router_over(f"127.0.0.1:{replica.server_port}")
        try:
            with ClusterClient(port=router.port, max_retries=0) as client:
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    client.query("karate", KTerminalQuery(terminals=(1, 34)))
            assert excinfo.value.retry_after == 1.0
        finally:
            router.close()
            replica.shutdown()
            replica.server_close()


# ----------------------------------------------------------------------
# The encode-once byte path
# ----------------------------------------------------------------------
class TestBytePath:
    def test_routed_answer_is_replica_answer_plus_served_by(self, served):
        server, _, _ = served
        router = _router_over(f"127.0.0.1:{server.port}")
        forwarded = []  # the replica's answers, as the router received them
        original = router._pool.request

        async def recording(*args, **kwargs):
            status, answer = await original(*args, **kwargs)
            if isinstance(answer, bytes):
                forwarded.append(json.loads(answer))
            return status, answer

        router._pool.request = recording
        query = KTerminalQuery(terminals=(3, 29))
        try:
            with ServiceClient("127.0.0.1", router.port) as client:
                routed = [client.query("karate", query).raw for _ in range(2)]
            with ServiceClient("127.0.0.1", server.port) as client:
                direct_hit = client.query("karate", query).raw
        finally:
            router.close()
        assert [answer["cached"] for answer in forwarded] == [False, True]
        for routed_answer, replica_answer in zip(routed, forwarded):
            assert routed_answer == {**replica_answer, "served_by": "replica-0"}
            assert list(routed_answer) == [*replica_answer, "served_by"]
        assert forwarded[1] == direct_hit  # a hit is the same bytes either way

    def test_traced_answer_through_router_leads_with_router_forward(self, served):
        server, _, _ = served
        router = _router_over(f"127.0.0.1:{server.port}")
        query = KTerminalQuery(terminals=(7, 26))
        try:
            with ClusterClient(port=router.port) as client:
                answers = [
                    client.query("karate", query, timings=True, trace_id="ab12cd34")
                    for _ in range(2)
                ]
        finally:
            router.close()
        assert [answer.cached for answer in answers] == [False, True]
        for answer in answers:
            timings = answer.raw["timings"]
            assert timings["trace_id"] == "ab12cd34"
            assert timings["spans"][0]["name"] == "router.forward"
            assert answer.raw["served_by"] == "replica-0"

    def test_one_liveness_read_per_forward(self, served):
        server, _, _ = served
        supervisor = _FakeSupervisor({"replica-0": f"127.0.0.1:{server.port}"})
        router = Router(supervisor, registry=MetricsRegistry()).start_background()
        try:
            with ClusterClient(port=router.port) as client:
                client.query("karate", KTerminalQuery(terminals=(1, 34)))  # learns fingerprints
                before = supervisor.live_reads
                client.query("karate", KTerminalQuery(terminals=(1, 34)))  # a hit
                client.query("karate", KTerminalQuery(terminals=(8, 25)))  # a miss
            assert supervisor.live_reads - before == 2
        finally:
            router.close()

    def test_client_checks_for_peer_close_only_before_an_update(self, served, monkeypatch):
        server, _, _ = served
        checks = []
        original = repro_client._peer_closed
        monkeypatch.setattr(
            repro_client, "_peer_closed", lambda sock: checks.append(sock) or original(sock)
        )
        with ServiceClient("127.0.0.1", server.port) as client:
            client.healthz()
            for _ in range(2):
                client.query("karate", KTerminalQuery(terminals=(1, 34)))
            client.update("karate", DELTA)
        assert len(checks) == 1


class TestClientFaults:
    """The blocking client against a raw-socket peer scripted to misbehave."""

    def test_truncated_body_raises_instead_of_hanging(self):
        peer = _ScriptedPeer([(_reply(200, b'{"status":', length=100), "close")])
        try:
            with ServiceClient("127.0.0.1", peer.port, timeout=30) as client:
                started = time.monotonic()
                with pytest.raises(ConnectionError):
                    client.healthz()
            assert time.monotonic() - started < 5.0
        finally:
            peer.close()

    def test_connection_close_reply_closes_the_socket(self):
        peer = _ScriptedPeer([
            (_reply(200, b'{"status":"ok"}', headers="Connection: close\r\n"), "await-eof"),
            (_reply(200, b'{"status":"again"}'), "keep"),
        ])
        try:
            with ServiceClient("127.0.0.1", peer.port, timeout=30) as client:
                assert client.healthz() == {"status": "ok"}
                assert peer.client_closed.wait(5)
                assert client.healthz() == {"status": "again"}
            assert peer.connections == 2
        finally:
            peer.close()

    def test_429_keeps_retry_after(self):
        peer = _ScriptedPeer(
            [(_reply(429, b'{"error":"busy"}', headers="Retry-After: 7\r\n"), "keep")]
        )
        try:
            with ServiceClient("127.0.0.1", peer.port, timeout=30) as client:
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    client.query("karate", KTerminalQuery(terminals=(1, 34)))
            assert excinfo.value.retry_after == 7.0
            assert excinfo.value.payload == {"error": "busy"}
        finally:
            peer.close()

    def test_metrics_text_comes_back_as_str(self):
        text = "# TYPE repro_up gauge\nrepro_up 1\n"
        peer = _ScriptedPeer(
            [(_reply(200, text.encode(), content_type=PROMETHEUS_CONTENT_TYPE), "keep")]
        )
        try:
            with ServiceClient("127.0.0.1", peer.port, timeout=30) as client:
                assert client.metrics() == text
        finally:
            peer.close()
