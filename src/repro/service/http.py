"""The one HTTP/1.1 layer under the service, the router, and its upstream.

Stdlib asyncio only; bodies carry a ``Content-Length`` (no chunked
encoding) and answers are JSON or Prometheus text.  Here live the
request reader (:data:`MAX_BODY_BYTES` limit → 413), the request framer
the router's upstream and the blocking client share, the response writer
(``Retry-After`` on 429), and :class:`HttpServer` — lifecycle, metering,
and the keep-alive loop that ``ServiceServer`` and ``Router`` subclass —
plus the router's :class:`UpstreamPool` of idle connections.

Connection rules.  A connection stays open for the next request unless
the request says ``Connection: close`` or speaks HTTP/1.0; the response
then says ``Connection: close`` and the server closes after it.  A
connection that sends no request line for :data:`IO_TIMEOUT` seconds is
idle, not broken: it is closed silently, unanswered and unmetered; a
request that stalls after its request line answers 400.  Over a reused
connection the peer has closed, only idempotent requests (``GET``,
``/query``, ``/query_batch``) are resent on a fresh one; ``POST /update``
is never sent twice — it checks for a peer close before reusing a
connection, and any later transport error reaches the caller.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry

__all__ = [
    "BadRequest", "HttpServer", "IO_TIMEOUT", "MAX_BODY_BYTES", "Request",
    "UpstreamPool", "encode_request", "encode_response", "is_idempotent", "json_body",
    "json_bytes", "read_request",
]

#: Largest request body a server will buffer (a query batch of thousands
#: of queries fits in a fraction of this).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Seconds a connection may stay idle, and a request may take to arrive.
IO_TIMEOUT = 30.0

#: Idle connections kept per upstream endpoint; more are closed on release.
POOL_SIZE = 8

#: Paths metered under their own label; everything else is "other", so a
#: scanner cannot blow up the metric's cardinality.
METERED_PATHS = frozenset(
    {"/healthz", "/graphs", "/stats", "/metrics", "/query", "/query_batch", "/update"}
)

#: POST paths whose answer is a pure function of the request.
_IDEMPOTENT_POSTS = frozenset({"/query", "/query_batch"})

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class BodyTooLarge(ValueError):
    """A declared Content-Length beyond :data:`MAX_BODY_BYTES`."""


class BadRequest(ValueError):
    """A request the connection loop answers 400 (raised by handlers)."""


@dataclass
class Request:
    """One parsed request; ``path`` has its query string stripped."""

    method: str
    path: str
    body: bytes
    headers: Dict[str, str]
    keep_alive: bool


def json_body(request: Request, *required: str) -> Dict[str, Any]:
    """The body as a JSON object holding ``required``, else :class:`BadRequest`."""
    try:
        payload = json.loads(request.body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        for field in required:
            payload[field]
    except (ValueError, KeyError) as error:
        raise BadRequest(f"bad request body: {error}") from None
    return payload


def is_idempotent(method: str, path: str) -> bool:
    """Whether resending the request cannot change the server's state."""
    return method == "GET" or path in _IDEMPOTENT_POSTS


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _read_rest(reader: asyncio.StreamReader, line: bytes) -> Request:
    parts = line.decode("ascii", "replace").split()
    if len(parts) < 2:
        raise ValueError(f"bad request line {line!r}")
    headers = await _read_headers(reader)
    length = int(headers.get("content-length", 0))
    if length > MAX_BODY_BYTES:
        raise BodyTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    body = await reader.readexactly(length) if length else b""
    keep_alive = (
        len(parts) > 2
        and parts[2].upper() == "HTTP/1.1"
        and headers.get("connection", "").lower() != "close"
    )
    return Request(parts[0].upper(), parts[1].split("?", 1)[0], body, headers, keep_alive)


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """The next request, or ``None`` when the peer closed or idled out.

    Raises :class:`asyncio.TimeoutError` when the request stalls after
    its request line, :class:`BodyTooLarge` past the body limit, and
    :class:`ValueError` on a malformed request.
    """
    line = b""

    async def _read() -> Optional[Request]:
        nonlocal line
        line = await reader.readline()
        return await _read_rest(reader, line) if line.strip() else None

    try:
        return await asyncio.wait_for(_read(), IO_TIMEOUT)
    except asyncio.TimeoutError:
        if line:
            raise
        return None  # idle: no request line arrived


def json_bytes(payload: Any) -> bytes:
    """``payload`` as compact JSON bytes: the one form answers are stored and sent in."""
    return json.dumps(payload, separators=(",", ":"), default=repr).encode("utf-8")


def encode_request(
    method: str, path: str, host: str, body: bytes = b"", headers: Optional[Dict[str, str]] = None
) -> bytes:
    """One request's bytes; a non-empty ``body`` is sent as JSON."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    if body:
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def encode_response(status: int, payload: Any, *, keep_alive: bool = True) -> bytes:
    """One response's bytes: Prometheus text for a ``str``, else JSON (``bytes`` as is)."""
    if isinstance(payload, str):
        blob = payload.encode("utf-8")
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        blob = payload if isinstance(payload, bytes) else json_bytes(payload)
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(blob)}",
    ]
    if not keep_alive:
        lines.append("Connection: close")
    if status == 429:
        lines.append("Retry-After: 1")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + blob


class HttpServer:
    """Lifecycle and keep-alive connection loop of an asyncio HTTP server.

    Subclasses answer requests in :meth:`handle`; an exception escaping
    it answers 500.  ``start_background`` runs the server on a daemon
    thread with its own loop — how tests, benchmarks, and the CLIs embed
    one: ``server.start_background()``, talk to ``server.port``, then
    ``server.close()``, which also closes every open connection.
    """

    _thread_name = "repro-http"
    _not_started: type = ConfigurationError

    def __init__(
        self, host: str, port: int, registry: MetricsRegistry, latency: Tuple[str, str]
    ) -> None:
        self._host = host
        self._requested_port = port
        # ``latency`` (name, help) keeps the service's and the router's
        # histograms apart: the router re-emits replica series next to
        # its own.  The counters share one name on both.
        self._latency = registry.histogram(*latency, labels=("path",))
        self._responses = registry.counter(
            "repro_http_responses_total",
            "HTTP responses by path and status code.",
            labels=("path", "status"),
        )
        self.connections_opened = registry.counter(
            "repro_http_connections_opened_total",
            "Client connections accepted by the HTTP front-end.",
        )
        self._connections: Set["asyncio.Task[None]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._port: Optional[int] = None

    @property
    def host(self) -> str:
        """The bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (available once the server has started)."""
        if self._port is None:
            raise self._not_started("the server has not been started yet")
        return self._port

    @property
    def address(self) -> str:
        """``host:port`` of the running server."""
        return f"{self._host}:{self.port}"

    async def start(self) -> "HttpServer":
        """Bind and start accepting connections on the running loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """:meth:`start` (when needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def start_background(self) -> "HttpServer":
        """Run the server on a daemon thread; returns once it is bound."""
        ready = threading.Event()
        startup_error: Dict[str, BaseException] = {}

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as error:  # surface bind failures to the caller
                startup_error["error"] = error
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=_run, name=self._thread_name, daemon=True)
        self._thread.start()
        ready.wait()
        if "error" in startup_error:
            raise startup_error["error"]
        return self

    def close(self) -> None:
        """Stop accepting, close every connection, stop the loop thread."""
        loop = self._loop
        if loop is not None and self._server is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    async def _shutdown(self) -> None:
        assert self._server is not None
        self._server.close()
        for task in list(self._connections):
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self._on_shutdown()
        asyncio.get_running_loop().stop()

    async def _on_shutdown(self) -> None:
        """Release subclass resources on the loop before it stops."""

    async def handle(self, request: Request) -> Tuple[int, Any]:
        """``(status, payload)`` for one request."""
        raise NotImplementedError

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.connections_opened.inc()
        try:
            while True:
                request: Optional[Request] = None
                try:
                    request = await read_request(reader)
                    if request is None:
                        return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except asyncio.TimeoutError:
                    status, payload = 400, {"error": "request read timed out"}
                except BodyTooLarge as error:
                    status, payload = 413, {"error": str(error)}
                except Exception as error:
                    status, payload = 400, {"error": f"malformed request: {error}"}
                else:
                    started = time.perf_counter()
                    try:
                        status, payload = await self.handle(request)
                    except BadRequest as error:
                        status, payload = 400, {"error": str(error)}
                    except Exception as error:
                        # Read errors above are the client's fault (4xx);
                        # anything escaping the handler is ours.
                        status, payload = 500, {
                            "error": str(error),
                            "error_type": type(error).__name__,
                        }
                    label = request.path if request.path in METERED_PATHS else "other"
                    self._latency.labels(path=label).observe(time.perf_counter() - started)
                    self._responses.labels(path=label, status=str(status)).inc()
                # A request that failed to parse leaves the stream at an
                # unknown position: answer it, then close.
                keep_alive = request is not None and request.keep_alive
                writer.write(encode_response(status, payload, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            # Cancelled only by _shutdown.  Ending the task normally keeps
            # asyncio's stream server (which reads task.exception() when
            # the task ends, on Python 3.11) from logging the cancellation.
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class UpstreamPool:
    """Idle keep-alive connections to upstream endpoints, a few per endpoint.

    Used from one event loop only (the router's), so it takes no lock.
    ``opened`` counts connections opened; ``reused`` counts requests
    answered over a pooled connection.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        #: ``{endpoint: [(reader, writer, idle since), ...]}``
        self._idle: Dict[str, List[Tuple[Any, Any, float]]] = {}
        self.opened = registry.counter(
            "repro_router_upstream_opened_total",
            "Router-to-replica connections opened.",
        )
        self.reused = registry.counter(
            "repro_router_upstream_reused_total",
            "Router-to-replica requests answered over a pooled connection.",
        )

    async def request(
        self,
        endpoint: str,
        method: str,
        path: str,
        body: bytes = b"",
        *,
        headers: Optional[Dict[str, str]] = None,
        raw: bool = False,
    ) -> Tuple[int, Any]:
        """One exchange with ``endpoint``: ``(status, parsed JSON)``.

        With ``raw`` the body comes back as the bytes received instead
        (forwarded answers, and the ``/metrics`` scrape's text).
        """
        message = encode_request(method, path, endpoint, body, headers)
        answer = None
        connection = self._take(endpoint)
        if connection is not None:
            try:
                answer = await self._exchange(endpoint, connection, message)
            except (OSError, asyncio.IncompleteReadError):
                if not is_idempotent(method, path):
                    raise
                # The peer closed the pooled connection while it sat idle
                # (a restart, or its idle timeout): resending is safe.
            else:
                self.reused.inc()
        if answer is None:
            if endpoint not in self._idle:
                self._prune()
            host, _, port = endpoint.rpartition(":")
            connection = await asyncio.open_connection(host, int(port))
            self.opened.inc()
            answer = await self._exchange(endpoint, connection, message)
        status, blob = answer
        if raw:
            return status, blob
        try:
            return status, json.loads(blob.decode("utf-8"))
        except ValueError:
            return status, {"error": blob.decode("utf-8", "replace")}

    def _take(self, endpoint: str) -> Optional[_Connection]:
        """A pooled connection that shows no peer close and is not near
        the peer's idle timeout, else ``None``."""
        idle = self._idle.get(endpoint)
        now = time.monotonic()
        while idle:
            reader, writer, since = idle.pop()
            if reader.at_eof() or writer.is_closing() or now - since > IO_TIMEOUT / 2:
                writer.close()
                continue
            return reader, writer
        return None

    def _prune(self) -> None:
        """Close idle connections the peer closed (a dead replica's)."""
        for idle in self._idle.values():
            for entry in [e for e in idle if e[0].at_eof() or e[1].is_closing()]:
                idle.remove(entry)
                entry[1].close()

    def discard(self, endpoint: str) -> None:
        """Close every idle connection to ``endpoint`` (it just failed)."""
        for _, writer, _ in self._idle.pop(endpoint, []):
            writer.close()

    def close(self) -> None:
        """Close every idle connection."""
        for endpoint in list(self._idle):
            self.discard(endpoint)

    async def _exchange(
        self, endpoint: str, connection: _Connection, message: bytes
    ) -> Tuple[int, bytes]:
        """Send ``message``, read the response: ``(status, body)``."""
        reader, writer = connection
        reusable = False
        try:
            writer.write(message)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("ascii", "replace").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"bad status line {status_line!r}")
            headers = await _read_headers(reader)
            length = int(headers.get("content-length", 0))
            blob = await reader.readexactly(length) if length else b""
            reusable = (
                parts[0].upper() == "HTTP/1.1"
                and headers.get("connection", "").lower() != "close"
            )
        finally:
            # A cancelled or failed exchange leaves the stream mid-message.
            idle = self._idle.setdefault(endpoint, [])
            if reusable and len(idle) < POOL_SIZE:
                idle.append((reader, writer, time.monotonic()))
            else:
                writer.close()
        return int(parts[1]), blob
