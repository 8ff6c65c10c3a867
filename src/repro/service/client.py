"""A small blocking client for the service's JSON/HTTP protocol.

:class:`ServiceClient` speaks HTTP/1.1 itself over a plain socket
(stdlib only): one persistent keep-alive connection per calling thread,
reused across calls until :meth:`~ServiceClient.close`, one ``sendall``
per request framed by :func:`repro.service.http.encode_request`, and an
answer read as status line, headers, and ``Content-Length`` body.  It
translates the wire format back into typed objects:
``query`` / ``query_batch`` accept :class:`~repro.engine.queries.Query`
objects (or their ``to_dict`` forms) and return
:class:`ServiceResponse` values whose ``result`` is rebuilt through
:func:`~repro.engine.queries.result_from_dict`.

Example
-------
>>> from repro.service import ServiceClient
>>> from repro.engine.queries import KTerminalQuery
>>> with ServiceClient("127.0.0.1", 8350) as client:    # doctest: +SKIP
...     answer = client.query("karate", KTerminalQuery(terminals=(1, 34)))
>>> answer.result.reliability, answer.cached             # doctest: +SKIP
(0.63, False)
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.deltas import DeltaOp
from repro.engine.queries import Query, QueryResult, result_from_dict
from repro.exceptions import ReproError
from repro.obs.trace import TRACE_HEADER
from repro.service.http import encode_request, is_idempotent, json_bytes

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceResponse",
]

QueryLike = Union[Query, Mapping[str, Any]]
DeltaLike = Union[DeltaOp, Mapping[str, Any]]


class ServiceError(ReproError):
    """The server answered with an error status.

    Attributes
    ----------
    status:
        The HTTP status code.
    payload:
        The decoded JSON error body (``{}`` when undecodable).
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(
            f"service answered {status}: {payload.get('error', payload)!r}"
        )


class ServiceOverloadedError(ServiceError):
    """The server shed this request (HTTP 429); retry after a backoff.

    Attributes
    ----------
    retry_after:
        The server's ``Retry-After`` hint in seconds, or ``None`` when the
        header was absent or unparseable.  :class:`ServiceClient` honors
        it when retries are enabled.
    """

    def __init__(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after: Optional[float] = None,
    ) -> None:
        self.retry_after = retry_after
        super().__init__(status, payload)


@dataclass
class ServiceResponse:
    """One answered query: the typed result plus serving metadata."""

    graph: str
    kind: str
    cached: bool
    checksum: str
    result: QueryResult
    raw: Dict[str, Any] = field(repr=False, default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ServiceResponse":
        return cls(
            graph=payload["graph"],
            kind=payload["kind"],
            cached=bool(payload.get("cached", False)),
            checksum=payload["checksum"],
            result=result_from_dict(payload["result"]),
            raw=payload,
        )


class ServiceClient:
    """Blocking client of one service endpoint.

    Parameters
    ----------
    host / port:
        The server address (e.g. from ``ServiceServer.port``).
    timeout:
        Per-request socket timeout in seconds.
    max_retries:
        How many times a request shed with 429 is retried before the
        :class:`ServiceOverloadedError` propagates.  ``0`` (the default)
        keeps the historical fail-fast behavior — retrying is opt-in
        because it can amplify load on an already saturated server; the
        cluster client turns it on, where the router's replica pool makes
        a short wait productive.
    backoff:
        Base of the exponential backoff: retry ``i`` waits
        ``backoff * 2**i`` seconds — unless the server's ``Retry-After``
        header names a longer wait, which takes precedence (the server
        knows its queue depth; the client is guessing).
    max_backoff:
        Upper bound on any single wait, whatever its source.
    sleep:
        Injectable sleep function, for tests.

    Each thread that calls the client gets its own persistent connection.
    :meth:`close` (or leaving a ``with`` block) closes all of them; a
    closed client reconnects if used again.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8350,
        *,
        timeout: float = 300.0,
        max_retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._max_backoff = max_backoff
        self._sleep = sleep
        self._authority = f"{host}:{port}"
        self._local = threading.local()
        # Weak: a thread's connection lives as long as its thread-local
        # holder, so a finished thread leaves no socket behind.
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every connection this client holds, one per thread."""
        self._local = threading.local()  # each thread reconnects on next use
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """The liveness payload of ``GET /healthz``."""
        return self._request("GET", "/healthz")

    def graphs(self) -> List[Dict[str, Any]]:
        """The catalog summaries of ``GET /graphs``."""
        return self._request("GET", "/graphs")["graphs"]

    def stats(self) -> Dict[str, Any]:
        """The counters of ``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The Prometheus text exposition of ``GET /metrics``."""
        return self._request("GET", "/metrics")

    def query(
        self,
        graph: str,
        query: QueryLike,
        *,
        timings: bool = False,
        trace_id: Optional[str] = None,
    ) -> ServiceResponse:
        """Answer one query on the named graph.

        ``timings=True`` asks the server for the per-stage ``"timings"``
        section (available on ``response.raw["timings"]``); ``trace_id``
        pins the request's trace id — propagated in the
        ``X-Repro-Trace`` header, so one id follows the request across
        hops.
        """
        body = {"graph": graph, "query": _query_dict(query)}
        if timings:
            body["timings"] = True
        headers = {TRACE_HEADER: trace_id} if trace_id else None
        payload = self._request("POST", "/query", body, extra_headers=headers)
        return ServiceResponse.from_payload(payload)

    def query_batch(
        self, graph: str, queries: Sequence[QueryLike]
    ) -> List[Union[ServiceResponse, Dict[str, Any]]]:
        """Answer a batch; failed items come back as their error dicts."""
        payload = self._request(
            "POST",
            "/query_batch",
            {"graph": graph, "queries": [_query_dict(query) for query in queries]},
        )
        outcomes: List[Union[ServiceResponse, Dict[str, Any]]] = []
        for item in payload["results"]:
            if "error" in item:
                outcomes.append(item)
            else:
                outcomes.append(ServiceResponse.from_payload(item))
        return outcomes

    def update(self, graph: str, delta: DeltaLike) -> Dict[str, Any]:
        """Apply a typed graph delta through ``POST /update``.

        Accepts any :mod:`repro.engine.deltas` value or its ``to_dict``
        wire form; returns the server's update payload (old/new
        fingerprint, version, ``incremental`` flag, invalidation counts).

        Deliberately *not* retried on 429, unlike every other endpoint:
        an update is not idempotent (an ``add-edge`` without a pinned
        ``edge_id`` allocates a fresh id per application), and a shed
        request gives no signal about whether it was applied.  A 403
        (read-only replica) surfaces as a :class:`ServiceError`.
        """
        return self._request_once(
            "POST", "/update", {"graph": graph, "delta": _delta_dict(delta)}
        )

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One logical request: a 429 is retried up to ``max_retries`` times.

        Safe to retry unconditionally: every endpoint routed through here
        is idempotent (the service's answers are pure functions of the
        request), so a shed request repeated is the same request.
        :meth:`update` is the exception — it calls ``_request_once``
        directly because applying a delta twice is not applying it once.
        """
        for attempt in range(self._max_retries + 1):
            try:
                return self._request_once(
                    method, path, body, extra_headers=extra_headers
                )
            except ServiceOverloadedError as error:
                if attempt >= self._max_retries:
                    raise
                wait = self._backoff * (2 ** attempt)
                if error.retry_after is not None:
                    wait = max(wait, error.retry_after)
                self._sleep(min(max(wait, 0.0), self._max_backoff))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Any:
        blob = json_bytes(body) if body is not None else b""
        message = encode_request(method, path, self._authority, blob, extra_headers)
        connection = self._connection()
        idempotent = is_idempotent(method, path)
        reused = connection.sock is not None
        if reused and not idempotent and _peer_closed(connection.sock):
            connection.close()  # the server closed it while idle
            reused = False
        try:
            status, headers, raw = connection.exchange(message)
        except ConnectionError:
            # A reused connection can still lose a race with the server's
            # idle close; resend only what is safe to send twice.
            if not (reused and idempotent):
                raise
            status, headers, raw = connection.exchange(message)
        if status == 200 and "application/json" not in headers.get("content-type", ""):
            return raw.decode("utf-8", "replace")  # /metrics answers Prometheus text
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if status == 429:
            raise ServiceOverloadedError(
                status, payload, retry_after=_parse_retry_after(headers.get("retry-after"))
            )
        if status != 200:
            raise ServiceError(status, payload)
        return payload

    def _connection(self) -> "_Connection":
        """This thread's persistent connection (opened on first send)."""
        holder = getattr(self._local, "holder", None)
        if holder is None:
            connection = _Connection((self._host, self._port), self._timeout)
            holder = self._local.holder = _ThreadConnection(connection)
            # The thread-local drops the holder when its thread ends (or
            # on close()): close the socket then.
            weakref.finalize(holder, connection.close)
            with self._connections_lock:
                self._connections.add(connection)
        return holder.connection


class _Connection:
    """A blocking HTTP/1.1 connection: one ``sendall`` per request, then
    the status line, headers, and ``Content-Length`` body of the answer.
    Reopened on the next request after the server or a failure closed it."""

    def __init__(self, address: Tuple[str, int], timeout: float) -> None:
        self._address, self._timeout = address, timeout
        self.sock: Optional[socket.socket] = None
        self._stream: Any = None

    def exchange(self, message: bytes) -> Tuple[int, Dict[str, str], bytes]:
        """``(status, headers, body)`` of one request; closes on any failure."""
        if self.sock is None:
            self.sock = socket.create_connection(self._address, self._timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._stream = self.sock.makefile("rb")
        try:
            self.sock.sendall(message)
            status_line = self._stream.readline()
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(f"bad status line {status_line!r}")
            headers: Dict[str, str] = {}
            while True:
                line = self._stream.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0))
            body = self._stream.read(length)
            if len(body) < length:
                raise ConnectionError(f"response body cut at {len(body)} of {length} bytes")
        except BaseException:
            self.close()
            raise
        if parts[0] != b"HTTP/1.1" or headers.get("connection", "").lower() == "close":
            self.close()
        return int(parts[1]), headers, body

    def close(self) -> None:
        if self.sock is not None:
            self._stream.close()
            self.sock.close()
            self.sock = self._stream = None


class _ThreadConnection:
    """One thread's connection, held only by that thread's thread-local."""

    def __init__(self, connection: _Connection) -> None:
        self.connection = connection


def _peer_closed(sock: Any) -> bool:
    """Whether an idle connection's socket is readable: the peer closed it
    (or sent bytes nobody asked for — unusable either way)."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):
        return True


def _parse_retry_after(header: Optional[str]) -> Optional[float]:
    """The ``Retry-After`` header as non-negative seconds, else ``None``.

    Only the delta-seconds form is parsed (it is all the server sends);
    the HTTP-date form and garbage both fall back to the client's own
    backoff schedule.
    """
    if header is None:
        return None
    try:
        seconds = float(header.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


def _query_dict(query: QueryLike) -> Dict[str, Any]:
    if isinstance(query, Query):
        return query.to_dict()
    return dict(query)


def _delta_dict(delta: DeltaLike) -> Dict[str, Any]:
    if isinstance(delta, DeltaOp):
        return delta.to_dict()
    return dict(delta)
