"""Stdlib JSON/HTTP front-end for the revision service.

A thin :class:`ThreadingHTTPServer` adapter — each connection is handled
on its own thread, submits into the shared service and blocks on its
future, so concurrency is bounded by the serving queue and engine, not
by HTTP.  The front-end speaks HTTP/1.1 with ``TCP_NODELAY``: a
connection stays open across requests until the client sends
``Connection: close``, idles past ``handler_timeout_s``, or the
front-end stops.  The service may be a single-process
:class:`~repro.serving.server.RevisionServer` or a multi-process
:class:`~repro.serving.fleet.EngineFleet`; both expose the same
``submit`` / ``metrics_snapshot`` / ``health`` protocol.  Endpoints:

``POST /revise``
    Body ``{"instruction": str, "response": str, "pair_id"?, "priority"?,
    "deadline_s"?, "timeout_s"?}``.  Replies ``200`` with
    ``{"instruction", "response", "outcome", "source", "latency_s",
    "generated_tokens"}``; ``400`` on a malformed payload; ``408`` when
    the client announces a body and then stalls sending it for more than
    ``handler_timeout_s`` (the connection is closed after); ``413`` when
    the body exceeds ``max_body_bytes``; ``429`` with a ``Retry-After``
    header when admission control rejects; ``503`` with ``Retry-After``
    when the request was shed (overload, degraded fleet, or drain mode);
    ``504`` when the result misses ``timeout_s``, or — with
    ``Retry-After`` — when the request's own ``deadline_s`` expired in
    the queue (the starvation guard under a saturating higher-priority
    stream).  With ``"stream":
    true`` the reply is instead an EOF-delimited ``text/event-stream``
    of ``data: {json}`` events — ``tokens`` deltas as the engine
    produces them, then one terminal ``done``/``error`` (see
    ``docs/streaming.md``); ``501`` when the service cannot stream
    (the multi-process fleet).
``POST /score``
    Same request body and error semantics; the pair is teacher-force
    scored instead of revised (IFD — see ``docs/scoring.md``).  Replies
    ``200`` with ``{"conditioned_nll", "unconditioned_nll", "ifd",
    "response_perplexity", "n_tokens", "outcome", "source",
    "latency_s"}``; the numeric fields are ``null`` when the pair was
    unscoreable (outcome ``prompt_too_long``).
``GET /metrics``
    The :meth:`ServingMetrics.snapshot` JSON (latency percentiles,
    tokens/sec, per-source counts, queue depth) plus an ``engine``
    section with occupancy and the KV pool's ``free_pages`` headroom —
    the admission-pressure gauges that move before the bounded queue
    starts answering 429.
``GET /healthz``
    The service's :meth:`health` payload (``status`` is ``"draining"``
    while the front-end refuses new work).

**Graceful drain**: :meth:`RevisionHTTPFrontend.drain` flips the
front-end into drain mode — new ``POST /revise`` requests are refused
with ``503`` + ``Retry-After`` while the requests already being handled
run to completion — and returns once the last in-flight request has
been answered.  Monitoring endpoints keep answering throughout, so
orchestrators watch the drain finish before SIGTERM turns into SIGKILL.

**Connection reuse**: a reply sent before the request body was read
carries ``Connection: close`` and ends the connection, so unread body
bytes are never parsed as the next request.  Those replies are the two
draining ``503`` replies, ``404`` for an unknown ``POST`` path, ``413``,
``400`` for a malformed or missing ``Content-Length`` (a chunked upload
has none), and ``408``.  SSE streams also close at their end.
:meth:`RevisionHTTPFrontend.stop` ends every connection: idle ones
close at once, and one mid-request closes right after its reply.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..data.instruction_pair import InstructionPair
from ..errors import AdmissionError, OverloadError, ServingError
from .requests import OUTCOME_EXPIRED, SOURCE_SHED


def _make_handler(
    frontend: "RevisionHTTPFrontend",
    default_timeout_s: float,
    max_body_bytes: int,
    handler_timeout_s: float,
) -> type[BaseHTTPRequestHandler]:
    service = frontend.service

    class RevisionHandler(BaseHTTPRequestHandler):
        server_version = "CoachLMRevision/1.0"
        #: Persistent connections: one TCP connection carries a client's
        #: requests until either side says ``Connection: close``.
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True
        #: Socket timeout for every read on the connection — a slow-loris
        #: client (bytes trickling in, or none at all) or an abandoned
        #: kept-alive connection cannot pin a handler thread forever.
        #: ``socketserver`` applies this via ``connection.settimeout`` in
        #: ``setup()``.
        timeout = handler_timeout_s

        def log_message(self, *args: object) -> None:  # silence stderr
            pass

        def setup(self) -> None:
            super().setup()
            self._busy = False
            if not frontend._mark_idle(self):
                _shutdown_socket(self.connection)  # accepted as stop() began

        def finish(self) -> None:
            frontend._forget(self)
            super().finish()

        def handle(self) -> None:
            # A peer that vanished (RST mid-request) or stalled past the
            # socket timeout is routine network weather, not a handler
            # crash: drop the connection without a traceback.
            try:
                super().handle()
            except (ConnectionError, TimeoutError):
                self.close_connection = True

        def parse_request(self) -> bool:
            if not super().parse_request():
                return False
            # A request that arrives once stop() began is never served.
            self._busy = frontend._mark_busy(self)
            if not self._busy:
                self.close_connection = True
            return self._busy

        def handle_one_request(self) -> None:
            try:
                super().handle_one_request()
            finally:
                if self._busy and not frontend._mark_idle(self):
                    self.close_connection = True
                self._busy = False

        def _reply(
            self,
            status: int,
            payload: dict,
            headers: dict[str, str] | None = None,
            close: bool = False,
        ) -> None:
            """Send one JSON reply; ``close`` ends the connection after it
            (required whenever the request body was left unread)."""
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                if close:
                    # send_header also sets close_connection.
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)
            except (ConnectionError, BrokenPipeError, TimeoutError):
                # The client disconnected mid-reply.  The work is done
                # and cached server-side; a retry will find it there.
                self.close_connection = True

        def do_GET(self) -> None:
            if self.path == "/metrics":
                # Queue depth + the engine's free-page/free-slot headroom:
                # the gauges that show admission pressure building before
                # submit() starts answering 429.
                self._reply(200, service.metrics_snapshot())
            elif self.path == "/healthz":
                health = service.health()
                if frontend.draining:
                    health["status"] = "draining"
                self._reply(200, health)
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:
            # Every refusal before the body is read closes the connection.
            if self.path not in ("/revise", "/score"):
                self._reply(
                    404, {"error": f"unknown path {self.path!r}"}, close=True
                )
                return
            if frontend.draining or not frontend.track_request():
                # Refuse before reading the body: a draining front-end
                # spends no work on requests it will not serve.
                self._reply(
                    503,
                    {"error": "service is draining"},
                    headers={"Retry-After": frontend.retry_after_header},
                    close=True,
                )
                return
            try:
                self._handle_submit(scoring=self.path == "/score")
            finally:
                frontend.untrack_request()

        def _handle_submit(self, scoring: bool) -> None:
            try:
                length = int(self.headers.get("Content-Length", ""))
            except ValueError:
                length = -1
            if length < 0 or "Transfer-Encoding" in self.headers:
                # The body's extent is unknown — the length is missing (a
                # chunked upload has none), not a number, or negative
                # (rfile.read would read to EOF and pin the handler
                # thread) — so the body stays unread.
                self._reply(
                    400, {"error": "malformed Content-Length"}, close=True
                )
                return
            if length > max_body_bytes:
                # Reject before reading: an oversized body never buffers.
                self._reply(
                    413,
                    {
                        "error": (
                            f"payload of {length} bytes exceeds the "
                            f"{max_body_bytes}-byte limit"
                        )
                    },
                    close=True,
                )
                return
            try:
                raw = self.rfile.read(length)
            except TimeoutError:
                # The client announced a body and then stalled sending
                # it: answer 408 and close rather than pinning the
                # handler thread on a half-sent request.
                self._reply(
                    408,
                    {
                        "error": (
                            "request body stalled for more than "
                            f"{handler_timeout_s}s"
                        )
                    },
                    close=True,
                )
                return
            try:
                blob = json.loads(raw or b"")
            except (ValueError, json.JSONDecodeError):
                self._reply(400, {"error": "body must be a JSON object"})
                return
            if (
                not isinstance(blob, dict)
                or not isinstance(blob.get("instruction"), str)
                or not isinstance(blob.get("response"), str)
            ):
                self._reply(
                    400,
                    {"error": "required string fields: instruction, response"},
                )
                return
            pair = InstructionPair(
                instruction=blob["instruction"],
                response=blob["response"],
                pair_id=str(blob.get("pair_id", "")),
            )
            try:
                priority = int(blob.get("priority", 0))
                deadline_s = blob.get("deadline_s")
                deadline_s = None if deadline_s is None else float(deadline_s)
                timeout_s = float(blob.get("timeout_s", default_timeout_s))
            except (TypeError, ValueError):
                self._reply(400, {"error": "malformed numeric field"})
                return
            if not scoring and bool(blob.get("stream")):
                self._handle_stream(pair, priority, deadline_s, timeout_s)
                return
            try:
                if scoring:
                    future = service.submit_score(
                        pair, priority=priority, deadline_s=deadline_s
                    )
                else:
                    future = service.submit(
                        pair, priority=priority, deadline_s=deadline_s
                    )
            except OverloadError as error:
                # Shed, not merely queued-out: the service chose to drop
                # load (drain, degraded fleet, or a lost priority fight).
                self._reply(
                    503,
                    {"error": str(error)},
                    headers={
                        "Retry-After": _retry_after(error.retry_after_s)
                    },
                )
                return
            except AdmissionError as error:
                # Back-pressure: tell well-behaved clients when to retry
                # (one engine drain of the queue is a reasonable horizon).
                self._reply(
                    429, {"error": str(error)}, headers={"Retry-After": "1"}
                )
                return
            try:
                result = future.result(timeout=timeout_s)
            except ServingError as error:
                self._reply(504, {"error": str(error)})
                return
            if result.source == SOURCE_SHED:
                # Accepted but displaced by a higher-priority request
                # while queued: to the HTTP client that is an overload.
                self._reply(
                    503,
                    {"error": "request was shed under load"},
                    headers={"Retry-After": frontend.retry_after_header},
                )
                return
            if result.outcome == OUTCOME_EXPIRED:
                # The starvation guard fired: a saturating higher-priority
                # stream held this request off the queue head until its
                # deadline.  Typed, with a retry hint — never an
                # unbounded wait.
                self._reply(
                    504,
                    {"error": "deadline expired before decoding"},
                    headers={"Retry-After": frontend.retry_after_header},
                )
                return
            if scoring:
                score = result.score or {}
                self._reply(200, {
                    "conditioned_nll": score.get("conditioned_nll"),
                    "unconditioned_nll": score.get("unconditioned_nll"),
                    "ifd": score.get("ifd"),
                    "response_perplexity": score.get("response_perplexity"),
                    "n_tokens": score.get("n_tokens"),
                    "outcome": result.outcome,
                    "source": result.source,
                    "latency_s": round(result.latency_s, 6),
                })
                return
            self._reply(200, {
                "instruction": result.pair.instruction,
                "response": result.pair.response,
                "outcome": result.outcome,
                "source": result.source,
                "latency_s": round(result.latency_s, 6),
                "generated_tokens": result.generated_tokens,
            })

        def _handle_stream(
            self,
            pair: InstructionPair,
            priority: int,
            deadline_s: float | None,
            timeout_s: float,
        ) -> None:
            """``POST /revise`` with ``"stream": true``: SSE token events.

            The reply carries no ``Content-Length`` and closes the
            connection at the end (EOF-delimited), so tokens flush to
            the client as the engine produces them.  Events are
            ``data: {json}\\n\\n`` lines: ``tokens`` (incremental ids),
            then exactly one of ``done`` (the full result — a
            preemption shows up only as a gap between token events) or
            ``error``.  A client that disconnects mid-stream cancels
            the engine sequence: its pages recycle and only this
            handler thread is spent.
            """
            if not hasattr(service, "submit_stream"):
                self._reply(
                    501,
                    {"error": "streaming is not supported by this service"},
                )
                return
            try:
                stream = service.submit_stream(
                    pair, priority=priority, deadline_s=deadline_s
                )
            except OverloadError as error:
                self._reply(
                    503,
                    {"error": str(error)},
                    headers={"Retry-After": _retry_after(error.retry_after_s)},
                )
                return
            except AdmissionError as error:
                self._reply(
                    429, {"error": str(error)}, headers={"Retry-After": "1"}
                )
                return
            try:
                self.send_response(200)
                self.send_header("Content-Type", "text/event-stream")
                self.send_header("Cache-Control", "no-store")
                self.send_header("Connection", "close")
                self.end_headers()
            except (ConnectionError, BrokenPipeError, TimeoutError):
                stream.cancel()
                self.close_connection = True
                return
            deadline = time.monotonic() + timeout_s
            while True:
                remaining = deadline - time.monotonic()
                event = stream.get(timeout=max(remaining, 0.0))
                if event is None:
                    stream.cancel()
                    self._stream_event({
                        "event": "error",
                        "error": f"no result within {timeout_s}s",
                    })
                    self.close_connection = True
                    return
                if event[0] == "tokens":
                    ok = self._stream_event(
                        {"event": "tokens", "token_ids": event[1]}
                    )
                elif event[0] == "done":
                    result = event[1]
                    self._stream_event({
                        "event": "done",
                        "instruction": result.pair.instruction,
                        "response": result.pair.response,
                        "outcome": result.outcome,
                        "source": result.source,
                        "latency_s": round(result.latency_s, 6),
                        "generated_tokens": result.generated_tokens,
                    })
                    self.close_connection = True
                    return
                else:
                    self._stream_event(
                        {"event": "error", "error": str(event[1])}
                    )
                    self.close_connection = True
                    return
                if not ok:
                    # Mid-stream disconnect: the peer is gone, so the
                    # sequence is cancelled and its pages recycle.
                    stream.cancel()
                    self.close_connection = True
                    return

        def _stream_event(self, payload: dict) -> bool:
            """Write one SSE event; False when the peer has vanished."""
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            try:
                self.wfile.write(b"data: " + data + b"\n\n")
                self.wfile.flush()
                return True
            except (ConnectionError, BrokenPipeError, TimeoutError, OSError):
                return False

    return RevisionHandler


def _shutdown_socket(sock: socket.socket) -> None:
    """Wake the handler blocked reading ``sock``: its read sees EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed by its handler


def _retry_after(seconds: float) -> str:
    """Retry-After is an integer header; round up so 0.5s never becomes
    an immediate (0-second) retry stampede."""
    return str(max(1, int(seconds + 0.999)))


class RevisionHTTPFrontend:
    """Owns a :class:`ThreadingHTTPServer` bound to one revision service.

    ``service`` is anything implementing the revision-service protocol
    (``submit``/``start``/``stop``/``metrics_snapshot``/``health``) — a
    :class:`RevisionServer` or an :class:`EngineFleet`.  ``port=0``
    binds an ephemeral port; read :attr:`address` after construction.
    Starting the front-end also starts the underlying service.
    ``max_body_bytes`` bounds the ``POST /revise`` payload (``413``
    beyond it, rejected before the body is read).  ``handler_timeout_s``
    is the per-connection socket timeout: a client that stalls
    mid-request gets ``408`` (announced body never arrived) or a closed
    connection (headers never arrived) instead of a pinned handler
    thread, and a kept-alive connection idle for that long is closed.
    Use as a context manager or call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 60.0,
        max_body_bytes: int = 1 << 20,
        drain_retry_after_s: float = 1.0,
        handler_timeout_s: float = 30.0,
    ):
        self.service = service
        self.draining = False
        self.drain_retry_after_s = drain_retry_after_s
        self._inflight = 0
        self._lock = threading.Lock()
        #: Set by :meth:`stop`; from then on no connection starts a request.
        self._closing = False
        #: Handlers of open connections waiting for their next request.
        self._idle: set[BaseHTTPRequestHandler] = set()
        self.httpd = ThreadingHTTPServer(
            (host, port),
            _make_handler(
                self, request_timeout_s, max_body_bytes, handler_timeout_s
            ),
        )
        self._thread: threading.Thread | None = None

    @property
    def revision_server(self):
        """Backwards-compatible alias for :attr:`service`."""
        return self.service

    @property
    def retry_after_header(self) -> str:
        return _retry_after(self.drain_retry_after_s)

    @property
    def address(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def inflight_requests(self) -> int:
        with self._lock:
            return self._inflight

    def track_request(self) -> bool:
        """Count one ``POST /revise`` as in flight; False once draining."""
        with self._lock:
            if self.draining:
                return False
            self._inflight += 1
            return True

    def untrack_request(self) -> None:
        with self._lock:
            self._inflight -= 1

    # -- connection lifecycle ------------------------------------------------------
    # A connection is idle (in ``_idle``) between requests and busy while
    # one is handled.  stop() shuts idle sockets down and refuses every
    # request not yet started, so an orphaned handler thread never serves.
    def _mark_idle(self, handler: BaseHTTPRequestHandler) -> bool:
        """Track the connection as idle; False (close it) once stopping."""
        with self._lock:
            if self._closing:
                return False
            self._idle.add(handler)
            return True

    def _mark_busy(self, handler: BaseHTTPRequestHandler) -> bool:
        """Track the connection as mid-request; False (refuse the
        request) once stopping."""
        with self._lock:
            if self._closing:
                return False
            self._idle.discard(handler)
            return True

    def _forget(self, handler: BaseHTTPRequestHandler) -> None:
        with self._lock:
            self._idle.discard(handler)

    def drain(self, timeout_s: float = 60.0) -> bool:
        """Enter drain mode and wait for in-flight requests to complete.

        New ``POST /revise`` requests are answered ``503`` +
        ``Retry-After`` from the moment this is called; monitoring GETs
        keep working.  Returns True once the last in-flight request has
        been answered (False if ``timeout_s`` elapsed first — the
        caller decides whether to hard-stop anyway).
        """
        with self._lock:
            self.draining = True
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.inflight_requests == 0:
                return True
            time.sleep(0.005)
        return self.inflight_requests == 0

    def start(self) -> "RevisionHTTPFrontend":
        if self._thread is None:
            self.draining = False
            self.service.start()
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="revision-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and end every connection, then stop the service.

        Idle kept-alive connections close at once; a request already
        being handled still gets its reply, then its connection closes.
        """
        if self._thread is None:
            return
        with self._lock:
            self._closing = True
            idle = list(self._idle)
        for handler in idle:
            _shutdown_socket(handler.connection)
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join()
        self._thread = None
        self.service.stop()

    def __enter__(self) -> "RevisionHTTPFrontend":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
