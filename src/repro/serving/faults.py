"""Deterministic fault injection for the serving fleet.

Fault tolerance that is only exercised by real hardware failures is
untested fault tolerance.  This module gives the fleet a seeded,
reproducible failure schedule: a :class:`FaultPlan` describes *which*
worker misbehaves, *how* (crash mid-decode, hang, drop a finished result
on the floor, slow its pipe), and *when* (at the k-th engine step), and
a worker-side :class:`FaultInjector` executes the schedule from inside
the victim process.  The fuzz harness (``tests/test_fuzz_fleet.py``)
draws thousands of plans from seeds and asserts the fleet's invariants
hold under every one of them: no lost results, no duplicates, exact
token parity with the sequential coach, no leaked KV pages.

Faults only fire in a worker's **first incarnation** — the supervisor's
replacement processes run clean, so every scenario converges instead of
crash-looping forever.

The same schedule is reachable from the environment
(:meth:`FaultPlan.from_env`) for ops drills against a live fleet:
``REPRO_FAULT_WORKER``, ``REPRO_FAULT_CRASH_STEP``,
``REPRO_FAULT_HANG_STEP``, ``REPRO_FAULT_DROP_RESULTS``,
``REPRO_FAULT_SEND_DELAY_S``, ``REPRO_FAULT_TORN_CACHE``.

The **network layer** gets the same treatment: a
:class:`NetworkFaultPlan` schedules one :class:`ConnectionFault` per
HTTP request/response exchange (reset mid-response, truncated body,
slow-loris stall, synthesized 503 burst), and a seeded in-process
:class:`FaultyProxy` sits between an HTTP client and the revision
front-end executing the schedule on real sockets.
``tests/test_fuzz_network.py`` drives
:class:`~repro.serving.httpclient.RevisionHTTPClient` (+ run journal)
through the proxy and asserts every pair still resolves exactly once
with token parity.  Env knobs for live drills:
``REPRO_FAULT_NET_CONN``, ``REPRO_FAULT_NET_KIND``,
``REPRO_FAULT_NET_AFTER_BYTES``, ``REPRO_FAULT_NET_STALL_S``,
``REPRO_FAULT_NET_RETRY_AFTER_S``.
"""

from __future__ import annotations

import email.message
import http.client
import io
import os
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Exit code of an injected crash — distinguishes scheduled faults from
#: genuine worker bugs in the supervisor's logs.
FAULT_EXIT_CODE = 3

#: How long an injected hang sleeps: effectively forever next to any
#: heartbeat timeout, short enough that a leaked process dies on its own.
_HANG_S = 600.0


@dataclass(frozen=True)
class WorkerFaults:
    """The failure schedule of one worker process (first incarnation).

    ``crash_at_step`` / ``hang_at_step`` count the worker's engine pump
    steps, so both fire *mid-decode* with requests in flight — the
    interesting moment for the requeue discipline.  ``drop_results``
    silently discards that many finished results and then crashes: a
    drop without the crash would strand futures (the supervisor believes
    the worker still owns them), so the two are coupled — exactly the
    torn-pipe behaviour of a process dying between completing a job and
    flushing its pipe.  ``send_delay_s`` slows every pipe message to
    stress the supervisor's multiplexing (results arriving interleaved
    with heartbeats and deaths), without changing any outcome.
    """

    crash_at_step: int | None = None
    hang_at_step: int | None = None
    drop_results: int = 0
    send_delay_s: float = 0.0

    @property
    def is_lethal(self) -> bool:
        """Whether this schedule kills the worker (crash, hang, or drop)."""
        return (
            self.crash_at_step is not None
            or self.hang_at_step is not None
            or self.drop_results > 0
        )


@dataclass(frozen=True)
class FaultPlan:
    """A full fleet failure schedule, reproducible from its seed.

    ``workers`` maps worker slot index → that worker's schedule; slots
    absent from the map run clean.  ``torn_cache_write`` additionally
    sabotages the supervisor's drain-time cache persistence with a
    truncated JSON file (simulating a writer killed mid-save), which the
    next fleet must quarantine and recompute around.
    """

    seed: int = 0
    workers: dict[int, WorkerFaults] = field(default_factory=dict)
    torn_cache_write: bool = False

    def for_worker(self, slot: int) -> WorkerFaults | None:
        return self.workers.get(slot)

    @classmethod
    def from_seed(cls, seed: int, n_workers: int, max_step: int = 12) -> FaultPlan:
        """Draw one reproducible scenario: same seed, same schedule.

        Picks 1..n_workers victims (weighted towards one) and one fault
        kind per victim; crash/hang steps land in ``[1, max_step]`` so
        the fault interleaves with real decode work at fleet scale.
        """
        rng = np.random.default_rng(seed)
        n_victims = 1 + int(rng.random() < 0.3 and n_workers > 1)
        victims = rng.choice(n_workers, size=n_victims, replace=False)
        workers: dict[int, WorkerFaults] = {}
        for victim in victims:
            kind = rng.choice(["crash", "hang", "drop", "slow", "none"])
            step = int(rng.integers(1, max_step + 1))
            if kind == "crash":
                faults = WorkerFaults(crash_at_step=step)
            elif kind == "hang":
                faults = WorkerFaults(hang_at_step=step)
            elif kind == "drop":
                faults = WorkerFaults(drop_results=int(rng.integers(1, 3)))
            elif kind == "slow":
                faults = WorkerFaults(send_delay_s=float(rng.uniform(0.001, 0.01)))
            else:
                continue
            workers[int(victim)] = faults
        return cls(
            seed=seed,
            workers=workers,
            torn_cache_write=bool(rng.random() < 0.25),
        )

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> FaultPlan | None:
        """Build a plan from ``REPRO_FAULT_*`` env vars; ``None`` when unset."""
        env = os.environ if environ is None else environ
        crash = env.get("REPRO_FAULT_CRASH_STEP")
        hang = env.get("REPRO_FAULT_HANG_STEP")
        drop = env.get("REPRO_FAULT_DROP_RESULTS")
        delay = env.get("REPRO_FAULT_SEND_DELAY_S")
        torn = env.get("REPRO_FAULT_TORN_CACHE", "") in ("1", "on", "true")
        if not any((crash, hang, drop, delay, torn)):
            return None
        faults = WorkerFaults(
            crash_at_step=int(crash) if crash else None,
            hang_at_step=int(hang) if hang else None,
            drop_results=int(drop) if drop else 0,
            send_delay_s=float(delay) if delay else 0.0,
        )
        slot = int(env.get("REPRO_FAULT_WORKER", "0"))
        workers = {slot: faults} if faults.is_lethal or faults.send_delay_s else {}
        return cls(seed=0, workers=workers, torn_cache_write=torn)


class FaultInjector:
    """Executes one :class:`WorkerFaults` schedule inside the victim.

    The fleet worker loop calls :meth:`on_step` once per engine pump,
    :meth:`on_result` as each finished job is about to be reported, and
    :meth:`before_send` around every pipe write.  All hooks are no-ops
    once the schedule is spent, and the injector for a clean worker is
    simply never constructed.
    """

    def __init__(self, faults: WorkerFaults):
        self.faults = faults
        self._steps = 0
        self._dropped = 0

    def on_step(self) -> None:
        """Fire crash/hang scheduled at this engine step (pre-step)."""
        self._steps += 1
        if self.faults.crash_at_step is not None:
            if self._steps >= self.faults.crash_at_step:
                os._exit(FAULT_EXIT_CODE)
        if self.faults.hang_at_step is not None:
            if self._steps >= self.faults.hang_at_step:
                time.sleep(_HANG_S)  # killed by the supervisor long before
                os._exit(FAULT_EXIT_CODE)

    def on_result(self) -> bool:
        """True = drop this finished result (and crash once quota is met)."""
        if self._dropped >= self.faults.drop_results:
            return False
        self._dropped += 1
        if self._dropped >= self.faults.drop_results:
            # Dying with unsent results IS the fault being modelled; a
            # drop without death would strand the futures forever.
            os._exit(FAULT_EXIT_CODE)
        return True

    def before_send(self) -> None:
        if self.faults.send_delay_s > 0.0:
            time.sleep(self.faults.send_delay_s)


def write_torn_json(path: str | os.PathLike) -> None:
    """Plant a truncated JSON artifact, as a crashed pre-hardening writer
    would: bytes that parse up to the cut and then stop mid-token."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"revisions": [{"key": "deadbeef", "instr')


# -- network-layer fault injection -------------------------------------------------

#: ``ConnectionFault.kind`` values.
NET_FAULT_KINDS = (
    "none", "reset", "truncate", "stall", "reject", "stream_reset",
)


@dataclass(frozen=True)
class ConnectionFault:
    """What happens to one exchange (and so its TCP connection) through
    the faulty proxy.  Every fault kind ends the connection.

    ``after_bytes`` counts *response* bytes relayed before the fault
    fires — ``0`` hits the very first response byte (the client sees a
    torn status line), a mid-body value tears the JSON payload.  The
    response side is the interesting one for retry semantics: the
    server has already done the work, so a naive re-send is exactly the
    at-least-once duplicate the server's dedup cache must absorb.

    * ``reset`` — abort the client socket (``SO_LINGER`` 0 → RST); the
      client sees ``ConnectionResetError`` mid-read.
    * ``truncate`` — clean FIN short of the announced Content-Length;
      the client sees ``IncompleteRead``.
    * ``stall`` — hold the connection open, bytes withheld, for
      ``stall_s``; a client with a sane timeout gives up first.
    * ``reject`` — never contact the upstream: synthesize a ``503``
      with ``Retry-After: retry_after_s`` (an overload burst).
    * ``stream_reset`` — the mid-stream disconnect: identical RST
      machinery to ``reset``, but aimed at SSE responses
      (``"stream": true``), where ``after_bytes`` lands between token
      events rather than inside a one-shot JSON body.  The server must
      notice the torn stream, cancel the sequence, and recycle its KV
      pages — kept a distinct kind so directed tests and
      ``REPRO_FAULT_NET_KIND`` can target streams without touching the
      seeded draw pool (existing fuzz seeds stay aligned).
    """

    kind: str = "none"
    after_bytes: int = 0
    stall_s: float = 0.0
    retry_after_s: float = 0.05


@dataclass(frozen=True)
class NetworkFaultPlan:
    """A per-request failure schedule, reproducible from its seed.

    ``connections`` maps the proxy's *exchange* ordinal — 0-based,
    counting request/response exchanges in the order their requests
    arrive, across every connection — → the fault that exchange
    suffers; absent ordinals relay cleanly.  ``{0: fault}`` therefore
    hits the first request, whether it opened a connection or reused a
    kept-alive one, and a sequential client (like
    :class:`~repro.serving.httpclient.RevisionHTTPClient`) sees a
    deterministic fault sequence for a given seed.  (The names predate
    keep-alive, when every request had its own connection.)
    """

    seed: int = 0
    connections: dict[int, ConnectionFault] = field(default_factory=dict)

    def for_connection(self, n: int) -> ConnectionFault | None:
        return self.connections.get(n)

    @property
    def n_faulty(self) -> int:
        return sum(
            1 for f in self.connections.values() if f.kind != "none"
        )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_connections: int = 12,
        p_fault: float = 0.4,
        max_after_bytes: int = 600,
        stall_s: float = 0.6,
        retry_after_s: float = 0.05,
    ) -> "NetworkFaultPlan":
        """Draw one reproducible schedule: same seed, same faults.

        Each of the first ``n_connections`` exchanges independently
        suffers a fault with probability ``p_fault``; kinds are drawn
        uniformly and ``after_bytes`` lands anywhere from the status
        line (0) to deep in the body (``max_after_bytes``).
        """
        rng = np.random.default_rng(seed)
        connections: dict[int, ConnectionFault] = {}
        for n in range(n_connections):
            if rng.random() >= p_fault:
                continue
            kind = str(rng.choice(["reset", "truncate", "stall", "reject"]))
            connections[n] = ConnectionFault(
                kind=kind,
                after_bytes=int(rng.integers(0, max_after_bytes + 1)),
                stall_s=stall_s,
                retry_after_s=retry_after_s,
            )
        return cls(seed=seed, connections=connections)

    @classmethod
    def from_env(
        cls, environ: dict[str, str] | None = None
    ) -> "NetworkFaultPlan | None":
        """Build a plan from ``REPRO_FAULT_NET_*`` vars; ``None`` if unset.

        ``REPRO_FAULT_NET_CONN`` is the exchange ordinal (default 0, the
        first request) that suffers ``REPRO_FAULT_NET_KIND``.
        """
        env = os.environ if environ is None else environ
        kind = env.get("REPRO_FAULT_NET_KIND")
        if not kind:
            return None
        if kind not in NET_FAULT_KINDS:
            raise ValueError(
                f"REPRO_FAULT_NET_KIND must be one of {NET_FAULT_KINDS}, "
                f"got {kind!r}"
            )
        fault = ConnectionFault(
            kind=kind,
            after_bytes=int(env.get("REPRO_FAULT_NET_AFTER_BYTES", "0")),
            stall_s=float(env.get("REPRO_FAULT_NET_STALL_S", "0.6")),
            retry_after_s=float(
                env.get("REPRO_FAULT_NET_RETRY_AFTER_S", "0.05")
            ),
        )
        conn = int(env.get("REPRO_FAULT_NET_CONN", "0"))
        return cls(seed=0, connections={conn: fault})


def _abort_socket(sock: socket.socket) -> None:
    """Close with ``SO_LINGER`` 0: the peer gets an RST, not a FIN."""
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    sock.close()


class FaultyProxy:
    """Seeded in-process TCP proxy injecting faults on real sockets.

    Sits between an HTTP client and the revision front-end: every
    accepted connection is relayed to ``(upstream_host, upstream_port)``
    one exchange at a time — a request head and its ``Content-Length``
    body, then the response (``Content-Length`` framed, or to EOF) —
    unless the exchange's :class:`ConnectionFault` says otherwise, so a
    kept-alive connection carries many exchanges and each can fault.
    Faults execute at the socket layer — an injected ``reset`` is a genuine TCP RST, a
    ``truncate`` a genuine early FIN — so the client under test
    exercises the exact error paths a flaky network produces, not
    mocked exceptions.  ``port=0`` binds an ephemeral port; read
    :attr:`address` after construction.  Use as a context manager or
    call :meth:`start`/:meth:`stop`.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: NetworkFaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan if plan is not None else NetworkFaultPlan()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        #: TCP connections accepted, request/response exchanges begun,
        #: and planned faults actually injected.
        self.connections_seen = 0
        self.exchanges_seen = 0
        self.faults_fired = 0
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FaultyProxy":
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._serve, name="faulty-proxy", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stopping.set()
        self._thread.join()
        self._thread = None
        self._listener.close()

    def __enter__(self) -> "FaultyProxy":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- internals ---------------------------------------------------------------
    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                ordinal = self.connections_seen
                self.connections_seen += 1
            threading.Thread(
                target=self._handle,
                args=(client,),
                name=f"faulty-proxy-conn-{ordinal}",
                daemon=True,
            ).start()

    def _handle(self, client: socket.socket) -> None:
        """Relay one client connection, one request/response exchange at
        a time, until either side ends it or a fault does."""
        client.settimeout(30.0)
        requests = _SocketReader(client)
        upstream: _SocketReader | None = None
        try:
            while True:
                head = requests.head()
                if not head:
                    return  # the client closed between requests
                body = requests.exactly(_content_length(head) or 0)
                with self._lock:
                    ordinal = self.exchanges_seen
                    self.exchanges_seen += 1
                fault = self.plan.for_connection(ordinal) or ConnectionFault()
                if fault.kind == "reject":
                    self._reject(client, fault)
                    return
                if upstream is None:
                    upstream = _SocketReader(
                        socket.create_connection(self.upstream, timeout=30.0)
                    )
                upstream.sock.sendall(head + body)
                if not self._relay_response(upstream, client, fault):
                    return
        except OSError:
            _abort_socket(client)
        finally:
            if upstream is not None:
                upstream.sock.close()
            client.close()

    def _fired(self) -> None:
        with self._lock:
            self.faults_fired += 1

    def _reject(self, client: socket.socket, fault: ConnectionFault) -> None:
        """Synthesize an overload burst without touching the upstream."""
        self._fired()
        body = b'{"error": "injected 503 (network fault plan)"}'
        head = (
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Retry-After: {fault.retry_after_s}\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        client.sendall(head + body)

    def _relay_response(
        self,
        upstream: "_SocketReader",
        client: socket.socket,
        fault: ConnectionFault,
    ) -> bool:
        """Relay one response, firing ``fault`` at its ``after_bytes``-th
        byte; True when the connection carries another exchange."""
        head = upstream.head()
        if not head:
            return False  # the upstream closed the idle connection
        length = _content_length(head)
        remaining = -1 if length is None else length  # -1: until EOF
        chunk, sent = head, 0
        while True:
            budget = fault.after_bytes - sent
            if fault.kind in _TEARING_KINDS and budget < len(chunk):
                self._fired()
                if budget > 0:
                    client.sendall(chunk[:budget])
                if fault.kind == "truncate":
                    client.close()
                else:
                    if fault.kind == "stall":
                        # Withhold the rest until the client gives up.
                        time.sleep(fault.stall_s)
                    _abort_socket(client)
                return False
            client.sendall(chunk)
            sent += len(chunk)
            if remaining == 0:
                return _headers(head).get("Connection", "").lower() != "close"
            chunk = upstream.some(4096 if remaining < 0 else remaining)
            if not chunk:
                return False  # the end of an EOF-delimited (SSE) body
            if remaining > 0:
                remaining -= len(chunk)


#: Faults that tear a relayed response at ``after_bytes``.
_TEARING_KINDS = ("reset", "truncate", "stall", "stream_reset")


class _SocketReader:
    """Buffered reads straight off a socket.

    Not ``socket.makefile``: an open file object keeps the descriptor
    alive past ``close()``, so an injected abort would send no RST.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""

    def _fill(self) -> bool:
        data = self.sock.recv(4096)
        self.buffer += data
        return bool(data)

    def head(self) -> bytes:
        """One HTTP message head through its blank line; ``b""`` at EOF."""
        while b"\r\n\r\n" not in self.buffer:
            if not self._fill():
                return b""
        end = self.buffer.index(b"\r\n\r\n") + 4
        head, self.buffer = self.buffer[:end], self.buffer[end:]
        return head

    def some(self, limit: int) -> bytes:
        """Up to ``limit`` bytes as soon as any arrive; ``b""`` at EOF."""
        if not self.buffer:
            self._fill()
        data, self.buffer = self.buffer[:limit], self.buffer[limit:]
        return data

    def exactly(self, n: int) -> bytes:
        while len(self.buffer) < n:
            if not self._fill():
                raise ConnectionError("peer closed mid-message")
        data, self.buffer = self.buffer[:n], self.buffer[n:]
        return data


def _headers(head: bytes) -> email.message.Message:
    """The header fields of a raw message head (after its start line)."""
    return http.client.parse_headers(io.BytesIO(head.partition(b"\r\n")[2]))


def _content_length(head: bytes) -> int | None:
    value = _headers(head).get("Content-Length")
    return None if value is None else int(value)
