"""Directed tests for the retrying HTTP client and the hardened server.

Each test injects one specific network failure (via
:class:`~repro.serving.faults.FaultyProxy` on real sockets, or raw
socket surgery against the front-end) and pins the client's exact
response: which errors retry, which give up typed, which fail fast, and
what the server answers a stalled or vanished peer.  The
persistent-connection tests pin reuse across requests, the free resend
after the server closed an idle connection, ``stop()`` ending held
connections, ``Connection: close`` after an unread body, and per-thread
connection checkout.  Randomised schedules live in
``tests/test_fuzz_network.py``.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.errors import RetryBudgetExceededError, ServingError
from repro.llm.tokenizer import build_tokenizer
from repro.nn import TransformerConfig, TransformerLM
from repro.serving import (
    ConnectionFault,
    FaultyProxy,
    NetworkFaultPlan,
    RevisionHTTPClient,
    RevisionHTTPFrontend,
    RevisionServer,
    RunJournal,
    ServingMetrics,
    SOURCE_JOURNAL,
)


@pytest.fixture(scope="module")
def coach():
    tokenizer = build_tokenizer()
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=32,
        n_layers=1,
        n_heads=4,
        max_seq_len=192,
    )
    model = TransformerLM(config, np.random.default_rng(9))
    return CoachLM(model, tokenizer)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(np.random.default_rng(77), 6)


@pytest.fixture()
def frontend(coach):
    server = RevisionServer(coach, ServingConfig(max_batch=4))
    with RevisionHTTPFrontend(server) as fe:
        yield fe


def _upstream(frontend):
    host, port = frontend.httpd.server_address[:2]
    return host, port


def _client(address, **overrides):
    defaults = dict(
        timeout_s=5.0,
        max_attempts=5,
        backoff_base_s=0.005,
        backoff_cap_s=0.02,
        seed=7,
    )
    defaults.update(overrides)
    return RevisionHTTPClient(address, **defaults)


def test_happy_path_matches_offline_coach(coach, dataset, frontend):
    client = _client(frontend.address)
    pairs = list(dataset)
    results = client.revise_pairs(pairs)
    expected = [coach.revise_pair(pair) for pair in pairs]
    assert [
        (r.pair.instruction, r.pair.response, r.outcome) for r in results
    ] == [(p.instruction, p.response, o.value) for p, o in expected]
    assert client.metrics.retries == 0
    assert client.metrics.gave_up == 0


@pytest.mark.parametrize(
    "fault",
    [
        ConnectionFault("reset", after_bytes=0),
        ConnectionFault("reset", after_bytes=200),
        ConnectionFault("truncate", after_bytes=60),
        ConnectionFault("stall", after_bytes=20, stall_s=1.5),
    ],
    ids=["reset-statusline", "reset-midbody", "truncate", "stall"],
)
def test_transport_faults_retry_transparently(coach, dataset, frontend, fault):
    """One faulted connection, then clean: the caller never notices."""
    pair = dataset[0]
    expected_pair, expected_outcome = coach.revise_pair(pair)
    host, port = _upstream(frontend)
    plan = NetworkFaultPlan(connections={0: fault})
    metrics = ServingMetrics()
    with FaultyProxy(host, port, plan) as proxy:
        client = _client(proxy.address, timeout_s=0.4, metrics=metrics)
        result = client.revise_pair(pair)
    assert (result.pair.instruction, result.pair.response) == (
        expected_pair.instruction, expected_pair.response
    )
    assert result.outcome == expected_outcome.value
    assert metrics.retries >= 1
    assert metrics.gave_up == 0
    # The retried request found the finished/in-flight work server-side:
    # never a duplicate resolution.
    assert frontend.service.metrics.duplicate_results == 0


def test_retry_after_from_503_is_honored(dataset, frontend):
    host, port = _upstream(frontend)
    plan = NetworkFaultPlan(connections={
        0: ConnectionFault("reject", retry_after_s=0.15),
    })
    metrics = ServingMetrics()
    with FaultyProxy(host, port, plan) as proxy:
        client = _client(proxy.address, metrics=metrics)
        started = time.monotonic()
        client.revise_pair(dataset[0])
        elapsed = time.monotonic() - started
    assert metrics.retries == 1
    assert metrics.retry_after_honored_s == pytest.approx(0.15)
    assert elapsed >= 0.15  # actually slept what the server asked


def test_retry_budget_exhaustion_is_typed_with_cause(dataset, frontend):
    host, port = _upstream(frontend)
    plan = NetworkFaultPlan(connections={
        n: ConnectionFault("reject", retry_after_s=0.01) for n in range(10)
    })
    metrics = ServingMetrics()
    with FaultyProxy(host, port, plan) as proxy:
        client = _client(
            proxy.address, max_attempts=3, metrics=metrics
        )
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            client.revise_pair(dataset[0])
    assert excinfo.value.__cause__ is not None
    assert metrics.gave_up == 1
    assert metrics.retries == 2  # budget of 3 attempts = 2 retries


def test_client_errors_never_retry(frontend):
    client = _client(frontend.address)
    with pytest.raises(ServingError) as excinfo:
        client._request("/no-such-endpoint", {"instruction": "a"})
    assert not isinstance(excinfo.value, RetryBudgetExceededError)
    assert "404" in str(excinfo.value)
    assert client.metrics.retries == 0


def test_connection_refused_gives_up_typed():
    # Bind-then-close yields a port with nothing listening.
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = _client(f"http://127.0.0.1:{port}", max_attempts=2)
    with pytest.raises(RetryBudgetExceededError) as excinfo:
        client.revise_pair(generate_dataset(np.random.default_rng(1), 1)[0])
    assert isinstance(excinfo.value.__cause__, OSError)


def test_backoff_is_seeded_jitter_with_cap():
    client_a = _client("http://127.0.0.1:1", seed=3)
    client_b = _client("http://127.0.0.1:1", seed=3)
    delays_a = [client_a._backoff_s(n) for n in range(6)]
    delays_b = [client_b._backoff_s(n) for n in range(6)]
    assert delays_a == delays_b  # reproducible
    assert all(0.0 <= d <= client_a.backoff_cap_s for d in delays_a)
    ceilings = [
        min(client_a.backoff_cap_s, client_a.backoff_base_s * 2 ** n)
        for n in range(6)
    ]
    assert all(d <= c for d, c in zip(delays_a, ceilings))


def test_rejects_non_http_base_url():
    with pytest.raises(ServingError):
        RevisionHTTPClient("ftp://example.com")


def test_journal_composes_over_http(coach, dataset, frontend, tmp_path):
    """A journaled HTTP run resumes without touching the network."""
    pairs = list(dataset)
    journal_path = tmp_path / "http-run.jsonl"
    client = _client(frontend.address)
    with RunJournal(journal_path) as journal:
        first = client.revise_pairs(pairs, journal=journal)
    # Resume against a dead port: every pair must come from the journal.
    probe = socket.create_server(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    offline = _client(f"http://127.0.0.1:{dead_port}", max_attempts=1)
    with RunJournal(journal_path) as journal:
        resumed = offline.revise_pairs(pairs, journal=journal)
    assert all(r.source == SOURCE_JOURNAL for r in resumed)
    assert [
        (r.pair.instruction, r.pair.response, r.outcome) for r in resumed
    ] == [(r.pair.instruction, r.pair.response, r.outcome) for r in first]
    assert offline.metrics.journal_pairs_skipped == len(pairs)


def test_score_over_http_with_faults(coach, dataset, frontend):
    host, port = _upstream(frontend)
    plan = NetworkFaultPlan(connections={0: ConnectionFault("truncate", 80)})
    with FaultyProxy(host, port, plan) as proxy:
        client = _client(proxy.address, timeout_s=0.4)
        results = client.score_pairs(list(dataset)[:3])
    assert all(r.outcome == "scored" for r in results)
    assert all(r.score is not None and "ifd" in r.score for r in results)


def _read_until_eof(sock) -> bytes:
    """Drain a socket to EOF — the reply may arrive in several segments."""
    chunks = []
    while True:
        data = sock.recv(4096)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


def test_server_answers_408_on_stalled_body(coach):
    """A client that announces a body and never sends it gets 408 and a
    closed connection — not a pinned handler thread."""
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server, handler_timeout_s=0.2) as fe:
        host, port = fe.httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /revise HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 64\r\n"
                b"\r\n"
                b'{"instruction": '  # ...and then silence
            )
            # Reaching EOF is itself the close-after-408 assertion.
            reply = _read_until_eof(sock)
        assert b" 408 " in reply[:32], reply
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /revise HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 8\r\n\r\n"
            )
            assert b" 408 " in _read_until_eof(sock)[:32]
        # The server is still healthy for well-behaved clients.
        client = _client(fe.address)
        result = client.revise_pair(
            generate_dataset(np.random.default_rng(3), 1)[0]
        )
        assert result.outcome


def test_server_survives_peer_vanishing_mid_reply(coach, dataset):
    """A peer that resets the connection while the server replies must
    not take the handler thread (or the service) down with it."""
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as fe:
        host, port = fe.httpd.server_address[:2]
        import json as _json
        import struct

        pair = dataset[0]
        body = _json.dumps({
            "instruction": pair.instruction, "response": pair.response,
        }).encode()
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(
                b"POST /revise HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            # Abort (RST) without reading the reply.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        # Service still serves the next client.
        client = _client(fe.address)
        result = client.revise_pair(dataset[1])
        assert result.outcome
        assert server.metrics.duplicate_results == 0


# -- persistent connections ----------------------------------------------------------


def test_sequential_requests_share_one_connection(coach, dataset, frontend):
    host, port = _upstream(frontend)
    pairs = [dataset[i % len(dataset)] for i in range(10)]
    with FaultyProxy(host, port) as proxy:
        with _client(proxy.address) as client:
            results = client.revise_pairs(pairs)
    assert proxy.connections_seen == 1
    assert proxy.exchanges_seen == 10
    assert [r.pair.response for r in results] == [
        coach.revise_pair(pair)[0].response for pair in pairs
    ]


def test_idle_connection_closed_by_server_is_resent_free(coach, dataset):
    """The server times out a kept-alive connection between requests;
    the next request resends on a fresh one inside the same attempt."""
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server, handler_timeout_s=0.2) as fe:
        with _client(fe.address, max_attempts=1) as client:
            client.revise_pair(dataset[0])
            time.sleep(0.6)  # past handler_timeout_s: the server hung up
            result = client.revise_pair(dataset[1])
    assert result.outcome
    assert client.metrics.retries == 0
    assert client.metrics.gave_up == 0


def test_stop_ends_kept_alive_connections(coach, dataset):
    """After stop() a held connection never carries another request: the
    client gives up on connection errors, not with a served result."""
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    fe = RevisionHTTPFrontend(server).start()
    client = _client(fe.address, max_attempts=3)
    client.revise_pair(dataset[0])
    fe.stop()
    started = time.monotonic()
    with pytest.raises(RetryBudgetExceededError) as excinfo:
        client.revise_pair(dataset[0])  # a cache hit, were it served
    assert time.monotonic() - started < 1.0
    assert isinstance(excinfo.value.__cause__, ConnectionError)
    client.close()


def test_draining_503_closes_then_clean_200(dataset, frontend):
    """A 503 sent before the body was read ends the connection, so the
    unread body is never parsed as the next request."""
    with _client(frontend.address, max_attempts=1) as client:
        client.revise_pair(dataset[0])
        assert frontend.drain(timeout_s=10.0)
        with pytest.raises(RetryBudgetExceededError):
            client.revise_pair(dataset[1])
        frontend.draining = False  # the drain lifts
        result = client.revise_pair(dataset[1])
    assert result.outcome


def test_chunked_upload_is_refused_and_closed(frontend):
    """No Content-Length: the body's extent is unknown, so the 400 ends
    the connection rather than leave chunks to parse as a request."""
    import http.client

    host, port = _upstream(frontend)
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request(
            "POST", "/revise", iter([b'{"instruction": "a"}']),
            encode_chunked=True,
        )
        response = conn.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert b"Content-Length" in response.read()
    finally:
        conn.close()


def test_threads_sharing_a_client_never_share_a_socket(
    coach, dataset, frontend
):
    pairs = list(dataset)
    expected = {
        pair.pair_id: coach.revise_pair(pair)[0].response for pair in pairs
    }
    got: dict[int, list] = {}

    def run(index: int) -> None:
        order = pairs if index == 0 else pairs[::-1]
        got[index] = [
            client.revise_pair(pair) for pair in order for _ in range(2)
        ]

    with _client(frontend.address) as client:
        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    results = got[0] + got[1]
    assert len(results) == 4 * len(pairs)
    assert all(
        r.pair.response == expected[r.pair.pair_id] for r in results
    )
    assert client.metrics.retries == 0
    assert frontend.service.metrics.duplicate_results == 0


def test_network_fault_plan_is_reproducible_and_env_reachable():
    plan_a = NetworkFaultPlan.from_seed(42, n_connections=20, p_fault=0.5)
    plan_b = NetworkFaultPlan.from_seed(42, n_connections=20, p_fault=0.5)
    assert plan_a == plan_b
    assert plan_a.n_faulty > 0
    assert all(
        f.kind in ("reset", "truncate", "stall", "reject")
        for f in plan_a.connections.values()
    )
    env_plan = NetworkFaultPlan.from_env({
        "REPRO_FAULT_NET_KIND": "reset",
        "REPRO_FAULT_NET_CONN": "2",
        "REPRO_FAULT_NET_AFTER_BYTES": "33",
    })
    assert env_plan is not None
    assert env_plan.for_connection(2) == ConnectionFault(
        "reset", after_bytes=33, stall_s=0.6, retry_after_s=0.05
    )
    assert env_plan.for_connection(0) is None
    assert NetworkFaultPlan.from_env({}) is None
    with pytest.raises(ValueError):
        NetworkFaultPlan.from_env({"REPRO_FAULT_NET_KIND": "explode"})
