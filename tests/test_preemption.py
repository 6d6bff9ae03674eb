"""Directed tests for preemptive decode eviction and token streaming.

The contract under test is exactly the ISSUE's headline: a sequence
that is preempted mid-decode and later resumed produces **exactly** the
tokens it would have produced uninterrupted — across page sizes, any
prefill chunking, resume-after-cancel, and page-pressure
auto-preemption — with **zero** prompt tokens re-prefilled (the
``total_prompt_tokens_prefilled`` counter proves it).  On
top sit the serving-layer guarantees: priority classes order admission,
a saturated fleet evicts its lowest-priority decode for a strictly more
urgent arrival, streams surface preemption as a stall (never an error),
and a mid-stream disconnect recycles the sequence's pages.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.errors import GenerationError, ServingError
from repro.nn import (
    BatchedEngine,
    GenerationRequest,
    TransformerConfig,
    TransformerLM,
)
from repro.serving import (
    BoundedPriorityQueue,
    ConnectionFault,
    FaultyProxy,
    NetworkFaultPlan,
    OUTCOME_EXPIRED,
    RevisionHTTPClient,
    RevisionHTTPFrontend,
    RevisionServer,
    SOURCE_CACHE,
    SOURCE_DEADLINE,
    SOURCE_ENGINE,
)


@pytest.fixture(scope="module")
def model():
    config = TransformerConfig(
        vocab_size=197, d_model=32, n_layers=2, n_heads=4, max_seq_len=80
    )
    return TransformerLM(config, np.random.default_rng(42))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(7)
    return [
        list(rng.integers(5, 197, size=int(rng.integers(3, 24))))
        for _ in range(6)
    ]


@pytest.fixture(scope="module")
def coach(tokenizer):
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
    return generate_dataset(np.random.default_rng(77), 10)


def _drive(engine, seq_ids, preempt_at):
    """Step the engine to completion, preempting per ``preempt_at``.

    ``preempt_at`` maps an index into ``seq_ids`` → the produced-token
    count at which that sequence is evicted (the engine re-admits it on
    its own).  Returns outputs in ``seq_ids`` order.
    """
    pending = dict(preempt_at)
    finished: dict[int, list[int]] = {}
    for _ in range(4000):
        if not engine.has_work:
            break
        engine.step()
        finished.update(engine.collect())
        for index, count in list(pending.items()):
            seq_id = seq_ids[index]
            if seq_id in finished:
                del pending[index]
                continue
            produced = engine.produced_so_far(seq_id)
            if (
                produced is not None
                and len(produced) >= count
                and engine.preempt(seq_id)
            ):
                del pending[index]
    assert not engine.has_work, "engine failed to drain"
    finished.update(engine.collect())
    return [finished[seq_id] for seq_id in seq_ids]


def _assert_kv_clean(engine):
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0
    assert stats["reserved_pages"] == 0
    assert stats["n_active"] == 0
    assert stats["n_preempted"] == 0


# -- engine: preempt/resume token parity -------------------------------------------


@pytest.mark.parametrize("chunk", [None, 1, 3, 64])
def test_paged_preempt_resume_token_parity(model, prompts, chunk):
    baseline = [model.generate(p, 16, eos_id=2) for p in prompts]
    engine = BatchedEngine(
        model,
        max_batch=3,
        # chunk None: the whole prompt in one chunk.
        prefill_chunk_tokens=chunk or model.config.max_seq_len,
        kv_page_tokens=8,
        kv_pool_pages=40,
    )
    seq_ids = [
        engine.submit(GenerationRequest(p, 16, eos_id=2)) for p in prompts
    ]
    got = _drive(engine, seq_ids, preempt_at={0: 2, 3: 4, 5: 7})
    assert got == baseline
    assert engine.preemptions >= 1
    assert engine.resumes == engine.preemptions
    _assert_kv_clean(engine)


def test_paged_preempt_resumes_with_zero_reprefill(model, prompts):
    """The paged resume must reuse the detached KV: the prefill counter
    accounts every prompt token exactly once despite the evictions."""
    engine = BatchedEngine(
        model, max_batch=2, kv_page_tokens=8, kv_pool_pages=40
    )
    seq_ids = [
        engine.submit(GenerationRequest(p, 12, eos_id=None)) for p in prompts
    ]
    _drive(engine, seq_ids, preempt_at={0: 3, 2: 2})
    assert engine.preemptions >= 2
    assert engine.total_prompt_tokens_prefilled == sum(
        len(p) for p in prompts
    )
    _assert_kv_clean(engine)


def test_preempt_then_cancel_yields_prefix_and_recovers_pages(model, prompts):
    baseline = BatchedEngine(model, max_batch=2).generate(
        [GenerationRequest(prompts[0], 16, eos_id=None)]
    )[0]
    engine = BatchedEngine(
        model, max_batch=2, kv_page_tokens=8, kv_pool_pages=24
    )
    seq_id = engine.submit(GenerationRequest(prompts[0], 16, eos_id=None))
    produced: list[int] = []
    for _ in range(100):
        engine.step()
        got = engine.produced_so_far(seq_id)
        if got is not None and len(got) >= 4:
            produced = got
            break
    assert engine.preempt(seq_id)
    assert engine.cancel(seq_id)
    assert not engine.has_work
    prefix = engine.collect().get(seq_id, produced)
    assert prefix == baseline[: len(prefix)]
    _assert_kv_clean(engine)
    assert engine.kv_stats()["free_pages"] == 24


def test_page_pressure_auto_preempts_lower_priority(model, prompts):
    """Two bulk decodes own the whole pool; a strictly more urgent
    arrival evicts one of them and everybody still matches sequential."""
    bulk = [prompts[0][:4], prompts[1][:4]]
    urgent = prompts[2][:4]
    expected = [
        model.generate(p, n, eos_id=None)
        for p, n in ((bulk[0], 44), (bulk[1], 44), (urgent, 8))
    ]
    engine = BatchedEngine(
        model, max_batch=3, kv_page_tokens=8, kv_pool_pages=12
    )
    seq_ids = [
        engine.submit(GenerationRequest(p, 44, eos_id=None, priority=5))
        for p in bulk
    ]
    for _ in range(4):
        engine.step()
    assert engine.kv_stats()["free_pages"] == 0
    seq_ids.append(
        engine.submit(GenerationRequest(urgent, 8, eos_id=None, priority=0))
    )
    finished: dict[int, list[int]] = {}
    for _ in range(4000):
        if not engine.has_work:
            break
        engine.step()
        finished.update(engine.collect())
    finished.update(engine.collect())
    assert [finished[i] for i in seq_ids] == expected
    assert engine.preemptions >= 1
    assert engine.resumes == engine.preemptions
    _assert_kv_clean(engine)


def test_preempt_victim_requires_strictly_lower_priority(model, prompts):
    engine = BatchedEngine(model, max_batch=2)
    seq_ids = [
        engine.submit(GenerationRequest(p[:6], 20, eos_id=None, priority=1))
        for p in prompts[:2]
    ]
    engine.step()
    assert engine.n_active == 2
    # Equal priority never preempts — no thrash between peers.
    assert engine.preempt_victim(1) is None
    assert engine.preempt_victim(2) is None
    # Strictly more urgent evicts the *newest* equal-priority decode.
    victim = engine.preempt_victim(0)
    assert victim == max(seq_ids)
    assert engine.n_preempted == 1
    _drive(engine, seq_ids, preempt_at={})


def test_preempt_rejects_unknown_and_pending_sequences(model, prompts):
    engine = BatchedEngine(model, max_batch=1)
    first = engine.submit(GenerationRequest(prompts[0][:6], 8, eos_id=None))
    queued = engine.submit(GenerationRequest(prompts[1][:6], 8, eos_id=None))
    engine.step()
    assert not engine.preempt(queued)   # still pending, nothing resident
    assert not engine.preempt(10_000)   # unknown id
    _drive(engine, [first, queued], preempt_at={})


# -- queue: starvation-guard plumbing ----------------------------------------------


def test_queue_peek_priority_and_sweep():
    queue = BoundedPriorityQueue(capacity=8)
    assert queue.peek_priority() is None
    queue.put("low", priority=7)
    queue.put("high", priority=0)
    queue.put("mid", priority=3)
    assert queue.peek_priority() == 0
    swept = queue.sweep(lambda item: item == "mid")
    assert swept == ["mid"]
    assert queue.depth == 2
    assert [queue.get(0) for _ in range(2)] == ["high", "low"]


# -- server: streaming + priority preemption ---------------------------------------


def _collect_stream(stream, timeout=120.0):
    tokens: list[int] = []
    deadline = time.monotonic() + timeout
    while True:
        event = stream.get(timeout=max(0.0, deadline - time.monotonic()))
        assert event is not None, "stream stalled without a terminal event"
        kind, payload = event
        if kind == "tokens":
            tokens.extend(payload)
        elif kind == "done":
            return tokens, payload
        else:
            raise AssertionError(f"stream error event: {payload!r}")


def test_server_stream_tokens_match_sync_result(coach, dataset):
    pair = dataset[0]
    with RevisionServer(coach, ServingConfig(max_batch=2)) as server:
        tokens, result = _collect_stream(server.submit_stream(pair))
        assert result.source == SOURCE_ENGINE
        assert result.generated_tokens == len(tokens) > 0
        # The sync path (a cache hit now) agrees on the revised text.
        sync = server.revise(pair)
    assert sync.source == SOURCE_CACHE
    assert sync.pair.response == result.pair.response
    assert sync.outcome == result.outcome


def test_server_stream_cache_hit_emits_done_only(coach, dataset):
    pair = dataset[1]
    with RevisionServer(coach, ServingConfig(max_batch=2)) as server:
        warm = server.revise(pair)
        tokens, result = _collect_stream(server.submit_stream(pair))
    assert tokens == []
    assert result.source == SOURCE_CACHE
    assert result.pair.response == warm.pair.response


def test_server_priority_preemption_preserves_bulk_parity(coach, dataset):
    """Saturate the fleet with bulk work, then land an urgent request:
    the server preempts a bulk decode for it, and every bulk result is
    still bit-identical to a reference run whose requests share one
    priority class (equal priorities never preempt)."""
    config = ServingConfig(
        max_batch=2, kv_page_tokens=16, kv_pool_pages=24
    )
    bulk = list(dataset)
    urgent = bulk.pop(0)
    with RevisionServer(coach, config) as server:
        want = [server.revise(p) for p in bulk]
        want_urgent = server.revise(urgent)
    with RevisionServer(coach, config) as server:
        futures = [server.submit(p, priority=5) for p in bulk]
        time.sleep(0.05)
        urgent_future = server.submit(urgent, priority=0)
        got = [f.result(timeout=120) for f in futures]
        got_urgent = urgent_future.result(timeout=120)
        stats = server.scheduler.kv_stats()
    assert [(r.pair.response, r.outcome) for r in got] == [
        (r.pair.response, r.outcome) for r in want
    ]
    assert (got_urgent.pair.response, got_urgent.outcome) == (
        want_urgent.pair.response, want_urgent.outcome,
    )
    preemption = stats["preemption"]
    assert preemption["resumes"] == preemption["preemptions"]
    assert preemption["preemptions"] >= 0  # timing-dependent, parity is not
    assert stats["pages_in_use"] == 0
    assert stats["reserved_pages"] == 0


def test_server_stream_cancel_recycles_sequence(coach, dataset):
    pair = dataset[2]
    config = ServingConfig(max_batch=2, kv_page_tokens=16, kv_pool_pages=24)
    with RevisionServer(coach, config) as server:
        stream = server.submit_stream(pair)
        event = stream.get(timeout=60)
        assert event is not None and event[0] == "tokens"
        stream.cancel()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = server.scheduler.kv_stats()
            if (
                stats["preemption"]["stream_disconnects"] >= 1
                and stats["n_active"] == 0
                and stats["pages_in_use"] == 0
            ):
                break
            time.sleep(0.01)
        else:
            raise AssertionError(f"cancel never recycled: {stats}")
        # No terminal event follows a consumer-side cancel.
        assert stream.get(timeout=0.1) is None
        # The server keeps serving after the disconnect.
        assert server.revise(dataset[3]).source == SOURCE_ENGINE


def test_starved_low_priority_request_expires_typed(coach, dataset):
    """The starvation guard: a low-priority request pinned behind a
    saturating high-priority stream expires at its deadline instead of
    waiting unboundedly — swept out of the queue *body*, it never has to
    reach the head to die."""
    server = RevisionServer(coach, ServingConfig(max_batch=1))
    # Queue up while the worker is parked: the high-priority wall is in
    # front of the starved request the instant service begins.
    saturating = [server.submit(p, priority=0) for p in dataset[:4]]
    starved = server.submit(dataset[7], priority=9, deadline_s=0.05)
    time.sleep(0.15)    # the deadline passes while still queued
    with server:
        result = starved.result(timeout=120)
        assert result.outcome == OUTCOME_EXPIRED
        assert result.source == SOURCE_DEADLINE
        for future in saturating:
            assert future.result(timeout=120).source == SOURCE_ENGINE


def test_http_expired_deadline_answers_504_with_retry_after(coach, dataset):
    import urllib.error
    import urllib.request

    server = RevisionServer(coach, ServingConfig(max_batch=1))
    with RevisionHTTPFrontend(server) as frontend:
        pair = dataset[9]
        request = urllib.request.Request(
            frontend.address + "/revise",
            data=json.dumps({
                "instruction": pair.instruction,
                "response": pair.response,
                "deadline_s": 0,
            }).encode("utf-8"),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 504
        assert excinfo.value.headers["Retry-After"] is not None


# -- HTTP edge: SSE streaming, disconnects, fault injection ------------------------


def test_http_stream_revise_matches_blocking_revise(coach, dataset):
    pair = dataset[4]
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as frontend:
        client = RevisionHTTPClient(frontend.address, timeout_s=120.0)
        tokens: list[int] = []
        done = None
        for kind, payload in client.stream_revise(pair):
            if kind == "tokens":
                tokens.extend(payload)
            else:
                done = payload
        assert done is not None
        assert done.generated_tokens == len(tokens) > 0
        blocking = client.revise_pair(pair)
        assert blocking.pair.response == done.pair.response
        assert blocking.outcome == done.outcome


def test_http_stream_priority_field_is_validated(coach, dataset):
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as frontend:
        client = RevisionHTTPClient(frontend.address, timeout_s=30.0)
        with pytest.raises(ServingError) as excinfo:
            list(client.stream_revise(dataset[5], priority="soon"))
        assert "400" in str(excinfo.value)


def test_http_stream_on_nonstreamable_service_is_501(coach, dataset):
    class _NoStreamProxy:
        """A serving backend without submit_stream (e.g. an old fleet)."""

        def __init__(self, server):
            self._server = server

        def __getattr__(self, name):
            if name == "submit_stream":
                raise AttributeError(name)
            return getattr(self._server, name)

    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with server:
        with RevisionHTTPFrontend(_NoStreamProxy(server)) as frontend:
            client = RevisionHTTPClient(frontend.address, timeout_s=30.0)
            with pytest.raises(ServingError) as excinfo:
                list(client.stream_revise(dataset[5]))
            assert "501" in str(excinfo.value)


def _await_disconnect_recycled(server, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = server.scheduler.kv_stats()
        if (
            stats["preemption"]["stream_disconnects"] >= 1
            and stats["n_active"] == 0
            and stats.get("pages_in_use", 0) == 0
        ):
            return stats
        time.sleep(0.01)
    raise AssertionError(
        f"disconnect never recycled: {server.scheduler.kv_stats()}"
    )


def _pace_engine(server, monkeypatch, seconds_per_step=0.004):
    """Hold each engine step to at least ``seconds_per_step``.

    A verify step keeps up to four tokens per row, so an unpaced
    revision can finish before the server's next token write notices a
    torn stream, and a finished sequence has nothing left to cancel.
    At ~1 ms per kept token the stream lasts as long as it did at one
    token per step.
    """
    engine = server.scheduler.engine
    step = engine.step

    def paced_step() -> int:
        finished = step()
        time.sleep(seconds_per_step)
        return finished

    monkeypatch.setattr(engine, "step", paced_step)


def test_http_midstream_rst_cancels_and_recycles(coach, dataset, monkeypatch):
    """A real-socket client that RSTs mid-SSE: the server must notice on
    its next write, cancel the sequence, recycle its pages, and keep
    serving other clients."""
    pair = dataset[6]
    config = ServingConfig(max_batch=2, kv_page_tokens=16, kv_pool_pages=24)
    server = RevisionServer(coach, config)
    _pace_engine(server, monkeypatch)
    with RevisionHTTPFrontend(server) as frontend:
        host, port = frontend.httpd.server_address[:2]
        body = json.dumps({
            "instruction": pair.instruction,
            "response": pair.response,
            "stream": True,
        }).encode("utf-8")
        head = (
            f"POST /revise HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head + body)
            seen = b""
            while seen.count(b"data: ") < 2:   # mid-stream, tokens flowing
                chunk = sock.recv(4096)
                assert chunk, "stream closed before any token event"
                seen += chunk
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                __import__("struct").pack("ii", 1, 0),
            )
        _await_disconnect_recycled(server)
        # Healthy afterwards: the same pair revises cleanly end-to-end.
        client = RevisionHTTPClient(frontend.address, timeout_s=120.0)
        assert client.revise_pair(pair).outcome is not None


def test_fault_plan_stream_reset_tears_stream_and_server_recovers(
    coach, dataset, monkeypatch
):
    """The new ``stream_reset`` fault class through the real proxy: the
    streaming client sees a typed transport fault, the server recycles
    the abandoned sequence, and a clean retry finds the answer."""
    plan = NetworkFaultPlan(
        seed=0,
        connections={
            0: ConnectionFault(kind="stream_reset", after_bytes=400)
        },
    )
    pair = dataset[8]
    # The server notices the tear on its second token write after it, so
    # the decode must outlast a few token deliveries past byte 400: a
    # 150-token budget instead of 72 keeps it running long after that.
    coach = CoachLM(coach.model, coach.tokenizer, max_new_tokens=150)
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    _pace_engine(server, monkeypatch)
    with RevisionHTTPFrontend(server) as frontend:
        host, port = frontend.httpd.server_address[:2]
        with FaultyProxy(host, port, plan) as proxy:
            client = RevisionHTTPClient(proxy.address, timeout_s=30.0)
            with pytest.raises(ServingError):
                list(client.stream_revise(pair))
        _await_disconnect_recycled(server)
        clean = RevisionHTTPClient(frontend.address, timeout_s=120.0)
        assert clean.revise_pair(pair).outcome is not None


def test_stream_reset_fault_kind_from_env():
    plan = NetworkFaultPlan.from_env({
        "REPRO_FAULT_NET_KIND": "stream_reset",
        "REPRO_FAULT_NET_AFTER_BYTES": "123",
    })
    assert plan is not None
    fault = plan.for_connection(0)
    assert fault is not None
    assert fault.kind == "stream_reset"
    assert fault.after_bytes == 123
