"""Tests for the online revision service (repro.serving).

The service's contract has two halves: *parity* — a served revision is
token-for-token identical to :meth:`CoachLM.revise_dataset` on the same
input — and *streaming* — a late-arriving request joins the in-flight
batch at the first retired slot instead of waiting for a drain.  Both
are pinned here, along with the queue/cache/metrics/HTTP plumbing.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
import urllib.error
import urllib.request
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.config import DEFAULT_PREFILL_CHUNK_TOKENS, FleetConfig, ServingConfig
from repro.core.coachlm import CoachLM, RevisionOutcome
from repro.data import InstructionDataset, generate_dataset
from repro.data.instruction_pair import InstructionPair
from repro.deployment import DataManagementPlatform
from repro.errors import AdmissionError, ConfigError, ServingError
from repro.llm.prompts import encode_coach_prompt
from repro.nn import BatchedEngine, GenerationRequest, TransformerConfig, TransformerLM
from repro.serving import (
    BoundedPriorityQueue,
    CachedRevision,
    EngineFleet,
    EngineJob,
    InProcessRevisionClient,
    OUTCOME_EXPIRED,
    OUTCOME_QUALITY_GATED,
    RevisionHTTPFrontend,
    RevisionLRUCache,
    RevisionServer,
    ServingMetrics,
    SOURCE_CACHE,
    SOURCE_DEADLINE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    SOURCE_GATE,
    SOURCE_SHED,
    StreamingScheduler,
)
from repro.serving import server as server_module
from repro.serving.requests import RevisionResult
from repro.textgen.responses import detokenize, ideal_response
from repro.textgen.tasks import TaskInstance, render_instruction


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


def _one_worker_fleet(coach, config: ServingConfig | None = None) -> EngineFleet:
    """A 1-worker fleet on fast heartbeats (``tests/test_fleet.py``'s)."""
    return EngineFleet(coach, FleetConfig(
        fleet_workers=1,
        heartbeat_interval_s=0.02,
        heartbeat_timeout_s=1.0,
        restart_backoff_s=0.05,
        restart_backoff_max_s=0.2,
        worker_ready_timeout_s=60.0,
        drain_timeout_s=60.0,
        serving=config or ServingConfig(),
    ))


@pytest.fixture(params=["server", "fleet"])
def make_service(request):
    """Builds either backend: both run the one request lifecycle
    (``repro.serving.lifecycle``), so each lifecycle test runs on both."""
    return RevisionServer if request.param == "server" else _one_worker_fleet


def _clean_pair() -> InstructionPair:
    instance = TaskInstance("add_numbers", {"a": 2, "b": 3})
    tokens, _ = render_instruction(instance)
    return InstructionPair(
        instruction=detokenize(tokens),
        response=detokenize(ideal_response(instance)),
        provenance=instance,
    )


# -- bounded priority queue --------------------------------------------------------


def test_queue_priority_order_and_fifo_within_class():
    queue = BoundedPriorityQueue(capacity=8)
    queue.put("b0", priority=1)
    queue.put("a0", priority=0)
    queue.put("b1", priority=1)
    queue.put("a1", priority=0)
    assert [queue.get(0) for _ in range(4)] == ["a0", "a1", "b0", "b1"]
    assert queue.get(timeout=0) is None


def test_queue_admission_control():
    queue = BoundedPriorityQueue(capacity=2)
    queue.put(1)
    queue.put(2)
    with pytest.raises(AdmissionError):
        queue.put(3)
    assert queue.depth == 2


def test_queue_close_drains_then_rejects():
    queue = BoundedPriorityQueue(capacity=4)
    queue.put("x")
    queue.close()
    with pytest.raises(ServingError):
        queue.put("y")
    assert queue.get(0) == "x"      # queued items still drain
    assert queue.get(0) is None     # then closed-and-empty

    with pytest.raises(ConfigError):
        BoundedPriorityQueue(capacity=0)


def test_queue_get_wakes_on_cross_thread_put():
    queue = BoundedPriorityQueue(capacity=2)
    got = []
    thread = threading.Thread(target=lambda: got.append(queue.get(timeout=5.0)))
    thread.start()
    queue.put("item")
    thread.join(timeout=5.0)
    assert got == ["item"]


# -- LRU cache ---------------------------------------------------------------------


def test_lru_cache_hit_miss_and_eviction():
    cache = RevisionLRUCache(capacity=2)
    entry = CachedRevision("i", "r", RevisionOutcome.REVISED.value)
    assert cache.get("a") is None
    cache.put("a", entry)
    cache.put("b", entry)
    assert cache.get("a") is entry      # refreshes a
    cache.put("c", entry)               # evicts b (LRU)
    assert cache.get("b") is None
    assert cache.get("a") is entry and cache.get("c") is entry
    assert cache.hits == 3 and cache.misses == 2

    disabled = RevisionLRUCache(capacity=0)
    disabled.put("a", entry)
    assert disabled.get("a") is None and len(disabled) == 0


def test_import_entries_reports_entries_actually_retained():
    """import_entries must count only rows the cache stored, not rows it
    parsed: a cache-disabled fleet (capacity 0) retains nothing and must
    report 0 instead of the rows it silently dropped, and damaged rows
    never count — warm-start logs stay honest."""
    rows = [
        ["k1", "i1", "r1", RevisionOutcome.REVISED.value],
        ["k2", "i2", "r2", RevisionOutcome.REVISED.value],
        ["k3", "i3", "r3", RevisionOutcome.REVISED.value],
    ]
    disabled = RevisionLRUCache(capacity=0)
    assert disabled.import_entries(rows) == 0
    assert len(disabled) == 0

    cache = RevisionLRUCache(capacity=8)
    assert cache.import_entries(rows + [["bad", "row"], 7]) == 3
    assert len(cache) == 3


def test_cached_revision_rebinds_identity():
    pair = _clean_pair()
    revised = CachedRevision("new instruction", "new response",
                             RevisionOutcome.REVISED.value)
    out = revised.apply(pair)
    assert out.instruction == "new instruction"
    assert out.provenance is pair.provenance
    fallback = CachedRevision("x", "y", RevisionOutcome.INVALID_OUTPUT.value)
    assert fallback.apply(pair) is pair


# -- metrics -----------------------------------------------------------------------


def test_metrics_percentiles_and_throughput():
    metrics = ServingMetrics()
    pair = _clean_pair()
    for latency in (0.1, 0.2, 0.3, 0.4):
        metrics.record_result(
            RevisionResult(pair, "revised", SOURCE_ENGINE, latency)
        )
    metrics.record_engine_work(tokens=500, busy_s=0.25)
    assert metrics.latency_percentile(50) == pytest.approx(0.25)
    assert metrics.tokens_per_second() == pytest.approx(2000.0)
    snap = metrics.snapshot(queue_depth=3)
    assert snap["completed"] == 4
    assert snap["queue_depth"] == 3
    assert snap["latency_p95_s"] <= 0.4


# -- streaming scheduler (deterministic, no threads) -------------------------------


def _no_eos_job(model, prompt, budget, done):
    request = GenerationRequest(prompt, budget, eos_id=None)
    return EngineJob(request, lambda tokens: done.append(tokens))


def test_late_arrival_joins_in_flight_batch(coach):
    """A request submitted mid-flight must finish while the original
    batch is still decoding — it never waits for the batch to drain."""
    model = coach.model
    rng = np.random.default_rng(3)
    scheduler = StreamingScheduler(BatchedEngine(model, max_batch=3))
    long_done: list[list[int]] = []
    prompt_a = list(rng.integers(5, 100, size=12))
    prompt_b = list(rng.integers(5, 100, size=7))
    scheduler.submit(_no_eos_job(model, prompt_a, 40, long_done))
    scheduler.submit(_no_eos_job(model, prompt_b, 40, long_done))
    for _ in range(5):
        scheduler.pump()
    assert scheduler.engine.n_active == 2 and not long_done

    late_done: list[list[int]] = []
    prompt_c = list(rng.integers(5, 100, size=5))
    scheduler.submit(_no_eos_job(model, prompt_c, 3, late_done))
    pumps_until_late = 0
    while not late_done:
        scheduler.pump()
        pumps_until_late += 1
    # The late job completed while both long jobs are still in flight.
    assert not long_done
    assert scheduler.engine.n_active == 2
    assert pumps_until_late <= 4
    assert len(late_done[0]) == 3

    scheduler.drain()
    assert len(long_done) == 2
    assert scheduler.engine.n_active == 0 and not scheduler.engine.has_work


def test_scheduler_reports_tokens_and_busy_time(coach):
    metrics = ServingMetrics()
    scheduler = StreamingScheduler(
        BatchedEngine(coach.model, max_batch=2), metrics
    )
    done: list[list[int]] = []
    rng = np.random.default_rng(5)
    for _ in range(3):
        prompt = list(rng.integers(5, 100, size=6))
        scheduler.submit(_no_eos_job(coach.model, prompt, 4, done))
    completed = scheduler.drain()
    assert completed == 3
    assert metrics.engine_tokens == sum(len(tokens) for tokens in done) == 12
    assert metrics.engine_busy_s > 0


def test_scheduler_paces_streamed_token_deliveries(coach):
    """A stream's first tokens go out at once, every pump that produces
    tokens delivers them, and the final flush comes before ``done``.
    Every token is delivered exactly once, in order."""
    events: list[tuple[str, list[int]]] = []
    prompt = list(np.random.default_rng(7).integers(5, 100, size=6))
    engine = BatchedEngine(coach.model, max_batch=1)
    scheduler = StreamingScheduler(engine)
    seq_id = scheduler.submit(EngineJob(
        GenerationRequest(prompt, 20, eos_id=None),
        lambda tokens: events.append(("done", list(tokens))),
        on_token=lambda delta: events.append(("token", list(delta))),
    ))
    while not events:
        scheduler.pump()
    assert events == [("token", engine.produced_so_far(seq_id))]

    # Each pump's new tokens go out in that same pump.
    while True:
        before = len(engine.produced_so_far(seq_id))
        n_events = len(events)
        scheduler.pump()
        if events[-1][0] == "done":
            break
        produced = engine.produced_so_far(seq_id)
        assert produced is not None and len(produced) > before
        assert events[n_events:] == [("token", produced[before:])]

    kinds = [kind for kind, _ in events]
    assert kinds[-1] == "done" and kinds.count("done") == 1
    assert len(kinds) > 3
    streamed = [tok for kind, delta in events if kind == "token" for tok in delta]
    assert streamed == events[-1][1] and len(streamed) == 20


def test_revision_stream_merges_unread_tokens_before_terminal():
    """Tokens pushed while the reader is behind arrive as one merged
    event, a blocked reader is woken by the next push, and the terminal
    event comes after every token; nothing follows it."""
    stream = server_module.RevisionStream(server=None)
    assert stream.get(timeout=0.0) is None
    stream._push_tokens([1, 2])
    stream._push_tokens([3])
    assert stream.get(timeout=0.0) == ("tokens", [1, 2, 3])
    assert stream.get(timeout=0.0) is None

    woken: list = []
    reader = threading.Thread(target=lambda: woken.append(stream.get(timeout=10.0)))
    reader.start()
    stream._push_tokens([4])
    reader.join(timeout=10.0)
    assert woken == [("tokens", [4])]

    stream._push_tokens([5])
    stream._push_terminal("result")
    stream._push_tokens([6])
    assert stream.get(timeout=0.0) == ("tokens", [5])
    assert stream.get(timeout=0.0) == ("done", "result")
    assert stream.get(timeout=0.0) is None


# -- engine streaming edge cases the scheduler depends on --------------------------


def test_engine_all_slots_eos_same_step_refills_pending(coach, tokenizer):
    """Every slot retiring on the same step must refill from pending at
    the next step's admission."""
    model = coach.model
    rng = np.random.default_rng(11)
    prompt = list(rng.integers(5, 100, size=9))
    probe = model.generate(prompt, 8, eos_id=None)
    # Declare "EOS" the first token that doesn't already occur earlier in
    # the continuation: every (identical) sequence then survives prefill
    # and hits EOS on the same later step, retiring the whole fleet at once.
    eos = next(t for k, t in enumerate(probe) if k >= 1 and t not in probe[:k])
    expected = model.generate(prompt, 8, eos_id=eos)
    assert 2 <= len(expected) <= 8

    engine = BatchedEngine(model, max_batch=4)
    ids = [engine.submit(GenerationRequest(prompt, 8, eos_id=eos))
           for _ in range(7)]
    mass_retire_seen = False
    total_finished = 0
    while engine.has_work:
        finished = engine.step()
        total_finished += finished
        if finished == 4 and total_finished < len(ids):
            mass_retire_seen = True
            # The retiring step ran its one forward and admitted nothing;
            # the next step admits the whole next wave (3 remaining).
            assert engine.n_active == 0 and engine.n_pending == 3
            assert engine.step() == 0
            assert engine.n_active == 3 and engine.n_pending == 0
    results = engine.collect()
    assert mass_retire_seen
    assert [results[i] for i in ids] == [expected] * 7


def test_engine_submit_after_drain_reuses_retired_slots(coach):
    """A drained engine must serve a fresh fleet from its stale slots."""
    model = coach.model
    rng = np.random.default_rng(13)
    first = [list(rng.integers(5, 100, size=int(n))) for n in
             rng.integers(4, 30, size=5)]
    second = [list(rng.integers(5, 100, size=int(n))) for n in
              rng.integers(4, 30, size=5)]
    engine = BatchedEngine(model, max_batch=2)
    got_first = engine.generate(
        [GenerationRequest(p, 10, eos_id=2) for p in first]
    )
    assert not engine.has_work
    got_second = engine.generate(
        [GenerationRequest(p, 10, eos_id=2) for p in second]
    )
    expected = [model.generate(p, 10, eos_id=2) for p in first + second]
    assert got_first + got_second == expected


# -- the revision server -----------------------------------------------------------


def test_server_parity_with_revise_dataset(coach, dataset):
    expected, expected_stats = coach.revise_dataset(dataset, batch_size=5)
    with RevisionServer(coach, ServingConfig(max_batch=4)) as server:
        got, got_stats = InProcessRevisionClient(server).revise_dataset(dataset)
    assert len(got) == len(expected)
    for exp, pair in zip(expected, got):
        assert pair.instruction == exp.instruction
        assert pair.response == exp.response
        assert pair.pair_id == exp.pair_id
    assert got_stats.outcomes == expected_stats.outcomes


def test_client_journal_resume_serves_from_journal(coach, dataset, tmp_path):
    """A journaled served run resumes without re-submitting: every pair
    comes back with ``source == "journal"`` and the server's journal
    metrics reflect the replay."""
    from repro.serving import RunJournal, SOURCE_JOURNAL

    journal_path = tmp_path / "served.jsonl"
    with RevisionServer(coach, ServingConfig(max_batch=4)) as server:
        client = InProcessRevisionClient(server)
        with RunJournal(journal_path) as journal:
            first, first_stats = client.revise_dataset(
                dataset, journal=journal
            )
        submitted_before = server.metrics.submitted
        with RunJournal(journal_path) as journal:
            resumed, resumed_stats = client.revise_dataset(
                dataset, journal=journal
            )
        assert server.metrics.submitted == submitted_before  # nothing sent
        snap = server.metrics.snapshot()
        assert snap["journal"]["pairs_skipped"] == len(dataset)
        assert snap["journal"]["records_replayed"] > 0
        results = client.revise_pairs(list(dataset))  # journal-less still works
    for exp, pair in zip(first, resumed):
        assert (pair.instruction, pair.response) == (
            exp.instruction, exp.response
        )
    assert resumed_stats.outcomes == first_stats.outcomes
    assert len(results) == len(dataset)


def test_server_parity_with_tiny_prefill_chunks(coach, dataset, monkeypatch):
    """Chunked prefill interleaving (even 5-token chunks) must not change
    a single served token relative to the offline batch path."""
    expected, _ = coach.revise_dataset(dataset, batch_size=5)
    # The schedule is an engine argument only: build the server's engine
    # with 5-token chunks.
    monkeypatch.setattr(
        server_module, "BatchedEngine",
        functools.partial(BatchedEngine, prefill_chunk_tokens=5),
    )
    with RevisionServer(coach, ServingConfig(max_batch=3)) as server:
        assert server.scheduler.engine.prefill_chunk_tokens == 5
        got, _ = InProcessRevisionClient(server).revise_dataset(dataset)
    for exp, pair in zip(expected, got):
        assert pair.instruction == exp.instruction
        assert pair.response == exp.response


def test_server_leakage_gating_matches_coach(tokenizer, dataset, make_service):
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
        max_seq_len=192,
    )
    model = TransformerLM(config, np.random.default_rng(9))
    leaky_ids = frozenset({dataset[0].pair_id, dataset[3].pair_id})
    leaky_coach = CoachLM(model, tokenizer, trained_instructions=leaky_ids)
    expected, expected_stats = leaky_coach.revise_dataset(dataset)
    with make_service(leaky_coach) as server:
        got, got_stats = InProcessRevisionClient(server).revise_dataset(dataset)
    assert got_stats.outcomes == expected_stats.outcomes
    assert got_stats.outcomes[RevisionOutcome.LEAKAGE_SKIPPED.value] == 2
    for exp, pair in zip(expected, got):
        assert (pair.instruction, pair.response) == (
            exp.instruction, exp.response
        )


def test_server_dedup_and_cache(coach, dataset):
    pair = dataset[0]
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    # Submit duplicates before the worker starts: one leader enters the
    # queue, the rest attach in flight.
    futures = [server.submit(pair) for _ in range(4)]
    assert server.queue.depth == 1
    with server:
        results = [future.result(timeout=60.0) for future in futures]
    sources = Counter(result.source for result in results)
    assert sources == {SOURCE_ENGINE: 1, SOURCE_DEDUP: 3}
    texts = {(r.pair.instruction, r.pair.response) for r in results}
    assert len(texts) == 1

    # A later identical submission is an LRU hit: engine untouched.
    tokens_before = server.metrics.engine_tokens
    with server:
        hit = server.revise(pair, timeout=60.0)
    assert hit.source == SOURCE_CACHE
    assert hit.generated_tokens == 0
    assert server.metrics.engine_tokens == tokens_before
    assert (hit.pair.instruction, hit.pair.response) in texts


def test_server_quality_gate_skips_good_pairs(coach, make_service):
    config = ServingConfig(max_batch=2, quality_gate_threshold=80.0)
    with make_service(coach, config) as server:
        result = server.revise(_clean_pair(), timeout=60.0)
    assert result.outcome == OUTCOME_QUALITY_GATED
    assert result.source == SOURCE_GATE
    assert result.pair.instruction == _clean_pair().instruction
    assert server.metrics.engine_tokens == 0


def test_server_deadline_expiry(coach, dataset, make_service):
    server = make_service(coach, ServingConfig(max_batch=2))
    future = server.submit(dataset[1], deadline_s=1e-4)
    time.sleep(0.01)     # expire while the worker is not yet running
    with server:
        result = future.result(timeout=60.0)
    assert result.outcome == OUTCOME_EXPIRED
    assert result.source == SOURCE_DEADLINE
    assert result.pair is dataset[1]


def test_server_expired_leader_promotes_follower(coach, dataset, make_service):
    """A follower with a laxer deadline must not inherit the leader's
    expiry: it is promoted to leader and revised normally."""
    pair = dataset[6]
    server = make_service(coach, ServingConfig(max_batch=2))
    leader = server.submit(pair, deadline_s=1e-4)
    follower = server.submit(pair)           # no deadline: never expires
    time.sleep(0.01)
    with server:
        leader_result = leader.result(timeout=60.0)
        follower_result = follower.result(timeout=60.0)
    assert leader_result.outcome == OUTCOME_EXPIRED
    assert follower_result.outcome != OUTCOME_EXPIRED
    assert follower_result.source == SOURCE_ENGINE
    expected_pair, expected_outcome = coach.revise_pair(pair)
    assert follower_result.outcome == expected_outcome.value
    assert follower_result.pair.response == expected_pair.response


def test_stopped_server_is_freed_without_the_cycle_collector(coach, dataset):
    """A stopped server holds no reference cycle, so dropping it frees
    its engine (and KV pool) at once: a benchmark that builds several
    servers in a row otherwise peaks with all of their pools resident."""
    gc.disable()
    try:
        server = RevisionServer(coach, ServingConfig(max_batch=2))
        with server:
            server.revise(dataset[5], timeout=60.0)
            server.submit_stream(dataset[5]).get(timeout=60.0)
        ref = weakref.ref(server)
        del server
        assert ref() is None
    finally:
        gc.enable()


def test_server_submit_when_stopped_leaves_no_poison_key(coach, dataset):
    """A submit rejected because the server is stopped must not leave a
    dangling in-flight entry that strands later identical requests."""
    pair = dataset[7]
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with server:
        pass                                  # start + drain + stop
    with pytest.raises(ServingError):
        server.submit(pair)
    with server:                              # restart: same content serves
        result = server.revise(pair, timeout=60.0)
    assert result.source == SOURCE_ENGINE


def test_server_admission_control_rejects_when_full(coach, dataset):
    server = RevisionServer(
        coach, ServingConfig(max_batch=2, max_queue_depth=1)
    )
    first = server.submit(dataset[2])
    with pytest.raises(AdmissionError):
        server.submit(dataset[4])
    assert server.metrics.rejected == 1
    with server:
        first.result(timeout=60.0)
    # The rejected pair's dedup slot was released: resubmission works.
    with server:
        assert server.revise(dataset[4], timeout=60.0).outcome


def test_serving_config_validation():
    with pytest.raises(ConfigError):
        ServingConfig(max_batch=0)
    with pytest.raises(ConfigError):
        ServingConfig(max_queue_depth=0)
    with pytest.raises(ConfigError):
        ServingConfig(cache_capacity=-1)
    with pytest.raises(ConfigError):
        ServingConfig(default_deadline_s=0.0)
    with pytest.raises(ConfigError):
        ServingConfig(quality_gate_threshold=101.0)
    with pytest.raises(ConfigError):
        ServingConfig(idle_wait_s=0.0)


# -- platform integration ----------------------------------------------------------


def test_platform_routes_through_server(coach):
    rng_a = np.random.default_rng(21)
    rng_b = np.random.default_rng(21)
    direct = DataManagementPlatform(coach=coach)
    with RevisionServer(coach, ServingConfig(max_batch=4)) as server:
        served = DataManagementPlatform(server=server)
        report_served = served.run_cleaning_batch(rng_b, 12, use_coachlm=True)
    report_direct = direct.run_cleaning_batch(rng_a, 12, use_coachlm=True)
    assert served.coach is coach
    assert report_served.pairs_per_person_day == pytest.approx(
        report_direct.pairs_per_person_day
    )
    assert report_served.mean_quality_out_of_coach == pytest.approx(
        report_direct.mean_quality_out_of_coach
    )
    assert server.metrics.completed >= 12


# -- HTTP front-end ----------------------------------------------------------------


def _post_json(url: str, payload: dict, timeout: float = 60.0) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def test_http_revise_metrics_and_errors(coach, dataset):
    server = RevisionServer(coach, ServingConfig(max_batch=4))
    with RevisionHTTPFrontend(server) as frontend:
        base = frontend.address
        pair = dataset[5]
        blob = _post_json(
            base + "/revise",
            {"instruction": pair.instruction, "response": pair.response},
        )
        expected_pair, expected_outcome = coach.revise_pair(
            InstructionPair(pair.instruction, pair.response)
        )
        assert blob["outcome"] == expected_outcome.value
        assert blob["instruction"] == expected_pair.instruction
        assert blob["response"] == expected_pair.response
        assert blob["source"] == SOURCE_ENGINE
        assert blob["latency_s"] >= 0

        # Identical content → cache, engine untouched.
        again = _post_json(
            base + "/revise",
            {"instruction": pair.instruction, "response": pair.response},
        )
        assert again["source"] == SOURCE_CACHE

        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            metrics = json.load(response)
        assert metrics["completed"] == 2
        assert metrics["by_source"][SOURCE_CACHE] == 1
        assert metrics["tokens_per_sec"] > 0

        with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
            health = json.load(response)
        assert health["status"] == "ok"

        for bad_body, expect in (
            (b"not json", 400),
            (json.dumps({"instruction": "x"}).encode(), 400),
        ):
            request = urllib.request.Request(
                base + "/revise", data=bad_body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == expect

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base + "/nope", timeout=10)
        assert excinfo.value.code == 404


# -- scheduler deadlines (deterministic, no threads) -------------------------------


def test_scheduler_submit_rejects_already_expired_job(coach):
    """A job whose deadline passed before submit() must never reach the
    engine: it resolves through on_expired and costs zero engine work."""
    scheduler = StreamingScheduler(BatchedEngine(coach.model, max_batch=2))
    expired: list[str] = []
    job = EngineJob(
        GenerationRequest([5, 6, 7], 8, eos_id=None),
        on_done=lambda tokens: pytest.fail("expired job must not complete"),
        deadline=time.monotonic() - 1.0,
        on_expired=lambda: expired.append("dead"),
    )
    assert scheduler.submit(job) is None
    assert expired == ["dead"]
    assert not scheduler.engine.has_work and scheduler.in_flight == 0


def test_scheduler_pump_expires_overdue_engine_job(coach):
    """A job that expires while waiting inside the engine is cancelled at
    the next pump — live jobs keep their exact tokens."""
    model = coach.model
    rng = np.random.default_rng(3)
    scheduler = StreamingScheduler(BatchedEngine(model, max_batch=1))
    live_done: list[list[int]] = []
    prompt_live = list(rng.integers(5, 100, size=6))
    scheduler.submit(
        EngineJob(
            GenerationRequest(prompt_live, 6, eos_id=None),
            on_done=lambda tokens: live_done.append(tokens),
        )
    )
    scheduler.pump()  # live job occupies the only slot
    expired: list[str] = []
    scheduler.submit(
        EngineJob(
            GenerationRequest(list(rng.integers(5, 100, size=6)), 6),
            on_done=lambda tokens: pytest.fail("expired job must not complete"),
            deadline=time.monotonic() + 1e-4,
            on_expired=lambda: expired.append("dead"),
        )
    )
    time.sleep(0.01)
    completed = scheduler.drain()
    assert expired == ["dead"]
    assert completed == 1
    assert live_done == [model.generate(prompt_live, 6)]


def test_engine_job_terminal_callbacks_fire_exactly_once(coach):
    """The EngineJob terminal latch: whichever of done/expired lands
    first wins, and every later transition is a silent no-op — no
    interleaving of expiry and completion can double-resolve a future."""
    done_calls: list[list[int]] = []
    expired_calls: list[str] = []
    job = EngineJob(
        GenerationRequest([5, 6, 7], 4, eos_id=None),
        on_done=done_calls.append,
        deadline=time.monotonic() + 60.0,
        on_expired=lambda: expired_calls.append("dead"),
    )
    assert job.resolve_done([1, 2]) is True
    assert job.resolve_done([3, 4]) is False
    assert job.resolve_expired() is False
    assert done_calls == [[1, 2]] and expired_calls == []

    job2 = EngineJob(
        GenerationRequest([5, 6, 7], 4, eos_id=None),
        on_done=done_calls.append,
        on_expired=lambda: expired_calls.append("dead"),
    )
    assert job2.resolve_expired() is True
    assert job2.resolve_expired() is False
    assert job2.resolve_done([9]) is False
    assert done_calls == [[1, 2]] and expired_calls == ["dead"]


def test_scheduler_raising_on_done_does_not_strand_batchmates(coach):
    """A completion callback that raises must not swallow the other
    completions of the same pump round: every batchmate's on_done still
    fires, then the first error surfaces to the pump driver."""
    model = coach.model
    rng = np.random.default_rng(21)
    scheduler = StreamingScheduler(BatchedEngine(model, max_batch=3))
    done: list[int] = []

    def make_done(index: int):
        def on_done(tokens: list[int]) -> None:
            done.append(index)
            if index == 0:
                raise RuntimeError("callback bug")
        return on_done

    # Identical budgets, no EOS: all three complete on the same step.
    prompt = list(rng.integers(5, 100, size=6))
    for index in range(3):
        scheduler.submit(
            EngineJob(GenerationRequest(prompt, 3, eos_id=None), make_done(index))
        )
    with pytest.raises(RuntimeError, match="callback bug"):
        scheduler.drain()
    # The raising callback ran AND both batchmates were still dispatched.
    assert sorted(done) == [0, 1, 2]
    assert scheduler.in_flight == 0
    # The engine is clean: drain after the error finds nothing to do.
    assert scheduler.drain() == 0


def test_scheduler_drain_sweep_resolves_externally_cancelled_job(coach):
    """drain() must never return while a tracked job is unresolved: a job
    the engine lost track of (cancelled behind the scheduler's back) is
    resolved through its expiry path by the final safety sweep."""
    model = coach.model
    rng = np.random.default_rng(22)
    scheduler = StreamingScheduler(BatchedEngine(model, max_batch=2))
    expired: list[str] = []
    seq_id = scheduler.submit(
        EngineJob(
            GenerationRequest(list(rng.integers(5, 100, size=6)), 4, eos_id=None),
            on_done=lambda tokens: pytest.fail("cancelled job must not complete"),
            on_expired=lambda: expired.append("swept"),
        )
    )
    assert seq_id is not None
    # Simulate a cancellation the scheduler didn't perform itself.
    assert scheduler.engine.cancel(seq_id)
    scheduler.drain()
    assert expired == ["swept"]
    assert scheduler.in_flight == 0


def test_server_expires_deadline_missed_job_waiting_in_engine(coach, dataset):
    """End-to-end: a job stuck behind a full fleet past its deadline is
    expired by the scheduler sweep instead of decoding after the miss."""
    config = ServingConfig(max_batch=1, cache_capacity=0)
    with RevisionServer(coach, config) as server:
        blocker = server.submit(dataset[8])
        tight = server.submit(dataset[9], deadline_s=1e-4)
        blocker_result = blocker.result(timeout=60.0)
        tight_result = tight.result(timeout=60.0)
    assert blocker_result.outcome != OUTCOME_EXPIRED
    assert tight_result.outcome == OUTCOME_EXPIRED
    assert tight_result.source == SOURCE_DEADLINE


# -- slot-refill hygiene (regression) ----------------------------------------------


def test_refill_into_just_retired_slot_inherits_clean_kv(coach):
    """A job admitted into a slot freed on the previous step() must see
    a clean KV cache: its tokens cannot depend on the retired occupant's
    stale columns, however long that occupant's sequence was."""
    model = coach.model
    rng = np.random.default_rng(17)
    # The first occupant decodes a long continuation (long stale KV);
    # the replacement's prompt is much shorter, so most of the slot's
    # columns hold the dead sequence's keys.
    long_occupant = list(rng.integers(5, 100, size=60))
    replacement = list(rng.integers(5, 100, size=4))
    engine = BatchedEngine(model, max_batch=1)
    first = engine.submit(GenerationRequest(long_occupant, 24, eos_id=None))
    for _ in range(24):
        engine.step()
    done = engine.collect()
    assert list(done) == [first], "occupant must have retired"
    # The replacement enters the freed slot at the next step.
    second = engine.submit(GenerationRequest(replacement, 8, eos_id=None))
    results = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert results[second] == model.generate(replacement, 8, eos_id=None)

    # And the mid-flight variant: two sequences, slot 0 retires while
    # slot 1 keeps decoding; the pending job must refill slot 0 on the
    # step right after the retiring one and still match the sequential
    # path.  Budget-based retirement keeps the retiring step
    # deterministic.
    engine = BatchedEngine(model, max_batch=2)
    a = engine.submit(GenerationRequest(long_occupant, 12, eos_id=None))
    b = engine.submit(GenerationRequest(list(rng.integers(5, 100, size=8)), 40))
    engine.step()
    c = engine.submit(GenerationRequest(replacement, 8, eos_id=None))
    results = {}
    while a not in results:
        engine.step()
        results.update(engine.collect())
    # a's retiring step admitted nothing; the next step prefills c's
    # short prompt in one chunk beside b's decode and c joins the fleet.
    assert engine.n_active == 1 and engine.n_pending == 1
    engine.step()
    assert engine.n_active == 2 and engine.n_pending == 0
    while c not in results:
        engine.step()
        results.update(engine.collect())
    assert results[a] == model.generate(long_occupant, 12, eos_id=None)
    assert results[c] == model.generate(replacement, 8, eos_id=None)


# -- HTTP error paths --------------------------------------------------------------


def test_http_oversized_payload_rejected_before_submit(coach):
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server, max_body_bytes=256) as frontend:
        submitted_before = server.metrics.submitted
        big = json.dumps(
            {"instruction": "x" * 4096, "response": "y"}
        ).encode("utf-8")
        request = urllib.request.Request(
            frontend.address + "/revise", data=big, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 413
        blob = json.load(excinfo.value)
        assert "exceeds" in blob["error"]
        # Rejected before touching the serving queue or the engine.
        assert server.metrics.submitted == submitted_before

        # A normal-sized request still serves on the same front-end.
        pair = _clean_pair()
        ok = _post_json(
            frontend.address + "/revise",
            {"instruction": pair.instruction, "response": pair.response},
        )
        assert "outcome" in ok


def test_http_queue_full_replies_429_with_retry_after(coach, dataset):
    # A stopped server never drains its queue: depth-1 admission control
    # trips deterministically on the second submission.
    server = RevisionServer(coach, ServingConfig(max_batch=2, max_queue_depth=1))
    frontend = RevisionHTTPFrontend(server)
    frontend.httpd.timeout = 5
    thread = threading.Thread(target=frontend.httpd.serve_forever, daemon=True)
    thread.start()
    try:
        base = frontend.address
        first = dataset[0]
        server.submit(first)  # fills the only queue slot
        request = urllib.request.Request(
            base + "/revise",
            data=json.dumps(
                {"instruction": "fresh content", "response": "fresh reply"}
            ).encode("utf-8"),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 429
        assert excinfo.value.headers["Retry-After"] == "1"
        assert server.metrics.rejected >= 1
    finally:
        frontend.httpd.shutdown()
        frontend.httpd.server_close()
        thread.join(timeout=10)


def test_http_malformed_numeric_fields_rejected(coach):
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as frontend:
        for payload in (
            {"instruction": "a", "response": "b", "priority": "high"},
            {"instruction": "a", "response": "b", "deadline_s": "soon"},
            {"instruction": "a", "response": "b", "timeout_s": []},
        ):
            request = urllib.request.Request(
                frontend.address + "/revise",
                data=json.dumps(payload).encode("utf-8"),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400


def test_http_metrics_schema_is_stable(coach, dataset):
    """The /metrics payload is a monitoring contract: pin its exact key
    set (top-level and per-source) so dashboards never silently break."""
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as frontend:
        pair = dataset[3]
        _post_json(
            frontend.address + "/revise",
            {"instruction": pair.instruction, "response": pair.response},
        )
        with urllib.request.urlopen(
            frontend.address + "/metrics", timeout=10
        ) as response:
            metrics = json.load(response)
    assert set(metrics) == {
        "submitted",
        "completed",
        "rejected",
        "by_source",
        "engine_tokens",
        "engine_busy_s",
        "requeued",
        "worker_lost",
        "duplicate_results",
        "retries",
        "retry_after_honored_s",
        "gave_up",
        "journal",
        "latency_p50_s",
        "latency_p95_s",
        "tokens_per_sec",
        "queue_depth",
        "engine",
    }
    assert set(metrics["by_source"]) == {
        SOURCE_ENGINE,
        SOURCE_CACHE,
        SOURCE_DEDUP,
        SOURCE_GATE,
        SOURCE_DEADLINE,
        SOURCE_SHED,
    }
    # Fault-tolerance counters exist (and stay zero) in a single process.
    assert metrics["requeued"] == 0
    assert metrics["worker_lost"] == 0
    # Preemption observability contract: the engine section always
    # carries the counter block, zeroed when nothing was ever evicted.
    assert metrics["engine"]["n_preempted"] == 0
    assert set(metrics["engine"]["preemption"]) == {
        "preemptions",
        "resumes",
        "preempted_resident_tokens",
        "stream_disconnects",
    }
    assert metrics["duplicate_results"] == 0
    # Durability counters exist (and stay zero) on a journal-less,
    # retry-free happy path.
    assert metrics["retries"] == 0
    assert metrics["gave_up"] == 0
    assert metrics["journal"] == {
        "records_replayed": 0, "pairs_skipped": 0
    }
    for key in ("submitted", "completed", "rejected", "engine_tokens"):
        assert isinstance(metrics[key], int)
    for key in (
        "engine_busy_s", "latency_p50_s", "latency_p95_s", "tokens_per_sec"
    ):
        assert isinstance(metrics[key], (int, float))
    # The engine section is the admission-pressure dashboard: occupancy
    # plus the KV pool's free-page headroom.
    engine = metrics["engine"]
    for key in (
        "max_batch", "n_active", "n_prefilling", "n_pending", "free_slots",
        "kv_page_tokens", "resident_kv_bytes",
    ):
        assert key in engine, engine
    assert "paged" not in engine
    assert engine["kv_page_tokens"] == 64  # ServingConfig default
    assert isinstance(engine["total_pages"], int)
    assert 0 <= engine["free_pages"] <= engine["total_pages"]


def test_server_parity_with_multislot_prefill(coach, dataset):
    """The default schedule's multi-slot chunked admission must not
    change a single served token relative to the offline batch path,
    including for a late prompt longer than one prefill chunk."""
    # Two fixture pairs joined: a coach prompt over one chunk, placed
    # last so it arrives while the fleet is decoding and prefills in at
    # least two chunks.
    first, second = dataset[5], dataset[6]
    long_pair = InstructionPair(
        instruction=f"{first.instruction} {second.instruction}",
        response=f"{first.response} {second.response}",
        pair_id="long-prompt",
    )
    pairs = InstructionDataset(list(dataset) + [long_pair])
    lengths = [len(encode_coach_prompt(coach.tokenizer, p)) for p in pairs]
    assert max(lengths) == lengths[-1] > DEFAULT_PREFILL_CHUNK_TOKENS
    expected, _ = coach.revise_dataset(pairs, batch_size=5)
    with RevisionServer(coach, ServingConfig(max_batch=4)) as server:
        got, _ = InProcessRevisionClient(server).revise_dataset(pairs)
    assert len(got) == len(pairs)
    for exp, pair in zip(expected, got):
        assert pair.instruction == exp.instruction
        assert pair.response == exp.response


def test_http_negative_content_length_rejected(coach):
    """A negative Content-Length must get a 400, not a read-to-EOF that
    blocks the handler thread for the life of the connection."""
    import http.client

    server = RevisionServer(coach, ServingConfig(max_batch=2))
    with RevisionHTTPFrontend(server) as frontend:
        host, port = frontend.httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.putrequest("POST", "/revise")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            conn.close()
