"""Directed tests for the fault-tolerant multi-process serving fleet.

Covers the supervisor's contract one failure mode at a time: parity
with the sequential coach, SIGKILL resilience mid-decode, seeded
crash/hang/drop faults, restart backoff with warm exclusion, requeue
budgets ending in a typed :class:`WorkerLostError`, priority shedding,
graceful drain, cross-process cache persistence (including torn-write
recovery), and the aggregated metrics/health schema.  The randomized
cross-product of these faults lives in ``tests/test_fuzz_fleet.py``.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import ConfigError, FleetConfig, ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.data.instruction_pair import InstructionPair
from repro.errors import OverloadError, WorkerLostError
from repro.nn import TransformerConfig, TransformerLM
from repro.serving import (
    EngineFleet,
    FaultPlan,
    RevisionHTTPFrontend,
    SOURCE_CACHE,
    SOURCE_ENGINE,
    SOURCE_SHED,
    WorkerFaults,
)
from repro.serving.requests import OUTCOME_SHED


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


@pytest.fixture(scope="module")
def reference(coach, dataset):
    """Sequential ground truth: greedy decode is deterministic, so any
    fleet result must reproduce these texts token-for-token."""
    return {
        pair.pair_id: coach.revise_pair(pair) for pair in dataset
    }


def _fast_fleet_config(**overrides) -> FleetConfig:
    defaults = dict(
        fleet_workers=2,
        heartbeat_interval_s=0.02,
        heartbeat_timeout_s=1.0,
        restart_backoff_s=0.05,
        restart_backoff_max_s=0.2,
        worker_ready_timeout_s=60.0,
        drain_timeout_s=60.0,
        serving=ServingConfig(max_batch=4),
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _assert_parity(result, pair, reference):
    expected_pair, expected_outcome = reference[pair.pair_id]
    assert result.outcome == expected_outcome.value
    assert result.pair.instruction == expected_pair.instruction
    assert result.pair.response == expected_pair.response


# -- config --------------------------------------------------------------------


def test_fleet_config_validation():
    with pytest.raises(ConfigError):
        FleetConfig(fleet_workers=0)
    with pytest.raises(ConfigError):
        FleetConfig(heartbeat_timeout_s=0.01, heartbeat_interval_s=0.05)
    with pytest.raises(ConfigError):
        FleetConfig(requeue_budget=-1)
    with pytest.raises(ConfigError):
        FleetConfig(max_queue_depth=0)
    with pytest.raises(ConfigError):
        FleetConfig(dispatch_depth_per_worker=0)
    with pytest.raises(ConfigError):
        FleetConfig(restart_backoff_s=0.0)
    assert FleetConfig().serving.max_batch == ServingConfig().max_batch


# -- parity --------------------------------------------------------------------


def test_fleet_parity_with_sequential_coach(coach, dataset, reference):
    with EngineFleet(coach, _fast_fleet_config()) as fleet:
        futures = [(pair, fleet.submit(pair)) for pair in dataset]
        for pair, future in futures:
            result = future.result(timeout=120)
            _assert_parity(result, pair, reference)
        snap = fleet.metrics_snapshot()
    assert snap["duplicate_results"] == 0
    assert snap["worker_lost"] == 0
    assert snap["completed"] == len(dataset)


def test_fleet_dedup_and_cache_across_submits(coach, dataset, reference):
    pair = dataset[0]
    with EngineFleet(coach, _fast_fleet_config()) as fleet:
        first = fleet.submit(pair)
        result = first.result(timeout=120)
        _assert_parity(result, pair, reference)
        cached = fleet.submit(pair).result(timeout=120)
        assert cached.source == SOURCE_CACHE
        assert cached.pair.response == result.pair.response


# -- kill resilience -----------------------------------------------------------


def test_fleet_sigkill_mid_decode_no_lost_futures(coach, dataset, reference):
    """The acceptance drill: SIGKILL a worker while it is decoding.
    Every accepted request resolves — with exact token parity (requeued
    work re-decodes deterministically) or a typed WorkerLostError — and
    nothing resolves twice."""
    with EngineFleet(coach, _fast_fleet_config()) as fleet:
        futures = [(pair, fleet.submit(pair)) for pair in dataset]
        # Wait until decode work is actually in flight, then shoot the
        # worker owning the most of it.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            busiest = max(fleet._workers, key=lambda w: len(w.outstanding))
            if busiest.outstanding and busiest.process is not None:
                os.kill(busiest.process.pid, signal.SIGKILL)
                break
            time.sleep(0.002)
        else:
            pytest.fail("no worker ever had outstanding jobs")
        lost = 0
        for pair, future in futures:
            try:
                result = future.result(timeout=120)
            except WorkerLostError:
                lost += 1
                continue
            _assert_parity(result, pair, reference)
        snap = fleet.metrics_snapshot()
    assert snap["duplicate_results"] == 0
    assert snap["completed"] + lost == len(dataset)
    assert snap["worker_lost"] == lost
    # With a healthy second worker and the default budget, the usual
    # outcome is full recovery.
    assert snap["requeued"] >= 1 or lost == 0


def test_fleet_crash_fault_restarts_and_recovers(coach, dataset, reference):
    plan = FaultPlan(workers={0: WorkerFaults(crash_at_step=2)})
    with EngineFleet(coach, _fast_fleet_config(), fault_plan=plan) as fleet:
        futures = [(pair, fleet.submit(pair)) for pair in dataset]
        for pair, future in futures:
            result = future.result(timeout=120)
            _assert_parity(result, pair, reference)
        stats = fleet.worker_stats()
        snap = fleet.metrics_snapshot()
    assert snap["duplicate_results"] == 0
    assert snap["requeued"] >= 1
    # The victim slot was restarted (fresh incarnation runs clean).
    assert stats[0]["restarts"] >= 1
    assert stats[0]["incarnation"] >= 1


def test_fleet_hang_fault_detected_and_killed(coach, dataset, reference):
    plan = FaultPlan(workers={1: WorkerFaults(hang_at_step=1)})
    config = _fast_fleet_config(heartbeat_timeout_s=0.4)
    with EngineFleet(coach, config, fault_plan=plan) as fleet:
        futures = [(pair, fleet.submit(pair)) for pair in dataset[:6]]
        for pair, future in futures:
            result = future.result(timeout=120)
            _assert_parity(result, pair, reference)
        stats = fleet.worker_stats()
    assert stats[1]["restarts"] >= 1


def test_fleet_dropped_result_is_recomputed_not_lost(coach, dataset, reference):
    """A worker that completes a job but dies before flushing the result:
    the supervisor must requeue and recompute, and the recomputed tokens
    are identical (greedy decode)."""
    plan = FaultPlan(workers={0: WorkerFaults(drop_results=1)})
    with EngineFleet(coach, _fast_fleet_config(), fault_plan=plan) as fleet:
        futures = [(pair, fleet.submit(pair)) for pair in dataset]
        for pair, future in futures:
            result = future.result(timeout=120)
            _assert_parity(result, pair, reference)
        snap = fleet.metrics_snapshot()
    assert snap["duplicate_results"] == 0
    assert snap["completed"] == len(dataset)


def test_fleet_requeue_budget_exhaustion_raises_typed_error(coach, dataset):
    """A single-worker fleet whose only worker always crashes, with no
    restart budget: the accepted request must fail fast with
    WorkerLostError — never hang, never silently drop."""
    plan = FaultPlan(workers={0: WorkerFaults(crash_at_step=1)})
    config = _fast_fleet_config(
        fleet_workers=1, max_worker_restarts=0, requeue_budget=0
    )
    with EngineFleet(coach, config, fault_plan=plan) as fleet:
        future = fleet.submit(dataset[0])
        with pytest.raises(WorkerLostError):
            future.result(timeout=120)
        snap = fleet.metrics_snapshot()
    assert snap["worker_lost"] == 1


# -- load shedding --------------------------------------------------------------


def test_fleet_sheds_lowest_priority_first(coach, dataset):
    """With a full queue, a higher-priority arrival displaces the worst
    queued request (resolved as shed); an arrival that doesn't outrank
    anything is refused with OverloadError carrying a retry hint."""
    config = _fast_fleet_config(fleet_workers=1, max_queue_depth=2)
    fleet = EngineFleet(coach, config)
    # Not started: nothing drains the queue, so occupancy is deterministic.
    low = [fleet.submit(pair, priority=5) for pair in dataset[:2]]
    high = fleet.submit(dataset[2], priority=0)
    shed = [f for f in low if f.done()]
    assert len(shed) == 1
    result = shed[0].result(timeout=1)
    assert result.source == SOURCE_SHED and result.outcome == OUTCOME_SHED
    with pytest.raises(OverloadError) as excinfo:
        fleet.submit(dataset[3], priority=9)
    assert excinfo.value.retry_after_s > 0
    assert not high.done()
    snap = fleet.metrics_snapshot()
    assert snap["by_source"][SOURCE_SHED] == 1
    assert snap["rejected"] == 1


# -- graceful drain -------------------------------------------------------------


def test_fleet_drain_completes_inflight_and_rejects_new(coach, dataset, reference):
    fleet = EngineFleet(coach, _fast_fleet_config())
    fleet.start()
    futures = [(pair, fleet.submit(pair)) for pair in dataset]
    fleet.stop()
    # Every accepted request resolved during the drain.
    for pair, future in futures:
        assert future.done()
        result = future.result(timeout=1)
        _assert_parity(result, pair, reference)
    # The drained fleet refuses new work with a 503-shaped error...
    fresh = InstructionPair(
        instruction="Explain what a drained fleet refuses.",
        response="It refuses this, because it has never seen it before.",
    )
    with pytest.raises(OverloadError):
        fleet.submit(fresh)
    # ...but still serves what it already knows (degraded service).
    hit = fleet.submit(dataset[1])
    assert hit.result(timeout=1).source == SOURCE_CACHE
    # Workers exited cleanly with empty engines: no leaked pages.
    for stat in fleet.worker_stats():
        assert stat["clean_exit"]
        kv = stat["kv"]
        assert kv is not None and kv["n_active"] == 0
        assert kv["free_pages"] == kv["total_pages"]
        assert kv["reserved_pages"] == 0


def test_fleet_persists_cache_across_restarts(coach, dataset, reference, tmp_path):
    pair = dataset[4]
    with EngineFleet(
        coach, _fast_fleet_config(), artifact_dir=tmp_path
    ) as fleet:
        first = fleet.submit(pair).result(timeout=120)
        assert first.source == SOURCE_ENGINE
    # A brand-new fleet over the same artifact dir warm-starts: the same
    # content is a cache hit before any engine spins up.
    with EngineFleet(
        coach, _fast_fleet_config(), artifact_dir=tmp_path
    ) as fleet2:
        warm = fleet2.submit(pair).result(timeout=120)
    assert warm.source == SOURCE_CACHE
    assert warm.pair.response == first.pair.response


def test_fleet_survives_torn_cache_persistence(coach, dataset, reference, tmp_path):
    """A fleet that dies mid-persist leaves truncated JSON; the next
    fleet must quarantine it and serve correctly from a cold cache."""
    pair = dataset[5]
    plan = FaultPlan(torn_cache_write=True)
    with EngineFleet(
        coach, _fast_fleet_config(), artifact_dir=tmp_path, fault_plan=plan
    ) as fleet:
        fleet.submit(pair).result(timeout=120)
    # The torn artifact is really on disk.
    torn = list(tmp_path.glob("fleet-cache-*.json"))
    assert len(torn) == 1
    with pytest.raises(json.JSONDecodeError):
        json.loads(torn[0].read_text(encoding="utf-8"))
    with EngineFleet(
        coach, _fast_fleet_config(), artifact_dir=tmp_path
    ) as fleet2:
        result = fleet2.submit(pair).result(timeout=120)
        # Cold cache: recomputed on the engine, same tokens as ever.
        assert result.source == SOURCE_ENGINE
        _assert_parity(result, pair, reference)
    assert list(tmp_path.glob("*.corrupt-*"))


# -- observability ---------------------------------------------------------------


def test_fleet_metrics_and_health_schema(coach, dataset):
    with EngineFleet(coach, _fast_fleet_config()) as fleet:
        fleet.submit(dataset[0]).result(timeout=120)
        snap = fleet.metrics_snapshot()
        health = fleet.health()
    assert {
        "submitted", "completed", "rejected", "by_source", "engine_tokens",
        "engine_busy_s", "requeued", "worker_lost", "duplicate_results",
        "latency_p50_s", "latency_p95_s", "tokens_per_sec", "queue_depth",
        "engine",
    } <= set(snap)
    engine = snap["engine"]
    assert engine["workers"] <= 2
    for key in ("max_batch", "free_slots", "n_active"):
        assert key in engine
    if engine["workers"]:
        # Preemption counters merge across workers (zero-valued here).
        assert set(engine["preemption"]) == {
            "preemptions",
            "resumes",
            "preempted_resident_tokens",
            "stream_disconnects",
        }
    assert health["status"] in ("ok", "degraded")
    assert set(health["workers"]) == {"alive", "total", "restarts"}
    assert health["workers"]["total"] == 2


def test_http_frontend_serves_fleet(coach, dataset):
    fleet = EngineFleet(coach, _fast_fleet_config())
    with RevisionHTTPFrontend(fleet) as frontend:
        pair = dataset[6]
        body = json.dumps(
            {"instruction": pair.instruction, "response": pair.response}
        ).encode("utf-8")
        request = urllib.request.Request(
            frontend.address + "/revise", data=body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            payload = json.load(response)
        assert payload["source"] == SOURCE_ENGINE
        with urllib.request.urlopen(
            frontend.address + "/healthz", timeout=10
        ) as response:
            health = json.load(response)
        assert health["workers"]["total"] == 2
        with urllib.request.urlopen(
            frontend.address + "/metrics", timeout=10
        ) as response:
            metrics = json.load(response)
        assert metrics["engine"]["workers"] >= 1


# -- HTTP drain mode (satellite: graceful front-end drain) -----------------------


def test_http_frontend_drain_rejects_new_completes_inflight(coach, dataset):
    from repro.config import ServingConfig as SC
    from repro.serving import RevisionServer

    server = RevisionServer(coach, SC(max_batch=2, cache_capacity=0))
    with RevisionHTTPFrontend(server) as frontend:
        pair = dataset[7]
        outcome: dict = {}

        def post() -> None:
            body = json.dumps(
                {"instruction": pair.instruction, "response": pair.response}
            ).encode("utf-8")
            request = urllib.request.Request(
                frontend.address + "/revise", data=body, method="POST"
            )
            with urllib.request.urlopen(request, timeout=120) as response:
                outcome["status"] = response.status
                outcome["payload"] = json.load(response)

        thread = threading.Thread(target=post)
        thread.start()
        # Wait until the request is tracked in flight, then drain.
        deadline = time.monotonic() + 30
        while frontend.inflight_requests == 0:
            assert time.monotonic() < deadline, "request never went in flight"
            time.sleep(0.002)
        assert frontend.drain(timeout_s=120.0)
        thread.join(timeout=120)
        # The in-flight request completed normally during the drain...
        assert outcome["status"] == 200
        assert outcome["payload"]["source"] == SOURCE_ENGINE
        # ...while new work is refused with 503 + Retry-After.
        body = json.dumps(
            {"instruction": pair.instruction, "response": pair.response}
        ).encode("utf-8")
        request = urllib.request.Request(
            frontend.address + "/revise", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Retry-After"] is not None
        # Monitoring endpoints keep answering, reporting the drain.
        with urllib.request.urlopen(
            frontend.address + "/healthz", timeout=10
        ) as response:
            assert json.load(response)["status"] == "draining"


# -- scoring traffic ---------------------------------------------------------------


def test_fleet_mixed_score_and_revise_traffic(coach, tokenizer, dataset, reference):
    """Scoring shares the workers with revise traffic: verdicts match
    the sequential IFD reference, revisions keep their parity, and the
    two kinds never cross-contaminate the shared cache."""
    from repro.scoring import score_pair_ifd
    from repro.serving import OUTCOME_SCORED

    with EngineFleet(coach, _fast_fleet_config()) as fleet:
        score_futures = [(pair, fleet.submit_score(pair)) for pair in dataset]
        revise_futures = [(pair, fleet.submit(pair)) for pair in dataset[:4]]
        for pair, future in score_futures:
            result = future.result(timeout=120)
            assert result.outcome == OUTCOME_SCORED
            expected = score_pair_ifd(coach.model, tokenizer, pair).as_dict()
            assert result.score == expected
            assert result.pair.response == pair.response
        for pair, future in revise_futures:
            result = future.result(timeout=120)
            _assert_parity(result, pair, reference)
            assert result.score is None
        # Repeat score: LRU hit with the payload intact.
        again = fleet.score(dataset[0], timeout=120)
        assert again.source == SOURCE_CACHE
        assert again.score == score_pair_ifd(
            coach.model, tokenizer, dataset[0]
        ).as_dict()
        # Revise of the same content must not be served from the score
        # entry: the key-spaces are kind-namespaced.
        revised = fleet.revise(dataset[5], timeout=120)
        assert revised.score is None
        _assert_parity(revised, dataset[5], reference)
        snap = fleet.metrics_snapshot()
    assert snap["duplicate_results"] == 0
    assert snap["worker_lost"] == 0
