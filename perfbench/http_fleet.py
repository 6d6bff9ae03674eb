"""``http_fleet``: a closed-loop HTTP client over a 2-worker ``EngineFleet``.

``RevisionHTTPFrontend`` serves a two-worker ``EngineFleet`` at serving
defaults.  One client thread with its own ``RevisionHTTPClient`` sends
its next request as soon as the previous one returns, until
``--seconds`` have passed.  One connection, not two: with a second
client, cache hits share the two cores with a worker decoding the other
client's miss, and the hit round trip (the workload's p50) then follows
the CPU scheduler more than the code.

Of every ten requests, seven (:data:`REPEAT_SHARE`), in seeded
positions, repeat a request the client already sent — the retry/resume
pattern the fleet's result cache makes exactly-once.  Of every five new
requests, one (:data:`SCORE_SHARE`) is an IFD score and the rest are
revisions.  Responses are not streamed, so a request's time to first
token is its round trip: ``ttft_*`` equal ``latency_*`` here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import FleetConfig, ServingConfig
from repro.errors import ServingError
from repro.serving import (
    SOURCE_CACHE, SOURCE_DEDUP, SOURCE_ENGINE, EngineFleet, RevisionHTTPClient,
    RevisionHTTPFrontend, ServingMetrics,
)

from .common import (
    build_coach, check_revisions, check_scores, make_pairs, percentile, traffic_shape,
    warmup_pairs,
)
from .layers import outcome_metrics

CLIENTS = 1
FLEET_WORKERS = 2
SCORE_SHARE = 0.2
REPEAT_SHARE = 0.7
CLIENT_TIMEOUT_S = 30.0
#: Fresh pairs generated per second of run time (more than are sent).
NEW_PAIRS_PER_SECOND = 80
WARMUP_REQUESTS = 12
_REVISE, _SCORE = "revise", "score"
_HITS = (SOURCE_CACHE, SOURCE_DEDUP)


def _stratified(rng: np.random.Generator, share: float, block: int):
    """Endless booleans, exactly ``share`` of each ``block`` True, seeded order.

    Fixing the mix per block instead of drawing each request keeps the
    share of decoding misses, and with it throughput, the same across
    seeds.
    """
    hits = round(share * block)
    while True:
        yield from (rng.permutation(block) < hits)


def _worker_engine_metrics(before: dict, after: dict) -> dict[str, float]:
    """``decoding.*`` counters of the phase, from the fleet's merged worker stats.

    The workers run untraced; the fleet sums their prefix-cache and
    preemption counters into ``metrics_snapshot()["engine"]``.
    """
    def delta(block: str, key: str) -> float:
        return float(
            after.get("engine", {}).get(block, {}).get(key, 0)
            - before.get("engine", {}).get(block, {}).get(key, 0)
        )

    lookups = delta("prefix_cache", "lookups")
    return {
        "decoding.prefix_hit_rate": (
            delta("prefix_cache", "hits") / lookups if lookups else 0.0
        ),
        "decoding.prefix_shared_tokens": delta("prefix_cache", "shared_tokens"),
        "decoding.preemptions": delta("preemption", "preemptions"),
        "decoding.resumes": delta("preemption", "resumes"),
    }


@dataclass
class Request:
    kind: str
    pair: object
    start: float = 0.0
    end: float = 0.0
    result: object = None
    error: str | None = None


@dataclass
class Phase:
    requests: list[Request] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    client_metrics: ServingMetrics = field(default_factory=ServingMetrics)
    #: ``metrics_snapshot()`` before the first request and after the last.
    snapshot_before: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)
    restarts: int = 0


@dataclass
class System:
    fleet: EngineFleet
    frontend: RevisionHTTPFrontend


class Workload:
    def __init__(self, seed: int, seconds: float, work_dir: Path):
        self.seed = seed
        self.seconds = seconds
        n = max(64, int(NEW_PAIRS_PER_SECOND * seconds))
        pairs = make_pairs(seed, n)
        self.fresh = [pairs[c::CLIENTS] for c in range(CLIENTS)]
        self.warmup = warmup_pairs(seed, WARMUP_REQUESTS)
        self.coach = None
        self.notes: dict = {
            "clients": CLIENTS, "fleet_workers": FLEET_WORKERS,
        }

    def build(self) -> System:
        coach = build_coach()
        fleet = EngineFleet(
            coach, FleetConfig(fleet_workers=FLEET_WORKERS, serving=ServingConfig())
        )
        frontend = RevisionHTTPFrontend(fleet).start()
        client = RevisionHTTPClient(frontend.address, timeout_s=CLIENT_TIMEOUT_S)
        for i, pair in enumerate(self.warmup):
            (client.score_pair if i % 4 == 3 else client.revise_pair)(pair)
        self.coach = coach
        return System(fleet, frontend)

    def teardown(self, system: System) -> None:
        system.frontend.stop()

    # -- the closed loop ----------------------------------------------------------
    def phase(self, system: System) -> Phase:
        phase = Phase()
        lock = threading.Lock()

        def client_loop(index: int) -> None:
            rng = np.random.default_rng([self.seed, index])
            client = RevisionHTTPClient(
                system.frontend.address, timeout_s=CLIENT_TIMEOUT_S,
                metrics=phase.client_metrics, seed=self.seed + index,
            )
            fresh = iter(self.fresh[index])
            repeats = _stratified(rng, REPEAT_SHARE, 10)
            scores = _stratified(rng, SCORE_SHARE, 5)
            sent: list[tuple[str, object]] = []
            mine: list[Request] = []
            while time.perf_counter() < deadline:
                if next(repeats) and sent:
                    kind, pair = sent[int(rng.integers(len(sent)))]
                    request = Request(kind, pair)
                else:
                    kind = _SCORE if next(scores) else _REVISE
                    request = Request(kind, next(fresh))
                    sent.append((kind, request.pair))
                call = client.score_pair if kind == _SCORE else client.revise_pair
                request.start = time.perf_counter()
                try:
                    request.result = call(request.pair)
                except ServingError as error:
                    request.error = repr(error)
                request.end = time.perf_counter()
                mine.append(request)
            with lock:
                phase.requests.extend(mine)

        threads = [
            threading.Thread(target=client_loop, args=(i,), daemon=True)
            for i in range(CLIENTS)
        ]
        phase.snapshot_before = system.fleet.metrics_snapshot()
        phase.started = time.perf_counter()
        deadline = phase.started + self.seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.seconds + 2 * CLIENT_TIMEOUT_S)
        phase.ended = time.perf_counter()
        return phase

    def finish(self, system: System, phase: Phase) -> None:
        phase.snapshot = system.fleet.metrics_snapshot()
        phase.restarts = system.fleet.health()["workers"]["restarts"]

    # -- metrics ---------------------------------------------------------------------
    @staticmethod
    def _ok(request: Request) -> bool:
        return request.error is None and request.result is not None

    def end_to_end(self, phase: Phase) -> dict[str, float]:
        ok = [r for r in phase.requests if self._ok(r)]
        latency = [(r.end - r.start) * 1e3 for r in ok]
        return {
            "pairs_per_s": len(ok) / (phase.ended - phase.started),
            "latency_p50_ms": percentile(latency, 50),
            "latency_p90_ms": percentile(latency, 90),
            "ttft_p50_ms": percentile(latency, 50),
        }

    def cost(self, phase: Phase) -> float:
        ok = sum(self._ok(r) for r in phase.requests)
        return (phase.ended - phase.started) / max(ok, 1)

    def layer_values(self, phase: Phase) -> dict[str, float]:
        requests = phase.requests
        ok = [r for r in requests if self._ok(r)]
        overhead = [(r.end - r.start - r.result.latency_s) * 1e3 for r in ok]
        hits = [r.result.latency_s for r in ok if r.result.source in _HITS]
        misses = [r.result.latency_s for r in ok if r.result.source == SOURCE_ENGINE]
        revised_misses = [
            r for r in ok if r.kind == _REVISE and r.result.source == SOURCE_ENGINE
        ]
        outcomes: dict[str, int] = {}
        for r in revised_misses:
            outcomes[r.result.outcome] = outcomes.get(r.result.outcome, 0) + 1
        snap = phase.snapshot
        metrics = phase.client_metrics
        values = {
            "loadgen.sent": float(len(requests)),
            "loadgen.succeeded": float(len(ok)),
            "loadgen.failed": float(len(requests) - len(ok)),
            "http.overhead_ms_p50": percentile(overhead, 50),
            "http.overhead_ms_p99": percentile(overhead, 99),
            "http.retries": float(metrics.retries),
            "http.gave_up": float(metrics.gave_up),
            "fleet.hit_latency_us_p50": percentile(hits, 50) * 1e6,
            "fleet.miss_latency_ms_p50": percentile(misses, 50) * 1e3,
            "fleet.requeued": float(snap.get("requeued", 0)),
            "fleet.duplicate_results": float(snap.get("duplicate_results", 0)),
            "fleet.worker_restarts": float(phase.restarts),
            "server.cache_served_ratio": len(hits) / max(len(ok), 1),
            "server.rejected": float(snap.get("rejected", 0)),
            "server.expired": float(snap.get("by_source", {}).get("deadline", 0)),
            "server.shed": float(snap.get("by_source", {}).get("shed", 0)),
            "scoring.latency_p50_ms": percentile(
                [(r.end - r.start) * 1e3 for r in ok if r.kind == _SCORE], 50
            ),
        }
        values.update(_worker_engine_metrics(phase.snapshot_before, snap))
        values.update(outcome_metrics(outcomes, len(revised_misses)))
        values.update(traffic_shape(
            self.coach, [r.pair for r in requests],
            [r.result.generated_tokens for r in revised_misses],
            sum(r.kind == _SCORE for r in requests) / len(requests),
        ))
        return values

    # -- correctness -------------------------------------------------------------
    def check(self, phase: Phase) -> tuple[int, int, list[str]]:
        coach = self.coach
        requests = phase.requests
        errors: list[str] = []
        failed = 0
        for r in requests:
            if not self._ok(r):
                failed += 1
                errors.append(f"{r.pair.pair_id}: {r.error}")
        ok = [r for r in requests if self._ok(r)]
        mismatches = check_scores(
            coach, [(r.pair, r.result.score) for r in ok if r.kind == _SCORE]
        ) + check_revisions(
            coach, self.seed,
            [(r.pair, r.result.pair, r.result.outcome) for r in ok if r.kind == _REVISE],
        )
        failed += len(mismatches)
        errors.extend(mismatches)
        duplicates = phase.snapshot.get("duplicate_results", 0)
        if duplicates:
            failed += duplicates
            errors.append(f"fleet reported {duplicates} duplicate results")
        return len(requests), failed, errors
