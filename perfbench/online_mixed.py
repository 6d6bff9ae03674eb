"""``online_mixed``: an open loop of independent users into ``RevisionServer``.

One generator thread sends ``RATE_PER_S`` requests per second for
``--seconds`` seconds into an in-process server at serving defaults
(paged KV, chunked prefill, prefix cache, preemption).  Arrival times
are a Poisson process conditioned on its count: exactly
``RATE_PER_S × seconds`` arrivals, uniformly scattered and sorted, so
every seed offers the same load.  Each arrival is, drawn from the seed:

* an IFD score (``submit_score``) — exactly :data:`SCORE_SHARE` of
  the arrivals, at seeded positions;
* otherwise a revision — streamed (``submit_stream``) when its pair is
  new, plain ``submit`` when the dataset already sent the same content
  (the natural duplicates, served by the result cache or in-flight
  dedup);
* urgent (priority 0, against the bulk 1) — exactly
  :data:`URGENT_SHARE` of the arrivals, at seeded positions.

Reader threads take each stream's first token as it arrives and the
rest at :data:`READ_INTERVAL_S`.  A dashboard thread polls
``metrics_snapshot()`` every :data:`SNAPSHOT_INTERVAL_S`.  Latency and TTFT run from each request's
*due* time, so a generator that falls behind charges its lateness to
the requests it delays; the run is invalid when the generator's p99
lateness exceeds :data:`MAX_LATE_P99_MS`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import ServingConfig
from repro.errors import ServingError
from repro.serving import SOURCE_CACHE, SOURCE_DEDUP, RevisionServer

from .common import (
    build_coach, check_revisions, check_scores, make_pairs, pair_key, percentile,
    traffic_shape, warmup_pairs,
)
from .layers import outcome_metrics

#: Offered load, requests per second.  A streamed revision takes about
#: 60 ms on a 2-core machine, and at this rate the engine is busy about
#: a third of the time, so queues stay short.  At 20 req/s a slow spell
#: of the host's CPU built a queue that moved the same seed's p90 by
#: 1.5x between runs; 6 req/s gave the same p90/p50 ratio as this rate.
RATE_PER_S = 10.0
SCORE_SHARE = 0.2
URGENT_SHARE = 0.05
URGENT, BULK = 0, 1
SNAPSHOT_INTERVAL_S = 0.25
#: Beyond this generator lateness the open loop did not hold.
MAX_LATE_P99_MS = 200.0
#: Threads that drain streams; more than the server ever has in flight.
STREAM_READERS = 32
#: After the first token a reader drains its stream at 50 Hz, like a UI;
#: the server coalesces the tokens in between.  A reader woken on every
#: decode step contends for the interpreter lock with the serving
#: thread, and latency then follows that contention more than the code.
READ_INTERVAL_S = 0.02
WARMUP_REQUESTS = 24
DRAIN_TIMEOUT_S = 60.0

_STREAM, _SUBMIT, _SCORE = "stream", "submit", "score"


@dataclass
class Request:
    pair: object
    mode: str
    priority: int
    due: float = 0.0
    sent: float = 0.0
    submit_s: float = 0.0
    first_token: float | None = None
    done: float | None = None
    token_events: int = 0
    streamed_tokens: int = 0
    result: object = None
    error: str | None = None


@dataclass
class Phase:
    requests: list[Request]
    started: float = 0.0
    snapshots_s: list[float] = field(default_factory=list)
    #: ``metrics_snapshot()`` before the first request and after the last.
    snapshot_before: dict = field(default_factory=dict)
    snapshot: dict = field(default_factory=dict)
    queue_depth_max: int = 0


class Workload:
    def __init__(self, seed: int, seconds: float, work_dir: Path):
        self.seed = seed
        self.seconds = seconds
        rng = np.random.default_rng(seed)
        n = max(1, int(round(RATE_PER_S * seconds)))
        self.pairs = make_pairs(seed, n)
        self.offsets = np.sort(rng.uniform(0.0, seconds, size=n))
        self.kinds = rng.permutation(n) < round(SCORE_SHARE * n)
        self.urgent = rng.permutation(n) < round(URGENT_SHARE * n)
        self.warmup = warmup_pairs(seed, WARMUP_REQUESTS)
        self.coach = None
        self.notes: dict = {"rate_per_s": RATE_PER_S, "requests": n}

    def _plan(self) -> list[Request]:
        seen: set = set()
        plan = []
        for pair, score, urgent in zip(self.pairs, self.kinds, self.urgent):
            if score:
                mode = _SCORE
            else:
                mode = _SUBMIT if pair_key(pair) in seen else _STREAM
                seen.add(pair_key(pair))
            plan.append(Request(pair, mode, URGENT if urgent else BULK))
        return plan

    def build(self):
        coach = build_coach()
        server = RevisionServer(coach, ServingConfig()).start()
        streams = [server.submit_stream(p, priority=BULK) for p in self.warmup[::2]]
        futures = [server.submit_score(p) for p in self.warmup[1::2]]
        for stream in streams:
            while (event := stream.get(timeout=DRAIN_TIMEOUT_S)) is not None:
                if event[0] != "tokens":
                    break
        for future in futures:
            future.result(timeout=DRAIN_TIMEOUT_S)
        self.coach = coach
        return server

    def teardown(self, server) -> None:
        server.stop()

    # -- the open loop -----------------------------------------------------------
    def phase(self, server) -> Phase:
        requests = self._plan()
        phase = Phase(requests)
        streams: queue.Queue = queue.Queue()
        stop = threading.Event()

        def read_streams() -> None:
            while (item := streams.get()) is not None:
                request, stream = item
                while True:
                    event = stream.get(timeout=DRAIN_TIMEOUT_S)
                    now = time.perf_counter()
                    if event is None:
                        request.error = "stream stalled"
                        break
                    kind, payload = event
                    if kind == "tokens":
                        if request.first_token is None:
                            request.first_token = now
                        request.token_events += 1
                        request.streamed_tokens += len(payload)
                        time.sleep(READ_INTERVAL_S)
                        continue
                    if kind == "done":
                        request.result = payload
                        # The server's own submit-to-resolve time: exact,
                        # where the reader's wake-up lags by its interval.
                        request.done = request.sent + payload.latency_s
                    else:
                        request.error = repr(payload)
                        request.done = now
                    break

        def dashboard() -> None:
            while not stop.wait(SNAPSHOT_INTERVAL_S):
                start = time.perf_counter()
                snap = server.metrics_snapshot()
                phase.snapshots_s.append(time.perf_counter() - start)
                phase.queue_depth_max = max(
                    phase.queue_depth_max, snap.get("queue_depth", 0)
                )

        readers = [
            threading.Thread(target=read_streams, daemon=True)
            for _ in range(STREAM_READERS)
        ]
        poller = threading.Thread(target=dashboard, daemon=True)
        for thread in readers + [poller]:
            thread.start()

        phase.snapshot_before = server.metrics_snapshot()
        phase.started = time.perf_counter()
        for request, offset in zip(requests, self.offsets):
            request.due = phase.started + float(offset)
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._send(server, request, streams)

        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        for request in requests:
            while (
                request.done is None and request.error is None
                and time.perf_counter() < deadline
            ):
                time.sleep(0.002)
            if request.done is None and request.error is None:
                request.error = "never resolved"
        stop.set()
        for _ in readers:
            streams.put(None)
        for thread in readers + [poller]:
            thread.join(timeout=DRAIN_TIMEOUT_S)
        return phase

    def _send(self, server, request: Request, streams: queue.Queue) -> None:
        def resolved(result) -> None:
            request.done = time.perf_counter()
            if isinstance(result, BaseException):
                request.error = repr(result)
            else:
                request.result = result

        request.sent = time.perf_counter()
        try:
            if request.mode == _STREAM:
                stream = server.submit_stream(request.pair, priority=request.priority)
                streams.put((request, stream))
            elif request.mode == _SUBMIT:
                server.submit(request.pair, priority=request.priority).subscribe(resolved)
            else:
                server.submit_score(
                    request.pair, priority=request.priority
                ).subscribe(resolved)
        except ServingError as error:
            request.error = repr(error)
            request.done = time.perf_counter()
        request.submit_s = time.perf_counter() - request.sent

    def finish(self, server, phase: Phase) -> None:
        phase.snapshot = server.metrics_snapshot()

    # -- metrics -----------------------------------------------------------------
    @staticmethod
    def _ok(request: Request) -> bool:
        return (
            request.error is None and request.result is not None
            and request.result.outcome not in ("expired", "shed")
        )

    def _engine_busy_s(self, phase: Phase) -> float:
        return phase.snapshot["engine_busy_s"] - phase.snapshot_before["engine_busy_s"]

    def end_to_end(self, phase: Phase) -> dict[str, float]:
        ok = [r for r in phase.requests if self._ok(r)]
        latency = [(r.done - r.due) * 1e3 for r in ok]
        ttft = [
            ((r.first_token or r.done) - r.due) * 1e3
            for r in ok if r.mode == _STREAM
        ]
        return {
            # The open loop fixes requests per wall second; what the server
            # controls is how many it completes per second of engine work.
            "pairs_per_s": len(ok) / self._engine_busy_s(phase),
            "latency_p50_ms": percentile(latency, 50),
            "latency_p90_ms": percentile(latency, 90),
            "ttft_p50_ms": percentile(ttft, 50),
        }

    def cost(self, phase: Phase) -> float:
        """Server-side seconds per completed request (the engine's busy time)."""
        ok = sum(self._ok(r) for r in phase.requests)
        return self._engine_busy_s(phase) / max(ok, 1)

    def layer_values(self, phase: Phase) -> dict[str, float]:
        requests = phase.requests
        ok = [r for r in requests if self._ok(r)]
        late_ms = [(r.sent - r.due) * 1e3 for r in requests]
        snap = phase.snapshot
        by_source = snap.get("by_source", {})
        streamed = [r for r in ok if r.mode == _STREAM]
        scores = [r for r in ok if r.mode == _SCORE]
        revisions = [r for r in ok if r.mode != _SCORE]
        outcomes: dict[str, int] = {}
        for r in revisions:
            if r.result.source not in (SOURCE_CACHE, SOURCE_DEDUP):
                outcomes[r.result.outcome] = outcomes.get(r.result.outcome, 0) + 1
        decoded = sum(outcomes.values())
        values = {
            "loadgen.sent": float(len(requests)),
            "loadgen.succeeded": float(len(ok)),
            "loadgen.failed": float(len(requests) - len(ok)),
            "loadgen.late_p99_ms": percentile(late_ms, 99),
            "server.submit_us_p99": percentile([r.submit_s for r in requests], 99) * 1e6,
            "server.queue_depth_max": float(phase.queue_depth_max),
            "server.cache_served_ratio": (
                (by_source.get(SOURCE_CACHE, 0) + by_source.get(SOURCE_DEDUP, 0))
                / max(snap.get("completed", 0), 1)
            ),
            "server.stream_events_per_req": (
                float(np.mean([r.token_events for r in streamed])) if streamed else 0.0
            ),
            # The TTFT tail is a few milliseconds of step and thread
            # hand-off jitter on a 3 ms median: too unsteady across runs
            # for an end-to-end bound, so it is reported per layer.
            "server.ttft_p95_ms": percentile(
                [((r.first_token or r.done) - r.due) * 1e3 for r in streamed], 95
            ),
            "server.snapshot_ms_p50": percentile(phase.snapshots_s, 50) * 1e3,
            "server.snapshot_ms_max": max(phase.snapshots_s, default=0.0) * 1e3,
            "server.rejected": float(snap.get("rejected", 0)),
            "server.expired": float(by_source.get("deadline", 0)),
            "server.shed": float(by_source.get("shed", 0)),
            "scoring.latency_p50_ms": percentile(
                [(r.done - r.due) * 1e3 for r in scores], 50
            ),
        }
        values.update(outcome_metrics(outcomes, decoded))
        values.update(traffic_shape(
            self.coach, [r.pair for r in requests],
            [r.result.generated_tokens for r in revisions
             if r.result.source not in (SOURCE_CACHE, SOURCE_DEDUP)],
            sum(r.mode == _SCORE for r in requests) / len(requests),
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
                errors.append(
                    f"{r.pair.pair_id}: {r.error or r.result.outcome}"
                )
            elif r.mode == _STREAM and r.streamed_tokens != r.result.generated_tokens:
                failed += 1
                errors.append(
                    f"{r.pair.pair_id}: streamed {r.streamed_tokens} tokens, "
                    f"result says {r.result.generated_tokens}"
                )
        ok = [r for r in requests if self._ok(r)]
        mismatches = check_scores(
            coach, [(r.pair, r.result.score) for r in ok if r.mode == _SCORE]
        ) + check_revisions(
            coach, self.seed,
            [(r.pair, r.result.pair, r.result.outcome) for r in ok if r.mode != _SCORE],
        )
        failed += len(mismatches)
        errors.extend(mismatches)
        late = percentile([(r.sent - r.due) * 1e3 for r in requests], 99)
        if late > MAX_LATE_P99_MS:
            failed += 1
            errors.append(
                f"open loop invalid: generator p99 lateness {late:.1f} ms "
                f"> {MAX_LATE_P99_MS} ms"
            )
        return len(requests), failed, errors
