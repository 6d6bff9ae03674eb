"""The online revision server: asynchronous CoachLM over the batched engine.

:class:`RevisionServer` is the paper's deployment story (Fig. 6) made
*online*: user cases arrive one at a time, are revised by CoachLM before
any human sees them, and the fleet never waits for a batch boundary —
the streaming scheduler slips each request into the first KV slot that
retires.  Request lifecycle::

    submit() ── leakage gate ──┐
        │                      └─ resolved immediately (id-dependent)
        ├─ LRU cache hit ───────── resolved immediately, engine untouched
        ├─ in-flight dedup ─────── attached to the identical leader request
        └─ bounded priority queue (AdmissionError when full)
              └─ worker: deadline check → quality gate → prompt gate
                    └─ streaming scheduler → batched engine → parse/validate
                          └─ future resolved, result cached, followers fanned out

Results are token-for-token identical to
:meth:`CoachLM.revise_dataset` for the same inputs: both paths share
``prepare_revision``/``finalize_revision`` and the same engine greedy
decode.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..config import ServingConfig
from ..core.coachlm import CoachLM, RevisionOutcome
from ..data.instruction_pair import InstructionPair
from ..errors import AdmissionError, GenerationError, ModelError
from ..nn.decoding import BatchedEngine, SequenceScore
from ..quality.scorer import CriteriaScorer
from ..scoring.ifd import conditioned_request, pair_ifd, unconditioned_request
from .cache import (
    CachedRevision,
    CachedScore,
    RevisionLRUCache,
    revision_key,
    score_key,
)
from .metrics import ServingMetrics
from .queueing import BoundedPriorityQueue
from .requests import (
    KIND_SCORE,
    OUTCOME_EXPIRED,
    OUTCOME_QUALITY_GATED,
    OUTCOME_SCORED,
    RevisionFuture,
    RevisionResult,
    RevisionTask,
    SOURCE_CACHE,
    SOURCE_DEADLINE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    SOURCE_GATE,
)
from .scheduler import EngineJob, StreamingScheduler



class RevisionStream:
    """Consumer handle of one streaming revision.

    The server pushes ordered events into a thread-safe queue as the
    request progresses; the consumer (an HTTP handler, a test) pops them
    with :meth:`get`:

    * ``("tokens", [ids...])`` — tokens produced since the last event;
    * ``("done", RevisionResult)`` — terminal, exactly once, whatever
      path resolved the request (engine, cache, quality gate, expiry);
    * ``("error", exception)`` — terminal, the request failed.

    A preemption of the underlying sequence shows up as a *gap* between
    token events, never as an error — and never changes the tokens.
    :meth:`cancel` (safe from any thread, idempotent) abandons the
    stream: the engine sequence is cancelled and its pages recycle.  No
    terminal event follows a cancel — the consumer is the one leaving.
    """

    def __init__(self, server: "RevisionServer"):
        self._server = server
        self._events: deque = deque()
        self._cond = threading.Condition()
        self._lock = threading.Lock()
        self._seq_id: int | None = None
        self._cancelled = False
        self._terminal = False

    def get(self, timeout: float | None = None):
        """Pop the next event; ``None`` when nothing arrives in time."""
        with self._cond:
            if not self._cond.wait_for(lambda: bool(self._events), timeout):
                return None
            return self._events.popleft()

    def cancel(self) -> None:
        """Abandon the stream (client disconnected); idempotent."""
        with self._lock:
            if self._cancelled:
                return
            self._cancelled = True
            seq_id = self._seq_id
        if seq_id is not None:
            self._server._request_stream_cancel(seq_id)

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    # -- server side -------------------------------------------------------------
    def _push_tokens(self, token_ids: list[int]) -> None:
        # Unlocked flag reads: both only go False->True, and a late
        # extra event is harmless (cancel drains via the server anyway).
        if self._terminal or self._cancelled:
            return
        with self._cond:
            # Coalesce into an undelivered tokens event when the
            # consumer is running behind: each event is "tokens produced
            # since the last one", so merging is semantics-preserving
            # and keeps a slow reader from being woken per decode step.
            # No notify on this branch — a pending event means any
            # waiter was already woken for it.
            if self._events and self._events[-1][0] == "tokens":
                self._events[-1][1].extend(token_ids)
            else:
                self._events.append(("tokens", list(token_ids)))
                self._cond.notify()

    def _push_terminal(self, result) -> None:
        # A RevisionResult or an exception, whichever resolved the future.
        if self._terminal or self._cancelled:
            return
        self._terminal = True
        with self._cond:
            if isinstance(result, BaseException):
                self._events.append(("error", result))
            else:
                self._events.append(("done", result))
            self._cond.notify()

    def _attach(self, seq_id: int) -> bool:
        """Record the engine sequence id; True if already cancelled."""
        with self._lock:
            self._seq_id = seq_id
            return self._cancelled


class RevisionServer:
    """Accepts revision requests asynchronously; serves them via CoachLM.

    The server owns one worker thread that pops the bounded priority
    queue and pumps the streaming scheduler; everything up to the queue
    (cache hits, dedup attachment, admission control) runs on the
    caller's thread and never blocks on the engine.  Use as a context
    manager or call :meth:`start`/:meth:`stop` explicitly; :meth:`stop`
    drains outstanding work before returning.
    """

    def __init__(
        self,
        coach: CoachLM,
        config: ServingConfig | None = None,
        scorer: CriteriaScorer | None = None,
    ):
        if coach.model is None:
            raise ModelError("RevisionServer needs a CoachLM with a model")
        self.coach = coach
        self.config = config or ServingConfig()
        if self.config.quality_gate_threshold is not None and scorer is None:
            scorer = CriteriaScorer()
        self.scorer = scorer
        self.queue: BoundedPriorityQueue[RevisionTask] = BoundedPriorityQueue(
            self.config.max_queue_depth
        )
        self.cache = RevisionLRUCache(self.config.cache_capacity)
        self.metrics = ServingMetrics()
        self.scheduler = StreamingScheduler(
            BatchedEngine(
                coach.model,
                max_batch=self.config.max_batch,
                prefill_chunk_tokens=self.config.prefill_chunk_tokens,
                prefill_concurrency=self.config.prefill_concurrency,
                kv_page_tokens=self.config.kv_page_tokens,
                kv_pool_pages=self.config.kv_pool_pages,
                kv_prefix_cache=self.config.kv_prefix_cache,
                preemption=self.config.preemption_enabled,
            ),
            self.metrics,
        )
        self._state_lock = threading.Lock()    # guards cache fill + dedup map
        #: Content key → follower tasks attached to the in-flight leader.
        self._inflight: dict[str, list[RevisionTask]] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Mid-stream cancels arrive from HTTP handler threads; the engine
        # is single-driver, so they marshal through this list and the
        # worker drains it between pumps.
        self._cancel_lock = threading.Lock()
        self._stream_cancels: list[int] = []

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "RevisionServer":
        """Start the worker thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self.queue.reopen()
            self._thread = threading.Thread(
                target=self._run, name="revision-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain outstanding work, then stop and join the worker."""
        if self._thread is None:
            return
        self._stop.set()
        self.queue.close()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "RevisionServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- client API --------------------------------------------------------------
    def submit(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair for revision; returns a future.

        Raises :class:`AdmissionError` when the queue is full — the
        caller decides whether to retry, shed, or block (see
        :class:`~repro.serving.client.InProcessRevisionClient`).
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        future = RevisionFuture()
        self.metrics.record_submitted()

        # Leakage gating depends on pair identity, not content: keep such
        # pairs away from the content-keyed cache and dedup map.
        key = (
            None
            if self.coach.is_leakage_gated(pair)
            else revision_key(pair, self.coach.max_new_tokens, self.coach.copy_bias)
        )
        task = RevisionTask(
            pair=pair,
            future=future,
            cache_key=key,
            submitted_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            priority=priority,
        )
        return self._submit_task(task)

    def submit_score(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair for IFD scoring; returns a future.

        Scoring shares the queue, dedup map, result cache and engine
        fleet with revision traffic, but under its own kind-namespaced
        key-space (:func:`score_key`) — a score and a revise of the same
        content never collide.  Leakage gating is irrelevant here
        (scoring reads the pair, it never rewrites it), so every score
        task is content-keyed.  Unscoreable pairs (over-context, empty
        response) resolve with outcome ``prompt_too_long`` and a
        ``None`` score payload.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        self.metrics.record_submitted()
        task = RevisionTask(
            pair=pair,
            future=RevisionFuture(),
            cache_key=score_key(pair) if self.cache.capacity > 0 else None,
            submitted_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            priority=priority,
            kind=KIND_SCORE,
        )
        return self._submit_task(task)

    def submit_stream(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionStream:
        """Enqueue one pair for revision with incremental token delivery.

        Returns a :class:`RevisionStream` whose events arrive as the
        engine produces tokens — the terminal ``done`` event carries the
        same :class:`RevisionResult` :meth:`submit` would resolve with,
        whichever path produced it (cache hits stream no tokens, just
        ``done``).  Streaming requests skip the in-flight dedup map (a
        follower cannot share a leader's stream) but still read and fill
        the result cache.  Raises :class:`AdmissionError` when the queue
        is full.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        now = time.monotonic()
        future = RevisionFuture()
        stream = RevisionStream(self)
        future.subscribe(stream._push_terminal)
        self.metrics.record_submitted()
        key = (
            None
            if self.coach.is_leakage_gated(pair)
            else revision_key(pair, self.coach.max_new_tokens, self.coach.copy_bias)
        )
        task = RevisionTask(
            pair=pair,
            future=future,
            cache_key=key,
            submitted_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            priority=priority,
            stream=stream,
        )
        if key is not None and self.cache.capacity > 0:
            with self._state_lock:
                entry = self.cache.get(key)
            if entry is not None:
                self._resolve(
                    future, entry.apply(pair), entry.outcome,
                    SOURCE_CACHE, now,
                )
                return stream
        self._enqueue(task)
        return stream

    def _request_stream_cancel(self, seq_id: int) -> None:
        """Marshal a mid-stream cancel onto the worker thread."""
        with self._cancel_lock:
            self._stream_cancels.append(seq_id)

    def _submit_task(self, task: RevisionTask) -> RevisionFuture:
        """Cache / dedup / enqueue one built task (kind-agnostic)."""
        key = task.cache_key
        if key is None or self.cache.capacity <= 0:
            return self._enqueue(task)
        with self._state_lock:
            entry = self.cache.get(key)
            if entry is not None:
                self._resolve(
                    task.future, entry.apply(task.pair), entry.outcome,
                    SOURCE_CACHE, task.submitted_at,
                    score=getattr(entry, "payload", None),
                )
                return task.future
            followers = self._inflight.get(key)
            if followers is not None:
                followers.append(task)
                return task.future
            # New leader: enqueue while still holding the lock, so a
            # rejected put can never leave (or strand followers on) a
            # half-registered in-flight entry.
            self._enqueue(task)
            self._inflight[key] = []
        return task.future

    def _enqueue(self, task: RevisionTask) -> RevisionFuture:
        try:
            self.queue.put(task, task.priority)
        except AdmissionError:
            self.metrics.record_rejected()
            raise
        return task.future

    def revise(
        self, pair: InstructionPair, timeout: float | None = None
    ) -> RevisionResult:
        """Synchronous helper: submit one pair and wait for its result."""
        return self.submit(pair).result(timeout)

    def score(
        self, pair: InstructionPair, timeout: float | None = None
    ) -> RevisionResult:
        """Synchronous helper: submit one scoring request and wait."""
        return self.submit_score(pair).result(timeout)

    # -- observability (the HTTP front-end's service protocol) -------------------
    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload: counters + queue depth + engine gauges."""
        return self.metrics.snapshot(
            queue_depth=self.queue.depth, engine=self.scheduler.kv_stats()
        )

    def health(self) -> dict:
        """The ``/healthz`` payload: liveness plus the headroom gauges."""
        engine = self.scheduler.kv_stats()
        return {
            "status": "ok",
            "queue_depth": self.queue.depth,
            "free_slots": engine["free_slots"],
            "free_pages": engine.get("free_pages"),
        }

    # -- worker ------------------------------------------------------------------
    def _run(self) -> None:
        scheduler = self.scheduler
        queue = self.queue
        while True:
            # Mid-stream disconnects: cancel the abandoned sequences so
            # their slots, pages and reservations recycle immediately.
            if self._stream_cancels:
                with self._cancel_lock:
                    cancels, self._stream_cancels = self._stream_cancels, []
                for seq_id in cancels:
                    if scheduler.cancel(seq_id):
                        scheduler.engine.note_stream_disconnect()
            # Starvation guard: a saturating high-priority stream keeps
            # low-priority items from ever reaching the queue head, so
            # deadline misses are swept out of the *whole* queue — they
            # expire (typed, with Retry-After at the HTTP edge) instead
            # of waiting unboundedly.
            if queue.depth:
                now = time.monotonic()
                overdue = queue.sweep(
                    lambda t: t.deadline is not None and now > t.deadline
                )
                for task in overdue:
                    promoted = self._expire_task(task)
                    if promoted is not None:
                        self._admit(promoted)
            # Admit queued tasks only while the engine has room: requests
            # wait under the *priority* discipline, not the engine FIFO.
            # When the fleet is saturated and the queue head outranks an
            # active decode, preempt the lowest-priority one — the
            # interactive request takes its slot now and the bulk
            # sequence resumes later with identical tokens.
            while True:
                if scheduler.free_capacity <= 0:
                    head = queue.peek_priority()
                    if head is None or scheduler.preempt_victim(head) is None:
                        break
                task = queue.get(timeout=0.0)
                if task is None:
                    break
                self._admit(task)
            if scheduler.has_work:
                scheduler.pump()
                continue
            if self._stop.is_set() and queue.depth == 0:
                break
            task = queue.get(timeout=self.config.idle_wait_s)
            if task is not None:
                self._admit(task)

    def _expire_task(self, task: RevisionTask) -> RevisionTask | None:
        """Resolve one deadline-missed task; returns its promoted follower.

        Expiry is per-request: this task alone is resolved as expired and
        its oldest follower (whose own deadline may be laxer) is promoted
        to leader rather than fanning the expiry out to all of them.
        """
        promoted: RevisionTask | None = None
        if task.cache_key is not None:
            with self._state_lock:
                followers = self._inflight.pop(task.cache_key, [])
                if followers:
                    promoted, rest = followers[0], followers[1:]
                    self._inflight[task.cache_key] = rest
        self._resolve(
            task.future, task.pair, OUTCOME_EXPIRED, SOURCE_DEADLINE,
            task.submitted_at,
        )
        return promoted

    def _admit(self, task: RevisionTask) -> None:
        """Gate one dequeued task; hand survivors to the scheduler."""
        while task.deadline is not None and time.monotonic() > task.deadline:
            promoted = self._expire_task(task)
            if promoted is None:
                return
            task = promoted
        if task.kind == KIND_SCORE:
            self._admit_score(task)
            return
        threshold = self.config.quality_gate_threshold
        if threshold is not None and self.scorer is not None:
            report = self.scorer.score_pair(task.pair)
            if report.min_score >= threshold:
                self._finish(
                    task, task.pair, OUTCOME_QUALITY_GATED, SOURCE_GATE,
                    cacheable=True,
                )
                return
        request, outcome = self.coach.prepare_revision(task.pair)
        if request is None:
            assert outcome is not None
            self._finish(
                task, task.pair, outcome.value, SOURCE_ENGINE,
                cacheable=outcome is RevisionOutcome.PROMPT_TOO_LONG,
            )
            return

        def on_done(tokens: list[int], task: RevisionTask = task) -> None:
            revised, out = self.coach.finalize_revision(task.pair, tokens)
            self._finish(
                task, revised, out.value, SOURCE_ENGINE,
                cacheable=True, generated=len(tokens),
            )

        def on_expired(task: RevisionTask = task) -> None:
            # The job missed its deadline inside the engine (queued or
            # mid-flight): same per-request expiry + follower promotion
            # as a queue-side miss, with the promoted follower re-gated.
            promoted = self._expire_task(task)
            if promoted is not None:
                self._admit(promoted)

        stream: RevisionStream | None = task.stream
        if stream is not None and stream.cancelled:
            # The client disconnected while the task was still queued:
            # nobody is left to deliver to, so the engine never sees it.
            self.scheduler.engine.note_stream_disconnect()
            return
        seq_id = self.scheduler.submit(
            EngineJob(
                request, on_done, deadline=task.deadline, on_expired=on_expired,
                priority=task.priority,
                on_token=stream._push_tokens if stream is not None else None,
            )
        )
        if stream is not None and seq_id is not None and stream._attach(seq_id):
            # Cancel raced the submit: the id was unknown to the client-
            # side cancel, so cancel here on the worker thread directly.
            if self.scheduler.cancel(seq_id):
                self.scheduler.engine.note_stream_disconnect()

    def _admit_score(self, task: RevisionTask) -> None:
        """Hand one scoring task to the scheduler as two engine jobs.

        IFD needs two teacher-forced passes (response NLL conditioned and
        unconditioned on the instruction); each becomes its own
        :class:`EngineJob` so they batch and schedule like any other
        engine work.  The combiner closure runs on the single worker
        thread (scheduler callbacks are dispatched there), so the
        ``resolved`` latch dict needs no lock; expiry of either job
        resolves the task exactly once via its own latch.
        """
        cond = conditioned_request(self.coach.tokenizer, task.pair)
        uncond = unconditioned_request(self.coach.tokenizer, task.pair)
        resolved: dict[str, SequenceScore] = {}

        def combine(which: str, score: SequenceScore) -> None:
            resolved[which] = score
            if len(resolved) == 2:
                verdict = pair_ifd(resolved["cond"], resolved["uncond"])
                self._finish(
                    task, task.pair, OUTCOME_SCORED, SOURCE_ENGINE,
                    cacheable=True, score=verdict.as_dict(),
                )

        expired = {"fired": False}

        def on_expired(task: RevisionTask = task) -> None:
            # Both engine jobs carry this callback; the first expiry wins
            # and the second (its job already terminal) is a no-op here.
            if expired["fired"]:
                return
            expired["fired"] = True
            promoted = self._expire_task(task)
            if promoted is not None:
                self._admit(promoted)

        try:
            # The conditioned prompt strictly contains the unconditioned
            # one, so validating/submitting it first means a too-long
            # pair enqueues nothing.
            self.scheduler.submit(EngineJob(
                cond, lambda s: combine("cond", s),
                deadline=task.deadline, on_expired=on_expired,
                priority=task.priority,
            ))
            self.scheduler.submit(EngineJob(
                uncond, lambda s: combine("uncond", s),
                deadline=task.deadline, on_expired=on_expired,
                priority=task.priority,
            ))
        except GenerationError:
            self._finish(
                task, task.pair, RevisionOutcome.PROMPT_TOO_LONG.value,
                SOURCE_ENGINE, cacheable=True,
            )

    def _finish(
        self,
        task: RevisionTask,
        result_pair: InstructionPair,
        outcome: str,
        source: str,
        cacheable: bool,
        generated: int = 0,
        score: dict | None = None,
    ) -> None:
        """Resolve a task terminally: cache, fan out to followers, notify."""
        entry: CachedRevision | CachedScore
        if task.kind == KIND_SCORE:
            entry = CachedScore(score, outcome)
        else:
            entry = CachedRevision(
                result_pair.instruction, result_pair.response, outcome
            )
        followers: list[RevisionTask] = []
        if task.cache_key is not None:
            with self._state_lock:
                if cacheable:
                    self.cache.put(task.cache_key, entry)
                followers = self._inflight.pop(task.cache_key, [])
        self._resolve(
            task.future, result_pair, outcome, source, task.submitted_at,
            generated, score,
        )
        for follower in followers:
            self._resolve(
                follower.future, entry.apply(follower.pair), outcome,
                SOURCE_DEDUP, follower.submitted_at, score=score,
            )

    def _resolve(
        self,
        future: RevisionFuture,
        pair: InstructionPair,
        outcome: str,
        source: str,
        submitted_at: float,
        generated: int = 0,
        score: dict | None = None,
    ) -> None:
        result = RevisionResult(
            pair=pair,
            outcome=outcome,
            source=source,
            latency_s=time.monotonic() - submitted_at,
            generated_tokens=generated,
            score=score,
        )
        self.metrics.record_result(result)
        future.set_result(result)
