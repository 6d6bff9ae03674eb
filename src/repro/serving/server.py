"""The online revision server: asynchronous CoachLM over the batched engine.

:class:`RevisionServer` is the paper's deployment story (Fig. 6) made
*online*: user cases arrive one at a time, are revised by CoachLM before
any human sees them, and the fleet never waits for a batch boundary —
the streaming scheduler slips each request into the first KV slot that
retires.  Its request lifecycle (cache, dedup, gates, resolution) is
the one in :mod:`repro.serving.lifecycle`, shared with the
multi-process :class:`~repro.serving.fleet.EngineFleet`; the server adds
a bounded priority queue (:class:`AdmissionError` when full), one worker
thread that pumps the scheduler, and token streams.

Results are token-for-token identical to
:meth:`CoachLM.revise_dataset` for the same inputs: both paths share
``prepare_revision``/``finalize_revision`` and the same engine greedy
decode.
"""

from __future__ import annotations

import functools
import threading
import time
from queue import Empty, SimpleQueue

from ..config import ServingConfig
from ..core.coachlm import CoachLM
from ..data.instruction_pair import InstructionPair
from ..errors import AdmissionError, ModelError
from ..nn.decoding import BatchedEngine
from ..quality.scorer import CriteriaScorer
from .lifecycle import RequestBook, RevisionService, admit
from .metrics import ServingMetrics
from .queueing import BoundedPriorityQueue
from .requests import KIND_REVISE, RevisionTask
from .scheduler import StreamingScheduler


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
        # One wakeup per event: a terminal event itself, or ``None`` for
        # "``_pending`` went non-empty".  Tokens pushed while a wakeup
        # is unread join ``_pending`` and go out with it, so a reader
        # that runs behind gets one merged event, not one per pump.
        self._wakeups: SimpleQueue = SimpleQueue()
        self._pending: list[int] = []
        self._lock = threading.Lock()
        self._seq_id: int | None = None
        self._cancelled = False
        self._terminal = False

    def get(self, timeout: float | None = None):
        """Pop the next event; ``None`` when nothing arrives in time."""
        try:
            event = self._wakeups.get(timeout=timeout)
        except Empty:
            return None
        if event is not None:
            return event
        with self._lock:
            tokens, self._pending = self._pending, []
        return ("tokens", tokens)

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
        if self._terminal or self._cancelled or not token_ids:
            return
        with self._lock:
            if not self._pending:
                self._wakeups.put(None)
            self._pending.extend(token_ids)

    def _push_terminal(self, result) -> None:
        # A RevisionResult or an exception, whichever resolved the future.
        # The final tokens were pushed first (the scheduler flushes them
        # before on_done), so their wakeup is already queued ahead.
        if self._terminal or self._cancelled:
            return
        self._terminal = True
        if isinstance(result, BaseException):
            self._wakeups.put(("error", result))
        else:
            self._wakeups.put(("done", result))

    def _attach(self, seq_id: int) -> bool:
        """Record the engine sequence id; True if already cancelled."""
        with self._lock:
            self._seq_id = seq_id
            return self._cancelled


class RevisionServer(RevisionService):
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
        self.metrics = ServingMetrics()
        self.book = RequestBook(coach, self.config, self.metrics)
        self.scheduler = StreamingScheduler(
            BatchedEngine(
                coach.model,
                max_batch=self.config.max_batch,
                kv_page_tokens=self.config.kv_page_tokens,
                kv_pool_pages=self.config.kv_pool_pages,
                kv_prefix_cache=True,
            ),
            self.metrics,
        )
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

    # -- client API (submit / submit_score / revise / score: RevisionService) ----
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
        stream = RevisionStream(self)
        task = self.book.task(pair, KIND_REVISE, priority, deadline_s, stream)
        task.future.subscribe(stream._push_terminal)
        self.book.intake(task, self._enqueue, dedup=False)
        return stream

    def _request_stream_cancel(self, seq_id: int) -> None:
        """Marshal a mid-stream cancel onto the worker thread."""
        with self._cancel_lock:
            self._stream_cancels.append(seq_id)

    def _enqueue(self, task: RevisionTask) -> None:
        try:
            self.queue.put(task, task.priority)
        except AdmissionError:
            self.metrics.record_rejected()
            raise

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
                    self._expired(task)
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

    def _expired(self, task: RevisionTask) -> None:
        """A deadline miss, swept from the queue or inside the engine:
        expire the task and re-gate its promoted follower."""
        promoted = self.book.expire(task)
        if promoted is not None:
            self._admit(promoted)

    def _admit(self, task: RevisionTask) -> None:
        """Gate one dequeued task; hand survivors to the scheduler."""
        while task.deadline is not None and time.monotonic() > task.deadline:
            promoted = self.book.expire(task)
            if promoted is None:
                return
            task = promoted
        stream: RevisionStream | None = task.stream
        if stream is not None and stream.cancelled:
            # The client disconnected while the task was still queued:
            # nobody is left to deliver to, so it is neither gated nor
            # decoded.
            self.scheduler.engine.note_stream_disconnect()
            return
        seq_id = admit(
            task.pair, task.kind, task.deadline, task.priority,
            coach=self.coach,
            scorer=self.scorer,
            threshold=self.config.quality_gate_threshold,
            scheduler=self.scheduler,
            complete=functools.partial(self.book.finish, task),
            expired=functools.partial(self._expired, task),
            on_token=stream._push_tokens if stream is not None else None,
        )
        if stream is not None and seq_id is not None and stream._attach(seq_id):
            # Cancel raced the submit: the id was unknown to the client-
            # side cancel, so cancel here on the worker thread directly.
            if self.scheduler.cancel(seq_id):
                self.scheduler.engine.note_stream_disconnect()
