"""Streaming scheduler: pumps revision jobs through the batched engine.

The scheduler is the bridge between *requests that arrive over time* and
the :class:`~repro.nn.decoding.BatchedEngine`'s slot fleet.  It owns no
thread of its own — :meth:`pump` performs exactly one scheduling round
(expire deadline-missed jobs → admit waiting jobs into free slots → one
batched decode step → dispatch completions) and is driven either by the
server's worker thread or directly by tests, which makes the late-join
behaviour deterministic:

* a job submitted while the fleet is mid-flight is prefilled into the
  first slot that retires, so it **joins the in-flight batch** instead of
  waiting for the whole batch to drain;
* that late-join prefill is *interleaved* (the engine's one schedule):
  each :meth:`pump` advances every joining prompt by at most one chunk
  alongside one decode step, so a burst of long prompts delays the
  in-flight requests by a bounded chunk per step instead of a whole
  prompt-length forward pass each;
* admission is capped at the engine's slot count, so jobs keep waiting in
  the server's *priority* queue (not the engine's FIFO) until a slot is
  actually imminent — priorities stay meaningful under load;
* a job whose ``deadline`` has already passed is **never** handed to the
  engine (:meth:`submit` short-circuits it to ``on_expired``), and one
  that expires while waiting inside the engine is cancelled at the next
  :meth:`pump` — deadline-missed work stops consuming prefill/decode
  steps the moment the miss is observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..nn.decoding import BatchedEngine, GenerationRequest, ScoringRequest
from .metrics import ServingMetrics

#: Minimum spacing of a streaming job's incremental token deliveries.
#: Each delivery can wake the job's consumer thread, and that wake-up
#: competes with the engine step for the interpreter lock; a one-token
#: delivery every ~1 ms step made streamed decode ~11% slower than plain
#: on a 2-core host.  Tokens produced between deliveries coalesce into
#: the next one, so a consumer sees at most 100 token events a second;
#: the first delivery and the final flush before completion are never
#: held back, so time to first token and completion are unaffected.
TOKEN_DELIVERY_INTERVAL_S = 0.01


@dataclass
class EngineJob:
    """One decode or scoring job: an engine request plus its callback.

    ``deadline`` (a ``time.monotonic`` instant) marks the job stale: once
    passed, the scheduler resolves it through ``on_expired`` instead of
    (or in place of) spending further engine work on it.  Jobs without a
    deadline never expire.

    A job resolves **exactly once**: the scheduler routes every terminal
    transition through :meth:`resolve_done` / :meth:`resolve_expired`,
    which flip a one-way latch before invoking the callback.  Whatever
    interleaving of submit-time expiry, in-flight expiry, completion and
    drain races to the latch, only the first transition fires its
    callback — the rest are no-ops, so a future behind ``on_done`` can
    never be double-resolved or stranded by a lost second path.

    ``priority`` (lower value = more urgent) is stamped onto the engine
    request at submit so the engine's pending heap, parked fleet, and
    preemption policy all order by the same class.  ``on_token``
    (optional) makes the job *streaming*: a pump delivers the tokens
    produced since the last delivery — the first as soon as it exists,
    later ones at most every :data:`TOKEN_DELIVERY_INTERVAL_S` — so a
    client observes incremental progress (and a preemption as a
    stall-and-resume) instead of one terminal burst.
    """

    request: GenerationRequest | ScoringRequest
    on_done: Callable  #: receives tokens (generation) or a SequenceScore
    deadline: float | None = None
    on_expired: Callable[[], None] | None = None
    priority: int = 0
    on_token: Callable[[list[int]], None] | None = None
    _sent: int = 0
    _next_delivery: float = 0.0
    _terminal: bool = False

    def resolve_done(self, tokens) -> bool:
        """Fire ``on_done`` if no terminal callback ran yet; True if fired."""
        if self._terminal:
            return False
        self._terminal = True
        self.on_done(tokens)
        return True

    def resolve_expired(self) -> bool:
        """Fire ``on_expired`` (if any) exactly once; True if this call won."""
        if self._terminal:
            return False
        self._terminal = True
        if self.on_expired is not None:
            self.on_expired()
        return True


class StreamingScheduler:
    """Feeds :class:`EngineJob`s into a :class:`BatchedEngine` incrementally."""

    def __init__(self, engine: BatchedEngine, metrics: ServingMetrics | None = None):
        self.engine = engine
        self.metrics = metrics
        self._jobs: dict[int, EngineJob] = {}
        self._has_deadlines = False

    @property
    def free_capacity(self) -> int:
        """Jobs the engine can absorb without queueing behind other jobs."""
        return self.engine.free_capacity

    @property
    def in_flight(self) -> int:
        """Jobs submitted to the engine and not yet dispatched."""
        return len(self._jobs)

    @property
    def n_prefilling(self) -> int:
        """Jobs mid-way through chunked prompt prefill."""
        return self.engine.n_prefilling

    @property
    def has_work(self) -> bool:
        return self.engine.has_work

    def kv_stats(self) -> dict:
        """Engine occupancy + KV residency counters for ``/metrics``.

        Plain int/bool reads of engine fields (safe to call from the
        HTTP threads while the worker is pumping — values may be one
        step stale, never torn): fleet occupancy, and the KV pool's
        ``free_pages`` headroom that signals admission pressure before
        requests start queueing.
        """
        return self.engine.kv_stats()

    def submit(self, job: EngineJob) -> int | None:
        """Hand one job to the engine; it joins the fleet at the next pump.

        A job whose deadline has already passed is resolved through
        ``on_expired`` immediately — the engine never sees it — and
        ``None`` is returned instead of a sequence id.
        """
        if job.deadline is not None and time.monotonic() > job.deadline:
            job.resolve_expired()
            return None
        if isinstance(job.request, ScoringRequest):
            seq_id = self.engine.submit_score(job.request)
        else:
            job.request.priority = job.priority
            seq_id = self.engine.submit(job.request)
        self._jobs[seq_id] = job
        if job.deadline is not None:
            self._has_deadlines = True
        return seq_id

    def cancel(self, seq_id: int) -> bool:
        """Cancel a tracked job (client disconnected mid-stream).

        The engine sequence is cancelled — its slot, pages, and
        reservation recycle immediately — and the job's terminal latch
        is sealed without firing any callback: there is nobody left to
        deliver to.  Returns ``False`` for unknown ids.
        """
        job = self._jobs.pop(seq_id, None)
        if job is None:
            return False
        self.engine.cancel(seq_id)
        job._terminal = True
        self._has_deadlines = any(
            j.deadline is not None for j in self._jobs.values()
        )
        return True

    def preempt_victim(self, than_priority: int) -> int | None:
        """Evict the lowest-priority active decode strictly below
        ``than_priority`` so a more urgent arrival can take its slot;
        the victim resumes later with identical tokens.  ``None`` when
        nothing qualifies (see :meth:`BatchedEngine.preempt_victim`)."""
        return self.engine.preempt_victim(than_priority)

    def _expire_overdue(self) -> None:
        """Cancel in-flight jobs whose deadline passed while they waited.

        Runs only when some tracked job carries a deadline.  A cancelled
        job's partial tokens are discarded (its deadline makes the result
        worthless) and its queue entry / parked prefill row / KV slot is
        freed for live work.
        """
        now = time.monotonic()
        overdue = [
            (seq_id, job)
            for seq_id, job in self._jobs.items()
            if job.deadline is not None and now > job.deadline
        ]
        for seq_id, job in overdue:
            if self.engine.cancel(seq_id):
                del self._jobs[seq_id]
                job.resolve_expired()
        if not overdue:
            self._has_deadlines = any(
                job.deadline is not None for job in self._jobs.values()
            )

    def pump(self) -> int:
        """One round: a single engine step plus completion dispatch.

        Returns the number of jobs completed this round.  Engine busy
        time and produced tokens are recorded into the metrics collector.
        """
        if not self.engine.has_work:
            return 0
        if self._has_deadlines:
            self._expire_overdue()
        start = time.perf_counter()
        self.engine.step()
        busy = time.perf_counter() - start
        done = self.engine.collect()
        if self.metrics is not None:
            # Score completions (SequenceScore) and cancellation residue
            # (None) spend no decode tokens; only token lists count.
            self.metrics.record_engine_work(
                sum(len(v) for v in done.values() if isinstance(v, list)), busy
            )
        completed = 0
        first_error: BaseException | None = None
        for seq_id, tokens in done.items():
            job = self._jobs.pop(seq_id, None)
            if job is None:
                # Residue of a cancelled (expired) job this same round.
                continue
            try:
                if (
                    job.on_token is not None
                    and isinstance(tokens, list)
                    and len(tokens) > job._sent
                ):
                    # Flush the final delta before the terminal event so
                    # a streaming client sees every token exactly once.
                    job.on_token(tokens[job._sent:])
                    job._sent = len(tokens)
                if job.resolve_done(tokens):
                    completed += 1
            except Exception as exc:  # noqa: BLE001 - callback-owned failure
                # A raising on_done must not strand the *other* jobs that
                # finished this round; dispatch them all, then surface the
                # first failure to the pump driver.
                if first_error is None:
                    first_error = exc
        now = time.monotonic()
        for seq_id, job in self._jobs.items():
            # Incremental delivery for still-running streaming jobs: the
            # tokens produced since the last delivery go out now, not at
            # completion, once the delivery interval has passed.
            if job.on_token is None or now < job._next_delivery:
                continue
            produced = self.engine.produced_so_far(seq_id)
            if produced is not None and len(produced) > job._sent:
                try:
                    job.on_token(produced[job._sent:])
                except Exception as exc:  # noqa: BLE001 - callback-owned
                    if first_error is None:
                        first_error = exc
                job._sent = len(produced)
                job._next_delivery = now + TOKEN_DELIVERY_INTERVAL_S
        if first_error is not None:
            raise first_error
        return completed

    def drain(self) -> int:
        """Pump until the engine is empty; returns total jobs completed.

        Finishes with a safety sweep: any job the scheduler still tracks
        once the engine reports no work (a cancellation the engine
        absorbed without a completion record, or expiry racing the final
        pump) is resolved through its expiry path — exactly once, via the
        job's terminal latch — so no future outlives a drain unresolved.
        """
        total = 0
        while self.engine.has_work:
            total += self.pump()
        if self._jobs:
            leaked = list(self._jobs.values())
            self._jobs.clear()
            self._has_deadlines = False
            for job in leaked:
                job.resolve_expired()
        return total
