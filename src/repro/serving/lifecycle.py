"""One request lifecycle, shared by the in-process server and the fleet.

Every request of the online revision service takes the same path,
whichever backend serves it::

    RequestBook.task() ── key rule (revision / score / leakage-gated)
        └─ RequestBook.intake()
              ├─ LRU cache hit ─────── resolved immediately, engine untouched
              ├─ in-flight dedup ───── attached to the identical leader
              └─ backend enqueue ───── registered as the key's leader
                    └─ admit(): quality gate → prompt gate → engine job(s)
                          ├─ complete(Completion) → RequestBook.finish()
                          │     cache fill, fan-out to followers (dedup)
                          └─ expired() → RequestBook.expire()
                                resolved as expired, oldest follower promoted

:class:`RequestBook` is the supervisor side (the caller's process: it
owns the futures); :func:`admit` is the engine side and runs next to a
:class:`~repro.serving.scheduler.StreamingScheduler` — on the server's
worker thread, or in a fleet worker process, which reports its
:class:`Completion` back over its pipe.  What stays in each backend is
only what truly differs: the server's in-thread engine, streams and
:class:`~repro.errors.AdmissionError`; the fleet's routing, supervision,
shedding, draining and requeue.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..config import ServingConfig
from ..core.coachlm import CoachLM, RevisionOutcome
from ..data.instruction_pair import InstructionPair
from ..errors import GenerationError
from ..quality.scorer import CriteriaScorer
from ..scoring.ifd import conditioned_request, pair_ifd, unconditioned_request
from .cache import CachedRevision, CachedScore, RevisionLRUCache, revision_key, score_key
from .metrics import ServingMetrics
from .requests import (
    KIND_REVISE,
    KIND_SCORE,
    OUTCOME_EXPIRED,
    OUTCOME_QUALITY_GATED,
    OUTCOME_SCORED,
    OUTCOME_SHED,
    RevisionFuture,
    RevisionResult,
    RevisionTask,
    SOURCE_CACHE,
    SOURCE_DEADLINE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    SOURCE_GATE,
    SOURCE_SHED,
)
from .scheduler import EngineJob, StreamingScheduler


@dataclass(frozen=True)
class Completion:
    """The engine side's terminal report on one request.

    ``cacheable`` says whether the result may fill the content cache
    (an expiry or an id-dependent outcome may not); ``score`` is the
    ``PairIFD.as_dict()`` payload of a score request.
    """

    pair: InstructionPair
    outcome: str
    source: str
    cacheable: bool
    generated: int = 0
    score: dict | None = None


class RequestBook:
    """Supervisor side: cache, in-flight dedup, and request resolution."""

    def __init__(
        self,
        coach: CoachLM,
        config: ServingConfig,
        metrics: ServingMetrics,
    ):
        self.coach = coach
        self.default_deadline_s = config.default_deadline_s
        self.cache = RevisionLRUCache(config.cache_capacity)
        self.metrics = metrics
        # RLock: the fleet's enqueue sheds a displaced leader, popping
        # its followers, while intake already holds the lock.
        self._lock = threading.RLock()
        #: Content key → follower tasks attached to the in-flight leader.
        self._inflight: dict[str, list[RevisionTask]] = {}

    def task(
        self,
        pair: InstructionPair,
        kind: str,
        priority: int,
        deadline_s: float | None,
        stream: object | None = None,
    ) -> RevisionTask:
        """Build (and count) one submitted request."""
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        now = time.monotonic()
        self.metrics.record_submitted()
        # Scores are content-keyed (scoring reads the pair, it never
        # rewrites it).  Leakage gating depends on pair identity, not
        # content: keep such pairs away from the cache and dedup map.
        if kind == KIND_SCORE:
            key: str | None = score_key(pair)
        elif self.coach.is_leakage_gated(pair):
            key = None
        else:
            key = revision_key(pair, self.coach.max_new_tokens, self.coach.copy_bias)
        return RevisionTask(
            pair=pair,
            future=RevisionFuture(),
            cache_key=key,
            submitted_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            priority=priority,
            kind=kind,
            stream=stream,
        )

    def intake(
        self,
        task: RevisionTask,
        enqueue: Callable[[RevisionTask], None],
        dedup: bool = True,
    ) -> RevisionFuture:
        """Serve a cache hit, attach a follower, or enqueue a new leader.

        ``enqueue`` is the backend's queue put; it raises to refuse the
        task.  It runs under the book's lock, before the task is
        registered as its key's leader, so a refused put can never leave
        (or strand followers on) a half-registered in-flight entry.
        ``dedup=False`` reads the cache but never joins or registers an
        in-flight entry (a stream cannot share a leader's tokens).
        """
        key = task.cache_key
        if key is None or self.cache.capacity <= 0:
            enqueue(task)
            return task.future
        with self._lock:
            entry = self.cache.get(key)
            if entry is not None:
                self._resolve(
                    task, entry.apply(task.pair), entry.outcome, SOURCE_CACHE,
                    score=getattr(entry, "payload", None),
                )
                return task.future
            if not dedup:
                enqueue(task)
                return task.future
            followers = self._inflight.get(key)
            if followers is not None:
                followers.append(task)
                return task.future
            enqueue(task)
            self._inflight[key] = []
        return task.future

    def expire(self, task: RevisionTask) -> RevisionTask | None:
        """Resolve one deadline-missed task; returns its promoted follower.

        Expiry is per-request: this task alone is resolved as expired and
        its oldest follower (whose own deadline may be laxer) is promoted
        to leader rather than fanning the expiry out to all of them.
        """
        promoted: RevisionTask | None = None
        if task.cache_key is not None:
            with self._lock:
                followers = self._inflight.pop(task.cache_key, [])
                if followers:
                    promoted, rest = followers[0], followers[1:]
                    self._inflight[task.cache_key] = rest
        self._resolve(task, task.pair, OUTCOME_EXPIRED, SOURCE_DEADLINE)
        return promoted

    def finish(self, task: RevisionTask, done: Completion) -> None:
        """Resolve a task terminally: cache, fan out to followers, notify."""
        entry: CachedRevision | CachedScore
        if task.kind == KIND_SCORE:
            entry = CachedScore(done.score, done.outcome)
        else:
            entry = CachedRevision(done.pair.instruction, done.pair.response, done.outcome)
        followers: list[RevisionTask] = []
        if task.cache_key is not None:
            with self._lock:
                if done.cacheable:
                    self.cache.put(task.cache_key, entry)
                followers = self._inflight.pop(task.cache_key, [])
        self._resolve(
            task, done.pair, done.outcome, done.source, done.generated, done.score
        )
        for follower in followers:
            self._resolve(
                follower, entry.apply(follower.pair), done.outcome, SOURCE_DEDUP,
                score=done.score,
            )

    def shed(self, task: RevisionTask) -> None:
        """Resolve a displaced/undeliverable task (and followers) as shed."""
        for target in (task, *self._pop_followers(task)):
            self._resolve(target, target.pair, OUTCOME_SHED, SOURCE_SHED)

    def fail(self, task: RevisionTask, error: BaseException) -> None:
        """Terminal failure, fanned out to dedup followers — identical
        content rides the same poison pill."""
        for target in (task, *self._pop_followers(task)):
            self.metrics.record_worker_lost_result()
            target.future.set_exception(error)

    def _pop_followers(self, task: RevisionTask) -> list[RevisionTask]:
        if task.cache_key is None:
            return []
        with self._lock:
            return self._inflight.pop(task.cache_key, [])

    def _resolve(
        self,
        task: RevisionTask,
        pair: InstructionPair,
        outcome: str,
        source: str,
        generated: int = 0,
        score: dict | None = None,
    ) -> None:
        """Build the task's terminal result, count it, set its future."""
        result = RevisionResult(
            pair=pair,
            outcome=outcome,
            source=source,
            latency_s=time.monotonic() - task.submitted_at,
            generated_tokens=generated,
            score=score,
        )
        self.metrics.record_result(result)
        task.future.set_result(result)


class RevisionService:
    """The client API both backends share in front of their :attr:`book`.

    Subclasses build ``book`` and provide ``start``/``stop`` and
    ``_enqueue``; the fleet overrides :meth:`_intake` to stop attaching
    followers while it drains.  The book holds no reference back to its
    service, so a stopped service is freed without waiting for the
    cycle collector (its engine's KV pool with it).
    """

    book: RequestBook

    def submit(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair for revision; returns a future.

        Raises :class:`~repro.errors.AdmissionError` when the request
        cannot be accepted — the caller decides whether to retry, shed,
        or block (see
        :class:`~repro.serving.client.InProcessRevisionClient`).
        """
        return self._intake(self.book.task(pair, KIND_REVISE, priority, deadline_s))

    def submit_score(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair for teacher-forced IFD scoring; returns a future.

        Scoring shares the queue, dedup map, result cache and engines
        with revision traffic, but under its own kind-namespaced
        key-space (:func:`score_key`) — a score and a revise of the same
        content never collide.  Unscoreable pairs (over-context, empty
        response) resolve with outcome ``prompt_too_long`` and a
        ``None`` score payload.
        """
        return self._intake(self.book.task(pair, KIND_SCORE, priority, deadline_s))

    def _intake(self, task: RevisionTask) -> RevisionFuture:
        return self.book.intake(task, self._enqueue)

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

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def admit(
    pair: InstructionPair,
    kind: str,
    deadline: float | None,
    priority: int,
    *,
    coach: CoachLM,
    scorer: CriteriaScorer | None,
    threshold: float | None,
    scheduler: StreamingScheduler,
    complete: Callable[[Completion], None],
    expired: Callable[[], None],
    on_token: Callable[[list[int]], None] | None = None,
) -> int | None:
    """Engine side of one request: gates, then engine job(s).

    Reports exactly once, through ``complete`` or ``expired``, on the
    thread that pumps ``scheduler``.  Returns the engine sequence id of
    a submitted revision (``None`` for a gated, expired or score
    request), so a streaming caller can cancel it.
    """
    if kind == KIND_SCORE:
        _admit_score(pair, deadline, priority, coach, scheduler, complete, expired)
        return None
    if threshold is not None and scorer is not None:
        if scorer.score_pair(pair).min_score >= threshold:
            complete(Completion(pair, OUTCOME_QUALITY_GATED, SOURCE_GATE, cacheable=True))
            return None
    request, outcome = coach.prepare_revision(pair)
    if request is None:
        assert outcome is not None
        complete(Completion(
            pair, outcome.value, SOURCE_ENGINE,
            cacheable=outcome is RevisionOutcome.PROMPT_TOO_LONG,
        ))
        return None

    def on_done(tokens: list[int]) -> None:
        revised, out = coach.finalize_revision(pair, tokens)
        complete(Completion(
            revised, out.value, SOURCE_ENGINE, cacheable=True, generated=len(tokens)
        ))

    return scheduler.submit(EngineJob(
        request, on_done, deadline=deadline, on_expired=expired,
        priority=priority, on_token=on_token,
    ))


def _admit_score(
    pair: InstructionPair,
    deadline: float | None,
    priority: int,
    coach: CoachLM,
    scheduler: StreamingScheduler,
    complete: Callable[[Completion], None],
    expired: Callable[[], None],
) -> None:
    """Hand one scoring request to the scheduler as two engine jobs.

    IFD needs two teacher-forced passes (response NLL conditioned and
    unconditioned on the instruction); each becomes its own
    :class:`EngineJob` so they batch and schedule like any other engine
    work.  Both callbacks run on the one thread that pumps the
    scheduler, so the latches below need no lock.
    """
    resolved: dict = {}

    def combine(which: str, score) -> None:
        resolved[which] = score
        if len(resolved) == 2:
            verdict = pair_ifd(resolved["cond"], resolved["uncond"])
            complete(Completion(
                pair, OUTCOME_SCORED, SOURCE_ENGINE, cacheable=True,
                score=verdict.as_dict(),
            ))

    fired: list[bool] = []

    def expire_once() -> None:
        # Both engine jobs carry this callback; the first expiry wins
        # and the second (its job already terminal) is a no-op.
        if not fired:
            fired.append(True)
            expired()

    try:
        # The conditioned prompt strictly contains the unconditioned
        # one, so validating/submitting it first means a too-long pair
        # enqueues nothing.
        for which, request in (
            ("cond", conditioned_request(coach.tokenizer, pair)),
            ("uncond", unconditioned_request(coach.tokenizer, pair)),
        ):
            scheduler.submit(EngineJob(
                request, functools.partial(combine, which),
                deadline=deadline, on_expired=expire_once, priority=priority,
            ))
    except GenerationError:
        complete(Completion(
            pair, RevisionOutcome.PROMPT_TOO_LONG.value, SOURCE_ENGINE,
            cacheable=True,
        ))
