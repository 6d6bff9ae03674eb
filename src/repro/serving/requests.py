"""Request records, results and futures of the online revision service.

A client submits one :class:`~repro.data.instruction_pair.InstructionPair`
and immediately receives a :class:`RevisionFuture`; the serving worker
resolves it with a :class:`RevisionResult` once the request reaches a
terminal state.  All timestamps use :func:`time.monotonic` so latencies
survive wall-clock adjustments.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..data.instruction_pair import InstructionPair
from ..errors import ServingError

#: ``RevisionResult.source`` values — which path produced the result.
SOURCE_ENGINE = "engine"            #: decoded by the batched engine
SOURCE_CACHE = "cache"              #: LRU hit, engine untouched
SOURCE_DEDUP = "dedup"              #: attached to an identical in-flight request
SOURCE_GATE = "quality_gate"        #: skipped: already above the rubric threshold
SOURCE_DEADLINE = "deadline"        #: expired in the queue before decoding
SOURCE_SHED = "shed"                #: displaced from a full queue under pressure
SOURCE_JOURNAL = "journal"          #: replayed from a crash-safe run journal

#: Serving-only terminal outcomes (alongside ``RevisionOutcome`` values).
OUTCOME_EXPIRED = "expired"
OUTCOME_QUALITY_GATED = "quality_gated"
OUTCOME_SHED = "shed"
OUTCOME_SCORED = "scored"   #: a scoring request completed its two passes

#: ``RevisionTask.kind`` values — which computation the task asks for.
KIND_REVISE = "revise"
KIND_SCORE = "score"


@dataclass(frozen=True)
class RevisionResult:
    """Terminal state of one revision or scoring request."""

    pair: InstructionPair   #: the revised pair (or the original on fallback)
    outcome: str            #: a ``RevisionOutcome`` value, or a serving outcome
    source: str             #: one of the ``SOURCE_*`` constants
    latency_s: float        #: submit → resolve, monotonic clock
    generated_tokens: int = 0   #: decode tokens spent on this request
    score: dict | None = None   #: ``PairIFD.as_dict()`` payload for score tasks


class RevisionFuture:
    """Write-once future resolved by the serving worker.

    Resolution is terminal and exclusive: exactly one of
    :meth:`set_result` / :meth:`set_exception` may land, once — a second
    resolution attempt raises.  A future resolved with an exception
    (e.g. :class:`~repro.errors.WorkerLostError` after a fleet worker's
    retry budget is spent) re-raises it from :meth:`result`.
    """

    __slots__ = ("_event", "_result", "_exception", "_subscribers")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: RevisionResult | None = None
        self._exception: BaseException | None = None
        self._subscribers: list = []

    def done(self) -> bool:
        return self._event.is_set()

    def subscribe(self, callback) -> None:
        """Invoke ``callback`` with the result when (or if already) resolved.

        The streaming hook: a :class:`RevisionStream` subscribes so that
        *every* terminal path — engine completion, cache hit, quality
        gate, deadline expiry, load shed — emits its ``done`` event
        without each path knowing about streams.  Exception resolutions
        invoke the callback with the exception instead.  Callbacks run
        on whichever thread resolves the future.
        """
        if self._event.is_set():
            callback(
                self._exception if self._exception is not None else self._result
            )
        else:
            self._subscribers.append(callback)

    def set_result(self, result: RevisionResult) -> None:
        if self._event.is_set():
            raise ServingError("revision future already resolved")
        self._result = result
        self._event.set()
        for callback in self._subscribers:
            callback(result)
        self._subscribers = []

    def set_exception(self, exception: BaseException) -> None:
        if self._event.is_set():
            raise ServingError("revision future already resolved")
        self._exception = exception
        self._event.set()
        for callback in self._subscribers:
            callback(exception)
        self._subscribers = []

    def exception(self) -> BaseException | None:
        """The resolving exception, or ``None`` (unresolved / has result)."""
        return self._exception

    def result(self, timeout: float | None = None) -> RevisionResult:
        """Block until resolved; raises :class:`ServingError` on timeout.

        Re-raises the resolving exception when the request terminated
        with one instead of a result.
        """
        if not self._event.wait(timeout):
            raise ServingError(
                f"timed out after {timeout}s waiting for a revision result"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


@dataclass
class RevisionTask:
    """One queued revision or scoring request (internal to the backends)."""

    pair: InstructionPair
    future: RevisionFuture
    cache_key: str | None       #: None for leakage-gated pairs (id-dependent)
    submitted_at: float         #: monotonic
    deadline: float | None      #: monotonic, absolute; None = never expires
    priority: int = 0
    requeues: int = 0           #: times re-dispatched after losing a fleet worker
    kind: str = KIND_REVISE     #: ``KIND_REVISE`` or ``KIND_SCORE``
    stream: object | None = None    #: RevisionStream for incremental delivery
