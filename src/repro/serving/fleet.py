"""Fault-tolerant multi-process serving fleet.

:class:`EngineFleet` scales the revision service past one process — and
keeps it alive when processes die.  A supervisor (the caller's process)
owns admission, the content cache, dedup, and every
:class:`~repro.serving.requests.RevisionFuture`; N forked **worker
processes** each run a private :class:`~repro.nn.decoding.BatchedEngine`
behind a :class:`~repro.serving.scheduler.StreamingScheduler` and talk
to the supervisor over one duplex pipe.  CoachLM's weights travel by
fork (copy-on-write), never by pickle.

Placement is a **consistent-hash ring** over worker slots keyed by the
request's content hash: identical content always lands on the same
worker while it lives, so each worker's KV/prefill locality mirrors the
single-process server's.  A full pinned worker spills to the
least-loaded routable one; a dead worker's arc is absorbed by its ring
successor until the replacement reports ready.

Failure model (every path is fuzz-tested under seeded
:class:`~repro.serving.faults.FaultPlan` schedules):

* **crash** — the pipe EOFs or the process sentinel fires.  The
  supervisor drains the pipe to EOF first (results the worker flushed
  before dying are honoured — *at-most-once*, never recomputed), then
  requeues the unresolved remainder.  A request that loses its worker
  more than ``requeue_budget`` times fails with a typed
  :class:`~repro.errors.WorkerLostError`; nothing is ever silently
  dropped or resolved twice.
* **hang** — a worker whose heartbeats stop past
  ``heartbeat_timeout_s`` is SIGKILLed and handled as a crash.
* **restart** — replacements fork after exponential backoff
  (``restart_backoff_s · 2^k``, capped) and are excluded from routing
  until they report ready; a slot that exhausts ``max_worker_restarts``
  is retired and the fleet degrades onto the survivors.
* **overload / degradation** — admission sheds lowest-priority-first:
  a full queue displaces its worst entry (resolved as ``shed``) for a
  strictly better arrival and otherwise raises
  :class:`~repro.errors.OverloadError` (HTTP ``503`` + ``Retry-After``).
  Cache and dedup hits are served even when every worker is down.
* **drain** — :meth:`stop` stops admitting (cache hits still served),
  lets in-flight work finish, asks workers to exit cleanly, and
  persists the revision cache through the lockfile-hardened
  :class:`~repro.pipeline.cache.ArtifactCache` so the next fleet warm
  starts; past ``drain_timeout_s`` stragglers are killed and their
  requests resolved (shed / :class:`WorkerLostError`) — an accepted
  request's future *always* resolves.

Failure handling never changes tokens: greedy decode is deterministic,
so a requeued request re-decodes to exactly the revision its dead worker
was producing, and parity with :meth:`CoachLM.revise_pair` is pinned by
the fuzz harness.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection, wait as connection_wait

from ..config import FleetConfig, ServingConfig
from ..core.coachlm import CoachLM, RevisionOutcome
from ..data.instruction_pair import InstructionPair
from ..errors import (
    AdmissionError,
    GenerationError,
    ModelError,
    OverloadError,
    ServingError,
    WorkerLostError,
)
from ..nn.decoding import BatchedEngine
from ..pipeline.cache import ArtifactCache, config_hash
from ..quality.scorer import CriteriaScorer
from ..scoring.ifd import conditioned_request, pair_ifd, unconditioned_request
from .cache import (
    CachedRevision,
    CachedScore,
    RevisionLRUCache,
    revision_key,
    score_key,
)
from .faults import FaultInjector, FaultPlan, WorkerFaults, write_torn_json
from .metrics import ServingMetrics
from .queueing import BoundedPriorityQueue
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

#: Ring points per worker slot — enough that a dead slot's arc spreads
#: over several successors instead of doubling one neighbour's load.
_RING_REPLICAS = 32

_STATE_STARTING = "starting"    #: forked, engine building, not routable
_STATE_READY = "ready"          #: routable
_STATE_DEAD = "dead"            #: lost, restart pending or retired
_STATE_EXITED = "exited"        #: clean shutdown during drain

#: (setter, getter) symbol pairs of the OpenBLAS builds numpy links:
#: the scipy-openblas wheels first, then plain ILP64 and LP64 builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_control() -> tuple | None:
    """(setter, getter) of the OpenBLAS mapped into this process, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1] for line in fh if "openblas" in line.lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_symbol, get_symbol in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_symbol, None)
            getter = getattr(lib, get_symbol, None)
            if setter is not None and getter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter.restype = ctypes.c_int
                return setter, getter
    return None


def _pin_blas_to_one_thread() -> None:
    """Run this process's OpenBLAS on one thread (no-op without a setter).

    A forked worker inherits numpy's OpenBLAS pool, sized to every core,
    so N workers would run N x cores BLAS threads whose helpers spin
    while they wait: on 2 cores, two such workers delivered 0.44x the
    throughput of one.  The model's GEMMs are tiny, so one thread per
    worker costs a single worker nothing and lets workers scale with
    cores.
    """
    control = _openblas_thread_control()
    if control is not None:
        control[0](1)


def _fleet_worker_main(
    slot: int,
    incarnation: int,
    conn: Connection,
    inherited: list[Connection],
    coach: CoachLM,
    scorer: CriteriaScorer | None,
    config: ServingConfig,
    heartbeat_interval_s: float,
    faults: WorkerFaults | None,
) -> None:
    """One worker process: a private engine pumped by a message loop.

    Single-threaded on purpose — the heartbeat is sent from the same
    loop that pumps the engine, so a beat *proves* the loop is making
    progress (a hung decode stops the beats, which is exactly what the
    supervisor's hang detector listens for).  BLAS is single-threaded
    too (:func:`_pin_blas_to_one_thread`), so the fleet's capacity is
    ``fleet_workers x max_batch`` rather than threads fighting for cores.
    """
    _pin_blas_to_one_thread()
    for other in inherited:
        # Pipe ends of sibling workers copied in by fork: close them so
        # fds don't accumulate across restarts.
        try:
            other.close()
        except OSError:
            pass
    injector = FaultInjector(faults) if faults is not None else None
    metrics = ServingMetrics()
    scheduler = StreamingScheduler(
        BatchedEngine(
            coach.model,
            max_batch=config.max_batch,
            kv_page_tokens=config.kv_page_tokens,
            kv_pool_pages=config.kv_pool_pages,
            kv_prefix_cache=True,
        ),
        metrics,
    )
    outbox: list[tuple] = []
    threshold = config.quality_gate_threshold

    def complete(
        job_id: int, pair: InstructionPair, outcome: str, source: str,
        generated: int, cacheable: bool, score: dict | None = None,
    ) -> None:
        outbox.append((
            "done", job_id, pair, outcome, source, generated, cacheable, score,
        ))

    def handle_score_job(
        job_id: int, pair: InstructionPair, deadline: float | None,
        priority: int = 0,
    ) -> None:
        # Mirrors RevisionServer._admit_score: two teacher-forced engine
        # jobs plus a worker-loop-local combiner latch (single-threaded
        # worker, no lock needed).
        cond = conditioned_request(coach.tokenizer, pair)
        uncond = unconditioned_request(coach.tokenizer, pair)
        resolved: dict[str, object] = {}

        def combine(which: str, score) -> None:
            resolved[which] = score
            if len(resolved) == 2:
                verdict = pair_ifd(resolved["cond"], resolved["uncond"])
                complete(
                    job_id, pair, OUTCOME_SCORED, SOURCE_ENGINE, 0, True,
                    verdict.as_dict(),
                )

        expired = {"fired": False}

        def on_expired() -> None:
            if expired["fired"]:
                return
            expired["fired"] = True
            complete(job_id, pair, OUTCOME_EXPIRED, SOURCE_DEADLINE, 0, False)

        try:
            scheduler.submit(EngineJob(
                cond, lambda s: combine("cond", s),
                deadline=deadline, on_expired=on_expired, priority=priority,
            ))
            scheduler.submit(EngineJob(
                uncond, lambda s: combine("uncond", s),
                deadline=deadline, on_expired=on_expired, priority=priority,
            ))
        except GenerationError:
            complete(
                job_id, pair, RevisionOutcome.PROMPT_TOO_LONG.value,
                SOURCE_ENGINE, 0, True,
            )

    def handle_job(
        job_id: int, pair: InstructionPair, deadline: float | None,
        kind: str = KIND_REVISE, priority: int = 0,
    ) -> None:
        # Mirrors RevisionServer._admit gate-for-gate, so fleet results
        # are token-for-token the single-process server's.
        if kind == KIND_SCORE:
            handle_score_job(job_id, pair, deadline, priority)
            return
        if threshold is not None and scorer is not None:
            report = scorer.score_pair(pair)
            if report.min_score >= threshold:
                complete(job_id, pair, OUTCOME_QUALITY_GATED, SOURCE_GATE, 0, True)
                return
        request, outcome = coach.prepare_revision(pair)
        if request is None:
            assert outcome is not None
            complete(
                job_id, pair, outcome.value, SOURCE_ENGINE, 0,
                outcome is RevisionOutcome.PROMPT_TOO_LONG,
            )
            return

        def on_done(tokens: list[int]) -> None:
            revised, out = coach.finalize_revision(pair, tokens)
            complete(job_id, revised, out.value, SOURCE_ENGINE, len(tokens), True)

        def on_expired() -> None:
            complete(job_id, pair, OUTCOME_EXPIRED, SOURCE_DEADLINE, 0, False)

        scheduler.submit(EngineJob(
            request, on_done, deadline=deadline, on_expired=on_expired,
            priority=priority,
        ))

    def send(message: tuple) -> None:
        if injector is not None:
            injector.before_send()
        conn.send(message)

    def flush_outbox() -> None:
        while outbox:
            message = outbox.pop(0)
            if (
                message[0] == "done"
                and injector is not None
                and injector.on_result()
            ):
                continue    # injected pipe tear: result dropped, crash follows
            send(message)

    def beat() -> tuple[int, float]:
        send((
            "beat",
            metrics.engine_tokens - sent[0],
            metrics.engine_busy_s - sent[1],
            scheduler.kv_stats(),
        ))
        return metrics.engine_tokens, metrics.engine_busy_s

    conn.send(("ready", slot, incarnation))
    sent = (0, 0.0)
    last_beat = time.monotonic()
    stopping = False
    try:
        while True:
            timeout = (
                0.0
                if scheduler.has_work or outbox
                else min(config.idle_wait_s, heartbeat_interval_s / 2.0)
            )
            while conn.poll(timeout):
                message = conn.recv()
                if message[0] == "job":
                    handle_job(
                        message[1], message[2], message[3], message[4],
                        message[5] if len(message) > 5 else 0,
                    )
                elif message[0] == "stop":
                    stopping = True
                timeout = 0.0
            if scheduler.has_work:
                if injector is not None:
                    injector.on_step()
                scheduler.pump()
            flush_outbox()
            now = time.monotonic()
            if now - last_beat >= heartbeat_interval_s:
                sent = beat()
                last_beat = now
            if stopping and not scheduler.has_work and not outbox:
                break
        # Final beat carries the drained engine's stats: the supervisor
        # (and the fuzz harness) verify zero leaked pages/reservations.
        beat()
        conn.close()
    except (EOFError, OSError, ValueError):
        # Supervisor went away mid-conversation: nothing to report to.
        return


class _Worker:
    """Supervisor-side record of one worker slot."""

    __slots__ = (
        "slot", "process", "conn", "state", "incarnation", "restarts",
        "restart_due", "last_seen", "outstanding", "kv", "clean_exit",
    )

    def __init__(self, slot: int):
        self.slot = slot
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: Connection | None = None
        self.state = _STATE_STARTING
        self.incarnation = 0
        self.restarts = 0
        self.restart_due: float | None = None
        self.last_seen = time.monotonic()
        self.outstanding: set[int] = set()
        self.kv: dict | None = None
        self.clean_exit = False

    @property
    def routable(self) -> bool:
        return self.state == _STATE_READY

    @property
    def retired(self) -> bool:
        return self.state == _STATE_DEAD and self.restart_due is None


class EngineFleet:
    """Supervises N engine worker processes behind one submit() façade.

    API-compatible with :class:`~repro.serving.server.RevisionServer`
    (``submit`` / ``revise`` / ``metrics_snapshot`` / ``health`` /
    context manager), so the HTTP front-end and the in-process client
    drive either interchangeably.  ``artifact_dir`` enables cross-process
    persistence of the revision cache (warm starts across fleets);
    ``fault_plan`` injects a deterministic failure schedule — when
    omitted, ``REPRO_FAULT_*`` environment variables are consulted so
    ops can run kill drills against a live fleet.
    """

    def __init__(
        self,
        coach: CoachLM,
        config: FleetConfig | None = None,
        scorer: CriteriaScorer | None = None,
        artifact_dir: str | os.PathLike | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if coach.model is None:
            raise ModelError("EngineFleet needs a CoachLM with a model")
        self.coach = coach
        self.config = config or FleetConfig()
        serving = self.config.serving
        if serving.quality_gate_threshold is not None and scorer is None:
            scorer = CriteriaScorer()
        self.scorer = scorer
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self.queue: BoundedPriorityQueue[RevisionTask] = BoundedPriorityQueue(
            self.config.max_queue_depth
        )
        self.cache = RevisionLRUCache(serving.cache_capacity)
        self.metrics = ServingMetrics()
        self.artifact_cache = (
            ArtifactCache(artifact_dir) if artifact_dir is not None else None
        )
        self._mp = multiprocessing.get_context("fork")
        self._workers = [
            _Worker(slot) for slot in range(self.config.fleet_workers)
        ]
        self._ring = self._build_ring(self.config.fleet_workers)
        self._job_ids = itertools.count()
        self._jobs: dict[int, RevisionTask] = {}
        # RLock: shedding a displaced leader pops its followers while the
        # submit path already holds the lock around enqueue+register.
        self._state_lock = threading.RLock()
        self._inflight: dict[str, list[RevisionTask]] = {}
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._thread: threading.Thread | None = None
        self._draining = False
        self._drain_deadline: float | None = None
        self._stop_sent = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "EngineFleet":
        """Fork the fleet, load the persisted cache, await readiness."""
        if self._thread is not None:
            return self
        self._draining = False
        self._stop_sent = False
        self._load_persisted_cache()
        for worker in self._workers:
            self._spawn(worker)
        self._thread = threading.Thread(
            target=self._run, name="fleet-supervisor", daemon=True
        )
        self._thread.start()
        deadline = time.monotonic() + self.config.worker_ready_timeout_s
        while not all(w.routable for w in self._workers):
            if time.monotonic() > deadline:
                self.stop()
                raise ServingError(
                    f"fleet not ready within {self.config.worker_ready_timeout_s}s"
                )
            time.sleep(0.005)
        return self

    def stop(self) -> None:
        """Graceful drain: finish in-flight work, persist, shut down.

        Every accepted request's future resolves before this returns —
        with its result, as shed, or with :class:`WorkerLostError` if
        the drain deadline forces a kill.
        """
        if self._thread is None:
            return
        self._draining = True
        self._drain_deadline = time.monotonic() + self.config.drain_timeout_s
        self._wake()
        self._thread.join()
        self._thread = None
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=5.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=5.0)
                worker.process = None
            if worker.conn is not None:
                worker.conn.close()
                worker.conn = None
        self._persist_cache()

    def __enter__(self) -> "EngineFleet":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def install_sigterm_drain(self) -> None:
        """Route SIGTERM to a graceful :meth:`stop` (main thread only)."""
        import signal

        def handler(signum: int, frame: object) -> None:
            self.stop()

        signal.signal(signal.SIGTERM, handler)

    # -- client API --------------------------------------------------------------
    def submit(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair; sheds lowest-priority-first under pressure.

        Raises :class:`OverloadError` (HTTP ``503`` + ``Retry-After``)
        when the request cannot be accepted: the fleet is draining, or
        the queue is full and this request doesn't outrank anything in
        it.  Cache hits are served even while draining or with every
        worker down — the degraded fleet still answers what it already
        knows.
        """
        key = (
            None
            if self.coach.is_leakage_gated(pair)
            else revision_key(pair, self.coach.max_new_tokens, self.coach.copy_bias)
        )
        return self._submit_task(pair, key, KIND_REVISE, priority, deadline_s)

    def submit_score(
        self,
        pair: InstructionPair,
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> RevisionFuture:
        """Enqueue one pair for teacher-forced IFD scoring.

        Scoring shares the queue, cache and workers with revise traffic
        but lives in its own key-space (see :func:`score_key`), so a
        score and a revise of the same content never dedup onto each
        other.  Leakage gating does not apply: scoring reads the pair,
        it never rewrites it.
        """
        return self._submit_task(
            pair, score_key(pair), KIND_SCORE, priority, deadline_s
        )

    def _submit_task(
        self,
        pair: InstructionPair,
        key: str | None,
        kind: str,
        priority: int,
        deadline_s: float | None,
    ) -> RevisionFuture:
        if deadline_s is None:
            deadline_s = self.config.serving.default_deadline_s
        now = time.monotonic()
        future = RevisionFuture()
        self.metrics.record_submitted()
        task = RevisionTask(
            pair=pair,
            future=future,
            cache_key=key,
            submitted_at=now,
            deadline=now + deadline_s if deadline_s is not None else None,
            priority=priority,
            kind=kind,
        )
        if key is not None and self.cache.capacity > 0:
            with self._state_lock:
                entry = self.cache.get(key)
                if entry is not None:
                    self._resolve(
                        future, entry.apply(pair), entry.outcome, SOURCE_CACHE,
                        now, score=getattr(entry, "payload", None),
                    )
                    return future
                if not self._draining:
                    followers = self._inflight.get(key)
                    if followers is not None:
                        followers.append(task)
                        return future
                    self._enqueue(task)
                    self._inflight[key] = []
                    self._wake()
                    return future
        if self._draining:
            self.metrics.record_rejected()
            raise OverloadError(
                "fleet is draining: not admitting new revisions",
                retry_after_s=self.config.shed_retry_after_s,
            )
        self._enqueue(task)
        self._wake()
        return future

    def revise(
        self, pair: InstructionPair, timeout: float | None = None
    ) -> RevisionResult:
        """Synchronous helper: submit one pair and wait for its result."""
        return self.submit(pair).result(timeout)

    def score(
        self, pair: InstructionPair, timeout: float | None = None
    ) -> RevisionResult:
        """Synchronous helper: submit one scoring job and wait."""
        return self.submit_score(pair).result(timeout)

    # -- observability ------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """``/metrics`` payload with engine gauges aggregated fleet-wide."""
        return self.metrics.snapshot(
            queue_depth=self.queue.depth, engine=self._engine_stats()
        )

    def health(self) -> dict:
        """``/healthz``: ``ok`` | ``degraded`` | ``draining`` + headroom."""
        alive = sum(1 for w in self._workers if w.routable)
        total = len(self._workers)
        if self._draining:
            status = "draining"
        elif alive == total:
            status = "ok"
        else:
            status = "degraded"
        engine = self._engine_stats()
        return {
            "status": status,
            "queue_depth": self.queue.depth,
            "workers": {
                "alive": alive,
                "total": total,
                "restarts": sum(w.restarts for w in self._workers),
            },
            "free_slots": engine["free_slots"],
            "free_pages": engine.get("free_pages"),
        }

    def worker_stats(self) -> list[dict]:
        """Per-slot liveness/restart/KV view (tests assert page hygiene)."""
        return [
            {
                "slot": w.slot,
                "state": w.state,
                "incarnation": w.incarnation,
                "restarts": w.restarts,
                "clean_exit": w.clean_exit,
                "kv": dict(w.kv) if w.kv else None,
            }
            for w in self._workers
        ]

    def _engine_stats(self) -> dict:
        serving = self.config.serving
        snaps = [w.kv for w in self._workers if w.routable and w.kv]
        summed_keys = (
            "max_batch", "n_active", "n_prefilling", "n_pending",
            "n_preempted", "free_slots", "resident_kv_bytes", "total_pages",
            "free_pages", "reserved_pages", "pages_in_use",
            "decode_steps", "draft_tokens_proposed", "draft_tokens_accepted",
        )
        agg: dict = {
            "workers": len(snaps),
            "kv_page_tokens": serving.kv_page_tokens,
        }
        for stat_key in summed_keys:
            if snaps and not any(stat_key in s for s in snaps):
                continue
            agg[stat_key] = sum(s.get(stat_key, 0) for s in snaps)
        # Prefix-cache counters (every worker runs the cache): summed
        # across the fleet, with the hit rate recomputed over the sums.
        prefix_snaps = [
            s["prefix_cache"] for s in snaps if s.get("prefix_cache")
        ]
        if prefix_snaps:
            merged = {
                key: sum(p.get(key, 0) for p in prefix_snaps)
                for key in (
                    "cached_pages", "shared_pinned_pages", "lookups", "hits",
                    "shared_tokens", "cow_copies", "inserted_pages",
                    "evicted_pages",
                )
            }
            merged["hit_rate"] = (
                round(merged["hits"] / merged["lookups"], 4)
                if merged["lookups"]
                else 0.0
            )
            agg["prefix_cache"] = merged
        # Preemption counters: summed across workers, so a fleet-wide
        # "how much decode work was evicted" reads off one dict.
        preempt_snaps = [
            s["preemption"] for s in snaps if s.get("preemption")
        ]
        if preempt_snaps:
            agg["preemption"] = {
                key: sum(p.get(key, 0) for p in preempt_snaps)
                for key in (
                    "preemptions", "resumes", "preempted_resident_tokens",
                    "stream_disconnects",
                )
            }
        return agg

    # -- admission internals ------------------------------------------------------
    def _enqueue(self, task: RevisionTask) -> None:
        try:
            displaced = self.queue.put_or_displace(task, task.priority)
        except AdmissionError as error:
            self.metrics.record_rejected()
            raise OverloadError(
                str(error), retry_after_s=self.config.shed_retry_after_s
            ) from error
        if displaced is not None:
            self._shed_task(displaced)

    def _shed_task(self, task: RevisionTask) -> None:
        """Resolve a displaced/undeliverable task (and followers) as shed."""
        followers = self._pop_followers(task)
        self._resolve(
            task.future, task.pair, OUTCOME_SHED, SOURCE_SHED, task.submitted_at
        )
        for follower in followers:
            self._resolve(
                follower.future, follower.pair, OUTCOME_SHED, SOURCE_SHED,
                follower.submitted_at,
            )

    def _fail_task(self, task: RevisionTask, error: WorkerLostError) -> None:
        """Terminal worker-loss failure, fanned out to dedup followers —
        identical content rides the same poison pill."""
        followers = self._pop_followers(task)
        for target in (task, *followers):
            self.metrics.record_worker_lost_result()
            target.future.set_exception(error)

    def _pop_followers(self, task: RevisionTask) -> list[RevisionTask]:
        if task.cache_key is None:
            return []
        with self._state_lock:
            return self._inflight.pop(task.cache_key, [])

    def _expire_task(self, task: RevisionTask) -> RevisionTask | None:
        """Resolve one deadline-missed task; promote its oldest follower."""
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
            generated, score=score,
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

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except (BlockingIOError, OSError):
            pass    # a full pipe already guarantees a pending wakeup

    # -- placement ---------------------------------------------------------------
    @staticmethod
    def _build_ring(n_workers: int) -> tuple[list[int], list[int]]:
        points: list[tuple[int, int]] = []
        for slot in range(n_workers):
            for replica in range(_RING_REPLICAS):
                digest = hashlib.sha1(
                    f"worker-{slot}-point-{replica}".encode("ascii")
                ).hexdigest()
                points.append((int(digest[:8], 16), slot))
        points.sort()
        return [p for p, _ in points], [s for _, s in points]

    def _placement_key(self, task: RevisionTask) -> str:
        if task.cache_key is not None:
            return task.cache_key
        return config_hash({
            "pair_id": task.pair.pair_id,
            "instruction": task.pair.instruction,
            "response": task.pair.response,
        })

    def _max_outstanding(self) -> int:
        return (
            self.config.dispatch_depth_per_worker * self.config.serving.max_batch
        )

    def _route(self, task: RevisionTask) -> _Worker | None:
        """Pinned-by-content placement with liveness/load fallback."""
        cap = self._max_outstanding()
        points, slots = self._ring
        point = int(
            hashlib.sha1(self._placement_key(task).encode("utf-8")).hexdigest()[:8],
            16,
        )
        start = bisect.bisect_left(points, point) % len(points)
        seen: set[int] = set()
        for offset in range(len(points)):
            slot = slots[(start + offset) % len(points)]
            if slot in seen:
                continue
            seen.add(slot)
            worker = self._workers[slot]
            if worker.routable:
                if len(worker.outstanding) < cap:
                    return worker
                break   # pinned worker is live but full: spill by load
        candidates = [
            w for w in self._workers
            if w.routable and len(w.outstanding) < cap
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda w: len(w.outstanding))

    # -- supervision --------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        inherited = [
            w.conn for w in self._workers
            if w is not worker and w.conn is not None
        ]
        faults = (
            self.fault_plan.for_worker(worker.slot)
            if self.fault_plan is not None and worker.incarnation == 0
            else None
        )
        process = self._mp.Process(
            target=_fleet_worker_main,
            args=(
                worker.slot,
                worker.incarnation,
                child_conn,
                inherited,
                self.coach,
                self.scorer,
                self.config.serving,
                self.config.heartbeat_interval_s,
                faults,
            ),
            name=f"fleet-worker-{worker.slot}.{worker.incarnation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.state = _STATE_STARTING
        worker.restart_due = None
        worker.last_seen = time.monotonic()
        worker.kv = None
        worker.clean_exit = False

    def _run(self) -> None:
        interval = self.config.heartbeat_interval_s
        while True:
            now = time.monotonic()
            self._spawn_due_restarts(now)
            self._check_hangs(now)
            self._dispatch(now)
            if self._draining and self._drain_step(now):
                break
            if self._fleet_is_lost():
                self._fail_everything("every fleet worker is gone")
                if self._draining:
                    break
            objects: list = [self._wake_r]
            owners: dict = {}
            for worker in self._workers:
                if worker.conn is not None and not worker.conn.closed:
                    objects.append(worker.conn)
                    owners[worker.conn] = (worker, "conn")
                if worker.process is not None and worker.state in (
                    _STATE_STARTING, _STATE_READY
                ):
                    objects.append(worker.process.sentinel)
                    owners[worker.process.sentinel] = (worker, "sentinel")
            for ready in connection_wait(objects, timeout=interval):
                if ready == self._wake_r:
                    try:
                        os.read(self._wake_r, 65536)
                    except (BlockingIOError, OSError):
                        pass
                    continue
                worker, kind = owners[ready]
                if kind == "conn":
                    self._pump_conn(worker)
                elif worker.state in (_STATE_STARTING, _STATE_READY):
                    self._on_worker_loss(worker)

    def _pump_conn(self, worker: _Worker) -> None:
        if worker.conn is None:
            return
        try:
            while worker.conn.poll(0):
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            if worker.state in (_STATE_STARTING, _STATE_READY):
                self._on_worker_loss(worker)

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        worker.last_seen = time.monotonic()
        kind = message[0]
        if kind == "ready":
            worker.state = _STATE_READY
        elif kind == "beat":
            _, tokens, busy_s, kv = message
            if tokens or busy_s:
                self.metrics.record_engine_work(tokens, busy_s)
            worker.kv = kv
        elif kind == "done":
            (
                _, job_id, pair, outcome, source, generated, cacheable, score,
            ) = message
            worker.outstanding.discard(job_id)
            task = self._jobs.pop(job_id, None)
            if task is None:
                # The at-most-once discipline makes this unreachable; the
                # counter existing (and staying zero) is the proof.
                self.metrics.record_duplicate_result()
                return
            if source == SOURCE_DEADLINE:
                promoted = self._expire_task(task)
                if promoted is not None:
                    self._requeue(promoted, count_requeue=False)
                return
            self._finish(
                task, pair, outcome, source,
                cacheable=cacheable, generated=generated, score=score,
            )

    def _dispatch(self, now: float) -> None:
        cap = self._max_outstanding()
        while any(
            w.routable and len(w.outstanding) < cap for w in self._workers
        ):
            task = self.queue.get(timeout=0.0)
            if task is None:
                return
            while task is not None and (
                task.deadline is not None and now > task.deadline
            ):
                task = self._expire_task(task)
            if task is None:
                continue
            worker = self._route(task)
            if worker is None or worker.conn is None:
                self._requeue(task, count_requeue=False)
                return
            job_id = next(self._job_ids)
            self._jobs[job_id] = task
            worker.outstanding.add(job_id)
            try:
                worker.conn.send((
                    "job", job_id, task.pair, task.deadline, task.kind,
                    task.priority,
                ))
            except (OSError, ValueError):
                # Loss handling requeues this job with the rest.
                self._on_worker_loss(worker)

    def _requeue(self, task: RevisionTask, count_requeue: bool) -> None:
        if count_requeue:
            task.requeues += 1
            if task.requeues > self.config.requeue_budget:
                self._fail_task(
                    task,
                    WorkerLostError(
                        f"revision lost its worker {task.requeues} times "
                        f"(budget {self.config.requeue_budget}); giving up"
                    ),
                )
                return
            self.metrics.record_requeued()
        try:
            displaced = self.queue.put_or_displace(task, task.priority)
        except (AdmissionError, ServingError):
            self._shed_task(task)
            return
        if displaced is not None:
            self._shed_task(displaced)

    def _on_worker_loss(self, worker: _Worker) -> None:
        """Crash/hang path: kill, drain the pipe, requeue, schedule restart."""
        if worker.state not in (_STATE_STARTING, _STATE_READY):
            return
        process = worker.process
        if process is not None and process.is_alive():
            if self._stop_sent:
                # A stopping worker closes its pipe a beat before it
                # exits; let the clean exit land instead of SIGKILLing
                # a process that is already on its way out.
                process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
        if process is not None:
            process.join(timeout=10.0)
        # Drain buffered messages to EOF *before* requeueing: results the
        # worker flushed before dying are honoured, which is what makes
        # the requeue at-most-once instead of at-least-once.
        if worker.conn is not None:
            try:
                while worker.conn.poll(0):
                    self._handle_message(worker, worker.conn.recv())
            except (EOFError, OSError):
                pass
            worker.conn.close()
            worker.conn = None
        clean = (
            self._stop_sent
            and process is not None
            and process.exitcode == 0
            and not any(jid in self._jobs for jid in worker.outstanding)
        )
        worker.state = _STATE_EXITED if clean else _STATE_DEAD
        worker.clean_exit = clean
        lost = [jid for jid in worker.outstanding if jid in self._jobs]
        worker.outstanding.clear()
        for job_id in lost:
            task = self._jobs.pop(job_id)
            self._requeue(task, count_requeue=True)
        if worker.state == _STATE_DEAD and not self._draining:
            if worker.restarts < self.config.max_worker_restarts:
                worker.restarts += 1
                backoff = min(
                    self.config.restart_backoff_s * 2 ** (worker.restarts - 1),
                    self.config.restart_backoff_max_s,
                )
                worker.incarnation = worker.restarts
                worker.restart_due = time.monotonic() + backoff
            else:
                worker.restart_due = None   # retired

    def _spawn_due_restarts(self, now: float) -> None:
        if self._draining:
            return
        for worker in self._workers:
            if (
                worker.state == _STATE_DEAD
                and worker.restart_due is not None
                and now >= worker.restart_due
            ):
                self._spawn(worker)

    def _check_hangs(self, now: float) -> None:
        timeout = self.config.heartbeat_timeout_s
        ready_timeout = self.config.worker_ready_timeout_s
        for worker in self._workers:
            silent = now - worker.last_seen
            if worker.state == _STATE_READY and silent > timeout:
                self._on_worker_loss(worker)
            elif worker.state == _STATE_STARTING and silent > ready_timeout:
                self._on_worker_loss(worker)

    def _fleet_is_lost(self) -> bool:
        if not all(
            w.retired or w.state == _STATE_EXITED for w in self._workers
        ):
            return False
        return bool(self._jobs) or self.queue.depth > 0

    def _fail_everything(self, reason: str) -> None:
        for job_id in list(self._jobs):
            task = self._jobs.pop(job_id)
            self._fail_task(task, WorkerLostError(reason))
        for worker in self._workers:
            worker.outstanding.clear()
        while True:
            task = self.queue.get(timeout=0.0)
            if task is None:
                break
            self._fail_task(task, WorkerLostError(reason))

    # -- drain -------------------------------------------------------------------
    def _drain_step(self, now: float) -> bool:
        """One supervision round of the drain state machine; True = done."""
        assert self._drain_deadline is not None
        if now > self._drain_deadline:
            # Forced shutdown: kill stragglers, resolve everything left.
            for worker in self._workers:
                if worker.state in (_STATE_STARTING, _STATE_READY):
                    self._on_worker_loss(worker)
            self._fail_everything(
                f"fleet drain exceeded {self.config.drain_timeout_s}s"
            )
            return True
        live = [
            w for w in self._workers
            if w.state in (_STATE_STARTING, _STATE_READY)
        ]
        if not self._stop_sent and self.queue.depth == 0 and not self._jobs:
            for worker in live:
                if worker.conn is not None:
                    try:
                        worker.conn.send(("stop",))
                    except (OSError, ValueError):
                        self._on_worker_loss(worker)
            self._stop_sent = True
        if self._stop_sent and not live:
            return True
        if not live and (self._jobs or self.queue.depth):
            # Every worker died mid-drain with work left: nothing will
            # ever complete it (restarts are disabled while draining).
            self._fail_everything("fleet lost all workers while draining")
            return True
        return False

    # -- persistence --------------------------------------------------------------
    def _persistence_key(self) -> str:
        serving = self.config.serving
        return config_hash({
            "what": "fleet-revision-cache",
            "max_new_tokens": self.coach.max_new_tokens,
            "copy_bias": self.coach.copy_bias,
            "quality_gate_threshold": serving.quality_gate_threshold,
        })

    def _load_persisted_cache(self) -> None:
        if self.artifact_cache is None or self.cache.capacity <= 0:
            return
        # get_json quarantines a torn artifact and reads it as a miss:
        # a fleet that died mid-persist costs a cold cache, never a crash.
        blob = self.artifact_cache.get_json(
            "fleet-cache", self._persistence_key()
        )
        if isinstance(blob, dict):
            self.cache.import_entries(blob.get("revisions"))

    def _persist_cache(self) -> None:
        if self.artifact_cache is None or self.cache.capacity <= 0:
            return
        key = self._persistence_key()
        if self.fault_plan is not None and self.fault_plan.torn_cache_write:
            # Injected fault: die mid-persist, leaving truncated bytes at
            # the artifact's real path for the next fleet to survive.
            write_torn_json(self.artifact_cache.json_path("fleet-cache", key))
            return
        self.artifact_cache.save_json(
            "fleet-cache", key, {"revisions": self.cache.export_entries()}
        )
