"""Fault-tolerant multi-process serving fleet.

:class:`EngineFleet` scales the revision service past one process — and
keeps it alive when processes die.  A supervisor (the caller's process)
owns admission, the content cache, dedup, and every
:class:`~repro.serving.requests.RevisionFuture`; N forked **worker
processes** each run a private :class:`~repro.nn.decoding.BatchedEngine`
behind a :class:`~repro.serving.scheduler.StreamingScheduler` and talk
to the supervisor over one duplex pipe.  CoachLM's weights travel by
fork (copy-on-write), never by pickle.  Both sides run the request
lifecycle of :mod:`repro.serving.lifecycle`, the one
:class:`~repro.serving.server.RevisionServer` runs: the supervisor its
:class:`~repro.serving.lifecycle.RequestBook`, each worker its
:func:`~repro.serving.lifecycle.admit`, with typed ``_Job`` / ``_Done``
messages between them.

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
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as connection_wait

from ..config import FleetConfig, ServingConfig
from ..core.coachlm import CoachLM
from ..data.instruction_pair import InstructionPair
from ..errors import (
    AdmissionError,
    ModelError,
    OverloadError,
    ServingError,
    WorkerLostError,
)
from ..nn.decoding import BatchedEngine
from ..pipeline.cache import ArtifactCache, config_hash
from ..quality.scorer import CriteriaScorer
from .faults import FaultInjector, FaultPlan, WorkerFaults, write_torn_json
from .lifecycle import Completion, RequestBook, RevisionService, admit
from .metrics import ServingMetrics
from .queueing import BoundedPriorityQueue
from .requests import OUTCOME_EXPIRED, SOURCE_DEADLINE, RevisionFuture, RevisionTask
from .scheduler import StreamingScheduler

#: Ring points per worker slot — enough that a dead slot's arc spreads
#: over several successors instead of doubling one neighbour's load.
_RING_REPLICAS = 32

_STATE_STARTING = "starting"    #: forked, engine building, not routable
_STATE_READY = "ready"          #: routable
_STATE_DEAD = "dead"            #: lost, restart pending or retired
_STATE_EXITED = "exited"        #: clean shutdown during drain

#: Outstanding jobs the router keeps at one worker, as a multiple of its
#: engine ``max_batch``: 2 keeps a refill backlog behind the decode
#: fleet without committing half the queue to a worker that may die.
_DISPATCH_DEPTH_PER_WORKER = 2

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


@dataclass(frozen=True)
class _Job:
    """Supervisor → worker: run one request through :func:`admit`."""

    job_id: int
    pair: InstructionPair
    kind: str
    deadline: float | None
    priority: int


@dataclass(frozen=True)
class _Done:
    """Worker → supervisor: one job's terminal :class:`Completion`."""

    job_id: int
    completion: Completion


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
    outbox: list = []

    def handle_job(job: _Job) -> None:
        def complete(completion: Completion) -> None:
            outbox.append(_Done(job.job_id, completion))

        def expired() -> None:
            complete(Completion(job.pair, OUTCOME_EXPIRED, SOURCE_DEADLINE, False))

        admit(
            job.pair, job.kind, job.deadline, job.priority,
            coach=coach,
            scorer=scorer,
            threshold=config.quality_gate_threshold,
            scheduler=scheduler,
            complete=complete,
            expired=expired,
        )

    def send(message) -> None:
        if injector is not None:
            injector.before_send()
        conn.send(message)

    def flush_outbox() -> None:
        while outbox:
            message = outbox.pop(0)
            if (
                isinstance(message, _Done)
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
                if isinstance(message, _Job):
                    handle_job(message)
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


class EngineFleet(RevisionService):
    """Supervises N engine worker processes behind one submit() façade.

    Shares :class:`~repro.serving.lifecycle.RevisionService`'s client API
    with :class:`~repro.serving.server.RevisionServer` (``submit`` /
    ``revise`` / context manager; plus ``metrics_snapshot`` / ``health``),
    so the HTTP front-end and the in-process client drive either
    interchangeably.  ``artifact_dir`` enables cross-process
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
            serving.max_queue_depth
        )
        self.metrics = ServingMetrics()
        self.book = RequestBook(coach, serving, self.metrics)
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

    def install_sigterm_drain(self) -> None:
        """Route SIGTERM to a graceful :meth:`stop` (main thread only)."""
        import signal

        def handler(signum: int, frame: object) -> None:
            self.stop()

        signal.signal(signal.SIGTERM, handler)

    # -- client API (submit / submit_score / revise / score: RevisionService) ----
    def _intake(self, task: RevisionTask) -> RevisionFuture:
        # Sheds lowest-priority-first under pressure, and raises
        # OverloadError (HTTP 503 + Retry-After) when the request cannot
        # be accepted: the fleet is draining, or the queue is full and
        # this request outranks nothing in it.  Cache hits are served
        # even while draining or with every worker down — the degraded
        # fleet still answers what it already knows — but a draining
        # fleet attaches no new dedup followers.
        return self.book.intake(task, self._enqueue, dedup=not self._draining)

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
        if self._draining:
            self.metrics.record_rejected()
            raise OverloadError(
                "fleet is draining: not admitting new revisions",
                retry_after_s=self.config.shed_retry_after_s,
            )
        try:
            displaced = self.queue.put_or_displace(task, task.priority)
        except AdmissionError as error:
            self.metrics.record_rejected()
            raise OverloadError(
                str(error), retry_after_s=self.config.shed_retry_after_s
            ) from error
        if displaced is not None:
            self.book.shed(displaced)
        self._wake()

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
        return _DISPATCH_DEPTH_PER_WORKER * self.config.serving.max_batch

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

    def _handle_message(self, worker: _Worker, message) -> None:
        worker.last_seen = time.monotonic()
        if isinstance(message, _Done):
            self._on_done(worker, message)
            return
        kind = message[0]
        if kind == "ready":
            worker.state = _STATE_READY
        elif kind == "beat":
            _, tokens, busy_s, kv = message
            if tokens or busy_s:
                self.metrics.record_engine_work(tokens, busy_s)
            worker.kv = kv

    def _on_done(self, worker: _Worker, done: _Done) -> None:
        worker.outstanding.discard(done.job_id)
        task = self._jobs.pop(done.job_id, None)
        if task is None:
            # The at-most-once discipline makes this unreachable; the
            # counter existing (and staying zero) is the proof.
            self.metrics.record_duplicate_result()
            return
        if done.completion.source == SOURCE_DEADLINE:
            promoted = self.book.expire(task)
            if promoted is not None:
                self._requeue(promoted, count_requeue=False)
            return
        self.book.finish(task, done.completion)

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
                task = self.book.expire(task)
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
                worker.conn.send(_Job(
                    job_id, task.pair, task.kind, task.deadline, task.priority
                ))
            except (OSError, ValueError):
                # Loss handling requeues this job with the rest.
                self._on_worker_loss(worker)

    def _requeue(self, task: RevisionTask, count_requeue: bool) -> None:
        if count_requeue:
            task.requeues += 1
            if task.requeues > self.config.requeue_budget:
                self.book.fail(
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
            self.book.shed(task)
            return
        if displaced is not None:
            self.book.shed(displaced)

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
            self.book.fail(task, WorkerLostError(reason))
        for worker in self._workers:
            worker.outstanding.clear()
        while True:
            task = self.queue.get(timeout=0.0)
            if task is None:
                break
            self.book.fail(task, WorkerLostError(reason))

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
        if self.artifact_cache is None or self.book.cache.capacity <= 0:
            return
        # get_json quarantines a torn artifact and reads it as a miss:
        # a fleet that died mid-persist costs a cold cache, never a crash.
        blob = self.artifact_cache.get_json(
            "fleet-cache", self._persistence_key()
        )
        if isinstance(blob, dict):
            self.book.cache.import_entries(blob.get("revisions"))

    def _persist_cache(self) -> None:
        if self.artifact_cache is None or self.book.cache.capacity <= 0:
            return
        key = self._persistence_key()
        if self.fault_plan is not None and self.fault_plan.torn_cache_write:
            # Injected fault: die mid-persist, leaving truncated bytes at
            # the artifact's real path for the next fleet to survive.
            write_torn_json(self.artifact_cache.json_path("fleet-cache", key))
            return
        self.artifact_cache.save_json(
            "fleet-cache", key, {"revisions": self.book.cache.export_entries()}
        )
