"""Online revision service: CoachLM as a streaming precursor stage.

The paper's headline industrial result is CoachLM running *online*
inside Huawei's LLM data-management platform, revising noisy user cases
before human annotators see them (Fig. 6).  The offline reproduction
(:mod:`repro.deployment.platform`) processes fully-materialised batches;
this package serves requests that **arrive over time**, which is what
the platform actually faces under heavy user traffic.

Architecture (bottom up):

* :mod:`repro.serving.scheduler` — :class:`StreamingScheduler`: feeds
  jobs into the :class:`~repro.nn.decoding.BatchedEngine` incrementally
  via its ``submit``/``step``/``collect`` API, so a late-arriving request
  joins the in-flight batch at the first retired KV slot instead of
  waiting for the batch to drain;
* :mod:`repro.serving.queueing` — :class:`BoundedPriorityQueue` with
  admission control (:class:`~repro.errors.AdmissionError` on overflow);
* :mod:`repro.serving.cache` — content-hash dedup plus an LRU result
  cache, keyed by :func:`repro.pipeline.cache.config_hash`; repeated
  content is served without touching the engine;
* :mod:`repro.serving.metrics` — queue depth, latency percentiles and
  sustained tokens/sec, all on monotonic clocks;
* :mod:`repro.serving.lifecycle` — the one request lifecycle both
  backends run: a ``RequestBook`` (cache, dedup followers, expiry with
  follower promotion, resolution) and ``admit`` (optional
  :class:`~repro.quality.scorer.CriteriaScorer` quality gate, prompt
  gate, revision or IFD engine jobs);
* :mod:`repro.serving.server` — :class:`RevisionServer`: per-request
  futures and deadlines, token streams, one worker thread pumping the
  scheduler;
* :mod:`repro.serving.fleet` — :class:`EngineFleet`: the same service
  across forked worker processes, with supervision, shedding and drain
  (``docs/fleet.md``);
* :mod:`repro.serving.client` — :class:`InProcessRevisionClient`: the
  ``CoachLM.revise_dataset``-compatible façade used by the Fig. 6
  platform simulator;
* :mod:`repro.serving.http` — a stdlib ``ThreadingHTTPServer`` JSON
  front-end (``POST /revise``, ``POST /score``, ``GET /metrics``,
  ``GET /healthz``);
* :mod:`repro.serving.httpclient` — :class:`RevisionHTTPClient`: the
  retrying network client (timeouts, jittered backoff, ``Retry-After``,
  typed give-up), made effectively exactly-once by the server's dedup
  cache;
* :mod:`repro.serving.journal` — :class:`RunJournal`: a crash-safe,
  fsync'd write-ahead journal that makes whole revision runs resumable
  with byte-identical output (``docs/resilience.md``);
* :mod:`repro.serving.faults` — seeded fault injection for both the
  process layer (:class:`FaultPlan`) and the network layer
  (:class:`NetworkFaultPlan` + :class:`FaultyProxy`).

Besides revisions the service carries teacher-forced **scoring** traffic
(``submit_score`` / ``POST /score``): IFD verdicts from
:mod:`repro.scoring`, sharing the scheduler, queue and fleet with
revise jobs under a kind-namespaced dedup key-space (see
:func:`~repro.serving.cache.score_key`).

Served revisions are token-for-token identical to
:meth:`CoachLM.revise_dataset` on the same inputs; the parity is pinned
by ``tests/test_serving.py`` and throughput is tracked by
``benchmarks/test_bench_serving.py`` (``BENCH_serving.json``).
"""

from .cache import (
    CachedRevision,
    CachedScore,
    RevisionLRUCache,
    revision_key,
    score_key,
)
from .client import InProcessRevisionClient
from .faults import (
    ConnectionFault,
    FaultInjector,
    FaultPlan,
    FaultyProxy,
    NetworkFaultPlan,
    WorkerFaults,
)
from .fleet import EngineFleet
from .http import RevisionHTTPFrontend
from .httpclient import RevisionHTTPClient
from .journal import (
    JournaledDone,
    JournalReplay,
    RunJournal,
    dataset_fingerprint,
)
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
    SOURCE_CACHE,
    SOURCE_DEADLINE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    SOURCE_GATE,
    SOURCE_JOURNAL,
    SOURCE_SHED,
)
from .scheduler import EngineJob, StreamingScheduler
from .server import RevisionServer, RevisionStream

__all__ = [
    "BoundedPriorityQueue",
    "CachedRevision",
    "CachedScore",
    "ConnectionFault",
    "EngineFleet",
    "EngineJob",
    "FaultInjector",
    "FaultPlan",
    "FaultyProxy",
    "InProcessRevisionClient",
    "JournaledDone",
    "JournalReplay",
    "KIND_REVISE",
    "KIND_SCORE",
    "NetworkFaultPlan",
    "OUTCOME_EXPIRED",
    "OUTCOME_QUALITY_GATED",
    "OUTCOME_SCORED",
    "OUTCOME_SHED",
    "RevisionFuture",
    "RevisionHTTPClient",
    "RevisionHTTPFrontend",
    "RevisionLRUCache",
    "RevisionResult",
    "RevisionServer",
    "RevisionStream",
    "RunJournal",
    "ServingMetrics",
    "SOURCE_CACHE",
    "SOURCE_DEADLINE",
    "SOURCE_DEDUP",
    "SOURCE_ENGINE",
    "SOURCE_GATE",
    "SOURCE_JOURNAL",
    "SOURCE_SHED",
    "StreamingScheduler",
    "WorkerFaults",
    "dataset_fingerprint",
    "revision_key",
    "score_key",
]
