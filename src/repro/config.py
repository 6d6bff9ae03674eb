"""Global configuration: scale presets, seeds, and RNG discipline.

Every stochastic component in the library takes an explicit seed (or a
:class:`numpy.random.Generator`).  Experiments are therefore reproducible
bit-for-bit given ``(ScaleConfig, seed)``.

Three presets mirror DESIGN.md section 6:

``ci``
    Tiny sizes used by the unit/integration test suite.
``bench``
    The default for the benchmark harness; large enough for the paper's
    qualitative shapes to be visible, small enough for a CPU.
``full``
    Paper-scale dataset counts (52k pairs).  Selected via the
    ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

#: Default master seed used across examples and benchmarks.
DEFAULT_SEED = 20240311

#: Default fleet width of the batched decoding engine — the single
#: source for every ``batch_size``/``max_batch`` default in the
#: revision and response-generation paths.
DEFAULT_GEN_BATCH_SIZE = 8

#: Page size (tokens) of the batched engine's paged KV pool — the single
#: default for the engine, :class:`ScaleConfig` and :class:`ServingConfig`.
DEFAULT_KV_PAGE_TOKENS = 64

#: Prefill chunk (prompt tokens) of the batched engine: while a fleet
#: is decoding, a joining prompt advances by at most this many tokens
#: per step, bounding the stall in-flight sequences see.
DEFAULT_PREFILL_CHUNK_TOKENS = 64


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (which uses :data:`DEFAULT_SEED` — *not* entropy — so that every
    run of the library is deterministic unless the caller opts out).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an int or Generator, got {type(seed)!r}")
    return np.random.default_rng(int(seed))


def spawn_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` tagged by ``label``.

    Mixing in the label keeps parallel subsystems decorrelated even when they
    are created from the same parent seed in a different order.
    """
    label_hash = abs(hash(label)) % (2**31)
    child_seed = int(rng.integers(0, 2**31)) ^ label_hash
    return np.random.default_rng(child_seed)


@dataclass(frozen=True)
class ModelScale:
    """Width/depth of a tiny transformer LM at one scale preset."""

    d_model: int
    n_layers: int
    n_heads: int
    max_seq_len: int
    lora_rank: int

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )


@dataclass(frozen=True)
class ScaleConfig:
    """All size knobs of one experiment scale.

    Attributes
    ----------
    name:
        Preset name (``ci`` / ``bench`` / ``full``).
    dataset_size:
        Number of pairs in the ALPACA52K-simulacrum.
    expert_sample_size:
        Number of pairs sampled for the expert revision campaign
        (6k in the paper).
    base_model / judge_hidden:
        Transformer scale for the tuned LLM simulacra.
    pretrain_steps / finetune_epochs / coach_epochs:
        Training budgets.  The paper trains CoachLM for seven epochs.
    batch_size / learning_rate:
        Optimiser settings (paper: lr 2e-4 for coach tuning).
    """

    name: str
    dataset_size: int
    expert_sample_size: int
    base_model: ModelScale
    large_model: ModelScale
    pretrain_steps: int
    finetune_epochs: int
    coach_epochs: int
    batch_size: int
    learning_rate: float
    coach_learning_rate: float = 2e-4
    max_new_tokens: int = 48
    #: Fleet width of the batched decoding engine (dataset revision and
    #: test-set response generation decode this many sequences per
    #: forward pass).
    gen_batch_size: int = DEFAULT_GEN_BATCH_SIZE
    #: Page size (tokens) of the engine's paged KV pool: K/V live in
    #: on-demand pages drawn from a shared free list through
    #: per-sequence block tables, so KV memory scales with *live
    #: tokens*.  The page size never changes a decoded token; the
    #: default matches the serving default.
    kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS

    def __post_init__(self) -> None:
        # Fail at construction with a clear message instead of deep inside
        # the decoding engine or the trainer.
        if self.gen_batch_size < 1:
            raise ConfigError(
                f"gen_batch_size must be >= 1, got {self.gen_batch_size}"
            )
        if self.kv_page_tokens is None or self.kv_page_tokens < 1:
            raise ConfigError(
                f"kv_page_tokens must be >= 1, got {self.kv_page_tokens}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_new_tokens < 1:
            raise ConfigError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )

    def scaled(self, **overrides: object) -> "ScaleConfig":
        """Return a copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the online revision service (:mod:`repro.serving`).

    The server's engine runs the one engine schedule (chunked prefill,
    every free slot admitting, priority preemption; see
    :class:`~repro.nn.decoding.BatchedEngine`) with the radix prefix
    cache on: every revision request wraps its content in the same
    coach-prompt template, and ``GET /metrics`` exports the hit-rate
    and shared-page counters under ``engine.prefix_cache``.

    Attributes
    ----------
    max_batch:
        Fleet width of the server's continuous-batching engine.
    max_queue_depth:
        Admission-control bound: :meth:`RevisionServer.submit` raises
        :class:`~repro.errors.AdmissionError` when this many requests are
        already queued (back-pressure, not silent buffering).
    cache_capacity:
        Entries of the content-hash LRU result cache (0 disables caching
        and in-flight dedup).
    default_deadline_s:
        Per-request deadline applied when the caller supplies none;
        ``None`` means requests never expire in the queue.
    quality_gate_threshold:
        Rubric score (0-100) above which a pair skips revision entirely,
        mirroring the platform's rule-based precursor stage; ``None``
        disables gating.
    idle_wait_s:
        How long the serving worker blocks on an empty queue before
        re-checking for shutdown.
    kv_page_tokens:
        Page size (tokens) of the server engine's paged KV pool.  KV
        pages are allocated on demand through per-sequence block tables,
        so resident KV memory follows the *live* fleet instead of the
        provisioned ``max_batch × max_seq_len`` worst case, and slot
        compaction is an O(1) block-table move; ``GET /metrics`` exports
        the pool's ``free_pages`` headroom so operators see admission
        pressure building before the queue starts returning 429s.  The
        page size never changes a served token.
    kv_pool_pages:
        Total page budget of the pool (admission reserves each
        sequence's worst-case quota against it; requests beyond it wait
        in the queue).  ``None`` sizes it to the full-context worst
        case, lazily allocated.
    """

    max_batch: int = DEFAULT_GEN_BATCH_SIZE
    max_queue_depth: int = 256
    cache_capacity: int = 1024
    default_deadline_s: float | None = None
    quality_gate_threshold: float | None = None
    idle_wait_s: float = 0.005
    kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS
    kv_pool_pages: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.kv_page_tokens is None or self.kv_page_tokens < 1:
            raise ConfigError(
                f"kv_page_tokens must be >= 1, got {self.kv_page_tokens}"
            )
        if self.kv_pool_pages is not None and self.kv_pool_pages < 1:
            raise ConfigError(
                f"kv_pool_pages must be >= 1, got {self.kv_pool_pages}"
            )
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.quality_gate_threshold is not None and not (
            0.0 <= self.quality_gate_threshold <= 100.0
        ):
            raise ConfigError(
                "quality_gate_threshold must be within [0, 100], got "
                f"{self.quality_gate_threshold}"
            )
        if self.idle_wait_s <= 0:
            raise ConfigError(f"idle_wait_s must be > 0, got {self.idle_wait_s}")


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the multi-process serving fleet (:mod:`repro.serving.fleet`).

    Attributes
    ----------
    fleet_workers:
        Number of engine worker processes the supervisor spawns.  Each
        runs its own :class:`~repro.nn.decoding.BatchedEngine` behind a
        :class:`~repro.serving.scheduler.StreamingScheduler`, configured
        by :attr:`serving` — so total decode capacity is
        ``fleet_workers × serving.max_batch``.
    heartbeat_interval_s:
        How often each worker reports liveness (and its engine
        token/busy-time deltas) over its pipe.
    heartbeat_timeout_s:
        Silence threshold after which the supervisor declares a worker
        *hung*, kills it, requeues its in-flight jobs and restarts it.
        Must comfortably exceed the worst engine step time plus the
        heartbeat interval, or healthy-but-busy workers get shot.
    restart_backoff_s / restart_backoff_max_s:
        Exponential-backoff base and cap between a worker's death and
        its replacement: restart ``k`` waits ``base * 2**(k-1)``
        seconds, capped.
    max_worker_restarts:
        Restarts allowed per worker slot before the supervisor gives the
        slot up for dead and serves degraded on the survivors.
    requeue_budget:
        Times one job may be requeued after losing its worker before it
        is failed with a typed :class:`~repro.errors.WorkerLostError`.
        Requeues are at-most-once per death (a job whose result already
        arrived is never requeued), and every requeue re-decodes from
        scratch — greedy decode is deterministic, so a recomputed
        revision is token-for-token the one the dead worker was
        producing.
    max_queue_depth:
        Bound of the supervisor's priority queue.  Under pressure the
        fleet sheds lowest-priority-first: a full queue displaces its
        worst entry for a strictly higher-priority arrival (the
        displaced request resolves as ``shed``), and otherwise rejects
        with :class:`~repro.errors.OverloadError` → HTTP ``503`` +
        ``Retry-After``.
    shed_retry_after_s:
        The ``Retry-After`` horizon attached to shed/overload rejections.
    dispatch_depth_per_worker:
        Outstanding jobs the router keeps at one worker, as a multiple
        of its engine ``max_batch`` — 2 keeps a refill backlog behind
        the decode fleet without committing half the queue to a worker
        that may die.
    worker_ready_timeout_s:
        How long :meth:`EngineFleet.start` waits for the initial fleet
        to report ready.
    drain_timeout_s:
        Bound on the graceful-drain phase of :meth:`EngineFleet.stop`;
        workers still busy past it are killed (their jobs fail as
        requeue-exhausted rather than hang the shutdown).
    serving:
        Per-worker engine/cache knobs (a :class:`ServingConfig`); the
        fleet inherits its ``max_batch``, chunked-prefill and paged-KV
        settings, quality gate, and cache capacity (the supervisor runs
        the content cache, so per-request dedup spans the whole fleet).
    """

    fleet_workers: int = 2
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 5.0
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 2.0
    max_worker_restarts: int = 8
    requeue_budget: int = 2
    max_queue_depth: int = 256
    shed_retry_after_s: float = 1.0
    dispatch_depth_per_worker: int = 2
    worker_ready_timeout_s: float = 60.0
    drain_timeout_s: float = 60.0
    serving: ServingConfig = field(default_factory=ServingConfig)

    def __post_init__(self) -> None:
        if self.fleet_workers < 1:
            raise ConfigError(
                f"fleet_workers must be >= 1, got {self.fleet_workers}"
            )
        for name in ("heartbeat_interval_s", "restart_backoff_s",
                     "restart_backoff_max_s", "worker_ready_timeout_s",
                     "drain_timeout_s", "shed_retry_after_s"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ConfigError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s "
                f"({self.heartbeat_timeout_s} <= {self.heartbeat_interval_s}):"
                " a healthy worker would be declared hung between beats"
            )
        if self.max_worker_restarts < 0:
            raise ConfigError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.requeue_budget < 0:
            raise ConfigError(
                f"requeue_budget must be >= 0, got {self.requeue_budget}"
            )
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.dispatch_depth_per_worker < 1:
            raise ConfigError(
                "dispatch_depth_per_worker must be >= 1, got "
                f"{self.dispatch_depth_per_worker}"
            )


_CI = ScaleConfig(
    name="ci",
    dataset_size=240,
    expert_sample_size=120,
    base_model=ModelScale(d_model=32, n_layers=1, n_heads=4, max_seq_len=160, lora_rank=4),
    large_model=ModelScale(d_model=48, n_layers=2, n_heads=4, max_seq_len=160, lora_rank=4),
    pretrain_steps=40,
    finetune_epochs=1,
    coach_epochs=2,
    batch_size=16,
    learning_rate=3e-3,
    coach_learning_rate=3e-3,
    max_new_tokens=40,
)

_BENCH = ScaleConfig(
    name="bench",
    dataset_size=1200,
    expert_sample_size=800,
    base_model=ModelScale(d_model=64, n_layers=2, n_heads=8, max_seq_len=192, lora_rank=16),
    large_model=ModelScale(d_model=80, n_layers=2, n_heads=8, max_seq_len=192, lora_rank=16),
    pretrain_steps=550,
    finetune_epochs=3,
    # The paper trains CoachLM for seven epochs; our coach corpora are two
    # orders of magnitude smaller, so the bench preset adds a few epochs
    # to reach a comparable number of optimiser steps.
    coach_epochs=10,
    batch_size=24,
    learning_rate=1.5e-3,
    # Paper: LoRA lr 2e-4 — scaled up for tiny-LM step counts.
    coach_learning_rate=2.5e-3,
)

_FULL = ScaleConfig(
    name="full",
    dataset_size=52000,
    expert_sample_size=6000,
    base_model=ModelScale(d_model=128, n_layers=3, n_heads=8, max_seq_len=256, lora_rank=16),
    large_model=ModelScale(d_model=192, n_layers=4, n_heads=8, max_seq_len=256, lora_rank=16),
    pretrain_steps=4000,
    finetune_epochs=3,
    coach_epochs=7,
    batch_size=32,
    learning_rate=1e-3,
    coach_learning_rate=1.5e-3,
)

PRESETS: dict[str, ScaleConfig] = {"ci": _CI, "bench": _BENCH, "full": _FULL}


def get_scale(name: str | None = None) -> ScaleConfig:
    """Look up a scale preset.

    When ``name`` is ``None`` the ``REPRO_SCALE`` environment variable is
    consulted, defaulting to ``bench``.
    """
    if name is None:
        name = os.environ.get("REPRO_SCALE", "bench")
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale preset {name!r}; expected one of {sorted(PRESETS)}"
        ) from None
