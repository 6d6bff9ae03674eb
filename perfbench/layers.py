"""Per-layer metrics of a traced run: which spans to record, how to read them.

:func:`install` wraps the package's layer boundaries on a
:class:`~tracing.Tracer`; :func:`span_metrics` turns the recorded spans
and samples into the ``transformer.*``, ``decoding.*``, ``coachlm.*``,
``scheduler.*`` and ``journal.*`` metrics.  The workloads add the
metrics they measure themselves (``loadgen.*``, ``server.*``, ``http.*``,
``fleet.*``, ``scoring.*``, ``traffic.*``; ``http_fleet`` also reads its
untraced workers' prefix-cache and preemption counters from the fleet's
metrics) and :func:`assemble` fills every name of :data:`PER_LAYER` — a
layer the workload bypasses reads 0.
"""

from __future__ import annotations

import time
import weakref

import numpy as np

from repro.core.coachlm import CoachLM
from repro.nn.decoding import BatchedEngine
from repro.nn.modules import Embedding, LayerNorm, Linear
from repro.nn.transformer import MLP, SelfAttention, TransformerLM
from repro.serving import BoundedPriorityQueue, RunJournal, StreamingScheduler

from .common import median, percentile
from .tracing import SpanIndex, Tracer

#: Every per-layer metric and its unit, in the order they are printed.
PER_LAYER: dict[str, str] = {
    "loadgen.sent": "count",
    "loadgen.succeeded": "count",
    "loadgen.failed": "count",
    "loadgen.late_p99_ms": "ms",
    "transformer.attn_self_ms": "ms",
    "transformer.linear_ms": "ms",
    "transformer.mlp_self_ms": "ms",
    "transformer.layernorm_ms": "ms",
    "transformer.embed_ms": "ms",
    "transformer.rows_per_forward_mean": "rows",
    "transformer.linear_gflop": "GFLOP",
    "transformer.linear_mb": "MB",
    "decoding.steps": "count",
    "decoding.step_ms_p50": "ms",
    "decoding.step_ms_p99": "ms",
    "decoding.self_ms": "ms",
    "decoding.rows_per_step_mean": "rows",
    "decoding.prefill_tokens": "tokens",
    "decoding.decode_tokens": "tokens",
    "decoding.kv_reserved_over_used": "ratio",
    "decoding.kv_resident_mb_peak": "MB",
    "decoding.prefix_hit_rate": "ratio",
    "decoding.prefix_shared_tokens": "tokens",
    "decoding.preemptions": "count",
    "decoding.resumes": "count",
    "coachlm.self_ms": "ms",
    "coachlm.prepare_us_p50": "us",
    "coachlm.finalize_us_p50": "us",
    "coachlm.revised": "count",
    "coachlm.unchanged": "count",
    "coachlm.invalid_output": "count",
    "coachlm.useful_ratio": "ratio",
    "scheduler.pump_ms_p50": "ms",
    "scheduler.pump_self_ms": "ms",
    "server.submit_us_p99": "us",
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p99": "ms",
    "server.queue_depth_max": "count",
    "server.cache_served_ratio": "ratio",
    "server.stream_events_per_req": "count",
    "server.ttft_p95_ms": "ms",
    "server.snapshot_ms_p50": "ms",
    "server.snapshot_ms_max": "ms",
    "server.rejected": "count",
    "server.expired": "count",
    "server.shed": "count",
    "scoring.latency_p50_ms": "ms",
    "journal.records": "count",
    "journal.append_ms_p50": "ms",
    "journal.append_ms_p99": "ms",
    "journal.share": "ratio",
    "http.overhead_ms_p50": "ms",
    "http.overhead_ms_p99": "ms",
    "http.retries": "count",
    "http.gave_up": "count",
    "fleet.hit_latency_us_p50": "us",
    "fleet.miss_latency_ms_p50": "ms",
    "fleet.requeued": "count",
    "fleet.duplicate_results": "count",
    "fleet.worker_restarts": "count",
    "trace.overhead_ratio": "ratio",
    "traffic.prompt_tokens_p50": "tokens",
    "traffic.prompt_tokens_p99": "tokens",
    "traffic.decode_tokens_p50": "tokens",
    "traffic.duplicate_share": "ratio",
    "traffic.score_share": "ratio",
}

_ENGINE_COUNTERS = (
    "prefill_tokens", "decode_tokens", "preemptions", "resumes",
    "prefix_lookups", "prefix_hits", "prefix_shared_tokens",
)


def _forward_rows(args, kwargs) -> int:
    """Sequences one ``TransformerLM._forward_numpy`` call advances."""
    spans = kwargs.get("pack_spans", args[7] if len(args) > 7 else None)
    if spans is not None:
        return len(spans) - 1
    return int(np.asarray(args[1]).shape[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    counters, samples = tracer.counters, tracer.samples
    previous: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def linear_after(args, out) -> None:
        layer, x = args[0], args[1]
        rows = x.size // layer.in_features
        counters["linear_flop"] += 2.0 * rows * layer.in_features * layer.out_features
        counters["linear_bytes"] += x.nbytes + layer.weight.data.nbytes + out.nbytes

    def step_after(args, _out) -> None:
        engine = args[0]
        stats = engine.kv_stats()
        prefix = stats.get("prefix_cache") or {}
        preempt = stats.get("preemption") or {}
        now = (
            getattr(engine, "total_prompt_tokens_prefilled", 0),
            getattr(engine, "total_generated_tokens", 0),
            preempt.get("preemptions", 0),
            preempt.get("resumes", 0),
            prefix.get("lookups", 0),
            prefix.get("hits", 0),
            prefix.get("shared_tokens", 0),
        )
        before = previous.get(engine, (0,) * len(now))
        for key, new, old in zip(_ENGINE_COUNTERS, now, before):
            counters[key] += new - old
        previous[engine] = now
        # Memory held for K/V against the bytes the live tokens need.
        cfg = engine.model.config
        lengths = getattr(getattr(engine, "_caches", None), "lengths", None)
        live = engine.n_active + engine.n_prefilling
        used_tokens = int(lengths[:live].sum()) if lengths is not None else 0
        samples["kv"].append((
            int(stats.get("resident_kv_bytes") or 0),
            used_tokens * 2 * cfg.n_layers * cfg.d_model * 4,
        ))

    def dequeue_before(args) -> None:
        samples["queue_depth"].append(args[0].depth)

    def dequeue_after(_args, task) -> None:
        if task is not None:
            samples["queue_wait_s"].append(time.monotonic() - task.submitted_at)

    def pair_key(pair) -> str:
        # The pair id alone repeats for duplicate content and the object
        # id alone is reused once a worker frees an unpickled pair.
        return f"{pair.pair_id}@{id(pair)}"

    # The engine, the scorer and the coach all call the model through
    # TransformerLM._forward_numpy, and revise_dataset calls the coach's
    # per-pair hooks directly (the public prepare_revision and
    # finalize_revision wrap the same hooks for the server).  Neither has
    # a public boundary to wrap; a rename fails the traced run.
    tracer.wrap(TransformerLM, "_forward_numpy", "transformer.forward",
                value=_forward_rows)
    tracer.wrap(Embedding, "forward_numpy", "transformer.embed")
    tracer.wrap(LayerNorm, "forward_numpy", "transformer.layernorm")
    tracer.wrap(Linear, "forward_numpy", "transformer.linear", after=linear_after)
    tracer.wrap(SelfAttention, "forward_numpy", "transformer.attn")
    tracer.wrap(MLP, "forward_numpy", "transformer.mlp")
    tracer.wrap(BatchedEngine, "step", "decoding.step", after=step_after)
    tracer.wrap(CoachLM, "revise_dataset", "coachlm.revise_dataset")
    # _pre_generate(pair), _revision_request(prompt, pair),
    # _post_generate(pair, output).
    tracer.wrap(CoachLM, "_pre_generate", "coachlm.gate",
                request=lambda args: pair_key(args[1]))
    tracer.wrap(CoachLM, "_revision_request", "coachlm.request",
                request=lambda args: pair_key(args[2]))
    tracer.wrap(CoachLM, "_post_generate", "coachlm.finalize",
                request=lambda args: pair_key(args[1]))
    tracer.wrap(StreamingScheduler, "pump", "scheduler.pump")
    tracer.wrap(BoundedPriorityQueue, "get", "server.dequeue",
                before=dequeue_before, after=dequeue_after)
    tracer.wrap(RunJournal, "open_run", "journal.open")
    tracer.wrap(RunJournal, "record_submitted", "journal.submitted")
    tracer.wrap(RunJournal, "record_done", "journal.append")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """The span- and sample-derived per-layer metrics."""
    idx = SpanIndex(tracer.spans)
    counters, samples = tracer.counters, tracer.samples
    ms = 1e3
    out: dict[str, float] = {}

    forwards = idx.by_name["transformer.forward"]
    rows = idx.values("transformer.forward")
    out["transformer.attn_self_ms"] = idx.self_total("transformer.attn") * ms
    out["transformer.linear_ms"] = idx.total("transformer.linear") * ms
    out["transformer.mlp_self_ms"] = idx.self_total("transformer.mlp") * ms
    out["transformer.layernorm_ms"] = idx.total("transformer.layernorm") * ms
    out["transformer.embed_ms"] = idx.total("transformer.embed") * ms
    out["transformer.rows_per_forward_mean"] = float(np.mean(rows)) if rows else 0.0
    out["transformer.linear_gflop"] = counters["linear_flop"] / 1e9
    out["transformer.linear_mb"] = counters["linear_bytes"] / 2**20

    steps = idx.durations("decoding.step")
    step_ids = {span[0] for span in idx.by_name["decoding.step"]}
    rows_in_steps = sum(span[6] for span in forwards if span[4] in step_ids)
    kv = [(held, used) for held, used in samples["kv"] if used > 0]
    out["decoding.steps"] = float(len(steps))
    out["decoding.step_ms_p50"] = percentile(steps, 50) * ms
    out["decoding.step_ms_p99"] = percentile(steps, 99) * ms
    out["decoding.self_ms"] = (
        sum(steps) - idx.child_total("decoding.step", ("transformer.forward",))
    ) * ms
    out["decoding.rows_per_step_mean"] = rows_in_steps / len(steps) if steps else 0.0
    out["decoding.prefill_tokens"] = counters["prefill_tokens"]
    out["decoding.decode_tokens"] = counters["decode_tokens"]
    out["decoding.kv_reserved_over_used"] = (
        float(np.mean([held / used for held, used in kv])) if kv else 0.0
    )
    out["decoding.kv_resident_mb_peak"] = (
        max(held for held, _ in samples["kv"]) / 2**20 if samples["kv"] else 0.0
    )
    out["decoding.prefix_hit_rate"] = (
        counters["prefix_hits"] / counters["prefix_lookups"]
        if counters["prefix_lookups"] else 0.0
    )
    out["decoding.prefix_shared_tokens"] = counters["prefix_shared_tokens"]
    out["decoding.preemptions"] = counters["preemptions"]
    out["decoding.resumes"] = counters["resumes"]

    # revise_dataset minus the engine and the journal; the coach's own
    # gate, request building and parsing stay in its self time.
    revise_total = idx.total("coachlm.revise_dataset")
    out["coachlm.self_ms"] = (
        revise_total - idx.child_total(
            "coachlm.revise_dataset",
            ("decoding.step", "journal.open", "journal.submitted", "journal.append"),
        )
    ) * ms
    prepare = idx.by_request(("coachlm.gate", "coachlm.request"))
    out["coachlm.prepare_us_p50"] = median(list(prepare.values())) * 1e6
    out["coachlm.finalize_us_p50"] = median(idx.durations("coachlm.finalize")) * 1e6

    pumps = idx.durations("scheduler.pump")
    out["scheduler.pump_ms_p50"] = percentile(pumps, 50) * ms
    out["scheduler.pump_self_ms"] = idx.self_total("scheduler.pump") * ms
    waits = samples["queue_wait_s"]
    out["server.queue_wait_ms_p50"] = percentile(waits, 50) * ms
    out["server.queue_wait_ms_p99"] = percentile(waits, 99) * ms
    out["server.queue_depth_max"] = float(max(samples["queue_depth"], default=0))

    appends = idx.durations("journal.append")
    journal_total = sum(
        idx.total(name)
        for name in ("journal.open", "journal.submitted", "journal.append")
    )
    out["journal.records"] = float(len(appends))
    out["journal.append_ms_p50"] = percentile(appends, 50) * ms
    out["journal.append_ms_p99"] = percentile(appends, 99) * ms
    out["journal.share"] = journal_total / revise_total if revise_total else 0.0
    return out


def outcome_metrics(outcomes: dict[str, int], decoded: int) -> dict[str, float]:
    """``coachlm.*`` outcome counts and the share of decodes that paid off."""
    revised = outcomes.get("revised", 0)
    return {
        "coachlm.revised": float(revised),
        "coachlm.unchanged": float(outcomes.get("unchanged", 0)),
        "coachlm.invalid_output": float(outcomes.get("invalid_output", 0)),
        "coachlm.useful_ratio": revised / decoded if decoded else 0.0,
    }


def assemble(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric with its unit; bypassed layers read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unregistered per-layer metrics: {sorted(unknown)}")
    return {
        name: (float(values.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }
