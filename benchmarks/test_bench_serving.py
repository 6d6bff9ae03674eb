"""Serving load benchmark — Poisson arrivals through the RevisionServer.

A load generator drives the online revision service with requests whose
inter-arrival times are exponential (open-loop Poisson traffic, the
standard serving-load model), sweeping the arrival rate from
under-subscribed to saturating.  Per rate we record p50/p95 request
latency and the *sustained* engine tokens/sec (tokens produced / engine
busy time), and compare against the same engine driven offline at batch
8 — the streaming scheduler must not give back the continuous-batching
speedup that PR 1 bought.  A dedup pass then re-submits known content
and asserts it is served entirely from the cache, with zero engine work;
a long-prompt stall scenario pins the chunked-prefill latency bound, and
a late-arrival burst scenario pins that multi-slot chunked admission
cuts mean admission-to-first-token steps at least 2x vs single-slot.

Results land in ``bench_out/BENCH_serving.json`` (see
:func:`conftest.write_bench_json`), the serving counterpart of
``BENCH_throughput.json``; the committed baseline sits at the repo root.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np
from conftest import print_banner, write_bench_json

from repro.config import DEFAULT_PREFILL_CHUNK_TOKENS, FleetConfig, ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import InstructionDataset, generate_dataset
from repro.errors import WorkerLostError
from repro.llm import build_tokenizer
from repro.nn import BatchedEngine, GenerationRequest, TransformerConfig, TransformerLM
from repro.serving import (
    EngineFleet,
    SOURCE_CACHE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    RevisionServer,
    RunJournal,
    dataset_fingerprint,
    revision_key,
)

MAX_BATCH = 8
N_CASES = 32
MAX_NEW_TOKENS = 48
#: Burst size of the late-arrival admission scenario (and the floor's
#: subject: multi-slot chunked prefill must cut the burst's mean
#: admission-to-first-token step count at least in half).
N_LATE_ARRIVALS = 8
ADMISSION_SPEEDUP_FLOOR = 2.0
#: One config for the whole bench: the offline batch-8 reference below is
#: re-derived from an engine built with *these exact knobs* on every run
#: (never a number hard-coded from a prior engine generation), so engine
#: improvements — ragged batched prefill, chunked refill — propagate into
#: both sides of the saturation ratio instead of silently inflating it.
SERVING_CONFIG = ServingConfig(max_batch=MAX_BATCH)
#: Arrival-rate multipliers relative to the engine's service capacity.
#: 0.5x is under-subscribed (latency ≈ decode time); 16x saturates the
#: fleet almost immediately, so the sustained-throughput comparison is
#: not diluted by the arrival ramp.
LOAD_MULTIPLIERS = (0.5, 16.0)


def _bench_coach(scale) -> tuple[CoachLM, list]:
    tokenizer = build_tokenizer()
    dims = scale.base_model
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=dims.d_model,
        n_layers=dims.n_layers,
        n_heads=dims.n_heads,
        max_seq_len=dims.max_seq_len,
    )
    model = TransformerLM(config, np.random.default_rng(1234))
    coach = CoachLM(model, tokenizer, max_new_tokens=MAX_NEW_TOKENS)
    dataset = generate_dataset(np.random.default_rng(55), N_CASES)
    # Only decode-eligible pairs: gated pairs never reach the engine and
    # would dilute the throughput comparison.
    eligible = [
        pair for pair in dataset if coach._pre_generate(pair)[0] is not None
    ]
    return coach, eligible


def _batch8_reference(
    coach: CoachLM, pairs: list, runs: int = 2
) -> tuple[float, int]:
    """Offline batch-8 revision throughput over the same requests.

    Re-derived from the *current* engine on every run (never a number
    hard-coded from a prior engine generation), at the offline batch
    path's own configuration — :data:`SERVING_CONFIG`'s fleet width on
    the engine's one schedule, exactly like ``CoachLM.revise_dataset``.
    Both sides of the ``saturated_vs_batch8`` ratio therefore run the
    same chunked prefill, and the ratio prices in the serving layer
    (queue, scheduler, prefix cache, open-loop arrivals).
    """
    requests = []
    for pair in pairs:
        request, outcome = coach.prepare_revision(pair)
        assert outcome is None
        requests.append(request)
    best = 0.0
    tokens = 0
    # Best-of-``runs``: the first run pays numpy/BLAS warmup and the
    # comparison below should be against the engine's real speed.
    for _ in range(runs):
        engine = BatchedEngine(coach.model, max_batch=SERVING_CONFIG.max_batch)
        start = time.perf_counter()
        outputs = engine.generate(requests)
        elapsed = time.perf_counter() - start
        tokens = sum(len(seq) for seq in outputs)
        best = max(best, tokens / elapsed)
    return best, tokens


def _long_prompt_stall(coach: CoachLM) -> dict:
    """Worst decode-step stall when a near-context prompt joins mid-flight.

    This is the scenario chunked prefill exists for: a fleet of short
    requests is decoding when one long prompt arrives in a freed slot.
    Unchunked, the admitting step pays the whole prompt-length forward
    before any in-flight slot advances; chunked, each step pays at most
    one ``prefill_chunk_tokens`` forward.  The unchunked reference is
    one chunk spanning the context: the same whole-prompt forward.
    Reported as the maximum single ``step()`` wall time between the long
    prompt's submission and the end of its prefill (best of three trials
    to damp scheduler noise).  The gap widens with context length — at
    bench scale the whole-prompt forward is only ~3x the chunk forward —
    but the bound itself is the contract: unchunked stall grows
    O(context), chunked stays O(chunk).
    """
    context = coach.model.config.max_seq_len
    rng = np.random.default_rng(77)
    short_prompts = [
        list(map(int, rng.integers(5, 300, size=12))) for _ in range(MAX_BATCH - 1)
    ]
    long_prompt = list(map(int, rng.integers(5, 300, size=context - 6)))

    def worst_step(chunk: int) -> float:
        best = float("inf")
        for _ in range(3):
            engine = BatchedEngine(
                coach.model, max_batch=MAX_BATCH, prefill_chunk_tokens=chunk
            )
            for prompt in short_prompts:
                engine.submit(GenerationRequest(prompt, MAX_NEW_TOKENS))
            engine.step()  # fleet in flight, one slot free
            seq_id = engine.submit(GenerationRequest(long_prompt, 4))
            worst = 0.0
            while seq_id not in engine.collect():
                start = time.perf_counter()
                engine.step()
                worst = max(worst, time.perf_counter() - start)
                if not engine.has_work:
                    break
            best = min(best, worst)
        return best

    unchunked = worst_step(context)
    chunked = worst_step(DEFAULT_PREFILL_CHUNK_TOKENS)
    return {
        "long_prompt_tokens": len(long_prompt),
        "chunk_tokens": DEFAULT_PREFILL_CHUNK_TOKENS,
        "unchunked_max_step_ms": round(unchunked * 1e3, 2),
        "chunked_max_step_ms": round(chunked * 1e3, 2),
        "stall_ratio": round(chunked / unchunked, 3),
    }


def _late_arrival_admission(coach: CoachLM) -> dict:
    """Mean admission-to-first-token steps for a simultaneous burst.

    The CoachLM deployment's bursty shape: a fleet is decoding when
    ``N_LATE_ARRIVALS`` long prompts land at once.  With single-slot
    chunked prefill the burst serializes — arrival ``j`` waits for every
    chunk of arrivals ``< j`` before its own first chunk runs — so its
    admission-to-first-token latency grows linearly in the burst size.
    Multi-slot admission advances *every* parked prompt one chunk per
    step in one ragged forward, collapsing that to the prompt's own
    chunk count.  Measured in engine steps (deterministic, timer-free):
    each arrival carries a one-token budget, so its completion step *is*
    its first-token step.
    """
    model = coach.model
    context = model.config.max_seq_len
    rng = np.random.default_rng(123)
    decoys = [
        list(map(int, rng.integers(5, 300, size=10))) for _ in range(MAX_BATCH)
    ]
    arrivals = [
        list(map(int, rng.integers(5, 300, size=context // 2 + (i % 5))))
        for i in range(N_LATE_ARRIVALS)
    ]

    def mean_steps(concurrency: int | None) -> tuple[float, float]:
        engine = BatchedEngine(
            model,
            max_batch=MAX_BATCH + N_LATE_ARRIVALS,
            prefill_concurrency=concurrency,
        )
        for prompt in decoys:
            engine.submit(GenerationRequest(prompt, context))
        engine.step()  # decoy fleet in flight; budgets outlast the burst
        ids = {engine.submit(GenerationRequest(p, 1)) for p in arrivals}
        first: dict[int, int] = {}
        steps = 0
        start = time.perf_counter()
        while len(first) < len(ids):
            engine.step()
            steps += 1
            for seq_id in engine.collect():
                if seq_id in ids:
                    first[seq_id] = steps
        elapsed = time.perf_counter() - start
        return float(np.mean(list(first.values()))), elapsed

    single_steps, single_s = mean_steps(1)
    # The engine default: every free slot admits.
    multi_steps, multi_s = mean_steps(None)
    return {
        "n_arrivals": N_LATE_ARRIVALS,
        "arrival_prompt_tokens": [len(p) for p in arrivals],
        "chunk_tokens": DEFAULT_PREFILL_CHUNK_TOKENS,
        "prefill_concurrency": MAX_BATCH + N_LATE_ARRIVALS,
        "single_slot_mean_steps": round(single_steps, 2),
        "multi_slot_mean_steps": round(multi_steps, 2),
        "admission_speedup_steps": round(single_steps / multi_steps, 2),
        "single_slot_wall_ms": round(single_s * 1e3, 2),
        "multi_slot_wall_ms": round(multi_s * 1e3, 2),
    }


def _poisson_load(coach: CoachLM, pairs: list, rate_per_s: float, seed: int):
    """Open-loop load: submit each pair after an exponential gap."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=len(pairs))
    server = RevisionServer(coach, SERVING_CONFIG)
    with server:
        futures = []
        for pair, gap in zip(pairs, gaps):
            time.sleep(float(gap))
            futures.append(server.submit(pair))
        results = [future.result(timeout=600.0) for future in futures]
    latencies = sorted(result.latency_s for result in results)
    return {
        "rate_per_s": round(rate_per_s, 2),
        "n_requests": len(results),
        "p50_latency_s": round(float(np.percentile(latencies, 50)), 4),
        "p95_latency_s": round(float(np.percentile(latencies, 95)), 4),
        "sustained_tokens_per_sec": round(server.metrics.tokens_per_second(), 1),
        "engine_tokens": server.metrics.engine_tokens,
    }


def _saturated_vs_reference(
    coach: CoachLM, pairs: list, rate_per_s: float, seed: int, rounds: int = 11
) -> dict:
    """Saturated trials paired round by round with offline batch-8 runs.

    Each side's trial lasts about 0.2 s, and a busy host stalls single
    engine steps for tens of milliseconds in bursts, so the two sides
    alternate round by round (which side goes first alternates too) and
    each round yields one paired saturated/reference ratio: a slow phase
    moves both sides of the same ratio instead of deciding it.  The gate
    judges the median of the ratios, never a best run of one side
    against a best run of the other from a different round.  Returns the
    median round's trial stats (its own latencies included) plus its
    reference tok/s, every round's ratio, and the median ratio.
    """
    trials = []
    for trial in range(rounds):
        if trial % 2:
            stats = _poisson_load(coach, pairs, rate_per_s, seed + trial)
            reference = _batch8_reference(coach, pairs, runs=1)[0]
        else:
            reference = _batch8_reference(coach, pairs, runs=1)[0]
            stats = _poisson_load(coach, pairs, rate_per_s, seed + trial)
        trials.append((stats["sustained_tokens_per_sec"] / reference, reference, stats))
    ratio, reference, stats = sorted(trials, key=lambda t: t[0])[rounds // 2]
    return {
        **stats,
        "reference_tokens_per_sec": round(reference, 1),
        "round_ratios": [round(t[0], 3) for t in trials],
        "median_ratio": round(ratio, 3),
    }


def _dedup_pass(coach: CoachLM, pairs: list) -> dict:
    """Warm the cache, then re-submit everything: zero engine work."""
    server = RevisionServer(coach, SERVING_CONFIG)
    with server:
        warm = [server.submit(pair) for pair in pairs]
        for future in warm:
            future.result(timeout=600.0)
        tokens_after_warm = server.metrics.engine_tokens
        repeat = [server.submit(pair) for pair in pairs]
        results = [future.result(timeout=600.0) for future in repeat]
    assert server.metrics.engine_tokens == tokens_after_warm, (
        "dedup-cache hits must not touch the engine"
    )
    sources = {result.source for result in results}
    assert sources <= {SOURCE_CACHE, SOURCE_DEDUP}, sources
    return {
        "repeats": len(results),
        "cache_served": len(results),
        "engine_tokens_saved": tokens_after_warm,
    }


def test_serving_sustains_batched_throughput(wb):
    coach, pairs = _bench_coach(wb.scale)
    ref_tokens_per_sec, ref_tokens = _batch8_reference(coach, pairs)
    tokens_per_request = ref_tokens / len(pairs)
    capacity_req_per_s = ref_tokens_per_sec / tokens_per_request

    sweep = {}
    for multiplier in LOAD_MULTIPLIERS:
        rate = multiplier * capacity_req_per_s
        seed = int(multiplier * 10)
        if multiplier == max(LOAD_MULTIPLIERS):
            # Only the saturated point feeds the reference ratio; the
            # under-subscribed point is latency-shaped.
            sweep[f"{multiplier}x"] = _saturated_vs_reference(
                coach, pairs, rate, seed
            )
        else:
            sweep[f"{multiplier}x"] = _poisson_load(coach, pairs, rate, seed)
    dedup = _dedup_pass(coach, pairs)
    stall = _long_prompt_stall(coach)
    admission = _late_arrival_admission(coach)

    saturated = sweep[f"{max(LOAD_MULTIPLIERS)}x"]
    payload = {
        "scale": wb.scale.name,
        "model": {
            "d_model": coach.model.config.d_model,
            "n_layers": coach.model.config.n_layers,
            "vocab_size": coach.model.config.vocab_size,
        },
        "max_batch": MAX_BATCH,
        "max_new_tokens": MAX_NEW_TOKENS,
        # The engine defaults, which the server and the reference share.
        "prefill_chunk_tokens": DEFAULT_PREFILL_CHUNK_TOKENS,
        "prefill_concurrency": MAX_BATCH,
        # Both sides of the saturated ratio run on the paged KV pool (the
        # engine's only layout) and the one schedule; the ratio prices in
        # the serving layer, not the KV layout or the schedule.
        "kv_page_tokens": SERVING_CONFIG.kv_page_tokens,
        "reference_batch8_tokens_per_sec": saturated["reference_tokens_per_sec"],
        "arrival_sweep": sweep,
        "saturated_vs_batch8": saturated["median_ratio"],
        "dedup": dedup,
        "long_prompt_stall": stall,
        "late_arrival_admission": admission,
    }
    print_banner("serving", "Poisson load through the online revision service")
    print(
        f"offline batch-{MAX_BATCH} reference: {ref_tokens_per_sec:.0f} tok/s "
        f"({tokens_per_request:.0f} tok/req, capacity ~{capacity_req_per_s:.0f} req/s)"
    )
    for label, stats in sweep.items():
        print(
            f"load {label:>4} ({stats['rate_per_s']:.0f} req/s): "
            f"p50 {1000 * stats['p50_latency_s']:.0f} ms, "
            f"p95 {1000 * stats['p95_latency_s']:.0f} ms, "
            f"sustained {stats['sustained_tokens_per_sec']:.0f} tok/s"
        )
    print(
        f"saturated vs offline batch-{MAX_BATCH}: median paired ratio "
        f"{saturated['median_ratio']:.3f} (rounds {saturated['round_ratios']})"
    )
    print(
        f"dedup pass: {dedup['repeats']} repeats served from cache, "
        f"{dedup['engine_tokens_saved']} engine tokens saved"
    )
    print(
        f"long-prompt stall ({stall['long_prompt_tokens']} tokens joining "
        f"mid-flight): worst step {stall['unchunked_max_step_ms']:.1f} ms "
        f"unchunked → {stall['chunked_max_step_ms']:.1f} ms chunked "
        f"(chunk={stall['chunk_tokens']})"
    )
    print(
        f"late-arrival burst ({admission['n_arrivals']} prompts at once): "
        f"mean admission-to-first-token "
        f"{admission['single_slot_mean_steps']:.1f} steps single-slot → "
        f"{admission['multi_slot_mean_steps']:.1f} steps multi-slot "
        f"({admission['admission_speedup_steps']:.1f}x)"
    )

    # Under saturating Poisson load the streaming scheduler must stay
    # close to the offline batch-8 throughput of the same engine
    # schedule — the ratio prices in the serving layer.  The gate judges
    # the median of the paired per-round ratios; the JSON records every
    # round's ratio next to it.
    assert saturated["median_ratio"] >= 0.9, payload
    # Chunking must deliver its bound: a long prompt joining a busy
    # fleet may never stall in-flight decodes for anything close to a
    # whole prompt-length forward pass.
    assert stall["chunked_max_step_ms"] < stall["unchunked_max_step_ms"], payload
    # Multi-slot admission must collapse the burst's serialization: mean
    # admission-to-first-token steps drop at least 2x vs single-slot
    # chunking (step counts are deterministic — no timer noise band).
    assert (
        admission["admission_speedup_steps"] >= ADMISSION_SPEEDUP_FLOOR
    ), payload
    # Under-subscribed load must have lower latency than saturation.
    light = sweep[f"{min(LOAD_MULTIPLIERS)}x"]
    assert light["p50_latency_s"] <= saturated["p50_latency_s"], payload

    # Record only after every gate above passed.
    write_bench_json("BENCH_serving.json", payload)


# -- priority preemption + streaming overhead stages -----------------------------

#: p95 high-priority time-to-first-token must beat the FIFO baseline at
#: least this much under saturating low-priority load (measured in
#: deterministic engine steps, like the admission bench).
PRIORITY_TTFT_FLOOR = 3.0
#: Streaming may cost at most this multiple of non-streamed sustained
#: throughput: plain_tok_s <= ceiling * streamed_tok_s.
STREAMING_OVERHEAD_CEILING = 1.1
#: High-priority probes fired into the saturated fleet (p95 subject).
N_PROBES = 5
#: Page size for the preemption stage: small enough that a bulk decode
#: spans several pages, so evicting one genuinely frees page headroom
#: for the urgent arrival (at the serving default of 64 a 60-token
#: sequence is a single page and preemption frees nothing).
PREEMPT_PAGE_TOKENS = 16


def _priority_preemption(coach: CoachLM) -> dict:
    """p95 TTFT of urgent probes vs a FIFO fleet, in engine steps.

    A decoy fleet of low-priority bulk decodes owns every KV page;
    urgent one-token probes (the TTFT trick of
    :func:`_late_arrival_admission`: a one-token budget makes the
    completion step the first-token step) land while it runs.  With
    priorities + preemption the probe evicts one bulk decode and speaks
    within a couple of steps; under FIFO (one priority class, and equal
    priorities never preempt) it waits for the whole bulk generation to
    retire.  Steps are deterministic — the floor is not exposed to CI
    timer noise — and wall times are recorded alongside.
    """
    model = coach.model
    rng = np.random.default_rng(31415)
    decoys = [
        list(map(int, rng.integers(5, 300, size=12))) for _ in range(MAX_BATCH)
    ]
    probes = [
        list(map(int, rng.integers(5, 300, size=12))) for _ in range(N_PROBES)
    ]
    pages_per_decoy = -(-(12 + MAX_NEW_TOKENS) // PREEMPT_PAGE_TOKENS)
    pool_pages = MAX_BATCH * pages_per_decoy
    submit_at = {i: 4 * (i + 1) for i in range(N_PROBES)}

    def ttft_steps(priorities: bool) -> tuple[list[int], float]:
        engine = BatchedEngine(
            model,
            max_batch=MAX_BATCH + 1,
            kv_page_tokens=PREEMPT_PAGE_TOKENS,
            kv_pool_pages=pool_pages,
        )
        for prompt in decoys:
            engine.submit(
                GenerationRequest(
                    prompt, MAX_NEW_TOKENS, priority=5 if priorities else 0
                )
            )
        ids: dict[int, int] = {}
        done_step: dict[int, int] = {}
        step = 0
        start = time.perf_counter()
        while len(done_step) < N_PROBES or engine.has_work:
            for i, at in submit_at.items():
                if step >= at and i not in ids:
                    ids[i] = engine.submit(
                        GenerationRequest(probes[i], 1, priority=0)
                    )
            engine.step()
            step += 1
            finished = engine.collect()
            for i, seq_id in ids.items():
                if seq_id in finished:
                    done_step[i] = step
        elapsed = time.perf_counter() - start
        stats = engine.kv_stats()
        assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
        return (
            [done_step[i] - submit_at[i] for i in range(N_PROBES)], elapsed
        )

    preempt_ttfts, preempt_s = ttft_steps(True)
    fifo_ttfts, fifo_s = ttft_steps(False)
    preempt_p95 = float(np.percentile(preempt_ttfts, 95))
    fifo_p95 = float(np.percentile(fifo_ttfts, 95))
    return {
        "n_probes": N_PROBES,
        "n_bulk_decodes": MAX_BATCH,
        "bulk_new_tokens": MAX_NEW_TOKENS,
        "kv_page_tokens": PREEMPT_PAGE_TOKENS,
        "kv_pool_pages": pool_pages,
        "preempt_ttft_steps": preempt_ttfts,
        "fifo_ttft_steps": fifo_ttfts,
        "preempt_p95_ttft_steps": round(preempt_p95, 2),
        "fifo_p95_ttft_steps": round(fifo_p95, 2),
        "ttft_speedup": round(fifo_p95 / preempt_p95, 2),
        "ttft_floor": PRIORITY_TTFT_FLOOR,
        "preempt_wall_ms": round(preempt_s * 1e3, 2),
        "fifo_wall_ms": round(fifo_s * 1e3, 2),
    }


def _streaming_overhead(coach: CoachLM, pairs: list) -> dict:
    """Sustained tok/s of streamed vs non-streamed revision traffic.

    Identical requests against fresh (cold-cache) servers, seven
    rounds of one plain and one streamed run each (each run lasts a
    fraction of a second; the order inside a round alternates).  Each round
    yields one paired plain/streamed ratio, so a transient
    machine-load spike moves both sides of the same ratio, and the gate
    judges the median of the seven ratios, never a best run of one mode
    against a best run of the other from a different round.  The
    streamed side pays the per-token delivery plumbing (scheduler
    callbacks, per-event queues) and its median ratio must stay under
    the :data:`STREAMING_OVERHEAD_CEILING`.
    """

    def run_once(streamed: bool) -> tuple[float, int]:
        server = RevisionServer(coach, SERVING_CONFIG)
        with server:
            start = time.perf_counter()
            if streamed:
                streams = [server.submit_stream(pair) for pair in pairs]
                n = 0
                for stream in streams:
                    while True:
                        event = stream.get(timeout=600.0)
                        assert event is not None, "stream stalled"
                        if event[0] == "tokens":
                            n += len(event[1])
                        elif event[0] == "done":
                            break
                        else:
                            raise AssertionError(event[1])
            else:
                futures = [server.submit(pair) for pair in pairs]
                n = sum(
                    f.result(timeout=600.0).generated_tokens
                    for f in futures
                )
            elapsed = time.perf_counter() - start
        return n / elapsed, n

    plain_tps, streamed_tps = [], []
    tokens = {}
    for round_ in range(7):
        for streamed in (False, True) if round_ % 2 == 0 else (True, False):
            tps, tokens[streamed] = run_once(streamed)
            (streamed_tps if streamed else plain_tps).append(tps)
    assert tokens[True] == tokens[False], (
        "streaming changed the decoded token count"
    )
    ratios = [p / s for p, s in zip(plain_tps, streamed_tps)]
    return {
        "n_requests": len(pairs),
        "engine_tokens": tokens[False],
        "plain_tokens_per_sec": round(float(np.median(plain_tps)), 1),
        "streamed_tokens_per_sec": round(float(np.median(streamed_tps)), 1),
        "round_ratios": [round(r, 3) for r in ratios],
        "overhead_ratio": round(float(np.median(ratios)), 3),
        "overhead_ceiling": STREAMING_OVERHEAD_CEILING,
    }


def test_priority_preemption_and_streaming_overhead(wb):
    coach, pairs = _bench_coach(wb.scale)
    preemption = _priority_preemption(coach)
    streaming = _streaming_overhead(coach, pairs[:16])

    payload = {
        "priority_preemption": preemption,
        "streaming_overhead": streaming,
    }

    print_banner(
        "preempt", "priority-tiered TTFT under saturation + streaming cost"
    )
    print(
        f"TTFT p95 over {preemption['n_probes']} urgent probes into "
        f"{preemption['n_bulk_decodes']} saturating bulk decodes: "
        f"{preemption['fifo_p95_ttft_steps']:.0f} steps FIFO → "
        f"{preemption['preempt_p95_ttft_steps']:.0f} steps preemptive "
        f"({preemption['ttft_speedup']:.1f}x, floor "
        f"{preemption['ttft_floor']:.0f}x)"
    )
    print(
        f"streaming overhead: {streaming['plain_tokens_per_sec']:.0f} tok/s "
        f"plain vs {streaming['streamed_tokens_per_sec']:.0f} tok/s streamed "
        f"(median paired ratio {streaming['overhead_ratio']:.2f}x of ≤"
        f"{streaming['overhead_ceiling']:.1f}x budget)"
    )

    # The headline contract: under saturating low-priority load, urgent
    # traffic must reach its first token >= 3x faster than FIFO would
    # allow — that is what preemptive eviction exists for.
    assert (
        preemption["ttft_speedup"] >= PRIORITY_TTFT_FLOOR
    ), payload
    # Per-token delivery plumbing must stay near-free: in the median
    # round the streamed run may not fall more than the ceiling behind
    # the plain run.
    assert streaming["overhead_ratio"] <= STREAMING_OVERHEAD_CEILING, payload

    # Record only after the gates passed.
    write_bench_json("BENCH_serving.json", payload)


# -- multi-process fleet stages --------------------------------------------------

#: Minimum 2-worker speedup over 1 worker (median wall-clock tok/s ratio
#: of interleaved warm trials) — only enforced when this process may run
#: on >= 2 cores (forked workers on one core just timeslice; the JSON
#: records the honest single-core numbers with ``floor_enforced: false``).
FLEET_SCALING_FLOOR = 1.6
#: Distinct eligible pairs timed per fleet trial: about a second of
#: decode at one worker, and under the fleet's 256-deep queue.
FLEET_TIMED_PAIRS = 200
#: Interleaved rounds of one 1-worker and one 2-worker trial each.  On a
#: 2-vCPU host one round's ratio spreads by about +-0.28 around its
#: median (host speed moves between trials), so the gate needs many.
FLEET_TRIALS = 15
#: Corpus the timed and warm-up pairs are drawn from (distinct content).
FLEET_CORPUS = 320


def _fleet_config(n_workers: int) -> FleetConfig:
    return FleetConfig(
        fleet_workers=n_workers,
        heartbeat_interval_s=0.05,
        heartbeat_timeout_s=5.0,
        restart_backoff_s=0.05,
        restart_backoff_max_s=0.2,
        serving=SERVING_CONFIG,
    )


def _fleet_pairs(coach: CoachLM) -> tuple[list, list]:
    """Distinct decode-eligible ``(warm-up, timed)`` pairs.

    Every pair has its own revision key, so no timed pair can be served
    by the result cache or in-flight dedup — not from a warm-up pair and
    not from another timed pair.
    """
    dataset = generate_dataset(np.random.default_rng(55), FLEET_CORPUS)
    distinct: dict[str, object] = {}
    for pair in dataset:
        if coach._pre_generate(pair)[0] is not None:
            key = revision_key(pair, coach.max_new_tokens, coach.copy_bias)
            distinct.setdefault(key, pair)
    pairs = list(distinct.values())
    assert len(pairs) > FLEET_TIMED_PAIRS, len(pairs)
    return pairs[FLEET_TIMED_PAIRS:], pairs[:FLEET_TIMED_PAIRS]


def _warm_fleet(fleet: EngineFleet, warmup: list) -> None:
    """Decode warm-up pairs until every worker has run engine steps.

    Pairs go in ``2 x max_batch`` at a time: a fresh fork's first
    requests take several times as long as warm ones, and the timed
    window should not measure them.
    """
    chunk = 2 * SERVING_CONFIG.max_batch
    for start in range(0, len(warmup), chunk):
        futures = [fleet.submit(pair) for pair in warmup[start:start + chunk]]
        for future in futures:
            future.result(timeout=600.0)
        # The now idle workers' next heartbeats carry the warm-up's engine
        # work, so the busy-time baseline read after this excludes it.
        time.sleep(3 * fleet.config.heartbeat_interval_s)
        if all(
            (stats["kv"] or {}).get("decode_steps", 0) > 0
            for stats in fleet.worker_stats()
        ):
            return
    raise AssertionError("a fleet worker never decoded during warm-up")


def _fleet_trial(
    coach: CoachLM, warmup: list, timed: list, n_workers: int
) -> dict:
    """Wall-clock revision throughput of one fresh, warmed n-worker fleet.

    Tokens are summed from the results themselves (exact), and the clock
    runs from first timed submit to last resolution — wall time is what
    extra workers are supposed to buy.  Engine busy time over the same
    window (summed across workers) is recorded next to it.
    """
    with EngineFleet(coach, _fleet_config(n_workers)) as fleet:
        _warm_fleet(fleet, warmup)
        busy_before = fleet.metrics_snapshot()["engine_busy_s"]
        start = time.perf_counter()
        futures = [fleet.submit(pair) for pair in timed]
        results = [future.result(timeout=600.0) for future in futures]
        elapsed = time.perf_counter() - start
    busy = fleet.metrics_snapshot()["engine_busy_s"] - busy_before
    assert all(result.source == SOURCE_ENGINE for result in results), (
        "a timed pair was served without decoding"
    )
    tokens = sum(result.generated_tokens for result in results)
    return {
        "workers": n_workers,
        "n_requests": len(results),
        "engine_tokens": tokens,
        "wall_s": round(elapsed, 3),
        "busy_s": round(busy, 3),
        "tokens_per_sec": round(tokens / elapsed, 1),
    }


def _fleet_scaling(coach: CoachLM) -> dict:
    """2-worker vs 1-worker throughput over :data:`FLEET_TRIALS` rounds.

    Each round runs one trial per worker count, on fresh fleets, in an
    order that alternates round by round, and yields one paired 2w/1w
    ratio.  Only the median ratio is judged; the per-round ratios, their
    MAD and the median busy-time ratio are recorded next to it.  One warm
    4-worker trial is recorded only.
    """
    warmup, timed = _fleet_pairs(coach)
    trials: dict[int, list[dict]] = {1: [], 2: []}
    for round_ in range(FLEET_TRIALS):
        for n in (1, 2) if round_ % 2 == 0 else (2, 1):
            trials[n].append(_fleet_trial(coach, warmup, timed, n))
    four = _fleet_trial(coach, warmup, timed, 4)
    assert {t["engine_tokens"] for t in trials[1] + trials[2] + [four]} == {
        trials[1][0]["engine_tokens"]
    }, "worker count changed the decoded token count"

    ratios = np.array([
        two["tokens_per_sec"] / one["tokens_per_sec"]
        for one, two in zip(trials[1], trials[2])
    ])
    busy_ratios = [
        two["busy_s"] / one["busy_s"] for one, two in zip(trials[1], trials[2])
    ]
    median = float(np.median(ratios))
    by_workers = {
        f"{n}w": {
            "workers": n,
            "n_requests": len(timed),
            "engine_tokens": runs[0]["engine_tokens"],
            "wall_s": round(float(np.median([r["wall_s"] for r in runs])), 3),
            "tokens_per_sec": round(
                float(np.median([r["tokens_per_sec"] for r in runs])), 1
            ),
            "trial_tokens_per_sec": [r["tokens_per_sec"] for r in runs],
        }
        for n, runs in trials.items()
    }
    by_workers["4w"] = four
    return {
        "warmup_pairs_per_burst": 2 * SERVING_CONFIG.max_batch,
        "timed_pairs": len(timed),
        "trials": FLEET_TRIALS,
        "by_workers": by_workers,
        "trial_ratios_2w": [round(float(r), 3) for r in ratios],
        "speedup_2w": round(median, 2),
        "speedup_2w_mad": round(float(np.median(np.abs(ratios - median))), 3),
        "busy_ratio_2w": round(float(np.median(busy_ratios)), 3),
        "speedup_4w": round(
            four["tokens_per_sec"] / by_workers["1w"]["tokens_per_sec"], 2
        ),
    }


def _crash_recovery(coach: CoachLM, pairs: list) -> dict:
    """SIGKILL one of two workers mid-decode; every request must resolve."""
    with EngineFleet(coach, _fleet_config(2)) as fleet:
        start = time.perf_counter()
        futures = [fleet.submit(pair) for pair in pairs]
        deadline = time.monotonic() + 60.0
        victim_pid = None
        while time.monotonic() < deadline:
            busiest = max(fleet._workers, key=lambda w: len(w.outstanding))
            if busiest.outstanding and busiest.process is not None:
                victim_pid = busiest.process.pid
                os.kill(victim_pid, signal.SIGKILL)
                break
            time.sleep(0.002)
        assert victim_pid is not None, "no worker ever went busy"
        killed_at = time.perf_counter()
        resolved = 0
        lost = 0
        for future in futures:
            try:
                future.result(timeout=600.0)
                resolved += 1
            except WorkerLostError:
                # Typed, accounted failure — still a resolved future.
                resolved += 1
                lost += 1
        recovered_at = time.perf_counter()
        snap = fleet.metrics_snapshot()
        restarts = sum(w.restarts for w in fleet._workers)
    assert resolved == len(pairs), "an accepted request never resolved"
    assert snap["duplicate_results"] == 0, snap
    return {
        "workers": 2,
        "accepted": len(pairs),
        "resolved": resolved,
        "resolved_pct": 100.0,
        "worker_lost_failures": lost,
        "requeued": snap["requeued"],
        "worker_restarts": restarts,
        "wall_s": round(recovered_at - start, 3),
        "kill_to_done_s": round(recovered_at - killed_at, 3),
    }


def test_fleet_scaling_and_crash_recovery(wb):
    coach, pairs = _bench_coach(wb.scale)
    # The cores this process may actually run on, not the host's count.
    usable_cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    floor_enforced = usable_cores >= 2

    fleet_scaling = {
        "cpu_cores": os.cpu_count(),
        "usable_cores": usable_cores,
        "floor": FLEET_SCALING_FLOOR,
        "floor_enforced": floor_enforced,
        **_fleet_scaling(coach),
    }
    scaling = fleet_scaling["by_workers"]
    recovery = _crash_recovery(coach, pairs)

    payload = {"fleet_scaling": fleet_scaling, "crash_recovery": recovery}

    print_banner("fleet", "multi-process fleet scaling + crash recovery")
    for label, stats in scaling.items():
        print(
            f"{label}: {stats['tokens_per_sec']:.0f} tok/s "
            f"({stats['engine_tokens']} tokens in {stats['wall_s']:.1f}s)"
        )
    print(
        f"speedup 2w {fleet_scaling['speedup_2w']:.2f}x median of "
        f"{fleet_scaling['trials']} warm trials "
        f"(MAD {fleet_scaling['speedup_2w_mad']:.2f}, per trial "
        f"{fleet_scaling['trial_ratios_2w']}, busy-time ratio "
        f"{fleet_scaling['busy_ratio_2w']:.2f}), "
        f"4w {fleet_scaling['speedup_4w']:.2f}x "
        f"({usable_cores} usable cores, floor "
        f"{'enforced' if floor_enforced else 'recorded only'})"
    )
    print(
        f"crash recovery: {recovery['resolved']}/{recovery['accepted']} "
        f"resolved after SIGKILL ({recovery['worker_lost_failures']} typed "
        f"failures, {recovery['requeued']} requeues, "
        f"kill→done {recovery['kill_to_done_s']:.2f}s)"
    )

    if floor_enforced:
        # Two engine processes on >= 2 cores must actually scale: judged
        # on the median of the interleaved warm trials.
        assert fleet_scaling["speedup_2w"] >= FLEET_SCALING_FLOOR, payload

    # Record only after the gate passed.
    write_bench_json("BENCH_serving.json", payload)


# -- crash-safe journal stages ---------------------------------------------------

#: The fsync'd run journal may cost at most this fraction of happy-path
#: revision throughput (pairs/s) — durability is supposed to be cheap
#: next to decode.
JOURNAL_OVERHEAD_CEILING = 0.05
#: A recovered run may decode at most this multiple of the interrupted
#: run's *tail* share — resume must skip the finished prefix, never
#: redo it.  Deterministic greedy decode makes the expected ratio
#: exactly 1.0; the headroom absorbs nothing but rounding.
RECOVERY_TAIL_FACTOR = 1.2
#: Fraction of the dataset "finished" before the simulated crash.
KILL_AFTER_FRACTION = 0.5
#: Decode budget for the journal-overhead measurement.  The journal's
#: fsync cost is per-*record* (constant per pair) while decode scales
#: with tokens; the 5% contract is about realistic revision lengths,
#: not the load sweep's truncated 48-token requests.
RESUME_MAX_NEW_TOKENS = 128


def _spy_engines() -> tuple[list, callable]:
    """Record every BatchedEngine built until ``restore()`` is called."""
    engines: list = []
    original = BatchedEngine.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)

    BatchedEngine.__init__ = recording
    return engines, lambda: setattr(BatchedEngine, "__init__", original)


def _resume_recovery(coach: CoachLM, pairs: list, journal_path: Path) -> dict:
    """Journal overhead + post-crash recovery cost of ``revise_dataset``.

    Two questions, both priced against the same offline revision run:

    * **Overhead** — what does the fsync-per-append write-ahead journal
      cost on the happy path?  Best-of-2 journal-less vs best-of-2
      journaled pairs/s over identical inputs.
    * **Recovery** — after a crash that durably finished half the pairs,
      how much decode does the resumed run spend?  The journal is cut at
      a record boundary after ``k`` DONE records (torn tails are the
      fuzz suite's subject, not a throughput question) and the resumed
      run's engines are spied: their summed ``total_generated_tokens``
      must stay within :data:`RECOVERY_TAIL_FACTOR` of the tail's own
      clean-run token share.
    """
    dataset = InstructionDataset(pairs, name="bench-resume")
    plain_s = journaled_s = float("inf")
    plain_dataset = None
    for _ in range(2):
        start = time.perf_counter()
        plain_dataset, _ = coach.revise_dataset(dataset)
        plain_s = min(plain_s, time.perf_counter() - start)
    for _ in range(2):
        journal_path.unlink(missing_ok=True)
        with RunJournal(journal_path) as journal:
            start = time.perf_counter()
            journaled_dataset, _ = coach.revise_dataset(
                dataset, journal=journal
            )
            journaled_s = min(journaled_s, time.perf_counter() - start)
    assert [(p.instruction, p.response) for p in journaled_dataset] == [
        (p.instruction, p.response) for p in plain_dataset
    ], "journaling changed the revision output"
    plain_pairs_per_s = len(pairs) / plain_s
    journaled_pairs_per_s = len(pairs) / journaled_s

    # Clean-run token shares, straight from the journal's DONE records.
    run_hash = coach.revision_run_hash()
    fingerprint = dataset_fingerprint(pairs)
    with RunJournal(journal_path) as journal:
        full = journal.open_run(run_hash, fingerprint)
    full_tokens = sum(d.generated_tokens for d in full.completed.values())

    # Simulate the crash: header + SUBMITTED + the first k DONE records.
    k = max(1, int(len(pairs) * KILL_AFTER_FRACTION))
    lines = journal_path.read_bytes().splitlines(keepends=True)
    journal_path.write_bytes(b"".join(lines[: 2 + k]))
    with RunJournal(journal_path) as journal:
        kept = journal.open_run(run_hash, fingerprint)
    assert kept.interrupted and kept.pairs_skipped == k
    tail_tokens = full_tokens - sum(
        d.generated_tokens for d in kept.completed.values()
    )

    engines, restore = _spy_engines()
    try:
        start = time.perf_counter()
        with RunJournal(journal_path) as journal:
            recovered_dataset, _ = coach.revise_dataset(
                dataset, journal=journal
            )
        recovery_s = time.perf_counter() - start
    finally:
        restore()
    recovered_tokens = sum(e.total_generated_tokens for e in engines)
    assert [(p.instruction, p.response) for p in recovered_dataset] == [
        (p.instruction, p.response) for p in plain_dataset
    ], "resume diverged from the uninterrupted run"

    return {
        "n_pairs": len(pairs),
        "max_new_tokens": coach.max_new_tokens,
        "plain_pairs_per_s": round(plain_pairs_per_s, 2),
        "journaled_pairs_per_s": round(journaled_pairs_per_s, 2),
        "journal_overhead_pct": round(
            100.0 * (1.0 - journaled_pairs_per_s / plain_pairs_per_s), 2
        ),
        "overhead_ceiling_pct": round(100.0 * JOURNAL_OVERHEAD_CEILING, 1),
        "pairs_finished_before_crash": k,
        "clean_run_tokens": full_tokens,
        "tail_tokens": tail_tokens,
        "recovered_tokens": recovered_tokens,
        "recovered_vs_tail": round(recovered_tokens / tail_tokens, 3),
        "tail_factor_ceiling": RECOVERY_TAIL_FACTOR,
        "recovery_wall_s": round(recovery_s, 3),
        "clean_wall_s": round(journaled_s, 3),
    }


def test_resume_recovery(wb, tmp_path):
    base_coach, pairs = _bench_coach(wb.scale)
    coach = CoachLM(
        base_coach.model,
        base_coach.tokenizer,
        max_new_tokens=RESUME_MAX_NEW_TOKENS,
    )
    recovery = _resume_recovery(coach, pairs, tmp_path / "bench-journal.jsonl")


    print_banner("resume", "crash-safe journal overhead + resume recovery")
    print(
        f"journal overhead: {recovery['plain_pairs_per_s']:.2f} pairs/s plain "
        f"→ {recovery['journaled_pairs_per_s']:.2f} pairs/s journaled "
        f"({recovery['journal_overhead_pct']:.1f}% of ≤"
        f"{recovery['overhead_ceiling_pct']:.0f}% budget)"
    )
    print(
        f"recovery: crash after {recovery['pairs_finished_before_crash']}/"
        f"{recovery['n_pairs']} pairs; resumed run decoded "
        f"{recovery['recovered_tokens']} tokens vs {recovery['tail_tokens']} "
        f"tail tokens ({recovery['recovered_vs_tail']:.2f}x of ≤"
        f"{recovery['tail_factor_ceiling']:.1f}x), "
        f"wall {recovery['recovery_wall_s']:.1f}s vs "
        f"{recovery['clean_wall_s']:.1f}s clean"
    )

    # Durability must be nearly free on the happy path: the fsync'd
    # journal may cost at most 5% of revision throughput.
    assert recovery["journaled_pairs_per_s"] >= (
        (1.0 - JOURNAL_OVERHEAD_CEILING) * recovery["plain_pairs_per_s"]
    ), recovery
    # Resume must skip the durable prefix: recovered decode stays within
    # the tail's own share (expected exactly 1.0x under greedy decode).
    assert recovery["recovered_tokens"] <= (
        RECOVERY_TAIL_FACTOR * recovery["tail_tokens"]
    ), recovery

    # Record only after the gates passed.
    write_bench_json("BENCH_serving.json", {"resume_recovery": recovery})
