"""Decoding throughput — sequential vs batched engine (tokens/sec).

Measures both heavy generation stages of the pipeline at the bench-scale
model dimensions: CoachLM revision decodes (copy-assist biases, ragged
Fig. 3 prompts) and test-set response generation (Alpaca template).  The
sequential baseline is the legacy per-sequence KV-cache loop; the
batched numbers run the same requests through the continuous-batching
engine, which is token-identical (asserted below) but amortises per-step
numpy overhead across the fleet.

A third, *prompt-heavy* scenario (prompt ≫ max_new_tokens — the shape of
Reflection-Tuning-style repeated re-revision sweeps, where the Fig. 3
template dominates every request) splits throughput into its prefill and
decode phases: prefill-phase tokens/sec is isolated by decoding exactly
one token per sequence, so the measurement compares one packed prefill
forward against the per-request prefill loop directly.

Results land in ``bench_out/BENCH_throughput.json`` (the committed
baseline sits at the repo root) so the perf trajectory of the engine is
tracked across PRs.  Two regression floors are asserted: batched decode
speedup at batch 8 must not drop below the PR-1 floor (>= 3.4x), and
packed prefill must hold >= 2x over per-request prefill at batch 8.

The ``prefix_cache`` stage measures the radix prefix cache under
template-heavy load (every request extends one shared template): with
the cache on, prefill tok/s must beat the cache-off paged engine >= 3x
and KV bytes per live logical token must drop >= 2x.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import print_banner, write_bench_json

from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.llm import build_tokenizer
from repro.llm.prompts import encode_truncated_instruction_prompt
from repro.nn import BatchedEngine, GenerationRequest, TransformerConfig, TransformerLM

#: Fleet widths reported in the JSON artifact (acceptance: >= 3x at >= 8).
BATCH_SIZES = (8, 16)
N_SEQUENCES = 32
MAX_NEW_TOKENS = 48
#: PR-1 recorded 3.48x (revision) / 3.89x (responses) at batch 8; the
#: batched-prefill engine must never fall back below this floor.
PR1_BATCH8_FLOOR = 3.4
#: Prompt-heavy scenario: long prompts, almost no decode.
HEAVY_MAX_NEW_TOKENS = 8
#: Acceptance bar for packed batched prefill at batch 8.
PREFILL_BATCH8_FLOOR = 2.0
#: Chunked-admission scenario: chunk size and the wall-clock bar
#: multi-slot admission must clear over single-slot chunking (the real
#: gap is ~2x; the floor leaves a wide band for CI timer noise).
ADMISSION_CHUNK_TOKENS = 16
ADMISSION_MULTI_VS_SINGLE_FLOOR = 1.2
#: Paged KV pool: resident KV bytes under staggered prompt-heavy load
#: must undercut per-slot full-context slabs (``2 × n_layers × max_batch
#: × max_seq_len × d_model`` float32) at least this much (the real gap
#: is ~3-4x at partial occupancy).
KV_MEMORY_RATIO_FLOOR = 2.0
KV_PAGE_TOKENS = 64
#: Radix prefix cache under template-heavy load (every request extends
#: one shared template): prefill tok/s with the cache on must beat the
#: cache-off paged engine >= 3x (it skips the template's tokens), and
#: KV bytes per live *logical* token must drop >= 2x (the template's
#: pages are stored once, referenced by every slot).
PREFIX_PREFILL_FLOOR = 3.0
PREFIX_MEMORY_RATIO_FLOOR = 2.0
PREFIX_N_REQUESTS = 12


def _bench_model(scale) -> tuple[TransformerLM, "WordTokenizer"]:
    tokenizer = build_tokenizer()
    dims = scale.base_model
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=dims.d_model,
        n_layers=dims.n_layers,
        n_heads=dims.n_heads,
        max_seq_len=dims.max_seq_len,
    )
    return TransformerLM(config, np.random.default_rng(1234)), tokenizer


def _time_tokens(fn) -> tuple[list[list[int]], float]:
    start = time.perf_counter()
    outputs = fn()
    return outputs, time.perf_counter() - start


def _best_of(fn, repeats: int = 3) -> tuple[list[list[int]], float]:
    """Best-of-N timing: the first run pays numpy/BLAS warmup and page
    faults; the comparison should be between the paths' real speeds."""
    outputs, best = _time_tokens(fn)
    for _ in range(repeats - 1):
        again, elapsed = _time_tokens(fn)
        assert again == outputs
        best = min(best, elapsed)
    return outputs, best


def _stage(name, requests, sequential_fn, model) -> dict:
    """Time one stage sequentially and at each fleet width."""
    expected, seq_elapsed = _best_of(sequential_fn)
    n_tokens = sum(len(seq) for seq in expected)
    stage = {
        "n_sequences": len(requests),
        "tokens": n_tokens,
        "sequential_tokens_per_sec": round(n_tokens / seq_elapsed, 1),
        "batched": {},
    }
    for batch in BATCH_SIZES:
        got, elapsed = _best_of(
            lambda: BatchedEngine(model, max_batch=batch).generate(requests)
        )
        assert got == expected, f"{name}: batched tokens diverge at batch={batch}"
        stage["batched"][str(batch)] = {
            "tokens_per_sec": round(n_tokens / elapsed, 1),
            "speedup": round(seq_elapsed / elapsed, 2),
        }
    return stage


def _long_prompts(tokenizer, model, dataset) -> list[list[int]]:
    """Near-context-length prompts: tiled instruction text, ragged tails."""
    context = model.config.max_seq_len
    prompts = []
    for i, pair in enumerate(dataset):
        base = encode_truncated_instruction_prompt(
            tokenizer, pair.instruction, context
        )
        target = context - HEAVY_MAX_NEW_TOKENS - 1 - (i % 7)
        tiled = (base * (target // len(base) + 1))[:target]
        prompts.append(tiled)
    return prompts


def _prompt_heavy_stage(model, prompts) -> dict:
    """Prefill-vs-decode tokens/sec split for prompt-dominated requests.

    Prefill throughput is isolated with one-token budgets (the request
    finishes on the prefill's own first token, so no decode step runs);
    decode throughput is the residual of the full run.
    """
    prompt_tokens = sum(len(p) for p in prompts)
    prefill_requests = [GenerationRequest(p, 1, eos_id=None) for p in prompts]
    full_requests = [
        GenerationRequest(p, HEAVY_MAX_NEW_TOKENS, eos_id=None) for p in prompts
    ]

    # Per-request prefill baseline: the pre-batched-prefill engine path
    # (and TransformerLM.generate) prefill prompts one at a time.
    expected_first, seq_prefill_s = _best_of(
        lambda: [model.generate(p, 1) for p in prompts]
    )
    expected_full, seq_full_s = _best_of(
        lambda: [model.generate(p, HEAVY_MAX_NEW_TOKENS) for p in prompts]
    )
    decode_tokens = sum(len(seq) for seq in expected_full) - len(prompts)
    stage = {
        "n_sequences": len(prompts),
        "prompt_tokens": prompt_tokens,
        "max_new_tokens": HEAVY_MAX_NEW_TOKENS,
        "sequential": {
            "prefill_tokens_per_sec": round(prompt_tokens / seq_prefill_s, 1),
            "decode_tokens_per_sec": round(
                decode_tokens / max(seq_full_s - seq_prefill_s, 1e-9), 1
            ),
        },
        "batched": {},
    }
    for batch in BATCH_SIZES:
        got_first, prefill_s = _best_of(
            lambda: BatchedEngine(model, max_batch=batch).generate(
                prefill_requests
            )
        )
        assert got_first == expected_first, (
            f"prompt-heavy: prefill first tokens diverge at batch={batch}"
        )
        got_full, full_s = _best_of(
            lambda: BatchedEngine(model, max_batch=batch).generate(full_requests)
        )
        assert got_full == expected_full, (
            f"prompt-heavy: tokens diverge at batch={batch}"
        )
        stage["batched"][str(batch)] = {
            "prefill_tokens_per_sec": round(prompt_tokens / prefill_s, 1),
            "prefill_speedup": round(seq_prefill_s / prefill_s, 2),
            "decode_tokens_per_sec": round(
                decode_tokens / max(full_s - prefill_s, 1e-9), 1
            ),
            "overall_speedup": round(seq_full_s / full_s, 2),
        }
    return stage


def _chunked_admission_stage(model, prompts) -> dict:
    """Burst turnaround with chunked refill: single- vs multi-slot.

    The many-late-arrivals shape: a fleet of in-flight decodes when a
    burst of near-context prompts lands at once.  With chunking on and
    ``prefill_concurrency=1`` the burst's admission serializes (one
    chunk of one prompt per step, each arrival waiting out every chunk
    of the arrivals before it); at burst-width concurrency all parked
    prompts advance each step as rows of one packed forward.  Measured as
    wall-clock from burst submission until the last arrival completes —
    the in-flight decodes keep running throughout, in both runs.  Every
    arrival must reproduce the sequential path's tokens exactly: the
    multi-slot speedup is pure scheduling, never different output.
    """
    burst = prompts[: BATCH_SIZES[0]]
    expected = [model.generate(p, HEAVY_MAX_NEW_TOKENS) for p in burst]
    burst_tokens = sum(len(p) for p in burst) + sum(
        len(seq) for seq in expected
    )
    rng = np.random.default_rng(321)
    decoys = [
        [int(t) for t in rng.integers(5, 300, size=12)]
        for _ in range(BATCH_SIZES[0])
    ]
    decoy_budget = model.config.max_seq_len - 16

    def burst_turnaround(concurrency: int, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            engine = BatchedEngine(
                model,
                max_batch=2 * BATCH_SIZES[0],
                prefill_chunk_tokens=ADMISSION_CHUNK_TOKENS,
                prefill_concurrency=concurrency,
            )
            for prompt in decoys:
                engine.submit(GenerationRequest(prompt, decoy_budget))
            engine.step()  # decoy fleet in flight; budgets outlast the burst
            ids = [
                engine.submit(GenerationRequest(p, HEAVY_MAX_NEW_TOKENS))
                for p in burst
            ]
            results: dict[int, list[int]] = {}
            start = time.perf_counter()
            while not all(seq_id in results for seq_id in ids):
                engine.step()
                results.update(engine.collect())
            best = min(best, time.perf_counter() - start)
            assert [results[seq_id] for seq_id in ids] == expected, (
                f"late-arrival tokens diverge at concurrency={concurrency}"
            )
        return best

    stage = {
        "n_arrivals": len(burst),
        "chunk_tokens": ADMISSION_CHUNK_TOKENS,
        "burst_tokens": burst_tokens,
        "by_concurrency": {},
    }
    for concurrency in (1, BATCH_SIZES[0]):
        elapsed = burst_turnaround(concurrency)
        stage["by_concurrency"][str(concurrency)] = {
            "tokens_per_sec": round(burst_tokens / elapsed, 1),
            "elapsed_s": round(elapsed, 4),
        }
    single = stage["by_concurrency"]["1"]["tokens_per_sec"]
    multi = stage["by_concurrency"][str(BATCH_SIZES[0])]["tokens_per_sec"]
    stage["multi_vs_single_slot"] = round(multi / single, 2)
    return stage


def _kv_memory_stage(model, prompts) -> dict:
    """Resident KV bytes of the paged pool under staggered arrivals.

    The memory claim the paged pool makes is that resident KV bytes
    follow the *live* fleet, not the provisioned worst case — so the
    scenario is an engine provisioned wide (two burst widths of slots)
    serving prompt-heavy requests that arrive over time, the serving
    shape where occupancy is variable.  The reference is the analytic
    size of per-slot full-context slabs, ``2 × n_layers × max_batch ×
    max_seq_len × d_model`` float32 bytes; the pool holds the pages of
    the sequences actually alive (plus its attention mirror, counted).
    Tokens must match the sequential path exactly.
    """
    max_batch = 2 * BATCH_SIZES[0]
    cfg = model.config
    slab_bytes = 2 * cfg.n_layers * max_batch * cfg.max_seq_len * cfg.d_model * 4
    expected = [model.generate(p, HEAVY_MAX_NEW_TOKENS) for p in prompts]
    engine = BatchedEngine(
        model, max_batch=max_batch, kv_page_tokens=KV_PAGE_TOKENS
    )
    results: dict[int, list[int]] = {}
    ids: list[int] = []
    pending = list(prompts)
    peak_resident = 0
    peak_pages = 0
    while pending or engine.has_work:
        if pending:
            ids.append(
                engine.submit(
                    GenerationRequest(pending.pop(0), HEAVY_MAX_NEW_TOKENS)
                )
            )
        for _ in range(4):
            engine.step()
            results.update(engine.collect())
        stats = engine.kv_stats()
        peak_resident = max(peak_resident, stats["resident_kv_bytes"])
        peak_pages = max(peak_pages, stats["pages_in_use"])
    results.update(engine.collect())
    assert [results[i] for i in ids] == expected, "paged KV changed decoded tokens"
    return {
        "n_sequences": len(prompts),
        "max_batch": max_batch,
        "kv_page_tokens": KV_PAGE_TOKENS,
        "max_new_tokens": HEAVY_MAX_NEW_TOKENS,
        "dense_resident_bytes": slab_bytes,
        "paged_resident_bytes": peak_resident,
        "resident_ratio": round(slab_bytes / peak_resident, 2),
        "peak_kv_pages": peak_pages,
        "kv_bytes_per_live_token": round(
            peak_resident / (peak_pages * KV_PAGE_TOKENS), 1
        ),
    }


def _prefix_cache_stage(model) -> dict:
    """Template-heavy shared-prefix load: radix cache on vs off.

    The serving shape the prefix cache targets: every request extends
    one long instruction template (the Fig. 3 coach prompt shape) with a
    short distinct tail.  Both engines run the same paged pool; the only
    difference is the radix index.  A single warm request registers the
    template's pages, then the burst is timed with one-token budgets so
    the measurement isolates prefill — the phase the cache short-cuts by
    skipping straight to each prompt's first unshared token.  Tokens
    must match the sequential decode exactly in both runs: the cache is
    pure scheduling/storage, never different output.

    The memory split reruns the burst with real decode budgets and all
    requests concurrently live, and compares peak page storage per live
    *logical* token (what each sequence believes it has cached): with
    sharing, the template's pages count once for the whole fleet.
    """
    rng = np.random.default_rng(987)
    # Template fills the context up to one page of headroom: the tails
    # and decode budgets live in each request's single private page.
    template_pages = model.config.max_seq_len // KV_PAGE_TOKENS - 1
    template = [
        int(t)
        for t in rng.integers(5, 300, size=template_pages * KV_PAGE_TOKENS)
    ]
    prompts = [
        template + [int(t) for t in rng.integers(5, 300, size=int(n))]
        for n in rng.integers(9, 21, size=PREFIX_N_REQUESTS)
    ]
    warm_request = GenerationRequest(template + [7], 1, eos_id=None)
    prefill_requests = [GenerationRequest(p, 1, eos_id=None) for p in prompts]
    expected = [model.generate(p, 1) for p in prompts]

    def warmed_engine(prefix_cache: bool) -> BatchedEngine:
        engine = BatchedEngine(
            model,
            max_batch=PREFIX_N_REQUESTS + 1,
            prefill_concurrency=PREFIX_N_REQUESTS,
            kv_page_tokens=KV_PAGE_TOKENS,
            kv_prefix_cache=prefix_cache,
        )
        engine.generate([warm_request])
        return engine

    engines = {on: warmed_engine(on) for on in (False, True)}
    elapsed: dict[bool, float] = {}
    for on, engine in engines.items():
        got, elapsed[on] = _best_of(lambda: engine.generate(prefill_requests))
        assert got == expected, f"prefix_cache={on}: prefill tokens diverge"

    pc = engines[True].kv_stats()["prefix_cache"]
    prompt_tokens = sum(len(p) for p in prompts)

    # -- memory split: peak page storage per live logical token ----------------
    full_expected = [model.generate(p, HEAVY_MAX_NEW_TOKENS) for p in prompts]
    logical_tokens = sum(
        len(p) + HEAVY_MAX_NEW_TOKENS for p in prompts
    )
    token_bytes = 2 * model.config.n_layers * model.config.d_model * 4

    def peak_pages(prefix_cache: bool) -> int:
        engine = warmed_engine(prefix_cache)
        ids = [
            engine.submit(GenerationRequest(p, HEAVY_MAX_NEW_TOKENS, eos_id=None))
            for p in prompts
        ]
        results: dict[int, list[int]] = {}
        peak = 0
        while engine.has_work:
            engine.step()
            results.update(engine.collect())
            peak = max(peak, engine.kv_stats()["pages_in_use"])
        assert [results[i] for i in ids] == full_expected, (
            f"prefix_cache={prefix_cache}: decoded tokens diverge"
        )
        return peak

    pages = {on: peak_pages(on) for on in (False, True)}
    bytes_per_token = {
        on: pages[on] * KV_PAGE_TOKENS * token_bytes / logical_tokens
        for on in (False, True)
    }
    return {
        "n_sequences": len(prompts),
        "template_tokens": len(template),
        "prompt_tokens": prompt_tokens,
        "kv_page_tokens": KV_PAGE_TOKENS,
        "off_prefill_tokens_per_sec": round(prompt_tokens / elapsed[False], 1),
        "on_prefill_tokens_per_sec": round(prompt_tokens / elapsed[True], 1),
        "prefill_speedup": round(elapsed[False] / elapsed[True], 2),
        "hit_rate": pc["hit_rate"],
        "shared_tokens": pc["shared_tokens"],
        "off_peak_kv_pages": pages[False],
        "on_peak_kv_pages": pages[True],
        "off_kv_bytes_per_live_token": round(bytes_per_token[False], 1),
        "on_kv_bytes_per_live_token": round(bytes_per_token[True], 1),
        "kv_bytes_per_live_token_ratio": round(
            bytes_per_token[False] / bytes_per_token[True], 2
        ),
    }


def test_throughput_sequential_vs_batched(wb):
    model, tokenizer = _bench_model(wb.scale)
    dataset = generate_dataset(np.random.default_rng(55), N_SEQUENCES)

    # -- stage 1: test-set style response generation ---------------------------
    context = model.config.max_seq_len
    prompts = [
        encode_truncated_instruction_prompt(tokenizer, pair.instruction, context)
        for pair in dataset
    ]
    eos = tokenizer.specials.eos
    response_requests = [
        GenerationRequest(p, MAX_NEW_TOKENS, eos_id=eos) for p in prompts
    ]
    response_stage = _stage(
        "responses",
        response_requests,
        lambda: [model.generate(p, MAX_NEW_TOKENS, eos_id=eos) for p in prompts],
        model,
    )

    # -- stage 2: CoachLM revision decodes (copy-assist biases) ----------------
    coach = CoachLM(model, tokenizer, max_new_tokens=MAX_NEW_TOKENS)
    gated = [coach._pre_generate(pair) for pair in dataset]
    coach_prompts = [
        (prompt, pair)
        for pair, (prompt, _) in zip(dataset, gated)
        if prompt is not None
    ]
    revision_requests = [
        coach._revision_request(prompt, pair) for prompt, pair in coach_prompts
    ]
    revision_stage = _stage(
        "revision",
        revision_requests,
        lambda: [
            coach._generate_with_copy_assist(prompt, pair)
            for prompt, pair in coach_prompts
        ],
        model,
    )

    # -- stage 3: prompt-heavy (prefill-bound) ---------------------------------
    long_prompts = _long_prompts(tokenizer, model, dataset)
    heavy_stage = _prompt_heavy_stage(model, long_prompts)

    # -- stage 4: chunked admission, single- vs multi-slot ----------------------
    admission_stage = _chunked_admission_stage(model, long_prompts)

    # -- stage 5: paged KV pool resident memory --------------------------------
    kv_memory_stage = _kv_memory_stage(model, long_prompts)

    # -- stage 6: radix prefix cache under template-heavy load -----------------
    prefix_stage = _prefix_cache_stage(model)

    payload = {
        "scale": wb.scale.name,
        "model": {
            "d_model": model.config.d_model,
            "n_layers": model.config.n_layers,
            "vocab_size": model.config.vocab_size,
        },
        "max_new_tokens": MAX_NEW_TOKENS,
        "response_generation": response_stage,
        "revision": revision_stage,
        "prompt_heavy": heavy_stage,
        "chunked_admission": admission_stage,
        "kv_memory": kv_memory_stage,
        "prefix_cache": prefix_stage,
    }
    print_banner("throughput", "sequential vs batched decoding (tokens/sec)")
    for stage_name in ("response_generation", "revision"):
        stage = payload[stage_name]
        line = ", ".join(
            f"B={batch}: {info['tokens_per_sec']:.0f} tok/s ({info['speedup']:.2f}x)"
            for batch, info in stage["batched"].items()
        )
        print(
            f"{stage_name}: seq {stage['sequential_tokens_per_sec']:.0f} tok/s "
            f"over {stage['tokens']} tokens → {line}"
        )
    heavy_line = ", ".join(
        f"B={batch}: prefill {info['prefill_tokens_per_sec']:.0f} tok/s "
        f"({info['prefill_speedup']:.2f}x), decode "
        f"{info['decode_tokens_per_sec']:.0f} tok/s"
        for batch, info in heavy_stage["batched"].items()
    )
    print(
        f"prompt_heavy: seq prefill "
        f"{heavy_stage['sequential']['prefill_tokens_per_sec']:.0f} tok/s over "
        f"{heavy_stage['prompt_tokens']} prompt tokens → {heavy_line}"
    )
    single = admission_stage["by_concurrency"]["1"]
    multi = admission_stage["by_concurrency"][str(BATCH_SIZES[0])]
    print(
        f"chunked_admission (chunk={admission_stage['chunk_tokens']}): "
        f"single-slot {single['tokens_per_sec']:.0f} tok/s → multi-slot "
        f"{multi['tokens_per_sec']:.0f} tok/s "
        f"({admission_stage['multi_vs_single_slot']:.2f}x)"
    )
    print(
        f"kv_memory (staggered, {kv_memory_stage['max_batch']} slots): slabs "
        f"{kv_memory_stage['dense_resident_bytes'] / 1e6:.2f} MB → paged "
        f"{kv_memory_stage['paged_resident_bytes'] / 1e6:.2f} MB "
        f"({kv_memory_stage['resident_ratio']:.2f}x, peak "
        f"{kv_memory_stage['peak_kv_pages']} pages, "
        f"{kv_memory_stage['kv_bytes_per_live_token']:.0f} B/live token)"
    )
    print(
        f"prefix_cache (template {prefix_stage['template_tokens']} tok, "
        f"{prefix_stage['n_sequences']} requests): prefill "
        f"{prefix_stage['off_prefill_tokens_per_sec']:.0f} → "
        f"{prefix_stage['on_prefill_tokens_per_sec']:.0f} tok/s "
        f"({prefix_stage['prefill_speedup']:.2f}x, hit rate "
        f"{prefix_stage['hit_rate']:.2f}); KV "
        f"{prefix_stage['off_kv_bytes_per_live_token']:.0f} → "
        f"{prefix_stage['on_kv_bytes_per_live_token']:.0f} B/live token "
        f"({prefix_stage['kv_bytes_per_live_token_ratio']:.2f}x)"
    )

    # Perf-regression floors.  The engine must not give back PR-1's
    # continuous-batching decode speedup, and the packed batched prefill
    # must clear its own acceptance bar.
    for stage in (response_stage, revision_stage):
        assert stage["batched"]["8"]["speedup"] >= PR1_BATCH8_FLOOR, stage
    assert (
        heavy_stage["batched"]["8"]["prefill_speedup"] >= PREFILL_BATCH8_FLOOR
    ), heavy_stage
    # Multi-slot chunked admission must recover the throughput single-slot
    # chunking gives up to refill serialization.
    assert (
        admission_stage["multi_vs_single_slot"]
        >= ADMISSION_MULTI_VS_SINGLE_FLOOR
    ), admission_stage
    # The paged pool's reason to exist: resident KV memory scales with
    # live tokens, not with max_batch × max_seq_len.
    assert (
        kv_memory_stage["resident_ratio"] >= KV_MEMORY_RATIO_FLOOR
    ), kv_memory_stage
    # The prefix cache's acceptance bars: skipping shared template
    # tokens must pay off in prefill throughput, and storing them once
    # must pay off in page footprint.
    assert prefix_stage["prefill_speedup"] >= PREFIX_PREFILL_FLOOR, prefix_stage
    assert (
        prefix_stage["kv_bytes_per_live_token_ratio"]
        >= PREFIX_MEMORY_RATIO_FLOOR
    ), prefix_stage

    # Record only after every gate above passed.
    write_bench_json("BENCH_throughput.json", payload)
