"""Randomized differential-parity fuzz for the batched decoding engine.

Every scenario draws a random *serving trace* — uneven prompt lengths
(including prompt-too-long edge cases), staggered arrival steps, chunked
prefill at random chunk sizes (or one chunk spanning the whole context)
and concurrencies, greedy and seeded top-k requests mixed in one fleet,
and early cancellations — runs it through :class:`BatchedEngine`'s
streaming ``submit``/``step``/``collect`` API, and asserts the result of
every surviving request is **token-for-token identical** to the
sequential :meth:`TransformerLM.generate` path (cancelled requests must
be an exact prefix of it).

Each scenario also draws its *KV layout*: one full-context page per
sequence or a random page size (including degenerate one-token pages),
a randomly undersized page budget (so page-exhaustion deferral and
recycling are fuzzed, not just directed-tested), and the radix prefix
cache on or off — none of which may change a single token.

Some prompts repeat a short motif, the copy-shaped input speculative
decoding drafts from.  Half of those carry CoachLM's copy assist — a
static bias on the motif's first token plus an :class:`InductionCopyBias`
— over a motif that contains EOS, so the output copies the motif,
every draft is accepted, and EOS lands inside an accepted run.  Full
draft acceptance, EOS inside a run, the copy bias under speculation
and the budget clip at the context end are thereby fuzzed
against the sequential path.  The motif draws come from their own rng
stream, so every other draw of a seed is unchanged, and each run's
corpus must keep at least one drafted token
(``test_fuzz_corpus_accepts_drafts``).

Scenarios draw *shared-prefix request families* alongside independent
prompts: several requests extend the same template prefix at random cut
points, so with the prefix cache on the trace exercises radix hits,
partial boundary-page shares, copy-on-write, pinned-page admission and
eviction — and every drained trace asserts zero leaked pages, zero
leaked reservations, zero pinned shared pages, and (after a cache
clear) a free list covering the whole allocation.

Scenarios are generated from ``seed = REPRO_FUZZ_SEED + index``, so a
failure is reproducible in isolation::

    REPRO_FUZZ_SEED=<printed seed> REPRO_FUZZ_SCENARIOS=1 \
        python -m pytest tests/test_fuzz_parity.py

``REPRO_FUZZ_SCENARIOS`` (default 60) sets the per-run budget, and
``REPRO_FUZZ_PREFIX`` pins the prefix-cache draw: ``on`` forces the
radix prefix cache on in every scenario (the CI prefix leg — same
seeds, so each trace differentially replays the default leg's), ``off``
forces it off, and ``auto`` (default) randomizes per scenario.
``scripts/ci.sh`` pins it so CI runs a fixed, deterministic corpus.

``REPRO_FUZZ_PREEMPT`` pins the preemption draw: ``on`` gives every
scenario random request priorities plus a random mid-decode
preempt/resume schedule (the CI preempt leg).  All preemption draws
come from a *separate* rng stream keyed off the scenario seed, so the
preempt legs replay byte-identical traces (prompts, arrivals, cancels)
to the other legs — every evicted-and-resumed sequence must still match
its sequential reference token-for-token, and drained traces must show
zero suspended sequences and zero leaked pages, reservations, or pins.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.nn import (
    BatchedEngine,
    GenerationRequest,
    InductionCopyBias,
    TransformerConfig,
    TransformerLM,
)
from repro.nn.transformer import _sample_top_k

MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20240311"))
N_SCENARIOS = int(os.environ.get("REPRO_FUZZ_SCENARIOS", "60"))
PREFIX_MODE = os.environ.get("REPRO_FUZZ_PREFIX", "auto")  # auto | on | off
PREEMPT_MODE = os.environ.get("REPRO_FUZZ_PREEMPT", "auto")  # auto | on | off
PAGE_SIZES = (1, 3, 16, 64)

VOCAB = 131
EOS_ID = 2


@pytest.fixture(scope="module")
def model():
    config = TransformerConfig(
        vocab_size=VOCAB, d_model=32, n_layers=2, n_heads=4, max_seq_len=64
    )
    return TransformerLM(config, np.random.default_rng(1729))


@pytest.fixture(scope="module")
def corpus():
    """Scenarios run and drafted tokens kept, summed over this run."""
    return {"scenarios": 0, "accepted": 0}


@dataclass
class _FuzzRequest:
    """One fuzzed request plus its trace-level scheduling decisions."""

    prompt: list[int]
    max_new_tokens: int
    eos_id: int | None
    top_k: int | None
    sample_seed: int | None
    arrival_step: int
    cancel_step: int | None = None
    priority: int = 0
    #: Copy assist: InductionCopyBias strength, with a static bias on
    #: the prompt's first token (None = plain decode).
    copy_strength: float | None = None


@dataclass
class _Scenario:
    seed: int
    max_batch: int
    prefill_chunk_tokens: int
    prefill_concurrency: int
    kv_page_tokens: int
    kv_pool_pages: int | None = None
    kv_prefix_cache: bool = False
    preemption: bool = False
    preempt_seed: int = 0
    requests: list[_FuzzRequest] = field(default_factory=list)


def _draw_scenario(seed: int, context: int) -> _Scenario:
    rng = np.random.default_rng(seed)
    # Priority/preemption draws come from a SEPARATE rng stream keyed
    # off the scenario seed: the main stream below is untouched, so the
    # preempt legs (REPRO_FUZZ_PREEMPT=on/off) replay the exact traces
    # of the other legs — preemption is the only variable.
    preempt_rng = np.random.default_rng((seed, 0x70EE))
    preempt_coin = preempt_rng.random() < 0.5
    preempt_seed = int(preempt_rng.integers(0, 2**31))
    # Motif draws: a third stream, so the traces stay those of the other
    # draws.
    motif_rng = np.random.default_rng((seed, 0x5BEC))
    preempt = preempt_coin if PREEMPT_MODE == "auto" else PREEMPT_MODE == "on"
    # KV layout draw.  Every layout-related draw is consumed
    # unconditionally, in a fixed order, BEFORE the mode override is
    # applied: the rng stream position at the trace draws below is then
    # identical across REPRO_FUZZ_PREFIX=auto/on/off, so the forced legs
    # replay the auto leg's exact traces (prompts, arrivals, cancels) —
    # a true differential corpus, and existing seeds keep their traces.
    paged_coin = rng.random() < 0.5
    page_tokens = int(rng.choice(PAGE_SIZES))
    undersized_coin = rng.random() < 0.35
    prefix_coin = rng.random() < 0.5
    # Undersized pool: admission must defer on page exhaustion and
    # recycle pages from retirements/cancels — without token drift.
    pages_per_seq = -(-context // page_tokens)
    pool_pages = pages_per_seq + int(rng.integers(0, 2 * pages_per_seq))
    prefix = prefix_coin if PREFIX_MODE == "auto" else PREFIX_MODE == "on"
    if not paged_coin:
        # The coin's other face was once dense per-slot slabs; one
        # full-context page per sequence is the same layout.
        page_tokens = context
        pool_pages = None
    elif not undersized_coin:
        pool_pages = None
    # Shared-prefix request families: templates are drawn unconditionally
    # (fixed draw order across PREFIX/PREEMPT overrides) and a slice of
    # the requests below extends one of them at a random cut point.
    templates = [
        [int(t) for t in rng.integers(5, VOCAB, size=int(rng.integers(4, context // 2 + 1)))]
        for _ in range(2)
    ]
    scenario = _Scenario(
        seed=seed,
        max_batch=int(rng.integers(1, 7)),
        # The coin's other face was once unchunked prefill; one chunk
        # spanning the context prefills every prompt whole.
        prefill_chunk_tokens=(
            context if rng.random() < 0.25 else int(rng.integers(1, 9))
        ),
        prefill_concurrency=int(rng.integers(1, 5)),
        kv_page_tokens=page_tokens,
        kv_pool_pages=pool_pages,
        kv_prefix_cache=prefix,
        preemption=preempt,
        preempt_seed=preempt_seed,
    )
    # The retired unified-step coin: still drawn, so every seed replays
    # its recorded trace.
    rng.random()
    for i in range(int(rng.integers(1, 11))):
        # Drawn unconditionally (stream alignment across modes), applied
        # only on the preempt legs.
        drawn_priority = int(preempt_rng.integers(0, 4))
        family_coin = rng.random() < 0.45
        template = templates[int(rng.integers(0, len(templates)))]
        cut = int(rng.integers(1, len(template) + 1))
        if rng.random() < 0.06:
            # Prompt at or past the context window: zero token budget.
            n_prompt = context + int(rng.integers(0, 4))
            family_coin = False
        else:
            n_prompt = int(rng.integers(1, context - 4))
        prompt = [int(t) for t in rng.integers(5, VOCAB, size=n_prompt)]
        if family_coin:
            # Extend the family template at the cut point; keep the
            # request's own drawn length so budgets stay varied.
            prompt = (template[:cut] + prompt)[:n_prompt] or prompt
        motif_coin = motif_rng.random() < 0.3
        motif = int(motif_rng.integers(1, 5))
        copy_coin = motif_rng.random() < 0.5
        copy_strength = None
        if motif_coin:
            # Repeat the prompt's first tokens: the drafter's lookups
            # then find a continuation for every suffix of the prompt.
            unit = prompt[:motif]
            if copy_coin:
                # The copied output reaches EOS a motif length in.
                unit = unit + [EOS_ID]
                copy_strength = 100.0
            prompt = (unit * len(prompt))[: len(prompt)]
        top_k = int(rng.integers(1, 6)) if rng.random() < 0.35 else None
        scenario.requests.append(
            _FuzzRequest(
                prompt=prompt,
                max_new_tokens=int(rng.integers(1, 14)),
                eos_id=EOS_ID if rng.random() < 0.7 else None,
                top_k=top_k,
                sample_seed=int(rng.integers(0, 2**31)) if top_k else None,
                arrival_step=int(rng.integers(0, 9)),
                cancel_step=(
                    int(rng.integers(1, 25)) if rng.random() < 0.2 else None
                ),
                priority=drawn_priority if preempt else 0,
                copy_strength=copy_strength,
            )
        )
    return scenario


def _copy_assist(req: _FuzzRequest):
    """The request's ``(logit_bias, copy_bias)``: CoachLM-style copy
    assist, or ``(None, None)`` for plain decode."""
    if req.copy_strength is None:
        return None, None
    bias = np.zeros(VOCAB, dtype=np.float32)
    bias[req.prompt[0]] = 8.0
    return bias, InductionCopyBias(req.prompt, req.copy_strength)


def _sequential_reference(model: TransformerLM, req: _FuzzRequest) -> list[int]:
    rng = (
        np.random.default_rng(req.sample_seed)
        if req.sample_seed is not None
        else None
    )
    logit_bias, copy_bias = _copy_assist(req)
    if copy_bias is None:
        return model.generate(
            req.prompt,
            req.max_new_tokens,
            eos_id=req.eos_id,
            top_k=req.top_k,
            rng=rng,
        )
    # TransformerLM.generate's cached decode with the copy bias applied
    # before each selection, as CoachLM's sequential copy assist does.
    budget = min(req.max_new_tokens, model.config.max_seq_len - len(req.prompt))
    if budget <= 0:
        return []
    caches = [{"k": None, "v": None} for _ in model.blocks]
    logits = model._forward_numpy(np.asarray([req.prompt]), caches)[:, -1, :]
    produced: list[int] = []
    for _ in range(budget):
        step = logits[0] + logit_bias
        copy_bias(produced, step)
        if req.top_k is not None:
            token = _sample_top_k(step, req.top_k, rng)
        else:
            token = int(step.argmax())
        produced.append(token)
        if token == req.eos_id:
            break
        logits = model._forward_numpy(
            np.asarray([[token]]), caches,
            position_offset=len(req.prompt) + len(produced) - 1,
        )[:, -1, :]
    return produced


def _run_engine_trace(
    model: TransformerLM, scenario: _Scenario, corpus: dict
) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Drive the streaming API along the scenario's arrival/cancel trace.

    Returns ``(results by request index, seq_id by request index)`` —
    cancellations key off the engine-assigned sequence ids — and adds
    the drained engine's kept draft tokens to ``corpus``.
    """
    engine = BatchedEngine(
        model,
        max_batch=scenario.max_batch,
        prefill_chunk_tokens=scenario.prefill_chunk_tokens,
        prefill_concurrency=scenario.prefill_concurrency,
        kv_page_tokens=scenario.kv_page_tokens,
        kv_pool_pages=scenario.kv_pool_pages,
        kv_prefix_cache=scenario.kv_prefix_cache,
    )
    preempt_rng = (
        np.random.default_rng(scenario.preempt_seed)
        if scenario.preemption
        else None
    )
    seq_ids: dict[int, int] = {}
    results: dict[int, list[int]] = {}
    step = 0
    guard = 0
    while len(results) < len(scenario.requests):
        for i, req in enumerate(scenario.requests):
            if i not in seq_ids and req.arrival_step <= step:
                rng = (
                    np.random.default_rng(req.sample_seed)
                    if req.sample_seed is not None
                    else None
                )
                logit_bias, copy_bias = _copy_assist(req)
                seq_ids[i] = engine.submit(
                    GenerationRequest(
                        req.prompt,
                        req.max_new_tokens,
                        eos_id=req.eos_id,
                        top_k=req.top_k,
                        rng=rng,
                        priority=req.priority,
                        logit_bias=logit_bias,
                        copy_bias=copy_bias,
                    )
                )
            if (
                i in seq_ids
                and req.cancel_step is not None
                and req.arrival_step + req.cancel_step <= step
            ):
                engine.cancel(seq_ids[i])
                req.cancel_step = None  # at most one cancel per request
        if preempt_rng is not None and preempt_rng.random() < 0.15:
            # Evict one live sequence mid-decode; preempt() is a no-op
            # (False) unless the victim is actively decoding, so this
            # also fuzzes preempt-on-pending/prefilling/finished.
            live = [i for i in seq_ids if i not in results]
            if live:
                victim = live[int(preempt_rng.integers(0, len(live)))]
                engine.preempt(seq_ids[victim])
        engine.step()
        for seq_id, tokens in engine.collect().items():
            index = next(i for i, s in seq_ids.items() if s == seq_id)
            results[index] = tokens
        step += 1
        guard += 1
        assert guard < 5000, "fuzz trace failed to terminate"
    stats = engine.kv_stats()
    corpus["scenarios"] += 1
    corpus["accepted"] += stats["draft_tokens_accepted"]
    assert stats["n_preempted"] == 0, stats    # no sequence left suspended
    # Every page and every reservation must come back once the trace
    # drains — leaks here would strangle a long-lived server.
    assert stats["pages_in_use"] == 0, stats
    assert stats["reserved_pages"] == 0, stats
    if stats.get("prefix_cache") is not None:
        # No shared page may stay pinned after its borrowers retired,
        # and clearing the index must return every allocated page to
        # the free list — zero leaked refcounts, pages, or pins.
        assert stats["prefix_cache"]["shared_pinned_pages"] == 0, stats
        engine.clear_prefix_cache()
        cleared = engine.kv_stats()
        assert cleared["prefix_cache"]["cached_pages"] == 0, cleared
        assert (
            cleared["free_list_pages"] == cleared["allocated_pages"]
        ), cleared
    return results, seq_ids


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_fuzz_streaming_engine_matches_sequential(model, corpus, index):
    seed = MASTER_SEED + index
    scenario = _draw_scenario(seed, model.config.max_seq_len)
    cancelled = {
        i for i, req in enumerate(scenario.requests)
        if req.cancel_step is not None
    }
    results, _ = _run_engine_trace(model, scenario, corpus)
    repro_hint = (
        f"reproduce with: REPRO_FUZZ_SEED={seed} REPRO_FUZZ_SCENARIOS=1 "
        f"python -m pytest tests/test_fuzz_parity.py"
    )
    assert len(results) == len(scenario.requests), repro_hint
    for i, req in enumerate(scenario.requests):
        expected = _sequential_reference(model, req)
        got = results[i]
        if i in cancelled:
            # A cancelled request may stop anywhere, but every token it
            # did produce must match the sequential decode exactly.
            assert got == expected[: len(got)], (
                f"fuzz seed {seed}: cancelled request {i} diverged from "
                f"the sequential prefix\nengine:     {got}\n"
                f"sequential: {expected}\nscenario: {scenario}\n{repro_hint}"
            )
        else:
            assert got == expected, (
                f"fuzz seed {seed}: request {i} diverged\n"
                f"engine:     {got}\nsequential: {expected}\n"
                f"scenario: {scenario}\n{repro_hint}"
            )


def test_fuzz_corpus_accepts_drafts(corpus):
    """The corpus exercises draft acceptance, not only rejection.

    Runs after the scenarios above.  A one-seed reproduction run is too
    small to require it, so fewer than ten scenarios skip the check.
    """
    if corpus["scenarios"] < 10:
        pytest.skip(f"only {corpus['scenarios']} fuzz scenarios ran")
    assert corpus["accepted"] > 0, corpus
