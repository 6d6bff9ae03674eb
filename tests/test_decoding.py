"""Parity and behaviour tests for the batched decoding engine.

The engine's contract is token-for-token greedy parity with the
sequential paths (:meth:`TransformerLM.generate` and CoachLM's
copy-assisted decode) on ragged prompt batches, EOS at different steps,
per-sequence logit biases, and prompt-too-long edge cases.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.config import DEFAULT_PREFILL_CHUNK_TOKENS
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.errors import GenerationError
from repro.llm import TextEngine, build_tokenizer, generate_response, generate_responses
from repro.nn import (
    BatchedEngine,
    GenerationRequest,
    InductionCopyBias,
    PagedKVCaches,
    TransformerConfig,
    TransformerLM,
)


@pytest.fixture(scope="module")
def model():
    config = TransformerConfig(
        vocab_size=197, d_model=32, n_layers=2, n_heads=4, max_seq_len=80
    )
    return TransformerLM(config, np.random.default_rng(42))


@pytest.fixture(scope="module")
def ragged_prompts():
    rng = np.random.default_rng(7)
    return [
        list(rng.integers(5, 197, size=int(rng.integers(2, 40))))
        for _ in range(11)
    ]


def _sequential(model, prompts, max_new_tokens, eos_id, biases=None):
    biases = biases or [None] * len(prompts)
    return [
        model.generate(p, max_new_tokens, eos_id=eos_id, logit_bias=b)
        for p, b in zip(prompts, biases)
    ]


# -- plain greedy parity -----------------------------------------------------------


@pytest.mark.parametrize("max_batch", [1, 3, 8, 32])
def test_engine_matches_sequential_on_ragged_batch(model, ragged_prompts, max_batch):
    expected = _sequential(model, ragged_prompts, 20, eos_id=2)
    engine = BatchedEngine(model, max_batch=max_batch)
    got = engine.generate(
        [GenerationRequest(p, 20, eos_id=2) for p in ragged_prompts]
    )
    assert got == expected


def test_engine_eos_at_different_steps(model, ragged_prompts):
    # Pick the most frequent generated token as the EOS id so sequences
    # terminate at genuinely different depths (including step 0).
    free_run = _sequential(model, ragged_prompts, 20, eos_id=None)
    eos, _ = Counter(t for seq in free_run for t in seq).most_common(1)[0]
    expected = _sequential(model, ragged_prompts, 20, eos_id=eos)
    lengths = {len(seq) for seq in expected}
    assert len(lengths) > 1, "EOS should fire at different steps"
    got = BatchedEngine(model, max_batch=4).generate(
        [GenerationRequest(p, 20, eos_id=eos) for p in ragged_prompts]
    )
    assert got == expected


def test_engine_per_sequence_logit_bias(model, ragged_prompts):
    rng = np.random.default_rng(13)
    biases = [
        None if i % 3 == 0 else rng.normal(scale=2.0, size=197).astype(np.float32)
        for i in range(len(ragged_prompts))
    ]
    expected = _sequential(model, ragged_prompts, 12, eos_id=2, biases=biases)
    got = BatchedEngine(model, max_batch=5).generate(
        [
            GenerationRequest(p, 12, eos_id=2, logit_bias=b)
            for p, b in zip(ragged_prompts, biases)
        ]
    )
    assert got == expected


def test_engine_prompt_too_long_and_tiny_budget(model):
    rng = np.random.default_rng(3)
    context = model.config.max_seq_len
    prompts = [
        list(rng.integers(5, 197, size=context + 4)),   # budget < 0
        list(rng.integers(5, 197, size=context)),       # budget = 0
        list(rng.integers(5, 197, size=context - 1)),   # budget = 1
        list(rng.integers(5, 197, size=6)),             # normal
    ]
    expected = _sequential(model, prompts, 16, eos_id=2)
    assert expected[0] == [] and expected[1] == [] and len(expected[2]) == 1
    got = BatchedEngine(model, max_batch=2).generate(
        [GenerationRequest(p, 16, eos_id=2) for p in prompts]
    )
    assert got == expected


def test_engine_rejects_bad_requests(model):
    engine = BatchedEngine(model, max_batch=4)
    with pytest.raises(GenerationError):
        engine.generate([GenerationRequest([], 8)])
    with pytest.raises(GenerationError):
        engine.generate(
            [GenerationRequest([5, 6], 8, logit_bias=np.zeros(3, np.float32))]
        )
    with pytest.raises(GenerationError):
        BatchedEngine(model, max_batch=0)


def test_engine_failed_generate_leaves_no_residue(model):
    """A generate() rejected mid-list must not strand earlier requests."""
    engine = BatchedEngine(model, max_batch=2)
    good = GenerationRequest([5, 6, 7], 6, eos_id=2)
    with pytest.raises(GenerationError):
        engine.generate([good, GenerationRequest([], 6)])
    assert engine.n_pending == 0 and not engine.has_work
    assert engine.generate([good]) == [model.generate([5, 6, 7], 6, eos_id=2)]


@pytest.mark.parametrize("bad_id", [-1, 197])
def test_engine_rejects_out_of_vocab_ids_at_intake(model, bad_id):
    """Ids outside [0, vocab) fail typed at submit, never mid-step: a
    negative id must not wrap and id == vocab must not raise IndexError
    after admission, stranding the batchmates admitted with it."""
    engine = BatchedEngine(model, max_batch=2)
    mate = engine.submit(GenerationRequest([1, 3], 8, eos_id=2))
    with pytest.raises(GenerationError, match="token ids"):
        engine.submit(GenerationRequest([bad_id, 3, 4], 8, eos_id=2))
    assert engine.n_pending == 1
    done = {}
    while engine.has_work:
        engine.step()
        done.update(engine.collect())
    assert done == {mate: model.generate([1, 3], 8, eos_id=2)}
    assert engine.kv_stats()["reserved_pages"] == 0
    with pytest.raises(GenerationError, match="token ids"):
        engine.generate([GenerationRequest([5, 6], 4), GenerationRequest([bad_id], 4)])
    assert not engine.has_work
    with pytest.raises(GenerationError, match="token ids"):
        model.generate([bad_id, 3, 4], 4)


def test_engine_accepts_both_ends_of_vocab(model):
    prompt = [0, 5, 196]
    got = BatchedEngine(model, max_batch=2).generate([GenerationRequest(prompt, 6)])
    assert got == [model.generate(prompt, 6)]


def test_engine_more_requests_than_slots_preserves_order(model):
    rng = np.random.default_rng(5)
    prompts = [list(rng.integers(5, 197, size=3 + i)) for i in range(17)]
    expected = _sequential(model, prompts, 9, eos_id=2)
    got = BatchedEngine(model, max_batch=4).generate(
        [GenerationRequest(p, 9, eos_id=2) for p in prompts]
    )
    assert got == expected


# -- induction bias index ----------------------------------------------------------


def _induction_followers(prompt, produced):
    """Reference scan: ``(token, strength)`` candidates by suffix match
    against the prompt — a bigram match earns full strength, a unigram
    match half, and a token matched both ways keeps the larger."""
    followers: dict[int, float] = {}
    last = produced[-1]
    second = produced[-2] if len(produced) >= 2 else None
    for i in range(len(prompt) - 1):
        if prompt[i] != last:
            continue
        strength = 0.5
        if second is not None and i > 0 and prompt[i - 1] == second:
            strength = 1.0
        follower = prompt[i + 1]
        followers[follower] = max(followers.get(follower, 0.0), strength)
    return list(followers.items())


def test_induction_copy_bias_matches_reference_scan():
    rng = np.random.default_rng(23)
    for _ in range(30):
        prompt = list(rng.integers(0, 12, size=int(rng.integers(2, 40))))
        produced = list(rng.integers(0, 12, size=int(rng.integers(1, 6))))
        blocked = frozenset(int(t) for t in rng.integers(0, 12, size=3))
        strength = 3.0
        fast = np.zeros(12, dtype=np.float32)
        InductionCopyBias(prompt, strength, blocked)(produced, fast)
        slow = np.zeros(12, dtype=np.float32)
        for follower, s in _induction_followers(prompt, produced):
            if follower not in blocked:
                slow[follower] += strength * s
        assert np.array_equal(fast, slow), (prompt, produced, blocked)


def test_induction_copy_bias_noop_before_first_token():
    row = np.zeros(8, dtype=np.float32)
    InductionCopyBias([1, 2, 3], 2.0)([], row)
    assert not row.any()


# -- CoachLM through the engine ----------------------------------------------------


@pytest.fixture(scope="module")
def coach():
    tokenizer = build_tokenizer()
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=32,
        n_layers=1,
        n_heads=4,
        max_seq_len=192,
    )
    model = TransformerLM(config, np.random.default_rng(9))
    return CoachLM(model, tokenizer)


def test_copy_assist_engine_parity(coach):
    dataset = generate_dataset(np.random.default_rng(31), 10)
    prompts, requests, expected = [], [], []
    for pair in dataset:
        prompt, outcome = coach._pre_generate(pair)
        if prompt is None:
            continue
        prompts.append(prompt)
        requests.append(coach._revision_request(prompt, pair))
        expected.append(coach._generate_with_copy_assist(prompt, pair))
    assert requests, "fixture produced no eligible pairs"
    got = BatchedEngine(coach.model, max_batch=4).generate(requests)
    assert got == expected


def test_revise_dataset_matches_pairwise_revision(coach):
    dataset = generate_dataset(np.random.default_rng(77), 12)
    expected = [coach.revise_pair(pair) for pair in dataset]
    revised, stats = coach.revise_dataset(dataset, batch_size=5)
    assert len(revised) == len(dataset)
    for (exp_pair, exp_outcome), got_pair in zip(expected, revised):
        assert got_pair.instruction == exp_pair.instruction
        assert got_pair.response == exp_pair.response
    counted = Counter(outcome.value for _, outcome in expected)
    assert stats.outcomes == dict(counted)


def test_blocked_ids_computed_once(tokenizer, monkeypatch):
    calls = Counter()
    original = CoachLM._blocked_ids

    def counting(tok):
        calls["n"] += 1
        return original(tok)

    monkeypatch.setattr(CoachLM, "_blocked_ids", staticmethod(counting))
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
        max_seq_len=160,
    )
    coach = CoachLM(TransformerLM(config, np.random.default_rng(0)), tokenizer)
    dataset = generate_dataset(np.random.default_rng(2), 3)
    for pair in dataset:
        coach._copy_bias_vector(pair)
        prompt, _ = coach._pre_generate(pair)
        if prompt is not None:
            coach._revision_request(prompt, pair)
    assert calls["n"] == 1


# -- text-level facade -------------------------------------------------------------


def test_generate_responses_matches_sequential(tokenizer):
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
        max_seq_len=96,
    )
    model = TransformerLM(config, np.random.default_rng(4))
    dataset = generate_dataset(np.random.default_rng(8), 9)
    instructions = [pair.instruction for pair in dataset]
    expected = [
        generate_response(model, tokenizer, text, max_new_tokens=16)
        for text in instructions
    ]
    batched = generate_responses(
        model, tokenizer, instructions, max_new_tokens=16, batch_size=4
    )
    assert [pair.response for pair in batched] == expected
    assert [pair.instruction for pair in batched] == instructions

    engine = TextEngine(model, tokenizer, batch_size=3)
    assert engine.respond(instructions, max_new_tokens=16) == expected


def test_text_engine_streaming_matches_batch(tokenizer):
    """respond_iter yields every response (completion order) with the
    same text the batch path produces for the same instruction."""
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
        max_seq_len=96,
    )
    model = TransformerLM(config, np.random.default_rng(4))
    dataset = generate_dataset(np.random.default_rng(8), 7)
    instructions = [pair.instruction for pair in dataset]
    engine = TextEngine(model, tokenizer, batch_size=3)
    expected = engine.respond(instructions, max_new_tokens=12)
    streamed = dict(engine.respond_iter(instructions, max_new_tokens=12))
    assert [streamed[i] for i in range(len(instructions))] == expected


# -- streaming engine API ----------------------------------------------------------


def test_engine_free_capacity_counts_mid_prefill(model, ragged_prompts):
    """A parked chunked prefill occupies capacity until it joins or fails."""
    engine = BatchedEngine(model, max_batch=2, prefill_chunk_tokens=2)
    engine.submit(GenerationRequest(ragged_prompts[0][:2], 30, eos_id=None))
    engine.step()  # admitted (idle fleet → batched prefill) and decoding
    assert engine.n_active == 1 and engine.free_capacity == 1
    long = max(ragged_prompts, key=len)
    engine.submit(GenerationRequest(long, 10, eos_id=2))
    engine.step()  # one chunk of the long prompt while slot 0 decodes
    assert engine.n_prefilling == 1
    assert engine.free_capacity == 0
    while engine.has_work:
        engine.step()
    assert engine.n_prefilling == 0 and engine.free_capacity == 2


def test_engine_submit_step_collect_matches_generate(model, ragged_prompts):
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(model, max_batch=4)
    # Submit the first half up front, the rest only after decoding starts —
    # late submissions must produce identical tokens.
    ids = [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[:5]
    ]
    for _ in range(3):
        engine.step()
    ids += [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[5:]
    ]
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected
    assert engine.n_active == 0 and engine.n_pending == 0


# -- packed prefill ----------------------------------------------------------------


def test_packed_prefill_first_tokens_bitwise_identical(model, ragged_prompts):
    """One packed prefill forward must pick the exact first tokens of the
    per-request path across uneven prompt lengths (including length 1 and
    the batch's longest, pad-free row)."""
    prompts = ragged_prompts + [[9], list(range(5, 55))]
    # max_new_tokens=1 isolates the prefill phase: every sequence finishes
    # on its first token, so no decode step ever runs.
    expected = _sequential(model, prompts, 1, eos_id=None)
    assert all(len(seq) == 1 for seq in expected)
    got = BatchedEngine(model, max_batch=len(prompts)).generate(
        [GenerationRequest(p, 1, eos_id=None) for p in prompts]
    )
    assert got == expected


def test_packed_prefill_last_token_logits_match_per_request(model, ragged_prompts):
    """The packed prefill forward's last-token logits agree with a lone
    float64 prefill to within float32 and BLAS kernel-selection noise,
    and agree exactly on argmax."""
    prompts = ragged_prompts + [[9]]
    engine = BatchedEngine(model, max_batch=len(prompts))
    for p in prompts:
        engine.submit(GenerationRequest(p, 4, eos_id=2))
    engine._ensure_state()
    plan = engine._admit()
    assert [end for _, end in plan] == [len(p) for p in prompts]
    logits = engine._unified_forward(plan, None)
    assert logits.dtype == np.float32
    for row, prompt in enumerate(prompts):
        caches = [{"k": None, "v": None} for _ in model.blocks]
        ref = model._forward_numpy(
            np.asarray([prompt], dtype=np.int64), caches
        )[0, -1, :]
        assert int(logits[row].argmax()) == int(ref.argmax())
        np.testing.assert_allclose(logits[row], ref, atol=1e-4, rtol=1e-5)


def test_packed_prefill_then_decode_matches_sequential(model):
    """Uneven prompts admitted in one wave decode to full parity."""
    rng = np.random.default_rng(17)
    prompts = [
        list(rng.integers(5, 197, size=n)) for n in (1, 2, 7, 19, 40, 40, 3)
    ]
    expected = _sequential(model, prompts, 18, eos_id=2)
    got = BatchedEngine(model, max_batch=len(prompts)).generate(
        [GenerationRequest(p, 18, eos_id=2) for p in prompts]
    )
    assert got == expected


# -- chunked prefill ---------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_chunked_prefill_matches_unchunked(model, ragged_prompts, chunk):
    """Late-arriving prompts prefilled chunk-by-chunk produce the same
    tokens as whole-prompt prefill and as the sequential path."""
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(model, max_batch=4, prefill_chunk_tokens=chunk)
    # First wave keeps the fleet decoding; the rest arrive late so their
    # admission takes the chunked path.
    ids = [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[:4]
    ]
    for _ in range(2):
        engine.step()
    ids += [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[4:]
    ]
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected
    assert engine.n_prefilling == 0


def test_chunked_generate_matches_unchunked(model, ragged_prompts):
    """Run-to-completion with 2-token chunks (refills go chunk-by-chunk)
    matches whole-prompt prefill (one chunk spanning the context)."""
    requests = [GenerationRequest(p, 16, eos_id=2) for p in ragged_prompts]
    expected = BatchedEngine(
        model, max_batch=3, prefill_chunk_tokens=model.config.max_seq_len
    ).generate(requests)
    got = BatchedEngine(model, max_batch=3, prefill_chunk_tokens=2).generate(
        [GenerationRequest(p, 16, eos_id=2) for p in ragged_prompts]
    )
    assert got == expected
    assert expected == _sequential(model, ragged_prompts, 16, eos_id=2)


def test_default_engine_runs_the_serving_schedule():
    """A default engine runs the one schedule: with a fleet decoding,
    every late arrival prefills concurrently in 64-token chunks and
    takes its first token at step ``ceil(len / 64)``; a slot freed by a
    retirement refills at the next step's admission."""
    config = TransformerConfig(
        vocab_size=197, d_model=32, n_layers=1, n_heads=4, max_seq_len=256
    )
    model = TransformerLM(config, np.random.default_rng(5))
    rng = np.random.default_rng(23)
    chunk = DEFAULT_PREFILL_CHUNK_TOKENS

    def prompt(n):
        return [int(t) for t in rng.integers(5, 197, size=n)]

    engine = BatchedEngine(model, max_batch=4)
    assert (engine.prefill_chunk_tokens, engine.prefill_concurrency) == (
        chunk, 4
    )
    assert not engine.kv_prefix_cache
    requests = [GenerationRequest(prompt(5), 60, eos_id=None)]
    ids = [engine.submit(requests[0])]
    engine.step()  # idle fleet: the whole prompt, then decoding
    late = {}
    for n in (chunk, chunk + 1, 2 * chunk + 1):
        requests.append(GenerationRequest(prompt(n), 24, eos_id=None))
        late[n] = engine.submit(requests[-1])
    ids += list(late.values())
    for k in (1, 2, 3):
        engine.step()
        assert engine.n_pending == 0
        for n, seq_id in late.items():
            assert bool(engine.produced_so_far(seq_id)) == (k >= -(-n // chunk))
    # The fleet is full: an extra arrival waits for a retirement.
    requests.append(GenerationRequest(prompt(6), 4, eos_id=None))
    extra = engine.submit(requests[-1])
    ids.append(extra)
    while engine.step() == 0:
        assert engine.n_pending == 1
    assert engine.n_pending == 1 and engine.produced_so_far(extra) is None
    engine.step()
    assert engine.n_pending == 0 and engine.produced_so_far(extra)
    while engine.has_work:
        engine.step()
    results = engine.collect()
    assert [results[i] for i in ids] == [
        model.generate(r.prompt_ids, r.max_new_tokens, eos_id=None)
        for r in requests
    ]


def test_engine_rejects_bad_prefill_chunk(model):
    # There is no unchunked schedule: None is not a chunk size.
    for bad in (0, None):
        with pytest.raises(GenerationError):
            BatchedEngine(model, max_batch=2, prefill_chunk_tokens=bad)


# -- in-engine top-k sampling ------------------------------------------------------


def test_engine_top_k_matches_sequential_under_same_seed(model, ragged_prompts):
    """Seeded top-k through the engine reproduces TransformerLM.generate
    draw-for-draw: each request consumes only its own rng stream."""
    expected = [
        model.generate(p, 12, eos_id=2, top_k=4, rng=np.random.default_rng(100 + i))
        for i, p in enumerate(ragged_prompts)
    ]
    got = BatchedEngine(model, max_batch=5).generate(
        [
            GenerationRequest(
                p, 12, eos_id=2, top_k=4, rng=np.random.default_rng(100 + i)
            )
            for i, p in enumerate(ragged_prompts)
        ]
    )
    assert got == expected


def test_engine_mixed_greedy_and_top_k_batch(model, ragged_prompts):
    """Greedy and sampled requests share one fleet without interference,
    whatever the batch composition."""
    def rng_for(i):
        return np.random.default_rng(7 * i) if i % 2 else None

    expected = [
        model.generate(
            p, 10, eos_id=2,
            top_k=3 if i % 2 else None, rng=rng_for(i),
        )
        for i, p in enumerate(ragged_prompts)
    ]
    for max_batch in (2, 6):
        got = BatchedEngine(model, max_batch=max_batch).generate(
            [
                GenerationRequest(
                    p, 10, eos_id=2,
                    top_k=3 if i % 2 else None, rng=rng_for(i),
                )
                for i, p in enumerate(ragged_prompts)
            ]
        )
        assert got == expected


def test_engine_top_k_with_varied_k_values(model, ragged_prompts):
    """Rows with different k are grouped, partitioned and drawn correctly."""
    ks = [1, 2, 3, 8, 500]  # 500 > vocab exercises the clamp
    prompts = ragged_prompts[: len(ks)]
    expected = [
        model.generate(p, 8, eos_id=2, top_k=k, rng=np.random.default_rng(50 + i))
        for i, (p, k) in enumerate(zip(prompts, ks))
    ]
    got = BatchedEngine(model, max_batch=len(ks)).generate(
        [
            GenerationRequest(
                p, 8, eos_id=2, top_k=k, rng=np.random.default_rng(50 + i)
            )
            for i, (p, k) in enumerate(zip(prompts, ks))
        ]
    )
    assert got == expected


def test_engine_rejects_top_k_without_rng(model):
    engine = BatchedEngine(model, max_batch=2)
    with pytest.raises(GenerationError):
        engine.generate([GenerationRequest([5, 6], 4, top_k=3)])
    with pytest.raises(GenerationError):
        engine.generate(
            [GenerationRequest([5, 6], 4, top_k=0, rng=np.random.default_rng(0))]
        )


def test_text_engine_top_k_routes_through_engine(tokenizer):
    """TextEngine.respond(top_k=...) is reproducible given one seed and
    matches a second engine run with the same seed."""
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
        max_seq_len=96,
    )
    model = TransformerLM(config, np.random.default_rng(4))
    dataset = generate_dataset(np.random.default_rng(8), 6)
    instructions = [pair.instruction for pair in dataset]
    first = TextEngine(model, tokenizer, batch_size=3).respond(
        instructions, max_new_tokens=12, top_k=4, seed=123
    )
    second = TextEngine(model, tokenizer, batch_size=2).respond(
        instructions, max_new_tokens=12, top_k=4, seed=123
    )
    assert first == second
    greedy = TextEngine(model, tokenizer, batch_size=3).respond(
        instructions, max_new_tokens=12
    )
    assert first != greedy or all(not r for r in first)


def test_chunked_prefill_advances_at_most_one_chunk_per_step(model):
    """The stall bound must hold even on steps that retire sequences:
    a retiring slot's same-step refill must not advance the parked
    prompt a second chunk."""
    chunk = 2
    engine = BatchedEngine(model, max_batch=2, prefill_chunk_tokens=chunk)
    rng = np.random.default_rng(21)
    # One long-running decode keeps the fleet busy for the whole parked
    # prefill, so every chunk advance happens with decodes in flight.
    short = list(rng.integers(5, 197, size=4))
    engine.submit(GenerationRequest(short, 45))
    engine.step()
    long_prompt = list(rng.integers(5, 197, size=40))
    engine.submit(GenerationRequest(long_prompt, 6, eos_id=2))
    parked, seen, observed = None, 0, 0
    while engine.has_work:
        active_before = engine.n_active
        engine.step()
        if engine.n_prefilling:
            state = engine._prefilling[0]
            if state is not parked:
                parked, seen = state, 0
            advanced = state.prefilled - seen
            # The stall bound holds whenever decodes were in flight; an
            # idle fleet legitimately finishes the remainder whole.
            if active_before > 0:
                assert 0 < advanced <= chunk, advanced
            seen = state.prefilled
            observed += 1
    results = engine.collect()
    assert observed >= 40 // chunk - 1, "long prompt never took the chunked path"
    assert results[1] == model.generate(long_prompt, 6, eos_id=2)
    assert results[0] == model.generate(short, 45)


def test_chunked_prefill_finishes_whole_when_fleet_idle(model):
    """Once the decode fleet empties there is nothing left to stall: a
    parked mid-prefill prompt must finish its remainder in one forward
    instead of trickling out chunk by chunk."""
    rng = np.random.default_rng(33)
    engine = BatchedEngine(model, max_batch=2, prefill_chunk_tokens=3)
    short = list(rng.integers(5, 197, size=4))
    a = engine.submit(GenerationRequest(short, 2))
    b = engine.submit(GenerationRequest(short, 2))
    engine.step()  # both admitted (idle fleet), decoding
    long_prompt = list(rng.integers(5, 197, size=40))
    c = engine.submit(GenerationRequest(long_prompt, 5, eos_id=2))
    steps = 0
    while engine.has_work:
        engine.step()
        steps += 1
        assert steps < 60
    # The shorts retire after one more decode step; the parked prompt had
    # advanced by at most a couple of 3-token chunks by then, and the
    # idle-fleet fast path must finish the rest in a single step — far
    # fewer rounds than the ~14 a pure chunk-by-chunk trickle needs.
    assert steps <= 12, steps
    results = engine.collect()
    assert results[c] == model.generate(long_prompt, 5, eos_id=2)
    assert results[a] == model.generate(short, 2)


# -- multi-slot chunked prefill ----------------------------------------------------


@pytest.mark.parametrize("concurrency", [1, 2, 8])
def test_multislot_chunked_prefill_matches_unchunked(model, ragged_prompts, concurrency):
    """Chunked == unchunked token parity must hold at any prefill
    concurrency: a burst of late arrivals prefilled concurrently produces
    exactly the sequential path's tokens."""
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(
        model, max_batch=8, prefill_chunk_tokens=3,
        prefill_concurrency=concurrency,
    )
    ids = [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[:3]
    ]
    for _ in range(2):
        engine.step()
    # The burst: everything else arrives at once.
    ids += [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[3:]
    ]
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected
    assert engine.n_prefilling == 0


def test_multislot_advances_every_parked_prompt_each_step(model):
    """With prefill_concurrency=N, N parked prompts all advance one chunk
    per step — the admission fleet, not a serialized queue."""
    rng = np.random.default_rng(19)
    chunk = 4
    engine = BatchedEngine(
        model, max_batch=8, prefill_chunk_tokens=chunk, prefill_concurrency=4
    )
    engine.submit(GenerationRequest(list(rng.integers(5, 197, size=3)), 60))
    engine.step()  # one long-running decode keeps the fleet busy
    prompts = [list(rng.integers(5, 197, size=30)) for _ in range(4)]
    ids = [engine.submit(GenerationRequest(p, 4, eos_id=2)) for p in prompts]
    engine.step()
    assert engine.n_prefilling == 4
    assert [s.prefilled for s in engine._prefilling] == [chunk] * 4
    engine.step()
    assert [s.prefilled for s in engine._prefilling] == [2 * chunk] * 4
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    for seq_id, prompt in zip(ids, prompts):
        assert results[seq_id] == model.generate(prompt, 4, eos_id=2)


def test_multislot_out_of_order_completion(model):
    """A short prompt parked *behind* a long one finishes prefill first:
    the completed row must be promoted past the still-parked partial slab
    without corrupting either sequence."""
    rng = np.random.default_rng(29)
    long_prompt = list(rng.integers(5, 197, size=40))
    short_prompt = list(rng.integers(5, 197, size=5))
    engine = BatchedEngine(
        model, max_batch=4, prefill_chunk_tokens=3, prefill_concurrency=2
    )
    engine.submit(GenerationRequest(list(rng.integers(5, 197, size=4)), 60))
    engine.step()  # busy fleet
    a = engine.submit(GenerationRequest(long_prompt, 8, eos_id=2))
    b = engine.submit(GenerationRequest(short_prompt, 8, eos_id=2))
    results: dict[int, list[int]] = {}
    saw_short_done_while_long_parked = False
    while engine.has_work:
        engine.step()
        done = engine.collect()
        if b in done and engine.n_prefilling:
            saw_short_done_while_long_parked = True
        results.update(done)
        if a in results and b in results:
            break
    assert saw_short_done_while_long_parked
    assert results[a] == model.generate(long_prompt, 8, eos_id=2)
    assert results[b] == model.generate(short_prompt, 8, eos_id=2)


def test_single_token_chunks_merge_into_decode_forward(model, ragged_prompts):
    """chunk=1 makes every parked advance decode-row-shaped: the parked
    fleet must fold into the decode forward (no separate chunk pass) and
    still reproduce sequential tokens exactly."""
    expected = _sequential(model, ragged_prompts, 10, eos_id=2)
    engine = BatchedEngine(
        model, max_batch=6, prefill_chunk_tokens=1, prefill_concurrency=3
    )
    forwards = {"n": 0}
    original = engine.model._forward_numpy

    def counting(*args, **kwargs):
        forwards["n"] += 1
        return original(*args, **kwargs)

    engine.model._forward_numpy = counting
    try:
        ids = [
            engine.submit(GenerationRequest(p, 10, eos_id=2))
            for p in ragged_prompts[:4]
        ]
        engine.step()
        ids += [
            engine.submit(GenerationRequest(p, 10, eos_id=2))
            for p in ragged_prompts[4:]
        ]
        results: dict[int, list[int]] = {}
        steps = 0
        while engine.has_work:
            before = forwards["n"]
            had_decodes = engine.n_active > 0
            had_parked = engine.n_prefilling > 0 or engine.n_pending > 0
            engine.step()
            steps += 1
            if had_decodes and had_parked:
                # Merged: one forward advanced decodes AND parked chunks.
                assert forwards["n"] - before == 1
            results.update(engine.collect())
    finally:
        engine.model._forward_numpy = original
    assert [results[i] for i in ids] == expected


def test_multislot_respects_capacity_limit(model, ragged_prompts):
    """The parked fleet never exceeds the free slot budget, whatever the
    concurrency knob says."""
    engine = BatchedEngine(
        model, max_batch=3, prefill_chunk_tokens=2, prefill_concurrency=8
    )
    engine.submit(GenerationRequest(ragged_prompts[0][:3], 40))
    engine.submit(GenerationRequest(ragged_prompts[1][:3], 40))
    engine.step()
    for p in ragged_prompts[2:8]:
        engine.submit(GenerationRequest(p, 6, eos_id=2))
    engine.step()
    assert engine.n_active == 2
    assert engine.n_prefilling <= 1  # only one slot is free
    assert engine.free_capacity <= 0
    assert engine.n_active + engine.n_prefilling <= engine.max_batch


def test_engine_rejects_bad_prefill_concurrency(model):
    with pytest.raises(GenerationError):
        BatchedEngine(model, max_batch=2, prefill_concurrency=0)


# -- cancellation ------------------------------------------------------------------


def test_cancel_pending_parked_and_active(model):
    """cancel() reclaims a sequence in every lifecycle state; survivors
    keep producing exactly the sequential tokens."""
    rng = np.random.default_rng(41)
    prompts = [list(rng.integers(5, 197, size=n)) for n in (6, 35, 30, 9, 7)]
    engine = BatchedEngine(
        model, max_batch=2, prefill_chunk_tokens=3, prefill_concurrency=2
    )
    survivor = engine.submit(GenerationRequest(prompts[0], 12))
    engine.step()
    parked = engine.submit(GenerationRequest(prompts[1], 12))
    queued = engine.submit(GenerationRequest(prompts[2], 12))
    engine.step()
    assert engine.n_prefilling == 1 and engine.n_pending == 1
    assert engine.cancel(parked) and engine.cancel(queued)
    assert engine.n_prefilling == 0 and engine.n_pending == 0
    mid = engine.submit(GenerationRequest(prompts[3], 12))
    # Step until mid is decoding with a few tokens out: a step keeps at
    # most 1 + _DRAFT_TOKENS of them, so it is still short of its 12.
    while len(engine.produced_so_far(mid) or ()) < 3:
        engine.step()
    assert engine.cancel(mid)
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    results.update(engine.collect())
    assert results[parked] == [] and results[queued] == []
    full_mid = model.generate(prompts[3], 12)
    assert results[mid] == full_mid[: len(results[mid])]
    assert results[survivor] == model.generate(prompts[0], 12)
    # Unknown / already-finished ids are a no-op.
    assert not engine.cancel(survivor)
    assert not engine.cancel(10_000)


# -- paged KV pool -----------------------------------------------------------------


@pytest.mark.parametrize("page_tokens", [1, 3, 16, 64, 80])
def test_paged_engine_matches_sequential(model, ragged_prompts, page_tokens):
    """The page size is a storage choice, never a decoding change:
    token-for-token identical to the sequential path at every page size,
    including one page per sequence (80 = max_seq_len)."""
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(model, max_batch=4, kv_page_tokens=page_tokens)
    got = engine.generate(
        [GenerationRequest(p, 14, eos_id=2) for p in ragged_prompts]
    )
    assert got == expected
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0
    assert stats["reserved_pages"] == 0


def test_paged_chunked_multislot_matches_sequential(model, ragged_prompts):
    """Small pages + multi-slot chunked admission in the packed step
    forward: the full serving configuration reproduces sequential tokens
    exactly."""
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(
        model, max_batch=4, prefill_chunk_tokens=3, prefill_concurrency=4,
        kv_page_tokens=8,
    )
    ids = [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[:4]
    ]
    engine.step()
    ids += [
        engine.submit(GenerationRequest(p, 14, eos_id=2))
        for p in ragged_prompts[4:]
    ]
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected


def test_page_exhaustion_defers_admission_until_pages_free(model):
    """A request the pool cannot cover waits in the pending queue — no
    error, no slot wasted — and is admitted when a retirement returns
    pages, decoding to exact parity."""
    context = model.config.max_seq_len
    rng = np.random.default_rng(61)
    page = 16
    pages_per_seq = -(-context // page)
    first = list(rng.integers(5, 197, size=30))
    second = list(rng.integers(5, 197, size=20))
    # Budget for exactly one worst-case sequence; both requests carry a
    # near-context token budget, so the second cannot reserve its page
    # quota until the first retires.
    engine = BatchedEngine(
        model, max_batch=4, kv_page_tokens=page, kv_pool_pages=pages_per_seq
    )
    a = engine.submit(GenerationRequest(first, context, eos_id=None))
    b = engine.submit(GenerationRequest(second, context, eos_id=None))
    engine.step()
    assert engine.n_active == 1, "only the first request fits the pool"
    assert engine.n_pending == 1
    stats = engine.kv_stats()
    assert stats["free_pages"] < engine._caches.pages_for(len(second) + context)
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert results[a] == model.generate(first, context)
    assert results[b] == model.generate(second, context)
    assert engine.kv_stats()["pages_in_use"] == 0


def test_pool_too_small_for_any_sequence_is_rejected(model):
    with pytest.raises(GenerationError):
        BatchedEngine(model, max_batch=2, kv_page_tokens=16, kv_pool_pages=1)
    with pytest.raises(GenerationError):
        BatchedEngine(model, max_batch=2, kv_page_tokens=0)
    with pytest.raises(GenerationError):
        BatchedEngine(model, max_batch=2, kv_page_tokens=None)
    with pytest.raises(GenerationError):
        # 80-token context at the default 64-token page needs 2 pages.
        BatchedEngine(model, max_batch=2, kv_pool_pages=1)


def test_cancel_recycles_pages_immediately(model):
    """Cancelling an active sequence frees its pages and reservation the
    same call, unblocking a page-starved pending request."""
    context = model.config.max_seq_len
    rng = np.random.default_rng(67)
    page = 16
    pages_per_seq = -(-context // page)
    hog = list(rng.integers(5, 197, size=10))
    waiter = list(rng.integers(5, 197, size=12))
    engine = BatchedEngine(
        model, max_batch=4, kv_page_tokens=page, kv_pool_pages=pages_per_seq
    )
    hog_id = engine.submit(GenerationRequest(hog, context, eos_id=None))
    engine.step()
    in_use_before = engine.kv_stats()["pages_in_use"]
    assert in_use_before > 0
    waiter_id = engine.submit(GenerationRequest(waiter, 4, eos_id=None))
    engine.step()
    assert engine.n_pending == 1, "pool exhausted: waiter must queue"
    assert engine.cancel(hog_id)
    assert engine.kv_stats()["pages_in_use"] == 0
    assert engine.kv_stats()["reserved_pages"] == 0
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    results.update(engine.collect())
    assert results[waiter_id] == model.generate(waiter, 4)
    full_hog = model.generate(hog, context)
    assert results[hog_id] == full_hog[: len(results[hog_id])]


def test_paged_memory_scales_with_live_tokens(model):
    """The KV-memory regression floor (also a ci.sh leg): an engine
    provisioned wide but serving staggered arrivals must hold several
    times less KV memory than per-slot full-context slabs would
    (``2 × n_layers × max_batch × max_seq_len × d_model`` float32), at
    sequential-identical tokens."""
    rng = np.random.default_rng(71)
    max_batch = 16
    prompts = [
        list(rng.integers(5, 197, size=int(rng.integers(40, 70))))
        for _ in range(12)
    ]

    def staggered(engine):
        results: dict[int, list[int]] = {}
        ids = []
        peak_resident = 0
        pending = list(prompts)
        while pending or engine.has_work:
            if pending:
                ids.append(
                    engine.submit(GenerationRequest(pending.pop(0), 6, eos_id=None))
                )
            for _ in range(4):
                engine.step()
                results.update(engine.collect())
            peak_resident = max(
                peak_resident, engine.kv_stats()["resident_kv_bytes"]
            )
        results.update(engine.collect())
        return [results[i] for i in ids], peak_resident

    cfg = model.config
    slab_bytes = 2 * cfg.n_layers * max_batch * cfg.max_seq_len * cfg.d_model * 4
    paged_tokens, paged_resident = staggered(
        BatchedEngine(model, max_batch=max_batch, kv_page_tokens=16)
    )
    assert paged_tokens == [model.generate(p, 6) for p in prompts]
    ratio = slab_bytes / paged_resident
    assert ratio >= 2.0, (
        f"paged pool holds {paged_resident} bytes vs {slab_bytes} for "
        f"full-context slabs ({ratio:.2f}x): memory no longer scales with "
        "live tokens"
    )


# -- float32 packed forward ---------------------------------------------------------


def test_engine_forwards_are_packed_float32(model, ragged_prompts):
    """Every engine model pass is the packed varlen forward: during a
    ragged, EOS-enabled generate with refill (more requests than slots),
    each ``_forward_numpy`` call passes ``pack_spans`` and returns
    float32 logits — no float64 promotion anywhere on the engine path."""
    expected = _sequential(model, ragged_prompts, 14, eos_id=2)
    engine = BatchedEngine(model, max_batch=4)
    calls: list[tuple[bool, np.dtype]] = []
    original = engine.model._forward_numpy

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((kwargs.get("pack_spans") is not None, out.dtype))
        return out

    engine.model._forward_numpy = recording
    try:
        got = engine.generate(
            [GenerationRequest(p, 14, eos_id=2) for p in ragged_prompts]
        )
    finally:
        del engine.model._forward_numpy
    assert got == expected
    assert len(calls) > len(ragged_prompts)
    assert all(packed and dtype == np.float32 for packed, dtype in calls), calls


def test_cancel_mid_parked_fleet_keeps_neighbors_intact(model):
    """Cancelling the middle of the parked block compacts the partial
    slabs; both neighbours must still decode to sequential parity."""
    rng = np.random.default_rng(43)
    prompts = [list(rng.integers(5, 197, size=30)) for _ in range(3)]
    engine = BatchedEngine(
        model, max_batch=5, prefill_chunk_tokens=4, prefill_concurrency=3
    )
    engine.submit(GenerationRequest(list(rng.integers(5, 197, size=4)), 50))
    engine.step()
    ids = [engine.submit(GenerationRequest(p, 6, eos_id=2)) for p in prompts]
    engine.step()
    assert engine.n_prefilling == 3
    assert engine.cancel(ids[1])
    assert engine.n_prefilling == 2
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert results[ids[0]] == model.generate(prompts[0], 6, eos_id=2)
    assert results[ids[2]] == model.generate(prompts[2], 6, eos_id=2)
    assert results[ids[1]] == []


# -- KV-backend compaction contract ------------------------------------------------


def _write_tokens(caches, slot: int, values: np.ndarray) -> None:
    """Write per-token K/V rows (value v at token t) into ``slot``."""
    n = len(values)
    caches.ensure(slot, n)
    cols = caches._token_cols(slot, 0, n)
    for layer in range(len(caches.k)):
        caches.k[layer][:, cols, :] = values[None, :, None]
        caches.v[layer][:, cols, :] = values[None, :, None]
    caches.lengths[slot] = n


def _read_tokens(caches, slot: int, n: int) -> np.ndarray:
    cols = caches._token_cols(slot, 0, n)
    return caches.k[0][0, cols, 0].copy()


def test_move_prefix_contract_updates_lengths(model):
    """Compaction contract: after ``move_prefix(src, dst, n)`` the dst
    holds the n-token prefix AND ``lengths[dst] == n`` — callers never
    patch lengths afterwards."""
    caches = PagedKVCaches(model, max_batch=4, page_tokens=8)
    values = np.arange(1.0, 11.0, dtype=np.float32)
    _write_tokens(caches, 1, values)
    caches.lengths[0] = 999  # stale junk the move must overwrite
    caches.move_prefix(1, 0, 10)
    assert caches.lengths[0] == 10
    assert np.array_equal(_read_tokens(caches, 0, 10), values)


def test_permute_prefixes_contract_updates_lengths(model):
    """``permute_prefixes(base, order, lengths)`` must record each moved
    row's length in the cache."""
    caches = PagedKVCaches(model, max_batch=4, page_tokens=8)
    rows = {1: np.arange(1.0, 6.0, dtype=np.float32),
            2: np.arange(10.0, 22.0, dtype=np.float32),
            3: np.arange(30.0, 33.0, dtype=np.float32)}
    for slot, values in rows.items():
        _write_tokens(caches, slot, values)
    order = [2, 0, 1]  # parked row base+2 completes first
    lengths = [len(rows[1 + i]) for i in order]
    caches.permute_prefixes(1, order, lengths)
    for j, i in enumerate(order):
        values = rows[1 + i]
        assert caches.lengths[1 + j] == len(values)
        assert np.array_equal(_read_tokens(caches, 1 + j, len(values)), values)


def test_token_cols_indexes_only_touched_pages(model):
    """_token_cols must be O(stop - start): a decode-step range on a long
    row may only touch the pages overlapping it."""
    caches = PagedKVCaches(model, max_batch=2, page_tokens=8)
    caches.ensure(0, 70)
    table = caches.tables[0]
    cols = caches._token_cols(0, 61, 63)
    expected = [table[61 // 8] * 8 + 61 % 8, table[62 // 8] * 8 + 62 % 8]
    assert cols.tolist() == expected
    # Cross-page range, and a full-prefix range, stay correct too.
    assert caches._token_cols(0, 7, 9).tolist() == [
        table[0] * 8 + 7, table[1] * 8
    ]
    naive = [table[t // 8] * 8 + t % 8 for t in range(70)]
    assert caches._token_cols(0, 0, 70).tolist() == naive
    # The column map for a suffix touches only the suffix's pages: its
    # size bounds the work done, independent of the prefix length.
    assert len(caches._token_cols(0, 64, 70)) == 6


# -- paged accounting guards -------------------------------------------------------


def test_unreserve_below_zero_raises(model):
    caches = PagedKVCaches(model, max_batch=2, page_tokens=8)
    assert caches.try_reserve(3)
    caches.unreserve(3)
    with pytest.raises(GenerationError, match="accounting bug"):
        caches.unreserve(1)


def test_double_release_raises_instead_of_corrupting(model):
    """A page released more often than referenced must raise the typed
    accounting error, not silently drive pages_in_use negative."""
    caches = PagedKVCaches(model, max_batch=2, page_tokens=8)
    caches.ensure(0, 8)
    # Simulate the accounting bug: two tables alias one page.
    caches.tables[1] = list(caches.tables[0])
    caches.release(0)
    with pytest.raises(GenerationError, match="accounting bug"):
        caches.release(1)


# -- radix prefix cache ------------------------------------------------------------


def _prefix_engine(model, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("kv_page_tokens", 8)
    return BatchedEngine(model, kv_prefix_cache=True, **kwargs)


@pytest.mark.parametrize("chunk", [None, 5])
def test_prefix_cache_hits_and_token_parity(model, chunk):
    """Template-sharing prompts must hit the radix index, skip shared
    prefill work, and still decode token-for-token sequentially."""
    rng = np.random.default_rng(11)
    template = [int(t) for t in rng.integers(5, 197, size=40)]
    prompts = [
        template + [int(t) for t in rng.integers(5, 197, size=5)]
        for _ in range(5)
    ]
    expected = [model.generate(p, 12, eos_id=2) for p in prompts]
    # chunk None: the whole prompt in one chunk.
    engine = _prefix_engine(
        model, prefill_chunk_tokens=chunk or model.config.max_seq_len,
        prefill_concurrency=4,
    )
    got = [
        engine.generate([GenerationRequest(p, 12, eos_id=2)])[0]
        for p in prompts
    ]
    assert got == expected
    pc = engine.kv_stats()["prefix_cache"]
    assert pc["hits"] >= 4
    assert pc["shared_tokens"] >= 4 * 40
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
    assert pc["shared_pinned_pages"] == 0


def test_prefix_cache_copy_on_write_boundary_page(model):
    """An unaligned shared prefix partially shares its boundary page; the
    first write past the shared tokens must CoW exactly that page and
    leave the cached original intact for later matches."""
    rng = np.random.default_rng(13)
    template = [int(t) for t in rng.integers(5, 197, size=43)]  # 5 pages + 3
    # A 5-token suffix makes each prompt exactly 6 full pages, so the
    # boundary page (template[40:43] + suffix[:5]) gets registered and a
    # later prompt can partially share it up to the divergence point.
    prompts = [
        template + [int(t) for t in rng.integers(5, 197, size=5)]
        for _ in range(4)
    ]
    expected = [model.generate(p, 10, eos_id=2) for p in prompts]
    engine = _prefix_engine(model)
    got = [
        engine.generate([GenerationRequest(p, 10, eos_id=2)])[0]
        for p in prompts
    ]
    assert got == expected
    pc = engine.kv_stats()["prefix_cache"]
    assert pc["cow_copies"] >= 1
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0


def test_prefix_cache_shared_admission_fits_small_pool(model):
    """Two template-sharing requests must fit a pool too small for two
    private copies: admission charges only the unshared suffix."""
    rng = np.random.default_rng(17)
    template = [int(t) for t in rng.integers(5, 197, size=48)]  # 6 pages
    # pages_per_seq = ceil(80 / 8) = 10; pool of 12 cannot hold two
    # private 7+ page sequences, but can hold one + a shared suffix.
    engine = _prefix_engine(model, max_batch=2, kv_pool_pages=12)
    warm = template + [7]
    engine.generate([GenerationRequest(warm, 4, eos_id=2)])
    prompts = [template + [9], template + [11]]
    expected = [model.generate(p, 4, eos_id=2) for p in prompts]
    ids = [engine.submit(GenerationRequest(p, 4, eos_id=2)) for p in prompts]
    engine.step()
    # Sharing let both enter the fleet in one step; without it the pool
    # could only cover one.
    assert engine.n_active + engine.n_prefilling == 2
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected


def test_prefix_cache_evicts_lru_pages_under_pressure(model):
    """Distinct prompts on a tiny pool must recycle cached pages through
    LRU eviction instead of failing allocation."""
    engine = _prefix_engine(model, max_batch=2, kv_pool_pages=11)
    for i in range(6):
        rng = np.random.default_rng(100 + i)
        p = [int(t) for t in rng.integers(5, 197, size=50)]
        assert (
            engine.generate([GenerationRequest(p, 6, eos_id=2)])[0]
            == model.generate(p, 6, eos_id=2)
        )
    stats = engine.kv_stats()
    assert stats["prefix_cache"]["evicted_pages"] > 0
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0


def test_prefix_cache_cancel_mid_prefill_releases_pins(model):
    """Cancelling a parked shared-prefix request must return its borrowed
    pages and pins — nothing may stay pinned after the trace drains."""
    rng = np.random.default_rng(19)
    template = [int(t) for t in rng.integers(5, 197, size=40)]
    engine = _prefix_engine(
        model, prefill_chunk_tokens=4, prefill_concurrency=2
    )
    engine.generate([GenerationRequest(template + [8], 4, eos_id=2)])
    # Occupy a decode slot so the shared arrival parks mid-prefill.
    engine.submit(GenerationRequest(list(rng.integers(5, 197, size=6)), 40))
    engine.step()
    # 12 unshared tokens at chunk 4 keep the victim parked for several
    # steps after its 40-token shared skip.
    suffix = [int(t) for t in rng.integers(5, 197, size=12)]
    victim = engine.submit(GenerationRequest(template + suffix, 30))
    engine.step()
    assert engine.n_prefilling == 1
    assert engine.cancel(victim)
    while engine.has_work:
        engine.step()
    engine.collect()
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
    assert stats["prefix_cache"]["shared_pinned_pages"] == 0


def test_clear_prefix_cache_returns_pages_to_free_list(model):
    rng = np.random.default_rng(23)
    template = [int(t) for t in rng.integers(5, 197, size=32)]
    engine = _prefix_engine(model)
    for suffix in ([5], [7], [9]):
        engine.generate([GenerationRequest(template + suffix, 4, eos_id=2)])
    stats = engine.kv_stats()
    assert stats["prefix_cache"]["cached_pages"] > 0
    freed = engine.clear_prefix_cache()
    assert freed == stats["prefix_cache"]["cached_pages"]
    cleared = engine.kv_stats()
    assert cleared["prefix_cache"]["cached_pages"] == 0
    assert cleared["free_list_pages"] == cleared["allocated_pages"]
    # The next identical prompt re-prefills (cold) and re-registers.
    engine.generate([GenerationRequest(template + [5], 4, eos_id=2)])
    assert engine.kv_stats()["prefix_cache"]["cached_pages"] > 0


# -- speculative decoding: prompt-lookup drafts verified in the one forward -------

MOTIF = [10, 11, 12, 13, 14, 15, 16]


def _copy_request(prompt, budget, eos_id=None, source=None, first=MOTIF[0]):
    """A request that copies out of ``source`` (default: ``prompt``):
    CoachLM's copy assist — a static bias picks ``first``, then
    :class:`InductionCopyBias` follows ``source`` from there."""
    bias = np.zeros(197, dtype=np.float32)
    bias[first] = 20.0
    return GenerationRequest(
        prompt, budget, eos_id=eos_id, logit_bias=bias,
        copy_bias=InductionCopyBias(prompt if source is None else source, 100.0),
    )


def _sequential_request(model, request):
    """Cached one-token decode with the request's biases applied as
    CoachLM's sequential copy assist applies them."""
    prompt = request.prompt_ids
    budget = min(request.max_new_tokens, model.config.max_seq_len - len(prompt))
    caches = [{"k": None, "v": None} for _ in model.blocks]
    logits = model._forward_numpy(np.asarray([prompt]), caches)[:, -1, :]
    produced: list[int] = []
    for _ in range(budget):
        step = logits[0].copy()
        if request.logit_bias is not None:
            step += request.logit_bias
        if request.copy_bias is not None:
            request.copy_bias(produced, step)
        token = int(step.argmax())
        produced.append(token)
        if token == request.eos_id:
            break
        logits = model._forward_numpy(
            np.asarray([[token]]), caches,
            position_offset=len(prompt) + len(produced) - 1,
        )[:, -1, :]
    return produced


def test_speculation_accepts_every_draft_on_a_copied_motif(model):
    prompts = [[5, 6] + MOTIF * 3, [90, 91, 92] + MOTIF * 2, MOTIF * 4]
    requests = [_copy_request(p, 30) for p in prompts]
    expected = [_sequential_request(model, r) for r in requests]
    assert expected[0][:8] == MOTIF + MOTIF[:1]
    engine = BatchedEngine(model, max_batch=3)
    assert engine.generate(requests) == expected
    stats = engine.kv_stats()
    # 29 decode tokens per row, four kept per verify step.
    assert stats["decode_steps"] == 8
    assert stats["draft_tokens_proposed"] > 0
    assert stats["draft_tokens_accepted"] == stats["draft_tokens_proposed"]


def test_speculation_rejects_every_draft_on_novel_tokens(model):
    # The copy bias follows an ascending source, so the output counts up
    # 100, 101, ...; each token already occurs in the descending prompt,
    # but followed by its predecessor, so every lookup hits and every
    # draft is wrong.
    ascending = list(range(100, 121))
    prompts = [list(range(140, 99, -1)), list(range(119, 99, -1))]
    requests = [
        _copy_request(p, 20, source=ascending, first=100) for p in prompts
    ]
    expected = [_sequential_request(model, r) for r in requests]
    assert expected == [ascending[:20]] * 2
    engine = BatchedEngine(model, max_batch=2)
    assert engine.generate(requests) == expected
    stats = engine.kv_stats()
    assert stats["decode_steps"] == 19      # one kept token per step
    assert stats["draft_tokens_proposed"] > 0
    assert stats["draft_tokens_accepted"] == 0


def test_speculation_feeds_one_token_when_no_row_has_a_draft(model):
    """A step on which no greedy row's last bigram or last token occurred
    before feeds q = 1: no filler-only positions are verified."""
    # The copy bias follows a source the prompts never contain, so every
    # token is one the sequence has never seen.
    novel = list(range(100, 121))
    prompts = [MOTIF * 2, [5, 6, 7]]
    requests = [_copy_request(p, 20, source=novel, first=100) for p in prompts]
    expected = [_sequential_request(model, r) for r in requests]
    assert expected == [novel[:20]] * 2
    engine = BatchedEngine(model, max_batch=2)
    widths = []
    draft = engine._draft

    def spy():
        feed = draft()
        widths.append(feed.shape[1])
        return feed

    engine._draft = spy
    assert engine.generate(requests) == expected
    assert set(widths) == {1}
    stats = engine.kv_stats()
    assert stats["decode_steps"] == 19
    assert stats["draft_tokens_proposed"] == 0
    assert stats["draft_tokens_accepted"] == 0


def test_speculation_stops_at_eos_inside_an_accepted_run(model):
    """EOS reached after accepted drafts ends the row mid-run; a batchmate
    without EOS keeps speculating past it."""
    prompt = [5, 6] + MOTIF * 3
    # The first token (10) comes from prefill; the first verify step then
    # keeps 11, 12 and stops at EOS 13 although the draft ran on.
    requests = [
        _copy_request(prompt, 30, eos_id=MOTIF[3]),
        _copy_request(prompt, 30, eos_id=MOTIF[6]),
        _copy_request(prompt, 30),
    ]
    expected = [_sequential_request(model, r) for r in requests]
    assert expected[0] == MOTIF[:4] and expected[1] == MOTIF
    engine = BatchedEngine(model, max_batch=3)
    ids = [engine.submit(r) for r in requests]
    engine.step()
    engine.step()
    done = engine.collect()
    assert done == {ids[0]: expected[0]}
    assert engine.produced_so_far(ids[1]) == MOTIF[:5]
    results = {**done}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert [results[i] for i in ids] == expected


def test_speculation_plain_rows_stop_at_eos_drafted_inside_a_run(monkeypatch):
    """Greedy rows without a copy bias.  A scripted forward (each
    position's argmax is a fixed successor of its input token, cycling
    through ``MOTIF``) makes every draft right, so
    EOS arrives as an accepted draft mid-run and must end the row there,
    and a row without EOS must stop exactly at its budget."""
    config = TransformerConfig(
        vocab_size=197, d_model=8, n_layers=1, n_heads=2, max_seq_len=80
    )
    model = TransformerLM(config, np.random.default_rng(0))
    successor = np.arange(197)
    successor[MOTIF] = np.roll(MOTIF, -1)

    def scripted(idx, caches, position_offset=0, key_mask=None,
                 pack_spans=None, token_positions=None, logit_positions=None):
        nxt = successor[np.asarray(idx)]
        if logit_positions is not None:
            nxt = nxt[:, logit_positions]
        logits = np.zeros(nxt.shape + (197,), dtype=np.float32)
        np.put_along_axis(logits, nxt[..., None], 1.0, axis=-1)
        return logits

    monkeypatch.setattr(model, "_forward_numpy", scripted)
    prompt = MOTIF * 2
    requests = [
        GenerationRequest(prompt, 30, eos_id=MOTIF[6]),
        GenerationRequest(prompt, 30, eos_id=MOTIF[2]),
        GenerationRequest(prompt, 10),
    ]
    expected = [
        model.generate(r.prompt_ids, r.max_new_tokens, eos_id=r.eos_id)
        for r in requests
    ]
    assert expected[0] == MOTIF and expected[1] == MOTIF[:3]
    assert expected[2] == (MOTIF * 2)[:10]
    engine = BatchedEngine(model, max_batch=3)
    ids = [engine.submit(r) for r in requests]
    engine.step()
    engine.step()
    # First verify step: row 1 stops on its drafted EOS after one
    # accepted draft; the others keep four tokens.
    assert engine.collect() == {ids[1]: expected[1]}
    assert engine.produced_so_far(ids[0]) == MOTIF[:5]
    assert engine.produced_so_far(ids[2]) == expected[2][:5]
    results = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert results == {ids[0]: expected[0], ids[2]: expected[2]}


@pytest.mark.parametrize("page_tokens", [1, 3, 16])
def test_speculation_clips_at_the_context_end_within_the_page_quota(
    model, page_tokens
):
    """``prompt + budget == max_seq_len``: the last steps shrink ``q`` so
    no write passes the context end, and no row holds more pages than
    its reserved quota."""
    context = model.config.max_seq_len
    prompts = [[5, 6] + MOTIF * 9, [90] + MOTIF * 10]     # 65 and 71 tokens
    requests = [_copy_request(p, 100) for p in prompts]
    expected = [_sequential_request(model, r) for r in requests]
    assert [len(p) + len(e) for p, e in zip(prompts, expected)] == [context] * 2
    engine = BatchedEngine(model, max_batch=2, kv_page_tokens=page_tokens)
    ids = [engine.submit(r) for r in requests]
    quota = sum(-(-context // page_tokens) for _ in prompts)
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
        stats = engine.kv_stats()
        assert stats["pages_in_use"] <= stats["reserved_pages"] <= quota
    assert [results[i] for i in ids] == expected
    stats = engine.kv_stats()
    assert stats["peak_pages_in_use"] <= quota
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
    assert stats["draft_tokens_accepted"] > 0


def test_speculation_copy_bias_sees_produced_plus_accepted_drafts(model):
    """Position ``i`` is biased by the context ``produced + draft[:i]``.

    The copy bias follows a source in which every motif token after the
    first also precedes a decoy (50 + j) that a static bias favours: the
    motif continues only where the bigram ``(second, last)`` matches.
    A position biased by any other context than its accepted prefix
    falls back to the unigram followers, where the decoy wins."""
    prompt = [5, 6] + MOTIF * 3
    source = MOTIF * 2
    for j, token in enumerate(MOTIF[1:]):
        source += [token, 51 + j]
    request = _copy_request(prompt, 24, source=source)
    request.logit_bias[51:57] = 10.0
    expected = _sequential_request(model, request)
    assert expected == (MOTIF * 4)[:24]
    engine = BatchedEngine(model, max_batch=1)
    assert engine.generate([request]) == [expected]
    assert engine.kv_stats()["draft_tokens_accepted"] > 0


def test_verify_copy_bias_scatter_matches_per_position_calls(model):
    """The one-pass scatter of :meth:`BatchedEngine._biased_logits` is
    bitwise the per-position ``copy_bias(produced + feed[b, 1:i+1], row)``
    calls, over every position a row could keep."""
    from repro.nn.decoding import _SlotState

    source = [20, 21, 22, 20, 23, 24, 25, 21, 26, 30, 31, 32]
    static = np.zeros(197, dtype=np.float32)
    static[[21, 40]] = 0.75
    rows = [
        # (copy bias, produced, budget, feed, top_k, logit_bias)
        # One produced token: unigram context, then a bigram hit.
        (InductionCopyBias(source, 3.0), [20], 30, [20, 21, 99, 98], None, None),
        # Two produced: a unigram-only hit, then bigram hits with
        # leftover unigram followers (strength 5: its half is 2.5).
        (InductionCopyBias(source, 5.0), [7, 20], 30, [20, 21, 22, 20], None, static),
        # Unigram-only hit after a bigram the source never holds.
        (InductionCopyBias(source, 6.0), [99, 24], 30, [24, 25, 40, 41], None, None),
        # Blocked followers are never boosted.
        (
            InductionCopyBias(source, 3.0, frozenset({21, 23})),
            [22, 20], 30, [20, 21, 22, 20], None, None,
        ),
        # Two tokens of budget left: positions 2 and 3 stay unbiased.
        (InductionCopyBias(source, 3.0), [20, 21], 4, [21, 22, 20, 23], None, None),
        # A sampled row keeps one token: position 0 only.
        (InductionCopyBias(source, 3.0), [20, 21], 30, [21, 21, 21, 21], 3, None),
        # No copy bias.
        (None, [20, 21], 30, [21, 22, 20, 23], None, static),
    ]
    engine = BatchedEngine(model, max_batch=len(rows))
    engine._ensure_state()
    for b, (copy_bias, produced, budget, _feed, top_k, logit_bias) in enumerate(rows):
        request = GenerationRequest(
            [1, 2, 3], budget, logit_bias=logit_bias, copy_bias=copy_bias,
            top_k=top_k, rng=np.random.default_rng(0) if top_k else None,
        )
        state = _SlotState(b, request, budget, produced=list(produced))
        engine._install(b, state)
        engine._count[b] = len(produced)
    engine._n_active = len(rows)
    feed = np.asarray([row[3] for row in rows], dtype=np.int64)
    logits = np.random.default_rng(5).standard_normal(
        (len(rows), 4, 197)
    ).astype(np.float32)
    got = engine._biased_logits(logits, feed)

    expected = logits + engine._bias[: len(rows), None, :]
    for b, (copy_bias, produced, budget, row_feed, top_k, _) in enumerate(rows):
        if copy_bias is None:
            continue
        positions = 1 if top_k else min(4, budget - len(produced))
        for i in range(positions):
            copy_bias(produced + row_feed[1 : i + 1], expected[b, i])
    assert got.tobytes() == expected.tobytes()
    unbiased = logits + engine._bias[: len(rows), None, :]
    moved = (got != unbiased).any(axis=-1)
    assert moved[0].tolist() == [True, True, False, False]
    assert moved[1].all() and moved[2, :2].all()
    assert got[1, 1, 26] == unbiased[1, 1, 26] + np.float32(2.5)  # leftover
    assert not moved[2, 2:].any()
    assert moved[3].tolist() == [False, True, True, False]
    assert (got[3, :, [21, 23]] == unbiased[3, :, [21, 23]]).all()
    assert moved[4].tolist() == [True, True, False, False]
    assert moved[5].tolist() == [True, False, False, False]
    assert not moved[6].any()


def test_speculation_top_k_rows_keep_one_sampled_token_per_step(model):
    """Sampled rows draw exactly one token per step, draw-for-draw equal
    to ``TransformerLM.generate``, while their greedy batchmate keeps
    every draft."""
    prompt = [5, 6] + MOTIF * 3
    sampled = [(list(range(30, 33)), 3, 5), (list(range(40, 49)), 4, 6)]
    expected = [_sequential_request(model, _copy_request(prompt, 24))] + [
        model.generate(p, 24, top_k=k, rng=np.random.default_rng(seed))
        for p, k, seed in sampled
    ]
    requests = [_copy_request(prompt, 24)] + [
        GenerationRequest(p, 24, top_k=k, rng=np.random.default_rng(seed))
        for p, k, seed in sampled
    ]
    engine = BatchedEngine(model, max_batch=3)
    assert engine.generate(requests) == expected
    stats = engine.kv_stats()
    # The sampled rows need 23 verify steps; no draft position of theirs
    # is counted, and every one of the greedy row's was kept.
    assert stats["decode_steps"] == 23
    assert stats["draft_tokens_accepted"] == stats["draft_tokens_proposed"] > 0


def test_speculation_cancel_and_preempt_resume_between_steps(model):
    prompts = [[5, 6] + MOTIF * 3, [90, 91] + MOTIF * 2, MOTIF * 3]
    requests = [_copy_request(p, 30) for p in prompts]
    expected = [_sequential_request(model, r) for r in requests]
    engine = BatchedEngine(model, max_batch=3, kv_page_tokens=3)
    ids = [engine.submit(r) for r in requests]
    engine.step()
    engine.step()
    assert [len(engine.produced_so_far(i)) for i in ids] == [5, 5, 5]
    assert engine.preempt(ids[0])
    assert engine.cancel(ids[1])
    engine.step()
    assert engine.preempt(ids[2])
    results: dict[int, list[int]] = {}
    while engine.has_work:
        engine.step()
        results.update(engine.collect())
    assert results[ids[0]] == expected[0]
    assert results[ids[1]] == expected[1][:5]
    assert results[ids[2]] == expected[2]
    stats = engine.kv_stats()
    assert stats["preemption"]["resumes"] == 2
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
    # Resumes re-feed only the not-yet-fed bonus token, never a prompt one.
    assert engine.total_prompt_tokens_prefilled == sum(len(p) for p in prompts)


def test_speculation_never_writes_shared_prefix_pages(model):
    """Drafted columns land only in private pages: the K/V of every page
    the radix index shares are byte-identical before and after other
    sequences decode speculatively on top of them."""
    template = [5, 6] + MOTIF * 4                    # 30 tokens
    prompts = [template + [40 + i, 50 + i] for i in range(4)]
    requests = [_copy_request(p, 24) for p in prompts]
    expected = [_sequential_request(model, r) for r in requests]
    engine = _prefix_engine(model, max_batch=3, kv_page_tokens=8)
    assert engine.generate(requests[:1]) == expected[:1]
    pool = engine._caches
    shared = sorted(pool._page_nodes)
    assert len(shared) == 4
    cols = np.concatenate([np.arange(p * 8, (p + 1) * 8) for p in shared])
    before = [(k[:, cols].copy(), v[:, cols].copy()) for k, v in zip(pool.k, pool.v)]
    assert engine.generate(requests[1:]) == expected[1:]
    stats = engine.kv_stats()
    assert stats["prefix_cache"]["hits"] >= 3
    assert stats["draft_tokens_accepted"] > 0
    for (k, v), (k0, v0) in zip(zip(pool.k, pool.v), before):
        assert np.array_equal(k[:, cols], k0) and np.array_equal(v[:, cols], v0)
    assert stats["pages_in_use"] == 0 and stats["reserved_pages"] == 0
