"""Teacher-forced scoring throughput — sequential vs batched (pairs/sec).

Measures the data-selection workload: IFD-scoring a dataset means two
teacher-forced passes per pair (conditioned + unconditioned).  The
sequential baseline is the per-token KV-cached pass a naive port of
``generate()`` would use — prefill the prompt into a cache, then one
single-token forward (with a full-vocab head) per completion token.
The engine path (:meth:`BatchedEngine.score` at batch 16, the shape
``dataset_ifd`` runs) replaces that with **one cache-free forward per
sequence** whose final-norm + head GEMM touches only the scored
positions, so the per-token python/numpy step overhead disappears and
the logit computation collapses into a single GEMM.

The two paths are numerically different routes to the same quantity
(cached single-token forwards vs one whole-sequence forward), so the
cross-check is ``allclose`` on the per-token logprobs; the *bitwise*
contract — engine vs :meth:`TransformerLM.sequence_logprobs` — is
asserted exactly, per pair.

Results land in ``bench_out/BENCH_scoring.json`` (the committed
baseline sits at the repo root).  Regression floor: batch-16 scored
pairs/sec must hold >= 5x over the sequential teacher-forced pass.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import print_banner, write_bench_json

from repro.data import generate_dataset
from repro.llm import build_tokenizer
from repro.nn import TransformerConfig, TransformerLM
from repro.nn.transformer import _token_logprobs
from repro.scoring import (
    conditioned_request,
    dataset_ifd,
    pair_ifd,
    score_pair_ifd,
    unconditioned_request,
)

N_PAIRS = 32
SCORE_BATCH = 16
#: Acceptance bar: batched scoring at batch 16 vs the per-token pass.
SCORING_BATCH16_FLOOR = 5.0


def _bench_model(scale):
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


def _per_token_cached_pass(model, prompt_ids, completion_ids) -> np.ndarray:
    """The sequential teacher-forced baseline: ``generate()``'s KV-cached
    loop, scoring instead of sampling — prompt prefill into a fresh
    cache, then one single-token forward per completion token, reading
    each step's full-vocab logits for the target's logprob."""
    caches: list[dict] = [{"k": None, "v": None} for _ in model.blocks]
    idx = np.asarray([prompt_ids], dtype=np.int64)
    logits = model._forward_numpy(idx, caches)[:, -1, :]
    offset = len(prompt_ids)
    logprobs = []
    for token in completion_ids:
        logprobs.append(
            float(_token_logprobs(logits[0][None, :], np.asarray([token]))[0])
        )
        logits = model._forward_numpy(
            np.asarray([[token]], dtype=np.int64), caches, position_offset=offset
        )[:, -1, :]
        offset += 1
    return np.asarray(logprobs, dtype=np.float64)


def _time_best_of(fn, repeats: int = 3):
    outputs, best = fn(), None
    start = time.perf_counter()
    outputs = fn()
    best = time.perf_counter() - start
    for _ in range(repeats - 1):
        start = time.perf_counter()
        again = fn()
        elapsed = time.perf_counter() - start
        assert _equal(again, outputs)
        best = min(best, elapsed)
    return outputs, best


def _equal(a, b) -> bool:
    if isinstance(a, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


def test_scoring_sequential_vs_batched(wb):
    model, tokenizer = _bench_model(wb.scale)
    pairs = list(generate_dataset(np.random.default_rng(4242), N_PAIRS))
    requests = []
    for pair in pairs:
        requests.append(conditioned_request(tokenizer, pair))
        requests.append(unconditioned_request(tokenizer, pair))
    limit = model.config.max_seq_len
    assert all(
        len(r.prompt_ids) + len(r.completion_ids) <= limit for r in requests
    ), "bench pairs must all be scoreable at the bench context length"
    scored_tokens = sum(len(r.completion_ids) for r in requests)

    # -- sequential: per-token KV-cached teacher-forced pass -------------------
    sequential, seq_elapsed = _time_best_of(
        lambda: [
            _per_token_cached_pass(model, r.prompt_ids, r.completion_ids)
            for r in requests
        ]
    )

    # -- batched: dataset_ifd's engine.score at batch 16 -----------------------
    verdicts, batched_elapsed = _time_best_of(
        lambda: dataset_ifd(
            model, tokenizer, pairs, batch_size=SCORE_BATCH
        )
    )
    assert all(v is not None for v in verdicts)

    # The engine path is bitwise the sequential *reference* (the lone
    # (1, T) forward)...
    for pair, verdict in zip(pairs, verdicts):
        assert verdict == score_pair_ifd(model, tokenizer, pair)
    # ...and allclose to the per-token cached baseline, which reaches the
    # same logprobs along a different numerical route.
    for slot, verdict in enumerate(verdicts):
        baseline = pair_ifd(
            _SequenceScoreShim(sequential[2 * slot]),
            _SequenceScoreShim(sequential[2 * slot + 1]),
        )
        assert np.isclose(verdict.conditioned_nll, baseline.conditioned_nll,
                          rtol=1e-4, atol=1e-6)
        assert np.isclose(verdict.ifd, baseline.ifd, rtol=1e-4, atol=1e-6)

    speedup = seq_elapsed / batched_elapsed
    payload = {
        "scale": wb.scale.name,
        "model": {
            "d_model": model.config.d_model,
            "n_layers": model.config.n_layers,
            "vocab_size": model.config.vocab_size,
            "max_seq_len": model.config.max_seq_len,
        },
        "n_pairs": N_PAIRS,
        "passes_per_pair": 2,
        "scored_tokens": scored_tokens,
        "score_batch": SCORE_BATCH,
        "sequential": {
            "elapsed_s": round(seq_elapsed, 4),
            "pairs_per_sec": round(N_PAIRS / seq_elapsed, 2),
            "scored_tokens_per_sec": round(scored_tokens / seq_elapsed, 1),
        },
        "batched": {
            "elapsed_s": round(batched_elapsed, 4),
            "pairs_per_sec": round(N_PAIRS / batched_elapsed, 2),
            "scored_tokens_per_sec": round(scored_tokens / batched_elapsed, 1),
            "speedup": round(speedup, 2),
        },
        "floor": SCORING_BATCH16_FLOOR,
    }
    print_banner("scoring", "teacher-forced scoring: sequential vs batched")
    print(
        f"IFD over {N_PAIRS} pairs ({scored_tokens} scored tokens): "
        f"per-token pass {payload['sequential']['pairs_per_sec']:.1f} pairs/s "
        f"→ engine.score(B={SCORE_BATCH}) "
        f"{payload['batched']['pairs_per_sec']:.1f} pairs/s "
        f"({speedup:.2f}x)"
    )

    # Perf-regression floor: one forward per sequence must keep beating
    # the per-token cached pass by a wide margin.
    assert speedup >= SCORING_BATCH16_FLOOR, payload

    # Record only after the gate passed.
    write_bench_json("BENCH_scoring.json", payload)


class _SequenceScoreShim:
    """Duck-typed stand-in feeding baseline logprobs through pair_ifd."""

    def __init__(self, token_logprobs: np.ndarray):
        self.token_logprobs = token_logprobs

    @property
    def n_tokens(self) -> int:
        return int(self.token_logprobs.shape[0])

    @property
    def mean_nll(self) -> float:
        return float(-self.token_logprobs.mean())

    @property
    def perplexity(self) -> float:
        return float(np.exp(-self.token_logprobs.mean()))
