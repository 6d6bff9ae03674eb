"""Randomized mixed score/revise-traffic fuzz for the scoring engine.

The directed scoring tests pin parity on clean, single-kind workloads;
this fuzz drives *mixed traces* — teacher-forced scoring jobs and
generation jobs arriving interleaved at random steps, with random
cancellations of both kinds — through :class:`BatchedEngine`'s streaming
``submit``/``submit_score``/``step``/``collect`` API, and asserts:

* every completed scoring job is **bitwise identical** to the sequential
  :meth:`TransformerLM.sequence_logprobs` reference;
* every completed generation job is token-for-token
  :meth:`TransformerLM.generate` (cancelled: an exact prefix);
* after the trace drains, the KV pool reports **zero pages in use and
  zero reservations** — score jobs must never leak the slots, pages
  or reservations they are not supposed to occupy in the first place.

Scenarios follow the ``tests/test_fuzz_parity.py`` conventions: seed =
``REPRO_FUZZ_SEED + index`` (default master seed 20240311), every rng
draw consumed unconditionally so a scenario is reproducible in
isolation::

    REPRO_FUZZ_SEED=<printed seed> REPRO_FUZZ_SCENARIOS=1 \
        python -m pytest tests/test_fuzz_scoring.py

``REPRO_FUZZ_SCORING=on`` unlocks the full CI budget (the
``scripts/ci.sh`` scoring leg); the default tier-1 run keeps a small
smoke budget.  ``REPRO_FUZZ_SCENARIOS`` overrides either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.nn import (
    BatchedEngine,
    GenerationRequest,
    ScoringRequest,
    TransformerConfig,
    TransformerLM,
)

MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20240311"))
FULL_BUDGET = os.environ.get("REPRO_FUZZ_SCORING", "off") == "on"
N_SCENARIOS = int(
    os.environ.get("REPRO_FUZZ_SCENARIOS", "40" if FULL_BUDGET else "12")
)
PAGE_SIZES = (1, 3, 16, 64)

VOCAB = 131
EOS_ID = 2


@pytest.fixture(scope="module")
def model():
    config = TransformerConfig(
        vocab_size=VOCAB, d_model=32, n_layers=2, n_heads=4, max_seq_len=64
    )
    return TransformerLM(config, np.random.default_rng(1729))


@dataclass
class _FuzzJob:
    """One fuzzed request (either kind) plus its scheduling decisions."""

    kind: str                      #: "score" | "generate"
    prompt: list[int]
    completion: list[int]          #: scored tokens (score jobs only)
    max_new_tokens: int            #: decode budget (generate jobs only)
    eos_id: int | None
    arrival_step: int
    cancel_step: int | None = None


@dataclass
class _Scenario:
    seed: int
    max_batch: int
    kv_page_tokens: int
    kv_pool_pages: int | None = None
    jobs: list[_FuzzJob] = field(default_factory=list)


def _draw_scenario(seed: int, context: int) -> _Scenario:
    rng = np.random.default_rng(seed)
    # KV layout draw first, every draw consumed unconditionally (the
    # fuzz-parity convention): one page per sequence half the time, else
    # a random page size, sometimes with an undersized pool so
    # generation jobs hit page-exhaustion deferral while score jobs
    # stream past them.
    paged_coin = rng.random() < 0.5
    page_tokens = int(rng.choice(PAGE_SIZES))
    undersized_coin = rng.random() < 0.35
    pages_per_seq = -(-context // page_tokens)
    pool_pages = pages_per_seq + int(rng.integers(0, 2 * pages_per_seq))
    if not paged_coin:
        # The coin's other face was once dense per-slot slabs; one
        # full-context page per sequence is the same layout.
        page_tokens = context
        pool_pages = None
    elif not undersized_coin:
        pool_pages = None
    scenario = _Scenario(
        seed=seed,
        max_batch=int(rng.integers(1, 7)),
        kv_page_tokens=page_tokens,
        kv_pool_pages=pool_pages,
    )
    for _ in range(int(rng.integers(2, 13))):
        # Draw both shapes unconditionally, then pick the kind — keeps
        # the rng stream position independent of the mix that came up.
        n_prompt = int(rng.integers(1, context - 8))
        n_completion = int(rng.integers(1, context - n_prompt))
        max_new = int(rng.integers(1, 12))
        score_coin = rng.random() < 0.5
        eos_coin = rng.random() < 0.7
        arrival = int(rng.integers(0, 9))
        cancel = int(rng.integers(1, 20)) if rng.random() < 0.15 else None
        scenario.jobs.append(
            _FuzzJob(
                kind="score" if score_coin else "generate",
                prompt=[int(t) for t in rng.integers(5, VOCAB, size=n_prompt)],
                completion=[
                    int(t) for t in rng.integers(5, VOCAB, size=n_completion)
                ],
                max_new_tokens=max_new,
                eos_id=EOS_ID if eos_coin else None,
                arrival_step=arrival,
                cancel_step=cancel,
            )
        )
    return scenario


def _run_trace(model: TransformerLM, scenario: _Scenario) -> dict[int, object]:
    engine = BatchedEngine(
        model,
        max_batch=scenario.max_batch,
        kv_page_tokens=scenario.kv_page_tokens,
        kv_pool_pages=scenario.kv_pool_pages,
    )
    seq_ids: dict[int, int] = {}
    results: dict[int, object] = {}
    step = 0
    guard = 0
    while len(results) < len(scenario.jobs):
        for i, job in enumerate(scenario.jobs):
            if i not in seq_ids and job.arrival_step <= step:
                if job.kind == "score":
                    seq_ids[i] = engine.submit_score(
                        ScoringRequest(job.prompt, job.completion)
                    )
                else:
                    seq_ids[i] = engine.submit(
                        GenerationRequest(
                            job.prompt, job.max_new_tokens, eos_id=job.eos_id
                        )
                    )
            if (
                i in seq_ids
                and job.cancel_step is not None
                and job.arrival_step + job.cancel_step <= step
            ):
                engine.cancel(seq_ids[i])
                job.cancel_step = None
        engine.step()
        for seq_id, outcome in engine.collect().items():
            index = next(i for i, s in seq_ids.items() if s == seq_id)
            results[index] = outcome
        step += 1
        guard += 1
        assert guard < 5000, "fuzz trace failed to terminate"
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0, stats
    assert stats["reserved_pages"] == 0, stats
    return results


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_fuzz_mixed_scoring_trace_matches_sequential(model, index):
    seed = MASTER_SEED + index
    scenario = _draw_scenario(seed, model.config.max_seq_len)
    cancelled = {
        i for i, job in enumerate(scenario.jobs)
        if job.cancel_step is not None
    }
    results = _run_trace(model, scenario)
    repro_hint = (
        f"reproduce with: REPRO_FUZZ_SEED={seed} REPRO_FUZZ_SCENARIOS=1 "
        f"python -m pytest tests/test_fuzz_scoring.py"
    )
    assert len(results) == len(scenario.jobs), repro_hint
    for i, job in enumerate(scenario.jobs):
        got = results[i]
        if job.kind == "score":
            if got is None:
                # Only an explicit cancel may swallow a scoring job.
                assert i in cancelled, repro_hint
                continue
            expected = model.sequence_logprobs(job.prompt, job.completion)
            assert got.token_logprobs.tobytes() == expected.tobytes(), (
                f"fuzz seed {seed}: scoring job {i} diverged bitwise\n"
                f"scenario: {scenario}\n{repro_hint}"
            )
        else:
            expected = model.generate(
                job.prompt, job.max_new_tokens, eos_id=job.eos_id
            )
            if i in cancelled:
                assert got == expected[: len(got)], (
                    f"fuzz seed {seed}: cancelled generate job {i} diverged "
                    f"from the sequential prefix\n{repro_hint}"
                )
            else:
                assert got == expected, (
                    f"fuzz seed {seed}: generate job {i} diverged\n"
                    f"engine:     {got}\nsequential: {expected}\n{repro_hint}"
                )
