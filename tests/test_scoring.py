"""Tests for the teacher-forced scoring engine and repro.scoring.

Three contracts are pinned here.  **Bitwise parity**: every per-token
logprob from :meth:`BatchedEngine.score` is bit-for-bit identical to the
sequential :meth:`TransformerLM.sequence_logprobs` reference, across
ragged lengths and every KV page size — batching lives at the intake
layer, never in the arithmetic.  **Zero KV footprint**: score
jobs occupy no slot, page or reservation, so mixed score/revise traffic
leaks nothing.  **Key-space isolation**: a ``score`` and a ``revise`` of
the same content are different computations and must never dedup or
cache-hit onto each other (the directed kind-collision regression).
"""

from __future__ import annotations

import json
import math
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.core.coachlm import CoachLM, RevisionOutcome
from repro.data import generate_dataset
from repro.data.instruction_pair import InstructionPair
from repro.errors import GenerationError, ScoringError
from repro.nn import (
    BatchedEngine,
    GenerationRequest,
    ScoringRequest,
    SequenceScore,
    TransformerConfig,
    TransformerLM,
)
from repro.quality import PERPLEXITY_DIMENSION, CriteriaScorer
from repro.scoring import (
    PairIFD,
    conditioned_request,
    dataset_ifd,
    pair_ifd,
    rank_by_ifd,
    review_revision,
    score_pair_ifd,
    select_top_k,
    self_review_revise,
    unconditioned_request,
)
from repro.serving import (
    CachedRevision,
    CachedScore,
    OUTCOME_SCORED,
    RevisionHTTPFrontend,
    RevisionLRUCache,
    RevisionServer,
    SOURCE_CACHE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
    revision_key,
    score_key,
)

PAGE_SIZES = (1, 3, 16, 64)


@pytest.fixture(scope="module")
def engine_model():
    config = TransformerConfig(
        vocab_size=131, d_model=32, n_layers=2, n_heads=4, max_seq_len=64
    )
    return TransformerLM(config, np.random.default_rng(1729))


@pytest.fixture(scope="module")
def coach(tokenizer):
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=32,
        n_layers=1,
        n_heads=4,
        max_seq_len=192,
    )
    model = TransformerLM(config, np.random.default_rng(9))
    return CoachLM(model, tokenizer)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(np.random.default_rng(77), 10)


def _ragged_requests(rng: np.random.Generator, n: int, context: int):
    requests = []
    for _ in range(n):
        n_prompt = int(rng.integers(1, context - 8))
        n_completion = int(rng.integers(1, context - n_prompt))
        requests.append(
            ScoringRequest(
                prompt_ids=[int(t) for t in rng.integers(3, 131, size=n_prompt)],
                completion_ids=[
                    int(t) for t in rng.integers(3, 131, size=n_completion)
                ],
            )
        )
    return requests


# -- sequential reference --------------------------------------------------------


def test_sequence_logprobs_shape_and_finiteness(engine_model):
    logprobs = engine_model.sequence_logprobs([5, 6, 7], [8, 9])
    assert logprobs.shape == (2,)
    assert np.all(np.isfinite(logprobs))
    assert np.all(logprobs <= 0.0)


def test_sequence_logprobs_validation(engine_model):
    with pytest.raises(GenerationError):
        engine_model.sequence_logprobs([], [1, 2])
    with pytest.raises(GenerationError):
        engine_model.sequence_logprobs([1, 2], [])
    context = engine_model.config.max_seq_len
    with pytest.raises(GenerationError):
        engine_model.sequence_logprobs(list(range(1, context)), [1, 2, 3])


def test_sequence_score_derived_quantities():
    logprobs = np.array([-0.5, -1.5, -1.0])
    score = SequenceScore(token_logprobs=logprobs)
    assert score.n_tokens == 3
    assert score.sum_logprob == pytest.approx(-3.0)
    assert list(score.token_nll) == pytest.approx([0.5, 1.5, 1.0])
    assert score.mean_nll == pytest.approx(1.0)
    assert score.perplexity == pytest.approx(math.e)


# -- engine parity ----------------------------------------------------------------


@pytest.mark.parametrize("kv_page_tokens", PAGE_SIZES)
def test_engine_score_bitwise_parity(engine_model, kv_page_tokens):
    """Batched scoring is bit-for-bit the sequential reference — at every
    page size, including one-token pages."""
    rng = np.random.default_rng(42)
    requests = _ragged_requests(rng, 24, engine_model.config.max_seq_len)
    engine = BatchedEngine(
        engine_model, max_batch=16, kv_page_tokens=kv_page_tokens
    )
    scores = engine.score(requests)
    assert len(scores) == len(requests)
    for request, score in zip(requests, scores):
        expected = engine_model.sequence_logprobs(
            request.prompt_ids, request.completion_ids
        )
        assert score.token_logprobs.tobytes() == expected.tobytes(), (
            "batched scoring diverged bitwise from sequence_logprobs"
        )


def test_engine_score_requires_no_kv_state(engine_model):
    """Pure scoring traffic allocates no KV slab, slot, page or
    reservation — the engine stays stateless."""
    engine = BatchedEngine(engine_model, max_batch=4, kv_page_tokens=8)
    engine.score(_ragged_requests(np.random.default_rng(7), 9, 64))
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0
    assert stats["reserved_pages"] == 0
    assert stats["resident_kv_bytes"] == 0


def test_engine_mixed_score_and_generate_traffic(engine_model):
    """Scores and decodes through one submit/step/collect stream: decode
    tokens match model.generate, scores match sequence_logprobs, and the
    paged pool drains back to zero."""
    engine = BatchedEngine(engine_model, max_batch=3, kv_page_tokens=3)
    rng = np.random.default_rng(11)
    score_reqs = _ragged_requests(rng, 5, 64)
    gen_reqs = [
        GenerationRequest(
            [int(t) for t in rng.integers(3, 131, size=int(rng.integers(1, 20)))],
            max_new_tokens=int(rng.integers(1, 10)),
            eos_id=2,
        )
        for _ in range(4)
    ]
    score_ids = {engine.submit_score(r): r for r in score_reqs}
    gen_ids = {engine.submit(r): r for r in gen_reqs}
    done: dict[int, object] = {}
    guard = 0
    while engine.has_work:
        engine.step()
        done.update(engine.collect())
        guard += 1
        assert guard < 5000
    assert set(done) == set(score_ids) | set(gen_ids)
    for seq_id, request in score_ids.items():
        expected = engine_model.sequence_logprobs(
            request.prompt_ids, request.completion_ids
        )
        assert done[seq_id].token_logprobs.tobytes() == expected.tobytes()
    for seq_id, request in gen_ids.items():
        assert done[seq_id] == engine_model.generate(
            request.prompt_ids, request.max_new_tokens, eos_id=request.eos_id
        )
    stats = engine.kv_stats()
    assert stats["pages_in_use"] == 0
    assert stats["reserved_pages"] == 0


def test_engine_score_cancel_and_validation(engine_model):
    engine = BatchedEngine(engine_model, max_batch=2)
    seq_id = engine.submit_score(ScoringRequest([5, 6], [7]))
    engine.cancel(seq_id)
    engine.step()
    assert engine.collect()[seq_id] is None
    with pytest.raises(GenerationError):
        engine.submit_score(ScoringRequest([], [7]))
    with pytest.raises(GenerationError):
        engine.submit_score(ScoringRequest([5], []))
    with pytest.raises(GenerationError):
        engine.submit_score(ScoringRequest(list(range(1, 64)), [1, 2, 3]))


# -- IFD --------------------------------------------------------------------------


def test_dataset_ifd_matches_sequential(coach, tokenizer, dataset):
    pairs = list(dataset)
    verdicts = dataset_ifd(coach.model, tokenizer, pairs, batch_size=4)
    assert len(verdicts) == len(pairs)
    for pair, verdict in zip(pairs, verdicts):
        assert verdict == score_pair_ifd(coach.model, tokenizer, pair)
        assert verdict.n_tokens > 0
        assert verdict.response_perplexity == pytest.approx(
            math.exp(verdict.conditioned_nll)
        )


def test_dataset_ifd_skips_unscoreable(coach, tokenizer, dataset):
    pairs = list(dataset)[:3]
    pairs[1] = InstructionPair(
        instruction="summarize the text : " + "alpha beta " * 120,
        response="gamma",
    )
    verdicts = dataset_ifd(coach.model, tokenizer, pairs, batch_size=4)
    assert verdicts[1] is None
    assert verdicts[0] is not None and verdicts[2] is not None
    with pytest.raises(GenerationError):
        score_pair_ifd(coach.model, tokenizer, pairs[1])


def test_pair_ifd_degenerate_unconditioned_pins_zero():
    easy = SequenceScore(token_logprobs=np.array([0.0, 0.0]))
    cond = SequenceScore(token_logprobs=np.array([-1.0, -2.0]))
    verdict = pair_ifd(cond, easy)
    assert verdict.ifd == 0.0
    assert verdict.unconditioned_nll == 0.0


def test_pair_ifd_roundtrips_as_dict(coach, tokenizer, dataset):
    verdict = score_pair_ifd(coach.model, tokenizer, dataset[0])
    assert PairIFD.from_dict(verdict.as_dict()) == verdict
    assert json.loads(json.dumps(verdict.as_dict())) == verdict.as_dict()


# -- selection --------------------------------------------------------------------


def _verdict(ifd: float) -> PairIFD:
    return PairIFD(
        conditioned_nll=ifd, unconditioned_nll=1.0, ifd=ifd,
        response_perplexity=math.exp(ifd), n_tokens=4,
    )


def test_rank_by_ifd_hardest_first_nones_last():
    scores = [_verdict(0.5), None, _verdict(1.2), _verdict(0.9), None]
    assert rank_by_ifd(scores) == [2, 3, 0, 1, 4]


def test_rank_by_ifd_is_stable_on_ties():
    scores = [_verdict(1.0), _verdict(1.0), _verdict(1.0)]
    assert rank_by_ifd(scores) == [0, 1, 2]


def test_select_top_k():
    scores = [_verdict(0.5), None, _verdict(1.2), _verdict(0.9)]
    selected, rest = select_top_k(scores, 2)
    assert selected == [2, 3]
    assert rest == [0, 1]
    selected, rest = select_top_k(scores, 99)
    assert selected == [2, 3, 0]     # only scoreable pairs are selectable
    assert rest == [1]
    with pytest.raises(ValueError):
        select_top_k(scores, -1)


# -- self-review ------------------------------------------------------------------


def test_review_revision_decisions():
    before = _verdict(1.0)
    assert review_revision(before, _verdict(0.8)).accepted
    assert review_revision(before, _verdict(0.8)).reason in ("perplexity", "ifd")
    rejected = review_revision(before, _verdict(1.1))
    assert not rejected.accepted and rejected.reason == "no_improvement"
    unscoreable = review_revision(before, None)
    assert not unscoreable.accepted and unscoreable.reason == "unscoreable"


def test_self_review_revise_never_worsens(coach, tokenizer, dataset):
    for pair in list(dataset)[:4]:
        baseline = score_pair_ifd(coach.model, tokenizer, pair)
        result = self_review_revise(coach, pair)
        # The loop's invariant: the returned pair is never worse than the
        # original on both review axes at once.
        if result.improved:
            assert (
                result.score.response_perplexity < baseline.response_perplexity
                or result.score.ifd < baseline.ifd
            )
        else:
            assert result.pair is pair
            assert result.score == baseline
        for decision in result.decisions[:-1]:
            assert decision.accepted   # only the last round may reject


def test_self_review_requires_scoreable_original(coach):
    too_long = InstructionPair(
        instruction="summarize the text : " + "alpha beta " * 120,
        response="gamma",
    )
    with pytest.raises(GenerationError):
        self_review_revise(coach, too_long)
    with pytest.raises(ValueError):
        self_review_revise(coach, InstructionPair("a", "b"), max_rounds=0)


# -- quality: perplexity dimension ------------------------------------------------


def test_perplexity_dimension_not_in_core_ten():
    from repro.quality import DIMENSIONS

    assert PERPLEXITY_DIMENSION.name == "perplexity"
    assert len(DIMENSIONS) == 10
    assert all(d.name != "perplexity" for d in DIMENSIONS)


def test_scorer_without_backing_is_unchanged(dataset):
    report = CriteriaScorer(strict_context=False).score_response(dataset[0])
    assert all(f.dimension != "perplexity" for f in report.findings)


def test_scorer_with_backing_appends_perplexity_finding(coach, tokenizer, dataset):
    scorer = CriteriaScorer(
        strict_context=False,
        perplexity_model=coach.model,
        perplexity_tokenizer=tokenizer,
        perplexity_threshold=1e9,   # generous: the finding must pass
    )
    report = scorer.score_response(dataset[0])
    finding = next(f for f in report.findings if f.dimension == "perplexity")
    assert finding.satisfied
    strict = CriteriaScorer(
        strict_context=False,
        perplexity_model=coach.model,
        perplexity_tokenizer=tokenizer,
        perplexity_threshold=1.0 + 1e-9,    # nothing beats ~1.0 ppl
    )
    baseline = CriteriaScorer(strict_context=False).score_response(dataset[0])
    worse = strict.score_response(dataset[0])
    violated = next(f for f in worse.findings if f.dimension == "perplexity")
    assert not violated.satisfied
    assert worse.score < baseline.score     # one more basic violation


def test_scorer_perplexity_config_validation(coach, tokenizer):
    with pytest.raises(ScoringError):
        CriteriaScorer(perplexity_model=coach.model)    # tokenizer missing
    with pytest.raises(ScoringError):
        CriteriaScorer(
            perplexity_model=coach.model,
            perplexity_tokenizer=tokenizer,
            perplexity_threshold=1.0,
        )


def test_scorer_unscoreable_pair_passes_perplexity(coach, tokenizer):
    scorer = CriteriaScorer(
        strict_context=False,
        perplexity_model=coach.model,
        perplexity_tokenizer=tokenizer,
    )
    too_long = InstructionPair(
        instruction="summarize the text : " + "alpha beta " * 120,
        response="gamma",
    )
    report = scorer.score_response(too_long)
    finding = next(f for f in report.findings if f.dimension == "perplexity")
    assert finding.satisfied and "unscoreable" in finding.note


# -- CoachLM selection + self-review ----------------------------------------------


def test_revise_dataset_top_k_selection(coach, tokenizer, dataset):
    revised, stats = coach.revise_dataset(dataset, revise_top_k=3)
    assert stats.outcomes[RevisionOutcome.NOT_SELECTED.value] == len(dataset) - 3
    verdicts = dataset_ifd(coach.model, tokenizer, list(dataset))
    selected, _ = select_top_k(verdicts, 3)
    full, _ = coach.revise_dataset(dataset)
    for i, (pair, got, exp) in enumerate(zip(dataset, revised, full)):
        if i in selected:
            # Selected pairs get exactly the full-revision treatment.
            assert (got.instruction, got.response) == (
                exp.instruction, exp.response
            )
        else:
            # Unselected pairs pass through untouched.
            assert (got.instruction, got.response) == (
                pair.instruction, pair.response
            )


def test_revise_dataset_self_review_never_keeps_rejected(coach, tokenizer, dataset):
    revised, stats = coach.revise_dataset(dataset, self_review=True)
    assert len(revised) == len(dataset)
    n_reviewed = stats.outcomes.get(
        RevisionOutcome.REVISED.value, 0
    ) + stats.outcomes.get(RevisionOutcome.REVIEW_REJECTED.value, 0)
    for pair, got in zip(dataset, revised):
        before = score_pair_ifd(coach.model, tokenizer, pair)
        after = score_pair_ifd(coach.model, tokenizer, got)
        if (got.instruction, got.response) != (pair.instruction, pair.response):
            # Anything kept by the review loop actually improved.
            assert (
                after.response_perplexity < before.response_perplexity
                or after.ifd < before.ifd
            )
    # Review outcomes only exist where a revision was attempted and scored.
    assert n_reviewed <= len(dataset)


# -- serving: kind-namespaced key-space (satellite regression) --------------------


def test_score_and_revise_keys_never_collide(coach, dataset):
    """The directed kind-collision regression: same content, different
    request kind → different key, no cross-kind dedup or cache hit."""
    pair = dataset[0]
    assert score_key(pair) != revision_key(
        pair, coach.max_new_tokens, coach.copy_bias
    )
    with RevisionServer(coach, ServingConfig(max_batch=2)) as server:
        scored = server.score(pair, timeout=60.0)
        assert scored.outcome == OUTCOME_SCORED
        assert scored.source == SOURCE_ENGINE
        # A revise of the byte-identical content must go to the engine,
        # not be served from the score entry (and vice versa).
        revised = server.revise(pair, timeout=60.0)
        assert revised.source == SOURCE_ENGINE
        assert revised.score is None
        again = server.score(pair, timeout=60.0)
        assert again.source == SOURCE_CACHE
        assert again.score == scored.score


def test_score_cache_entries_not_persisted(dataset):
    cache = RevisionLRUCache(capacity=8)
    cache.put("rev-key", CachedRevision("i", "r", "revised"))
    cache.put("score-key", CachedScore({"ifd": 1.0}, OUTCOME_SCORED))
    rows = cache.export_entries()
    assert [row[0] for row in rows] == ["rev-key"]
    fresh = RevisionLRUCache(capacity=8)
    assert fresh.import_entries(rows) == 1


def test_server_score_parity_and_dedup(coach, tokenizer, dataset):
    pair = dataset[1]
    expected = score_pair_ifd(coach.model, tokenizer, pair).as_dict()
    server = RevisionServer(coach, ServingConfig(max_batch=2))
    futures = [server.submit_score(pair) for _ in range(3)]
    assert server.queue.depth == 1   # one leader, two dedup followers
    with server:
        results = [future.result(timeout=60.0) for future in futures]
    assert Counter(r.source for r in results) == {
        SOURCE_ENGINE: 1, SOURCE_DEDUP: 2,
    }
    for result in results:
        assert result.outcome == OUTCOME_SCORED
        assert result.score == expected
        assert result.pair.response == pair.response    # scoring never rewrites


def test_server_score_too_long_pair(coach):
    too_long = InstructionPair(
        instruction="summarize the text : " + "alpha beta " * 120,
        response="gamma",
    )
    with RevisionServer(coach, ServingConfig(max_batch=2)) as server:
        result = server.score(too_long, timeout=60.0)
        assert result.outcome == RevisionOutcome.PROMPT_TOO_LONG.value
        assert result.score is None
        # The unscoreable verdict is itself cacheable.
        again = server.score(too_long, timeout=60.0)
    assert again.source == SOURCE_CACHE
    assert again.outcome == RevisionOutcome.PROMPT_TOO_LONG.value


def test_http_score_endpoint(coach, tokenizer, dataset):
    server = RevisionServer(coach, ServingConfig(max_batch=4))
    pair = dataset[2]
    expected = score_pair_ifd(coach.model, tokenizer, pair).as_dict()
    with RevisionHTTPFrontend(server) as frontend:
        body = json.dumps(
            {"instruction": pair.instruction, "response": pair.response}
        ).encode()
        request = urllib.request.Request(
            frontend.address + "/score",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            blob = json.load(response)
        assert blob["outcome"] == OUTCOME_SCORED
        assert blob["source"] == SOURCE_ENGINE
        for field in (
            "conditioned_nll", "unconditioned_nll", "ifd",
            "response_perplexity", "n_tokens",
        ):
            assert blob[field] == expected[field]
        assert blob["latency_s"] >= 0

        long_body = json.dumps({
            "instruction": "summarize the text : " + "alpha beta " * 120,
            "response": "gamma",
        }).encode()
        request = urllib.request.Request(
            frontend.address + "/score", data=long_body, method="POST"
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            unscoreable = json.load(response)
        assert unscoreable["outcome"] == RevisionOutcome.PROMPT_TOO_LONG.value
        assert unscoreable["ifd"] is None
