"""Instruction-Following Difficulty (IFD) of instruction pairs.

Reflection-Tuning's selection metric: teacher-force the response twice —
once conditioned on its instruction (the exact Alpaca training prompt of
:func:`repro.llm.prompts.encode_instruction_example`) and once with the
instruction stripped (just the ``response :`` template cue) — and take
the ratio of the two mean per-token NLLs::

    IFD(pair) = NLL(response | instruction) / NLL(response)

An IFD near 1 means the instruction contributes nothing to predicting
the response; above 1 it actively *hurts* (misaligned pair); well below
1 the pair is already easy.  Selection spends revision tokens on the
highest-IFD pairs first.

Both directions use the same completion tokenization as training
(response tokens + ``<eos>``), so conditioned NLL here is exactly the
masked loss of :mod:`repro.nn.trainer` on that example.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DEFAULT_KV_PAGE_TOKENS
from ..data.instruction_pair import InstructionPair
from ..errors import GenerationError
from ..llm.prompts import _ids, encode_instruction_prompt
from ..llm.tokenizer import WordTokenizer
from ..nn.decoding import BatchedEngine, ScoringRequest, SequenceScore
from ..nn.transformer import TransformerLM


@dataclass(frozen=True)
class PairIFD:
    """IFD verdict for one pair, with the raw quantities it derives from."""

    conditioned_nll: float    #: mean per-token NLL of response given instruction
    unconditioned_nll: float  #: mean per-token NLL of response alone
    ifd: float                #: conditioned_nll / unconditioned_nll
    response_perplexity: float  #: exp(conditioned_nll)
    n_tokens: int             #: scored completion tokens (response + eos)

    def as_dict(self) -> dict:
        """JSON-safe payload (serving results, cache entries)."""
        return {
            "conditioned_nll": self.conditioned_nll,
            "unconditioned_nll": self.unconditioned_nll,
            "ifd": self.ifd,
            "response_perplexity": self.response_perplexity,
            "n_tokens": self.n_tokens,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PairIFD":
        return cls(
            conditioned_nll=float(payload["conditioned_nll"]),
            unconditioned_nll=float(payload["unconditioned_nll"]),
            ifd=float(payload["ifd"]),
            response_perplexity=float(payload["response_perplexity"]),
            n_tokens=int(payload["n_tokens"]),
        )


def _completion_ids(tokenizer: WordTokenizer, pair: InstructionPair) -> list[int]:
    # Exactly the training-example completion: response tokens + <eos>.
    return _ids(tokenizer, pair.response) + [tokenizer.specials.eos]


def conditioned_request(
    tokenizer: WordTokenizer, pair: InstructionPair
) -> ScoringRequest:
    """Score the response under the full Alpaca instruction prompt."""
    return ScoringRequest(
        prompt_ids=encode_instruction_prompt(tokenizer, pair.instruction),
        completion_ids=_completion_ids(tokenizer, pair),
    )


def unconditioned_request(
    tokenizer: WordTokenizer, pair: InstructionPair
) -> ScoringRequest:
    """Score the response with the instruction stripped from the prompt.

    Keeps the ``response :`` template cue so the only difference from the
    conditioned pass is the instruction itself — the quantity IFD divides
    out is "how predictable is this response as generic model text".
    """
    sp = tokenizer.specials
    return ScoringRequest(
        prompt_ids=[sp.bos] + _ids(tokenizer, "response :"),
        completion_ids=_completion_ids(tokenizer, pair),
    )


def pair_ifd(conditioned: SequenceScore, unconditioned: SequenceScore) -> PairIFD:
    """Combine the two teacher-forced passes into one verdict."""
    cond = conditioned.mean_nll
    uncond = unconditioned.mean_nll
    if uncond <= 0.0:
        # A zero/negative NLL means the response is fully predictable
        # with no instruction at all; the ratio degenerates, so pin the
        # pair as maximally easy rather than dividing by ~0.
        ratio = 0.0
    else:
        ratio = cond / uncond
    return PairIFD(
        conditioned_nll=cond,
        unconditioned_nll=uncond,
        ifd=ratio,
        response_perplexity=conditioned.perplexity,
        n_tokens=conditioned.n_tokens,
    )


def score_pair_ifd(
    model: TransformerLM, tokenizer: WordTokenizer, pair: InstructionPair
) -> PairIFD:
    """Sequential IFD of one pair (the non-engine reference path).

    Raises :class:`~repro.errors.GenerationError` when either pass would
    exceed the model context.
    """
    cond = conditioned_request(tokenizer, pair)
    uncond = unconditioned_request(tokenizer, pair)
    return pair_ifd(
        SequenceScore(model.sequence_logprobs(cond.prompt_ids, cond.completion_ids)),
        SequenceScore(
            model.sequence_logprobs(uncond.prompt_ids, uncond.completion_ids)
        ),
    )


def dataset_ifd(
    model: TransformerLM,
    tokenizer: WordTokenizer,
    pairs: list[InstructionPair],
    batch_size: int = 16,
    kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS,
) -> list[PairIFD | None]:
    """IFD for every pair via one :meth:`BatchedEngine.score` pass.

    Pairs whose conditioned pass would not fit the model context come
    back as ``None`` (unscoreable — selection ranks them last).  Results
    are bitwise-identical to :func:`score_pair_ifd` per pair.
    """
    requests: list[ScoringRequest] = []
    scoreable: list[int] = []
    limit = model.config.max_seq_len
    for i, pair in enumerate(pairs):
        cond = conditioned_request(tokenizer, pair)
        uncond = unconditioned_request(tokenizer, pair)
        if len(cond.prompt_ids) + len(cond.completion_ids) > limit:
            continue
        if not pair.response:
            continue
        requests.extend((cond, uncond))
        scoreable.append(i)
    results: list[PairIFD | None] = [None] * len(pairs)
    if not requests:
        return results
    engine = BatchedEngine(
        model, max_batch=batch_size, kv_page_tokens=kv_page_tokens
    )
    scores = engine.score(requests)
    for slot, i in enumerate(scoreable):
        results[i] = pair_ifd(scores[2 * slot], scores[2 * slot + 1])
    return results


def check_scoreable(
    model: TransformerLM, tokenizer: WordTokenizer, pair: InstructionPair
) -> None:
    """Raise :class:`GenerationError` unless both IFD passes fit context."""
    if not pair.response:
        raise GenerationError("scoring needs a non-empty response")
    cond = conditioned_request(tokenizer, pair)
    if len(cond.prompt_ids) + len(cond.completion_ids) > model.config.max_seq_len:
        raise GenerationError(
            "pair exceeds the model context for teacher-forced scoring"
        )
