"""Response generation for tuned LLM simulacra."""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_GEN_BATCH_SIZE, DEFAULT_KV_PAGE_TOKENS
from ..data.instruction_pair import InstructionPair, Origin
from ..nn.transformer import TransformerLM
from ..textgen.tasks import TaskInstance
from .prompts import encode_truncated_instruction_prompt
from .tokenizer import WordTokenizer


def generate_response(
    model: TransformerLM,
    tokenizer: WordTokenizer,
    instruction: str,
    max_new_tokens: int = 48,
) -> str:
    """Greedy-decode a response to one instruction (beam size 1)."""
    prompt = encode_truncated_instruction_prompt(
        tokenizer, instruction, model.config.max_seq_len
    )
    out = model.generate(
        prompt, max_new_tokens=max_new_tokens, eos_id=tokenizer.specials.eos
    )
    return tokenizer.decode(out)


def generate_responses(
    model: TransformerLM,
    tokenizer: WordTokenizer,
    instructions: list[str],
    provenances: list[TaskInstance | None] | None = None,
    max_new_tokens: int = 48,
    batch_size: int = DEFAULT_GEN_BATCH_SIZE,
    kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS,
) -> list[InstructionPair]:
    """Generate responses for a list of instructions.

    Decoding runs through the batched engine (``batch_size`` sequences
    per forward pass, packed prefill, continuous slot refill)
    and is token-identical to calling :func:`generate_response` per
    instruction.  Returns model-generated pairs carrying the test items'
    provenance so the judges can run oracle checks against them.
    """
    from .engine import TextEngine

    if provenances is None:
        provenances = [None] * len(instructions)
    engine = TextEngine(
        model, tokenizer, batch_size=batch_size, kv_page_tokens=kv_page_tokens
    )
    responses = engine.respond(instructions, max_new_tokens=max_new_tokens)
    return [
        InstructionPair(
            instruction=instruction,
            response=response,
            provenance=provenance,
            origin=Origin.MODEL_GENERATED,
        )
        for instruction, response, provenance in zip(
            instructions, responses, provenances
        )
    ]
