"""Text-level facade over the batched decoding engine.

Inference engine
----------------

:class:`repro.nn.decoding.BatchedEngine` works in token-id space; this
module binds it to a :class:`WordTokenizer` so pipeline stages can hand
over plain strings.  :class:`TextEngine` owns one model + tokenizer and

* ``complete(prompts)`` — decode continuations for pre-encoded prompts;
* ``respond(instructions)`` — wrap instructions in the Alpaca template
  (with the same context-window truncation as the sequential
  :func:`repro.llm.generation.generate_response`) and decode responses;
* ``submit(text)`` / ``pump()`` / ``respond_iter(instructions)`` — the
  streaming counterparts over the engine's incremental
  ``submit``/``step``/``collect`` API: responses surface in *completion*
  order as slots retire, which is what the serving layer builds on.

All paths are EOS-terminated and token-identical to their sequential
counterparts — greedy by default, or seeded top-k sampling when
``top_k`` is passed (each sequence draws from its own spawned rng
stream, matching :meth:`TransformerLM.generate` under the same seed);
the fleet advances ``batch_size`` sequences per forward pass with
continuous slot refill, ``prefill_chunk_tokens`` bounds how long a
refill prompt may stall in-flight decodes, and ``prefill_concurrency``
lets that many refill prompts advance their chunked prefill together,
each chunk a row of the step's one packed forward (see
:class:`~repro.nn.decoding.BatchedEngine`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..config import DEFAULT_GEN_BATCH_SIZE as DEFAULT_BATCH_SIZE
from ..config import DEFAULT_KV_PAGE_TOKENS
from ..nn.decoding import BatchedEngine, GenerationRequest
from ..nn.transformer import TransformerLM
from .prompts import encode_truncated_instruction_prompt
from .tokenizer import WordTokenizer


class TextEngine:
    """Batched text generation bound to one (model, tokenizer)."""

    def __init__(
        self,
        model: TransformerLM,
        tokenizer: WordTokenizer,
        batch_size: int = DEFAULT_BATCH_SIZE,
        prefill_chunk_tokens: int | None = None,
        prefill_concurrency: int = 1,
        kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS,
    ):
        self.model = model
        self.tokenizer = tokenizer
        self.engine = BatchedEngine(
            model,
            max_batch=batch_size,
            prefill_chunk_tokens=prefill_chunk_tokens,
            prefill_concurrency=prefill_concurrency,
            kv_page_tokens=kv_page_tokens,
        )

    @staticmethod
    def _sampling_rngs(
        n: int, top_k: int | None, seed: int | None
    ) -> list[np.random.Generator | None]:
        """One private rng stream per sequence when sampling, else Nones."""
        if top_k is None:
            return [None] * n
        return [
            np.random.default_rng(ss)
            for ss in np.random.SeedSequence(seed).spawn(n)
        ]

    def complete(
        self,
        prompts: list[list[int]],
        max_new_tokens: int,
        top_k: int | None = None,
        seed: int | None = None,
    ) -> list[list[int]]:
        """EOS-terminated continuations for pre-encoded prompts.

        Greedy by default; with ``top_k`` each prompt samples from its
        own rng stream spawned off ``seed``, so results are reproducible
        and independent of batch composition.
        """
        eos = self.tokenizer.specials.eos
        rngs = self._sampling_rngs(len(prompts), top_k, seed)
        return self.engine.generate(
            [
                GenerationRequest(
                    prompt, max_new_tokens, eos_id=eos, top_k=top_k, rng=rng
                )
                for prompt, rng in zip(prompts, rngs)
            ]
        )

    def respond(
        self,
        instructions: list[str],
        max_new_tokens: int = 48,
        top_k: int | None = None,
        seed: int | None = None,
    ) -> list[str]:
        """Responses to a batch of instructions (Alpaca template)."""
        context = self.model.config.max_seq_len
        prompts = [
            encode_truncated_instruction_prompt(self.tokenizer, text, context)
            for text in instructions
        ]
        return [
            self.tokenizer.decode(out)
            for out in self.complete(prompts, max_new_tokens, top_k, seed)
        ]

    # -- streaming ---------------------------------------------------------------
    def submit(
        self, instruction: str, max_new_tokens: int = 48, priority: int = 0
    ) -> int:
        """Enqueue one instruction (Alpaca template); returns its sequence id.

        The request joins the decode fleet at the next :meth:`pump`, in
        the first free or retiring slot — it does not wait for the
        in-flight batch to drain.  ``priority`` orders admission (smaller
        is more urgent) and, when the engine has preemption enabled,
        marks which in-flight decodes a more urgent arrival may evict.
        """
        context = self.model.config.max_seq_len
        prompt = encode_truncated_instruction_prompt(
            self.tokenizer, instruction, context
        )
        return self.engine.submit(
            GenerationRequest(
                prompt, max_new_tokens, eos_id=self.tokenizer.specials.eos,
                priority=priority,
            )
        )

    def pump(self) -> dict[int, str]:
        """Advance the fleet one step; return newly finished ``{id: text}``.

        The caller must be the engine's only driver (see
        :class:`~repro.nn.decoding.BatchedEngine` on thread-safety).
        """
        self.engine.step()
        return {
            seq_id: self.tokenizer.decode(tokens)
            for seq_id, tokens in self.engine.collect().items()
        }

    def respond_iter(
        self, instructions: list[str], max_new_tokens: int = 48
    ) -> Iterator[tuple[int, str]]:
        """Yield ``(input_index, response)`` in completion order."""
        index_of = {
            self.submit(text, max_new_tokens): i
            for i, text in enumerate(instructions)
        }
        remaining = len(index_of)
        while remaining:
            for seq_id, text in self.pump().items():
                if seq_id not in index_of:
                    # Residue from an earlier abandoned iterator on this
                    # engine: its caller is gone, drop the result.
                    continue
                remaining -= 1
                yield index_of[seq_id], text
