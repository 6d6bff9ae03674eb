"""A from-scratch neural-network substrate on numpy.

The paper fine-tunes 6-7B parameter LLMs with LoRA on A100 GPUs; this
environment has neither the weights nor the hardware, so we implement the
whole stack at laptop scale (DESIGN.md §2):

* :mod:`repro.nn.tensor` — reverse-mode autograd over numpy arrays;
* :mod:`repro.nn.modules` — Module/Linear/Embedding/LayerNorm;
* :mod:`repro.nn.transformer` — a decoder-only transformer LM with causal
  attention, an autograd training path and a fast numpy inference path
  with KV caching;
* :mod:`repro.nn.decoding` — batched decoding engine: one packed
  varlen forward per step whose rows are whole prompts, prefill chunks
  (streaming late-joins) and one-token decodes, a paged KV pool
  (fixed-size pages, block tables, memory that scales with live
  tokens), continuous batching with slot retirement/refill,
  per-sequence logit biases, and in-engine seeded top-k sampling;
* :mod:`repro.nn.lora` — Low-Rank Adaptation [Hu et al. 2021] with
  freeze/merge semantics, as the paper uses for coach instruction tuning;
* :mod:`repro.nn.optim` — Adam, LR schedules, gradient clipping;
* :mod:`repro.nn.trainer` — masked-loss training on (prompt, completion)
  sequences: exactly Eq. (1) of the paper, maximising the likelihood of
  RESPONSE tokens conditioned on the INSTRUCTION.
"""

from .tensor import Tensor, no_grad
from .modules import Embedding, LayerNorm, Linear, Module
from .transformer import TransformerConfig, TransformerLM
from .decoding import (
    BatchedEngine,
    GenerationRequest,
    InductionCopyBias,
    PagedKVCaches,
    ScoringRequest,
    SequenceScore,
)
from .lora import LoRALinear, apply_lora, lora_parameters, merge_lora
from .optim import Adam, clip_grad_norm, cosine_schedule
from .trainer import LMTrainer, TrainExample, TrainStats

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "TransformerConfig",
    "TransformerLM",
    "BatchedEngine",
    "GenerationRequest",
    "InductionCopyBias",
    "PagedKVCaches",
    "ScoringRequest",
    "SequenceScore",
    "LoRALinear",
    "apply_lora",
    "merge_lora",
    "lora_parameters",
    "Adam",
    "clip_grad_norm",
    "cosine_schedule",
    "LMTrainer",
    "TrainExample",
    "TrainStats",
]
