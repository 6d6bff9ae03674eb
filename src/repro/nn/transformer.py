"""A decoder-only transformer language model.

Pre-LN GPT-style architecture: token + learned position embeddings, blocks
of causal multi-head self-attention and a GELU MLP, final LayerNorm, and a
vocabulary head.  Two forward paths:

* the **autograd path** (`forward`, `loss`) used for pre-training, coach
  instruction tuning and downstream instruction tuning;
* the **numpy inference path** (`_forward_numpy`): the float64
  sequential reference (`generate`, `sequence_logprobs`) with a per-layer
  KV cache, verified against the autograd path in the test suite, and
  the float32 packed varlen forward the batched engine
  (:mod:`repro.nn.decoding`) runs every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GenerationError, ModelError
from .modules import ContiguousTranspose, Embedding, LayerNorm, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Architecture hyper-parameters of one tiny LM."""

    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 192
    mlp_ratio: int = 4
    #: Share the token-embedding matrix with the LM head.  Tying improves
    #: small-model copying substantially (the logit geometry matches the
    #: input embedding geometry), which the coach's copy-and-edit task
    #: depends on.
    tie_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ModelError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


class SelfAttention(Module):
    """Causal multi-head self-attention."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        self.config = config
        self.qkv = Linear(config.d_model, 3 * config.d_model, rng)
        self.proj = Linear(config.d_model, config.d_model, rng)

    def __call__(self, x: Tensor, causal_mask: np.ndarray) -> Tensor:
        b, t, d = x.shape
        cfg = self.config
        qkv = self.qkv(x)  # (B, T, 3D)
        qkv = qkv.reshape(b, t, 3, cfg.n_heads, cfg.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, Dh)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / np.sqrt(cfg.head_dim)
        scores = q.matmul(k.transpose(0, 1, 3, 2)) * scale  # (B, H, T, T)
        scores = scores + Tensor(causal_mask[:t, :t])
        attn = scores.softmax()
        out = attn.matmul(v)  # (B, H, T, Dh)
        out = out.transpose(0, 2, 1, 3).reshape(b, t, d)
        return self.proj(out)

    def forward_numpy(
        self,
        x: np.ndarray,
        cache,
        key_mask: np.ndarray | None = None,
        causal_mask: np.ndarray | None = None,
        pack_spans: np.ndarray | None = None,
    ) -> np.ndarray:
        """Inference path; two layouts share the projections.

        * **Sequential** (``pack_spans is None``) — ``x`` is ``(B, T, D)``
          and ``cache`` is ``None`` or the per-layer dict whose K/V grow
          by concatenation (:meth:`TransformerLM.generate`).  The fused
          score pipeline multiplies by a Python-float scale, so under
          NumPy 2 it runs in float64: this is the float64 sequential
          reference the engine's tokens are pinned against.
        * **Packed varlen** (``pack_spans`` given) — ``x`` is one row
          whose token axis concatenates every sequence's new tokens,
          sequence ``i`` owning ``[pack_spans[i], pack_spans[i+1])``:
          the engine's step forward, where decode rows (``q`` tokens
          each: the last produced token plus ``q - 1`` drafted ones) and
          prefill rows (many) share one pass with **zero** pad positions
          entering any projection GEMM.  ``cache`` is the engine's
          per-layer adapter; its ``update(k, v)`` stores the new K/V and
          returns the stacked decode-row keys/values plus each prefill
          row's whole written prefix (see :meth:`_packed_attention`).
          ``key_mask`` (``(n, 1, q, view)``: ``0`` for visible keys,
          ``-1e9`` otherwise) gives each decode query its causal
          horizon.  This path is float32 end to end.

        ``causal_mask`` is an optional precomputed full
        ``(max_seq_len, max_seq_len)`` upper-triangular additive mask;
        when large enough it is *sliced* instead of rebuilding ``np.triu``
        on every call, and single-token queries skip the causal term
        entirely (one query may attend to every cached key).  Masked
        scores contribute exactly ``0.0`` weight after softmax; a packed
        row's logits still differ from a lone-sequence forward in the
        low bits (float32 vs float64 scores, and BLAS kernel selection
        varying with GEMM shapes), which greedy argmax margins dwarf —
        the engine's parity suite pins the tokens.
        """
        b, t, d = x.shape
        cfg = self.config
        qkv = self.qkv.forward_numpy(x).reshape(b, t, 3, cfg.n_heads, cfg.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / np.sqrt(cfg.head_dim)
        if pack_spans is not None:
            ones_k, ones_v, keys, vals = cache.update(k, v)
            out = self._packed_attention(
                q, ones_k, ones_v, keys, vals, scale, causal_mask, key_mask,
                pack_spans,
            )
        else:
            if cache is not None:
                if cache.get("k") is not None:
                    k = np.concatenate([cache["k"], k], axis=2)
                    v = np.concatenate([cache["v"], v], axis=2)
                cache["k"], cache["v"] = k, v
            scores = q @ np.swapaxes(k, -1, -2)  # (B, H, T, Tk)
            scores = scores * scale  # float64 promotion: the reference path
            if t > 1:
                # Query position i (offset by the cached length) may
                # attend to key positions <= i.
                scores = scores + self._causal_slice(causal_mask, t, k.shape[2])
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            out = probs @ v
        out = out.transpose(0, 2, 1, 3).reshape(b, t, d)
        return self.proj.forward_numpy(out)

    @staticmethod
    def _causal_slice(
        causal_mask: np.ndarray | None, t: int, t_k: int
    ) -> np.ndarray:
        """The ``(t, t_k)`` additive causal mask, sliced from the cached
        full-context triangle when available instead of rebuilt."""
        offset = t_k - t
        if (
            causal_mask is not None
            and causal_mask.shape[0] >= t_k
            and causal_mask.shape[1] >= t_k
        ):
            return causal_mask[offset : offset + t, :t_k]
        return np.triu(np.full((t, t_k), -1e9, dtype=np.float32), k=offset + 1)

    def _packed_attention(
        self,
        q: np.ndarray,
        ones_k: np.ndarray | None,
        ones_v: np.ndarray | None,
        keys: list[np.ndarray],
        vals: list[np.ndarray],
        scale: float,
        causal_mask: np.ndarray | None,
        key_mask: np.ndarray | None,
        spans: np.ndarray,
    ) -> np.ndarray:
        """Attention core of a packed varlen batch.

        ``q`` is ``(1, H, T_total, Dh)`` with row ``i``'s query tokens at
        ``[spans[i], spans[i+1])``.  The leading ``n`` rows are the
        *decode* rows, all of the same length ``per`` (one fed token plus
        ``per - 1`` drafted ones), so they own packed positions
        ``[0, n·per)`` and their queries and outputs move by basic slice
        and reshape, not by gather.  Their keys and values arrive stacked
        and *transposed* as ``ones_k``/``ones_v`` — ``(n, H, Dh,
        view)``, the KV mirror's layout — so Q·Kᵀ multiplies straight
        against a unit-stride key axis and P·V reads the values as a
        transposed operand; the whole block runs one fused ``(n, H, per,
        Dh) @ (n, H, Dh, view)`` attention.  ``key_mask`` (``(n, 1, per,
        view)``) shows query ``i`` of row ``r`` exactly the columns
        ``c <= start_r + i``; columns past that (padding up to the
        longest row, stale writes of rejected drafts) get zero weight.
        Plain decode is ``per == 1``.  The remaining *chunk* rows run per
        row over their exact ``keys[j]``/``vals[j]`` prefixes (``(H, Dh,
        t_k)``, same layout) — no pad column anywhere, each chunk's
        causal slice starts at its global offset ``t_k - valid``, and
        every score temporary stays at the cache-friendly
        single-sequence size.

        The softmax is arranged for the fewest passes over the scores:
        the ``1/√Dh`` scale goes into a contiguous copy of the queries
        (``Dh`` columns per query, not ``view``), the row max is one
        ``np.fmax.reduce``, and the row sums divide the ``P·V`` output
        (``Dh`` columns) rather than the probabilities.  The pipeline
        stays in float32 with in-place updates.
        """
        _, n_heads, t_total, head_dim = q.shape
        scale32 = np.float32(scale)
        out = np.empty((1, n_heads, t_total, head_dim), dtype=np.float32)
        ones = 0 if ones_k is None else ones_k.shape[0]
        if ones:
            # (n, H, per, Dh): decode rows own packed positions [0, n·per),
            # row r's queries at [r·per, (r+1)·per).
            per = int(spans[1])
            width = ones * per
            q_ones = np.empty((ones, n_heads, per, head_dim), dtype=np.float32)
            np.multiply(
                q[0, :, :width, :].reshape(n_heads, ones, per, head_dim)
                .transpose(1, 0, 2, 3),
                scale32,
                out=q_ones,
            )
            scores = q_ones @ ones_k
            scores += key_mask
            scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-1, keepdims=True)
            mixed = scores @ np.swapaxes(ones_v, -1, -2)
            mixed /= total
            out[0, :, :width, :] = mixed.transpose(1, 0, 2, 3).reshape(
                n_heads, width, head_dim
            )
        for row in range(ones, len(spans) - 1):
            s, e = int(spans[row]), int(spans[row + 1])
            valid = e - s
            k_row, v_row = keys[row - ones], vals[row - ones]
            scores = (q[0, :, s:e, :] * scale32) @ k_row
            if valid > 1:
                scores += self._causal_slice(causal_mask, valid, k_row.shape[2])
            scores -= np.fmax.reduce(scores, axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            total = scores.sum(axis=-1, keepdims=True)
            mixed = scores @ np.swapaxes(v_row, -1, -2)
            mixed /= total
            out[0, :, s:e, :] = mixed
        return out


class MLP(Module):
    """Two-layer GELU feed-forward block."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        hidden = config.mlp_ratio * config.d_model
        self.fc_in = Linear(config.d_model, hidden, rng)
        self.fc_out = Linear(hidden, config.d_model, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc_out(self.fc_in(x).gelu())

    def forward_numpy(self, x: np.ndarray) -> np.ndarray:
        h = self.fc_in.forward_numpy(x)
        # tanh-approximate GELU, in place on fc_in's fresh output, with
        # the operation order of 0.5 * h * (1 + tanh(c * (h + 0.044715 * h^3))).
        c = np.float32(np.sqrt(2.0 / np.pi))
        u = h * h
        u *= h
        u *= 0.044715
        u += h
        u *= c
        np.tanh(u, out=u)
        u += 1.0
        h *= 0.5
        h *= u
        return self.fc_out.forward_numpy(h)


class Block(Module):
    """Pre-LN transformer block."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        self.ln1 = LayerNorm(config.d_model)
        self.attn = SelfAttention(config, rng)
        self.ln2 = LayerNorm(config.d_model)
        self.mlp = MLP(config, rng)

    def __call__(self, x: Tensor, causal_mask: np.ndarray) -> Tensor:
        x = x + self.attn(self.ln1(x), causal_mask)
        x = x + self.mlp(self.ln2(x))
        return x

    def forward_numpy(
        self,
        x: np.ndarray,
        cache,
        key_mask: np.ndarray | None = None,
        causal_mask: np.ndarray | None = None,
        pack_spans: np.ndarray | None = None,
    ) -> np.ndarray:
        x = x + self.attn.forward_numpy(
            self.ln1.forward_numpy(x), cache, key_mask, causal_mask, pack_spans
        )
        x = x + self.mlp.forward_numpy(self.ln2.forward_numpy(x))
        return x


class TransformerLM(Module):
    """Decoder-only LM with training and cached-inference paths."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        self.config = config
        self.tok_emb = Embedding(config.vocab_size, config.d_model, rng)
        self.pos_emb = Embedding(config.max_seq_len, config.d_model, rng)
        self.blocks = [Block(config, rng) for _ in range(config.n_layers)]
        self.ln_f = LayerNorm(config.d_model)
        self.head = (
            None if config.tie_embeddings
            else Linear(config.d_model, config.vocab_size, rng, bias=False)
        )
        self._causal_mask = np.triu(
            np.full((config.max_seq_len, config.max_seq_len), -1e9, dtype=np.float32),
            k=1,
        )
        #: The tied head's C-contiguous ``(D, V)`` copy of the token
        #: embedding (see :meth:`Linear.forward_numpy` for why).
        self._head_t = ContiguousTranspose()

    # -- training path -----------------------------------------------------------
    def forward(self, idx: np.ndarray) -> Tensor:
        """Logits for a batch of token ids (B, T) → Tensor (B, T, V)."""
        idx = np.asarray(idx)
        b, t = idx.shape
        if t > self.config.max_seq_len:
            raise ModelError(
                f"sequence length {t} exceeds context {self.config.max_seq_len}"
            )
        positions = np.arange(t)
        x = self.tok_emb(idx) + self.pos_emb(positions)
        for block in self.blocks:
            x = block(x, self._causal_mask)
        x = self.ln_f(x)
        if self.head is None:
            return x.reshape(b * t, self.config.d_model).matmul(
                self.tok_emb.weight.transpose()
            ).reshape(b, t, self.config.vocab_size)
        return self.head(x)

    def loss(
        self,
        idx: np.ndarray,
        targets: np.ndarray,
        loss_mask: np.ndarray,
    ) -> Tensor:
        """Masked next-token loss — Eq. (1): P(RESPONSE | INSTRUCTION)."""
        logits = self.forward(idx)
        b, t, v = logits.shape
        return logits.reshape(b * t, v).cross_entropy(
            np.asarray(targets).reshape(b * t),
            np.asarray(loss_mask, dtype=np.float32).reshape(b * t),
        )

    # -- inference path ------------------------------------------------------------
    def _forward_numpy(
        self,
        idx: np.ndarray,
        caches: list | None,
        position_offset: int = 0,
        key_mask: np.ndarray | None = None,
        pack_spans: np.ndarray | None = None,
        token_positions: np.ndarray | None = None,
        logit_positions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Inference forward.

        ``position_offset`` is the position of ``idx``'s first column,
        shared by every row (the sequential path).  ``token_positions``
        instead gives every token's position explicitly, same shape as
        ``idx`` — required by the packed varlen layout (``pack_spans``),
        where one row concatenates many sequences at unrelated depths.
        ``key_mask`` and ``pack_spans`` are forwarded to every attention
        layer (see :meth:`SelfAttention.forward_numpy`).
        ``logit_positions`` is an index array gathering exactly the token
        positions whose logits are consumed, so the final norm and the
        full-vocab head GEMM — over a whole prompt the single largest
        matmul of the forward — run only there; the return value is then
        ``(B, len(logit_positions), V)``.  Teacher-forced scoring passes
        the completion-predicting positions; the engine passes every
        decode-row position (each verifies a drafted token) plus each
        prefill row's last token.
        """
        idx = np.asarray(idx)
        b, t = idx.shape
        if token_positions is not None:
            positions = token_positions
            last_position = int(token_positions.max()) if t else 0
        else:
            positions = np.arange(position_offset, position_offset + t)
            last_position = position_offset + t - 1
        if last_position >= self.config.max_seq_len:
            raise GenerationError(
                f"position {last_position} exceeds context "
                f"{self.config.max_seq_len}"
            )
        x = self.tok_emb.forward_numpy(idx) + self.pos_emb.forward_numpy(positions)
        for i, block in enumerate(self.blocks):
            x = block.forward_numpy(
                x,
                caches[i] if caches is not None else None,
                key_mask,
                self._causal_mask,
                pack_spans,
            )
        if logit_positions is not None:
            x = x[:, logit_positions, :]
        x = self.ln_f.forward_numpy(x)
        if self.head is None:
            return x @ self._head_t(self.tok_emb.weight)
        return self.head.forward_numpy(x)

    def generate(
        self,
        prompt_ids: list[int],
        max_new_tokens: int,
        eos_id: int | None = None,
        top_k: int | None = None,
        rng: np.random.Generator | None = None,
        logit_bias: np.ndarray | None = None,
    ) -> list[int]:
        """Decode a continuation of ``prompt_ids`` with a KV cache.

        Greedy decoding by default ("the beam size for decoding was set to
        one for all models" — Section III-A3); pass ``top_k`` and ``rng``
        for stochastic sampling.  ``logit_bias`` is an optional (V,) array
        added to every step's logits — used by CoachLM's copy-biased
        decoding (a pointer-network-style stand-in for the reliable
        long-span copying a billion-parameter model has natively).
        """
        if not prompt_ids:
            raise GenerationError("prompt must contain at least one token")
        self.check_token_ids(prompt_ids, "prompt")
        if top_k is not None and rng is None:
            raise GenerationError("top_k sampling requires an rng")
        if logit_bias is not None and logit_bias.shape != (self.config.vocab_size,):
            raise GenerationError(
                f"logit_bias must have shape ({self.config.vocab_size},)"
            )
        budget = self.config.max_seq_len - len(prompt_ids)
        max_new_tokens = min(max_new_tokens, budget)
        if max_new_tokens <= 0:
            return []

        caches: list[dict] = [{"k": None, "v": None} for _ in self.blocks]
        idx = np.asarray([prompt_ids], dtype=np.int64)
        logits = self._forward_numpy(idx, caches)[:, -1, :]
        produced: list[int] = []
        offset = len(prompt_ids)
        for _ in range(max_new_tokens):
            step_logits = logits[0]
            if logit_bias is not None:
                step_logits = step_logits + logit_bias
            if top_k is not None:
                token = _sample_top_k(step_logits, top_k, rng)
            else:
                token = int(step_logits.argmax())
            produced.append(token)
            if eos_id is not None and token == eos_id:
                break
            logits = self._forward_numpy(
                np.asarray([[token]], dtype=np.int64), caches, position_offset=offset
            )[:, -1, :]
            offset += 1
        return produced

    def check_token_ids(self, ids, what: str) -> None:
        """Raise :class:`GenerationError` unless every id is in ``[0, V)``.

        The inference forward indexes the embedding table directly, so
        an out-of-range id would wrap (negative) or raise a raw
        ``IndexError`` mid-step; callers check once at intake instead.
        """
        vocab = self.config.vocab_size
        if len(ids) and (min(ids) < 0 or max(ids) >= vocab):
            raise GenerationError(
                f"{what} token ids must lie in [0, {vocab}); "
                f"got min {min(ids)}, max {max(ids)}"
            )

    def logits_numpy(self, idx: np.ndarray) -> np.ndarray:
        """Full-sequence logits on the inference path (no cache)."""
        return self._forward_numpy(np.asarray(idx), caches=None)

    def sequence_logprobs(
        self, prompt_ids: list[int], completion_ids: list[int]
    ) -> np.ndarray:
        """Teacher-forced per-token log P(completion | prompt), float64 ``(S,)``.

        One cache-free forward over ``prompt + completion`` at the
        lone-sequence ``(1, T)`` shape; ``logit_positions`` restricts the
        final norm + full-vocab head to exactly the ``len(completion)``
        positions that *predict* a completion token (position ``i``
        predicts token ``i + 1``), so the head GEMM never touches the
        prompt interior.  Entry ``j`` is ``log P(completion[j] |
        prompt + completion[:j])`` under a numerically stable float64
        log-softmax.

        This is the sequential scoring **reference**:
        :meth:`BatchedEngine.score` routes every scoring job through this
        exact method (batching happens at the scheduling layer, never
        inside a trunk GEMM), because BLAS kernel selection varies with
        GEMM shapes — a batched row's logits differ from a lone-sequence
        forward in the last ulp, which greedy decoding shrugs off but a
        bitwise-pinned score must not.
        """
        if not prompt_ids:
            raise GenerationError("scoring needs a non-empty prompt")
        if not completion_ids:
            raise GenerationError("scoring needs a non-empty completion")
        self.check_token_ids(prompt_ids, "prompt")
        self.check_token_ids(completion_ids, "completion")
        tokens = list(prompt_ids) + list(completion_ids)
        if len(tokens) > self.config.max_seq_len:
            raise GenerationError(
                f"sequence length {len(tokens)} exceeds context "
                f"{self.config.max_seq_len}"
            )
        idx = np.asarray([tokens], dtype=np.int64)
        positions = np.arange(len(prompt_ids) - 1, len(tokens) - 1)
        logits = self._forward_numpy(idx, caches=None, logit_positions=positions)
        targets = np.asarray(completion_ids, dtype=np.int64)
        return _token_logprobs(logits[0], targets)

    def clone(self) -> "TransformerLM":
        """Deep copy: same config, copied weights, fresh tape."""
        twin = TransformerLM(self.config, np.random.default_rng(0))
        twin.load_state_dict(self.state_dict())
        return twin


def _token_logprobs(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Stable log-softmax gather: ``log P(targets[i])`` from ``logits[i]``.

    Promotes to float64 before the reduction so the summed sequence
    logprob (and the perplexity derived from it) is reproducible to the
    last bit regardless of the float32 logits' dynamic range.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
    rows = np.arange(logits.shape[0])
    return logits[rows, targets] - lse


def _sample_top_k(logits: np.ndarray, k: int, rng: np.random.Generator) -> int:
    k = min(k, logits.shape[-1])
    top = np.argpartition(logits, -k)[-k:]
    top_logits = logits[top] - logits[top].max()
    probs = np.exp(top_logits)
    probs /= probs.sum()
    return int(top[rng.choice(k, p=probs)])
