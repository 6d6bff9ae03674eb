"""Batched decoding engine over :class:`TransformerLM`.

Inference engine
----------------

The sequential path (:meth:`TransformerLM.generate`) spends one full
forward pass per token per sequence; on the numpy backend every decode
step is a handful of tiny GEMMs whose cost is dominated by per-call
overhead.  This module amortises that overhead across a *fleet* of
sequences — the shape of both heavy stages of the pipeline (Eq. (2)
dataset revision over the whole ALPACA52K simulacrum, and Table IX test
set response generation).

Engine phases
~~~~~~~~~~~~~

Every :meth:`BatchedEngine.step` runs **one packed varlen forward**
(:meth:`TransformerLM._forward_numpy` with ``pack_spans``): the new
tokens of every row are concatenated on one token axis, so no pad
position enters any projection GEMM, and each row attends over its own
written KV prefix.  A row has one of two shapes, and a mixed step
carries both:

1. **Prefill rows** — pending prompts are *parked* in free slots just
   past the decode fleet.  While the fleet is idle a parked row feeds
   its whole remaining prompt as one row; with a fleet already
   decoding, every parked row advances by at most one
   ``prefill_chunk_tokens`` chunk per step, so a late-arriving long
   prompt delays in-flight decodes by a bounded chunk rather than a
   whole prompt-length forward, and a burst of late arrivals prefills
   concurrently instead of serializing behind one admission slot.  A
   row that consumed its last prompt token joins the decode fleet and
   selects its first token from this forward's last-token logits.
2. **Decode rows** — every active sequence feeds ``q`` tokens at
   depths ``lengths[b] .. lengths[b] + q - 1``: its last produced token,
   then ``q - 1`` tokens *drafted* by prompt lookup (see below).  The
   decode rows share one fused masked sub-attention over a stacked KV
   view, with query ``i`` of row ``b`` seeing columns up to
   ``lengths[b] + i``; plain one-token decode is ``q = 1`` of the same
   code.  Token selection verifies the drafts position by position:
   each row keeps the longest prefix greedy selection agrees with, plus
   one bonus token.

Speculative decoding
~~~~~~~~~~~~~~~~~~~~

A coach revision is mostly a copy of its input, so the continuation of
a sequence is usually already written somewhere in its own prompt or
output.  Each greedy decode row carries a prompt-lookup drafter
(:class:`_PromptLookup`, reference-copy decoding in the style of LLMA,
arXiv 2304.04487): it copies up to :data:`_DRAFT_TOKENS` tokens from
where the row's last bigram (falling back to its last token) occurred
before.  A step on which no greedy row finds either runs ``q = 1``.
The drafts are verified inside the step's one packed forward
— the same forward plain decode runs, with ``q`` query positions per
row instead of one (speculative decoding, arXiv 2211.17192).  Position
``i`` is accepted only if every earlier position matched its draft, so
a row's hooks see exactly the sequential ``produced`` list and greedy
output is token-identical by construction.  ``q`` is uniform per step
and clipped so every write stays inside the row's reserved page quota
and below ``max_seq_len``; a row with fewer drafted tokens feeds filler
that verification simply does not keep.  Sampled (``top_k``) rows keep
exactly one token per step, drawn from position 0, so their rng
streams stay draw-for-draw equal to :meth:`TransformerLM.generate`.
Columns written for rejected tokens stay masked until the next step
overwrites them; they are never registered in the prefix index.

A sequence that hits EOS (or its token budget) retires immediately and
its slot is compacted away (swap-with-last), so stragglers never pay
for dead slots (continuous batching).  A freed slot is refilled by the
next step's admission, which keeps the one-chunk-per-step stall bound:
every step runs exactly one forward.

KV storage
~~~~~~~~~~

K/V live in one paged pool (:class:`PagedKVCaches`): fixed-size *pages*
(``kv_page_tokens`` tokens each, :data:`~repro.config.DEFAULT_KV_PAGE_TOKENS`
by default) drawn from one shared free list; each slot owns a *block
table* of page ids shared by every layer.  Pages are allocated on
demand as prefill and decode write tokens and return to the free list
on retire or cancel, so resident memory scales with **live tokens**,
not with ``max_batch × max_seq_len``; storage itself grows lazily in
small extents up to ``kv_pool_pages``.  Compaction (``move`` /
``move_prefix`` / ``permute_prefixes``) is an O(1) block-table move.
Admission reserves each sequence's worst-case page quota
(``ceil((prompt+budget)/page)``) up front: when the pool cannot cover a
request it simply stays pending until pages free up — deadlock-free
because a lone sequence always fits (enforced at construction) — and
the serving layer surfaces the shrinking ``free_pages`` headroom through
``/metrics`` before admission control starts returning 429s.  Attention
reads a contiguous per-slot mirror of each row's pages; a row whose
mirror lags (moved by compaction, reattached after preemption) catches
up with one fancy-index gather per layer.  Every page size decodes the
same tokens — the fuzz harness pins page sizes {1, 3, 16, 64} and one
page per sequence (``kv_page_tokens = max_seq_len``).

* **Streaming intake.**  The same machinery is exposed incrementally —
  ``submit()`` enqueues a request at any time, ``step()`` advances the
  fleet one verify step (one or more tokens per row), ``collect()``
  drains finished results — so callers
  serving requests that arrive over time (:mod:`repro.serving`) can slip
  new work into retiring slots mid-flight; ``generate()`` is the
  run-to-completion loop layered on top.
* **Per-sequence logit bias.**  Each request carries an optional static
  ``(V,)`` bias — together they form the batch's ``(B, V)`` bias matrix —
  plus an optional per-step hook for dynamic biases
  (:class:`InductionCopyBias` implements CoachLM's copy-assist with a
  prompt index precomputed once instead of an O(prompt) scan per step).
* **In-engine sampling.**  Decoding is greedy by default (the paper sets
  beam size to one for all models); a request may instead carry
  ``top_k`` plus its own seeded rng stream, reproducing
  :meth:`TransformerLM.generate`'s top-k sampling inside the batch — a
  request's draws depend only on its own rng, never on its batch-mates.

The engine's forward is float32 end to end, while the sequential
reference (:meth:`TransformerLM.generate`) scores attention in float64,
and batched GEMMs round differently from single-row GEMMs at the last
ulp: engine logits are therefore not bit-identical to the sequential
path's.  Greedy argmax margins are many orders of magnitude wider, and
the test suite pins token-for-token parity with the sequential path on
every edge case (ragged prompts, EOS at different steps,
prompt-too-long, per-sequence biases, chunk sizes from one token to the
whole prompt, seeded top-k, preemption).
"""

from __future__ import annotations

import heapq

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import (
    DEFAULT_GEN_BATCH_SIZE,
    DEFAULT_KV_PAGE_TOKENS,
    DEFAULT_PREFILL_CHUNK_TOKENS,
)
from ..errors import GenerationError
from .transformer import TransformerLM, _sample_top_k

#: Additive mask value for invalid key slots (matches the causal mask).
_NEG_INF = np.float32(-1e9)

#: Most tokens a greedy decode row drafts per step (``q - 1``).
_DRAFT_TOKENS = 3


@dataclass
class GenerationRequest:
    """One sequence to decode: prompt, budget and per-sequence biases.

    ``logit_bias`` is a static ``(V,)`` array added to every step's
    logits; it is normalised to float32 (the model's compute dtype) so
    every step — including the first — applies the identical bias.
    ``step_bias`` is called as ``step_bias(produced, logits_row)``
    before each argmax and may add dynamic bias in place (it sees the
    tokens produced *so far*, i.e. it is a no-op opportunity on the first
    token when ``produced`` is empty).

    ``top_k`` switches the request from greedy argmax to top-k sampling
    drawn from ``rng`` — the request's private generator stream, so its
    tokens match :meth:`TransformerLM.generate` under the same seed
    regardless of how the batch around it is composed.

    ``priority`` orders admission (lower value = more urgent, the same
    convention as the serving queue): the engine's pending queue pops
    the best ``(priority, seq_id)`` first, and under admission pressure
    a strictly-higher-priority request may preempt the lowest-priority
    active decode (see :meth:`BatchedEngine.preempt`).  Priorities never
    change a sequence's tokens — only *when* they are produced.
    """

    prompt_ids: list[int]
    max_new_tokens: int
    eos_id: int | None = None
    logit_bias: np.ndarray | None = None
    step_bias: Callable[[list[int], np.ndarray], None] | None = None
    top_k: int | None = None
    rng: np.random.Generator | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.logit_bias is not None and self.logit_bias.dtype != np.float32:
            self.logit_bias = self.logit_bias.astype(np.float32)


@dataclass
class ScoringRequest:
    """One teacher-forced scoring job: ``log P(completion | prompt)``.

    Unlike a :class:`GenerationRequest` the engine decodes nothing — it
    computes the completion's per-token logprobs under the model, with
    the prompt as conditioning context.  The data-selection workloads
    (IFD difficulty, perplexity gating) are built from pairs of these.
    """

    prompt_ids: list[int]
    completion_ids: list[int]


@dataclass(frozen=True)
class SequenceScore:
    """Teacher-forced score of one sequence: per-token logprobs + summaries.

    ``token_logprobs`` is the float64 ``(S,)`` array from
    :meth:`TransformerLM.sequence_logprobs` — entry ``j`` is
    ``log P(completion[j] | prompt + completion[:j])``.  Every derived
    quantity below is computed from it on demand, so two scores with
    bitwise-equal ``token_logprobs`` agree bitwise on all of them.
    """

    token_logprobs: np.ndarray

    @property
    def n_tokens(self) -> int:
        """Scored (completion) tokens."""
        return int(self.token_logprobs.shape[0])

    @property
    def sum_logprob(self) -> float:
        """``log P(completion | prompt)`` — the summed sequence logprob."""
        return float(self.token_logprobs.sum())

    @property
    def token_nll(self) -> np.ndarray:
        """Per-token negative log-likelihoods, float64 ``(S,)``."""
        return -self.token_logprobs

    @property
    def mean_nll(self) -> float:
        """Mean per-token NLL (the cross-entropy of the completion)."""
        return float(-self.token_logprobs.mean())

    @property
    def perplexity(self) -> float:
        """``exp(mean_nll)`` — the conventional perplexity."""
        return float(np.exp(-self.token_logprobs.mean()))


class InductionCopyBias:
    """Precomputed induction-head bias: suffix-match followers of a prompt.

    Reproduces :meth:`CoachLM._induction_followers` exactly — at each
    step the token following a prompt span that matches the last one or
    two produced tokens gets a logit bonus (bigram match earns
    ``strength``, unigram match half) — but from an index built once per
    prompt instead of an O(len(prompt)) Python scan per step.

    The index stores, per last-token, the unique unigram followers, and
    per (second, last) bigram, the bigram followers plus the unigram
    followers *not* covered by the bigram — so each follower receives a
    single add of exactly the strength the sequential scan would use
    (bigram ⊃ unigram positions, max semantics).
    """

    def __init__(
        self,
        prompt: list[int],
        strength: float,
        blocked: frozenset[int] = frozenset(),
    ):
        uni: dict[int, set[int]] = {}
        bi: dict[tuple[int, int], set[int]] = {}
        n = len(prompt)
        for i in range(n - 1):
            follower = prompt[i + 1]
            if follower in blocked:
                continue
            uni.setdefault(prompt[i], set()).add(follower)
            if i > 0:
                bi.setdefault((prompt[i - 1], prompt[i]), set()).add(follower)
        self._full = np.float32(strength * 1.0)
        self._half = np.float32(strength * 0.5)
        self._uni: dict[int, np.ndarray] = {
            tok: np.fromiter(sorted(fs), dtype=np.int64) for tok, fs in uni.items()
        }
        # Per bigram key: (full-strength followers, leftover half-strength).
        self._bi: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for key, fs in bi.items():
            rest = uni.get(key[1], set()) - fs
            self._bi[key] = (
                np.fromiter(sorted(fs), dtype=np.int64),
                np.fromiter(sorted(rest), dtype=np.int64),
            )

    def __call__(self, produced: list[int], logits_row: np.ndarray) -> None:
        if not produced:
            return
        last = produced[-1]
        if len(produced) >= 2:
            hit = self._bi.get((produced[-2], last))
            if hit is not None:
                full, rest = hit
                logits_row[full] += self._full
                if rest.size:
                    logits_row[rest] += self._half
                return
        followers = self._uni.get(last)
        if followers is not None:
            logits_row[followers] += self._half


class _PromptLookup:
    """Prompt-lookup drafter over one sequence's prompt + produced tokens.

    ``bigram[(a, b)]`` / ``unigram[b]`` hold the index of the token that
    followed the most recent earlier occurrence of that bigram / token.
    Both are updated as tokens are appended — O(1) per token, no scan
    per step.  A draft copies ``k`` tokens starting at the last bigram's
    follower, else the last token's; a copy that runs past the end
    continues from its own drafted tokens, so a repeating span keeps
    being predicted.  With neither seen before there is no draft.
    """

    __slots__ = ("tokens", "n_prompt", "bigram", "unigram")

    def __init__(self, prompt: list[int]):
        self.tokens: list[int] = []
        self.n_prompt = len(prompt)
        self.bigram: dict[tuple[int, int], int] = {}
        self.unigram: dict[int, int] = {}
        self._extend(prompt)

    def _extend(self, new: list[int]) -> None:
        tokens, bigram, unigram = self.tokens, self.bigram, self.unigram
        for token in new:
            n = len(tokens)
            if n:
                last = tokens[-1]
                unigram[last] = n
                if n > 1:
                    bigram[(tokens[-2], last)] = n
            tokens.append(token)

    def draft(self, produced: list[int], k: int) -> list[int]:
        """Index the tokens produced since the last call; draft ``k``.

        Returns ``[]`` when the last bigram and the last token both
        occur nowhere earlier.
        """
        tokens = self.tokens
        seen = len(tokens) - self.n_prompt
        if seen < len(produced):
            self._extend(produced[seen:])
        n = len(tokens)
        at = self.bigram.get((tokens[-2], tokens[-1])) if n > 1 else None
        if at is None:
            at = self.unigram.get(tokens[-1])
            if at is None:
                return []
        out: list[int] = []
        for i in range(k):
            p = at + i
            out.append(tokens[p] if p < n else out[p - n])
        return out


class _RadixNode:
    """One full page of token ids in the prefix-cache radix index.

    The index is a trie at page granularity: each edge/node is the
    ``page_tokens``-length token tuple filling exactly one read-only page, so
    walking the trie from the root spells out a cached prompt prefix one
    page at a time.  ``page`` is the physical page holding that span's
    K/V; ``last_used`` is an LRU clock tick for eviction.
    """

    __slots__ = ("tokens", "page", "parent", "children", "last_used")

    def __init__(
        self,
        tokens: tuple[int, ...],
        page: int,
        parent: "_RadixNode | None",
    ):
        self.tokens = tokens
        self.page = page
        self.parent = parent
        self.children: dict[tuple[int, ...], _RadixNode] = {}
        self.last_used = 0


class PagedKVCaches:
    """Paged K/V pool: fixed-size pages, shared free list, block tables.

    Per layer the pool holds one ``(n_heads, capacity × page_tokens,
    head_dim)`` K and V array whose token axis is carved into pages of
    ``page_tokens`` columns; page ``p`` owns columns
    ``[p·page_tokens, (p+1)·page_tokens)``.  Slot ``b``'s *block table*
    (``tables[b]``, shared by every layer) lists the pages holding its
    tokens in order, so token ``t`` lives at column
    ``tables[b][t // page_tokens] · page_tokens + t % page_tokens``.

    Pages come from one free list shared by the whole fleet; storage
    grows lazily in :data:`_GROWTH_PAGES` extents up to ``max_pages``,
    so resident bytes track *live tokens* instead of
    ``max_batch × max_seq_len``.  The engine reserves each sequence's
    worst-case quota at admission (``pages_for(prompt + budget)``), so
    ``_alloc_page`` can never fail mid-decode; ``release`` returns a
    slot's pages, and the compaction hooks (``move`` / ``move_prefix`` /
    ``permute_prefixes``) are O(1) block-table moves — no K/V bytes are
    copied.

    Attention never reads the pages directly: a contiguous per-slot
    **mirror** — allocated lazily to the *live* fleet's peak rows × peak
    view, not to ``max_batch × max_seq_len`` — shadows each row's page
    prefix, so the hot decode path writes its ``q`` columns to pages +
    mirror and attends over copy-free mirror views.
    The mirror is pure cache: ``_mirror_len[row]`` tracks its valid
    prefix, compaction invalidates moved rows instead of copying bytes,
    and the next step lazily re-gathers an invalidated row's
    ``[0, t_k)`` from its (moved) block table in one fancy-index pass.
    Both the page storage and the mirror count toward
    ``resident_kv_bytes``.
    """

    #: Minimum storage growth extent (pages).  Growth is geometric past
    #: it (≥50% headroom per grow, like the mirror), so cumulative
    #: grow-copies stay O(pool size) while small pools keep resident
    #: bytes tight to the live-token peak.
    _GROWTH_PAGES = 4

    def __init__(
        self,
        model: TransformerLM,
        max_batch: int,
        page_tokens: int,
        max_pages: int | None = None,
        prefix_cache: bool = False,
    ):
        cfg = model.config
        if page_tokens < 1:
            raise GenerationError(
                f"kv_page_tokens must be >= 1, got {page_tokens}"
            )
        self.page_tokens = page_tokens
        self.pages_per_seq = -(-cfg.max_seq_len // page_tokens)
        if max_pages is None:
            max_pages = max_batch * self.pages_per_seq
        if max_pages < self.pages_per_seq:
            raise GenerationError(
                f"kv_pool_pages={max_pages} cannot hold one full-context "
                f"sequence ({self.pages_per_seq} pages of {page_tokens} "
                "tokens): admission could deadlock"
            )
        self.max_pages = max_pages
        self.max_batch = max_batch
        self.max_seq_len = cfg.max_seq_len
        self.n_heads = cfg.n_heads
        self.head_dim = cfg.head_dim
        self.n_layers = len(model.blocks)
        self.lengths = np.zeros(max_batch, dtype=np.int64)
        self.tables: list[list[int]] = [[] for _ in range(max_batch)]
        empty = (cfg.n_heads, 0, cfg.head_dim)
        self.k = [np.zeros(empty, dtype=np.float32) for _ in model.blocks]
        self.v = [np.zeros(empty, dtype=np.float32) for _ in model.blocks]
        self._free: list[int] = []
        self._capacity = 0
        # Contiguous attention mirror (see class docstring): per-layer
        # (rows_cap, H, view_cap, Dh) planes grown to the live fleet.
        self.mk: list[np.ndarray] = []
        self.mv: list[np.ndarray] = []
        self._mirror_rows = 0
        self._mirror_view = 0
        self._mirror_len = np.zeros(max_batch, dtype=np.int64)
        self.reserved_pages = 0
        self.pages_in_use = 0
        self.peak_pages_in_use = 0
        self.peak_resident_bytes = 0
        # -- prefix cache (radix index over token-id prefixes) ---------------
        # ``_slot_refs[p]`` counts how many block tables reference page
        # ``p``; pages referenced by the index alone (slot_refs == 0 but
        # indexed) are *cached* — retained, evictable, and excluded from
        # ``pages_in_use``.  ``_pinned`` marks index pages currently
        # lent to live slots: they cannot be evicted and must be counted
        # against admission headroom alongside ``reserved_pages``.
        self.prefix_cache_enabled = bool(prefix_cache)
        self._slot_refs: list[int] = []
        self._prefix_root = _RadixNode((), -1, None) if prefix_cache else None
        self._page_nodes: dict[int, _RadixNode] = {}
        self._pinned: set[int] = set()
        self.shared_pinned = 0
        self.cached_pages = 0
        self._prefix_clock = 0
        self.prefix_lookups = 0
        self.prefix_hits = 0
        self.prefix_shared_tokens = 0
        self.prefix_cow_copies = 0
        self.prefix_inserted_pages = 0
        self.prefix_evicted_pages = 0

    # -- reservation (admission control) ---------------------------------------
    def pages_for(self, tokens: int) -> int:
        """Pages needed to hold ``tokens`` cache columns."""
        return max(0, -(-tokens // self.page_tokens))

    def try_reserve(self, n_pages: int) -> bool:
        """Reserve a sequence's worst-case quota; False when the pool is
        oversubscribed (the request then waits in the pending queue).

        Pages pinned by live shared prefixes count against the same
        headroom: they are unreclaimable until their borrowers retire.
        """
        if self.reserved_pages + self.shared_pinned + n_pages > self.max_pages:
            return False
        self.reserved_pages += n_pages
        return True

    def unreserve(self, n_pages: int) -> None:
        if n_pages > self.reserved_pages:
            raise GenerationError(
                f"KV page unreserve of {n_pages} would drive reserved_pages "
                f"({self.reserved_pages}) negative — engine accounting bug"
            )
        self.reserved_pages -= n_pages

    # -- prefix cache: lookup / admission / attach -------------------------------
    def match_prefix(
        self, prompt_ids: list[int]
    ) -> tuple[int, list[int]]:
        """Longest cached prefix of ``prompt_ids``: ``(matched, pages)``.

        Walks the radix index one full page at a time, then checks the
        divergence point's children for a *partial* boundary share (the
        first ``m < page_tokens`` tokens of some cached page) — the case
        copy-on-write exists for.  ``matched`` is capped at
        ``len(prompt_ids) - 1`` so every admitted prompt still prefills
        at least one token and the last-token logits come from a real
        forward pass.
        """
        if self._prefix_root is None:
            return 0, []
        self._prefix_clock += 1
        self.prefix_lookups += 1
        p = self.page_tokens
        limit = len(prompt_ids) - 1
        node = self._prefix_root
        pages: list[int] = []
        matched = 0
        while matched + p <= limit:
            key = tuple(prompt_ids[matched : matched + p])
            child = node.children.get(key)
            if child is None:
                break
            child.last_used = self._prefix_clock
            pages.append(child.page)
            matched += p
            node = child
        remaining = prompt_ids[matched:limit]
        best_child, best_lcp = None, 0
        if remaining:
            for key, child in node.children.items():
                lcp = 0
                for a, b in zip(key, remaining):
                    if a != b:
                        break
                    lcp += 1
                if lcp > best_lcp:
                    best_lcp, best_child = lcp, child
        if best_child is not None:
            best_child.last_used = self._prefix_clock
            pages.append(best_child.page)
            matched += best_lcp
        if matched:
            self.prefix_hits += 1
            self.prefix_shared_tokens += matched
        return matched, pages

    def admit_shared(
        self, prompt_ids: list[int], total_pages: int
    ) -> tuple[int, int, list[int]] | None:
        """Admission with prefix sharing: match, reserve, pin — atomically.

        ``total_pages`` is the sequence's worst-case quota
        (``pages_for(prompt + budget)``).  Full shared pages are lent
        from the index, so only ``total_pages - matched // page_tokens``
        is charged against the pool (a partially shared boundary page
        stays in the quota: its first write copy-on-writes into a fresh
        page the quota must cover).  Returns ``(quota, matched, pages)``
        on success — the caller must attach ``pages`` to the admitted
        slot via :meth:`attach_prefix` — or ``None`` to defer.
        """
        matched, pages = self.match_prefix(prompt_ids)
        if matched:
            quota = total_pages - matched // self.page_tokens
            newly_pinned = sum(1 for q in pages if q not in self._pinned)
            if (
                self.reserved_pages + self.shared_pinned
                + quota + newly_pinned
            ) <= self.max_pages:
                self.reserved_pages += quota
                for q in pages:
                    self._pin(q)
                return quota, matched, pages
            # Shared admission does not fit (pins outweigh the saved
            # quota); fall through and try a plain unshared reservation
            # so the request is never worse off than without the cache.
            self.prefix_hits -= 1
            self.prefix_shared_tokens -= matched
        if not self.try_reserve(total_pages):
            return None
        return total_pages, 0, []

    def attach_prefix(self, slot: int, pages: list[int], matched: int) -> None:
        """Link the shared pages as ``slot``'s block-table prefix.

        Each page gains one slot reference; cached-only pages re-enter
        ``pages_in_use``.  The slot's mirror is invalidated so the next
        forward lazily gathers the shared prefix from the pages.
        """
        if self.tables[slot]:
            raise GenerationError(
                f"slot {slot} already holds pages — engine accounting bug"
            )
        for q in pages:
            refs = self._slot_refs[q]
            self._slot_refs[q] = refs + 1
            if refs == 0:
                self.pages_in_use += 1
                self.cached_pages -= 1
        self.tables[slot] = list(pages)
        self._mirror_len[slot] = 0
        self.peak_pages_in_use = max(self.peak_pages_in_use, self.pages_in_use)

    def _pin(self, page: int) -> None:
        if page not in self._pinned:
            self._pinned.add(page)
            self.shared_pinned += 1

    def _unpin(self, page: int) -> None:
        if page in self._pinned:
            self._pinned.remove(page)
            self.shared_pinned -= 1

    # -- page lifecycle --------------------------------------------------------
    def _grow(self, min_pages: int) -> None:
        new_cap = min(
            self.max_pages,
            max(
                min_pages,
                self._capacity + max(self._GROWTH_PAGES, self._capacity // 2),
            ),
        )
        if new_cap <= self._capacity:
            raise GenerationError(
                "KV page pool exhausted beyond its reservations "
                f"({self._capacity}/{self.max_pages} pages) — engine "
                "accounting bug"
            )
        extra = (new_cap - self._capacity) * self.page_tokens
        pad = np.zeros((self.n_heads, extra, self.head_dim), dtype=np.float32)
        self.k = [np.concatenate([k, pad], axis=1) for k in self.k]
        self.v = [np.concatenate([v, pad], axis=1) for v in self.v]
        self._free.extend(range(self._capacity, new_cap))
        self._slot_refs.extend(0 for _ in range(self._capacity, new_cap))
        self._capacity = new_cap
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes()
        )

    def _alloc_page(self) -> int:
        """Pop a free page, evicting cached index pages / growing storage
        as needed.  Reservation accounting guarantees this cannot fail
        for a correctly admitted sequence."""
        if not self._free:
            if self._capacity >= self.max_pages:
                self._evict_cached_pages(1)
            if not self._free:
                self._grow(self._capacity + 1)
        return self._free.pop()

    def _drop_slot_ref(self, page: int) -> None:
        """One block table stopped referencing ``page``: free it when no
        slot holds it, or demote it to cached if the index retains it."""
        refs = self._slot_refs[page] - 1
        if refs < 0:
            raise GenerationError(
                f"KV page {page} released more times than referenced — "
                "engine accounting bug"
            )
        self._slot_refs[page] = refs
        if refs == 0:
            self.pages_in_use -= 1
            if self.pages_in_use < 0:
                raise GenerationError(
                    "KV pages_in_use went negative — engine accounting bug"
                )
            self._unpin(page)
            if page in self._page_nodes:
                self.cached_pages += 1
            else:
                self._free.append(page)

    def ensure(self, slot: int, n_tokens: int) -> None:
        """Extend ``slot``'s block table to cover ``n_tokens`` columns."""
        table = self.tables[slot]
        while len(table) * self.page_tokens < n_tokens:
            page = self._alloc_page()
            self._slot_refs[page] = 1
            table.append(page)
            self.pages_in_use += 1
        self.peak_pages_in_use = max(self.peak_pages_in_use, self.pages_in_use)

    def release(self, slot: int) -> None:
        """Drop ``slot``'s reference on every page of its block table.

        A page returns to the free list when its last slot reference
        drops *and* the prefix index does not retain it; indexed pages
        linger as evictable cache instead.  Raises
        :class:`GenerationError` if accounting would go negative (a
        double release).
        """
        table = self.tables[slot]
        if table:
            self.tables[slot] = []
            for page in table:
                self._drop_slot_ref(page)
        self._mirror_len[slot] = 0

    # -- preemption: O(1) block-table detach / reattach --------------------------
    def detach_table(self, slot: int) -> list[int]:
        """Detach ``slot``'s block table for a preempted sequence.

        The pages keep their slot references (they stay in
        ``pages_in_use``; shared prefix pages stay pinned), so the
        detached sequence's resident KV survives while its slot is
        compacted away and reused.  Reattach with :meth:`attach_table`.
        """
        table = self.tables[slot]
        self.tables[slot] = []
        self.lengths[slot] = 0
        self._mirror_len[slot] = 0
        return table

    def attach_table(self, slot: int, table: list[int], length: int) -> None:
        """Reattach a detached block table to ``slot`` (resume).

        The mirror is left invalid; the next forward's catch-up gather
        rebuilds the row's contiguous prefix from the pages lazily —
        the same path a compaction-moved row takes.
        """
        if self.tables[slot]:
            raise GenerationError(
                f"slot {slot} already holds pages — engine accounting bug"
            )
        self.tables[slot] = table
        self.lengths[slot] = length
        self._mirror_len[slot] = 0

    def drop_table(self, table: list[int]) -> None:
        """Drop the slot references of a detached table (a preempted
        sequence was cancelled, or demoted to cold re-prefill)."""
        for page in table:
            self._drop_slot_ref(page)

    # -- compaction: O(1) block-table moves ------------------------------------
    # No K/V byte moves anywhere below: tables are relinked and the
    # affected mirror rows are invalidated — the next step re-gathers a
    # moved row's prefix lazily instead of every compaction paying a
    # copy up front.
    def move(self, src: int, dst: int) -> None:
        self.release(dst)
        self.tables[dst] = self.tables[src]
        self.tables[src] = []
        self.lengths[dst] = self.lengths[src]
        self._mirror_len[src] = 0

    def move_prefix(self, src: int, dst: int, length: int) -> None:
        # Compaction contract: dst ends up holding exactly the
        # length-token prefix with lengths[dst] recorded — callers never
        # patch lengths after a move.
        self.release(dst)
        self.tables[dst] = self.tables[src]
        self.tables[src] = []
        self.lengths[dst] = length
        self._mirror_len[src] = 0

    def permute_prefixes(
        self, base: int, order: list[int], lengths: list[int]
    ) -> None:
        # Row base + order[j]'s table moves to base + j with lengths[j]
        # recorded, so completed parked rows become the next contiguous
        # decode slots.
        block = [self.tables[base + i] for i in order]
        for j, (table, n) in enumerate(zip(block, lengths)):
            self.tables[base + j] = table
            self.lengths[base + j] = n
        self._mirror_len[base : base + len(order)] = 0

    # -- column addressing -----------------------------------------------------
    def _token_cols(self, slot: int, start: int, stop: int) -> np.ndarray:
        """Storage columns of ``slot``'s tokens ``[start, stop)``.

        Indexes only the pages overlapping ``[start, stop)`` — O(stop −
        start), not O(stop) — so mirror catch-up gathers on long rows
        don't rebuild the whole prefix's column map.
        """
        p = self.page_tokens
        first = start // p
        pages = np.asarray(
            self.tables[slot][first : -(-stop // p)], dtype=np.int64
        )
        cols = (pages[:, None] * p + np.arange(p, dtype=np.int64)[None, :])
        return cols.ravel()[start - first * p : stop - first * p]

    # -- prefix cache: copy-on-write / registration / eviction -------------------
    def _prepare_write(self, slot: int, start: int, stop: int) -> None:
        """Make columns ``[start, stop)`` of ``slot`` privately writable.

        Extends the block table to cover ``stop`` and copy-on-writes any
        page in the write range that is shared (referenced by another
        slot or retained by the prefix index).  With the prefix cache
        off this is exactly :meth:`ensure`.
        """
        self.ensure(slot, stop)
        if self._prefix_root is None:
            return
        p = self.page_tokens
        table = self.tables[slot]
        for i in range(start // p, -(-stop // p)):
            page = table[i]
            if self._slot_refs[page] > 1 or page in self._page_nodes:
                self._cow(slot, i)

    def _cow(self, slot: int, i: int) -> None:
        """Copy-on-write: give ``slot`` a private copy of its page ``i``.

        The page's K/V columns are copied for every layer, the block
        table swaps in the fresh page, and the shared page loses one
        slot reference.  Mirror rows stay valid: their *contents* are
        unchanged — only the backing storage column moved.
        """
        table = self.tables[slot]
        old = table[i]
        new = self._alloc_page()
        self._slot_refs[new] = 1
        self.pages_in_use += 1
        p = self.page_tokens
        src = slice(old * p, (old + 1) * p)
        dst = slice(new * p, (new + 1) * p)
        for layer in range(self.n_layers):
            self.k[layer][:, dst, :] = self.k[layer][:, src, :]
            self.v[layer][:, dst, :] = self.v[layer][:, src, :]
        table[i] = new
        self._drop_slot_ref(old)
        self.prefix_cow_copies += 1
        self.peak_pages_in_use = max(self.peak_pages_in_use, self.pages_in_use)

    def register_prefix(self, slot: int, prompt_ids: list[int]) -> None:
        """Index ``slot``'s fully prefilled prompt pages for reuse.

        Called once the whole prompt is resident in ``slot``'s pages.
        Only *full* prompt pages are inserted — a partial tail page will
        receive decode writes and must stay private.  Pages already
        indexed (the very nodes this prompt matched at admission) are
        left as-is; newly inserted pages stay in ``pages_in_use`` while
        the owning slot lives and become cached on its release.
        """
        if self._prefix_root is None:
            return
        p = self.page_tokens
        table = self.tables[slot]
        node = self._prefix_root
        self._prefix_clock += 1
        for i in range(len(prompt_ids) // p):
            key = tuple(prompt_ids[i * p : (i + 1) * p])
            child = node.children.get(key)
            if child is None:
                page = table[i]
                if page in self._page_nodes:
                    # Defensive: never alias one physical page under two
                    # index nodes (eviction would double-free it).
                    break
                child = _RadixNode(key, page, node)
                node.children[key] = child
                self._page_nodes[page] = child
                self.prefix_inserted_pages += 1
            child.last_used = self._prefix_clock
            node = child

    def _evict_cached_pages(self, n_needed: int) -> None:
        """Evict least-recently-used cached-only leaf pages to the free
        list until ``n_needed`` pages were freed or nothing evictable
        remains.  Pages referenced or pinned by live slots never move."""
        if self._prefix_root is None:
            return
        freed = 0
        while freed < n_needed:
            victim = None
            stack = list(self._prefix_root.children.values())
            while stack:
                n = stack.pop()
                if (
                    not n.children
                    and self._slot_refs[n.page] == 0
                    and n.page not in self._pinned
                    and (victim is None or n.last_used < victim.last_used)
                ):
                    victim = n
                stack.extend(n.children.values())
            if victim is None:
                return
            self._remove_node(victim)
            freed += 1

    def _remove_node(self, node: _RadixNode) -> None:
        """Unlink an index leaf whose page no slot references."""
        del node.parent.children[node.tokens]
        del self._page_nodes[node.page]
        self.cached_pages -= 1
        self._free.append(node.page)
        self.prefix_evicted_pages += 1

    def clear_prefix_cache(self) -> int:
        """Drop the whole radix index; returns pages freed immediately.

        Pages still referenced by live slots merely lose index
        retention — they free normally when their slots release.
        """
        if self._prefix_root is None:
            return 0
        freed = 0
        for page in list(self._page_nodes):
            if self._slot_refs[page] == 0:
                self.cached_pages -= 1
                self._free.append(page)
                freed += 1
        self._page_nodes.clear()
        self._prefix_root.children.clear()
        return freed

    def _ensure_mirror(self, n_rows: int, view: int) -> None:
        """Grow the mirror planes to cover ``n_rows`` slots × ``view`` columns.

        Growth is amortised (≥50% headroom per axis, capped at the
        engine's hard bounds) and content-preserving, so steady decode
        never reallocates and never invalidates.
        """
        if n_rows <= self._mirror_rows and view <= self._mirror_view:
            return
        rows_cap = self._mirror_rows
        view_cap = self._mirror_view
        if n_rows > rows_cap:
            rows_cap = min(self.max_batch, max(n_rows, rows_cap + rows_cap // 2 + 1))
        if view > view_cap:
            view_cap = min(
                self.max_seq_len, max(view, view_cap + max(32, view_cap // 2))
            )
        shape = (rows_cap, self.n_heads, view_cap, self.head_dim)
        old_k, old_v = self.mk, self.mv
        self.mk = [np.zeros(shape, dtype=np.float32) for _ in range(self.n_layers)]
        self.mv = [np.zeros(shape, dtype=np.float32) for _ in range(self.n_layers)]
        if old_k:
            r, w = self._mirror_rows, self._mirror_view
            for layer in range(self.n_layers):
                self.mk[layer][:r, :, :w] = old_k[layer]
                self.mv[layer][:r, :, :w] = old_v[layer]
        self._mirror_rows, self._mirror_view = rows_cap, view_cap
        self.peak_resident_bytes = max(
            self.peak_resident_bytes, self.resident_bytes()
        )

    def _mirror_plan(
        self, rows, starts, ends
    ) -> list[tuple[int, np.ndarray, int]]:
        """Mark each row's mirror valid through ``ends`` and return the
        catch-up gathers — ``(row, page_cols, have)`` for rows whose
        mirror lags behind this step's write start (rows invalidated by
        compaction, or parked rows shifted to new slots)."""
        catchups = []
        for row, start, end in zip(rows, starts, ends):
            have = int(self._mirror_len[row])
            if have < start:
                catchups.append((row, self._token_cols(row, have, start), have))
            self._mirror_len[row] = end
        return catchups

    # -- the packed forward ------------------------------------------------------
    def packed_adapters(
        self, first: int, starts: np.ndarray, ends: np.ndarray,
        spans: np.ndarray, n_decode: int,
    ) -> list["_PackedPagedSlots"]:
        """Per-layer adapters for one packed varlen forward.

        Row ``i`` is slot ``first + i``: its new tokens occupy the packed
        token axis ``[spans[i], spans[i+1])`` and land in the slot's
        columns ``[starts[i], ends[i])``.  The first ``n_decode`` rows
        are decode rows of one common length ``q = ends[0] - starts[0]``
        (the last produced token plus ``q - 1`` drafted ones; ``q = 1``
        is plain decode): they own packed positions ``[0, n_decode·q)``
        and scatter with one fancy-index store per layer instead of a
        per-row loop.  Everything the layers share — write columns,
        catch-up gathers, per-row extents — is planned here once, so the
        per-step Python cost is O(rows·q).  Copy-on-write covers each
        row's whole write range, drafted columns included.
        """
        n = len(starts)
        p = self.page_tokens
        slots = range(first, first + n)
        start_list, end_list = starts.tolist(), ends.tolist()
        for slot, start, end in zip(slots, start_list, end_list):
            self._prepare_write(slot, start, end)
        self._ensure_mirror(first + n, max(end_list))
        ones = None
        if n_decode:
            per = end_list[0] - start_list[0]
            tables = self.tables
            one_cols = np.asarray(
                [
                    tables[first + i][t // p] * p + t % p
                    for i, start in enumerate(start_list[:n_decode])
                    for t in range(start, start + per)
                ],
                dtype=np.int64,
            )
            ones = (
                n_decode * per,
                one_cols,
                np.repeat(np.arange(first, first + n_decode), per),
                (starts[:n_decode, None] + np.arange(per)).ravel(),
                slice(first, first + n_decode),
                max(end_list[:n_decode]),
            )
        span_list = spans.tolist()
        chunks = [
            (
                first + i, span_list[i], span_list[i + 1],
                start_list[i], end_list[i],
                self._token_cols(first + i, start_list[i], end_list[i]),
            )
            for i in range(n_decode, n)
        ]
        catchups = self._mirror_plan(slots, start_list, end_list)
        return [
            _PackedPagedSlots(self, layer, ones, chunks, catchups)
            for layer in range(self.n_layers)
        ]

    def advance(self, n_rows: int, accepted: np.ndarray) -> None:
        """Grow decode rows ``[0, n_rows)`` by the tokens they kept.

        A verify forward wrote ``q`` columns per decode row, of which
        only the first ``accepted[r]`` hold tokens the sequence keeps.
        The rest stay where they are — hidden by every later key mask
        and overwritten by the next step's writes — and the mirror's
        valid prefix is cut back to the row's length, so nothing past it
        is ever read as valid.
        """
        lengths = self.lengths[:n_rows]
        lengths += accepted
        self._mirror_len[:n_rows] = lengths

    # -- accounting --------------------------------------------------------------
    def resident_bytes(self) -> int:
        """Bytes of K/V page storage + attention mirror currently allocated."""
        storage = 2 * sum(k.nbytes for k in self.k)
        mirror = 2 * sum(m.nbytes for m in self.mk)
        return storage + mirror

    def stats(self) -> dict:
        stats = {
            "kv_page_tokens": self.page_tokens,
            "total_pages": self.max_pages,
            "free_pages": (
                self.max_pages - self.reserved_pages - self.shared_pinned
            ),
            "reserved_pages": self.reserved_pages,
            "pages_in_use": self.pages_in_use,
            "peak_pages_in_use": self.peak_pages_in_use,
            "allocated_pages": self._capacity,
            "free_list_pages": len(self._free),
            "resident_kv_bytes": self.resident_bytes(),
            "peak_resident_kv_bytes": max(
                self.peak_resident_bytes, self.resident_bytes()
            ),
        }
        if self.prefix_cache_enabled:
            stats["prefix_cache"] = {
                "cached_pages": self.cached_pages,
                "shared_pinned_pages": self.shared_pinned,
                "lookups": self.prefix_lookups,
                "hits": self.prefix_hits,
                "hit_rate": (
                    round(self.prefix_hits / self.prefix_lookups, 4)
                    if self.prefix_lookups
                    else 0.0
                ),
                "shared_tokens": self.prefix_shared_tokens,
                "cow_copies": self.prefix_cow_copies,
                "inserted_pages": self.prefix_inserted_pages,
                "evicted_pages": self.prefix_evicted_pages,
            }
        return stats


class _PackedPagedSlots:
    """One layer's view of a packed varlen forward over the paged pool.

    Each row's new K/V (its packed segment) scatter into its block-table
    columns and its mirror row; lagging mirror rows catch up from their
    pages first.  The decode rows come back as one stacked mirror view
    for the fused masked sub-attention (the key mask hides, per query,
    the columns past its own depth); each chunk row comes back as its
    own exact-prefix mirror view — no copies anywhere on the steady path.
    """

    __slots__ = ("pool", "layer", "ones", "chunks", "catchups")

    def __init__(self, pool, layer, ones, chunks, catchups):
        self.pool = pool
        self.layer = layer
        self.ones = ones
        self.chunks = chunks
        self.catchups = catchups

    def update(self, k: np.ndarray, v: np.ndarray):
        """Store this layer's new K/V and return the attention views.

        ``k``/``v`` are ``(1, H, T_total, Dh)`` in packed order.  Lagging
        mirror rows catch up from their pages first.  The ``n`` decode
        rows of ``q`` tokens each own packed positions ``[0, n·q)``, so
        their keys are the basic slice ``k[0, :, :n·q]``; all ``n·q``
        columns scatter into the pool and the mirror in one store each,
        and the rows come back as one stacked ``(n, H, view, Dh)``
        mirror view.  Each chunk row writes its segment and comes back
        as its exact-prefix mirror view.  Returns ``(ones_k, ones_v,
        keys, vals)``, the inputs of
        :meth:`SelfAttention._packed_attention`.
        """
        pool = self.pool
        pk = pool.k[self.layer]
        pv = pool.v[self.layer]
        mk, mv = pool.mk[self.layer], pool.mv[self.layer]
        for row, cols, have in self.catchups:
            mk[row, :, have : have + len(cols)] = pk[:, cols, :]
            mv[row, :, have : have + len(cols)] = pv[:, cols, :]
        ones_k = ones_v = None
        if self.ones is not None:
            n, cols, rows, depths, block, view = self.ones
            # Decode tokens hold packed positions [0, n), so their K/V are
            # the basic slice k[0, :, :n] — (H, n, Dh), the layout the
            # pool's column store expects; the mirror's (fancy, :, fancy)
            # store is token-first, hence the transposed view.
            new_k = k[0, :, :n]
            new_v = v[0, :, :n]
            pk[:, cols, :] = new_k
            pv[:, cols, :] = new_v
            mk[rows, :, depths] = new_k.transpose(1, 0, 2)
            mv[rows, :, depths] = new_v.transpose(1, 0, 2)
            ones_k = mk[block, :, :view]
            ones_v = mv[block, :, :view]
        keys, vals = [], []
        for slot, s, e, start, end, cols in self.chunks:
            pk[:, cols, :] = k[0, :, s:e]
            pv[:, cols, :] = v[0, :, s:e]
            mk[slot, :, start:end] = k[0, :, s:e]
            mv[slot, :, start:end] = v[0, :, s:e]
            keys.append(mk[slot, :, :end])
            vals.append(mv[slot, :, :end])
        return ones_k, ones_v, keys, vals


@dataclass
class _SlotState:
    """Decode-time state of one occupied slot."""

    seq_id: int                     #: engine-wide id assigned at submit()
    request: GenerationRequest
    budget: int
    produced: list[int] = field(default_factory=list)
    prefilled: int = 0              #: prompt tokens written (chunked admission)
    page_quota: int = 0             #: pages reserved in the paged KV pool
    #: Pages borrowed from the prefix cache at admission, pending
    #: attachment to the parked slot (empty once attached / when unshared).
    shared_pages: list[int] = field(default_factory=list)
    #: Preemption state.  A preempted sequence re-enters admission with
    #: ``resume_ids`` as its *effective prompt* (original prompt + tokens
    #: produced so far) and ``prefilled`` pointing at its resident KV, so
    #: the parked-prefill machinery re-feeds exactly one token — the
    #: interrupted decode step — and nothing of the prompt is re-prefilled.
    resume_ids: list[int] | None = None
    #: Detached block table while suspended; ``None`` once reattached
    #: or when the sequence was demoted to cold re-prefill.
    detached: list[int] | None = None
    #: Pages to re-reserve at resume (the worst-case remainder the
    #: preemption released back to the pool).
    suspend_reserve: int = 0
    #: Prompt-lookup index of a greedy sequence, built at its first
    #: draft and kept across preemption.
    drafter: _PromptLookup | None = None

    @property
    def feed_ids(self) -> list[int]:
        """Tokens the prefill machinery feeds for this sequence."""
        return self.resume_ids if self.resume_ids is not None else self.request.prompt_ids

    @property
    def sort_key(self) -> tuple[int, int]:
        """Admission order: best (priority, arrival) first."""
        return (self.request.priority, self.seq_id)


class BatchedEngine:
    """Continuous-batching decoder over a :class:`TransformerLM`.

    See the module docstring for the architecture (the prefill → decode →
    retire/refill phase loop).  The engine can be driven two ways:

    * **Run to completion** — :meth:`generate` consumes a list of
      :class:`GenerationRequest` and returns the produced token lists in
      input order; results are token-for-token identical to calling
      :meth:`TransformerLM.generate` per request (greedy, or seeded
      top-k).
    * **Streaming** — :meth:`submit` enqueues one request and returns its
      sequence id, :meth:`step` advances the whole fleet one verify step
      — one token per row plus any drafted tokens it keeps — admitting
      pending requests into free slots first, so a request submitted
      mid-flight joins the batch as soon as a slot retires instead of
      waiting for the batch to drain, and :meth:`collect`
      pops finished ``{seq_id: tokens}`` results.  This is the substrate
      of the online revision service (:mod:`repro.serving`).

    Every step runs one packed varlen forward whose rows are the decode
    fleet (its last token plus drafted tokens to verify, see the module
    docstring) plus the parked prefill rows.  The engine has one
    schedule, the same offline and serving:

    * ``prefill_chunk_tokens`` (default
      :data:`~repro.config.DEFAULT_PREFILL_CHUNK_TOKENS`) bounds how
      much prefill work a single :meth:`step` may do while other slots
      are decoding: each refill prompt advances by at most one chunk
      per step, so in-flight decodes are never stalled behind a whole
      prompt-length forward.  When the fleet is idle there is nothing
      to stall and every parked prompt prefills whole.
    * Up to ``prefill_concurrency`` (default ``max_batch``: every free
      slot) refill prompts advance *concurrently* — parked contiguously
      past the decode fleet, every chunk a row of the same forward — so
      a burst of late arrivals prefills together instead of serializing
      behind a single admission slot.
    * A slot freed by a retiring sequence refills at the next step's
      admission.
    * A strictly more urgent arrival blocked on slots or pages preempts
      the least urgent active decode (:meth:`preempt_victim`); equal
      priorities never preempt, so one-priority traffic is FIFO.

    The two prefill arguments exist for the parity suites (1–8-token
    chunks split short prompts) and the benches' whole-prompt and
    single-slot reference schedules; every caller in the library runs
    the defaults.

    :meth:`cancel` abandons a submitted sequence in any state — queued,
    mid-prefill, or decoding — finishing it with the tokens produced so
    far (a prefix of what the run-to-completion decode would have
    produced).  The serving scheduler uses it to expire deadline-missed
    jobs without spending further engine work on them.

    K/V live in the paged pool (:class:`PagedKVCaches`) with
    ``kv_page_tokens``-token pages: KV memory scales with live tokens
    instead of ``max_batch × max_seq_len``, compaction is an O(1)
    block-table move, and admission reserves each sequence's worst-case
    page quota against ``kv_pool_pages`` — a request the pool cannot
    cover simply waits in the pending queue until retirements free
    pages (see :meth:`kv_stats` for the headroom counters the serving
    layer exports).  The page size never changes a token.

    ``kv_prefix_cache`` adds vLLM/SGLang-style prefix sharing: a radix
    index over token-id prefixes maps previously prefilled prompt pages
    to refcounted read-only pages.  It is off by default, because cached
    pages stay resident; the server turns it on, since its revision
    prompts share one template.  A matching admission borrows those
    pages, charges only its unshared suffix against the pool quota, and
    prefills from the first divergent token; the first write past a
    shared boundary copy-on-writes that one page (see
    ``docs/prefix_cache.md``).  Scheduling still never changes tokens:
    a shared prefix holds the same K/V values a fresh prefill would
    recompute, differing only by BLAS kernel-selection noise — the same
    ulp-level noise the chunked-prefill path already absorbs inside
    greedy argmax margins.

    The pool is allocated lazily on first use and reused across drains:
    a refilled slot starts a fresh block table, so results never depend
    on slot history.  The engine is not thread-safe; a single caller
    (e.g. the serving worker thread) must own all
    ``submit``/``step``/``collect`` calls, and :meth:`generate` must not
    be interleaved with an external :meth:`collect`.
    """

    def __init__(
        self,
        model: TransformerLM,
        max_batch: int = DEFAULT_GEN_BATCH_SIZE,
        prefill_chunk_tokens: int = DEFAULT_PREFILL_CHUNK_TOKENS,
        prefill_concurrency: int | None = None,
        kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS,
        kv_pool_pages: int | None = None,
        kv_prefix_cache: bool = False,
    ):
        if max_batch < 1:
            raise GenerationError(f"max_batch must be >= 1, got {max_batch}")
        if prefill_chunk_tokens is None or prefill_chunk_tokens < 1:
            raise GenerationError(
                f"prefill_chunk_tokens must be >= 1, got {prefill_chunk_tokens}"
            )
        if prefill_concurrency is None:
            prefill_concurrency = max_batch
        if prefill_concurrency < 1:
            raise GenerationError(
                f"prefill_concurrency must be >= 1, got {prefill_concurrency}"
            )
        if kv_page_tokens is None or kv_page_tokens < 1:
            raise GenerationError(
                f"kv_page_tokens must be >= 1, got {kv_page_tokens}"
            )
        if kv_pool_pages is not None and kv_pool_pages < -(
            -model.config.max_seq_len // kv_page_tokens
        ):
            raise GenerationError(
                f"kv_pool_pages={kv_pool_pages} cannot hold one "
                "full-context sequence: admission could deadlock"
            )
        self.model = model
        self.max_batch = max_batch
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.prefill_concurrency = prefill_concurrency
        self.kv_page_tokens = kv_page_tokens
        self.kv_pool_pages = kv_pool_pages
        self.kv_prefix_cache = kv_prefix_cache
        self._caches: PagedKVCaches | None = None
        self._bias: np.ndarray | None = None
        self._slots: list[_SlotState | None] = [None] * max_batch
        self._n_active = 0
        #: Pending admission heap ordered by (priority, seq_id): the
        #: best (priority, arrival) entry admits first; within one
        #: priority class submission order is FIFO.
        self._pending: list[tuple[int, int, GenerationRequest]] = []
        #: Preempted sequences waiting to resume (detached KV parked in
        #: ``_SlotState.detached``); they compete with ``_pending`` for
        #: admission under the same (priority, seq_id) order.
        self._preempted: list[_SlotState] = []
        self._pending_scores: deque[tuple[int, ScoringRequest]] = deque()
        self._finished: dict[int, list[int] | SequenceScore | None] = {}
        self._next_id = 0
        #: Mid-prefill requests, parked contiguously at slots
        #: ``self._n_active ..`` — just past the decode fleet.
        self._prefilling: list[_SlotState] = []
        # Vectorised decode bookkeeping, maintained per occupied slot.
        self._eos = np.full(max_batch, -1, dtype=np.int64)
        self._budget = np.zeros(max_batch, dtype=np.int64)
        self._count = np.zeros(max_batch, dtype=np.int64)
        #: Monotonic count of decode tokens produced by retired
        #: generation sequences — the observable the resume-determinism
        #: tests pin ("a journaled-DONE pair is never re-decoded").
        self.total_generated_tokens = 0
        #: Monotonic count of *prompt* tokens fed through a prefill
        #: forward.  A preempted-and-resumed sequence re-feeds only its
        #: last produced token (never a prompt position), so this stays
        #: at Σ len(prompt) however often sequences are preempted — the
        #: observable the zero-re-prefill tests pin.
        self.total_prompt_tokens_prefilled = 0
        # Preemption observability (exported under kv_stats()["preemption"]).
        self.preemptions = 0
        self.resumes = 0
        self.preempted_resident_tokens = 0
        self.stream_disconnects = 0
        # Speculation observability (exported by kv_stats()): verify
        # steps run, draft positions greedy rows could keep, and how many
        # of them they kept.
        self.decode_steps = 0
        self.draft_tokens_proposed = 0
        self.draft_tokens_accepted = 0

    # -- request intake ----------------------------------------------------------
    def _validate(self, request: GenerationRequest) -> None:
        if not request.prompt_ids:
            raise GenerationError("prompt must contain at least one token")
        self.model.check_token_ids(request.prompt_ids, "prompt")
        vocab = self.model.config.vocab_size
        if request.logit_bias is not None and request.logit_bias.shape != (vocab,):
            raise GenerationError(f"logit_bias must have shape ({vocab},)")
        if request.top_k is not None:
            if request.top_k < 1:
                raise GenerationError(f"top_k must be >= 1, got {request.top_k}")
            if request.rng is None:
                raise GenerationError("top_k sampling requires an rng")

    def submit(self, request: GenerationRequest) -> int:
        """Enqueue one request; returns its sequence id.

        The request is admitted into a KV slot by a later :meth:`step` —
        immediately if a slot is free, otherwise as soon as one retires.
        """
        self._validate(request)
        seq_id = self._next_id
        self._next_id += 1
        heapq.heappush(self._pending, (request.priority, seq_id, request))
        return seq_id

    def _validate_score(self, request: ScoringRequest) -> None:
        if not request.prompt_ids:
            raise GenerationError("scoring needs a non-empty prompt")
        if not request.completion_ids:
            raise GenerationError("scoring needs a non-empty completion")
        self.model.check_token_ids(request.prompt_ids, "prompt")
        self.model.check_token_ids(request.completion_ids, "completion")
        total = len(request.prompt_ids) + len(request.completion_ids)
        if total > self.model.config.max_seq_len:
            raise GenerationError(
                f"sequence length {total} exceeds context "
                f"{self.model.config.max_seq_len}"
            )

    def submit_score(self, request: ScoringRequest) -> int:
        """Enqueue one teacher-forced scoring job; returns its sequence id.

        Scoring jobs share the engine's sequence-id space and streaming
        ``step``/``collect`` loop with generation requests, but occupy no
        KV slot and reserve no pages: each job is one cache-free forward
        at the lone-sequence shape (see :meth:`_score_admit`), so mixing
        score traffic into a decode fleet can never change a generated
        token.  :meth:`collect` yields the job's
        :class:`SequenceScore` in place of a token list.
        """
        self._validate_score(request)
        seq_id = self._next_id
        self._next_id += 1
        self._pending_scores.append((seq_id, request))
        return seq_id

    def cancel(self, seq_id: int) -> bool:
        """Abandon one submitted sequence; returns True when it was live.

        The sequence finishes immediately with whatever tokens it has
        produced so far — an empty list while still queued or mid-prefill,
        a prefix of the full decode once active — and its slot (queue
        entry, parked block table, or KV slot) is reclaimed.  Unknown or
        already-finished ids return False and change nothing.
        """
        if seq_id in self._finished:
            return False
        for i, (_pri, sid, _request) in enumerate(self._pending):
            if sid == seq_id:
                self._pending[i] = self._pending[-1]
                self._pending.pop()
                heapq.heapify(self._pending)
                self._finished[seq_id] = []
                return True
        for i, state in enumerate(self._preempted):
            if state.seq_id == seq_id:
                # A preempted sequence finishes with its tokens so far (a
                # prefix of the full decode); its suspended KV — detached
                # pages plus the kept share of its reservation — returns
                # to the pool immediately.
                del self._preempted[i]
                self._release_suspended(state)
                self._finished[seq_id] = list(state.produced)
                self.total_generated_tokens += len(state.produced)
                return True
        for i, (sid, _request) in enumerate(self._pending_scores):
            if sid == seq_id:
                # A cancelled scoring job yields no score at all (``None``)
                # — the scoring analogue of a queued generation's ``[]``.
                del self._pending_scores[i]
                self._finished[seq_id] = None
                return True
        for i, state in enumerate(self._prefilling):
            if state.seq_id == seq_id:
                # Close the gap so the parked block stays contiguous:
                # every later parked row shifts down by one.  The
                # cancelled row's pages (and its reserved quota) return
                # to the pool first — recycling is immediate, not
                # deferred to a later compaction.
                base = self._n_active
                self._caches.release(base + i)
                self._caches.unreserve(state.page_quota)
                for j in range(i + 1, len(self._prefilling)):
                    self._caches.move_prefix(
                        base + j, base + j - 1, self._prefilling[j].prefilled
                    )
                del self._prefilling[i]
                self._finished[seq_id] = []
                return True
        for slot in range(self._n_active):
            if self._slots[slot].seq_id == seq_id:
                old_base = self._n_active
                self._retire(slot)
                self._shift_parked(old_base)
                return True
        return False

    # -- preemption --------------------------------------------------------------
    def preempt(self, seq_id: int) -> bool:
        """Evict one *active* decode; it resumes later with identical tokens.

        The sequence's resident KV is detached — an O(1) block-table
        detach (pages stay allocated; the worst-case *unwritten*
        remainder of its reservation returns to the pool so a blocked
        arrival can use it) — and its slot is compacted away for other
        work.  Resumption re-admits
        the sequence through the parked-prefill fleet with ``prefilled``
        pointing at its resident KV: only the last produced token is
        re-fed (the interrupted decode step), never a prompt token, so
        the preempted-and-resumed token stream is exactly the sequential
        one.  Returns ``False`` for ids that are not active decodes
        (queued, parked mid-prefill, already preempted, or finished).
        """
        for slot in range(self._n_active):
            if self._slots[slot].seq_id == seq_id:
                break
        else:
            return False
        state = self._slots[slot]
        caches = self._caches
        resident = int(caches.lengths[slot])
        if resident != len(state.request.prompt_ids) + len(state.produced) - 1:
            raise GenerationError(
                f"seq {seq_id}: resident KV {resident} disagrees with "
                "prompt + produced - 1 — engine accounting bug"
            )
        table = caches.detach_table(slot)
        total = caches.pages_for(len(state.request.prompt_ids) + state.budget)
        freeable = total - len(table)
        caches.unreserve(freeable)
        state.page_quota -= freeable
        state.suspend_reserve = freeable
        state.detached = table
        state.resume_ids = list(state.request.prompt_ids) + state.produced
        state.prefilled = resident
        # Compact the fleet exactly like _retire, minus the finish: the
        # evicted slot's table is already detached, so move()'s
        # release(dst) is a no-op.
        old_base = self._n_active
        tail = self._n_active - 1
        if slot != tail:
            caches.move(tail, slot)
            self._bias[slot] = self._bias[tail]
            self._eos[slot] = self._eos[tail]
            self._budget[slot] = self._budget[tail]
            self._count[slot] = self._count[tail]
            self._slots[slot] = self._slots[tail]
        self._slots[tail] = None
        self._n_active -= 1
        self._shift_parked(old_base)
        self._preempted.append(state)
        self.preemptions += 1
        self.preempted_resident_tokens += resident
        return True

    def preempt_victim(self, than_priority: int) -> int | None:
        """Preempt the lowest-priority active decode *strictly* below
        ``than_priority`` (numerically greater); returns its seq id.

        The pressure valve the scheduler and the engine's own admission
        path use: equal priorities never preempt each other, so
        preemption only ever flows from a more urgent class to a less
        urgent one and cannot thrash.  ``None`` when no eligible victim
        exists.
        """
        victim: _SlotState | None = None
        for slot in range(self._n_active):
            state = self._slots[slot]
            if state.request.priority > than_priority and (
                victim is None or state.sort_key > victim.sort_key
            ):
                victim = state
        if victim is None:
            return None
        self.preempt(victim.seq_id)
        return victim.seq_id

    def note_stream_disconnect(self) -> None:
        """Count one mid-stream client disconnect (serving observability)."""
        self.stream_disconnects += 1

    def produced_so_far(self, seq_id: int) -> list[int] | None:
        """Snapshot of a live sequence's tokens so far (streaming reads).

        Covers active, preempted and parked sequences; ``None`` for
        queued, finished or unknown ids.  Must be called from the
        engine-driving thread (between steps), like every other method.
        """
        for slot in range(self._n_active):
            state = self._slots[slot]
            if state is not None and state.seq_id == seq_id:
                return list(state.produced)
        for state in self._preempted:
            if state.seq_id == seq_id:
                return list(state.produced)
        for state in self._prefilling:
            if state.seq_id == seq_id:
                return list(state.produced)
        return None

    def _release_suspended(self, state: _SlotState) -> None:
        """Return a suspended sequence's KV + reservation to the pool."""
        if state.detached is not None:
            self._caches.drop_table(state.detached)
        state.detached = None
        if state.page_quota:
            self._caches.unreserve(state.page_quota)
            state.page_quota = 0
        state.suspend_reserve = 0

    def _demote_one_preempted(self) -> bool:
        """Liveness valve: demote one suspended sequence to cold re-prefill.

        With an undersized pool, the kept reservations of several
        suspended sequences can wedge admission (nothing fits while
        every suspended page stays covered).  Dropping the
        lowest-priority suspended sequence's pages and reservation
        frees real headroom; the sequence later re-prefills its prompt
        *plus its produced tokens* — teacher-forcing its own prefix —
        so its token stream is still exactly the sequential one, at the
        cost of recompute.  Never triggers while normal resume can make
        progress; returns ``False`` when nothing is demotable.
        """
        victim: _SlotState | None = None
        for state in self._preempted:
            if state.detached is not None and (
                victim is None or state.sort_key > victim.sort_key
            ):
                victim = state
        if victim is None:
            return False
        self._release_suspended(victim)
        victim.prefilled = 0
        return True

    def _admit_resume(self, state: _SlotState) -> bool:
        """Re-reserve a preempted sequence's worst-case remainder.

        Warm resumes re-reserve only the remainder their preemption
        released; cold (demoted) resumes reserve the full quota afresh.
        When the pool cannot cover it, a strictly-lower-priority active
        decode is preempted to make room; with no victim left the
        resume stays blocked (``False``) until retirements free pages.
        """
        caches = self._caches
        if state.detached is None and state.prefilled == 0 and state.page_quota == 0:
            need = caches.pages_for(len(state.request.prompt_ids) + state.budget)
        else:
            need = state.suspend_reserve
        while not caches.try_reserve(need):
            if self.preempt_victim(state.request.priority) is None:
                return False
        state.page_quota += need
        state.suspend_reserve = 0
        self.resumes += 1
        return True

    @property
    def n_active(self) -> int:
        """Sequences currently decoding in KV slots."""
        return self._n_active

    @property
    def n_prefilling(self) -> int:
        """Sequences mid-way through chunked prompt prefill."""
        return len(self._prefilling)

    @property
    def n_pending(self) -> int:
        """Submitted sequences not yet admitted into a slot."""
        return len(self._pending)

    @property
    def n_pending_scores(self) -> int:
        """Scoring jobs waiting for a step's score phase."""
        return len(self._pending_scores)

    @property
    def free_capacity(self) -> int:
        """Slots the engine can absorb before submissions queue behind others."""
        return (
            self.max_batch
            - self._n_active
            - self.n_prefilling
            - len(self._pending)
        )

    @property
    def n_preempted(self) -> int:
        """Preempted sequences waiting to resume."""
        return len(self._preempted)

    @property
    def has_work(self) -> bool:
        return (
            bool(self._pending)
            or bool(self._pending_scores)
            or self._n_active > 0
            or bool(self._prefilling)
            or bool(self._preempted)
        )

    def kv_stats(self) -> dict:
        """Occupancy and KV-memory counters (the ``/metrics`` payload).

        Always includes the fleet occupancy; once the caches exist the
        pool's residency counters are merged in — among them the
        ``free_pages`` headroom operators watch to see
        admission pressure building before requests start queueing (and
        the server's bounded queue starts returning 429s).
        """
        stats: dict = {
            "max_batch": self.max_batch,
            "n_active": self._n_active,
            "n_prefilling": len(self._prefilling),
            "n_pending": len(self._pending),
            "n_pending_scores": len(self._pending_scores),
            "n_preempted": len(self._preempted),
            "free_slots": max(self.free_capacity, 0),
            "decode_steps": self.decode_steps,
            "draft_tokens_proposed": self.draft_tokens_proposed,
            "draft_tokens_accepted": self.draft_tokens_accepted,
            "preemption": {
                "preemptions": self.preemptions,
                "resumes": self.resumes,
                "preempted_resident_tokens": self.preempted_resident_tokens,
                "stream_disconnects": self.stream_disconnects,
            },
        }
        caches = self._caches
        if caches is None:
            total = self.kv_pool_pages or self.max_batch * -(
                -self.model.config.max_seq_len // self.kv_page_tokens
            )
            stats.update(
                kv_page_tokens=self.kv_page_tokens, resident_kv_bytes=0,
                total_pages=total, free_pages=total, reserved_pages=0,
                pages_in_use=0,
            )
        else:
            stats.update(caches.stats())
        return stats

    def clear_prefix_cache(self) -> int:
        """Drop every cached (unreferenced) prefix page; returns pages freed.

        Live slots keep their borrowed pages until they retire.  No-op
        without the prefix cache and before the pool is first allocated.
        """
        if self._caches is None:
            return 0
        return self._caches.clear_prefix_cache()

    # -- slot bookkeeping --------------------------------------------------------
    def _ensure_state(self) -> None:
        if self._caches is None:
            self._caches = PagedKVCaches(
                self.model, self.max_batch, self.kv_page_tokens,
                self.kv_pool_pages,
                prefix_cache=self.kv_prefix_cache,
            )
            self._bias = np.zeros(
                (self.max_batch, self.model.config.vocab_size), dtype=np.float32
            )

    def _install(self, slot: int, state: _SlotState) -> None:
        """Occupy ``slot`` with a fully prefilled sequence."""
        request = state.request
        # The whole prompt is resident in the slot's pages now: offer its
        # full pages to the prefix index for reuse (no-op unless the
        # prefix cache is enabled).
        self._caches.register_prefix(slot, request.prompt_ids)
        self._slots[slot] = state
        self._bias[slot] = (
            request.logit_bias if request.logit_bias is not None else 0.0
        )
        self._eos[slot] = -1 if request.eos_id is None else request.eos_id
        self._budget[slot] = state.budget
        self._count[slot] = 0

    def _retire(self, slot: int) -> None:
        """Finish ``slot``'s sequence and compact the fleet (swap-with-last)."""
        state = self._slots[slot]
        self._finished[state.seq_id] = state.produced
        self.total_generated_tokens += len(state.produced)
        caches = self._caches
        # The retiring sequence's pages and reserved quota go back to the
        # shared free list before compaction moves the tail's block table
        # over the freed slot.
        caches.release(slot)
        caches.unreserve(state.page_quota)
        tail = self._n_active - 1
        if slot != tail:
            caches.move(tail, slot)
            self._bias[slot] = self._bias[tail]
            self._eos[slot] = self._eos[tail]
            self._budget[slot] = self._budget[tail]
            self._count[slot] = self._count[tail]
            self._slots[slot] = self._slots[tail]
        self._slots[tail] = None
        self._n_active -= 1

    def _choose_token(self, request: GenerationRequest, logits_row: np.ndarray) -> int:
        if request.top_k is not None:
            return _sample_top_k(logits_row, request.top_k, request.rng)
        return int(logits_row.argmax())

    def _first_token(self, state: _SlotState, logits_row: np.ndarray, slot: int) -> bool:
        """Apply biases, select, record; return True when finished."""
        request = state.request
        step = logits_row
        if request.logit_bias is not None or request.step_bias is not None:
            step = step + self._bias[slot]
            if request.step_bias is not None:
                request.step_bias(state.produced, step)
        token = self._choose_token(request, step)
        state.produced.append(token)
        self._count[slot] = len(state.produced)
        return (
            request.eos_id is not None and token == request.eos_id
        ) or len(state.produced) >= state.budget

    # -- prefill phase -----------------------------------------------------------
    def _pop_viable(self) -> _SlotState | None:
        """Pop the best admissible sequence: resume a preempted one or
        admit a fresh request, whichever has the smaller ``(priority,
        seq_id)`` key.

        Admission also reserves the request's
        worst-case page quota (``ceil((prompt + budget) / page)``): when
        the pool cannot cover it, a strictly-lower-priority active
        decode is preempted to make room (:meth:`preempt_victim`);
        failing that the candidate stays queued/suspended in priority
        order and ``None`` is returned — retirements will free pages
        and a later step admits it.  A lone sequence always fits
        (enforced at pool construction) and the cold-demotion valve in
        :meth:`step` bounds suspended reservations, so this can never
        deadlock.

        With the prefix cache on, fresh admission first consults the
        radix index (:meth:`PagedKVCaches.admit_shared`): a hit charges
        only the unshared suffix against the pool and returns the state
        pre-advanced to the first divergent token (``prefilled ==
        matched``) carrying the borrowed pages to attach at parking.
        """
        context = self.model.config.max_seq_len
        while True:
            resume_i: int | None = None
            for i, suspended in enumerate(self._preempted):
                if (
                    resume_i is None
                    or suspended.sort_key < self._preempted[resume_i].sort_key
                ):
                    resume_i = i
            head = self._pending[0] if self._pending else None
            if resume_i is not None and (
                head is None
                or self._preempted[resume_i].sort_key < (head[0], head[1])
            ):
                state = self._preempted[resume_i]
                if not self._admit_resume(state):
                    return None
                # preempt_victim inside _admit_resume only appends
                # strictly-worse entries, so the index stays valid.
                del self._preempted[resume_i]
                return state
            if head is None:
                return None
            _priority, seq_id, request = head
            budget = min(request.max_new_tokens, context - len(request.prompt_ids))
            if budget <= 0:
                heapq.heappop(self._pending)
                self._finished[seq_id] = []
                continue
            total = self._caches.pages_for(len(request.prompt_ids) + budget)
            admitted = self._caches.admit_shared(request.prompt_ids, total)
            while admitted is None:
                if self.preempt_victim(request.priority) is None:
                    return None
                admitted = self._caches.admit_shared(request.prompt_ids, total)
            quota, matched, pages = admitted
            heapq.heappop(self._pending)
            state = _SlotState(seq_id, request, budget, page_quota=quota)
            if matched:
                state.prefilled = matched
                state.shared_pages = pages
            return state

    def _park(self, state: _SlotState) -> None:
        """Park ``state`` just past the decode fleet (contiguous block).

        A shared-prefix admission attaches its borrowed pages as the
        parked slot's block-table prefix here; the row then advances
        only its unshared suffix through the ordinary chunk machinery.
        A warm preempted resume reattaches its detached resident KV the
        same way — the parked row then has exactly one token left to
        feed (the interrupted decode step), so nothing is re-prefilled.
        """
        slot = self._n_active + len(self._prefilling)
        self._prefilling.append(state)
        if state.shared_pages:
            self._caches.attach_prefix(slot, state.shared_pages, state.prefilled)
            state.shared_pages = []
        if state.detached is not None:
            self._caches.attach_table(slot, state.detached, state.prefilled)
            state.detached = None

    def _promote_parked(self, logits_rows: list[np.ndarray]) -> None:
        """Move fully prefilled parked prompts into the decode fleet.

        ``logits_rows`` align with ``self._prefilling`` and carry each
        row's last-token logits from the forward that just advanced it.
        Completed rows must become the next contiguous decode slots, so
        when they finished out of park order the parked block tables are
        permuted completed-first; instant first-token finishes retire
        immediately (shifting the still-parked rows down over the freed
        slots).
        """
        parked = self._prefilling
        completed = [
            i for i, state in enumerate(parked)
            if state.prefilled == len(state.feed_ids)
        ]
        if not completed:
            return
        remaining = [
            i for i, state in enumerate(parked)
            if state.prefilled < len(state.feed_ids)
        ]
        base = self._n_active
        order = completed + remaining
        if order != list(range(len(parked))):
            self._caches.permute_prefixes(
                base, order, [parked[i].prefilled for i in order]
            )
        finished_slots: list[int] = []
        for j, i in enumerate(completed):
            state = parked[i]
            slot = base + j
            self._caches.lengths[slot] = state.prefilled
            self._install(slot, state)
            self._n_active += 1
            if self._first_token(state, logits_rows[i], slot):
                finished_slots.append(slot)
        self._prefilling = [parked[i] for i in remaining]
        if finished_slots:
            parked_base = self._n_active
            for slot in reversed(finished_slots):
                self._retire(slot)
            self._shift_parked(parked_base)

    def _shift_parked(self, old_base: int) -> None:
        """Shift the parked block tables down to follow a shrunk fleet."""
        if old_base == self._n_active:
            return
        for i, state in enumerate(self._prefilling):
            self._caches.move_prefix(
                old_base + i, self._n_active + i, state.prefilled
            )

    def _admit(self) -> list[tuple[_SlotState, int]]:
        """Prefill phase: park pending work and plan every parked advance.

        Admitted sequences park in free slots just past the decode
        fleet.  Returns ``(state, end)`` per parked row: the row feeds
        ``feed_ids[prefilled:end]`` in the next packed forward.  With an
        idle fleet, where there is nothing to stall, every parked prompt
        advances whole; with in-flight decodes, up to
        ``prefill_concurrency`` parked prompts each advance at most one
        ``prefill_chunk_tokens`` chunk per step.
        """
        limit = self.max_batch - self._n_active
        if self._n_active or self._prefilling:
            limit = min(self.prefill_concurrency, limit)
        while len(self._prefilling) < limit:
            state = self._pop_viable()
            if state is None:
                break
            self._park(state)
        if self._n_active == 0:
            return [(state, len(state.feed_ids)) for state in self._prefilling]
        chunk = self.prefill_chunk_tokens
        return [
            (state, min(state.prefilled + chunk, len(state.feed_ids)))
            for state in self._prefilling
        ]

    def _unified_forward(
        self, plan: list[tuple[_SlotState, int]], feed: np.ndarray | None
    ) -> np.ndarray:
        """One packed mixed-length varlen forward over decode AND prefill rows.

        ``feed`` is the decode fleet's ``(n_decode, q)`` token matrix
        (see :meth:`_draft`): row ``b`` is decode slot ``b`` feeding its
        last produced token and ``q - 1`` drafted ones at depths
        ``lengths[b] .. lengths[b] + q - 1``.  ``feed`` is ``None`` while
        no sequence is decoding, and the parked rows prefill alone.  Row
        ``n_decode + i`` is parked slot ``n_active + i`` advancing
        ``[prefilled, end)``.  All real tokens are concatenated on one
        packed axis (``pack_spans``) — no pad position ever enters a
        projection GEMM — and each row attends over its whole written
        prefix.  Returns float32 logits ``(n_decode·q + len(plan), V)``:
        every decode position in row-major order, then each prefill
        row's last token.  Parked progress is advanced in place; decode
        lengths advance in :meth:`_verify`, once acceptance is known.
        """
        caches = self._caches
        n_decode, per = (0, 0) if feed is None else feed.shape
        n_rows = n_decode + len(plan)
        starts = np.empty(n_rows, dtype=np.int64)
        ends = np.empty(n_rows, dtype=np.int64)
        starts[:n_decode] = caches.lengths[:n_decode]
        ends[:n_decode] = starts[:n_decode] + per
        for i, (state, end) in enumerate(plan):
            starts[n_decode + i] = state.prefilled
            ends[n_decode + i] = end
        spans = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=spans[1:])
        total = int(spans[-1])
        width = n_decode * per
        idx = np.empty((1, total), dtype=np.int64)
        positions = np.empty((1, total), dtype=np.int64)
        key_mask = None
        if n_decode:
            depths = starts[:n_decode, None] + np.arange(per)
            idx[0, :width] = feed.ravel()
            positions[0, :width] = depths.ravel()
            # The decode rows run as one fused masked sub-attention over
            # their stacked view: query i of row b sees columns
            # c <= starts[b] + i (its own token and everything before).
            view = int(ends[:n_decode].max())
            key_mask = np.where(
                np.arange(view) <= depths[:, :, None],
                np.float32(0.0),
                _NEG_INF,
            )[:, None]
        for i, (state, end) in enumerate(plan):
            start = state.prefilled
            s, e = int(spans[n_decode + i]), int(spans[n_decode + i + 1])
            idx[0, s:e] = state.feed_ids[start:end]
            positions[0, s:e] = np.arange(start, end)
            self.total_prompt_tokens_prefilled += max(
                0, min(end, len(state.request.prompt_ids)) - start
            )
        logits = self.model._forward_numpy(
            idx,
            caches.packed_adapters(
                self._n_active - n_decode, starts, ends, spans, n_decode
            ),
            token_positions=positions,
            key_mask=key_mask,
            pack_spans=spans,
            logit_positions=np.concatenate(
                (np.arange(width), spans[n_decode + 1 :] - 1)
            ),
        )[0]
        for state, end in plan:
            state.prefilled = end
        return logits

    # -- speculative decode: draft and verify ------------------------------------
    def _draft(self) -> np.ndarray:
        """The decode fleet's feed for this step: ``(n_active, q)`` tokens.

        Column 0 is each row's last produced token; columns ``1..q-1``
        are its prompt-lookup draft, or filler (the last token again) for
        a row without a draft and for sampled rows, which keep one token
        per step.  A step where no greedy row has a draft runs ``q = 1``;
        otherwise ``q = min(1 + _DRAFT_TOKENS, min_b(cap_b −
        lengths[b]))``, where ``cap_b`` is the columns of row ``b``'s
        reserved quota ``pages_for(prompt + budget)``, capped at
        ``max_seq_len``: every write stays inside the quota and every
        position inside the context.  ``cap_b − lengths[b] ≥ budget_b −
        count_b + 1 ≥ 2``, so a row can always verify at least one draft
        past its next token; acceptance stops at the budget.
        """
        n = self._n_active
        slots = self._slots
        caches = self._caches
        lengths = caches.lengths[:n]
        # An active row holds prompt + count - 1 columns.
        quota_tokens = lengths - self._count[:n] + 1 + self._budget[:n]
        p = caches.page_tokens
        cap = np.minimum(-(-quota_tokens // p) * p, caches.max_seq_len)
        k = min(_DRAFT_TOKENS, int((cap - lengths).min()) - 1)
        last = []
        drafts = []
        for b in range(n):
            state = slots[b]
            last.append(state.produced[-1])
            if state.request.top_k is not None:
                continue
            drafter = state.drafter
            if drafter is None:
                drafter = state.drafter = _PromptLookup(state.request.prompt_ids)
            draft = drafter.draft(state.produced, k)
            if draft:
                drafts.append((b, draft))
        if not drafts:
            k = 0
        feed = np.empty((n, k + 1), dtype=np.int64)
        feed[:] = np.asarray(last, dtype=np.int64)[:, None]
        for b, draft in drafts:
            feed[b, 1:] = draft
        return feed

    def _verify(self, logits: np.ndarray, feed: np.ndarray) -> list[int]:
        """Keep each decode row's agreeing draft prefix plus a bonus token.

        ``logits`` is ``(n, q, V)``: position ``i`` of row ``b`` predicts
        the token after ``feed[b, i]``.  Every row goes position by
        position (:meth:`_verify_row`) with ``logit_bias`` added, so each
        kept token is exactly what one-token decode would have produced.
        Advances produced tokens, counts and KV lengths; returns the rows
        that finished (EOS or budget), ascending.
        """
        n, per = feed.shape
        slots = self._slots
        step = logits + self._bias[:n, None, :]
        feed_rows = feed.tolist()
        kept = []
        last = []
        proposed = 0
        for b in range(n):
            state = slots[b]
            if state.request.top_k is None:
                # Draft positions this greedy row could keep, budget
                # permitting.
                proposed += min(per, state.budget - len(state.produced)) - 1
            kept.append(self._verify_row(state, step[b], feed_rows[b]))
            last.append(state.produced[-1])
        accepted = np.asarray(kept, dtype=np.int64)
        self._count[:n] += accepted
        self._caches.advance(n, accepted)
        self.decode_steps += 1
        self.draft_tokens_proposed += proposed
        self.draft_tokens_accepted += int(accepted.sum()) - n
        finished = (np.asarray(last) == self._eos[:n]) | (
            self._count[:n] >= self._budget[:n]
        )
        return np.flatnonzero(finished).tolist()

    @staticmethod
    def _verify_row(
        state: _SlotState, logits: np.ndarray, feed_row: list[int]
    ) -> int:
        """Position-by-position acceptance for one decode row.

        The row stops at its first mismatch, at EOS or at its budget.
        The hook sees ``produced`` with every token kept so far this step
        appended — ``produced + draft[:i]`` at position ``i`` — and runs
        only on positions whose predecessors were all kept, so it runs
        once per produced token, as in one-token decode.  A sampled row
        draws exactly one token, from position 0.  Returns the number of
        tokens kept.
        """
        request = state.request
        produced = state.produced
        hook = request.step_bias
        per = min(len(feed_row), state.budget - len(produced))
        i = 0
        while True:
            row = logits[i]
            if hook is not None:
                hook(produced, row)
            if request.top_k is not None:
                # The exact sampler of TransformerLM.generate on the
                # request's private rng stream: draw-for-draw parity
                # with the sequential path, whatever the batch.
                produced.append(_sample_top_k(row, request.top_k, request.rng))
                return 1
            token = int(row.argmax())
            produced.append(token)
            i += 1
            if i == per or token == request.eos_id or token != feed_row[i]:
                return i

    # -- scoring phase -----------------------------------------------------------
    def _score_admit(self) -> None:
        """Run up to ``max_batch`` queued scoring jobs through the model.

        Each job is one cache-free forward at the lone-sequence ``(1, T)``
        shape via :meth:`TransformerLM.sequence_logprobs` — the
        bitwise-pinned sequential reference itself, because batched trunk
        GEMMs round differently from single-row GEMMs at the last ulp and
        a pinned *score* (unlike a greedy token) has no argmax margin to
        hide behind.  Batching therefore lives at this intake layer: a
        step scores at most ``max_batch`` jobs, so a scoring burst delays
        in-flight decodes by a bounded number of forwards per step, and
        score jobs touch no KV slot, no page, and no reservation — they
        cannot perturb the generation fleet they share the loop with.
        """
        for _ in range(min(self.max_batch, len(self._pending_scores))):
            seq_id, request = self._pending_scores.popleft()
            self._finished[seq_id] = SequenceScore(
                self.model.sequence_logprobs(
                    request.prompt_ids, request.completion_ids
                )
            )

    # -- streaming loop ----------------------------------------------------------
    def step(self) -> int:
        """Run one engine round: score, prefill, decode, retire.

        Returns the number of sequences that finished during this call
        (prefill-time instant finishes included); a no-op when idle.
        """
        if not self.has_work:
            return 0
        before = len(self._finished)
        if self._pending_scores:
            self._score_admit()
        if not (
            self._pending or self._preempted or self._n_active or self._prefilling
        ):
            # Pure scoring traffic: no KV state to allocate or advance.
            return len(self._finished) - before
        self._ensure_state()
        plan = self._admit()
        n_active = self._n_active
        if not (n_active or plan):
            # Nothing admissible.  If suspended sequences exist, their
            # kept reservations may be what is wedging the pool (only
            # reachable with an undersized pool): demote the lowest-
            # priority one to a cold re-prefill and retry admission once
            # — repeated steps demote one at a time until something
            # fits, so the engine can never deadlock on its own state.
            if self._preempted and self._demote_one_preempted():
                plan = self._admit()
            if not plan:
                return len(self._finished) - before

        feed = self._draft() if n_active else None
        logits = self._unified_forward(plan, feed)
        width = 0
        retired: list[int] = []
        if n_active:
            width = feed.size
            retired = self._verify(
                logits[:width].reshape(n_active, feed.shape[1], -1), feed
            )
        for b in reversed(retired):
            self._retire(b)
        if retired:
            # The mid-prefill sequences stay parked just past the fleet:
            # move their block tables down over the rows compaction freed
            # (n_active was the parked base before the retire loop).
            self._shift_parked(n_active)
        if plan:
            # Parked rows that consumed their last prompt token join the
            # fleet now, selecting their first tokens from this forward.
            self._promote_parked(list(logits[width:]))
        return len(self._finished) - before

    def collect(self) -> dict[int, list[int] | SequenceScore | None]:
        """Pop every finished result keyed by sequence id.

        Generation requests yield their produced token list; scoring
        jobs yield a :class:`SequenceScore` (or ``None`` when cancelled
        before their score phase ran).
        """
        finished = self._finished
        self._finished = {}
        return finished

    # -- run to completion -------------------------------------------------------
    def generate(self, requests: list[GenerationRequest]) -> list[list[int]]:
        # Validate the whole list before enqueuing anything, so a bad
        # request cannot strand its predecessors in the pending queue.
        for request in requests:
            self._validate(request)
        ids = [self.submit(request) for request in requests]
        remaining = set(ids)
        while remaining - self._finished.keys():
            if self.step() == 0 and not self.has_work:
                raise GenerationError(
                    "engine drained without finishing all requests "
                    "(collect() called concurrently?)"
                )
        return [self._finished.pop(seq_id) for seq_id in ids]

    def score(self, requests: list[ScoringRequest]) -> list[SequenceScore]:
        """Teacher-force score every request and return results in order.

        The run-to-completion analogue of :meth:`generate` for scoring
        traffic: validates the whole list up front, enqueues everything,
        and drives :meth:`step` until every job has a
        :class:`SequenceScore`.  Safe to interleave with in-flight
        generation work — score jobs ride the same step loop without
        touching KV state.
        """
        for request in requests:
            self._validate_score(request)
        ids = [self.submit_score(request) for request in requests]
        remaining = set(ids)
        while remaining - self._finished.keys():
            if self.step() == 0 and not self.has_work:
                raise GenerationError(
                    "engine drained without finishing all scoring requests "
                    "(collect() called concurrently?)"
                )
        return [self._finished.pop(seq_id) for seq_id in ids]
