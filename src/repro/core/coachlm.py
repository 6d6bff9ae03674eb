"""The CoachLM facade: train once, revise instruction datasets.

Reproduces the full inference pipeline of Section III-B1:

1. every pair is wrapped in the Fig. 3 revision prompt and decoded;
2. outputs are cleaned of invalid characters and repeated strings;
3. invalid revisions (~1.3% in the paper) fall back to the original pair;
4. pairs whose instruction appeared in coach training are skipped to
   avoid data leakage (~1.3% in the paper) — originals pass through.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..config import DEFAULT_GEN_BATCH_SIZE, DEFAULT_KV_PAGE_TOKENS
from ..data.dataset import InstructionDataset
from ..data.instruction_pair import InstructionPair, Origin
from ..errors import GenerationError, ModelError
from ..experts.revision import RevisionRecord
from ..llm.prompts import encode_coach_prompt, parse_coach_output
from ..llm.tokenizer import WordTokenizer
from ..nn.decoding import BatchedEngine, GenerationRequest, InductionCopyBias
from ..nn.transformer import TransformerLM
from .postprocess import clean_revised_tokens, validate_revision
from .selection import select_by_alpha
from .training import CoachTrainingConfig, train_coach_model


class RevisionOutcome(enum.Enum):
    """Why a pair ended up with its revised (or original) text."""

    REVISED = "revised"
    INVALID_OUTPUT = "invalid_output"      #: fell back to original (~1.3%)
    LEAKAGE_SKIPPED = "leakage_skipped"    #: instruction seen in training (~1.3%)
    PROMPT_TOO_LONG = "prompt_too_long"    #: original exceeds the context window
    UNCHANGED = "unchanged"                 #: coach chose to keep the pair
    NOT_SELECTED = "not_selected"           #: below the IFD top-k revision cut
    REVIEW_REJECTED = "review_rejected"     #: revision failed the score self-review


@dataclass
class RevisionStats:
    """Aggregate outcome counts of one dataset revision run.

    Outcomes are keyed by string so the serving layer can record its own
    terminal states (``expired``, ``quality_gated``) alongside the
    :class:`RevisionOutcome` values.
    """

    outcomes: dict[str, int] = field(default_factory=dict)

    def record(self, outcome: "RevisionOutcome | str") -> None:
        key = outcome if isinstance(outcome, str) else outcome.value
        self.outcomes[key] = self.outcomes.get(key, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.outcomes.values())

    def fraction(self, outcome: RevisionOutcome) -> float:
        if self.total == 0:
            return 0.0
        return self.outcomes.get(outcome.value, 0) / self.total


class CoachLM:
    """A trained coach model plus its revision pipeline.

    ``copy_bias`` adds a pointer-style bonus to the logits of tokens that
    appear in the original pair (plus revision-idiom tokens: the
    explanation connective, the polite coda, punctuation and the template
    markers).  A 6B backbone copies long spans natively; the tiny LM needs
    this decode-time assist to match that behaviour — see DESIGN.md §2.
    """

    def __init__(
        self,
        model: TransformerLM | None,
        tokenizer: WordTokenizer,
        trained_instructions: frozenset[str] = frozenset(),
        max_new_tokens: int = 72,
        copy_bias: float = 3.0,
    ):
        self.model = model
        self.tokenizer = tokenizer
        self.trained_instructions = trained_instructions
        self.max_new_tokens = max_new_tokens
        self.copy_bias = copy_bias
        self._idiom_ids = self._build_idiom_ids(tokenizer)
        # Computed once: the vocabulary scan behind this set is O(noise
        # lexicon) and used per pair on both the bias-vector and decode
        # paths.
        self._blocked = self._blocked_ids(tokenizer)

    @staticmethod
    def _build_idiom_ids(tokenizer: WordTokenizer) -> list[int]:
        idiom_words = (
            "because ; . : , ? revised instruction response "
            "i hope this helps one two three and the a"
        )
        ids = set(tokenizer.encode(idiom_words))
        ids.discard(tokenizer.specials.unk)
        ids.add(tokenizer.specials.eos)
        return sorted(ids)

    @staticmethod
    def _blocked_ids(tokenizer: WordTokenizer) -> frozenset[int]:
        """Tokens never boosted by the copy assist: planted surface noise."""
        from ..textgen import vocabulary as V

        words = list(V.NOISE_TOKENS) + list(V.TYPO_MAP) + [
            "ignore", "safety", "proceed", "anyway", "cannot", "feel", "ai",
        ]
        return frozenset(
            tokenizer.encode_word(w) for w in words
        ) - {tokenizer.specials.unk}

    def _copy_bias_vector(self, pair: InstructionPair) -> np.ndarray | None:
        if self.copy_bias <= 0.0 or self.model is None:
            return None
        bias = np.zeros(self.model.config.vocab_size, dtype=np.float32)
        pair_ids = set(
            self.tokenizer.encode(pair.instruction)
            + self.tokenizer.encode(pair.response)
        )
        pair_ids.discard(self.tokenizer.specials.unk)
        blocked = self._blocked
        for token_id in pair_ids:
            if token_id not in blocked:
                bias[token_id] = self.copy_bias * 0.5
        for token_id in self._idiom_ids:
            bias[token_id] = max(bias[token_id], self.copy_bias * 0.4)
        return bias

    def _revision_request(
        self, prompt: list[int], pair: InstructionPair
    ) -> GenerationRequest:
        """The engine request for one pair's copy-assisted revision decode.

        The induction bias (see :meth:`_generate_with_copy_assist`) is
        precomputed into a prompt follower index once per pair instead of
        being rediscovered by an O(prompt) scan at every step.
        """
        step_bias = (
            InductionCopyBias(prompt, self.copy_bias, self._blocked)
            if self.copy_bias > 0.0
            else None
        )
        return GenerationRequest(
            prompt_ids=prompt,
            max_new_tokens=self.max_new_tokens,
            eos_id=self.tokenizer.specials.eos,
            logit_bias=self._copy_bias_vector(pair),
            step_bias=step_bias,
        )

    def _generate_with_copy_assist(
        self, prompt: list[int], pair: InstructionPair
    ) -> list[int]:
        """Greedy decode with an explicit induction bias (sequential path).

        At each step, if the last one or two produced tokens match a span
        inside the prompt, the token following that span receives a logit
        bonus (longer matches earn more).  This is a hard induction head
        standing in for the reliable long-span copying of a billion-scale
        model; the LoRA-tuned LM still decides *where to edit* — its own
        logits can and do override the bias at revision points.

        :meth:`revise_dataset` runs the same decode through the batched
        engine; this per-pair path remains as the reference the engine is
        parity-tested against (and for one-off ``revise_pair`` calls).
        """
        assert self.model is not None
        model = self.model
        sp = self.tokenizer.specials
        budget = min(
            self.max_new_tokens, model.config.max_seq_len - len(prompt)
        )
        if budget <= 0:
            return []
        request = self._revision_request(prompt, pair)
        base_bias = request.logit_bias

        caches: list[dict] = [{"k": None, "v": None} for _ in model.blocks]
        logits = model._forward_numpy(
            np.asarray([prompt], dtype=np.int64), caches
        )[:, -1, :]
        produced: list[int] = []
        offset = len(prompt)
        for _ in range(budget):
            step = logits[0].copy()
            if base_bias is not None:
                step += base_bias
            if request.step_bias is not None:
                request.step_bias(produced, step)
            token = int(step.argmax())
            produced.append(token)
            if token == sp.eos:
                break
            logits = model._forward_numpy(
                np.asarray([[token]], dtype=np.int64), caches,
                position_offset=offset,
            )[:, -1, :]
            offset += 1
        return produced

    @staticmethod
    def _induction_followers(
        prompt: list[int], produced: list[int]
    ) -> list[tuple[int, float]]:
        """Candidate next tokens by suffix match against the prompt.

        Returns (token, strength) pairs; a bigram match earns full
        strength, a unigram match half.
        """
        followers: dict[int, float] = {}
        last = produced[-1]
        second = produced[-2] if len(produced) >= 2 else None
        n = len(prompt)
        for i in range(n - 1):
            if prompt[i] != last:
                continue
            strength = 0.5
            if second is not None and i > 0 and prompt[i - 1] == second:
                strength = 1.0
            follower = prompt[i + 1]
            followers[follower] = max(followers.get(follower, 0.0), strength)
        return list(followers.items())

    # -- construction ------------------------------------------------------------
    @classmethod
    def train(
        cls,
        backbone: TransformerLM,
        tokenizer: WordTokenizer,
        records: list[RevisionRecord],
        rng: np.random.Generator,
        alpha: float = 0.3,
        config: CoachTrainingConfig = CoachTrainingConfig(),
    ) -> "CoachLM":
        """Train CoachLM on the top-α slice of the expert revision dataset.

        ``alpha=0`` reproduces the paper's no-training control: the raw
        backbone is used for revision directly.
        """
        selected = select_by_alpha(records, alpha)
        if not selected:
            return cls(backbone.clone(), tokenizer, frozenset())
        model, _ = train_coach_model(backbone, tokenizer, selected, rng, config)
        # Leakage guard: the paper excludes pairs whose instructions were
        # seen during coach training (~1.3% of ALPACA52K).  Microtext
        # instructions from constant-slot categories collide textually, so
        # we key the guard on pair identity, which is what the paper's
        # exclusion amounts to on its scale.
        trained = frozenset(
            r.original.pair_id for r in selected if r.original.pair_id
        )
        return cls(model, tokenizer, trained)

    # -- revision ---------------------------------------------------------------
    def is_leakage_gated(self, pair: InstructionPair) -> bool:
        """True when the pair was seen during coach training (Eq. (2) guard).

        The single source of the leakage predicate — shared by the batch
        gate below and the serving layer's cache-bypass decision.
        """
        return bool(pair.pair_id) and pair.pair_id in self.trained_instructions

    def _pre_generate(
        self, pair: InstructionPair
    ) -> tuple[list[int] | None, RevisionOutcome | None]:
        """Gate one pair before decoding: (prompt, None) or (None, outcome)."""
        assert self.model is not None
        if self.is_leakage_gated(pair):
            return None, RevisionOutcome.LEAKAGE_SKIPPED
        prompt = encode_coach_prompt(self.tokenizer, pair)
        if len(prompt) >= self.model.config.max_seq_len - 4:
            return None, RevisionOutcome.PROMPT_TOO_LONG
        return prompt, None

    def _post_generate(
        self, pair: InstructionPair, output: list[int]
    ) -> tuple[InstructionPair, RevisionOutcome]:
        """Parse/clean/validate one decoded revision; fall back on failure."""
        try:
            instruction, response = parse_coach_output(self.tokenizer, output)
        except GenerationError:
            return pair, RevisionOutcome.INVALID_OUTPUT

        instruction_tokens = clean_revised_tokens(instruction.split())
        response_tokens = clean_revised_tokens(response.split())
        if not validate_revision(instruction_tokens, response_tokens):
            return pair, RevisionOutcome.INVALID_OUTPUT

        revised = pair.with_text(
            " ".join(instruction_tokens),
            " ".join(response_tokens),
            Origin.COACHLM_REVISED,
        )
        if (
            revised.instruction == pair.instruction
            and revised.response == pair.response
        ):
            return pair, RevisionOutcome.UNCHANGED
        return revised, RevisionOutcome.REVISED

    # Public per-pair pipeline hooks used by the online revision service
    # (:mod:`repro.serving`): gate → engine request → parse/clean/validate.
    # They share the exact code paths of :meth:`revise_dataset`, which is
    # what keeps served revisions token-for-token identical to batch runs.
    def prepare_revision(
        self, pair: InstructionPair
    ) -> tuple[GenerationRequest | None, RevisionOutcome | None]:
        """Gate one pair; return its engine request or a terminal outcome."""
        if self.model is None:
            raise ModelError("CoachLM has no model")
        prompt, outcome = self._pre_generate(pair)
        if prompt is None:
            return None, outcome
        return self._revision_request(prompt, pair), None

    def finalize_revision(
        self, pair: InstructionPair, output: list[int]
    ) -> tuple[InstructionPair, RevisionOutcome]:
        """Parse one decoded revision; falls back to ``pair`` on failure."""
        return self._post_generate(pair, output)

    def revise_pair(
        self, pair: InstructionPair
    ) -> tuple[InstructionPair, RevisionOutcome]:
        """Revise one pair; falls back to the original when necessary."""
        if self.model is None:
            raise ModelError("CoachLM has no model")
        prompt, outcome = self._pre_generate(pair)
        if prompt is None:
            assert outcome is not None
            return pair, outcome
        output = self._generate_with_copy_assist(prompt, pair)
        return self._post_generate(pair, output)

    def revision_run_hash(
        self, revise_top_k: int | None = None, self_review: bool = False
    ) -> str:
        """Identity hash of one :meth:`revise_dataset` run for the journal.

        Covers everything that can change the run's *outputs*: the
        decode knobs, the selection/review knobs, the leakage-gate set
        and a CRC fingerprint of the model's (tied) embedding weights.
        Scheduling knobs (batch size, chunking, paging) are deliberately
        excluded — the engine's pinned contract is that scheduling never
        changes tokens, so a resumed run may batch differently and still
        be byte-identical.
        """
        import json as _json
        import zlib

        from ..serving.journal import run_config_hash

        model_fp = ""
        if self.model is not None:
            weights = np.ascontiguousarray(self.model.tok_emb.weight.data)
            model_fp = f"{zlib.crc32(weights.tobytes()):08x}"
        gate_fp = zlib.crc32(
            _json.dumps(sorted(self.trained_instructions)).encode("utf-8")
        )
        return run_config_hash({
            "kind": "revise_dataset",
            "max_new_tokens": self.max_new_tokens,
            "copy_bias": self.copy_bias,
            "revise_top_k": revise_top_k,
            "self_review": self_review,
            "model": model_fp,
            "leakage_gate": f"{gate_fp:08x}",
            "vocab_size": self.tokenizer.vocab_size,
        })

    def revise_dataset(
        self,
        dataset: InstructionDataset,
        batch_size: int = DEFAULT_GEN_BATCH_SIZE,
        kv_page_tokens: int = DEFAULT_KV_PAGE_TOKENS,
        revise_top_k: int | None = None,
        self_review: bool = False,
        journal=None,
    ) -> tuple[InstructionDataset, RevisionStats]:
        """Revise every pair of a dataset (Eq. (2): D_c = {θ_c(x'_c)}).

        Decoding runs through the batched engine — ``batch_size``
        sequences per forward pass, with packed prefill and
        continuous slot refill, on the same schedule the server runs —
        and is token-identical to calling :meth:`revise_pair` per pair.
        ``kv_page_tokens`` sets the page size of the engine's KV pool
        (identical tokens at every size).

        ``revise_top_k`` spends the decode budget where it helps most:
        teacher-force score the whole dataset (one batched
        :meth:`BatchedEngine.score` pass), rank by IFD, and revise only
        the ``k`` hardest pairs — the rest keep their text with outcome
        ``NOT_SELECTED``.  ``self_review`` closes the loop on every
        claimed revision: accept it only when it lowers response
        perplexity or improves IFD (else revert, ``REVIEW_REJECTED``),
        and feed accepted revisions back through the coach once more,
        keeping whichever round scored best.

        ``journal`` (a :class:`~repro.serving.journal.RunJournal`) makes
        the run crash-safe and resumable: every pair's terminal result
        is appended to an fsync'd write-ahead journal as it completes,
        and re-running with the same journal skips journaled-``DONE``
        pairs entirely (no re-decode) while producing a byte-identical
        final dataset — greedy decode is deterministic, so the redone
        tail matches the uninterrupted run token for token.  A journal
        written by a different configuration or dataset refuses to
        resume with :class:`~repro.errors.JournalMismatchError`.  With
        ``self_review`` the terminal result of a decoded pair is only
        known after the review pass, so ``DONE`` records for those pairs
        land post-review (gated pairs still journal immediately).
        """
        if self.model is None:
            raise ModelError("CoachLM has no model")
        pairs = list(dataset)

        replay = None
        if journal is not None:
            from ..serving.journal import dataset_fingerprint

            replay = journal.open_run(
                self.revision_run_hash(revise_top_k, self_review),
                dataset_fingerprint(pairs),
            )

        verdicts: list = []
        eligible: set[int] | None = None
        if revise_top_k is not None or self_review:
            from ..scoring.ifd import dataset_ifd

            verdicts = dataset_ifd(
                self.model, self.tokenizer, pairs,
                batch_size=batch_size, kv_page_tokens=kv_page_tokens,
            )
        if revise_top_k is not None:
            from ..scoring.selection import select_top_k

            selected, _rest = select_top_k(verdicts, revise_top_k)
            eligible = set(selected)

        # Gate every pair first; only eligible ones enter the decode fleet.
        # Journaled-DONE pairs from a previous incarnation are served from
        # the replay and never gated or decoded again.
        completed = replay.completed if replay is not None else {}
        gated: list[tuple[list[int] | None, RevisionOutcome | None]] = []
        for i, pair in enumerate(pairs):
            if i in completed:
                gated.append((None, None))
            elif eligible is not None and i not in eligible:
                gated.append((None, RevisionOutcome.NOT_SELECTED))
            else:
                gated.append(self._pre_generate(pair))
        decode_idx = [i for i, (p, _) in enumerate(gated) if p is not None]
        requests = [
            self._revision_request(gated[i][0], pairs[i]) for i in decode_idx
        ]
        if journal is not None:
            journal.record_submitted(decode_idx)
        engine = BatchedEngine(
            self.model, max_batch=batch_size, kv_page_tokens=kv_page_tokens
        )
        outputs = iter(engine.generate(requests))

        # Replayed outcomes stay *strings* here: the self-review pass
        # keys on ``outcome is RevisionOutcome.REVISED``, so a replayed
        # pair (already post-review when it was journaled) is never
        # re-reviewed; ``RevisionStats.record`` takes either form.
        results: list[tuple[InstructionPair, RevisionOutcome | str]] = []
        decoded_tokens: dict[int, int] = {}
        for i, (pair, (prompt, outcome)) in enumerate(zip(pairs, gated)):
            if i in completed:
                done = completed[i]
                results.append((done.apply(pair), done.outcome))
            elif prompt is None:
                assert outcome is not None
                results.append((pair, outcome))
                if journal is not None:
                    journal.record_done(i, pair, outcome.value)
            else:
                output = next(outputs)
                decoded_tokens[i] = len(output)
                results.append(self._post_generate(pair, output))
                if journal is not None and not self_review:
                    revised, res_outcome = results[-1]
                    journal.record_done(
                        i, revised, res_outcome.value, len(output)
                    )

        if self_review:
            self._self_review_pass(
                pairs, results, verdicts, engine, batch_size, kv_page_tokens
            )
            if journal is not None:
                # A decoded pair's terminal state is only known after the
                # review pass (it may be reverted or re-revised); journal
                # it now that it is.
                for i in decode_idx:
                    revised, res_outcome = results[i]
                    journal.record_done(
                        i, revised, res_outcome.value, decoded_tokens.get(i, 0)
                    )

        stats = RevisionStats()
        revised_pairs: list[InstructionPair] = []
        for revised, outcome in results:
            stats.record(outcome)
            revised_pairs.append(revised)
        return (
            InstructionDataset(revised_pairs, name=f"{dataset.name}-coachlm"),
            stats,
        )

    def _self_review_pass(
        self,
        pairs: list[InstructionPair],
        results: list[tuple[InstructionPair, "RevisionOutcome | str"]],
        verdicts: list,
        engine: BatchedEngine,
        batch_size: int,
        kv_page_tokens: int,
    ) -> None:
        """Score-check claimed revisions in place (revise→score→re-revise).

        Each round batch-scores the current candidates against the best
        accepted version so far (round 0 baseline: the original pair's
        IFD), reverts rejections, and re-revises acceptances once —
        scoring rides :meth:`BatchedEngine.score`, so the whole pass
        costs two teacher-forced forwards per candidate per round.
        Pairs whose original could not be scored are left unreviewed.
        """
        from ..scoring.ifd import dataset_ifd
        from ..scoring.review import review_revision

        review_idx = [
            i for i, (_, outcome) in enumerate(results)
            if outcome is RevisionOutcome.REVISED and verdicts[i] is not None
        ]
        if not review_idx:
            return
        best = {i: (pairs[i], verdicts[i]) for i in review_idx}
        candidates = [(i, results[i][0]) for i in review_idx]
        max_rounds = 2  # the initial revision + one re-revise
        for round_no in range(max_rounds):
            cand_verdicts = dataset_ifd(
                self.model, self.tokenizer,
                [candidate for _, candidate in candidates],
                batch_size=batch_size, kv_page_tokens=kv_page_tokens,
            )
            accepted: list[int] = []
            for (i, candidate), verdict in zip(candidates, cand_verdicts):
                decision = review_revision(best[i][1], verdict)
                if decision.accepted:
                    best[i] = (candidate, verdict)
                    accepted.append(i)
            candidates = []
            if round_no + 1 >= max_rounds or not accepted:
                break
            # Feed accepted revisions back through the coach.  Greedy
            # decoding is deterministic, so only a *changed* pair is
            # worth a second look.
            regated = [(i, self._pre_generate(best[i][0])) for i in accepted]
            requests = [
                self._revision_request(prompt, best[i][0])
                for i, (prompt, _) in regated
                if prompt is not None
            ]
            outputs = iter(engine.generate(requests))
            for i, (prompt, _) in regated:
                if prompt is None:
                    continue
                candidate, outcome = self._post_generate(best[i][0], next(outputs))
                if outcome is RevisionOutcome.REVISED:
                    candidates.append((i, candidate))
        for i in review_idx:
            best_pair, _ = best[i]
            if best_pair is pairs[i]:
                results[i] = (pairs[i], RevisionOutcome.REVIEW_REJECTED)
            else:
                results[i] = (best_pair, RevisionOutcome.REVISED)
