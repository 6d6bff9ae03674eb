"""The Workbench: every experiment stage, lazily built and disk-cached.

One :class:`Workbench` owns a scale preset and a master seed and can
produce every artifact the paper's evaluation needs — the ALPACA52K
simulacrum, the expert campaign, backbones, CoachLM at any α, revised
datasets, all twelve Table IX models, the four test sets, and judged win
rates — each deterministic in (scale, seed) and cached on disk.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ..config import DEFAULT_SEED, ScaleConfig, get_scale
from ..core.coachlm import CoachLM, RevisionStats
from ..core.training import CoachTrainingConfig
from ..data.alpaca_generator import (
    ALPACA_PROFILE,
    CONVERSATION_PROFILE,
    PROPRIETARY_PROFILE,
    generate_dataset,
    rule_clean,
)
from ..data.dataset import InstructionDataset
from ..errors import ConfigError, PipelineError
from ..experts.workflow import CampaignResult, ExpertCampaign
from ..judges import ChatGPTJudge, PandaLMJudge, WinRateSummary, evaluate_model_on_testset
from ..llm.backbone import BACKBONES, build_backbone
from ..llm.generation import generate_responses
from ..llm.instruction_tuning import TuningRecipe, instruction_tune
from ..llm.tokenizer import WordTokenizer, build_tokenizer
from ..nn.transformer import TransformerConfig, TransformerLM
from ..testsets import TESTSET_BUILDERS, TestSet, build_testset
from .cache import ArtifactCache, config_hash

#: Table IX model inventory: (group, size label, tuning type).
MODEL_KEYS: dict[str, dict[str, str]] = {
    "llama2-13b-chat": {"group": "stronger", "size": "13B", "type": "RL-tuned"},
    "vicuna-13b": {"group": "stronger", "size": "13B", "type": "I-tuned"},
    "llama2-7b-chat": {"group": "stronger", "size": "7B", "type": "RL-tuned"},
    "chatglm-6b": {"group": "stronger", "size": "6B", "type": "RL-tuned"},
    "chatglm2-6b": {"group": "stronger", "size": "6B", "type": "RL-tuned"},
    "vicuna-7b": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpaca": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpaca-cleaned": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpaca-pandalm": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpagasus": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpaca-human": {"group": "baseline", "size": "7B", "type": "I-tuned"},
    "alpaca-coachlm": {"group": "baseline", "size": "7B", "type": "I-tuned"},
}

_DEFAULT_CACHE_DIR = ".artifacts"


class Workbench:
    """Deterministic, cached factory for every experiment artifact."""

    def __init__(
        self,
        scale: ScaleConfig | None = None,
        seed: int = DEFAULT_SEED,
        cache_dir: str | Path | None = None,
        cache_enabled: bool = True,
    ):
        self.scale = scale or get_scale()
        self.seed = seed
        root = Path(cache_dir or _DEFAULT_CACHE_DIR) / f"{self.scale.name}-{seed}"
        self.cache = ArtifactCache(root, enabled=cache_enabled)
        self.tokenizer: WordTokenizer = build_tokenizer()
        self._memo: dict[str, object] = {}

    # -- deterministic RNG derivation ------------------------------------------
    def rng(self, label: str) -> np.random.Generator:
        """A generator unique to (seed, label) — order-independent."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return np.random.default_rng(
            np.frombuffer(digest[:16], dtype=np.uint64)
        )

    def _scale_key(self, extra: dict | None = None) -> str:
        payload = {
            "scale": self.scale.name,
            "dataset_size": self.scale.dataset_size,
            "expert_sample": self.scale.expert_sample_size,
            "pretrain": self.scale.pretrain_steps,
            "seed": self.seed,
        }
        if extra:
            payload.update(extra)
        return config_hash(payload)

    # -- stage 1: data -----------------------------------------------------------
    def alpaca_dataset(self) -> InstructionDataset:
        """The ALPACA52K simulacrum at this scale."""
        if "alpaca" in self._memo:
            return self._memo["alpaca"]  # type: ignore[return-value]
        key = self._scale_key()
        if self.cache.has_dataset("alpaca52k", key):
            ds = self.cache.load_dataset("alpaca52k", key, "alpaca52k-sim")
        else:
            ds = generate_dataset(
                self.rng("alpaca52k"), self.scale.dataset_size, ALPACA_PROFILE
            )
            self.cache.save_dataset("alpaca52k", key, ds)
        self._memo["alpaca"] = ds
        return ds

    def campaign(self) -> CampaignResult:
        """The expert revision campaign over the sampled subset."""
        if "campaign" in self._memo:
            return self._memo["campaign"]  # type: ignore[return-value]
        dataset = self.alpaca_dataset()
        sample = dataset.sample(
            min(self.scale.expert_sample_size, len(dataset)),
            self.rng("expert-sample"),
        )
        result = ExpertCampaign().run(sample, self.rng("expert-campaign"))
        self._memo["campaign"] = result
        return result

    # -- stage 2: backbones -------------------------------------------------------
    def backbone(self, name: str = "chatglm2-sim") -> TransformerLM:
        """A pre-trained (and possibly aligned) backbone, disk-cached."""
        memo_key = f"backbone:{name}"
        if memo_key in self._memo:
            return self._memo[memo_key]  # type: ignore[return-value]
        if name not in BACKBONES:
            raise ConfigError(f"unknown backbone {name!r}")
        spec = BACKBONES[name]
        key = self._scale_key({"backbone": name})
        dims = self.scale.large_model if spec.use_large else self.scale.base_model
        config = TransformerConfig(
            vocab_size=self.tokenizer.vocab_size,
            d_model=dims.d_model,
            n_layers=dims.n_layers,
            n_heads=dims.n_heads,
            max_seq_len=dims.max_seq_len,
        )
        if self.cache.has_weights("backbone", key):
            model = TransformerLM(config, np.random.default_rng(0))
            model.load_state_dict(self.cache.load_weights("backbone", key))
        else:
            model = build_backbone(
                spec, self.scale, self.tokenizer, self.rng(f"backbone-{name}")
            )
            self.cache.save_weights("backbone", key, model.state_dict())
        self._memo[memo_key] = model
        return model

    # -- stage 3: CoachLM -----------------------------------------------------------
    def coach_config(self) -> CoachTrainingConfig:
        return CoachTrainingConfig(
            epochs=max(self.scale.coach_epochs, 1),
            learning_rate=self.scale.coach_learning_rate,
            batch_size=8,
            lora_rank=self.scale.base_model.lora_rank,
            lora_alpha=2.0 * self.scale.base_model.lora_rank,
        )

    def coach(
        self, alpha: float = 0.3, backbone_name: str = "chatglm2-sim"
    ) -> CoachLM:
        """CoachLM trained at the given α from the given backbone."""
        memo_key = f"coach:{backbone_name}:{alpha}"
        if memo_key in self._memo:
            return self._memo[memo_key]  # type: ignore[return-value]
        backbone = self.backbone(backbone_name)
        key = self._scale_key({"coach_backbone": backbone_name, "alpha": alpha})
        # get_json reads a torn/corrupt meta blob as a miss (quarantining
        # it), so a writer that died mid-save just costs a retrain here.
        meta = (
            self.cache.get_json("coach-meta", key)
            if self.cache.has_weights("coach", key)
            else None
        )
        if meta is not None:
            model = backbone.clone()
            model.load_state_dict(self.cache.load_weights("coach", key))
            coach = CoachLM(
                model, self.tokenizer,
                trained_instructions=frozenset(meta["trained_ids"]),
            )
        else:
            coach = CoachLM.train(
                backbone,
                self.tokenizer,
                self.campaign().records,
                self.rng(f"coach-{backbone_name}-{alpha}"),
                alpha=alpha,
                config=self.coach_config(),
            )
            assert coach.model is not None
            self.cache.save_weights("coach", key, coach.model.state_dict())
            self.cache.save_json(
                "coach-meta", key,
                {"trained_ids": sorted(coach.trained_instructions)},
            )
        self._memo[memo_key] = coach
        return coach

    def coachlm_revised_dataset(
        self,
        alpha: float = 0.3,
        backbone_name: str = "chatglm2-sim",
        revise_top_k: int | None = None,
        self_review: bool = False,
    ) -> tuple[InstructionDataset, RevisionStats | None]:
        """The CoachLM-revised ALPACA52K simulacrum (Eq. (2)).

        ``revise_top_k`` restricts revision to the hardest pairs by IFD
        (see :mod:`repro.scoring.selection`); ``self_review`` adds the
        revise→score→re-revise acceptance loop.  Both knobs are part of
        the cache key, so selected and full revisions coexist on disk.

        The revision pass runs under a crash-safe
        :class:`~repro.serving.journal.RunJournal` kept next to the
        cache: a workbench killed mid-revision resumes from the pairs
        already journaled instead of re-decoding the whole dataset, and
        the journal is deleted once the finished dataset is safely in
        the artifact cache.
        """
        extra: dict = {"revised_by": backbone_name, "alpha": alpha}
        if revise_top_k is not None:
            extra["revise_top_k"] = revise_top_k
        if self_review:
            extra["self_review"] = True
        key = self._scale_key(extra)
        if self.cache.has_dataset("revised", key):
            stats = None
            blob = self.cache.get_json("revised-stats", key)
            if blob is not None:
                stats = RevisionStats(outcomes=dict(blob))  # type: ignore[arg-type]
            return (
                self.cache.load_dataset("revised", key, "alpaca52k-sim-coachlm"),
                stats,
            )
        from ..serving.journal import RunJournal

        coach = self.coach(alpha=alpha, backbone_name=backbone_name)
        journal_path = self.cache.root / f"revise-journal-{key}.jsonl"
        with RunJournal(journal_path) as journal:
            revised, stats = coach.revise_dataset(
                self.alpaca_dataset(),
                batch_size=self.scale.gen_batch_size,
                kv_page_tokens=self.scale.kv_page_tokens,
                revise_top_k=revise_top_k,
                self_review=self_review,
                journal=journal if self.cache.enabled else None,
            )
        self.cache.save_dataset("revised", key, revised)
        self.cache.save_json("revised-stats", key, stats.outcomes)
        # The finished dataset is durable in the cache now; the journal
        # has served its purpose.
        journal_path.unlink(missing_ok=True)
        return revised, stats

    def ifd_scores(
        self, alpha: float = 0.3, backbone_name: str = "chatglm2-sim"
    ) -> list:
        """IFD verdicts of the coach's model over the ALPACA52K simulacrum.

        One :class:`~repro.scoring.PairIFD` per pair (``None`` where the
        pair is unscoreable), aligned with :meth:`alpaca_dataset` order
        and JSON-cached — the selection stage behind ``revise_top_k``.
        """
        from ..scoring.ifd import PairIFD, dataset_ifd

        memo_key = f"ifd:{backbone_name}:{alpha}"
        if memo_key in self._memo:
            return self._memo[memo_key]  # type: ignore[return-value]
        key = self._scale_key({"ifd_by": backbone_name, "alpha": alpha})
        blob = self.cache.get_json("ifd", key)
        if blob is not None:
            verdicts = [
                PairIFD.from_dict(row) if row is not None else None
                for row in blob
            ]
        else:
            coach = self.coach(alpha=alpha, backbone_name=backbone_name)
            verdicts = dataset_ifd(
                coach.model,
                self.tokenizer,
                list(self.alpaca_dataset()),
                batch_size=self.scale.gen_batch_size,
                kv_page_tokens=self.scale.kv_page_tokens,
            )
            self.cache.save_json(
                "ifd", key,
                [v.as_dict() if v is not None else None for v in verdicts],
            )
        self._memo[memo_key] = verdicts
        return verdicts

    # -- stage 4: training datasets of every compared model ------------------------
    def training_dataset(self, variant: str) -> InstructionDataset:
        """The tuning corpus behind one Table IX model."""
        dataset = self.alpaca_dataset()
        if variant == "original":
            return dataset
        if variant == "cleaned":
            return rule_clean(dataset)
        if variant == "human":
            return self.campaign().merge_back(dataset)
        if variant == "coachlm":
            return self.coachlm_revised_dataset()[0]
        if variant == "alpagasus":
            judge = ChatGPTJudge()
            rng = self.rng("alpagasus-filter")
            keep = [
                pair for pair in dataset
                if judge.rate(pair, rng).score >= 4.5
            ]
            if not keep:
                raise PipelineError("AlpaGasus filter kept no pairs")
            return InstructionDataset(keep, name="alpagasus-9k-sim")
        if variant == "conversation":
            return generate_dataset(
                self.rng("conversations"), self.scale.dataset_size,
                CONVERSATION_PROFILE,
            )
        if variant == "proprietary":
            return generate_dataset(
                self.rng("proprietary"), self.scale.dataset_size,
                PROPRIETARY_PROFILE,
            )
        raise ConfigError(f"unknown training-data variant {variant!r}")

    # -- stage 5: the model zoo -----------------------------------------------------
    def _tuning_plan(self, model_key: str) -> tuple[str, str, TuningRecipe]:
        """(base backbone, data variant, recipe) for a Table IX model."""
        base = TuningRecipe(
            epochs=self.scale.finetune_epochs,
            batch_size=self.scale.batch_size,
            learning_rate=self.scale.learning_rate,
        )
        plans: dict[str, tuple[str, str, TuningRecipe]] = {
            "alpaca": ("llama-sim", "original", base),
            "alpaca-cleaned": ("llama-sim", "cleaned", base),
            "alpagasus": ("llama-sim", "alpagasus", base),
            "alpaca-human": ("llama-sim", "human", base),
            "alpaca-coachlm": ("llama-sim", "coachlm", base),
            # Alpaca-PandaLM is Alpaca with optimised hyper-parameters.
            "alpaca-pandalm": (
                "llama-sim", "original",
                TuningRecipe(
                    epochs=self.scale.finetune_epochs + 2,
                    batch_size=self.scale.batch_size,
                    learning_rate=self.scale.learning_rate * 1.3,
                ),
            ),
            "vicuna-7b": ("llama-sim", "conversation", base),
            "vicuna-13b": ("llama-13b-sim", "conversation", base),
            "llama2-7b-chat": (
                "llama-sim", "proprietary",
                TuningRecipe(
                    epochs=self.scale.finetune_epochs + 1,
                    batch_size=self.scale.batch_size,
                    learning_rate=self.scale.learning_rate,
                ),
            ),
            "llama2-13b-chat": (
                "llama-13b-sim", "proprietary",
                TuningRecipe(
                    epochs=self.scale.finetune_epochs + 1,
                    batch_size=self.scale.batch_size,
                    learning_rate=self.scale.learning_rate,
                ),
            ),
        }
        if model_key not in plans:
            raise ConfigError(f"no tuning plan for model {model_key!r}")
        return plans[model_key]

    def model(self, model_key: str) -> TransformerLM:
        """Build (or load) one of the twelve Table IX models."""
        memo_key = f"model:{model_key}"
        if memo_key in self._memo:
            return self._memo[memo_key]  # type: ignore[return-value]
        if model_key not in MODEL_KEYS:
            raise ConfigError(
                f"unknown model {model_key!r}; expected one of {sorted(MODEL_KEYS)}"
            )
        # The ChatGLM chat models are the aligned backbones themselves.
        if model_key == "chatglm-6b":
            model = self.backbone("chatglm-sim")
        elif model_key == "chatglm2-6b":
            model = self.backbone("chatglm2-sim")
        else:
            backbone_name, variant, recipe = self._tuning_plan(model_key)
            key = self._scale_key({"model": model_key})
            dims = (
                self.scale.large_model
                if BACKBONES[backbone_name].use_large
                else self.scale.base_model
            )
            config = TransformerConfig(
                vocab_size=self.tokenizer.vocab_size,
                d_model=dims.d_model,
                n_layers=dims.n_layers,
                n_heads=dims.n_heads,
                max_seq_len=dims.max_seq_len,
            )
            if self.cache.has_weights("model", key):
                model = TransformerLM(config, np.random.default_rng(0))
                model.load_state_dict(self.cache.load_weights("model", key))
            else:
                base_model = self.backbone(backbone_name)
                dataset = self.training_dataset(variant)
                model, _ = instruction_tune(
                    base_model, self.tokenizer, dataset,
                    self.rng(f"tune-{model_key}"), recipe,
                )
                self.cache.save_weights("model", key, model.state_dict())
        self._memo[memo_key] = model
        return model

    # -- stage 6: evaluation ------------------------------------------------------
    def testset(self, name: str) -> TestSet:
        memo_key = f"testset:{name}"
        if memo_key in self._memo:
            return self._memo[memo_key]  # type: ignore[return-value]
        size = None
        if self.scale.name == "ci":
            size = 20
        ts = build_testset(name, self.rng(f"testset-{name}"), size=size)
        self._memo[memo_key] = ts
        return ts

    def model_responses(
        self, model_key: str, testset_name: str, max_items: int | None = None
    ):
        """Cached generation of a model's responses on one test set.

        ``max_items`` caps the number of test items (benchmark wall-clock
        budgets on CPU); the cap is part of the cache key.  A cached
        response set that is *shorter* than ``n_items`` (e.g. written by
        an interrupted run) is treated as a miss and re-generated; a
        longer one is truncated.
        """
        testset = self.testset(testset_name)
        n_items = len(testset) if max_items is None else min(max_items, len(testset))
        key = self._scale_key({
            "responses": model_key, "testset": testset_name, "items": n_items,
        })
        if self.cache.has_dataset("responses", key):
            cached = self.cache.load_dataset(
                "responses", key, f"{model_key}@{testset_name}"
            )
            if len(cached) >= n_items:
                return list(cached)[:n_items]
        model = self.model(model_key)
        responses = generate_responses(
            model, self.tokenizer,
            testset.instructions[:n_items],
            testset.provenances[:n_items],
            max_new_tokens=self.scale.max_new_tokens,
            batch_size=self.scale.gen_batch_size,
            kv_page_tokens=self.scale.kv_page_tokens,
        )
        self.cache.save_dataset(
            "responses", key, InstructionDataset(responses, name="responses")
        )
        return responses

    def evaluate(
        self,
        model_key: str,
        testset_name: str,
        judge=None,
        max_items: int | None = None,
    ) -> WinRateSummary:
        """PandaLM win rates of one model against one test set's references."""
        judge = judge or PandaLMJudge()
        testset = self.testset(testset_name)
        candidates = self.model_responses(model_key, testset_name, max_items)
        references = testset.references[: len(candidates)]
        return evaluate_model_on_testset(
            judge, candidates, references,
            self.rng(f"judge-{model_key}-{testset_name}"),
        )
