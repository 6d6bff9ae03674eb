"""Tests for the CoachLM core: selection, training, postprocess, facade."""

import numpy as np
import pytest

from repro.core import (
    CoachLM,
    RevisionOutcome,
    clean_revised_tokens,
    revision_statistics,
    select_by_alpha,
    validate_revision,
)
from repro.core.training import CoachTrainingConfig, records_to_examples, train_coach_model
from repro.data import InstructionDataset, generate_dataset
from repro.data.defects import build_pair
from repro.data.instruction_pair import InstructionPair, Origin
from repro.errors import ConfigError, ModelError
from repro.experts import ExpertReviser, GROUP_A
from repro.experts.revision import RevisionRecord
from repro.nn import InductionCopyBias, TransformerConfig, TransformerLM
from repro.textgen.tasks import sample_instance


def _make_records(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    reviser = ExpertReviser(context_add_rate=0.0)
    records = []
    i = 0
    while len(records) < n and i < n * 20:
        i += 1
        instance = sample_instance(rng)
        try:
            pair = build_pair(
                instance, (), ("resp_terse",), rng, polite=False,
                pair_id=f"rec-{i}",
            )
        except Exception:
            continue
        record = reviser.revise(pair, rng, GROUP_A[0], "qa")
        if record is not None:
            records.append(record)
    return records


# -- selection -----------------------------------------------------------------


def test_select_by_alpha_bounds():
    records = _make_records(10)
    assert select_by_alpha(records, 0.0) == []
    assert len(select_by_alpha(records, 1.0)) == 10
    assert len(select_by_alpha(records, 0.5)) == 5


def test_select_by_alpha_orders_by_distance():
    records = _make_records(10)
    selected = select_by_alpha(records, 0.4)
    cutoff = min(r.edit_distance for r in selected)
    rest = [r for r in records if r not in selected]
    assert all(r.edit_distance <= cutoff for r in rest)


def test_select_by_alpha_validates():
    with pytest.raises(ConfigError):
        select_by_alpha([], 1.5)


def test_select_by_alpha_deterministic_ties():
    records = _make_records(8)
    a = [r.original.pair_id for r in select_by_alpha(records, 0.5)]
    b = [r.original.pair_id for r in select_by_alpha(records, 0.5)]
    assert a == b


# -- coach training ---------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_backbone(tokenizer):
    cfg = TransformerConfig(vocab_size=tokenizer.vocab_size, d_model=32,
                            n_layers=1, n_heads=4, max_seq_len=160)
    return TransformerLM(cfg, np.random.default_rng(0))


def test_records_to_examples_skips_overlong(tokenizer):
    records = _make_records(5)
    examples = records_to_examples(tokenizer, records, max_seq_len=10)
    assert examples == []
    examples = records_to_examples(tokenizer, records, max_seq_len=160)
    assert len(examples) == 5


def test_train_coach_model_requires_records(micro_backbone, tokenizer, rng):
    with pytest.raises(ModelError):
        train_coach_model(micro_backbone, tokenizer, [], rng)


def test_train_coach_model_returns_merged(micro_backbone, tokenizer, rng):
    records = _make_records(6)
    model, stats = train_coach_model(
        micro_backbone, tokenizer, records, rng,
        CoachTrainingConfig(epochs=1, batch_size=4),
    )
    assert stats.step_losses
    from repro.nn.lora import LoRALinear
    assert not any(
        isinstance(b.attn.qkv, LoRALinear) for b in model.blocks
    )
    # Backbone untouched and trainable params restored after merge.
    assert model.trainable_parameters()


def test_coachlm_alpha_zero_uses_raw_backbone(micro_backbone, tokenizer, rng):
    coach = CoachLM.train(micro_backbone, tokenizer, _make_records(4), rng,
                          alpha=0.0)
    assert coach.trained_instructions == frozenset()


# -- post-processing --------------------------------------------------------------


def test_clean_revised_tokens_strips_garble():
    assert clean_revised_tokens(["red", "zq1", "fox"]) == ["red", "fox"]


def test_clean_revised_tokens_collapses_repeats():
    assert clean_revised_tokens(["red", "red", "fox"]) == ["red", "fox"]


def test_clean_revised_tokens_trims_tail_loops():
    tokens = ["the", "fox", "runs", ".", "runs", ".", "runs", "."]
    cleaned = clean_revised_tokens(tokens)
    assert cleaned == ["the", "fox", "runs", "."]


def test_validate_revision_rules():
    assert validate_revision(["add", "3"], ["7", "."])
    assert not validate_revision([], ["7", "."])
    assert not validate_revision(["add", "3"], ["7"])
    assert not validate_revision(["x"] * 100, ["7", "."])


# -- facade --------------------------------------------------------------------------


def test_revise_pair_leakage_skip(micro_backbone, tokenizer):
    coach = CoachLM(micro_backbone, tokenizer,
                    trained_instructions=frozenset({"p-1"}))
    pair = InstructionPair("add 3 and 4", "7 .", pair_id="p-1")
    revised, outcome = coach.revise_pair(pair)
    assert outcome is RevisionOutcome.LEAKAGE_SKIPPED
    assert revised is pair


def test_revise_pair_prompt_too_long(micro_backbone, tokenizer):
    coach = CoachLM(micro_backbone, tokenizer)
    pair = InstructionPair(" ".join(["red"] * 200), "7 .", pair_id="p-2")
    revised, outcome = coach.revise_pair(pair)
    assert outcome is RevisionOutcome.PROMPT_TOO_LONG


def test_revise_pair_invalid_output_falls_back(micro_backbone, tokenizer):
    # An untrained backbone cannot produce the coach format: the pipeline
    # must fall back to the original pair, reproducing the paper's ~1.3%
    # invalid-output replacement policy.
    coach = CoachLM(micro_backbone, tokenizer, copy_bias=0.0)
    pair = InstructionPair("add 3 and 4", "7 .", pair_id="p-3")
    revised, outcome = coach.revise_pair(pair)
    if outcome is RevisionOutcome.INVALID_OUTPUT:
        assert revised is pair
    else:
        assert outcome in (
            RevisionOutcome.REVISED, RevisionOutcome.UNCHANGED
        )


def test_revise_dataset_preserves_order_and_ids(micro_backbone, tokenizer):
    coach = CoachLM(micro_backbone, tokenizer)
    ds = generate_dataset(np.random.default_rng(1), 12)
    revised, stats = coach.revise_dataset(ds)
    assert len(revised) == len(ds)
    assert [p.pair_id for p in revised] == [p.pair_id for p in ds]
    assert stats.total == 12


def test_induction_followers_prefers_bigram():
    row = np.zeros(16, dtype=np.float32)
    InductionCopyBias([10, 11, 12, 10, 11, 13, 11, 14], 2.0)([10, 11], row)
    assert row[12] == 2.0  # bigram match (10, 11) -> 12
    assert row[13] == 2.0  # bigram match at the second site
    assert row[14] == 1.0  # unigram-only match (13, 11) -> 14: half


def test_revision_stats_fractions():
    from repro.core.coachlm import RevisionStats
    stats = RevisionStats()
    for _ in range(3):
        stats.record(RevisionOutcome.REVISED)
    stats.record(RevisionOutcome.INVALID_OUTPUT)
    assert stats.fraction(RevisionOutcome.REVISED) == pytest.approx(0.75)


# -- Table VII statistics ----------------------------------------------------------


def test_revision_statistics_known_values():
    original = InstructionDataset([
        InstructionPair("a b", "x y", pair_id="1"),
        InstructionPair("c d", "z w", pair_id="2"),
    ])
    revised = InstructionDataset([
        InstructionPair("a b", "x y q", pair_id="1"),       # +1 word
        InstructionPair("c d e", "z w", pair_id="2"),        # +1 instr word
    ])
    stats = revision_statistics(original, revised)
    assert stats.response_edit_distance == pytest.approx(0.5)
    assert stats.instruction_edit_distance == pytest.approx(0.5)
    assert stats.responses_changed == 1
    assert stats.instructions_changed == 1
    rows = stats.rows()
    assert rows[0]["dataset"] == "Original"


def test_revision_statistics_validates_parallel():
    from repro.errors import DatasetError
    a = InstructionDataset([InstructionPair("x", "y")])
    b = InstructionDataset([])
    with pytest.raises(DatasetError):
        revision_statistics(a, b)
