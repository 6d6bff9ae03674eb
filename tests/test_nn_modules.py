"""Tests for modules, transformer, LoRA, optimiser and trainer."""

import numpy as np
import pytest

from repro.errors import GenerationError, ModelError
from repro.nn import (
    Adam,
    Embedding,
    LMTrainer,
    LayerNorm,
    Linear,
    LoRALinear,
    Tensor,
    TrainExample,
    TransformerConfig,
    TransformerLM,
    apply_lora,
    clip_grad_norm,
    cosine_schedule,
    lora_parameters,
    merge_lora,
)


@pytest.fixture()
def tiny_model(rng):
    cfg = TransformerConfig(
        vocab_size=40, d_model=16, n_layers=2, n_heads=2, max_seq_len=48
    )
    return TransformerLM(cfg, rng)


# -- modules -----------------------------------------------------------------


def test_linear_shapes(rng):
    layer = Linear(8, 3, rng)
    out = layer(Tensor(np.zeros((5, 4, 8), dtype=np.float32)))
    assert out.shape == (5, 4, 3)


def test_linear_numpy_path_matches(rng):
    layer = Linear(8, 3, rng)
    x = np.random.default_rng(0).normal(size=(2, 6, 8)).astype(np.float32)
    auto = layer(Tensor(x)).data
    fast = layer.forward_numpy(x)
    assert np.allclose(auto, fast, atol=1e-6)


def test_embedding_bounds(rng):
    emb = Embedding(10, 4, rng)
    with pytest.raises(ModelError):
        emb(np.array([10]))


def test_state_dict_roundtrip(tiny_model):
    state = tiny_model.state_dict()
    clone = tiny_model.clone()
    for name, value in clone.state_dict().items():
        assert np.array_equal(value, state[name])


def test_state_dict_mismatch_raises(tiny_model, rng):
    other = TransformerLM(
        TransformerConfig(vocab_size=40, d_model=32, n_layers=2, n_heads=2,
                          max_seq_len=48),
        rng,
    )
    with pytest.raises(ModelError):
        tiny_model.load_state_dict(other.state_dict())


def test_layernorm_normalises(rng):
    ln = LayerNorm(8)
    x = np.random.default_rng(0).normal(3.0, 2.0, size=(4, 8)).astype(np.float32)
    out = ln.forward_numpy(x)
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
    assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)


# -- inference kernels ---------------------------------------------------------


def _two_pass_layernorm(ln, x):
    """The reference formula LayerNorm.forward_numpy must reproduce bitwise."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + ln.eps)
    return xhat * ln.gamma.data + ln.beta.data


def _one_line_gelu(h):
    c = np.float32(np.sqrt(2.0 / np.pi))
    return 0.5 * h * (1.0 + np.tanh(c * (h + 0.044715 * (h * h * h))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d_model", [32, 48, 64, 80])
def test_layernorm_single_pass_is_bitwise_two_pass(d_model, dtype):
    rng = np.random.default_rng(d_model)
    ln = LayerNorm(d_model)
    ln.gamma.data = rng.normal(1.0, 0.3, size=d_model).astype(np.float32)
    ln.beta.data = rng.normal(0.0, 0.3, size=d_model).astype(np.float32)
    for rows in (1, 8, 300):
        x = rng.normal(0.5, 2.0, size=(1, rows, d_model)).astype(dtype)
        for view in (x, x[:, ::2, :]):
            got = ln.forward_numpy(view)
            expected = _two_pass_layernorm(ln, view)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_gelu_is_bitwise_one_line_expression(tiny_model, dtype):
    mlp = tiny_model.blocks[0].mlp
    x = np.random.default_rng(3).normal(0.0, 2.0, size=(2, 9, 16)).astype(dtype)
    expected = mlp.fc_out.forward_numpy(_one_line_gelu(mlp.fc_in.forward_numpy(x)))
    assert mlp.forward_numpy(x).tobytes() == expected.tobytes()


def _fresh_linear(layer, x):
    out = x @ np.ascontiguousarray(layer.weight.data.T)
    if layer.bias is not None:
        out = out + layer.bias.data
    return out


def _fresh_tied_logits(model, idx):
    """Trunk forward plus a head GEMM over a freshly transposed embedding."""
    x = model.tok_emb.forward_numpy(idx) + model.pos_emb.forward_numpy(
        np.arange(idx.shape[1])
    )
    for block in model.blocks:
        x = block.forward_numpy(x, None, None, model._causal_mask)
    x = model.ln_f.forward_numpy(x)
    return x @ np.ascontiguousarray(model.tok_emb.weight.data.T)


def _assert_follows_weights(model, idx):
    rng = np.random.default_rng(5)
    for block in model.blocks:
        for layer in (block.attn.qkv, block.attn.proj, block.mlp.fc_in, block.mlp.fc_out):
            x = rng.normal(size=(3, layer.in_features)).astype(np.float32)
            assert layer.forward_numpy(x).tobytes() == _fresh_linear(layer, x).tobytes()
    assert model.logits_numpy(idx).tobytes() == _fresh_tied_logits(model, idx).tobytes()


def test_inference_weights_follow_adam_step(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 8))
    before = tiny_model.logits_numpy(idx)
    opt = Adam(tiny_model.parameters(), lr=1e-2)
    tiny_model.loss(idx, np.roll(idx, -1, axis=1), np.ones(idx.shape)).backward()
    opt.step()
    assert not np.array_equal(before, tiny_model.logits_numpy(idx))
    _assert_follows_weights(tiny_model, idx)


def test_inference_weights_follow_load_state_dict_and_clone(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 8))
    _assert_follows_weights(tiny_model, idx)
    twin = tiny_model.clone()
    _assert_follows_weights(twin, idx)
    state = {
        name: value + rng.normal(0, 0.05, size=value.shape).astype(np.float32)
        for name, value in tiny_model.state_dict().items()
    }
    tiny_model.load_state_dict(state)
    _assert_follows_weights(tiny_model, idx)
    assert not np.array_equal(tiny_model.logits_numpy(idx), twin.logits_numpy(idx))
    _assert_follows_weights(twin, idx)


def test_inference_weights_follow_merge_lora(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 8))
    _assert_follows_weights(tiny_model, idx)
    apply_lora(tiny_model, rank=4, alpha=8, rng=rng)
    for p in lora_parameters(tiny_model):
        p.data = rng.normal(0, 0.05, size=p.data.shape).astype(np.float32)
    merge_lora(tiny_model)
    _assert_follows_weights(tiny_model, idx)


def test_forward_numpy_never_mutates_its_input(tiny_model, rng):
    x = rng.normal(size=(2, 5, 16)).astype(np.float32)
    block = tiny_model.blocks[0]
    calls = [
        (block.ln1.forward_numpy, (x,)),
        (block.attn.qkv.forward_numpy, (x,)),
        (block.mlp.forward_numpy, (x,)),
        (lambda a: block.attn.forward_numpy(a, None), (x,)),
        (lambda a: block.forward_numpy(a, None), (x,)),
        (tiny_model.tok_emb.forward_numpy, (rng.integers(0, 40, size=(2, 5)),)),
        (tiny_model.logits_numpy, (rng.integers(0, 40, size=(2, 5)),)),
    ]
    for fn, args in calls:
        snapshot = [a.copy() for a in args]
        fn(*args)
        for a, before in zip(args, snapshot):
            assert a.tobytes() == before.tobytes()


# -- transformer ---------------------------------------------------------------


def test_forward_shapes(tiny_model):
    logits = tiny_model.forward(np.zeros((2, 7), dtype=np.int64))
    assert logits.shape == (2, 7, 40)


def test_context_overflow_raises(tiny_model):
    with pytest.raises(ModelError):
        tiny_model.forward(np.zeros((1, 49), dtype=np.int64))


def test_train_and_infer_paths_agree(tiny_model, rng):
    idx = rng.integers(1, 40, size=(2, 9))
    auto = tiny_model.forward(idx).data
    fast = tiny_model.logits_numpy(idx)
    assert np.allclose(auto, fast, atol=1e-5)


def test_kv_cache_matches_full_forward(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 12))
    full = tiny_model.logits_numpy(idx)[0, -1]
    caches = [{"k": None, "v": None} for _ in tiny_model.blocks]
    out = tiny_model._forward_numpy(idx[:, :6], caches)
    for t in range(6, 12):
        out = tiny_model._forward_numpy(idx[:, t:t + 1], caches, position_offset=t)
    assert np.allclose(out[0, -1], full, atol=1e-4)


def _masked_softmax_reference(q, keys_t, vals_t, horizon, scale):
    """float64 attention of one query over columns ``[0, horizon]`` of one
    head's transposed ``(Dh, t)`` keys and values."""
    k = keys_t[:, : horizon + 1].astype(np.float64)
    v = vals_t[:, : horizon + 1].astype(np.float64)
    scores = (q.astype(np.float64) @ k) * scale
    probs = np.exp(scores - scores.max())
    return (probs / probs.sum()) @ v.T


@pytest.mark.parametrize("per", [1, 4])
def test_packed_attention_matches_float64_reference(tiny_model, rng, per):
    """The float32 packed attention core against a plain float64 per-row
    masked softmax: decode rows of ``per`` queries over one view padded
    past the shorter rows' lengths, whose stale columns hold large
    garbage, then chunk rows at non-zero offsets, one of a single token."""
    attn = tiny_model.blocks[0].attn
    n_heads, head_dim = tiny_model.config.n_heads, tiny_model.config.head_dim
    scale = 1.0 / np.sqrt(head_dim)
    starts = np.array([5, 17, 9])                    # decode row lengths
    chunks = [(4, 6), (7, 1)]                         # (offset, tokens)
    view, cap = int(starts.max()) + per, 24
    n = len(starts)

    def planes(rows):
        # Transposed (rows, H, Dh, cap) K/V planes; every column past a
        # row's last written one is stale and large.
        return rng.normal(size=(rows, n_heads, head_dim, cap)).astype(np.float32) * 3

    store_k, store_v = planes(n), planes(n)
    depths = starts[:, None] + np.arange(per)
    for r in range(n):
        store_k[r, :, :, depths[r, -1] + 1 :] *= 50
        store_v[r, :, :, depths[r, -1] + 1 :] *= 50
    key_mask = np.where(
        np.arange(view) <= depths[:, :, None], np.float32(0.0), np.float32(-1e9)
    )[:, None]
    chunk_k, chunk_v = planes(len(chunks)), planes(len(chunks))
    for j, (offset, tokens) in enumerate(chunks):
        chunk_k[j, :, :, offset + tokens :] *= 50
        chunk_v[j, :, :, offset + tokens :] *= 50
    spans = np.cumsum([0] + [per] * n + [tokens for _, tokens in chunks])
    q = rng.normal(size=(1, n_heads, int(spans[-1]), head_dim)).astype(np.float32)

    out = attn._packed_attention(
        q, store_k[:, :, :, :view], store_v[:, :, :, :view],
        [chunk_k[j, :, :, : o + t] for j, (o, t) in enumerate(chunks)],
        [chunk_v[j, :, :, : o + t] for j, (o, t) in enumerate(chunks)],
        scale, tiny_model._causal_mask, key_mask, spans,
    )

    expected = np.empty(out.shape, dtype=np.float64)
    for h in range(n_heads):
        for r in range(n):
            for i in range(per):
                expected[0, h, r * per + i] = _masked_softmax_reference(
                    q[0, h, r * per + i], store_k[r, h], store_v[r, h],
                    int(depths[r, i]), scale,
                )
        for j, (offset, tokens) in enumerate(chunks):
            for m in range(tokens):
                expected[0, h, spans[n + j] + m] = _masked_softmax_reference(
                    q[0, h, spans[n + j] + m], chunk_k[j, h], chunk_v[j, h],
                    offset + m, scale,
                )
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-5)


def test_generate_greedy_memorization(rng):
    cfg = TransformerConfig(vocab_size=30, d_model=32, n_layers=2,
                            n_heads=2, max_seq_len=32)
    model = TransformerLM(cfg, rng)
    examples = [
        TrainExample((1, 2 + i % 3, 10 + i % 3, 11 + i % 3, 3), 2)
        for i in range(12)
    ]
    trainer = LMTrainer(model, pad_id=0, lr=3e-3, batch_size=6)
    stats = trainer.train(examples, epochs=60, rng=rng)
    assert stats.final_loss < 0.1
    assert model.generate([1, 2], 4, eos_id=3) == [10, 11, 3]


def test_generate_rejects_empty_prompt(tiny_model):
    with pytest.raises(GenerationError):
        tiny_model.generate([], 4)


def test_generate_top_k_requires_rng(tiny_model):
    with pytest.raises(GenerationError):
        tiny_model.generate([1], 4, top_k=3)


def test_generate_respects_context_budget(tiny_model):
    out = tiny_model.generate([5] * 46, 100)
    assert len(out) <= 2


def test_logit_bias_steers_decode(tiny_model):
    bias = np.zeros(40, dtype=np.float32)
    bias[7] = 1e4
    out = tiny_model.generate([1, 2], 3, logit_bias=bias)
    assert out == [7, 7, 7]


def test_tied_embeddings_have_no_head(tiny_model):
    assert tiny_model.head is None
    names = [n for n, _ in tiny_model.named_parameters()]
    assert not any("head" in n for n in names)


def test_untied_model_has_head(rng):
    cfg = TransformerConfig(vocab_size=40, d_model=16, n_layers=1,
                            n_heads=2, max_seq_len=32, tie_embeddings=False)
    model = TransformerLM(cfg, rng)
    assert model.head is not None
    logits = model.logits_numpy(np.zeros((1, 4), dtype=np.int64))
    assert logits.shape == (1, 4, 40)


# -- LoRA -----------------------------------------------------------------------


def test_lora_is_noop_at_init(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 8))
    before = tiny_model.logits_numpy(idx)
    apply_lora(tiny_model, rank=4, alpha=8, rng=rng)
    after = tiny_model.logits_numpy(idx)
    assert np.allclose(before, after)


def test_lora_freezes_base(tiny_model, rng):
    apply_lora(tiny_model, rank=4, alpha=8, rng=rng)
    trainable = {id(p) for p in tiny_model.trainable_parameters()}
    assert trainable == {id(p) for p in lora_parameters(tiny_model)}


def test_lora_double_apply_raises(tiny_model, rng):
    apply_lora(tiny_model, rank=4, alpha=8, rng=rng)
    with pytest.raises(ModelError):
        apply_lora(tiny_model, rank=4, alpha=8, rng=rng)


def test_lora_merge_equivalence(tiny_model, rng):
    idx = rng.integers(1, 40, size=(1, 8))
    apply_lora(tiny_model, rank=4, alpha=8, rng=rng)
    for p in lora_parameters(tiny_model):
        p.data = rng.normal(0, 0.05, size=p.data.shape).astype(np.float32)
    before = tiny_model.logits_numpy(idx)
    merge_lora(tiny_model)
    after = tiny_model.logits_numpy(idx)
    assert np.allclose(before, after, atol=1e-4)
    assert not any(
        isinstance(b.attn.qkv, LoRALinear) for b in tiny_model.blocks
    )


def test_lora_parameters_without_adapters_raises(tiny_model):
    with pytest.raises(ModelError):
        lora_parameters(tiny_model)


def test_lora_rank_validation(rng):
    base = Linear(4, 4, rng)
    with pytest.raises(ModelError):
        LoRALinear(base, rank=0, alpha=1, rng=rng)


# -- optimiser --------------------------------------------------------------------


def test_adam_minimises_quadratic():
    x = Tensor(np.array([5.0], dtype=np.float32), requires_grad=True)
    opt = Adam([x], lr=0.3)
    for _ in range(100):
        x.grad = None
        loss = (x * x).sum()
        loss.backward()
        opt.step()
    assert abs(x.data[0]) < 0.05


def test_adam_empty_params_raises():
    with pytest.raises(ModelError):
        Adam([])


def test_clip_grad_norm():
    p = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    p.grad = np.full(4, 10.0, dtype=np.float32)
    norm = clip_grad_norm([p], max_norm=1.0)
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)


def test_cosine_schedule_endpoints():
    lr = cosine_schedule(1.0, total_steps=100, warmup_steps=10)
    assert lr(0) == pytest.approx(0.1)
    assert lr(10) == pytest.approx(1.0, abs=0.01)
    assert lr(100) == pytest.approx(0.0, abs=1e-6)


def test_cosine_schedule_validation():
    with pytest.raises(ModelError):
        cosine_schedule(1.0, total_steps=0)


# -- trainer ------------------------------------------------------------------------


def test_train_example_validation():
    with pytest.raises(ModelError):
        TrainExample((1, 2, 3), prompt_len=0)
    with pytest.raises(ModelError):
        TrainExample((1, 2, 3), prompt_len=4)


def test_collate_masks_prompt_and_padding(tiny_model):
    trainer = LMTrainer(tiny_model, pad_id=0, batch_size=4)
    batch = [TrainExample((5, 6, 7, 8), 2), TrainExample((5, 6, 7), 2)]
    inputs, targets, mask = trainer._collate(batch)
    assert inputs.shape == (2, 3)
    # Example 0: positions predicting tokens 7, 8 are counted; token 6 is
    # prompt.  Example 1: only token 7; the padded slot is masked.
    assert mask.tolist() == [[0.0, 1.0, 1.0], [0.0, 1.0, 0.0]]


def test_trainer_requires_examples(tiny_model, rng):
    trainer = LMTrainer(tiny_model, pad_id=0)
    with pytest.raises(ModelError):
        trainer.train([], epochs=1, rng=rng)


def test_evaluate_matches_training_loss_scalewise(tiny_model, rng):
    examples = [
        TrainExample(tuple(rng.integers(1, 40, size=8).tolist()), 3)
        for _ in range(8)
    ]
    trainer = LMTrainer(tiny_model, pad_id=0, batch_size=4)
    loss = trainer.evaluate(examples)
    assert 0.0 < loss < 10.0
