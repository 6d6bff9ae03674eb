"""Tests for repro.config: presets, seeds, RNG discipline."""

import numpy as np
import pytest

from repro.config import (
    DEFAULT_KV_PAGE_TOKENS, DEFAULT_SEED, PRESETS, get_scale, make_rng,
    spawn_rng, ModelScale,
)
from repro.errors import ConfigError


def test_presets_exist():
    assert set(PRESETS) == {"ci", "bench", "full"}


def test_preset_sizes_are_ordered():
    assert PRESETS["ci"].dataset_size < PRESETS["bench"].dataset_size
    assert PRESETS["bench"].dataset_size < PRESETS["full"].dataset_size


def test_full_preset_matches_paper_counts():
    full = PRESETS["full"]
    assert full.dataset_size == 52000
    assert full.expert_sample_size == 6000


def test_get_scale_by_name():
    assert get_scale("ci").name == "ci"


def test_get_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "ci")
    assert get_scale().name == "ci"


def test_get_scale_unknown_raises():
    with pytest.raises(ConfigError):
        get_scale("huge")


def test_make_rng_deterministic():
    a = make_rng(5).integers(0, 1000, size=8)
    b = make_rng(5).integers(0, 1000, size=8)
    assert np.array_equal(a, b)


def test_make_rng_none_uses_default_seed():
    a = make_rng(None).integers(0, 1000, size=4)
    b = make_rng(DEFAULT_SEED).integers(0, 1000, size=4)
    assert np.array_equal(a, b)


def test_make_rng_passthrough():
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen


def test_make_rng_rejects_bad_seed():
    with pytest.raises(ConfigError):
        make_rng("seed")  # type: ignore[arg-type]


def test_spawn_rng_decorrelates():
    parent = make_rng(0)
    child_a = spawn_rng(parent, "a")
    parent2 = make_rng(0)
    child_b = spawn_rng(parent2, "b")
    assert child_a.integers(0, 10**9) != child_b.integers(0, 10**9)


def test_model_scale_validates_heads():
    with pytest.raises(ConfigError):
        ModelScale(d_model=30, n_layers=1, n_heads=4, max_seq_len=32, lora_rank=2)


def test_scale_config_validates_batch_sizes():
    with pytest.raises(ConfigError, match="gen_batch_size"):
        get_scale("ci").scaled(gen_batch_size=0)
    with pytest.raises(ConfigError, match="batch_size"):
        get_scale("ci").scaled(batch_size=0)
    with pytest.raises(ConfigError, match="max_new_tokens"):
        get_scale("ci").scaled(max_new_tokens=0)
    assert get_scale("ci").scaled(gen_batch_size=1).gen_batch_size == 1


def test_scaled_override():
    cfg = get_scale("ci").scaled(dataset_size=17)
    assert cfg.dataset_size == 17
    assert cfg.name == "ci"


def test_scale_config_validates_prefill_chunk():
    with pytest.raises(ConfigError, match="prefill_chunk_tokens"):
        get_scale("ci").scaled(prefill_chunk_tokens=0)
    assert get_scale("ci").prefill_chunk_tokens is None
    assert get_scale("ci").scaled(prefill_chunk_tokens=16).prefill_chunk_tokens == 16


def test_serving_config_validates_prefill_chunk():
    from repro.config import ServingConfig

    with pytest.raises(ConfigError, match="prefill_chunk_tokens"):
        ServingConfig(prefill_chunk_tokens=0)
    assert ServingConfig().prefill_chunk_tokens is not None
    assert ServingConfig(prefill_chunk_tokens=None).prefill_chunk_tokens is None


def test_scale_config_validates_prefill_concurrency():
    with pytest.raises(ConfigError, match="prefill_concurrency"):
        get_scale("ci").scaled(prefill_concurrency=0)
    assert get_scale("ci").prefill_concurrency == 1
    assert get_scale("ci").scaled(prefill_concurrency=4).prefill_concurrency == 4


def test_serving_config_validates_prefill_concurrency():
    from repro.config import DEFAULT_GEN_BATCH_SIZE, ServingConfig

    with pytest.raises(ConfigError, match="prefill_concurrency"):
        ServingConfig(prefill_concurrency=0)
    # The serving default admits a whole fleet-width burst concurrently.
    assert ServingConfig().prefill_concurrency == DEFAULT_GEN_BATCH_SIZE
    assert ServingConfig(prefill_concurrency=2).prefill_concurrency == 2


def test_scale_config_validates_kv_paging():
    with pytest.raises(ConfigError, match="kv_page_tokens"):
        get_scale("ci").scaled(kv_page_tokens=0)
    with pytest.raises(ConfigError, match="kv_page_tokens"):
        get_scale("ci").scaled(kv_page_tokens=None)
    with pytest.raises(ConfigError, match="kv_pool_pages"):
        get_scale("ci").scaled(kv_page_tokens=16, kv_pool_pages=0)
    # Offline presets share the one engine default page size.
    assert get_scale("ci").kv_page_tokens == DEFAULT_KV_PAGE_TOKENS
    assert not get_scale("ci").kv_prefix_cache
    cfg = get_scale("ci").scaled(kv_page_tokens=16, kv_pool_pages=24)
    assert (cfg.kv_page_tokens, cfg.kv_pool_pages) == (16, 24)


def test_serving_config_validates_kv_paging():
    from repro.config import ServingConfig

    with pytest.raises(ConfigError, match="kv_page_tokens"):
        ServingConfig(kv_page_tokens=0)
    with pytest.raises(ConfigError, match="kv_page_tokens"):
        ServingConfig(kv_page_tokens=None)
    # The serving default is 64-token pages with the prefix cache on:
    # resident KV memory follows the live fleet, and /metrics exports
    # free_pages.
    assert ServingConfig().kv_page_tokens == DEFAULT_KV_PAGE_TOKENS == 64
    assert ServingConfig().kv_pool_pages is None
    assert ServingConfig().kv_prefix_cache is True
