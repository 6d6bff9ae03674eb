"""Seeded fault-injection fuzz harness for the serving fleet.

Each scenario draws a reproducible :class:`FaultPlan` from its seed —
crashes mid-decode, hangs, dropped results, slow pipes, torn cache
persistence — runs a real two-worker fleet through a fixed workload, and
asserts the invariants that define the fleet's contract:

* **no lost results** — every accepted request's future resolves, with a
  result or a typed :class:`WorkerLostError`; accounting closes exactly
  (``completed + worker_lost == submitted``);
* **no duplicates** — the at-most-once requeue discipline holds
  (``duplicate_results == 0``);
* **exact token parity** — every engine-produced revision matches the
  sequential :meth:`CoachLM.revise_pair` byte-for-byte (greedy decode is
  deterministic, so fault recovery must not change tokens);
* **no leaked pages** — every cleanly-exited worker drained its engine
  to zero active sequences with the full KV pool back on the free list;
* **torn persistence is survivable** — a sabotaged drain-time cache
  write reads back as a quarantined miss, never a crash.

The scenario count scales with the environment: ``REPRO_FUZZ_FAULTS=on``
(the CI fleet leg) runs ``REPRO_FLEET_SCENARIOS`` seeds (default 40); a
plain developer run keeps a 4-seed smoke version so the harness itself
stays exercised by tier-1.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import FleetConfig, ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.errors import WorkerLostError
from repro.nn import TransformerConfig, TransformerLM
from repro.serving import (
    EngineFleet,
    FaultPlan,
    SOURCE_CACHE,
    SOURCE_DEDUP,
    SOURCE_ENGINE,
)

_FAULTS_ON = os.environ.get("REPRO_FUZZ_FAULTS", "") in ("1", "on", "true")
_N_SCENARIOS = int(
    os.environ.get("REPRO_FLEET_SCENARIOS", "40" if _FAULTS_ON else "4")
)
_N_WORKERS = 2


@pytest.fixture(scope="module")
def coach(tokenizer):
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=32,
        n_layers=1,
        n_heads=4,
        max_seq_len=192,
    )
    model = TransformerLM(config, np.random.default_rng(9))
    return CoachLM(model, tokenizer)


@pytest.fixture(scope="module")
def workload(coach):
    """Eight pairs plus their sequential ground truth."""
    pairs = list(generate_dataset(np.random.default_rng(77), 8))
    reference = {pair.pair_id: coach.revise_pair(pair) for pair in pairs}
    return pairs, reference


def _scenario_config() -> FleetConfig:
    # Tight failure-detection knobs so a 600s injected hang is caught in
    # well under a second and scenarios stay fast.
    return FleetConfig(
        fleet_workers=_N_WORKERS,
        heartbeat_interval_s=0.02,
        heartbeat_timeout_s=0.6,
        restart_backoff_s=0.05,
        restart_backoff_max_s=0.2,
        worker_ready_timeout_s=60.0,
        drain_timeout_s=60.0,
        serving=ServingConfig(max_batch=4),
    )


@pytest.mark.parametrize("seed", range(_N_SCENARIOS))
def test_fleet_invariants_under_seeded_faults(seed, coach, workload, tmp_path):
    pairs, reference = workload
    plan = FaultPlan.from_seed(seed, n_workers=_N_WORKERS)
    fleet = EngineFleet(
        coach, _scenario_config(), artifact_dir=tmp_path, fault_plan=plan
    )
    with fleet:
        futures = [(pair, fleet.submit(pair)) for pair in pairs]
        lost = 0
        for pair, future in futures:
            try:
                result = future.result(timeout=120)
            except WorkerLostError:
                # Only reachable when the plan burned through the requeue
                # budget — legal, but it must be the *typed* failure.
                lost += 1
                continue
            assert result.source in (SOURCE_ENGINE, SOURCE_CACHE, SOURCE_DEDUP)
            expected_pair, expected_outcome = reference[pair.pair_id]
            assert result.outcome == expected_outcome.value, (
                f"seed {seed}: outcome diverged for {pair.pair_id}"
            )
            assert result.pair.instruction == expected_pair.instruction
            assert result.pair.response == expected_pair.response, (
                f"seed {seed}: token parity broken for {pair.pair_id}"
            )
        snap = fleet.metrics_snapshot()
    # Accounting closes exactly: nothing lost, nothing double-resolved.
    assert snap["submitted"] == len(pairs)
    assert snap["completed"] + lost == len(pairs), f"seed {seed}: lost futures"
    assert snap["worker_lost"] == lost
    assert snap["duplicate_results"] == 0, (
        f"seed {seed}: at-most-once requeue discipline broke"
    )
    # Page hygiene: each worker that exited cleanly drained its engine.
    for stat in fleet.worker_stats():
        if not stat["clean_exit"]:
            continue
        kv = stat["kv"]
        assert kv is not None and kv["n_active"] == 0, (
            f"seed {seed}: worker {stat['slot']} exited with active sequences"
        )
        assert kv["free_pages"] == kv["total_pages"], (
            f"seed {seed}: worker {stat['slot']} leaked KV pages"
        )
        assert kv["reserved_pages"] == 0
    # Persistence: a torn drain-time write must read back as a
    # quarantined miss; a healthy one as the exported revision cache.
    persisted = fleet.artifact_cache.get_json(
        "fleet-cache", fleet._persistence_key()
    )
    if plan.torn_cache_write:
        assert persisted is None
        assert list(tmp_path.glob("*.corrupt-*")), (
            f"seed {seed}: torn cache artifact was not quarantined"
        )
    elif snap["by_source"][SOURCE_ENGINE] > 0:
        assert isinstance(persisted, dict) and persisted["revisions"]
