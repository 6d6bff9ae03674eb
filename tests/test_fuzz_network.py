"""Network-fault fuzz: client + journal + front-end under random faults.

Every scenario builds a fresh revision service behind a seeded
:class:`~repro.serving.faults.FaultyProxy` and drives the full dataset
through :class:`~repro.serving.httpclient.RevisionHTTPClient` under a
random :class:`NetworkFaultPlan` — connection resets mid-response,
truncated bodies, slow-loris stalls, 503 bursts — with a crash-safe
:class:`RunJournal` underneath.  Some scenarios additionally ``SIGKILL``
the client process mid-run (a forked child) and resume from its journal.

Invariants asserted for every schedule:

* **Exactly-once resolution** — every pair ends with exactly one
  terminal result, and the server's ``duplicate_results`` stays 0.
* **Token parity** — final texts and outcomes match the offline
  ``coach.revise_pair`` reference, and the server's engine decoded
  exactly the clean-run token count: at-least-once wire retries never
  become at-least-twice decodes (the dedup cache absorbs them).
* **Bounded give-up** — a request that spends its retry budget fails
  with the typed :class:`RetryBudgetExceededError`; the journal lets
  the next round finish the tail without redoing the finished prefix.

Scenarios are generated from ``seed = REPRO_FUZZ_SEED + index``; a
failure prints the exact one-scenario reproduction command.  The CI leg
(``REPRO_FUZZ_NETWORK=on``) runs the full budget
(``REPRO_NETWORK_SCENARIOS``, default 30); a plain pytest run keeps a
4-scenario smoke so the harness never rots.  A run of ten or more
scenarios also checks that the planned faults still fire
(``test_fuzz_leg_keeps_fault_coverage``): the proxy keys faults by
request/response exchange, so the client's kept-alive connections
cannot route a scenario around its plan.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.config import ServingConfig
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.errors import RetryBudgetExceededError
from repro.llm.tokenizer import build_tokenizer
from repro.nn import TransformerConfig, TransformerLM
from repro.serving import (
    NetworkFaultPlan,
    FaultyProxy,
    RevisionHTTPClient,
    RevisionHTTPFrontend,
    RevisionServer,
    RunJournal,
    ServingMetrics,
    dataset_fingerprint,
)

_NETWORK_ON = os.environ.get("REPRO_FUZZ_NETWORK", "") in ("1", "on", "true")
_N_SCENARIOS = int(
    os.environ.get("REPRO_NETWORK_SCENARIOS", "30" if _NETWORK_ON else "4")
)
MASTER_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20240311"))

#: The CI leg's corpus (master seed, scenarios) and the planned faults it
#: injected when every request had its own connection, keyed by TCP
#: connection: 164 of 243.
_CI_CORPUS = (20240311, 30)
_CI_CORPUS_FIRED = 164

#: At most this many journal-resumed rounds through the faulty proxy
#: before the final round goes direct — guarantees termination.
_MAX_FAULTY_ROUNDS = 3


@pytest.fixture(scope="module")
def coach():
    tokenizer = build_tokenizer()
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
def pairs():
    return list(generate_dataset(np.random.default_rng(77), 8))


@pytest.fixture(scope="module")
def fault_ledger():
    """Scenarios run and planned faults injected, summed over this run."""
    return {"scenarios": 0, "planned": 0, "fired": 0}


@pytest.fixture(scope="module")
def reference(coach, pairs):
    return [coach.revise_pair(pair) for pair in pairs]


@pytest.fixture(scope="module")
def clean_engine_tokens(coach, pairs):
    """Decode tokens a clean served run spends — the exactly-once bar."""
    server = RevisionServer(coach, ServingConfig(max_batch=4))
    with RevisionHTTPFrontend(server) as frontend:
        with RevisionHTTPClient(frontend.address, timeout_s=30.0) as client:
            client.revise_pairs(pairs)
    return server.metrics.engine_tokens


def _kill_child_midrun(proxy_address, pairs, journal_path, seed, kill_after):
    """Fork a client child that SIGKILLs itself after k journaled DONEs."""
    pid = os.fork()
    if pid == 0:
        try:
            original = RunJournal.record_done
            state = {"n": 0}

            def killing_record_done(self, *args, **kwargs):
                original(self, *args, **kwargs)
                state["n"] += 1
                if state["n"] >= kill_after:
                    os.kill(os.getpid(), signal.SIGKILL)

            RunJournal.record_done = killing_record_done
            client = RevisionHTTPClient(
                proxy_address,
                timeout_s=1.0,
                max_attempts=8,
                backoff_base_s=0.005,
                backoff_cap_s=0.05,
                seed=seed,
            )
            with RunJournal(journal_path) as journal:
                client.revise_pairs(pairs, journal=journal)
        except BaseException:
            pass
        finally:
            os._exit(0)
    os.waitpid(pid, 0)


@pytest.mark.parametrize("scenario_index", range(_N_SCENARIOS))
def test_network_fault_schedule_preserves_invariants(
    scenario_index, coach, pairs, reference, clean_engine_tokens,
    fault_ledger, tmp_path,
):
    seed = MASTER_SEED + scenario_index
    repro_hint = (
        f"reproduce with: REPRO_FUZZ_SEED={seed} REPRO_NETWORK_SCENARIOS=1 "
        "python -m pytest tests/test_fuzz_network.py -q"
    )
    rng = np.random.default_rng(seed)
    plan = NetworkFaultPlan.from_seed(
        seed,
        n_connections=int(rng.integers(6, 28)),
        p_fault=float(rng.uniform(0.2, 0.6)),
        max_after_bytes=int(rng.integers(50, 700)),
        stall_s=2.0,
        retry_after_s=0.02,
    )
    kill_midrun = scenario_index % 4 == 3
    journal_path = tmp_path / f"net-{seed}.jsonl"
    metrics = ServingMetrics()
    give_ups = 0

    server = RevisionServer(coach, ServingConfig(max_batch=4))
    with RevisionHTTPFrontend(server) as frontend:
        host, port = frontend.httpd.server_address[:2]
        with FaultyProxy(host, port, plan) as proxy:
            if kill_midrun:
                _kill_child_midrun(
                    proxy.address, pairs, journal_path, seed,
                    kill_after=1 + int(rng.integers(0, len(pairs) - 1)),
                )
            client = RevisionHTTPClient(
                proxy.address,
                timeout_s=1.0,
                max_attempts=8,
                backoff_base_s=0.005,
                backoff_cap_s=0.05,
                metrics=metrics,
                seed=seed,
            )
            results = None
            with client:
                for _round in range(_MAX_FAULTY_ROUNDS):
                    try:
                        with RunJournal(journal_path) as journal:
                            results = client.revise_pairs(
                                pairs, journal=journal
                            )
                        break
                    except RetryBudgetExceededError:
                        # Typed give-up: the journal holds the finished
                        # prefix; the next round resumes, never redoes.
                        give_ups += 1
        fault_ledger["scenarios"] += 1
        fault_ledger["planned"] += plan.n_faulty
        fault_ledger["fired"] += proxy.faults_fired
        if results is None:
            # Pathological schedule: finish the tail on a clean path,
            # still resuming from the same journal.
            with RevisionHTTPClient(
                frontend.address, timeout_s=30.0, metrics=metrics, seed=seed
            ) as direct, RunJournal(journal_path) as journal:
                results = direct.revise_pairs(pairs, journal=journal)

        # -- exactly-once, parity, bounded give-up -----------------------------
        assert len(results) == len(pairs), repro_hint
        assert all(result is not None for result in results), repro_hint
        got = [
            (r.pair.instruction, r.pair.response, r.outcome) for r in results
        ]
        want = [
            (p.instruction, p.response, o.value) for p, o in reference
        ]
        assert got == want, repro_hint
        assert server.metrics.duplicate_results == 0, repro_hint
        # At-least-once retries never became at-least-twice decodes:
        # the server spent exactly the clean run's decode tokens.
        assert server.metrics.engine_tokens == clean_engine_tokens, repro_hint
        # Give-up is bounded by the round budget and always typed.
        assert give_ups <= _MAX_FAULTY_ROUNDS, repro_hint
        assert metrics.gave_up == give_ups, repro_hint
        # The journal holds every pair exactly once at the end.
        with RunJournal(journal_path) as journal:
            replay = journal.open_run(
                client._journal_hash("http_revise", None),
                dataset_fingerprint(pairs),
            )
        assert replay.pairs_skipped == len(pairs), repro_hint
        assert not replay.interrupted, repro_hint


def test_fuzz_leg_keeps_fault_coverage(fault_ledger):
    """Kept-alive connections still meet the planned faults.

    The proxy keys faults by request/response exchange, so reuse cannot
    let one clean connection carry a whole scenario.  Runs after the
    scenarios above; fewer than ten scenarios skip the check.
    """
    if fault_ledger["scenarios"] < 10:
        pytest.skip(f"only {fault_ledger['scenarios']} fuzz scenarios ran")
    assert fault_ledger["fired"] >= 0.6 * fault_ledger["planned"], fault_ledger
    if (MASTER_SEED, _N_SCENARIOS) == _CI_CORPUS:
        assert fault_ledger["fired"] >= _CI_CORPUS_FIRED, fault_ledger
