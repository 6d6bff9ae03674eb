#!/usr/bin/env bash
# Tier-1 CI gate: the fast unit/parity suites plus the randomized
# differential-parity fuzz harness at a fixed, reproducible seed budget
# — run three times: with the per-scenario KV-layout draw, with the
# radix prefix cache forced on, and with preemptive decode eviction
# forced on (same seeds throughout, so the forced legs differentially
# replay known-good traces) — plus the KV-memory regression floor (the
# paged pool's resident bytes must undercut per-slot full-context slabs
# >= 2x under staggered load).
#
#   scripts/ci.sh            # tier-1 + fuzz legs (fixed seeds, ~40s)
#   scripts/ci.sh --runslow  # also run the slow end-to-end example tests
#
# The benchmark harness (pytest -m bench) is intentionally excluded: it
# runs for minutes (its results land in the gitignored bench_out/).
# Fuzz knobs:
#   REPRO_FUZZ_SEED       master seed (scenario i uses seed + i)
#   REPRO_FUZZ_SCENARIOS  scenario budget (CI default below)
#   REPRO_FUZZ_PREFIX     auto | on | off (radix prefix cache draw)
#   REPRO_FUZZ_PREEMPT    auto | on | off (priority + preempt/resume draw)
# A fuzz failure prints the exact one-scenario reproduction command.
#
# The fleet leg runs the seeded fault-injection harness
# (tests/test_fuzz_fleet.py) at its full CI scenario budget under a hard
# timeout — a supervision bug whose symptom is "hangs forever" must fail
# the gate, not stall it.  Knobs:
#   REPRO_FUZZ_FAULTS     on (set below) unlocks the full budget
#   REPRO_FLEET_SCENARIOS seeded FaultPlan count (CI default 40)
#   REPRO_FLEET_TIMEOUT_S wall-clock guard for the whole leg (default 300)
#
# The scoring leg runs the mixed score/generate-traffic parity fuzz
# (tests/test_fuzz_scoring.py) at its full CI budget, also under a hard
# timeout: every scoring job must stay bitwise-identical to the
# sequential teacher-forced reference with generation traffic and
# cancellations interleaved.  Knobs:
#   REPRO_FUZZ_SCORING     on (set below) unlocks the full budget
#   REPRO_SCORING_TIMEOUT_S wall-clock guard for the leg (default 300)
#
# The network leg runs the network-fault fuzz (tests/test_fuzz_network.py):
# the retrying HTTP client + crash-safe run journal driven through a
# seeded faulty TCP proxy (resets, truncations, stalls, 503 bursts,
# SIGKILLed client processes), asserting exactly-once resolution with
# token parity against the offline coach.  Knobs:
#   REPRO_FUZZ_NETWORK      on (set below) unlocks the full budget
#   REPRO_NETWORK_SCENARIOS seeded NetworkFaultPlan count (CI default 30)
#   REPRO_NETWORK_TIMEOUT_S wall-clock guard for the leg (default 600)
#
# The perfbench smoke leg runs each benchmark workload briefly with
# tracing on (perfbench/run.py --seconds 2 --trace 1) under a hard
# timeout and fails unless its last output line reports
# "correct": true — a renamed layer the tracer wraps (MissingTarget) or
# a broken output check fails here before the benchmark runs.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== hygiene: no compiled artifacts in the index =="
if git ls-files | grep -E '(^|/)__pycache__/|\.pyc$'; then
    echo "error: tracked bytecode artifacts found (see list above);" \
         "git rm --cached them — __pycache__/ and *.pyc are gitignored" >&2
    exit 1
fi

echo "== tier-1: unit + parity suites =="
python -m pytest tests -q -m "not bench" "$@"

echo "== fuzz: randomized differential parity (fixed seed budget) =="
REPRO_FUZZ_SEED="${REPRO_FUZZ_SEED:-20240311}" \
REPRO_FUZZ_SCENARIOS="${REPRO_FUZZ_SCENARIOS:-80}" \
python -m pytest tests/test_fuzz_parity.py -q

echo "== fuzz: radix prefix cache forced on (same seeds) =="
REPRO_FUZZ_PREFIX=on \
REPRO_FUZZ_SEED="${REPRO_FUZZ_SEED:-20240311}" \
REPRO_FUZZ_SCENARIOS="${REPRO_FUZZ_SCENARIOS:-80}" \
python -m pytest tests/test_fuzz_parity.py -q

echo "== fuzz: preemptive decode eviction forced on (same seeds) =="
timeout --signal=TERM --kill-after=30 "${REPRO_PREEMPT_TIMEOUT_S:-300}" \
    env REPRO_FUZZ_PREEMPT=on \
    REPRO_FUZZ_SEED="${REPRO_FUZZ_SEED:-20240311}" \
    REPRO_FUZZ_SCENARIOS="${REPRO_FUZZ_SCENARIOS:-80}" \
    python -m pytest tests/test_fuzz_parity.py -q

echo "== KV-memory regression floor (paged pool vs full-context slabs) =="
python -m pytest tests/test_decoding.py -q -k paged_memory_scales

echo "== fleet: seeded fault-injection fuzz (crash/hang/drop/torn-cache) =="
timeout --signal=TERM --kill-after=30 "${REPRO_FLEET_TIMEOUT_S:-300}" \
    env REPRO_FUZZ_FAULTS=on \
    REPRO_FLEET_SCENARIOS="${REPRO_FLEET_SCENARIOS:-40}" \
    python -m pytest tests/test_fuzz_fleet.py -q

echo "== scoring: mixed score/generate-traffic bitwise-parity fuzz =="
timeout --signal=TERM --kill-after=30 "${REPRO_SCORING_TIMEOUT_S:-300}" \
    env REPRO_FUZZ_SCORING=on \
    REPRO_FUZZ_SEED="${REPRO_FUZZ_SEED:-20240311}" \
    python -m pytest tests/test_fuzz_scoring.py -q

echo "== network: fault-injected HTTP client + run-journal fuzz =="
timeout --signal=TERM --kill-after=30 "${REPRO_NETWORK_TIMEOUT_S:-600}" \
    env REPRO_FUZZ_NETWORK=on \
    REPRO_NETWORK_SCENARIOS="${REPRO_NETWORK_SCENARIOS:-30}" \
    REPRO_FUZZ_SEED="${REPRO_FUZZ_SEED:-20240311}" \
    python -m pytest tests/test_fuzz_network.py -q

echo "== perfbench smoke: every workload traced, outputs checked =="
for workload in offline_clean online_mixed http_fleet; do
    if ! out=$(timeout --signal=TERM --kill-after=30 300 \
            python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 2 --trace 1); then
        echo "error: perfbench $workload failed or timed out" >&2
        exit 1
    fi
    if ! printf '%s\n' "$out" | tail -n 1 | grep -q '"correct": true'; then
        echo "error: perfbench $workload did not report \"correct\": true" >&2
        printf '%s\n' "$out" | tail -n 1 >&2
        exit 1
    fi
    echo "perfbench $workload: correct"
done
