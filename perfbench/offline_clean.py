"""``offline_clean``: the paper's deployment job, a closed loop of one caller.

The caller cleans a seeded dataset shard by shard, each shard one
``CoachLM.revise_dataset(shard, journal=RunJournal(path))`` call at the
offline defaults (dense KV, batch 8, unchunked prefill).  The next shard
starts when the previous one returns, until ``--seconds`` have passed.
``revise_dataset`` returns a shard's pairs all at once, so its time to
first result is its latency: ``ttft_*`` equal ``latency_*`` here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.data import InstructionDataset
from repro.serving import RunJournal, dataset_fingerprint

from .common import (
    build_coach, check_revisions, make_pairs, percentile, traffic_shape, warmup_pairs,
)
from .layers import outcome_metrics

#: Pairs per ``revise_dataset`` call: two fills of the batch-8 engine,
#: so slot refill runs inside every call.
SHARD_PAIRS = 16
#: Pairs generated per second of run time (more than can be cleaned).
PAIRS_PER_SECOND_BUDGET = 300


@dataclass
class Phase:
    started: float = 0.0
    ended: float = 0.0
    shard_latency_s: list[float] = field(default_factory=list)
    #: (shard inputs, shard outputs, journal path) per completed shard.
    shards: list[tuple[list, list, Path]] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=dict)
    decoded: int = 0


class Workload:
    def __init__(self, seed: int, seconds: float, work_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        n = max(4 * SHARD_PAIRS, int(PAIRS_PER_SECOND_BUDGET * seconds))
        self.pairs = make_pairs(seed, n)
        self.warmup = InstructionDataset(warmup_pairs(seed, 4 * SHARD_PAIRS), name="warmup")
        self.coach = None
        self.notes: dict = {"shard_pairs": SHARD_PAIRS}
        self._journals = 0

    def _journal_path(self) -> Path:
        self._journals += 1
        return self.work_dir / f"journal-{self._journals:05d}.jsonl"

    def build(self):
        coach = build_coach()
        with RunJournal(self._journal_path()) as journal:
            coach.revise_dataset(self.warmup, journal=journal)
        self.coach = coach
        return coach

    def teardown(self, system) -> None:
        pass

    def phase(self, coach) -> Phase:
        phase = Phase()
        phase.started = time.perf_counter()
        deadline = phase.started + self.seconds
        cursor = 0
        while time.perf_counter() < deadline:
            shard = self.pairs[cursor:cursor + SHARD_PAIRS]
            cursor = (cursor + SHARD_PAIRS) % (len(self.pairs) - SHARD_PAIRS)
            path = self._journal_path()
            start = time.perf_counter()
            with RunJournal(path) as journal:
                revised, stats = coach.revise_dataset(
                    InstructionDataset(shard, name="shard"), journal=journal
                )
            phase.shard_latency_s.append(time.perf_counter() - start)
            phase.shards.append((shard, list(revised), path))
            for outcome, count in stats.outcomes.items():
                phase.outcomes[outcome] = phase.outcomes.get(outcome, 0) + count
        phase.ended = time.perf_counter()
        phase.decoded = sum(
            phase.outcomes.get(k, 0)
            for k in ("revised", "unchanged", "invalid_output")
        )
        return phase

    def finish(self, system, phase: Phase) -> None:
        pass

    def check(self, phase: Phase) -> tuple[int, int, list[str]]:
        coach = self.coach
        errors: list[str] = []
        attempted = sum(len(shard) for shard, _, _ in phase.shards)
        failed = 0
        run_hash = coach.revision_run_hash()
        for shard, revised, path in phase.shards:
            with RunJournal(path) as journal:
                replay = journal.open_run(run_hash, dataset_fingerprint(shard))
            missing = set(range(len(shard))) - set(replay.completed)
            if missing or len(replay.completed) != len(shard):
                failed += len(missing) or 1
                errors.append(f"{path.name}: {len(missing)} pairs without DONE")
        outputs = [
            (pair, out, None) for shard, revised, _ in phase.shards
            for pair, out in zip(shard, revised)
        ]
        parity = check_revisions(coach, self.seed, outputs)
        failed += len(parity)
        errors.extend(parity)
        return attempted, failed, errors

    def end_to_end(self, phase: Phase) -> dict[str, float]:
        pairs = sum(len(shard) for shard, _, _ in phase.shards)
        lat_ms = [s * 1e3 for s in phase.shard_latency_s]
        return {
            "pairs_per_s": pairs / (phase.ended - phase.started),
            "latency_p50_ms": percentile(lat_ms, 50),
            "latency_p90_ms": percentile(lat_ms, 90),
            "ttft_p50_ms": percentile(lat_ms, 50),
        }

    def cost(self, phase: Phase) -> float:
        pairs = sum(len(shard) for shard, _, _ in phase.shards)
        return (phase.ended - phase.started) / pairs

    def layer_values(self, phase: Phase) -> dict[str, float]:
        sent = [pair for shard, _, _ in phase.shards for pair in shard]
        values = {
            "loadgen.sent": float(len(sent)),
            "loadgen.succeeded": float(len(sent)),
        }
        values.update(outcome_metrics(phase.outcomes, phase.decoded))
        values.update(traffic_shape(self.coach, sent, self._decode_lengths(phase), 0.0))
        return values

    def _decode_lengths(self, phase: Phase) -> list[int]:
        """Decode tokens per pair, read back from the shards' journals."""
        run_hash = self.coach.revision_run_hash()
        lengths: list[int] = []
        for shard, _, path in phase.shards:
            with RunJournal(path) as journal:
                replay = journal.open_run(run_hash, dataset_fingerprint(shard))
            lengths.extend(d.generated_tokens for d in replay.completed.values())
        return lengths
