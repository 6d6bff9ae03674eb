"""Shared pieces of the workloads: the coach, statistics, memory, the stamp.

Everything here is measurement plumbing.  The system under test is
reached only through the package's public entry points
(``CoachLM.revise_dataset``, ``RevisionServer``, ``EngineFleet``,
``RevisionHTTPFrontend``/``RevisionHTTPClient``).
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import get_scale
from repro.core.coachlm import CoachLM
from repro.data import generate_dataset
from repro.llm import build_tokenizer
from repro.llm.prompts import encode_coach_prompt
from repro.nn import TransformerConfig, TransformerLM
from repro.scoring.ifd import score_pair_ifd

#: Weights of the coach under test.  Fixed for every workload and seed:
#: the model is part of the system, the workload seed only draws inputs.
MODEL_SEED = 1234
#: How many times each run builds the system; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Offset that keeps warm-up pairs out of the timed inputs' stream.
WARMUP_SEED_OFFSET = 1_000_003
#: Served revisions per run re-derived through the sequential ``revise_pair``.
PARITY_SAMPLE = 8


def build_coach() -> CoachLM:
    """A seeded random-init coach at ``bench`` dimensions.

    A trained coach takes far longer to build than a benchmark run may;
    a random-init one decodes every pair to the full budget, which
    gives every run the same per-pair work.
    """
    tokenizer = build_tokenizer()
    dims = get_scale("bench").base_model
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=dims.d_model,
        n_layers=dims.n_layers,
        n_heads=dims.n_heads,
        max_seq_len=dims.max_seq_len,
    )
    model = TransformerLM(config, np.random.default_rng(MODEL_SEED))
    return CoachLM(model, tokenizer)


def make_pairs(seed: int, n: int, name: str = "bench") -> list:
    """``n`` seeded ALPACA-simulacrum pairs, natural duplicates included."""
    return list(generate_dataset(np.random.default_rng(seed), n, name=name))


def warmup_pairs(seed: int, n: int) -> list:
    return make_pairs(seed + WARMUP_SEED_OFFSET, n, name="warmup")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def pair_key(pair) -> tuple[str, str]:
    return pair.instruction, pair.response


def duplicate_share(pairs: list) -> float:
    """Share of pairs whose content already appeared earlier in the list."""
    return 1.0 - len({pair_key(p) for p in pairs}) / len(pairs) if pairs else 0.0


def traffic_shape(coach: CoachLM, pairs: list, decode_lengths: list[int],
                  score_share: float) -> dict[str, float]:
    """The ``traffic.*`` metrics: what the workload actually sent."""
    prompt_lengths = [len(encode_coach_prompt(coach.tokenizer, p)) for p in pairs]
    return {
        "traffic.prompt_tokens_p50": percentile(prompt_lengths, 50),
        "traffic.prompt_tokens_p99": percentile(prompt_lengths, 99),
        "traffic.decode_tokens_p50": percentile(decode_lengths, 50),
        "traffic.duplicate_share": duplicate_share(pairs),
        "traffic.score_share": score_share,
    }


# -- correctness ------------------------------------------------------------------

def check_revisions(coach: CoachLM, seed: int, served: list) -> list[str]:
    """Re-derive a seeded sample of served revisions with ``revise_pair``.

    ``served`` holds ``(input pair, output pair, outcome or None)``; an
    outcome of ``None`` is not compared.  Returns one error per mismatch.
    """
    errors: list[str] = []
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(served), min(PARITY_SAMPLE, len(served)), replace=False):
        pair, out, outcome = served[int(i)]
        expected, expected_outcome = coach.revise_pair(pair)
        if (expected.instruction, expected.response) != (out.instruction, out.response) or (
            outcome is not None and outcome != expected_outcome.value
        ):
            errors.append(f"{pair.pair_id}: served revision != revise_pair")
    return errors


def check_scores(coach: CoachLM, served: list) -> list[str]:
    """Compare every served ``(pair, score dict)`` with ``score_pair_ifd``, bit for bit."""
    errors: list[str] = []
    expected: dict = {}
    for pair, score in served:
        key = pair_key(pair)
        if key not in expected:
            expected[key] = repr(score_pair_ifd(coach.model, coach.tokenizer, pair).as_dict())
        if expected[key] != repr(score):
            errors.append(f"{pair.pair_id}: score differs from score_pair_ifd")
    return errors


# -- memory -----------------------------------------------------------------------

def _status_kb(pid: int | str, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids() -> list[int]:
    """Live direct children of this process (fleet workers)."""
    pids: list[int] = []
    task_dir = Path(f"/proc/{os.getpid()}/task")
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text(encoding="ascii")
        except OSError:
            continue
        pids.extend(int(tok) for tok in text.split())
    return pids


class PeakRSS:
    """Peak resident memory of this process plus its children.

    The process's own peak comes from ``getrusage``; each child's peak
    (``VmHWM``) is read by :meth:`sample` while it is alive, because a
    forked worker's high-water mark is gone once it is reaped.
    """

    def __init__(self) -> None:
        self._children: dict[int, int] = {}

    def sample(self) -> None:
        for pid in child_pids():
            self._children[pid] = max(
                self._children.get(pid, 0), _status_kb(pid, "VmHWM")
            )

    def mb(self) -> float:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own_kb + sum(self._children.values())) / 1024.0


# -- environment stamp ------------------------------------------------------------

def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1] for line in fh if "openblas" in line.lower()
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_stamp(coach: CoachLM, seed: int, workload: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):  # numpy builds differ in what they expose
        blas_name = "unknown"
    cfg = coach.model.config
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "model": {
            "d_model": cfg.d_model,
            "n_layers": cfg.n_layers,
            "n_heads": cfg.n_heads,
            "max_seq_len": cfg.max_seq_len,
            "vocab_size": cfg.vocab_size,
            "max_new_tokens": coach.max_new_tokens,
            "weights_seed": MODEL_SEED,
        },
    }


# -- run outcome ------------------------------------------------------------------

@dataclass
class RunResult:
    """What one workload run hands back to the launcher."""

    attempted: int
    failed: int
    errors: list[str]
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    stamp: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def timed_setups(build, teardown) -> tuple[float, object]:
    """Build the system :data:`SETUP_REPEATS` times; keep the last build.

    Returns the median build time and the live system.  Earlier builds
    are torn down before the next starts, outside the timed region.
    """
    times: list[float] = []
    system = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            teardown(system)
    return median(times), system
