"""Per-phase wall-clock split of a fixed offline revision run.

Runs ``CoachLM.revise_dataset`` over seeded ALPACA-simulacrum pairs at
the offline defaults and times every phase of the engine step with
``perf_counter`` wrappers installed on the package's classes from the
outside — the package itself carries no profiling hook.  Each phase is
timed inclusively (``step`` contains ``forward``, which contains the
attention core and the ``Linear``/``LayerNorm``/``MLP`` layers), so the
shares do not add up to 100%.

The coach is the perfbench one: bench dimensions, random weights from
seed 1234, copy assist on.  ``--weights`` loads a saved state dict (for
example a cached trained coach) into it instead.  ``--repeats`` runs the
timed pass several times and reports each phase's median.

A phase whose class or method no longer exists fails the run: rename
the entry in :data:`PHASES` together with the code.

Usage::

    PYTHONPATH=src python scripts/step_phases.py --pairs 640 --batch 8
    PYTHONPATH=src python scripts/step_phases.py --scale ci --pairs 8
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

if __name__ == "__main__":
    # One BLAS thread, as the benchmark pins it, set before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

#: (label, module, class, attribute) of every timed phase.
PHASES: tuple[tuple[str, str, str, str], ...] = (
    ("step", "repro.nn.decoding", "BatchedEngine", "step"),
    ("forward", "repro.nn.transformer", "TransformerLM", "_forward_numpy"),
    ("attention core", "repro.nn.transformer", "SelfAttention", "_packed_attention"),
    ("KV write", "repro.nn.decoding", "_PackedPagedSlots", "update"),
    ("planning", "repro.nn.decoding", "PagedKVCaches", "packed_adapters"),
    ("verify", "repro.nn.decoding", "BatchedEngine", "_verify"),
    ("draft", "repro.nn.decoding", "BatchedEngine", "_draft"),
    ("Linear", "repro.nn.modules", "Linear", "forward_numpy"),
    ("LayerNorm", "repro.nn.modules", "LayerNorm", "forward_numpy"),
    ("MLP", "repro.nn.transformer", "MLP", "forward_numpy"),
    ("copy-bias build", "repro.nn.decoding", "InductionCopyBias", "__init__"),
)

#: Weights seed of the perfbench coach.
MODEL_SEED = 1234
#: Pairs revised (untimed) before the timed pass, to warm caches and BLAS.
WARMUP_PAIRS = 16


def resolve(phase: tuple[str, str, str, str]):
    """The class and current function a phase wraps; exits if either is gone."""
    label, module, cls_name, attr = phase
    cls = getattr(importlib.import_module(module), cls_name, None)
    fn = None if cls is None else cls.__dict__.get(attr)
    if not callable(fn):
        raise SystemExit(
            f"step_phases: phase {label!r} wraps {module}.{cls_name}.{attr}, "
            "which no longer exists; update PHASES"
        )
    return cls, fn


class PhaseTimer:
    """Inclusive wall time and call count per phase, installed by wrapping."""

    def __init__(self, phases=PHASES):
        self.phases = phases
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[type, str, object]] = []

    def install(self) -> None:
        for phase in self.phases:
            cls, fn = resolve(phase)
            self._originals.append((cls, phase[3], fn))
            setattr(cls, phase[3], self._timed(phase[0], fn))

    def remove(self) -> None:
        for cls, attr, fn in reversed(self._originals):
            setattr(cls, attr, fn)
        self._originals.clear()

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def _timed(self, label: str, fn):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += clock() - start
                calls[label] += 1

        return timed

    def __enter__(self) -> "PhaseTimer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def build_coach(scale: str, weights: str | None):
    from repro.config import get_scale
    from repro.core.coachlm import CoachLM
    from repro.llm import build_tokenizer
    from repro.nn import TransformerConfig, TransformerLM

    tokenizer = build_tokenizer()
    dims = get_scale(scale).base_model
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        d_model=dims.d_model,
        n_layers=dims.n_layers,
        n_heads=dims.n_heads,
        max_seq_len=dims.max_seq_len,
    )
    model = TransformerLM(config, np.random.default_rng(MODEL_SEED))
    if weights:
        with np.load(weights) as blob:
            model.load_state_dict({name: blob[name].copy() for name in blob.files})
    return CoachLM(model, tokenizer)


def measure(
    pairs: int = 640,
    batch: int = 8,
    seed: int = 1,
    scale: str = "bench",
    weights: str | None = None,
    repeats: int = 1,
) -> dict:
    """Run the driver and return the per-phase split (medians over repeats)."""
    from repro.data import InstructionDataset, generate_dataset

    coach = build_coach(scale, weights)
    dataset = InstructionDataset(
        list(generate_dataset(np.random.default_rng(seed), pairs)), name="phases"
    )
    warmup = InstructionDataset(
        list(generate_dataset(np.random.default_rng(seed + 1), WARMUP_PAIRS)),
        name="warmup",
    )
    runs = []
    with PhaseTimer() as timer:
        coach.revise_dataset(warmup, batch_size=batch)
        for _ in range(repeats):
            timer.reset()
            start = time.perf_counter()
            _, stats = coach.revise_dataset(dataset, batch_size=batch)
            wall = time.perf_counter() - start
            runs.append((wall, dict(timer.seconds), dict(timer.calls)))
    wall = statistics.median(run[0] for run in runs)
    phases = {}
    for label, *_ in PHASES:
        seconds = statistics.median(run[1].get(label, 0.0) for run in runs)
        calls = runs[-1][2].get(label, 0)
        phases[label] = {
            "calls": calls,
            "ms": seconds * 1e3,
            "us_per_call": seconds * 1e6 / calls if calls else 0.0,
            "share": seconds / wall if wall else 0.0,
        }
    return {
        "pairs": pairs,
        "batch": batch,
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "wall_s": wall,
        "pairs_per_s": pairs / wall if wall else 0.0,
        "outcomes": dict(stats.outcomes),
        "phases": phases,
    }


def format_table(result: dict) -> str:
    lines = [
        f"{result['pairs']} pairs, batch {result['batch']}, seed {result['seed']}, "
        f"scale {result['scale']}: {result['wall_s']:.3f} s, "
        f"{result['pairs_per_s']:.1f} pairs/s (median of {result['repeats']})",
        f"{'phase':<16} {'calls':>8} {'ms':>10} {'us/call':>10} {'share':>7}",
    ]
    for label, row in result["phases"].items():
        lines.append(
            f"{label:<16} {row['calls']:>8} {row['ms']:>10.1f} "
            f"{row['us_per_call']:>10.1f} {row['share']:>6.1%}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=640)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="bench", help="ci, bench or full dims")
    parser.add_argument("--weights", help="a saved state dict (.npz) to load")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print JSON instead")
    args = parser.parse_args(argv)
    result = measure(
        args.pairs, args.batch, args.seed, args.scale, args.weights, args.repeats
    )
    print(json.dumps(result, indent=1) if args.json else format_table(result))
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
