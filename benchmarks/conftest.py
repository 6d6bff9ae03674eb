"""Shared fixtures for the benchmark harness.

Benchmarks run at the ``bench`` scale preset (override with
``REPRO_SCALE``) against a persistent artifact cache in ``.artifacts/`` so
expensive stages (backbone pre-training, model tuning, dataset revision)
are paid once across the whole suite.

``REPRO_BENCH_ITEMS`` caps the number of test items judged per test set
(default 60) — a CPU wall-clock concession documented in EXPERIMENTS.md.

Gated benches record their numbers through :func:`write_bench_json` into
the gitignored ``bench_out/`` directory, so running the suite never
rewrites the committed ``BENCH_*.json`` baselines at the repo root.
Refreshing a baseline is a deliberate copy: ``cp bench_out/BENCH_x.json
BENCH_x.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config import DEFAULT_SEED, get_scale
from repro.pipeline import Workbench

#: Per-test-set item cap for model evaluation benches.
BENCH_ITEMS = int(os.environ.get("REPRO_BENCH_ITEMS", "60"))

#: Subset size used by sweep benches (Fig. 5, Table XI).
SWEEP_SUBSET = int(os.environ.get("REPRO_SWEEP_SUBSET", "300"))


@pytest.fixture(scope="session")
def wb() -> Workbench:
    root = Path(__file__).resolve().parents[1]
    return Workbench(
        scale=get_scale(),
        seed=DEFAULT_SEED,
        cache_dir=root / ".artifacts",
    )


#: Where bench runs write their ``BENCH_*.json`` results (gitignored).
BENCH_OUT = Path(__file__).resolve().parents[1] / "bench_out"


def write_bench_json(name: str, stages: dict) -> Path:
    """Merge ``stages`` into ``bench_out/<name>`` and return its path.

    Several benches contribute stages to one file: each call keeps the
    stages other benches wrote and replaces its own.  Callers write only
    after their gates pass, so a failing run never records its numbers.
    """
    BENCH_OUT.mkdir(exist_ok=True)
    path = BENCH_OUT / name
    payload = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    payload.update(stages)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_banner(exp_id: str, description: str) -> None:
    print(f"\n{'=' * 72}\n{exp_id.upper()} — {description}\n{'=' * 72}")
