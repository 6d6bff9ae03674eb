"""Smoke test of ``scripts/step_phases.py``, the per-phase step profiler."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.nn.decoding import BatchedEngine

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_phases.py"


@pytest.fixture(scope="module")
def step_phases():
    spec = importlib.util.spec_from_file_location("step_phases", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_phases_times_every_phase_on_a_tiny_model(step_phases, capsys):
    step = BatchedEngine.__dict__["step"]
    result = step_phases.main(["--scale", "ci", "--pairs", "8", "--batch", "4"])
    printed = capsys.readouterr().out
    for label, *_ in step_phases.PHASES:
        row = result["phases"][label]
        assert row["calls"] > 0 and row["ms"] > 0, label
        assert label in printed
    assert sum(result["outcomes"].values()) == 8
    # The wrappers come off again.
    assert BatchedEngine.__dict__["step"] is step


def test_step_phases_fails_when_a_wrapped_name_is_gone(step_phases):
    timer = step_phases.PhaseTimer(
        (("gone", "repro.nn.decoding", "BatchedEngine", "_no_such_phase"),)
    )
    with pytest.raises(SystemExit, match="no longer exists"):
        timer.install()
