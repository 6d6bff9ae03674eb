"""Runs one workload: set-up, timed phase, checks, metrics.

A workload module exposes a ``Workload(seed, seconds, work_dir)`` class
with:

* ``build()`` / ``teardown(system)`` — start and stop the system under
  test (``build`` includes warm-up; it is what ``setup_s`` times);
* ``phase(system)`` — the timed traffic, returning the phase's records;
* ``finish(system, phase)`` — read the system's own counters while it
  is still up;
* ``check(phase)`` — compare outputs against the sequential reference
  paths, returning ``(attempted, failed, errors)``;
* ``end_to_end(phase)`` and ``layer_values(phase)`` — the metrics the
  workload measures itself;
* ``cost(phase)`` — the work time per completed request, the base of
  ``trace.overhead_ratio``.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from . import layers
from .common import PeakRSS, RunResult, environment_stamp, timed_setups
from .tracing import Tracer

#: End-to-end metrics and units; every workload reports all of them.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "pairs_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ttft_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _run_phase(workload, system, rss: PeakRSS | None = None):
    """Run the phase on a built system, then tear it down (always)."""
    try:
        phase = workload.phase(system)
        if rss is not None:
            rss.sample()
        workload.finish(system, phase)
    finally:
        workload.teardown(system)
    return phase


def run(name: str, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> RunResult:
    module = importlib.import_module(f"perfbench.{name}")
    workload = module.Workload(seed, seconds, work_dir)

    if not trace:
        rss = PeakRSS()
        setup_s, system = timed_setups(workload.build, workload.teardown)
        phase = _run_phase(workload, system, rss=rss)
        values = dict(workload.end_to_end(phase))
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = rss.mb()
        end_to_end = {n: (float(values[n]), u) for n, u in END_TO_END.items()}
        per_layer: dict = {}
    else:
        untraced = _run_phase(workload, workload.build())
        # Wrappers go in after set-up: its warm-up is not traced, and
        # fleet workers, forked during set-up, run unwrapped.
        system = workload.build()
        tracer = Tracer()
        try:
            layers.install(tracer)
            phase = _run_phase(workload, system)
        finally:
            tracer.unwrap_all()
        values = layers.span_metrics(tracer)
        values.update(workload.layer_values(phase))
        values["trace.overhead_ratio"] = workload.cost(phase) / workload.cost(untraced)
        per_layer = layers.assemble(values)
        tracer.write(work_dir / "spans.jsonl")
        end_to_end = {}

    attempted, failed, errors = workload.check(phase)
    return RunResult(
        attempted=attempted,
        failed=failed,
        errors=errors,
        end_to_end=end_to_end,
        per_layer=per_layer,
        stamp=environment_stamp(workload.coach, seed, name),
        notes=dict(workload.notes),
    )
