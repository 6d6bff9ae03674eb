"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload offline_clean --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation installed.  ``--trace 1`` runs the same
phase twice, untraced and then traced, and reports the per-layer
metrics of the traced pass plus ``trace.overhead_ratio`` (traced cost
per request over untraced cost per request); its spans are written to
``.perfbench_out/``.  Every run checks the outputs against the
sequential reference paths after the timed phase.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the environment stamp and details go to standard error.

The BLAS thread count is pinned here, before numpy is first imported,
so every run and every commit measures the same arithmetic setup.
"""

from __future__ import annotations

import os

#: Pinned BLAS threads.  The model's GEMMs are small (d_model 64), and
#: the fleet workload runs two engine processes on the same cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("offline_clean", "online_mixed", "http_fleet")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _check_names(key: str, metrics: dict) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[key]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if declared != printed:
        raise SystemExit(
            f"{key} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(printed))}, "
            f"extra {sorted(set(printed) - set(declared))}"
        )


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Fails (non-zero exit, no result line) when the package is absent.
    from perfbench import harness

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
        if args.trace:
            trace_file = out_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            shutil.move(str(work_dir / "spans.jsonl"), trace_file)
            result.notes["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = result.per_layer if args.trace else result.end_to_end
    _check_names("per_layer" if args.trace else "end_to_end", metrics)
    print(json.dumps({"stamp": result.stamp, "notes": result.notes,
                      "errors": result.errors[:20]}, sort_keys=True),
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
