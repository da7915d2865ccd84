"""Benchmark for conseq: one seeded workload per run, in a fresh process.

    python3 bench/run.py --workload chain-deep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics, or with
`--trace 1` the per-layer ones).  The same record, the machine details and,
when tracing, every span are written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain-deep", "onepass-wide", "tables-16")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="measured time, shared between phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "conseq"
    if not (package / "__init__.py").is_file():
        print(f"error: no conseq sources at {package}; run from a source checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the run and its CLI subprocesses, so that the reference
        # loop (harness.Reference) runs where the samples it scales run
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(package.parent))
    import conseq

    if Path(conseq.__file__).resolve().parent != package.resolve():
        print(f"error: imported conseq from {conseq.__file__}, not {package}", file=sys.stderr)
        return 2

    import workloads
    from harness import Runner

    before = machine()
    started = time.perf_counter()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(ROOT, out_dir, workloads.build(args.workload, args.seed), args.seconds, bool(args.trace))
    runner.run()
    metrics = runner.per_layer() if args.trace else runner.end_to_end()
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "machine": before,
        "loadavg_after": machine()["loadavg"],
        "errors": runner.errors,
        "rounds": {f"{phase}{'-traced' if traced else ''}": r for (phase, traced), r in runner.rounds.items()},
        "samples": runner.samples,
        "reference": {"times": runner.ref.times, "unit_s": runner.ref.units},
        **result,
    }
    if runner.tracer:
        record["spans"] = runner.tracer.spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record))
    for error in runner.errors:
        print(error, file=sys.stderr)
    print(json.dumps({"machine": before, "wall_s": round(record["wall_s"], 2)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
