"""Smoke test and determinism check of the benchmark.

    python3 bench/smoke.py              # tiny inputs, about a minute
    python3 bench/smoke.py --size full  # the benchmark's own inputs

1. Every workload runs untraced and traced; every metric named in
   BENCHMARK.json must be present and no item may fail.
2. The traced run repeats with the same seed: every deterministic count
   (``tracing.DETERMINISTIC``) and the input digest must repeat exactly.
   Each child process gets its own string-hash seed, so a count that
   depends on set or dict order shows up here.
3. Another seed must produce different inputs.

Exits 0 when every check holds and prints one line per failed check.
"""

from __future__ import annotations

import argparse
import sys

import run
import tracing
from workloads import WORKLOADS


def check_workload(name: str, size: str, seconds: float, seed: int) -> list:
    problems = []
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(name, seed, seconds, trace, size)
        missing = sorted(set(run.units(kind)) - set(result["metrics"]))
        if missing:
            problems.append(f"{name}: {kind} metrics missing: {missing}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{name}: failed_ratio {result['failed']}/{result['attempted']}: "
                            f"{result['problems'][:3]}")

    first = run.run_child(name, seed, seconds / 2, "traced", size)
    again = run.run_child(name, seed, seconds / 2, "traced", size)
    other = run.run_child(name, seed + 1, seconds / 2, "traced", size)
    for label, result in (("first", first), ("repeat", again), ("other seed", other)):
        if result["count_drift"]:
            problems.append(f"{name}: counts moved between passes of the {label} run: "
                            f"{result['count_drift']}")
    drift = [n for n in tracing.DETERMINISTIC if first["metrics"][n] != again["metrics"][n]]
    if drift:
        problems.append(f"{name}: counts differ between two runs of seed {seed}: "
                        + ", ".join(f"{n} {first['metrics'][n]} vs {again['metrics'][n]}"
                                    for n in drift))
    if first["inputs_sha256"] != again["inputs_sha256"]:
        problems.append(f"{name}: seed {seed} produced different inputs twice")
    if first["inputs_sha256"] == other["inputs_sha256"]:
        problems.append(f"{name}: seeds {seed} and {seed + 1} produced the same inputs")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark smoke test")
    ap.add_argument("--size", choices=("tiny", "full"), default="tiny")
    args = ap.parse_args(argv)
    seconds = 1.0 if args.size == "tiny" else run.BENCHMARK["run_seconds"]

    problems = []
    for name in WORKLOADS:
        try:
            found = check_workload(name, args.size, seconds, seed=1)
        except RuntimeError as exc:
            found = [f"{name}: {exc}"]
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for problem in problems:
        print(f"smoke: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
