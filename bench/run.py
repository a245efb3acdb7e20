"""mpisym benchmark: time to verdict on four seeded workloads.

Usage (from the root of a checkout)::

    python3 bench/run.py                      # every workload, seed 1
    python3 bench/run.py --workload state-pipe --seed 7 --seconds 15 --trace 0

Each workload runs in a fresh child process (``bench/child.py``), one at a
time.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs an
untraced and then a traced child and prints the per-layer metrics.  Every
metric is printed by name with its unit; with ``--workload`` the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every item of every workload
gave the known answer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

#: Seconds a child may take beyond its measuring time (set-up, warm-up
#: pass with its checks, the last pass overrunning the deadline).
CHILD_SLACK = 75

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def run_child(workload: str, seed: int, seconds: float, mode: str, size: str) -> dict:
    """Run one child to completion and return its result object."""
    work = ROOT / ".bench_work" / workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--size", size, "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + CHILD_SLACK)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{workload} ({mode}) did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} ({mode}) child exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Result object of one workload: the contract's keys plus details."""
    if not trace:
        plain = run_child(workload, seed, seconds, "plain", size)
        out = dict(plain)
        out["metrics"] = {k: plain["metrics"][k] for k in units("end_to_end")}
    else:
        plain = run_child(workload, seed, seconds / 2, "plain", size)
        traced = run_child(workload, seed, seconds / 2, "traced", size)
        out = dict(traced)
        out["attempted"] = plain["attempted"] + traced["attempted"]
        out["failed"] = plain["failed"] + traced["failed"]
        out["problems"] = plain["problems"] + traced["problems"]
        out["metrics"]["trace.overhead_ratio"] = traced["wall_s"] / plain["metrics"]["wall_s"]
    out["correct"] = out["failed"] == 0 and not out["problems"]
    return out


def print_human(workload: str, result: dict, kind: str):
    unit_of = units(kind)
    for name, value in result["metrics"].items():
        line = f"[{workload}] {name} = {value:.6g} {unit_of.get(name, '')}".rstrip()
        if name == "item_tail_ms":
            line += f" (p{result['tail_percentile']:.1f} of {result['items']} items)"
        print(line)
    ratio = result["failed"] / result["attempted"]
    print(f"[{workload}] failed_ratio = {ratio:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(f"[{workload}] passes = {result['passes']}, inputs sha256 {result['inputs_sha256'][:16]}")
    print(f"[{workload}] times are scaled to a reference loop of "
          f"{result['reference_nominal_ms']:g} ms; it took {result['reference_ms']:.4g} ms "
          f"here, and the unscaled wall_s is "
          f"{result['measured_wall_s']:.6g} s")
    for problem in result["problems"]:
        print(f"[{workload}] problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mpisym benchmark")
    ap.add_argument("--workload", choices=list(WORKLOADS), default=None,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mpisym" / "__init__.py").is_file():
        print(f"run.py: no mpisym sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    names = [args.workload] if args.workload else list(WORKLOADS)
    all_correct = True
    result = None
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), "full")
        except RuntimeError as exc:  # a crashed child: report it, go on with the rest
            print(f"run.py: {exc}", file=sys.stderr)
            print(f"[{name}] failed: {exc}")
            all_correct, result = False, None
            continue
        print_human(name, result, kind)
        all_correct = all_correct and result["correct"]
    if args.workload and result is not None:
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units(kind)[k]}
                        for k, v in result["metrics"].items()},
        }))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
