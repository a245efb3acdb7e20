"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per workload and mode, waits for it and
reads the JSON object on its last stdout line.  The child:

1. sets up several times, each a fresh import of ``mpisym`` plus
   generating the workload's inputs, and keeps the median as ``setup_s``;
2. runs a warm-up pass whose outputs are checked against the known answers;
3. repeats timed passes until ``--seconds`` have passed; every item is an
   in-process ``mpisym.cli.main([...])`` call with stdout captured, and its
   output must equal the checked warm-up output.

The speed of a shared machine drifts by tens of percent over seconds and
minutes, for every process alike.  So a fixed reference loop is timed next
to the items (at most ``REFERENCE_EVERY`` seconds before each one, and before
each set-up), and every time the child reports is scaled to a machine on
which that loop takes ``REFERENCE_S``: measured time x ``REFERENCE_S`` /
reference time.  The reference loop runs no mpisym code, so a change to
mpisym moves the scaled times as much as the measured ones.

In ``--mode traced`` the timed passes run with ``tracing.install`` applied
and the child reports per-layer metrics instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import re
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cli", "engine", "lang", "ops", "oracle", "replay", "report",
           "solver", "state", "symbolic")

#: Set-ups per run; the median is reported.
SETUP_REPS = 9

#: Iterations of the reference loop, its nominal time in seconds, and the
#: longest time an item may be from the last reference measurement.
REFERENCE_N = 600
REFERENCE_S = 0.5e-3
REFERENCE_EVERY = 0.02

_PATH_LINE = re.compile(r"^path (\d+): (\w+)(?: @L\d+)? steps=(\d+) model=\{(.*)\}$")
_MODEL_ITEM = re.compile(r"^(\w+)=(-?\d+)$")
_COMPARE_LINE = re.compile(r"^THEOREM-CHECK (PASS|FAIL) .*oracle-deadlocks=(\d+) ")


class Failed(Exception):
    """An item whose output is wrong."""


def import_mpisym():
    """Fresh import of every mpisym module from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "mpisym" or m.startswith("mpisym.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ns = types.SimpleNamespace(**{m: importlib.import_module(f"mpisym.{m}") for m in MODULES})
    where = Path(ns.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"mpisym imported from {where}, not from {SRC}")
    return ns


def set_up(name: str, seed: int, size: str, work: Path):
    mpisym = import_mpisym()
    workload = WORKLOADS[name].generate(seed, size, ROOT)
    inputs = work / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    for prog in workload.programs:
        (inputs / f"{prog.stem}.mpisym").write_text(prog.source, encoding="utf-8")
    return mpisym, workload


def inputs_digest(workload) -> str:
    h = hashlib.sha256()
    for prog in workload.programs:
        h.update(prog.stem.encode() + b"\0" + prog.source.encode() + b"\0")
    return h.hexdigest()


# -- machine speed --------------------------------------------------------------


def _reference_work(n: int) -> int:
    """Fixed pure-Python work of the kind mpisym does: tuple keys, dict
    updates, integer arithmetic, small new dicts and strings."""
    seen = {}
    rows = []
    acc = 0
    for i in range(n):
        key = (i & 63, acc & 7)
        seen[key] = seen.get(key, 0) + 1
        acc = (acc + i * len(seen)) % 1009
        rows.append({"i": i, "acc": str(acc), "key": key})
    return acc + len(rows)


class Speed:
    """Factors that scale measured wall and CPU times to the reference
    machine, from the fastest of three timings of the reference loop (with
    the garbage collector off, so that it never pays for mpisym's objects)."""

    def __init__(self):
        self.at = float("-inf")
        self.factors = (1.0, 1.0)
        self.reference_s = []

    def measure(self):
        walls, cpus = [], []
        gc.disable()
        try:
            for _ in range(3):
                w0, c0 = time.perf_counter(), time.process_time()
                _reference_work(REFERENCE_N)
                walls.append(time.perf_counter() - w0)
                cpus.append(time.process_time() - c0)
        finally:
            gc.enable()
        self.at = time.perf_counter()
        self.reference_s.append(min(walls))
        self.factors = (REFERENCE_S / min(walls), REFERENCE_S / max(min(cpus), 1e-9))
        return self.factors

    def current(self):
        """The factors, measured afresh when the last are too old."""
        if time.perf_counter() - self.at >= REFERENCE_EVERY:
            self.measure()
        return self.factors


# -- items ----------------------------------------------------------------------


class Item:
    __slots__ = ("key", "rc", "out", "error", "wall", "cpu", "factors")

    def stable_output(self):
        lines = [ln for ln in self.out.splitlines() if not ln.startswith("wall time:")]
        return (self.rc, "\n".join(lines), self.error)


def call(cli, key: str, argv) -> Item:
    item = Item()
    item.key = key
    out = io.StringIO()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            item.rc = cli.main(argv)
        item.error = None
    except Exception as exc:  # any exception, RecursionError included, fails the item
        item.rc = None
        item.error = f"{type(exc).__name__}: {exc}"
    item.wall = time.perf_counter() - w0
    item.cpu = time.process_time() - c0
    item.out = out.getvalue()
    return item


def run_pass(mpisym, workload, work: Path, speed: Speed, tracer=None):
    """Every item of the workload once; returns the items and a list of
    (program, its items)."""
    inputs = work / "inputs"
    items = []
    per_program = []
    for prog in workload.programs:
        source = str(inputs / f"{prog.stem}.mpisym")
        own = []
        if prog.command == "analyze":
            out_dir = work / "cases" / prog.stem
            if out_dir.exists():
                shutil.rmtree(out_dir)
            own.append(_call(mpisym, speed, tracer, f"analyze:{prog.stem}",
                             ["analyze", source, "--out", str(out_dir)]))
            cases = sorted(out_dir.glob("*.testcase"), key=_case_index) if out_dir.exists() else ()
            for case in cases:
                own.append(_call(mpisym, speed, tracer, f"replay:{case.name}",
                                 ["replay", source, str(case)]))
        else:
            own.append(_call(mpisym, speed, tracer, f"compare:{prog.stem}",
                             ["compare", source, "--nprocs", str(prog.nprocs),
                              "--enumerate-models", str(prog.compare_models)]))
        items += own
        per_program.append((prog, own))
    return items, per_program


def _case_index(path: Path) -> int:
    return int(path.name.rsplit(".path", 1)[1].split(".")[0])


def _call(mpisym, speed, tracer, key, argv):
    # The speed is read outside the item's span, so it is never traced.  A
    # long item is scaled by the mean of the speeds before and after it.
    before = speed.current()
    if tracer is None:
        item = call(mpisym.cli, key, argv)
    else:
        item = tracer.call(tracer.name_id(tracing.ROOT), call, (mpisym.cli, key, argv), {})
    after = speed.current()
    item.factors = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
    return item


# -- checking -------------------------------------------------------------------


def parse_model(text: str) -> dict:
    model = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        m = _MODEL_ITEM.match(part)
        if not m:
            raise Failed(f"unreadable model item {part!r}")
        model[m.group(1)] = int(m.group(2))
    return model


def check_analyze(prog, items, mpisym, check_fn):
    """Generic checks of one analyzed program, then the workload's own."""
    analyze, replays = items[0], items[1:]
    if analyze.error:
        raise Failed(f"analyze raised {analyze.error}")
    lines = analyze.out.splitlines()
    summary = dict(p.split("=") for p in lines[0].split())
    paths = []
    for ln in lines:
        m = _PATH_LINE.match(ln)
        if m:
            paths.append((m.group(2), int(m.group(3)), parse_model(m.group(4))))
    if int(summary["paths"]) != len(paths) or not paths:
        raise Failed("report path lines do not match its summary")
    verdicts = [p[0] for p in paths]
    if "error" in verdicts:
        raise Failed("analysis error path")
    found = any(v in ("deadlock", "assertfail") for v in verdicts)
    if analyze.rc != (2 if found else 0):
        raise Failed(f"analyze exit code {analyze.rc} with verdicts {sorted(set(verdicts))}")
    if f"wrote {len(paths)} test case(s) to" not in analyze.out or len(replays) != len(paths):
        raise Failed(f"{len(replays)} test cases for {len(paths)} paths")
    for i, (rep, verdict) in enumerate(zip(replays, verdicts)):
        if rep.key != f"replay:{prog.stem}.path{i + 1:03d}.testcase":
            raise Failed(f"unexpected test case {rep.key}")
        if rep.error or rep.rc != 0 or \
                rep.out.strip() != f"{verdict.capitalize()} reproduced; 0 divergences":
            raise Failed(f"{rep.key}: replay did not reproduce: {rep.error or rep.out.strip()}")
    problems = check_fn(prog, types.SimpleNamespace(paths=paths), mpisym)
    if problems:
        raise Failed("; ".join(problems[:3]))
    return len(paths)


def check_compare(prog, items, mpisym, check_fn):
    (item,) = items
    if item.error:
        raise Failed(f"compare raised {item.error}")
    lines = [ln for ln in item.out.splitlines() if ln.startswith("THEOREM-CHECK")]
    matches = [_COMPARE_LINE.match(ln) for ln in lines]
    if item.rc != 0 or not lines or not all(m and m.group(1) == "PASS" for m in matches):
        raise Failed(f"theorem check did not pass (exit {item.rc})")
    outcome = types.SimpleNamespace(oracle_deadlocks=[int(m.group(2)) for m in matches])
    problems = check_fn(prog, outcome, mpisym)
    if problems:
        raise Failed("; ".join(problems[:3]))
    return len(lines)


def verify(per_program, mpisym, check_fn, problems):
    """Check every program's outputs; returns the paths of each program and
    the keys of the items that failed.  A program whose outputs are wrong,
    or whose check raises, fails with all of its items."""
    paths = {}
    failed = set()
    for prog, items in per_program:
        checker = check_analyze if prog.command == "analyze" else check_compare
        try:
            paths[prog.stem] = checker(prog, items, mpisym, check_fn)
        except Exception as exc:  # a checker crash on odd output is a failure too
            detail = exc if isinstance(exc, Failed) else f"{type(exc).__name__}: {exc}"
            problems.append(f"{prog.stem}: {detail}")
            failed.update(item.key for item in items)
            paths[prog.stem] = 0
    return paths, failed


# -- metrics --------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten items beyond it, and its
    percentile; the maximum when there are fewer than eleven items."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, passes, paths_per_pass, speed):
    """End-to-end metrics, every time scaled to the reference machine.  An
    item's time is its median over the timed passes."""
    walls, cpus, raw = {}, {}, {}
    for items in passes:
        for it in items:
            walls.setdefault(it.key, []).append(it.wall * it.factors[0])
            cpus.setdefault(it.key, []).append(it.cpu * it.factors[1])
            raw.setdefault(it.key, []).append(it.wall)
    times = [statistics.median(v) for v in walls.values()]
    tail_value, tail_pct = tail(times)
    wall = sum(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": tail_value * 1e3,
        "paths_per_s": paths_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": tail_pct, "items": len(times),
                     "passes": len(passes), "paths_per_pass": paths_per_pass,
                     "measured_wall_s": sum(statistics.median(v) for v in raw.values()),
                     "reference_ms": statistics.median(speed.reference_s) * 1e3,
                     "reference_nominal_ms": REFERENCE_S * 1e3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), default="plain")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    work = Path(args.work)
    check_fn = WORKLOADS[args.workload].check

    speed = Speed()
    setups = []
    for _ in range(SETUP_REPS):
        factor = speed.measure()[0]
        t0 = time.perf_counter()
        mpisym, workload = set_up(args.workload, args.seed, args.size, work)
        setups.append((time.perf_counter() - t0) * factor)

    problems = []
    warm, per_program = run_pass(mpisym, workload, work, speed)
    paths, failed_keys = verify(per_program, mpisym, check_fn, problems)
    reference = {it.key: it.stable_output() for it in warm}
    attempted = len(warm)
    failed = len(failed_keys)
    paths_per_pass = sum(paths.values())

    tracer = tracing.install(mpisym) if args.mode == "traced" else None
    passes, layer_passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        items, _ = run_pass(mpisym, workload, work, speed, tracer)
        if tracer is not None:
            layer_passes.append(tracing.layer_metrics(tracer.aggregate(), tracer.counters))
        attempted += len(items)
        keys = [it.key for it in items]
        if keys != list(reference):
            problems.append(f"pass {len(passes) + 1}: item list differs from the warm-up")
            failed += len(items)
        else:
            bad = [it.key for it in items if it.stable_output() != reference[it.key]]
            # An item whose checked warm-up output was wrong fails in every pass.
            failed += len(set(bad) | failed_keys)
            problems += [f"{k}: output differs from the warm-up" for k in bad[:3]]
        for it in items:
            it.out = None  # checked; keeping every pass's output would grow peak_rss_mb
        passes.append(items)

    result = {
        "workload": args.workload, "seed": args.seed, "mode": args.mode,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "inputs_sha256": inputs_digest(workload),
    }
    metrics, info = end_to_end(setups, passes, paths_per_pass, speed)
    result.update(info)
    if tracer is None:
        result["metrics"] = metrics
    else:
        layers = {}
        for name in layer_passes[0]:
            values = [p[name] for p in layer_passes]
            layers[name] = values[0] if name in tracing.DETERMINISTIC else statistics.median(values)
        result["count_drift"] = sorted(
            n for n in tracing.DETERMINISTIC if len({p[n] for p in layer_passes}) > 1)
        result["metrics"] = layers
        result["wall_s"] = metrics["wall_s"]
        tracer.write(work / "spans.tsv")
    cases = work / "cases"
    if cases.exists():
        shutil.rmtree(cases)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
