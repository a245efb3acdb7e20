"""Span tracing by rebinding mpisym's public functions.

``install`` replaces each layer's public functions at their module
attribute with a wrapper that records a span (name, start, end, parent) and
feeds the layer's counters.  mpisym's modules call one another through
module attributes (``solver.is_sat``, ``engine.search``) or module globals
(``se_step``, ``fork`` inside ``engine``), so every call made while the
tracer is installed goes through a wrapper.  Nothing in ``src/`` changes,
and only the traced child process ever installs it.

Spans live in flat arrays for one pass at a time; ``aggregate`` turns them
into per-layer self times, counts and ratios.  A span's self time is its
duration minus the durations of its child spans (the run is single
threaded, so children nest inside their parent).
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: Wrapped functions: (module, attribute, span name).
TARGETS = (
    ("lang", "parse_program", "lang.parse"),
    ("lang", "validate", "lang.validate"),
    ("ops", "lower", "ops.lower"),
    ("solver", "is_sat", "solver.branch"),
    ("solver", "check_entailed_constant", "solver.entail"),
    ("solver", "get_model", "solver.model"),
    ("solver", "enumerate_models", "solver.enum"),
    ("engine", "fork", "state.fork"),
    ("engine", "se_step", "engine.se_step"),
    ("engine", "scheduler", "engine.scheduler"),
    ("engine", "classify", "engine.classify"),
    ("engine", "search", "engine.search"),
    ("oracle", "check_theorem", "oracle.check_theorem"),
    ("oracle", "deadlock_path_lengths", "oracle.deadlock_path_lengths"),
    ("oracle", "explore_full", "oracle.explore_full"),
    ("replay", "replay_testcase", "replay.replay"),
    ("replay", "save_testcase", "replay.dump"),
    ("replay", "load_testcase", "replay.load"),
    ("report", "render", "report.render"),
    ("report", "render_compare", "report.render_compare"),
)

SOLVER_SPANS = ("solver.branch", "solver.entail", "solver.model", "solver.enum")

#: Span that wraps one whole item (one ``cli.main`` call).
ROOT = "cli"

#: Span around the tracer's own bookkeeping; excluded from every layer.
HOOK = "bench.hook"


def _pc_nodes(e) -> int:
    """Node count of a symbolic expression tree, iteratively."""
    n = 0
    stack = [e]
    while stack:
        x = stack.pop()
        n += 1
        for attr in ("operand", "left", "right"):
            child = getattr(x, attr, None)
            if child is not None:
                stack.append(child)
    return n


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop the spans and counters of the previous pass."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.counters = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(0)
        self.span_end.append(0)
        self.stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.span_start[idx] = t0
            self.span_end[idx] = t1

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        hook_id = self.name_id(HOOK)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(nid, fn, args, kwargs)
            if after is not None:
                tracer.call(hook_id, after, (tracer.counters, args, kwargs, result), {})
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-pass results ----------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total and self nanoseconds, longest span."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats = {}
        names = self.names
        for i in range(n):
            name = names[self.span_name[i]]
            s = stats.get(name)
            if s is None:
                s = stats[name] = {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0}
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += dur[i] - child[i]
            if dur[i] > s["max_ns"]:
                s["max_ns"] = dur[i]
        return stats

    def write(self, path):
        """Write the current pass's spans, one per line: id, parent, name,
        start and end in nanoseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]}\t{self.span_end[i]}\n")


# -- counters fed from return values ------------------------------------------


def _after_lower(c, args, kwargs, result):
    c["ops.ir_ops"] += len(result.ops)


def _after_is_sat(c, args, kwargs, result):
    c["solver.branch.sat"] += bool(result)


def _after_search(c, args, kwargs, result):
    c["engine.states"] += result.states_created
    c["engine.paths"] += len(result.records)
    if kwargs.get("pin_model") is not None:
        c["engine.pinned_states"] += result.states_created
    for rec in result.records:
        c["symbolic.pc_conjuncts_max"] = max(c["symbolic.pc_conjuncts_max"], len(rec.pc))
        nodes = sum(_pc_nodes(e) for e in rec.pc)
        c["symbolic.pc_nodes_max"] = max(c["symbolic.pc_nodes_max"], nodes)
        c["state.trace_len_max"] = max(c["state.trace_len_max"], len(rec.trace))


def _after_deadlock_path_lengths(c, args, kwargs, result):
    c["oracle.states"] += result[1]


def _after_explore_full(c, args, kwargs, result):
    c["oracle.states"] += result.visited


def _after_replay(c, args, kwargs, result):
    c["replay.divergences"] += len(result.divergences)


def _after_save(c, args, kwargs, result):
    path = args[3] if len(args) > 3 else kwargs["path"]
    c["replay.bytes"] += os.path.getsize(path)


def _after_render(c, args, kwargs, result):
    c["report.bytes"] += len(result.encode("utf-8"))


AFTER = {
    "ops.lower": _after_lower,
    "solver.branch": _after_is_sat,
    "engine.search": _after_search,
    "oracle.deadlock_path_lengths": _after_deadlock_path_lengths,
    "oracle.explore_full": _after_explore_full,
    "replay.replay": _after_replay,
    "replay.dump": _after_save,
    "report.render": _after_render,
    "report.render_compare": _after_render,
}


def install(mpisym) -> Tracer:
    """Rebind every target in the given module namespace; returns the tracer."""
    tracer = Tracer()
    for module_name, attr, span in TARGETS:
        module = getattr(mpisym, module_name)
        setattr(module, attr, tracer.wrap(span, getattr(module, attr), AFTER.get(span)))
    return tracer


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer metric values of one traced pass."""

    def self_s(*names):
        return sum(stats.get(n, {}).get("self_ns", 0) for n in names) / 1e9

    def total_s(*names):
        return sum(stats.get(n, {}).get("total_ns", 0) for n in names) / 1e9

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "lang.parse_s": self_s("lang.parse"),
        "lang.validate_s": self_s("lang.validate"),
        "ops.lower_s": self_s("ops.lower"),
        "ops.ir_ops": counters["ops.ir_ops"],
    }
    for kind in ("branch", "entail", "model", "enum"):
        m[f"solver.{kind}.calls"] = calls(f"solver.{kind}")
        m[f"solver.{kind}.self_s"] = self_s(f"solver.{kind}")
    m["solver.branch.sat_ratio"] = ratio(counters["solver.branch.sat"], calls("solver.branch"))
    m["solver.query_max_ms"] = max(
        (stats.get(n, {}).get("max_ns", 0) for n in SOLVER_SPANS), default=0) / 1e6
    m["symbolic.pc_conjuncts_max"] = counters["symbolic.pc_conjuncts_max"]
    m["symbolic.pc_nodes_max"] = counters["symbolic.pc_nodes_max"]
    m["state.fork.calls"] = calls("state.fork")
    m["state.fork.self_s"] = self_s("state.fork")
    m["state.fork.us_per_call"] = ratio(self_s("state.fork") * 1e6, calls("state.fork"))
    m["state.trace_len_max"] = counters["state.trace_len_max"]
    m["engine.states"] = counters["engine.states"]
    m["engine.paths"] = counters["engine.paths"]
    m["engine.us_per_state"] = ratio(total_s("engine.search") * 1e6, counters["engine.states"])
    m["engine.se_step.self_s"] = self_s("engine.se_step")
    m["engine.scheduler.self_s"] = self_s("engine.scheduler", "engine.classify")
    m["engine.search.self_s"] = self_s("engine.search")
    oracle_spans = ("oracle.check_theorem", "oracle.deadlock_path_lengths",
                    "oracle.explore_full")
    m["oracle.states"] = counters["oracle.states"]
    m["oracle.self_s"] = self_s(*oracle_spans)
    m["oracle.us_per_state"] = ratio(self_s(*oracle_spans) * 1e6, counters["oracle.states"])
    m["oracle.reduction_ratio"] = ratio(counters["oracle.states"],
                                        counters["engine.pinned_states"])
    m["replay.cases"] = calls("replay.replay")
    m["replay.bytes"] = counters["replay.bytes"]
    m["replay.dump_s"] = total_s("replay.dump")
    m["replay.load_s"] = total_s("replay.load")
    m["replay.self_s"] = self_s("replay.replay")
    m["replay.divergences"] = counters["replay.divergences"]
    m["report.render_s"] = self_s("report.render", "report.render_compare")
    m["report.bytes"] = counters["report.bytes"]
    m["cli.self_s"] = self_s(ROOT)
    return m


#: Per-layer metrics that must repeat exactly between runs with one seed.
DETERMINISTIC = (
    "ops.ir_ops", "solver.branch.calls", "solver.branch.sat_ratio",
    "solver.entail.calls", "solver.model.calls", "solver.enum.calls",
    "symbolic.pc_conjuncts_max", "symbolic.pc_nodes_max", "state.fork.calls",
    "state.trace_len_max", "engine.states", "engine.paths", "oracle.states",
    "oracle.reduction_ratio", "replay.cases", "replay.bytes",
    "replay.divergences", "report.bytes",
)
