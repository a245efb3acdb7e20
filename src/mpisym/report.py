"""Plain-text rendering of analysis reports and differential-check verdicts.

Rendering is deterministic: paths appear in discovery order and the only
run-dependent line is the wall-time one, which golden tests filter out.
"""

from __future__ import annotations

from typing import Iterable

from . import engine, oracle, symbolic
from .state import BarrierRelease, MatchEvent, StepEvent, Verdict

#: Rendering order of verdict counters in the summary line.
_VERDICT_ORDER = (Verdict.TERMINATED, Verdict.DEADLOCK, Verdict.ASSERT_FAIL,
                  Verdict.ERROR)

#: Number of trailing trace events shown in a detail block.
TRACE_TAIL = 12


def model_text(model) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in model.items()) + "}"


def event_text(ev, compiled) -> str:
    if isinstance(ev, StepEvent):
        return f"step r{ev.rank} @L{compiled.ops[ev.loc].line}"
    if isinstance(ev, MatchEvent):
        suffix = " (any)" if ev.wildcard else ""
        return f"match {ev.sender}->{ev.receiver}{suffix}"
    if isinstance(ev, BarrierRelease):
        return f"barrier release #{ev.epoch}"
    # the fourth kind, a BranchChoice
    return f"branch @L{compiled.ops[ev.loc].line} {'true' if ev.taken else 'false'}"


def _summary_line(report: engine.AnalysisReport) -> str:
    parts = [f"paths={len(report.records)}"]
    counts = report.counts
    for verdict in _VERDICT_ORDER:
        n = counts.get(verdict.value, 0)
        if n:
            parts.append(f"{verdict.value}={n}")
    return " ".join(parts)


def _path_line(rec: engine.PathRecord, compiled) -> str:
    verdict = rec.verdict.value
    if rec.verdict is Verdict.ASSERT_FAIL:
        verdict = f"{verdict} @L{compiled.ops[rec.fail_loc].line}"
    return f"path {rec.index + 1}: {verdict} steps={rec.steps} model={model_text(rec.model)}"


def render(report: engine.AnalysisReport, detail: int = 0) -> str:
    """Human-readable report.

    detail >= 1 adds a block (path condition, witness model, trace tail)
    under every deadlock/assert-failure/error path; detail >= 2 adds the
    block with the complete trace under every path."""
    detail = int(detail)
    lines = [_summary_line(report)]
    if report.truncated:
        lines.append("truncated: state or depth bound exhausted")
    for rec in report.records:
        compiled = rec.final_state.compiled
        lines.append(_path_line(rec, compiled))
        bad = rec.verdict in (Verdict.DEADLOCK, Verdict.ASSERT_FAIL, Verdict.ERROR)
        if detail >= 2 or (detail >= 1 and bad):
            lines.append(f"  pc: {symbolic.pc_source(rec.pc)}")
            lines.append(f"  model: {model_text(rec.model)}")
            if rec.error:
                lines.append(f"  error: {rec.error}")
            trace = rec.trace
            tail = trace if detail >= 2 else trace[-TRACE_TAIL:]
            omitted = len(trace) - len(tail)
            prefix = f"... {omitted} earlier; " if omitted else ""
            lines.append("  trace: " + prefix +
                         "; ".join(event_text(ev, compiled) for ev in tail))
    lines.append(f"states created: {report.states_created}")
    lines.append(f"solver queries: {report.solver_queries}")
    lines.append(f"wall time: {report.wall_time:.3f}s")
    return "\n".join(lines) + "\n"


def strip_volatile(text: str) -> str:
    """Drop run-dependent lines so output can be compared against goldens."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("wall time:")) + "\n"


def render_compare(verdict: oracle.TheoremVerdict) -> str:
    """PASS/FAIL line for one differential check, with witnesses on failure."""
    status = "PASS" if verdict.holds else "FAIL"
    head = (f"THEOREM-CHECK {status} model={model_text(verdict.model)} "
            f"engine-deadlocks={len(verdict.engine_deadlocks)} "
            f"oracle-deadlocks={len(verdict.oracle_deadlocks)} "
            f"engine-states={verdict.engine_states} "
            f"oracle-states={verdict.oracle_states}")
    if verdict.holds:
        return head + "\n"
    return head + "\n" + "\n".join(f"  {issue}" for issue in verdict.issues) + "\n"


def render_validation(findings: Iterable) -> str:
    return "\n".join(f"L{f.line}: {f.kind}: {f.message}" for f in findings) + "\n"
