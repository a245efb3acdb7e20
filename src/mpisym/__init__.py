"""Symbolic execution and deadlock detection for a small synchronous
message-passing language (send/recv/wildcard-recv/barrier).

The package exports the library API: `parse_program`, `search`,
`SearchStrategy`, `check_theorem` and the types they return.  Step-level
functions stay at their modules (`engine.scheduler`, `state.fork`, ...)."""

from . import engine, lang, ops, oracle, replay, report, solver
from .engine import AnalysisReport, PathRecord, SearchStrategy, search
from .lang import Program, parse_program
from .oracle import TheoremVerdict, check_theorem
from .state import Verdict

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "PathRecord", "Program", "SearchStrategy",
    "TheoremVerdict", "Verdict", "check_theorem", "parse_program", "search",
]
