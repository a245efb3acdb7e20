"""Symbolic execution and deadlock detection for a small synchronous
message-passing language (send/recv/wildcard-recv/barrier)."""

from .engine import (AnalysisReport, PathRecord, SearchStrategy, classify,
                     expand, scheduler, se_step, search)
from .lang import Program, parse_program, pretty_print, validate
from .oracle import apply, check_theorem, enabled
from .replay import TestCase, load_testcase, replay_testcase, save_testcase
from .corpus import CorpusEntry, load_corpus
from .report import render, render_compare
from .solver import check_entailed_constant, domains_of, get_model, is_sat
from .state import (GlobalState, Verdict, advance, assume, eval_expr, fork,
                    init_state, match_transfer)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "CorpusEntry", "GlobalState", "PathRecord", "Program",
    "SearchStrategy", "TestCase", "Verdict", "advance", "apply",
    "assume", "check_entailed_constant", "check_theorem", "classify",
    "domains_of", "enabled", "eval_expr", "expand", "fork",
    "get_model", "init_state", "is_sat", "load_corpus", "load_testcase",
    "match_transfer", "parse_program", "pretty_print", "render",
    "render_compare", "replay_testcase", "save_testcase", "scheduler",
    "se_step", "search", "validate",
]
