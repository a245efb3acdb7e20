"""Seeded workload generators.

Each generator module exposes ``generate(seed, size, root) -> Workload``
and ``check(program, outcome, mpisym) -> problems``.  The
program under test only ever sees the generated ``.mpisym`` sources; the
known answers travel beside them in ``Program.expect`` and are computed
without calling the engine (closed forms, concrete simulation of the
template, or the bundled manifest).  Each module's docstring records why the
workload was chosen and which layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Program:
    """One generated input.

    ``command`` is ``"analyze"`` (analyze --out, then replay every written
    test case) or ``"compare"`` (the differential theorem check).
    ``expect`` holds the known answers the workload's ``check`` reads.
    """

    stem: str
    source: str
    command: str
    nprocs: int
    expect: Dict = field(default_factory=dict)
    compare_models: int = 2


@dataclass
class Workload:
    name: str
    programs: List[Program]


# Imported last: the generator modules import Program and Workload from here.
from . import (oracle_differential, solver_branchy, state_pipe,  # noqa: E402
               wildcard_fanout)

#: Workload name -> generator module, in the order ``run.py`` runs them.
WORKLOADS = {
    "solver-branchy": solver_branchy,
    "state-pipe": state_pipe,
    "wildcard-fanout": wildcard_fanout,
    "oracle-differential": oracle_differential,
}
