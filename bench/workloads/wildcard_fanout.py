"""wildcard-fanout: hundreds of short paths from wildcard match orders.

Why this workload: it loads the state layer wide and shallow where
``state-pipe`` loads it deep.  Rank 0 posts n-1 wildcard receives
(n = 5..6); every other rank sends once, and some of those sends are gated
by the input.  Every order in which the active senders can be matched is
its own path, so a program yields up to a few hundred short paths,
some terminated and some deadlocked (rank 0 still waiting for a sender
whose gate was closed).  Every path is written as a test case, loaded back
and replayed.  The workload also loads the scheduler's O(n^2)
wildcard-pair scan, the per-path ``get_model``, ``report.render`` and
test-case I/O.

How the seed is used: which senders are gated and how far into the input
domain each gate opens come from a fixed family seed, because the cost of
the solver's smallest-model search grows with that distance.  The run's
seed draws the domain's offset, the payload and which gated sender gets
which threshold.

Known answers are closed forms.  With u ungated senders and g gated ones
whose thresholds are distinct and inside the domain, the input admits
g+1 sender sets of sizes m = u..u+g, and the set of size m is matched in
m! orders.  So the report has sum(m!) paths, the (n-1)! orders of the full
set terminate and the rest deadlock.  The witness model of each path is
the smallest input that opens its gates, which fixes each path's verdict.
"""

from __future__ import annotations

import math
import random

from . import Program, Workload

#: (ranks, gated senders) of each program, by size.  Path counts are fixed
#: by these.
SHAPES = {
    "full": [(6, 1), (6, 2), (6, 3), (6, 4), (5, 2), (5, 4)],
    "tiny": [(4, 1), (4, 2)],
}


def _shape(i: int, n: int, gated: int) -> dict:
    """Which senders are gated, at which distances into the input domain,
    from a fixed family seed."""
    rng = random.Random(f"wildcard-fanout/shape/{i}")
    width = rng.randint(gated + 4, 60)
    return {"n": n, "width": width,
            "gated": sorted(rng.sample(range(1, n), gated)),
            "steps": sorted(rng.sample(range(width), gated))}


def _program(rng: random.Random, stem: str, shape: dict) -> Program:
    """Source of one shape with a seed-drawn domain offset, payload and
    assignment of thresholds to the gated senders.  The solver enumerates
    the same number of candidates for every offset, so the seed changes
    the inputs but not the work."""
    n = shape["n"]
    lo = rng.randint(0, 500)
    hi = lo + shape["width"]
    thresholds = [lo + t for t in shape["steps"]]  # distinct, inside [lo, hi)
    rng.shuffle(thresholds)
    gate = dict(zip(shape["gated"], thresholds))
    a = rng.randint(1, 9)
    senders = list(range(1, n))

    def sender_body(r: int) -> str:
        if r in gate:
            return f"if (X > {gate[r]}) {{ send v to 0; }}"
        return "send v to 0;"

    lines = [
        f"# wildcard-fanout {stem}",
        "symbolic",
        f"sym X : int[{lo}..{hi}];",
        "",
        f"program (nprocs = {n}) {{",
        "  if (rank == 0) {",
        f"    repeat {n - 1} {{ recv m from any; }}",
        "  } else {",
        f"    v = rank * {a} + X;",
    ]
    indent = "    "
    for r in senders[:-1]:
        lines.append(f"{indent}if (rank == {r}) {{")
        lines.append(f"{indent}  {sender_body(r)}")
        lines.append(f"{indent}}} else {{")
        indent += "  "
    lines.append(f"{indent}{sender_body(senders[-1])}")
    for _ in senders[:-1]:
        indent = indent[:-2]
        lines.append(f"{indent}}}")
    lines += ["  }", "}", ""]

    ungated = n - 1 - len(gate)
    by_model = {}
    for j, t in enumerate([None] + sorted(thresholds)):
        x = lo if t is None else t + 1
        by_model[x] = ungated + j
    expect = {
        "senders": n - 1,
        "paths_by_model": {x: math.factorial(m) for x, m in by_model.items()},
        "active_by_model": by_model,
    }
    return Program(stem=stem, source="\n".join(lines), command="analyze",
                   nprocs=n, expect=expect)


def generate(seed: int, size: str, root=None) -> Workload:
    rng = random.Random(f"wildcard-fanout/{seed}")
    programs = [_program(rng, f"fanout{i:02d}", _shape(i, n, g))
                for i, (n, g) in enumerate(SHAPES[size])]
    return Workload("wildcard-fanout", programs)


def check(prog: Program, outcome, mpisym) -> list:
    want = prog.expect
    problems = []
    counts = {}
    for i, (verdict, _steps, model) in enumerate(outcome.paths):
        x = model.get("X")
        active = want["active_by_model"].get(x)
        if active is None:
            problems.append(f"path {i + 1}: model {model} is not a smallest gate opener")
            continue
        want_verdict = "terminated" if active == want["senders"] else "deadlock"
        if verdict != want_verdict:
            problems.append(f"path {i + 1}: verdict {verdict}, expected {want_verdict}")
        counts[x] = counts.get(x, 0) + 1
    if counts != want["paths_by_model"]:
        problems.append(f"paths per model {counts}, expected {want['paths_by_model']}")
    return problems
