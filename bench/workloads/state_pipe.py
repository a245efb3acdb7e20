"""state-pipe: one very long path through a barrier-synchronised pipeline.

Why this workload: it loads the state layer deep.  Each program is a ladder
of send-right pipelines with a barrier inside ``repeat k``, over 8 to 32
ranks.  The symbolic input appears only in payloads, so the search is one
path of thousands of steps with a single solver query (the terminal
model), and the path's test case is then replayed as one long trace.  A
``fork`` that copies the whole trace and every process environment on each
step makes the cost of a state grow with the depth of the path; a
persistent trace or copy-on-write state should speed this workload up,
while ``solver-branchy`` should not move.  About half of the programs end
with rank 0 waiting on a receive nobody sends, so the path ends in a
deadlock instead of termination.  The ladder is fixed, so every seed
costs the same work.

Known answers are closed forms: one path, its verdict, its step count
``k*(6n-2)`` (plus ``n+1`` for the deadlocking tail) and the witness model
(every input at the low end of its domain).
"""

from __future__ import annotations

import random

from . import Program, Workload

#: (repeat count, ranks) of each rung of the ladder, by size.
LADDER = {
    "full": [(32, 8), (64, 8), (96, 8), (128, 8), (144, 8), (24, 16),
             (48, 16), (64, 16), (80, 16), (16, 32), (24, 32), (40, 32)],
    "tiny": [(3, 3), (4, 4)],
}


def _rung(rng: random.Random, stem: str, k: int, n: int) -> Program:
    """One rung; the seed draws the input domain, the payload constants
    and whether the path ends in a deadlock, none of which changes the
    number of steps by more than n+1."""
    lo = rng.randint(0, 50)
    hi = lo + rng.randint(1, 200)
    a = rng.randint(1, 9)
    b = rng.randint(0, 99)
    deadlock = rng.random() < 0.5
    tail = ["  if (rank == 0) { recv z from nprocs - 1; }"] if deadlock else []
    source = "\n".join([
        f"# state-pipe {stem}",
        "symbolic",
        f"sym X : int[{lo}..{hi}];",
        "",
        f"program (nprocs = {n}) {{",
        f"  repeat {k} {{",
        f"    v = X * {a} + {b};",
        "    if (rank < nprocs - 1) { send v to rank + 1; }",
        "    if (rank > 0) { recv w from rank - 1; }",
        "    barrier;",
        "  }",
        *tail,
        "}",
        "",
    ])
    steps = k * (6 * n - 2) + (n + 1 if deadlock else 0)
    expect = {"verdict": "deadlock" if deadlock else "terminated",
              "steps": steps, "model": {"X": lo}}
    return Program(stem=stem, source=source, command="analyze", nprocs=n,
                   expect=expect)


def generate(seed: int, size: str, root=None) -> Workload:
    rng = random.Random(f"state-pipe/{seed}")
    programs = [_rung(rng, f"pipe{i:02d}", k, n)
                for i, (k, n) in enumerate(LADDER[size])]
    return Workload("state-pipe", programs)


def check(prog: Program, outcome, mpisym) -> list:
    want = prog.expect
    if len(outcome.paths) != 1:
        return [f"{len(outcome.paths)} paths, expected exactly 1"]
    verdict, steps, model = outcome.paths[0]
    problems = []
    if verdict != want["verdict"]:
        problems.append(f"verdict {verdict}, expected {want['verdict']}")
    if steps != want["steps"]:
        problems.append(f"steps {steps}, expected {want['steps']}")
    if model != want["model"]:
        problems.append(f"model {model}, expected {want['model']}")
    return problems
