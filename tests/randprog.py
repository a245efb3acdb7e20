"""Seeded random-program generation for the differential and property
suites."""

from __future__ import annotations

import random
from typing import List

from mpisym import lang


def random_program_source(rng: random.Random, max_procs: int = 4,
                          max_comm: int = 6, max_width: int = 8,
                          weights=(4, 3, 2, 1),
                          trailing_barrier: bool = False, min_procs: int = 2) -> str:
    """A small rank-dispatched program: `min_procs` to `max_procs` ranks, at
    most `max_comm` communication statements, at most one symbolic byte,
    always passes validation.
    `weights` biases the send/recv/recv-any/barrier mix; `trailing_barrier`
    appends a program-level barrier every rank executes.  Some statements
    are assertions over the input and the locals a rank has assigned, which
    fail for some values and hold for others."""
    nprocs = rng.randint(min_procs, max_procs)
    width = rng.randint(2, max_width) if rng.random() < 0.8 else 0
    comm_budget = rng.randint(1, max_comm)

    counters = [0] * nprocs
    assigned: List[List[str]] = [[] for _ in range(nprocs)]  # outside any `if`

    def fresh(r: int) -> str:
        counters[r] += 1
        return f"v{r}_{counters[r]}"

    def comm_stmt(r: int) -> str:
        kind = rng.choices(("send", "recv", "recv_any", "barrier"),
                           weights=weights)[0]
        others = [q for q in range(nprocs) if q != r]
        if kind == "send":
            payload = "X" if width and rng.random() < 0.3 else str(rng.randint(0, 9))
            return f"send {payload} to {rng.choice(others)};"
        if kind == "recv":
            return f"recv {fresh(r)} from {rng.choice(others)};"
        if kind == "recv_any":
            return f"recv {fresh(r)} from any;"
        return "barrier;"

    def assertion(r: int) -> str:
        names = (["X"] if width else []) + assigned[r]
        cond = f"{rng.choice(names)} {rng.choice(('!=', '<', '>=', '=='))} {rng.randint(0, 9)}"
        if rng.random() < 0.3:
            cond += f" {rng.choice(('&&', '||'))} {rng.choice(names)} != {rng.randint(0, 9)}"
        return f"assert ({cond});"

    bodies: List[List[str]] = [[] for _ in range(nprocs)]
    for _ in range(comm_budget):
        r = rng.randrange(nprocs)
        if (width or assigned[r]) and rng.random() < 0.2:
            bodies[r].append(assertion(r))
        stmt = comm_stmt(r)
        roll = rng.random()
        if width and roll < 0.35:
            op = rng.choice(("<", "==", ">=", "!="))
            c = rng.randint(0, width - 1)
            if rng.random() < 0.4:
                bodies[r].append(f"if (X {op} {c}) {{ {stmt} }} "
                                 f"else {{ {fresh(r)} = {rng.randint(0, 5)}; }}")
            else:
                bodies[r].append(f"if (X {op} {c}) {{ {stmt} }}")
        else:
            if roll > 0.75:
                bodies[r].append(f"{fresh(r)} = {rng.randint(0, 5)};")
                assigned[r].append(f"v{r}_{counters[r]}")
            bodies[r].append(stmt)
            if stmt.startswith("recv "):
                assigned[r].append(stmt.split()[1])

    lines = []
    if width:
        lines.append("symbolic")
        lines.append(f"sym X : int[0..{width - 1}];")
    lines.append(f"program (nprocs = {nprocs}) {{")

    def dispatch(r: int, indent: str):
        if r == nprocs - 1:
            for stmt in bodies[r]:
                lines.append(indent + stmt)
            return
        lines.append(f"{indent}if (rank == {r}) {{")
        for stmt in bodies[r]:
            lines.append(indent + "  " + stmt)
        lines.append(f"{indent}}} else {{")
        dispatch(r + 1, indent + "  ")
        lines.append(f"{indent}}}")

    dispatch(0, "  ")
    if trailing_barrier:
        lines.append("  barrier;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_program(rng: random.Random, **kwargs):
    source = random_program_source(rng, **kwargs)
    program = lang.parse_program(source)
    assert not lang.validate(program, program.nprocs_default), source
    return program


def pipeline_source(nprocs: int) -> str:
    """Deterministic send-right pipeline used by the growth-shape checks."""
    return (
        f"program (nprocs = {nprocs}) {{\n"
        "  if (rank < nprocs - 1) {\n"
        "    send rank to rank + 1;\n"
        "  }\n"
        "  if (rank > 0) {\n"
        "    recv v from rank - 1;\n"
        "  }\n"
        "}\n"
    )


