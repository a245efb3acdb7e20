"""oracle-differential: the engine checked against the full-interleaving oracle.

Why this workload: it is the only one that calls the oracle, and the
oracle's breadth-first search over every interleaving is nearly all of its
time.  Each item runs ``mpisym compare`` (``check_theorem``) on a random
rank-dispatched program with 4 or 5 ranks and at most 8 communication
statements, under 2 input models.  The 14 bundled corpus programs are
checked too, under enough models to reach every branch shape the engine
finds.  An oracle change (one state graph for both the BFS and the
path-length pass, replay rebuilt on the oracle) should move this workload
and no other.

How the seed is used: the oracle's cost varies fifty-fold between random
programs of this size, so a pool drawn afresh for every seed changes the
work of a run by about 20%, more than the benchmark's bounds.  The
program shapes (which rank communicates with which, in what order, under
which guards) are therefore drawn from a fixed family seed, and the run's
seed draws everything that leaves the size of the state graph unchanged:
the input domain's offset, an injective map of payload values, assigned
values, the spelling of each guard and the variable names.  Every seed
gives different files and the same amount of work.

Known answers: the theorem holds, so every check must print PASS; for the
corpus, some model must show an oracle deadlock exactly when the bundled
manifest says a deadlock is reachable.
"""

from __future__ import annotations

import random
from pathlib import Path

from . import Program, Workload

#: Random programs per workload instance, by size.
COUNT = {"full": 32, "tiny": 3}

#: (ranks, communication statements) of the random programs, in turn.
SHAPES = [(4, 5), (4, 6), (5, 6), (4, 7), (4, 8), (4, 6), (5, 7), (4, 8)]

#: Models per corpus program: more than any corpus program has paths, so
#: every witness model the engine finds is among them.
CORPUS_MODELS = 16

#: Spellings of `X op c` that hold on the same inputs.
_SPELLINGS = {
    "<": ("X < {c}", "{c} > X"),
    "==": ("X == {c}", "{c} == X"),
    ">=": ("X >= {c}", "{c} <= X"),
    "!=": ("X != {c}", "{c} != X"),
}


def skeleton(rng: random.Random, nprocs: int, comm: int):
    """Input width and per-rank statement shapes of one random program.

    A shape is ``(kind, peer, x_payload, guard, pre_assign)``; values and
    names are filled in by ``render``."""
    width = rng.randint(3, 8) if rng.random() < 0.85 else 0
    bodies = [[] for _ in range(nprocs)]
    for _ in range(comm):
        r = rng.randrange(nprocs)
        kind = rng.choices(("send", "recv", "recv_any", "barrier"),
                           weights=(4, 3, 2, 1))[0]
        peer = rng.choice([q for q in range(nprocs) if q != r])
        x_payload = bool(width) and rng.random() < 0.3
        roll = rng.random()
        guard = None
        if width and roll < 0.35:
            guard = (rng.choice(tuple(_SPELLINGS)), rng.randint(0, width - 1))
        bodies[r].append((kind, peer, x_payload, guard, guard is None and roll > 0.75))
    return width, bodies


def render(rng: random.Random, stem: str, width: int, bodies) -> str:
    """Source of a skeleton with seed-drawn values and names.

    Inputs start at an offset of at least 10 and payload constants are an
    injective image of 0..9, so no payload equals an input value and equal
    payloads stay equal: the state graph keeps its size for every seed."""
    nprocs = len(bodies)
    offset = rng.randint(10, 90)
    payload = rng.sample(range(10), 10)
    prefix = rng.choice("abcdefghkmnpqstuvw")
    counters = [0] * nprocs

    def fresh(r: int) -> str:
        counters[r] += 1
        return f"{prefix}{r}_{counters[r]}"

    def text(r: int, kind: str, peer: int, x_payload: bool) -> str:
        if kind == "send":
            value = "X" if x_payload else str(payload[rng.randrange(10)])
            return f"send {value} to {peer};"
        if kind == "recv":
            return f"recv {fresh(r)} from {peer};"
        if kind == "recv_any":
            return f"recv {fresh(r)} from any;"
        return "barrier;"

    out = [[] for _ in range(nprocs)]
    for r, shapes in enumerate(bodies):
        for kind, peer, x_payload, guard, pre_assign in shapes:
            stmt = text(r, kind, peer, x_payload)
            if guard is not None:
                op, c = guard
                cond = rng.choice(_SPELLINGS[op]).format(c=c + offset)
                out[r].append(f"if ({cond}) {{ {stmt} }} "
                              f"else {{ {fresh(r)} = {rng.randint(0, 5)}; }}")
                continue
            if pre_assign:
                out[r].append(f"{fresh(r)} = {rng.randint(0, 5)};")
            out[r].append(stmt)

    lines = [f"# oracle-differential {stem}"]
    if width:
        lines += ["symbolic", f"sym X : int[{offset}..{offset + width - 1}];"]
    lines.append(f"program (nprocs = {nprocs}) {{")

    def dispatch(r: int, indent: str):
        if r == nprocs - 1:
            lines.extend(indent + s for s in out[r])
            return
        lines.append(f"{indent}if (rank == {r}) {{")
        lines.extend(indent + "  " + s for s in out[r])
        lines.append(f"{indent}}} else {{")
        dispatch(r + 1, indent + "  ")
        lines.append(f"{indent}}}")

    dispatch(0, "  ")
    lines.append("}")
    return "\n".join(lines) + "\n"


def corpus_programs(root: Path) -> list:
    """The bundled corpus, with the manifest's deadlock flag as the answer."""
    corpus = root / "src" / "mpisym" / "corpus_data"
    out = []
    for raw in (corpus / "manifest").read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, nprocs, deadlock = line.split()[:3]
        out.append(Program(
            stem=f"corpus-{name}",
            source=(corpus / f"{name}.mpisym").read_text(encoding="utf-8"),
            command="compare", nprocs=int(nprocs),
            expect={"deadlock": deadlock == "yes"},
            compare_models=CORPUS_MODELS))
    return out


def generate(seed: int, size: str, root: Path) -> Workload:
    rng = random.Random(f"oracle-differential/{seed}")
    programs = []
    for i in range(COUNT[size]):
        stem = f"rand{i:02d}"
        nprocs, comm = SHAPES[i % len(SHAPES)]
        width, bodies = skeleton(random.Random(f"oracle-differential/shape/{i}"),
                                 nprocs, comm)
        source = render(rng, stem, width, bodies)
        programs.append(Program(stem=stem, source=source, command="compare",
                                nprocs=nprocs, expect={}))
    programs += corpus_programs(root) if size == "full" else corpus_programs(root)[:2]
    return Workload("oracle-differential", programs)


def check(prog: Program, outcome, mpisym) -> list:
    if "deadlock" not in prog.expect:
        return []
    seen = any(n > 0 for n in outcome.oracle_deadlocks)
    if seen != prog.expect["deadlock"]:
        return [f"oracle deadlock seen={seen}, manifest says {prog.expect['deadlock']}"]
    return []
