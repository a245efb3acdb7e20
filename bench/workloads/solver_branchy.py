"""solver-branchy: input-dependent guard chains that make the solver work.

Why this workload: nearly all of its time is in ``solver._solve``.  Every
rank runs the same ``repeat k`` chain of guards ``if (X > acc*c + Y)``, so
each rank re-asks the solver questions whose answer the path condition
already fixes: one direction is sat, the other unsat, and an unsat query
enumerates the whole X x Y box.  After the chain, rank 0 gathers two
messages with wildcard receives.  Rank 1's payload depends on a guard over
the last input, and rank 2 sends only when a guard on the inputs holds, to
a destination expression that only the path condition pins to rank 0, so
``check_entailed_constant`` runs.  ``fork`` and the oracle cost next to
nothing here.  It is the workload that a solver optimisation (constraint
independence, model reuse, domain narrowing) should speed up, while
``state-pipe`` should not move.

How the seed is used: the slots' structure (input widths, guard
multiplier, the form of rank 2's send) comes from a fixed family seed,
since the solver's cost varies several-fold between such programs.  The
run's seed shifts every input domain, and every constant compared with it,
which changes every file but not the number of candidates any query
enumerates, so every seed costs the same work.

Known answers come without the engine: the verdict of every witness model
follows from concrete simulation of the template (``expected_verdict``),
the oracle is run on each witness model, every test case is replayed, and
every path's witness model is checked with ``symbolic.pc_holds``.
"""

from __future__ import annotations

import random

from . import Program, Workload

#: Programs per workload instance, by size.
COUNT = {"full": 12, "tiny": 2}


def _shape(i: int, tiny: bool) -> dict:
    """Structure of slot i, from a fixed family seed: input widths, the
    guard multiplier, and the form of rank 2's guarded send."""
    rng = random.Random(f"solver-branchy/shape/{i}")
    three = rng.random() < 0.75  # two or three inputs
    return {
        "three": three,
        "widths": (6, 6, 3) if tiny else (rng.randint(20, 27), rng.randint(20, 27),
                                          rng.randint(6, 9)),
        "k": 2,
        "c": rng.randint(3, 9),
        "q": rng.randint(1, 2 if tiny else 5),
        "d": rng.randint(0, 2),
        "form": rng.choice(("eq", "acc")),
    }


def _program(rng: random.Random, stem: str, shape: dict) -> Program:
    """Source of one slot with seed-drawn input offsets.

    Shifting a domain and every constant compared with it leaves each
    solver query the same search over the same number of candidates, so
    the seed changes the inputs but not the work."""
    ax, ay, az = shape["widths"]
    ox, oy, oz = rng.sample(range(1, 61), 3)  # distinct, so X-Y shift is nonzero
    e = ox - oy
    shift = f"+ {e}" if e > 0 else f"- {-e}"
    z_name, og, g_hi = ("Z", oz, az) if shape["three"] else ("Y", oy, ay)
    q, c, d, k = shape["q"], shape["c"], shape["d"], shape["k"]
    qv = q + og
    if shape["form"] == "eq":
        rank2 = f"if ({z_name} == {qv}) {{ send acc to {z_name} - {qv}; }}"
    else:
        rank2 = (f"if (acc + {d + og} > {z_name}) {{ if ({z_name} == {qv}) "
                 f"{{ send acc to {z_name} - {qv}; }} }}")
    domains = {"X": (ox, ox + ax), "Y": (oy, oy + ay)}
    if shape["three"]:
        domains["Z"] = (oz, oz + az)
    source = "\n".join([
        f"# solver-branchy {stem}",
        "symbolic",
        *(f"sym {n} : int[{lo}..{hi}];" for n, (lo, hi) in domains.items()),
        "",
        "program (nprocs = 3) {",
        "  acc = 0;",
        f"  repeat {k} {{",
        f"    if (X > acc * {c} + Y {shift}) {{ acc = acc + 1; }} else {{ acc = acc + 2; }}",
        "  }",
        "  if (rank == 0) {",
        "    recv a from any;",
        "    recv b from any;",
        "  } else {",
        "    if (rank == 1) {",
        f"      if (acc + {og} > {z_name}) {{ send acc to 0; }} else {{ send 1 to 0; }}",
        "    } else {",
        f"      {rank2}",
        "    }",
        "  }",
        "}",
        "",
    ])
    expect = {"k": k, "c": c, "e": e, "z": z_name, "q": qv, "d": d + og,
              "form": shape["form"], "domains": domains}
    return Program(stem=stem, source=source, command="analyze", nprocs=3,
                   expect=expect)


def generate(seed: int, size: str, root=None) -> Workload:
    rng = random.Random(f"solver-branchy/{seed}")
    programs = [_program(rng, f"branchy{i:02d}", _shape(i, size == "tiny"))
                for i in range(COUNT[size])]
    return Workload("solver-branchy", programs)


def expected_verdict(expect, model) -> str:
    """Concrete simulation of the template under one input model."""
    acc = 0
    for _ in range(expect["k"]):
        acc += 1 if model["X"] > acc * expect["c"] + model["Y"] + expect["e"] else 2
    g = model[expect["z"]]
    if expect["form"] == "eq":
        rank2_sends = g == expect["q"]
    else:
        rank2_sends = acc + expect["d"] > g and g == expect["q"]
    return "terminated" if rank2_sends else "deadlock"


def reachable_verdicts(expect) -> set:
    """Verdicts some input reaches, by enumerating the whole input box."""
    names = list(expect["domains"])
    out = set()

    def walk(i, model):
        if i == len(names):
            out.add(expected_verdict(expect, model))
            return
        lo, hi = expect["domains"][names[i]]
        for v in range(lo, hi + 1):
            model[names[i]] = v
            walk(i + 1, model)

    walk(0, {})
    return out


def check(prog: Program, outcome, mpisym) -> list:
    """Problems with one analyzed program; empty when every answer holds."""
    problems = []
    paths = outcome.paths
    for i, (verdict, _steps, model) in enumerate(paths):
        want = expected_verdict(prog.expect, model)
        if verdict != want:
            problems.append(f"path {i + 1}: verdict {verdict}, template gives {want}")
    seen_verdicts = {p[0] for p in paths}
    if seen_verdicts != reachable_verdicts(prog.expect):
        problems.append(f"reachable verdicts {sorted(seen_verdicts)} differ from "
                        f"{sorted(reachable_verdicts(prog.expect))}")

    program = mpisym.lang.parse_program(prog.source)
    # Oracle on every distinct witness model.
    by_model = {}
    for verdict, _steps, model in paths:
        by_model.setdefault(tuple(sorted(model.items())), set()).add(verdict)
    for key, verdicts in by_model.items():
        result = mpisym.oracle.explore_full(program, prog.nprocs, dict(key))
        tags = {tag for tag, _ in result.terminals.values()}
        if not verdicts <= tags:
            problems.append(f"model {dict(key)}: engine verdicts {sorted(verdicts)} "
                            f"not among oracle terminals {sorted(tags)}")
    # Witness models against the path conditions they claim to satisfy.
    report = mpisym.engine.search(program, prog.nprocs)
    if len(report.records) != len(paths):
        problems.append("re-run path count differs from the report")
    for rec, (verdict, _steps, model) in zip(report.records, paths):
        if rec.model != model or rec.verdict.value != verdict:
            problems.append(f"path {rec.index + 1}: re-run disagrees with the report")
        if not mpisym.symbolic.pc_holds(rec.pc, rec.model):
            problems.append(f"path {rec.index + 1}: witness model fails pc_holds")
    return problems
