import os
import random

import pytest

from mpisym import corpus, engine, lang, ops
from randprog import random_program_source


@pytest.fixture(scope="session")
def corpus_entries():
    return {e.name: e for e in corpus.load_corpus()}


@pytest.fixture(scope="session")
def program_nodes(corpus_entries):
    """Every node, each once, of every operand of the 14 corpus programs
    and of 200 random ones (`random.Random(24)`), and of every conjunct of
    their searches' path conditions."""
    programs = [(e.program(), e.nprocs) for e in corpus_entries.values()]
    rng = random.Random(24)
    for _ in range(200):
        p = lang.parse_program(random_program_source(rng))
        programs.append((p, p.nprocs_default))
    assert len(programs) == 14 + 200
    stack = []
    for p, nprocs in programs:
        stack += [getattr(op, name) for op in ops.lower(p).ops
                  for name in ("expr", "cond", "payload", "dest", "src") if hasattr(op, name)]
        stack += [c for rec in engine.search(p, nprocs).records for c in rec.pc]
    nodes = {}
    while stack:
        e = stack.pop()
        if isinstance(e, lang.Expr) and e not in nodes:
            nodes[e] = None
            stack += [getattr(e, name) for name in type(e).__slots__]
    return list(nodes)


@pytest.fixture(scope="session")
def seed():
    return int(os.environ.get("MPISYM_SEED", "1729"))


@pytest.fixture()
def rng(seed):
    return random.Random(seed)
