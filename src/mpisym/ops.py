"""Lowering of structured bodies to a flat statement table.

The table holds the parser's own statements: every `lang.Assign`,
`lang.Send`, `lang.Recv`, `lang.Barrier` and `lang.Exit` is entered as it
is.  Only the two guarded statements change shape, into an `OpBranch`:
`if (c)` branches to its then-block or its else-block, and `assert (c)`
at entry `i` is `OpBranch(c, i + 1, None)`, a branch whose false side
fails the assertion where it stands.  Each interpreter thus has one rule
for a guarded step.

A process cursor is then a single integer index; `end` (== len(ops)) means
the process ran off the end of its body.  Branch joins become jump entries
that are resolved away at lowering time, so a cursor never rests on one:
`next_of[i]` is the post-resolution successor of entry `i`.  Entry 0 is the
first statement or a leading `if`'s branch, never a jump, so every cursor
starts at 0.

`closed` holds each operand that reads no local, only declared inputs (its
`free` names are all declared).  No environment binds an input (validation
rejects it), so its term depends on the rank alone.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from . import lang


class OpBranch(lang.Record):
    __slots__ = ("cond", "true_target", "false_target", "line")

    def __init__(self, cond: lang.Expr, true_target: int, false_target: Optional[int], line: int):
        self.cond, self.true_target, self.line = cond, true_target, line
        self.false_target = false_target  # None: an assertion, which fails here


#: The fields of each kind of statement in the table that hold an operand.
_OPERANDS = {lang.Assign: ("expr",), OpBranch: ("cond",), lang.Send: ("payload", "dest"),
             lang.Recv: ("src",)}


class _Jump(lang.Record):
    __slots__ = ("target",)

    def __init__(self, target: int):
        self.target = target


class CompiledProgram(lang.Record):
    __slots__ = ("ops", "next_of", "domains", "closed")

    def __init__(self, ops: Tuple, next_of: Tuple[int, ...], domains: Dict[str, Tuple[int, int]],
                 closed: FrozenSet[lang.Expr]):  # the operands that read no local
        self.ops, self.next_of, self.domains, self.closed = ops, next_of, domains, closed

    @property
    def end(self) -> int:
        return len(self.ops)

    def check_model(self, model: Dict[str, int], error: type):
        """Raise `error` unless `model` assigns every declared input, and
        only those, a value in its domain: the one check of a pinned or
        recorded model, which each caller reports with its own type."""
        for name in model:
            if name not in self.domains:
                raise error(f"model assigns undeclared input {name!r}")
        for name, (lo, hi) in self.domains.items():
            if name not in model:
                raise error(f"model does not assign {name!r}")
            if not lo <= model[name] <= hi:
                raise error(f"model value {name}={model[name]} outside [{lo}, {hi}]")


def _lower_block(stmts, out: list):
    for st in stmts:
        if isinstance(st, lang.If):
            branch_at = len(out)
            out.append(None)  # patched below
            _lower_block(st.then_body, out)
            jump_at = len(out)
            out.append(None)
            else_start = len(out)
            _lower_block(st.else_body, out)
            join = len(out)
            out[branch_at] = OpBranch(st.cond, branch_at + 1, else_start, st.line)
            out[jump_at] = _Jump(join)
        elif isinstance(st, lang.Assert):
            out.append(OpBranch(st.cond, len(out) + 1, None, st.line))
        else:
            out.append(st)  # Assign, Send, Recv, Barrier, Exit: as parsed


def _resolve(ops, i: int) -> int:
    while i < len(ops) and isinstance(ops[i], _Jump):
        i = ops[i].target
    return i


def lower(program: lang.Program) -> CompiledProgram:
    """The statement table, built once per program (never modified)."""
    return lang.derived(program, _lower)


def _lower(program: lang.Program) -> CompiledProgram:
    raw: list = []
    _lower_block(program.body, raw)
    ops = []
    for op in raw:
        if isinstance(op, OpBranch):
            false_target = None if op.false_target is None else _resolve(raw, op.false_target)
            ops.append(OpBranch(op.cond, _resolve(raw, op.true_target),
                                false_target, op.line))
        else:
            ops.append(op)
    next_of = tuple(_resolve(raw, i + 1) for i in range(len(ops)))
    domains = {d.name: (d.lo, d.hi) for d in program.decls}
    operands = [getattr(op, name) for op in ops for name in _OPERANDS.get(type(op), ())]
    closed = frozenset(e for e in operands if e is not None and e.free <= domains.keys())
    return CompiledProgram(tuple(ops), next_of, domains, closed)
