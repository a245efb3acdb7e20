"""Satisfiability of path conditions over bounded integer domains.

Each symbolic input ranges over a declared inclusive interval.  Deciding a
path condition runs in three stages, and a fourth, after the argument for
smallest models, lets the engine skip most searches:

1. Pre-pass.  Top-level conjunctions are flattened and repeated conjuncts
   dropped; equal terms are one node, so a repeat is found by identity.  A
   conjunct present together with its `symbolic.negate` refutes the query
   at once.  An interval pass then evaluates every conjunct over the input
   intervals (`lang.evaluate` over `INTERVALS`), discarding conjuncts that
   hold on the whole domain box and refuting the query on one that holds
   nowhere in it.
2. Components.  The remaining conjuncts are split into groups that share
   no variables (constraint independence, as in KLEE), read from each
   term's kept `free`, and each group is solved on its own variables only.
   A conflict in one group is then found without enumerating the domains
   of the others.
3. Backtracking.  One generator assigns a group's variables in declaration
   order, ascending, checking each conjunct as soon as its variables are
   bound, so it yields models in ascending lexicographic order.  A
   variable's bucket of conjuncts is one function, compiled once (`PYTHON`).

Query answers take the first model of every group; a declared input that
no remaining conjunct mentions gets the low end of its domain.  This is the
lexicographically smallest model of the whole query: because the groups
share no variables, the models of the query are exactly the combinations
of one model per group, so the smallest value of an input, given the
values chosen for the inputs declared before it, depends only on the
earlier inputs of its own group.  `enumerate_models` runs the generator
over all inputs at once, without splitting.  The smallest model keeps
generated test cases and golden files stable.

4. Carried model.  Each engine state carries the smallest model of its
   path condition, so most queries need no full search.  On a guard `g`
   that holds on the carried model, that model is the smallest model of
   `pc ∧ g` too: every model of `pc ∧ g` is a model of `pc`, and none is
   smaller than the smallest one.  Otherwise `get_model(pc + (g,), d,
   known)` re-solves only the components of the new query that share a
   variable with `g`.  Every other component is one of `pc`'s, unchanged
   (the pre-pass decides each conjunct on its own), and keeps its values
   from `known`: because components share no variables, the smallest model
   is the smallest model of each component, by the argument above.  A rank
   entailment evaluates `e` on the carried model to `v` and searches only
   the components of `e` for a model of `pc ∧ e != v`.  `holds` is the
   check on the carried model; it rejects an integer term as `_prepare`
   does.

Arithmetic is exact (Python integers); only the declared domains are
bounded, so no overflow behavior exists to model.
"""

from __future__ import annotations

import ast
import functools
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from . import lang, symbolic
from .lang import Binary, Expr, Num, Var

if TYPE_CHECKING:
    from .symbolic import PathCondition

Domains = Dict[str, Tuple[int, int]]  # declaration-ordered
Model = Dict[str, int]


class SolverError(Exception):
    pass


class Unsatisfiable(SolverError):
    """The query has no model."""


def _flatten(pc: PathCondition) -> List[Expr]:
    """Split top-level conjunctions so each conjunct is bucketed separately."""
    out: List[Expr] = []
    stack = list(pc)
    while stack:
        c = stack.pop()
        if isinstance(c, Binary) and c.op == "&&":
            stack.append(c.left)
            stack.append(c.right)
        else:
            out.append(c)
    out.reverse()
    return out


# -- interval pre-pass -------------------------------------------------------


def _times(a, b):
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(corners), max(corners))


# A comparison holds on the whole box when it holds for the pair of values
# least favourable to it, and somewhere in it when for the most favourable.
def _lt(a, b):
    return (a[1] < b[0], a[0] < b[1])


def _le(a, b):
    return (a[1] <= b[0], a[0] <= b[1])


def _eq(a, b):
    return (a[0] == a[1] == b[0] == b[1], a[0] <= b[1] and b[0] <= a[1])


def _not(a):
    return (not a[1], not a[0])


#: Bounds over the domain box: `evaluate(e, {}, 0, 0, domains, INTERVALS)`
#: is `(lo, hi)` for an integer term, and for a boolean one `(True, True)`
#: when it holds at every point, `(False, False)` at none, and
#: `(False, True)` when neither is known.
INTERVALS = lang.Algebra(
    lambda e, domains: domains[e.name] if type(e) is Var else (e.value, e.value),
    {"-": lambda a: (-a[1], -a[0]), "!": _not},
    {"+": lambda a, b: (a[0] + b[0], a[1] + b[1]),
     "-": lambda a, b: (a[0] - b[1], a[1] - b[0]),
     "*": _times,
     "<": _lt, "<=": _le, ">": lambda a, b: _lt(b, a), ">=": lambda a, b: _le(b, a),
     "==": _eq, "!=": lambda a, b: _not(_eq(a, b)),
     "&&": lambda a, b: (a[0] and b[0], a[1] and b[1]),
     "||": lambda a, b: (a[0] or b[0], a[1] or b[1])})


# -- compiled bucket checks ----------------------------------------------------


_AT = {"lineno": 1, "col_offset": 0}  # `compile` needs a location on every node
#: Python syntax: `evaluate(c, {}, 0, 0, names, PYTHON)` is the `ast` expression of
#: `evaluate(c, a)` for a term `c` over the inputs `names` and a model `a`.  An input
#: is `a[name]`, its name a string constant, so it cannot clash with a Python name.
PYTHON = lang.Algebra(
    lambda e, _: (ast.Subscript(ast.Name("a", ast.Load(), **_AT), ast.Constant(e.name, **_AT),
                                ast.Load(), **_AT)
                  if type(e) is Var else ast.Constant(e.value, **_AT)),
    {op: lambda x, k=k: ast.UnaryOp(k(), x, **_AT) for op, k in (("-", ast.USub), ("!", ast.Not))},
    {**{op: lambda x, y, k=k: ast.BinOp(x, k(), y, **_AT)
        for op, k in (("+", ast.Add), ("-", ast.Sub), ("*", ast.Mult))},
     **{op: lambda x, y, k=k: ast.Compare(x, [k()], [y], **_AT)
        for op, k in (("==", ast.Eq), ("!=", ast.NotEq), ("<", ast.Lt), ("<=", ast.LtE),
                      (">", ast.Gt), (">=", ast.GtE))},
     **{op: lambda x, y, k=k: ast.BoolOp(k(), [x, y], **_AT)
        for op, k in (("&&", ast.And), ("||", ast.Or))}})


@functools.lru_cache(maxsize=1024)
def _check(bucket: Tuple[Expr, ...]) -> Callable[[Model], bool]:
    """`lambda a: all(lang.evaluate(c, a) for c in bucket)`, compiled from syntax, not text."""
    names = frozenset().union(*[c.free for c in bucket])
    terms = [lang.evaluate(c, {}, 0, 0, names, PYTHON) for c in bucket or (symbolic.TRUE,)]
    body = ast.BoolOp(ast.And(), terms, **_AT) if len(terms) > 1 else terms[0]
    args = ast.arguments([], [ast.arg("a", **_AT)], None, [], [], None, [])  # of `lambda a:`
    code = compile(ast.Expression(ast.Lambda(args, body, **_AT)), "<bucket>", "eval")
    return eval(code, {"__builtins__": {}})  # a code object, not text


# -- pre-pass, components, backtracking ---------------------------------------


def _prepare(pc: PathCondition, domains: Domains) -> Optional[List[Expr]]:
    """The conjuncts of `pc` that no pre-pass decides, each once, in first
    occurrence order; None when a pre-pass refutes `pc`.  Malformed
    queries raise even when they are refutable."""
    conjuncts = dict.fromkeys(_flatten(pc))
    for c in conjuncts:
        # checked here because `negate` below rejects integer terms
        if lang.sort_of(c) != "bool":
            raise SolverError(f"not a boolean expression: {c!r}")
        for name in c.free:
            if name not in domains:
                raise SolverError(f"undeclared symbolic input {name!r}")
    if any(symbolic.negate(c) in conjuncts for c in conjuncts):
        return None
    undecided = []
    for c in conjuncts:
        always, sometimes = lang.evaluate(c, {}, 0, 0, domains, INTERVALS)
        if not sometimes:
            return None
        if not always:
            undecided.append(c)
    return undecided


def _components(conjuncts: List[Expr],
                domains: Domains) -> List[Tuple[List[str], List[Expr]]]:
    """Group the conjuncts so that no two groups share a variable.  Each
    group comes with its variables in declaration order."""
    parent: Dict[str, str] = {}

    def find(name: str) -> str:
        while parent.setdefault(name, name) != name:
            name = parent[name]
        return name

    for c in conjuncts:
        first, *rest = c.free
        for name in rest:
            parent[find(name)] = find(first)
    groups: Dict[str, List[Expr]] = {}
    for c in conjuncts:
        groups.setdefault(find(next(iter(c.free))), []).append(c)
    return [([n for n in domains if n in parent and find(n) == root], group)
            for root, group in groups.items()]


def _models(conjuncts: List[Expr], names: List[str],
            domains: Domains) -> Iterator[Model]:
    """Every assignment to `names` that satisfies all `conjuncts`, in
    ascending lexicographic order of `names`.  Each conjunct is checked as
    soon as its last variable is bound."""
    index = {name: i for i, name in enumerate(names)}
    buckets: List[List[Expr]] = [[] for _ in names]
    for c in conjuncts:
        buckets[max(index[n] for n in c.free)].append(c)
    checks = [_check(tuple(bucket)) for bucket in buckets]
    assignment: Model = {}

    def descend(i: int) -> Iterator[Model]:
        if i == len(names):
            yield dict(assignment)
            return
        name, check = names[i], checks[i]
        lo, hi = domains[name]
        for v in range(lo, hi + 1):
            assignment[name] = v
            if check(assignment):
                yield from descend(i + 1)
        del assignment[name]

    return descend(0)


def _solve(pc: PathCondition, domains: Domains,
           known: Optional[Model] = None) -> Optional[Model]:
    """The smallest model of `pc`, or None when it has none.  `known`, when
    given, is the smallest model of `pc[:-1]`: only the components that
    share a variable with `pc[-1]` are searched, and every other input
    keeps its value from `known`."""
    conjuncts = _prepare(pc, domains)
    if conjuncts is None:
        return None
    if known is None:
        model = {name: lo for name, (lo, _) in domains.items()}
        touched = None
    else:
        model = dict(known)
        touched = pc[-1].free
    for names, group in _components(conjuncts, domains):
        if touched is not None and touched.isdisjoint(names):
            continue
        m = next(_models(group, names, domains), None)
        if m is None:
            return None
        model.update(m)
    return model


def holds(cond: Expr, model: Model) -> bool:
    """True when the boolean term `cond` is true under `model`, which
    assigns every input it mentions.  No search; an integer term is
    rejected as every query rejects it."""
    if lang.sort_of(cond) != "bool":
        raise SolverError(f"not a boolean expression: {cond!r}")
    return lang.evaluate(cond, model)


def is_sat(pc: PathCondition, domains: Domains) -> bool:
    """True iff some assignment within the declared domains satisfies every
    conjunct.  Deterministic."""
    return _solve(pc, domains) is not None


def get_model(pc: PathCondition, domains: Domains,
              known: Optional[Model] = None) -> Model:
    """The lexicographically smallest satisfying assignment under
    declaration order; every declared input is assigned.  Raises
    Unsatisfiable when there is none.  `known`, when given, is the smallest
    model of `pc[:-1]`, and then only the components that share a variable
    with `pc[-1]` are searched."""
    m = _solve(pc, domains, known)
    if m is None:
        raise Unsatisfiable("get_model called on an unsatisfiable path condition")
    return m


def check_entailed_constant(pc: PathCondition, e: Expr, domains: Domains,
                            model: Optional[Model] = None) -> Optional[int]:
    """Return v when every model of pc gives `e` the value v, else None.
    `model`, when given, is the smallest model of `pc`; it saves the search
    for one.  Either way only the components that share a variable with `e`
    are searched for a model giving `e` another value."""
    if lang.sort_of(e) != "int":
        raise SolverError("entailment check needs an integer-sorted expression")
    if isinstance(e, Num):
        return e.value
    for name in e.free:
        if name not in domains:
            raise SolverError(f"undeclared symbolic input {name!r}")
    if model is None:
        model = _solve(pc, domains)
        if model is None:
            raise Unsatisfiable("entailment check on an unsatisfiable path condition")
    v = lang.evaluate(e, model)
    if _solve(pc + (Binary("!=", e, Num(v)),), domains, model) is None:
        return v
    return None


def enumerate_models(pc: PathCondition, domains: Domains, limit: int) -> List[Model]:
    """Up to `limit` satisfying assignments in ascending lexicographic order."""
    conjuncts = _prepare(pc, domains)
    if conjuncts is None or limit <= 0:
        return []
    return list(islice(_models(conjuncts, list(domains), domains), limit))
