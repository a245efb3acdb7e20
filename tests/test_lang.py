import gc
import importlib
import sys
import weakref

import pytest

from mpisym import corpus, lang, symbolic
from mpisym.lang import (Assign, Barrier, Binary, If, Num, ParseError, Recv,
                         Send, parse_program, pretty_print, validate)
from randprog import random_program_source


FIG1 = """\
symbolic
sym X : int[0..255];

program (nprocs = 3) {
  if (rank == 0) {
    x = 0;
    send x to 1;
  } else {
    if (rank == 1) {
      if (X != 'a') {
        recv x from 0;
      } else {
        recv x from any;
      }
      recv y from 2;
    } else {
      x = 20;
      send x to 1;
    }
  }
}
"""


def test_parse_motivating_example():
    p = parse_program(FIG1)
    assert p.nprocs_default == 3
    assert [d.name for d in p.decls] == ["X"]
    assert p.decls[0].lo == 0 and p.decls[0].hi == 255
    top = p.body[0]
    assert isinstance(top, If)
    rank1 = top.else_body[0]
    inner = rank1.then_body[0]
    # the wildcard receive sits under the else side of the input test
    assert isinstance(inner, If)
    assert isinstance(inner.else_body[0], Recv) and inner.else_body[0].src is None
    assert isinstance(inner.then_body[0], Recv) and inner.then_body[0].src == Num(0)


def test_char_literal_is_code_point():
    p = parse_program("program { x = 'a'; }")
    assert p.body[0] == Assign("x", Num(97))


def test_empty_program():
    p = parse_program("program {}")
    assert p.body == ()
    assert p.decls == ()
    assert p.nprocs_default == 1


def test_expression_destination():
    p = parse_program("program (nprocs = 2) { send 1 to rank + 1; }")
    send = p.body[0]
    assert isinstance(send, Send)
    assert send.dest == Binary("+", lang.Var("rank"), Num(1))


def test_repeat_splices_copies():
    p = parse_program("program (nprocs = 2) { repeat 3 { barrier; } }")
    assert p.body == (Barrier(), Barrier(), Barrier())
    q = parse_program("program (nprocs = 2) { repeat 0 { barrier; } }")
    assert q.body == ()
    assert parse_program("program { repeat 100000000000 { } }").body == ()


def test_repeat_splices_at_most_max_statements():
    """Statements inside `if` bodies count, a program may reach the bound,
    and the error names the outermost `repeat`."""
    limit = lang.MAX_STATEMENTS
    assert len(parse_program(f"program {{ repeat {limit // 2} {{ if (rank == 0) {{ }} "
                             "else { x = 1; } } }").body) == limit // 2
    assert len(parse_program(f"program {{ repeat 1 {{ repeat {limit} {{ y = 1; }} }} }}").body) \
        == limit
    for source in (f"program {{ if (rank == 0) {{ x = 1; }} repeat {limit - 1} {{ y = 1; }} }}",
                   f"program {{ x = 1;\n  repeat 1 {{ repeat {limit} {{ y = 1; }} }} }}"):
        with pytest.raises(ParseError) as err:
            parse_program(source)
        assert err.value.message == f"repeat makes more than {limit} statements"
    assert (err.value.line, err.value.col) == (2, 3)


def test_precedence():
    p = parse_program("program { x = 1 + 2 * 3; y = x; }")
    assert p.body[0].expr == Binary("+", Num(1), Binary("*", Num(2), Num(3)))
    q = parse_program("program { x = 1; z = x < 3 && x != 2 || x == 9; }")
    e = q.body[1].expr
    assert e.op == "||"
    assert e.left.op == "&&"


def test_comments_and_locations():
    p = parse_program("# leading comment\nprogram {\n  x = 1; # trailing\n}\n")
    assert p.body[0].line == 3


@pytest.mark.parametrize("source,fragment", [
    ("program { x = ; }", "expected an expression"),
    ("program { if x { } }", "expected '('"),
    ("sym X : int[0..3]; program {}", "must follow a 'symbolic' header"),
    ("symbolic sym X : int[0..2]; sym X : int[0..2]; program {}", "duplicate symbolic"),
    ("program { rank = 3; }", "reserved name"),
    ("program { recv rank from 0; }", "reserved name"),
    ("symbolic sym send : int[0..2]; program {}", "reserved name"),
    ("program (nprocs = 0) {}", "positive"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert fragment in str(err.value)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_program("program {\n  x = @;\n}")
    assert err.value.line == 2


# -- validation ---------------------------------------------------------------


def test_validate_motivating_example_clean():
    assert validate(parse_program(FIG1), 3) == []


def test_validate_out_of_range_literal():
    p = parse_program("program (nprocs = 3) { send 1 to 5; }")
    findings = validate(p, 3)
    assert [f.kind for f in findings] == ["rank-range"]
    # same program under more processes is fine
    assert validate(p, 6) == []


def test_validate_use_before_assign():
    p = parse_program("program { x = y + 1; }")
    assert any(f.kind == "use-before-assign" for f in validate(p, 1))


def test_validate_join_of_branches():
    # defined only on one side of the branch: flagged at the later use
    p = parse_program("program { if (rank == 0) { v = 1; } x = v; }")
    assert any(f.kind == "use-before-assign" for f in validate(p, 2))
    # defined on both sides: clean
    q = parse_program(
        "program { if (rank == 0) { v = 1; } else { v = 2; } x = v; }")
    assert validate(q, 2) == []


@pytest.mark.parametrize("branches", ["{ exit; } else { %s }", "{ %s } else { exit; }"])
def test_validate_join_past_a_branch_that_exits(branches):
    # the side that exits does not reach the join, so only the other side counts
    source = "program { if (rank == 0) " + branches + " x = v; }"
    assert validate(parse_program(source % "v = 1;"), 2) == []
    assert validate(parse_program(source % "w = 1;"), 2) == [
        lang.Finding("use-before-assign", "variable 'v' may be read before assignment", 1)]


@pytest.mark.parametrize("source, finding", [
    ("program { recv m from 5; }",
     ("rank-range", "receive source 5 not in [0, 2)", 1)),
    ("program { send 1 to -1; }",
     ("rank-range", "send destination -1 not in [0, 2)", 1)),
    ("symbolic sym X : int[0..3]; program { recv X from 0; }",
     ("assign-symbolic", "cannot receive into symbolic input 'X'", 1)),
    ("symbolic sym X : int[0..65536]; program { }",
     ("domain-width", "domain of 'X' wider than 65536", 1)),
])
def test_validation_messages(source, finding):
    assert validate(parse_program(source), 2) == [lang.Finding(*finding)]


def test_validate_never_reports_rank_or_nprocs_unassigned():
    """`rank` and `nprocs` are bound in every process: no read of them, in
    any operand, before or after a join or an exit, is a finding."""
    p = parse_program("program (nprocs = 3) {\n"
                      "  if (rank == 0) { x = nprocs; exit; } else { x = rank - 1; }\n"
                      "  send rank * nprocs to (rank + 1) * 0;\n"
                      "  recv y from nprocs - 1;\n"
                      "  assert (rank < nprocs && x + y >= -nprocs);\n"
                      "}\n")
    assert validate(p, 3) == []
    q = parse_program("program { z = rank + w + nprocs; }")
    assert validate(q, 1) == [lang.Finding(
        "use-before-assign", "variable 'w' may be read before assignment", 1)]


def test_validate_recv_defines_variable():
    p = parse_program("program (nprocs = 2) { recv m from 0; x = m; }")
    assert validate(p, 2) == []


def test_validate_exit_makes_tail_unreachable():
    p = parse_program("program { exit; x = y; }")
    assert validate(p, 1) == []


def test_validate_empty_domain():
    p = parse_program("symbolic sym X : int[9..3]; program {}")
    assert any(f.kind == "empty-domain" for f in validate(p, 1))


def test_validate_assign_to_symbolic_input():
    p = parse_program("symbolic sym X : int[0..3]; program { X = 1; }")
    assert any(f.kind == "assign-symbolic" for f in validate(p, 1))


def test_validate_type_errors():
    p = parse_program("program { x = 1 < 2; }")
    assert any(f.kind == "type" for f in validate(p, 1))
    q = parse_program("program { x = 1; if (x) { } }")
    assert any(f.kind == "type" for f in validate(q, 1))


def reference_check_block(stmts, defined, sym_names, nprocs, findings):
    """The validator's walk as it was before the operand table: one branch
    per kind of statement."""
    Finding, _check_expr, _literal_rank = lang.Finding, lang._check_expr, lang._literal_rank
    for st in stmts:
        if defined is None:
            break
        if isinstance(st, Assign):
            _check_expr(st.expr, "int", defined, findings, st.line)
            if st.var in sym_names:
                findings.append(Finding("assign-symbolic",
                                        f"cannot assign to symbolic input {st.var!r}", st.line))
            else:
                defined = defined | {st.var}
        elif isinstance(st, If):
            _check_expr(st.cond, "bool", defined, findings, st.line)
            d1 = reference_check_block(st.then_body, defined, sym_names, nprocs, findings)
            d2 = reference_check_block(st.else_body, defined, sym_names, nprocs, findings)
            if d1 is None:
                defined = d2
            elif d2 is None:
                defined = d1
            else:
                defined = d1 & d2
        elif isinstance(st, Send):
            _check_expr(st.payload, "int", defined, findings, st.line)
            _check_expr(st.dest, "int", defined, findings, st.line)
            lit = _literal_rank(st.dest)
            if lit is not None and not 0 <= lit < nprocs:
                findings.append(Finding("rank-range",
                                        f"send destination {lit} not in [0, {nprocs})", st.line))
        elif isinstance(st, Recv):
            if st.src is not None:
                _check_expr(st.src, "int", defined, findings, st.line)
                lit = _literal_rank(st.src)
                if lit is not None and not 0 <= lit < nprocs:
                    findings.append(Finding("rank-range",
                                            f"receive source {lit} not in [0, {nprocs})", st.line))
            if st.var in sym_names:
                findings.append(Finding("assign-symbolic",
                                        f"cannot receive into symbolic input {st.var!r}", st.line))
            else:
                defined = defined | {st.var}
        elif isinstance(st, lang.Assert):
            _check_expr(st.cond, "bool", defined, findings, st.line)
        elif isinstance(st, lang.Exit):
            defined = None
        elif isinstance(st, Barrier):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise lang.LangError(f"unknown statement {st!r}")
    return defined


def reference_findings(program, nprocs):
    findings = []
    for d in program.decls:
        if d.lo > d.hi:
            findings.append(lang.Finding("empty-domain",
                                         f"domain of {d.name!r} is empty ([{d.lo}..{d.hi}])",
                                         d.line))
        elif d.hi - d.lo + 1 > lang.MAX_DOMAIN_WIDTH:
            findings.append(lang.Finding("domain-width",
                                         f"domain of {d.name!r} wider than {lang.MAX_DOMAIN_WIDTH}",
                                         d.line))
    reference_check_block(program.body, program.sym_names() | lang.BOUND_NAMES,
                          program.sym_names(), nprocs, findings)
    return findings


def random_operand(rng, sort):
    """Mostly an expression of `sort`, sometimes one of the other sort."""
    if rng.random() < 0.15:
        sort = "bool" if sort == "int" else "int"
    return random_surface(rng, sort, rng.randint(0, 2))


def random_rank(rng):
    """A literal rank, in range or not, negative or not, or any operand."""
    roll = rng.random()
    if roll < 0.5:
        return Num(rng.randint(0, 6))
    if roll < 0.7:
        return lang.Unary("-", Num(rng.randint(0, 2)))
    return random_operand(rng, "int")


def random_block(rng, depth, line):
    """Statements of every kind, with nested if/else, exits, wildcard
    receives, and assignments to the locals x, y, z and the inputs X, Y."""
    block = []
    for _ in range(rng.randint(0, 4)):
        line += 1
        kind = rng.choice(("assign", "assign", "if", "send", "recv", "recv", "barrier",
                           "assert", "exit"))
        if kind == "if" and depth < 3:
            then_body, line = random_block(rng, depth + 1, line)
            else_body, line = random_block(rng, depth + 1, line)
            block.append(If(random_operand(rng, "bool"), tuple(then_body), tuple(else_body), line))
        elif kind == "assign":
            block.append(Assign(rng.choice("xyzxyzXY"), random_operand(rng, "int"), line))
        elif kind == "send":
            block.append(Send(random_operand(rng, "int"), random_rank(rng), line))
        elif kind == "recv":
            src = None if rng.random() < 0.3 else random_rank(rng)
            block.append(Recv(rng.choice("xyzxyzXY"), src, line))
        elif kind == "assert":
            block.append(lang.Assert(random_operand(rng, "bool"), line))
        elif kind == "exit" and rng.random() < 0.5:
            block.append(lang.Exit(line))
        else:
            block.append(Barrier(line))
    return block, line


def test_validate_agrees_with_the_per_kind_reference(rng):
    """`lang.validate` walks one operand table; the reference keeps a branch
    per kind of statement.  Their findings, in order, are equal on random
    programs at 1, 2, 3 and 5 processes."""
    with_findings = 0
    for _ in range(1200):
        body, _ = random_block(rng, 0, 1)
        hi = 3 if rng.random() < 0.8 else rng.choice((-1, 1 << 16))  # empty, too wide
        decls = (lang.SymDecl("X", 0, hi, 1), lang.SymDecl("Y", 0, 9, 1))
        program = lang.Program(decls, 2, tuple(body))
        for nprocs in (1, 2, 3, 5):
            expected = reference_findings(program, nprocs)
            assert validate(program, nprocs) == expected, (program, nprocs)
            with_findings += bool(expected)
    assert with_findings > 1000


# -- pretty printing ----------------------------------------------------------


def test_pretty_print_empty_program():
    assert pretty_print(lang.Program((), 1, ())) == "program {}\n"


def test_round_trip_motivating_example():
    p = parse_program(FIG1)
    assert parse_program(pretty_print(p)) == p


def test_round_trip_corpus(corpus_entries):
    for entry in corpus_entries.values():
        p = entry.program()
        again = parse_program(pretty_print(p))
        assert again == p, entry.name


def test_round_trip_keeps_operator_structure():
    src = "program { x = 1 - (2 - 3); y = -x * 3 + (x - 1) * 2; z = x; }"
    p = parse_program(src)
    assert parse_program(pretty_print(p)) == p


#: Names a library caller may give a declaration, an assignment or a
#: receive that `lang.tokenize` does not read back as one identifier: every
#: keyword, and strings that are not one identifier token.
BAD_NAMES = sorted(lang.KEYWORDS) + ["", "x y", "1x", "x-y", "x#", " x", "x\n", "a'", "$"]
GOOD_NAMES = ["x_1", "_", "\u00f1", "Zz9"]


def _statements(stmts):
    for st in stmts:
        yield st
        if type(st) is If:
            yield from _statements(st.then_body)
            yield from _statements(st.else_body)


def _swap(stmts, old, new):
    """`stmts` with the statement `old` (by identity) replaced by `new`."""
    return tuple(new if st is old else
                 If(st.cond, _swap(st.then_body, old, new), _swap(st.else_body, old, new),
                    st.line) if type(st) is If else st
                 for st in stmts)


def library_mutant(rng, p):
    """`p` with one change made through the library, not the parser: a
    declaration with negative bounds, or a declared, assigned or received
    name replaced.  Also returns the new name, or None for new bounds."""
    decls, body = list(p.decls), p.body
    kind = rng.choice(("bounds", "decl", "var"))
    if kind == "bounds":
        lo = -rng.randint(1, 300)
        hi = rng.choice((lo + rng.randint(0, 30), rng.randint(0, 300), lo - 1))  # lo - 1: empty
        at = rng.randrange(len(decls) + 1)
        name = decls[at].name if at < len(decls) else "N"
        decls[at:at + 1] = [lang.SymDecl(name, lo, hi)]
        return lang.Program(tuple(decls), p.nprocs_default, body), None
    name = rng.choice(BAD_NAMES + GOOD_NAMES)
    sites = [st for st in _statements(body) if type(st) in (Assign, Recv)]
    if kind == "decl" or not sites:
        at = rng.randrange(len(decls) + 1)
        lo, hi = (decls[at].lo, decls[at].hi) if at < len(decls) else (0, 3)
        decls[at:at + 1] = [lang.SymDecl(name, lo, hi)]
    else:
        old = rng.choice(sites)
        body = _swap(body, old, type(old)(name, *old._values[1:], old.line))
    return lang.Program(tuple(decls), p.nprocs_default, body), name


def test_every_program_that_validates_prints_text_that_parses_back(rng, corpus_entries):
    """A program built through the library either has a finding or prints,
    through `pretty_print`, text that parses back to it: the text whose
    sha256 identifies a test case's program (`replay.program_hash`).  A bad
    name is one finding of its own."""
    round_trips = negative_bounds = bad = 0
    for entry in corpus_entries.values():
        for _ in range(40):
            p, name = library_mutant(rng, entry.program())
            findings = validate(p, entry.nprocs)
            names = [f for f in findings if f.kind == "name"]
            if name in BAD_NAMES:
                bad += 1
                assert len(names) == 1 and repr(name) in names[0].message, (p, findings)
            else:
                assert names == [], (p, findings)
            if not findings:
                assert parse_program(pretty_print(p)) == p, pretty_print(p)
                round_trips += 1
                negative_bounds += any(d.lo < 0 for d in p.decls)
    assert round_trips > 100 and negative_bounds > 50 and bad > 150


def test_a_name_finding_says_which_name():
    """The finding names the construct and the name, at its line."""
    p = lang.Program((lang.SymDecl("if", 0, 3, 2),), 1,
                     (Assign("x y", Num(1), 4), Recv("any", None, 5)))
    assert [(f.kind, f.message, f.line) for f in validate(p, 2)] == [
        ("name", "symbolic input name 'if' is not an identifier", 2),
        ("name", "assignment target 'x y' is not an identifier", 4),
        ("name", "receive target variable 'any' is not an identifier", 5)]
    q = lang.Program((lang.SymDecl("X", -2, 3),), 1, (Assign("x", lang.Var("X")),))
    assert validate(q, 1) == [] and "sym X : int[-2..3];" in pretty_print(q)
    assert parse_program(pretty_print(q)) == q


def test_eval_concrete_matches_python():
    p = parse_program("program { x = (3 + 4) * 2 - 1; }")
    expr = p.body[0].expr
    assert lang.evaluate(expr, {}, {}) == 13
    bound = parse_program("program { x = rank * 10 + nprocs; }").body[0].expr
    assert lang.evaluate(bound, {"rank": 2, "nprocs": 4}) == 24


REFERENCE_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "&&": lambda a, b: bool(a and b), "||": lambda a, b: bool(a or b),
}


def reference_evaluate(e, env, rank, nprocs, inputs):
    """A plain recursive walk over the expression nodes, kept as the
    reference for `lang.evaluate`; it reads `rank` and `nprocs` from its
    arguments, not from `env`."""
    if isinstance(e, (lang.Num, lang.Bool)):
        return e.value
    if isinstance(e, lang.Var):
        if e.name in ("rank", "nprocs"):
            return rank if e.name == "rank" else nprocs
        return env[e.name] if e.name in env else inputs[e.name]
    if isinstance(e, lang.Unary):
        v = reference_evaluate(e.operand, env, rank, nprocs, inputs)
        return -v if e.op == "-" else not v
    return REFERENCE_OPS[e.op](reference_evaluate(e.left, env, rank, nprocs, inputs),
                               reference_evaluate(e.right, env, rank, nprocs, inputs))


def random_expr(rng, sort, depth, leaf, unary, binary):
    """A well-sorted expression of the given depth bound, with integer
    leaves from `leaf(rng)` and inner nodes from `unary` and `binary`."""
    def sub(sort):
        return random_expr(rng, sort, max(depth - 1, 0), leaf, unary, binary)

    if sort == "int":
        if depth == 0 or rng.random() < 0.3:
            return leaf(rng)
        if rng.random() < 0.2:
            return unary("-", sub("int"))
        return binary(rng.choice("+-*"), sub("int"), sub("int"))
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return unary("!", sub("bool"))
    if depth > 0 and roll < 0.5:
        return binary(rng.choice(("&&", "||")), sub("bool"), sub("bool"))
    return binary(rng.choice(("==", "!=", "<", "<=", ">", ">=")), sub("int"), sub("int"))


def random_surface(rng, sort, depth):
    """A surface expression over rank, nprocs, the locals x, y and the
    inputs X, Y, built from the parser's nodes as they are."""
    def leaf(rng):
        return rng.choice((Num(rng.randint(0, 9)), lang.Var("rank"), lang.Var("nprocs"),
                           lang.Var(rng.choice("xyXY"))))
    return random_expr(rng, sort, depth, leaf, lang.Unary, Binary)


def random_term(rng, sort, depth):
    """A folded term over the inputs X, Y, built by `symbolic`'s
    constructors, so it may hold negative constants or be a `Bool`."""
    def leaf(rng):
        return Num(rng.randint(-9, 9)) if rng.random() < 0.6 else lang.Var(rng.choice("XY"))
    return random_expr(rng, sort, depth, leaf, symbolic.unary, symbolic.binary)


def random_unsorted(rng, depth):
    """A surface expression of at most `depth` operator levels over
    non-negative constants and names, any operator over any operands: the
    parser and the printer treat an operator alike whatever its operands'
    sorts."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return Num(rng.randint(0, 12)) if rng.random() < 0.5 else lang.Var(
            rng.choice(("rank", "nprocs", "x", "Y")))
    if roll < 0.4:
        return lang.Unary(rng.choice("-!"), random_unsorted(rng, depth - 1))
    return Binary(rng.choice(tuple(REFERENCE_OPS)),
                  random_unsorted(rng, depth - 1), random_unsorted(rng, depth - 1))


def test_parser_reads_back_the_printed_expression(rng):
    """The printer parenthesizes by the precedence table that the parser
    climbs, so every printed expression parses back to itself: the very
    node, expressions being hash-consed."""
    assert len(REFERENCE_OPS) == 11
    for _ in range(3000):
        e = random_unsorted(rng, rng.randint(0, 6))
        text = lang.expr_source(e)
        assert parse_program(f"program {{ v = {text}; }}").body[0].expr is e, text


def typed(value):
    return type(value), value


def test_evaluate_agrees_with_reference_walk(rng):
    for _ in range(1500):
        sort = rng.choice(("int", "bool"))
        e = random_surface(rng, sort, rng.randint(0, 4))
        assert lang.sort_of(e) == sort, e
        env = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
        inputs = {"X": rng.randint(0, 9), "Y": rng.randint(0, 9), "x": 99}
        rank, nprocs = rng.randint(0, 3), rng.randint(1, 4)
        env.update(rank=rank, nprocs=nprocs)
        assert typed(lang.evaluate(e, env, inputs)) == \
            typed(reference_evaluate(e, env, rank, nprocs, inputs)), e
    seen = set()
    for _ in range(1500):
        sort = rng.choice(("int", "bool"))
        t = random_term(rng, sort, rng.randint(0, 4))
        assert lang.sort_of(t) == sort, t
        seen.add(type(t))
        if isinstance(t, Num) and t.value < 0:
            seen.add("negative")
        model = {"X": rng.randint(-9, 9), "Y": rng.randint(-9, 9)}
        assert typed(lang.evaluate(t, model)) == typed(reference_evaluate(t, {}, 0, 0, model)), t
    assert seen >= {Num, lang.Bool, lang.Var, lang.Unary, Binary, "negative"}


def test_terms_commute_with_ints(rng):
    """Evaluating a surface expression over `symbolic.TERMS`, with locals
    bound to terms, and then the term on a model, gives the value the
    reference walk gives the expression on the concrete locals."""
    inputs = {"X": (-9, 9), "Y": (-9, 9)}
    for _ in range(1500):
        sort = rng.choice(("int", "bool"))
        e = random_surface(rng, sort, rng.randint(0, 4))
        env = {name: random_term(rng, "int", rng.randint(0, 2)) for name in "xy"}
        rank, nprocs = rng.randint(0, 3), rng.randint(1, 4)
        env.update(rank=Num(rank), nprocs=Num(nprocs))
        term = lang.evaluate(e, env, inputs, symbolic.TERMS)
        assert lang.sort_of(term) == sort, (e, env)
        model = {"X": rng.randint(-9, 9), "Y": rng.randint(-9, 9)}
        concrete = {name: lang.evaluate(t, model) for name, t in env.items()}
        assert typed(lang.evaluate(term, model)) == \
            typed(reference_evaluate(e, concrete, rank, nprocs, model)), (e, env, model)


def test_term_source_round_trips_through_the_parser(rng):
    """A term's source, parsed inside a program, is a well-sorted expression
    with the term's value under every model."""
    for _ in range(600):
        sort = rng.choice(("int", "bool"))
        t = random_term(rng, sort, rng.randint(0, 4))
        stmt = f"x = {lang.expr_source(t)};" if sort == "int" else \
            f"assert ({lang.expr_source(t)});"
        p = parse_program("symbolic sym X : int[0..20]; sym Y : int[0..20]; program { "
                          + stmt + " }")
        assert validate(p, 1) == [], stmt
        parsed = p.body[0].expr if sort == "int" else p.body[0].cond
        for _ in range(3):
            model = {"X": rng.randint(0, 20), "Y": rng.randint(0, 20)}
            assert lang.evaluate(parsed, model) == lang.evaluate(t, model), stmt


def reference_render(e, outer=0):
    """The recursive renderer that `lang.SOURCE` replaced, kept as its
    referee: `outer` is the binding strength the enclosing slot needs."""
    if isinstance(e, Num):
        # a negative constant is a folded term; inside another it needs parens
        return f"({e.value})" if e.value < 0 and outer else str(e.value)
    if isinstance(e, lang.Var):
        return e.name
    if isinstance(e, lang.Bool):
        return "0 == 0" if e.value else "0 != 0"
    if isinstance(e, lang.Unary):
        text = f"{e.op}{reference_render(e.operand, lang.UNARY_PREC)}"
        return f"({text})" if outer > lang.UNARY_PREC else text
    prec = lang.PREC[e.op]
    text = f"{reference_render(e.left, prec)} {e.op} {reference_render(e.right, prec + 1)}"
    return f"({text})" if outer > prec else text


def test_expr_source_agrees_with_reference_render(program_nodes, rng):
    """On every node of the corpus's and 200 random programs' operands and
    path conditions, and on random surface expressions and folded terms."""
    for e in program_nodes:
        assert lang.expr_source(e) == reference_render(e), e
    for _ in range(600):
        sort = rng.choice(("int", "bool"))
        for e in (random_surface(rng, sort, rng.randint(0, 4)),
                  random_term(rng, sort, rng.randint(0, 4))):
            assert lang.expr_source(e) == reference_render(e), e


X, Y = lang.Var("X"), lang.Var("Y")
LESS = Binary("<", X, Y)


@pytest.mark.parametrize("e, text", [
    (lang.Unary("-", Num(-3)), "-(-3)"),
    (Binary("*", Num(-2), X), "(-2) * X"),
    (Binary("-", X, Num(-1)), "X - (-1)"),
    (Binary("-", Num(-1), X), "(-1) - X"),
    (Binary("+", Num(-1), Num(-2)), "(-1) + (-2)"),
    (lang.Unary("-", lang.Unary("-", X)), "--X"),
    (lang.Unary("!", lang.Unary("!", LESS)), "!!(X < Y)"),
    (lang.Unary("-", Binary("+", X, Y)), "-(X + Y)"),
    (Binary("*", lang.Unary("-", X), lang.Unary("-", Y)), "-X * -Y"),
    (Binary("-", X, lang.Unary("-", lang.Unary("-", Y))), "X - --Y"),
    (Binary("&&", lang.Bool(True), LESS), "0 == 0 && X < Y"),
    (Binary("||", LESS, lang.Bool(False)), "X < Y || 0 != 0"),
    (Binary("&&", Binary("||", lang.Bool(False), LESS), lang.Bool(True)),
     "(0 != 0 || X < Y) && 0 == 0"),
])
def test_expr_source_by_hand(e, text):
    assert lang.expr_source(e) == text == reference_render(e)


# -- lexer ----------------------------------------------------------------------


def reference_tokenize(text):
    """The character-at-a-time lexer that the one-regex `lang.tokenize`
    replaced, kept as its reference; tokens are (kind, value, line, col)."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("kw" if word in lang.KEYWORDS else "ident", word, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if c == "'":
            j = i + 1
            escapes = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
            if j < n and text[j] == "\\":
                if j + 2 >= n or text[j + 2] != "'" or text[j + 1] not in escapes:
                    raise ParseError("bad character literal", line, start_col)
                tokens.append(("int", escapes[text[j + 1]], line, start_col))
                i = j + 3
                col += 4
                continue
            if j + 1 >= n or text[j + 1] != "'" or text[j] == "\n":
                raise ParseError("bad character literal", line, start_col)
            tokens.append(("int", ord(text[j]), line, start_col))
            i = j + 2
            col += 3
            continue
        two = text[i:i + 2]
        if two in ("==", "!=", "<=", ">=", "&&", "||", ".."):
            tokens.append((two, two, line, start_col))
            i += 2
            col += 2
            continue
        if c in "+-*(){}[];:=<>!,":
            tokens.append((c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(("eof", None, line, col))
    return tokens


def lex(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as exc:
        return ("ParseError", str(exc))
    except ValueError:
        return ("ValueError",)


# characters and fragments the lexer treats differently: Unicode letters,
# decimal and non-decimal digits, quotes, escapes, comments, line breaks
LEX_PIECES = list("ax_Z09 \t\r\n#'\\=!<>&|.+-*(){}[];:,@\"é\u00b2\u0663\u00bd\u2167\u00a0") + [
    "program", "recv", "any", "'a'", "'\\n'", "'\\''", "'''", "'\\q'", "# note",
    "..", "&&", "||", "==", "12", "\u0661\u0662", "x\u00b2",
]


def test_lexer_agrees_with_reference(rng, corpus_entries):
    texts = [rng.choice(("", "program {\n")) + "".join(
        rng.choice(LEX_PIECES) for _ in range(rng.randint(0, 25))) for _ in range(4000)]
    for entry in corpus_entries.values():
        texts.append(entry.source)
        texts.append(entry.source[:rng.randrange(len(entry.source))] + " # cut")
    for text in texts:
        old, new = lex(reference_tokenize, text), lex(lang.tokenize, text)
        if old == ("ValueError",):  # a non-decimal digit in a number: now diagnosed
            assert new[0] == "ParseError" and "unexpected character" in new[1], text
        else:
            assert new == old, text


class ReferenceParser(lang._Parser):
    """The parser with a hand-written branch per statement and a declaration
    reader of its own, as it was before `lang.SYNTAX` (but for the sign a
    domain bound may carry); `program` reads a declaration through `fields`."""

    def fields(self, kind):
        assert kind is lang.SymDecl
        return self.decl()

    def bound(self):
        """A domain bound: an integer literal, which a `-` may negate."""
        negative = self.at("-")
        if negative:
            self.next()
        value = self.expect("int").value
        return -value if negative else value

    def decl(self):
        kw = self.expect("kw", "sym")
        name = self.ident("symbolic input name")
        self.expect(":")
        self.expect("kw", "int")
        self.expect("[")
        lo = self.bound()
        self.expect("..")
        hi = self.bound()
        self.expect("]")
        self.expect(";")
        return lang.SymDecl(name, lo, hi, kw.line)

    def stmt(self, out):
        tok = self.peek()
        self.statements += tok.value != "repeat"  # a repeat is its body's copies
        if tok.kind == "kw":
            if tok.value == "if":
                self.next()
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                then_body = self.block()
                else_body = []
                if self.at("kw", "else"):
                    self.next()
                    else_body = self.block()
                out.append(If(cond, tuple(then_body), tuple(else_body), tok.line))
                return
            if tok.value == "send":
                self.next()
                payload = self.expr()
                self.expect("kw", "to")
                dest = self.expr()
                self.expect(";")
                out.append(Send(payload, dest, tok.line))
                return
            if tok.value == "recv":
                self.next()
                var = self.ident("receive target variable")
                self.expect("kw", "from")
                if self.at("kw", "any"):
                    self.next()
                    src = None
                else:
                    src = self.expr()
                self.expect(";")
                out.append(Recv(var, src, tok.line))
                return
            if tok.value == "barrier":
                self.next()
                self.expect(";")
                out.append(Barrier(tok.line))
                return
            if tok.value == "assert":
                self.next()
                self.expect("(")
                cond = self.expr()
                self.expect(")")
                self.expect(";")
                out.append(lang.Assert(cond, tok.line))
                return
            if tok.value == "exit":
                self.next()
                self.expect(";")
                out.append(lang.Exit(tok.line))
                return
            if tok.value == "repeat":
                self.next()
                outer, self.repeat = self.repeat, self.repeat or tok
                count, before = self.expect("int").value, self.statements
                body = self.block()
                self.statements = before + count * (self.statements - before)
                if self.statements > lang.MAX_STATEMENTS:
                    raise ParseError(f"repeat makes more than {lang.MAX_STATEMENTS} statements",
                                     self.repeat.line, self.repeat.col)
                out.extend(body * count if body else ())
                self.repeat = outer
                return
            if tok.value in ("rank", "nprocs", "any"):
                self.error(f"reserved name {tok.value!r} cannot be assigned")
            self.error(f"unexpected keyword {tok.value!r}")
        if tok.kind == "ident":
            var = self.ident("assignment target")
            self.expect("=")
            expr = self.expr()
            self.expect(";")
            out.append(Assign(var, expr, tok.line))
            return
        self.error(f"expected a statement, found {tok.value!r}")


def reference_stmt_lines(st, indent, out):
    source = lang.expr_source
    if isinstance(st, Assign):
        out.append(f"{indent}{st.var} = {source(st.expr)};")
    elif isinstance(st, If):
        out.append(f"{indent}if ({source(st.cond)}) {{")
        for s in st.then_body:
            reference_stmt_lines(s, indent + "  ", out)
        if st.else_body:
            out.append(f"{indent}}} else {{")
            for s in st.else_body:
                reference_stmt_lines(s, indent + "  ", out)
        out.append(f"{indent}}}")
    elif isinstance(st, Send):
        out.append(f"{indent}send {source(st.payload)} to {source(st.dest)};")
    elif isinstance(st, Recv):
        src = "any" if st.src is None else source(st.src)
        out.append(f"{indent}recv {st.var} from {src};")
    elif isinstance(st, Barrier):
        out.append(f"{indent}barrier;")
    elif isinstance(st, lang.Assert):
        out.append(f"{indent}assert ({source(st.cond)});")
    elif isinstance(st, lang.Exit):
        out.append(f"{indent}exit;")
    else:
        raise lang.LangError(f"unknown statement {st!r}")


def reference_pretty_print(program):
    lines = []
    if program.decls:
        lines.append("symbolic")
        for d in program.decls:
            lines.append(f"sym {d.name} : int[{d.lo}..{d.hi}];")
        lines.append("")
    header = ("program" if program.nprocs_default == 1
              else f"program (nprocs = {program.nprocs_default})")
    if not program.body:
        lines.append(header + " {}")
    else:
        lines.append(header + " {")
        for st in program.body:
            reference_stmt_lines(st, "  ", lines)
        lines.append("}")
    return "\n".join(lines) + "\n"


def parsed_text(parse, pretty_print, text):
    """The printed program of `text`, or the message of its parse error."""
    try:
        return pretty_print(parse(text))
    except ParseError as exc:
        return ("ParseError", str(exc))


#: Token texts a mutation inserts: every piece of statement and declaration
#: syntax, the other keywords, names, numbers and operators.
MUTATION_TOKENS = sorted(lang.KEYWORDS) + [
    ";", "=", "(", ")", "{", "}", "[", "]", ":", "..", ",", "-", "!", "+", "*", "==", "<",
    "&&", "||", "x", "X", "v0_1", "0", "1", "7"]


def spelled(tokens):
    """Source text of (line, text) tokens, one source line per line."""
    out, line = [], 1
    for tok_line, text in tokens:
        out.append("\n" * (tok_line - line) if tok_line > line else " ")
        out.append(text)
        line = max(line, tok_line)
    return "".join(out)


def spellings(text):
    """The (line, text) of each token of `text`."""
    return [(tok.line, tok.kind if tok.value is None or tok.kind == tok.value else str(tok.value))
            for tok in lang.tokenize(text)[:-1]]


def mutated(rng, tokens):
    """The text of (line, text) `tokens` with one token deleted, doubled,
    swapped with the next, replaced or preceded by another."""
    tokens = list(tokens)
    i = rng.randrange(len(tokens))
    line = tokens[i][0]
    how = rng.randrange(5)
    if how == 0:
        del tokens[i]
    elif how == 1:
        tokens.insert(i, tokens[i])
    elif how == 2 and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = (line, tokens[i + 1][1]), (tokens[i + 1][0], tokens[i][1])
    elif how == 3:
        tokens[i] = (line, rng.choice(MUTATION_TOKENS))
    else:
        tokens.insert(i, (line, rng.choice(MUTATION_TOKENS)))
    return spelled(tokens)


def test_parser_and_printer_agree_with_the_per_statement_reference(rng):
    """`lang.SYNTAX` serves the parser and the printer; the reference keeps
    a branch per statement in each.  On the corpus sources (read as files,
    not loaded, which would parse them), on random programs and on 6,000
    one-token mutations of them, both give the same printed program or the
    same parse error."""
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(corpus.bundled_dir().glob("*.mpisym"))]
    sources += [random_program_source(rng) for _ in range(100)]
    sources += [pretty_print(lang.Program((lang.SymDecl("X", 0, 3), lang.SymDecl("Y", 1, 9)),
                                          rng.randint(1, 4), tuple(random_block(rng, 0, 1)[0])))
                for _ in range(100)]
    tokens = [spellings(text) for text in sources]
    texts = sources + [mutated(rng, rng.choice(tokens)) for _ in range(6000)]
    printed = 0
    for text in texts:
        expected = parsed_text(lambda t: ReferenceParser(t).program(), reference_pretty_print, text)
        assert parsed_text(parse_program, pretty_print, text) == expected, text
        printed += isinstance(expected, str)
    assert printed > len(sources) + 50


@pytest.mark.parametrize("source,message", [
    ("program {\n  x = 1; # no newline", "2:10: expected a statement, found None"),
    ("program { x = 1\u00b2; }", "1:16: unexpected character '\u00b2'"),
    ("program { x = \u00b2; }", "1:15: unexpected character '\u00b2'"),
    ("program { x = 'ab'; }", "1:15: bad character literal"),
    ("program {\n  recv 5 from 0;\n}", "2:8: expected receive target variable, found 5"),
    ("program {\n  else { x = 1; }\n}", "2:3: unexpected keyword 'else'"),
    ("symbolic\nsym X : int[0..1];\n  sym X : int[0..2];\nprogram {}",
     "3:7: duplicate symbolic declaration 'X'"),
    # checked before the splice: neither program is ever built
    ("program {\n  repeat 1000 { repeat 1000 { repeat 1000 { x = 1; } } }\n}",
     "2:3: repeat makes more than 65536 statements"),
    ("program { x = 1; repeat 1000000000000 { x = 1; } }",
     "1:18: repeat makes more than 65536 statements"),
])
def test_parse_error_text_and_location(source, message):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert str(err.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integer literals of any length")
def test_overlong_integer_literal_is_a_located_parse_error():
    with pytest.raises(ParseError) as err:
        parse_program("program {\n  x = " + "1" * 5000 + ";\n}")
    assert str(err.value) == "2:7: integer literal too long"


def test_unicode_decimal_digits_are_numbers():
    assert parse_program("program { x = \u0661\u0662; }").body[0] == Assign("x", Num(12))


def test_parse_program_memoised_by_text():
    text = "program (nprocs = 2) { barrier; }"
    assert parse_program(text) is parse_program(text)
    for _ in range(2):  # a failed parse is not cached
        with pytest.raises(ParseError, match="1:15: expected an expression"):
            parse_program("program { x = ; }")


def test_validate_result_is_a_fresh_list_each_call():
    p = parse_program("program (nprocs = 3) { send 1 to 5; }")
    first = validate(p, 3)
    first.clear()
    assert [f.kind for f in validate(p, 3)] == ["rank-range"]
    assert validate(p, 6) == []


def test_reimport_releases_the_previous_modules():
    """No runtime typing alias names mpisym's classes: typing's cache would
    keep every superseded copy of the package alive after a re-import."""
    def ours():
        return [k for k in sys.modules if k == "mpisym" or k.startswith("mpisym.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        fresh = importlib.import_module("mpisym")
        fresh.search(fresh.parse_program(FIG1), 3)
        refs = [weakref.ref(sys.modules[f"mpisym.{m}"])
                for m in ("lang", "ops", "solver", "symbolic", "engine", "replay")]
        del fresh
        for k in ours():
            del sys.modules[k]
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def test_nesting_limit_counts_every_level():
    """`x = (1 + 2);` is four levels deep: statement, parentheses, operator,
    operands.  Unary operators and blocks of any statement count too."""
    limit = lang.MAX_DEPTH

    def depth_ok(text):
        try:
            lang.parse_program(text)
        except ParseError as exc:
            assert exc.message == f"nested deeper than {limit} levels"
            assert exc.line == 1 and exc.col > 0
            return False
        return True

    def padded(k, inner):  # k enclosing repeat blocks, each one level
        return "program { " + "repeat 1 { " * k + inner + " }" * k + " }"

    assert depth_ok(padded(limit - 4, "x = (1 + 2);"))
    assert not depth_ok(padded(limit - 3, "x = (1 + 2);"))
    shapes = (
        (lambda n: "program { x = " + "-" * n + "1; }", limit - 2),
        (lambda n: "program { x = " + "!" * n + "(1 < 2); }", limit - 4),
        (lambda n: padded(n, ""), limit - 1),  # an empty block is a level too
    )
    for shape, at_limit in shapes:
        assert depth_ok(shape(at_limit))
        assert not depth_ok(shape(at_limit + 1))
        assert not depth_ok(shape(5000))
