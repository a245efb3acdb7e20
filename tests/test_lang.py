import gc
import importlib
import sys
import weakref

import pytest

from mpisym import lang, symbolic
from mpisym.lang import (Assign, Barrier, Binary, If, Num, ParseError, Recv,
                         Send, parse_program, pretty_print, validate)


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
    assert send.dest == Binary("+", lang.RANK, Num(1))


def test_repeat_splices_copies():
    p = parse_program("program (nprocs = 2) { repeat 3 { barrier; } }")
    assert p.body == (Barrier(), Barrier(), Barrier())
    q = parse_program("program (nprocs = 2) { repeat 0 { barrier; } }")
    assert q.body == ()


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


def test_eval_concrete_matches_python():
    p = parse_program("program { x = (3 + 4) * 2 - 1; }")
    expr = p.body[0].expr
    assert lang.evaluate(expr, {}, 0, 1, {}) == 13
    assert lang.evaluate(lang.RANK, {}, 2, 4, {}) == 2
    assert lang.evaluate(lang.NPROCS, {}, 2, 4, {}) == 4


REFERENCE_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b, ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
    "&&": lambda a, b: bool(a and b), "||": lambda a, b: bool(a or b),
}


def reference_evaluate(e, env, rank, nprocs, inputs):
    """A plain recursive walk over the expression nodes, kept as the
    reference for `lang.evaluate`."""
    if isinstance(e, (lang.Num, lang.Bool)):
        return e.value
    if isinstance(e, lang.Var):
        return env[e.name] if e.name in env else inputs[e.name]
    if isinstance(e, lang.Rank):
        return rank
    if isinstance(e, lang.Nprocs):
        return nprocs
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
        return rng.choice((Num(rng.randint(0, 9)), lang.RANK, lang.NPROCS,
                           lang.Var(rng.choice("xyXY"))))
    return random_expr(rng, sort, depth, leaf, lang.Unary, Binary)


def random_term(rng, sort, depth):
    """A folded term over the inputs X, Y, built by `symbolic`'s
    constructors, so it may hold negative constants or be a `Bool`."""
    def leaf(rng):
        return Num(rng.randint(-9, 9)) if rng.random() < 0.6 else lang.Var(rng.choice("XY"))
    return random_expr(rng, sort, depth, leaf, symbolic.unary, symbolic.binary)


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
        assert typed(lang.evaluate(e, env, rank, nprocs, inputs)) == \
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
        term = lang.evaluate(e, env, Num(rank), Num(nprocs), inputs, symbolic.TERMS)
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


@pytest.mark.parametrize("source,message", [
    ("program {\n  x = 1; # no newline", "2:10: expected a statement, found None"),
    ("program { x = 1\u00b2; }", "1:16: unexpected character '\u00b2'"),
    ("program { x = \u00b2; }", "1:15: unexpected character '\u00b2'"),
    ("program { x = 'ab'; }", "1:15: bad character literal"),
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
