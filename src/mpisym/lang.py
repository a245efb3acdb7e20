"""The analyzed mini message-passing language: AST, parser, validator,
pretty-printer, and the one expression evaluator, which walks an
expression over an algebra: ints and source text here (`INTS`, `SOURCE`),
folded terms for the engine (`symbolic.TERMS`), and for the solver input
intervals (`solver.INTERVALS`) or Python syntax trees to compile
(`solver.PYTHON`).  It is the only walk over a term.

A source file declares bounded symbolic inputs and one rank-dispatched
process body:

    symbolic
    sym X : int[0..255];

    program (nprocs = 3) {
      if (rank == 0) { send 0 to 1; } else { recv v from any; }
    }

`rank` and `nprocs` are read-only names (`BOUND_NAMES`), parsed as `Var`s
and bound in every process environment.  `repeat K { ... }` is sugar for K
spliced copies of the block, so parsed programs are always loop-free.
Statement equality ignores source locations, which makes
parse/pretty-print round-trips exact.

The expression nodes are also the engine's symbolic terms (built by
`symbolic`): a term is an expression over the declared inputs, in which
`Var` names an input, and `Bool` (never produced by the parser) is a
folded boolean constant.  `sort_of`, `expr_source` and `evaluate` serve
both.  A node is built once per class and fields while it lives
(`Expr`), so equal expressions are one object, and each keeps `free`, the
names it reads.
"""

from __future__ import annotations

import collections
import functools
import operator
import re
import weakref
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Tuple, Union


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Record:
    """A value made of the fields that its class lists in ``__slots__``: built
    from them in order, then by name, then from the class's ``_defaults``
    (immutable values only, as every record of the class shares them); equal
    to a record of its class with equal fields, hashed over them and shown as
    ``Name(field=value, ...)``, as a dataclass.  Creating the class generates
    no code, and no assignment is guarded: nothing assigns to a hashed
    record's fields after it is built.  A slot named "_..." is no field (its
    class sets it in its own ``__init__``); a record changed in place sets
    ``__hash__ = None``."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *values, **named):
        cls = type(self)
        slots = cls.__slots__
        if len(values) > len(slots):
            raise TypeError(f"{cls.__name__} takes {len(slots)} fields, not {len(values)}")
        for name, value in zip(slots, values):
            setattr(self, name, value)
        for name in slots[len(values):]:
            if name in named:
                setattr(self, name, named.pop(name))
            elif name in cls._defaults:
                setattr(self, name, cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} lacks field {name!r}")
        if named:
            name = next(iter(named))
            raise TypeError(f"{cls.__name__} got field {name!r} twice" if name in slots
                            else f"{cls.__name__} has no field {name!r}")

    @property
    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__ if n[0] != "_"])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__qualname__}({fields})"


#: (class, *fields) -> the live node with those fields, for the whole
#: process; a child in a key compares by identity, as every node does.  The
#: check-then-insert in `Expr.__new__` is not locked: no two threads build
#: nodes.
_NODES = weakref.WeakValueDictionary()
_NO_NAMES = frozenset()


class Expr(Record):
    """An expression node; at most one is alive per class and fields
    (hash-consing, after Filliâtre & Conchon).  Building a node whose twin
    is alive returns the twin, so two nodes are equal exactly when they are
    one node: `==` and `hash` are `object`'s, and never recurse however
    deep the node.  Each node keeps `free`, the names its `Var` leaves
    read, computed once from its children's."""

    __slots__ = ("free", "__weakref__")
    __init__ = object.__init__  # `__new__` sets the fields
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            free = _NO_NAMES
            for name, value in zip(cls.__slots__, fields):
                setattr(node, name, value)
                if isinstance(value, Expr) and not value.free <= free:
                    free = free | value.free if free else value.free
            node.free = frozenset(fields) if cls is Var else free
        return node


class Num(Expr):
    __slots__ = ("value",)


class Bool(Expr):
    """A boolean constant; only constant folding makes one."""

    __slots__ = ("value",)


class Var(Expr):
    __slots__ = ("name",)


class Unary(Expr):
    __slots__ = ("op", "operand")  # op is "-" or "!"


class Binary(Expr):
    __slots__ = ("op", "left", "right")


#: The read-only names that every process environment binds: its own rank
#: and the process count.
BOUND_NAMES = frozenset({"rank", "nprocs"})


class Located(Record):
    """A record whose last field is its source ``line`` (0 when not given),
    which it shows but neither compares nor hashes: so parse/pretty-print
    round-trips are exact."""

    __slots__ = ()
    _defaults = {"line": 0}

    @property
    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__[:-1]])


class Assign(Located):
    __slots__ = ("var", "expr", "line")


class If(Located):
    __slots__ = ("cond", "then_body", "else_body", "line")


class Send(Located):
    __slots__ = ("payload", "dest", "line")


class Recv(Located):
    __slots__ = ("var", "src", "line")  # src None: any sender


class Barrier(Located):
    __slots__ = ("line",)


class Assert(Located):
    __slots__ = ("cond", "line")


class Exit(Located):
    __slots__ = ("line",)


if TYPE_CHECKING:
    Stmt = Union[Assign, If, Send, Recv, Barrier, Assert, Exit]


class SymDecl(Located):
    __slots__ = ("name", "lo", "hi", "line")


class Program(Record):
    __slots__ = ("decls", "nprocs_default", "body", "_derived")

    def __init__(self, decls: Tuple[SymDecl, ...], nprocs_default: int, body: Tuple[Stmt, ...]):
        self.decls, self.nprocs_default, self.body = decls, nprocs_default, body
        self._derived: dict = {}

    def sym_names(self) -> frozenset:
        return frozenset(d.name for d in self.decls)


def derived(program: Program, make, *args):
    """``make(program, *args)``, computed once and kept on the program, which
    is immutable: its canonical hash, lowered form and validation findings."""
    memo = program._derived
    key = (make, *args)
    if key not in memo:
        memo[key] = make(program, *args)
    return memo[key]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "symbolic", "sym", "int", "program", "nprocs", "if", "else",
    "send", "to", "recv", "from", "any", "barrier", "assert", "exit",
    "repeat", "rank",
}

_CHAR_ESCAPES = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}

#: One alternative per token class.  A word may start with any word
#: character but a decimal digit, and the lexer rejects a start that is not
#: a letter or "_"; so a non-decimal digit such as "²" is an unexpected
#: character, also right after a number.  ``bad`` catches everything else.
_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<word>[^\W\d]\w*)
  | (?P<punct>==|!=|<=|>=|&&|\|\||\.\.|[-+*(){}\[\];:=<>!,])
  | (?P<int>\d+)
  | (?P<char>'(?:\\[nt0\\']|[^\\\n])')
  | (?P<comment>\#[^\n]*)
  | (?P<bad>.)
""", re.VERBOSE)


#: kind is "ident", "int", "kw", the punctuation text or "eof".
Token = collections.namedtuple("Token", "kind value line col")
_new_token = tuple.__new__  # skips the namedtuple's Python-level __new__


def tokenize(text: str):
    """Tokens with 1-based line and column (in code points).  A comment
    that ends the text leaves the end-of-file token at its own column."""
    tokens = []
    line, line_start, end = 1, 0, len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            kind = "kw" if value in KEYWORDS else "ident"
        elif kind == "punct":
            kind = value
        elif kind == "nl":
            line += 1
            line_start = m.end()
            continue
        elif kind == "int":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's int-from-string digit limit
                raise ParseError("integer literal too long", line, col) from None
        elif kind == "char":
            kind = "int"
            value = ord(value[1]) if len(value) == 3 else _CHAR_ESCAPES[value[2]]
        elif kind == "comment":
            if m.end() == len(text):
                end = m.start()
            continue
        else:
            raise ParseError("bad character literal" if value == "'"
                             else f"unexpected character {value!r}", line, col)
        tokens.append(_new_token(Token, (kind, value, line, col)))
    tokens.append(_new_token(Token, ("eof", None, line, end - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


#: Deepest syntax tree the parser accepts.  A statement in a block is one
#: level below the statement holding the block, an expression one below its
#: statement, an operand one below its operator or parentheses: so
#: ``x = (1 + 2);`` is four levels deep.  Every walker over the tree
#: recurses once or twice per level, and the parser ten times per pair of
#: parentheses, so all stay far from the interpreter's recursion limit.
MAX_DEPTH = 64

#: Most statements, ``if`` bodies included, a ``repeat`` may splice a program to.
MAX_STATEMENTS = 1 << 16


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # levels above the construct being parsed
        self.height = 0  # levels of the expression parsed last
        self.statements = 0  # statements parsed so far, each repeat's copies included
        self.repeat: Optional[Token] = None  # the outermost repeat being parsed

    def descend(self, tok: Token):
        """Enter one level below the current one, at `tok`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", tok.line, tok.col)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value=None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.value!r}", tok.line, tok.col)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # program := ("symbolic" decl*)? "program" ("(" "nprocs" "=" INT ")")? block

    def program(self) -> Program:
        decls = []
        if self.at("kw", "symbolic"):
            self.next()
            seen = set()
            while self.at("kw", "sym"):
                d = self.decl()
                if d.name in seen:
                    raise ParseError(f"duplicate symbolic declaration {d.name!r}", d.line, 1)
                seen.add(d.name)
                decls.append(d)
        elif self.at("kw", "sym"):
            self.error("symbolic declarations must follow a 'symbolic' header")
        self.expect("kw", "program")
        nprocs = 1
        if self.at("("):
            self.next()
            self.expect("kw", "nprocs")
            self.expect("=")
            tok = self.expect("int")
            nprocs = tok.value
            if nprocs < 1:
                raise ParseError("nprocs must be positive", tok.line, tok.col)
            self.expect(")")
        body = self.block()
        self.expect("eof")
        return Program(tuple(decls), nprocs, tuple(body))

    def decl(self) -> SymDecl:
        kw = self.expect("kw", "sym")
        name = self.ident("symbolic input name")
        self.expect(":")
        self.expect("kw", "int")
        self.expect("[")
        lo = self.expect("int").value
        self.expect("..")
        hi = self.expect("int").value
        self.expect("]")
        self.expect(";")
        return SymDecl(name, lo, hi, kw.line)

    def ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind == "kw":
            raise ParseError(f"reserved name {tok.value!r} cannot be used as {what}", tok.line, tok.col)
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, found {tok.value!r}", tok.line, tok.col)
        self.next()
        return tok.value

    def block(self):
        self.expect("{")
        stmts = []
        self.descend(self.peek())
        while not self.at("}"):
            self.stmt(stmts)
        self.depth -= 1
        self.next()
        return stmts

    def stmt(self, out: list):
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
                src: Optional[Expr]
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
                out.append(Assert(cond, tok.line))
                return
            if tok.value == "exit":
                self.next()
                self.expect(";")
                out.append(Exit(tok.line))
                return
            if tok.value == "repeat":
                self.next()
                outer, self.repeat = self.repeat, self.repeat or tok
                count, before = self.expect("int").value, self.statements
                body = self.block()
                self.statements = before + count * (self.statements - before)
                if self.statements > MAX_STATEMENTS:
                    raise ParseError(f"repeat makes more than {MAX_STATEMENTS} statements",
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

    # Expressions, lowest precedence first: || && (== !=) (< <= > >=) (+ -) (*)

    def expr(self) -> Expr:
        """An expression one level below the current statement.  Operator
        chains nest without recursing, so their depth is checked once the
        expression's height is known."""
        tok = self.peek()
        self.descend(tok)
        e = self._binary(0)
        if self.depth + self.height - 1 > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        self.depth -= 1
        return e

    _LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="), ("+", "-"), ("*",))

    def _binary(self, level: int) -> Expr:
        if level == len(self._LEVELS):
            return self._unary()
        ops = self._LEVELS[level]
        e = self._binary(level + 1)
        height = self.height
        while self.peek().kind in ops:
            op = self.next().kind
            rhs = self._binary(level + 1)
            e = Binary(op, e, rhs)
            height = 1 + max(height, self.height)
        self.height = height
        return e

    def _unary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("-", "!"):
            self.next()
            self.descend(tok)
            e = Unary(tok.kind, self._unary())
            self.depth -= 1
            self.height += 1
            return e
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.peek()
        self.height = 1
        if tok.kind == "int":
            self.next()
            return Num(tok.value)
        if tok.kind == "ident" or tok.kind == "kw" and tok.value in BOUND_NAMES:
            self.next()
            return Var(tok.value)
        if tok.kind == "(":
            self.next()
            self.descend(tok)
            e = self._binary(0)
            self.depth -= 1
            self.height += 1
            self.expect(")")
            return e
        self.error(f"expected an expression, found {tok.value!r}")


@functools.lru_cache(maxsize=64)
def parse_program(text: str) -> Program:
    """Parse a complete source file; raises ParseError with line/column.

    The programs of the 64 most recently parsed texts are kept and shared,
    which is safe because the AST is immutable; a ParseError is never
    cached."""
    return _Parser(text).program()


def read_file(path, error: type) -> str:
    """The UTF-8 text of a file that the user names; raises `error` with
    one line when it cannot be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise error(f"{path} is not UTF-8 text") from None


# ---------------------------------------------------------------------------
# Static validation
# ---------------------------------------------------------------------------

#: Upper bound on symbolic-input interval width accepted by the solver.
MAX_DOMAIN_WIDTH = 1 << 16
#: Upper bound on the process count, checked before anything is allocated per rank.
MAX_NPROCS = 1024


class Finding(Record):
    __slots__ = ("kind", "message", "line")


#: The operators with an integer result; every other one yields a bool.
ARITH_OPS = ("+", "-", "*")


def sort_of(e: Expr) -> str:
    """"int" or "bool"; variables and inputs are always integers."""
    if isinstance(e, (Unary, Binary)):
        return "int" if e.op in ARITH_OPS else "bool"
    return "bool" if isinstance(e, Bool) else "int"


def _check_expr(e: Expr, want: str, defined, findings, line: int):
    if isinstance(e, Var):
        if defined is not None and e.name not in defined:
            findings.append(Finding("use-before-assign",
                                    f"variable {e.name!r} may be read before assignment", line))
    elif isinstance(e, Unary):
        _check_expr(e.operand, "int" if e.op == "-" else "bool", defined, findings, line)
    elif isinstance(e, Binary):
        sub = "bool" if e.op in ("&&", "||") else "int"
        _check_expr(e.left, sub, defined, findings, line)
        _check_expr(e.right, sub, defined, findings, line)
    if sort_of(e) != want:
        findings.append(Finding("type", f"expected a {want} expression", line))


def _literal_rank(e: Expr):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Unary) and e.op == "-" and isinstance(e.operand, Num):
        return -e.operand.value
    return None


def _check_block(stmts, defined, sym_names, nprocs, findings):
    """Flow `defined` through a block; None means the tail is unreachable."""
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
            d1 = _check_block(st.then_body, defined, sym_names, nprocs, findings)
            d2 = _check_block(st.else_body, defined, sym_names, nprocs, findings)
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
        elif isinstance(st, Assert):
            _check_expr(st.cond, "bool", defined, findings, st.line)
        elif isinstance(st, Exit):
            defined = None
        elif isinstance(st, Barrier):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise LangError(f"unknown statement {st!r}")
    return defined


def validate(program: Program, nprocs: int):
    """Static checks; returns a list of findings, empty when the program is
    safe to execute under `nprocs` processes (computed once per count)."""
    if nprocs < 1:
        raise LangError("nprocs must be positive")
    if nprocs > MAX_NPROCS:
        raise LangError(f"nprocs {nprocs} exceeds the limit of {MAX_NPROCS}")
    return list(derived(program, _findings, nprocs))


def _findings(program: Program, nprocs: int) -> tuple:
    findings: list = []
    for d in program.decls:
        if d.lo > d.hi:
            findings.append(Finding("empty-domain",
                                    f"domain of {d.name!r} is empty ([{d.lo}..{d.hi}])", d.line))
        elif d.hi - d.lo + 1 > MAX_DOMAIN_WIDTH:
            findings.append(Finding("domain-width",
                                    f"domain of {d.name!r} wider than {MAX_DOMAIN_WIDTH}", d.line))
    _check_block(program.body, program.sym_names() | BOUND_NAMES, program.sym_names(), nprocs,
                 findings)
    return tuple(findings)


# ---------------------------------------------------------------------------
# Evaluation: one walker over an algebra
# ---------------------------------------------------------------------------


#: What `evaluate` computes over.  `leaf(node, inputs)` is the value of a
#: constant (`Num`, `Bool`) or of a `Var` naming an input; with no leaf rule
#: (None) that is the constant's own value or the input's in `inputs`.
#: `unary` and `binary` map each operator to the function of its operands'
#: values.
Algebra = collections.namedtuple("Algebra", "leaf unary binary")

#: Integer arithmetic and comparisons, which fold the same way on terms.
BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: Plain values: an int, or a bool for a condition (the oracle and replay).
INTS = Algebra(None, {"-": operator.neg, "!": operator.not_},
               {**BINARY_OPS, "&&": operator.and_, "||": operator.or_})

_NO_INPUTS: Mapping[str, int] = MappingProxyType({})


def evaluate(e: Expr, env: Mapping, inputs: Mapping = _NO_INPUTS, algebra: Algebra = INTS):
    """The value of an expression or a term in `algebra`.  A variable is
    looked up in `env`, which binds a process's locals and `BOUND_NAMES`,
    then in `inputs`, so a term's model can be `env`."""
    kind = type(e)
    if kind is Binary:
        return algebra.binary[e.op](evaluate(e.left, env, inputs, algebra),
                                    evaluate(e.right, env, inputs, algebra))
    if kind is Var:
        if e.name in env:
            return env[e.name]
        if e.name not in inputs:
            raise LangError(f"unbound variable {e.name!r}")
        return inputs[e.name] if algebra.leaf is None else algebra.leaf(e, inputs)
    if kind is Num or kind is Bool:
        return e.value if algebra.leaf is None else algebra.leaf(e, inputs)
    if kind is Unary:
        return algebra.unary[e.op](evaluate(e.operand, env, inputs, algebra))
    raise LangError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

#: Binding strength of each operator.
PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
         "+": 5, "-": 5, "*": 6}
UNARY_PREC = 7


def _wrap(operand: tuple, need: int) -> str:
    return f"({operand[0]})" if operand[1] < need else operand[0]


def _source_leaf(e: Expr, _names) -> tuple:
    if type(e) is Var:
        return e.name, 8
    if type(e) is Bool:
        # No boolean literals in the surface language; encode as a comparison.
        return "0 == 0" if e.value else "0 != 0", 8
    return str(e.value), 8 if e.value >= 0 else 0


#: Source text: `evaluate(e, {}, e.free, SOURCE)` is `e`'s text with minimal
#: parentheses and the binding strength of its top operator: a leaf binds
#: tighter than any operator (8), but a negative constant, a folded term,
#: looser than every one (0).  An operand is wrapped when it binds less
#: tightly than its slot needs: `UNARY_PREC` under a unary operator, and
#: under a binary one the operator's own strength on the left and, the
#: grammar being left-associative, one more on the right.
SOURCE = Algebra(
    _source_leaf,
    {op: lambda a, op=op: (op + _wrap(a, UNARY_PREC), UNARY_PREC) for op in ("-", "!")},
    {op: lambda a, b, op=op, p=p: (f"{_wrap(a, p)} {op} {_wrap(b, p + 1)}", p)
     for op, p in PREC.items()})


def expr_source(e: Expr) -> str:
    """Source text with minimal parentheses, parseable by the grammar."""
    return evaluate(e, {}, e.free, SOURCE)[0]


def _stmt_lines(st: Stmt, indent: str, out: list):
    if isinstance(st, Assign):
        out.append(f"{indent}{st.var} = {expr_source(st.expr)};")
    elif isinstance(st, If):
        out.append(f"{indent}if ({expr_source(st.cond)}) {{")
        for s in st.then_body:
            _stmt_lines(s, indent + "  ", out)
        if st.else_body:
            out.append(f"{indent}}} else {{")
            for s in st.else_body:
                _stmt_lines(s, indent + "  ", out)
        out.append(f"{indent}}}")
    elif isinstance(st, Send):
        out.append(f"{indent}send {expr_source(st.payload)} to {expr_source(st.dest)};")
    elif isinstance(st, Recv):
        src = "any" if st.src is None else expr_source(st.src)
        out.append(f"{indent}recv {st.var} from {src};")
    elif isinstance(st, Barrier):
        out.append(f"{indent}barrier;")
    elif isinstance(st, Assert):
        out.append(f"{indent}assert ({expr_source(st.cond)});")
    elif isinstance(st, Exit):
        out.append(f"{indent}exit;")
    else:  # pragma: no cover
        raise LangError(f"unknown statement {st!r}")


def pretty_print(program: Program) -> str:
    """Canonical source text; parses back to a structurally equal Program."""
    lines = []
    if program.decls:
        lines.append("symbolic")
        for d in program.decls:
            lines.append(f"sym {d.name} : int[{d.lo}..{d.hi}];")
        lines.append("")
    header = "program" if program.nprocs_default == 1 else f"program (nprocs = {program.nprocs_default})"
    if not program.body:
        lines.append(header + " {}")
    else:
        lines.append(header + " {")
        for st in program.body:
            _stmt_lines(st, "  ", lines)
        lines.append("}")
    return "\n".join(lines) + "\n"
