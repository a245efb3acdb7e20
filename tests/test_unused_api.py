"""No exported API that nothing uses: every module-level function and class
of `src/mpisym`, and every method of those classes other than a dunder, is
read somewhere in `src/mpisym` or `bench/` outside its own definition, and
every field of a record (a `lang.Record`) is read as an attribute there.  A
read is a variable in a load, an attribute or an import; a local or a
parameter spelled the same is none.  Names that `bench/tracing.py` gives as
strings (its rebinding TARGETS) count as uses.  What only tests use is
listed below with its one user.  A method whose name is also a field or
member of another class of `src/mpisym` is read by name wherever that
member is, so it counts as used only through SHARED_NAMES below."""

import ast
from collections import Counter
from pathlib import Path

import mpisym

SRC = Path(mpisym.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

#: "module.name" or "module.Class.method" -> its only user, outside
#: `src/mpisym` and `bench/`.
USED_ONLY_BY_TESTS = {"oracle.apply": "tests/test_oracle.py"}

#: Each method that shares its name with a field or member of another class
#: ("module.Class.method") -> a function that reads it ("module.function"
#: or "module.Class.method").
SHARED_NAMES = {
    "corpus.CorpusEntry.program": "cli.cmd_corpus",
    "engine.PathRecord.trace": "oracle.check_theorem",
    "lang._Parser.error": "lang._Parser.stmt",
    "lang._Parser.expr": "lang._Parser.stmt",
    "lang._Parser.program": "lang.parse_program",
    "oracle.ConcreteState.copy": "oracle.apply",
    "state.ProcState.copy": "state.fork",
    "state.Trace.copy": "state.fork",
}


def parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


#: The nodes that open a scope of local names.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def locals_of(scope) -> set:
    """The names a scope binds itself: its parameters, the names it assigns
    and the functions and classes it defines, not those of scopes nested
    in it."""
    bound = set()
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def names_in(tree) -> Counter:
    """How often a tree reads each name: as a variable in a load that no
    enclosing function or comprehension binds itself, as an attribute or in
    an import.  An assignment, or a local or parameter of the same spelling,
    is no read of a module-level name."""
    found = Counter()
    stack = [(tree, frozenset())]
    while stack:
        node, shadowed = stack.pop()
        if isinstance(node, SCOPES):
            shadowed = shadowed | locals_of(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += node.id not in shadowed
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        stack.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return found


def record_fields(trees) -> dict:
    """Each record class of `src/mpisym` ("module.Class") -> the fields it
    lists in ``__slots__``.  A record derives from `lang.Record`, directly or
    through a class that does; a class that other records derive from is a
    base, not a record.  A slot whose name starts with "_" is no field."""
    classes = [(path.stem, node, {getattr(base, "id", getattr(base, "attr", None))
                                  for base in node.bases})
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef)]
    derived = {"Record"}
    while True:
        more = {node.name for _, node, bases in classes if bases & derived} - derived
        if not more:
            break
        derived |= more
    bases = set().union(*(bases for _, _, bases in classes))
    return {f"{module}.{node.name}": [elt.value for stmt in node.body
                                      if isinstance(stmt, ast.Assign)
                                      and getattr(stmt.targets[0], "id", "") == "__slots__"
                                      for elt in stmt.value.elts if elt.value[0] != "_"]
            for module, node, _ in classes if node.name in derived - bases}


#: The statements that define a name in the body of a module or class.
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def members(node: ast.ClassDef) -> set:
    """The names a class defines: its functions and classes, the names it
    assigns in its body and the entries of its ``__slots__``."""
    names = set()
    for stmt in node.body:
        if isinstance(stmt, DEFS):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(target.id for target in stmt.targets if isinstance(target, ast.Name))
            if getattr(stmt.targets[0], "id", "") == "__slots__":
                names.update(elt.value for elt in stmt.value.elts)
    return names


def shared_methods(trees) -> list:
    """Each method ("module.Class.method") of `trees`, other than a dunder,
    whose name is also a member of a class outside its lineage: neither a
    class it derives from nor one that derives from it, whose member of that
    name is the same one, overridden."""
    classes = {f"{path.stem}.{node.name}": node for path, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {node.name: {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
             for node in classes.values()}

    def lineage(name: str) -> set:
        up, down = {name}, {name}
        for _ in bases:
            up |= set().union(*(bases.get(cls, ()) for cls in up))
            down |= {cls for cls, of in bases.items() if of & down}
        return up | down

    return sorted(f"{where}.{method.name}" for where, node in classes.items()
                  for method in node.body
                  if isinstance(method, DEFS) and not method.name.startswith("__")
                  and any(method.name in members(other) for other in classes.values()
                          if other.name not in lineage(node.name)))


def reads(reader, name: str) -> bool:
    """Whether a definition reads an attribute called `name`."""
    return reader is not None and any(isinstance(n, ast.Attribute) and n.attr == name
                                      and isinstance(n.ctx, ast.Load) for n in ast.walk(reader))


def test_every_module_level_name_and_record_field_has_a_user():
    src = parsed(sorted(SRC.glob("*.py")))
    trees = {**src, **parsed(sorted(BENCH.rglob("*.py")))}
    as_strings = {node.value for node in ast.walk(trees[BENCH / "tracing.py"])
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    named = sum(map(names_in, trees.values()), Counter())
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    defined = {}  # "module.name" or "module.Class.method" -> its definition
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                defined[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                defined.update((f"{path.stem}.{node.name}.{method.name}", method)
                               for method in node.body if isinstance(method, DEFS))
    shared = shared_methods(src)
    unused, listed = [], []
    for path, tree in src.items():
        found = [(f"{path.stem}.{node.name}", node) for node in tree.body
                 if isinstance(node, DEFS)]
        found += [(f"{where}.{method.name}", method) for where, node in found
                  if isinstance(node, ast.ClassDef) for method in node.body
                  if isinstance(method, DEFS) and not method.name.startswith("__")]
        for where, node in found:
            if where in shared:
                used = reads(defined.get(SHARED_NAMES.get(where)), node.name)
            else:
                used = node.name in as_strings or named[node.name] > names_in(node)[node.name]
            if where in USED_ONLY_BY_TESTS:
                listed.append(where)
                assert not used, f"{where} has a user now: drop it from the list"
            elif not used:
                unused.append(where)
    records = record_fields(src)
    unused += [f"{where}.{name}" for where, fields in records.items()
               for name in fields if name not in read]
    assert unused == []
    assert sorted(listed) == sorted(USED_ONLY_BY_TESTS)
    assert shared == sorted(SHARED_NAMES)
    assert len(records) == 30  # a record the search misses would go unchecked


def test_every_import_is_read_in_its_module():
    """A module reads each name it imports as a variable (a type in an
    annotation counts); `__init__.py`'s re-exports and `from __future__`
    imports are exempt."""
    unread = []
    for path, tree in parsed(sorted(SRC.glob("*.py"))).items():
        if path.name == "__init__.py":
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
                unread += [f"{path.stem}.{name}" for name in bound if name not in loaded]
    assert unread == []
