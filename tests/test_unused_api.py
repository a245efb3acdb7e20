"""No exported API that nothing uses: every module-level function and class
of `src/mpisym`, and every method of those classes other than a dunder, is
read somewhere in `src/mpisym` or `bench/` outside its own definition, and
every field of a record (a `lang.Record`) is read as an attribute there.  A
read is a variable in a load, an attribute or an import; a local or a
parameter spelled the same is none.  Names that `bench/tracing.py` gives as
strings (its rebinding TARGETS) count as uses.  What only tests use is
listed below with its one user."""

import ast
from collections import Counter
from pathlib import Path

import mpisym

SRC = Path(mpisym.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

#: "module.name" or "module.Class.method" -> its only user, outside
#: `src/mpisym` and `bench/`.
USED_ONLY_BY_TESTS = {
    "report.strip_volatile": "tests/test_report.py, to compare reports with goldens",
    "state.GlobalState.snapshot": "tests/test_state.py, to see a fork leak into its parent",
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


def test_every_module_level_name_and_record_field_has_a_user():
    src = parsed(sorted(SRC.glob("*.py")))
    trees = {**src, **parsed(sorted(BENCH.rglob("*.py")))}
    as_strings = {node.value for node in ast.walk(trees[BENCH / "tracing.py"])
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    named = sum(map(names_in, trees.values()), Counter())
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused, listed = [], []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in src.items():
        found = [(f"{path.stem}.{node.name}", node) for node in tree.body
                 if isinstance(node, defs)]
        found += [(f"{where}.{method.name}", method) for where, node in found
                  if isinstance(node, ast.ClassDef) for method in node.body
                  if isinstance(method, defs) and not method.name.startswith("__")]
        for where, node in found:
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
    assert len(records) == 35  # a record the search misses would go unchecked
