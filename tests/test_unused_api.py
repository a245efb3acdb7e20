"""No exported API that nothing uses: every module-level function and class
of `src/mpisym` is named somewhere in `src/mpisym` or `bench/` outside its
own definition, and every dataclass field is read as an attribute there.
Names that `bench/tracing.py` gives as strings (its rebinding TARGETS)
count as uses.  What only tests use is listed below with its one user."""

import ast
from collections import Counter
from pathlib import Path

import mpisym

SRC = Path(mpisym.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

#: "module.name" -> its only user, outside `src/mpisym` and `bench/`.
USED_ONLY_BY_TESTS = {
    "report.strip_volatile": "tests/test_report.py, to compare reports with goldens",
}


def parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def names_in(tree) -> Counter:
    """How often a tree spells each name as a variable, an attribute or an
    import."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
    return found


def is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")) \
                == "dataclass":
            return True
    return False


def test_every_module_level_name_and_dataclass_field_has_a_user():
    src = parsed(sorted(SRC.glob("*.py")))
    trees = {**src, **parsed(sorted(BENCH.rglob("*.py")))}
    as_strings = {node.value for node in ast.walk(trees[BENCH / "tracing.py"])
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    named = sum(map(names_in, trees.values()), Counter())
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused, listed = [], []
    for path, tree in src.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            where = f"{path.stem}.{node.name}"
            used = node.name in as_strings or named[node.name] > names_in(node)[node.name]
            if where in USED_ONLY_BY_TESTS:
                listed.append(where)
                assert not used, f"{where} has a user now: drop it from the list"
            elif not used:
                unused.append(where)
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                unused += [f"{where}.{field.target.id}" for field in node.body
                           if isinstance(field, ast.AnnAssign)
                           and isinstance(field.target, ast.Name)
                           and field.target.id not in read]
    assert unused == []
    assert sorted(listed) == sorted(USED_ONLY_BY_TESTS)
