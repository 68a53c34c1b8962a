"""src holds the program and nothing else, and decides each thing once.

A helper that only tests call belongs in tests/reference.py. The first
check parses every module of the package except __init__.py (whose
re-exports are no use) and asserts that each function, method and class
defined there is referenced somewhere in those modules: a method only as
an attribute (x.name), so that a local variable of the same name does not
count as its caller. The second asserts that one function maps a
retrieval direction to its query side, so no other code compares a
direction name. The third asserts that no module under src/ or tests/
imports a name it never reads (__init__.py aside: its imports are its
re-exports), and the fourth that no function there imports a name again
that its module already imports at the top.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "xmhash"

# read_codes has no caller in src, yet it stays: it is the only reader of
# the code files that `xmhash encode` writes
UNCALLED = {"read_codes"}

TASK_NAMES = {"i2t", "t2i"}
QUERY_SIDE = "query_side"  # the one function that compares a direction name


def _definitions_and_references(paths):
    """(name, place, is a method) of each definition, the names read as
    plain names, and the names read as attributes."""
    defined, names, attributes = [], set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}", id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return defined, names, attributes


def test_every_src_definition_has_a_src_caller():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths, f"no modules under {SRC}"
    defined, names, attributes = _definitions_and_references(paths)
    unused = [f"{where} {name}" for name, where, is_method in defined
              if name not in attributes and (is_method or name not in names)
              and name not in UNCALLED
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined in src but referenced only outside it: " + ", ".join(unused)


def _task_name_comparisons(path):
    """(enclosing function, place) of each == or != against a direction name."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(isinstance(o, ast.Constant) and o.value in TASK_NAMES
                        for o in (node.left, *node.comparators))):
            found.append((func, f"{path.name}:{node.lineno}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_query_side_compares_direction_names():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _task_name_comparisons(path)]
    stray = [f"{where} in {func}" for func, where in found if func != QUERY_SIDE]
    assert not stray, "direction name compared outside query_side: " + ", ".join(stray)
    assert [func for func, _ in found] == [QUERY_SIDE], found


def _imported_names(node):
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _unread_imports(path):
    """(place, name) of each name the module imports but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported_names(node):
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(f"{path.name}:{line}", name) for name, line in imported.items()
            if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(p for d in (SRC, TESTS) for p in d.glob("*.py") if p.name != "__init__.py")
    assert len(paths) > 2, f"no modules under {SRC} or {TESTS}"
    unread = [f"{where} {name}" for path in paths for where, name in _unread_imports(path)]
    assert not unread, "imported but never read: " + ", ".join(unread)


def _nested_reimports(path):
    """'place name' of each import below the top level (in a function, most
    often) of a name that the module already imports at the top level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {name for node in top for name in _imported_names(node)}
    return [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
            for name in _imported_names(node) if name in names]


def test_no_function_imports_a_name_its_module_already_imports():
    paths = sorted(p for d in (SRC, TESTS) for p in d.glob("*.py"))
    assert len(paths) > 2, f"no modules under {SRC} or {TESTS}"
    again = [hit for path in paths for hit in _nested_reimports(path)]
    assert not again, "imported again inside a function: " + ", ".join(again)
