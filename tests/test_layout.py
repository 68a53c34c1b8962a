"""src holds the program and nothing else.

A helper that only tests call belongs in tests/reference.py. This check
parses every module of the package except __init__.py (whose re-exports
are no use) and asserts that each function, method and class defined
there is referenced by name somewhere in those modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xmhash"

# read_codes has no caller in src, yet it stays: it is the only reader of
# the code files that `xmhash encode` writes
UNCALLED = {"read_codes"}


def _definitions_and_references(paths):
    defined, referenced = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_src_definition_has_a_src_caller():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths, f"no modules under {SRC}"
    defined, referenced = _definitions_and_references(paths)
    unused = [f"{where} {name}" for name, where in defined
              if name not in referenced and name not in UNCALLED
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined in src but referenced only outside it: " + ", ".join(unused)
