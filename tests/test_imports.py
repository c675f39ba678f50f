"""No module of tvcat, and no test module, imports a name it never reads.

`__init__.py` is left out: its imports are the package's public names.
Stdlib `ast` only, so the check needs no lint tool.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tvcat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") \
    + sorted(TESTS.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import statement and never read in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_guard_finds_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\nprint(path)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "argv")]


def test_every_import_is_read():
    assert any(p.parent == SRC for p in MODULES)
    assert any(p.name == "builders.py" for p in MODULES)
    unused = {"%s/%s" % (p.parent.name, p.name):
              unused_imports(ast.parse(p.read_text())) for p in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}
