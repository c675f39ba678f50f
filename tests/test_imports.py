"""No module of tvcat, and no test module, imports a name it never reads,
and tvcat defines nothing that only the tests read.

`__init__.py` is left out of the import check: its imports are the
package's public names.  Stdlib `ast` only, so the check needs no lint tool.
Importing the command line loads no heavy stdlib module it does not use.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tvcat

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tvcat"
PERFBENCH = TESTS.parent / "perfbench"
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


def definitions(tree: ast.Module) -> list:
    """Module-level functions and classes, and methods, as (line, name, kind).

    kind is "method" for a method and "name" otherwise.  Dunder methods are
    left out: the language calls them.
    """
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, "name"))
        if isinstance(node, ast.ClassDef):
            found.extend((item.lineno, item.name, "method")
                         for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return [(line, name, kind) for line, name, kind in found
            if not (name.startswith("__") and name.endswith("__"))]


def read_names(tree: ast.Module, strings: bool = False) -> dict:
    """Names and attributes the module reads, by kind.

    A method is read only through an attribute load ("method"); a function
    or class may also be read as a bare name ("name" holds both).  With
    strings, every dotted part of a string constant counts as both, as
    perfbench's tracer names the callables it wraps in strings.
    """
    read = {"name": set(), "method": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read["name"].add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            read["name"].add(node.attr)
            read["method"].add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            for part in node.value.split("."):
                read["name"].add(part)
                read["method"].add(part)
    return read


def unread(tree: ast.Module, read: dict) -> list:
    return [(line, name) for line, name, kind in definitions(tree)
            if name not in read[kind]]


def test_the_guard_finds_an_unread_definition():
    tree = ast.parse("def used():\n    pass\n\n"
                     "def unused():\n    pass\n\n"
                     "class K:\n    def __repr__(self):\n        return ''\n"
                     "    def m(self):\n        pass\n\n"
                     "    def n(self):\n        pass\n\n"
                     "used()\nn = 1\nprint(n)\n")
    # n is read as a variable, never as an attribute: the method is unread
    assert unread(tree, read_names(tree)) == [(4, "unused"), (7, "K"),
                                              (10, "m"), (13, "n")]
    script = ast.parse("TARGET = ('lib', 'K.m')\n")
    read = read_names(script, strings=True)
    assert {"K", "m"} <= read["name"] and "m" in read["method"]
    assert not read_names(script)["method"] & {"K", "m"}


def test_every_definition_is_read_outside_the_tests():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert "__init__.py" in trees and scripts
    reads = [read_names(t) for t in trees.values()] \
        + [read_names(ast.parse(p.read_text()), strings=True)
           for p in scripts]
    read = {kind: set().union(*(r[kind] for r in reads))
            for kind in ("name", "method")}
    read["name"] |= set(tvcat.__all__)
    found = {name: unread(tree, read) for name, tree in trees.items()}
    assert {name: defs for name, defs in found.items() if defs} == {}


def test_the_row_wording_lives_in_report():
    # the row rule has one owner; a copy elsewhere would drift from it
    for literal in ("failing: ", "no item decided"):
        holders = sorted(p.name for p in SRC.glob("*.py")
                         if literal in p.read_text())
        assert holders == ["report.py"], literal


def test_the_command_line_imports_no_dataclasses_or_inspect():
    # every process start pays for what `import tvcat` loads; dataclasses
    # alone brings inspect, ast, dis and tokenize
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, tvcat.cli; print(' '.join("
         "m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == []
