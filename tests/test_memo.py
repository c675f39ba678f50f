"""Category equality and the engine memo that is keyed on it.

Two categories are one when their monad instances are equal and they
share the structure table; names do not count.  The memo keys spaces,
factorisations and class memberships on those categories, so a hit must
give what a cold call at the same cap gives.  `memo_scope` is its one
eviction rule, and an awfs corpus or a verify-paper run leaves it as it
found it.
"""

import ast
import itertools
from contextlib import contextmanager
from pathlib import Path

import pytest

from tvcat import category
from tvcat.category import identity_functor, memo_scope, memoised
from tvcat.cli import run_command
from tvcat.core import SizeCapError
from tvcat import lofs
from tvcat.lofs import (check_awfs_corpus, comma_factorise, l_membership,
                        r_membership)
from tvcat.monad import MonadInstance, instantiate_monad
from tvcat.presheaf import presheaf_space, saturated_class
from tvcat.quantale import boolean_quantale, truncated_chain
from tvcat.report import SKIP

from builders import category_from_entries, discrete_category

SRC = Path(category.__file__).resolve().parent
BOOL = boolean_quantale()
ID = instantiate_monad("identity", BOOL)
UF = instantiate_monad("finite_ultrafilter", BOOL)
ALL = saturated_class("all")
REPR = saturated_class("representable")


def chain_cat(M, labels, name):
    entries = {(x, y): "1" for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(M, labels, entries, default="0", name=name)


def test_category_equality_ignores_names():
    a = chain_cat(ID, ["0", "1"], "a")
    b = chain_cat(ID, ["0", "1"], "b")
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # same labels, different table
    assert a != discrete_category(ID, ["0", "1"], "a")
    assert identity_functor(a) == identity_functor(b)


def test_functor_hash_reads_the_endpoint_structures():
    two = chain_cat(ID, ["0", "1"], "two")
    anti = discrete_category(ID, ["0", "1"], "anti")
    f, g = identity_functor(two), identity_functor(anti)
    # one table between the same labels, over other structures
    assert f.fn == g.fn and f != g and hash(f) != hash(g)
    again = identity_functor(chain_cat(ID, ["0", "1"], "again"))
    assert again == f and hash(again) == hash(f)


def test_category_equality_tells_identity_from_ultrafilter():
    # finite_ultrafilter has the identity's tables, but is another instance
    a = chain_cat(ID, ["0", "1"], "two")
    u = chain_cat(UF, ["0", "1"], "two")
    assert a.structure.rows == u.structure.rows
    assert a != u
    assert presheaf_space(a) is not presheaf_space(u)


def fresh_id2():
    """The identity on the 2-chain, over an empty memo."""
    category.MEMO.clear()
    return identity_functor(chain_cat(ID, ["0", "1"], "two"))


def outcomes(f, cap):
    """What the memoised calls give at this cap: a value, or the cap message."""
    calls = (lambda: len(presheaf_space(f.src, ALL, cap)),
             lambda: len(presheaf_space(f.src, REPR, cap)),
             lambda: comma_factorise(f, ALL, cap).pairs,
             lambda: l_membership(f, ALL, cap),
             lambda: getattr(r_membership(f, ALL, cap), "fn", None))
    out = []
    for call in calls:
        try:
            out.append(("ok", call()))
        except SizeCapError as exc:
            out.append(("capped", str(exc)))
    return out


def test_cache_hits_honour_the_callers_cap():
    cold_f = fresh_id2()
    cold = outcomes(cold_f, 2)
    # three presheaves on the 2-chain, two of them representable: a cap
    # of 2 stops every call, the class space included, since the
    # enumeration goes past it before the class filter
    assert [kind for kind, _ in cold] == ["capped"] * 5
    assert cold[0][1] == ("presheaf space exceeds the cap of 2 (carrier "
                          "of 2 lifted points)")
    warm_f = fresh_id2()
    assert [kind for kind, _ in outcomes(warm_f, 4096)] == ["ok"] * 5
    assert outcomes(warm_f, 2) == cold


def test_refusals_are_remembered_at_their_cap(monkeypatch):
    f = fresh_id2()
    cold = outcomes(f, 2)
    assert [kind for kind, _ in cold] == ["capped"] * 5

    def rebuilt(*args):
        raise AssertionError("rebuilt a refused memo entry")

    # every refusal at cap 2 is answered from the memo, none recomputed
    monkeypatch.setattr("tvcat.presheaf._enumerate_value_tuples", rebuilt)
    monkeypatch.setattr("tvcat.lofs.Factorisation", rebuilt)
    assert outcomes(f, 2) == cold


def refused():
    raise SizeCapError("refused")


def test_memo_scope_drops_what_its_block_added():
    category.MEMO.clear()
    try:
        kept = memoised(("test", "kept"), object)
        with memo_scope():
            outer = memoised(("test", "outer"), object)
            with memo_scope():
                memoised(("test", "inner"), object)
                with pytest.raises(SizeCapError):
                    memoised(("test", "refused"), refused)
                assert len(category.MEMO) == 4
            # the inner block's value and refusal are gone, nested or not
            assert list(category.MEMO) == [("test", "kept"),
                                           ("test", "outer")]
            with pytest.raises(KeyError):
                with memo_scope():
                    memoised(("test", "raised"), object)
                    raise KeyError("leaves the block")
            assert list(category.MEMO) == [("test", "kept"),
                                           ("test", "outer")]
            assert category.MEMO["test", "outer"] is outer
        assert list(category.MEMO) == [("test", "kept")]
        assert category.MEMO["test", "kept"] is kept
        # a refused key is refused afresh, then built, once the scope is gone
        assert memoised(("test", "refused"), lambda: 1) == 1
    finally:
        category.MEMO.clear()


def test_verify_paper_leaves_the_memo_as_it_found_it():
    category.MEMO.clear()
    try:
        space = presheaf_space(chain_cat(ID, ["0", "1"], "two"))
        before = dict(category.MEMO)
        code, _ = run_command(["verify-paper", "--max-size", "1"])
        after = dict(category.MEMO)
    finally:
        category.MEMO.clear()
    assert code == 0
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert space in after.values()


def test_monad_instances_are_values():
    a = instantiate_monad("identity", BOOL)
    b = instantiate_monad("identity", BOOL)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a == ID and a == MonadInstance("identity", BOOL)
    assert a != UF and UF == instantiate_monad("finite_ultrafilter", BOOL)
    assert a != instantiate_monad("identity", truncated_chain(1))
    # categories over separate instantiations are one category, one key
    ca, cb = chain_cat(a, ["0", "1"], "two"), chain_cat(b, ["0", "1"], "two")
    assert ca == cb and hash(ca) == hash(cb)
    assert presheaf_space(ca) is presheaf_space(cb)


def tower_memos(monkeypatch) -> list:
    """Copies of `MEMO` as each tower of `check_awfs_corpus` leaves it.

    `lofs.memo_scope` is patched so that a copy is taken when the tower's
    block ends normally, before the scope deletes what the tower added.
    """
    seen = []

    @contextmanager
    def observed():
        with memo_scope():
            yield
            seen.append(dict(category.MEMO))

    monkeypatch.setattr(lofs, "memo_scope", observed)
    return seen


def test_awfs_corpus_keeps_earlier_entries_and_drops_its_own(monkeypatch):
    f = identity_functor(chain_cat(ID, ["0", "1"], "two"))
    g = fresh_id2()
    towers = tower_memos(monkeypatch)
    category.MEMO.clear()
    try:
        # an entry that the loop reads and one it does not
        F = comma_factorise(f, ALL, 4096)
        space = presheaf_space(discrete_category(ID, ["p"], "pt"))
        before = dict(category.MEMO)
        rep = check_awfs_corpus([f, g], ALL, 4096)
        after = dict(category.MEMO)
        # at cap 2 every tower is refused, and its refusals leave with it
        capped = check_awfs_corpus([f, g], ALL, 2)
        after_capped = dict(category.MEMO)
    finally:
        category.MEMO.clear()
    assert rep.ok, rep.to_text()
    assert all(c.status == SKIP for c in capped.checks)
    # each tower filled the memo while it was checked ...
    assert len(towers) == 4 and min(map(len, towers)) > len(before)
    # ... and left it as it found it, the earlier objects included
    for memo in (after, after_capped):
        assert memo.keys() == before.keys()
        assert all(memo[k] is v for k, v in before.items())
    assert F in after.values() and space in after.values()


def memo_writers(tree: ast.Module, module: str, writes) -> set:
    """Qualified names of the functions with a node for which writes holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if writes(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, (module,))
    return found


def memo_item(node, ctx) -> bool:
    """Whether node is MEMO[...] in the context ctx."""
    return isinstance(node, ast.Subscript) and isinstance(node.ctx, ctx) \
        and isinstance(node.value, ast.Name) and node.value.id == "MEMO"


def memo_stores(tree: ast.Module, module: str) -> set:
    """Qualified names of the functions that assign MEMO[...]."""
    return memo_writers(tree, module, lambda n: memo_item(n, ast.Store))


def memo_deletes(tree: ast.Module, module: str) -> set:
    """Qualified names of the functions that delete MEMO entries: del
    MEMO[...], or MEMO.clear(), .pop() or .popitem()."""
    def deletes(node):
        return memo_item(node, ast.Del) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("clear", "pop", "popitem")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "MEMO")
    return memo_writers(tree, module, deletes)


def test_memo_is_filled_in_one_place_only():
    stores = set()
    for path in sorted(SRC.glob("*.py")):
        stores |= memo_stores(ast.parse(path.read_text()), path.stem)
    assert stores == {"category.memoised"}
    probe = ast.parse("def f():\n    MEMO[1] = 2\n"
                      "class C:\n    def g(self):\n"
                      "        x = MEMO[1]\n        MEMO[2] = x\n")
    assert memo_stores(probe, "m") == {"m.f", "m.C.g"}


def test_memo_entries_are_deleted_in_one_place_only():
    # memo_scope is the eviction rule; run_command drops its own stale
    # answer before it runs the command afresh
    deletes = set()
    for path in sorted(SRC.glob("*.py")):
        deletes |= memo_deletes(ast.parse(path.read_text()), path.stem)
    assert deletes == {"category.memo_scope", "cli.run_command"}
    probe = ast.parse("def f():\n    del MEMO[1]\n"
                      "def g():\n    MEMO.clear()\n"
                      "def h():\n    MEMO.pop(1)\n"
                      "def k():\n    del MEMO[:1]\n    x = MEMO[1]\n"
                      "def s():\n    MEMO[1] = MEMO.get(1)\n")
    assert memo_deletes(probe, "m") == {"m.f", "m.g", "m.h", "m.k"}


_CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp,
               ast.ListComp)
_MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "pop",
             "popitem", "remove", "setdefault", "update"}
_CACHES = {"cache", "lru_cache"}


def process_state(trees: dict) -> set:
    """Qualified names of what a module keeps for the life of the process.

    That is a module-level name bound to a dict, set or list that starts
    empty or that some function writes to (an item store or delete, or a
    mutating method call through the name), and a function decorated with
    `functools.cache` or `lru_cache`.  A non-empty table that only the
    module body writes, such as a dispatch table, is a constant.
    """
    bound, written, found = {}, set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                is_call = isinstance(value, ast.Call) and \
                    isinstance(value.func, ast.Name) and \
                    value.func.id in ("dict", "set", "list")
                if isinstance(value, _CONTAINERS) or is_call:
                    empty = is_call and not (value.args or value.keywords) or \
                        isinstance(value, ast.Dict) and not value.keys or \
                        isinstance(value, (ast.Set, ast.List)) and \
                        not value.elts
                    for t in targets:
                        if isinstance(t, ast.Name):
                            bound[t.id, module] = empty
            if isinstance(node, ast.FunctionDef):
                for d in node.decorator_list:
                    f = d.func if isinstance(d, ast.Call) else d
                    name = f.attr if isinstance(f, ast.Attribute) else \
                        getattr(f, "id", None)
                    if name in _CACHES:
                        found.add("%s.%s" % (module, node.name))
        code = [ast.walk(node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in itertools.chain.from_iterable(code):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)) and \
                    isinstance(node.value, ast.Name):
                written.add(node.value.id)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS and \
                    isinstance(node.func.value, ast.Name):
                written.add(node.func.value.id)
    found |= {"%s.%s" % (module, name) for (name, module), empty
              in bound.items() if empty or name in written}
    return found


def test_process_state_is_pinned():
    """A new module-level cache is added here on purpose, or not at all."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert process_state(trees) == {
        "category.MEMO", "quantale._QUANTALES", "cli._build_parser"}
    probe = ast.parse("import functools\n"
                      "A = {}\nB = {1: 2}\nC = {1: 2}\nD = set()\n"
                      "E: list = []\nF = [1]\nB[3] = 4\n"
                      "def f(k):\n    C[k] = 1\n    F.append(k)\n"
                      "@functools.lru_cache(maxsize=None)\ndef g():\n"
                      "    pass\n"
                      "@functools.cache\ndef h():\n    pass\n")
    assert process_state({"m": probe}) == {"m.A", "m.C", "m.D", "m.E",
                                           "m.F", "m.g", "m.h"}
