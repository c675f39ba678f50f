"""Carrier labels of presheaf spaces and comma objects, spelled on read.

A carrier made by `FinSet.spelled_on_read` knows its size and spells its
labels when they are first read.  These tests pin the label text against
the eager formulas, pin that the verdict path of one tower reads no label,
and pin equality and hashing of relations and maps over such carriers.
"""

import pytest

from tvcat import presheaf
from tvcat.category import MEMO, TVCategory, TVFunctor
from tvcat.core import FinSet, Fn, SizeCapError, pair_label
from tvcat.corpus import iso_representatives, seed_corpus
from tvcat.lofs import (Factorisation, check_awfs, check_simplicity,
                        comma_factorise)
from tvcat.monad import instantiate_monad
from tvcat.presheaf import PresheafSpace, presheaf_space, saturated_class
from tvcat.quantale import VRelation, boolean_quantale, truncated_chain
from tvcat.report import PASS

from builders import discrete_category

ALL = saturated_class("all")
BOOL_ID = instantiate_monad("identity", boolean_quantale())
CHAIN_ID = instantiate_monad("identity", truncated_chain(2))


def unspelled(X: FinSet) -> bool:
    return X._spell is not None


def lazy(labels) -> FinSet:
    return FinSet.spelled_on_read(len(labels), lambda: iter(labels))


@pytest.fixture
def fresh_memo():
    MEMO.clear()
    yield
    MEMO.clear()


@pytest.mark.parametrize("M, size, cap", [(BOOL_ID, 3, 4096),
                                          (CHAIN_ID, 2, 512)],
                         ids=["boolean", "truncated_chain(2)"])
def test_spelled_labels_match_the_eager_formulas(fresh_memo, M, size, cap):
    names = M.q.elements
    cats, fns = seed_corpus(M, size)
    spaces = pairs = 0
    for C in cats:
        space = presheaf_space(C, ALL, cap)
        assert unspelled(space.carrier)
        assert list(space.carrier) == [
            "[%s]" % ",".join(names[v] for v in values)
            for values in space.presheaves]
        spaces += 1
    for f in iso_representatives(fns):
        try:
            F = comma_factorise(f, ALL, cap)
        except SizeCapError:
            continue
        assert unspelled(F.K.carrier)
        want = [pair_label(F.space.carrier[ip], f.dst.carrier[iy])
                for ip, iy in F.pairs]
        assert list(F.K.carrier) == want
        assert [F.K.carrier.index[x] for x in want] == list(range(len(want)))
        pairs += len(want)
    assert spaces == len(cats) and pairs > 500


def test_one_tower_reads_no_label(fresh_memo):
    # a morphism whose whole tower and simplicity rows build at the
    # verify-paper cap; its largest comma object has 971 pairs
    cats, fns = seed_corpus(BOOL_ID, 3)
    f = next(g for g in iso_representatives(fns) if g.name == "c3_01>c3_07#5")
    checks = check_awfs(f, ALL, 4096).checks \
        + check_simplicity(f, ALL, 4096).checks
    assert len(checks) == 10 and all(c.status == PASS for c in checks)
    F = comma_factorise(f, ALL, 4096)
    facts = [v for v in MEMO.values() if isinstance(v, Factorisation)]
    spaces = [v for v in MEMO.values() if isinstance(v, PresheafSpace)]
    assert F in facts and F.space in spaces
    assert (len(facts), len(spaces)) == (7, 4)
    assert max(len(v.pairs) for v in facts) == 971
    assert all(unspelled(v.K.carrier) for v in facts)
    assert all(unspelled(v.carrier) for v in spaces)


def test_equal_content_over_distinct_lazy_carriers_is_equal():
    q = BOOL_ID.q
    rows = [b"\x01\x00", b"\x01\x01"]
    A1, A2, B = lazy(["a", "b"]), lazy(["a", "b"]), lazy(["x", "y"])
    r1, r2 = VRelation(q, A1, A1, rows), VRelation(q, A2, A2, rows)
    f1, f2 = Fn(A1, A1, (1, 1)), Fn(A2, A2, (1, 1))
    # hashing reads tables and rows only
    assert hash(r1) == hash(r2) and hash(f1) == hash(f2)
    assert all(map(unspelled, (A1, A2, B)))
    assert r1 == r2 and f1 == f2
    C1, C2 = (TVCategory(BOOL_ID, A, r, "c") for A, r in ((A1, r1),
                                                          (A2, r2)))
    g1, g2 = (TVFunctor(C, C, g, "g") for C, g in ((C1, f1), (C2, f2)))
    assert C1 == C2 and hash(C1) == hash(C2)
    assert g1 == g2 and hash(g1) == hash(g2)
    # the same rows and table under other labels are another relation
    assert VRelation(q, B, B, rows) != r1 and Fn(B, B, (1, 1)) != f1
    assert VRelation(q, FinSet(["x", "y"]), A1, rows) != r1
    # a different table or size is told apart before any label is read
    C, D = lazy(["a", "b"]), lazy(["a", "b", "c"])
    assert Fn(C, C, (0, 1)) != Fn(lazy(["a", "b"]), C, (1, 1))
    assert C != D and unspelled(C) and unspelled(D)


def test_a_work_refused_space_spells_no_string(monkeypatch, fresh_memo):
    # 8 presheaves over 3 points: 8^2 * 3 = 192 cells, past a budget of 100
    def spell(*args):
        raise AssertionError("spelled the strings of a refused space")

    monkeypatch.setattr(presheaf, "STRUCTURE_WORK_CAP", 100)
    monkeypatch.setattr(presheaf, "_spell_leaf_groups", spell)
    base = discrete_category(BOOL_ID, ["s0", "s1", "s2"])
    with pytest.raises(SizeCapError) as exc:
        presheaf_space(base, ALL, 4096)
    assert str(exc.value) == ("structure matrix for 8 presheaves over 3 "
                              "lifted points is past the work budget")
