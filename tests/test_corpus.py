"""Corpus enumeration counts and the relabelling-class reduction."""

import itertools

import pytest

from tvcat.core import Fn, InputError
from tvcat.corpus import (CORPUS_LABELS, arrow_iso_key, iso_representatives,
                          seed_categories, seed_corpus, seed_functors)
from tvcat.monad import instantiate_monad
from tvcat.quantale import (boolean_quantale, lukasiewicz_chain,
                            powerset_frame, truncated_chain)

BOOL = boolean_quantale()
ID = instantiate_monad("identity", BOOL)
UF = instantiate_monad("finite_ultrafilter", BOOL)


def _sizes(cats):
    out = {}
    for C in cats:
        out[len(C.carrier)] = out.get(len(C.carrier), 0) + 1
    return out


def test_boolean_corpus_counts():
    cats, fns = seed_corpus(ID, 3)
    assert len(cats) == 24
    assert _sizes(cats) == {0: 1, 1: 1, 2: 3, 3: 19}
    assert len(fns) == 4842
    assert [C.name for C in cats[:5]] == ["c0_00", "c1_00", "c2_00", "c2_01",
                                          "c2_02"]


def test_ultrafilter_corpus_matches_identity():
    # both instances lift finite carriers identically, so the corpora agree
    # cell for cell
    cats_id = seed_categories(ID, 3)
    cats_uf = seed_categories(UF, 3)
    assert len(cats_id) == len(cats_uf) == 24
    for C, D in zip(cats_id, cats_uf):
        assert C.carrier == D.carrier
        assert C.structure.rows == D.structure.rows
    assert len(seed_functors(cats_uf)) == 4842


def test_chain_corpus_counts():
    for q, ncats, nfns in ((truncated_chain(2), 17, 681),
                           (lukasiewicz_chain(2), 10, 217),
                           (powerset_frame(2), 17, 643)):
        cats, fns = seed_corpus(instantiate_monad("identity", q), 2)
        assert len(cats) == ncats
        assert len(fns) == nfns


def test_corpus_is_deterministic():
    a = seed_categories(ID, 2)
    b = seed_categories(ID, 2)
    assert [(C.name, C.structure.rows) for C in a] \
        == [(C.name, C.structure.rows) for C in b]


def test_max_size_is_bounded_by_the_alphabet():
    with pytest.raises(InputError):
        seed_categories(ID, len(CORPUS_LABELS))


def test_iso_class_counts():
    assert len(iso_representatives(seed_corpus(ID, 3)[1])) == 265
    for q, classes in ((truncated_chain(2), 216),
                       (lukasiewicz_chain(2), 76),
                       (powerset_frame(2), 206)):
        M = instantiate_monad("identity", q)
        assert len(iso_representatives(seed_corpus(M, 2)[1])) == classes


def test_iso_key_invariant_under_relabelling():
    from tvcat.category import TVCategory, TVFunctor
    from tvcat.quantale import VRelation
    cats, fns = seed_corpus(ID, 2)
    for f in fns[::37]:
        key = arrow_iso_key(f)
        ns, nd = len(f.src.carrier), len(f.dst.carrier)
        for ps in itertools.permutations(range(ns)):
            for pd in itertools.permutations(range(nd)):
                src = TVCategory(ID, f.src.carrier, VRelation(
                    BOOL, f.src.carrier, f.src.carrier,
                    [[f.src.structure.rows[ps[i]][ps[j]] for j in range(ns)]
                     for i in range(ns)]), "s")
                dst = TVCategory(ID, f.dst.carrier, VRelation(
                    BOOL, f.dst.carrier, f.dst.carrier,
                    [[f.dst.structure.rows[pd[i]][pd[j]] for j in range(nd)]
                     for i in range(nd)]), "d")
                inv = {old: new for new, old in enumerate(pd)}
                g = TVFunctor(src, dst, Fn(src.carrier, dst.carrier,
                                           [inv[f.fn.table[ps[i]]]
                                            for i in range(ns)]), "g")
                assert arrow_iso_key(g) == key


def test_iso_key_is_the_least_relabelling_as_tuples_of_ints():
    # keys hold byte rows; they must pick the relabelling that tuples of
    # ints would, so the representatives match the tuple-keyed ones
    def as_tuples(rows):
        return tuple(tuple(row) for row in rows)

    def relabelled(rows, p):
        return tuple(tuple(rows[p[i]][p[j]] for j in range(len(p)))
                     for i in range(len(p)))

    for n, M in ((2, ID), (2, instantiate_monad("identity",
                                                truncated_chain(2)))):
        for f in seed_corpus(M, n)[1][::11]:
            ns, nd = len(f.src.carrier), len(f.dst.carrier)
            src, dst = f.src.structure.rows, f.dst.structure.rows
            best = min(
                (relabelled(src, ps), relabelled(dst, pd),
                 tuple(pd.index(f.fn.table[i]) for i in ps))
                for ps in itertools.permutations(range(ns))
                for pd in itertools.permutations(range(nd)))
            key = arrow_iso_key(f)
            assert key[:2] == (ns, nd)
            assert (as_tuples(key[2]), as_tuples(key[3]), key[4]) == best


def test_representatives_cover_every_key_once():
    fns = seed_corpus(ID, 2)[1]
    reps = iso_representatives(fns)
    keys = [arrow_iso_key(f) for f in reps]
    assert len(set(keys)) == len(keys)
    assert {arrow_iso_key(f) for f in fns} == set(keys)
