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


def _relabellings(C):
    """Every (p, C's structure rows relabelled by p, as tuples of ints)."""
    rows = C.structure.rows
    n = len(rows)
    return [(p, tuple(tuple(rows[p[i]][p[j]] for j in range(n))
                      for i in range(n)))
            for p in itertools.permutations(range(n))]


def _least_relabelling(f, relabellings=_relabellings):
    """The least (source, target, table) over all ns!*nd! relabellings."""
    return min((rs, rd, tuple(pd.index(f.fn.table[i]) for i in ps))
               for ps, rs in relabellings(f.src)
               for pd, rd in relabellings(f.dst))


def _key_as_tuples(key):
    ns, nd, src, dst, table = key
    return (ns, nd, tuple(map(tuple, src)), tuple(map(tuple, dst)), table)


def test_iso_key_is_the_least_relabelling_as_tuples_of_ints():
    # keys hold byte rows; they must pick the relabelling that tuples of
    # ints would, so the representatives match the tuple-keyed ones
    for n, M in ((2, ID), (2, instantiate_monad("identity",
                                                truncated_chain(2)))):
        for f in seed_corpus(M, n)[1][::11]:
            ns, nd = len(f.src.carrier), len(f.dst.carrier)
            assert _key_as_tuples(arrow_iso_key(f)) \
                == (ns, nd) + _least_relabelling(f)


# boolean size-3 categories whose least relabelling is reached by more than
# one permutation, so the table is minimised over a coset of several
SYMMETRIC = {"c2_00", "c3_00", "c3_03", "c3_06", "c3_08", "c3_11", "c3_14",
             "c3_16"}


def test_iso_key_is_the_least_relabelling_at_size_3():
    cats, fns = seed_corpus(ID, 3)
    forms = {C.name: _relabellings(C) for C in cats}
    symmetric = set()
    for name, relabellings in forms.items():
        least = min(rows for _, rows in relabellings)
        if sum(rows == least for _, rows in relabellings) > 1:
            symmetric.add(name)
    assert symmetric == SYMMETRIC
    picked = [f for k, f in enumerate(fns)
              if f.src.name in symmetric or f.dst.name in symmetric
              or k % 7 == 0]
    assert len(picked) > len(fns) // 2
    for f in picked:
        ns, nd = len(f.src.carrier), len(f.dst.carrier)
        assert _key_as_tuples(arrow_iso_key(f)) \
            == (ns, nd) + _least_relabelling(f, lambda C: forms[C.name])


@pytest.mark.parametrize("q, n", [(BOOL, 3), (truncated_chain(2), 2)],
                         ids=["boolean-3", "truncated_chain-2"])
def test_representatives_match_the_least_relabelling_reference(q, n):
    cats, fns = seed_corpus(instantiate_monad("identity", q), n)
    forms = {C.name: _relabellings(C) for C in cats}
    seen, reference = set(), []
    for f in fns:
        key = _least_relabelling(f, lambda C: forms[C.name])
        if key not in seen:
            seen.add(key)
            reference.append(f)
    reps = iso_representatives(fns)
    assert len(reps) == len(reference)
    assert all(f is g for f, g in zip(reps, reference))


def test_representatives_cover_every_key_once():
    fns = seed_corpus(ID, 2)[1]
    reps = iso_representatives(fns)
    keys = [arrow_iso_key(f) for f in reps]
    assert len(set(keys)) == len(keys)
    assert {arrow_iso_key(f) for f in fns} == set(keys)
