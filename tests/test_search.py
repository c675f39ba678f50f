"""The forward-checking search for structure-preserving maps.

`_structure_maps` serves the filler search, the functor scans and the
algebra search that `wfs_cross_check` holds `r_membership` against.  It
is compared here with a brute-force scan of every table, kept in this
file, filtered by pins, fibres and the pairwise inequality, on four
quantales, carriers of 0 to 4 points, empty fibres, tables that are not
reflexive and targets that are not separated.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvcat import category
from tvcat.core import FinSet, Fn, SizeCapError
from tvcat.quantale import (VRelation, boolean_quantale, lukasiewicz_chain,
                            powerset_frame, truncated_chain)
from tvcat.monad import instantiate_monad
from tvcat.category import (TVCategory, TVFunctor, _structure_maps,
                            identity_functor, is_functor, unit_category)
from tvcat.corpus import seed_categories, seed_functors
from tvcat.lofs import enumerate_fillers, wfs_cross_check
from tvcat.report import SKIP

from builders import category_from_entries, discrete_category

QUANTALES = [boolean_quantale(), truncated_chain(2), lukasiewicz_chain(2),
             powerset_frame(2)]
MONADS = {id(q): instantiate_monad("identity", q) for q in QUANTALES}
CARRIERS = [FinSet("x%d" % i for i in range(n)) for n in range(5)]


def ref_structure_maps(src, dst, pinned, fibres):
    """Every table in order, kept when it meets pins, fibres and a <= b."""
    a, b, leq = src.structure.rows, dst.structure.rows, src.q.leq_m
    n, m = len(a), len(b)
    out = []
    for t in itertools.product(range(m), repeat=n):
        if any(t[i] != z for i, z in pinned.items()):
            continue
        if fibres is not None and any(
                not fibres[i] >> t[i] & 1 for i in range(n) if i not in pinned):
            continue
        if all(leq[a[i][j]][b[t[i]][t[j]]]
               for i in range(n) for j in range(n)):
            out.append(t)
    return out


def v_cat(M, n, rows, name):
    X = CARRIERS[n]
    return TVCategory(M, X, VRelation(M.q, M.T_obj(X), X, rows), name)


def random_rows(rng, q, n, reflexive):
    rows = [[rng.randrange(q.n) for _ in range(n)] for _ in range(n)]
    if reflexive:
        for i in range(n):
            rows[i][i] = q.join_m[rows[i][i]][q.unit]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(QUANTALES), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 2 ** 32), st.booleans(), st.booleans(),
       st.booleans(), st.booleans())
def test_search_matches_the_product_scan(q, n, m, seed, use_pins, use_fibres,
                                         loop, reflexive):
    rng = random.Random(seed)
    M = MONADS[id(q)]
    src = v_cat(M, n, random_rows(rng, q, n, reflexive), "src")
    b = random_rows(rng, q, m, reflexive)
    if loop and m >= 2:
        # points 0 and 1 become isomorphic: the target is not separated
        for z in range(m):
            b[1][z], b[z][1] = b[0][z], b[z][0]
        b[0][1] = b[1][0] = b[1][1] = b[0][0]
    dst = v_cat(M, m, b, "dst")
    pinned = {}
    if use_pins and m:
        pinned = {i: rng.randrange(m) for i in range(n) if rng.random() < 0.3}
    fibres = None
    if use_fibres:
        # empty fibres included
        fibres = [rng.randrange(1 << m) for _ in range(n)]
    found = _structure_maps(src, dst, "test search", pinned, fibres)
    assert found == ref_structure_maps(src, dst, pinned, fibres)
    for t in found:
        assert is_functor(src, dst, Fn(src.carrier, dst.carrier, t))


def test_search_on_empty_carriers():
    for q in QUANTALES:
        M = MONADS[id(q)]
        empty = v_cat(M, 0, [], "empty")
        one = v_cat(M, 1, [[q.unit]], "one")
        assert _structure_maps(empty, empty, "s") == [()]
        assert _structure_maps(empty, one, "s") == [()]
        assert _structure_maps(one, empty, "s") == []
        assert _structure_maps(one, one, "s", fibres=[0]) == []


def test_search_over_a_deep_source():
    # one search node per position: past the interpreter's recursion limit
    M = instantiate_monad("identity", boolean_quantale())
    C = discrete_category(M, ["p%d" % i for i in range(1100)], name="d1100")
    assert _structure_maps(C, unit_category(M), "s") == [(0,) * 1100]


def test_functor_scans_keep_corpus_order_and_names():
    M = instantiate_monad("identity", boolean_quantale())
    cats = seed_categories(M, 2)
    fns = seed_functors(cats)
    expected = []
    for C in cats:
        for D in cats:
            kept = 0
            for table in itertools.product(range(len(D.carrier)),
                                           repeat=len(C.carrier)):
                fn = Fn(C.carrier, D.carrier, table)
                if is_functor(C, D, fn):
                    expected.append(("%s>%s#%d" % (C.name, D.name, kept),
                                     table))
                    kept += 1
    assert [(f.name, f.fn.table) for f in fns] == expected


# ---------------------------------------------------------------------------
# the callers
# ---------------------------------------------------------------------------

BOOL = boolean_quantale()
ID = instantiate_monad("identity", BOOL)


def chain_cat(labels, name):
    entries = {(x, y): "1" for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(ID, labels, entries, default="0", name=name)


PT = chain_cat(["p"], "pt")
TWO = chain_cat(["0", "1"], "two")
ANTI = discrete_category(ID, ["l", "r"], "anti")
TOP = TVFunctor(PT, TWO, Fn(PT.carrier, TWO.carrier, (1,)), "top")
BANG = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "bang")
BANG_A = TVFunctor(ANTI, PT, Fn(ANTI.carrier, PT.carrier, (0, 0)), "bang_a")
FOLD = TVFunctor(ANTI, TWO, Fn(ANTI.carrier, TWO.carrier, (0, 1)), "fold")


def test_fillers_with_conflicting_pins_are_empty():
    # bang_a identifies l and r, fold separates them: no diagonal exists
    assert enumerate_fillers(BANG_A, BANG, FOLD, identity_functor(PT)) == []


def test_node_budget_still_caps_every_search(monkeypatch):
    monkeypatch.setattr(category, "SEARCH_NODE_BUDGET", 1)
    category.MEMO.clear()
    # the cross-check turns a capped search into a capped row, and a row
    # that decided nothing quotes its first one, not the presheaf cap
    rows = wfs_cross_check([PT, TWO], [BANG]).checks
    capped = [c.detail for c in rows if c.name == "capped"]
    assert "bang: algebra search for bang ran out of budget" in capped
    skips = {c.name: c.detail for c in rows
             if c.status == SKIP and c.name != "capped"}
    assert skips == {
        "right-class-is-cocomplete": "no item decided; first capped "
        "bang: algebra search for bang ran out of budget",
        "no-spurious-lifters": "no item decided; first capped "
        "bang: functor search for two -> two ran out of budget"}
    u = TVFunctor(PT, TWO, Fn(PT.carrier, TWO.carrier, (1,)), "u")
    with pytest.raises(SizeCapError,
                       match="^filler search for top vs bang ran out"):
        enumerate_fillers(TOP, BANG, u, BANG)
    with pytest.raises(SizeCapError,
                       match="^functor search for two -> two ran out"):
        seed_functors([TWO])
