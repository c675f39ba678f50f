"""Desk-scale corpora: every separated category on a few points, every functor.

Carriers use a fixed label alphabet so that two corpora over the same
quantale agree object-for-object.  Enumeration is a full scan of structure
matrices filtered through the category laws; the only shortcut is that
diagonal entries are drawn from the up-set of the unit, which reflexivity
forces anyway.
"""

import itertools

from .category import (TVCategory, TVFunctor, _structure_maps, check_category,
                       gather, is_separated)
from .core import FinSet, Fn, InputError
from .quantale import VRelation

CORPUS_LABELS = ("a", "b", "c", "d")


def seed_categories(M, max_size: int) -> list:
    """All separated categories with carriers up to max_size, smallest first."""
    if max_size >= len(CORPUS_LABELS):
        raise InputError("corpus carriers stop at %d points"
                         % len(CORPUS_LABELS))
    q = M.q
    diag = [v for v in range(q.n) if q.leq_m[q.unit][v]]
    out = []
    for n in range(max_size + 1):
        X = FinSet(CORPUS_LABELS[:n])
        cells = [diag if i == j else range(q.n)
                 for i in range(n) for j in range(n)]
        kept = 0
        for combo in itertools.product(*cells):
            rel = VRelation(q, X, X,
                            (combo[i * n:(i + 1) * n] for i in range(n)))
            C = TVCategory(M, X, rel, "c%d_%02d" % (n, kept))
            if check_category(C).ok and is_separated(C):
                out.append(C)
                kept += 1
    return out


def seed_functors(cats) -> list:
    """Every functor between every ordered pair of corpus categories."""
    out = []
    for C in cats:
        for D in cats:
            tables = _structure_maps(C, D, "functor search for %s -> %s"
                                     % (C.name, D.name))
            out.extend(TVFunctor(C, D, Fn(C.carrier, D.carrier, table),
                                 "%s>%s#%d" % (C.name, D.name, k))
                       for k, table in enumerate(tables))
    return out


def seed_corpus(M, max_size: int):
    cats = seed_categories(M, max_size)
    return cats, seed_functors(cats)


def _relabelled(rows, p):
    """Byte rows of the square table rows with both indices permuted by p."""
    pick = gather(p)
    return tuple(bytes(pick(rows[i])) for i in p)


def _canonical(C):
    """The least relabelling of C's structure, and every p that reaches it.

    The permutations reaching the minimum form a coset of Aut(C): one for
    most corpus categories, a few for the symmetric ones.
    """
    best, perms = None, []
    for p in itertools.permutations(range(len(C.carrier))):
        rows = _relabelled(C.structure.rows, p)
        if best is None or rows < best:
            best, perms = rows, [p]
        elif rows == best:
            perms.append(p)
    return best, perms


def _arrow_key(f: TVFunctor, src_form, dst_form):
    """arrow_iso_key(f) from the canonical forms of its source and target."""
    (a, sources), (b, targets) = src_form, dst_form
    table = f.fn.table
    least = None
    for pd in targets:
        inv = [0] * len(pd)
        for new, old in enumerate(pd):
            inv[old] = new
        for ps in sources:
            t = tuple(inv[table[i]] for i in ps)
            if least is None or t < least:
                least = t
    return (len(f.src.carrier), len(f.dst.carrier), a, b, least)


def arrow_iso_key(f: TVFunctor):
    """Canonical form of an arrow under relabelling of both carriers.

    Two functors with the same key differ by a pair of bijections, so any
    relabelling-invariant suite (all of the law suites are) has the same
    outcome on both.

    The key is the least (source rows, target rows, table) over every pair
    (ps, pd) of relabellings, compared lexicographically.  Its first part
    is therefore the least relabelled source, reached exactly by the coset
    of permutations `_canonical` returns; among those pairs its second part
    is the least relabelled target, reached by that target's coset; and
    only then is the table minimised, over the product of the two cosets.
    So the key equals the minimum over all ns!*nd! pairs, while each
    carrier is scanned once by itself.
    """
    return _arrow_key(f, _canonical(f.src), _canonical(f.dst))


def iso_representatives(fns) -> list:
    """One functor per relabelling class, first in corpus order wins.

    Each category is canonicalised once per call: its form depends only on
    its structure rows, which key a dict local to the call.
    """
    forms = {}

    def form(C):
        rows = C.structure.rows
        if rows not in forms:
            forms[rows] = _canonical(C)
        return forms[rows]

    seen = set()
    reps = []
    for f in fns:
        k = _arrow_key(f, form(f.src), form(f.dst))
        if k not in seen:
            seen.add(k)
            reps.append(f)
    return reps
