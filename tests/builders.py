"""Small constructors that only the tests use.

The library builds its categories, relations and maps from tables; these
helpers build them from labels and dicts, which is how tests spell their
inputs.
"""

from tvcat.category import TVCategory
from tvcat.core import FinSet, Fn, InputError
from tvcat.quantale import VRelation


def relation_from_entries(q, src: FinSet, dst: FinSet, entries: dict,
                          default=None) -> VRelation:
    """Build from a ((x,y) -> value) dict; values are indices or names."""
    def ix(v):
        return v if isinstance(v, int) else q.index_of(v)
    rows = []
    for x in src:
        row = []
        for y in dst:
            if (x, y) in entries:
                row.append(ix(entries[(x, y)]))
            elif default is not None:
                row.append(ix(default))
            else:
                raise InputError("missing relation entry (%s,%s) and no "
                                 "default" % (x, y))
        rows.append(row)
    return VRelation(q, src, dst, rows)


def category_from_entries(M, labels, entries: dict, default=None,
                          name="X") -> TVCategory:
    X = FinSet(labels)
    rel = relation_from_entries(M.q, X, X, entries, default)
    return TVCategory(M, X, rel, name)


def discrete_category(M, labels, name="X") -> TVCategory:
    """Finest structure: the identity relation."""
    X = FinSet(labels)
    return TVCategory(M, X, VRelation.identity(M.q, X), name)


def constant_relation(q, src: FinSet, dst: FinSet, v) -> VRelation:
    """The relation with value v (an index or a name) in every cell."""
    if not isinstance(v, int):
        v = q.index_of(v)
    return VRelation(q, src, dst, (bytes((v,)) * len(dst),) * len(src))


def entry(rel: VRelation, x: str, y: str) -> str:
    """The name of rel's value at the labels (x, y)."""
    return rel.q.elements[rel.rows[rel.src.index_of(x)][rel.dst.index_of(y)]]


def pointwise(table, r: VRelation, s: VRelation) -> VRelation:
    """The parallel relation with table[r(x, y)][s(x, y)] in each cell,
    e.g. the meet of r and s for the quantale's meet table."""
    return VRelation(r.q, r.src, r.dst,
                     (bytes(table[a][b] for a, b in zip(ra, rb))
                      for ra, rb in zip(r.rows, s.rows)))


def underlying_order(C: TVCategory) -> set:
    """Label pairs (x,y) with k <= a(e x, y)."""
    q, a = C.q, C.structure
    return {(x, y) for i, x in enumerate(C.carrier)
            for j, y in enumerate(C.carrier)
            if q.leq_m[q.unit][a.rows[i][j]]}


def fn_from_dict(src: FinSet, dst: FinSet, mapping: dict) -> Fn:
    """The map sending each label x of src to the label mapping[x] of dst."""
    missing = [x for x in src if x not in mapping]
    if missing:
        raise InputError("map is not total, missing %r" % (missing,))
    extra = [x for x in mapping if x not in src]
    if extra:
        raise InputError("map mentions elements outside the source: %r"
                         % (extra,))
    return Fn(src, dst, (dst.index_of(mapping[x]) for x in src))
