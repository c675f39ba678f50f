"""Set monads with quantale algebras and their lax relation extensions.

Two instances are provided.  `identity` is the trivial monad with the
identity algebra.  `finite_ultrafilter` is the ultrafilter monad: on a
finite carrier every ultrafilter is principal, so the instance records the
natural bijection X = TX, while the genuine computation (maximal proper
filters of the powerset, the Kleisli sum for the multiplication, the join
formula for the algebra) is carried out at small sizes and checked against
the label-level data by the law suite.

Both instances therefore act as the identity on carriers and on maps: TX
is X, Tf is f, m and e are identities, and the algebra xi is the identity
on values.  The defining join-over-spans formula for the lax extension of
r: X -/-> Y then has exactly one span over each pair (x, y), namely (x, y)
itself, so the extension is r and the Kleisli convolution
s . Tr . m_X^op is s . r.  The engine reads structure tables directly and
never transports along T, m, e or xi.  Those live here only: in the law
suite (`check_monad_laws`, which evaluates the general formula
`lax_extend_formula` and checks in its `identity-extension` row that it
fixes r, and `_genuine_ultrafilter_checks`, which compares the concrete
ultrafilters with the principal bijection on carriers up to
`GENUINE_BOUND` points).  `verify-paper` builds one corpus for instances
with equal `MonadInstance.tables`.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import EngineError, FinSet, Fn, InputError, product_finset
from .quantale import Quantale, VRelation, mask_rows
from .report import LawReport

GENUINE_BOUND = 5  # concrete filters are checked on carriers up to this


# ---------------------------------------------------------------------------
# concrete ultrafilter calculus (filters as sets of subsets)
# ---------------------------------------------------------------------------

def subsets(items) -> list[frozenset]:
    items = list(items)
    out = []
    for mask in range(1 << len(items)):
        out.append(frozenset(x for i, x in enumerate(items) if mask >> i & 1))
    return out


def is_filter(family, subs, whole) -> bool:
    if whole not in family:
        return False
    fam = set(family)
    for A in fam:
        for B in subs:
            if A <= B and B not in fam:
                return False
        for B in fam:
            if A & B not in fam:
                return False
    return True


def all_filters(items) -> list[frozenset]:
    """Every filter on the powerset, as up-closures of their least member.

    On a finite powerset every filter is the up-set of the intersection of
    its members, so enumerating up-sets of single subsets is exhaustive;
    `ultrafilters_concrete` additionally cross-checks this at tiny sizes by
    scanning all families of subsets.
    """
    subs = subsets(items)
    whole = frozenset(items)
    fams = []
    for A in subs:
        fam = frozenset(B for B in subs if A <= B)
        if is_filter(fam, subs, whole):
            fams.append(fam)
    return fams


def ultrafilters_concrete(items) -> list[frozenset]:
    """Maximal proper filters on the powerset of `items`.

    At 3 items or fewer, a brute scan over every family of subsets checks
    that the up-closure enumeration of `all_filters` missed no filter.
    """
    items = list(items)
    subs = subsets(items)
    whole = frozenset(items)
    empty = frozenset()
    fams = all_filters(items)
    proper = [F for F in fams if empty not in F]
    maximal = [F for F in proper
               if not any(F < G for G in proper)]
    for F in maximal:
        for B in subs:
            comp = whole - B
            if (B in F) == (comp in F):
                raise EngineError("maximal proper filter is not an ultrafilter")
    if len(items) <= 3:
        # brute scan over every family of subsets: no filter was missed
        found = set()
        for mask in range(1 << len(subs)):
            fam = frozenset(subs[i] for i in range(len(subs)) if mask >> i & 1)
            if fam and is_filter(fam, subs, whole):
                found.add(fam)
        if found != set(fams):
            raise EngineError("up-closure enumeration missed a filter")
    return maximal


def principal_witness(F, items):
    """The generating point of a principal ultrafilter."""
    core = frozenset(items)
    for A in F:
        core = core & A
    if len(core) != 1:
        raise EngineError("ultrafilter is not principal, core %r" % (core,))
    return next(iter(core))


def principal_filter(x, items) -> frozenset:
    return frozenset(A for A in subsets(items) if x in A)


def filter_pushforward(F, mapping, src_items, dst_items) -> frozenset:
    """Image ultrafilter: B is a member iff its preimage is."""
    return frozenset(B for B in subsets(dst_items)
                     if frozenset(x for x in src_items if mapping[x] in B) in F)


def filter_sum(FF, ultras, items) -> frozenset:
    """Multiplication by the Kleisli sum: A is a member iff  {U | A in U}  is."""
    return frozenset(A for A in subsets(items)
                     if frozenset(U for U in ultras if A in U) in FF)


def xi_concrete(q: Quantale, F, vnames) -> int:
    """Algebra value of an ultrafilter on the quantale carrier.

    Join of all v whose up-set (in the quantale order) is a member.
    """
    vals = []
    for v in range(q.n):
        upset = frozenset(vnames[u] for u in range(q.n) if q.leq_m[v][u])
        if upset in F:
            vals.append(v)
    return q.join_all(vals)


# ---------------------------------------------------------------------------
# monad instances
# ---------------------------------------------------------------------------

class MonadInstance:
    """A set monad with a quantale algebra, enumerable on finite carriers.

    Both built-in instances act as the identity on carrier labels (for the
    ultrafilter monad this is the recorded principal-point naming) and
    their algebra is the identity on values, which the engine relies on
    everywhere it reads a structure table directly.  T, m, e and xi are
    kept for the law suite, which checks both facts and the concrete filters.
    """

    def __init__(self, kind: str, q: Quantale):
        self.kind = kind
        self.q = q
        self.xi_table = self._build_xi()

    # -- functor part -------------------------------------------------------

    def T_obj(self, X: FinSet) -> FinSet:
        return X

    def T_fn(self, f: Fn) -> Fn:
        return f

    def unit(self, X: FinSet) -> Fn:
        return Fn(X, self.T_obj(X), range(len(X)))

    def mult(self, X: FinSet) -> Fn:
        TX = self.T_obj(X)
        return Fn(self.T_obj(TX), TX, range(len(TX)))

    # -- algebra part --------------------------------------------------------

    def _build_xi(self) -> tuple[int, ...]:
        q = self.q
        if self.kind == "identity":
            return tuple(range(q.n))
        # genuine evaluation of the join formula at each principal point
        return tuple(q.join_all(w for w in range(q.n) if q.leq_m[w][v])
                     for v in range(q.n))

    def xi_fn(self) -> Fn:
        V = self.q.carrier()
        return Fn(self.T_obj(V), V, self.xi_table)

    def tables(self) -> tuple:
        """xi, and T, m and e on carriers up to GENUINE_BOUND; not the kind."""
        return self.xi_table, tuple(
            (self.T_obj(X).elements, self.mult(X).table, self.unit(X).table)
            for X in _corpus_sets(GENUINE_BOUND))

    # -- presheaf space capability --------------------------------------------

    def presheaf_structure(self, values: Sequence[bytes]) -> list:
        """Byte rows of the structure of a presheaf space with these values.

        Entry (i, j) is hom(phi_i, phi_j), the meet over xx of
        hom(phi_i(xx), phi_j(xx)): both instances are the identity on
        carriers.  By residuation it is the greatest v with
        v (x) phi_i <= phi_j entrywise, which `mask_rows` finds for a whole
        row at once, testing v (x) phi_i(xx) against every phi_j(xx).
        Each phi_i is a byte string of values, one per point xx.
        """
        q = self.q
        return mask_rows(values, q.tensor_codes, q.falling,
                         map(bytes, zip(*values)), q.above, q.bottom,
                         len(values))

    def __eq__(self, other) -> bool:
        """The same kind over the same (interned) quantale object."""
        return isinstance(other, MonadInstance) and self.kind == other.kind \
            and self.q is other.q

    def __hash__(self) -> int:
        return hash((self.kind, id(self.q)))

    def __repr__(self) -> str:
        return "MonadInstance(%s over %r)" % (self.kind, self.q)


def instantiate_monad(kind: str, q: Quantale) -> MonadInstance:
    """The instance of this kind over the quantale q."""
    if kind not in ("identity", "finite_ultrafilter"):
        raise InputError("unknown monad kind %r" % kind)
    return MonadInstance(kind, q)


# ---------------------------------------------------------------------------
# lax extension and Kleisli convolution
# ---------------------------------------------------------------------------

def lax_extend(M: MonadInstance, r: VRelation) -> VRelation:
    """Extend r: X -/-> Y to TX -/-> TY.

    T is the identity on carriers and maps and xi the identity on values,
    so the only span over (x, y) in the defining formula is (x, y) itself
    and the extension is r.  `lax_extend_formula` evaluates the formula
    itself, and the `identity-extension` row of `check_monad_laws` checks
    that it fixes r.
    """
    if r.q is not M.q:
        raise InputError("relation and monad live over different quantales")
    return r


def lax_extend_formula(M: MonadInstance, r: VRelation) -> VRelation:
    """Extend r: X -/-> Y to TX -/-> TY by the defining formula.

    The value at (xx,yy) is the join of xi(Tr~(w)) over all w in T(X x Y)
    projecting to xx and yy, where r~ is r read as a map into the quantale
    carrier.  This is the reference `lax_extend` must agree with; the
    extension laws of `check_monad_laws` evaluate it.
    """
    q = M.q
    if r.q is not q:
        raise InputError("relation and monad live over different quantales")
    X, Y = r.src, r.dst
    XY = product_finset(X, Y)
    nY = len(Y)
    p1 = Fn(XY, X, (i // nY for i in range(len(XY)))) if nY else Fn(XY, X, ())
    p2 = Fn(XY, Y, (i % nY for i in range(len(XY)))) if nY else Fn(XY, Y, ())
    rt = Fn(XY, q.carrier(), (r.rows[i // nY][i % nY] for i in range(len(XY)))) \
        if nY else Fn(XY, q.carrier(), ())
    TX, TY, TXY = M.T_obj(X), M.T_obj(Y), M.T_obj(XY)
    tp1, tp2, trt = M.T_fn(p1), M.T_fn(p2), M.T_fn(rt)
    bot, jm = q.bottom, q.join_m
    rows = [[bot] * len(TY) for _ in range(len(TX))]
    for w in range(len(TXY)):
        i, j = tp1.table[w], tp2.table[w]
        rows[i][j] = jm[rows[i][j]][M.xi_table[trt.table[w]]]
    return VRelation(q, TX, TY, rows)


def kleisli(M: MonadInstance, s: VRelation, r: VRelation, X: FinSet) -> VRelation:
    """Convolution s o r = s . (T r) . (m_X)^op for r: TX -/-> Y, s: TY -/-> Z.

    m_X is the identity, so its transposed graph is the identity relation
    and the convolution is s . (T r).
    """
    TX = M.T_obj(X)
    if r.src is not TX and r.src != TX:
        raise InputError("r must have source T(X); got %r over %r"
                         % (r.src.elements, X.elements))
    if M.T_obj(r.dst) != s.src:
        raise InputError("s must have source T of r's target")
    return s @ lax_extend(M, r)


# ---------------------------------------------------------------------------
# law suite
# ---------------------------------------------------------------------------

def _corpus_sets(limit: int) -> list[FinSet]:
    return [FinSet("x%d" % (i + 1) for i in range(k)) for k in range(limit + 1)]


def _all_fns(A: FinSet, B: FinSet):
    if len(A) == 0:
        yield Fn(A, B, ())
        return
    if len(B) == 0:
        return
    import itertools
    for table in itertools.product(range(len(B)), repeat=len(A)):
        yield Fn(A, B, table)


def _all_relations(q, A, B):
    import itertools
    nb = len(B)
    for combo in itertools.product(range(q.n), repeat=len(A) * nb):
        yield VRelation(q, A, B, (combo[i * nb:(i + 1) * nb] for i in range(len(A))))


def _random_relation(q, A, B, rng) -> VRelation:
    return VRelation(q, A, B, ((rng.randrange(q.n) for _ in B) for _ in A))


def _pullback_image(M: MonadInstance, X: FinSet, Y: FinSet, pairs) -> set:
    """The pairs (T pr1 w, T pr2 w) over all w in T(P).

    P is the pullback whose points are `pairs` of positions in X x Y, and
    pr1, pr2 are its projections.
    """
    P = FinSet("(%s,%s)" % (X.elements[i], Y.elements[j]) for i, j in pairs)
    tp1 = M.T_fn(Fn(P, X, (i for i, j in pairs)))
    tp2 = M.T_fn(Fn(P, Y, (j for i, j in pairs)))
    return {(tp1.table[w], tp2.table[w]) for w in range(len(M.T_obj(P)))}


REL_SAMPLES = 150  # random composable pairs when q has more than 2 values
REL_SEED = 20260814  # draws those pairs; REL_SEED + 1 draws the relation pool


def check_monad_laws(M: MonadInstance, size_limit: int = 3) -> LawReport:
    """Monad, algebra, compatibility and extension laws on small carriers.

    Within one call each distinct object is computed once: every map
    between two carriers with its T-image, T of each distinct pullback
    (keyed by its two carriers and its pairs of points), and
    `lax_extend_formula` of each distinct relation.  A cone point is one
    membership test in the set of T-image pairs.  Nothing outlives the call.
    """
    q = M.q
    rep = LawReport("monad laws: %s over %s" % (M.kind, ",".join(q.elements)))
    sets = _corpus_sets(size_limit)
    V = q.carrier()
    maps: dict = {}
    extensions: dict = {}

    def fns(X, Y) -> dict:
        """Every map X -> Y with its T-image, keyed by table, in scan order."""
        hit = maps.get((X, Y))
        if hit is None:
            hit = maps[X, Y] = {f.table: (f, M.T_fn(f))
                                for f in _all_fns(X, Y)}
        return hit

    def extend(r: VRelation) -> VRelation:
        key = (r.src, r.dst, r.rows)
        hit = extensions.get(key)
        if hit is None:
            hit = extensions[key] = lax_extend_formula(M, r)
        return hit

    # monad unit laws: m . Te = m . eT = id
    bad = None
    for X in sets:
        TX = M.T_obj(X)
        m, e = M.mult(X), M.unit(X)
        if not (m @ M.T_fn(e)).is_identity() or not (m @ M.unit(TX)).is_identity():
            bad = X
            break
    rep.add("unit-laws", bad is None,
            "m.Te = m.eT = id on carriers up to %d" % size_limit if bad is None
            else "fails on %r" % (bad,))

    # monad associativity: m . Tm = m . mT
    bad = None
    for X in sets:
        TX = M.T_obj(X)
        TTX = M.T_obj(TX)
        if (M.mult(X) @ M.T_fn(M.mult(X))) != (M.mult(X) @ M.mult(TX)):
            bad = X
            break
    rep.add("associativity", bad is None,
            "m.Tm = m.mT on carriers up to %d" % size_limit if bad is None
            else "fails on %r" % (bad,))

    # algebra laws
    xi = M.xi_fn()
    ok = (xi @ M.unit(V)).is_identity()
    rep.add("algebra-unit", ok, "xi restricts the unit to the identity"
            if ok else "xi . e_V /= id")
    ok = (xi @ M.T_fn(xi)) == (xi @ M.mult(V))
    rep.add("algebra-multiplication", ok,
            "xi . T(xi) = xi . m_V" if ok else "the algebra square fails")

    # compatibility with the unit element: xi . T(k) is constantly k
    one = FinSet(["*"])
    T1 = M.T_obj(one)
    kfn = Fn(one, V, (q.unit,))
    tk = M.T_fn(kfn)
    bad = next((t for t in range(len(T1)) if M.xi_table[tk.table[t]] != q.unit), None)
    rep.add("unit-compatibility", bad is None,
            "checked for all %d points of T1" % len(T1) if bad is None
            else "witness: %s" % T1.elements[bad])

    # compatibility with the tensor
    VV = product_finset(V, V)
    nv = q.n
    p1 = Fn(VV, V, (i // nv for i in range(len(VV))))
    p2 = Fn(VV, V, (i % nv for i in range(len(VV))))
    mul = Fn(VV, V, (q.tensor_m[i // nv][i % nv] for i in range(len(VV))))
    tp1, tp2, tmul = M.T_fn(p1), M.T_fn(p2), M.T_fn(mul)
    TVV = M.T_obj(VV)
    bad = next((w for w in range(len(TVV))
                if M.xi_table[tmul.table[w]] !=
                q.tensor_m[M.xi_table[tp1.table[w]]][M.xi_table[tp2.table[w]]]),
               None)
    rep.add("tensor-compatibility", bad is None,
            "checked for all %d points of T(VxV)" % len(TVV) if bad is None
            else "witness: %s" % TVV.elements[bad])

    # compatibility with fibrewise joins
    sup_limit = size_limit
    while q.n ** sup_limit > 128 and sup_limit > 1:
        sup_limit -= 1
    xi_t, join_all = M.xi_table, q.join_all
    scanned = 0
    witness = None
    for X in sets[:sup_limit + 1]:
        into_X = fns(X, V).values()
        for Y in sets[:sup_limit + 1]:
            into_Y = fns(Y, V)
            nTY = len(M.T_obj(Y))
            for f, tf in fns(X, Y).values():
                fibres = [[i for i, t in enumerate(f.table) if t == j]
                          for j in range(len(Y))]
                tfibres = [[xx for xx, t in enumerate(tf.table) if t == yy]
                           for yy in range(nTY)]
                for phi, tphi in into_X:
                    # psi is the fibrewise join of phi along f
                    tpsi = into_Y[tuple(join_all(phi.table[i] for i in fibre)
                                        for fibre in fibres)][1]
                    values = [xi_t[t] for t in tphi.table]
                    for yy in range(nTY):
                        lhs = xi_t[tpsi.table[yy]]
                        rhs = join_all(values[xx] for xx in tfibres[yy])
                        scanned += 1
                        if not q.leq_m[lhs][rhs]:
                            witness = (X, Y, f, phi, yy)
                            break
    rep.add("join-compatibility", witness is None,
            "checked %d instances on carriers up to %d" % (scanned, sup_limit)
            if witness is None else "witness: %r" % (witness,))

    # weak pullback preservation on spans of maps
    witness = None
    scanned = 0
    for X in sets:
        nTX = len(M.T_obj(X))
        for Y in sets:
            nTY = len(M.T_obj(Y))
            images: dict = {}  # pullback pairs -> T-image pairs of T(P)
            for Z in sets:
                over = fns(Y, Z).values()
                for f, tf in fns(X, Z).values():
                    for g, tg in over:
                        pairs = tuple((i, j) for i, a in enumerate(f.table)
                                      for j, b in enumerate(g.table) if a == b)
                        image = images.get(pairs)
                        if image is None:
                            image = images[pairs] = \
                                _pullback_image(M, X, Y, pairs)
                        tft, tgt = tf.table, tg.table
                        for xx in range(nTX):
                            for yy in range(nTY):
                                if tft[xx] != tgt[yy]:
                                    continue
                                scanned += 1
                                if (xx, yy) not in image:
                                    witness = (f, g, xx, yy)
    rep.add("weak-pullback-preservation", witness is None,
            "checked %d cone points over all spans on carriers up to %d"
            % (scanned, size_limit) if witness is None
            else "witness: %r" % (witness,))

    # naturality squares of m are weak pullbacks
    witness = None
    scanned = 0
    for X in sets:
        mx = M.mult(X)
        nTX = len(M.T_obj(X))
        nTTX = len(M.T_obj(M.T_obj(X)))
        for Y in sets:
            my = M.mult(Y)
            nTTY = len(M.T_obj(M.T_obj(Y)))
            for f, tf in fns(X, Y).values():
                ttf = M.T_fn(tf)
                image = {(mx.table[w], ttf.table[w]) for w in range(nTTX)}
                for xx in range(nTX):
                    for YY in range(nTTY):
                        if tf.table[xx] != my.table[YY]:
                            continue
                        scanned += 1
                        if (xx, YY) not in image:
                            witness = (f, xx, YY)
    rep.add("multiplication-weak-pullback", witness is None,
            "checked %d cone points on carriers up to %d" % (scanned, size_limit)
            if witness is None else "witness: %r" % (witness,))

    # the extension is a strict functor on relations at this scale
    A = FinSet(["x1", "x2"])
    B = FinSet(["y1", "y2"])
    C = FinSet(["z1", "z2"])
    if q.n == 2:
        composable = ((r, s) for r in _all_relations(q, A, B)
                      for s in _all_relations(q, B, C))
    else:
        rng = random.Random(REL_SEED)
        composable = ((_random_relation(q, A, B, rng),
                       _random_relation(q, B, C, rng))
                      for _ in range(REL_SAMPLES))
    witness = None
    scanned = 0
    for r, s in composable:
        scanned += 1
        if extend(s @ r) != extend(s) @ extend(r):
            witness = (r, s)
    rep.add("extension-functoriality", witness is None,
            "T(s.r) = T(s).T(r) for %d composable pairs" % scanned
            if witness is None else "witness: %r" % (witness,))

    # extension agrees with the functor on graphs of maps
    witness = None
    for X in sets[:3]:
        for Y in sets[:3]:
            for f, tf in fns(X, Y).values():
                if extend(VRelation.from_fn(q, f)) != VRelation.from_fn(q, tf):
                    witness = f
    rep.add("extension-extends-maps", witness is None,
            "T of a graph is the graph of Tf" if witness is None
            else "witness: %r" % (witness,))

    # m is natural, e is op-lax for the extended functor
    witness_m = None
    witness_e = None
    if q.n == 2:
        rel_pool = list(_all_relations(q, A, B))
    else:
        rng = random.Random(REL_SEED + 1)
        rel_pool = [_random_relation(q, A, B, rng) for _ in range(60)]
    m_x = VRelation.from_fn(q, M.mult(A))
    m_y = VRelation.from_fn(q, M.mult(B))
    e_x = VRelation.from_fn(q, M.unit(A))
    e_y = VRelation.from_fn(q, M.unit(B))
    for r in rel_pool:
        ext = extend(r)
        if (m_y @ extend(ext)) != (ext @ m_x):
            witness_m = r
        if not (e_y @ r) <= (ext @ e_x):
            witness_e = r
    rep.add("multiplication-naturality", witness_m is None,
            "m_Y . TTr = Tr . m_X for %d relations" % len(rel_pool)
            if witness_m is None else "witness: %r" % (witness_m,))
    rep.add("unit-oplax", witness_e is None,
            "e_Y . r <= Tr . e_X for %d relations" % len(rel_pool)
            if witness_e is None else "witness: %r" % (witness_e,))

    if M.kind == "finite_ultrafilter":
        _genuine_ultrafilter_checks(M, rep, size_limit)

    # the formula fixes r, which is why lax_extend may return r itself
    bad = next((r for r in rel_pool[:20] if extend(r) != r), None)
    rep.add("identity-extension", bad is None,
            "the extension of the %s instance is the identity" % M.kind
            if bad is None else "witness: %r" % (bad,))
    return rep


def _genuine_ultrafilter_checks(M: MonadInstance, rep: LawReport, limit: int):
    """Replay the label-level data in the concrete filter representation."""
    q = M.q
    bad = None
    for X in _corpus_sets(GENUINE_BOUND):
        # every family of subsets is scanned too on carriers up to 3 points
        ultras = ultrafilters_concrete(X.elements)
        named = [principal_witness(F, X.elements) for F in ultras]
        if (sorted(named) != sorted(X.elements) or len(ultras) != len(X)
                or any(principal_filter(x, X.elements) != F
                       for x, F in zip(named, ultras))):
            bad = ("ultrafilter enumeration does not match the principal "
                   "bijection on %r" % (X.elements,))
            break
    rep.add("ultrafilter-enumeration", bad is None,
            "maximal proper filters are exactly the principal ones on "
            "carriers up to %d" % GENUINE_BOUND if bad is None else bad)
    bound = min(limit, 3)

    # unit, functor action and multiplication transport along the bijection
    bad = None
    for X in _corpus_sets(bound):
        items = list(X.elements)
        ultras = {x: principal_filter(x, items) for x in items}
        e = M.unit(X)
        for x in items:
            if ultras[e(x)] != principal_filter(x, items):
                bad = "unit at %r" % (x,)
        for Y in _corpus_sets(bound):
            for f in _all_fns(X, Y):
                tf = M.T_fn(f)
                for x in items:
                    concrete = filter_pushforward(ultras[x], f.as_dict(),
                                                  items, list(Y.elements))
                    if concrete != principal_filter(f(x), list(Y.elements)):
                        bad = "functor action at %r under %r" % (x, f)
        # multiplication: the Kleisli sum of a principal tower is principal
        tx_list = [ultras[x] for x in items]
        for x in items:
            FF = frozenset(S for S in subsets(tx_list) if ultras[x] in S)
            summed = filter_sum(FF, tx_list, items)
            if summed != ultras[x]:
                bad = "multiplication at %r" % (x,)
    rep.add("ultrafilter-transport", bad is None,
            "unit, maps and Kleisli sums match the principal bijection on "
            "carriers up to %d" % bound if bad is None else bad)

    vnames = q.elements
    bad = None
    for v in range(q.n):
        F = principal_filter(vnames[v], vnames)
        if xi_concrete(q, F, vnames) != M.xi_table[v]:
            bad = "xi at %s" % vnames[v]
    rep.add("ultrafilter-algebra", bad is None,
            "the join formula evaluated on concrete filters matches the table"
            if bad is None else bad)
