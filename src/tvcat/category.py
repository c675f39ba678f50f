"""Categories enriched over a quantale relative to a monad.

A category here is a finite carrier X with a structure relation
a: TX -/-> X that is reflexive against the monad unit and transitive
against the lax extension.  Functors are structure-decreasing maps,
bimodules are relations TX -/-> Y with the two action laws.  The functor
order is defined by pointwise comparison of the induced restriction
modules and cross-checked against the unit formulation.
"""

from __future__ import annotations

from .core import EngineError, FinSet, Fn, InputError, pair_label, product_finset
from .monad import MonadInstance, kleisli, lax_extend
from .quantale import VRelation
from .report import LawReport


class TVCategory:
    """Finite carrier plus structure relation over a monad instance."""

    __slots__ = ("M", "carrier", "tx", "structure", "name")

    def __init__(self, M: MonadInstance, carrier: FinSet,
                 structure: VRelation, name: str = "X"):
        self.M = M
        self.carrier = carrier
        self.tx = M.T_obj(carrier)
        self.structure = structure
        self.name = name
        if structure.q is not M.q:
            raise InputError("structure relation uses a different quantale")
        if structure.src != self.tx or structure.dst != carrier:
            raise InputError("structure must be a relation T(X) -/-> X; got "
                             "%r -/-> %r for carrier %r"
                             % (structure.src.elements, structure.dst.elements,
                                carrier.elements))

    @property
    def q(self):
        return self.M.q

    def hom(self, xx: str, x: str) -> str:
        return self.structure.entry(xx, x)

    def __repr__(self):
        return "TVCategory(%s, %d objects)" % (self.name, len(self.carrier))


def category_from_entries(M: MonadInstance, labels, entries: dict,
                          default=None, name="X") -> TVCategory:
    X = FinSet(labels)
    rel = VRelation.from_entries(M.q, M.T_obj(X), X, entries, default)
    return TVCategory(M, X, rel, name)


def discrete_category(M: MonadInstance, labels, name="X") -> TVCategory:
    """Finest structure: the transposed graph of the unit."""
    X = FinSet(labels)
    return TVCategory(M, X, VRelation.from_fn(M.q, M.unit(X)).T, name)


def check_category(C: TVCategory) -> LawReport:
    M, q, a = C.M, C.q, C.structure
    rep = LawReport("category laws: %s" % C.name)
    e = M.unit(C.carrier)
    bad = next((x for i, x in enumerate(C.carrier)
                if not q.leq_m[q.unit][a.rows[e.table[i]][i]]), None)
    rep.add("reflexivity", bad is None,
            "k <= a(e x, x) for all %d objects" % len(C.carrier)
            if bad is None else "fails at %s" % bad)
    ext = lax_extend(M, a)
    lhs = a @ ext
    rhs = a @ VRelation.from_fn(q, M.mult(C.carrier))
    viol = lhs.first_violation(rhs)
    rep.add("transitivity", viol is None,
            "a . Ta <= a . m checked on all of TTX x X" if viol is None
            else "fails at %s" % (viol,))
    return rep


def same_category(C: TVCategory, D: TVCategory) -> bool:
    """C and D are one category: same monad instance and structure table.

    Carrier labels alone do not decide this: corpus categories with the
    same number of points share labels.
    """
    return C is D or (C.M is D.M and C.structure == D.structure)


def validate_category(C: TVCategory) -> TVCategory:
    rep = check_category(C)
    if not rep.ok:
        from .core import ValidationError
        raise ValidationError("not a category: %s" % "; ".join(
            "%s (%s)" % (c.name, c.detail) for c in rep.failures))
    return C


class TVFunctor:
    __slots__ = ("src", "dst", "fn", "name")

    def __init__(self, src: TVCategory, dst: TVCategory, fn: Fn, name="f"):
        if src.M is not dst.M:
            raise InputError("functor endpoints use different monad instances")
        if fn.src != src.carrier or fn.dst != dst.carrier:
            raise InputError("functor map does not match the carriers")
        self.src = src
        self.dst = dst
        self.fn = fn
        self.name = name

    def __call__(self, label: str) -> str:
        return self.fn(label)

    def tfn(self) -> Fn:
        return self.src.M.T_fn(self.fn)

    def __matmul__(self, other: "TVFunctor") -> "TVFunctor":
        if not same_category(other.dst, self.src):
            raise InputError("cannot compose functors: middle categories differ")
        return TVFunctor(other.src, self.dst, self.fn @ other.fn,
                         "%s.%s" % (self.name, other.name))

    def __eq__(self, other):
        return (isinstance(other, TVFunctor) and self.fn == other.fn
                and same_category(self.src, other.src)
                and same_category(self.dst, other.dst))

    def __hash__(self):
        return hash(self.fn)

    def __repr__(self):
        return "TVFunctor(%s: %s -> %s)" % (self.name, self.src.name, self.dst.name)


def identity_functor(C: TVCategory) -> TVFunctor:
    return TVFunctor(C, C, Fn.identity(C.carrier), "id")


def check_functor(f: TVFunctor) -> LawReport:
    rep = LawReport("functor laws: %s" % f.name)
    a, b = f.src.structure, f.dst.structure
    q = f.src.q
    tf = f.tfn()
    bad = None
    for i in range(len(f.src.tx)):
        for j in range(len(f.src.carrier)):
            if not q.leq_m[a.rows[i][j]][b.rows[tf.table[i]][f.fn.table[j]]]:
                bad = (f.src.tx.elements[i], f.src.carrier.elements[j])
    rep.add("structure-preservation", bad is None,
            "a(xx,x) <= b(Tf xx, f x) on all of TX x X" if bad is None
            else "fails at %s" % (bad,))
    return rep


def is_functor(src: TVCategory, dst: TVCategory, fn: Fn) -> bool:
    a, b = src.structure, dst.structure
    leq = src.q.leq_m
    tf = src.M.T_fn(fn).table
    table = fn.table
    for i, arow in enumerate(a.rows):
        brow = b.rows[tf[i]]
        for j, v in enumerate(arow):
            if not leq[v][brow[table[j]]]:
                return False
    return True


class Bimodule:
    """A relation TX -/-> Y compatible with both category structures."""

    __slots__ = ("src", "dst", "rel", "name")

    def __init__(self, src: TVCategory, dst: TVCategory, rel: VRelation,
                 name="phi"):
        if rel.src != src.tx or rel.dst != dst.carrier:
            raise InputError("bimodule relation must go T(src) -/-> dst")
        self.src = src
        self.dst = dst
        self.rel = rel
        self.name = name

    def __repr__(self):
        return "Bimodule(%s: %s -|-> %s)" % (self.name, self.src.name,
                                             self.dst.name)


def bim_compose(psi: Bimodule, phi: Bimodule) -> VRelation:
    """Convolution of phi: X -|-> Y with psi: Y -|-> Z, as a raw relation."""
    if not same_category(phi.dst, psi.src):
        raise InputError("modules do not share the middle category")
    return kleisli(phi.src.M, psi.rel, phi.rel, phi.src.carrier)


def check_bimodule(phi: Bimodule) -> LawReport:
    rep = LawReport("bimodule laws: %s" % phi.name)
    M = phi.src.M
    a, b, rel = phi.src.structure, phi.dst.structure, phi.rel
    right = kleisli(M, rel, a, phi.src.carrier)
    viol = right.first_violation(rel)
    rep.add("right-action", viol is None,
            "phi o a <= phi" if viol is None else "fails at %s" % (viol,))
    left = kleisli(M, b, rel, phi.src.carrier)
    viol = left.first_violation(rel)
    rep.add("left-action", viol is None,
            "b o phi <= phi" if viol is None else "fails at %s" % (viol,))
    return rep


def is_bimodule(src: TVCategory, dst: TVCategory, rel: VRelation) -> bool:
    M = src.M
    return (kleisli(M, rel, src.structure, src.carrier) <= rel
            and kleisli(M, dst.structure, rel, src.carrier) <= rel)


# ---------------------------------------------------------------------------
# graph modules and the functor order
# ---------------------------------------------------------------------------

def costar(f: TVFunctor) -> Bimodule:
    """Restriction module of f: the relation (yy, x) -> b(yy, f x)."""
    b = f.dst.structure
    rows = [[b.rows[i][f.fn.table[j]] for j in range(len(f.src.carrier))]
            for i in range(len(f.dst.tx))]
    rel = VRelation(f.src.q, f.dst.tx, f.src.carrier, rows)
    return Bimodule(f.dst, f.src, rel, f.name + "^*")


def star(f: TVFunctor) -> Bimodule:
    """Extension module of f: the relation (xx, y) -> b(Tf xx, y)."""
    b = f.dst.structure
    tf = f.tfn()
    rows = [b.rows[tf.table[i]] for i in range(len(f.src.tx))]
    rel = VRelation(f.src.q, f.src.tx, f.dst.carrier, rows)
    return Bimodule(f.src, f.dst, rel, f.name + "_*")


def check_graph_adjunction(f: TVFunctor) -> LawReport:
    """star(f) is left adjoint to costar(f) in the module calculus."""
    rep = LawReport("graph modules: %s" % f.name)
    M = f.src.M
    lo, hi = star(f), costar(f)
    unit_side = kleisli(M, hi.rel, lo.rel, f.src.carrier)
    viol = f.src.structure.first_violation(unit_side)
    rep.add("unit", viol is None,
            "a <= f^* o f_*" if viol is None else "fails at %s" % (viol,))
    counit_side = kleisli(M, lo.rel, hi.rel, f.dst.carrier)
    viol = counit_side.first_violation(f.dst.structure)
    rep.add("counit", viol is None,
            "f_* o f^* <= b" if viol is None else "fails at %s" % (viol,))
    return rep


def is_fully_faithful(f: TVFunctor) -> bool:
    a = f.src.structure
    tf = f.tfn()
    b = f.dst.structure
    return all(a.rows[i][j] == b.rows[tf.table[i]][f.fn.table[j]]
               for i in range(len(f.src.tx)) for j in range(len(f.src.carrier)))


def functor_leq(f: TVFunctor, g: TVFunctor) -> bool:
    """f <= g, by comparing restriction modules pointwise.

    f and g must be parallel: the same source and the same target category
    (`same_category`), not just the same carrier labels.  The unit
    formulation (k <= b(e(f x), g x) for every x) is equivalent for valid
    categories and cheaper; both are computed and must agree.
    """
    if not (same_category(f.src, g.src) and same_category(f.dst, g.dst)):
        raise InputError("functor order needs parallel functors")
    by_modules = costar(f).rel <= costar(g).rel
    q, b = f.dst.q, f.dst.structure
    e = f.dst.M.unit(f.dst.carrier)
    by_unit = all(q.leq_m[q.unit][b.rows[e.table[f.fn.table[j]]][g.fn.table[j]]]
                  for j in range(len(f.src.carrier)))
    if by_modules != by_unit:
        raise EngineError("functor order formulations disagree for %s, %s"
                          % (f.name, g.name))
    return by_modules


def underlying_order(C: TVCategory) -> set:
    """Pairs (x,y) with k <= a(e x, y)."""
    e = C.M.unit(C.carrier)
    q, a = C.q, C.structure
    return {(x, y) for i, x in enumerate(C.carrier)
            for j, y in enumerate(C.carrier)
            if q.leq_m[q.unit][a.rows[e.table[i]][j]]}


def is_separated(C: TVCategory) -> bool:
    order = underlying_order(C)
    return not any(x != y and (x, y) in order and (y, x) in order
                   for (x, y) in order)


def separated_quotient(C: TVCategory):
    """Collapse order-equivalent objects; returns (quotient, projection)."""
    order = underlying_order(C)
    rep_of = {}
    reps = []
    for x in C.carrier:
        for r in reps:
            if (x, r) in order and (r, x) in order:
                rep_of[x] = r
                break
        else:
            reps.append(x)
            rep_of[x] = x
    Y = FinSet(reps)
    p = Fn.from_dict(C.carrier, Y, rep_of)
    tp = C.M.T_fn(p)
    q, a = C.q, C.structure
    TY = C.M.T_obj(Y)
    rows = [[q.join_all(a.rows[i][j]
                        for i in range(len(C.tx)) if tp.table[i] == ii
                        for j in range(len(C.carrier)) if p.table[j] == jj)
             for jj in range(len(Y))]
            for ii in range(len(TY))]
    D = TVCategory(C.M, Y, VRelation(q, TY, Y, rows), C.name + "/~")
    return D, TVFunctor(C, D, p, "proj")


# ---------------------------------------------------------------------------
# standing constructions
# ---------------------------------------------------------------------------

def unit_category(M: MonadInstance) -> TVCategory:
    one = FinSet(["*"])
    return TVCategory(M, one, VRelation.from_fn(M.q, M.unit(one)).T, "E")


def v_category(M: MonadInstance) -> TVCategory:
    """The quantale carrier with structure hom(xi(vv), v)."""
    q = M.q
    V = q.carrier()
    TV = M.T_obj(V)
    rows = [[q.hom_m[M.xi_table[i]][j] for j in range(q.n)]
            for i in range(len(TV))]
    return TVCategory(M, V, VRelation(q, TV, V, rows), "V")


def tensor_category(C: TVCategory, D: TVCategory) -> TVCategory:
    """Product carrier with the tensor of the two structures."""
    if C.M is not D.M:
        raise InputError("tensor needs a shared monad instance")
    M, q = C.M, C.q
    XY = product_finset(C.carrier, D.carrier)
    nD = len(D.carrier)
    p1 = Fn(XY, C.carrier, (i // nD for i in range(len(XY)))) if nD \
        else Fn(XY, C.carrier, ())
    p2 = Fn(XY, D.carrier, (i % nD for i in range(len(XY)))) if nD \
        else Fn(XY, D.carrier, ())
    tp1, tp2 = M.T_fn(p1), M.T_fn(p2)
    TXY = M.T_obj(XY)
    a, b = C.structure, D.structure
    rows = [[q.tensor_m[a.rows[tp1.table[w]][j // nD]][b.rows[tp2.table[w]][j % nD]]
             for j in range(len(XY))]
            for w in range(len(TXY))] if nD else [[] for _ in range(len(TXY))]
    return TVCategory(M, XY, VRelation(q, TXY, XY, rows),
                      "%s(x)%s" % (C.name, D.name))


def dual_category(C: TVCategory) -> TVCategory:
    """Carrier TX with the structure induced by the extension and m."""
    M, q = C.M, C.q
    TX = C.tx
    TTX = M.T_obj(TX)
    ext = lax_extend(M, C.structure)
    m = M.mult(C.carrier)
    rows = [[q.join_all(ext.rows[YY][m.table[XX]]
                        for YY in range(len(TTX)) if m.table[YY] == yy)
             for yy in range(len(TX))]
            for XX in range(len(TTX))]
    return TVCategory(M, TX, VRelation(q, TTX, TX, rows), C.name + "^op")


def module_functor_correspondence(Xcat: TVCategory, Ycat: TVCategory,
                                  cap: int = 4096):
    """Scan maps T(X) x Y -> V: bimodule laws hold iff the map is a functor.

    Returns (checked, witness); witness is None when the equivalence held
    for every map, and the scan is skipped (checked = 0) over the cap.
    """
    import itertools
    q = Xcat.q
    M = Xcat.M
    dom = tensor_category(dual_category(Xcat), Ycat)
    cod = v_category(M)
    size = len(Xcat.tx) * len(Ycat.carrier)
    if size and q.n ** size > cap:
        return 0, None
    checked = 0
    for combo in itertools.product(range(q.n), repeat=size):
        rel = VRelation(q, Xcat.tx, Ycat.carrier,
                        (combo[i * len(Ycat.carrier):(i + 1) * len(Ycat.carrier)]
                         for i in range(len(Xcat.tx))))
        fn = Fn(dom.carrier, cod.carrier, combo)
        checked += 1
        if is_bimodule(Xcat, Ycat, rel) != is_functor(dom, cod, fn):
            return checked, rel
    return checked, None


# ---------------------------------------------------------------------------
# aggregate suite
# ---------------------------------------------------------------------------

def check_enriched_calculus(M: MonadInstance, cats, fns) -> LawReport:
    """Calculus identities over a prepared corpus of categories and functors."""
    rep = LawReport("enriched calculus: %s over %s"
                    % (M.kind, ",".join(M.q.elements)))
    bad = [C.name for C in cats if not check_category(C).ok]
    rep.add("corpus-categories", not bad,
            "%d categories pass their laws" % len(cats) if not bad
            else "failing: %s" % ", ".join(bad))
    rep.add("unit-category", check_category(unit_category(M)).ok,
            "the one-object unit is a category")
    rep.add("quantale-category", check_category(v_category(M)).ok,
            "the quantale carrier is a category under hom(xi -, -)")
    bad = [C.name for C in cats if not check_category(dual_category(C)).ok]
    rep.add("duals", not bad, "dual of every corpus category is a category"
            if not bad else "failing: %s" % ", ".join(bad))
    bad = []
    for C in cats:
        for D in cats:
            if len(C.carrier) * len(D.carrier) <= 9:
                if not check_category(tensor_category(C, D)).ok:
                    bad.append("%s(x)%s" % (C.name, D.name))
    rep.add("tensors", not bad, "tensor of corpus pairs is a category"
            if not bad else "failing: %s" % ", ".join(bad))
    bad = [f.name for f in fns if not check_functor(f).ok]
    rep.add("corpus-functors", not bad,
            "%d functors preserve structure" % len(fns) if not bad
            else "failing: %s" % ", ".join(bad))
    bad = []
    for f in fns:
        sub = check_bimodule(star(f))
        sub.merge(check_bimodule(costar(f)), prefix="costar")
        sub.merge(check_graph_adjunction(f), prefix="adj")
        if not sub.ok:
            bad.append(f.name)
    rep.add("graph-modules", not bad,
            "f_* and f^* are modules and adjoint for all corpus functors"
            if not bad else "failing: %s" % ", ".join(bad))
    bad = []
    for f in fns:
        composite = bim_compose(costar(f), star(f))
        if (composite == f.src.structure) != is_fully_faithful(f):
            bad.append(f.name)
    rep.add("fully-faithful", not bad,
            "pointwise equality matches f^* o f_* = a on all corpus functors"
            if not bad else "failing: %s" % ", ".join(bad))
    bad = []
    count = 0
    for f in fns:
        tf = f.tfn()
        for g in fns:
            if same_category(g.src, f.dst):          # star(g) after f
                shortcut = VRelation(f.src.q, f.src.tx, g.dst.carrier,
                                     (star(g).rel.rows[tf.table[i]]
                                      for i in range(len(f.src.tx))))
                if bim_compose(star(g), star(f)) != shortcut:
                    bad.append("%s o %s" % (g.name, f.name))
                count += 1
            if same_category(g.dst, f.dst):          # costar(f) after star(g)
                phi = star(g)
                shortcut = VRelation(f.src.q, g.src.tx, f.src.carrier,
                                     ((phi.rel.rows[w][f.fn.table[x]]
                                       for x in range(len(f.src.carrier)))
                                      for w in range(len(g.src.tx))))
                if bim_compose(costar(f), phi) != shortcut:
                    bad.append("%s^* o %s" % (f.name, g.name))
                count += 1
    rep.add("module-shortcuts", not bad,
            "psi o f_* = psi.Tf and f^* o phi = f'.phi on %d composites" % count
            if not bad else "failing: %s" % ", ".join(bad[:4]))
    count = 0
    order_fail = None
    for f in fns:
        for g in fns:
            if same_category(f.src, g.src) and same_category(f.dst, g.dst):
                try:
                    functor_leq(f, g)
                except EngineError:
                    order_fail = (f.name, g.name)
                count += 1
    rep.add("functor-order", order_fail is None,
            "module and unit formulations agree on %d parallel pairs" % count
            if order_fail is None else "disagree on %s" % (order_fail,))
    scanned = 0
    witness = None
    for C in cats:
        for D in cats:
            n, w = module_functor_correspondence(C, D, cap=1024)
            scanned += n
            if w is not None:
                witness = (C.name, D.name)
    rep.add("module-functor-correspondence", witness is None,
            "equivalence checked for %d candidate maps" % scanned
            if witness is None else "fails on %s" % (witness,))
    return rep
