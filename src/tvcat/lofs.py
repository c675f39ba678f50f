"""Comma-object factorisations and the lax orthogonal systems they form.

Every functor f: X -> Y factors through the comma object of the class
space over its source: K(f) collects pairs (presheaf, point) whose direct
image sits below the point's representable.  The left leg is fully
faithful and dense for the class, the right leg carries the canonical
algebra, and together the two halves form an algebraic weak factorisation
system whose fillers are least among all diagonal fillers.

Each kind of tower map has one builder.  The comultiplication sigma is the
canonical coalgebra of the free left map L(f).  Every other map into a
comma object, K(u, v) and the multiplication pi, sends each point to a
pair (phi, y) and goes through one lookup, `_into_comma`.  The maps
mult . P(g) that pi, the simplicity adjoint and the LARI formula need are
the one Yoneda extension of `presheaf.mult_P`, which also gives P(f).
"""

from __future__ import annotations

from itertools import islice

from .core import (DEFAULT_MAX_SPACE, EngineError, FinSet, Fn, InputError,
                   SizeCapError, ValidationError, pair_label)
from . import presheaf
from .category import (TVCategory, TVFunctor, _structure_maps, bim_compose,
                       checked_functor, costar, identity_functor,
                       is_fully_faithful, is_functor, is_separated,
                       functor_leq, memo_scope, memoised, shares_corners,
                       star)
from .presheaf import (apply_P, mult_P, phi_dense, presheaf_space,
                       saturated_class, yoneda)
from .quantale import VRelation, least_upper_bound, line_code, pair_rows
from .report import FAIL, SKIP, LawReport, decide


class Factorisation:
    """The comma factorisation f = R . L through K(f).

    Fields: f, cls, space (presheaves on the source), K, and the three
    structure functors q (projection to the space), L, R.  The left leg is
    dense on every built factorisation: its extension module is in the
    class, or __init__ raises EngineError.

    The carrier of K(f) is `pairs`, the (phi, y) with P(f) phi <= b(-, y),
    grouped by phi in space order; its labels "(phi,y)" are spelled when
    first read.  All images P(f) phi = phi . f^* come
    from one relation product over the space of the source, and each is
    compared with the columns of b: no presheaf space over the target is
    built.  The structure of K(f) at ((phi', y'), (phi, y)) is the meet of
    hom(phi', phi) and b(y', y); `pair_rows` builds it row by row from the
    two structure tables, with no Python step per cell.
    """

    __slots__ = ("f", "cls", "max_space", "space", "K", "pairs",
                 "pair_index", "q", "L", "R")

    def __init__(self, f: TVFunctor, cls, max_space: int):
        self.f = f
        self.cls = cls
        self.max_space = max_space
        X, Y = f.src, f.dst
        q = X.q
        space = presheaf_space(X, cls, max_space)
        self.space = space
        b = Y.structure
        # (phi, y) is a pair when P(f) phi <= b(-, y) entrywise: the
        # down-set codes of the image lie inside those of column y
        col_codes = [line_code(q, bytes(col)) for col in zip(*b.rows)]
        images = costar(f).rel.T @ space.values         # PX -/-> Y
        below = {}
        pairs = []
        for ip, row in enumerate(images.rows):
            points = below.get(row)
            if points is None:
                code = line_code(q, row)
                points = below[row] = [iy for iy, up in enumerate(col_codes)
                                       if not code & ~up]
            pairs.extend((ip, iy) for iy in points)
        # the structure of K(f) has a cell per two pairs, as the structure
        # of a space has per two presheaves: one work budget for both
        if len(pairs) ** 2 > presheaf.STRUCTURE_WORK_CAP:
            raise SizeCapError("comma object of %s has %d pairs: its "
                               "structure is past the work budget"
                               % (f.name, len(pairs)))
        self.pairs = pairs
        self.pair_index = {pr: i for i, pr in enumerate(pairs)}
        labels, points = space.carrier, Y.carrier
        carrier = FinSet.spelled_on_read(len(pairs), lambda: (
            pair_label(labels[ip], points[iy]) for ip, iy in pairs))
        structure = VRelation(q, carrier, carrier,
                              pair_rows(q, space.category.structure.rows,
                                        b.rows, pairs))
        self.K = TVCategory(X.M, carrier, structure, "K(%s)" % f.name)
        self.q = TVFunctor(self.K, space.category,
                           Fn(carrier, space.carrier,
                              (ip for ip, _ in pairs)), "q")
        self.R = TVFunctor(self.K, Y,
                           Fn(carrier, Y.carrier, (iy for _, iy in pairs)),
                           "R(%s)" % f.name)
        y = yoneda(X, cls, max_space)
        ltable = []
        for j in range(len(X.carrier)):
            pr = (y.fn.table[j], f.fn.table[j])
            if pr not in self.pair_index:
                raise EngineError("unit pair of %s is outside the comma "
                                  "carrier" % X.carrier.elements[j])
            ltable.append(self.pair_index[pr])
        self.L = TVFunctor(X, self.K, Fn(X.carrier, carrier, ltable),
                           "L(%s)" % f.name)
        if (self.R.fn @ self.L.fn) != f.fn:
            raise EngineError("comma legs do not compose to %s" % f.name)
        if (self.q.fn @ self.L.fn) != y.fn:
            raise EngineError("left leg of %s does not project to yoneda"
                              % f.name)
        if not is_fully_faithful(self.L):
            raise EngineError("left leg of %s is not fully faithful" % f.name)
        if not is_separated(self.K):
            raise EngineError("comma object of %s is not separated" % f.name)
        # density by definition (extension module in the class); the
        # restriction cross-check lives in phi_dense and would force the
        # presheaf space of K, which towers cannot afford.  L is fully
        # faithful, so star(L) is a bimodule and the class-only part,
        # `admits`, decides membership
        if not cls.admits(star(self.L)):
            raise EngineError("left leg of %s is not %s-dense"
                              % (f.name, cls.name))

    def __repr__(self):
        return "Factorisation(%s through %d pairs)" % (self.f.name,
                                                       len(self.pairs))


def comma_factorise(f: TVFunctor, cls=None,
                    max_space: int = DEFAULT_MAX_SPACE) -> Factorisation:
    cls = cls or saturated_class("all")
    return memoised(("fact", f, cls.name, max_space),
                    lambda: Factorisation(f, cls, max_space))


def comma_map(Ff: Factorisation, Fg: Factorisation, u: TVFunctor,
              v: TVFunctor) -> TVFunctor:
    """K(u, v) for a commuting square (u, v): f -> g."""
    _check_lifting_square(Ff.f, Fg.f, u, v)
    pu = apply_P(u, Ff.cls, max(Ff.max_space, Fg.max_space)).fn.table
    vt = v.fn.table
    return _into_comma(Ff.K, Fg, [(pu[ip], vt[iy]) for ip, iy in Ff.pairs],
                       "K(%s,%s)" % (u.name, v.name))


def _into_comma(C: TVCategory, F: Factorisation, pairs: list,
                name: str) -> TVFunctor:
    """The functor C -> K(f) that sends point i of C to the pair pairs[i].

    Raises EngineError when some pair is not in K(f), or when the map is
    not a functor.
    """
    index = F.pair_index
    table = [index.get(pr) for pr in pairs]
    if None in table:
        raise EngineError("%s sends %s outside %s"
                          % (name, C.carrier.elements[table.index(None)],
                             F.K.name))
    return checked_functor(C, F.K, table, name)


# ---------------------------------------------------------------------------
# the two classes
# ---------------------------------------------------------------------------

def coalgebra(F: Factorisation):
    """Canonical coalgebra y -> (y^* . f_*, y), or None when f is not in L.

    The presheaf y^* . f_* is column y of f_*.
    """
    f = F.f
    index, pair_index = F.space.index, F.pair_index
    table = []
    for iy, values in enumerate(star(f).rel.T.rows):
        k = pair_index.get((index.get(values), iy))
        if k is None:
            return None
        table.append(k)
    fn = Fn(f.dst.carrier, F.K.carrier, table)
    if not (F.R.fn @ fn).is_identity() or (fn @ f.fn) != F.L.fn \
            or not is_functor(f.dst, F.K, fn):
        return None
    return TVFunctor(f.dst, F.K, fn, "coalg(%s)" % f.name)


def l_membership(f: TVFunctor, cls=None,
                 max_space: int = DEFAULT_MAX_SPACE) -> bool:
    """f is in the left class: fully faithful and dense for the class."""
    return is_fully_faithful(f) and phi_dense(
        f, cls or saturated_class("all"), max_space)


def _fibres(g: TVFunctor, over) -> list:
    """For each point y of over, the bitmask of the points z with g z = y."""
    masks = {}
    for z, y in enumerate(g.fn.table):
        masks[y] = masks.get(y, 0) | 1 << z
    return [masks.get(y, 0) for y in over]


def r_membership(g: TVFunctor, cls=None,
                 max_space: int = DEFAULT_MAX_SPACE):
    """The algebra structure p: K(g) -> Z of g, or None when g is not in R.

    The monad is lax idempotent, so an algebra is a left adjoint retraction
    of the unit L(g) (Kock 1995), fixed pointwise by Z(p k, z) = K(g)(k,
    L(g) z): row k of K(g) read at the unit columns is the row of p k in Z.
    Z is separated, so that row names one point; g is in R when every row
    is found and p k lies over R(g) k.
    """
    cls = cls or saturated_class("all")
    return memoised(("alg", g, cls.name, max_space),
                    lambda: _algebra(comma_factorise(g, cls, max_space)))


def _algebra(F: Factorisation):
    g, K, Z, units = F.f, F.K, F.f.src, F.L.fn.table
    points = {row: z for z, row in enumerate(Z.structure.rows)}
    table = []
    for row, (_, y) in zip(K.structure.rows, F.pairs):
        z = points.get(bytes(map(row.__getitem__, units)))
        if z is None or g.fn.table[z] != y:
            return None
        table.append(z)
    return checked_functor(K, Z, table, "alg(%s)" % g.name)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def enumerate_fillers(f: TVFunctor, g: TVFunctor, u: TVFunctor,
                      v: TVFunctor):
    """All diagonals d with d.f = u and g.d = v, in table order."""
    _check_lifting_square(f, g, u, v)
    B, Z = f.dst, g.src
    pinned = {}
    for ia in range(len(f.src.carrier)):
        ib, iz = f.fn.table[ia], u.fn.table[ia]
        if pinned.setdefault(ib, iz) != iz:
            return []
    tables = _structure_maps(B, Z, "filler search for %s vs %s"
                             % (f.name, g.name), pinned,
                             _fibres(g, v.fn.table))
    return [TVFunctor(B, Z, Fn(B.carrier, Z.carrier, t), "filler")
            for t in tables]


def _check_lifting_square(f: TVFunctor, g: TVFunctor, u: TVFunctor,
                          v: TVFunctor) -> None:
    """InputError unless (u, v) is a commuting square from f to g."""
    if not shares_corners(f, g, u, v):
        raise InputError("lifting square (%s, %s) does not share its corners "
                         "with %s and %s" % (u.name, v.name, f.name, g.name))
    if (v.fn @ f.fn) != (g.fn @ u.fn):
        raise InputError("lifting square does not commute")


def solve_lifting(f: TVFunctor, g: TVFunctor, u: TVFunctor, v: TVFunctor,
                  cls=None, max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Canonical filler p . K(u,v) . s through both comma objects.

    The functor lies between this call's own categories and is named
    after this call's square.
    """
    cls = cls or saturated_class("all")
    _check_lifting_square(f, g, u, v)
    table = _canonical_filler(f, g, u, v, cls, max_space)
    return TVFunctor(f.dst, g.src, Fn(f.dst.carrier, g.src.carrier, table),
                     "filler(%s,%s)" % (u.name, v.name))


def _canonical_filler(f, g, u, v, cls, max_space: int) -> tuple:
    Ff = comma_factorise(f, cls, max_space)
    s = coalgebra(Ff)
    if s is None:
        raise ValidationError("%s is not in the left class" % f.name)
    p = r_membership(g, cls, max_space)
    if p is None:
        raise ValidationError("%s is not in the right class" % g.name)
    Fg = comma_factorise(g, cls, max_space)
    d = p @ comma_map(Ff, Fg, u, v) @ s
    if (d.fn @ f.fn) != u.fn or (g.fn @ d.fn) != v.fn:
        raise EngineError("canonical filler of (%s, %s) does not fill"
                          % (u.name, v.name))
    return d.fn.table


# ---------------------------------------------------------------------------
# comonad and monad structure
# ---------------------------------------------------------------------------

def _sigma(FL: Factorisation) -> TVFunctor:
    """sigma: K(f) -> K(Lf), the canonical coalgebra of L(f)."""
    s = coalgebra(FL)
    if s is None:
        raise EngineError("%s has no canonical coalgebra" % FL.f.name)
    return s


def _presheaf_rows(PX, Z: FinSet, g) -> VRelation:
    """The relation Z -/-> X whose row z is the presheaf g z of PX."""
    return VRelation(PX.base.q, Z, PX.base.carrier,
                     (PX.presheaves[i] for i in g))


def _pi(F: Factorisation, FR: Factorisation) -> TVFunctor:
    """pi: K(Rf) -> K(f), (Psi, y) -> (mult(P(q) Psi), y)."""
    mults = mult_P(_presheaf_rows(F.space, F.K.carrier, F.q.fn.table),
                   FR.space, F.space)
    return _into_comma(FR.K, F, [(mults[ip], iy) for ip, iy in FR.pairs],
                       "pi(%s)" % F.f.name)


AWFS_LAWS = ("comonad-counit-right", "comonad-counit-comma",
             "comonad-coassociativity", "monad-unit-left",
             "monad-unit-comma", "monad-associativity",
             "distributivity-1", "distributivity-2")


def check_awfs(f: TVFunctor, cls=None,
               max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Comonad, monad, and both distributive laws at one morphism.

    Every law in AWFS_LAWS gets exactly one row; rows whose towers do not
    fit under the size caps are skips, never silent omissions.
    """
    cls = cls or saturated_class("all")
    rep = LawReport("awfs laws at %s" % f.name)

    def skip_rest(reason):
        done = {c.name for c in rep.checks}
        for name in AWFS_LAWS:
            if name not in done:
                rep.skip(name, reason)
        return rep

    try:
        F = comma_factorise(f, cls, max_space)
        FL = comma_factorise(F.L, cls, max_space)
        sig = _sigma(FL)
    except SizeCapError as exc:
        return skip_rest(str(exc))

    ident_K = Fn.identity(F.K.carrier)
    rep.add("comonad-counit-right", (FL.R.fn @ sig.fn) == ident_K,
            "R(Lf) . sigma = id")
    k_counit = comma_map(FL, F, identity_functor(f.src), F.R)
    rep.add("comonad-counit-comma", (k_counit.fn @ sig.fn) == ident_K,
            "K(1, Rf) . sigma = id")
    coassoc = None
    try:
        FLL = comma_factorise(FL.L, cls, max_space)
        sig_l = _sigma(FLL)
        k_sig = comma_map(FL, FLL, identity_functor(f.src), sig)
        coassoc = (sig_l.fn @ sig.fn) == (k_sig.fn @ sig.fn)
        rep.add("comonad-coassociativity", coassoc,
                "sigma(Lf) . sigma = K(1, sigma) . sigma")
    except SizeCapError as exc:
        rep.skip("comonad-coassociativity", str(exc))

    try:
        FR = comma_factorise(F.R, cls, max_space)
        pi = _pi(F, FR)
    except SizeCapError as exc:
        return skip_rest(str(exc))
    rep.add("monad-unit-left", (pi.fn @ FR.L.fn) == ident_K,
            "pi . L(Rf) = id")
    k_unit = comma_map(F, FR, F.L, identity_functor(f.dst))
    rep.add("monad-unit-comma", (pi.fn @ k_unit.fn) == ident_K,
            "pi . K(Lf, 1) = id")

    try:
        FRR = comma_factorise(FR.R, cls, max_space)
        pi_r = _pi(FR, FRR)
        k_pi = comma_map(FRR, FR, pi, identity_functor(f.dst))
        assoc = (pi.fn @ pi_r.fn) == (pi.fn @ k_pi.fn)
        rep.add("monad-associativity", assoc,
                "pi . pi(Rf) = pi . K(pi, 1)")
        FLR = comma_factorise(FR.L, cls, max_space)
        FRL = comma_factorise(FL.R, cls, max_space)
        sig_r = _sigma(FLR)
        pi_l = _pi(FL, FRL)
        k_mixed = comma_map(FLR, FRL, sig, pi)
        mixed = (pi_l.fn @ k_mixed.fn @ sig_r.fn) == (sig.fn @ pi.fn)
        rep.add("distributivity-1", mixed and assoc,
                "domain pi(Lf) . K(sigma, pi) . sigma(Rf) = sigma . pi, "
                "codomain the monad square")
        if coassoc is None:
            rep.skip("distributivity-2", "comonad tower was capped")
        else:
            rep.add("distributivity-2", mixed and coassoc,
                    "domain the comonad square, codomain the mixed square")
    except SizeCapError as exc:
        return skip_rest(str(exc))
    return rep


SIMPLICITY_LAWS = ("module-identity", "adjunction")


def check_simplicity(f: TVFunctor, cls=None,
                     max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """The left leg's module identity and its adjoint description."""
    cls = cls or saturated_class("all")
    rep = LawReport("simplicity at %s" % f.name)
    try:
        F = comma_factorise(f, cls, max_space)
        lhs = star(F.L).rel
        y = yoneda(f.src, cls, max_space)
        rhs = bim_compose(costar(F.q), star(y))
    except SizeCapError as exc:
        rep.skip("module-identity", str(exc))
        rep.skip("adjunction", str(exc))
        return rep
    rep.add("module-identity", lhs == rhs,
            "(Lf)_* = q^* . y_*" if lhs == rhs
            else "module identity fails: %s" % (lhs.first_violation(rhs)
                                                or rhs.first_violation(lhs),))
    try:
        plf = apply_P(F.L, cls, max_space)
        PK = presheaf_space(F.K, cls, max_space)
        Q = _presheaf_rows(F.space, F.K.carrier, F.q.fn.table)
        radj = checked_functor(PK.category, F.space.category,
                               mult_P(Q, PK, F.space), "mult.P(q)")
        ok_unit = functor_leq(identity_functor(plf.src), radj @ plf)
        ok_counit = functor_leq(plf @ radj, identity_functor(plf.dst))
        rep.add("adjunction", ok_unit and ok_counit,
                "P(Lf) is left adjoint to mult . P(q)")
    except SizeCapError as exc:
        rep.skip("adjunction", str(exc))
    return rep


def _corpus_tally(fns, laws, title, run):
    """One `decide` row per law over the morphisms' reports from run."""
    rep, skipped = LawReport(title), []
    order = sorted(fns, key=lambda f: (f.name, f.src.name, f.dst.name,
                                       f.fn.table))
    reports = {f: {c.name: c for c in run(f).checks} for f in order}
    for name in laws:
        def law(f):
            c = reports[f][name]
            if c.status == SKIP:
                raise SizeCapError("%s: %s" % (name, c.detail))
            return ["%s: %s" % (f.name, c.detail)] if c.status == FAIL else []
        bad, count = decide(order, law, skipped)
        rep.tally(name, bad[:3], count, "held on {} morphisms")
    return rep.capped(skipped)


def check_awfs_corpus(fns, cls=None,
                      max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """One row per comonad/monad/distributivity law over a morphism corpus;
    each morphism's tower lives for its own `check_awfs` only."""
    cls = cls or saturated_class("all")

    def run(f):
        with memo_scope():
            return check_awfs(f, cls, max_space)
    return _corpus_tally(fns, AWFS_LAWS,
                         "awfs over %d morphisms: %s" % (len(fns), cls.name),
                         run)


def check_simplicity_corpus(fns, cls=None,
                            max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Module identity and adjunction rows over a morphism corpus."""
    cls = cls or saturated_class("all")
    return _corpus_tally(
        fns, SIMPLICITY_LAWS,
        "simplicity over %d morphisms: %s" % (len(fns), cls.name),
        lambda f: check_simplicity(f, cls, max_space))


# ---------------------------------------------------------------------------
# the LARI description of the left class
# ---------------------------------------------------------------------------

def lari(f: TVFunctor, cls=None, max_space: int = DEFAULT_MAX_SPACE):
    """Adjoint retraction of the direct image P(f), or None.

    The retraction sends a presheaf on the target to the greatest one
    whose direct image sits below it; f is in the left class exactly
    when this map exists, retracts P(f), and P(f) is left adjoint to it.
    """
    cls = cls or saturated_class("all")
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    pf = apply_P(f, cls, max_space)
    q = f.src.q
    table = []
    for psi in PY.presheaves:
        cands = [ip for ip in range(len(PX))
                 if all(q.leq_m[a][b] for a, b in
                        zip(PY.presheaves[pf.fn.table[ip]], psi))]
        greatest = None
        for c in cands:
            cv = PX.presheaves[c]
            if all(all(q.leq_m[a][b] for a, b in zip(PX.presheaves[other], cv))
                   for other in cands):
                greatest = c
                break
        if greatest is None:
            return None
        table.append(greatest)
    fn = Fn(PY.carrier, PX.carrier, table)
    if not (fn @ pf.fn).is_identity():
        return None
    if not is_functor(PY.category, PX.category, fn):
        return None
    out = TVFunctor(PY.category, PX.category, fn, "lari(%s)" % f.name)
    if not functor_leq(pf @ out, identity_functor(PY.category)):
        return None
    return out


def check_left_class(cats, fns, cls=None,
                     max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Equivalent descriptions of the left class over a corpus."""
    cls = cls or saturated_class("all")
    rep = LawReport("left class: %s" % cls.name)
    skipped = []

    def lari_description(f):
        member = l_membership(f, cls, max_space)
        return [f.name] if (lari(f, cls, max_space) is not None) != member \
            else []
    rep.tally("lari-description", *decide(fns, lari_description, skipped),
              "LARI sections exist exactly on the left class ({} functors)")

    def coalgebra_description(f):
        F = comma_factorise(f, cls, max_space)
        member = l_membership(f, cls, max_space)
        return [f.name] if (coalgebra(F) is not None) != member else []
    rep.tally("coalgebra-description",
              *decide(fns, coalgebra_description, skipped),
              "canonical coalgebras exist exactly on the left class")

    def lari_formula(f):
        if not l_membership(f, cls, max_space):
            return None
        F = comma_factorise(f, cls, max_space)
        s = coalgebra(F)
        if s is None:
            # a member without a canonical coalgebra has no formula to
            # compare: a failure, as in coalgebra-description
            return [f.name]
        PY = presheaf_space(f.dst, cls, max_space)
        QS = _presheaf_rows(F.space, f.dst.carrier, (F.q.fn @ s.fn).table)
        formula = checked_functor(PY.category, F.space.category,
                                  mult_P(QS, PY, F.space), "mult.P(q).P(s)")
        section = lari(f, cls, max_space)
        return [f.name] if section is None or section.fn != formula.fn \
            else []
    rep.tally("lari-formula", *decide(fns, lari_formula, skipped),
              "mult . P(q) . P(s) is the LARI section on {} left maps")

    def yoneda_in_left_class(C):
        y = yoneda(C, cls, max_space)
        return [] if l_membership(y, cls, max_space) else [C.name]
    rep.tally("yoneda-in-left-class",
              *decide(cats, yoneda_in_left_class, skipped),
              "the unit is in the left class on {} corpus objects")

    if cls.name != "all":
        full_cls = saturated_class("all")

        def coherence(f):
            if not l_membership(f, cls, max_space):
                return None
            return [] if l_membership(f, full_cls, max_space) else [f.name]
        rep.tally("submonad-coherence", *decide(fns, coherence, skipped),
                  "all {} class embeddings are fully faithful embeddings")

    # parallel pairs grouped by endpoints so the scan only visits
    # composable candidates
    by_endpoints: dict = {}
    for u in fns:
        by_endpoints.setdefault((u.src, u.dst), []).append(u)
    bad = []
    pairs = 0
    for f in fns:
        if not is_fully_faithful(f):
            continue
        for (_, dst), us in by_endpoints.items():
            if dst != f.src:
                continue
            for u in us:
                for v in us:
                    pairs += 1
                    if functor_leq(f @ u, f @ v) and not functor_leq(u, v):
                        bad.append("%s against (%s, %s)" % (f.name, u.name,
                                                            v.name))
    rep.verdict("fully-faithful-is-full", bad[:3],
                "order reflection on %d parallel pairs" % pairs)
    return rep.capped(skipped)


def check_subspace_fullness(cats, cls,
                            max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Class spaces are full subcategories of the unrestricted space."""
    rep = LawReport("subspace fullness: %s" % cls.name)
    full_cls = saturated_class("all")
    skipped = []

    def full_inclusion(C):
        sub = presheaf_space(C, cls, max_space)
        amb = presheaf_space(C, full_cls, max_space)
        at = [amb.index[p] for p in sub.presheaves]
        names = sub.carrier
        return ["%s at (%s, %s)" % (C.name, names[i], names[j])
                for i, ii in enumerate(at) for j, jj in enumerate(at)
                if sub.category.structure.rows[i][j]
                != amb.category.structure.rows[ii][jj]][:1]
    rep.tally("full-inclusion", *decide(cats, full_inclusion, skipped),
              "inclusion into the full space preserves all homs")
    return rep.capped(skipped)


# ---------------------------------------------------------------------------
# the classical cross-check
# ---------------------------------------------------------------------------

def _maps_between(C: TVCategory, D: TVCategory) -> list:
    return _structure_maps(C, D, "functor search for %s -> %s"
                           % (C.name, D.name))


def _functor(C: TVCategory, D: TVCategory, table) -> TVFunctor:
    return TVFunctor(C, D, Fn(C.carrier, D.carrier, table), "m%s" % (table,))


def _commuting_squares(f: TVFunctor, g: TVFunctor):
    """Every pair of functors (u, v) with v.f = g.u, u-major, in table order.

    The squares are compared on the tables; functors are built only for
    the squares that commute.
    """
    ft, gt = f.fn.table, g.fn.table
    by_image = {}
    for vt in _maps_between(f.dst, g.dst):
        by_image.setdefault(tuple(map(vt.__getitem__, ft)), []).append(vt)
    for ut in _maps_between(f.src, g.src):
        vts = by_image.get(tuple(map(gt.__getitem__, ut)))
        if vts:
            u = _functor(f.src, g.src, ut)
            for vt in vts:
                yield u, _functor(f.dst, g.dst, vt)


def _adjoint_section(f: TVFunctor):
    """A right adjoint to f that f splits, found by exhaustive search."""
    ident_dst = identity_functor(f.dst)
    for t in _maps_between(f.dst, f.src):
        if all(t[j] == i for i, j in enumerate(f.fn.table)):
            g = _functor(f.dst, f.src, t)
            if functor_leq(f @ g, ident_dst):
                return g
    return None


def _least_retraction(g: TVFunctor, cls, max_space: int):
    """The table of the least functor K(g) -> Z over R(g) fixing the units,
    found by exhaustive search; None when there is no least one."""
    F = comma_factorise(g, cls, max_space)
    K, Z = F.K, g.src
    pinned = {F.L.fn.table[z]: z for z in range(len(Z.carrier))}
    cands = [_functor(K, Z, t) for t in _structure_maps(
        K, Z, "algebra search for %s" % g.name, pinned,
        _fibres(g, F.R.fn.table))]
    return next((c.fn.table for c in cands
                 if all(functor_leq(c, d) for d in cands)), None)


def _complete_lattice(C: TVCategory) -> bool:
    """Every subset of C has a join in the underlying order of C: a finite
    order is complete when it has a least element and every binary join."""
    q, n = C.q, len(C.carrier)
    leq = [[q.leq_m[q.unit][v] for v in row] for row in C.structure.rows]
    return least_upper_bound(leq, []) is not None and all(
        least_upper_bound(leq, [a, b]) is not None
        for b in range(n) for a in range(b))


# The lifting scan of `wfs_cross_check` stops after this many problems and
# says so in its row.
LIFTING_PROBLEM_CAP = 20000


def wfs_cross_check(cats, fns, cls=None,
                    max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Compare the lax system against independent descriptions of L and R.

    For the unrestricted class the left class must be the fully faithful
    maps (the order embeddings when V = 2); for the representable class it
    must be the maps with an adjoint section; any other class is compared
    against representable.  `right-class-is-cocomplete` holds each algebra
    against the least retraction of the unit over R(g), found by search,
    and counts the objects Z with Z -> 1 in R (at V = 2 and for all
    weights, the complete lattices).  Canonical fillers must be least.
    Each row decides per map; a map a size cap stops is a capped row.
    """
    cls = cls or saturated_class("all")
    rep = LawReport("classical cross-check: %s" % cls.name)
    skipped = []
    # the left class against its classical description
    ref = saturated_class("representable")
    name, reference, held = {
        "all": ("left-class-is-embeddings", is_fully_faithful,
                "left class = order-embeddings on {} maps"),
        "representable": ("left-class-is-laris",
                          lambda f: _adjoint_section(f) is not None,
                          "left class = maps with an adjoint section, "
                          "{} maps"),
    }.get(cls.name, ("left-class-matches-representable",
                     lambda f: l_membership(f, ref, max_space),
                     "same membership on {} maps"))
    rep.tally(name, *decide(fns, lambda f: [f.name] if l_membership(
        f, cls, max_space) != reference(f) else [], skipped), held)

    algebras = {}
    objects = complete = 0

    def right_class(g):
        nonlocal objects, complete
        p = algebras[g] = r_membership(g, cls, max_space)
        bad = [g.name] if (p and p.fn.table) \
            != _least_retraction(g, cls, max_space) else []
        q = g.src.q
        if g.dst.structure.rows == (bytes([q.top]),):
            # g is Z -> 1: Z is complete when g is in R; for all weights at
            # V = 2, exactly when Z is a complete lattice
            objects += 1
            complete += p is not None
            if cls.name == "all" and q.n == 2 and q.unit == q.top \
                    and (p is not None) != _complete_lattice(g.src):
                bad.append(g.name)
        return bad
    bad, count = decide(fns, right_class, skipped)
    rep.tally("right-class-is-cocomplete", bad, count,
              "algebra = least retraction of the unit on {} maps, %d of %d "
              "objects complete" % (complete, objects))

    # the maps whose right membership was decided, and how many were not
    rmaps = [g for g, p in algebras.items() if p is not None]
    undecided = sum(g not in algebras for g in fns)
    problems, capped = 0, False

    def liftings(f):
        nonlocal problems, capped
        if not l_membership(f, cls, max_space):
            return None
        squares = ((g, u, v) for g in rmaps
                   for u, v in _commuting_squares(f, g))
        bad = []
        for g, u, v in islice(squares, LIFTING_PROBLEM_CAP - problems):
            problems += 1
            fillers = enumerate_fillers(f, g, u, v)
            if not fillers:
                bad.append("no filler for %s vs %s" % (f.name, g.name))
                continue
            d = solve_lifting(f, g, u, v, cls, max_space)
            if not all(functor_leq(d, e) for e in fillers):
                bad.append("filler for %s vs %s is not least"
                           % (f.name, g.name))
        capped = capped or next(squares, None) is not None
        return bad
    bad, count = decide(fns, liftings, skipped)
    # each failure is a phrase, so they are joined with "; "
    rep.tally("liftings-exist-and-are-least",
              ["; ".join(bad[:3])] if bad else [], count,
              "%d lifting problems solved, canonical filler least each time"
              "%s" % (problems, " (scan capped)" if capped else ""))

    def no_lifter(f):
        if l_membership(f, cls, max_space):
            return None
        if not all(enumerate_fillers(f, g, u, v) for g in rmaps
                   for u, v in _commuting_squares(f, g)):
            return []
        if undecided:
            # f lifts against every decided right map; the others may not
            raise SizeCapError("right membership capped on %d maps"
                               % undecided)
        return [f.name]
    rep.tally("no-spurious-lifters", *decide(fns, no_lifter, skipped),
              "all {} non-members fail some lifting at this scale")
    return rep.capped(skipped)
