"""Comma-object factorisations and the lax orthogonal systems they form.

Every functor f: X -> Y factors through the comma object of the class
space over its source: K(f) collects pairs (presheaf, point) whose direct
image sits below the point's representable.  The left leg is fully
faithful and dense for the class, the right leg carries the canonical
algebra, and together the two halves form an algebraic weak factorisation
system whose fillers are least among all diagonal fillers.
"""

from __future__ import annotations

from .core import (DEFAULT_MAX_SPACE, EngineError, FinSet, Fn, InputError,
                   SizeCapError, ValidationError, pair_label)
from .category import (TVCategory, TVFunctor, _structure_maps,
                       bim_compose, costar, identity_functor,
                       is_fully_faithful, is_functor, is_separated,
                       functor_leq, memoised, star)
from .presheaf import (apply_P, phi_dense, presheaf_space, saturated_class,
                       space_mult, yoneda)
from .quantale import VRelation, line_masks, pair_rows
from .report import FAIL, SKIP, LawReport


class Factorisation:
    """The comma factorisation f = R . L through K(f).

    Fields: f, cls, space (presheaves on the source), K, and the three
    structure functors q (projection to the space), L, R.  The left leg is
    dense on every built factorisation: its extension module is in the
    class, or __init__ raises EngineError.

    The carrier of K(f) is `pairs`, the (phi, y) with P(f) phi <= b(-, y),
    grouped by phi in space order.  Its structure at ((phi', y'), (phi, y))
    is the meet of hom(phi', phi) and b(y', y); `pair_rows` builds it row
    by row from the two structure tables, with no Python step per cell.
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
        pf = apply_P(f, cls, max_space)
        dst_space = presheaf_space(Y, cls, max_space)
        b = Y.structure
        # (phi, y) is a pair when P(f) phi <= b(-, y) entrywise: the value
        # masks of the image lie inside the above-masks of column y
        col_ups = [line_masks(bytes(col[::-1]), q.up_codes)
                   for col in zip(*b.rows)]
        image_masks = dst_space.values.row_masks()
        below = {}
        pairs = []
        for ip, jp in enumerate(pf.fn.table):
            points = below.get(jp)
            if points is None:
                masks = image_masks[jp]
                points = below[jp] = [iy for iy, ups in enumerate(col_ups)
                                      if not masks & ~ups]
            pairs.extend((ip, iy) for iy in points)
        self.pairs = pairs
        self.pair_index = {pr: i for i, pr in enumerate(pairs)}
        carrier = FinSet(pair_label(space.presheaves[ip].name,
                                    Y.carrier.elements[iy])
                         for ip, iy in pairs)
        structure = VRelation(q, carrier, carrier,
                              pair_rows(q, space.category.structure.rows,
                                        b.rows, pairs, q.meet_codes))
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
        # presheaf space of K, which towers cannot afford
        if not cls.contains(star(self.L)):
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
    if (v.fn @ Ff.f.fn) != (Fg.f.fn @ u.fn):
        raise InputError("square (%s, %s) does not commute" % (u.name,
                                                               v.name))
    pu = apply_P(u, Ff.cls, max(Ff.max_space, Fg.max_space))
    table = []
    for ip, iy in Ff.pairs:
        pr = (pu.fn.table[ip], v.fn.table[iy])
        if pr not in Fg.pair_index:
            raise EngineError("comma image of %s under (%s, %s) escapes"
                              % (Ff.K.carrier.elements[len(table)], u.name,
                                 v.name))
        table.append(Fg.pair_index[pr])
    out = TVFunctor(Ff.K, Fg.K, Fn(Ff.K.carrier, Fg.K.carrier, table),
                    "K(%s,%s)" % (u.name, v.name))
    if not is_functor(out.src, out.dst, out.fn):
        raise EngineError("comma action of (%s, %s) is not a functor"
                          % (u.name, v.name))
    return out


# ---------------------------------------------------------------------------
# the two classes
# ---------------------------------------------------------------------------

def coalgebra(F: Factorisation):
    """Canonical coalgebra y -> (y^* . f_*, y), or None when f is not in L."""
    f = F.f
    b = f.dst.structure
    table = []
    for iy in range(len(f.dst.carrier)):
        values = bytes(b.rows[t][iy] for t in f.fn.table)
        ip = F.space.index.get(values)
        if ip is None or (ip, iy) not in F.pair_index:
            return None
        table.append(F.pair_index[(ip, iy)])
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
    """Least algebra structure p: K(g) -> Z, or None.

    The candidates are the functors K(g) -> Z that send each unit pair
    L(g) z to z and lie over the right leg; the least one must also
    satisfy the lax-idempotent algebra inequality id <= L(g) . p.
    """
    cls = cls or saturated_class("all")
    return memoised(("alg", g, cls.name, max_space),
                    lambda: _least_algebra(g, cls, max_space))


def _least_algebra(g: TVFunctor, cls, max_space: int):
    F = comma_factorise(g, cls, max_space)
    K, Z = F.K, g.src
    pinned = {F.L.fn.table[z]: z for z in range(len(Z.carrier))}
    solutions = _structure_maps(K, Z, "algebra search for %s" % g.name,
                                pinned, _fibres(g, F.R.fn.table))
    if not solutions:
        return None
    cands = [TVFunctor(K, Z, Fn(K.carrier, Z.carrier, t), "alg(%s)" % g.name)
             for t in solutions]
    least = None
    for c in cands:
        if all(functor_leq(c, other) for other in cands):
            least = c
            break
    if least is None:
        raise EngineError("algebra candidates for %s have no least element"
                          % g.name)
    if not is_functor(K, Z, least.fn):
        raise EngineError("algebra search for %s produced a non-functor"
                          % g.name)
    ident = identity_functor(K)
    adjoint = {c.fn.table for c in cands if functor_leq(ident, F.L @ c)}
    if len(adjoint) > 1:
        raise EngineError("%s has %d distinct adjoint retractions; algebra "
                          "structure should be unique" % (g.name,
                                                          len(adjoint)))
    if least.fn.table not in adjoint:
        raise EngineError("least algebra of %s fails the lax-idempotent "
                          "inequality" % g.name)
    return least


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def enumerate_fillers(f: TVFunctor, g: TVFunctor, u: TVFunctor,
                      v: TVFunctor):
    """All diagonals d with d.f = u and g.d = v, in table order."""
    if (v.fn @ f.fn) != (g.fn @ u.fn):
        raise InputError("lifting square does not commute")
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


def solve_lifting(f: TVFunctor, g: TVFunctor, u: TVFunctor, v: TVFunctor,
                  cls=None, max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Canonical filler p . K(u,v) . s through both comma objects."""
    cls = cls or saturated_class("all")
    if (v.fn @ f.fn) != (g.fn @ u.fn):
        raise InputError("lifting square does not commute")
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
    d.name = "filler(%s,%s)" % (u.name, v.name)
    return d


# ---------------------------------------------------------------------------
# comonad and monad structure
# ---------------------------------------------------------------------------

def _sigma(F: Factorisation, FL: Factorisation) -> TVFunctor:
    """sigma: K(f) -> K(Lf), kappa -> (kappa^* . (Lf)_*, kappa)."""
    rows = F.K.structure.rows
    lt = F.L.fn.table
    table = []
    for k in range(len(F.K.carrier)):
        values = bytes(rows[t][k] for t in lt)
        ip = F.space.index.get(values)
        if ip is None or (ip, k) not in FL.pair_index:
            raise EngineError("comultiplication pair for %s is outside "
                              "K(L%s)" % (F.K.carrier.elements[k], F.f.name))
        table.append(FL.pair_index[(ip, k)])
    out = TVFunctor(F.K, FL.K, Fn(F.K.carrier, FL.K.carrier, table),
                    "sigma(%s)" % F.f.name)
    if not is_functor(out.src, out.dst, out.fn):
        raise EngineError("comultiplication of %s is not a functor"
                          % F.f.name)
    return out


def _pi(F: Factorisation, FR: Factorisation, cls,
        max_space: int) -> TVFunctor:
    """pi: K(Rf) -> K(f), (Psi, y) -> (mult(P(q) Psi), y)."""
    pq = apply_P(F.q, cls, max_space)
    mu = space_mult(F.f.src, cls, max_space)
    table = []
    for ipsi, iy in FR.pairs:
        pr = (mu.fn.table[pq.fn.table[ipsi]], iy)
        if pr not in F.pair_index:
            raise EngineError("multiplication pair for %s is outside K(%s)"
                              % (FR.K.carrier.elements[len(table)],
                                 F.f.name))
        table.append(F.pair_index[pr])
    out = TVFunctor(FR.K, F.K, Fn(FR.K.carrier, F.K.carrier, table),
                    "pi(%s)" % F.f.name)
    if not is_functor(out.src, out.dst, out.fn):
        raise EngineError("multiplication of %s is not a functor" % F.f.name)
    return out


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
        sig = _sigma(F, FL)
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
        sig_l = _sigma(FL, FLL)
        k_sig = comma_map(FL, FLL, identity_functor(f.src), sig)
        coassoc = (sig_l.fn @ sig.fn) == (k_sig.fn @ sig.fn)
        rep.add("comonad-coassociativity", coassoc,
                "sigma(Lf) . sigma = K(1, sigma) . sigma")
    except SizeCapError as exc:
        rep.skip("comonad-coassociativity", str(exc))

    try:
        FR = comma_factorise(F.R, cls, max_space)
        pi = _pi(F, FR, cls, max_space)
    except SizeCapError as exc:
        return skip_rest(str(exc))
    rep.add("monad-unit-left", (pi.fn @ FR.L.fn) == ident_K,
            "pi . L(Rf) = id")
    k_unit = comma_map(F, FR, F.L, identity_functor(f.dst))
    rep.add("monad-unit-comma", (pi.fn @ k_unit.fn) == ident_K,
            "pi . K(Lf, 1) = id")

    try:
        FRR = comma_factorise(FR.R, cls, max_space)
        pi_r = _pi(FR, FRR, cls, max_space)
        k_pi = comma_map(FRR, FR, pi, identity_functor(f.dst))
        assoc = (pi.fn @ pi_r.fn) == (pi.fn @ k_pi.fn)
        rep.add("monad-associativity", assoc,
                "pi . pi(Rf) = pi . K(pi, 1)")
        FLR = comma_factorise(FR.L, cls, max_space)
        FRL = comma_factorise(FL.R, cls, max_space)
        sig_r = _sigma(FR, FLR)
        pi_l = _pi(FL, FRL, cls, max_space)
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
        radj = space_mult(f.src, cls, max_space) @ apply_P(F.q, cls,
                                                           max_space)
        ok_unit = functor_leq(identity_functor(plf.src), radj @ plf)
        ok_counit = functor_leq(plf @ radj, identity_functor(plf.dst))
        rep.add("adjunction", ok_unit and ok_counit,
                "P(Lf) is left adjoint to mult . P(q)")
    except SizeCapError as exc:
        rep.skip("adjunction", str(exc))
    return rep


def _corpus_tally(fns, laws, title, run):
    """Aggregate per-morphism reports into one row per law."""
    rep = LawReport(title)
    order = sorted(fns, key=lambda f: (f.name, f.src.name, f.dst.name,
                                       f.fn.table))
    passed = {name: 0 for name in laws}
    failures = {name: [] for name in laws}
    skips = {name: [] for name in laws}
    for f in order:
        for c in run(f).checks:
            if c.status == FAIL:
                failures[c.name].append("%s: %s" % (f.name, c.detail))
            elif c.status == SKIP:
                skips[c.name].append("%s: %s" % (f.name, c.detail))
            else:
                passed[c.name] += 1
    for name in laws:
        if failures[name]:
            rep.add(name, False, "; ".join(failures[name][:3]))
        elif passed[name] == 0 and skips[name]:
            rep.skip(name, "capped on all %d morphisms (%s)"
                     % (len(skips[name]), skips[name][0]))
        else:
            detail = "held on %d morphisms" % passed[name]
            if skips[name]:
                detail += ", %d capped (%s)" % (len(skips[name]),
                                                skips[name][0])
            rep.add(name, True, detail)
    return rep


def check_awfs_corpus(fns, cls=None,
                      max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """One row per comonad/monad/distributivity law over a morphism corpus."""
    cls = cls or saturated_class("all")
    return _corpus_tally(fns, AWFS_LAWS,
                         "awfs over %d morphisms: %s" % (len(fns), cls.name),
                         lambda f: check_awfs(f, cls, max_space))


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
                        zip(PY.presheaves[pf.fn.table[ip]].values,
                            psi.values))]
        greatest = None
        for c in cands:
            cv = PX.presheaves[c].values
            if all(all(q.leq_m[a][b] for a, b in
                       zip(PX.presheaves[other].values, cv))
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

    bad = []
    for f in fns:
        try:
            member = l_membership(f, cls, max_space)
            if (lari(f, cls, max_space) is not None) != member:
                bad.append(f.name)
        except SizeCapError as exc:
            skipped.append("%s: %s" % (f.name, exc))
            continue
    rep.add("lari-description", not bad,
            "LARI sections exist exactly on the left class (%d functors)"
            % len(fns) if not bad else "failing: %s" % ", ".join(bad))

    bad = []
    for f in fns:
        try:
            F = comma_factorise(f, cls, max_space)
            member = l_membership(f, cls, max_space)
            if (coalgebra(F) is not None) != member:
                bad.append(f.name)
        except SizeCapError as exc:
            skipped.append("%s: %s" % (f.name, exc))
            continue
    rep.add("coalgebra-description", not bad,
            "canonical coalgebras exist exactly on the left class"
            if not bad else "failing: %s" % ", ".join(bad))

    bad = []
    lari_checked = 0
    for f in fns:
        try:
            if not l_membership(f, cls, max_space):
                continue
            F = comma_factorise(f, cls, max_space)
            s = coalgebra(F)
            formula = space_mult(f.src, cls, max_space) \
                @ apply_P(F.q, cls, max_space) @ apply_P(s, cls, max_space)
            section = lari(f, cls, max_space)
            if section is None or section.fn != formula.fn:
                bad.append(f.name)
            lari_checked += 1
        except SizeCapError as exc:
            skipped.append("%s: %s" % (f.name, exc))
    rep.add("lari-formula", not bad,
            "mult . P(q) . P(s) is the LARI section on %d left maps"
            % lari_checked if not bad else "failing: %s" % ", ".join(bad))

    bad = []
    for C in cats:
        try:
            y = yoneda(C, cls, max_space)
            if not l_membership(y, cls, max_space):
                bad.append(C.name)
        except SizeCapError as exc:
            skipped.append("%s: %s" % (C.name, exc))
    rep.add("yoneda-in-left-class", not bad,
            "the unit is in the left class on every corpus object"
            if not bad else "failing: %s" % ", ".join(bad))

    if cls.name != "all":
        full_cls = saturated_class("all")
        bad = []
        members = 0
        for f in fns:
            try:
                if not l_membership(f, cls, max_space):
                    continue
                members += 1
                if not l_membership(f, full_cls, max_space):
                    bad.append(f.name)
            except SizeCapError as exc:
                skipped.append("%s: %s" % (f.name, exc))
        rep.add("submonad-coherence", not bad,
                "all %d class embeddings are fully faithful embeddings"
                % members if not bad else "failing: %s" % ", ".join(bad))

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
    rep.add("fully-faithful-is-full", not bad,
            "order reflection on %d parallel pairs" % pairs
            if not bad else "failing: %s" % ", ".join(bad[:3]))

    for s in skipped:
        rep.skip("capped", s)
    return rep


def check_subspace_fullness(cats, cls,
                            max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Class spaces are full subcategories of the unrestricted space."""
    rep = LawReport("subspace fullness: %s" % cls.name)
    full_cls = saturated_class("all")
    bad = None
    for C in cats:
        sub = presheaf_space(C, cls, max_space)
        amb = presheaf_space(C, full_cls, max_space)
        for i, p in enumerate(sub.presheaves):
            for j, r in enumerate(sub.presheaves):
                ii, jj = amb.lookup(p.values), amb.lookup(r.values)
                if sub.category.structure.rows[i][j] \
                        != amb.category.structure.rows[ii][jj]:
                    bad = "%s at (%s, %s)" % (C.name, p.name, r.name)
    rep.add("full-inclusion", bad is None,
            "inclusion into the full space preserves all homs"
            if bad is None else bad)
    return rep


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


def wfs_cross_check(cats, fns, cls=None, max_space: int = DEFAULT_MAX_SPACE,
                    problem_cap: int = 20000) -> LawReport:
    """Compare the lax system against independent descriptions of L.

    For the unrestricted class the left class must be the fully faithful
    maps (the order embeddings when V = 2); for the representable class it
    must be the maps with an adjoint section; any other class is compared against representable.
    In every case canonical fillers must be least diagonal fillers.
    """
    cls = cls or saturated_class("all")
    rep = LawReport("classical cross-check: %s" % cls.name)

    bad = []
    if cls.name == "all":
        for f in fns:
            if l_membership(f, cls, max_space) != is_fully_faithful(f):
                bad.append(f.name)
        rep.add("left-class-is-embeddings", not bad,
                "left class = order-embeddings on %d maps" % len(fns)
                if not bad else "failing: %s" % ", ".join(bad))
    elif cls.name == "representable":
        for f in fns:
            member = l_membership(f, cls, max_space)
            if member != (_adjoint_section(f) is not None):
                bad.append(f.name)
        rep.add("left-class-is-laris", not bad,
                "left class = maps with an adjoint section, %d maps"
                % len(fns) if not bad else "failing: %s" % ", ".join(bad))
    else:
        ref = saturated_class("representable")
        for f in fns:
            if l_membership(f, cls, max_space) != l_membership(f, ref,
                                                               max_space):
                bad.append(f.name)
        rep.add("left-class-matches-representable", not bad,
                "same membership on %d maps" % len(fns)
                if not bad else "failing: %s" % ", ".join(bad))

    lmaps, rmaps = [], []
    for f in fns:
        if l_membership(f, cls, max_space):
            lmaps.append(f)
        if r_membership(f, cls, max_space) is not None:
            rmaps.append(f)

    bad = []
    problems = 0
    capped = False
    for f in lmaps:
        for g in rmaps:
            for u, v in _commuting_squares(f, g):
                problems += 1
                if problems > problem_cap:
                    capped = True
                    break
                fillers = enumerate_fillers(f, g, u, v)
                if not fillers:
                    bad.append("no filler for %s vs %s" % (f.name, g.name))
                    continue
                d = solve_lifting(f, g, u, v, cls, max_space)
                if not all(functor_leq(d, e) for e in fillers):
                    bad.append("filler for %s vs %s is not least"
                               % (f.name, g.name))
            if capped:
                break
        if capped:
            break
    rep.add("liftings-exist-and-are-least", not bad,
            "%d lifting problems solved, canonical filler least each time"
            "%s" % (problems, " (scan capped)" if capped else "")
            if not bad else "failing: %s" % "; ".join(bad[:3]))

    bad = []
    scanned = 0
    for f in fns:
        if l_membership(f, cls, max_space):
            continue
        scanned += 1
        if not any(not enumerate_fillers(f, g, u, v)
                   for g in rmaps for u, v in _commuting_squares(f, g)):
            bad.append(f.name)
    rep.add("no-spurious-lifters", not bad,
            "all %d non-members fail some lifting at this scale" % scanned
            if not bad else "unexpected lifter: %s" % ", ".join(bad))
    return rep
