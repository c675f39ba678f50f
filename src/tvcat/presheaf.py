"""Presheaf spaces, saturated classes, and the presheaf (sub)monads.

A presheaf on X is a bimodule X -|-> E, stored as a tuple of values over
TX.  The space of all presheaves in a class carries a category structure
supplied by the monad instance (hom-meet for the identity instance, its
transport along the principal bijection for the ultrafilter instance) and
is the object part of a lax idempotent monad: unit = Yoneda, action on a
functor f = composition with f^*, multiplication = restriction along the
Yoneda embedding.  Saturated classes cut out submonads; representability
is decided by bounded search, adjointness by a residual candidate with a
bounded exhaustive cross-check.
"""

from __future__ import annotations

import itertools

from .core import (DEFAULT_MAX_SPACE, EngineError, FinSet, Fn, InputError,
                   SizeCapError, ValidationError)
from .category import (Bimodule, TVCategory, TVFunctor, bim_compose,
                       check_bimodule, check_category, check_functor, costar,
                       identity_functor, is_bimodule, is_fully_faithful,
                       is_functor, is_separated, functor_leq, star,
                       underlying_order, unit_category)
from .monad import lax_extend
from .quantale import VRelation, residual_left
from .report import LawReport


class Presheaf:
    """Value tuple over TX, printable as a bracketed list."""

    __slots__ = ("base", "values", "name")

    def __init__(self, base: TVCategory, values):
        self.base = base
        self.values = tuple(values)
        if len(self.values) != len(base.tx):
            raise InputError("presheaf needs one value per element of TX")
        names = base.q.elements
        self.name = "[%s]" % ",".join(names[v] for v in self.values)

    def as_relation(self) -> VRelation:
        one = FinSet(["*"])
        return VRelation(self.base.q, self.base.tx, one,
                         ((v,) for v in self.values))

    def as_bimodule(self) -> Bimodule:
        E = unit_category(self.base.M)
        return Bimodule(self.base, E, self.as_relation(), self.name)

    def __eq__(self, other):
        return (isinstance(other, Presheaf) and self.values == other.values
                and self.base.carrier == other.base.carrier)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "Presheaf(%s)" % self.name


def presheaf_condition_matrix(C: TVCategory):
    """cond[j][i]: the largest factor carrying phi(j) into position i.

    A value tuple is a presheaf exactly when cond[j][i] (x) phi(j) <= phi(i)
    for every ordered pair, which is what the enumeration prunes on.
    """
    M, q = C.M, C.q
    ext = lax_extend(M, C.structure)
    m = M.mult(C.carrier)
    tn = len(C.tx)
    return [[q.join_all(ext.rows[XX][j]
                        for XX in range(len(m.src)) if m.table[XX] == i)
             for i in range(tn)]
            for j in range(tn)]


class _OverCap(SizeCapError):
    """The enumeration found more than `cap` presheaves."""

    def __init__(self, cap: int, tn: int):
        super().__init__("presheaf space exceeds the cap of %d (carrier of %d "
                         "lifted points)" % (cap, tn))
        self.cap = cap


def _enumerate_value_tuples(q, cond, max_space):
    """Every presheaf value tuple, in lexicographic order; raises past the cap.

    Positions are filled left to right.  Once positions j < pos carry values
    w_j, the pair conditions between j and pos read, for a candidate v,

        cond[j][pos] (x) w_j <= v      and      cond[pos][j] (x) v <= w_j,

    and by residuation (c (x) v <= w iff v <= hom(c, w)) the second is
    v <= hom(cond[pos][j], w_j).  So the admissible values at pos are exactly
    domain[pos] cut down to the interval lb <= v <= ub, where
    lb = join_j cond[j][pos] (x) w_j and ub = meet_j hom(cond[pos][j], w_j).

    The search computes that interval as bitmasks over V.  Earlier positions
    with the same (cond[j][pos], cond[pos][j]) pair form one group (an int
    mask of positions), each (pair, w) has a precomputed mask of the values
    between its two bounds, and `carrying[w]` holds the positions now set to
    w.  A node ANDs the masks of the (group, w) whose positions meet: at most
    groups x |V| tests, however many positions come before it.

    Values are tried in increasing index order at every position (set bits
    lowest first), so the tuples come out in lexicographic order, and the
    search stops at the first tuple past `max_space`.
    """
    tn, n = len(cond), q.n
    tensor, leq = q.tensor_m, q.leq_m
    between = {}

    def interval(a, b):
        # per w, the mask of {v : a (x) w <= v and b (x) v <= w}, which by
        # residuation is the interval a (x) w <= v <= hom(b, w)
        if (a, b) not in between:
            between[a, b] = [sum(1 << v for v in range(n)
                                 if leq[tensor[a][w]][v]
                                 and leq[tensor[b][v]][w])
                             for w in range(n)]
        return between[a, b]

    domain = [sum(1 << v for v in range(n)
                  if leq[tensor[cond[pos][pos]][v]][v])
              for pos in range(tn)]
    tests = []
    for pos in range(tn):
        groups = {}
        for j in range(pos):
            pair = (cond[j][pos], cond[pos][j])
            groups[pair] = groups.get(pair, 0) | 1 << j
        # (w, group, mask) for the masks that can cut the domain down; the
        # all-bottom pair and other vacuous ones drop out here
        tests.append([(w, group, mask)
                      for pair, group in groups.items()
                      for w, mask in enumerate(interval(*pair))
                      if mask & domain[pos] != domain[pos]])
    out = []
    chosen = [0] * tn
    carrying = [0] * n

    def extend(pos):
        if pos == tn:
            out.append(tuple(chosen))
            if len(out) > max_space:
                raise _OverCap(max_space, tn)
            return
        allowed = domain[pos]
        for w, group, mask in tests[pos]:
            if carrying[w] & group:
                allowed &= mask
        bit = 1 << pos
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            chosen[pos] = v
            carrying[v] |= bit
            extend(pos + 1)
            carrying[v] ^= bit

    extend(0)
    return out


# ---------------------------------------------------------------------------
# saturated classes
# ---------------------------------------------------------------------------

class SaturatedClass:
    """Named membership predicate on bimodules."""

    def __init__(self, name: str):
        self.name = name

    def contains(self, phi: Bimodule) -> bool:
        raise NotImplementedError

    def __repr__(self):
        return "SaturatedClass(%s)" % self.name


class _All(SaturatedClass):
    def contains(self, phi: Bimodule) -> bool:
        return is_bimodule(phi.src, phi.dst, phi.rel)


# Membership search spaces past this many candidates are refused rather
# than ground through; callers treat the refusal as an honest skip.
MEMBERSHIP_SEARCH_CAP = 16384


class _Representable(SaturatedClass):
    """phi = g^* for some functor g from target to source."""

    def contains(self, phi: Bimodule) -> bool:
        if not is_bimodule(phi.src, phi.dst, phi.rel):
            return False
        X, Y = phi.src, phi.dst
        if len(Y.carrier) and \
                len(X.carrier) ** len(Y.carrier) > MEMBERSHIP_SEARCH_CAP:
            raise SizeCapError("representability scan %d^%d is too large"
                               % (len(X.carrier), len(Y.carrier)))
        for table in itertools.product(range(len(X.carrier)),
                                       repeat=len(Y.carrier)):
            g = Fn(Y.carrier, X.carrier, table)
            if is_functor(Y, X, g) \
                    and costar(TVFunctor(Y, X, g)).rel == phi.rel:
                return True
        return False


# Exhaustive adjoint scans up to this many candidate tables double-check
# the residual decision below; larger instances trust the residual.
ADJOINT_CROSSCHECK_CAP = 64


class _RightAdjoint(SaturatedClass):
    """phi has a left adjoint bimodule in the reverse direction."""

    def contains(self, phi: Bimodule) -> bool:
        from .monad import kleisli
        X, Y = phi.src, phi.dst
        M, q = X.M, X.q
        if not is_bimodule(X, Y, phi.rel):
            return False
        ext_phi = lax_extend(M, phi.rel)
        m_op = VRelation.from_fn(q, M.mult(X.carrier)).T
        left = ext_phi @ m_op              # TX -/-> TY
        # adjoints are unique, and any adjoint satisfies the counit
        # inequality, so the greatest solution (a residual) is the only
        # candidate that needs testing
        lam = residual_left(X.structure, left)
        found = is_bimodule(Y, X, lam) \
            and Y.structure <= kleisli(M, phi.rel, lam, Y.carrier)
        ty, nx = len(Y.tx), len(X.carrier)
        if q.n ** (ty * nx) <= ADJOINT_CROSSCHECK_CAP \
                and found != self._scan(phi, left):
            raise EngineError("adjoint residual disagrees with the "
                              "exhaustive scan for %s -> %s"
                              % (X.name, Y.name))
        return found

    def _scan(self, phi: Bimodule, left: VRelation) -> bool:
        from .monad import kleisli
        X, Y = phi.src, phi.dst
        M, q = X.M, X.q
        ty, nx = len(Y.tx), len(X.carrier)
        for combo in itertools.product(range(q.n), repeat=ty * nx):
            lam = VRelation(q, Y.tx, X.carrier,
                            (combo[i * nx:(i + 1) * nx] for i in range(ty)))
            if not (lam @ left) <= X.structure:
                continue
            if not is_bimodule(Y, X, lam):
                continue
            if Y.structure <= kleisli(M, phi.rel, lam, Y.carrier):
                return True
        return False


_BUILTIN_CLASSES = {
    "all": _All("all"),
    "representable": _Representable("representable"),
    "right_adjoint": _RightAdjoint("right_adjoint"),
    "lawvere": _RightAdjoint("right_adjoint"),     # CLI alias
}


def saturated_class(kind: str) -> SaturatedClass:
    try:
        return _BUILTIN_CLASSES[kind]
    except KeyError:
        raise InputError("unknown class %r (have all, representable, lawvere)"
                         % kind)


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

# Ceiling on the number of cell operations spent building one structure
# matrix; spaces past it raise SizeCapError like oversized carriers do.
# 48M covers the discrete pair over a 4-element chain (|PPX| = 1236) in a
# few seconds; anything bigger is not worth waiting for.
STRUCTURE_WORK_CAP = 48_000_000

# Bases past this size make the pairwise pruning itself quadratic in a way
# that dominates everything else, so refuse early.
ENUM_BASE_CAP = 160


class PresheafSpace:
    """All presheaves on a base category that lie in a saturated class."""

    __slots__ = ("base", "cls", "presheaves", "carrier", "category", "index",
                 "cond")

    def __init__(self, base: TVCategory, cls: SaturatedClass, max_space: int):
        if len(base.tx) > ENUM_BASE_CAP:
            raise SizeCapError("refusing to enumerate presheaves over %d "
                               "lifted points (bound %d)"
                               % (len(base.tx), ENUM_BASE_CAP))
        if not is_separated(base):
            raise ValidationError("presheaf space needs a separated base; "
                                  "%s is not" % base.name)
        e = base.M.unit(base.carrier)
        lax = next((x for i, x in enumerate(base.carrier)
                    if not base.q.leq_m[base.q.unit]
                    [base.structure.rows[e.table[i]][i]]), None)
        if lax is not None:
            raise ValidationError("base %s is not reflexive at %s"
                                  % (base.name, lax))
        self.base = base
        self.cls = cls
        self.cond = presheaf_condition_matrix(base)
        tuples = _enumerate_value_tuples(base.q, self.cond, max_space)
        if cls.name != "all":
            E = unit_category(base.M)
            keep = []
            for values in tuples:
                rel = VRelation(base.q, base.tx, E.carrier,
                                ((v,) for v in values))
                if cls.contains(Bimodule(base, E, rel)):
                    keep.append(values)
            tuples = keep
        if len(tuples) ** 2 * max(1, len(base.tx)) > STRUCTURE_WORK_CAP:
            raise SizeCapError(
                "structure matrix for %d presheaves over %d lifted points "
                "is past the work budget" % (len(tuples), len(base.tx)))
        self.presheaves = [Presheaf(base, v) for v in tuples]
        self.carrier = FinSet(p.name for p in self.presheaves)
        rows = base.M.presheaf_structure(tuples)
        structure = VRelation(base.q, base.M.T_obj(self.carrier),
                              self.carrier, rows)
        self.category = TVCategory(base.M, self.carrier, structure,
                                   "%s(%s)" % (cls.name, base.name))
        self.index = {p.values: i for i, p in enumerate(self.presheaves)}

    def __len__(self):
        return len(self.presheaves)

    def lookup(self, values) -> int:
        return self.index[tuple(values)]

    def __repr__(self):
        return "PresheafSpace(%s, %d presheaves)" % (self.category.name,
                                                     len(self))


# A built space, or the largest cap its enumeration went past.
_SPACE_CACHE: dict = {}


def presheaf_space(C: TVCategory, cls: SaturatedClass | None = None,
                   max_space: int = DEFAULT_MAX_SPACE) -> PresheafSpace:
    cls = cls or _BUILTIN_CLASSES["all"]
    key = (id(C.M), C.carrier.elements, C.structure.rows, cls.name)
    hit = _SPACE_CACHE.get(key)
    if isinstance(hit, int):
        # more than `hit` presheaves, so more than any cap up to it
        if max_space <= hit:
            raise _OverCap(max_space, len(C.tx))
    elif hit is not None:
        if len(hit) > max_space:
            raise SizeCapError("presheaf space has %d elements, over the "
                               "requested cap %d" % (len(hit), max_space))
        return hit
    try:
        space = PresheafSpace(C, cls, max_space)
    except _OverCap as exc:
        _SPACE_CACHE[key] = exc.cap
        raise
    _SPACE_CACHE[key] = space
    return space


def yoneda(C: TVCategory, cls: SaturatedClass | None = None,
           max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """x maps to its covariant hom a(-, x), landing in the class space."""
    space = presheaf_space(C, cls, max_space)
    a = C.structure
    table = []
    for j in range(len(C.carrier)):
        values = tuple(a.rows[i][j] for i in range(len(C.tx)))
        try:
            table.append(space.lookup(values))
        except KeyError:
            raise EngineError(
                "representable %s of %s is missing from %s: the class "
                "predicate is broken" % (C.carrier.elements[j], C.name,
                                         space.category.name))
    return TVFunctor(C, space.category, Fn(C.carrier, space.carrier, table),
                     "yoneda")


def yoneda_lemma_check(C: TVCategory, cls: SaturatedClass | None = None,
                       max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    rep = LawReport("Yoneda lemma on %s" % C.name)
    space = presheaf_space(C, cls, max_space)
    y = yoneda(C, cls, max_space)
    ty = y.tfn()
    ahat = space.category.structure
    bad = None
    for ix in range(len(C.tx)):
        for ip, psi in enumerate(space.presheaves):
            if ahat.rows[ty.table[ix]][ip] != psi.values[ix]:
                bad = (C.tx.elements[ix], psi.name)
    rep.add("evaluation", bad is None,
            "hom(y xx, psi) = psi(xx) on %d pairs"
            % (len(C.tx) * len(space)) if bad is None
            else "fails at %s" % (bad,))
    return rep


# ---------------------------------------------------------------------------
# functorial actions and the multiplication
# ---------------------------------------------------------------------------

def apply_P(f: TVFunctor, cls: SaturatedClass | None = None,
            max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Direct image: compose a presheaf with the restriction module of f."""
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    M, q = f.src.M, f.src.q
    ext = lax_extend(M, costar(f).rel)         # T(TY) -/-> TX
    m = M.mult(f.dst.carrier)
    fibre = [[YY for YY in range(len(m.src)) if m.table[YY] == iy]
             for iy in range(len(f.dst.tx))]
    tensor, join_all = q.tensor_m, q.join_all
    table = []
    for phi in PX.presheaves:
        vals = tuple(
            join_all(tensor[ext.rows[YY][x]][phi.values[x]]
                     for YY in fibre[iy] for x in range(len(f.src.tx)))
            for iy in range(len(f.dst.tx)))
        try:
            table.append(PY.lookup(vals))
        except KeyError:
            raise EngineError("image of %s under the direct-image map "
                              "escapes %s: class predicate is broken"
                              % (phi.name, PY.category.name))
    out = TVFunctor(PX.category, PY.category,
                    Fn(PX.carrier, PY.carrier, table), "P(%s)" % f.name)
    if not is_functor(out.src, out.dst, out.fn):
        raise EngineError("direct image of %s is not a functor" % f.name)
    return out


def apply_P_star(f: TVFunctor, cls: SaturatedClass | None = None,
                 max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Inverse image psi -> psi . Tf; errors if some image leaves the class."""
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    tf = f.tfn()
    table = []
    for psi in PY.presheaves:
        vals = tuple(psi.values[tf.table[ix]] for ix in range(len(f.src.tx)))
        try:
            table.append(PX.lookup(vals))
        except KeyError:
            raise ValidationError(
                "restriction of %s along %s leaves the class %s"
                % (psi.name, f.name, PX.cls.name))
    out = TVFunctor(PY.category, PX.category,
                    Fn(PY.carrier, PX.carrier, table), "P*(%s)" % f.name)
    if not is_functor(out.src, out.dst, out.fn):
        raise EngineError("inverse image of %s is not a functor" % f.name)
    return out


def space_mult(C: TVCategory, cls: SaturatedClass | None = None,
               max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Restriction along Yoneda: the multiplication of the presheaf monad."""
    y = yoneda(C, cls, max_space)
    out = apply_P_star(y, cls, max_space)
    out.name = "mult(%s)" % C.name
    return out


# ---------------------------------------------------------------------------
# law suites
# ---------------------------------------------------------------------------

def _pointwise_order_matches(space: PresheafSpace) -> bool:
    q = space.base.q
    order = underlying_order(space.category)
    for p in space.presheaves:
        for r in space.presheaves:
            pointwise = all(q.leq_m[a][b] for a, b in zip(p.values, r.values))
            if ((p.name, r.name) in order) != pointwise:
                return False
    return True


def check_presheaf_monad(cls: SaturatedClass, cats, fns,
                         max_space: int = DEFAULT_MAX_SPACE,
                         law_bound: int = 160) -> LawReport:
    """Monad and KZ laws for the class over a corpus.

    Towers over the cap are reported as skips with the offending bound;
    category-law verification of a space is bounded by law_bound since it
    is cubic in the carrier.
    """
    rep = LawReport("presheaf monad: %s" % cls.name)
    skipped = []
    bad = []
    for C in cats:
        space = presheaf_space(C, cls, max_space)
        if len(space) <= law_bound:
            if not check_category(space.category).ok \
                    or not is_separated(space.category):
                bad.append(C.name)
    rep.add("space-laws", not bad,
            "spaces are separated categories (carriers up to %d)" % law_bound
            if not bad else "failing: %s" % ", ".join(bad))

    bad = [C.name for C in cats
           if len(presheaf_space(C, cls, max_space)) <= 128
           and not _pointwise_order_matches(presheaf_space(C, cls, max_space))]
    rep.add("pointwise-order", not bad,
            "space order = pointwise order of the data" if not bad
            else "failing: %s" % ", ".join(bad))

    bad = []
    for C in cats:
        y = yoneda(C, cls, max_space)
        if not check_functor(y).ok or not is_fully_faithful(y):
            bad.append(C.name)
    rep.add("yoneda-functor", not bad,
            "yoneda is a fully faithful functor on every corpus object"
            if not bad else "failing: %s" % ", ".join(bad))

    bad = []
    for C in cats:
        if not yoneda_lemma_check(C, cls, max_space).ok:
            bad.append(C.name)
    rep.add("yoneda-lemma", not bad,
            "evaluation identity on every corpus object" if not bad
            else "failing: %s" % ", ".join(bad))

    bad = []
    unit_done = 0
    for C in cats:
        try:
            mu = space_mult(C, cls, max_space)
            y = yoneda(C, cls, max_space)
            if not (mu.fn @ apply_P(y, cls, max_space).fn).is_identity():
                bad.append("P(y) at " + C.name)
            if not (mu.fn @ yoneda(y.dst, cls, max_space).fn).is_identity():
                bad.append("y at P" + C.name)
            unit_done += 1
        except SizeCapError as exc:
            skipped.append("%s: %s" % (C.name, exc))
    if unit_done:
        rep.add("unit-laws", not bad,
                "mult . P(y) = mult . y_PX = id on %d objects" % unit_done
                if not bad else "failing: %s" % ", ".join(bad))
    else:
        rep.skip("unit-laws", "all towers over the cap %d" % max_space)

    bad = []
    assoc_done = 0
    for C in cats:
        try:
            space = presheaf_space(C, cls, max_space)
            mu = space_mult(C, cls, max_space)
            mu2 = space_mult(space.category, cls, max_space)
            pmu = apply_P(mu, cls, max_space)
            if (mu.fn @ pmu.fn) != (mu.fn @ mu2.fn):
                bad.append(C.name)
            assoc_done += 1
        except SizeCapError as exc:
            skipped.append("%s: %s" % (C.name, exc))
    if assoc_done:
        rep.add("associativity", not bad,
                "mult . P(mult) = mult . mult_PX on %d objects" % assoc_done
                if not bad else "failing: %s" % ", ".join(bad))
    else:
        rep.skip("associativity", "all towers over the cap %d" % max_space)

    bad = []
    for f in fns:
        lhs = apply_P(f, cls, max_space).fn @ yoneda(f.src, cls, max_space).fn
        rhs = yoneda(f.dst, cls, max_space).fn @ f.fn
        if lhs != rhs:
            bad.append(f.name)
    rep.add("unit-naturality", not bad,
            "P(f) . y = y . f for %d functors" % len(fns) if not bad
            else "failing: %s" % ", ".join(bad))

    bad = []
    nat_done = 0
    for f in fns:
        try:
            pf = apply_P(f, cls, max_space)
            ppf = apply_P(pf, cls, max_space)
            lhs = pf.fn @ space_mult(f.src, cls, max_space).fn
            rhs = space_mult(f.dst, cls, max_space).fn @ ppf.fn
            if lhs != rhs:
                bad.append(f.name)
            nat_done += 1
        except SizeCapError as exc:
            skipped.append("%s: %s" % (f.name, exc))
    if nat_done:
        rep.add("mult-naturality", not bad,
                "P(f) . mult = mult . PP(f) for %d functors" % nat_done
                if not bad else "failing: %s" % ", ".join(bad))
    else:
        rep.skip("mult-naturality", "all towers over the cap %d" % max_space)

    bad = []
    kz_done = 0
    for C in cats:
        try:
            space = presheaf_space(C, cls, max_space)
            mu = space_mult(C, cls, max_space)
            py = apply_P(yoneda(C, cls, max_space), cls, max_space)
            y2 = yoneda(space.category, cls, max_space)
            if not functor_leq(py, y2):
                bad.append("P(y) <= y_P at " + C.name)
            ident2 = identity_functor(mu.src)
            if not functor_leq(ident2, y2 @ mu):
                bad.append("1 <= y_P . mult at " + C.name)
            if not functor_leq(py @ mu, ident2):
                bad.append("P(y) . mult <= 1 at " + C.name)
            kz_done += 1
        except SizeCapError as exc:
            skipped.append("%s: %s" % (C.name, exc))
    if kz_done:
        rep.add("lax-idempotency", not bad,
                "P(y) <= y_P with both adjunction inequalities, %d objects"
                % kz_done if not bad else "failing: %s" % ", ".join(bad))
    else:
        rep.skip("lax-idempotency", "all towers over the cap %d" % max_space)

    bad = []
    for C in cats:
        space = presheaf_space(C, cls, max_space)
        if len(space) > 64:
            continue
        for p in space.presheaves:
            if not check_bimodule(p.as_bimodule()).ok:
                bad.append("%s at %s" % (p.name, C.name))
    rep.add("members-are-bimodules", not bad,
            "every enumerated presheaf passes both action laws" if not bad
            else "failing: %s" % ", ".join(bad[:4]))

    for s in skipped:
        rep.skip("capped", s)
    return rep


def unit_isomorphism_check(cls: SaturatedClass, cats,
                           max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """For classes whose unit should invert: y is bijective with functor inverse."""
    rep = LawReport("unit isomorphism: %s" % cls.name)
    bad = None
    for C in cats:
        space = presheaf_space(C, cls, max_space)
        y = yoneda(C, cls, max_space)
        if len(space) != len(C.carrier) or len(set(y.fn.table)) != len(C.carrier):
            bad = "%s: space has %d objects over %d points" \
                % (C.name, len(space), len(C.carrier))
            break
        inv = Fn(space.carrier, C.carrier,
                 (y.fn.table.index(i) for i in range(len(space.carrier))))
        if not is_functor(space.category, C, inv):
            bad = "%s: inverse fails functoriality" % C.name
            break
    rep.add("unit-iso", bad is None,
            "yoneda is an isomorphism on all %d objects" % len(cats)
            if bad is None else bad)
    return rep


# Enumerations are class-independent and get rescanned once per class and
# row otherwise; tables are tiny, so keep them all.
_BIMODULE_SCAN_CACHE: dict = {}


def _all_bimodules(C: TVCategory, D: TVCategory, cap: int):
    key = (id(C.M), C.carrier.elements, C.structure.rows,
           D.carrier.elements, D.structure.rows, cap)
    hit = _BIMODULE_SCAN_CACHE.get(key)
    if hit is None:
        hit = tuple(_scan_bimodules(C, D, cap))
        _BIMODULE_SCAN_CACHE[key] = hit
    return hit


def _scan_bimodules(C: TVCategory, D: TVCategory, cap: int):
    q = C.q
    size = len(C.tx) * len(D.carrier)
    if size and q.n ** size > cap:
        raise SizeCapError("bimodule scan %d^%d over cap %d"
                           % (q.n, size, cap))
    nd = len(D.carrier)
    for combo in itertools.product(range(q.n), repeat=size):
        rel = VRelation(q, C.tx, D.carrier,
                        (combo[i * nd:(i + 1) * nd] for i in range(len(C.tx))))
        if is_bimodule(C, D, rel):
            yield Bimodule(C, D, rel)


def check_saturated(cls: SaturatedClass, cats, fns,
                    scan_cap: int = 1024,
                    pair_budget: int = 40000) -> LawReport:
    """The three closure conditions, scanned over the corpus."""
    rep = LawReport("saturation: %s" % cls.name)

    bad = next((f.name for f in fns if not cls.contains(costar(f))), None)
    rep.add("contains-restrictions", bad is None,
            "f^* is a member for all %d corpus functors" % len(fns)
            if bad is None else "missing f^* of %s" % bad)

    small = [C for C in cats if len(C.carrier) <= 2]
    member_memo: dict = {}

    def member(si: int, di: int, phi: Bimodule) -> bool:
        # di = -1 marks the unit category target
        key = (si, di, phi.rel.rows)
        hit = member_memo.get(key)
        if hit is None:
            hit = cls.contains(phi)
            member_memo[key] = hit
        return hit

    member_mods: dict = {}

    def mods(i: int, j: int):
        hit = member_mods.get((i, j))
        if hit is None:
            hit = [m for m in _all_bimodules(small[i], small[j], scan_cap)
                   if member(i, j, m)]
            member_mods[(i, j)] = hit
        return hit

    witness = None
    pairs = 0
    capped = False
    try:
        for ic, C in enumerate(small):
            for jd in range(len(small)):
                for kz, Z in enumerate(small):
                    for phi in mods(ic, jd):
                        for psi in mods(jd, kz):
                            if pairs == pair_budget:
                                capped = True
                                raise StopIteration
                            pairs += 1
                            comp = Bimodule(C, Z, bim_compose(psi, phi))
                            if not member(ic, kz, comp):
                                witness = (phi.rel, psi.rel)
                                raise StopIteration
    except StopIteration:
        pass
    rep.add("composition-closed", witness is None,
            "checked %s%d composable member pairs (carriers up to 2)"
            % ("the first " if capped else "", pairs)
            if witness is None else "witness: %s" % (witness,))

    witness = None
    scanned = 0
    one = unit_category(cats[0].M) if cats else None
    for ic, C in enumerate(small):
        for jd, D in enumerate(small):
            restrictions = [costar(TVFunctor(one, D,
                                             Fn(one.carrier, D.carrier,
                                                (jy,)), "pt"))
                            for jy in range(len(D.carrier))]
            for psi in _all_bimodules(C, D, scan_cap):
                scanned += 1
                cols_in = all(member(ic, -1,
                                     Bimodule(C, one, bim_compose(r, psi)))
                              for r in restrictions)
                if cols_in and not member(ic, jd, psi):
                    witness = psi.rel
        if witness:
            break
    rep.add("pointwise-detection", witness is None,
            "scanned %d bimodules (carriers up to 2)" % scanned
            if witness is None else "witness: %s" % (witness,))
    return rep


# ---------------------------------------------------------------------------
# density and algebras
# ---------------------------------------------------------------------------

def phi_dense(f: TVFunctor, cls: SaturatedClass,
              max_space: int = DEFAULT_MAX_SPACE) -> bool:
    """Whether the extension module of f belongs to the class.

    Cross-checked against the restriction criterion: the inverse-image map
    stays inside the class spaces exactly for dense functors.
    """
    member = cls.contains(star(f))
    try:
        apply_P_star(f, cls, max_space)
        restricts = True
    except ValidationError:
        restricts = False
    if member != restricts:
        raise EngineError("density disagreement for %s under %s: module "
                          "membership %s, restriction %s"
                          % (f.name, cls.name, member, restricts))
    return member


def has_algebra(C: TVCategory, cls: SaturatedClass | None = None,
                max_space: int = DEFAULT_MAX_SPACE):
    """Least retraction of the unit, or None.

    Retractions are found by backtracking with pairwise structure pruning
    (sound because both instances lift carriers identically); those that
    are also left adjoint to the unit must coincide, and when any exist
    the least retraction is the algebra KZ theory predicts.
    """
    space = presheaf_space(C, cls, max_space)
    y = yoneda(C, cls, max_space)
    ahat = space.category.structure
    a = C.structure
    q = C.q
    n, nx = len(space), len(C.carrier)
    pinned = {}
    for j, target in enumerate(y.fn.table):
        pinned[target] = j
    found = []
    choice = [0] * n

    def backtrack(pos):
        if pos == n:
            found.append(Fn(space.carrier, C.carrier, tuple(choice)))
            return
        options = [pinned[pos]] if pos in pinned else range(nx)
        for v in options:
            ok = True
            for prev in range(pos):
                w = choice[prev]
                if not q.leq_m[ahat.rows[prev][pos]][a.rows[w][v]] \
                        or not q.leq_m[ahat.rows[pos][prev]][a.rows[v][w]]:
                    ok = False
                    break
            if ok and q.leq_m[ahat.rows[pos][pos]][a.rows[v][v]]:
                choice[pos] = v
                backtrack(pos + 1)

    backtrack(0)
    if not found:
        return None
    rets = [TVFunctor(space.category, C, fn, "retract") for fn in found]
    adjoint = [r for r in rets
               if functor_leq(identity_functor(space.category), y @ r)]
    for r in adjoint[1:]:
        if r.fn != adjoint[0].fn:
            raise EngineError("distinct adjoint retractions on %s" % C.name)
    least = None
    for r in rets:
        if all(functor_leq(r, other) for other in rets):
            least = r
            break
    if least is None:
        raise EngineError("retractions of the unit on %s have no least "
                          "element" % C.name)
    return least
