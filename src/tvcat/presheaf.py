"""Presheaf spaces, saturated classes, and the presheaf (sub)monads.

A presheaf on X is a bimodule X -|-> E, stored as a byte string of values
over TX, one byte per point, like the rows of `VRelation`.  Both monad
instances act as the identity on carriers and maps with xi the identity
(see `tvcat.monad`), so TX is X and the engine reads structure tables
directly: a line of values phi is a presheaf exactly when
a(i, j) (x) phi(j) <= phi(i) for all i, j, the direct image along f is
phi . f^*, and the inverse image psi . f.  T, m, e and xi live in the law
suite of `tvcat.monad` and in the one carrier check of `TVCategory`.  The
space of all presheaves in a class carries the category structure
hom(phi, psi) = meet over xx of hom(phi(xx), psi(xx)).  By residuation
hom(phi, psi) >= v holds exactly when v (x) phi <= psi entrywise, and
`MonadInstance.presheaf_structure` reads every entry off value masks that
way, one path at every size and for every quantale.  The space is the
object part of a lax idempotent monad: unit = Yoneda, action on a
functor f = composition with f^*, multiplication = restriction along the
Yoneda embedding.  Saturated classes cut out submonads, and membership is
decided without search: phi is representable exactly when every column of
phi is a column of the structure of its source (Yoneda), and phi is a
right adjoint exactly when the residual of that structure along phi is
its left adjoint (adjoints are unique).  `check_adjoint_residual` holds the
residual against an exhaustive scan on small corpus bimodules.
"""

from __future__ import annotations

from .core import (DEFAULT_MAX_SPACE, EngineError, FinSet, Fn, InputError,
                   SizeCapError, ValidationError)
from .category import (Bimodule, TVCategory, TVFunctor, _bimodule_mask,
                       _candidate_relation, check_bimodule,
                       check_category, check_functor, costar,
                       identity_functor, is_bimodule, is_fully_faithful,
                       is_functor, is_separated, functor_leq, memoised, star,
                       underlying_order, unit_category)
from .quantale import VRelation, compose_rows, residual_left
from .report import LawReport


class Presheaf:
    """Byte string of values over TX, printable as a bracketed list."""

    __slots__ = ("base", "values", "name")

    def __init__(self, base: TVCategory, values):
        self.base = base
        self.values = bytes(values)
        if len(self.values) != len(base.carrier):
            raise InputError("presheaf needs one value per element of TX")
        names = base.q.elements
        self.name = "[%s]" % ",".join(names[v] for v in self.values)

    def as_relation(self) -> VRelation:
        one = FinSet(["*"])
        return VRelation(self.base.q, self.base.carrier, one,
                         ((v,) for v in self.values))

    def as_bimodule(self) -> Bimodule:
        E = unit_category(self.base.M)
        return Bimodule(self.base, E, self.as_relation(), self.name)

    def __eq__(self, other):
        return (isinstance(other, Presheaf) and self.values == other.values
                and self.base == other.base)

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "Presheaf(%s)" % self.name


def _enumerate_value_tuples(q, cond, max_space):
    """Every presheaf's byte string of values, in lexicographic order.

    cond is the transposed structure of a reflexive, transitive base: a
    line of values w is a presheaf exactly when cond[j][i] (x) w_j <= w_i
    for every ordered pair.  Raises SizeCapError past the cap.

    Once some positions s carry values w_s, the pair conditions between s
    and another position y read, for a candidate v at y,

        cond[s][y] (x) w_s <= v      and      cond[y][s] (x) v <= w_s,

    and by residuation (c (x) v <= w iff v <= hom(c, w)) the second is
    v <= hom(cond[y][s], w_s).  So the admissible values at y are exactly
    its domain {v : cond[y][y] (x) v <= v} cut down to the interval
    L_y <= v <= U_y, with L_y = join_s cond[s][y] (x) w_s and
    U_y = meet_s hom(cond[y][s], w_s).

    The search keeps one int mask per value v, `admissible[v]`: the
    positions where v is still admissible.  Putting w at position p ANDs
    every mask with `cut[p][w][v]`, the positions y whose value v meets both
    conditions against w at p; positions with the same pair
    (cond[p][y], cond[y][p]) form one group and share one `interval` mask.

    Only some positions get a search node.  On a transitive base the
    bounds are consistent and lie in the domain.  For chosen s and t,
    cond[y][t] (x) cond[s][y] <= cond[s][t] gives L_y <= U_y, so no
    position is ever left without a value.  With d = cond[y][y],
    d (x) cond[s][y] <= cond[s][y] gives d (x) L_y <= L_y, and
    cond[y][s] (x) d <= cond[y][s] gives d (x) U_y <= U_y.  So L_y and U_y
    are both admissible, and y has one admissible value exactly when
    L_y = U_y, whatever its domain.  That value is forced, and its bounds on
    every other position z are already implied by the chosen ones:
    transitivity gives cond[y][z] (x) L_y <= L_z and
    hom(cond[z][y], U_y) >= U_z.  So the next node is the lowest position
    with two or more admissible values, and forced positions get none.
    When no position has two, the masks spell out one string, which is
    decoded from them with bytes operations.

    Nodes take positions in increasing order and values in increasing index
    order (set bits lowest first), so the strings come out in lexicographic
    order, and the search stops at the first string past `max_space`.
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
    admissible = [sum(1 << pos for pos in range(tn) if domain[pos] >> v & 1)
                  for v in range(n)]
    # cut[p][w][v]: the positions y where v stays admissible once w is at p;
    # positions before p are already set and keep their values.  Built for
    # p when p first gets a node: forced positions never need theirs.
    cut = [None] * tn

    def cut_at(p):
        groups = {}
        for y in range(p + 1, tn):
            pair = (cond[p][y], cond[y][p])
            groups[pair] = groups.get(pair, 0) | 1 << y
        rows = []
        for w in range(n):
            masks = [(1 << p) - 1] * n
            masks[w] |= 1 << p
            for pair, group in groups.items():
                allowed = interval(*pair)[w]
                while allowed:
                    low = allowed & -allowed
                    allowed ^= low
                    masks[low.bit_length() - 1] |= group
            rows.append(masks)
        cut[p] = rows
        return rows

    # bytes.translate tables from the '0'/'1' digits of a mask to 0/v
    digits = [bytes.maketrans(b"01", bytes((0, v))) for v in range(n)]
    out = []

    def extend(admissible):
        seen = twice = 0
        for mask in admissible:
            twice |= seen & mask
            seen |= mask
        if not twice:
            # one value per position: position y holds the v whose mask has
            # bit y, read off the binary digits as bytes (the string is
            # written from the top bit down, hence little-endian)
            acc = 0
            for v in range(1, n):
                if admissible[v]:
                    acc |= int.from_bytes(format(admissible[v], "b").encode()
                                          .translate(digits[v]), "big")
            out.append(acc.to_bytes(tn, "little"))
            if len(out) > max_space:
                raise SizeCapError("presheaf space exceeds the cap of %d "
                                   "(carrier of %d lifted points)"
                                   % (max_space, tn))
            return
        bit = twice & -twice
        p = bit.bit_length() - 1
        rows = cut[p] or cut_at(p)
        for w in range(n):
            if admissible[w] & bit:
                extend([mask & c for mask, c in zip(admissible, rows[w])])

    extend(admissible)
    return out


# ---------------------------------------------------------------------------
# saturated classes
# ---------------------------------------------------------------------------

class SaturatedClass:
    """Named membership predicate on bimodules.

    `contains` decides any relation.  `admits` decides a relation that the
    caller knows is a bimodule (an enumerated presheaf, a scanned
    bimodule); it asks `contains` unless a class has a cheaper test.
    """

    def __init__(self, name: str):
        self.name = name

    def contains(self, phi: Bimodule) -> bool:
        raise NotImplementedError

    def admits(self, phi: Bimodule) -> bool:
        return self.contains(phi)

    def __repr__(self):
        return "SaturatedClass(%s)" % self.name


class _BuiltinClass(SaturatedClass):
    """A class decided as the bimodule test plus a class-only part,
    `admits`."""

    def contains(self, phi: Bimodule) -> bool:
        return is_bimodule(phi.src, phi.dst, phi.rel) and self.admits(phi)


class _All(_BuiltinClass):
    def admits(self, phi: Bimodule) -> bool:
        return True


class _Representable(_BuiltinClass):
    """phi = g^* for some functor g from target to source.

    g^* has column y equal to column g(y) of the structure a of the
    source, so by Yoneda phi is some g^* exactly when each of its columns
    is a column of a.  g is the column lookup, and it is a functor
    because phi is a bimodule: at the row g y, the action of the target's
    structure b gives b(y, y') <= a(g y, g y').
    """

    def admits(self, phi: Bimodule) -> bool:
        columns = set(phi.src.structure.T.rows)
        return all(col in columns for col in phi.rel.T.rows)


class _RightAdjoint(_BuiltinClass):
    """phi has a left adjoint bimodule in the reverse direction.

    Adjoints are unique, and any adjoint satisfies the counit inequality
    lam . phi <= a, so it lies below the residual of a along phi: the
    residual is the only candidate that needs testing (Lawvere 1973;
    Hofmann, Seal and Tholen, Monoidal Topology, for the (T,V) case).
    `check_adjoint_residual` holds this decision against an exhaustive
    scan.
    """

    def admits(self, phi: Bimodule) -> bool:
        from .monad import kleisli
        X, Y = phi.src, phi.dst
        lam = residual_left(X.structure, phi.rel)
        return is_bimodule(Y, X, lam) \
            and Y.structure <= kleisli(X.M, phi.rel, lam, Y.carrier)


_BUILTIN_CLASSES = {
    "all": _All("all"),
    "representable": _Representable("representable"),
    "right_adjoint": _RightAdjoint("right_adjoint"),
}
_BUILTIN_CLASSES["lawvere"] = _BUILTIN_CLASSES["right_adjoint"]  # input alias


def saturated_class(kind: str) -> SaturatedClass:
    try:
        return _BUILTIN_CLASSES[kind]
    except KeyError:
        raise InputError("unknown class %r (have all, representable, "
                         "right_adjoint)" % kind)


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

# Ceiling on n^2 * |TX| for a space of n presheaves over TX; spaces past it
# raise SizeCapError like oversized carriers do.  The product counts the
# cells of the old cell-by-cell hom-meet loop, not what the mask kernel of
# `presheaf_structure` does (about n * |V| * |TX| ANDs of n-bit masks); it
# is kept as it was so that the same spaces are capped and the verdict
# rows stay identical.  48M admits the discrete pair over a 4-element
# chain (|PPX| = 1236).
STRUCTURE_WORK_CAP = 48_000_000

# Refuse bases past this size before enumerating.  The search makes one
# node per real choice, so the cost left on a large base is building the
# `cut` masks of `_enumerate_value_tuples`: one group lookup per pair of a
# position that gets a node and a later position, quadratic in the base
# when most positions get one.
ENUM_BASE_CAP = 160


class PresheafSpace:
    """All presheaves on a base category that lie in a saturated class."""

    __slots__ = ("base", "cls", "presheaves", "carrier", "category",
                 "index", "values")

    def __init__(self, base: TVCategory, cls: SaturatedClass, max_space: int):
        if len(base.carrier) > ENUM_BASE_CAP:
            raise SizeCapError("refusing to enumerate presheaves over %d "
                               "lifted points (bound %d)"
                               % (len(base.carrier), ENUM_BASE_CAP))
        if not is_separated(base):
            raise ValidationError("presheaf space needs a separated base; "
                                  "%s is not" % base.name)
        lax = next((x for i, x in enumerate(base.carrier)
                    if not base.q.leq_m[base.q.unit]
                    [base.structure.rows[i][i]]), None)
        if lax is not None:
            raise ValidationError("base %s is not reflexive at %s"
                                  % (base.name, lax))
        # the enumeration skips forced positions, which is exact only when
        # the base is transitive
        a = base.structure
        viol = (a @ a).first_violation(a)
        if viol is not None:
            raise ValidationError("base %s is not transitive at %s"
                                  % (base.name, viol))
        self.base = base
        self.cls = cls
        tuples = _enumerate_value_tuples(base.q, base.structure.T.rows,
                                         max_space)
        if cls.name != "all":
            E = unit_category(base.M)
            keep = []
            for values in tuples:
                rel = VRelation(base.q, base.carrier, E.carrier,
                                ((v,) for v in values))
                # an enumerated presheaf is a bimodule base -|-> E
                if cls.admits(Bimodule(base, E, rel)):
                    keep.append(values)
            tuples = keep
        if len(tuples) ** 2 * max(1, len(base.carrier)) > STRUCTURE_WORK_CAP:
            raise SizeCapError(
                "structure matrix for %d presheaves over %d lifted points "
                "is past the work budget" % (len(tuples), len(base.carrier)))
        self.presheaves = [Presheaf(base, v) for v in tuples]
        self.carrier = FinSet(p.name for p in self.presheaves)
        # row i holds the values of presheaf i
        self.values = VRelation(base.q, self.carrier, base.carrier, tuples)
        rows = base.M.presheaf_structure(tuples)
        structure = VRelation(base.q, self.carrier, self.carrier, rows)
        self.category = TVCategory(base.M, self.carrier, structure,
                                   "%s(%s)" % (cls.name, base.name))
        self.index = {p.values: i for i, p in enumerate(self.presheaves)}

    def __len__(self):
        return len(self.presheaves)

    def lookup(self, values: bytes) -> int:
        """Position of the presheaf with these values; KeyError if none."""
        return self.index[values]

    def __repr__(self):
        return "PresheafSpace(%s, %d presheaves)" % (self.category.name,
                                                     len(self))


def presheaf_space(C: TVCategory, cls: SaturatedClass | None = None,
                   max_space: int = DEFAULT_MAX_SPACE) -> PresheafSpace:
    cls = cls or _BUILTIN_CLASSES["all"]
    return memoised(("space", C, cls.name, max_space),
                    lambda: PresheafSpace(C, cls, max_space))


def yoneda(C: TVCategory, cls: SaturatedClass | None = None,
           max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """x maps to its covariant hom a(-, x), landing in the class space."""
    space = presheaf_space(C, cls, max_space)
    a = C.structure
    table = []
    for j in range(len(C.carrier)):
        values = bytes(row[j] for row in a.rows)
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
    ahat = space.category.structure
    bad = None
    for ix, t in enumerate(y.fn.table):
        for ip, psi in enumerate(space.presheaves):
            if ahat.rows[t][ip] != psi.values[ix]:
                bad = (C.carrier.elements[ix], psi.name)
    rep.add("evaluation", bad is None,
            "hom(y xx, psi) = psi(xx) on %d pairs"
            % (len(C.carrier) * len(space)) if bad is None
            else "fails at %s" % (bad,))
    return rep


# ---------------------------------------------------------------------------
# functorial actions and the multiplication
# ---------------------------------------------------------------------------

def apply_P(f: TVFunctor, cls: SaturatedClass | None = None,
            max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Direct image: compose a presheaf with the restriction module of f.

    The image of phi is the convolution phi o f^* = phi . f^*, T being the
    identity (see `kleisli`).  All presheaves go through one relation
    composition: with Phi the relation PX -/-> X of their values, row phi
    of (f^*)^T . Phi is phi's image, as the tensor is commutative.
    """
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    images = costar(f).rel.T @ PX.values        # PX -/-> Y
    index = PY.index
    table = []
    for phi, vals in zip(PX.presheaves, images.rows):
        ip = index.get(vals)
        if ip is None:
            raise EngineError("image of %s under the direct-image map "
                              "escapes %s: class predicate is broken"
                              % (phi.name, PY.category.name))
        table.append(ip)
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
    table = []
    for psi in PY.presheaves:
        vals = bytes(map(psi.values.__getitem__, f.fn.table))
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


def _all_bimodules(C: TVCategory, D: TVCategory, cap: int):
    # class-independent, so remembered rather than rescanned per class
    return memoised(("bimodules", C, D, cap),
                    lambda: tuple(_scan_bimodules(C, D, cap)))


def _scan_bimodules(C: TVCategory, D: TVCategory, cap: int):
    q = C.q
    size = len(C.carrier) * len(D.carrier)
    if size and q.n ** size > cap:
        raise SizeCapError("bimodule scan %d^%d over cap %d"
                           % (q.n, size, cap))
    # the bimodules in itertools.product order: set bits, lowest first
    found = _bimodule_mask(C, D)
    while found:
        low = found & -found
        found ^= low
        yield Bimodule(C, D, _candidate_relation(C, D, low.bit_length() - 1))


# The cap of every bimodule scan in the saturation rows: a pair of
# categories is scanned at one cap, once per corpus.
SATURATION_SCAN_CAP = 1024

# `check_adjoint_residual` holds the residual decision of `_RightAdjoint`
# against an exhaustive scan on the pairs of corpus categories with at most
# this many candidate adjoint tables, V^(|C|·|D|).
ADJOINT_CROSSCHECK_CAP = 64


def _adjoint_by_scan(phi: Bimodule, scan_cap: int) -> bool:
    """Whether some bimodule Y -|-> X is left adjoint to phi: X -|-> Y.

    Tries every bimodule in the reverse direction: the reference that the
    residual decision of `_RightAdjoint` is checked against.
    """
    from .monad import kleisli
    X, Y = phi.src, phi.dst
    return any((lam.rel @ phi.rel) <= X.structure
               and Y.structure <= kleisli(X.M, phi.rel, lam.rel, Y.carrier)
               for lam in _all_bimodules(Y, X, scan_cap))


def check_adjoint_residual(cats) -> LawReport:
    """The residual decides adjointness as an exhaustive scan does.

    Checked on every bimodule between two corpus categories with at most
    ADJOINT_CROSSCHECK_CAP candidate adjoints.
    """
    rep = LawReport("adjoint residual")
    cls, cap = _BUILTIN_CLASSES["right_adjoint"], SATURATION_SCAN_CAP
    # the pairs are those under ADJOINT_CROSSCHECK_CAP, scanned at the cap
    # of the saturation scans so that each pair is scanned once
    mods = [phi for C in cats for D in cats
            if C.q.n ** (len(C.carrier) * len(D.carrier))
            <= ADJOINT_CROSSCHECK_CAP
            for phi in _all_bimodules(C, D, cap)]
    bad = next((phi for phi in mods
                if cls.contains(phi) != _adjoint_by_scan(phi, cap)), None)
    rep.add("residual-matches-scan", bad is None,
            "the residual decides as the scan on %d bimodules" % len(mods)
            if bad is None else "disagrees on %s -> %s at %s"
            % (bad.src.name, bad.dst.name, bad.rel.rows))
    return rep


def check_saturated(cls: SaturatedClass, cats, fns,
                    scan_cap: int = SATURATION_SCAN_CAP,
                    pair_budget: int = 40000) -> LawReport:
    """The three closure conditions, scanned over the corpus.

    contains-restrictions asks every corpus functor's f^* to be a member.
    The other two scan the corpus categories of at most 2 points, in
    corpus order, and stop at their first witness.

    composition-closed runs over C, D, Z, then the members phi: C -|-> D,
    then the members psi: D -|-> Z, in scan order, and asks each composite
    psi . phi to be a member.  It stops after pair_budget pairs and then
    reports "checked the first N".  Its witness is the pair (phi, psi).
    The members D -|-> Z lie side by side as one row block, so one product
    with phi gives all of phi's composites.

    pointwise-detection runs over C, D, then every bimodule psi: C -|-> D.
    When psi restricted along each point y of D (psi followed by the
    restriction module of y: column y of psi composed with the structure
    of D) is a member, psi must be one.  Its witness is the first psi that
    is not.  The rows of all candidates C -|-> D are stacked, so one
    product with the structure of D gives every restriction of the pair.

    Membership is remembered by rows for the call, and a composite or a
    restriction becomes a `Bimodule` only when its rows are new.  A
    scanned bimodule is asked only the class-only part, `admits`; a
    composite or a restriction is asked `contains`.
    """
    rep = LawReport("saturation: %s" % cls.name)

    bad = next((f.name for f in fns if not cls.contains(costar(f))), None)
    rep.add("contains-restrictions", bad is None,
            "f^* is a member for all %d corpus functors" % len(fns)
            if bad is None else "missing f^* of %s" % bad)

    small = [C for C in cats if len(C.carrier) <= 2]
    q = small[0].q if small else None
    one = unit_category(cats[0].M) if cats else None
    member_memo: dict = {}

    def member(si: int, di: int, rows, phi: Bimodule | None = None) -> bool:
        # phi: small[si] -|-> small[di] with these rows, or -|-> one when
        # di = -1; given when scanned, else built here when the rows are
        # new.  Equal rows are one relation, so the two tests agree on it.
        key = (si, di, rows)
        hit = member_memo.get(key)
        if hit is None:
            if phi is not None:
                hit = member_memo[key] = cls.admits(phi)
            else:
                C, D = small[si], small[di] if di >= 0 else one
                hit = member_memo[key] = cls.contains(
                    Bimodule(C, D, VRelation(q, C.carrier, D.carrier, rows)))
        return hit

    member_mods: dict = {}

    def mods(i: int, j: int):
        hit = member_mods.get((i, j))
        if hit is None:
            hit = member_mods[i, j] = [
                m for m in _all_bimodules(small[i], small[j], scan_cap)
                if member(i, j, m.rel.rows, m)]
        return hit

    def composition_witness():
        # (witness, pairs checked, capped)
        pairs = 0
        blocks: dict = {}
        for ic in range(len(small)):
            for jd in range(len(small)):
                phis = mods(ic, jd)
                if not phis:
                    continue
                for kz, Z in enumerate(small):
                    psis = mods(jd, kz)
                    if not psis:
                        continue
                    # row y: row y of every psi, side by side
                    block = blocks.get((jd, kz))
                    if block is None:
                        block = blocks[jd, kz] = [
                            b"".join(lines)
                            for lines in zip(*(psi.rel.rows for psi in psis))]
                    nz = len(Z.carrier)
                    for phi in phis:
                        out = compose_rows(q, phi.rel.rows, block,
                                           nz * len(psis))
                        for k, psi in enumerate(psis):
                            if pairs == pair_budget:
                                return None, pairs, True
                            pairs += 1
                            at = k * nz
                            if not member(ic, kz, tuple([line[at:at + nz]
                                                         for line in out])):
                                return (phi.rel, psi.rel), pairs, False
        return None, pairs, False

    witness, pairs, capped = composition_witness()
    rep.add("composition-closed", witness is None,
            "checked %s%d composable member pairs (carriers up to 2)"
            % ("the first " if capped else "", pairs)
            if witness is None else "witness: %s" % (witness,))

    def detection_witness():
        # (witness, bimodules scanned)
        scanned = 0
        for ic, C in enumerate(small):
            nc = len(C.carrier)
            for jd, D in enumerate(small):
                nd = len(D.carrier)
                psis = _all_bimodules(C, D, scan_cap)
                # rows k*nc .. k*nc+nc-1 are psi_k's; column y of their
                # composite with D's structure is psi_k restricted along y
                out = compose_rows(
                    q, [line for psi in psis for line in psi.rel.rows],
                    D.structure.rows, nd)
                for k, psi in enumerate(psis):
                    scanned += 1
                    lines = out[k * nc:(k + 1) * nc]
                    if all(member(ic, -1, tuple([line[y:y + 1]
                                                 for line in lines]))
                           for y in range(nd)) \
                            and not member(ic, jd, psi.rel.rows, psi):
                        return psi.rel, scanned
        return None, scanned

    witness, scanned = detection_witness()
    rep.add("pointwise-detection", witness is None,
            "scanned %d bimodules (carriers up to 2)" % scanned
            if witness is None else "witness: %s" % (witness,))
    return rep


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def phi_dense(f: TVFunctor, cls: SaturatedClass,
              max_space: int = DEFAULT_MAX_SPACE) -> bool:
    """Whether the extension module of f belongs to the class.

    Cross-checked against the restriction criterion: the inverse-image map
    stays inside the class spaces exactly for dense functors.  Decided
    once per key in `MEMO`.
    """
    return memoised(("dense", f, cls.name, max_space),
                    lambda: _decide_dense(f, cls, max_space))


def _decide_dense(f: TVFunctor, cls: SaturatedClass, max_space: int) -> bool:
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
