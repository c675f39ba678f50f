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
Yoneda embedding.  Every map mult . P(g), for g: Z -> P(X), is one
relation product by the Yoneda lemma (`mult_P`); P(f) is the case
g = y . f.  Saturated classes cut out submonads, and membership is
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
                       _candidate_relation, check_category, check_functor,
                       checked_functor, costar, identity_functor,
                       is_bimodule, is_fully_faithful, is_functor,
                       is_separated, functor_leq, memoised, require_separated,
                       scan_candidates, star, unit_category)
from .quantale import (VRelation, compose_rows, line_code, line_masks,
                       residual_left)
from .report import LawReport, decide


def _enumerate_value_tuples(q, cond, max_space, work_budget=None):
    """Every presheaf's byte string of values, in lexicographic order.

    cond is the transposed structure of a reflexive, transitive base: a
    line of values w is a presheaf exactly when cond[j][i] (x) w_j <= w_i
    for every ordered pair.  Raises SizeCapError past the cap, and, when a
    work_budget is given, when the structure of the N strings over the tn
    positions, N^2 * max(1, tn) cells, is past it (see
    STRUCTURE_WORK_CAP); both refusals come before any string is spelled.

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
    (cond[p][y], cond[y][p]) form one group and share one `interval` list
    of values.  The groups are read off row p and column p of cond with
    bytes operations: each line, last entry first, gives one value mask per
    value of the quantale (`line_masks`), and a group is a row mask ANDed
    with a column mask, so no Python step is taken per later position.

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

    A node where at most one position p has two or more admissible values
    is a leaf group, and gets no children: by the same argument, putting
    any admissible w at p leaves every other position its one value.  So
    the group's strings are the string of its forced positions with each
    admissible value of p written in, in increasing value order.  The
    search only records each group as (masks, free bit) and counts its
    strings, and it raises SizeCapError as soon as the count passes
    `max_space`, so a refused space spells nothing.  Under the cap and the
    budget the groups are spelled afterwards by `_spell_leaf_groups`.

    Nodes take positions in increasing order and values in increasing index
    order (set bits lowest first), so the strings come out in lexicographic
    order.
    """
    tn, n = len(cond), q.n
    tensor, leq = q.tensor_m, q.leq_m
    between = {}

    def interval(a, b):
        # per w, the list of {v : a (x) w <= v and b (x) v <= w}, which by
        # residuation is the interval a (x) w <= v <= hom(b, w)
        if (a, b) not in between:
            between[a, b] = [[v for v in range(n)
                              if leq[tensor[a][w]][v]
                              and leq[tensor[b][v]][w]]
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
    # row p and column p of cond give the later positions y by value of
    # cond[p][y] and of cond[y][p]: value masks of the two lines taken last
    # entry first, with bottom's field (`below[bottom]`) on top
    flat = b"".join(cond)
    codes = (q.below[q.bottom],) + q.eq_codes
    fields = tuple(enumerate(q.fields + (q.bottom,)))

    def cut_at(p):
        later = tn - p - 1
        full = (1 << later) - 1
        row = line_masks(cond[p][:p:-1], codes)
        col = line_masks(flat[p::tn][:p:-1], codes)
        by_row = [(v, row >> k * later & full) for k, v in fields]
        by_col = [(v, col >> k * later & full) for k, v in fields]
        groups = [(interval(a, b), (ra & cb) << p + 1)
                  for a, ra in by_row if ra for b, cb in by_col if ra & cb]
        rows = []
        for w in range(n):
            masks = [(1 << p) - 1] * n
            masks[w] |= 1 << p
            for bounds, group in groups:
                for v in bounds[w]:
                    masks[v] |= group
            rows.append(masks)
        cut[p] = rows
        return rows

    # the search, depth first: a node's children are pushed last value
    # first, so that they are taken in increasing value order.  Leaf group
    # i is leaves[i] with free bit frees[i] (two lists: no tuple per group).
    # On a refusal the groups and cut masks are dropped at once, not with
    # the traceback that holds this frame.
    leaves, frees = [], []

    def refuse(message):
        leaves.clear()
        frees.clear()
        cut.clear()
        raise SizeCapError(message)

    count = 0
    stack = [admissible]
    while stack:
        masks = stack.pop()
        seen = twice = 0
        for mask in masks:
            twice |= seen & mask
            seen |= mask
        bit = twice & -twice
        if twice == bit:
            count += sum(mask & bit for mask in masks) // bit if bit else 1
            if count > max_space:
                refuse("presheaf space exceeds the cap of %d (carrier of %d "
                       "lifted points)" % (max_space, tn))
            leaves.append(masks)
            frees.append(bit)
            continue
        p = bit.bit_length() - 1
        rows = cut[p] or cut_at(p)
        for w in range(n - 1, -1, -1):
            if masks[w] & bit:
                stack.append([mask & c for mask, c in zip(masks, rows[w])])
    if work_budget is not None and count ** 2 * max(1, tn) > work_budget:
        refuse("structure matrix for %d presheaves over %d lifted points "
               "is past the work budget" % (count, tn))
    return _spell_leaf_groups(n, tn, leaves, frees)


def _spell_leaf_groups(n, tn, leaves, frees):
    """The strings of the leaf groups of `_enumerate_value_tuples`, in order.

    Group i is leaves[i], one position mask per value, with free bit
    frees[i].  The forced positions are decoded from the masks with bytes
    operations, once per group.  Both lists are emptied.
    """
    # bytes.translate tables from the '0'/'1' digits of a mask to 0/v
    digits = [bytes.maketrans(b"01", bytes((0, v))) for v in range(n)]
    out = []
    leaves.reverse()
    frees.reverse()
    while leaves:
        masks, bit = leaves.pop(), frees.pop()
        # every position but the free one holds the v whose mask has its
        # bit, read off the binary digits as bytes (the string is written
        # from the top bit down, hence little-endian)
        acc = 0
        for v in range(1, n):
            mask = masks[v] & ~bit
            if mask:
                acc |= int.from_bytes(format(mask, "b").encode()
                                      .translate(digits[v]), "big")
        if not bit:
            out.append(acc.to_bytes(tn, "little"))
            continue
        shift = 8 * (bit.bit_length() - 1)
        out.extend((acc | w << shift).to_bytes(tn, "little")
                   for w in range(n) if masks[w] & bit)
    return out


# ---------------------------------------------------------------------------
# saturated classes
# ---------------------------------------------------------------------------

class SaturatedClass:
    """Named membership predicate on bimodules.

    A class defines `admits`, which decides a relation that the caller
    knows is a bimodule (an enumerated presheaf, a scanned bimodule).
    `contains` decides any relation: the bimodule test plus `admits`.
    """

    def __init__(self, name: str):
        self.name = name

    def contains(self, phi: Bimodule) -> bool:
        return is_bimodule(phi.src, phi.dst, phi.rel) and self.admits(phi)

    def __repr__(self):
        return "SaturatedClass(%s)" % self.name


class _All(SaturatedClass):
    def admits(self, phi: Bimodule) -> bool:
        return True


class _Representable(SaturatedClass):
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


class _RightAdjoint(SaturatedClass):
    """phi has a left adjoint bimodule in the reverse direction.

    Adjoints are unique, and any adjoint satisfies the counit inequality
    lam . phi <= a, so it lies below the residual of a along phi: the
    residual is the only candidate that needs testing (Lawvere 1973;
    Hofmann, Seal and Tholen, Monoidal Topology, for the (T,V) case).
    `check_adjoint_residual` holds this decision against an exhaustive
    scan.
    """

    def admits(self, phi: Bimodule) -> bool:
        X, Y = phi.src, phi.dst
        lam = residual_left(X.structure, phi.rel)
        return is_bimodule(Y, X, lam) and Y.structure <= phi.rel @ lam


# The built-in classes by name, in `verify-paper`'s order: adding a class
# is one entry here.  The `--class` choices, verify-paper's class list and
# `saturated_class`'s message are read off this table.
CLASSES = {cls.name: cls for cls in (_All("all"),
                                     _Representable("representable"),
                                     _RightAdjoint("right_adjoint"))}
CLASSES["lawvere"] = CLASSES["right_adjoint"]  # an input alias
# the names of the classes, without aliases
CLASS_NAMES = tuple(name for name, cls in CLASSES.items()
                    if name == cls.name)
ALL = CLASSES["all"]


def saturated_class(kind: str) -> SaturatedClass:
    try:
        return CLASSES[kind]
    except KeyError:
        raise InputError("unknown class %r (have %s)"
                         % (kind, ", ".join(CLASS_NAMES)))


# ---------------------------------------------------------------------------
# the space
# ---------------------------------------------------------------------------

# Ceiling on n^2 * |TX| for a space of n presheaves over TX; spaces past it
# raise SizeCapError like oversized carriers do.  The product counts the
# cells of the old cell-by-cell hom-meet loop, not what the mask kernel of
# `presheaf_structure` does (about n * |V| * |TX| ANDs of n-bit masks); it
# is kept as it was so that the same spaces are capped and the verdict
# rows stay identical.  48M admits the discrete pair over a 4-element
# chain (|PPX| = 1236).  `lofs.Factorisation` charges the structure of a
# comma object K(f), one cell per two pairs, against the same budget, so
# at most 6928 pairs; the largest in `verify-paper` has 1322.
STRUCTURE_WORK_CAP = 48_000_000

# Refuse bases past this size before enumerating.  The search makes one
# node per real choice and reads the groups of its `cut` masks off bytes,
# so the bound is not set by the search's cost; it stays at 160 because
# the bases it refuses decide which verdict rows are capped.
ENUM_BASE_CAP = 160


class PresheafSpace:
    """All presheaves on a base category that lie in a saturated class.

    Presheaf i is its line of values, `presheaves[i]`, which is row i of
    `values` (the same tuple), and its label is `carrier[i]`.  Labels are
    spelled when first read (`FinSet.spelled_on_read`): the verdict path
    reads only indices and values.
    """

    __slots__ = ("base", "cls", "presheaves", "carrier", "category",
                 "index", "values")

    def __init__(self, base: TVCategory, cls: SaturatedClass, max_space: int):
        if len(base.carrier) > ENUM_BASE_CAP:
            raise SizeCapError("refusing to enumerate presheaves over %d "
                               "lifted points (bound %d)"
                               % (len(base.carrier), ENUM_BASE_CAP))
        require_separated(base, "presheaf space", "base")
        # the enumeration skips forced positions, which is exact only when
        # the base is a category, transitive in particular
        failed = check_category(base).failures
        if failed:
            raise ValidationError("base %s fails %s (%s)" % (
                base.name, failed[0].name, failed[0].detail))
        self.base = base
        self.cls = cls
        # the class all keeps every string, so the enumeration itself holds
        # the count against the work budget before spelling any; the other
        # classes are held against it once filtered
        tuples = _enumerate_value_tuples(
            base.q, base.structure.T.rows, max_space,
            STRUCTURE_WORK_CAP if cls.name == "all" else None)
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
            if len(tuples) ** 2 * max(1, len(base.carrier)) \
                    > STRUCTURE_WORK_CAP:
                raise SizeCapError(
                    "structure matrix for %d presheaves over %d lifted "
                    "points is past the work budget"
                    % (len(tuples), len(base.carrier)))
        names = base.q.elements
        self.carrier = FinSet.spelled_on_read(len(tuples), lambda: (
            "[%s]" % ",".join(names[v] for v in values) for values in tuples))
        self.values = VRelation(base.q, self.carrier, base.carrier, tuples)
        self.presheaves = self.values.rows
        rows = base.M.presheaf_structure(tuples)
        structure = VRelation(base.q, self.carrier, self.carrier, rows)
        self.category = TVCategory(base.M, self.carrier, structure,
                                   "%s(%s)" % (cls.name, base.name))
        self.index = {values: i for i, values in enumerate(self.presheaves)}

    def __len__(self):
        return len(self.presheaves)

    def __repr__(self):
        return "PresheafSpace(%s, %d presheaves)" % (self.category.name,
                                                     len(self))


def presheaf_space(C: TVCategory, cls: SaturatedClass = ALL,
                   max_space: int = DEFAULT_MAX_SPACE) -> PresheafSpace:
    return memoised(("space", C, cls.name, max_space),
                    lambda: PresheafSpace(C, cls, max_space))


def yoneda(C: TVCategory, cls: SaturatedClass = ALL,
           max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """x maps to its covariant hom a(-, x), landing in the class space."""
    space = presheaf_space(C, cls, max_space)
    a = C.structure
    table = []
    for j in range(len(C.carrier)):
        values = bytes(row[j] for row in a.rows)
        try:
            table.append(space.index[values])
        except KeyError:
            raise EngineError(
                "representable %s of %s is missing from %s: the class "
                "predicate is broken" % (C.carrier.elements[j], C.name,
                                         space.category.name))
    return TVFunctor(C, space.category, Fn(C.carrier, space.carrier, table),
                     "yoneda")


def yoneda_lemma_check(C: TVCategory, cls: SaturatedClass = ALL,
                       max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    rep = LawReport("Yoneda lemma on %s" % C.name)
    space = presheaf_space(C, cls, max_space)
    y = yoneda(C, cls, max_space)
    ahat = space.category.structure.rows
    bad = None
    # the row of y x against column x of the values; the witness is the
    # last disagreeing pair
    for ix, (t, col) in enumerate(zip(y.fn.table, space.values.T.rows)):
        if ahat[t] != col:
            ip = max(i for i, v in enumerate(col) if ahat[t][i] != v)
            bad = (C.carrier.elements[ix], space.carrier.elements[ip])
    rep.add("evaluation", bad is None,
            "hom(y xx, psi) = psi(xx) on %d pairs"
            % (len(C.carrier) * len(space)) if bad is None
            else "fails at %s" % (bad,))
    return rep


# ---------------------------------------------------------------------------
# functorial actions and the multiplication
# ---------------------------------------------------------------------------

def mult_P(G: VRelation, PZ: PresheafSpace, PX: PresheafSpace) -> list:
    """The table of mult . P(g): P(Z) -> P(X), for g: Z -> P(X).

    G is the relation Z -/-> X whose row z is the presheaf g z, and PZ and
    PX are spaces over Z and X.  mult(P(g) Psi) at x is P(g) Psi at the
    representable y x, which is the join over z of Psi(z) (x) hom(y x, g z),
    and by the Yoneda lemma hom(y x, g z) = (g z)(x).  So the image of Psi
    is row Psi of the product of G with the values of PZ: no space over
    P(X) is built.
    """
    index = PX.index
    table = [index.get(vals) for vals in (G @ PZ.values).rows]
    if None in table:
        raise EngineError("image of %s escapes %s: class predicate is broken"
                          % (PZ.carrier.elements[table.index(None)],
                             PX.category.name))
    return table


def apply_P(f: TVFunctor, cls: SaturatedClass = ALL,
            max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Direct image phi -> phi . f^*, the extension mult . P(y . f).

    Row x of (f^*)^T is the representable b(-, f x), so `mult_P` along it
    composes every presheaf with the restriction module of f in one
    relation product.
    """
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    return checked_functor(PX.category, PY.category,
                           mult_P(costar(f).rel.T, PX, PY), "P(%s)" % f.name)


def apply_P_star(f: TVFunctor, cls: SaturatedClass = ALL,
                 max_space: int = DEFAULT_MAX_SPACE) -> TVFunctor:
    """Inverse image psi -> psi . Tf; errors if some image leaves the class."""
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    table = []
    for i, psi in enumerate(PY.presheaves):
        vals = bytes(map(psi.__getitem__, f.fn.table))
        try:
            table.append(PX.index[vals])
        except KeyError:
            raise ValidationError(
                "restriction of %s along %s leaves the class %s"
                % (PY.carrier[i], f.name, PX.cls.name))
    return checked_functor(PY.category, PX.category, table,
                           "P*(%s)" % f.name)


def space_mult(C: TVCategory, cls: SaturatedClass = ALL,
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
    # k <= ahat(i, j) exactly when presheaf i lies below j pointwise
    q = space.base.q
    above_unit = q.leq_m[q.unit]
    ahat = space.category.structure.rows
    codes = [line_code(q, p) for p in space.presheaves]
    return all(above_unit[ahat[i][j]] == (not p & ~r)
               for i, p in enumerate(codes) for j, r in enumerate(codes))


# Spaces of at most this many presheaves get the category-law and
# pointwise-order checks of `check_presheaf_monad`; the first is cubic in
# the carrier.
SPACE_LAW_BOUND = 160


def check_presheaf_monad(cls: SaturatedClass, cats, fns,
                         max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """Monad and KZ laws for the class over a corpus.

    Each object or functor a size cap stops is a trailing capped row;
    the category laws and the pointwise order of a space are checked up to
    SPACE_LAW_BOUND presheaves, since the first is cubic in the carrier.
    """
    rep = LawReport("presheaf monad: %s" % cls.name)
    skipped = []

    def small_space(holds):
        """`holds` on the space of C; None past SPACE_LAW_BOUND presheaves."""
        def law(C):
            space = presheaf_space(C, cls, max_space)
            if len(space) <= SPACE_LAW_BOUND:
                return [] if holds(space) else [C.name]
        return law
    rep.tally("space-laws", *decide(cats, small_space(
        lambda s: check_category(s.category).ok and is_separated(s.category)),
        skipped), "spaces are separated categories (carriers up to %d)"
        % SPACE_LAW_BOUND)
    rep.tally("pointwise-order",
              *decide(cats, small_space(_pointwise_order_matches), skipped),
              "space order = pointwise order of the data (carriers up to %d)"
              % SPACE_LAW_BOUND)

    def yoneda_functor(C):
        y = yoneda(C, cls, max_space)
        return [] if check_functor(y).ok and is_fully_faithful(y) else [C.name]
    rep.tally("yoneda-functor", *decide(cats, yoneda_functor, skipped),
              "yoneda is a fully faithful functor on every corpus object")
    rep.tally("yoneda-lemma", *decide(
        cats, lambda C: [] if yoneda_lemma_check(C, cls, max_space).ok
        else [C.name], skipped),
        "evaluation identity on every corpus object")

    def unit_laws(C):
        mu = space_mult(C, cls, max_space).fn
        y = yoneda(C, cls, max_space)
        return [label + C.name for label, g in
                (("P(y) at ", apply_P(y, cls, max_space)),
                 ("y at P", yoneda(y.dst, cls, max_space)))
                if not (mu @ g.fn).is_identity()]
    rep.tally("unit-laws", *decide(cats, unit_laws, skipped),
              "mult . P(y) = mult . y_PX = id on {} objects")

    def associativity(C):
        mu = space_mult(C, cls, max_space)
        mu2 = space_mult(presheaf_space(C, cls, max_space).category, cls,
                         max_space)
        pmu = apply_P(mu, cls, max_space)
        return [C.name] if (mu.fn @ pmu.fn) != (mu.fn @ mu2.fn) else []
    rep.tally("associativity", *decide(cats, associativity, skipped),
              "mult . P(mult) = mult . mult_PX on {} objects")

    def unit_naturality(f):
        lhs = apply_P(f, cls, max_space).fn @ yoneda(f.src, cls, max_space).fn
        return [] if lhs == yoneda(f.dst, cls, max_space).fn @ f.fn \
            else [f.name]
    rep.tally("unit-naturality", *decide(fns, unit_naturality, skipped),
              "P(f) . y = y . f for {} functors")

    def mult_naturality(f):
        pf = apply_P(f, cls, max_space)
        ppf = apply_P(pf, cls, max_space)
        lhs = pf.fn @ space_mult(f.src, cls, max_space).fn
        rhs = space_mult(f.dst, cls, max_space).fn @ ppf.fn
        return [f.name] if lhs != rhs else []
    rep.tally("mult-naturality", *decide(fns, mult_naturality, skipped),
              "P(f) . mult = mult . PP(f) for {} functors")

    def lax_idempotency(C):
        space = presheaf_space(C, cls, max_space)
        mu = space_mult(C, cls, max_space)
        py = apply_P(yoneda(C, cls, max_space), cls, max_space)
        y2 = yoneda(space.category, cls, max_space)
        ident2 = identity_functor(mu.src)
        return [label + C.name for label, lo, hi in
                (("P(y) <= y_P at ", py, y2),
                 ("1 <= y_P . mult at ", ident2, y2 @ mu),
                 ("P(y) . mult <= 1 at ", py @ mu, ident2))
                if not functor_leq(lo, hi)]
    rep.tally("lax-idempotency", *decide(cats, lax_idempotency, skipped),
              "P(y) <= y_P with both adjunction inequalities, {} objects")

    # the right action a(i, j) (x) phi(j) <= phi(i) for every presheaf phi
    # at once, as one relation X -/-> PX; the left action over E is the
    # unit law and always holds
    def bimodule_members(C):
        space = presheaf_space(C, cls, max_space)
        lines = space.values.T
        acted = lines @ C.structure
        if acted <= lines:
            return []
        q = C.q
        return ["%s at %s" % (name, C.name) for name, got, have
                in zip(space.carrier, acted.T.rows, space.presheaves)
                if line_code(q, got) & ~line_code(q, have)]
    bad, count = decide(cats, bimodule_members, skipped)
    rep.tally("members-are-bimodules", bad[:4], count,
              "every enumerated presheaf passes both action laws")

    return rep.capped(skipped)


def unit_isomorphism_check(cls: SaturatedClass, cats,
                           max_space: int = DEFAULT_MAX_SPACE) -> LawReport:
    """For classes whose unit should invert: y is bijective with functor inverse."""
    rep = LawReport("unit isomorphism: %s" % cls.name)
    skipped = []

    def unit_iso(C):
        space = presheaf_space(C, cls, max_space)
        y = yoneda(C, cls, max_space)
        if len(space) != len(C.carrier) or len(set(y.fn.table)) != len(C.carrier):
            return ["%s: space has %d objects over %d points"
                    % (C.name, len(space), len(C.carrier))]
        inv = Fn(space.carrier, C.carrier,
                 (y.fn.table.index(i) for i in range(len(space.carrier))))
        if not is_functor(space.category, C, inv):
            return ["%s: inverse fails functoriality" % C.name]
        return []
    rep.tally("unit-iso", *decide(cats, unit_iso, skipped),
              "yoneda is an isomorphism on all {} objects")
    return rep.capped(skipped)


def _all_bimodules(C: TVCategory, D: TVCategory) -> tuple:
    """The bimodules C -|-> D in itertools.product order of their tables;
    past `category.SCAN_CAP` candidates, SizeCapError.  Class-independent,
    so remembered per pair: each pair is scanned once per corpus."""
    def scan():
        scan_candidates("bimodule", C, D)
        found = _bimodule_mask(C, D)
        return tuple(Bimodule(C, D, _candidate_relation(C, D, k))
                     for k in range(found.bit_length()) if found >> k & 1)
    return memoised(("bimodules", C, D), scan)


# composition-closed in `check_saturated` checks at most this many pairs.
SATURATION_PAIR_BUDGET = 40000

# `check_adjoint_residual` holds the residual decision of `_RightAdjoint`
# against an exhaustive scan on the pairs of corpus categories with at most
# this many candidate adjoint tables, V^(|C|·|D|).
ADJOINT_CROSSCHECK_CAP = 64


def _adjoint_by_scan(phi: Bimodule) -> bool:
    """Whether some bimodule Y -|-> X is left adjoint to phi: X -|-> Y.

    Tries every bimodule in the reverse direction: the reference that the
    residual decision of `_RightAdjoint` is checked against.
    """
    X, Y = phi.src, phi.dst
    return any((lam.rel @ phi.rel) <= X.structure
               and Y.structure <= phi.rel @ lam.rel
               for lam in _all_bimodules(Y, X))


def check_adjoint_residual(cats) -> LawReport:
    """The residual decides adjointness as an exhaustive scan does.

    Checked on every bimodule between two corpus categories with at most
    ADJOINT_CROSSCHECK_CAP candidate adjoints.
    """
    rep = LawReport("adjoint residual")
    cls = CLASSES["right_adjoint"]
    mods = [phi for C in cats for D in cats
            if C.q.n ** (len(C.carrier) * len(D.carrier))
            <= ADJOINT_CROSSCHECK_CAP
            for phi in _all_bimodules(C, D)]
    bad = next((phi for phi in mods
                if cls.contains(phi) != _adjoint_by_scan(phi)), None)
    rep.add("residual-matches-scan", bad is None,
            "the residual decides as the scan on %d bimodules" % len(mods)
            if bad is None else "disagrees on %s -> %s at %s"
            % (bad.src.name, bad.dst.name, bad.rel.rows))
    return rep


def check_saturated(cls: SaturatedClass, cats, fns) -> LawReport:
    """The three closure conditions, scanned over the corpus.

    contains-restrictions asks every corpus functor's f^* to be a member.
    The other two scan the corpus categories of at most 2 points, in
    corpus order, and stop at their first witness.

    composition-closed runs over C, D, Z, then the members phi: C -|-> D,
    then the members psi: D -|-> Z, in scan order, and asks each composite
    psi . phi to be a member.  It stops after SATURATION_PAIR_BUDGET pairs
    and then reports "checked the first N".  Its witness is the pair
    (phi, psi).
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
    scanned bimodule is asked the class's own test, `admits`; a composite
    or a restriction is asked `contains`, which adds the bimodule test.
    The pairs are scanned by `_all_bimodules`, once per corpus for this
    row and `check_adjoint_residual` alike; a pair with more than
    `category.SCAN_CAP` candidates is scanned as empty and is a trailing
    capped row.
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

    over_cap: dict = {}

    def scan(i: int, j: int):
        try:
            return _all_bimodules(small[i], small[j])
        except SizeCapError as exc:
            over_cap[i, j] = "%s -|-> %s: %s" % (small[i].name,
                                                 small[j].name, exc)
            return ()

    member_mods: dict = {}

    def mods(i: int, j: int):
        hit = member_mods.get((i, j))
        if hit is None:
            hit = member_mods[i, j] = [m for m in scan(i, j)
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
                            if pairs == SATURATION_PAIR_BUDGET:
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
                psis = scan(ic, jd)
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
    return rep.capped(over_cap.values())


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
    # a space refused for its base is an error, not a failed restriction
    presheaf_space(f.src, cls, max_space)
    presheaf_space(f.dst, cls, max_space)
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
