"""Categories enriched over a quantale relative to a monad.

A category here is a finite carrier X with a structure relation
a: TX -/-> X that is reflexive against the monad unit and transitive
against the lax extension.  Functors are structure-decreasing maps,
bimodules are relations TX -/-> Y with the two action laws.  The functor
order is defined by pointwise comparison of the induced restriction
modules and cross-checked against the unit formulation.

Both monad instances act as the identity on carriers and maps, with xi the
identity on values (see `tvcat.monad`), so TX is X, Tf is f, the unit and
the multiplication are identities and the lax extension of a is a.  Every
law here reads the structure tables directly: reflexivity is
k <= a(x, x), transitivity a . a <= a, and a functor f satisfies
a(x', x) <= b(f x', f x).  T, m, e and xi live only in the law suite of
`tvcat.monad`.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter

from .core import (EngineError, FinSet, Fn, InputError, SizeCapError,
                   ValidationError, product_finset)
from .monad import MonadInstance
from .quantale import VRelation, line_code
from .report import LawReport


class TVCategory:
    """Finite carrier plus structure relation over a monad instance."""

    __slots__ = ("M", "carrier", "structure", "name")

    def __init__(self, M: MonadInstance, carrier: FinSet,
                 structure: VRelation, name: str = "X"):
        self.M = M
        self.carrier = carrier
        self.structure = structure
        self.name = name
        if structure.q is not M.q:
            raise InputError("structure relation uses a different quantale")
        # TX is X for both instances
        if structure.src != carrier or structure.dst != carrier:
            raise InputError("structure must be a relation T(X) -/-> X; got "
                             "%r -/-> %r for carrier %r"
                             % (structure.src.elements, structure.dst.elements,
                                carrier.elements))

    @property
    def q(self):
        return self.M.q

    def __eq__(self, other):
        """One category: equal monad instances and the same structure table.

        Names do not count.  Carrier labels alone do not decide this
        either: corpus categories with the same number of points share
        labels.
        """
        return self is other or (isinstance(other, TVCategory)
                                 and (self.M is other.M or self.M == other.M)
                                 and self.structure == other.structure)

    def __hash__(self):
        return hash(self.structure)

    def __repr__(self):
        return "TVCategory(%s, %d objects)" % (self.name, len(self.carrier))


# The engine's one cache: built spaces, bimodule scans, factorisations,
# density decisions and algebras, filled through `memoised`.  A key is a
# tag plus everything the value depends on: the categories or functors
# (equal categories share entries), the class name and the size cap.  A
# refusal by a cap is remembered per key, so a different cap computes
# afresh.  The memo also holds `run_command`'s one answer per command line
# and working directory, valid while every file and listing it read reads
# the same again; the CLI keeps nothing else.  It lives for the process,
# and `memo_scope` is its one eviction rule: `lofs.check_awfs_corpus`
# scopes each morphism's tower and `tvcat verify-paper` each corpus, so
# neither piles up.  Other modules import it by name, so it is changed in
# place, never rebound.
MEMO: dict = {}


def memoised(key, build):
    """MEMO[key], or build() on a miss.

    A SizeCapError from build is remembered as its message alone, with no
    traceback to keep the failed build alive, and every hit raises it
    afresh.
    """
    try:
        hit = MEMO[key]
    except KeyError:
        try:
            hit = MEMO[key] = build()
        except SizeCapError as exc:
            MEMO[key] = SizeCapError(str(exc))
            raise
        return hit
    if isinstance(hit, SizeCapError):
        raise SizeCapError(str(hit))
    return hit


@contextmanager
def memo_scope():
    """Delete the `MEMO` entries added in the block when it ends, however
    it ends: `memoised` only appends, so they are the last ones."""
    n = len(MEMO)
    try:
        yield
    finally:
        for key in list(MEMO)[n:]:
            del MEMO[key]


def check_category(C: TVCategory) -> LawReport:
    q, a = C.q, C.structure
    rep = LawReport("category laws: %s" % C.name)
    bad = next((i for i, row in enumerate(a.rows)
                if not q.leq_m[q.unit][row[i]]), None)
    rep.add("reflexivity", bad is None,
            "k <= a(e x, x) for all %d objects" % len(C.carrier)
            if bad is None else "fails at %s" % C.carrier[bad])
    viol = (a @ a).first_violation(a)
    rep.add("transitivity", viol is None,
            "a . Ta <= a . m checked on all of TTX x X" if viol is None
            else "fails at %s" % (viol,))
    return rep


class TVFunctor:
    __slots__ = ("src", "dst", "fn", "name")

    def __init__(self, src: TVCategory, dst: TVCategory, fn: Fn, name="f"):
        if src.M is not dst.M and src.M != dst.M:
            raise InputError("functor endpoints use different monad instances")
        if fn.src != src.carrier or fn.dst != dst.carrier:
            raise InputError("functor map does not match the carriers")
        self.src = src
        self.dst = dst
        self.fn = fn
        self.name = name

    def __call__(self, label: str) -> str:
        return self.fn(label)

    def __matmul__(self, other: "TVFunctor") -> "TVFunctor":
        if other.dst != self.src:
            raise InputError("cannot compose functors: middle categories differ")
        return TVFunctor(other.src, self.dst, self.fn @ other.fn,
                         "%s.%s" % (self.name, other.name))

    def __eq__(self, other):
        return (isinstance(other, TVFunctor) and self.fn == other.fn
                and self.src == other.src and self.dst == other.dst)

    def __hash__(self):
        # tables and rows only, so that no carrier label gets spelled
        return hash((self.fn.table, self.src.structure.rows,
                     self.dst.structure.rows))

    def __repr__(self):
        return "TVFunctor(%s: %s -> %s)" % (self.name, self.src.name, self.dst.name)


def check_square(f: TVFunctor, g: TVFunctor, u: TVFunctor,
                 v: TVFunctor) -> None:
    """Refuse (u, v) unless it is a commuting square from f to g.

    InputError unless u goes from the source of f to the source of g and v
    from the target of f to the target of g; the corners are compared as
    categories, not as carriers, since corpus categories share labels.
    ValidationError naming the first point of f's source where v.f and
    g.u differ.
    """
    if not (f.src == u.src and f.dst == v.src and g.src == u.dst
            and g.dst == v.dst):
        raise InputError("lifting square (%s, %s) does not share its corners "
                         "with %s and %s" % (u.name, v.name, f.name, g.name))
    left, right = (v.fn @ f.fn).table, (g.fn @ u.fn).table
    if left != right:
        bad = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
        raise ValidationError("lifting square (%s, %s) does not commute at %s"
                              % (u.name, v.name, f.src.carrier[bad]))


def identity_functor(C: TVCategory) -> TVFunctor:
    return TVFunctor(C, C, Fn.identity(C.carrier), "id")


def check_functor(f: TVFunctor) -> LawReport:
    """The functor law, decided by `is_functor`; a failure names the first
    violating pair in row-major order."""
    rep = LawReport("functor laws: %s" % f.name)
    bad = None if is_functor(f.src, f.dst, f.fn) else _functor_violation(f)
    rep.add("structure-preservation", bad is None,
            "a(xx,x) <= b(Tf xx, f x) on all of TX x X" if bad is None
            else "fails at %s" % (bad,))
    return rep


def _functor_violation(f: TVFunctor):
    """The first pair (xx, x) in row-major order with
    a(xx, x) not <= b(f xx, f x), or None."""
    a, b = f.src.structure.rows, f.dst.structure.rows
    leq, t = f.src.q.leq_m, f.fn.table
    labels = f.src.carrier.elements
    return next(((labels[i], labels[j]) for i in range(len(t))
                 for j in range(len(t))
                 if not leq[a[i][j]][b[t[i]][t[j]]]), None)


def checked_functor(src: TVCategory, dst: TVCategory, table,
                    name: str) -> TVFunctor:
    """The functor src -> dst with this table; EngineError when the map
    is not a functor, for tower maps that must be one."""
    out = TVFunctor(src, dst, Fn(src.carrier, dst.carrier, table), name)
    if not is_functor(src, dst, out.fn):
        raise EngineError("%s is not a functor" % name)
    return out


def is_functor(src: TVCategory, dst: TVCategory, fn: Fn) -> bool:
    """a(xx, x) <= b(Tf xx, f x) on all of TX x X, read off down-set codes.

    Row xx of a must lie entrywise below the row of b at Tf xx pulled back
    along f; with the down-set codes of `Quantale` that is one AND per
    row.  The pulled-back row's code is built once per distinct Tf xx.
    """
    table = fn.table
    q = src.q
    brows = dst.structure.rows
    pull = gather(table)
    ups = {}
    for t, row in zip(table, src.structure.rows):
        above = ups.get(t)
        if above is None:
            above = ups[t] = line_code(q, bytes(pull(brows[t])))
        if line_code(q, row) & ~above:
            return False
    return True


def gather(table):
    """line -> the tuple of line[t] for t in table: `itemgetter(*table)`,
    which on at most one index would give a bare entry or need an index."""
    if len(table) > 1:
        return itemgetter(*table)
    return lambda line: tuple(line[t] for t in table)


# Searches for structure-preserving maps give up past this many visited
# nodes.
SEARCH_NODE_BUDGET = 500_000


def _structure_maps(src: TVCategory, dst: TVCategory, what: str,
                    pinned=None, fibres=None) -> list:
    """Every table t with a(i, j) <= b(t i, t j) on all of X x X, sorted.

    T is the identity on carriers, so these are the functors src -> dst.
    Position i may only go to pinned[i] when it is pinned, otherwise to a
    point of fibres[i], a bitmask of target points (every point when
    fibres is None).  Forward checking: each free position keeps a bitmask
    of the points still admissible; a choice w at p cuts every free k down
    to the points z with a(p, k) <= b(w, z) and a(k, p) <= b(z, w), and the
    search branches next on the free position with the fewest points left.
    Past SEARCH_NODE_BUDGET nodes it raises SizeCapError naming `what`.
    """
    a, b = src.structure.rows, dst.structure.rows
    if not b:
        return [] if a else [()]
    q = src.q
    full = (1 << len(b)) - 1
    codes = q.above
    values = {v for row in a for v in row}

    def above(lines):
        """Per value v of a, per line, the bitmask of the z with v <= line[z]."""
        lines = [bytes(line[::-1]) for line in lines]
        return {v: [full] * len(lines) if v == q.bottom
                else [int(line.translate(codes[v]), 2) for line in lines]
                for v in values}

    # after w, the points z with v <= b(w, z), and with v <= b(z, w)
    after = above(b)
    before = above(zip(*b))
    diagonal = above([[row[z] for z, row in enumerate(b)]])
    domains = []
    for i, row in enumerate(a):
        if pinned and i in pinned:
            start = 1 << pinned[i]
        else:
            start = full if fibres is None else fibres[i]
        start &= diagonal[row[i]][0]
        if not start:
            return []
        domains.append(start)
    # no recursion, so deep sources fit: one frame per branching position
    # on the path, [domains, position, free after it, points left to try]
    found, frames, nodes = [], [], 0
    choice = [0] * len(a)
    free = list(range(len(a)))
    while True:
        if free:
            nodes += 1
            if nodes > SEARCH_NODE_BUDGET:
                raise SizeCapError("%s ran out of budget" % what)
            p = min(free, key=lambda k: domains[k].bit_count())
            frames.append([domains, p, [k for k in free if k != p],
                           domains[p]])
        else:
            found.append(tuple(choice))
        # the deepest frame's next point whose cut leaves no position empty
        while frames:
            parent, p, rest, left = frame = frames[-1]
            if not left:
                frames.pop()
                continue
            low = left & -left
            frame[3] = left ^ low
            w = choice[p] = low.bit_length() - 1
            row = a[p]
            domains = parent[:]
            for k in rest:
                domains[k] &= after[row[k]][w] & before[a[k][p]][w]
                if not domains[k]:
                    break
            else:
                free = rest
                break
        else:
            break
    found.sort()
    return found


class Bimodule:
    """A relation TX -/-> Y compatible with both category structures."""

    __slots__ = ("src", "dst", "rel", "name")

    def __init__(self, src: TVCategory, dst: TVCategory, rel: VRelation,
                 name="phi"):
        if rel.src != src.carrier or rel.dst != dst.carrier:
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
    if phi.dst != psi.src:
        raise InputError("modules do not share the middle category")
    return psi.rel @ phi.rel


def check_bimodule(phi: Bimodule) -> LawReport:
    rep = LawReport("bimodule laws: %s" % phi.name)
    a, b, rel = phi.src.structure, phi.dst.structure, phi.rel
    right = rel @ a
    viol = right.first_violation(rel)
    rep.add("right-action", viol is None,
            "phi o a <= phi" if viol is None else "fails at %s" % (viol,))
    left = b @ rel
    viol = left.first_violation(rel)
    rep.add("left-action", viol is None,
            "b o phi <= phi" if viol is None else "fails at %s" % (viol,))
    return rep


def is_bimodule(src: TVCategory, dst: TVCategory, rel: VRelation) -> bool:
    return rel @ src.structure <= rel and dst.structure @ rel <= rel


# ---------------------------------------------------------------------------
# graph modules and the functor order
# ---------------------------------------------------------------------------

def costar(f: TVFunctor) -> Bimodule:
    """Restriction module of f: the relation (yy, x) -> b(yy, f x).

    Each row of b is gathered along f's table, as in `is_functor`.
    """
    b = f.dst.structure
    rows = map(bytes, map(gather(f.fn.table), b.rows))
    rel = VRelation(f.src.q, f.dst.carrier, f.src.carrier, rows)
    return Bimodule(f.dst, f.src, rel, f.name + "^*")


def star(f: TVFunctor) -> Bimodule:
    """Extension module of f: the relation (xx, y) -> b(Tf xx, y)."""
    b = f.dst.structure
    rows = [b.rows[t] for t in f.fn.table]
    rel = VRelation(f.src.q, f.src.carrier, f.dst.carrier, rows)
    return Bimodule(f.src, f.dst, rel, f.name + "_*")


def check_graph_adjunction(f: TVFunctor) -> LawReport:
    """star(f) is left adjoint to costar(f) in the module calculus."""
    rep = LawReport("graph modules: %s" % f.name)
    lo, hi = star(f), costar(f)
    unit_side = hi.rel @ lo.rel
    viol = f.src.structure.first_violation(unit_side)
    rep.add("unit", viol is None,
            "a <= f^* o f_*" if viol is None else "fails at %s" % (viol,))
    counit_side = lo.rel @ hi.rel
    viol = counit_side.first_violation(f.dst.structure)
    rep.add("counit", viol is None,
            "f_* o f^* <= b" if viol is None else "fails at %s" % (viol,))
    return rep


def is_fully_faithful(f: TVFunctor) -> bool:
    a = f.src.structure
    t = f.fn.table
    b = f.dst.structure
    return all(a.rows[i][j] == b.rows[t[i]][t[j]]
               for i in range(len(t)) for j in range(len(t)))


def functor_leq(f: TVFunctor, g: TVFunctor) -> bool:
    """f <= g, by comparing restriction modules pointwise.

    f and g must be parallel: the same source and the same target category
    (`TVCategory.__eq__`), not just the same carrier labels.  Column x of
    costar(f) is column f x of the target's structure b, so costar(f) <=
    costar(g) says that column f x of b lies below column g x for every x.
    Only the distinct pairs (f x, g x) with f x != g x can fail; their
    columns are sliced from one joined copy of b, laid end to end and
    compared with one down-set-code test (see `Quantale`).  The unit
    formulation (k <= b(e(f x), g x) for every x) is equivalent for valid
    categories and cheaper; both are computed and must agree.
    """
    if f.src != g.src or f.dst != g.dst:
        raise InputError("functor order needs parallel functors")
    q, b = f.dst.q, f.dst.structure
    pairs = dict.fromkeys((x, y) for x, y in zip(f.fn.table, g.fn.table)
                          if x != y)
    m = len(b.rows)
    flat = b"".join(b.rows)
    lower = b"".join(flat[x::m] for x, _ in pairs)
    upper = b"".join(flat[y::m] for _, y in pairs)
    by_modules = not (line_code(q, lower) & ~line_code(q, upper))
    by_unit = all(q.leq_m[q.unit][b.rows[x][y]]
                  for x, y in zip(f.fn.table, g.fn.table))
    if by_modules != by_unit:
        raise EngineError("functor order formulations disagree for %s, %s"
                          % (f.name, g.name))
    return by_modules


def is_separated(C: TVCategory) -> bool:
    """No two distinct objects lie below each other in the underlying order.

    x <= y reads k <= a(x, y).  For each x, row x past the diagonal (the
    a(x, y) with y > x) and column x past the diagonal (the a(y, x)) are
    sliced from one joined copy of the table, read through `q.unit_up`
    into bytes 0 and 1, and ANDed as ints: a common bit is a pair with
    x <= y <= x.  Every pair is tested itself, so this is exact on any
    table, transitive or not, and nothing of size m*m is built but the
    joined copy.
    """
    m = len(C.carrier)
    flat = b"".join(C.structure.rows)
    up = C.q.unit_up
    for x in range(m - 1):
        row = flat[x * m + x + 1:x * m + m].translate(up)
        col = flat[x * m + m + x::m].translate(up)
        if int.from_bytes(row, "big") & int.from_bytes(col, "big"):
            return False
    return True


def require_separated(C: TVCategory, what: str, role: str) -> None:
    """ValidationError unless C is separated: `what` needs a separated
    `role`, as a presheaf space needs a separated base."""
    if not is_separated(C):
        raise ValidationError("%s needs a separated %s; %s is not"
                              % (what, role, C.name))


# ---------------------------------------------------------------------------
# standing constructions
# ---------------------------------------------------------------------------

def unit_category(M: MonadInstance) -> TVCategory:
    one = FinSet(["*"])
    return TVCategory(M, one, VRelation.identity(M.q, one), "E")


def v_category(M: MonadInstance) -> TVCategory:
    """The quantale carrier with structure hom(v', v); xi is the identity."""
    q = M.q
    V = q.carrier()
    return TVCategory(M, V, VRelation(q, V, V, q.hom_m), "V")


def tensor_category(C: TVCategory, D: TVCategory) -> TVCategory:
    """Product carrier with the tensor of the two structures."""
    if C.M != D.M:
        raise InputError("tensor needs a shared monad instance")
    q = C.q
    XY = product_finset(C.carrier, D.carrier)
    # cell ((x', y'), (x, y)) is a(x', x) (x) b(y', y), in row-major order
    tm, brows = q.tensor_m, D.structure.rows
    rows = [bytes([tm[v][u] for v in arow for u in brow])
            for arow in C.structure.rows for brow in brows]
    return TVCategory(C.M, XY, VRelation(q, XY, XY, rows),
                      "%s(x)%s" % (C.name, D.name))


def dual_category(C: TVCategory) -> TVCategory:
    """The same carrier with the transposed structure."""
    return TVCategory(C.M, C.carrier, C.structure.T, C.name + "^op")


# ---------------------------------------------------------------------------
# law masks: one law decided for every candidate map at once
# ---------------------------------------------------------------------------
#
# A candidate is a table of `size` cells with values in 0..n-1; candidate k
# is the k-th table of itertools.product(range(n), repeat=size), so cell 0
# is its most significant base-n digit.  A set of candidates is an int with
# bit k set for candidate k.  T and xi are identities (see `tvcat.monad`),
# so every bimodule or functor law is a constraint on two cells p, p' of
# the table: "the value u at p and the value w at p' do not break it".  The
# laws arrive as a dict from (p, p') to a tuple over u of the bitmask of the
# w that break it.


def _digit_sets(n: int, size: int) -> list:
    """sets[p][v]: the candidates whose cell p holds v."""
    count = n ** size
    sets = []
    for p in range(size):
        width = n ** (size - 1 - p)
        # one run of `width` candidates per value, repeated every n runs
        repeat = ((1 << count) - 1) // ((1 << (width * n)) - 1)
        run = (1 << width) - 1
        sets.append([(run << (v * width)) * repeat for v in range(n)])
    return sets


def _passing(n: int, size: int, laws: dict) -> int:
    """The candidates that break none of the laws.

    A law on (p, p') removes the candidates with some breaking pair (u, w)
    there: sets[p][u] & (the union of sets[p'][w]).  On p == p' that
    intersection is empty unless w == u, so only the pairs (u, u) count.
    """
    sets = _digit_sets(n, size)
    broken = 0
    unions = {}
    for (p, pp), bad in laws.items():
        for u, ws in enumerate(bad):
            if ws:
                hit = unions.get((pp, ws))
                if hit is None:
                    hit = 0
                    for w in range(n):
                        if ws >> w & 1:
                            hit |= sets[pp][w]
                    unions[pp, ws] = hit
                broken |= sets[p][u] & hit
    return ((1 << n ** size) - 1) & ~broken


def _add_law(laws: dict, p: int, pp: int, bad: tuple):
    old = laws.get((p, pp))
    laws[p, pp] = bad if old is None else tuple(map(int.__or__, old, bad))


def _refusals(n: int, breaks) -> tuple:
    """Per value u, the bitmask of the values w with breaks(u, w)."""
    return tuple(sum(1 << w for w in range(n) if breaks(u, w))
                 for u in range(n))


def _bimodule_mask(X: TVCategory, Y: TVCategory) -> int:
    """The candidate relations r: TX -/-> Y that `is_bimodule` accepts.

    Cell i*|Y| + y holds r(i, y).  The two Kleisli compositions of
    `is_bimodule` are below r exactly when every term of their joins is:
      right action  a(i, j) (x) r(j, y) <= r(i, y);
      left action   r(i, y') (x) b(y', y) <= r(i, y).
    """
    q = X.q
    n, leq, tm = q.n, q.leq_m, q.tensor_m
    ny = len(Y.carrier)
    tn = len(X.carrier)
    laws = {}
    a = X.structure.rows
    right = {c: _refusals(n, lambda u, w: not leq[tm[c][u]][w])
             for c in {v for row in a for v in row}}
    for i, row in enumerate(a):
        for j, c in enumerate(row):
            bad = right[c]
            if any(bad):
                for y in range(ny):
                    _add_law(laws, j * ny + y, i * ny + y, bad)
    b = Y.structure.rows
    left = {c: _refusals(n, lambda u, w: not leq[tm[u][c]][w])
            for c in {v for row in b for v in row}}
    for y1, row in enumerate(b):
        for y, c in enumerate(row):
            bad = left[c]
            if any(bad):
                for i in range(tn):
                    _add_law(laws, i * ny + y1, i * ny + y, bad)
    return _passing(n, tn * ny, laws)


def _functor_mask(X: TVCategory, Y: TVCategory) -> int:
    """The candidate maps r that are functors X^op (x) Y -> V.

    Cell i*|Y| + y holds r(i, y).  The tensor's structure at the cells
    (i, y) and (j, y') is a(j, i) (x) b(y, y'), and V's is hom, so the law
    reads a(j, i) (x) b(y, y') <= hom(r(i, y), r(j, y')).
    """
    q = X.q
    n, leq, tm, hom = q.n, q.leq_m, q.tensor_m, q.hom_m
    a, b = X.structure.rows, Y.structure.rows
    ny = len(b)
    refusals = {c: _refusals(n, lambda u, w: not leq[c][hom[u][w]])
                for c in {tm[u][w] for row in a for u in row
                          for brow in b for w in brow}}
    laws = {}
    for j, arow in enumerate(a):
        for i, c in enumerate(arow):
            for y, brow in enumerate(b):
                for yy, d in enumerate(brow):
                    bad = refusals[tm[c][d]]
                    if any(bad):
                        _add_law(laws, i * ny + y, j * ny + yy, bad)
    return _passing(n, len(a) * ny, laws)


def _candidate_relation(X: TVCategory, Y: TVCategory, k: int) -> VRelation:
    """Candidate k of the scan over relations TX -/-> Y, as a relation."""
    q = X.q
    cells = bytearray(len(X.carrier) * len(Y.carrier))
    for p in reversed(range(len(cells))):
        k, cells[p] = divmod(k, q.n)
    ny = len(Y.carrier)
    return VRelation(q, X.carrier, Y.carrier,
                     [bytes(cells[i * ny:(i + 1) * ny])
                      for i in range(len(X.carrier))])


# The most candidate tables a scan over one pair of categories reads: the
# correspondence scan here and the bimodule scan of the saturation rows.
SCAN_CAP = 1024


def scan_candidates(what: str, X: TVCategory, Y: TVCategory) -> int:
    """The V^(|X|·|Y|) candidate tables of a scan over the pair, or
    SizeCapError "<what> scan n^s over cap N" past SCAN_CAP."""
    q = X.q
    size = len(X.carrier) * len(Y.carrier)
    count = q.n ** size
    if count > SCAN_CAP:
        raise SizeCapError("%s scan %d^%d over cap %d"
                           % (what, q.n, size, SCAN_CAP))
    return count


def module_functor_correspondence(Xcat: TVCategory, Ycat: TVCategory):
    """Over maps T(X) x Y -> V: bimodule laws hold iff the map is a functor.

    Returns (checked, witness).  The candidates run in
    itertools.product order; witness is the first candidate, as a relation
    TX -/-> Y, on which the two sides disagree, and checked counts the
    candidates up to it (all of them when there is none).  Past SCAN_CAP
    candidates it raises SizeCapError.  Both sides are decided for every
    candidate at once by the law masks above.
    """
    count = scan_candidates("correspondence", Xcat, Ycat)
    diff = _bimodule_mask(Xcat, Ycat) ^ _functor_mask(Xcat, Ycat)
    if not diff:
        return count, None
    k = (diff & -diff).bit_length() - 1
    return k + 1, _candidate_relation(Xcat, Ycat, k)


# ---------------------------------------------------------------------------
# aggregate suite
# ---------------------------------------------------------------------------

def endpoint_index(fns) -> dict:
    """The positions in fns of the functors by endpoints, in corpus order:
    key (C, D) lists the functors C -> D, (C, None) those out of C and
    (None, D) those into D.  Categories are keys, so equal categories
    share a group (`TVCategory.__eq__`)."""
    index: dict = {}
    for i, f in enumerate(fns):
        for key in ((f.src, f.dst), (f.src, None), (None, f.dst)):
            index.setdefault(key, []).append(i)
    return index


def check_enriched_calculus(M: MonadInstance, cats, fns) -> LawReport:
    """Calculus identities over a prepared corpus of categories and functors."""
    rep = LawReport("enriched calculus: %s over %s"
                    % (M.kind, ",".join(M.q.elements)))
    rep.verdict("corpus-categories",
                [C.name for C in cats if not check_category(C).ok],
                "%d categories pass their laws" % len(cats))
    rep.add("unit-category", check_category(unit_category(M)).ok,
            "the one-object unit is a category")
    rep.add("quantale-category", check_category(v_category(M)).ok,
            "the quantale carrier is a category under hom(xi -, -)")
    rep.verdict("duals",
                [C.name for C in cats
                 if not check_category(dual_category(C)).ok],
                "dual of every corpus category is a category")
    rep.verdict("tensors",
                ["%s(x)%s" % (C.name, D.name) for C in cats for D in cats
                 if not check_category(tensor_category(C, D)).ok],
                "tensor of corpus pairs is a category")
    rep.verdict("corpus-functors",
                [f.name for f in fns if not check_functor(f).ok],
                "%d functors preserve structure" % len(fns))
    stars = [star(f) for f in fns]
    costars = [costar(f) for f in fns]
    rep.verdict("graph-modules",
                [f.name for f, f_star, f_costar in zip(fns, stars, costars)
                 if not check_bimodule(f_star).ok
                 or not check_bimodule(f_costar).ok
                 or not check_graph_adjunction(f).ok],
                "f_* and f^* are modules and adjoint for all corpus functors")
    rep.verdict("fully-faithful",
                [f.name for f, f_star, f_costar in zip(fns, stars, costars)
                 if (bim_compose(f_costar, f_star) == f.src.structure)
                 != is_fully_faithful(f)],
                "pointwise equality matches f^* o f_* = a on all corpus "
                "functors")
    index = endpoint_index(fns)
    bad = []
    count = 0
    for f, f_star, f_costar in zip(fns, stars, costars):
        table = f.fn.table
        for i in index.get((f.dst, None), ()):      # star(g) after f
            g, g_star = fns[i], stars[i]
            shortcut = VRelation(f.src.q, f.src.carrier, g.dst.carrier,
                                 (g_star.rel.rows[t] for t in table))
            if bim_compose(g_star, f_star) != shortcut:
                bad.append("%s o %s" % (g.name, f.name))
            count += 1
        for i in index.get((None, f.dst), ()):      # costar(f) after star(g)
            g, g_star = fns[i], stars[i]
            shortcut = VRelation(f.src.q, g.src.carrier, f.src.carrier,
                                 ((row[t] for t in table)
                                  for row in g_star.rel.rows))
            if bim_compose(f_costar, g_star) != shortcut:
                bad.append("%s^* o %s" % (f.name, g.name))
            count += 1
    rep.verdict("module-shortcuts", bad[:4],
                "psi o f_* = psi.Tf and f^* o phi = f'.phi on %d composites"
                % count)
    count = 0
    order_fail = None
    for f in fns:
        for i in index[f.src, f.dst]:
            try:
                functor_leq(f, fns[i])
            except EngineError:
                order_fail = (f.name, fns[i].name)
            count += 1
    rep.add("functor-order", order_fail is None,
            "module and unit formulations agree on %d parallel pairs" % count
            if order_fail is None else "disagree on %s" % (order_fail,))
    scanned = 0
    witness = None
    over_cap = []
    for C in cats:
        for D in cats:
            try:
                n, w = module_functor_correspondence(C, D)
            except SizeCapError as exc:
                over_cap.append("%s -|-> %s: %s" % (C.name, D.name, exc))
                continue
            scanned += n
            if w is not None:
                witness = (C.name, D.name)
    rep.add("module-functor-correspondence", witness is None,
            "equivalence checked for %d candidate maps" % scanned
            if witness is None else "fails on %s" % (witness,))
    return rep.capped(over_cap)
