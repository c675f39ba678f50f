"""The table kernels against cell-by-cell references kept here.

Each reference is the per-cell loop the kernel replaced.  Inputs cover five
quantales (powerset_frame(4) has 16 values, so its down-set codes take two
bytes a cell), both monad instances, carriers of 0 to 4 points (40 for
`is_separated`), and tables that are not reflexive, not separated or not
functorial.  The down-set codes of `Quantale` are checked cell by cell
against the values below each cell, and order and meet through them
against `leq_m` and `meet_m` on every pair of values, on those five
quantales and a 22-value chain (three bytes a cell).  The presheaf
structure matrix and composition are also drawn at widths on both sides of
the composition's size rule (`MASK_CELLS`), and the structure matrix on
lines of up to 24 positions whose blocks of `BLOCK` positions repeat.  The
law masks of the module-functor correspondence and the bimodule scan are
checked against the per-map scans they replaced, on the first four
quantales and a non-integral one, where a cell can break a law against
itself.  The comma kernel `pair_rows` is checked against its cell formula
for meets on those five quantales, the 22-value chain and a quantale whose
bottom is not index 0, so meets by one-byte codes and by byte lanes are
both covered, and `K(f)` against the comprehension it replaced on the
boolean and chain corpora; `tensor_category` against its cell formula on
the same quantales.  The presheaf enumeration is
checked against the search with one node per position that it replaced, on
random V-categories over those quantales and `SPLIT`, on every `SPLIT`
category of up to 3 points and on the comma objects of a fixed list of
chain morphisms, and against a filter of all value strings at every cap of
a sweep.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tvcat.core import FinSet, Fn, InputError, SizeCapError
from tvcat import quantale
from tvcat.quantale import (MASK_CELLS, VRelation, boolean_quantale,
                            build_quantale, check_quantale_laws, line_code,
                            lukasiewicz_chain, powerset_frame,
                            truncated_chain)
from tvcat.monad import instantiate_monad
from tvcat.category import (MEMO, TVCategory, TVFunctor, costar,
                            dual_category, is_bimodule, is_functor,
                            is_separated, memo_scope,
                            module_functor_correspondence, tensor_category,
                            v_category)
from tvcat.presheaf import (ENUM_BASE_CAP, _all_bimodules,
                            _enumerate_value_tuples, apply_P, presheaf_space,
                            saturated_class)
from tvcat.corpus import iso_representatives, seed_corpus
from tvcat.lofs import comma_factorise
from tvcat.report import FAIL

QUANTALES = [boolean_quantale(), truncated_chain(2), lukasiewicz_chain(2),
             powerset_frame(2), powerset_frame(4)]
KINDS = ["identity", "finite_ultrafilter"]
MONADS = {(id(q), kind): instantiate_monad(kind, q)
          for q in QUANTALES for kind in KINDS}
CARRIERS = [FinSet("x%d" % i for i in range(n)) for n in range(201)]


def monad(q, kind):
    return MONADS[id(q), kind]


# ---------------------------------------------------------------------------
# cell-by-cell references
# ---------------------------------------------------------------------------

def ref_compose(s, r):
    q = r.q
    return [[q.join_all(q.tensor_m[r.rows[i][j]][s.rows[j][k]]
                        for j in range(len(r.dst)))
             for k in range(len(s.dst))]
            for i in range(len(r.src))]


def cells(rel):
    """The rows of rel as lists, once each row is checked to be bytes."""
    assert all(type(row) is bytes for row in rel.rows)
    return [list(row) for row in rel.rows]


def ref_structure(q, values):
    """hom(phi_i, phi_j) as the meet of the pointwise homs."""
    hom, meet = q.hom_m, q.meet_m
    rows = []
    for vi in values:
        row = []
        for vj in values:
            acc = q.top
            for a, b in zip(vi, vj):
                acc = meet[acc][hom[a][b]]
            row.append(acc)
        rows.append(row)
    return rows


def ref_is_separated(C):
    q, a = C.q, C.structure
    e = C.M.unit(C.carrier).table
    n = len(C.carrier)
    return not any(x != y and q.leq_m[q.unit][a.rows[e[x]][y]]
                   and q.leq_m[q.unit][a.rows[e[y]][x]]
                   for x in range(n) for y in range(n))


def ref_is_functor(src, dst, fn):
    a, b, leq = src.structure, dst.structure, src.q.leq_m
    tf = src.M.T_fn(fn).table
    n = len(src.carrier)
    return all(leq[a.rows[i][j]][b.rows[tf[i]][fn.table[j]]]
               for i in range(n) for j in range(n))


def ref_images(f, cls, cap):
    """The direct image of every presheaf by the join-over-fibres formula."""
    PX = presheaf_space(f.src, cls, cap)
    M, q = f.src.M, f.src.q
    b = f.dst.structure
    costar = [[b.rows[yy][f.fn.table[x]] for x in range(len(f.src.carrier))]
              for yy in range(len(f.dst.carrier))]
    xi = M.xi_table
    m = M.mult(f.dst.carrier)
    out = []
    for phi in PX.presheaves:
        out.append(bytes(
            q.join_all(q.tensor_m[xi[costar[YY][x]]][phi[x]]
                       for YY in range(len(m.src)) if m.table[YY] == iy
                       for x in range(len(f.src.carrier)))
            for iy in range(len(f.dst.carrier))))
    return out


def ref_pairs(F):
    q, Y = F.f.src.q, F.f.dst
    b = Y.structure
    PY = presheaf_space(Y, F.cls, F.max_space)
    pf = apply_P(F.f, F.cls, F.max_space)
    return [(ip, iy) for ip in range(len(F.space))
            for iy in range(len(Y.carrier))
            if all(q.leq_m[PY.presheaves[pf.fn.table[ip]][jy]]
                   [b.rows[jy][iy]] for jy in range(len(Y.carrier)))]


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def category(M, X, rows, name="C"):
    return TVCategory(M, X, VRelation(M.q, M.T_obj(X), X, rows), name)


def random_rows(rng, q, n, reflexive):
    rows = [[rng.randrange(q.n) for _ in range(n)] for _ in range(n)]
    if reflexive:
        for i in range(n):
            rows[i][i] = q.join_m[rows[i][i]][q.unit]
    return rows


def closed_rows(rng, q, n, sparse=0.0):
    """A random reflexive, transitively closed V-matrix: a V-category.

    `sparse` is the chance that an off-diagonal cell starts at bottom.
    """
    a = random_rows(rng, q, n, True)
    if sparse:
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and rng.random() < sparse:
                a[i][j] = q.bottom
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.product(range(n), repeat=3):
            v = q.join_m[a[i][k]][q.tensor_m[a[i][j]][a[j][k]]]
            if v != a[i][k]:
                a[i][k], changed = v, True
    return a


drawn_setting = st.tuples(st.sampled_from(QUANTALES), st.sampled_from(KINDS),
                          st.integers(min_value=0, max_value=2 ** 32))


# ---------------------------------------------------------------------------
# the relation masks
# ---------------------------------------------------------------------------

# truncated_chain(20) has 22 values: three bytes of down-set code a cell
CODE_QUANTALES = QUANTALES + [truncated_chain(20)]


def cell_code(q, line, j):
    """The down-set code of entry j of a line, cut from `line_code`."""
    w = len(q.down_codes)
    shift = 8 * w * (len(line) - 1 - j)
    return line_code(q, line) >> shift & ((1 << 8 * w) - 1)


def test_code_widths_follow_the_number_of_values():
    assert [len(q.down_codes) for q in CODE_QUANTALES] == [1, 1, 1, 1, 2, 3]
    assert [q.down_values is None for q in CODE_QUANTALES] \
        == [False] * 4 + [True] * 2
    # boolean codes each value as itself
    q = QUANTALES[0]
    assert q.bottom == 0 and q.down_codes[0][:2] == bytes((0, 1))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(CODE_QUANTALES), st.integers(0, 2 ** 32),
       st.integers(0, 12))
def test_line_codes_hold_the_values_below_each_cell(q, seed, n):
    rng = random.Random(seed)
    line = bytes(rng.randrange(q.n) for _ in range(n))
    code = line_code(q, line)
    assert code >> 8 * len(q.down_codes) * n == 0
    for j, v in enumerate(line):
        c = cell_code(q, line, j)
        assert c >> len(q.fields) == 0
        assert [k for k in range(len(q.fields)) if c >> k & 1] \
            == [k for k, u in enumerate(q.fields) if q.leq_m[u][v]]


@pytest.mark.parametrize("q", CODE_QUANTALES, ids=repr)
def test_order_and_meet_through_codes_match_the_tables(q):
    # every pair of values, as one line against another, cell by cell
    firsts = bytes(u for u in range(q.n) for v in range(q.n))
    seconds = bytes(v for u in range(q.n) for v in range(q.n))
    a, b = line_code(q, firsts), line_code(q, seconds)
    meet = bytes(q.meet_m[u][v] for u, v in zip(firsts, seconds))
    assert a & b == line_code(q, meet)
    if q.down_values is not None:
        assert (a & b).to_bytes(len(firsts), "big") \
            .translate(q.down_values) == meet
    for u, v in zip(firsts, seconds):
        cu, cv = line_code(q, bytes((u,))), line_code(q, bytes((v,)))
        assert (not cu & ~cv) == q.leq_m[u][v]
        assert cu & cv == line_code(q, bytes((q.meet_m[u][v],)))
    # whole lines: below exactly when every cell is
    rng = random.Random(q.n)
    for _ in range(200):
        x = bytes(rng.randrange(q.n) for _ in range(5))
        y = bytes(q.join_m[u][rng.randrange(q.n)] if rng.random() < 0.9
                  else rng.randrange(q.n) for u in x)
        assert (not line_code(q, x) & ~line_code(q, y)) \
            == all(q.leq_m[u][v] for u, v in zip(x, y))


@settings(max_examples=120, deadline=None)
@given(drawn_setting, st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4))
def test_composition_matches_the_cell_formula(drawn, nx, ny, nz):
    q, _, seed = drawn
    rng = random.Random(seed)

    def rand(n, m):
        return VRelation(q, CARRIERS[n], CARRIERS[m],
                         [[rng.randrange(q.n) for _ in range(m)]
                          for _ in range(n)])

    r, s = rand(nx, ny), rand(ny, nz)
    assert cells(s @ r) == ref_compose(s, r)


def random_relation(rng, q, n, m, values=None):
    values = values or range(q.n)
    return VRelation(q, CARRIERS[n], CARRIERS[m],
                     [[rng.choice(values) for _ in range(m)]
                      for _ in range(n)])


# (rows of r, middle points, columns of s): both sides of the size rule,
# its boundary, and empty carriers on either side of the rule
WIDE_SHAPES = [(8, 5, 16), (16, 3, 8), (1, 4, 128), (128, 2, 1), (1, 3, 127),
               (127, 2, 1), (7, 9, 18), (9, 40, 15), (12, 0, 12),
               (0, 5, 200), (40, 5, 0), (3, 60, 60), (20, 1, 20)]


@settings(max_examples=60, deadline=None)
@given(drawn_setting, st.sampled_from(WIDE_SHAPES), st.booleans())
def test_wide_composition_matches_the_cell_formula(drawn, shape, sparse):
    q, _, seed = drawn
    rng = random.Random(seed)
    nx, ny, nz = shape
    # sparse draws put most entries at bottom or top, as structures do
    values = [q.bottom] * 4 + [q.top, q.unit] + list(range(q.n)) \
        if sparse else None
    r = random_relation(rng, q, nx, ny, values)
    s = random_relation(rng, q, ny, nz, values)
    expected = ref_compose(s, r)
    assert cells(s @ r) == expected
    # a second composite, and one with a fresh copy of s, give the same rows
    assert cells(s @ r) == expected
    fresh = VRelation(q, s.src, s.dst, s.rows)
    assert cells(fresh @ r) == expected


def test_size_rule_picks_the_mask_kernel_exactly_for_wide_composites(
        monkeypatch):
    calls = []
    kernel = quantale.mask_rows

    def counting(*args):
        calls.append(args[-1])
        return kernel(*args)

    monkeypatch.setattr(quantale, "mask_rows", counting)
    q, rng = truncated_chain(2), random.Random(7)
    for nx, ny, nz in WIDE_SHAPES:
        del calls[:]
        r = random_relation(rng, q, nx, ny)
        s = random_relation(rng, q, ny, nz)
        assert cells(s @ r) == ref_compose(s, r)
        assert calls == ([nz] if nx * nz >= MASK_CELLS else []), \
            (nx, ny, nz)


def block_lines(rng, q, n, t):
    """n lines of t values spliced from three shared pieces of
    `quantale.BLOCK` values, so that blocks repeat across lines."""
    pieces = [bytes(rng.randrange(q.n) for _ in range(quantale.BLOCK))
              for _ in range(3)]
    blocks = -(-t // quantale.BLOCK)
    return [b"".join(rng.choice(pieces) for _ in range(blocks))[:t]
            for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(drawn_setting, st.integers(0, 40), st.integers(0, 20), st.booleans())
def test_structure_matrix_matches_the_hom_meet_loop(drawn, n, t, repeat):
    q, kind, seed = drawn
    rng = random.Random(seed)
    # repeated lines and lines at bottom or top everywhere included
    values = block_lines(rng, q, n, t) if repeat else \
        [bytes(rng.randrange(q.n) for _ in range(t)) for _ in range(n)]
    if n > 2:
        values[0] = bytes((q.bottom,)) * t
        values[1] = bytes((q.top,)) * t
        values[2] = values[-1]
    assert monad(q, kind).presheaf_structure(values) \
        == list(map(bytes, ref_structure(q, values)))


@pytest.mark.parametrize("q", [boolean_quantale(), truncated_chain(2)])
def test_structure_matrix_over_repeated_blocks(q):
    # boolean tries one value per row, the chain several (`mask_rows`)
    assert (len(q.falling) == 1) == (q.n == 2)
    rng = random.Random(29)
    M = monad(q, "identity")
    for t in (7, 8, 9, 16, 17, 20, 24):
        for n in (1, 5, 30):
            values = block_lines(rng, q, n, t)
            assert M.presheaf_structure(values) \
                == list(map(bytes, ref_structure(q, values))), (t, n)


def test_structure_matrix_on_empty_and_constant_tuples():
    for q in QUANTALES:
        M = monad(q, "identity")
        assert M.presheaf_structure([]) == []
        # the empty meet: every entry is top
        assert M.presheaf_structure([b"", b""]) == [bytes((q.top,)) * 2] * 2
        for v in range(q.n):
            assert M.presheaf_structure([bytes((v,))]) \
                == [bytes((q.hom_m[v][v],))]
            pair = [bytes((v, q.bottom)), bytes((q.top, v))]
            assert M.presheaf_structure(pair) \
                == list(map(bytes, ref_structure(q, pair)))


# ---------------------------------------------------------------------------
# is_separated and is_functor on arbitrary tables
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(drawn_setting, st.integers(0, 40), st.booleans(),
       st.sampled_from([0.0, 0.002, 0.02, 0.2, 1.0]))
def test_is_separated_matches_the_reference(drawn, n, reflexive, dense):
    q, kind, seed = drawn
    rng = random.Random(seed)
    rows = random_rows(rng, q, n, reflexive)
    # most off-diagonal cells at bottom, so that wide tables are often
    # separated too
    for i, j in itertools.product(range(n), repeat=2):
        if i != j and rng.random() >= dense:
            rows[i][j] = q.bottom
    C = category(monad(q, kind), CARRIERS[n], rows)
    assert is_separated(C) == ref_is_separated(C)


def test_is_separated_finds_one_far_two_cycle():
    # x <= y for every x < y, and nothing else, except one pair (3, 36)
    # that also goes back: not transitive, and not separated by that pair
    for q in QUANTALES:
        M = monad(q, "identity")
        k, bot = q.unit, q.bottom
        n = 40
        rows = [[k if i <= j else bot for j in range(n)] for i in range(n)]
        assert is_separated(category(M, CARRIERS[n], rows))
        rows[36][3] = q.top
        cycle = category(M, CARRIERS[n], rows)
        assert not is_separated(cycle) and not ref_is_separated(cycle)
        rows[3][36] = bot
        assert is_separated(category(M, CARRIERS[n], rows))


def test_is_separated_on_small_cases():
    for q in QUANTALES:
        for kind in KINDS:
            M = monad(q, kind)
            k, bot = q.unit, q.bottom
            assert is_separated(category(M, CARRIERS[0], []))
            assert is_separated(category(M, CARRIERS[1], [[k]]))
            assert is_separated(category(M, CARRIERS[1], [[bot]]))
            loop = category(M, CARRIERS[2], [[k, k], [k, k]])
            assert not is_separated(loop) and not ref_is_separated(loop)
            # a value above the unit in both directions also collapses
            top = category(M, CARRIERS[2], [[k, q.top], [q.top, k]])
            assert not is_separated(top)
            chain = category(M, CARRIERS[2], [[k, k], [bot, k]])
            assert is_separated(chain)


@settings(max_examples=300, deadline=None)
@given(drawn_setting, st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_is_functor_matches_the_reference(drawn, nx, ny, closed):
    q, kind, seed = drawn
    rng = random.Random(seed)
    M = monad(q, kind)

    def rows(n):
        return closed_rows(rng, q, n) if closed \
            else random_rows(rng, q, n, False)

    src = category(M, CARRIERS[nx], rows(nx), "src")
    dst = category(M, CARRIERS[ny], rows(ny), "dst")
    if ny == 0 and nx:
        return
    for _ in range(6):
        fn = Fn(src.carrier, dst.carrier,
                [rng.randrange(ny) for _ in range(nx)])
        assert is_functor(src, dst, fn) == ref_is_functor(src, dst, fn)


def test_is_functor_on_small_cases():
    for q in QUANTALES:
        for kind in KINDS:
            M = monad(q, kind)
            k, bot, top = q.unit, q.bottom, q.top
            empty = category(M, CARRIERS[0], [])
            one = category(M, CARRIERS[1], [[k]])
            low = category(M, CARRIERS[1], [[bot]])
            two = category(M, CARRIERS[2], [[k, top], [bot, k]])
            for src, dst in [(empty, empty), (empty, one), (one, one),
                             (one, low), (low, one), (one, two), (two, one),
                             (two, two), (low, two)]:
                for table in itertools.product(range(len(dst.carrier)),
                                               repeat=len(src.carrier)):
                    fn = Fn(src.carrier, dst.carrier, table)
                    assert is_functor(src, dst, fn) \
                        == ref_is_functor(src, dst, fn), (q, src, dst, table)
            # a one-point source pulls back a single entry
            assert not is_functor(one, low, Fn(one.carrier, low.carrier, [0]))
            assert is_functor(one, two, Fn(one.carrier, two.carrier, [1]))


@settings(max_examples=100, deadline=None)
@given(drawn_setting, st.integers(0, 3), st.integers(1, 4))
def test_costar_gathers_the_cells(drawn, nx, ny):
    q, kind, seed = drawn
    rng = random.Random(seed)
    M = monad(q, kind)
    src = category(M, CARRIERS[nx], random_rows(rng, q, nx, True), "src")
    dst = category(M, CARRIERS[ny], random_rows(rng, q, ny, True), "dst")
    table = [rng.randrange(ny) for _ in range(nx)]
    phi = costar(TVFunctor(src, dst, Fn(src.carrier, dst.carrier, table)))
    assert (phi.src, phi.dst) == (dst, src)
    assert cells(phi.rel) == [[row[t] for t in table]
                              for row in dst.structure.rows]


def test_costar_from_an_empty_category():
    for q in QUANTALES:
        M = monad(q, "identity")
        empty = category(M, CARRIERS[0], [])
        for C in (empty, category(M, CARRIERS[2], [[q.unit] * 2] * 2)):
            rel = costar(TVFunctor(empty, C, Fn(empty.carrier, C.carrier,
                                                []))).rel
            assert rel.rows == (b"",) * len(C.carrier)


# ---------------------------------------------------------------------------
# the comma kernel
# ---------------------------------------------------------------------------

ALL = saturated_class("all")

# 1 > h > 0 listed top first, so bottom is the last index, not 0
TOP_FIRST = build_quantale({"elements": ["1", "h", "0"],
                            "leq": [["0", "h"], ["h", "1"]],
                            "tensor": {"%s|%s" % (a, b):
                                       min(a, b, key="0h1".index)
                                       for a in "1h0" for b in "1h0"},
                            "unit": "1"})
# truncated_chain(20) has 22 values
KERNEL_QUANTALES = QUANTALES + [truncated_chain(20), TOP_FIRST]


def ref_pair_rows(q, a, b, pairs):
    """The cell loop `pair_rows` replaced: meet_m[a[i'][i]][b[j'][j]]."""
    return [bytes(q.meet_m[a[i2][i]][b[j2][j]] for i, j in pairs)
            for i2, j2 in pairs]


def square(rng, q, n):
    return [bytes(rng.randrange(q.n) for _ in range(n)) for _ in range(n)]


def test_pair_rows_match_the_cell_formula():
    assert TOP_FIRST.bottom == 2 and TOP_FIRST.down_values is not None
    # meets by one-byte down-set codes and by lanes are both covered
    assert {q.down_values is None for q in KERNEL_QUANTALES} == {True, False}
    rng = random.Random(12)
    for q in KERNEL_QUANTALES:
        for na, nb in [(1, 1), (1, 3), (3, 1), (2, 3), (4, 2), (5, 5)]:
            a, b = square(rng, q, na), square(rng, q, nb)
            grouped = [(i, j) for i in range(na) for j in range(nb)
                       if rng.random() < 0.7]
            drawn = [(rng.randrange(na), rng.randrange(nb))
                     for _ in range(rng.randrange(1, 12))]
            for pairs in (grouped, drawn, grouped[::-1]):
                assert quantale.pair_rows(q, a, b, pairs) \
                    == ref_pair_rows(q, a, b, pairs), (q, pairs)


def test_pair_rows_on_empty_single_and_repeated_pairs():
    for q in KERNEL_QUANTALES:
        rng = random.Random(q.n)
        a, b = square(rng, q, 3), square(rng, q, 2)
        for pairs in ([], [(2, 1)], [(0, 0), (0, 0)],
                      [(1, 0), (0, 0), (1, 0)], [(2, 1), (0, 1), (2, 0)]):
            assert quantale.pair_rows(q, a, b, pairs) \
                == ref_pair_rows(q, a, b, pairs)
        # every value against every value, on one row and one column each
        every = [bytes(range(q.n))] * q.n
        pairs = [(i, i) for i in range(q.n)]
        assert quantale.pair_rows(q, every, every, pairs) \
            == ref_pair_rows(q, every, every, pairs)


def test_tensor_category_matches_the_product_cell_formula():
    rng = random.Random(5)
    for q in KERNEL_QUANTALES:
        M = instantiate_monad("identity", q)
        for nc, nd in [(0, 2), (1, 1), (2, 3), (3, 2)]:
            C = category(M, CARRIERS[nc], random_rows(rng, q, nc, False))
            D = category(M, CARRIERS[nd], random_rows(rng, q, nd, False))
            a, b = C.structure.rows, D.structure.rows
            n = nc * nd
            assert cells(tensor_category(C, D).structure) \
                == [[q.tensor_m[a[w // nd][j // nd]][b[w % nd][j % nd]]
                     for j in range(n)] for w in range(n)]


def test_comma_structure_matches_the_hom_meet_comprehension():
    for q, size, cap in [(QUANTALES[0], 3, 4096), (QUANTALES[1], 2, 512)]:
        for kind in KINDS:
            _, fns = seed_corpus(monad(q, kind), size)
            for f in iso_representatives(fns):
                F = comma_factorise(f, ALL, cap)
                ahat = F.space.category.structure.rows
                b = f.dst.structure.rows
                assert F.K.structure.rows == tuple(
                    bytes(q.meet_m[ahat[ip2][ip]][b[iy2][iy]]
                          for ip, iy in F.pairs)
                    for ip2, iy2 in F.pairs)
            MEMO.clear()


# ---------------------------------------------------------------------------
# the direct image and the comma carrier
# ---------------------------------------------------------------------------

CAP = 512


def random_functors(rng, M, nx, ny, tries=4):
    q = M.q
    src = category(M, CARRIERS[nx], closed_rows(rng, q, nx), "src")
    dst = category(M, CARRIERS[ny], closed_rows(rng, q, ny), "dst")
    if not (ref_is_separated(src) and ref_is_separated(dst)):
        return []
    if ny == 0:
        return [TVFunctor(src, dst, Fn(src.carrier, dst.carrier, []), "f")] \
            if nx == 0 else []
    out = []
    for _ in range(tries):
        fn = Fn(src.carrier, dst.carrier,
                [rng.randrange(ny) for _ in range(nx)])
        if ref_is_functor(src, dst, fn):
            out.append(TVFunctor(src, dst, fn, "f"))
    return out


@settings(max_examples=100, deadline=None)
@given(drawn_setting, st.integers(0, 3), st.integers(0, 3))
def test_direct_image_and_comma_pairs_match_the_reference(drawn, nx, ny):
    q, kind, seed = drawn
    if q.n > 4 and nx + ny > 3:
        return          # 16 values over 3 points is past any useful cap
    rng = random.Random(seed)
    for f in random_functors(rng, monad(q, kind), nx, ny):
        try:
            pf = apply_P(f, ALL, CAP)
            F = comma_factorise(f, ALL, CAP)
        except SizeCapError:
            continue
        PY = presheaf_space(f.dst, ALL, CAP)
        assert [PY.presheaves[i] for i in pf.fn.table] \
            == ref_images(f, ALL, CAP)
        assert F.pairs == ref_pairs(F)
        assert is_separated(F.K) and ref_is_separated(F.K)


def test_comma_pairs_match_the_space_over_the_target_on_the_corpora():
    # the pairs come from one relation product over the source space; the
    # reference reads them off P(f) and the space over the target
    for q, size in ((QUANTALES[0], 3), (QUANTALES[1], 2)):
        _, fns = seed_corpus(monad(q, "identity"), size)
        reps = iso_representatives(fns)
        for f in reps:
            F = comma_factorise(f, ALL, CAP)
            assert F.pairs == ref_pairs(F), f.name
        assert len(reps) == {2: 265, 4: 216}[q.n]
        MEMO.clear()


def test_direct_image_over_empty_and_one_point_targets():
    for q in QUANTALES:
        for kind in KINDS:
            M = monad(q, kind)
            rng = random.Random(q.n)
            for nx, ny in [(0, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
                if q.n > 4 and nx + ny > 2:
                    continue
                for f in random_functors(rng, M, nx, ny, tries=8):
                    pf = apply_P(f, ALL, CAP)
                    PY = presheaf_space(f.dst, ALL, CAP)
                    assert [PY.presheaves[i] for i in pf.fn.table] \
                        == ref_images(f, ALL, CAP)
                    F = comma_factorise(f, ALL, CAP)
                    assert F.pairs == ref_pairs(F)


# ---------------------------------------------------------------------------
# the law masks of the correspondence row and the bimodule scan
# ---------------------------------------------------------------------------

# bottom < k < t with unit k and t (x) t = t: not integral, so a cell can
# break a law against itself (t (x) k = t is not below k)
SPLIT = build_quantale({"elements": ["0", "k", "t"],
                        "leq": [["0", "k"], ["k", "t"]],
                        "tensor": {"%s|%s" % (a, b): c
                                   for (a, b), c in {
                                       ("0", "0"): "0", ("0", "k"): "0",
                                       ("0", "t"): "0", ("k", "0"): "0",
                                       ("k", "k"): "k", ("k", "t"): "t",
                                       ("t", "0"): "0", ("t", "k"): "t",
                                       ("t", "t"): "t"}.items()},
                        "unit": "k"})
LAW_QUANTALES = QUANTALES[:4] + [SPLIT]
LAW_MONADS = {(id(q), kind): instantiate_monad(kind, q)
              for q in LAW_QUANTALES for kind in KINDS}
LAW_CAP = 512


def ref_correspondence(Xcat, Ycat, cap):
    """The per-map scan that the law masks replaced."""
    q = Xcat.q
    M = Xcat.M
    dom = tensor_category(dual_category(Xcat), Ycat)
    cod = v_category(M)
    ny = len(Ycat.carrier)
    size = len(Xcat.carrier) * ny
    if size and q.n ** size > cap:
        return 0, None
    checked = 0
    for combo in itertools.product(range(q.n), repeat=size):
        line = bytes(combo)
        rel = VRelation(q, Xcat.carrier, Ycat.carrier,
                        [line[i * ny:(i + 1) * ny]
                         for i in range(len(Xcat.carrier))])
        fn = Fn(dom.carrier, cod.carrier, combo)
        checked += 1
        if is_bimodule(Xcat, Ycat, rel) != is_functor(dom, cod, fn):
            return checked, rel
    return checked, None


def ref_bimodules(C, D):
    nd = len(D.carrier)
    out = []
    for combo in itertools.product(range(C.q.n),
                                   repeat=len(C.carrier) * nd):
        rel = VRelation(C.q, C.carrier, D.carrier,
                        (combo[i * nd:(i + 1) * nd]
                         for i in range(len(C.carrier))))
        if is_bimodule(C, D, rel):
            out.append(rel)
    return out


def law_pairs():
    """(X, Y) over every law quantale and monad with carriers 0-3 and at
    most LAW_CAP candidates: arbitrary tables, reflexive ones and
    V-categories, drawn from a fixed seed."""
    rng = random.Random(20261018)
    for q in LAW_QUANTALES:
        for kind in KINDS:
            M = LAW_MONADS[id(q), kind]
            for nx in range(4):
                for ny in range(4):
                    if q.n ** (nx * ny) > LAW_CAP:
                        continue
                    for make in (lambda n: random_rows(rng, q, n, False),
                                 lambda n: random_rows(rng, q, n, True),
                                 lambda n: closed_rows(rng, q, n)):
                        yield (category(M, CARRIERS[nx], make(nx), "X"),
                               category(M, CARRIERS[ny], make(ny), "Y"))


@pytest.fixture
def fresh_memo():
    """MEMO empty at the start of the test and again after it: a remembered
    bimodule scan answers with the categories and at the cap it was made
    under."""
    MEMO.clear()
    yield
    MEMO.clear()


def test_correspondence_matches_the_per_map_scan(monkeypatch):
    monkeypatch.setattr("tvcat.category.SCAN_CAP", LAW_CAP)
    witnesses = set()
    for X, Y in law_pairs():
        got = module_functor_correspondence(X, Y)
        assert got == ref_correspondence(X, Y, LAW_CAP), (X.structure,
                                                          Y.structure)
        if got[1] is not None:
            witnesses.add(X.q)
    # arbitrary tables break the equivalence, so witnesses occur
    assert witnesses == set(LAW_QUANTALES)


def test_bimodule_scan_matches_the_per_map_scan(fresh_memo):
    # each pair is scanned afresh: law_pairs repeats equal categories
    for X, Y in law_pairs():
        with memo_scope():
            found = _all_bimodules(X, Y)
        assert [phi.rel for phi in found] == ref_bimodules(X, Y), (
            X.structure, Y.structure)
        assert all(phi.src is X and phi.dst is Y for phi in found)


def test_the_cap_admits_exactly_its_own_count(monkeypatch, fresh_memo):
    # SCAN_CAP is the one bound of both scans over a pair: each admits a
    # pair of exactly SCAN_CAP candidates and refuses it at one less
    for q in LAW_QUANTALES:
        M = LAW_MONADS[id(q), "identity"]
        rng = random.Random(q.n)
        X = category(M, CARRIERS[2], random_rows(rng, q, 2, False), "X")
        Y = category(M, CARRIERS[1], random_rows(rng, q, 1, False), "Y")
        count = q.n ** 2
        monkeypatch.setattr("tvcat.category.SCAN_CAP", count)
        assert module_functor_correspondence(X, Y) \
            == ref_correspondence(X, Y, count) != (0, None)
        assert [phi.rel for phi in _all_bimodules(X, Y)] \
            == ref_bimodules(X, Y)
        monkeypatch.setattr("tvcat.category.SCAN_CAP", count - 1)
        MEMO.clear()
        with pytest.raises(SizeCapError,
                           match=r"^correspondence scan %d\^2 over cap %d$"
                           % (q.n, count - 1)):
            module_functor_correspondence(X, Y)
        with pytest.raises(SizeCapError,
                           match=r"^bimodule scan %d\^2 over cap %d$"
                           % (q.n, count - 1)):
            _all_bimodules(X, Y)


# ---------------------------------------------------------------------------
# the presheaf enumeration
# ---------------------------------------------------------------------------

# The kernel before forced positions were filled in bulk: one search node
# per position per string.
def ref_enumerate_value_tuples(q, cond, max_space):
    """Every presheaf's byte string of values, in lexicographic order.

    cond is the transposed structure: a line of values w is a presheaf
    exactly when cond[j][i] (x) w_j <= w_i for every ordered pair.  Raises
    SizeCapError past the cap.

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
    lowest first), so the strings come out in lexicographic order, and the
    search stops at the first string past `max_space`.
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
            out.append(bytes(chosen))
            if len(out) > max_space:
                raise SizeCapError("presheaf space exceeds the cap of %d "
                                   "(carrier of %d lifted points)"
                                   % (max_space, tn))
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


def enumerated(kernel, q, cond, cap):
    """The kernel's strings, or the message of the SizeCapError it raised."""
    try:
        return kernel(q, cond, cap)
    except SizeCapError as exc:
        return str(exc)


def assert_same_enumeration(q, cond, caps):
    """Both kernels agree at each cap; returns the reference's last output."""
    for cap in caps:
        ref = enumerated(ref_enumerate_value_tuples, q, cond, cap)
        assert enumerated(_enumerate_value_tuples, q, cond, cap) == ref, \
            (cond, cap)
    return ref


ENUM_CAP = 300


def transitive_rows(q, n):
    """Every reflexive, transitive V-matrix on n points."""
    for cells in itertools.product(range(q.n), repeat=n * n):
        a = [cells[i * n:(i + 1) * n] for i in range(n)]
        if all(q.leq_m[q.unit][a[i][i]] for i in range(n)) and all(
                q.leq_m[q.tensor_m[a[i][j]][a[j][k]]][a[i][k]]
                for i, j, k in itertools.product(range(n), repeat=3)):
            yield a


def test_enumeration_matches_the_reference_where_domains_are_cut():
    # SPLIT's diagonal t cuts the domain to {0, t}, yet a position with one
    # admissible value is still forced: transitivity keeps both bounds in
    # the domain.  Every SPLIT category on up to 3 points.
    restricted = 0
    for n in range(4):
        for rows in transitive_rows(SPLIT, n):
            restricted += any(rows[i][i] == SPLIT.top for i in range(n))
            cond = [bytes(col) for col in zip(*rows)]
            ref = assert_same_enumeration(SPLIT, cond, [ENUM_CAP])
            assert_same_enumeration(SPLIT, cond, range(len(ref) - 1,
                                                       len(ref) + 2))
    # 202 of the 293 categories have a cut domain somewhere
    assert restricted == 202


def test_enumeration_matches_the_reference_on_random_categories():
    rng = random.Random(14)
    counted = over = 0
    for q in KERNEL_QUANTALES + [SPLIT]:
        for n in range(7):
            for sparse in (0.0, 0.5, 0.9):
                for _ in range(3):
                    rows = closed_rows(rng, q, n, sparse)
                    cond = [bytes(col) for col in zip(*rows)]
                    ref = assert_same_enumeration(q, cond, [ENUM_CAP])
                    if isinstance(ref, list):
                        # below, at and above the count
                        counted += 1
                        assert_same_enumeration(q, cond, range(
                            len(ref) - 1, len(ref) + 2))
                    else:
                        over += 1
    # both sides of the cap occur
    assert counted and over


def brute_force_presheaves(q, cond):
    """Every string of values, in lexicographic order, kept when it meets
    cond[j][i] (x) w_j <= w_i at every ordered pair."""
    tn, leq, tensor = len(cond), q.leq_m, q.tensor_m
    return [bytes(w) for w in itertools.product(range(q.n), repeat=tn)
            if all(leq[tensor[cond[j][i]][w[j]]][w[i]]
                   for i in range(tn) for j in range(tn))]


def test_enumeration_matches_brute_force_at_every_cap():
    # a discrete base (sparse 1) leaves every position free, so the search
    # ends in leaf groups: one free position spelled once per value
    rng = random.Random(34)
    leafy = refused = 0
    for q in KERNEL_QUANTALES + [SPLIT]:
        for tn in range(5):
            if q.n ** tn > 4096:
                break
            for sparse in (0.0, 0.5, 1.0):
                rows = closed_rows(rng, q, tn, sparse)
                cond = [bytes(col) for col in zip(*rows)]
                want = brute_force_presheaves(q, cond)
                leafy += any(sum(a != b for a, b in zip(s, t)) == 1
                             for s, t in zip(want, want[1:]))
                caps = sorted({*range(min(len(want), 24)), len(want) - 1,
                               len(want), len(want) + 1} - {-1})
                for cap in caps:
                    got = enumerated(_enumerate_value_tuples, q, cond, cap)
                    if cap >= len(want):
                        assert got == want, (q.elements, rows, cap)
                    else:
                        refused += 1
                        assert got == "presheaf space exceeds the cap of %d " \
                            "(carrier of %d lifted points)" % (cap, tn)
    assert leafy > 40 and refused > 400


# chain morphisms whose comma objects K(f), K(Lf) and K(Rf) run from 0 to
# ENUM_BASE_CAP points; K(L(c2_14>c2_00#1)) has exactly ENUM_BASE_CAP
COMMA_BASES = ("c0_00>c0_00#0", "c0_00>c2_01#0", "c1_00>c2_05#0",
               "c2_00>c1_00#0", "c2_10>c2_01#2", "c2_14>c2_00#1",
               "c2_14>c2_14#1")


def test_enumeration_matches_the_reference_on_comma_objects():
    # comma objects have long runs of positions with one admissible value
    q = QUANTALES[1]
    _, fns = seed_corpus(monad(q, "identity"), 2)
    picked = [f for f in iso_representatives(fns) if f.name in COMMA_BASES]
    assert sorted(f.name for f in picked) == sorted(COMMA_BASES)
    sizes = []
    for f in picked:
        F = comma_factorise(f, ALL, 512)
        bases = [F.K]
        for side in (F.L, F.R):
            try:
                bases.append(comma_factorise(side, ALL, 512).K)
            except SizeCapError:
                pass
        for K in bases:
            if len(K.carrier) <= ENUM_BASE_CAP:
                sizes.append(len(K.carrier))
                assert_same_enumeration(q, K.structure.T.rows, [512])
    MEMO.clear()
    assert min(sizes) == 0 and max(sizes) == ENUM_BASE_CAP


# ---------------------------------------------------------------------------
# the one-byte bound on quantale carriers
# ---------------------------------------------------------------------------

def chain_spec(n):
    names = ["e%d" % i for i in range(n)]
    return {"elements": names,
            "leq": [[names[i], names[i + 1]] for i in range(n - 1)],
            "tensor": {"%s|%s" % (a, b): names[min(i, j)]
                       for i, a in enumerate(names)
                       for j, b in enumerate(names)},
            "unit": names[-1]}


def test_quantales_past_256_elements_are_refused():
    spec = chain_spec(257)
    with pytest.raises(InputError, match="257 elements; at most 256"):
        build_quantale(spec)
    rep = check_quantale_laws(spec)
    assert [(c.name, c.status) for c in rep.checks] == [("well-formed", FAIL)]
    assert "at most 256" in rep.checks[0].detail
    with pytest.raises(InputError, match="at most 256"):
        build_quantale({"builtin": "powerset_frame", "n": 9})
