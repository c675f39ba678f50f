"""Monad instances: genuine ultrafilter calculus, algebras, lax extensions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcat import FinSet, Fn, InputError, boolean_quantale, truncated_chain
from tvcat.monad import (MonadInstance, check_monad_laws, filter_pushforward,
                         filter_sum, instantiate_monad, kleisli, lax_extend,
                         lax_extend_formula, principal_filter,
                         principal_witness, subsets, ultrafilters_concrete,
                         xi_concrete)
from tvcat.quantale import VRelation, lukasiewicz_chain, powerset_frame
from tvcat.report import PASS

from builders import (constant_relation, fn_from_dict,
                      relation_from_entries)

BOOL = boolean_quantale()
CHAIN1 = truncated_chain(1)


def test_ultrafilters_on_two_points_are_the_two_principal_filters():
    ultras = ultrafilters_concrete(["a", "b"])
    assert len(ultras) == 2
    at_a = frozenset({frozenset({"a"}), frozenset({"a", "b"})})
    at_b = frozenset({frozenset({"b"}), frozenset({"a", "b"})})
    assert set(ultras) == {at_a, at_b}
    assert sorted(principal_witness(F, ["a", "b"]) for F in ultras) == ["a", "b"]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_ultrafilter_count_equals_carrier_size(n):
    items = ["p%d" % i for i in range(n)]
    ultras = ultrafilters_concrete(items)
    assert len(ultras) == n
    for F in ultras:
        x = principal_witness(F, items)
        assert F == principal_filter(x, items)


def test_pushforward_and_sum_stay_principal():
    src = ["a", "b", "c"]
    dst = ["u", "v"]
    f = {"a": "u", "b": "u", "c": "v"}
    F = principal_filter("b", src)
    assert filter_pushforward(F, f, src, dst) == principal_filter("u", dst)
    ultras = [principal_filter(x, src) for x in src]
    FF = frozenset(S for S in subsets(ultras) if ultras[2] in S)
    assert filter_sum(FF, ultras, src) == principal_filter("c", src)


def test_xi_concrete_is_identity_at_principal_points():
    # the join of the down-set of v is v, for any quantale
    for q in (BOOL, CHAIN1, lukasiewicz_chain(2), powerset_frame(2)):
        for v, name in enumerate(q.elements):
            F = principal_filter(name, q.elements)
            assert xi_concrete(q, F, q.elements) == v


def test_instance_runs_on_labels():
    M = instantiate_monad("finite_ultrafilter", BOOL)
    X = FinSet(["a", "b"])
    assert M.T_obj(X) == X
    assert M.unit(X).is_identity()
    assert M.mult(X).is_identity()
    f = fn_from_dict(X, X, {"a": "b", "b": "b"})
    assert M.T_fn(f) == f


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        instantiate_monad("double_powerset", BOOL)


def test_extension_fixes_relations_at_this_scale():
    # every ultrafilter in sight is principal, so the extension of r is r
    X, Y = FinSet(["a", "b"]), FinSet(["c"])
    for kind in ("identity", "finite_ultrafilter"):
        M = instantiate_monad(kind, BOOL)
        for rows in itertools.product([0, 1], repeat=2):
            r = VRelation(BOOL, X, Y, [[rows[0]], [rows[1]]])
            assert lax_extend(M, r) == r


def test_extension_on_empty_carriers():
    M = instantiate_monad("finite_ultrafilter", BOOL)
    E = FinSet([])
    X = FinSet(["a"])
    assert lax_extend(M, constant_relation(BOOL, E, X, "0")).rows == ()
    r = constant_relation(BOOL, X, E, "0")
    assert lax_extend(M, r) == r


def test_kleisli_is_plain_composition_here():
    M = instantiate_monad("finite_ultrafilter", CHAIN1)
    X, Y, Z = FinSet(["a", "b"]), FinSet(["c", "d"]), FinSet(["e"])
    r = relation_from_entries(CHAIN1, X, Y,
                              {("a", "c"): "0", ("a", "d"): "1",
                               ("b", "c"): "inf", ("b", "d"): "1"})
    s = relation_from_entries(CHAIN1, Y, Z, {("c", "e"): "1", ("d", "e"): "0"})
    assert kleisli(M, s, r, X) == s @ r


def test_kleisli_shape_errors():
    M = instantiate_monad("identity", BOOL)
    X, Y = FinSet(["a"]), FinSet(["b", "c"])
    r = constant_relation(BOOL, X, Y, "1")
    s = constant_relation(BOOL, Y, X, "1")
    with pytest.raises(InputError):
        kleisli(M, s, r, Y)  # r does not start at T(Y)


@pytest.mark.parametrize("kind,q", [
    ("identity", BOOL),
    ("finite_ultrafilter", BOOL),
    ("finite_ultrafilter", CHAIN1),
])
def test_law_suite_passes(kind, q, monkeypatch):
    # the extension laws must check the reference formula, not the fast path
    def fast_path(M, r):
        raise AssertionError("the law suite called lax_extend")
    monkeypatch.setattr("tvcat.monad.lax_extend", fast_path)
    rep = check_monad_laws(instantiate_monad(kind, q), size_limit=3)
    assert rep.ok, rep.to_text()
    assert "identity-extension" in {c.name for c in rep.checks}


def test_law_suite_smoke_on_wider_quantales():
    for q in (lukasiewicz_chain(2), powerset_frame(2)):
        rep = check_monad_laws(instantiate_monad("finite_ultrafilter", q),
                               size_limit=2)
        assert rep.ok, rep.to_text()


class _BrokenMult(MonadInstance):
    def mult(self, X):
        m = super().mult(X)
        if len(m.src) >= 2:
            table = list(m.table)
            table[0], table[1] = table[1], table[0]
            m = Fn(m.src, m.dst, table)
        return m


class _BrokenXi(MonadInstance):
    def _build_xi(self):
        return tuple(self.q.unit for _ in range(self.q.n))


def _reference_kleisli(M, s, r, X):
    m_op = VRelation.from_fn(M.q, M.mult(X)).T
    return s @ lax_extend_formula(M, r) @ m_op


@pytest.mark.parametrize("q", [BOOL, truncated_chain(2), lukasiewicz_chain(2),
                               powerset_frame(2)],
                         ids=["boolean", "chain2", "lukasiewicz2", "powerset2"])
@pytest.mark.parametrize("kind", ["identity", "finite_ultrafilter"])
def test_fast_paths_match_the_reference_formula(kind, q):
    rng = random.Random(7)
    sets = [FinSet(["x%d" % i for i in range(k)]) for k in range(3)]
    M = instantiate_monad(kind, q)
    for X, Y, Z in itertools.product(sets, repeat=3):
        r = VRelation(q, X, Y, ((rng.randrange(q.n) for _ in Y) for _ in X))
        s = VRelation(q, Y, Z, ((rng.randrange(q.n) for _ in Z) for _ in Y))
        assert lax_extend(M, r) == lax_extend_formula(M, r)
        assert kleisli(M, s, r, X) == _reference_kleisli(M, s, r, X)


def test_corrupted_multiplication_is_caught():
    rep = check_monad_laws(_BrokenMult("identity", BOOL), size_limit=2)
    names = {c.name for c in rep.failures}
    assert "unit-laws" in names


def test_corrupted_algebra_is_caught():
    # lax_extend returns r, which is the extension only while xi is the
    # identity; the law suite refuses any other algebra
    rep = check_monad_laws(_BrokenXi("identity", BOOL), size_limit=2)
    names = {c.name for c in rep.failures}
    assert "algebra-unit" in names
    assert "identity-extension" in names


def _pinned_rows(kind, tvv, joins, pairs, rels):
    """Every row of a passing law suite at size 3, with its scan counts."""
    rows = [
        ("unit-laws", PASS, "m.Te = m.eT = id on carriers up to 3"),
        ("associativity", PASS, "m.Tm = m.mT on carriers up to 3"),
        ("algebra-unit", PASS, "xi restricts the unit to the identity"),
        ("algebra-multiplication", PASS, "xi . T(xi) = xi . m_V"),
        ("unit-compatibility", PASS, "checked for all 1 points of T1"),
        ("tensor-compatibility", PASS,
         "checked for all %d points of T(VxV)" % tvv),
        ("join-compatibility", PASS,
         "checked %d instances on carriers up to 3" % joins),
        ("weak-pullback-preservation", PASS,
         "checked 4082 cone points over all spans on carriers up to 3"),
        ("multiplication-weak-pullback", PASS,
         "checked 142 cone points on carriers up to 3"),
        ("extension-functoriality", PASS,
         "T(s.r) = T(s).T(r) for %d composable pairs" % pairs),
        ("extension-extends-maps", PASS, "T of a graph is the graph of Tf"),
        ("multiplication-naturality", PASS,
         "m_Y . TTr = Tr . m_X for %d relations" % rels),
        ("unit-oplax", PASS, "e_Y . r <= Tr . e_X for %d relations" % rels),
    ]
    if kind == "finite_ultrafilter":
        rows += [
            ("ultrafilter-enumeration", PASS,
             "maximal proper filters are exactly the principal ones on "
             "carriers up to 5"),
            ("ultrafilter-transport", PASS,
             "unit, maps and Kleisli sums match the principal bijection on "
             "carriers up to 3"),
            ("ultrafilter-algebra", PASS,
             "the join formula evaluated on concrete filters matches the "
             "table"),
        ]
    return rows + [("identity-extension", PASS,
                    "the extension of the %s instance is the identity" % kind)]


@pytest.mark.parametrize("kind,q,tvv,joins,pairs,rels", [
    ("identity", BOOL, 4, 962, 256, 16),
    ("finite_ultrafilter", BOOL, 4, 962, 256, 16),
    ("finite_ultrafilter", truncated_chain(2), 16, 6910, 150, 60),
], ids=["identity-boolean", "ultrafilter-boolean", "ultrafilter-chain2"])
def test_law_suite_rows_are_frozen(kind, q, tvv, joins, pairs, rels):
    rep = check_monad_laws(instantiate_monad(kind, q), size_limit=3)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == \
        _pinned_rows(kind, tvv, joins, pairs, rels)


class _ConstantOnPullbacks(MonadInstance):
    # T collapses each map out of a pullback object (labels "(x,y)") onto
    # its first target point, so T(P) misses every other cone point
    def T_fn(self, f):
        if (len(f.src) >= 2 and len(f.dst) >= 2
                and f.src.elements[0].startswith("(")):
            return Fn(f.src, f.dst, (0,) * len(f.src))
        return super().T_fn(f)


def test_collapsed_pullbacks_fail_weak_pullback_preservation():
    rep = check_monad_laws(_ConstantOnPullbacks("identity", BOOL),
                           size_limit=3)
    details = {c.name: c.detail for c in rep.failures}
    # the last failing cone point of the last failing span
    assert details["weak-pullback-preservation"] == (
        "witness: (Fn(x1->x3, x2->x3, x3->x3), Fn(x1->x3, x2->x3, x3->x3), "
        "2, 2)")


class _ConstantOntoTwoPoints(MonadInstance):
    # T collapses each map out of a pullback object onto a 2-point target,
    # so whether a span's cone points lie in T(P) depends on the size of
    # the pullback's second carrier, not only on its pairs of points
    def T_fn(self, f):
        if (len(f.src) >= 2 and len(f.dst) == 2
                and f.src.elements[0].startswith("(")):
            return Fn(f.src, f.dst, (0,) * len(f.src))
        return super().T_fn(f)


def test_pullbacks_differ_by_their_second_carrier():
    rep = check_monad_laws(_ConstantOntoTwoPoints("identity", BOOL),
                           size_limit=3)
    details = {c.name: c.detail for c in rep.failures}
    # the last failing span has a 2-point second carrier: the 3-point one
    # with the same pairs of points passes
    assert details["weak-pullback-preservation"] == (
        "witness: (Fn(x1->x3, x2->x3, x3->x3), Fn(x1->x3, x2->x3), 2, 1)")


@pytest.mark.parametrize("q,witness", [
    (BOOL, "witness: (VRelation(x1,y1:1; x1,y2:1; x2,y1:1; x2,y2:1), "
           "VRelation(y1,z1:1; y1,z2:1; y2,z1:1; y2,z2:0))"),
    (truncated_chain(2),
     "witness: (VRelation(x1,y1:1; x1,y2:inf; x2,y1:1; x2,y2:1), "
     "VRelation(y1,z1:1; y1,z2:1; y2,z1:inf; y2,z2:2))"),
], ids=["boolean-all-pairs", "chain2-sampled-pairs"])
def test_non_functorial_extension_fails_functoriality(q, witness,
                                                     monkeypatch):
    # the formula with its first row sent to bottom is not a functor
    def first_row_dropped(M, r):
        ext = lax_extend_formula(M, r)
        if not ext.rows:
            return ext
        bottom = bytes((M.q.bottom,)) * len(ext.dst)
        return VRelation(M.q, ext.src, ext.dst, (bottom,) + ext.rows[1:])
    monkeypatch.setattr("tvcat.monad.lax_extend_formula", first_row_dropped)
    rep = check_monad_laws(instantiate_monad("finite_ultrafilter", q),
                           size_limit=2)
    details = {c.name: c.detail for c in rep.failures}
    # the last failing composable pair in scan order
    assert details["extension-functoriality"] == witness


def test_presheaf_structure_rows_frozen():
    M = instantiate_monad("identity", BOOL)
    k, bot = BOOL.index_of("1"), BOOL.index_of("0")
    rows = M.presheaf_structure([bytes((k,)), bytes((bot,))])
    assert rows == [bytes((1, 0)), bytes((1, 1))]


def _rel(q, X, Y, data):
    n = q.n
    rows = [[data[i * len(Y) + j] % n for j in range(len(Y))]
            for i in range(len(X))]
    return VRelation(q, X, Y, rows)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_kleisli_associativity(rdata, sdata, tdata):
    q = truncated_chain(2)
    M = instantiate_monad("finite_ultrafilter", q)
    X, Y = FinSet(["a", "b"]), FinSet(["c", "d"])
    Z, W = FinSet(["e", "f"]), FinSet(["g"])
    r = _rel(q, X, Y, rdata)
    s = _rel(q, Y, Z, sdata)
    t = _rel(q, Z, W, tdata)
    left = kleisli(M, kleisli(M, t, s, Y), r, X)
    right = kleisli(M, t, kleisli(M, s, r, X), X)
    assert left == right
    assert kleisli(M, s, r, X) == _reference_kleisli(M, s, r, X)
    assert kleisli(M, t, s, Y) == _reference_kleisli(M, t, s, Y)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_extension_is_identity_on_relations(data):
    q = truncated_chain(2)
    M = instantiate_monad("finite_ultrafilter", q)
    X, Y = FinSet(["a", "b"]), FinSet(["c", "d", "e"])
    r = _rel(q, X, Y, data)
    assert lax_extend(M, r) == r
    assert lax_extend_formula(M, r) == r
