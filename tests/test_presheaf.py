import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tvcat.core import EngineError, FinSet, Fn, SizeCapError, ValidationError
from tvcat.quantale import (VRelation, boolean_quantale, lukasiewicz_chain,
                            powerset_frame, truncated_chain)
from tvcat.monad import instantiate_monad
from tvcat.category import (Bimodule, TVCategory, TVFunctor,
                            category_from_entries, check_category,
                            discrete_category, functor_leq, identity_functor,
                            is_bimodule, is_separated, star,
                            underlying_order, unit_category)
from tvcat.presheaf import (Presheaf, SaturatedClass, apply_P, apply_P_star,
                            check_presheaf_monad, check_saturated, has_algebra,
                            phi_dense, presheaf_space, saturated_class,
                            space_mult, unit_isomorphism_check, yoneda,
                            yoneda_lemma_check)

BOOL = boolean_quantale()
ID = instantiate_monad("identity", BOOL)
UF = instantiate_monad("finite_ultrafilter", BOOL)
ALL = saturated_class("all")
REPR = saturated_class("representable")
ADJ = saturated_class("right_adjoint")


def chain_cat(M, labels, name):
    q = M.q
    entries = {(x, y): q.elements[q.unit]
               for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(M, labels, entries,
                                 default=q.elements[q.bottom], name=name)


ONE = chain_cat(ID, ["p"], "one")
TWO = chain_cat(ID, ["a", "b"], "two")
THREE = chain_cat(ID, ["a", "b", "c"], "three")
ANTI = discrete_category(ID, ["l", "r"], "anti")
ANTI3 = discrete_category(ID, ["x", "y", "z"], "anti3")
EMPTY = discrete_category(ID, [], "empty")


def test_downsets_of_two_chain():
    space = presheaf_space(TWO)
    assert [p.name for p in space.presheaves] == ["[0,0]", "[1,0]", "[1,1]"]
    assert check_category(space.category).ok
    assert is_separated(space.category)
    assert underlying_order(space.category) == {
        (x, y) for i, x in enumerate(["[0,0]", "[1,0]", "[1,1]"])
        for y in ["[0,0]", "[1,0]", "[1,1]"][i:]}


def test_empty_base_has_one_presheaf():
    space = presheaf_space(EMPTY)
    assert [p.name for p in space.presheaves] == ["[]"]
    assert yoneda_lemma_check(EMPTY).ok


def test_point_space_is_the_quantale():
    q = truncated_chain(2)
    M = instantiate_monad("identity", q)
    pt = chain_cat(M, ["p"], "pt")
    space = presheaf_space(pt)
    assert len(space) == q.n
    # structure on the point space is the internal hom
    for i in range(q.n):
        for j in range(q.n):
            u = space.presheaves[i].values[0]
            v = space.presheaves[j].values[0]
            assert space.category.structure.rows[i][j] == q.hom_m[u][v]


def test_discrete_pair_over_chain_quantale():
    q = truncated_chain(1)
    M = instantiate_monad("identity", q)
    D = discrete_category(M, ["x", "y"], "d")
    assert len(presheaf_space(D)) == q.n ** 2


def test_antichain_cube():
    assert len(presheaf_space(ANTI3)) == 8


def test_size_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        presheaf_space(ANTI3, ALL, max_space=5)
    # cached spaces still honour a smaller cap on later calls
    presheaf_space(ANTI3, ALL, max_space=100)
    with pytest.raises(SizeCapError):
        presheaf_space(ANTI3, ALL, max_space=5)

    # fresh bases with exactly 8 presheaves: the cap is inclusive
    assert len(presheaf_space(discrete_category(ID, ["c0", "c1", "c2"]),
                              ALL, max_space=8)) == 8
    base = discrete_category(ID, ["d0", "d1", "d2"])
    message = ("presheaf space exceeds the cap of %d "
               "(carrier of 3 lifted points)")
    with pytest.raises(SizeCapError) as exc:
        presheaf_space(base, ALL, max_space=7)
    assert str(exc.value) == message % 7

    # the over-cap verdict is remembered: no enumeration at or below 7
    def refuse(*args):
        raise AssertionError("enumerated an over-cap space again")

    with monkeypatch.context() as m:
        m.setattr("tvcat.presheaf._enumerate_value_tuples", refuse)
        for cap in (7, 3):
            with pytest.raises(SizeCapError) as exc:
                presheaf_space(base, ALL, max_space=cap)
            assert str(exc.value) == message % cap
    # a larger cap enumerates again
    assert len(presheaf_space(base, ALL, max_space=8)) == 8


def test_representable_space_of_chain():
    space = presheaf_space(TWO, REPR)
    assert [p.name for p in space.presheaves] == ["[1,0]", "[1,1]"]
    assert unit_isomorphism_check(REPR, [ONE, TWO, THREE, ANTI]).ok


def test_right_adjoint_space_keeps_principal_downsets():
    space = presheaf_space(ANTI, ADJ)
    assert [p.name for p in space.presheaves] == ["[0,1]", "[1,0]"]
    assert unit_isomorphism_check(ADJ, [ONE, TWO, THREE, ANTI]).ok


def test_broken_class_breaks_yoneda():
    class Never(SaturatedClass):
        def contains(self, phi):
            return False

    with pytest.raises(EngineError):
        yoneda(TWO, Never("never"))


def test_yoneda_lemma_everywhere():
    for C in (ONE, TWO, THREE, ANTI, ANTI3):
        for cls in (ALL, REPR, ADJ):
            assert yoneda_lemma_check(C, cls).ok


def test_yoneda_lemma_fails_for_perturbed_structure():
    space = presheaf_space(TWO)
    y = yoneda(TWO)
    rows = [list(r) for r in space.category.structure.rows]
    rows[1][0] ^= 1
    broken = any(rows[y.tfn().table[ix]][ip] != psi.values[ix]
                 for ix in range(len(TWO.tx))
                 for ip, psi in enumerate(space.presheaves))
    assert broken


def test_direct_image_frozen():
    top = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top")
    pf = apply_P(top)
    src = presheaf_space(ONE)
    dst = presheaf_space(TWO)
    images = {src.presheaves[i].name: dst.presheaves[pf.fn.table[i]].name
              for i in range(len(src))}
    assert images == {"[0]": "[0,0]", "[1]": "[1,1]"}


def test_inverse_image_frozen_and_adjoint():
    top = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top")
    pf, pstar = apply_P(top), apply_P_star(top)
    assert pstar.fn.table == (0, 0, 1)
    assert functor_leq(identity_functor(pf.src), pstar @ pf)
    assert functor_leq(pf @ pstar, identity_functor(pf.dst))


def test_inverse_image_escapes_small_class():
    top = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top")
    with pytest.raises(ValidationError):
        apply_P_star(top, REPR)


def test_direct_image_respects_composition():
    emb = TVFunctor(TWO, THREE, Fn(TWO.carrier, THREE.carrier, (0, 2)), "emb")
    top = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top")
    both = apply_P(emb @ top)
    assert both.fn == (apply_P(emb).fn @ apply_P(top).fn)
    ident = apply_P(identity_functor(TWO))
    assert ident.fn.is_identity()


def test_mult_frozen_on_chain():
    mu = space_mult(TWO)
    assert mu.fn.table == (0, 0, 1, 2)


def test_monad_suite_boolean():
    cats = [ONE, TWO, ANTI]
    emb = TVFunctor(TWO, THREE, Fn(TWO.carrier, THREE.carrier, (0, 2)), "emb")
    fns = [identity_functor(TWO),
           TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top"),
           TVFunctor(ANTI, TWO, Fn(ANTI.carrier, TWO.carrier, (0, 1)), "fold")]
    for cls in (ALL, REPR, ADJ):
        rep = check_presheaf_monad(cls, cats, fns)
        assert rep.ok, rep.to_text()
    rep = check_presheaf_monad(ALL, [THREE, emb.src], [emb])
    assert rep.ok, rep.to_text()


def test_monad_suite_ultrafilter_and_chain_quantale():
    two_u = chain_cat(UF, ["a", "b"], "two")
    anti_u = discrete_category(UF, ["l", "r"], "anti")
    fns = [TVFunctor(anti_u, two_u, Fn(anti_u.carrier, two_u.carrier, (0, 1)),
                     "fold")]
    assert check_presheaf_monad(ALL, [two_u, anti_u], fns).ok

    q = truncated_chain(1)
    M = instantiate_monad("identity", q)
    pt = chain_cat(M, ["p"], "pt")
    rep = check_presheaf_monad(ALL, [pt], [identity_functor(pt)])
    assert rep.ok, rep.to_text()


def test_saturation_suite_builtin_classes():
    cats = [ONE, TWO, ANTI]
    fns = [identity_functor(TWO),
           TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top"),
           TVFunctor(TWO, ONE, Fn(TWO.carrier, ONE.carrier, (0, 0)), "bang")]
    for cls in (ALL, REPR, ADJ):
        rep = check_saturated(cls, cats, fns)
        assert rep.ok, rep.to_text()


def test_saturation_rejects_value_filter_class():
    class Marked(SaturatedClass):
        """Modules with the unit somewhere: not composition closed."""

        def contains(self, phi):
            return (is_bimodule(phi.src, phi.dst, phi.rel)
                    and any(BOOL.unit in row for row in phi.rel.rows))

    rep = check_saturated(Marked("marked"), [ONE, TWO, ANTI], [])
    assert not rep.ok
    assert any("witness" in c.detail for c in rep.failures)


def test_density():
    emb = TVFunctor(TWO, THREE, Fn(TWO.carrier, THREE.carrier, (0, 2)), "emb")
    top = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top")
    bot = TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (0,)), "bot")
    assert phi_dense(emb, ALL) and phi_dense(top, ALL)
    assert phi_dense(emb, REPR)
    assert not phi_dense(top, REPR)
    assert phi_dense(bot, REPR)


def test_algebra_on_chain_but_not_antichain():
    r = has_algebra(TWO)
    assert r is not None and r.fn.table == (0, 0, 1)
    assert has_algebra(THREE) is not None
    assert has_algebra(ANTI) is None
    assert has_algebra(ANTI3) is None


QUANTALES = [BOOL, truncated_chain(2), lukasiewicz_chain(2), powerset_frame(2)]


@st.composite
def small_v_categories(draw):
    # a random V-matrix, made reflexive and then closed transitively
    q = draw(st.sampled_from(QUANTALES))
    n = draw(st.integers(min_value=1, max_value=3))
    a = [[draw(st.integers(min_value=0, max_value=q.n - 1)) for _ in range(n)]
         for _ in range(n)]
    for i in range(n):
        a[i][i] = q.join_m[a[i][i]][q.unit]
    changed = True
    while changed:
        changed = False
        for i, j, k in itertools.product(range(n), repeat=3):
            v = q.join_m[a[i][k]][q.tensor_m[a[i][j]][a[j][k]]]
            if v != a[i][k]:
                a[i][k], changed = v, True
    return q, a


@settings(max_examples=160, deadline=None)
@given(small_v_categories())
def test_enumeration_matches_bimodule_oracle(drawn):
    q, a = drawn
    M = instantiate_monad("identity", q)
    X = FinSet(["x%d" % i for i in range(len(a))])
    C = TVCategory(M, X, VRelation(q, M.T_obj(X), X, a), "rand")
    assert check_category(C).ok
    if not is_separated(C):
        return
    space = presheaf_space(C)
    E = unit_category(M)
    # the reference: every value tuple, in lexicographic order, kept when
    # it is a bimodule C -|-> E
    expected = [vals for vals in itertools.product(range(q.n),
                                                   repeat=len(C.tx))
                if is_bimodule(C, E, VRelation(q, C.tx, E.carrier,
                                               ((v,) for v in vals)))]
    assert [p.values for p in space.presheaves] == expected
