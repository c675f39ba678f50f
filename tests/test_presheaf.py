import itertools

import pytest
from hypothesis import given, settings, strategies as st

from tvcat.core import EngineError, FinSet, Fn, SizeCapError, ValidationError
from tvcat.quantale import (VRelation, boolean_quantale, lukasiewicz_chain,
                            powerset_frame, truncated_chain)
from tvcat.monad import instantiate_monad
from tvcat import presheaf
from tvcat.category import (MEMO, Bimodule, TVCategory, TVFunctor,
                            _candidate_relation, _structure_maps,
                            check_category, costar, functor_leq,
                            identity_functor, is_bimodule, is_functor,
                            is_separated, underlying_order, unit_category)
from tvcat.corpus import seed_corpus
from tvcat.presheaf import (ADJOINT_CROSSCHECK_CAP, SaturatedClass,
                            _adjoint_by_scan, _all_bimodules, apply_P,
                            apply_P_star, check_adjoint_residual,
                            check_presheaf_monad, check_saturated,
                            phi_dense, presheaf_space, saturated_class,
                            space_mult, unit_isomorphism_check, yoneda,
                            yoneda_lemma_check)

from builders import category_from_entries, discrete_category

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

    # the over-cap verdict is remembered: no enumeration at the same cap
    def refuse(*args):
        raise AssertionError("enumerated an over-cap space again")

    with monkeypatch.context() as m:
        m.setattr("tvcat.presheaf._enumerate_value_tuples", refuse)
        with pytest.raises(SizeCapError) as exc:
            presheaf_space(base, ALL, max_space=7)
        assert str(exc.value) == message % 7
    # another cap is a cold call, with its own message or its space
    with pytest.raises(SizeCapError) as exc:
        presheaf_space(base, ALL, max_space=3)
    assert str(exc.value) == message % 3
    assert len(presheaf_space(base, ALL, max_space=8)) == 8


def test_work_capped_space_is_enumerated_once(monkeypatch):
    # 8 presheaves over 3 points: 8^2 * 3 = 192 cells, past a budget of 100
    base = discrete_category(ID, ["w0", "w1", "w2"])
    over_work = ("structure matrix for 8 presheaves over 3 lifted points "
                 "is past the work budget")
    over_cap = ("presheaf space exceeds the cap of %d "
                "(carrier of 3 lifted points)")
    original = presheaf._enumerate_value_tuples
    caps = []

    def counted(q, cond, max_space):
        caps.append(max_space)
        return original(q, cond, max_space)

    monkeypatch.setattr("tvcat.presheaf.STRUCTURE_WORK_CAP", 100)
    monkeypatch.setattr("tvcat.presheaf._enumerate_value_tuples", counted)
    try:
        # from the cap that admits all 8 presheaves up, the budget refuses;
        # below 8 the enumeration cap refuses first
        for cap in (8, 100, 8, 7, 2, 7, 100):
            with pytest.raises(SizeCapError) as exc:
                presheaf_space(base, ALL, max_space=cap)
            assert str(exc.value) == (over_work if cap >= 8
                                      else over_cap % cap)
        # a repeated cap is answered from the memo; a new cap is a cold call
        assert caps == [8, 100, 7, 2]
    finally:
        # the remembered refusal holds for the lowered budget only
        MEMO.clear()


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
    broken = any(rows[y.fn.table[ix]][ip] != psi.values[ix]
                 for ix in range(len(TWO.carrier))
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


def test_space_refuses_a_base_that_is_not_transitive():
    # a <= b and b <= c but not a <= c: reflexive and separated only
    entries = {(x, x): "1" for x in "abc"}
    entries.update({("a", "b"): "1", ("b", "c"): "1"})
    gap = category_from_entries(ID, ["a", "b", "c"], entries, default="0",
                                name="gap")
    assert is_separated(gap)
    assert [c.name for c in check_category(gap).failures] == ["transitivity"]
    with pytest.raises(ValidationError,
                       match=r"^base gap is not transitive at \('a', 'c'\)$"):
        presheaf_space(gap)


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


def representable_by_search(phi):
    """Whether phi = g^* for a functor g, by trying every table g."""
    if not is_bimodule(phi.src, phi.dst, phi.rel):
        return False
    X, Y = phi.src, phi.dst
    for table in itertools.product(range(len(X.carrier)),
                                   repeat=len(Y.carrier)):
        g = Fn(Y.carrier, X.carrier, table)
        if is_functor(Y, X, g) \
                and costar(TVFunctor(Y, X, g)).rel == phi.rel:
            return True
    return False


@pytest.mark.parametrize("q", [BOOL, truncated_chain(2)],
                         ids=["boolean", "truncated_chain(2)"])
def test_representable_lookup_matches_the_table_search(q):
    M = instantiate_monad("identity", q)
    cats, _ = seed_corpus(M, 2)
    cats = cats + [unit_category(M)]
    checked = members = 0
    for C in cats:
        for D in cats:
            for phi in _all_bimodules(C, D, q.n ** 4):
                member = REPR.contains(phi)
                assert member == representable_by_search(phi), phi.rel.rows
                checked += 1
                members += member
    # both answers occur, on more than a handful of bimodules
    assert 0 < members < checked and checked > 100


def test_contains_is_the_bimodule_test_plus_admits():
    # every relation between the boolean size-2 corpus categories; on the
    # bimodules among them, admits alone is checked against the references
    cats, _ = seed_corpus(ID, 2)
    references = {ALL: lambda phi: True, REPR: representable_by_search,
                  ADJ: lambda phi: _adjoint_by_scan(phi, 2 ** 4)}
    bimodules = 0
    for C in cats:
        for D in cats:
            for k in range(2 ** (len(C.carrier) * len(D.carrier))):
                phi = Bimodule(C, D, _candidate_relation(C, D, k))
                bimodule = is_bimodule(C, D, phi.rel)
                bimodules += bimodule
                for cls, reference in references.items():
                    assert cls.contains(phi) \
                        == (bimodule and cls.admits(phi)), (cls, k)
                    if bimodule:
                        assert cls.admits(phi) == reference(phi), (cls, k)
    assert bimodules > 50


def test_adjoint_residual_check_counts_every_small_bimodule():
    cats, _ = seed_corpus(ID, 2)
    rep = check_adjoint_residual(cats)
    assert rep.ok, rep.to_text()
    count = sum(len(_all_bimodules(C, D, ADJOINT_CROSSCHECK_CAP))
                for C in cats for D in cats
                if len(C.carrier) * len(D.carrier) <= 6)
    assert [c.detail for c in rep.checks] == [
        "the residual decides as the scan on %d bimodules" % count]


def test_adjoint_residual_check_fails_on_one_flipped_answer(monkeypatch):
    cats, _ = seed_corpus(ID, 2)
    residual = presheaf._RightAdjoint.contains
    flipped = []

    def flip_first(self, phi):
        answer = residual(self, phi)
        if flipped:
            return answer
        flipped.append(phi)
        return not answer

    monkeypatch.setattr(presheaf._RightAdjoint, "contains", flip_first)
    rep = check_adjoint_residual(cats)
    assert [c.name for c in rep.failures] == ["residual-matches-scan"]
    phi = flipped[0]
    assert rep.failures[0].detail == "disagrees on %s -> %s at %s" % (
        phi.src.name, phi.dst.name, phi.rel.rows)


def test_residual_matches_the_scan_on_presheaves_over_spaces():
    # the spaces over the 2-point boolean corpus categories, and the spaces
    # over those: 3- to 6-point bases that are not corpus categories
    cats, _ = seed_corpus(ID, 2)
    spaces = [presheaf_space(C).category for C in cats
              if len(C.carrier) == 2 and is_separated(C)]
    bases = spaces + [presheaf_space(S).category for S in spaces]
    assert {len(B.carrier) for B in bases} == {3, 4, 6}
    for B in bases:
        for psi in presheaf_space(B).presheaves:
            phi = psi.as_bimodule()
            assert ADJ.contains(phi) \
                == _adjoint_by_scan(phi, ADJOINT_CROSSCHECK_CAP), psi.name


def retractions(C):
    """Functors from the presheaf space to C that fix the Yoneda image."""
    space = presheaf_space(C)
    pinned = {t: j for j, t in enumerate(yoneda(C).fn.table)}
    return [TVFunctor(space.category, C, Fn(space.carrier, C.carrier, t),
                      "retract")
            for t in _structure_maps(space.category, C,
                                     "retraction search on %s" % C.name,
                                     pinned)]


def test_algebra_on_chain_but_not_antichain():
    rets = retractions(TWO)
    least = [r for r in rets if all(functor_leq(r, o) for o in rets)]
    assert [r.fn.table for r in least] == [(0, 0, 1)]
    assert retractions(THREE)
    assert retractions(ANTI) == []
    assert retractions(ANTI3) == []


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
    expected = [bytes(vals)
                for vals in itertools.product(range(q.n),
                                              repeat=len(C.carrier))
                if is_bimodule(C, E, VRelation(q, C.carrier, E.carrier,
                                               ((v,) for v in vals)))]
    assert [p.values for p in space.presheaves] == expected
