"""Enriched categories, functors, bimodules and the surrounding calculus."""

import pytest

from tvcat import FinSet, Fn, InputError, ValidationError, boolean_quantale
from tvcat.category import (Bimodule, TVCategory, TVFunctor, bim_compose,
                            category_from_entries, check_bimodule,
                            check_category, check_enriched_calculus,
                            check_functor, check_graph_adjunction, costar,
                            discrete_category, dual_category, functor_leq,
                            identity_functor, is_fully_faithful, is_separated,
                            module_functor_correspondence, separated_quotient,
                            star, tensor_category, underlying_order,
                            unit_category, v_category, validate_category)
from tvcat.corpus import seed_corpus
from tvcat.monad import instantiate_monad
from tvcat.quantale import VRelation, truncated_chain

BOOL = boolean_quantale()
ID_BOOL = instantiate_monad("identity", BOOL)
UF_BOOL = instantiate_monad("finite_ultrafilter", BOOL)


def chain(M, labels, name="chain"):
    """Total order on the given labels, as a category over M."""
    order = {(x, y): M.q.unit
             for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(M, labels, order, default=M.q.bottom, name=name)


def antichain(M, labels, name="antichain"):
    return discrete_category(M, labels, name)


TWO = chain(ID_BOOL, ["a", "b"], "two")
THREE = chain(ID_BOOL, ["a", "b", "c"], "three")


def test_chains_and_discretes_are_categories():
    for C in (TWO, THREE, antichain(ID_BOOL, ["a", "b"]),
              chain(UF_BOOL, ["a", "b"]), discrete_category(UF_BOOL, ["a"])):
        rep = check_category(C)
        assert rep.ok, rep.to_text()


def test_missing_reflexivity_is_caught():
    C = category_from_entries(ID_BOOL, ["a"], {}, default="0")
    rep = check_category(C)
    assert [c.name for c in rep.failures] == ["reflexivity"]
    with pytest.raises(ValidationError, match="reflexivity"):
        validate_category(C)


def test_missing_transitivity_is_caught():
    entries = {("a", "a"): "1", ("b", "b"): "1", ("c", "c"): "1",
               ("a", "b"): "1", ("b", "c"): "1"}
    C = category_from_entries(ID_BOOL, ["a", "b", "c"], entries, default="0")
    rep = check_category(C)
    assert [c.name for c in rep.failures] == ["transitivity"]


def test_structure_shape_is_validated():
    X = FinSet(["a", "b"])
    wrong = VRelation.constant(BOOL, FinSet(["a"]), X, "1")
    with pytest.raises(InputError):
        TVCategory(ID_BOOL, X, wrong)


def test_underlying_order_of_two_chain():
    assert underlying_order(TWO) == {("a", "a"), ("a", "b"), ("b", "b")}
    assert is_separated(TWO)


def test_quotient_collapses_a_loop():
    loop = category_from_entries(ID_BOOL, ["x", "y"], {}, default="1")
    assert not is_separated(loop)
    D, proj = separated_quotient(loop)
    assert len(D.carrier) == 1
    assert is_separated(D)
    assert check_category(D).ok
    assert check_functor(proj).ok
    # already-separated categories are left alone
    E, p = separated_quotient(THREE)
    assert p.fn.is_identity()


def test_dual_of_a_chain_reverses_it():
    op = dual_category(TWO)
    assert check_category(op).ok
    assert op.structure.entry("b", "a") == "1"
    assert op.structure.entry("a", "b") == "0"
    assert underlying_order(op) == {("a", "a"), ("b", "a"), ("b", "b")}


def test_tensor_is_the_product_order_for_boolean():
    P = tensor_category(TWO, TWO)
    assert check_category(P).ok
    assert P.structure.entry("(a,a)", "(b,b)") == "1"
    assert P.structure.entry("(b,a)", "(a,b)") == "0"
    assert P.structure.entry("(a,b)", "(b,b)") == "1"


def test_unit_and_quantale_categories():
    for M in (ID_BOOL, UF_BOOL, instantiate_monad("identity", truncated_chain(1))):
        assert check_category(unit_category(M)).ok
        assert check_category(v_category(M)).ok
    VC = v_category(instantiate_monad("identity", truncated_chain(1)))
    assert VC.structure.entry("1", "0") == "0"
    assert VC.structure.entry("0", "1") == "1"
    assert VC.structure.entry("1", "inf") == "1"


def test_functor_validation():
    incl = TVFunctor(TWO, THREE, Fn.from_dict(TWO.carrier, THREE.carrier,
                                              {"a": "a", "b": "b"}), "incl")
    assert check_functor(incl).ok
    swap = TVFunctor(TWO, TWO, Fn.from_dict(TWO.carrier, TWO.carrier,
                                            {"a": "b", "b": "a"}), "swap")
    rep = check_functor(swap)
    assert not rep.ok and "fails at" in rep.failures[0].detail


def test_functor_carrier_mismatch():
    with pytest.raises(InputError):
        TVFunctor(TWO, THREE, Fn.identity(TWO.carrier))
    # same labels, different middle categories: nothing composes
    anti = antichain(ID_BOOL, ["a", "b"])
    f = TVFunctor(anti, anti, Fn.identity(anti.carrier), "f")
    g = TVFunctor(TWO, TWO, Fn.identity(TWO.carrier), "g")
    with pytest.raises(InputError):
        g @ f
    with pytest.raises(InputError):
        bim_compose(star(g), star(f))
    relabel = TVFunctor(anti, TWO, Fn.identity(TWO.carrier), "relabel")
    assert (g @ relabel).fn.is_identity()
    assert bim_compose(star(g), star(relabel)) == star(relabel).rel


def test_graph_modules_of_an_inclusion():
    incl = TVFunctor(TWO, THREE, Fn.from_dict(TWO.carrier, THREE.carrier,
                                              {"a": "a", "b": "b"}), "incl")
    lo, hi = star(incl), costar(incl)
    assert check_bimodule(lo).ok and check_bimodule(hi).ok
    assert check_graph_adjunction(incl).ok
    assert lo.rel.entry("a", "c") == "1"   # a <= c in the ambient chain
    assert hi.rel.entry("c", "b") == "0"   # c <= b fails
    assert hi.rel.entry("a", "b") == "1"


def test_fully_faithful_detection():
    incl = TVFunctor(TWO, THREE, Fn.from_dict(TWO.carrier, THREE.carrier,
                                              {"a": "a", "b": "c"}), "skip")
    assert is_fully_faithful(incl)
    anti = antichain(ID_BOOL, ["a", "b"])
    relabel = TVFunctor(anti, TWO, Fn.identity(TWO.carrier), "relabel")
    assert check_functor(relabel).ok
    assert not is_fully_faithful(relabel)
    comp = bim_compose(costar(relabel), star(relabel))
    assert comp != anti.structure


def test_functor_order_matches_pointwise_order():
    one = unit_category(ID_BOOL)
    pt = {}
    for x in TWO.carrier:
        pt[x] = TVFunctor(one, TWO, Fn.from_dict(one.carrier, TWO.carrier,
                                                 {"*": x}), "pt_" + x)
    assert functor_leq(pt["a"], pt["b"])
    assert not functor_leq(pt["b"], pt["a"])
    assert functor_leq(pt["a"], pt["a"])
    # same labels and tables, different target structures: not parallel
    anti = antichain(ID_BOOL, ["a", "b"])
    f = TVFunctor(one, TWO, Fn.from_dict(one.carrier, TWO.carrier,
                                         {"*": "b"}), "f")
    g = TVFunctor(one, anti, Fn.from_dict(one.carrier, anti.carrier,
                                          {"*": "b"}), "g")
    with pytest.raises(InputError):
        functor_leq(f, g)
    with pytest.raises(InputError):
        functor_leq(g, f)
    assert f != g
    assert f == TVFunctor(one, TWO, f.fn, "f2")


def test_bimodule_rejects_bad_shapes():
    rel = VRelation.constant(BOOL, TWO.tx, THREE.carrier, "1")
    Bimodule(TWO, THREE, rel)  # fine
    with pytest.raises(InputError):
        Bimodule(THREE, TWO, rel)


def test_non_module_fails_the_action_laws():
    # upward-closed in the first argument violates the right action on a chain
    rel = VRelation.from_entries(BOOL, TWO.tx, unit_category(ID_BOOL).carrier,
                                 {("b", "*"): "1"}, default="0")
    rep = check_bimodule(Bimodule(TWO, unit_category(ID_BOOL), rel))
    assert not rep.ok


def test_module_functor_correspondence_on_small_pairs():
    checked, witness = module_functor_correspondence(TWO, TWO)
    assert witness is None and checked == 16
    checked, witness = module_functor_correspondence(THREE, TWO, cap=64)
    assert checked == 64 and witness is None


def _corpus(M):
    cats = [unit_category(M), chain(M, ["a", "b"], "two"),
            antichain(M, ["p", "q"], "anti")]
    fns = [identity_functor(C) for C in cats]
    one, two, anti = cats
    fns.append(TVFunctor(one, two, Fn.from_dict(one.carrier, two.carrier,
                                                {"*": "a"}), "bot"))
    fns.append(TVFunctor(one, two, Fn.from_dict(one.carrier, two.carrier,
                                                {"*": "b"}), "top"))
    fns.append(TVFunctor(anti, two, Fn.from_dict(anti.carrier, two.carrier,
                                                 {"p": "a", "q": "b"}),
                         "embed"))
    fns.append(TVFunctor(two, one, Fn.from_dict(two.carrier, one.carrier,
                                                {"a": "*", "b": "*"}), "bang"))
    return cats, fns


@pytest.mark.parametrize("M", [ID_BOOL, UF_BOOL,
                               instantiate_monad("finite_ultrafilter",
                                                 truncated_chain(1))])
def test_enriched_calculus_suite(M):
    cats, fns = _corpus(M)
    rep = check_enriched_calculus(M, cats, fns)
    assert rep.ok, rep.to_text()


@pytest.mark.parametrize("M", [ID_BOOL, UF_BOOL])
def test_calculus_pairs_modules_on_the_middle_category(M):
    # three 2-point categories share the labels of one carrier, so pairing
    # by labels would compose modules whose middle categories differ
    cats, fns = seed_corpus(M, 2)
    assert sum(len(C.carrier) == 2 for C in cats) == 3
    rep = check_enriched_calculus(M, cats, fns)
    assert rep.ok, rep.to_text()
