"""Enriched categories, functors, bimodules and the surrounding calculus."""

import pytest

from tvcat import FinSet, Fn, InputError, boolean_quantale
from tvcat.core import EngineError
from tvcat.category import (Bimodule, TVCategory, TVFunctor, bim_compose,
                            check_bimodule, check_category,
                            check_enriched_calculus, check_functor,
                            check_graph_adjunction, costar, dual_category,
                            functor_leq, identity_functor, is_fully_faithful,
                            is_separated, module_functor_correspondence, star,
                            tensor_category, unit_category, v_category)
from tvcat.corpus import seed_corpus
from tvcat.monad import MonadInstance, check_monad_laws, instantiate_monad
from tvcat.presheaf import apply_P, presheaf_space, yoneda
from tvcat.quantale import VRelation, truncated_chain
from tvcat.report import SKIP

from builders import (category_from_entries, constant_relation,
                      discrete_category, entry, fn_from_dict,
                      relation_from_entries, underlying_order)

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


@pytest.mark.parametrize("kind", ["identity", "finite_ultrafilter"])
def test_new_carriers_pass_the_ultrafilter_check(kind, monkeypatch):
    # the monad law suite is the one place that compares carriers with the
    # concrete ultrafilters: with none to find, only the ultrafilter
    # instance fails there, and building a category checks nothing
    monkeypatch.setattr("tvcat.monad.ultrafilters_concrete",
                        lambda items: [])
    M = MonadInstance(kind, BOOL)
    rep = check_monad_laws(M, 2)
    if kind == "identity":
        assert rep.ok, rep.to_text()
    else:
        assert [c.name for c in rep.failures] == ["ultrafilter-enumeration"]
        assert "principal bijection" in rep.failures[0].detail
    X = FinSet(["p", "q"])
    C = TVCategory(M, X, VRelation.identity(BOOL, X), "P")
    assert check_category(C).ok


def test_chains_and_discretes_are_categories():
    for C in (TWO, THREE, antichain(ID_BOOL, ["a", "b"]),
              chain(UF_BOOL, ["a", "b"]), discrete_category(UF_BOOL, ["a"])):
        rep = check_category(C)
        assert rep.ok, rep.to_text()


def test_missing_reflexivity_is_caught():
    C = category_from_entries(ID_BOOL, ["a"], {}, default="0")
    rep = check_category(C)
    assert [c.name for c in rep.failures] == ["reflexivity"]


def test_missing_transitivity_is_caught():
    entries = {("a", "a"): "1", ("b", "b"): "1", ("c", "c"): "1",
               ("a", "b"): "1", ("b", "c"): "1"}
    C = category_from_entries(ID_BOOL, ["a", "b", "c"], entries, default="0")
    rep = check_category(C)
    assert [c.name for c in rep.failures] == ["transitivity"]


def test_structure_shape_is_validated():
    X = FinSet(["a", "b"])
    wrong = constant_relation(BOOL, FinSet(["a"]), X, "1")
    with pytest.raises(InputError):
        TVCategory(ID_BOOL, X, wrong)


def test_underlying_order_of_two_chain():
    assert underlying_order(TWO) == {("a", "a"), ("a", "b"), ("b", "b")}
    assert is_separated(TWO)


def test_a_loop_is_not_separated():
    loop = category_from_entries(ID_BOOL, ["x", "y"], {}, default="1")
    assert check_category(loop).ok
    assert not is_separated(loop)
    assert is_separated(THREE)


def test_dual_of_a_chain_reverses_it():
    op = dual_category(TWO)
    assert check_category(op).ok
    assert entry(op.structure, "b", "a") == "1"
    assert entry(op.structure, "a", "b") == "0"
    assert underlying_order(op) == {("a", "a"), ("b", "a"), ("b", "b")}


def test_tensor_is_the_product_order_for_boolean():
    P = tensor_category(TWO, TWO)
    assert check_category(P).ok
    assert entry(P.structure, "(a,a)", "(b,b)") == "1"
    assert entry(P.structure, "(b,a)", "(a,b)") == "0"
    assert entry(P.structure, "(a,b)", "(b,b)") == "1"


def test_unit_and_quantale_categories():
    for M in (ID_BOOL, UF_BOOL, instantiate_monad("identity", truncated_chain(1))):
        assert check_category(unit_category(M)).ok
        assert check_category(v_category(M)).ok
    VC = v_category(instantiate_monad("identity", truncated_chain(1)))
    assert entry(VC.structure, "1", "0") == "0"
    assert entry(VC.structure, "0", "1") == "1"
    assert entry(VC.structure, "1", "inf") == "1"


def test_functor_validation():
    incl = TVFunctor(TWO, THREE, fn_from_dict(TWO.carrier, THREE.carrier,
                                              {"a": "a", "b": "b"}), "incl")
    assert check_functor(incl).ok
    swap = TVFunctor(TWO, TWO, fn_from_dict(TWO.carrier, TWO.carrier,
                                            {"a": "b", "b": "a"}), "swap")
    rep = check_functor(swap)
    assert not rep.ok and "fails at" in rep.failures[0].detail


def test_functor_failure_names_the_first_violating_pair():
    # a -> c, b -> a, c -> b breaks a <= b and a <= c, and keeps b <= c
    rot = TVFunctor(THREE, THREE,
                    fn_from_dict(THREE.carrier, THREE.carrier,
                                 {"a": "c", "b": "a", "c": "b"}), "rot")
    rep = check_functor(rot)
    assert [c.detail for c in rep.failures] == ["fails at ('a', 'b')"]
    assert len(rep.checks) == 1


def test_fn_names_the_first_entry_out_of_range():
    A, B = FinSet("abcd"), FinSet("xy")
    for table, first in [((0, -1, 5, 1), -1), ((1, 5, -1, 0), 5),
                         ((0, 1, 1, 2), 2), ((-3,) * 4, -3)]:
        with pytest.raises(EngineError,
                           match="^function table index %d out of range$"
                           % first):
            Fn(A, B, table)
    assert Fn(A, B, iter((1, 0, 0, 1))).table == (1, 0, 0, 1)
    assert Fn(FinSet(()), FinSet(()), ()).table == ()


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
    incl = TVFunctor(TWO, THREE, fn_from_dict(TWO.carrier, THREE.carrier,
                                              {"a": "a", "b": "b"}), "incl")
    lo, hi = star(incl), costar(incl)
    assert check_bimodule(lo).ok and check_bimodule(hi).ok
    assert check_graph_adjunction(incl).ok
    assert entry(lo.rel, "a", "c") == "1"   # a <= c in the ambient chain
    assert entry(hi.rel, "c", "b") == "0"   # c <= b fails
    assert entry(hi.rel, "a", "b") == "1"


def test_fully_faithful_detection():
    incl = TVFunctor(TWO, THREE, fn_from_dict(TWO.carrier, THREE.carrier,
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
        pt[x] = TVFunctor(one, TWO, fn_from_dict(one.carrier, TWO.carrier,
                                                 {"*": x}), "pt_" + x)
    assert functor_leq(pt["a"], pt["b"])
    assert not functor_leq(pt["b"], pt["a"])
    assert functor_leq(pt["a"], pt["a"])
    # same labels and tables, different target structures: not parallel
    anti = antichain(ID_BOOL, ["a", "b"])
    f = TVFunctor(one, TWO, fn_from_dict(one.carrier, TWO.carrier,
                                         {"*": "b"}), "f")
    g = TVFunctor(one, anti, fn_from_dict(one.carrier, anti.carrier,
                                          {"*": "b"}), "g")
    with pytest.raises(InputError):
        functor_leq(f, g)
    with pytest.raises(InputError):
        functor_leq(g, f)
    assert f != g
    assert f == TVFunctor(one, TWO, f.fn, "f2")


@pytest.mark.parametrize("q", [BOOL, truncated_chain(2)],
                         ids=["boolean", "truncated_chain(2)"])
def test_functor_order_is_the_order_of_restriction_modules(q):
    # functor_leq reads columns of the target's structure at the distinct
    # pairs (f x, g x); the reference compares the whole restriction modules
    _, fns = seed_corpus(instantiate_monad("identity", q), 2)
    groups = {}
    for f in fns:
        groups.setdefault((id(f.src), id(f.dst)), []).append(f)
    held = 0
    for group in groups.values():
        for f in group:
            for g in group:
                want = costar(f).rel <= costar(g).rel
                assert functor_leq(f, g) == want, (f.name, g.name)
                held += want
    pairs = sum(len(group) ** 2 for group in groups.values())
    assert 0 < held - len(fns) < pairs - len(fns)
    assert any(not f.src.carrier for f in fns)
    # P(y) <= y_P between the presheaf spaces of a two-point chain
    C = chain(instantiate_monad("identity", q), ["a", "b"])
    py = apply_P(yoneda(C))
    y2 = yoneda(presheaf_space(C).category)
    assert len(py.dst.carrier) > 3
    for f, g in ((py, y2), (y2, py)):
        assert functor_leq(f, g) == (costar(f).rel <= costar(g).rel)
    assert functor_leq(py, y2) and not functor_leq(y2, py)


def test_bimodule_rejects_bad_shapes():
    rel = constant_relation(BOOL, TWO.carrier, THREE.carrier, "1")
    Bimodule(TWO, THREE, rel)  # fine
    with pytest.raises(InputError):
        Bimodule(THREE, TWO, rel)


def test_non_module_fails_the_action_laws():
    # upward-closed in the first argument violates the right action on a chain
    rel = relation_from_entries(BOOL, TWO.carrier,
                                unit_category(ID_BOOL).carrier,
                                {("b", "*"): "1"}, default="0")
    rep = check_bimodule(Bimodule(TWO, unit_category(ID_BOOL), rel))
    assert not rep.ok


def test_module_functor_correspondence_on_small_pairs():
    checked, witness = module_functor_correspondence(TWO, TWO)
    assert witness is None and checked == 16
    checked, witness = module_functor_correspondence(THREE, TWO)
    assert checked == 64 and witness is None
    # with an empty side the one candidate is the empty map
    empty = chain(ID_BOOL, [], "empty")
    for C, D in ((empty, TWO), (TWO, empty), (empty, empty)):
        assert module_functor_correspondence(C, D) == (1, None)


def test_over_cap_correspondence_pairs_are_trailing_capped_rows(monkeypatch):
    cats = [TWO, THREE]
    fns = [identity_functor(C) for C in cats]
    rep = check_enriched_calculus(ID_BOOL, cats, fns)
    assert rep.checks[-1].detail == \
        "equivalence checked for %d candidate maps" % (16 + 2 * 64 + 512)
    # at a cap of 16 only two -|-> two is scanned, and each other pair is
    # a capped row after the correspondence row, in scan order
    monkeypatch.setattr("tvcat.category.MODULE_SCAN_CAP", 16)
    rep = check_enriched_calculus(ID_BOOL, cats, fns)
    assert rep.ok, rep.to_text()
    assert (rep.checks[-4].name, rep.checks[-4].detail) == (
        "module-functor-correspondence",
        "equivalence checked for 16 candidate maps")
    assert [(c.name, c.status, c.detail) for c in rep.checks[-3:]] == [
        ("capped", SKIP, "%s: correspondence scan 2^%d over cap 16" % pair)
        for pair in (("two -|-> three", 6), ("three -|-> two", 6),
                     ("three -|-> three", 9))]


def _corpus(M):
    cats = [unit_category(M), chain(M, ["a", "b"], "two"),
            antichain(M, ["p", "q"], "anti")]
    fns = [identity_functor(C) for C in cats]
    one, two, anti = cats
    fns.append(TVFunctor(one, two, fn_from_dict(one.carrier, two.carrier,
                                                {"*": "a"}), "bot"))
    fns.append(TVFunctor(one, two, fn_from_dict(one.carrier, two.carrier,
                                                {"*": "b"}), "top"))
    fns.append(TVFunctor(anti, two, fn_from_dict(anti.carrier, two.carrier,
                                                 {"p": "a", "q": "b"}),
                         "embed"))
    fns.append(TVFunctor(two, one, fn_from_dict(two.carrier, one.carrier,
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
