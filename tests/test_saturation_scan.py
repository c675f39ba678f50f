"""`check_saturated` against a per-pair reference scan.

The reference composes one pair at a time through `bim_compose`, and
restricts each candidate along one point at a time through the costar of
that point, building a `Bimodule` for every composite and restriction.
`check_saturated` does the same scans with one product per member and one
per category pair; its report text must be the same, including the
capped "checked the first N" text and the witnesses of failing classes.
"""

import pytest

from tvcat.category import (Bimodule, TVFunctor, bim_compose, costar,
                            unit_category)
from tvcat.core import Fn
from tvcat.corpus import iso_representatives, seed_corpus
from tvcat.monad import instantiate_monad
from tvcat.presheaf import (SaturatedClass, _all_bimodules, check_saturated,
                            saturated_class)
from tvcat.quantale import (boolean_quantale, lukasiewicz_chain,
                            truncated_chain)
from tvcat.report import PASS, LawReport

from builders import category_from_entries, discrete_category

ID = instantiate_monad("identity", boolean_quantale())
CLASSES = [saturated_class(k) for k in ("all", "representable",
                                        "right_adjoint")]


def reference_check_saturated(cls, cats, fns, pair_budget=40000):
    """The per-pair scan, stopping at the first witness of either scan."""
    rep = LawReport("saturation: %s" % cls.name)
    bad = next((f.name for f in fns if not cls.contains(costar(f))), None)
    rep.add("contains-restrictions", bad is None,
            "f^* is a member for all %d corpus functors" % len(fns)
            if bad is None else "missing f^* of %s" % bad)
    small = [C for C in cats if len(C.carrier) <= 2]
    known = {}

    def member(phi):
        key = (phi.src, phi.dst, phi.rel.rows)
        if key not in known:
            known[key] = cls.contains(phi)
        return known[key]

    def mods(C, D):
        return [m for m in _all_bimodules(C, D) if member(m)]

    def composition():
        pairs = 0
        for C in small:
            for D in small:
                for Z in small:
                    for phi in mods(C, D):
                        for psi in mods(D, Z):
                            if pairs == pair_budget:
                                return None, pairs, True
                            pairs += 1
                            comp = Bimodule(C, Z, bim_compose(psi, phi))
                            if not member(comp):
                                return (phi.rel, psi.rel), pairs, False
        return None, pairs, False

    witness, pairs, capped = composition()
    rep.add("composition-closed", witness is None,
            "checked %s%d composable member pairs (carriers up to 2)"
            % ("the first " if capped else "", pairs)
            if witness is None else "witness: %s" % (witness,))

    def detection():
        scanned = 0
        one = unit_category(cats[0].M)
        for C in small:
            for D in small:
                points = [costar(TVFunctor(one, D, Fn(one.carrier, D.carrier,
                                                      (y,)), "pt"))
                          for y in range(len(D.carrier))]
                for psi in _all_bimodules(C, D):
                    scanned += 1
                    if all(member(Bimodule(C, one, bim_compose(r, psi)))
                           for r in points) and not member(psi):
                        return psi.rel, scanned
        return None, scanned

    witness, scanned = detection()
    rep.add("pointwise-detection", witness is None,
            "scanned %d bimodules (carriers up to 2)" % scanned
            if witness is None else "witness: %s" % (witness,))
    return rep


class Marked(SaturatedClass):
    """Bimodules with the unit somewhere: not composition closed."""

    def admits(self, phi):
        return any(phi.src.q.unit in row for row in phi.rel.rows)


class AtMostOnePoint(SaturatedClass):
    """Bimodules into at most one point: not detected pointwise."""

    def admits(self, phi):
        return len(phi.dst.carrier) <= 1


def chain_cat(M, labels, name):
    q = M.q
    entries = {(x, y): q.elements[q.unit]
               for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(M, labels, entries,
                                 default=q.elements[q.bottom], name=name)


ONE = chain_cat(ID, ["p"], "one")
TWO = chain_cat(ID, ["a", "b"], "two")
ANTI = discrete_category(ID, ["l", "r"], "anti")
EMPTY = discrete_category(ID, [], "empty")
SMALL_FNS = [TVFunctor(ONE, TWO, Fn(ONE.carrier, TWO.carrier, (1,)), "top"),
             TVFunctor(TWO, ONE, Fn(TWO.carrier, ONE.carrier, (0, 0)),
                       "bang"),
             TVFunctor(EMPTY, ANTI, Fn(EMPTY.carrier, ANTI.carrier, ()),
                       "none")]


def corpora():
    cats, fns = seed_corpus(ID, 2)
    yield "boolean", cats, fns
    M = instantiate_monad("identity", lukasiewicz_chain(2))
    cats, fns = seed_corpus(M, 2)
    yield "lukasiewicz", [C for C in cats if len(C.carrier) <= 2], fns[::7]
    yield "with-empty", [EMPTY, ONE, TWO, ANTI], SMALL_FNS


CORPORA = {name: (cats, fns) for name, cats, fns in corpora()}
# the full default budget only where the reference scan takes well under
# a second per class
CASES = [(name, budget) for name in CORPORA for budget in (1, 50, 137)] \
    + [("boolean", 40000), ("with-empty", 40000)]


@pytest.mark.parametrize("name,budget", CASES)
def test_batched_scan_reports_as_the_per_pair_scan(monkeypatch, name,
                                                   budget):
    monkeypatch.setattr("tvcat.presheaf.SATURATION_PAIR_BUDGET", budget)
    cats, fns = CORPORA[name]
    assert any(len(C.carrier) == 0 for C in cats)
    for cls in CLASSES:
        got = check_saturated(cls, cats, fns)
        want = reference_check_saturated(cls, cats, fns, pair_budget=budget)
        assert got.to_text() == want.to_text(), (name, cls.name, budget)


@pytest.mark.parametrize("budget", [1, 50, 137, 40000])
def test_failing_classes_give_the_reference_witness(monkeypatch, budget):
    monkeypatch.setattr("tvcat.presheaf.SATURATION_PAIR_BUDGET", budget)
    cats = [ONE, TWO, ANTI]
    for cls in (Marked("marked"), AtMostOnePoint("one-point")):
        got = check_saturated(cls, cats, [])
        want = reference_check_saturated(cls, cats, [], pair_budget=budget)
        assert got.to_text() == want.to_text(), (cls.name, budget)


def test_pointwise_detection_reports_the_first_failing_bimodule():
    rep = check_saturated(AtMostOnePoint("one-point"), [ONE, TWO, ANTI], [])
    assert [c.name for c in rep.failures] == ["pointwise-detection"]
    # the all-bottom ONE -|-> TWO, not the last failing ONE -|-> ANTI
    assert rep.failures[0].detail == "witness: VRelation(p,a:0; p,b:0)"


def test_an_over_cap_pair_is_a_capped_row_and_the_scan_goes_on():
    # 7 values: a pair of 2-point categories has 7^4 > 1024 candidates
    cats, fns = seed_corpus(instantiate_monad("identity", truncated_chain(5)),
                            2)
    rep = check_saturated(CLASSES[0], cats, iso_representatives(fns))
    assert rep.ok
    decided, capped = rep.checks[:3], rep.checks[3:]
    assert [c.name for c in decided] == ["contains-restrictions",
                                         "composition-closed",
                                         "pointwise-detection"]
    assert {c.status for c in decided} == {PASS}
    assert {c.name for c in capped} == {"capped"}
    two = [C.name for C in cats if len(C.carrier) == 2]
    assert sorted(c.detail for c in capped) == sorted(
        "%s -|-> %s: bimodule scan 7^4 over cap 1024" % (C, D)
        for C in two for D in two)
