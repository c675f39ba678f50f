"""The row rule of `LawReport`: verdict, tally and the capped-item loop."""

from types import SimpleNamespace

from tvcat.core import SizeCapError
from tvcat.report import FAIL, PASS, SKIP, LawReport, decide


def item(name):
    return SimpleNamespace(name=name)


def row(check):
    return check.status, check.detail


def test_verdict_passes_with_held_and_fails_naming_the_bad():
    rep = LawReport()
    assert row(rep.verdict("law", [], "held on 3")) == (PASS, "held on 3")
    assert row(rep.verdict("law", ["a", "b"], "held on 3")) \
        == (FAIL, "failing: a, b")
    assert not rep.ok and len(rep.checks) == 2


def test_tally_puts_the_count_into_held():
    rep = LawReport()
    assert row(rep.tally("law", [], 5, "held on {} objects")) \
        == (PASS, "held on 5 objects")
    assert row(rep.tally("law", [], 2, "held without a count")) \
        == (PASS, "held without a count")
    assert row(rep.tally("law", ["x"], 5, "held on {} objects")) \
        == (FAIL, "failing: x")


def test_tally_skips_when_nothing_was_decided():
    rep = LawReport()
    # the count is then the first capped item, which the skip quotes
    assert row(rep.tally("law", [], "big: over the cap",
                         "held on {} objects")) \
        == (SKIP, "no item decided; first capped big: over the cap")
    # nothing capped and nothing counted: a pass on 0
    assert row(rep.tally("law", [], 0, "held on {} objects")) \
        == (PASS, "held on 0 objects")
    assert rep.ok


def test_decide_counts_decided_items_and_records_capped_ones():
    def law(x):
        if x.name.startswith("big"):
            raise SizeCapError("over the cap")
        if x.name == "out":
            return None
        return [x.name + " fails"] if x.name == "bad" else []

    skipped = ["earlier"]
    items = [item(n) for n in ("ok", "big", "out", "bad")]
    assert decide(items, law, skipped) == (["bad fails"], 2)
    assert skipped == ["earlier", "big: over the cap"]
    # the row decided nothing only when the cap stopped an item; the count
    # is then the first item the cap stopped
    assert decide([item("out"), item("big"), item("big2")], law, []) \
        == ([], "big: over the cap")
    assert decide([item("out")], law, []) == ([], 0)
    assert decide([], law, []) == ([], 0)
