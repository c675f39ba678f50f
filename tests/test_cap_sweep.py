"""A size-cap sweep over every corpus suite.

Each suite runs on the size-2 identity corpus of the boolean quantale at
caps 1, 2, 3, 8 and 64, and of truncated_chain(2) at caps 1, 3 and 9, for
the classes all, representable and right_adjoint.  No SizeCapError may
escape a suite: an item a cap stops is a trailing `capped` row.  As the
cap rises, the number of capped rows may not rise, and no row may go from
pass to fail.
"""

import re

import pytest

from tvcat.category import MEMO
from tvcat.corpus import iso_representatives, seed_corpus
from tvcat.lofs import (AWFS_LAWS, check_awfs_corpus, check_left_class,
                        check_simplicity_corpus, check_subspace_fullness,
                        wfs_cross_check)
from tvcat.monad import instantiate_monad
from tvcat.presheaf import (check_presheaf_monad, saturated_class,
                            unit_isomorphism_check)
from tvcat.quantale import boolean_quantale, truncated_chain
from tvcat.report import FAIL, PASS

SUITES = {
    "presheaf-monad": lambda cats, reps, cls, cap:
        check_presheaf_monad(cls, cats, reps, cap),
    "subspace-fullness": lambda cats, reps, cls, cap:
        check_subspace_fullness(cats, cls, cap),
    "unit-iso": lambda cats, reps, cls, cap:
        unit_isomorphism_check(cls, cats, cap),
    "left-class": lambda cats, reps, cls, cap:
        check_left_class(cats, reps, cls, cap),
    "simplicity": lambda cats, reps, cls, cap:
        check_simplicity_corpus(reps, cls, cap),
    "awfs": lambda cats, reps, cls, cap: check_awfs_corpus(reps, cls, cap),
    "cross-check": lambda cats, reps, cls, cap:
        wfs_cross_check(cats, reps, cls, cap),
}
CLASSES = [saturated_class(k) for k in ("all", "representable",
                                        "right_adjoint")]


def corpus(q):
    cats, fns = seed_corpus(instantiate_monad("identity", q), 2)
    return cats, iso_representatives(fns)


@pytest.mark.parametrize("q, caps", [(boolean_quantale(), (1, 2, 3, 8, 64)),
                                     (truncated_chain(2), (1, 3, 9))],
                         ids=["boolean", "truncated_chain(2)"])
def test_no_suite_lets_a_size_cap_escape(q, caps):
    cats, reps = corpus(q)
    try:
        for name, suite in SUITES.items():
            for cls in CLASSES:
                before = None
                for cap in caps:
                    MEMO.clear()
                    rep = suite(cats, reps, cls, cap)
                    capped = sum(c.name == "capped" for c in rep.checks)
                    rows = {c.name: c.status for c in rep.checks
                            if c.name != "capped"}
                    where = (name, cls.name, cap)
                    if before is not None:
                        assert capped <= before[0], where
                        assert not [row for row, status in rows.items()
                                    if status == FAIL
                                    and before[1].get(row) == PASS], where
                    before = capped, rows
    finally:
        MEMO.clear()


def test_a_capped_tower_is_a_capped_row_per_law_and_morphism():
    cats, reps = corpus(boolean_quantale())
    MEMO.clear()
    try:
        rep = check_awfs_corpus(reps, CLASSES[0], 8)
    finally:
        MEMO.clear()
    assert rep.ok
    rows = {c.name: c for c in rep.checks if c.name != "capped"}
    assert list(rows) == list(AWFS_LAWS)
    capped = [c.detail for c in rep.checks if c.name == "capped"]
    assert capped
    names = {f.name for f in reps}
    for law in AWFS_LAWS:
        # "<morphism>: <law>: <reason>"
        stopped = [d for d in capped if d.split(": ")[1] == law]
        assert all(d.split(": ")[0] in names for d in stopped)
        held = re.fullmatch(r"held on (\d+) morphisms", rows[law].detail)
        assert int(held.group(1)) + len(stopped) == len(reps), law
    assert any(rows[law].detail != "held on %d morphisms" % len(reps)
               for law in AWFS_LAWS)
