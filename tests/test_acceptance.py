"""Acceptance gate: every verify-paper row at the four-quantale config.

One `verify-paper` run covers boolean, truncated_chain(2),
lukasiewicz_chain(2) and powerset_frame(2) with both monad instances
(boolean corpora up to 3 points, chain corpora up to 2); each verdict row
is one test.  The tests run in the default selection; they are marked
`slow`, so `-m 'not slow'` leaves them out and this runs them alone:

    pytest -v -m slow tests/test_acceptance.py
"""

import json

import pytest

from tvcat.cli import run_command

QUANTALES = "boolean,truncated_chain(2),lukasiewicz_chain(2),powerset_frame(2)"

ROWS = [
    "quantale laws",
    "monad conditions and span preservation",
    "category and bimodule calculus",
    "yoneda lemma",
    "presheaf monad laws and lax idempotency",
    "simplicity of the left leg",
    "saturation closure",
    "saturated submonads",
    "left class characterisation",
    "factorisation comonad, monad, distributivity",
    "canonical fillers are least",
    "classical factorisation cross-check",
]

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def verdict():
    _, text = run_command(["verify-paper", "--quantales", QUANTALES,
                           "--output", "json"])
    return {c["name"]: c for c in json.loads(text)["report"]["checks"]}


def test_rows_are_the_twelve_verdicts(verdict):
    assert list(verdict) == ROWS


@pytest.mark.parametrize("row", ROWS)
def test_row_passes(verdict, row):
    check = verdict[row]
    assert check["status"] == "pass", "%s: %s" % (row, check["detail"])
