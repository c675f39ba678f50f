"""Uniform pass/fail/skip reporting for every law suite in the package.

A report is an ordered list of named checks.  Skips are first-class: an
enumeration that hits the size cap records what was scanned instead of
failing, so callers can distinguish "false" from "not checked at this scale".
Every corpus suite words its rows through `LawReport.verdict` and
`LawReport.tally`, runs its capped scans through `decide`, and ends with
one `capped` row per item a cap stopped (`LawReport.capped`).
"""

from __future__ import annotations

from .core import SizeCapError


PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Check:
    """One row: a name, a status (PASS, FAIL or SKIP) and a detail."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str = ""):
        self.name = name
        self.status = status
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.status, self.detail) \
            == (other.name, other.status, other.detail)

    def __repr__(self) -> str:
        return "Check(name=%r, status=%r, detail=%r)" % (
            self.name, self.status, self.detail)

    def line(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", SKIP: "SKIP"}[self.status]
        if self.detail:
            return "%s %s: %s" % (tag, self.name, self.detail)
        return "%s %s" % (tag, self.name)


class LawReport:
    """Ordered collection of checks with an overall verdict."""

    def __init__(self, title: str = ""):
        self.title = title
        self.checks: list[Check] = []

    def add(self, name: str, passed: bool, detail: str = "") -> Check:
        c = Check(name, PASS if passed else FAIL, detail)
        self.checks.append(c)
        return c

    def skip(self, name: str, detail: str) -> Check:
        c = Check(name, SKIP, detail)
        self.checks.append(c)
        return c

    def verdict(self, name: str, bad, held: str) -> Check:
        """Pass with held when nothing is bad, else fail naming the bad items."""
        return self.add(name, not bad,
                        "failing: " + ", ".join(bad) if bad else held)

    def tally(self, name: str, bad, count, held: str) -> Check:
        """`verdict` with count, the number of items counted, put into
        held's {}; a skip quoting count when it is the first capped item
        of a row that decided nothing (see `decide`)."""
        if isinstance(count, str):
            return self.skip(name, "no item decided; first capped %s" % count)
        return self.verdict(name, bad, held.format(count))

    def capped(self, skipped) -> "LawReport":
        """This report, ended by one `capped` skip row per item in skipped."""
        for s in skipped:
            self.skip("capped", s)
        return self

    def merge(self, other: "LawReport", prefix: str = "") -> None:
        for c in other.checks:
            name = prefix + c.name if prefix else c.name
            self.checks.append(Check(name, c.status, c.detail))

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def to_text(self) -> str:
        lines = []
        if self.title:
            lines.append("== %s ==" % self.title)
        lines.extend(c.line() for c in self.checks)
        lines.append("result: %s (%d checks, %d failed, %d skipped)"
                     % ("ok" if self.ok else "FAILED", len(self.checks),
                        len(self.failures),
                        sum(1 for c in self.checks if c.status == SKIP)))
        return "\n".join(lines)

    def to_obj(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                       for c in self.checks],
        }

    def __repr__(self) -> str:
        return "LawReport(%r, ok=%r, %d checks)" % (self.title, self.ok, len(self.checks))


def decide(items, law, skipped: list):
    """Run law over items; returns (failing labels, items counted).

    law(x) returns the failing labels of x, or None when the row does not
    count x.  For each item a SizeCapError stops, "<name>: <reason>" joins
    skipped.  When a cap stopped an item and no item was counted, the row
    decided nothing, and the count is the first of those entries instead.
    """
    bad, count, first = [], 0, None
    for x in items:
        try:
            found = law(x)
        except SizeCapError as exc:
            skipped.append("%s: %s" % (x.name, exc))
            first = first or skipped[-1]
            continue
        if found is not None:
            bad.extend(found)
            count += 1
    return bad, count or first or 0
