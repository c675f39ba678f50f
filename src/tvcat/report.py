"""Uniform pass/fail/skip reporting for every law suite in the package.

A report is an ordered list of named checks.  Skips are first-class: an
enumeration that hits the size cap records what was scanned instead of
failing, so callers can distinguish "false" from "not checked at this scale".
"""

from __future__ import annotations

from dataclasses import dataclass


PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""

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
