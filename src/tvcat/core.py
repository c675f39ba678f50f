"""Shared primitives: finite carriers, maps between them, and error types.

Everything downstream (relations, categories, presheaf spaces, comma
constructions) is built on plain string-labelled finite sets.  Labels are
opaque; positional indices carry the actual computation.
"""

from __future__ import annotations

from typing import Iterable, Iterator


DEFAULT_MAX_SPACE = 4096


class WorkbenchError(Exception):
    """Base class for everything this package raises on purpose."""


class InputError(WorkbenchError):
    """Malformed input: unknown ids, missing fields, bad file syntax."""


class ValidationError(WorkbenchError):
    """Well-formed data that violates a required law (with witness)."""


class SizeCapError(WorkbenchError):
    """An enumeration or search exceeded the configured carrier cap."""


class EngineError(WorkbenchError):
    """Internal invariant violated.  Signals a bug, never swallowed:
    `verify-paper` reports it as a failed row, other commands raise it."""


class FinSet:
    """An ordered finite set of distinct string labels."""

    __slots__ = ("elements", "index")

    def __init__(self, elements: Iterable[str]):
        self.elements = tuple(elements)
        self.index = {x: i for i, x in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InputError("duplicate labels in carrier: %r" % (self.elements,))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __contains__(self, label) -> bool:
        return label in self.index

    def __getitem__(self, i: int) -> str:
        return self.elements[i]

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise InputError("unknown element %r (have %r)" % (label, self.elements))

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FinSet)
                                 and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return "FinSet(%r)" % (self.elements,)


def pair_label(a: str, b: str) -> str:
    return "(%s,%s)" % (a, b)


def product_finset(A: FinSet, B: FinSet) -> FinSet:
    """Cartesian product with row-major order: index(a,b) = ia*len(B)+ib."""
    return FinSet(pair_label(a, b) for a in A for b in B)


class Fn:
    """A total function between finite sets, stored as an index table."""

    __slots__ = ("src", "dst", "table")

    def __init__(self, src: FinSet, dst: FinSet, table: Iterable[int]):
        self.src = src
        self.dst = dst
        self.table = tuple(table)
        if len(self.table) != len(src):
            raise InputError("function table has %d entries for a %d-element source"
                             % (len(self.table), len(src)))
        # one min and one max for the whole table; the entry loop only
        # finds which entry to name
        if self.table and not (0 <= min(self.table)
                               and max(self.table) < len(dst)):
            n = len(dst)
            t = next(t for t in self.table if not 0 <= t < n)
            raise EngineError("function table index %d out of range" % t)

    @classmethod
    def identity(cls, X: FinSet) -> "Fn":
        return cls(X, X, range(len(X)))

    def __call__(self, label: str) -> str:
        return self.dst.elements[self.table[self.src.index_of(label)]]

    def __matmul__(self, other: "Fn") -> "Fn":
        # self @ other = "self after other"
        if other.dst != self.src:
            raise InputError("cannot compose %r after %r: middle sets differ"
                             % (self, other))
        return Fn(other.src, self.dst, (self.table[t] for t in other.table))

    def is_identity(self) -> bool:
        return self.src == self.dst and all(t == i for i, t in enumerate(self.table))

    def as_dict(self) -> dict:
        return {x: self.dst.elements[self.table[i]] for i, x in enumerate(self.src)}

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fn) and self.src == other.src
                and self.dst == other.dst and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.src.elements, self.dst.elements, self.table))

    def __repr__(self) -> str:
        return "Fn(%s)" % ", ".join("%s->%s" % (x, self(x)) for x in self.src)
