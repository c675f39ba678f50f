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
    """An ordered finite set of distinct string labels.

    `FinSet.spelled_on_read(size, spell)` makes a carrier that knows its
    size at once and spells `elements` and `index` from spell() when
    either is first read.  Until then its slots are empty, and `len`,
    equality with itself and everything the engine does on indices cost
    no label.  `size` is `len` as a slot, for shape checks on hot paths.
    """

    __slots__ = ("elements", "index", "size", "_spell")

    def __init__(self, elements: Iterable[str]):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise InputError("duplicate labels in carrier: %r" % (elements,))
        self.elements, self.index = elements, index
        self.size, self._spell = len(elements), None

    @classmethod
    def spelled_on_read(cls, size: int, spell) -> "FinSet":
        X = cls.__new__(cls)
        X.size, X._spell = size, spell
        return X

    def __getattr__(self, name):
        # reached only while a slot is empty: the labels of a carrier made
        # by `spelled_on_read`, spelled now and kept
        if name not in ("elements", "index") or self._spell is None:
            raise AttributeError(name)
        elements = tuple(self._spell())
        if len(elements) != self.size:
            raise EngineError("spelled %d labels for a carrier of %d"
                              % (len(elements), self.size))
        self.__init__(elements)
        return getattr(self, name)

    def __len__(self) -> int:
        return self.size

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
                                 and self.size == other.size
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
        if len(self.table) != src.size:
            raise InputError("function table has %d entries for a %d-element source"
                             % (len(self.table), src.size))
        # one min and one max for the whole table; the entry loop only
        # finds which entry to name
        if self.table and not (0 <= min(self.table)
                               and max(self.table) < dst.size):
            n = dst.size
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
        # tables first: carriers equal in size compare by their labels
        return (isinstance(other, Fn) and self.table == other.table
                and self.src == other.src and self.dst == other.dst)

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return "Fn(%s)" % ", ".join("%s->%s" % (x, self(x)) for x in self.src)
