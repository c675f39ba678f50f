"""Loading, validating, and emitting the JSON model files.

One object per file.  A reference is either the name another file
declared or a path, resolved relative to the referencing file.  Loaded
objects are validated immediately; a failure names the file, the object,
the offending law, and a witness.  A quantale document goes through
`build_quantale`, so files that name the same quantale share one object
and relations built from them compose.
"""

from __future__ import annotations

import json
import os

from .category import (TVCategory, TVFunctor, _functor_violation,
                       check_category, is_functor, shares_corners)
from .core import FinSet, Fn, InputError, ValidationError
from .monad import instantiate_monad
from .quantale import VRelation, build_quantale
from .report import LawReport

MONAD_KINDS = ("identity", "finite_ultrafilter")


def quantale_from_doc(doc: dict, where: str):
    if not isinstance(doc, dict):
        raise InputError("%s: quantale document must be an object" % where)
    try:
        # a name belongs to the document, not to the quantale: a named file
        # and an inline copy of it give one object
        return build_quantale({k: v for k, v in doc.items() if k != "name"})
    except InputError as exc:
        raise InputError("%s: %s" % (where, exc))
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc))


def category_from_doc(doc: dict, q, name: str, where: str) -> TVCategory:
    kind = doc.get("monad", "identity")
    if kind not in MONAD_KINDS:
        raise InputError("%s: unknown monad kind %r" % (where, kind))
    carrier = doc.get("carrier")
    if not isinstance(carrier, list) or \
            any(not isinstance(x, str) for x in carrier):
        raise InputError("%s: carrier must be a list of element ids" % where)
    if len(set(carrier)) != len(carrier):
        raise InputError("%s: carrier ids repeat" % where)
    M = instantiate_monad(kind, q)
    X = FinSet(carrier)
    default = doc.get("default", "bot")
    try:
        base = q.bottom if default == "bot" else q.index_of(default)
    except InputError:
        raise InputError("%s: default uses unknown value %r" % (where, default))
    rows = [[base] * len(carrier) for _ in carrier]
    pos = {x: i for i, x in enumerate(carrier)}
    for entry in doc.get("structure", []):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise InputError("%s: structure entries are [tx, x, value] "
                             "triples; got %r" % (where, entry))
        xx, x, v = entry
        if xx not in pos:
            raise InputError("%s: structure entry %r names unknown lifted "
                             "element %r" % (where, entry, xx))
        if x not in pos:
            raise InputError("%s: structure entry %r names unknown carrier "
                             "element %r" % (where, entry, x))
        try:
            rows[pos[xx]][pos[x]] = q.index_of(v)
        except InputError:
            raise InputError("%s: structure entry %r uses unknown value %r"
                             % (where, entry, v))
    C = TVCategory(M, X, VRelation(q, X, X, rows), name)
    rep = check_category(C)
    if not rep.ok:
        first = rep.failures[0]
        raise ValidationError("%s: category %s fails %s (%s)"
                              % (where, name, first.name, first.detail))
    return C


def functor_from_doc(doc: dict, src: TVCategory, dst: TVCategory,
                     name: str, where: str) -> TVFunctor:
    if src.M != dst.M:
        raise InputError("%s: functor %s endpoints use different monad "
                         "instances: %r and %r" % (where, name, src.M, dst.M))
    mapping = doc.get("map")
    if not isinstance(mapping, dict):
        raise InputError("%s: functor needs a map object" % where)
    table = []
    dpos = {y: j for j, y in enumerate(dst.carrier)}
    for x in src.carrier:
        if x not in mapping:
            raise InputError("%s: map misses carrier element %r" % (where, x))
        y = mapping[x]
        if y not in dpos:
            raise InputError("%s: map sends %r to unknown element %r"
                             % (where, x, y))
        table.append(dpos[y])
    extra = set(mapping) - set(src.carrier.elements)
    if extra:
        raise InputError("%s: map names elements outside the source: %s"
                         % (where, sorted(extra)))
    f = TVFunctor(src, dst, Fn(src.carrier, dst.carrier, table), name)
    if not is_functor(src, dst, f.fn):
        wit = _functor_violation(f)
        raise ValidationError("%s: functor %s fails the action inequality "
                              "at %s" % (where, name, wit))
    return f


# ---------------------------------------------------------------------------
# the workspace
# ---------------------------------------------------------------------------

def _doc_kind(doc: dict) -> str:
    if "builtin" in doc or "tensor" in doc:
        return "quantale"
    if "carrier" in doc:
        return "category"
    if "map" in doc:
        return "functor"
    if all(k in doc for k in ("f", "g", "u", "v")):
        return "problem"
    if "K" in doc and "L" in doc and "R" in doc:
        return "factorisation"
    if "monad" in doc and len(doc.keys() - {"monad", "name"}) == 0:
        return "monad"
    raise InputError("unrecognised document shape (keys %s)"
                     % sorted(doc.keys()))


class Workspace:
    """Named objects loaded from files, with by-name or by-path references."""

    def __init__(self):
        self.quantales: dict = {}
        self.categories: dict = {}
        self.functors: dict = {}
        self.problems: dict = {}
        self.factorisations: dict = {}  # name -> {part: registered name}
        self._declared: set = set()   # names of category documents
        self._by_path: dict = {}      # absolute path -> (kind, name)
        self._loading: set = set()
        # what the loads read, in order: (absolute path, bytes) per file;
        # the CLI adds (absolute directory, sorted .json names) per listing
        self.reads: list = []

    # -- loading -------------------------------------------------------------

    def load_file(self, path: str):
        """Read, parse, validate and register one file; returns (kind, name).

        Every call reads the bytes and parses and validates the document
        again; nothing outlives the workspace but the quantales of
        `build_quantale` and the monad instances.  The path and bytes join
        `reads`.  A file that is already loading is a reference cycle.
        """
        apath = os.path.abspath(path)
        if apath in self._by_path:
            return self._by_path[apath]
        if apath in self._loading:
            raise InputError("%s: reference cycle" % path)
        self._loading.add(apath)
        try:
            try:
                with open(apath, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise InputError("%s: %s" % (path, exc))
            doc = _parse(data, path)
            self.reads.append((apath, data))
            out = self.add_document(doc, os.path.dirname(apath), where=path,
                                    fallback=_basename_stem(apath))
        finally:
            self._loading.discard(apath)
        self._by_path[apath] = out
        return out

    def add_document(self, doc: dict, base_dir: str, where: str,
                     fallback: str, embedded: bool = False):
        kind = _doc_kind(doc)
        name = doc.get("name", fallback)
        if not isinstance(name, str) or not name:
            raise InputError("%s: name must be a non-empty string" % where)
        if kind == "quantale":
            self.quantales[name] = quantale_from_doc(doc, where)
        elif kind == "monad":
            if doc["monad"] not in MONAD_KINDS:
                raise InputError("%s: unknown monad kind %r"
                                 % (where, doc["monad"]))
        elif kind == "category":
            q = self._quantale_ref(doc.get("quantale"), base_dir, where)
            C = category_from_doc(doc, q, name, where)
            # a factorisation embeds copies of its categories: a copy equal
            # to the category registered under its name (same labels in
            # order, monad instance and structure) is that category, but
            # two category documents may not share a name
            if name in self.categories and (
                    self.categories[name] != C
                    or not embedded and name in self._declared):
                raise InputError("%s: category name %r already in use"
                                 % (where, name))
            self.categories.setdefault(name, C)
            if not embedded:
                self._declared.add(name)
        elif kind == "functor":
            src = self.category(doc.get("source"), base_dir, where)
            dst = self.category(doc.get("target"), base_dir, where)
            if name in self.functors:
                raise InputError("%s: functor name %r already in use"
                                 % (where, name))
            self.functors[name] = functor_from_doc(doc, src, dst, name, where)
        elif kind == "problem":
            fns = {k: self.functor(doc[k], base_dir, where)
                   for k in ("f", "g", "u", "v")}
            self.problems[name] = _check_square(fns, name, where)
        elif kind == "factorisation":
            # an embedded category may be left out, a leg may not
            parts = [p for p in ("source", "target", "K", "space")
                     if p in doc] + ["L", "R", "q"]
            self.factorisations[name] = {
                p: self._add_inline(doc.get(p), base_dir, where,
                                    "%s.%s" % (name, p)) for p in parts}
        return (kind, name)

    def _add_inline(self, doc, base_dir, where, fallback):
        if not isinstance(doc, dict):
            raise InputError("%s: embedded %s must be an object"
                             % (where, fallback))
        return self.add_document(doc, base_dir, where, fallback,
                                 embedded=True)[1]

    # -- reference resolution --------------------------------------------

    def _resolve(self, table: dict, ref, base_dir: str, where: str,
                 wanted: str):
        if not isinstance(ref, str) or not ref:
            raise InputError("%s: missing %s reference" % (where, wanted))
        if ref in table:
            return table[ref]
        candidate = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        try:
            kind, name = self.load_file(candidate)
        except InputError:
            # stat only when the load failed: a path that is there keeps
            # the loader's message
            if os.path.exists(candidate):
                raise
            raise InputError("%s: cannot resolve %s reference %r"
                             % (where, wanted, ref)) from None
        if kind == "factorisation":
            parts = self.factorisations[name]
            raise InputError("%s: %s is the factorisation %s, expected a %s;"
                             " name one of its parts instead: %s"
                             % (where, ref, name, wanted,
                                ", ".join("%s=%s" % kv
                                          for kv in parts.items())))
        if kind != wanted:
            raise InputError("%s: %s is a %s, expected a %s"
                             % (where, ref, kind, wanted))
        return table[name]

    def _quantale_ref(self, ref, base_dir, where):
        if isinstance(ref, dict):
            return quantale_from_doc(ref, where)
        return self._resolve(self.quantales, ref, base_dir, where, "quantale")

    def category(self, ref, base_dir: str = ".", where: str = "<args>"):
        return self._resolve(self.categories, ref, base_dir, where,
                             "category")

    def functor(self, ref, base_dir: str = ".", where: str = "<args>"):
        return self._resolve(self.functors, ref, base_dir, where, "functor")

    def problem(self, ref, base_dir: str = ".", where: str = "<args>"):
        return self._resolve(self.problems, ref, base_dir, where, "problem")


def _parse(data: bytes, path: str) -> dict:
    """The JSON object in a file's bytes, read as a UTF-8 text file is."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError("%s: not UTF-8 text (%s)" % (path, exc))
    if "\r" in text:
        # the newline translation of a file opened in text mode
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s: not valid JSON (%s)" % (path, exc))
    if not isinstance(doc, dict):
        raise InputError("%s: document must be a JSON object" % path)
    return doc


def _basename_stem(path: str) -> str:
    stem = os.path.splitext(os.path.basename(path))[0]
    return stem or path


def _check_square(fns: dict, name: str, where: str):
    f, g, u, v = fns["f"], fns["g"], fns["u"], fns["v"]
    if not shares_corners(f, g, u, v):
        raise InputError("%s: problem %s squares do not share corners"
                         % (where, name))
    left = v.fn @ f.fn
    right = g.fn @ u.fn
    if left != right:
        bad = next(x for i, x in enumerate(f.src.carrier)
                   if left.table[i] != right.table[i])
        raise ValidationError("%s: problem %s square does not commute at %s"
                              % (where, name, bad))
    return fns


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def category_doc(C: TVCategory, quantale_ref, name: str | None = None) -> dict:
    q = C.q
    entries = [[xx, x, q.elements[C.structure.rows[i][j]]]
               for i, xx in enumerate(C.carrier)
               for j, x in enumerate(C.carrier)
               if C.structure.rows[i][j] != q.bottom]
    return {"name": name or C.name,
            "quantale": quantale_ref,
            "monad": C.M.kind,
            "carrier": list(C.carrier.elements),
            "default": "bot",
            "structure": entries}


def functor_doc(f: TVFunctor, src_ref, dst_ref,
                name: str | None = None) -> dict:
    return {"name": name or f.name,
            "source": src_ref,
            "target": dst_ref,
            "map": {x: f.dst.carrier.elements[f.fn.table[i]]
                    for i, x in enumerate(f.src.carrier)}}


def factorisation_doc(F, rep: LawReport, f: TVFunctor) -> dict:
    """Self-contained factor output: categories embedded, legs by name.

    Every name comes from f, the functor the caller asked about: a memo
    hit may return the factorisation of an equal functor with other names.
    """
    qspec = f.src.q.spec
    src, dst = f.src, f.dst
    K = "K(%s)" % f.name
    space = "%s(%s)" % (F.cls.name, src.name)
    doc = {"name": "factorisation(%s)" % f.name,
           "source": category_doc(src, qspec),
           "target": category_doc(dst, qspec),
           "K": category_doc(F.K, qspec, K),
           "space": category_doc(F.space.category, qspec, space),
           "L": functor_doc(F.L, src.name, K, "L(%s)" % f.name),
           "R": functor_doc(F.R, K, dst.name, "R(%s)" % f.name),
           "q": functor_doc(F.q, K, space, "q(%s)" % f.name),
           "report": rep.to_obj()["checks"]}
    if dst is src:
        # an endofunctor's target is its source, embedded once
        del doc["target"]
    return doc
