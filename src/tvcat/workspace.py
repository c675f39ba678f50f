"""Loading, validating, and emitting the JSON model files.

One object per file.  A reference is either the name another file
declared or a path, resolved relative to the referencing file.  Loaded
objects are validated immediately; a failure names the file, the object,
the offending law, and a witness.  Quantales are interned by their
canonical spec so relations built from different files stay composable.
"""

from __future__ import annotations

import json
import os

from .category import (MEMO, TVCategory, TVFunctor, _functor_violation,
                       check_category, is_functor)
from .core import FinSet, Fn, InputError, ValidationError
from .monad import instantiate_monad
from .quantale import (VRelation, boolean_quantale, build_quantale,
                       lukasiewicz_chain, powerset_frame, truncated_chain)
from .report import LawReport

_QUANTALE_INTERN: dict = {}
_SPEC_BY_ID: dict = {}

MONAD_KINDS = ("identity", "finite_ultrafilter")


def _canonical_spec(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def quantale_from_doc(doc: dict, where: str):
    if not isinstance(doc, dict):
        raise InputError("%s: quantale document must be an object" % where)
    key = _canonical_spec(doc)
    hit = _QUANTALE_INTERN.get(key)
    if hit is not None:
        return hit
    try:
        q = _build_interned(doc)
    except InputError as exc:
        raise InputError("%s: %s" % (where, exc))
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc))
    _QUANTALE_INTERN[key] = q
    _SPEC_BY_ID[id(q)] = doc
    return q


_BUILTIN_BUILDERS = {"boolean": lambda n: boolean_quantale(),
                     "truncated_chain": truncated_chain,
                     "lukasiewicz_chain": lukasiewicz_chain,
                     "powerset_frame": powerset_frame}


def _build_interned(doc: dict):
    # builtin references go through the memoised constructors so documents
    # share object identity (and hence every downstream cache) with
    # programmatic users of the same quantale
    builder = _BUILTIN_BUILDERS.get(doc.get("builtin"))
    if builder is not None:
        return builder(doc.get("n"))
    return build_quantale(doc)


def quantale_spec(q) -> dict:
    """The spec document a quantale was built from (for self-contained output)."""
    spec = _SPEC_BY_ID.get(id(q))
    if spec is None:
        raise InputError("quantale %r was not loaded from a document" % q)
    return spec


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
    base = q.bottom if default == "bot" else q.index_of(default)
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
        self._by_path: dict = {}      # absolute path -> (kind, name)
        self._loading: set = set()
        # what the loads read, in order: (absolute path, bytes) per file;
        # the CLI adds (absolute directory, sorted .json names) per listing
        self.reads: list = []

    # -- loading -------------------------------------------------------------

    def load_file(self, path: str):
        """Parse, validate, and register one file; returns (kind, name).

        The bytes are read on every call.  `MEMO` keeps one entry per
        absolute path: those bytes, the parsed document, the file's
        directory and name stem, and the object built from it with the
        references it resolved to.  Equal bytes reuse the document, and the
        object too when its references resolve to the same objects; a
        failed load leaves no entry.  The path and bytes join `reads`.
        """
        apath = os.path.abspath(path)
        if apath in self._by_path:
            return self._by_path[apath]
        if apath in self._loading:
            raise InputError("%s: reference cycle" % path)
        self._loading.add(apath)
        key = ("file", apath)
        try:
            try:
                with open(apath, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise InputError("%s: %s" % (path, exc))
            entry = MEMO.get(key)
            if entry is None or entry.data != data:
                entry = _FileEntry(data, _parse(data, path),
                                   os.path.dirname(apath),
                                   _basename_stem(apath))
            self.reads.append((apath, entry.data))
            out = self.add_document(entry.doc, entry.base_dir, where=path,
                                    fallback=entry.stem, entry=entry)
            MEMO[key] = entry
        except BaseException:
            MEMO.pop(key, None)
            raise
        finally:
            self._loading.discard(apath)
        self._by_path[apath] = out
        return out

    def add_document(self, doc: dict, base_dir: str, where: str,
                     fallback: str, entry: _FileEntry | None = None):
        kind = _doc_kind(doc)
        name = doc.get("name", fallback)
        if not isinstance(name, str) or not name:
            raise InputError("%s: name must be a non-empty string" % where)
        built = (entry or _FileEntry(None, doc)).built
        if kind == "quantale":
            spec = {k: v for k, v in doc.items() if k != "name"}
            self.quantales[name] = built(
                (), lambda: quantale_from_doc(spec, where))
        elif kind == "monad":
            if doc["monad"] not in MONAD_KINDS:
                raise InputError("%s: unknown monad kind %r"
                                 % (where, doc["monad"]))
        elif kind == "category":
            q = self._quantale_ref(doc.get("quantale"), base_dir, where)
            if name in self.categories:
                raise InputError("%s: category name %r already in use"
                                 % (where, name))
            self.categories[name] = built(
                (q,), lambda: category_from_doc(doc, q, name, where))
        elif kind == "functor":
            src = self.category(doc.get("source"), base_dir, where)
            dst = self.category(doc.get("target"), base_dir, where)
            if name in self.functors:
                raise InputError("%s: functor name %r already in use"
                                 % (where, name))
            self.functors[name] = built(
                (src, dst), lambda: functor_from_doc(doc, src, dst, name,
                                                     where))
        elif kind == "problem":
            fns = {k: self.functor(doc[k], base_dir, where)
                   for k in ("f", "g", "u", "v")}
            self.problems[name] = built(
                tuple(fns.values()),
                lambda: _check_square(fns, name, where))
        elif kind == "factorisation":
            for part in ("source", "target", "K", "space"):
                if part in doc:
                    self._add_inline(doc[part], base_dir, where,
                                     "%s.%s" % (name, part))
            for leg in ("L", "R", "q"):
                self._add_inline(doc[leg], base_dir, where,
                                 "%s.%s" % (name, leg))
        return (kind, name)

    def _add_inline(self, doc, base_dir, where, fallback):
        if not isinstance(doc, dict):
            raise InputError("%s: embedded %s must be an object"
                             % (where, fallback))
        return self.add_document(doc, base_dir, where, fallback)[1]

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
        if kind not in (wanted, "factorisation"):
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


class _FileEntry:
    """One model file's bytes, its parsed document, its directory and name
    stem, and the object last built from it, with the objects its
    references resolved to.

    A document embedded in another gets a throwaway entry with no bytes.
    """

    __slots__ = ("data", "doc", "base_dir", "stem", "refs", "obj")

    def __init__(self, data: bytes | None, doc: dict,
                 base_dir: str | None = None, stem: str | None = None):
        self.data = data
        self.doc = doc
        self.base_dir = base_dir
        self.stem = stem
        self.refs = None
        self.obj = None

    def built(self, refs: tuple, make):
        """The object for these references, made (and validated) once.

        References count by identity: `TVCategory.__eq__` ignores names.
        """
        if self.refs is None or \
                any(a is not b for a, b in zip(self.refs, refs)):
            self.obj = make()
            self.refs = refs
        return self.obj


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
    if f.src.carrier != u.src.carrier or f.dst.carrier != v.src.carrier \
            or g.src.carrier != u.dst.carrier \
            or g.dst.carrier != v.dst.carrier:
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


def report_rows(rep: LawReport) -> list:
    return [{"name": c.name, "status": c.status, "detail": c.detail}
            for c in rep.checks]


def factorisation_doc(F, rep: LawReport, f: TVFunctor) -> dict:
    """Self-contained factor output: categories embedded, legs by name.

    Every name comes from f, the functor the caller asked about: a memo
    hit may return the factorisation of an equal functor with other names.
    """
    qspec = quantale_spec(f.src.q)
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
           "q": functor_doc(F.q, K, space),
           "report": report_rows(rep)}
    if dst is src:
        # an endofunctor's target is its source: a second copy would be
        # rejected by the loader as a reused category name
        del doc["target"]
    return doc
