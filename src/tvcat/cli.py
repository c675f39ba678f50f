"""Batch front end: check model files, factor and classify functors, solve
lifting problems, and aggregate every law suite into one verification table.

Commands that produce artifacts (factor, complete, lift) always print a
JSON document in the documented file formats, so their output can be fed
back through `check`.  The reporting commands (check, classify,
presheaves, verify-paper) honour --output text|json.  Output is
deterministic for identical inputs and flags; exit codes are 0 success,
1 check failure, 2 input error, 3 size cap.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import re
import sys

from .category import (MEMO, check_enriched_calculus, is_fully_faithful,
                       memoised)
from .core import (DEFAULT_MAX_SPACE, InputError, SizeCapError,
                   ValidationError)
from .corpus import iso_representatives, seed_corpus
from .lofs import (check_awfs_corpus, check_left_class,
                   check_simplicity_corpus, check_subspace_fullness,
                   comma_factorise, r_membership, solve_lifting,
                   wfs_cross_check)
from .monad import check_monad_laws, instantiate_monad
from .presheaf import (check_adjoint_residual, check_presheaf_monad,
                       check_saturated, phi_dense, presheaf_space,
                       saturated_class, unit_isomorphism_check, yoneda,
                       yoneda_lemma_check)
from .quantale import check_quantale_laws
from .report import SKIP, Check, LawReport
from .workspace import (MONAD_KINDS, Workspace, category_doc,
                        factorisation_doc, functor_doc, quantale_from_doc,
                        quantale_spec)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# `lawvere` is an input alias of right_adjoint
CLASS_TOKENS = ("all", "representable", "right_adjoint", "lawvere")

# Enumeration caps per builtin family.  Boolean towers stay small enough
# for the default cap; the chain quantales grow presheaf spaces much
# faster, so their corpus rows use a tighter bound and record the skip.
_FAMILY_CAPS = {"boolean": DEFAULT_MAX_SPACE, "powerset_frame": 256}
_FAMILY_SIZES = {"boolean": 3}

_TOKEN_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def _quantale_token(tok: str) -> dict:
    m = _TOKEN_RE.match(tok)
    if m is None:
        raise InputError("cannot parse quantale %r; expected e.g. boolean "
                         "or truncated_chain(2)" % tok)
    spec = {"builtin": m.group(1)}
    if m.group(2) is not None:
        spec["n"] = int(m.group(2))
    return spec


def _artifact(doc: dict) -> str:
    """The bytes of json.dumps(doc, indent=2, sort_keys=True).

    An indent sends json.dumps to its pure-Python encoder; one recursive
    join does the same with less work per value.  Keys must be str.
    """
    return _render(doc, "\n")


_ESCAPE = json.encoder.encode_basestring_ascii


def _render(value, newline: str) -> str:
    if isinstance(value, str):
        return _ESCAPE(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("artifact keys must be str, not %s"
                                % type(key).__name__)
            items.append(_ESCAPE(key) + ": " + _render(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(
            [_render(v, inner) for v in value]) + newline + "]"
    # null, booleans and numbers, as json writes them
    return json.dumps(value)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-space", type=int, metavar="N",
                        default=DEFAULT_MAX_SPACE,
                        help="presheaf enumeration cap (default %d)"
                             % DEFAULT_MAX_SPACE)
    common.add_argument("--output", choices=("text", "json"), default="text",
                        help="report rendering (default text)")
    common.add_argument("--seed-corpus", metavar="DIR", default=None,
                        help="load every .json file from DIR before the "
                             "command resolves references")
    cls_kw = dict(dest="cls", default="all", choices=CLASS_TOKENS,
                  metavar="CLS",
                  help="bimodule class: all, representable, or right_adjoint")

    top = argparse.ArgumentParser(
        prog="tvcat",
        description="finite-model workbench for quantale-enriched "
                    "categories and their comma factorisations")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="load and validate model files")
    p.add_argument("files", nargs="+", metavar="FILE")

    p = sub.add_parser("factor", parents=[common],
                       help="comma factorisation of a functor (emits a "
                            "self-contained document)")
    p.add_argument("functor", metavar="FUNCTOR")
    p.add_argument("--class", **cls_kw)

    p = sub.add_parser("classify", parents=[common],
                       help="left/right class membership of a functor")
    p.add_argument("functor", metavar="FUNCTOR")
    p.add_argument("--class", **cls_kw)

    p = sub.add_parser("lift", parents=[common],
                       help="canonical diagonal filler of a lifting problem")
    p.add_argument("problem", metavar="PROBLEM")
    p.add_argument("--class", **cls_kw)

    p = sub.add_parser("complete", parents=[common],
                       help="emit the class space of a category and its "
                            "unit functor")
    p.add_argument("category", metavar="CATEGORY")
    p.add_argument("--class", **cls_kw)

    p = sub.add_parser("presheaves", parents=[common],
                       help="list the presheaves on a category")
    p.add_argument("category", metavar="CATEGORY")
    p.add_argument("--class", **cls_kw)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run every law suite over a seed corpus and "
                            "print one row per result")
    p.add_argument("--quantales", default="boolean,truncated_chain(2)",
                   metavar="LIST",
                   help="comma-separated builtins (default "
                        "boolean,truncated_chain(2))")
    p.add_argument("--monads", default="identity,finite_ultrafilter",
                   metavar="LIST",
                   help="comma-separated monad kinds (default both; the "
                        "ultrafilter instance runs on the boolean quantale)")
    p.add_argument("--max-size", type=int, default=3, metavar="N",
                   help="carrier bound: boolean corpora up to min(3, N), "
                        "chains up to min(2, N)")
    p.add_argument("--corrupt-builtin", default=None, help=argparse.SUPPRESS)
    return top


# ---------------------------------------------------------------------------
# plain commands
# ---------------------------------------------------------------------------

def _workspace(args) -> Workspace:
    ws = Workspace()
    if args.seed_corpus:
        try:
            names = sorted(os.listdir(args.seed_corpus))
        except OSError as exc:
            raise InputError("cannot read seed corpus: %s" % exc)
        for name in names:
            if name.endswith(".json"):
                ws.load_file(os.path.join(args.seed_corpus, name))
    return ws


def _cmd_check(args):
    ws = _workspace(args)
    loaded = [ws.load_file(path) for path in args.files]
    if args.output == "json":
        return EXIT_OK, _artifact({"command": "check", "ok": True,
                                   "objects": [{"kind": k, "name": n}
                                               for k, n in loaded]})
    lines = ["ok %s %s" % (kind, name) for kind, name in loaded]
    lines.append("checked %d files, all valid" % len(args.files))
    return EXIT_OK, "\n".join(lines)


def _cmd_factor(args):
    ws = _workspace(args)
    f = ws.functor(args.functor)
    cls = saturated_class(args.cls)
    F = comma_factorise(f, cls, args.max_space)
    rep = LawReport("factorisation of %s through %s" % (f.name, cls.name))
    rep.add("legs-compose", (F.R.fn @ F.L.fn) == f.fn, "R . L = %s" % f.name)
    rep.add("left-fully-faithful", is_fully_faithful(F.L),
            "the left leg embeds")
    # a built factorisation has a dense left leg (Factorisation.__init__)
    rep.add("left-dense", True,
            "the left leg's extension module is in %s" % cls.name)
    try:
        alg = r_membership(F.R, cls, args.max_space)
        rep.add("right-algebra", alg is not None,
                "the right leg carries the least algebra")
    except SizeCapError as exc:
        rep.skip("right-algebra", str(exc))
    doc = factorisation_doc(F, rep, f)
    return (EXIT_OK if rep.ok else EXIT_CHECK), _artifact(doc)


def _cmd_classify(args):
    ws = _workspace(args)
    f = ws.functor(args.functor)
    cls = saturated_class(args.cls)
    ff = is_fully_faithful(f)
    dense = phi_dense(f, cls, args.max_space)
    left = ff and dense
    right = r_membership(f, cls, args.max_space) is not None
    if args.output == "json":
        return EXIT_OK, _artifact({"command": "classify", "functor": f.name,
                                   "class": cls.name, "fully_faithful": ff,
                                   "dense": dense, "left": left,
                                   "right": right})
    detail = ", ".join(("fully faithful" if ff else "not fully faithful",
                        "dense" if dense else "not dense"))
    return EXIT_OK, "L: %s (%s); R: %s" % ("yes" if left else "no", detail,
                                           "yes" if right else "no")


def _cmd_lift(args):
    ws = _workspace(args)
    square = ws.problem(args.problem)
    cls = saturated_class(args.cls)
    f, g = square["f"], square["g"]
    d = solve_lifting(f, g, square["u"], square["v"], cls, args.max_space)
    # named after the square: a memo hit may have built d between equal
    # categories with other names
    return EXIT_OK, _artifact(functor_doc(d, f.dst.name, g.src.name))


def _cmd_complete(args):
    ws = _workspace(args)
    C = ws.category(args.category)
    cls = saturated_class(args.cls)
    space = presheaf_space(C, cls, args.max_space)
    y = yoneda(C, cls, args.max_space)
    qspec = quantale_spec(C.q)
    # named after C: a memo hit may return the space of an equal category
    name = "%s(%s)" % (cls.name, C.name)
    return EXIT_OK, _artifact(
        {"space": category_doc(space.category, qspec, name),
         "unit": functor_doc(y, C.name, name, name="yoneda(%s)" % C.name)})


def _cmd_presheaves(args):
    ws = _workspace(args)
    C = ws.category(args.category)
    cls = saturated_class(args.cls)
    space = presheaf_space(C, cls, args.max_space)
    names = list(space.carrier.elements)
    if args.output == "json":
        return EXIT_OK, _artifact({"command": "presheaves",
                                   "category": C.name, "class": cls.name,
                                   "lifted-carrier": list(C.carrier.elements),
                                   "presheaves": names})
    lines = ["%d presheaves on %s in class %s (values over %s):"
             % (len(names), C.name, cls.name, ",".join(C.carrier.elements))]
    lines.extend(names)
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------

_Corpus = collections.namedtuple("_Corpus", "M cats reps cap")


def _corrupted_spec(spec: dict) -> dict:
    """Explicit tables for a builtin with one tensor cell broken (k*k = bot)."""
    q = quantale_from_doc(spec, "<corrupt-hook>")
    names = q.elements
    tensor = {"%s|%s" % (names[a], names[b]): names[q.tensor_m[a][b]]
              for a in range(q.n) for b in range(q.n)}
    tensor["%s|%s" % (names[q.unit], names[q.unit])] = names[q.bottom]
    return {"elements": list(names),
            "leq": [[names[a], names[b]] for a in range(q.n)
                    for b in range(q.n) if q.leq_m[a][b]],
            "tensor": tensor, "unit": names[q.unit]}


def _summary(rep: LawReport) -> str:
    if not rep.ok:
        first = rep.failures[0]
        return "FAIL %s (%s)" % (first.name, first.detail)
    skips = [c for c in rep.checks if c.status == SKIP]
    if rep.checks and len(skips) == len(rep.checks):
        return "capped (%s)" % skips[0].detail
    note = ", %d capped" % len(skips) if skips else ""
    return "ok (%d checks%s)" % (len(rep.checks), note)


def _add_row(rep: LawReport, name: str, parts):
    """One verdict row summarising per-corpus sub-reports."""
    detail = "; ".join("%s: %s" % (label, _summary(sub))
                       for label, sub in parts)
    decided = [sub for _, sub in parts
               if any(c.status != SKIP for c in sub.checks)]
    if not decided:
        rep.skip(name, detail)
    else:
        rep.add(name, all(sub.ok for sub in decided), detail)


def _capped(build, c: _Corpus) -> LawReport:
    """build(c), or a skip note when a size cap stops it."""
    try:
        return build(c)
    except SizeCapError as exc:
        note = LawReport()
        note.skip("capped", str(exc))
        return note


def _merged(builders) -> LawReport:
    out = LawReport()
    for prefix, rep in builders:
        out.merge(rep, prefix=prefix)
    return out


def _cmd_verify_paper(args):
    qtokens = [t.strip() for t in args.quantales.split(",") if t.strip()]
    mkinds = [t.strip() for t in args.monads.split(",") if t.strip()]
    if not qtokens or not mkinds:
        raise InputError("verify-paper needs at least one quantale and "
                         "one monad kind")
    for kind in mkinds:
        if kind not in MONAD_KINDS:
            raise InputError("unknown monad kind %r" % kind)
    specs = [(tok, _quantale_token(tok)) for tok in qtokens]
    classes = [saturated_class(k)
               for k in ("all", "representable", "right_adjoint")]

    def yoneda_all_classes(c):
        out = LawReport()
        for cls in classes:
            bad = [C.name for C in c.cats
                   if not yoneda_lemma_check(C, cls, c.cap).ok]
            out.add(cls.name, not bad,
                    "evaluation identity on %d objects" % len(c.cats)
                    if not bad else "failing: %s" % ", ".join(bad))
        return out

    def submonads(c):
        out = LawReport()
        for cls in classes[1:]:
            if c.M.q.n == 2:
                out.merge(unit_isomorphism_check(cls, c.cats, c.cap),
                          prefix=cls.name + ":")
            out.merge(check_subspace_fullness(c.cats, cls, c.cap),
                      prefix=cls.name + ":")
            out.merge(check_presheaf_monad(cls, c.cats, c.reps, c.cap),
                      prefix=cls.name + ":")
        out.merge(check_adjoint_residual(c.cats), prefix="right_adjoint:")
        return out

    # the rows after the quantale and monad laws, in printed order
    rows = [
        ("category and bimodule calculus",
         lambda c: check_enriched_calculus(c.M, c.cats, c.reps)),
        ("yoneda lemma", yoneda_all_classes),
        ("presheaf monad laws and lax idempotency",
         lambda c: check_presheaf_monad(classes[0], c.cats, c.reps, c.cap)),
        ("simplicity of the left leg",
         lambda c: _merged(
             (cls.name + ":", check_simplicity_corpus(c.reps, cls, c.cap))
             for cls in classes)),
        ("saturation closure",
         lambda c: _merged(
             (cls.name + ":", check_saturated(cls, c.cats, c.reps))
             for cls in classes)),
        ("saturated submonads", submonads),
        ("left class characterisation",
         lambda c: _merged(
             (cls.name + ":", check_left_class(c.cats, c.reps, cls, c.cap))
             for cls in classes)),
        ("factorisation comonad, monad, distributivity",
         lambda c: check_awfs_corpus(c.reps, classes[0], c.cap)),
    ]

    # Corpus-major: each corpus runs every row, then its spaces and
    # factorisations leave the memo before the next corpus is built.
    # Instances over one quantale with equal tables share a corpus and its
    # sub-reports, but each runs its own monad laws.
    monad_laws = []
    parts = [[] for _ in rows]
    wfs = None
    for tok, spec in specs:
        q = quantale_from_doc(spec, "<config>")
        family = spec["builtin"]
        size = min(_FAMILY_SIZES.get(family, 2), args.max_size)
        cap = min(_FAMILY_CAPS.get(family, 512), args.max_space)
        shared = {}
        for kind in mkinds:
            if kind == "finite_ultrafilter" and family != "boolean":
                continue
            M = instantiate_monad(kind, q)
            label = "%s/%s" % (tok, kind)
            monad_laws.append((label, check_monad_laws(
                M, size_limit=min(3, args.max_size))))
            key = M.tables()
            try:
                if key not in shared:
                    cats, fns = seed_corpus(M, size)
                    c = _Corpus(M, cats, iso_representatives(fns), cap)
                    shared[key] = c, [_capped(build, c) for _, build in rows]
                c, subs = shared[key]
                for row, sub in zip(parts, subs):
                    row.append((label, sub))
                if wfs is None and kind == "identity" and q.n == 2:
                    wfs = (label, wfs_cross_check(c.cats, c.reps,
                                                  classes[0], cap))
            finally:
                MEMO.clear()

    rep = LawReport("verify-paper: quantales=%s monads=%s max-size=%d"
                    % (args.quantales, args.monads, args.max_size))
    laws = []
    for tok, spec in specs:
        if args.corrupt_builtin and spec["builtin"] == args.corrupt_builtin:
            spec = _corrupted_spec(spec)
        laws.append((tok, check_quantale_laws(spec)))
    _add_row(rep, "quantale laws", laws)
    _add_row(rep, "monad conditions and span preservation", monad_laws)
    for (name, _), row in zip(rows, parts):
        _add_row(rep, name, row)

    if wfs is None:
        rep.skip("canonical fillers are least",
                 "needs the boolean identity corpus")
        rep.skip("classical factorisation cross-check",
                 "needs the boolean identity corpus")
    else:
        label, report = wfs
        by_name = {c.name: c for c in report.checks}
        least = by_name["liftings-exist-and-are-least"]
        rep.checks.append(Check("canonical fillers are least", least.status,
                                "%s: %s" % (label, least.detail)))
        rest = LawReport()
        rest.checks = [c for c in report.checks if c is not least]
        rep.add("classical factorisation cross-check", rest.ok,
                "%s: %s" % (label,
                            "; ".join(c.detail for c in rest.checks)
                            if rest.ok else _summary(rest)))

    code = EXIT_OK if rep.ok else EXIT_CHECK
    if args.output == "json":
        body = {"command": "verify-paper",
                "config": {"quantales": args.quantales,
                           "monads": args.monads,
                           "max_size": args.max_size,
                           "max_space": args.max_space},
                "report": rep.to_obj()}
        return code, _artifact(body)
    return code, rep.to_text()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_COMMANDS = {"check": _cmd_check, "factor": _cmd_factor,
             "classify": _cmd_classify, "lift": _cmd_lift,
             "complete": _cmd_complete, "presheaves": _cmd_presheaves,
             "verify-paper": _cmd_verify_paper}


def run_command(argv) -> tuple[int, str]:
    """Dispatch one command line; returns (exit code, rendered output).

    Each distinct command line is parsed once and its namespace kept in
    `MEMO`, so commands only read `args`.  A usage error or --help is not
    kept: it prints its text on every run.
    """
    argv = tuple(argv)
    try:
        args = memoised(("argv", argv),
                        lambda: _build_parser().parse_args(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else EXIT_INPUT), ""
    try:
        if args.max_space < 1:
            raise InputError("--max-space must be at least 1 (every space "
                             "has a presheaf), got %d" % args.max_space)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        return EXIT_INPUT, "error: %s" % exc
    except ValidationError as exc:
        return EXIT_CHECK, "error: %s" % exc
    except SizeCapError as exc:
        return EXIT_CAP, "error: %s" % exc


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
