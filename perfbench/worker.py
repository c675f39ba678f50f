"""One sample of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --inputs DIR/inputs.json --result FILE \\
        --spawned EPOCH [--spans FILE] [--keep-outputs FILE]
    python3 perfbench/worker.py --round-trip DIR/outputs.json --result FILE

The first form builds the corpora named in the inputs (set-up), then times
every suite call or session command, and writes one JSON result: set-up
and verdict time, peak RSS, check counts and a sha256 of every rendered
report.  With --spans it records spans around tvcat's layers and adds the
per-layer figures.  The second form feeds each saved `factor` document back
through `check`.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from probe import SpeedProbe
from tvcat import category, cli, corpus, lofs, monad, presheaf
from tvcat.core import DEFAULT_MAX_SPACE, SizeCapError
from tvcat.report import FAIL, PASS, SKIP
from tvcat.workspace import quantale_from_doc


def build(spec):
    """A corpus as verify-paper builds it, and the drawn objects."""
    q = quantale_from_doc(spec["quantale"], "<benchmark>")
    M = monad.instantiate_monad(spec["monad"], q)
    cats, fns = corpus.seed_corpus(M, spec["size"])
    reps = corpus.iso_representatives(fns)
    if (len(cats), len(fns), len(reps)) != \
            (spec["n_cats"], spec["n_fns"], spec["n_reps"]):
        raise SystemExit("corpus differs from the one the inputs were "
                         "drawn from")
    draw = [fns[i] for i in spec["fns"]]
    # each drawn functor is a relabelled copy of the representative it names
    for f, r in zip(draw, spec["reps"]):
        if corpus.arrow_iso_key(f) != corpus.arrow_iso_key(reps[r]):
            raise SystemExit("drawn functor %s is not a copy of "
                             "representative %d" % (f.name, r))
    return M, [cats[i] for i in spec["cats"]], draw, cats


def batch_calls(inputs):
    """(label, thunk) for every timed suite call, in order."""
    classes = [presheaf.saturated_class(k) for k in inputs["classes"]]
    every = classes[0]
    calls = []
    for spec in inputs["corpora"]:
        M, cats, draw, all_cats = build(spec)
        cap = spec["cap"]
        tag = "%s/%s/" % (spec["quantale"]["builtin"], spec["monad"])
        if inputs["workload"] == "calculus":
            calls.append((tag + "monad-laws", lambda M=M, n=spec["size"]:
                          monad.check_monad_laws(M, size_limit=min(3, n))))
            calls.append((tag + "calculus", lambda M=M, c=cats, d=draw:
                          category.check_enriched_calculus(M, c, d)))
            for cls in classes:
                for C in cats:
                    calls.append((tag + "yoneda:" + cls.name,
                                  lambda C=C, cls=cls, cap=cap:
                                  presheaf.yoneda_lemma_check(C, cls,
                                                                    cap)))
        elif inputs["workload"] == "towers":
            order = sorted(draw, key=lambda f: (f.name, f.src.name,
                                                f.dst.name, f.fn.table))
            for f in order:
                calls.append((tag + "awfs", lambda f=f, cap=cap:
                              lofs.check_awfs(f, every, cap)))
                calls.append((tag + "simplicity", lambda f=f, cap=cap:
                              lofs.check_simplicity(f, every, cap)))
            calls.append((tag + "left-class", lambda c=all_cats, d=draw,
                          cap=cap: lofs.check_left_class(c, d, every,
                                                               cap)))
            calls.append((tag + "presheaf-monad", lambda c=all_cats, d=draw,
                          cap=cap: presheaf.check_presheaf_monad(
                              every, c, d, cap)))
        else:
            for cls in classes:
                calls.append((tag + "saturation:" + cls.name,
                              lambda cls=cls, c=cats, d=draw:
                              presheaf.check_saturated(cls, c, d)))
            for cls in classes:
                calls.append((tag + "simplicity:" + cls.name,
                              lambda cls=cls, d=draw, cap=cap:
                              lofs.check_simplicity_corpus(d, cls,
                                                                 cap)))
            calls.append((tag + "awfs", lambda d=draw, cap=cap:
                          lofs.check_awfs_corpus(d, every, cap)))
            calls.append((tag + "presheaf-monad", lambda c=cats, d=draw,
                          cap=cap: presheaf.check_presheaf_monad(
                              every, c, d, cap)))
    return calls


def run_batch(inputs, timed, result):
    calls = batch_calls(inputs)
    digest = hashlib.sha256()
    counts = {PASS: 0, FAIL: 0, SKIP: 0}
    errors = []
    verdict = 0.0
    first = time.time()
    with SpeedProbe() as probe:
        for label, thunk in calls:
            t0, p0 = time.perf_counter(), probe.spent
            try:
                rep = timed(thunk)()
                text = None
            except SizeCapError as exc:
                # verify-paper turns a capped suite call into one skip row
                rep, text = None, "SKIP capped: %s" % exc
                counts[SKIP] += 1
            except Exception as exc:     # an engine failure is a failed check
                rep, text = None, "ERROR %s: %s" % (type(exc).__name__, exc)
                errors.append("%s: %s" % (label, text))
            verdict += time.perf_counter() - t0 - (probe.spent - p0)
            if rep is not None:
                text = rep.to_text()
                for c in rep.checks:
                    counts[c.status] += 1
            digest.update(("%s\n%s\n" % (label, text)).encode())
    result.update(first_call=first, verdict_s=verdict,
                  verdict_ref=probe.reference_units(verdict),
                  report_sha256=digest.hexdigest(),
                  calls=len(calls), passed=counts[PASS],
                  failed_checks=counts[FAIL], capped=counts[SKIP],
                  errors=errors)


def run_session(inputs, timed, result, keep):
    commands = inputs["commands"]
    latencies, codes, digests = [], [], []
    outputs = {}
    run = timed(cli.run_command)
    first = time.time()
    with SpeedProbe() as probe:
        for cmd in commands:
            t0, p0 = time.perf_counter(), probe.spent
            try:
                code, out = run(cmd["argv"])
            except Exception as exc:     # an engine failure fails the command
                code, out = -1, "ERROR %s: %s" % (type(exc).__name__, exc)
            latencies.append(time.perf_counter() - t0 - (probe.spent - p0))
            codes.append(code)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
            key = "%s %s" % (cmd["kind"], cmd["input"])
            if key not in outputs:
                outputs[key] = (code, out, digests[-1])
            elif outputs[key][2] != digests[-1]:
                result.setdefault("unstable", []).append(key)
    if keep:
        with open(keep, "w", encoding="utf-8") as fh:
            json.dump({k: {"code": c, "output": o}
                       for k, (c, o, _) in outputs.items()}, fh)
    digest = hashlib.sha256()
    for cmd, code, d in zip(commands, codes, digests):
        digest.update(("%s %d %s\n" % (cmd["kind"], code, d)).encode())
    result.update(first_call=first, verdict_s=sum(latencies),
                  verdict_ref=probe.reference_units(sum(latencies)),
                  report_sha256=digest.hexdigest(), latencies=latencies,
                  codes=codes, kinds=[c["kind"] for c in commands])


def round_trip(path, result):
    """Each factor document, fed back through `check`, must exit 0."""
    with open(path, encoding="utf-8") as fh:
        outputs = json.load(fh)
    out_dir = os.path.join(os.path.dirname(path), "round-trip")
    os.makedirs(out_dir, exist_ok=True)
    failures, checked = [], 0
    for key, rec in sorted(outputs.items()):
        if not key.startswith("factor ") or rec["code"] not in (0, 1):
            continue
        doc = os.path.join(out_dir, "%s.json" % key.split()[1])
        with open(doc, "w", encoding="utf-8") as fh:
            fh.write(rec["output"])
        code, text = cli.run_command(["check", doc])
        checked += 1
        if code != 0:
            failures.append((key, "check exited %d: %s" % (code, text)))
    result.update(checked=checked, failures=failures)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float,
                    help="time.time() just before this process was started")
    ap.add_argument("--spans", help="record spans and write them here")
    ap.add_argument("--keep-outputs", help="save session outputs here")
    ap.add_argument("--round-trip", help="check saved factor documents")
    args = ap.parse_args(argv)
    result = {}
    if args.round_trip:
        round_trip(args.round_trip, result)
    else:
        with open(args.inputs, encoding="utf-8") as fh:
            inputs = json.load(fh)
        tracer = None
        timed = lambda fn: fn        # noqa: E731
        if args.spans:
            import tracer as tracing
            tracer = tracing.Tracer("%s-%d-%d" % (inputs["workload"],
                                                  inputs["seed"], os.getpid()),
                                    SizeCapError)
            tracer.install()
            timed = tracer.root
        if inputs["workload"] == "session":
            run_session(inputs, timed, result, args.keep_outputs)
        else:
            run_batch(inputs, timed, result)
        result["setup_s"] = result.pop("first_call") - args.spawned
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if inputs["workload"] == "session":
            caps = sorted({int(a[a.index("--max-space") + 1])
                           if "--max-space" in a else DEFAULT_MAX_SPACE
                           for a in (c["argv"] for c in inputs["commands"])})
        else:
            caps = [c["cap"] for c in inputs["corpora"]]
        result["caps"] = {"max_space": caps,
                          "TVCAT_MAX_SPACE": os.environ.get("TVCAT_MAX_SPACE"),
                          "TVCAT_TIMING": os.environ.get("TVCAT_TIMING")}
        if tracer is not None:
            layers, suite_self, suite_wall, n = tracer.layer_metrics()
            tracer.write(args.spans)
            result.update(layers=layers, spans=n, suite_self_s=suite_self,
                          suite_wall_s=suite_wall)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
