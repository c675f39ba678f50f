"""Write the inputs of one benchmark run from its seed.

    python3 perfbench/gen.py --workload NAME --seed N --out DIR

Runs in its own process, before any timed process starts, so that every
timed process begins with cold tvcat caches.  Writes DIR/inputs.json and,
for the session workload, the JSON model files and the command sequence.
"""

import argparse
import itertools
import json
import os
import random
import sys

from workloads import CLASSES, WORKLOADS

from tvcat.category import is_fully_faithful
from tvcat.corpus import _relabelled, iso_representatives, seed_corpus
from tvcat.lofs import r_membership
from tvcat.monad import instantiate_monad
from tvcat.presheaf import saturated_class
from tvcat.workspace import category_doc, functor_doc, quantale_from_doc


def build_corpus(spec):
    q = quantale_from_doc(spec["quantale"], "<benchmark>")
    M = instantiate_monad(spec["monad"], q)
    cats, fns = seed_corpus(M, spec["size"])
    return cats, fns


def relabelling(cats, fns, rng):
    """Index maps of one seeded automorphism of the corpus.

    One permutation per carrier size relabels every category and functor
    consistently, so sharing between corpus objects is preserved exactly.
    """
    perms = {}
    for C in cats:
        n = len(C.carrier)
        if n not in perms:
            perms[n] = rng.sample(range(n), n)
    by_rows = {(len(C.carrier), C.structure.rows): i
               for i, C in enumerate(cats)}
    cat_pos = {id(C): i for i, C in enumerate(cats)}
    cat_map = [by_rows[(len(C.carrier),
                        _relabelled(C.structure.rows, perms[len(C.carrier)]))]
               for C in cats]
    by_table = {(cat_pos[id(f.src)], cat_pos[id(f.dst)], f.fn.table): i
                for i, f in enumerate(fns)}
    fn_map = []
    for f in fns:
        ps, pd = perms[len(f.src.carrier)], perms[len(f.dst.carrier)]
        inv = {old: new for new, old in enumerate(pd)}
        table = tuple(inv[f.fn.table[ps[i]]] for i in range(len(ps)))
        fn_map.append(by_table[(cat_map[cat_pos[id(f.src)]],
                                cat_map[cat_pos[id(f.dst)]], table)])
    return cat_map, fn_map


def base_cats(cats, rule):
    if rule == "all":
        return list(range(len(cats)))
    if rule == "first-3":
        return list(range(3))
    if rule == "up-to-2-points-plus-3-point-classes":
        out, seen = [], set()
        for i, C in enumerate(cats):
            n = len(C.carrier)
            if n <= 2:
                out.append(i)
                continue
            key = min(_relabelled(C.structure.rows, p)
                      for p in itertools.permutations(range(n)))
            if key not in seen:
                seen.add(key)
                out.append(i)
        return out
    raise ValueError("unknown category rule %r" % rule)


def corpus_rng(seed_key, spec):
    """One generator per corpus table set.

    Both monad instances lift carriers identically, so the identity and
    ultrafilter corpora over one quantale get the same relabelling and the
    same order, and repeat each other's tables as in verify-paper.
    """
    return random.Random("%s:%s" % (seed_key, json.dumps(
        [spec["quantale"], spec["size"]], sort_keys=True)))


def batch_inputs(cfg, seed_key):
    corpora = []
    for spec in cfg["corpora"]:
        rng = corpus_rng(seed_key, spec)
        cats, fns = build_corpus(spec)
        reps = iso_representatives(fns)
        fn_pos = {id(f): i for i, f in enumerate(fns)}
        cat_map, fn_map = relabelling(cats, fns, rng)
        draw = [(r, fn_map[fn_pos[id(reps[r])]])
                for r in range(0, len(reps), cfg["rep_stride"])]
        rng.shuffle(draw)
        corpora.append(dict(spec, n_cats=len(cats), n_fns=len(fns),
                            n_reps=len(reps),
                            cats=[cat_map[i]
                                  for i in base_cats(cats, cfg["cats"])],
                            reps=[r for r, _ in draw],
                            fns=[i for _, i in draw]))
    return {"corpora": corpora}


# ---------------------------------------------------------------------------
# session inputs
# ---------------------------------------------------------------------------

def lifting_problems(cats, fns, reps, count):
    """Commuting squares (f, g, u, v) with f fully faithful and g in R."""
    if not count:
        return []
    cls = saturated_class("all")
    by_ends = {}
    for f in fns:
        by_ends.setdefault((id(f.src), id(f.dst)), []).append(f)
    lefts = [f for f in reps if is_fully_faithful(f)
             and 1 <= len(f.src.carrier) < len(f.dst.carrier) <= 3]
    rights = [g for g in reps if 2 <= len(g.src.carrier) <= 3
              and 1 <= len(g.dst.carrier) < len(g.src.carrier)
              and r_membership(g, cls) is not None]
    out = []
    for f in lefts:
        for g in rights:
            square = next(((u, v)
                           for u in by_ends.get((id(f.src), id(g.src)), ())
                           for v in by_ends.get((id(f.dst), id(g.dst)), ())
                           if (v.fn @ f.fn) == (g.fn @ u.fn)
                           and len(set(u.fn.table)) > 1), None)
            if square is not None:
                out.append((f, g) + square)
                break
        if len(out) == count:
            break
    return out


def session_inputs(cfg, seed_key, out_dir):
    sdir = os.path.join(out_dir, "session")
    os.makedirs(sdir, exist_ok=True)

    def put(name, doc):
        path = os.path.join(sdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        return path

    fresh, docs = [], {"categories": {}, "functors": {}, "problems": {}}
    flags = {}
    for k, spec in enumerate(cfg["corpora"]):
        prefix = "q%d" % k
        if "cap" in spec:
            flags[prefix] = ["--max-space", str(spec["cap"])]
        qname = prefix + "_quantale"
        put(qname, dict(spec["quantale"], name=qname))
        cats, fns = build_corpus(spec)
        reps = iso_representatives(fns)
        fn_pos = {id(f): i for i, f in enumerate(fns)}
        cat_pos = {id(C): i for i, C in enumerate(cats)}
        cat_map, fn_map = relabelling(cats, fns, corpus_rng(seed_key, spec))

        def cat_doc(C):
            name = "%s_%s" % (prefix, C.name)
            if name not in docs["categories"]:
                docs["categories"][name] = put(
                    name, category_doc(C, qname + ".json", name))
            return name

        def cat_file(C):
            return cat_doc(cats[cat_map[cat_pos[id(C)]]])

        def fn_file(f):
            f = fns[fn_map[fn_pos[id(f)]]]
            name = "%s_f%04d" % (prefix, fn_pos[id(f)])
            if name not in docs["functors"]:
                src, dst = cat_doc(f.src), cat_doc(f.dst)
                docs["functors"][name] = put(
                    name, functor_doc(f, src + ".json", dst + ".json", name))
            return name

        small = [f for f in reps if min(len(f.src.carrier), len(f.dst.carrier))
                 <= cfg["functor_max_end"][k]]
        for f in small[::cfg["functor_stride"][k]]:
            name = fn_file(f)
            fresh.append(("factor", name))
            fresh.append(("classify", name))
        for C in cats[::cfg["cat_stride"][k]]:
            name = cat_file(C)
            fresh.append(("complete", name))
            fresh.append(("presheaves", name))
        for j, square in enumerate(lifting_problems(cats, fns, reps,
                                                    cfg["problems"][k])):
            parts = dict(zip("fguv", (fn_file(h) + ".json" for h in square)))
            name = "%s_p%d" % (prefix, j)
            docs["problems"][name] = put(name, dict(parts, name=name))
            fresh.append(("lift", name))

    paths = dict(docs["categories"], **docs["functors"], **docs["problems"])
    # every input command runs the same number of times, so the seed moves
    # the order, not the amount of work; a command's first run is cold
    sequence = fresh * cfg["repeats"]
    random.Random(seed_key).shuffle(sequence)
    commands = []
    for kind, name in sequence:
        argv = [kind, paths[name]]
        if kind in ("factor", "classify"):
            argv += ["--class", "all"]
        argv += flags.get(name.split("_")[0], [])
        commands.append({"kind": kind, "input": name, "argv": argv})
    return {"commands": commands, "fresh": len(fresh), "files": paths}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    cfg = WORKLOADS[args.workload]
    seed_key = "%s:%d" % (args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "session":
        body = session_inputs(cfg, seed_key, args.out)
    else:
        body = batch_inputs(cfg, seed_key)
    body.update(workload=args.workload, seed=args.seed, classes=CLASSES,
                config={k: v for k, v in cfg.items() if k != "why"})
    with open(os.path.join(args.out, "inputs.json"), "w",
              encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
