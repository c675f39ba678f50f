"""Checks of session outputs computed from the JSON model files alone.

Nothing here imports tvcat: the expected answers come from the structure
tables and maps that the generator wrote.
"""

import json
import os


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _homs(cat):
    """(lifted point, point) -> value; a missing cell is the default."""
    return {(xx, x): v for xx, x, v in cat["structure"]}


def _functor(path):
    """The map of a functor file and its two category documents."""
    doc = _load(path)
    base = os.path.dirname(path)
    return (doc["map"], _load(os.path.join(base, doc["source"])),
            _load(os.path.join(base, doc["target"])))


def is_order_embedding(path):
    """hom(x, y) = hom(f x, f y) for every pair of source points.

    Both built-in monads act as the identity on carriers, so the lifted
    points of a category are its points.
    """
    fmap, src, dst = _functor(path)
    a, b = _homs(src), _homs(dst)
    return all(a.get((x, y)) == b.get((fmap[x], fmap[y]))
               for x in src["carrier"] for y in src["carrier"])


def check_outputs(inputs, outputs):
    """(command, note) for each distinct command whose output is wrong."""
    files = inputs["files"]
    failures = []
    for key, rec in sorted(outputs.items()):
        kind, name = key.split(" ", 1)
        if kind == "classify":
            if rec["code"] != 0:
                failures.append((key, "exited %d" % rec["code"]))
                continue
            expected = is_order_embedding(files[name])
            if rec["output"].startswith("L: yes") != expected:
                failures.append((key, "%r, but the tables say %s" % (
                    rec["output"],
                    "embedding" if expected else "no embedding")))
        elif kind == "lift":
            if rec["code"] != 0:
                failures.append((key, "exited %d" % rec["code"]))
                continue
            prob = _load(files[name])
            base = os.path.dirname(files[name])
            f, g, u, v = (_functor(os.path.join(base, prob[k]))[0]
                          for k in "fguv")
            d = json.loads(rec["output"])["map"]
            if set(d) != set(v) \
                    or any(d[f[x]] != u[x] for x in f) \
                    or any(g[d[y]] != v[y] for y in v):
                failures.append((key, "filler %r does not give d.f = u "
                                      "and g.d = v" % (d,)))
    return failures
