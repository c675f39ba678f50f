"""Spans and counters recorded around tvcat's public functions, from outside.

`Tracer.install()` replaces each traced function in every `tvcat` module
namespace that holds it, and each traced method on its class, with a
wrapper that records one span: name, start, end, parent and exit status.
Spans live in flat arrays while the run lasts and are written out at the
end.  A span's self time is its duration minus the part covered by its
child spans; spans nest strictly, because the process is single-threaded.
"""

import array
import json
import statistics
import sys
import time

OK, CAPPED, RAISED = 0, 1, 2

# span name -> (module, attribute path) of every traced callable
SPANS = {
    "quantale.compose": [("tvcat.quantale", "VRelation.__matmul__")],
    "quantale.leq": [("tvcat.quantale", "VRelation.leq")],
    "monad.lax_extend": [("tvcat.monad", "lax_extend")],
    "monad.kleisli": [("tvcat.monad", "kleisli")],
    "category.is_functor": [("tvcat.category", "is_functor")],
    "category.bim_compose": [("tvcat.category", "bim_compose")],
    "category.check_category": [("tvcat.category", "check_category")],
    "corpus.seed_corpus": [("tvcat.corpus", "seed_corpus")],
    "corpus.iso_representatives": [("tvcat.corpus", "iso_representatives")],
    "presheaf.space": [("tvcat.presheaf", "presheaf_space")],
    "presheaf.space_build": [("tvcat.presheaf", "PresheafSpace.__init__")],
    "presheaf.structure": [("tvcat.monad",
                            "MonadInstance.presheaf_structure")],
    "presheaf.apply_P": [("tvcat.presheaf", "apply_P")],
    "presheaf.contains": [("tvcat.presheaf", "_All.contains"),
                          ("tvcat.presheaf", "_Representable.contains"),
                          ("tvcat.presheaf", "_RightAdjoint.contains")],
    "lofs.factorise": [("tvcat.lofs", "comma_factorise")],
    "lofs.r_membership": [("tvcat.lofs", "r_membership")],
    "lofs.fillers": [("tvcat.lofs", "enumerate_fillers")],
    "lofs.check_awfs": [("tvcat.lofs", "check_awfs")],
    "workspace.load": [("tvcat.workspace", "Workspace.load_file")],
}

# counter name -> constructor counted on every call, without a span
COUNTERS = {
    "core.fn.built": ("tvcat.core", "Fn.__init__"),
    "core.finset.built": ("tvcat.core", "FinSet.__init__"),
}

# factorisations are counted by outcome; their own work stays in the
# self time of the enclosing lofs.factorise span
OUTCOME_COUNTERS = {
    "lofs.factorise": ("tvcat.lofs", "Factorisation.__init__"),
}

ROOT = "bench.suite"


def _patch(module, path, make_wrapper):
    """Swap the callable at module.path for make_wrapper(callable).

    A method is replaced on its class; a function in every tvcat module
    namespace that imported it.
    """
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, mod in list(sys.modules.items()):
        if name == "tvcat" or name.startswith("tvcat."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    def __init__(self, run_id, capped_exc):
        self.run_id = run_id
        self.capped_exc = capped_exc
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.status = array.array("b")
        self.stack = [-1]
        self.counts = {}
        self.accepted = {}        # span name -> calls that returned True
        self.presheaves = [0]     # presheaves held by successfully built spaces

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, fn, name, observe=None):
        nid = self._name_id(name)
        names, parents = self.name, self.parent
        starts, ends, status = self.start, self.end, self.status
        stack, capped_exc = self.stack, self.capped_exc
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            status.append(OK)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except capped_exc:
                status[i] = CAPPED
                raise
            except BaseException:
                status[i] = RAISED
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _outcome_counter(self, fn, key):
        counts, capped_exc = self.counts, self.capped_exc
        counts[key + ".built"] = counts[key + ".capped"] = 0

        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except capped_exc:
                counts[key + ".capped"] += 1
                raise
            counts[key + ".built"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        accepted = self.accepted
        accepted["category.is_functor"] = 0

        def on_is_functor(result, args):
            if result:
                accepted["category.is_functor"] += 1

        def on_space_built(result, args):
            self.presheaves[0] += len(args[0].presheaves)

        observers = {"category.is_functor": on_is_functor,
                     "presheaf.space_build": on_space_built}
        for name, targets in SPANS.items():
            for module, path in targets:
                _patch(module, path, lambda fn, name=name: self._span(
                    fn, name, observers.get(name)))
        for key, (module, path) in COUNTERS.items():
            _patch(module, path, lambda fn, key=key: self._counter(fn, key))
        for key, (module, path) in OUTCOME_COUNTERS.items():
            _patch(module, path,
                   lambda fn, key=key: self._outcome_counter(fn, key))

    def root(self, fn):
        """Wrap one timed suite call in a root span."""
        return self._span(fn, ROOT)

    # -- after the run -----------------------------------------------------

    def write(self, path):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"run_id": self.run_id, "names": self.names,
                  "spans": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                             ["end", "d"], ["status", "b"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end,
                        self.status):
                arr.tofile(fh)

    def aggregate(self):
        """Per-name figures, and the suite's self time and wall time.

        The self times of the spans under the root spans add up to the
        roots' wall time only if no span's children outlast it, which is
        also checked: suite_self is None when some span's children do.
        """
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, \
            self.name
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        root_id = self.names.index(ROOT) if ROOT in self.names else -1
        root_of = array.array("i", bytes(4 * n))
        per = {nm: {"calls": 0, "self_s": 0.0, "ok_s": 0.0, "capped_s": 0.0,
                    "ok": 0, "capped": 0, "durations": []}
               for nm in self.names}
        awfs_id = self.names.index("lofs.check_awfs") \
            if "lofs.check_awfs" in self.names else -2
        suite_self = suite_wall = 0.0
        nested = True
        for i in range(n):
            p = parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            dur = end[i] - start[i]
            own = dur - covered[i]
            if own < -1e-9:
                nested = False
            agg = per[self.names[name[i]]]
            agg["calls"] += 1
            agg["self_s"] += own
            if self.status[i] == OK:
                agg["ok"] += 1
                agg["ok_s"] += dur
            elif self.status[i] == CAPPED:
                agg["capped"] += 1
                agg["capped_s"] += dur
            if name[i] == awfs_id:
                agg["durations"].append(dur)
            if name[root_of[i]] == root_id:
                suite_self += own
                if p < 0:
                    suite_wall += dur
        return per, suite_self if nested else None, suite_wall

    def layer_metrics(self):
        per, suite_self, suite_wall = self.aggregate()
        empty = {"calls": 0, "self_s": 0.0, "ok_s": 0.0, "capped_s": 0.0,
                 "ok": 0, "capped": 0, "durations": []}

        def get(nm):
            return per.get(nm, empty)

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(values, q):
            if len(values) < 2:
                return 1000.0 * values[0] if values else 0.0
            return 1000.0 * statistics.quantiles(values, n=100,
                                                 method="inclusive")[q - 1]

        out = {"core.fn.built": self.counts["core.fn.built"],
               "core.finset.built": self.counts["core.finset.built"]}
        for nm in ("quantale.compose", "quantale.leq", "monad.lax_extend",
                   "monad.kleisli", "category.is_functor",
                   "category.bim_compose", "presheaf.apply_P",
                   "presheaf.contains", "lofs.r_membership", "lofs.fillers",
                   "workspace.load"):
            out[nm + ".calls"] = get(nm)["calls"]
            out[nm + ".self_s"] = get(nm)["self_s"]
        isf = get("category.is_functor")
        out["category.is_functor.accept_ratio"] = ratio(
            self.accepted["category.is_functor"], isf["calls"])
        out["category.check_category.self_s"] = \
            get("category.check_category")["self_s"]
        out["corpus.seed_corpus.s"] = get("corpus.seed_corpus")["ok_s"]
        out["corpus.iso_representatives.s"] = \
            get("corpus.iso_representatives")["ok_s"]
        space, build = get("presheaf.space"), get("presheaf.space_build")
        out["presheaf.space.calls"] = space["calls"]
        out["presheaf.space.built"] = build["ok"]
        out["presheaf.space.capped"] = space["capped"]
        out["presheaf.space.build_s"] = build["ok_s"]
        out["presheaf.space.capped_s"] = build["capped_s"]
        out["presheaf.space.presheaves"] = self.presheaves[0]
        out["presheaf.space.hit_ratio"] = ratio(
            space["calls"] - build["calls"], space["calls"])
        out["presheaf.structure.self_s"] = \
            get("presheaf.structure")["self_s"]
        fact = get("lofs.factorise")
        out["lofs.factorise.calls"] = fact["calls"]
        out["lofs.factorise.built"] = self.counts["lofs.factorise.built"]
        out["lofs.factorise.capped"] = self.counts["lofs.factorise.capped"]
        out["lofs.factorise.self_s"] = fact["self_s"]
        awfs = sorted(get("lofs.check_awfs")["durations"])
        out["lofs.check_awfs.p50_ms"] = pct(awfs, 50)
        out["lofs.check_awfs.p95_ms"] = pct(awfs, 95)
        return out, suite_self, suite_wall, len(self.start)
