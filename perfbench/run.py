"""tvcat benchmark: time to verdict, peak memory and coverage per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  A separate process writes the
run's inputs from the seed; then each sample runs in a fresh worker
process, because tvcat's module-level caches never evict and a warm
process would mostly measure cache hits.  Samples repeat until --seconds
of measuring is spent (at least four), and the end-to-end figures are
their medians.  With --trace 1 the run makes one untraced and one traced
sample and reports per-layer figures instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give every figure by name and unit, and the
run's configuration.  Output checks: every sample's rendered reports must
hash alike (and alike to earlier runs of the same seed on the same sources
in this checkout), session outputs must pass the checks in
session_checks.py, and each factor document must pass `check`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from session_checks import check_outputs
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 4
MAX_SAMPLES = 15
CHILD_TIMEOUT = 170
# either variable silently changes the work or the output of tvcat
SCRUBBED = ("TVCAT_MAX_SPACE", "TVCAT_TIMING")
COMMAND_KINDS = ("factor", "classify", "lift", "complete", "presheaves")


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(script, args, env):
    subprocess.run([sys.executable, os.path.join(HERE, script)] + args,
                   env=env, timeout=CHILD_TIMEOUT, check=True,
                   stdout=subprocess.DEVNULL)


def sample(out, k, env, **flags):
    result = os.path.join(out, "sample-%d.json" % k)
    args = ["--inputs", os.path.join(out, "inputs.json"), "--result", result]
    for flag, value in flags.items():
        args += ["--" + flag.replace("_", "-"), value]
    args += ["--spawned", repr(time.time())]
    t0 = time.monotonic()
    run_child("worker.py", args, env)
    with open(result, encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["wall_s"] = time.monotonic() - t0
    return rec


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def session_figures(rec):
    """Latency figures of one session sample."""
    lat = rec["latencies"]
    codes = rec["codes"]
    p99 = percentile(lat, 99)
    out = {"cmd_p50_ms": 1000 * statistics.median(lat),
           "cmd_p99_ms": 1000 * p99,
           "cmds_per_s": len(lat) / rec["verdict_s"],
           "commands": len(lat),
           "beyond_p99": sum(1 for x in lat if x > p99),
           "exit_codes": {str(c): codes.count(c) for c in sorted(set(codes))}}
    for kind in COMMAND_KINDS:
        mine = [x for x, k in zip(lat, rec["kinds"]) if k == kind]
        out["cli.%s.p50_ms" % kind] = \
            1000 * statistics.median(mine) if mine else 0.0
    return out


def outcome(rec, inputs, bad_commands):
    """attempted, decided, capped and failed checks of one sample.

    A failed check is a FAIL row, a raised error, or a session command
    that exits 1 or 2 or whose output fails an independent check.
    """
    if "codes" not in rec:
        decided = rec["passed"] + rec["failed_checks"]
        return (decided + rec["capped"] + len(rec["errors"]), decided,
                rec["capped"], rec["failed_checks"] + len(rec["errors"]))
    keys = ["%s %s" % (c["kind"], c["input"]) for c in inputs["commands"]]
    codes = rec["codes"]
    failed = sum(1 for c, k in zip(codes, keys)
                 if c not in (0, 3) or k in bad_commands)
    return (len(codes), sum(1 for c in codes if c in (0, 1)),
            codes.count(3), failed)


def tree_digest(root):
    """sha256 over the sources of tvcat and of this benchmark."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src", "tvcat"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def check_hash_registry(root, key, digest):
    """Report hashes of one workload, seed and source tree must repeat."""
    path = os.path.join(root, ".bench_out", "report-hashes.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its worker too: subprocess.run kills and
    # waits for the child when the exception passes through it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tvcat", "__init__.py")):
        print("error: run from the root of a tvcat checkout (no "
              "src/tvcat here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = child_env(root)
    out = os.path.join(root, ".bench_out", "%s-%d" % (args.workload,
                                                      args.seed))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    run_child("gen.py", ["--workload", args.workload, "--seed",
                         str(args.seed), "--out", out], env)
    with open(os.path.join(out, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    session = args.workload == "session"
    keep = {"keep_outputs": os.path.join(out, "outputs.json")} \
        if session else {}

    traced = None
    t0 = time.monotonic()
    if args.trace:
        samples = [sample(out, 0, env, **keep)]
        traced = sample(out, 1, env, spans=os.path.join(out, "spans.bin"))
    else:
        samples = []
        while len(samples) < MIN_SAMPLES or (
                len(samples) < MAX_SAMPLES
                and time.monotonic() - t0 + statistics.median(
                    s["wall_s"] for s in samples) <= args.seconds):
            samples.append(sample(out, len(samples), env,
                                  **(keep if not samples else {})))
    measured = time.monotonic() - t0

    # integrity notes make the run incorrect; failed outputs are counted
    notes, failed_outputs = [], []
    digests = {s["report_sha256"] for s in samples + [traced] if s}
    if len(digests) != 1:
        notes.append("report hashes differ between samples: %s"
                     % sorted(digests))
    digest = samples[0]["report_sha256"]
    if not check_hash_registry(root, "%s/%d/%s" % (
            args.workload, args.seed, tree_digest(root)), digest):
        notes.append("report hash differs from an earlier run of this seed")
    bad_commands = set()
    if session:
        with open(keep["keep_outputs"], encoding="utf-8") as fh:
            outputs = json.load(fh)
        failures = check_outputs(inputs, outputs)
        result = os.path.join(out, "round-trip.json")
        run_child("worker.py", ["--round-trip", keep["keep_outputs"],
                                "--result", result], env)
        with open(result, encoding="utf-8") as fh:
            failures += json.load(fh)["failures"]
        bad_commands = {key for key, _ in failures}
        failed_outputs = ["%s: %s" % (key, note) for key, note in failures]
        for s in samples:
            notes += ["output of %s changed on repeat" % k
                      for k in s.get("unstable", [])]
    for s in samples + ([traced] if traced else []):
        if any(s["caps"][k] is not None for k in SCRUBBED):
            notes.append("tvcat environment variables reached a worker")
    outcomes = {outcome(s, inputs, bad_commands) for s in samples}
    if len(outcomes) != 1:
        notes.append("check counts differ between samples: %s"
                     % sorted(outcomes))
    attempted, decided, capped, failed = \
        outcome(samples[0], inputs, bad_commands)

    def med(key):
        return statistics.median(s[key] for s in samples)

    figures = {"setup_s": (med("setup_s"), "s"),
               "verdict_s": (med("verdict_s"), "s"),
               "verdict_ref": (med("verdict_ref"), "ref"),
               "peak_rss_mb": (med("peak_rss_mb"), "MB"),
               "checks_decided": (decided, "count"),
               "checks_capped": (capped, "count"),
               "fail_share": (failed / attempted, "ratio")}
    sess = [session_figures(s) for s in samples] if session else []
    if sess:
        for key, unit in (("cmd_p50_ms", "ms"), ("cmd_p99_ms", "ms"),
                          ("cmds_per_s", "1/s")):
            figures[key] = (statistics.median(f[key] for f in sess), unit)

    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.overhead"] = \
            traced["verdict_ref"] / samples[0]["verdict_ref"]
        layers["verdict.wall_s"] = samples[0]["verdict_s"]
        tsess = session_figures(traced) if session else {}
        for kind in COMMAND_KINDS:
            key = "cli.%s.p50_ms" % kind
            layers[key] = tsess.get(key, 0.0)
        layers["verdict.fail_share"] = figures["fail_share"][0]
        layers["verdict.checks_capped"] = capped
        for key in ("cmd_p50_ms", "cmd_p99_ms", "cmds_per_s"):
            layers["session." + key] = sess[0][key] if sess else 0.0
        own, wall = traced["suite_self_s"], traced["suite_wall_s"]
        if own is None or abs(own - wall) > 1e-6 * wall:
            notes.append("span self times do not partition the suite wall "
                         "time (%r against %r s)" % (own, wall))
        values, declared = layers, spec["per_layer"]
    else:
        values = {k: v for k, (v, _) in figures.items()}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print("tvcat benchmark: workload=%s seed=%d trace=%d samples=%d "
          "measured=%.1fs" % (args.workload, args.seed, args.trace,
                              len(samples) + (1 if traced else 0), measured))
    print("metadata: git=%s python=%s nproc=%d" % (
        git_sha(root), platform.python_version(), os.cpu_count() or 0))
    print("config: %s" % json.dumps(inputs["config"], sort_keys=True))
    print("caps: max_space %s (TVCAT_MAX_SPACE and TVCAT_TIMING scrubbed)"
          % samples[0]["caps"]["max_space"])
    print("report sha256: %s" % digest)
    for name, (value, unit) in figures.items():
        print("%-16s %14.6g %s" % (name, value, unit))
    print("fail_share base: %d failed of %d attempted checks (FAIL rows, "
          "raised errors, and session commands exiting 1 or 2 or failing "
          "an output check)" % (failed, attempted))
    if sess:
        print("session: %d commands, %d beyond p99, exit codes %s"
              % (sess[0]["commands"], sess[0]["beyond_p99"],
                 sess[0]["exit_codes"]))
    if args.trace:
        for m in declared:
            print("%-36s %14.6g %s" % (m["name"], values[m["name"]],
                                       m["unit"]))
    for note in failed_outputs:
        print("failed output: %s" % note)
    for note in notes:
        print("integrity check failed: %s" % note)
    print(json.dumps({"correct": not notes, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
