"""End-to-end figures of `tvcat verify-paper`: wall time and peak RSS.

    python3 tools/bench_verify_paper.py --out BENCH.json \
        --tree NAME=DIR [--tree NAME=DIR ...]

Each tree is a source checkout.  In each of two rounds, for each config
in turn (the default, the four-quantale one and the default rendered with
`--output json`), the script runs
`python -m tvcat.cli verify-paper` from every tree's `src` in a fresh child
process and records the wall time, the child's own `ru_maxrss` (from
`os.wait4`, so no other process counts), its exit code and the sha256 of
its stdout.  The second round runs the trees in reverse order.  The JSON
written to --out also holds each tree's git SHA (and whether its `src`
has uncommitted changes), the size of its `src/tvcat` (raw lines, and code
lines: those left once blank lines, comments and docstrings are dropped),
the Python version and the number of CPUs this process may run on.  It
ends with one summary line per config on stdout: each tree's median wall
time and max peak RSS, whether every run's stdout sha256 agrees across
trees and rounds, and whether every run exited 0 (else the tree, round and
exit code of each run that did not); then one line with each tree's
`src/tvcat` size.  Stdlib only.
"""

import argparse
import ast
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROUNDS = 2
CONFIGS = {
    "default": [],
    "four-quantale": ["--quantales", "boolean,truncated_chain(2),"
                      "lukasiewicz_chain(2),powerset_frame(2)"],
    "default-json": ["--output", "json"],
}


def git(tree: str, *args):
    try:
        out = subprocess.run(["git", "-C", tree] + list(args),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def tree_info(tree: str) -> dict:
    """HEAD of the checkout, whether its `src` differs from HEAD, and the
    size of its `src/tvcat`."""
    status = git(tree, "status", "--porcelain", "--", "src")
    return {"git_sha": git(tree, "rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "src_lines": src_lines(tree)}


def src_lines(tree: str) -> dict:
    """Raw lines of the `.py` files under `src/tvcat`, and code lines: the
    lines that are not blank, not only a comment and not in a docstring."""
    raw = code = 0
    for path in sorted(Path(tree, "src", "tvcat").rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
        raw += len(lines)
        code += sum(1 for number, line in enumerate(lines, 1)
                    if number not in docs and line.strip()
                    and not line.lstrip().startswith("#"))
    return {"raw": raw, "code": code}


def run_once(tree: str, args: list) -> dict:
    """One verify-paper child: wall time, its own peak RSS, exit, stdout hash."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "tvcat.cli", "verify-paper"] + args
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return {"wall_s": round(wall, 2),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "exit": proc.returncode,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--tree", action="append", required=True,
                    metavar="NAME=DIR", help="source checkout to run "
                    "(repeatable)")
    args = ap.parse_args(argv)
    trees = []
    for spec in args.tree:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            ap.error("--tree wants NAME=DIR, got %r" % spec)
        trees.append((name, os.path.abspath(path)))
    runs = []
    for rnd in range(ROUNDS):
        order = trees if rnd % 2 == 0 else trees[::-1]
        for config in CONFIGS:
            for name, path in order:
                rec = dict(tree=name, config=config, round=rnd,
                           **run_once(path, CONFIGS[config]))
                print(json.dumps(rec), file=sys.stderr, flush=True)
                runs.append(rec)
    doc = {"command": "verify-paper",
           "configs": CONFIGS,
           "trees": {name: tree_info(path) for name, path in trees},
           "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in summary(runs, [name for name, _ in trees]):
        print(line)
    print("src/tvcat: " + "; ".join(
        "%s %d lines, %d code" % (name, info["src_lines"]["raw"],
                                  info["src_lines"]["code"])
        for name, info in doc["trees"].items()))
    return 0


def summary(runs: list, names: list) -> list:
    """Per config: each tree's median wall and max peak RSS, whether all
    stdout hashes agree, and which runs, if any, exited other than 0: two
    trees that crash alike hash alike."""
    lines = []
    for config in CONFIGS:
        mine = [r for r in runs if r["config"] == config]
        parts = []
        for name in names:
            own = [r for r in mine if r["tree"] == name]
            parts.append("%s wall %.2f s, peak %.1f MB" % (
                name, statistics.median(r["wall_s"] for r in own),
                max(r["peak_rss_mb"] for r in own)))
        same = len({r["stdout_sha256"] for r in mine}) == 1
        crashed = ["%s round %d exit %d" % (r["tree"], r["round"], r["exit"])
                   for r in mine if r["exit"] != 0]
        lines.append("%s: %s; stdout sha256 %s; %s" % (
            config, "; ".join(parts),
            "equal on all %d runs" % len(mine) if same else "DIFFERS",
            "NOT EXIT 0: " + ", ".join(crashed) if crashed
            else "exit 0 on all %d runs" % len(mine)))
    return lines


if __name__ == "__main__":
    sys.exit(main())
