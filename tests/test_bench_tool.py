"""The summary lines of `tools/bench_verify_paper.py`."""

import importlib
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        yield importlib.import_module("bench_verify_paper")
    finally:
        sys.modules.pop("bench_verify_paper", None)


def run(tree, config, rnd, code, sha="a"):
    return {"tree": tree, "config": config, "round": rnd, "exit": code,
            "wall_s": 1.0, "peak_rss_mb": 10.0, "stdout_sha256": sha}


def test_summary_says_every_run_exited_zero(bench):
    runs = [run(tree, config, rnd, 0) for config in bench.CONFIGS
            for rnd in range(2) for tree in ("parent", "change")]
    lines = bench.summary(runs, ["parent", "change"])
    assert len(lines) == len(bench.CONFIGS)
    assert all(line.endswith("stdout sha256 equal on all 4 runs; "
                             "exit 0 on all 4 runs") for line in lines)


def test_summary_names_each_run_that_did_not_exit_zero(bench):
    # a crash that hashes alike on both trees still shows
    runs = [run(tree, config, rnd, 1 if tree == "change" and rnd else 0)
            for config in bench.CONFIGS for rnd in range(2)
            for tree in ("parent", "change")]
    lines = bench.summary(runs, ["parent", "change"])
    assert all(line.endswith("stdout sha256 equal on all 4 runs; "
                             "NOT EXIT 0: change round 1 exit 1")
               for line in lines)
