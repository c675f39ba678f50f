"""Every callable that perfbench's tracer wraps still exists in tvcat.

`perfbench/tracer.py` names its targets as (module, attribute path)
strings and patches them at run time, so a rename in tvcat would only
show when a traced benchmark run fails.  This reads the tracer's tables
(it imports the stdlib only) and resolves each target.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # read-only: no bytecode cache is written next to the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)


def test_every_traced_target_resolves(tracer):
    targets = [t for group in tracer.SPANS.values() for t in group]
    targets += list(tracer.COUNTERS.values())
    targets += list(tracer.OUTCOME_COUNTERS.values())
    assert targets
    for module, path in targets:
        assert module.split(".")[0] == "tvcat", module
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, path)
