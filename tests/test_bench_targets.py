"""The benchmark's traced run wraps module attributes by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_bench_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    missing = [(module, attr) for module, attr, *_ in run.TRACE_TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert run.TRACE_TARGETS and missing == []
