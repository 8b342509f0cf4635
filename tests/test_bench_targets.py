"""The benchmark reaches into the package by name: its traced run wraps module
attributes, each of which must exist, and its setup probe imports the package."""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
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


def test_setup_probe_runs_against_src(monkeypatch):
    # setup_s times this probe in a fresh interpreter; it calls docqa_forge.load_templates
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", run.SETUP_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ready"
