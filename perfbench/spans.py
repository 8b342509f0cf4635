"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a function at the module attribute its caller looks up
at call time (for example `docqa_forge.generator.execute`), so the program
itself is not changed. Each call records a span: name, start, end and the
span that was open when it began. Spans are kept in flat arrays and written
out when the run ends. Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

NO_PARENT = -1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name (used for the per-step root spans)."""
        span = self.open(self._intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def wrap(self, fn, name: str, hook=None):
        """fn wrapped in a span; hook(tracer, args, result) records counts."""
        name_id = self._intern(name)
        raised = f"{name}.raised"

        def traced(*args, **kwargs):
            span = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span)
                self.counts[raised] += 1
                raise
            self.close(span)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """targets: (module name, attribute, span name, hook or None)."""
        for module_name, attr, name, hook in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def add(self, counter: str, amount) -> None:
        self.counts[counter] += amount

    def mark(self, key_set: str, key) -> None:
        self.keys.setdefault(key_set, set()).add(key)

    def rows(self):
        """(run id, span id, parent id, name, start, end) for every span."""
        for i in range(len(self.start)):
            yield (self.run_id, i, self.parent[i], self.names[self.name_of[i]],
                   self.start[i], self.end[i])


def self_times(parents, names, starts, ends) -> tuple[dict[str, float], Counter]:
    """Per span name: total self time and call count.

    A span's self time is its duration minus the durations of its direct
    children; the program is single-threaded in the traced process, so
    children never overlap each other and lie inside their parent."""
    n = len(starts)
    covered = [0.0] * n
    for i in range(n):
        if parents[i] != NO_PARENT:
            covered[parents[i]] += ends[i] - starts[i]
    totals: dict[str, float] = {}
    calls: Counter = Counter()
    for i in range(n):
        name = names[i]
        totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
        calls[name] += 1
    return totals, calls


def tracer_self_times(tracer: Tracer) -> tuple[dict[str, float], Counter]:
    names = [tracer.names[i] for i in tracer.name_of]
    return self_times(tracer.parent, names, tracer.start, tracer.end)


def write_spans(tracers, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("run_id\tspan_id\tparent_id\tname\tstart_s\tend_s\n")
        for tracer in tracers:
            for row in tracer.rows():
                out.write("%s\t%d\t%d\t%s\t%.9f\t%.9f\n" % row)
