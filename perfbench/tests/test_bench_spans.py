import sys
import types

import pytest

from spans import NO_PARENT, Tracer, self_times, tracer_self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 6] -> b [2, 3]
    #              -> a [7, 9]
    parents = [NO_PARENT, 0, 1, 0]
    names = ["root", "a", "b", "a"]
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 6.0, 3.0, 9.0]
    totals, calls = self_times(parents, names, starts, ends)
    assert totals["root"] == pytest.approx(10 - 5 - 2)
    assert totals["a"] == pytest.approx((5 - 1) + 2)
    assert totals["b"] == pytest.approx(1)
    assert calls == {"root": 1, "a": 2, "b": 1}


def _leaf(x):
    if x < 0:
        raise ValueError(x)
    return [x] * x


def test_tracer_wraps_module_attribute_and_restores_it(monkeypatch):
    module = types.ModuleType("probe_module")
    module.leaf = _leaf
    monkeypatch.setitem(sys.modules, "probe_module", module)
    tracer = Tracer("t")
    tracer.install([("probe_module", "leaf", "probe.leaf",
                     lambda tr, args, result: tr.add("probe.items", len(result)))])
    try:
        assert tracer.call("root", module.leaf, 3) == [3, 3, 3]
        with pytest.raises(ValueError):
            module.leaf(-1)
    finally:
        tracer.uninstall()
    assert module.leaf is _leaf

    totals, calls = tracer_self_times(tracer)
    assert calls == {"root": 1, "probe.leaf": 2}
    assert tracer.counts == {"probe.items": 3, "probe.leaf.raised": 1}
    rows = list(tracer.rows())
    assert [r[3] for r in rows] == ["root", "probe.leaf", "probe.leaf"]
    assert [r[2] for r in rows] == [NO_PARENT, 0, NO_PARENT]
    assert all(r[5] >= r[4] for r in rows)
    assert totals["root"] <= rows[0][5] - rows[0][4]
