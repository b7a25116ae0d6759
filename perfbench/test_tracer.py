"""Tests of the benchmark's tracer: python -m pytest perfbench -q"""

import importlib
import sys
import textwrap

import pytest

from tracer import Span, Tracer, op_medians, per_op_table, self_times


class FakeClock:
    """Advances by a fixed step on every read, so span times are exact."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_times_subtract_direct_children_only():
    spans = [Span("root", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 2.0, 3.0, 1, 0),     # grandchild of root
             Span("c", 5.0, 9.0, 0, 0),
             Span("d", 6.0, 8.0, 3, 0)]
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0,
                                 4.0 - 2.0, 2.0]


def test_nested_wrapped_calls_record_parents_and_self_time():
    tracer = Tracer(clock=FakeClock())

    leaf = tracer.wrap(lambda: None, "leaf")

    def middle_fn():
        leaf()
        leaf()

    middle = tracer.wrap(middle_fn, "middle")
    top = tracer.wrap(lambda: middle(), "top")
    tracer.op = 7
    top()
    tracer.op = None
    top()  # outside an op: recorded, but left out of the per-op table

    names = [s.name for s in tracer.spans[:4]]
    assert names == ["top", "middle", "leaf", "leaf"]
    assert [s.parent for s in tracer.spans[:4]] == [-1, 0, 1, 1]
    # each clock read advances 1: leaf spans last 1, middle 1 + 2*2 = 5 ...
    assert [s.end - s.start for s in tracer.spans[:4]] == [7.0, 5.0, 1.0, 1.0]
    row = per_op_table(tracer.spans, tracer.counts)[7]
    assert row["top.calls"] == 1 and row["leaf.calls"] == 2
    assert row["top.self_ms"] == pytest.approx(2e3)
    assert row["middle.self_ms"] == pytest.approx(3e3)
    assert row["leaf.ms"] == pytest.approx(2e3)
    assert set(per_op_table(tracer.spans, tracer.counts)) == {7}


def test_errors_and_hook_counters_are_per_op():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    failing = tracer.wrap(boom, "f")
    sized = tracer.wrap(lambda n: list(range(n)), "g",
                        on_return=lambda res, args: {"g.items": len(res)})
    for op in (0, 1):
        tracer.op = op
        with pytest.raises(ValueError):
            failing()
        sized(op + 2)
    table = per_op_table(tracer.spans, tracer.counts)
    assert table[0]["f.errors"] == 1 and table[1]["g.items"] == 3
    medians = op_medians(table, [0, 1], ["g.items", "f.errors", "absent.ms"])
    assert medians == {"g.items": 2.5, "f.errors": 1.0, "absent.ms": 0.0}


@pytest.fixture
def twopkg(tmp_path, monkeypatch):
    """A package whose function is bound under three names in two modules."""
    root = tmp_path / "twopkg"
    root.mkdir()
    (root / "__init__.py").write_text(
        "from .a import leaf\nfrom .b import caller\n")
    (root / "a.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def _hidden(x):
            return x
    """))
    (root / "b.py").write_text(textwrap.dedent("""
        from . import a
        from .a import _hidden, leaf
        from .a import leaf as alias

        def caller(x):
            return leaf(x) + alias(x) + a.leaf(x) + _hidden(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    pkg = importlib.import_module("twopkg")
    yield pkg
    for name in [n for n in sys.modules if n.split(".")[0] == "twopkg"]:
        del sys.modules[name]


def test_install_patches_every_binding_by_identity(twopkg):
    a, b = sys.modules["twopkg.a"], sys.modules["twopkg.b"]
    originals = {"a.leaf": a.leaf, "b.caller": b.caller,
                 "a._hidden": a._hidden}
    tracer = Tracer(clock=FakeClock())
    tracer.install("twopkg", lambda mod, fn: f"{mod}.{fn}")
    try:
        for binding in (twopkg.leaf, a.leaf, b.leaf, b.alias):
            assert binding is not originals["a.leaf"]
        assert b._hidden is originals["a._hidden"]  # private: untouched
        tracer.op = 0
        assert twopkg.caller(1) == 7
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["b.caller"] + ["a.leaf"] * 3
    assert all(s.parent == 0 for s in tracer.spans[1:])
    for binding in (twopkg.leaf, a.leaf, b.leaf, b.alias):
        assert binding is originals["a.leaf"]
    assert twopkg.caller is originals["b.caller"] is b.caller


def test_install_skips_functions_name_for_rejects(twopkg):
    a = sys.modules["twopkg.a"]
    leaf = a.leaf
    tracer = Tracer()
    tracer.install("twopkg", lambda mod, fn: None if fn == "leaf" else fn)
    try:
        assert a.leaf is leaf and twopkg.leaf is leaf
        twopkg.caller(0)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["caller"]
