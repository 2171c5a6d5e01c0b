"""Span arithmetic and wrapper installation of the traced run."""

import sys
import types

import pytest

import tracing
from tracing import ROOT, Instrumentation, Span, SpanRecorder, Target


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def _nested_spans():
    # outer [0, 10] > a [1, 4] > leaf [2, 3];  outer > b [5, 9]
    rec = SpanRecorder(clock=_clock(0, 1, 2, 3, 4, 5, 9, 10))
    outer = rec.begin("outer")
    a = rec.begin("a")
    leaf = rec.begin("leaf")
    rec.end(leaf)
    rec.end(a)
    b = rec.begin("b")
    rec.end(b)
    rec.end(outer)
    return rec.spans


def test_self_time_subtracts_direct_children_only():
    stats = tracing.layer_stats(_nested_spans())
    assert stats["outer"] == {"calls": 1, "s": 10, "self_s": 3}
    assert stats["a"] == {"calls": 1, "s": 3, "self_s": 2}
    assert stats["leaf"] == {"calls": 1, "s": 1, "self_s": 1}
    assert stats["b"] == {"calls": 1, "s": 4, "self_s": 4}
    total_self = sum(entry["self_s"] for entry in stats.values())
    assert total_self == tracing.root_seconds(_nested_spans()) == 10


def test_recursive_span_counted_once_inclusive():
    spans = [
        Span("x", 0.0, 10.0, ROOT),
        Span("x", 2.0, 6.0, 0),
        Span("y", 3.0, 4.0, 1),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["x"]["calls"] == 2
    assert stats["x"]["s"] == 10.0
    assert stats["x"]["self_s"] == pytest.approx(6.0 + 3.0)
    assert tracing.count_under(spans, "y", "x") == 1
    assert tracing.seconds_under(spans, "y", "x") == 1.0
    assert tracing.seconds_under(spans, "x", "y") == 0


def test_spans_must_end_in_reverse_order():
    rec = SpanRecorder()
    first = rec.begin("first")
    rec.begin("second")
    with pytest.raises(RuntimeError):
        rec.end(first)


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def work(x):
        return x + 1

    def fail():
        raise ValueError("boom")

    class Engine:
        def step(self, x):
            return module.work(x) * 2

    module.work, module.fail, module.Engine = work, fail, Engine
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


FAKE_TARGETS = (
    Target("perfbench_fake_layer", "work", "layer.work"),
    Target("perfbench_fake_layer", "fail", "layer.fail"),
    Target("perfbench_fake_layer", "Engine.step", "layer.step"),
)


def test_wrappers_record_and_restore_originals(fake_module):
    originals = (fake_module.work, fake_module.fail, vars(fake_module.Engine)["step"])
    rec = SpanRecorder()
    with Instrumentation(rec, FAKE_TARGETS):
        assert fake_module.work is not originals[0]
        assert fake_module.Engine().step(1) == 4
        with pytest.raises(ValueError):
            fake_module.fail()
    assert (fake_module.work, fake_module.fail, vars(fake_module.Engine)["step"]) == originals
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("layer.step", ROOT), ("layer.work", 0), ("layer.fail", ROOT)]
    assert rec.counts == {"layer.fail.failures": 1}


def test_wrappers_restored_when_the_run_raises(fake_module):
    original = fake_module.work
    with pytest.raises(KeyError):
        with Instrumentation(SpanRecorder(), FAKE_TARGETS):
            raise KeyError("run failed")
    assert fake_module.work is original


def test_program_targets_restored():
    rec = SpanRecorder()
    before = {}
    for target in tracing.TARGETS:
        owner, leaf = tracing._resolve(target.module, target.attr)
        before[(target.module, target.attr)] = vars(owner)[leaf]
    import repro.fitting.pwlr as pwlr

    counter = pwlr._metric_counter
    with Instrumentation(rec):
        for target in tracing.TARGETS:
            owner, leaf = tracing._resolve(target.module, target.attr)
            assert vars(owner)[leaf] is not before[(target.module, target.attr)]
    for target in tracing.TARGETS:
        owner, leaf = tracing._resolve(target.module, target.attr)
        assert vars(owner)[leaf] is before[(target.module, target.attr)]
    assert pwlr._metric_counter is counter
