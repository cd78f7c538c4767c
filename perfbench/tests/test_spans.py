"""Self-time arithmetic of the span recorder."""

import itertools
import types

import pytest

from perfbench.spans import SpanRecorder, layer_totals, top_level_s


def ticking_clock(step: float = 1.0):
    """A clock that advances ``step`` on every read."""
    counter = itertools.count()
    return lambda: next(counter) * step


def totals(recorder: SpanRecorder) -> dict:
    return layer_totals(recorder.names, recorder.name_of, recorder.parent,
                        recorder.start, recorder.end)


def test_nested_spans_subtract_their_children():
    # outer [0, 9] holds inner [1, 4] and inner [5, 8].
    totals_ = layer_totals(
        names=["outer", "inner"], name_of=[0, 1, 1], parent=[-1, 0, 0],
        start=[0.0, 1.0, 5.0], end=[9.0, 4.0, 8.0])
    assert totals_["outer"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert totals_["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}


def test_only_direct_children_are_subtracted():
    # a [0, 10] > b [1, 9] > c [2, 5]: c is inside b, not a direct child of a.
    totals_ = layer_totals(
        names=["a", "b", "c"], name_of=[0, 1, 2], parent=[-1, 0, 1],
        start=[0.0, 1.0, 2.0], end=[10.0, 9.0, 5.0])
    assert totals_["a"]["self_s"] == 2.0
    assert totals_["b"]["self_s"] == 5.0
    assert totals_["c"]["self_s"] == 3.0


def test_same_name_recursion_counts_once_and_keeps_self_time():
    # A subclass override calling into its base: x [0, 10] > x [2, 7],
    # with y [3, 4] under the inner x.
    totals_ = layer_totals(
        names=["x", "y"], name_of=[0, 0, 1], parent=[-1, 0, 1],
        start=[0.0, 2.0, 3.0], end=[10.0, 7.0, 4.0])
    assert totals_["x"]["calls"] == 1
    assert totals_["x"]["total_s"] == 10.0
    assert totals_["x"]["self_s"] == pytest.approx(9.0)  # 10 minus y's 1
    assert totals_["y"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_recorder_wraps_subclass_calling_base():
    class Base:
        def sell(self):
            return "sold"

    class Sub(Base):
        def sell(self):
            return super().sell()

    recorder = SpanRecorder(clock=ticking_clock())
    targets = [(Base, "sell", "exchange.sell_now"),
               (Sub, "sell", "exchange.sell_now")]
    with recorder.installed(targets):
        assert Sub().sell() == "sold"
        assert Base().sell() == "sold"
    # Sub.sell [0, 3] > Base.sell [1, 2]; then Base.sell [4, 5].
    assert recorder.parent == [-1, 0, -1]
    assert totals(recorder)["exchange.sell_now"] == {
        "calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_installed_restores_originals_even_on_error():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    recorder = SpanRecorder(clock=ticking_clock())
    with pytest.raises(RuntimeError):
        with recorder.installed([(module, "f", "f")]):
            assert module.f is not original
            raise RuntimeError
    assert module.f is original


def test_span_closes_when_the_wrapped_call_raises():
    def boom():
        raise ValueError

    recorder = SpanRecorder(clock=ticking_clock())
    with pytest.raises(ValueError):
        recorder.wrap(boom, "boom")()
    assert recorder.end == [1.0]
    assert recorder.wrap(lambda: 2, "after")() == 2
    assert recorder.parent[-1] == -1  # the failed span was popped


def test_top_level_time_counts_roots_after_a_start():
    parent = [-1, 0, -1, -1]
    start = [0.0, 1.0, 5.0, 8.0]
    end = [4.0, 2.0, 7.0, 9.0]
    assert top_level_s(parent, start, end, since=5.0) == 3.0
