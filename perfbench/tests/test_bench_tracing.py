import pytest

from tracing import Tracer, layer_stats


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 5.0, 6.5, 0],
        ["a", 7.0, 9.0, 0],
    ]
    stats = layer_stats(spans)
    assert stats["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(3.5)}
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(5.0)
    assert stats["a"]["self_s"] == pytest.approx(4.0)  # 3 - 1 and 2 - 0
    assert stats["b"] == {"calls": 2, "total_s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}


def test_self_time_counts_overlapping_children_once():
    # children that overlap or stick out of the parent cover only their union
    spans = [["p", 0.0, 4.0, None], ["c", -1.0, 2.0, 0], ["c", 1.0, 3.0, 0]]
    assert layer_stats(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_parents():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(tracer.open("inner"))
    tracer.close(outer)
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    stats = layer_stats(tracer.spans)
    assert stats["inner"]["calls"] == 2
    assert 0 <= stats["outer"]["self_s"] <= stats["outer"]["total_s"]


def test_wrapped_function_is_timed_and_measured():
    tracer = Tracer()

    def integrate_full(sys, initial, T, dt=None):
        return T

    class System:
        J = 8

    traced = tracer.wrap("verify.integrate_full", integrate_full)
    assert traced(System(), None, 2.5, dt=0.0125) == 2.5
    assert traced(System(), None, 1.0) == 1.0
    assert [s[0] for s in tracer.spans] == ["verify.integrate_full"] * 2
    assert tracer.counts["verify.integrate_full.steps"] == 200 + 80
