"""Tests of the benchmark's own statistics and tracer.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

import kernel
import stats
from layers import per_layer_metrics
from spans import Target, Tracer


def span(name, start, end, parent=-1, tag=None):
    return [name, tag, start, end, parent]


def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles(values)[1] == stats.median(values)


def test_median_of_even_count_interpolates():
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5


def test_mean_of_medians_weighs_every_key_alike():
    # key "a" has three values, "b" one: a plain median would ignore "b"
    pairs = [("a", 1.0), ("b", 9.0), ("a", 2.0), ("a", 30.0)]
    assert stats.mean_of_medians(pairs) == pytest.approx((2.0 + 9.0) / 2)
    assert stats.mean_of_medians([(0, 4.0), (0, 1.0)]) == 2.5


def test_empty_inputs_are_rejected():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([1.0])
    with pytest.raises(ValueError):
        stats.percentile_rank(0, 50)
    with pytest.raises(ValueError):
        stats.mean_of_medians([])


def test_percentile_is_a_measured_value_with_counted_tail():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 99) == 990
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.percentile(values, 50) == 500
    assert stats.percentile(values, 100) == 1000
    assert stats.samples_beyond(1000, 100) == 0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(1, 10001))[::2] == (99.9, 10)
    assert stats.tail_percentile(range(1, 1001))[::2] == (99.0, 10)
    assert stats.tail_percentile(range(1, 1000))[::2] == (90.0, 99)
    assert stats.tail_percentile(range(1, 101))[::2] == (90.0, 10)
    assert stats.tail_percentile(range(1, 100))[::2] == (50.0, 49)
    assert stats.tail_percentile(range(1, 20))[::2] == (None, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("outer", 0.0, 10.0),
        span("mid", 1.0, 6.0, parent=0),
        span("leaf", 2.0, 3.0, parent=1),
        span("leaf", 3.5, 4.0, parent=1),
        span("mid", 7.0, 9.0, parent=0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == pytest.approx([3.0, 3.5, 1.0, 0.5, 2.0])
    assert sum(selfs) == pytest.approx(10.0)  # self times partition the root


def test_aggregate_counts_tags_under_both_keys():
    spans = [
        span("f", 0.0, 2.0, tag="lora"),
        span("f", 2.0, 5.0, tag="talklora"),
        span("g", 5.0, 6.0),
    ]
    agg = stats.aggregate(spans)
    assert agg["f"] == [2, pytest.approx(5.0)]
    assert agg["f.lora"] == [1, pytest.approx(2.0)]
    assert agg["f.talklora"] == [1, pytest.approx(3.0)]
    assert agg["g"] == [1, pytest.approx(1.0)]


def test_step_intervals_run_from_call_to_call_and_end_with_the_loop():
    spans = [
        span("loop", 0.0, 10.0),
        span("step", 1.0, 2.0, parent=0),
        span("inner", 1.5, 1.8, parent=1),
        span("other", 2.5, 3.0, parent=0),
        span("step", 4.0, 5.0, parent=0),
        span("step", 6.0, 7.0),  # not called from the loop: not a step
    ]
    assert stats.step_intervals(spans, "loop", "step") == [(1, 1.0, 4.0), (4, 4.0, 10.0)]


def test_attributed_seconds_counts_spans_wholly_inside_each_step():
    spans = [
        span("loop", 0.0, 10.0),
        span("step", 1.0, 2.0, parent=0),
        span("inner", 1.5, 1.8, parent=1),
        span("other", 2.5, 3.0, parent=0),
        span("step", 4.0, 5.0, parent=0),
    ]
    selfs = stats.self_times(spans)
    steps = stats.step_intervals(spans, "loop", "step")
    # step 1 holds step+inner (1.0 s) and other (0.5 s); step 2 holds 1.0 s
    assert stats.attributed_seconds(spans, selfs, steps) == pytest.approx(2.5)


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package where ``helper`` is imported into ``user``."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def helper(x):
        return x + 1

    class Box:
        def get(self):
            return 7

    core.helper, core.Box = helper, Box
    user.helper = helper
    user.call = lambda x: user.helper(x) * 2
    pkg.core, pkg.user = core, user
    for name, module in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return core, user


def test_tracer_wraps_every_binding_and_restores_them(fake_package):
    core, user = fake_package
    original = core.helper
    tracer = Tracer(package="fakepkg")
    with tracer.installed([Target("core.helper", tag=lambda a, k: "t"),
                           Target("core.Box.get"), Target("core.gone")]):
        assert user.call(1) == 4
        assert core.helper(1) == 2
        assert core.Box().get() == 7
    assert core.helper is original and user.helper is original
    assert [s[0] for s in tracer.spans] == ["core.helper", "core.helper", "core.Box.get"]
    assert tracer.spans[0][1] == "t"
    assert tracer.missing == ["core.gone"]


def test_tracer_records_parents_and_ends_spans_on_exceptions(fake_package):
    core, _ = fake_package

    def outer(x):
        return core.helper(x)

    def failing(x):
        raise RuntimeError("boom")

    core.outer, core.failing = outer, failing
    tracer = Tracer(package="fakepkg")
    with tracer.installed([Target("core.outer"), Target("core.helper"),
                           Target("core.failing")]):
        core.outer(1)
        with pytest.raises(RuntimeError):
            core.failing(1)
    names = [(s[0], s[4]) for s in tracer.spans]
    assert names == [("core.outer", -1), ("core.helper", 0), ("core.failing", -1)]
    assert all(s[3] >= s[2] for s in tracer.spans)


def test_kernel_counts_lora_by_hand():
    flops, nbytes = kernel.step_counts("lora", batch=2, dims=[(4, 3)], r=1, n=1)
    # frozen x@w0.T and gx@w0: 2*(2*2*4*3); adapter: 6 products of 2*2*1*{4 or 3}
    assert flops == 2 * (2 * 2 * 4 * 3) + 2 * 2 * 1 * (4 + 3 + 3 + 3 + 4 + 4)


def test_benchmark_json_lists_the_per_layer_metrics_in_order():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == per_layer_metrics()
    assert len(listed) <= 128
