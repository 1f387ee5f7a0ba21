"""Tests of the benchmark's pure helpers (no server, no timing)."""

import json
import math
from pathlib import Path

import pytest

import streams
from measure import (
    Span,
    Tracer,
    latency_percentile,
    nearest_rank,
    self_times,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# percentiles: failures count as misses
# --------------------------------------------------------------------------- #
def test_nearest_rank_picks_an_observed_sample():
    assert nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == 3.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert nearest_rank([7.0], 0.99) == 7.0


def test_failures_push_the_median_up():
    ok = [1.0] * 6
    assert latency_percentile(ok, 0, 0.5) == 1.0
    # 6 answered, 6 failed: the median lands on a miss
    assert math.isinf(latency_percentile(ok, 7, 0.5))


def test_tail_percentile_counts_failures_beyond_it():
    ok = [float(i) for i in range(1, 1001)]  # 1000 answered
    value, q = tail_percentile(ok, 0, 0.99)
    assert (value, q) == (990.0, 0.99)
    # 5 failures are slower than every answer: the p99 moves up by 5 ranks
    value, _ = tail_percentile(ok, 5, 0.99)
    assert value == 995.0
    # 15 failures put the p99 itself on a miss
    value, _ = tail_percentile(ok, 15, 0.99)
    assert math.isinf(value)


def test_tail_percentile_keeps_ten_samples_beyond():
    ok = [float(i) for i in range(1, 101)]  # 100 samples: p99 has 1 beyond
    value, q = tail_percentile(ok, 0, 0.99)
    assert value == 90.0 and q == pytest.approx(0.90)
    assert sum(1 for v in ok if v > value) == 10


# --------------------------------------------------------------------------- #
# spans: self time
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "root", 0.0, 10.0, None, None),
        Span(2, "child", 1.0, 4.0, 1, None),
        Span(3, "child", 3.0, 6.0, 1, None),  # overlaps the first child
        Span(4, "grandchild", 1.5, 2.0, 2, None),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_tracer_nests_spans_and_wraps_functions():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.wrap(Owner, "work", "inner") as patch:
            assert Owner.work(21) == 42
    assert Owner.work(1) == 2  # restored
    assert patch.results == [42]
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 1 and inner[0].parent == outer
    assert self_times(tracer.spans)[outer] <= tracer.spans[-1].duration


# --------------------------------------------------------------------------- #
# determinism per seed
# --------------------------------------------------------------------------- #
def test_zipf_stream_is_a_function_of_the_seed():
    a = streams.zipf_indices(32, 500, seed=11)
    assert a == streams.zipf_indices(32, 500, seed=11)
    assert a != streams.zipf_indices(32, 500, seed=12)
    # skewed: the hottest rank is drawn far more often than the coldest
    assert a.count(0) > 5 * max(1, a.count(31))


def test_cycle_and_edges_streams_are_functions_of_the_seed():
    cycle = streams.cycle_indices(128, 300, 5)
    assert cycle == streams.cycle_indices(128, 300, 5)
    assert cycle != streams.cycle_indices(128, 300, 6)
    assert sorted(cycle[:128]) == list(range(128))  # every entry once per pass
    flags = streams.edges_flags(2000, 0.1, 5)
    assert flags == streams.edges_flags(2000, 0.1, 5)
    assert 100 < sum(flags) < 300


def test_graph_and_pools_are_functions_of_the_seed():
    from repro.index.degeneracy_index import DegeneracyIndex

    first = streams.make_graph(800, seed=4)
    second = streams.make_graph(800, seed=4)
    assert sorted(first.edges()) == sorted(second.edges())
    index = DegeneracyIndex(first, backend="dict")
    deep = streams.deep_pool(index, 9, 16)
    assert deep == streams.deep_pool(DegeneracyIndex(second, backend="dict"), 9, 16)
    for query in deep + streams.sweep_pool(index, 9, 16):
        side = "UPPER" if query.side == "upper" else "LOWER"
        core = index.vertices_in_core(query.alpha, query.beta)
        assert any(v.side.name == side and v.label == query.label for v in core)


def test_op_stream_is_deterministic_and_valid():
    graph = streams.make_graph(600, seed=2)
    ops = streams.op_stream(graph, seed=3, count=300)
    assert ops == streams.op_stream(graph, seed=3, count=300)
    assert ops != streams.op_stream(graph, seed=4, count=300)
    kinds = {op[0] for op in ops}
    assert kinds == {"insert", "remove", "reweight"}
    assert any(str(op[1]).startswith("fresh") for op in ops if op[0] == "insert")
    # replaying on a copy never touches a missing edge nor isolates a vertex
    shadow = graph.copy()
    vertices = shadow.num_upper + shadow.num_lower
    for op in ops:
        if op[0] == "insert":
            assert not shadow.has_edge(op[1], op[2])
            shadow.add_edge(op[1], op[2], op[3])
        elif op[0] == "remove":
            assert shadow.has_edge(op[1], op[2])
            shadow.remove_edge(op[1], op[2])
        else:
            assert shadow.has_edge(op[1], op[2])
    shadow.discard_isolated()
    fresh = len({op[1] for op in ops if op[0] == "insert" and str(op[1]).startswith("fresh")})
    assert shadow.num_upper + shadow.num_lower == vertices + fresh


# --------------------------------------------------------------------------- #
# the printed metric sets are exactly BENCHMARK.json's
# --------------------------------------------------------------------------- #
def test_metric_lists_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # churn-serve runs from the same command but is not gated (perfbench/README.md)
    gated = [w["name"] for w in spec["workloads"]]
    assert gated == [name for name in __import__("workloads").SPECS if name != "churn-serve"]


def test_window_stats_keep_ten_samples_beyond_each_tail():
    from measure import MISS, quiet_quartile, window_stats

    steady = [1.0] * 1100
    spiky = [1.0] * 1000 + [50.0] * 100  # one window with a long stall
    p50s, tails, q = window_stats(steady + steady + spiky + steady, q=0.99)
    assert p50s == [1.0] * 4 and tails == [1.0, 1.0, 50.0, 1.0] and q == 0.99
    assert quiet_quartile(tails) == 1.0
    # failures count as misses inside every window they fall in
    p50s, tails, _ = window_stats([MISS] * 600 + [1.0] * 500 + [1.0] * 1088 + [MISS] * 12, q=0.99)
    assert p50s == [MISS, 1.0] and tails == [MISS, MISS]
    p50s, tails, _ = window_stats([MISS] * 4400)
    assert quiet_quartile(p50s) == MISS and quiet_quartile(tails) == MISS
    # fewer samples than a window: one window, tail keeps ten beyond it
    _, tails, q = window_stats([float(i) for i in range(100)], q=0.99)
    assert tails == [89.0] and q == pytest.approx(0.90)


def test_quiet_quartile_takes_the_better_side():
    from measure import quiet_quartile

    rates = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    assert quiet_quartile(rates, higher_is_better=True) == 60.0
    assert quiet_quartile(rates) == 20.0


def test_closed_loop_rates_follow_littles_law():
    from measure import closed_loop_rates

    # 16 in flight, 2 ms each: 8000 replies/s in every window
    steady = [(0.002, True)] * 1200
    assert closed_loop_rates(steady, 16, 400) == pytest.approx([8000.0] * 3)
    # a slow spell doubles one window's latency; failures do not count
    mixed = [(0.002, True)] * 400 + [(0.004, True)] * 400 + [(0.002, i % 4 != 0) for i in range(400)]
    assert closed_loop_rates(mixed, 16, 400) == pytest.approx([8000.0, 4000.0, 6000.0])
    # a short remainder joins the last window
    assert closed_loop_rates(steady[:500], 16, 400) == pytest.approx([8000.0])


def test_per_query_quiet_takes_each_querys_lower_quartile():
    from measure import MISS, per_query_quiet

    tries = [[5.0, 1.0, 9.0, 2.0, 7.0], [3.0], [MISS, MISS, 4.0, MISS, MISS], [MISS] * 3]
    # nearest rank: the 2nd of 5 tries, the only try, and a miss once more
    # than three quarters of the tries failed
    assert per_query_quiet(tries) == [2.0, 3.0, MISS, MISS]
    assert per_query_quiet([[MISS, 6.0, MISS, 4.0]]) == [4.0]
