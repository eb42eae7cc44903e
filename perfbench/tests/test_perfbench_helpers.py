"""Tests of the benchmark's own helpers (no program run needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402
import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- percentiles under the sample-count rule ------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 201))  # 200 samples: 10 lie beyond p95
    assert common.tail_percentile(values, 95) == 190
    assert common.tail_percentile(values, 50) == 100
    with pytest.raises(ValueError):
        common.tail_percentile(values[:199], 95)  # only 9 beyond
    with pytest.raises(ValueError):
        common.tail_percentile(list(range(19)), 50)
    assert common.tail_percentile(list(range(20)), 50) == 9


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 50) == 3.0
    assert common.percentile(values, 100) == 5.0
    assert common.percentile(values, 1) == 1.0
    assert common.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert common.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# -- self time for nested spans ---------------------------------------------
def test_self_time_subtracts_covered_child_intervals():
    spans = [
        tracer.Span(0, "service:link_batch", 0.0, 10.0, -1),
        tracer.Span(1, "query_graph:build", 1.0, 3.0, 0),
        tracer.Span(2, "gnn:embed", 4.0, 8.0, 0),
        tracer.Span(3, "gnn:compile", 5.0, 6.0, 2),
        tracer.Span(4, "query_graph:build", 9.0, 9.5, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 4.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    # Self times partition the root span.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_busy_time_counts_nested_spans_of_one_layer_once():
    spans = [
        tracer.Span(0, "query_graph:build_many", 0.0, 4.0, -1),
        tracer.Span(1, "query_graph:build", 0.5, 1.5, 0),
        tracer.Span(2, "query_graph:build", 2.0, 3.0, 0),
        tracer.Span(3, "gnn:embed", 5.0, 6.0, -1),
    ]
    busy = tracer.busy_times(spans)
    assert busy == {"query_graph": pytest.approx(4.0), "gnn": pytest.approx(1.0)}


def test_wrapped_calls_nest_and_uninstall_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = tracer.Tracer()
    t.patch_attr(Layer, "outer", "a:outer")
    t.patch_attr(Layer, "inner", "b:inner")
    assert Layer().outer() == 2
    t.uninstall()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    outer, inner = sorted(t.spans, key=lambda s: s.start)
    assert inner.parent == outer.id and outer.parent == -1
    summary = t.summary(wall_s=outer.end - outer.start)["figures"]
    assert summary["calls.a:outer"] == 1 and summary["trace.spans"] == 2


# -- determinism of the Zipf document generator -----------------------------
def test_zipf_documents_are_deterministic_per_seed():
    phases = {"high": (50, 4), "sat": (20, 4)}
    a = common.zipf_documents(7, 600, workloads.HTTP_ZIPF, phases, warm=64)
    b = common.zipf_documents(7, 600, workloads.HTTP_ZIPF, phases, warm=64)
    c = common.zipf_documents(8, 600, workloads.HTTP_ZIPF, phases, warm=64)
    assert a == b
    assert a != c
    assert [len(d) for d in a["high"]] == [4] * 50
    assert len(a["warm"]) == 2 and all(len(d) == 32 for d in a["warm"])
    assert len({i for d in a["warm"] for i in d}) == 64
    assert all(0 <= i < 600 for docs in a.values() for d in docs for i in d)


def test_zipf_documents_favour_the_warmed_head():
    docs = common.zipf_documents(3, 1000, workloads.HTTP_ZIPF, {"high": (2000, 4)}, warm=128)
    head = {i for d in docs["warm"] for i in d}
    draws = [i for d in docs["high"] for i in d]
    share = sum(i in head for i in draws) / len(draws)
    assert share > 0.4  # 12.8% of the items draw well over 40% of the traffic


# -- metric names ----------------------------------------------------------
def test_metric_names_follow_the_naming_rule():
    names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in metrics.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_per_layer_fills_every_name():
    raw = {"figures": {}, "samples": {}}
    values = metrics.per_layer(raw, {"reference.sequential_mps": 12.5})
    assert set(values) == {n for n, *_ in metrics.PER_LAYER}
    assert values["reference.sequential_mps"] == 12.5


# -- the ranking comparison --------------------------------------------------
def test_same_ranking_allows_float32_rounding_and_ties_only():
    ref_ids, ref_scores = [3, 1, 2], [0.9, 0.5, 0.5]
    assert common.same_ranking([3, 1, 2], [0.9, 0.5000001, 0.5], ref_ids, ref_scores)
    assert common.same_ranking([3, 2, 1], [0.9, 0.5, 0.5], ref_ids, ref_scores)  # tie swap
    assert not common.same_ranking([1, 3, 2], [0.9, 0.5, 0.5], ref_ids, ref_scores)
    assert not common.same_ranking([3, 1, 2], [0.9, 0.6, 0.5], ref_ids, ref_scores)
    assert not common.same_ranking([3, 3, 2], [0.9, 0.5, 0.5], ref_ids, ref_scores)
    assert not common.same_ranking([3, 1], [0.9, 0.5], ref_ids, ref_scores)


def test_same_ranking_checks_the_entity_at_an_untied_cut():
    ref_ids, ref_scores = [3, 1, 2], [0.9, 0.5, 0.4]
    # Rank 3 is untied below the cut: a wrong entity with the right score fails.
    assert not common.same_ranking([3, 1, 7], [0.9, 0.5, 0.4], ref_ids, ref_scores, 0.1)
    assert not common.same_ranking([3, 1, 7], [0.9, 0.5, 0.4], ref_ids, ref_scores, None)
    # A single candidate's id is checked too.
    assert not common.same_ranking([4], [0.7], [3], [0.7], None)
    assert common.same_ranking([3], [0.7], [3], [0.7], None)


def test_same_ranking_lets_top_k_pick_among_ties_across_the_cut():
    ref_ids, ref_scores = [3, 1, 2], [0.9, 0.4, 0.4]
    # The reference's next score ties with rank 2 and 3: entity 7 tied too.
    assert common.same_ranking([3, 7, 1], [0.9, 0.4, 0.4], ref_ids, ref_scores, 0.4)
    assert common.same_ranking([3, 2, 1], [0.9, 0.4, 0.4], ref_ids, ref_scores, 0.4)
    # Without a tie across the cut the last run must hold the same entities.
    assert not common.same_ranking([3, 7, 1], [0.9, 0.4, 0.4], ref_ids, ref_scores, 0.3)
    # Earlier runs never change members, cut tie or not.
    assert not common.same_ranking([7, 1, 2], [0.9, 0.4, 0.4], ref_ids, ref_scores, 0.4)
