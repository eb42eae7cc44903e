"""Metric names, units and directions, and the per-layer derivation.

``BENCHMARK.json`` lists the same names; ``tests/`` checks that the two
agree and that every name follows the naming rule.
"""

from __future__ import annotations

from typing import Dict, List

import common

#: (name, unit, better, bound).  Every workload reports every one.
END_TO_END = [
    ("throughput_mps", "mentions/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("rss_mb", "MiB", "lower", 0.15),
    ("quality", "ratio", "higher", 0.15),
]

#: (name, unit, better).  Reported by the traced run; a layer a workload
#: does not exercise reads 0.
PER_LAYER = [
    ("query_graph.calls", "count", "lower"),
    ("query_graph.busy_s", "s", "lower"),
    ("query_graph.nodes", "count", "lower"),
    ("candidates.calls", "count", "lower"),
    ("candidates.busy_s", "s", "lower"),
    ("candidates.mean_size", "count", "lower"),
    ("candidates.index_hit_ratio", "ratio", "higher"),
    ("retrieval.calls", "count", "lower"),
    ("retrieval.busy_s", "s", "lower"),
    ("retrieval.mean_shortlist", "count", "lower"),
    ("batch.calls", "count", "lower"),
    ("batch.busy_s", "s", "lower"),
    ("gnn.calls", "count", "lower"),
    ("gnn.busy_s", "s", "lower"),
    ("gnn.compile_s", "s", "lower"),
    ("matching.calls", "count", "lower"),
    ("matching.busy_s", "s", "lower"),
    ("matching.pairs", "count", "lower"),
    ("service.calls", "count", "lower"),
    ("service.busy_s", "s", "lower"),
    ("service.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("scheduler.batches", "count", "lower"),
    ("scheduler.batch_size_mean", "count", "higher"),
    ("scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("scheduler.queue_wait_p95_ms", "ms", "lower"),
    ("admission.admitted", "count", "higher"),
    ("admission.shed", "count", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("http.requests", "count", "higher"),
    ("http.errors", "count", "lower"),
    ("http.residual_p50_ms", "ms", "lower"),
    ("storage.refresh_s", "s", "lower"),
    ("storage.ref_embed_s", "s", "lower"),
    ("pipeline.init_s", "s", "lower"),
    ("trainer.epoch_s", "s", "lower"),
    ("trainer.eval_s", "s", "lower"),
    ("negative_sampling.calls", "count", "lower"),
    ("negative_sampling.busy_s", "s", "lower"),
    ("autograd.backward_s", "s", "lower"),
    ("autograd.step_s", "s", "lower"),
    ("loadgen.lag_p95_ms", "ms", "lower"),
    ("loadgen.low_lag_p95_ms", "ms", "lower"),
    ("loadgen.high_lag_p95_ms", "ms", "lower"),
    ("loadgen.high_p50_ms", "ms", "lower"),
    ("loadgen.high_p95_ms", "ms", "lower"),
    ("reference.sequential_mps", "mentions/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.root_coverage", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def render(values: Dict[str, float], names: List[str]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``."""
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": float(values[n]), "unit": UNITS[n]} for n in names}


def per_layer(raw: dict, extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics from a :meth:`Tracer.summary` (``raw``)
    and the figures measured outside the spans (``extra``)."""
    f = raw["figures"]
    samples = raw["samples"]

    def get(key: str) -> float:
        return float(f.get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def pct(key: str, q: float) -> float:
        values = samples.get(key, [])
        try:
            return common.tail_percentile(values, q)
        except ValueError:
            return 0.0

    out = {
        "query_graph.calls": get("calls.query_graph:build"),
        "query_graph.busy_s": get("busy.query_graph"),
        "query_graph.nodes": get("query_graph.nodes"),
        "candidates.calls": get("calls.candidates:candidate_ids"),
        "candidates.busy_s": get("busy.candidates"),
        "candidates.mean_size": ratio(get("candidates.size"), get("calls.candidates:candidate_ids")),
        "retrieval.calls": get("calls.retrieval:query"),
        "retrieval.busy_s": get("busy.retrieval"),
        "retrieval.mean_shortlist": ratio(get("retrieval.shortlist"), get("calls.retrieval:query")),
        "batch.calls": get("calls.batch:batch_graphs"),
        "batch.busy_s": get("busy.batch"),
        "gnn.calls": get("calls.gnn:embed"),
        "gnn.busy_s": get("busy.gnn"),
        "gnn.compile_s": get("dur.gnn:compile"),
        "matching.calls": get("calls.matching:score_pairs"),
        "matching.busy_s": get("busy.matching"),
        "matching.pairs": get("matching.pairs"),
        "service.calls": get("calls.service:link_batch"),
        "service.busy_s": get("busy.service"),
        "service.self_s": get("self.service:link_batch"),
        "scheduler.batches": get("scheduler.batches"),
        "scheduler.batch_size_mean": ratio(get("scheduler.batched"), get("scheduler.batches")),
        "scheduler.queue_wait_p50_ms": pct("scheduler.queue_wait_ms", 50),
        "scheduler.queue_wait_p95_ms": pct("scheduler.queue_wait_ms", 95),
        "wire.decode_s": get("dur.wire:decode"),
        "wire.encode_s": get("dur.wire:encode"),
        "storage.refresh_s": get("dur.storage:refresh"),
        "storage.ref_embed_s": get("dur.storage:ref_embeddings"),
        "pipeline.init_s": get("dur.pipeline:init"),
        "trainer.epoch_s": get("dur.trainer:epoch"),
        "trainer.eval_s": get("dur.trainer:evaluate"),
        "negative_sampling.calls": get("calls.negative_sampling:sample"),
        "negative_sampling.busy_s": get("busy.negative_sampling"),
        "autograd.backward_s": get("dur.autograd:backward"),
        "autograd.step_s": get("dur.autograd:step"),
        "trace.root_coverage": ratio(get("trace.root_s"), get("trace.wall_s")),
        "trace.spans": get("trace.spans"),
    }
    for name, *_ in PER_LAYER:
        out.setdefault(name, 0.0)
    out.update(extra)
    return out
