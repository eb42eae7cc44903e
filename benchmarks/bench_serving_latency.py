"""Serving latency under the deadline scheduler: p50/p95 vs the sync service.

Trains one small ED-GNN, measures the synchronous batched service's
capacity on a request stream, then replays the same stream through
:class:`repro.serving.AsyncLinkingService` with arrivals paced at ~half
the measured capacity — so the deadline policy, not queueing overload,
dominates what the scheduler does.  Reports:

* p50/p95 end-to-end latency (submit -> result) and p95 queue wait
  (submit -> micro-batch formed) of the async path;
* async vs sync throughput on the same stream;
* an over-the-wire leg: the same stream through the HTTP front door
  (:class:`repro.serving.LinkingHTTPServer` on an ephemeral port,
  sequential ``LinkerClient.link`` per request plus one batched POST),
  reporting wire p50/p95 and both throughputs;
* ranking equivalence against the sequential
  ``EDPipeline.disambiguate_snippet`` — the serving layer's contract,
  for the in-process *and* the HTTP path.

Fails when any ranking differs, or when the p95 queue wait blows the
configured ``--deadline-ms`` budget (plus the shared CI jitter slack):
the scheduler promises a partial batch is flushed once the oldest
request's budget is up, so a fixed-size stall shows up here immediately.

Run:  PYTHONPATH=src python benchmarks/bench_serving_latency.py
      [--smoke] [--batch-size 32] [--deadline-ms 250] [--requests 192]
      [--report BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _shared import SERVING_DEADLINE_JITTER_MS, update_bench_report
from repro.api import Linker, LinkerConfig
from repro.core import ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import AsyncLinkingService, LinkerClient


def run(args: argparse.Namespace) -> int:
    scale = 0.2 if args.smoke else 0.3
    epochs = 2 if args.smoke else 10
    requests = 64 if args.smoke else args.requests

    dataset = load_dataset("NCBI", scale=scale)
    linker = Linker.from_config(
        LinkerConfig(
            model=ModelConfig(variant=args.variant, num_layers=2, seed=0),
            train=TrainConfig(epochs=epochs, patience=max(5, epochs // 2), seed=0),
        ),
        dataset.kb,
    )
    linker.fit(dataset.train, dataset.val, dataset.test)
    pipeline = linker.pipeline  # the sequential baseline drives the raw engine
    stream = (dataset.test * ((requests // len(dataset.test)) + 1))[:requests]
    print(
        f"KB {dataset.kb.num_nodes} nodes / {dataset.kb.num_edges} edges, "
        f"{len(stream)} requests, batch={args.batch_size}, "
        f"deadline={args.deadline_ms:.0f}ms"
    )

    pipeline.ref_embeddings()  # warm the KB-embedding cache for all paths
    sequential = [pipeline.disambiguate_snippet(s, top_k=args.top_k) for s in stream]

    # Sync capacity: one big batched call (result cache off so both paths
    # pay the same compute).
    sync_service = linker.serve(max_batch_size=args.batch_size, cache_size=0)
    t0 = time.perf_counter()
    sync_service.link_batch(stream, top_k=args.top_k)
    t_sync = time.perf_counter() - t0
    capacity = len(stream) / t_sync if t_sync > 0 else float("inf")

    # Async replay, arrivals paced at ~half capacity.
    inter_arrival = 2.0 / capacity if capacity > 0 else 0.0
    service = linker.serve(
        max_batch_size=args.batch_size, cache_size=0, top_k=args.top_k
    )
    with AsyncLinkingService(service, deadline_ms=args.deadline_ms) as async_service:
        t0 = time.perf_counter()
        futures = []
        for snippet in stream:
            futures.append(async_service.submit(snippet))
            time.sleep(inter_arrival)
        asynchronous = [f.result(timeout=60.0) for f in futures]
        t_async = time.perf_counter() - t0
        stats = async_service.stats

    p50 = stats.latency_percentile(50)
    p95 = stats.latency_percentile(95)
    wait_p95 = stats.queue_wait_percentile(95)
    mismatches = sum(
        a.ranked_entities != b.ranked_entities for a, b in zip(sequential, asynchronous)
    )
    budget_ms = args.deadline_ms + SERVING_DEADLINE_JITTER_MS

    # Over-the-wire leg: the same stream through the HTTP front door.
    # Sequential single-item POSTs measure per-request wire latency
    # (HTTP framing + JSON + scheduler); one batched POST measures wire
    # throughput.  Rankings must match the sequential baseline.
    http_requests = min(len(stream), 32) if args.smoke else len(stream)
    server = linker.serve(
        http_port=0, deadline_ms=args.deadline_ms,
        max_batch_size=args.batch_size, cache_size=0, top_k=args.top_k,
    )
    http_latencies = []
    try:
        with LinkerClient(port=server.port) as client:
            for snippet in stream[:http_requests]:
                t0 = time.perf_counter()
                client.link(snippet=snippet, top_k=args.top_k)
                http_latencies.append((time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            wire_batch = []
            for i in range(0, len(stream), 256):  # HttpConfig.max_batch
                wire_batch.extend(client.link_batch(stream[i:i + 256], top_k=args.top_k))
            t_http_batch = time.perf_counter() - t0
    finally:
        server.close()
    http_p50 = float(np.percentile(http_latencies, 50))
    http_p95 = float(np.percentile(http_latencies, 95))
    http_throughput = len(stream) / t_http_batch if t_http_batch > 0 else float("inf")
    http_mismatches = sum(
        a.ranked_entities != list(b.entity_ids)
        for a, b in zip(sequential, wire_batch)
    )

    print(f"sync batched   {len(stream) / t_sync:8.0f} mentions/s  ({t_sync:.3f}s)")
    print(f"async paced    {len(stream) / t_async:8.0f} mentions/s  ({t_async:.3f}s)")
    print(f"http batched   {http_throughput:8.0f} mentions/s  ({t_http_batch:.3f}s)")
    print(f"latency        p50 {p50:7.1f} ms   p95 {p95:7.1f} ms")
    print(f"http latency   p50 {http_p50:7.1f} ms   p95 {http_p95:7.1f} ms  "
          f"({http_requests} sequential POSTs)")
    print(f"queue wait     p95 {wait_p95:7.1f} ms  (deadline {args.deadline_ms:.0f}ms)")
    print(f"batch sizes    mean {stats.mean_batch_size:.1f}  max {stats.max_batch_size}")
    print(f"equivalence    {len(stream) - mismatches}/{len(stream)} rankings identical")
    print(f"http equiv     {len(stream) - http_mismatches}/{len(stream)} rankings identical")

    update_bench_report(
        args.report,
        "latency",
        {
            "smoke": args.smoke,
            "variant": args.variant,
            "batch_size": args.batch_size,
            "deadline_ms": args.deadline_ms,
            "requests": len(stream),
            "sync_mentions_per_s": round(len(stream) / t_sync, 1),
            "async_mentions_per_s": round(len(stream) / t_async, 1),
            "latency_p50_ms": round(p50, 2),
            "latency_p95_ms": round(p95, 2),
            "queue_wait_p95_ms": round(wait_p95, 2),
            "queue_wait_budget_ms": budget_ms,
            "mean_batch_size": round(stats.mean_batch_size, 2),
            "ranking_mismatches": mismatches,
            "http_requests": http_requests,
            "http_latency_p50_ms": round(http_p50, 2),
            "http_latency_p95_ms": round(http_p95, 2),
            "http_mentions_per_s": round(http_throughput, 1),
            "http_ranking_mismatches": http_mismatches,
        },
    )
    if mismatches:
        print(f"FAIL: {mismatches} async rankings differ from sequential")
        return 1
    if http_mismatches:
        print(f"FAIL: {http_mismatches} over-the-wire rankings differ from sequential")
        return 1
    if wait_p95 > budget_ms:
        print(
            f"FAIL: p95 queue wait {wait_p95:.1f}ms blows the {args.deadline_ms:.0f}ms "
            f"deadline (+{SERVING_DEADLINE_JITTER_MS:.0f}ms jitter slack)"
        )
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny CI configuration")
    parser.add_argument("--variant", default="graphsage")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--deadline-ms", type=float, default=250.0)
    parser.add_argument("--requests", type=int, default=192)
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument(
        "--report", default=None, help="merge results into this JSON report file"
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
