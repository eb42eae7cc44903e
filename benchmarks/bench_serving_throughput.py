"""Serving throughput: batched LinkingService vs the sequential pipeline.

Trains one small ED-GNN, then links the same request stream three ways:

* **sequential** — ``EDPipeline.disambiguate_snippet`` per mention (the
  pre-serving baseline);
* **batched** — ``LinkingService.link_batch`` with the result cache off,
  so the speedup isolates the micro-batch scheduler + embedding memo;
* **batched+cache** — a warm second pass over the same stream, showing
  the LRU result cache.

Also asserts batch-vs-sequential ranking equivalence on the stream, so a
serving regression fails the bench rather than silently skewing numbers.

Run:  PYTHONPATH=src python benchmarks/bench_serving_throughput.py
      [--smoke] [--variant graphsage] [--batch-size 32] [--requests 256]

``--smoke`` shrinks everything for CI and only asserts equivalence plus
a loose speedup floor.
"""

from __future__ import annotations

import argparse
import sys
import time

from _shared import serving_speedup_floor, update_bench_report
from repro.api import Linker, LinkerConfig
from repro.core import ModelConfig, TrainConfig
from repro.datasets import load_dataset


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
        f"{len(stream)} requests, variant={args.variant}, batch={args.batch_size}"
    )

    pipeline.ref_embeddings()  # warm the KB-embedding cache for both paths
    t0 = time.perf_counter()
    sequential = [pipeline.disambiguate_snippet(s, top_k=args.top_k) for s in stream]
    t_seq = time.perf_counter() - t0

    service = linker.serve(max_batch_size=args.batch_size, cache_size=0)
    t0 = time.perf_counter()
    batched = service.link_batch(stream, top_k=args.top_k)
    t_batch = time.perf_counter() - t0

    cached_service = linker.serve(max_batch_size=args.batch_size, cache_size=4096)
    cached_service.link_batch(stream, top_k=args.top_k)  # cold pass fills the LRU
    t0 = time.perf_counter()
    cached_service.link_batch(stream, top_k=args.top_k)
    t_cached = time.perf_counter() - t0

    mismatches = sum(
        a.ranked_entities != b.ranked_entities for a, b in zip(sequential, batched)
    )
    speedup = t_seq / t_batch if t_batch > 0 else float("inf")
    cached_speedup = t_seq / t_cached if t_cached > 0 else float("inf")

    print(f"sequential     {len(stream) / t_seq:8.0f} mentions/s  ({t_seq:.3f}s)")
    print(f"batched        {len(stream) / t_batch:8.0f} mentions/s  ({t_batch:.3f}s)  {speedup:.2f}x")
    print(f"batched+cache  {len(stream) / t_cached:8.0f} mentions/s  ({t_cached:.3f}s)  {cached_speedup:.2f}x")
    print(f"equivalence    {len(stream) - mismatches}/{len(stream)} rankings identical")
    print(cached_service.stats.format())

    floor = serving_speedup_floor(args.smoke)
    update_bench_report(
        args.report,
        "throughput",
        {
            "smoke": args.smoke,
            "variant": args.variant,
            "batch_size": args.batch_size,
            "requests": len(stream),
            "sequential_mentions_per_s": round(len(stream) / t_seq, 1),
            "batched_mentions_per_s": round(len(stream) / t_batch, 1),
            "cached_mentions_per_s": round(len(stream) / t_cached, 1),
            "speedup": round(speedup, 2),
            "cached_speedup": round(cached_speedup, 2),
            "speedup_floor": floor,
            "ranking_mismatches": mismatches,
        },
    )
    if mismatches:
        print(f"FAIL: {mismatches} batched rankings differ from sequential")
        return 1
    if speedup < floor:
        print(f"FAIL: batched speedup {speedup:.2f}x below the {floor}x floor")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny CI configuration")
    parser.add_argument("--variant", default="graphsage")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument(
        "--report", default=None, help="merge results into this JSON report file"
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
