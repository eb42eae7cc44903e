"""Overload protection: load shedding holds the latency contract at 2x capacity.

Trains one small ED-GNN, measures the synchronous batched service's
capacity, then drives the deadline scheduler at ~2x that capacity —
arrivals faster than the service can drain, the regime where an
unbounded queue turns every request into a timeout.  Two legs:

* **unprotected** (``shed_policy="none"``): the queue grows without
  bound and the p95 queue wait blows through the deadline budget — the
  bench *requires* the violation (otherwise it never reached overload
  and the protected leg proves nothing);
* **protected** (``shed_policy="wait"``): the admission gate sheds the
  overflow (structured :class:`AdmissionError`, per-priority headroom:
  ``low`` first) and the bench guards that the *admitted* requests' p95
  queue wait stays inside ``deadline_ms`` plus the shared CI jitter
  slack, and that every admitted ranking is identical to the sequential
  ``EDPipeline.disambiguate_snippet`` baseline.

Run:  PYTHONPATH=src python benchmarks/bench_serving_overload.py
      [--smoke] [--batch-size 32] [--deadline-ms 50] [--max-queue 64]
      [--report BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import sys
import time

from _shared import SERVING_DEADLINE_JITTER_MS, update_bench_report
from repro.api import Linker, LinkerConfig
from repro.core import ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import AdmissionConfig, AdmissionError, AsyncLinkingService


def priority_for(index: int) -> str:
    """A deterministic traffic mix: ~10% high, ~10% low, rest normal."""
    if index % 10 == 0:
        return "high"
    if index % 10 == 9:
        return "low"
    return "normal"


def drive(service, stream, inter_arrival, priorities=None):
    """Submit the stream at a fixed arrival rate; returns
    ``(admitted: [(index, prediction)], shed: [index])``."""
    futures = []
    shed = []
    start = time.perf_counter()
    for i, snippet in enumerate(stream):
        # Absolute-schedule pacing: sleep overshoot on one arrival does
        # not slow the whole stream below the intended drive rate.
        delay = start + i * inter_arrival - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        priority = priorities[i] if priorities is not None else "normal"
        try:
            futures.append((i, service.submit(snippet, priority=priority)))
        except AdmissionError:
            shed.append(i)
    admitted = [(i, f.result(timeout=120.0)) for i, f in futures]
    return admitted, shed


def run(args: argparse.Namespace) -> int:
    scale = 0.2 if args.smoke else 0.3
    epochs = 2 if args.smoke else 10

    dataset = load_dataset("NCBI", scale=scale)
    linker = Linker.from_config(
        LinkerConfig(
            model=ModelConfig(variant=args.variant, num_layers=2, seed=0),
            train=TrainConfig(epochs=epochs, patience=max(5, epochs // 2), seed=0),
        ),
        dataset.kb,
    )
    linker.fit(dataset.train, dataset.val, dataset.test)
    pipeline = linker.pipeline
    pipeline.ref_embeddings()  # warm the KB-embedding cache for all paths

    # Sync capacity on a calibration stream (result cache off so every
    # path pays the same compute).
    calibration = (dataset.test * ((128 // len(dataset.test)) + 1))[:128]
    sync_service = linker.serve(max_batch_size=args.batch_size, cache_size=0)
    t0 = time.perf_counter()
    sync_service.link_batch(calibration, top_k=args.top_k)
    t_sync = time.perf_counter() - t0
    sync_service.close()
    capacity = len(calibration) / t_sync if t_sync > 0 else float("inf")

    # Arrivals at ~2x capacity.  The stream is long enough that the
    # unprotected queue's tail wait reaches several times the budget:
    # at 2x capacity the backlog grows one request per admitted one, so
    # tail wait ~ N / (2 * capacity).
    budget_ms = args.deadline_ms + SERVING_DEADLINE_JITTER_MS
    overload_factor = 2.0
    inter_arrival = 1.0 / (overload_factor * capacity) if capacity > 0 else 0.0
    requests = int(2.0 * overload_factor * capacity * (4.0 * budget_ms / 1000.0))
    requests = max(64, min(requests, 256 if args.smoke else 4096))
    stream = (dataset.test * ((requests // len(dataset.test)) + 1))[:requests]
    priorities = [priority_for(i) for i in range(len(stream))]
    sequential = [pipeline.disambiguate_snippet(s, top_k=args.top_k) for s in stream]
    print(
        f"KB {dataset.kb.num_nodes} nodes, capacity {capacity:.0f} mentions/s, "
        f"{len(stream)} requests at {overload_factor:.0f}x capacity, "
        f"deadline={args.deadline_ms:.0f}ms (budget {budget_ms:.0f}ms)"
    )

    def make_service(admission):
        service = linker.serve(
            max_batch_size=args.batch_size, cache_size=0, top_k=args.top_k
        )
        return AsyncLinkingService(
            service, deadline_ms=args.deadline_ms, admission=admission
        )

    # Leg 1: unprotected — the violation the gate exists to prevent.
    with make_service(AdmissionConfig(shed_policy="none")) as service:
        drive(service, stream, inter_arrival)
        unprotected_p95 = service.stats.queue_wait_percentile(95)
    overloaded = unprotected_p95 > budget_ms
    print(f"unprotected    queue wait p95 {unprotected_p95:8.1f} ms  "
          f"({'violates' if overloaded else 'within'} budget)")

    # Leg 2: protected — shed the overflow, hold the contract.
    admission = AdmissionConfig(
        shed_policy="wait", max_queue=args.max_queue, max_wait_ms=args.deadline_ms
    )
    with make_service(admission) as service:
        admitted, shed = drive(service, stream, inter_arrival, priorities)
        protected_p95 = service.stats.queue_wait_percentile(95)
        stats = service.stats
        shed_by_priority = dict(stats.shed)
    mismatches = sum(
        sequential[i].ranked_entities != prediction.ranked_entities
        for i, prediction in admitted
    )
    print(f"protected      queue wait p95 {protected_p95:8.1f} ms  "
          f"admitted {len(admitted)}/{len(stream)}  shed {len(shed)} "
          f"{shed_by_priority}")
    print(f"equivalence    {len(admitted) - mismatches}/{len(admitted)} "
          f"admitted rankings identical to sequential")

    update_bench_report(
        args.report,
        "overload",
        {
            "smoke": args.smoke,
            "variant": args.variant,
            "batch_size": args.batch_size,
            "deadline_ms": args.deadline_ms,
            "queue_wait_budget_ms": budget_ms,
            "max_queue": args.max_queue,
            "capacity_mentions_per_s": round(capacity, 1),
            "overload_factor": overload_factor,
            "requests": len(stream),
            "unprotected_queue_wait_p95_ms": round(unprotected_p95, 2),
            "unprotected_violates_budget": overloaded,
            "protected_queue_wait_p95_ms": round(protected_p95, 2),
            "admitted": len(admitted),
            "shed": len(shed),
            "shed_by_priority": shed_by_priority,
            "ranking_mismatches": mismatches,
        },
    )

    if mismatches:
        print(f"FAIL: {mismatches} admitted rankings differ from sequential")
        return 1
    if protected_p95 > budget_ms:
        print(
            f"FAIL: protected p95 queue wait {protected_p95:.1f}ms blows the "
            f"{args.deadline_ms:.0f}ms deadline "
            f"(+{SERVING_DEADLINE_JITTER_MS:.0f}ms jitter slack)"
        )
        return 1
    if not args.smoke and not overloaded:
        print(
            "FAIL: the unprotected run never violated the budget — the drive "
            "did not reach overload, so the protected guard is vacuous"
        )
        return 1
    if not args.smoke and not shed:
        print("FAIL: the protected run shed nothing at 2x capacity")
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny CI configuration")
    parser.add_argument("--variant", default="graphsage")
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--deadline-ms", type=float, default=50.0)
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--top-k", type=int, default=5)
    parser.add_argument(
        "--report", default=None, help="merge results into this JSON report file"
    )
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
