"""Service-side telemetry for the batched linking service.

``ServiceStats`` is a plain counter object the :class:`LinkingService`
updates on every request: mentions served, micro-batches executed and
their sizes, result-cache hits/misses, reference-embedding refreshes,
and wall time spent in batched forwards.  The deadline scheduler
(:mod:`repro.serving.scheduler`) additionally records per-request
latency (submit -> result) and queue wait (submit -> batch formed), from
which p50/p95 percentiles are served.  It renders to a dict (for the
CLI's ``--json``) or a small aligned table (for humans).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque, Dict, List

import numpy as np

#: Sliding-window size for latency percentiles: a long-lived async
#: service must not grow per-request state without bound, and recent
#: requests are what an operator watching p95 cares about.
LATENCY_WINDOW = 8192


@dataclass
class ServiceStats:
    """Throughput / cache counters of one :class:`LinkingService`."""

    requests: int = 0  # link_batch / link_texts calls
    mentions: int = 0  # mentions linked (cached + computed)
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0  # micro-batch forward passes
    # Running sum and maximum of micro-batch sizes: a long-lived server
    # must not keep one entry per batch.
    batched_mentions: int = 0
    largest_batch: int = 0
    ref_refreshes: int = 0  # reference-embedding cache rebuilds
    compute_seconds: float = 0.0  # wall time inside batched forwards
    # Where the KB matrices are served from: "memory" (the pipeline's
    # live arrays) or "mmap" (a repro.storage bundle's read-only maps).
    storage_backend: str = "memory"
    # Candidate-generation telemetry (repro.retrieval): which generator
    # serves candidates, wall time in the candidate stage, and how often
    # the inverted index answered outright vs the fallback retrieval ran
    # (gauges snapshotted from the generator's own counters).
    candidate_generator: str = "exact"
    candidate_lookups: int = 0  # candidate_ids calls timed
    candidate_seconds: float = 0.0  # wall time in the candidate stage
    candidate_index_hits: int = 0
    candidate_fallbacks: int = 0
    # Admission / overload telemetry (repro.serving.admission): admitted
    # and shed requests per priority class.
    admitted: Dict[str, int] = field(default_factory=dict)
    shed: Dict[str, int] = field(default_factory=dict)
    # submit -> result / submit -> batch formed, most recent LATENCY_WINDOW
    latencies_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    queue_waits_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))
    # per-lookup candidate-stage latency, most recent LATENCY_WINDOW
    candidate_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, num_mentions: int) -> None:
        self.requests += 1
        self.mentions += num_mentions

    def record_batch(self, size: int, seconds: float) -> None:
        self.batches += 1
        self.batched_mentions += size
        self.largest_batch = max(self.largest_batch, size)
        self.compute_seconds += seconds

    def record_cache(self, hits: int, misses: int) -> None:
        self.cache_hits += hits
        self.cache_misses += misses

    def record_ref_refresh(self) -> None:
        self.ref_refreshes += 1

    def record_storage(self, backend: str) -> None:
        """Where the KB matrices are served from (a gauge)."""
        self.storage_backend = backend

    def record_latency(self, total_seconds: float, queue_wait_seconds: float = 0.0) -> None:
        """One async request's end-to-end latency and its queue wait."""
        self.latencies_ms.append(total_seconds * 1000.0)
        self.queue_waits_ms.append(queue_wait_seconds * 1000.0)

    def record_candidates(self, seconds: float) -> None:
        """One candidate-generation lookup and its wall time."""
        self.candidate_lookups += 1
        self.candidate_seconds += seconds
        self.candidate_ms.append(seconds * 1000.0)

    def record_candidate_sources(
        self, generator: str, index_hits: int, fallbacks: int
    ) -> None:
        """Snapshot of the generator's lifetime hit/fallback counters."""
        self.candidate_generator = generator
        self.candidate_index_hits = index_hits
        self.candidate_fallbacks = fallbacks

    def record_admission(self, priority: str) -> None:
        """One request admitted past the gate under ``priority``."""
        self.admitted[priority] = self.admitted.get(priority, 0) + 1

    def record_shed(self, priority: str) -> None:
        """One request shed at the gate under ``priority``."""
        self.shed[priority] = self.shed.get(priority, 0) + 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_admitted(self) -> int:
        return sum(self.admitted.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        """Fraction of gate arrivals shed (0.0 before any arrival)."""
        total = self.total_admitted + self.total_shed
        return self.total_shed / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_mentions / self.batches if self.batches else 0.0

    @property
    def max_batch_size(self) -> int:
        return self.largest_batch

    @property
    def mentions_per_second(self) -> float:
        """Throughput of the compute path (cached hits cost ~nothing)."""
        return self.batched_mentions / self.compute_seconds if self.compute_seconds > 0 else 0.0

    def latency_percentile(self, p: float) -> float:
        """p-th percentile of request latency in ms over the most recent
        ``LATENCY_WINDOW`` requests (0.0 before any async request
        completes)."""
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), p))

    def queue_wait_percentile(self, p: float) -> float:
        """p-th percentile of time spent queued before a batch formed."""
        if not self.queue_waits_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.queue_waits_ms), p))

    def candidate_percentile(self, p: float) -> float:
        """p-th percentile of candidate-stage latency in ms (sliding window)."""
        if not self.candidate_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.candidate_ms), p))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, float]:
        payload = {
            "requests": self.requests,
            "mentions": self.mentions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch_size": self.max_batch_size,
            "ref_refreshes": self.ref_refreshes,
            "compute_seconds": round(self.compute_seconds, 4),
            "mentions_per_second": round(self.mentions_per_second, 2),
            "storage_backend": self.storage_backend,
            "candidate_generator": self.candidate_generator,
            "candidate_lookups": self.candidate_lookups,
            "candidate_index_hits": self.candidate_index_hits,
            "candidate_fallbacks": self.candidate_fallbacks,
            "candidate_seconds": round(self.candidate_seconds, 4),
            "admitted": dict(self.admitted),
            "shed": dict(self.shed),
            "shed_rate": round(self.shed_rate, 4),
        }
        if self.candidate_ms:
            payload.update(
                candidate_p50_ms=round(self.candidate_percentile(50), 3),
                candidate_p95_ms=round(self.candidate_percentile(95), 3),
            )
        if self.latencies_ms:
            # Only async serving records latencies; the sync service's
            # payload keeps its original shape.
            payload.update(
                latency_p50_ms=round(self.latency_percentile(50), 2),
                latency_p95_ms=round(self.latency_percentile(95), 2),
                queue_wait_p50_ms=round(self.queue_wait_percentile(50), 2),
                queue_wait_p95_ms=round(self.queue_wait_percentile(95), 2),
            )
        return payload

    def format(self) -> str:
        rows = self.to_dict()
        width = max(len(k) for k in rows)
        lines = ["serving stats:"]
        for key, value in rows.items():
            lines.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(lines)

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition of the counters, served by the HTTP
        front door's ``GET /stats`` under ``Accept: text/plain``."""
        counters = [
            ("requests_total", self.requests, "link_batch / link_texts calls"),
            ("mentions_total", self.mentions, "mentions linked (cached + computed)"),
            ("cache_hits_total", self.cache_hits, "result cache hits"),
            ("cache_misses_total", self.cache_misses, "result cache misses"),
            ("batches_total", self.batches, "micro-batch forward passes"),
            ("ref_refreshes_total", self.ref_refreshes, "reference-embedding rebuilds"),
            ("compute_seconds_total", self.compute_seconds, "wall time in batched forwards"),
            ("candidates_lookups_total", self.candidate_lookups, "candidate-generation lookups"),
            ("candidates_seconds_total", self.candidate_seconds, "wall time in candidate generation"),
            ("candidates_index_hits_total", self.candidate_index_hits, "inverted-index candidate hits"),
            ("candidates_fallbacks_total", self.candidate_fallbacks, "fallback retrieval invocations"),
        ]
        gauges = [
            ("cache_hit_rate", self.cache_hit_rate, "result cache hit rate"),
            ("admission_shed_rate", self.shed_rate, "fraction of gate arrivals shed"),
            ("mean_batch_size", self.mean_batch_size, "mean micro-batch size"),
            ("mentions_per_second", self.mentions_per_second, "compute-path throughput"),
        ]
        lines: List[str] = []
        for name, value, help_text in counters:
            lines += [
                f"# HELP {prefix}_{name} {help_text}",
                f"# TYPE {prefix}_{name} counter",
                f"{prefix}_{name} {value}",
            ]
        # Admission gate: per-priority admitted/shed counters (always
        # exported, so dashboards see explicit zeros before any shed).
        for name, values, help_text in (
            ("admission_admitted_total", self.admitted, "requests admitted past the gate"),
            ("admission_shed_total", self.shed, "requests shed at the gate"),
        ):
            lines += [
                f"# HELP {prefix}_{name} {help_text}",
                f"# TYPE {prefix}_{name} counter",
            ]
            for priority in ("high", "normal", "low"):
                lines.append(
                    f'{prefix}_{name}{{priority="{priority}"}} '
                    f"{values.get(priority, 0)}"
                )
        for name, value, help_text in gauges:
            lines += [
                f"# HELP {prefix}_{name} {help_text}",
                f"# TYPE {prefix}_{name} gauge",
                f"{prefix}_{name} {value}",
            ]
        for name, percentile_of in (
            ("request_latency_ms", self.latency_percentile),
            ("queue_wait_ms", self.queue_wait_percentile),
        ):
            lines += [
                f"# HELP {prefix}_{name} async request timing (sliding window)",
                f"# TYPE {prefix}_{name} summary",
            ]
            if self.latencies_ms:
                for quantile in (0.5, 0.95):
                    lines.append(
                        f'{prefix}_{name}{{quantile="{quantile}"}} '
                        f"{percentile_of(quantile * 100)}"
                    )
            lines.append(f"{prefix}_{name}_count {len(self.latencies_ms)}")
        lines += [
            f"# HELP {prefix}_candidates_stage_ms candidate-stage latency (sliding window)",
            f"# TYPE {prefix}_candidates_stage_ms summary",
        ]
        if self.candidate_ms:
            for quantile in (0.5, 0.95):
                lines.append(
                    f'{prefix}_candidates_stage_ms{{quantile="{quantile}"}} '
                    f"{self.candidate_percentile(quantile * 100)}"
                )
        lines.append(f"{prefix}_candidates_stage_ms_count {len(self.candidate_ms)}")
        lines += [
            # Info-style metrics carrying backend/generator names as labels.
            f"# HELP {prefix}_storage_info KB/embedding storage backend",
            f"# TYPE {prefix}_storage_info gauge",
            f'{prefix}_storage_info{{backend="{self.storage_backend}"}} 1',
            f"# HELP {prefix}_candidates_info candidate generator in service",
            f"# TYPE {prefix}_candidates_info gauge",
            f'{prefix}_candidates_info{{generator="{self.candidate_generator}"}} 1',
        ]
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Every field back to its declared default."""
        fresh = ServiceStats()
        for f in fields(self):
            setattr(self, f.name, getattr(fresh, f.name))
