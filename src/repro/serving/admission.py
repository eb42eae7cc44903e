"""Admission control for the serving stack.

Production entity-linking traffic is bursty: when arrivals exceed the
service's compute capacity, an unbounded queue turns every request into
a timeout.  The classic remedy is to *shed early*: bound the queue,
reject the overflow with a structured 429 that carries a
``Retry-After`` hint, and keep the admitted requests inside their
latency contract.

Two pieces, both policy-only (no threads, no wall clock — callers pass
``now`` exactly like :class:`~repro.serving.scheduler.DeadlineBatcher`,
so every decision is unit-testable with a fake clock):

* :class:`AdmissionConfig` — the declarative policy object.  A strict
  frozen section of :class:`~repro.serving.service.ServiceConfig`, so a
  :class:`~repro.api.LinkerConfig` JSON declares overload behaviour the
  same way it declares storage; the default policy sheds nothing.
* :class:`AdmissionController` — the gate in front of the batcher queue.
  Sheds by queue depth and, under ``shed_policy="wait"``, by estimated
  queue wait (depth x an EWMA of observed per-request drain cost).
  Priority classes (``high`` / ``normal`` / ``low``) see scaled budgets:
  low-priority traffic is shed first, and ``normal`` leaves headroom so
  ``high`` still admits at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "SHED_POLICIES",
    "PRIORITY_HEADROOM",
    "AdmissionConfig",
    "AdmissionError",
    "AdmissionController",
]

#: priority classes in flush order (highest first); also the wire values
#: accepted on :class:`~repro.serving.wire.LinkItem.priority`
PRIORITIES = ("high", "normal", "low")
DEFAULT_PRIORITY = "normal"

#: shedding policies: "none" keeps today's unbounded queue, "depth"
#: bounds queue depth at ``max_queue``, "wait" additionally sheds when
#: the estimated queue wait exceeds the budget
SHED_POLICIES = ("none", "depth", "wait")

#: fraction of the depth/wait budget each priority class may consume —
#: low is shed first, and normal leaves headroom so high still admits
#: when the queue is nearly full
PRIORITY_HEADROOM = {"high": 1.0, "normal": 0.8, "low": 0.5}

#: EWMA smoothing for the observed per-request drain cost
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class AdmissionConfig:
    """Overload policy of the async serving stack.

    Lives inside :class:`~repro.serving.service.ServiceConfig` as the
    ``admission`` section; the round trip through
    :class:`~repro.api.LinkerConfig` JSON is strict and exact like every
    other config section (unknown keys and values are rejected).
    """

    shed_policy: str = "none"  # see SHED_POLICIES
    max_queue: int = 256  # queued-request bound for the depth check
    # Estimated-wait budget for shed_policy="wait"; 0 inherits the
    # scheduler's deadline_ms (the latency contract already in force).
    max_wait_ms: float = 0.0

    def __post_init__(self):
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {self.shed_policy!r}; "
                f"options: {SHED_POLICIES}"
            )
        if self.max_queue < 1:
            raise ValueError("admission max_queue must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("admission max_wait_ms must be >= 0")


class AdmissionError(RuntimeError):
    """A request shed by admission control.

    Maps to HTTP 429 with a ``Retry-After`` header; ``retry_after_ms``
    is the controller's estimate of when the queue will have drained
    back under budget.
    """

    def __init__(
        self, message: str, *, reason: str, priority: str, retry_after_ms: float
    ):
        super().__init__(message)
        self.reason = reason  # "queue_depth" | "estimated_wait"
        self.priority = priority
        self.retry_after_ms = retry_after_ms


class AdmissionController:
    """Pure shed-or-admit policy over the batcher's queue depth.

    Holds no lock and reads no clock; the scheduler calls :meth:`check`
    under its own condition variable and feeds
    :meth:`observe_batch` from completed batches so the estimated-wait
    model tracks the service's real drain rate.
    """

    def __init__(self, config: AdmissionConfig, deadline_ms: float):
        self.config = config
        self.wait_budget_ms = (
            config.max_wait_ms if config.max_wait_ms > 0 else deadline_ms
        )
        self._per_item_ms: Optional[float] = None  # EWMA drain cost / request

    @property
    def enabled(self) -> bool:
        return self.config.shed_policy != "none"

    def observe_batch(self, size: int, seconds: float) -> None:
        """Fold one completed batch into the drain-cost EWMA."""
        if size <= 0:
            return
        per_item = seconds * 1000.0 / size
        if self._per_item_ms is None:
            self._per_item_ms = per_item
        else:
            self._per_item_ms += EWMA_ALPHA * (per_item - self._per_item_ms)

    def estimated_wait_ms(self, depth: int) -> float:
        """Expected queue wait at ``depth`` (0.0 before any batch ran)."""
        if self._per_item_ms is None:
            return 0.0
        return depth * self._per_item_ms

    def retry_after_ms(self, depth: int) -> float:
        """Retry hint for a shed request: the estimated drain time of the
        current queue, floored at the wait budget."""
        return max(self.estimated_wait_ms(max(depth, 1)), self.wait_budget_ms)

    def depth_budget(self, priority: str) -> int:
        return max(1, int(self.config.max_queue * PRIORITY_HEADROOM[priority]))

    def check(self, priority: str, depth: int) -> Optional[AdmissionError]:
        """The shed decision for one arriving request, or None to admit."""
        if not self.enabled:
            return None
        budget = self.depth_budget(priority)
        if depth >= budget:
            return AdmissionError(
                f"queue depth {depth} is at the {priority!r}-priority "
                f"bound of {budget} (max_queue={self.config.max_queue})",
                reason="queue_depth",
                priority=priority,
                retry_after_ms=self.retry_after_ms(depth),
            )
        if self.config.shed_policy == "wait":
            wait = self.estimated_wait_ms(depth + 1)
            wait_budget = self.wait_budget_ms * PRIORITY_HEADROOM[priority]
            if wait > wait_budget:
                return AdmissionError(
                    f"estimated queue wait {wait:.1f}ms exceeds the "
                    f"{priority!r}-priority budget of {wait_budget:.1f}ms",
                    reason="estimated_wait",
                    priority=priority,
                    retry_after_ms=self.retry_after_ms(depth),
                )
        return None
