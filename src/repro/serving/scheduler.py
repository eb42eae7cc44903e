"""Deadline-aware asynchronous serving.

``AsyncLinkingService`` fronts the batched :class:`LinkingService` with a
request queue and a background worker that forms micro-batches under a
deadline policy:

* a batch is flushed the moment ``max_batch_size`` requests are waiting
  (high traffic gets full batches with no added latency), OR
* when the *oldest* queued request's ``deadline_ms`` budget would be
  blown by waiting longer (low traffic never stalls behind a fixed batch
  size).

The policy itself lives in :class:`DeadlineBatcher`, which holds no
threads and never reads the wall clock — the caller passes ``now`` — so
it is unit-testable with a fake clock.  The worker thread wraps it with a
condition variable whose wait timeout is the oldest pending deadline.

Results are the same ``Prediction`` objects the sequential
``EDPipeline.disambiguate_snippet`` produces (the equivalence contract of
the serving layer): compute is delegated to a ``LinkingService``.
``close()`` joins the batch worker before closing the service, so its
storage is only released once every queued request has been served.  A
request that makes its micro-batch fail fails alone: the worker re-runs
each half of a failed batch until the failing requests are isolated.

Request latency (submit -> result) and queue wait (submit -> batch
formed) are recorded into :class:`~repro.serving.stats.ServiceStats`,
which serves p50/p95 percentiles for the CLI and the latency bench.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.pipeline import EDPipeline, Prediction
from ..text.corpus import Snippet
from .admission import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
)
from .service import LinkingService, ServiceConfig
from .stats import ServiceStats


@dataclass
class QueuedRequest:
    """One request waiting for a micro-batch slot."""

    snippet: Snippet
    enqueued_at: float
    deadline_at: float
    future: Future = field(default_factory=Future)
    priority: str = DEFAULT_PRIORITY


class DeadlineBatcher:
    """Pure deadline-policy micro-batch former (no threads, no clock).

    One FIFO queue of :class:`QueuedRequest` per priority class;
    :meth:`poll` decides — given the caller's ``now`` — whether a batch
    is due: immediately when a full ``max_batch_size`` is waiting, else
    once the *oldest* queued request's deadline (across all classes)
    would be blown by waiting longer.  A popped batch is filled in
    priority order (``high`` before ``normal`` before ``low``, FIFO
    within a class), so under backlog high-priority requests always ride
    the next flush.
    """

    def __init__(self, max_batch_size: int, deadline_s: float):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")
        self.max_batch_size = max_batch_size
        self.deadline_s = deadline_s
        self._queues: Dict[str, Deque[QueuedRequest]] = {
            priority: deque() for priority in PRIORITIES
        }

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def add(self, request: QueuedRequest) -> None:
        self._queues[request.priority].append(request)

    def next_deadline(self) -> Optional[float]:
        """Absolute deadline of the oldest queued request (None if idle).

        Deadlines are assigned FIFO per class, so the oldest deadline is
        the minimum over the class heads — low-priority requests may be
        popped last, but their deadline still drives flush timing, so no
        class can be starved of flushes indefinitely.
        """
        heads = [q[0].deadline_at for q in self._queues.values() if q]
        return min(heads) if heads else None

    def seconds_until_flush(self, now: float) -> Optional[float]:
        """Longest the worker may sleep before a flush can become due.

        ``None`` when the queue is idle (sleep until a request arrives),
        ``0`` when a batch is already due.
        """
        next_deadline = self.next_deadline()
        if next_deadline is None:
            return None
        if len(self) >= self.max_batch_size:
            return 0.0
        return max(0.0, next_deadline - now)

    def poll(self, now: float) -> List[QueuedRequest]:
        """The next micro-batch to run, or ``[]`` if none is due yet."""
        if len(self) >= self.max_batch_size:
            return self._pop(self.max_batch_size)
        next_deadline = self.next_deadline()
        if next_deadline is not None and now >= next_deadline:
            return self._pop(self.max_batch_size)
        return []

    def drain(self) -> List[QueuedRequest]:
        """Pop up to one batch regardless of deadlines (shutdown path)."""
        return self._pop(self.max_batch_size)

    def _pop(self, limit: int) -> List[QueuedRequest]:
        batch: List[QueuedRequest] = []
        for priority in PRIORITIES:
            queue = self._queues[priority]
            while queue and len(batch) < limit:
                batch.append(queue.popleft())
        return batch


class AsyncLinkingService:
    """Queue-fronted linking with deadline-bounded micro-batching.

    ``submit`` enqueues one snippet and returns a
    ``concurrent.futures.Future`` resolving to the ``Prediction`` of
    ``LinkingService.link_batch`` on its micro-batch: the sequential
    pipeline's ranking, with scores equal up to float32 rounding of the
    batched forward; ``link_batch`` and
    ``link_stream`` are order-preserving conveniences on top.  Accepts a
    fitted :class:`EDPipeline` (a ``LinkingService`` is built from
    ``config``) or an existing ``LinkingService`` (e.g. one serving from
    an mmap bundle).
    """

    def __init__(
        self,
        pipeline_or_service: Union[EDPipeline, LinkingService],
        config: Optional[ServiceConfig] = None,
        *,
        deadline_ms: float = 25.0,
        max_batch_size: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        admission: Optional[AdmissionConfig] = None,
    ):
        if isinstance(pipeline_or_service, LinkingService):
            if config is not None:
                raise ValueError("pass config to the LinkingService, not here")
            self.service = pipeline_or_service
        else:
            self.service = LinkingService(pipeline_or_service, config)
        # The worker's Condition.wait timeout elapses in real time, so the
        # service clock must be the monotonic wall clock; fake-clock tests
        # target DeadlineBatcher / AdmissionController, which take `now`
        # from their callers.
        self.clock = time.monotonic
        self.deadline_s = deadline_ms / 1000.0
        batch = max_batch_size or self.service.config.max_batch_size
        self.batcher = DeadlineBatcher(batch, self.deadline_s)
        self.max_in_flight = max_in_flight or max(64, 4 * batch)
        self.admission_config = admission or self.service.config.admission
        self.admission = AdmissionController(self.admission_config, deadline_ms)
        self._cond = threading.Condition()
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="async-linking-worker", daemon=True
        )
        self._worker.start()

    @property
    def stats(self) -> ServiceStats:
        return self.service.stats

    @property
    def pipeline(self) -> EDPipeline:
        return self.service.pipeline

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def submit(
        self, snippet: Snippet, priority: str = DEFAULT_PRIORITY
    ) -> "Future[Prediction]":
        """Enqueue one snippet; the future resolves to its Prediction.

        The admission gate runs here, in front of the queue: an
        over-budget arrival raises
        :class:`~repro.serving.admission.AdmissionError` (HTTP maps it
        to 429 + ``Retry-After``) instead of enqueueing.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; options: {PRIORITIES}"
            )
        now = self.clock()
        request = QueuedRequest(
            snippet, now, now + self.deadline_s, priority=priority
        )
        with self._cond:
            if self._closed:
                raise RuntimeError("AsyncLinkingService is closed")
            shed = self.admission.check(priority, len(self.batcher))
            if shed is not None:
                self.stats.record_shed(priority)
                raise shed
            self.stats.record_admission(priority)
            self.batcher.add(request)
            self._cond.notify()
        return request.future

    def link_batch(
        self,
        snippets: Sequence[Snippet],
        timeout: Optional[float] = None,
        priority: str = DEFAULT_PRIORITY,
    ) -> List[Prediction]:
        """Submit every snippet and gather results in input order.

        All-or-nothing under admission control: when a submit mid-batch
        is shed, the already-queued futures are cancelled and the
        :class:`AdmissionError` propagates.
        """
        futures = []
        try:
            for snippet in snippets:
                futures.append(self.submit(snippet, priority))
        except AdmissionError:
            for future in futures:
                future.cancel()
            raise
        return [future.result(timeout) for future in futures]

    def link_stream(
        self, snippets: Iterable[Snippet], priority: str = DEFAULT_PRIORITY
    ) -> Iterator[Prediction]:
        """Order-preserving incremental results over a (lazy) stream.

        Yields each prediction as soon as it — and everything before it —
        is done, keeping at most ``max_in_flight`` requests outstanding
        so an unbounded stdin stream cannot grow the queue without limit.
        """
        window: Deque[Future] = deque()
        for snippet in snippets:
            window.append(self.submit(snippet, priority))
            if len(window) >= self.max_in_flight:
                yield window.popleft().result()
            while window and window[0].done():
                yield window.popleft().result()
        while window:
            yield window.popleft().result()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    batch = self.batcher.poll(self.clock())
                    if not batch and self._closed:
                        batch = self.batcher.drain()
                        if not batch:
                            return
                    if batch:
                        break
                    self._cond.wait(self.batcher.seconds_until_flush(self.clock()))
            self._run_batch(batch)

    def _run_batch(self, batch: List[QueuedRequest]) -> None:
        formed_at = self.clock()
        # A caller may have cancelled its future while the request sat in
        # the queue; transition the rest to RUNNING so set_result below is
        # always legal and the worker thread can never be killed by an
        # InvalidStateError.
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        outcomes = self._link_isolating_failures(live)
        done_at = self.clock()
        for request, outcome in zip(live, outcomes):
            if isinstance(outcome, Exception):
                request.future.set_exception(outcome)
                continue
            self.stats.record_latency(
                done_at - request.enqueued_at, formed_at - request.enqueued_at
            )
            request.future.set_result(outcome)
        # The controller's estimated-wait model tracks the real drain rate.
        self.admission.observe_batch(len(live), done_at - formed_at)

    def _link_isolating_failures(
        self, requests: List[QueuedRequest]
    ) -> List[Union[Prediction, Exception]]:
        """One outcome per request: its prediction, or the exception that
        linking it raised.

        When a batch raises, each half is re-run on its own, recursively,
        so the other requests of the micro-batch still get their
        predictions: one bad request costs about ``2 * log2(n)`` extra
        ``link_batch`` calls instead of failing every waiter.
        """
        try:
            return list(self.service.link_batch([r.snippet for r in requests]))
        except Exception as exc:
            if len(requests) == 1:
                return [exc]
            middle = len(requests) // 2
            return self._link_isolating_failures(
                requests[:middle]
            ) + self._link_isolating_failures(requests[middle:])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue, stop the worker, close the service."""
        with self._cond:
            if self._closed and not self._worker.is_alive():
                return
            self._closed = True
            self._cond.notify_all()
        self._worker.join()
        self.service.close()

    def __enter__(self) -> "AsyncLinkingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
