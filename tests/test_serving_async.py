"""Tests for deadline-aware async serving.

The deadline scheduler's policy (:class:`DeadlineBatcher`) is exercised
with a fake clock — no wall-clock sleeps live in this module.  The async
service's end-to-end contract (sequential == async predictions on a
seeded dataset) runs against a tiny trained pipeline.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import (
    AsyncLinkingService,
    DeadlineBatcher,
    LinkingService,
    QueuedRequest,
    ServiceConfig,
)

SCALE = 0.2
DEADLINE_S = 0.05


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("NCBI", scale=SCALE)


@pytest.fixture(scope="module")
def pipeline(dataset):
    pipe = EDPipeline(
        dataset.kb,
        model_config=ModelConfig(variant="graphsage", num_layers=2, seed=0),
        train_config=TrainConfig(epochs=2, patience=5, seed=0),
    )
    pipe.fit(dataset.train, dataset.val, dataset.test)
    return pipe


@pytest.fixture(scope="module")
def sequential(pipeline, dataset):
    return [pipeline.disambiguate_snippet(s) for s in dataset.test]


def request_at(now: float, payload=None) -> QueuedRequest:
    return QueuedRequest(payload, enqueued_at=now, deadline_at=now + DEADLINE_S)


def assert_predictions_match(expected, actual, atol=1e-4):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert a.mention == b.mention
        assert a.ranked_entities == b.ranked_entities
        assert np.allclose(a.scores, b.scores, atol=atol)


class TestDeadlineBatcher:
    """Fake-clock unit tests of the flush policy (no threads, no sleeps)."""

    def test_validates_config(self):
        with pytest.raises(ValueError):
            DeadlineBatcher(0, 1.0)
        with pytest.raises(ValueError):
            DeadlineBatcher(4, -1.0)

    def test_idle_queue_never_flushes(self):
        batcher = DeadlineBatcher(4, DEADLINE_S)
        assert batcher.poll(now=1e9) == []
        assert batcher.seconds_until_flush(now=1e9) is None
        assert batcher.next_deadline() is None

    def test_full_batch_flushes_immediately(self):
        batcher = DeadlineBatcher(4, DEADLINE_S)
        for i in range(4):
            batcher.add(request_at(0.0, payload=i))
        assert batcher.seconds_until_flush(now=0.0) == 0.0
        batch = batcher.poll(now=0.0)  # no deadline has passed
        assert [r.snippet for r in batch] == [0, 1, 2, 3]
        assert len(batcher) == 0

    def test_partial_batch_waits_for_deadline(self):
        batcher = DeadlineBatcher(4, DEADLINE_S)
        batcher.add(request_at(0.0, payload="a"))
        batcher.add(request_at(0.01, payload="b"))
        assert batcher.poll(now=0.02) == []  # oldest budget not blown yet
        assert batcher.seconds_until_flush(now=0.02) == pytest.approx(0.03)
        batch = batcher.poll(now=DEADLINE_S)  # oldest deadline reached
        assert [r.snippet for r in batch] == ["a", "b"]

    def test_oldest_request_drives_the_deadline(self):
        batcher = DeadlineBatcher(4, DEADLINE_S)
        batcher.add(request_at(0.0))
        batcher.add(request_at(1.0))
        assert batcher.next_deadline() == pytest.approx(DEADLINE_S)
        # Flushing at the oldest deadline takes the young request along.
        assert len(batcher.poll(now=DEADLINE_S)) == 2

    def test_deadline_flush_caps_at_max_batch_size(self):
        batcher = DeadlineBatcher(2, DEADLINE_S)
        for i in range(5):
            batcher.add(request_at(0.0, payload=i))
        first = batcher.poll(now=DEADLINE_S)
        assert [r.snippet for r in first] == [0, 1]  # FIFO, capped
        assert len(batcher) == 3

    def test_no_fixed_size_stall_at_low_traffic(self):
        # One lonely request must still be served once its budget is up —
        # the scheduler never waits for a full batch.
        batcher = DeadlineBatcher(32, DEADLINE_S)
        batcher.add(request_at(0.0, payload="lonely"))
        assert batcher.poll(now=0.049) == []
        assert [r.snippet for r in batcher.poll(now=0.051)] == ["lonely"]

    def test_drain_ignores_deadlines(self):
        batcher = DeadlineBatcher(4, DEADLINE_S)
        batcher.add(request_at(0.0))
        assert len(batcher.drain()) == 1
        assert batcher.drain() == []


class TestAsyncLinkingService:
    def test_link_batch_matches_sequential(self, pipeline, dataset, sequential):
        with AsyncLinkingService(
            pipeline,
            ServiceConfig(max_batch_size=8, cache_size=0),
            deadline_ms=20.0,
        ) as service:
            assert_predictions_match(sequential, service.link_batch(dataset.test))

    def test_submit_returns_future(self, pipeline, dataset):
        with AsyncLinkingService(pipeline, deadline_ms=10.0) as service:
            future = service.submit(dataset.test[0])
            assert isinstance(future, Future)
            prediction = future.result(timeout=30.0)
            expected = pipeline.disambiguate_snippet(dataset.test[0])
            assert prediction.ranked_entities == expected.ranked_entities

    def test_latency_stats_recorded(self, pipeline, dataset):
        with AsyncLinkingService(pipeline, deadline_ms=10.0) as service:
            service.link_batch(dataset.test[:5])
            stats = service.stats
            assert len(stats.latencies_ms) == 5
            assert len(stats.queue_waits_ms) == 5
            assert stats.latency_percentile(95) >= stats.latency_percentile(50) > 0
            payload = stats.to_dict()
            assert {"latency_p50_ms", "latency_p95_ms", "queue_wait_p95_ms"} <= set(payload)
            stats.reset()
            assert len(stats.latencies_ms) == 0
            assert stats.to_dict().get("latency_p50_ms") is None

    def test_link_stream_preserves_order(self, pipeline, dataset, sequential):
        with AsyncLinkingService(
            pipeline,
            ServiceConfig(max_batch_size=4, cache_size=0),
            deadline_ms=10.0,
        ) as service:
            streamed = list(service.link_stream(iter(dataset.test)))
        assert_predictions_match(sequential, streamed)

    def test_submit_after_close_raises(self, pipeline, dataset):
        service = AsyncLinkingService(pipeline, deadline_ms=10.0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(dataset.test[0])
        service.close()  # idempotent

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_close_drains_pending(self, pipeline, dataset, backend, tmp_path, monkeypatch):
        # A deadline much longer than the test: close() must still flush
        # the queued requests instead of abandoning their futures, and
        # only then close the service, which releases a bundle's maps.
        bundle = str(tmp_path / "bundle") if backend == "mmap" else None
        service = AsyncLinkingService(
            pipeline, ServiceConfig(bundle_path=bundle), deadline_ms=60_000.0
        )
        assert service.stats.storage_backend == backend
        futures = [service.submit(s) for s in dataset.test[:3]]
        drained_at_close = []
        close_service = service.service.close

        def close_after_drain():
            drained_at_close.append(all(f.done() for f in futures))
            close_service()

        monkeypatch.setattr(service.service, "close", close_after_drain)
        service.close()
        assert drained_at_close == [True]
        for future, snippet in zip(futures, dataset.test[:3]):
            expected = pipeline.disambiguate_snippet(snippet)
            assert future.result(timeout=1.0).ranked_entities == expected.ranked_entities

    def test_rejects_config_with_prebuilt_service(self, pipeline):
        inner = LinkingService(pipeline, ServiceConfig(cache_size=0))
        with pytest.raises(ValueError):
            AsyncLinkingService(inner, ServiceConfig())
        inner.close()

    def test_cancelled_future_is_skipped(self, pipeline, dataset):
        # Cancelling a queued future must not kill the worker: the rest
        # of the batch still resolves.
        service = AsyncLinkingService(pipeline, deadline_ms=60_000.0)
        first = service.submit(dataset.test[0])
        second = service.submit(dataset.test[1])
        assert first.cancel()
        service.close()  # drains the queue through the worker
        assert first.cancelled()
        expected = pipeline.disambiguate_snippet(dataset.test[1])
        assert second.result(timeout=1.0).ranked_entities == expected.ranked_entities

    def test_no_grad_is_thread_local(self):
        # The scheduler's worker toggles inference mode concurrently with
        # its callers; one thread's no_grad must neither leak into nor be
        # clobbered by another's.
        import threading

        from repro.autograd import is_grad_enabled, no_grad

        seen = {}

        def worker():
            seen["before"] = is_grad_enabled()
            with no_grad():
                seen["inside"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert is_grad_enabled() is False
        assert seen == {"before": True, "inside": False}
        assert is_grad_enabled() is True

    def test_failing_batch_propagates_exception(self, pipeline, dataset, monkeypatch):
        service = AsyncLinkingService(pipeline, deadline_ms=5.0)
        try:
            def boom(snippets, **kwargs):
                raise RuntimeError("backend down")

            monkeypatch.setattr(service.service, "link_batch", boom)
            future = service.submit(dataset.test[0])
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(timeout=30.0)
        finally:
            monkeypatch.undo()
            service.close()

    def test_poisoned_request_fails_alone(self, pipeline, dataset, sequential, monkeypatch):
        # One request that makes link_batch raise must not fail the rest
        # of its micro-batch: they still get the sequential predictions.
        snippets = dataset.test[:8]
        poisoned = int(np.random.default_rng(0).integers(len(snippets)))
        # A 60 s deadline with max_batch_size == len(snippets): the worker
        # flushes exactly one full batch holding every request.
        service = AsyncLinkingService(
            pipeline,
            ServiceConfig(max_batch_size=len(snippets), cache_size=0),
            deadline_ms=60_000.0,
        )
        real_link_batch = service.service.link_batch
        batch_sizes = []

        def link_batch(batch, **kwargs):
            batch_sizes.append(len(batch))
            if any(snippet is snippets[poisoned] for snippet in batch):
                raise ValueError("poisoned snippet")
            return real_link_batch(batch, **kwargs)

        monkeypatch.setattr(service.service, "link_batch", link_batch)
        try:
            futures = [service.submit(s) for s in snippets]
            for i, future in enumerate(futures):
                if i == poisoned:
                    with pytest.raises(ValueError, match="poisoned"):
                        future.result(timeout=30.0)
                else:
                    assert_predictions_match(
                        [sequential[i]], [future.result(timeout=30.0)]
                    )
            assert batch_sizes[0] == len(snippets)
        finally:
            service.close()
