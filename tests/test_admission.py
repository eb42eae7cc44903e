"""Tests for admission control and load shedding.

The policy object (:class:`AdmissionController`) is exercised with fake
clocks and synthetic observations — no sleeps.
The configuration surface is checked end to end: strict validation,
the exact round trip through ``ServiceConfig`` / ``LinkerConfig`` JSON,
and Python-API / CLI parity.  Shed paths run against a tiny trained
pipeline with a stalled worker (huge deadline, oversized batch) so queue
depth is deterministic, and the HTTP 429 contract (``Retry-After``, structured body, the typed
client exception and its bounded-retry helper) runs against a real
server on an ephemeral port.
"""

import dataclasses
import http.client
import json

import pytest

from repro.api import Linker, LinkerConfig
from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import (
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
    AsyncLinkingService,
    DeadlineBatcher,
    ErrorResponse,
    HttpConfig,
    LinkerClient,
    LinkerClientError,
    LinkerOverloadedError,
    LinkingHTTPServer,
    LinkingService,
    LinkItem,
    LinkRequest,
    QueuedRequest,
    ServiceConfig,
    WireError,
    retry_overloaded,
)
from repro.serving.admission import PRIORITY_HEADROOM

SCALE = 0.2

SNIPPET_TEXT = (
    "The patient presented with mild spinal hyperplasia, congenital "
    "cardiac cancer and primary dermal necrosis."
)


# ---------------------------------------------------------------------------
# AdmissionConfig: validation, config round trips
# ---------------------------------------------------------------------------
class TestAdmissionConfig:
    def test_defaults(self):
        config = AdmissionConfig()
        assert config.shed_policy == "none"
        assert config.max_queue == 256
        assert config.max_wait_ms == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="shed_policy"):
            AdmissionConfig(shed_policy="drop")
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            AdmissionConfig(max_wait_ms=-1.0)

    def test_service_config_coerces_dict(self):
        config = ServiceConfig(admission={"shed_policy": "depth", "max_queue": 8})
        assert config.admission == AdmissionConfig(shed_policy="depth", max_queue=8)

    def test_service_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="admission"):
            ServiceConfig(admission={"shed_policy": "depth", "queue": 8})

    def test_service_config_rejects_non_dict(self):
        with pytest.raises(ValueError, match="admission"):
            ServiceConfig(admission="depth")

    def test_linker_config_json_round_trip(self):
        config = LinkerConfig(
            service=ServiceConfig(
                admission=AdmissionConfig(
                    shed_policy="wait",
                    max_queue=16,
                    max_wait_ms=40.0,
                )
            )
        )
        loaded = LinkerConfig.from_json(config.to_json())
        # TrainConfig's curriculum object has no __eq__, so compare the
        # section the test is about: the service config (admission
        # included) must survive the round trip exactly.
        assert loaded.service == config.service
        assert loaded.service.admission.shed_policy == "wait"
        payload = json.loads(config.to_json())
        assert payload["service"]["admission"]["max_queue"] == 16

    def test_linker_config_rejects_bad_admission_section(self):
        payload = json.loads(LinkerConfig().to_json())
        payload["service"]["admission"]["shed_policy"] = "nope"
        with pytest.raises(ValueError, match="shed_policy"):
            LinkerConfig.from_json(json.dumps(payload))
        payload["service"]["admission"] = {"max_q": 3}
        with pytest.raises(ValueError, match="admission"):
            LinkerConfig.from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# AdmissionController: pure shed-or-admit policy (no clock, no threads)
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_disabled_policy_always_admits(self):
        controller = AdmissionController(AdmissionConfig(), deadline_ms=25.0)
        assert not controller.enabled
        assert controller.check("low", 10_000) is None

    def test_depth_shed_respects_priority_headroom(self):
        config = AdmissionConfig(shed_policy="depth", max_queue=10)
        controller = AdmissionController(config, deadline_ms=25.0)
        assert controller.depth_budget("high") == 10
        assert controller.depth_budget("normal") == 8
        assert controller.depth_budget("low") == 5
        # At depth 8: low and normal shed, high still admits.
        assert controller.check("low", 8) is not None
        assert controller.check("normal", 8) is not None
        assert controller.check("high", 8) is None
        shed = controller.check("normal", 8)
        assert shed.reason == "queue_depth"
        assert shed.priority == "normal"
        # The bound itself sheds even the highest class.
        assert controller.check("high", 10) is not None

    def test_depth_budget_never_below_one(self):
        config = AdmissionConfig(shed_policy="depth", max_queue=1)
        controller = AdmissionController(config, deadline_ms=25.0)
        for priority in PRIORITY_HEADROOM:
            assert controller.depth_budget(priority) == 1

    def test_ewma_drain_model(self):
        controller = AdmissionController(
            AdmissionConfig(shed_policy="wait"), deadline_ms=25.0
        )
        assert controller.estimated_wait_ms(100) == 0.0  # no data yet
        controller.observe_batch(4, 0.02)  # 5 ms / request
        assert controller.estimated_wait_ms(4) == pytest.approx(20.0)
        controller.observe_batch(4, 0.06)  # 15 ms/req -> EWMA moves by alpha
        assert controller.estimated_wait_ms(1) == pytest.approx(7.0)

    def test_wait_shed_and_retry_after(self):
        config = AdmissionConfig(shed_policy="wait", max_queue=1000, max_wait_ms=20.0)
        controller = AdmissionController(config, deadline_ms=25.0)
        assert controller.wait_budget_ms == 20.0
        controller.observe_batch(1, 0.005)  # 5 ms / request
        assert controller.check("high", 3) is None  # est 20ms == budget
        shed = controller.check("high", 4)  # est 25ms > 20ms
        assert shed is not None and shed.reason == "estimated_wait"
        assert shed.retry_after_ms == pytest.approx(20.0)  # floored at budget
        deep = controller.check("high", 100)
        assert deep.retry_after_ms == pytest.approx(500.0)  # drain estimate
        # Normal sees a scaled budget: 20 * 0.8 = 16ms -> sheds at depth 3.
        assert controller.check("normal", 3) is not None

    def test_wait_budget_defaults_to_deadline(self):
        controller = AdmissionController(
            AdmissionConfig(shed_policy="wait"), deadline_ms=25.0
        )
        assert controller.wait_budget_ms == 25.0


# ---------------------------------------------------------------------------
# DeadlineBatcher priority ordering (fake clock)
# ---------------------------------------------------------------------------
class TestBatcherPriority:
    def request(self, now, payload, priority):
        return QueuedRequest(
            payload, enqueued_at=now, deadline_at=now + 0.05, priority=priority
        )

    def test_batch_filled_in_priority_order(self):
        batcher = DeadlineBatcher(4, 0.05)
        batcher.add(self.request(0.00, "n1", "normal"))
        batcher.add(self.request(0.01, "l1", "low"))
        batcher.add(self.request(0.02, "h1", "high"))
        batcher.add(self.request(0.03, "n2", "normal"))
        batch = batcher.poll(now=0.03)  # full batch
        assert [r.snippet for r in batch] == ["h1", "n1", "n2", "l1"]

    def test_low_priority_waits_out_a_backlog(self):
        batcher = DeadlineBatcher(2, 0.05)
        batcher.add(self.request(0.00, "l1", "low"))
        for i in range(3):
            batcher.add(self.request(0.01, f"h{i}", "high"))
        assert [r.snippet for r in batcher.poll(now=0.01)] == ["h0", "h1"]
        assert [r.snippet for r in batcher.poll(now=0.05)] == ["h2", "l1"]

    def test_low_priority_deadline_still_drives_flush(self):
        batcher = DeadlineBatcher(8, 0.05)
        batcher.add(self.request(0.00, "l1", "low"))
        batcher.add(self.request(1.00, "h1", "high"))
        # The oldest deadline belongs to the low request: it forces the
        # flush, so a trickle of high traffic cannot starve it.
        assert batcher.next_deadline() == pytest.approx(0.05)
        assert [r.snippet for r in batcher.poll(now=0.05)] == ["h1", "l1"]


# ---------------------------------------------------------------------------
# Wire schema v2: priority + retry_after_ms
# ---------------------------------------------------------------------------
class TestWireV2:
    def test_priority_round_trip(self):
        item = LinkItem(text="abc", priority="high")
        loaded = LinkItem.from_dict(item.to_dict())
        assert loaded == item
        assert loaded.priority == "high"

    def test_default_priority_not_emitted(self):
        # v1 consumers never see the key unless a non-default is chosen.
        assert "priority" not in LinkItem(text="abc").to_dict()

    def test_unknown_priority_rejected(self):
        with pytest.raises(WireError, match="priority") as exc_info:
            LinkItem(text="abc", priority="urgent")
        assert exc_info.value.code == "unknown_priority"
        with pytest.raises(WireError, match="priority"):
            LinkItem.from_dict({"text": "a", "priority": 3})

    def test_v1_requests_rejected(self):
        payload = {"schema_version": 1, "items": [{"text": "a"}]}
        with pytest.raises(WireError, match="schema_version 1") as info:
            LinkRequest.from_dict(payload)
        assert (info.value.code, info.value.status) == ("unsupported_schema_version", 400)

    def test_retry_after_round_trip(self):
        error = ErrorResponse("overloaded", "shed", retry_after_ms=125.5)
        loaded = ErrorResponse.from_dict(error.to_dict())
        assert loaded == error
        assert "retry_after_ms" not in ErrorResponse("x", "y").to_dict()

    def test_bad_retry_after_rejected(self):
        for bad in (-1.0, True, "5"):
            with pytest.raises(WireError, match="retry_after_ms"):
                ErrorResponse("overloaded", "shed", retry_after_ms=bad)


# ---------------------------------------------------------------------------
# Shed paths through the async service and HTTP (tiny trained pipeline)
# ---------------------------------------------------------------------------
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


def stalled_service(pipeline, admission, max_queue_batch=64):
    """An async service whose worker cannot flush (huge deadline, batch
    larger than anything submitted) so queue depth is deterministic."""
    return AsyncLinkingService(
        pipeline,
        deadline_ms=60_000.0,
        max_batch_size=max_queue_batch,
        admission=admission,
    )


class TestAsyncShedPaths:
    def test_depth_shed_and_priority_headroom(self, pipeline, dataset):
        snippet = dataset.test[0]
        admission = AdmissionConfig(shed_policy="depth", max_queue=2)
        service = stalled_service(pipeline, admission)
        try:
            future = service.submit(snippet)  # depth 0 < normal budget 1
            with pytest.raises(AdmissionError) as exc_info:
                service.submit(snippet)  # depth 1 >= normal budget 1
            assert exc_info.value.reason == "queue_depth"
            assert exc_info.value.retry_after_ms >= 0.0
            high = service.submit(snippet, priority="high")  # budget 2
            with pytest.raises(AdmissionError):
                service.submit(snippet, priority="high")  # at the bound
            stats = service.stats
            assert stats.admitted == {"normal": 1, "high": 1}
            assert stats.shed == {"normal": 1, "high": 1}
            assert stats.total_shed == 2
            assert stats.shed_rate == pytest.approx(0.5)
        finally:
            service.close()  # drains: the admitted futures still resolve
        expected = pipeline.disambiguate_snippet(snippet)
        for resolved in (future.result(0), high.result(0)):
            assert resolved.ranked_entities == expected.ranked_entities

    def test_unknown_priority_rejected(self, pipeline, dataset):
        service = stalled_service(pipeline, AdmissionConfig(shed_policy="depth"))
        try:
            with pytest.raises(ValueError, match="priority"):
                service.submit(dataset.test[0], priority="urgent")
        finally:
            service.close()

    def test_link_batch_is_all_or_nothing(self, pipeline, dataset):
        admission = AdmissionConfig(shed_policy="depth", max_queue=2)
        service = stalled_service(pipeline, admission)
        try:
            with pytest.raises(AdmissionError):
                service.link_batch([dataset.test[0]] * 3)
            # The pre-shed sibling was cancelled, not left to compute.
            assert service.stats.total_admitted == 1
        finally:
            service.close()

    def test_disabled_admission_never_sheds(self, pipeline, dataset):
        service = AsyncLinkingService(pipeline, deadline_ms=25.0)
        try:
            predictions = service.link_batch(dataset.test[:4])
            assert len(predictions) == 4
            assert service.stats.total_shed == 0
            assert service.stats.admitted.get("normal") == 4
        finally:
            service.close()


class TestHttpOverload:
    @pytest.fixture()
    def server(self, pipeline):
        service = LinkingService(
            pipeline,
            ServiceConfig(
                max_batch_size=64,
                admission=AdmissionConfig(shed_policy="depth", max_queue=2),
            ),
        )
        config = HttpConfig(port=0, deadline_ms=60_000.0)
        with LinkingHTTPServer(service, config) as server:
            yield server

    def test_shed_batch_is_429_with_retry_after(self, server):
        # Two normal-priority items: the first admits (depth 0 < budget
        # 1), the second sheds -> the whole request is a 429 and the
        # queued sibling is cancelled.  Deterministic: the worker cannot
        # flush (60s deadline, batch of 64).
        body = LinkRequest(
            items=(LinkItem(text=SNIPPET_TEXT), LinkItem(text=SNIPPET_TEXT))
        ).to_json().encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/link", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 429
            retry_after = response.getheader("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            error = ErrorResponse.from_json(raw)
            assert error.code == "overloaded"
            assert error.retry_after_ms > 0
        finally:
            conn.close()

    def test_client_raises_typed_overload_error(self, server):
        with LinkerClient(port=server.port) as client:
            with pytest.raises(LinkerOverloadedError) as exc_info:
                client.link_batch([SNIPPET_TEXT, SNIPPET_TEXT])
            assert exc_info.value.status == 429
            assert exc_info.value.retry_after_s >= 1.0
            # High priority rides the headroom past a queued normal item.
            stats = client.stats()
            assert stats["shed"]["normal"] >= 1

    def test_unknown_priority_is_400(self, server):
        payload = {"schema_version": 2, "items": [{"text": "a", "priority": "zzz"}]}
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/link", body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            assert response.status == 400
            assert ErrorResponse.from_json(raw).code == "unknown_priority"
        finally:
            conn.close()

    def test_prometheus_exports_admission_series(self, server):
        with LinkerClient(port=server.port) as client:
            with pytest.raises(LinkerClientError):
                client.link_batch([SNIPPET_TEXT, SNIPPET_TEXT])
            text = client.stats(prometheus=True)
        assert 'repro_admission_shed_total{priority="normal"}' in text
        assert "repro_admission_shed_rate" in text


class TestRetryHelper:
    def test_retries_then_succeeds(self):
        naps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise LinkerOverloadedError(429, None, retry_after_s=0.25)
            return "ok"

        assert retry_overloaded(flaky, retries=3, sleep=naps.append) == "ok"
        assert naps == [0.25, 0.25]

    def test_sleep_capped_at_max_wait(self):
        naps = []

        def flaky():
            if not naps:
                raise LinkerOverloadedError(429, None, retry_after_s=30.0)
            return "ok"

        assert retry_overloaded(flaky, max_wait_s=2.0, sleep=naps.append) == "ok"
        assert naps == [2.0]

    def test_exhausted_retries_propagate(self):
        def always():
            raise LinkerOverloadedError(429, None, retry_after_s=0.0)

        with pytest.raises(LinkerOverloadedError):
            retry_overloaded(always, retries=2, sleep=lambda s: None)
        with pytest.raises(ValueError):
            retry_overloaded(always, retries=-1)

    def test_other_errors_not_retried(self):
        def broken():
            raise LinkerClientError(500, None)

        with pytest.raises(LinkerClientError):
            retry_overloaded(broken, sleep=lambda s: pytest.fail("slept"))


# ---------------------------------------------------------------------------
# Python API / CLI parity for the admission surface
# ---------------------------------------------------------------------------
class TestAdmissionParity:
    class FakeLinker:
        def __init__(self):
            self.captured = None

        def serve(self, **kwargs):
            self.captured = kwargs
            raise ValueError("captured")

    def capture_cli(self, monkeypatch, argv):
        from repro import cli

        fake = self.FakeLinker()
        monkeypatch.setattr(cli, "_load_checkpoint", lambda path: fake)
        with pytest.raises(SystemExit):
            cli.main(["serve", "--checkpoint", "x", *argv])
        return fake.captured["admission"]

    def test_cli_flags_build_the_same_config(self, monkeypatch):
        admission = self.capture_cli(
            monkeypatch,
            ["--shed-policy", "wait", "--max-queue", "4"],
        )
        assert admission == AdmissionConfig(shed_policy="wait", max_queue=4)

    def test_cli_max_queue_implies_depth(self, monkeypatch):
        admission = self.capture_cli(monkeypatch, ["--max-queue", "4"])
        assert admission == AdmissionConfig(shed_policy="depth", max_queue=4)

    def test_cli_without_flags_defers_to_config_default(self, monkeypatch):
        from repro import cli

        fake = self.FakeLinker()
        monkeypatch.setattr(cli, "_load_checkpoint", lambda path: fake)
        with pytest.raises(SystemExit):
            cli.main(["serve", "--checkpoint", "x"])
        assert fake.captured["admission"] is None

    def test_linker_serve_coercions(self, pipeline):
        linker = Linker(pipeline)
        service = linker.serve(admission="depth")
        try:
            assert service.config.admission.shed_policy == "depth"
        finally:
            service.close()
        service = linker.serve(admission={"shed_policy": "wait", "max_queue": 9})
        try:
            assert service.config.admission == AdmissionConfig(
                shed_policy="wait", max_queue=9
            )
        finally:
            service.close()
        with pytest.raises(ValueError, match="admission"):
            linker.serve(admission=3.14)

    def test_admission_config_survives_linker_round_trip(self):
        config = dataclasses.replace(
            LinkerConfig(),
            service=ServiceConfig(
                admission=AdmissionConfig(shed_policy="depth", max_queue=32)
            ),
        )
        loaded = LinkerConfig.from_json(config.to_json())
        assert loaded.service == config.service
