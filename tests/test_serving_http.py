"""Tests for the HTTP front door: wire schema, server, client.

The wire dataclasses are unit-tested without a pipeline (strict parsing
is pure).  Everything network-shaped runs against one module-scope
server over a tiny trained linker on an ephemeral port: the /link
equivalence contract (bit-identical to ``LinkingService.link_batch`` on
the same service — the shared result cache makes byte-for-byte equality
well-defined — and ranking-identical to sequential
``disambiguate_snippet``), the structured error paths (400/404/405/413),
stats in both renderings, NDJSON streaming with per-line error records,
draining shutdown, and N concurrent clients merging to the sequential
rankings.
"""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.api import Linker
from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import (
    WIRE_SCHEMA_VERSION,
    ErrorResponse,
    HttpConfig,
    LinkerClient,
    LinkerClientError,
    LinkingHTTPServer,
    LinkItem,
    LinkRequest,
    LinkResponse,
    WireError,
    WirePrediction,
    parse_stream_line,
)

SCALE = 0.2

SNIPPET_TEXT = (
    "The patient presented with mild spinal hyperplasia, congenital "
    "cardiac cancer and primary dermal necrosis."
)


# ---------------------------------------------------------------------------
# Wire schema units (no pipeline, no sockets)
# ---------------------------------------------------------------------------
class TestWireSchema:
    def test_request_round_trip(self):
        request = LinkRequest(
            items=(LinkItem(text="abc", mention="ab"), LinkItem(text="xyz")),
            top_k=3,
        )
        loaded = LinkRequest.from_json(request.to_json())
        assert loaded == request
        assert loaded.to_dict()["schema_version"] == WIRE_SCHEMA_VERSION

    def test_response_round_trip_is_bit_identical(self):
        # json serialises floats via repr, which float() inverts exactly —
        # the property the whole wire contract leans on.
        scores = (2.0700716972351074, float(np.float32(1.173404574394226)), 1e-17)
        response = LinkResponse(
            predictions=(
                WirePrediction(
                    mention="m", entity_ids=(3, 1), scores=scores, entity_names=("a", "b")
                ),
            )
        )
        loaded = LinkResponse.from_json(response.to_json())
        assert loaded.predictions[0].scores == scores
        assert loaded == response

    def test_prediction_round_trip(self):
        wire = WirePrediction(mention="m", entity_ids=(5,), scores=(0.25,))
        prediction = wire.to_prediction()
        assert prediction.ranked_entities == [5]
        assert WirePrediction.from_prediction(prediction) == wire

    def test_item_needs_exactly_one_source(self):
        with pytest.raises(WireError):
            LinkItem()
        with pytest.raises(WireError):
            LinkItem(mention="m")  # mention without text

    def test_unknown_keys_rejected(self):
        payload = {"schema_version": 2, "items": [{"text": "a"}], "topk": 3}
        with pytest.raises(WireError, match="unknown link request keys"):
            LinkRequest.from_dict(payload)

    def test_unknown_schema_version(self):
        payload = {"schema_version": 99, "items": [{"text": "a"}]}
        with pytest.raises(WireError, match="schema_version") as exc_info:
            LinkRequest.from_dict(payload)
        assert exc_info.value.code == "unsupported_schema_version"

    def test_empty_items_rejected(self):
        with pytest.raises(WireError, match="no items"):
            LinkRequest.from_dict({"schema_version": 2, "items": []})

    def test_bad_top_k_rejected(self):
        for bad in (0, -1, True, "3"):
            with pytest.raises(WireError, match="top_k"):
                LinkRequest(items=(LinkItem(text="a"),), top_k=bad)

    def test_not_json_rejected(self):
        with pytest.raises(WireError, match="not valid JSON"):
            LinkRequest.from_json(b"{nope")
        with pytest.raises(WireError, match="JSON object"):
            LinkRequest.from_json(b"[1, 2]")

    def test_error_response_round_trip(self):
        error = ErrorResponse(code="draining", message="bye", detail="x")
        assert ErrorResponse.from_json(error.to_json()) == error

    def test_stream_line_dispatch(self):
        pred = WirePrediction(mention="m", entity_ids=(1,), scores=(0.5,))
        assert parse_stream_line(json.dumps(pred.to_dict())) == pred
        err = ErrorResponse(code="parse_error", message="bad")
        assert parse_stream_line(err.to_json()) == err

    def test_wire_error_to_response(self):
        exc = WireError("too big", code="payload_too_large", status=413)
        assert exc.status == 413
        assert exc.to_response().code == "payload_too_large"


# ---------------------------------------------------------------------------
# Server fixtures: one tiny trained linker, one module-scope server
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


@pytest.fixture(scope="module")
def linker(pipeline):
    return Linker(pipeline)


@pytest.fixture(scope="module")
def server(linker):
    server = linker.serve(http_port=0)
    yield server
    server.close()


@pytest.fixture()
def client(server):
    with LinkerClient(port=server.port) as client:
        yield client


def raw_request(server, method, path, body=None, headers=None):
    """A plain http.client round trip (status, headers, body bytes) for
    the paths LinkerClient refuses to produce (malformed payloads)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# POST /link
# ---------------------------------------------------------------------------
class TestLinkEndpoint:
    def test_bit_identical_to_service_link_batch(self, server, linker, dataset):
        """The acceptance contract: POST /link and service.link_batch on
        one Linker produce byte-identical predictions."""
        snippets = dataset.test[:6]
        service = server.service.service  # the wrapped sync LinkingService
        direct = service.link_batch(snippets)
        with LinkerClient(port=server.port) as client:
            wire = client.link_batch(snippets)
        assert len(wire) == len(direct)
        for d, w in zip(direct, wire):
            assert w.mention == d.mention
            assert list(w.entity_ids) == list(d.ranked_entities)
            assert list(w.scores) == [float(s) for s in d.scores]  # exact

    def test_rankings_match_sequential(self, client, pipeline, dataset):
        snippets = dataset.test[:4]
        wire = client.link_batch(snippets)
        for snippet, w in zip(snippets, wire):
            expected = pipeline.disambiguate_snippet(snippet)
            assert list(w.entity_ids) == expected.ranked_entities
            assert np.allclose(w.scores, expected.scores, atol=1e-4)

    def test_text_item_through_ner(self, client, pipeline):
        prediction = client.link(text=SNIPPET_TEXT)
        expected = pipeline.disambiguate(SNIPPET_TEXT)
        assert prediction.mention == expected.mention
        assert list(prediction.entity_ids) == expected.ranked_entities

    def test_entity_names_resolved(self, client, pipeline):
        prediction = client.link(text=SNIPPET_TEXT)
        assert prediction.entity_names == tuple(
            pipeline.entity_name(e) for e in prediction.entity_ids
        )

    def test_top_k_caps_response(self, client):
        prediction = client.link(text=SNIPPET_TEXT, top_k=1)
        assert len(prediction.entity_ids) == 1
        assert len(prediction.scores) == 1

    def test_malformed_json_is_400(self, server):
        status, _, body = raw_request(server, "POST", "/link", body=b"{nope")
        assert status == 400
        error = ErrorResponse.from_json(body)
        assert error.code == "bad_request"

    def test_unknown_key_is_400(self, server):
        payload = json.dumps(
            {"schema_version": 2, "items": [{"text": SNIPPET_TEXT}], "topk": 1}
        )
        status, _, body = raw_request(server, "POST", "/link", body=payload)
        assert status == 400
        assert "topk" in ErrorResponse.from_json(body).message

    def test_unknown_schema_version_is_400(self, server):
        payload = json.dumps({"schema_version": 99, "items": [{"text": SNIPPET_TEXT}]})
        status, _, body = raw_request(server, "POST", "/link", body=payload)
        assert status == 400
        assert ErrorResponse.from_json(body).code == "unsupported_schema_version"

    def test_unlinkable_text_is_400_with_item_site(self, client):
        with pytest.raises(LinkerClientError) as exc_info:
            client.link_batch([SNIPPET_TEXT, "xqzt gibberish"])
        assert exc_info.value.status == 400
        assert "items[1]" in exc_info.value.error.message

    def test_unknown_route_is_404(self, server):
        status, _, body = raw_request(server, "GET", "/nope")
        assert status == 404
        assert ErrorResponse.from_json(body).code == "not_found"

    def test_wrong_method_is_405(self, server):
        status, _, body = raw_request(server, "GET", "/link")
        assert status == 405
        assert ErrorResponse.from_json(body).code == "method_not_allowed"


class TestOversized:
    def test_oversized_batch_is_413(self, pipeline, dataset):
        with LinkingHTTPServer(pipeline, HttpConfig(port=0, max_batch=2)) as server:
            with LinkerClient(port=server.port) as client:
                assert len(client.link_batch(dataset.test[:2])) == 2
                with pytest.raises(LinkerClientError) as exc_info:
                    client.link_batch(dataset.test[:3])
        assert exc_info.value.status == 413
        assert exc_info.value.error.code == "payload_too_large"

    def test_oversized_body_is_413(self, pipeline):
        config = HttpConfig(port=0, max_body_bytes=1024)
        with LinkingHTTPServer(pipeline, config) as server:
            big = json.dumps(
                {"schema_version": 2, "items": [{"text": "x" * 2048}]}
            ).encode()
            status, _, body = raw_request(server, "POST", "/link", body=big)
        assert status == 413
        assert ErrorResponse.from_json(body).code == "payload_too_large"


# ---------------------------------------------------------------------------
# GET /healthz and /stats
# ---------------------------------------------------------------------------
class TestHealthAndStats:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["schema_version"] == WIRE_SCHEMA_VERSION

    def test_stats_round_trips_service_stats(self, server, client):
        client.link(text=SNIPPET_TEXT)  # ensure the counters moved
        payload = client.stats()
        assert payload == server.stats.to_dict()
        assert payload["mentions"] >= 1

    def test_stats_prometheus_rendering(self, server, client):
        client.link(text=SNIPPET_TEXT)
        text = client.stats(prometheus=True)
        assert text == server.stats.to_prometheus()
        assert "# TYPE repro_requests_total counter" in text
        assert f"repro_mentions_total {server.stats.mentions}" in text
        # the async path records latencies, so the summary has quantiles
        assert 'repro_request_latency_ms{quantile="0.5"}' in text

    def test_accept_header_picks_the_rendering(self, server):
        status, headers, body = raw_request(
            server, "GET", "/stats", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert body.startswith(b"# HELP repro_requests_total")
        status, headers, _ = raw_request(server, "GET", "/stats")
        assert headers["Content-Type"] == "application/json"


# ---------------------------------------------------------------------------
# POST /link_stream
# ---------------------------------------------------------------------------
class TestStreamEndpoint:
    def test_stream_matches_sequential(self, client, pipeline, dataset):
        snippets = dataset.test[:5]
        results = list(client.link_stream(snippets))
        assert len(results) == len(snippets)
        for snippet, result in zip(snippets, results):
            assert isinstance(result, WirePrediction)
            expected = pipeline.disambiguate_snippet(snippet)
            assert list(result.entity_ids) == expected.ranked_entities

    def test_bad_line_is_error_record_in_order(self, server, dataset):
        good = json.dumps(LinkItem(snippet=dataset.test[0]).to_dict())
        body = "\n".join([good, "{not json", good]).encode()
        status, headers, raw = raw_request(
            server, "POST", "/link_stream", body=body
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        lines = [parse_stream_line(line) for line in raw.splitlines() if line.strip()]
        assert len(lines) == 3
        assert isinstance(lines[0], WirePrediction)
        assert isinstance(lines[1], ErrorResponse)
        assert lines[1].code == "parse_error"
        assert lines[1].detail == "{not json"
        assert isinstance(lines[2], WirePrediction)
        assert lines[0] == lines[2]

    def test_stream_is_chunked(self, server, dataset):
        body = json.dumps(LinkItem(snippet=dataset.test[0]).to_dict()).encode()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/link_stream", body=body)
            response = conn.getresponse()
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.read().strip()
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# Lifecycle: draining close
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_drain_refuses_new_work_with_503(self, linker, dataset):
        server = linker.serve(http_port=0)
        try:
            with LinkerClient(port=server.port) as client:
                client.link(snippet=dataset.test[0])
                server.drain()
                with pytest.raises(LinkerClientError) as exc_info:
                    client.link(snippet=dataset.test[0])
                assert exc_info.value.status == 503
                assert exc_info.value.error.code == "draining"
                with pytest.raises(LinkerClientError) as health_exc:
                    client.healthz()
                assert health_exc.value.status == 503
        finally:
            server.close()

    def test_close_is_idempotent_and_refuses_connections(self, linker, dataset):
        server = linker.serve(http_port=0)
        with LinkerClient(port=server.port) as client:
            client.link(snippet=dataset.test[0])
        server.close()
        server.close()  # second close is a no-op
        with pytest.raises(OSError):
            raw_request(server, "GET", "/healthz")

    def test_context_manager(self, pipeline, dataset):
        with LinkingHTTPServer(pipeline, HttpConfig(port=0)) as server:
            with LinkerClient(port=server.port) as client:
                assert client.healthz()["status"] == "ok"
        with pytest.raises(OSError):
            raw_request(server, "GET", "/healthz")

    def test_ephemeral_port_is_reported(self, server):
        assert server.port > 0
        assert server.config.port == 0  # the config keeps what was asked


# ---------------------------------------------------------------------------
# Concurrency: N clients, one scheduler
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_merged_responses_match_sequential(self, server, pipeline, dataset):
        snippets = dataset.test[:12]
        expected = {
            id(s): pipeline.disambiguate_snippet(s).ranked_entities for s in snippets
        }
        chunks = [snippets[i::4] for i in range(4)]
        merged = {}
        errors = []

        def worker(chunk):
            try:
                with LinkerClient(port=server.port) as client:
                    for snippet in chunk:
                        wire = client.link(snippet=snippet)
                        merged[id(snippet)] = list(wire.entity_ids)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(merged) == len(snippets)
        for key, rankings in merged.items():
            assert rankings == expected[key]
