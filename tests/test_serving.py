"""Tests for the batched linking service (repro.serving).

Covers batch-vs-sequential result equivalence (the service must return
the rankings ``EDPipeline.disambiguate_snippet`` returns, with scores
equal up to float32 rounding), also for each candidate generator served
from the live arrays and from a KB bundle through every serving path,
the result LRU cache (hits before any work, context sensitivity,
invalidation), ``top_k`` validation, the stats counters, and the
matchers' closed forms.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.api import Linker
from repro.core import EDPipeline, ModelConfig, Prediction, TrainConfig, make_matcher
from repro.core.pipeline import rank
from repro.autograd import Tensor
from repro.datasets import load_dataset
from repro.retrieval import build_retrieval_index
from repro.serving import (
    LinkerClient,
    LinkingService,
    LRUCache,
    ServiceConfig,
    ServiceStats,
)
from repro.serving import service as service_module
from repro.storage import pack_bundle
from repro.storage.bundle import read_manifest
from repro.text.corpus import Snippet

SCALE = 0.2


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


def assert_equivalent(service, pipeline, snippets, top_k=5, restrict=True):
    batched = service.link_batch(snippets, top_k=top_k, restrict_to_candidates=restrict)
    assert_matches_sequential(batched, pipeline, snippets, top_k, restrict)


def assert_matches_sequential(batched, pipeline, snippets, top_k=5, restrict=True):
    assert len(batched) == len(snippets)
    for snippet, batch_pred in zip(snippets, batched):
        seq_pred = pipeline.disambiguate_snippet(
            snippet, top_k=top_k, restrict_to_candidates=restrict
        )
        assert batch_pred.mention == seq_pred.mention
        assert batch_pred.ranked_entities == seq_pred.ranked_entities
        assert np.allclose(batch_pred.scores, seq_pred.scores, atol=1e-4)


class TestEquivalence:
    def test_link_batch_matches_sequential(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test)

    def test_unrestricted_candidates(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test[:6], restrict=False)

    def test_partial_final_microbatch(self, pipeline, dataset):
        # 7 snippets with batch size 4 -> a full chunk and a ragged one.
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=4, cache_size=0))
        assert_equivalent(service, pipeline, dataset.test[:7])
        assert service.stats.batches == 2
        assert (service.stats.batched_mentions, service.stats.max_batch_size) == (7, 4)

    def test_equivalence_with_cache_enabled(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(max_batch_size=8, cache_size=512))
        snippets = list(dataset.test) * 2  # replay forces cache hits
        assert_equivalent(service, pipeline, snippets)

    def test_non_union_batchable_encoder_falls_back(self, dataset):
        # MAGNN's inter-metapath attention is graph-global; the service
        # must embed per graph yet still match the sequential pipeline.
        pipe = EDPipeline(
            dataset.kb,
            model_config=ModelConfig(variant="magnn", num_layers=1, seed=0),
        )
        assert pipe.model.encoder.union_batchable is False
        service = LinkingService(pipe, ServiceConfig(max_batch_size=4, cache_size=0))
        assert_equivalent(service, pipe, dataset.test[:6])

    def test_link_texts_matches_snippet_path(self, pipeline):
        text = (
            "The patient presented with mild spinal hyperplasia, "
            "congenital cardiac cancer and primary dermal necrosis."
        )
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        [prediction] = service.link_texts([text])
        sequential = pipeline.disambiguate(text, top_k=service.config.top_k)
        assert prediction.mention == sequential.mention
        assert prediction.ranked_entities == sequential.ranked_entities


class TestServedConfigurations:
    """Each candidate generator served from the live arrays and from a
    packed bundle, through the batched, cached, async and HTTP paths."""

    @pytest.fixture(scope="class")
    def checkpoint(self, pipeline, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("served"))
        Linker(pipeline).save(directory)
        return directory

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("generator", ["exact", "fuzzy", "indexed"])
    def test_every_path_matches_sequential(
        self, checkpoint, dataset, generator, backend, tmp_path
    ):
        linker = Linker.load(checkpoint)
        bundle = retrieval = None
        if backend == "mmap":
            # The deployment shape: `repro kb pack --with-index` for the
            # indexed generator, whose loader maps the packed index.
            bundle = str(tmp_path / "bundle")
            retrieval = replace(linker.config.retrieval, bundle_path=bundle)
            index = None
            if generator == "indexed":
                index = build_retrieval_index(linker.kb, retrieval)
            pack_bundle(linker.pipeline, bundle, retrieval_index=index)
        linker.use_candidate_generator(generator, retrieval=retrieval)
        snippets = dataset.test
        pipe = linker.pipeline
        assert not getattr(pipe.candidate_generator, "repacked", False)

        service = linker.serve(max_batch_size=4, cache_size=512, bundle_path=bundle)
        try:
            assert_equivalent(service, pipe, snippets)
            hits = service.stats.cache_hits
            assert_equivalent(service, pipe, snippets)
            assert service.stats.cache_hits == hits + len(snippets)
            stats = service.stats
            assert (stats.candidate_generator, stats.storage_backend) == (
                generator, backend,
            )
            assert stats.candidate_fallbacks > 0
        finally:
            service.close()

        with linker.serve(
            async_=True, deadline_ms=10.0, max_batch_size=4, bundle_path=bundle
        ) as async_service:
            assert_matches_sequential(async_service.link_batch(snippets), pipe, snippets)
            assert async_service.stats.storage_backend == backend

        server = linker.serve(http_port=0, max_batch_size=4, bundle_path=bundle)
        try:
            with LinkerClient(port=server.port) as client:
                wire = client.link_batch(snippets)
                remote = client.stats()
        finally:
            server.close()
        assert [list(p.entity_ids) for p in wire] == [
            pipe.disambiguate_snippet(s).ranked_entities for s in snippets
        ]
        assert (remote["candidate_generator"], remote["storage_backend"]) == (
            generator, backend,
        )


class TestResultCache:
    def test_repeat_requests_hit(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        first = service.link_batch(dataset.test)
        assert service.stats.cache_hits == 0
        second = service.link_batch(dataset.test)
        assert service.stats.cache_hits == len(dataset.test)
        assert service.stats.batches == pytest.approx(
            np.ceil(len(dataset.test) / service.config.max_batch_size)
        )
        for a, b in zip(first, second):
            assert a.ranked_entities == b.ranked_entities
            assert a.scores == b.scores

    def test_context_changes_miss(self, pipeline, dataset):
        # Same ambiguous mention, context stripped: scoring may differ, so
        # the cache must not serve the full-context entry.
        snippet = dataset.test[0]
        stripped = Snippet(
            text=snippet.ambiguous_mention.mention,
            mentions=[snippet.ambiguous_mention],
            ambiguous_index=0,
        )
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch([snippet])
        service.link_batch([stripped])
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 2
        assert_equivalent(service, pipeline, [stripped])

    def test_intra_batch_duplicates_computed_once(self, pipeline, dataset):
        snippet = dataset.test[0]
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=512)
        )
        first, second, third = service.link_batch([snippet] * 3)
        assert service.stats.cache_hits == 2
        assert service.stats.cache_misses == 1
        # duplicates never scored: one batch of one
        assert (service.stats.batches, service.stats.batched_mentions) == (1, 1)
        assert first.ranked_entities == second.ranked_entities == third.ranked_entities
        assert first.scores == second.scores == third.scores
        assert_equivalent(service, pipeline, [snippet])

    def test_cache_disabled(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        service.link_batch(dataset.test[:3])
        service.link_batch(dataset.test[:3])
        assert service.stats.cache_hits == 0
        assert service.stats.cache_misses == 6

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_weight_change_invalidates(self, pipeline, dataset, backend, tmp_path):
        bundle = str(tmp_path / "bundle") if backend == "mmap" else None
        service = LinkingService(
            pipeline, ServiceConfig(cache_size=512, bundle_path=bundle)
        )
        service.link_batch(dataset.test[:4])
        before = service.fingerprint()
        stored = service.content_fingerprint()

        param = pipeline.model.parameters()[0]
        original = param.data.copy()
        try:
            param.data = param.data + 0.25
            assert service.fingerprint() != before
            assert service.refresh() is True
            assert service.stats.ref_refreshes == 2
            if bundle is not None:
                # The new weights' h_ref replaced the stored one.
                assert service.content_fingerprint() != stored
                entry = read_manifest(bundle)["h_ref"]
                assert entry["fingerprint"] == service.content_fingerprint()
            # Cache was cleared: the same request recomputes.
            service.link_batch(dataset.test[:4])
            assert service.stats.cache_hits == 0
            assert_equivalent(service, pipeline, dataset.test[:4])
        finally:
            param.data = original
            pipeline.invalidate_ref_cache()
            service.close()

    def test_kb_edge_rewire_invalidates(self, dataset):
        # Edge mutations that keep node/edge counts plausible must still
        # flip the fingerprint (the KB version counter covers them).
        kb = dataset.kb.copy()
        pipe = EDPipeline(
            kb, model_config=ModelConfig(variant="graphsage", num_layers=1, seed=0)
        )
        service = LinkingService(pipe, ServiceConfig(cache_size=16))
        before = service.fingerprint()
        src, dst, et = kb.edges()
        kb.add_edge(int(dst[0]), int(src[0]), int(et[0]))
        assert service.fingerprint() != before
        assert service.refresh() is True

    def test_deferred_eviction_fallback_accounting(self, pipeline, dataset):
        # Capacity 1: b's entry evicts a's inside the request, but the
        # repeat of a joined a's pending miss, so it is a hit that needs
        # no entry and no re-score: one batch of the two misses.
        a, b = dataset.test[0], dataset.test[1]
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=8, cache_size=1)
        )
        results = service.link_batch([a, a, b])
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 2
        stats = service.stats
        assert (stats.batches, stats.batched_mentions, stats.max_batch_size) == (1, 2, 2)
        assert results[0] == results[1]
        assert_matches_sequential(results, pipeline, [a, a, b])

    def test_hit_skips_query_graph_and_candidates(self, pipeline, dataset, monkeypatch):
        # The key holds what the builder and the generator read, so a hit
        # is answered before either runs.
        snippets = dataset.test[:4]
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        first = service.link_batch(snippets)
        calls = []
        monkeypatch.setattr(
            service_module, "build_query_graph", lambda *a, **k: calls.append("build")
        )
        monkeypatch.setattr(
            pipeline, "candidate_ids", lambda *a, **k: calls.append("candidates")
        )
        assert service.link_batch(snippets) == first
        assert calls == []
        assert service.stats.cache_hits == len(snippets)

    def test_larger_top_k_is_served_from_the_cache(self, pipeline, dataset):
        # An entry holds the whole ranking, so asking for more of it is a
        # hit; batches of one keep the sequential bits.
        snippets = dataset.test[:6]
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=1, cache_size=512)
        )
        service.link_batch(snippets, top_k=3)
        predictions = service.link_batch(snippets, top_k=8)
        assert service.stats.cache_hits == len(snippets)
        assert predictions == [
            pipeline.disambiguate_snippet(snippet, top_k=8) for snippet in snippets
        ]

    def test_generator_swap_invalidates(self, dataset):
        # The generator is not in the key, so swapping it on a live
        # service must drop the rankings its predecessor produced.
        pipe = EDPipeline(
            dataset.kb, model_config=ModelConfig(variant="graphsage", num_layers=1, seed=0)
        )
        linker = Linker(pipe)
        snippets = dataset.test[:8]
        service = LinkingService(linker, ServiceConfig(cache_size=64))
        before = service.link_batch(snippets)
        linker.use_candidate_generator("fuzzy")
        after = service.link_batch(snippets)
        assert service.stats.cache_hits == 0
        assert [p.ranked_entities for p in after] != [p.ranked_entities for p in before]
        assert_matches_sequential(after, pipe, snippets)

    def test_refresh_noop_when_unchanged(self, pipeline):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        assert service.refresh() is False
        assert service.stats.ref_refreshes == 1


class TestTopKValidation:
    # A cut below 1 would slice the ranking from the end (-1 drops the
    # last candidate) or empty it, so every entry point rejects it.
    @pytest.mark.parametrize("top_k", [0, -1])
    def test_service_config_rejects(self, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            ServiceConfig(top_k=top_k)

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_link_batch_rejects(self, pipeline, dataset, top_k):
        service = LinkingService(pipeline, ServiceConfig(cache_size=0))
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            service.link_batch(dataset.test[:1], top_k=top_k)

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_disambiguate_snippet_rejects(self, pipeline, dataset, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            pipeline.disambiguate_snippet(
                dataset.test[0], top_k=top_k, restrict_to_candidates=False
            )


class TestStats:
    def test_counters(self, pipeline, dataset):
        service = LinkingService(
            pipeline, ServiceConfig(max_batch_size=4, cache_size=512)
        )
        service.link_batch(dataset.test[:6])
        stats = service.stats
        assert stats.requests == 1
        assert stats.mentions == 6
        assert stats.batches == 2
        assert stats.mean_batch_size == 3.0
        assert stats.max_batch_size == 4
        assert stats.compute_seconds > 0
        assert stats.mentions_per_second > 0
        payload = stats.to_dict()
        assert payload["cache_hit_rate"] == 0.0
        assert "mentions_per_second" in stats.format()
        stats.record_latency(0.01, 0.002)
        stats.record_admission("high")
        stats.record_shed("low")
        stats.reset()
        assert stats.mentions == 0 and stats.batches == 0
        assert stats.batched_mentions == 0 and stats.max_batch_size == 0
        fresh = ServiceStats()
        # Deques compare by content.
        assert {f.name: getattr(stats, f.name) for f in fields(stats)} == {
            f.name: getattr(fresh, f.name) for f in fields(fresh)
        }

    def test_batch_telemetry_stays_exact_and_bounded(self):
        # A long-lived server records one batch per forward pass; the
        # stats keep running aggregates, so to_dict stays exact without
        # holding one entry per batch.
        stats = ServiceStats()
        sizes = [i % 32 + 1 for i in range(100_000)]
        for size in sizes:
            stats.record_batch(size, 0.001)
        payload = stats.to_dict()
        assert payload["batches"] == len(sizes)
        assert payload["mean_batch_size"] == round(sum(sizes) / len(sizes), 2)
        assert payload["max_batch_size"] == 32
        assert payload["mentions_per_second"] == round(
            sum(sizes) / stats.compute_seconds, 2
        )
        assert all(
            len(value) < len(sizes)
            for value in vars(stats).values()
            if hasattr(value, "__len__")
        )

    def test_default_payload_keys_and_series_are_pinned(self):
        # /stats JSON keys and Prometheus series are an interface:
        # renaming or dropping one must be a deliberate change.
        stats = ServiceStats()
        assert set(stats.to_dict()) == {
            "requests", "mentions", "cache_hits", "cache_misses",
            "cache_hit_rate", "batches", "mean_batch_size", "max_batch_size",
            "ref_refreshes", "compute_seconds", "mentions_per_second",
            "storage_backend", "candidate_generator", "candidate_lookups",
            "candidate_index_hits", "candidate_fallbacks", "candidate_seconds",
            "admitted", "shed", "shed_rate",
        }
        series = {
            line.split()[2]
            for line in stats.to_prometheus().splitlines()
            if line.startswith("# TYPE ")
        }
        assert series == {
            f"repro_{name}"
            for name in (
                "requests_total", "mentions_total", "cache_hits_total",
                "cache_misses_total", "batches_total", "ref_refreshes_total",
                "compute_seconds_total", "candidates_lookups_total",
                "candidates_seconds_total", "candidates_index_hits_total",
                "candidates_fallbacks_total", "admission_admitted_total",
                "admission_shed_total", "cache_hit_rate",
                "admission_shed_rate", "mean_batch_size", "mentions_per_second",
                "request_latency_ms", "queue_wait_ms", "candidates_stage_ms",
                "storage_info", "candidates_info",
            )
        }

    def test_hit_rate(self, pipeline, dataset):
        service = LinkingService(pipeline, ServiceConfig(cache_size=512))
        service.link_batch(dataset.test[:4])
        service.link_batch(dataset.test[:4])
        assert service.stats.cache_hit_rate == 0.5


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMatcherFastPaths:
    @pytest.mark.parametrize("name", ["dot", "mlp", "bilinear"])
    def test_one_vs_many_matches_forward(self, name):
        rng = np.random.default_rng(7)
        matcher = make_matcher(name, 16, rng)
        matcher.eval()
        query = rng.normal(size=16).astype(np.float32)
        candidates = rng.normal(size=(11, 16)).astype(np.float32)
        tiled = Tensor(np.repeat(query.reshape(1, -1), 11, axis=0))
        expected = matcher(tiled, Tensor(candidates)).data.reshape(-1)
        fast = matcher.one_vs_many(query, candidates)
        assert np.allclose(fast, expected, atol=1e-5)


class TestStagedPipelineAPI:
    def test_candidate_ids_fallbacks(self, pipeline):
        known = pipeline.index.known_surfaces()[0]
        candidates = pipeline.candidate_ids(known)
        assert list(candidates) == pipeline.index.lookup(known)
        everything = pipeline.candidate_ids("zzz unheard of", category=None)
        assert len(everything) == pipeline.kb.num_nodes

    def test_score_candidates_shape(self, pipeline, dataset):
        query_graphs = [pipeline.build_query_graph_for(s) for s in dataset.test[:3]]
        candidate_sets = [pipeline.candidate_ids(qg.mention_surface) for qg in query_graphs]
        scored = pipeline.score_candidates(query_graphs, candidate_sets)
        assert [s.shape for s in scored] == [(len(c),) for c in candidate_sets]
        ranking = rank(candidate_sets[0], scored[0])
        assert sorted(ranking[0].tolist()) == sorted(candidate_sets[0].tolist())
        prediction = Prediction.from_ranking(query_graphs[0].mention_surface, ranking, top_k=3)
        assert len(prediction.ranked_entities) <= 3
        assert prediction.scores == sorted(scored[0].tolist(), reverse=True)[:3]
