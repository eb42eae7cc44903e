"""Tests for the packed KB bundle (repro.storage).

Covers ``ServiceConfig.bundle_path`` (strict type, exact JSON round
trip), the mmap bundle's bit-exact round trip and staleness handling,
and the cross-form equivalence property — a service over the live
arrays and one over a bundle both rank exactly like
``disambiguate_snippet`` with bitwise-identical scores, also when a
top-2|4 re-link is served from the result cache.
"""

import json
import os

import numpy as np
import pytest

from repro.core import EDPipeline, ModelConfig, TrainConfig
from repro.datasets import load_dataset
from repro.serving import LinkingService, ServiceConfig
from repro.storage import (
    MmapStore,
    StorageError,
    content_fingerprint,
    pack_bundle,
)
from repro.storage.bundle import (
    FEATURES_NAME,
    MANIFEST_NAME,
    _read_manifest,
    features_crc,
)

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


@pytest.fixture(scope="module")
def bundle(pipeline, tmp_path_factory):
    """A packed bundle (features + embeddings) shared by the mmap tests."""
    directory = str(tmp_path_factory.mktemp("bundle"))
    manifest = pack_bundle(pipeline, directory)
    return directory, manifest


def make_service(pipeline, bundle_path=None):
    return LinkingService(pipeline, ServiceConfig(bundle_path=bundle_path))


# ----------------------------------------------------------------------
# ServiceConfig.bundle_path
# ----------------------------------------------------------------------
class TestStorageConfig:
    def test_bad_field_types_rejected(self):
        assert ServiceConfig().bundle_path is None
        with pytest.raises(ValueError, match="bundle_path"):
            ServiceConfig(bundle_path=7)

    def test_json_round_trip_is_exact(self):
        import dataclasses

        original = ServiceConfig(bundle_path="bundle")
        payload = json.loads(json.dumps(dataclasses.asdict(original)))
        assert ServiceConfig(**payload) == original


# ----------------------------------------------------------------------
# The mmap bundle
# ----------------------------------------------------------------------
class TestBundle:
    def test_pack_writes_manifest_and_arrays(self, pipeline, bundle):
        directory, manifest = bundle
        assert os.path.exists(os.path.join(directory, MANIFEST_NAME))
        assert os.path.exists(os.path.join(directory, FEATURES_NAME))
        assert manifest["schema_version"] == 1
        assert manifest["features"]["crc"] == features_crc(pipeline.kb.features)
        assert manifest["h_ref"]["fingerprint"] == content_fingerprint(pipeline)

    def test_round_trip_is_bit_identical(self, pipeline, bundle):
        directory, _ = bundle
        store = MmapStore(pipeline.kb, directory=directory)
        try:
            assert store.features.dtype == pipeline.kb.features.dtype
            assert np.array_equal(store.features, pipeline.kb.features)
            h_ref = store.load(content_fingerprint(pipeline))
            assert h_ref is not None
            assert h_ref.dtype == np.float32
            assert np.array_equal(h_ref, pipeline.ref_embeddings())
        finally:
            store.close()

    def test_stale_fingerprint_not_served(self, pipeline, bundle):
        directory, _ = bundle
        store = MmapStore(pipeline.kb, directory=directory)
        try:
            assert store.load(content_fingerprint(pipeline) ^ 1) is None
        finally:
            store.close()

    def test_stale_feature_crc_triggers_repack(self, pipeline, bundle, tmp_path):
        # A bundle whose features disagree with the live KB must be
        # re-packed, never served: tamper both the array and the CRC.
        directory, _ = bundle
        stale = str(tmp_path / "stale")
        import shutil

        shutil.copytree(directory, stale)
        wrong = np.zeros_like(pipeline.kb.features)
        np.save(os.path.join(stale, FEATURES_NAME), wrong)
        manifest = _read_manifest(stale)
        manifest["features"]["crc"] = features_crc(wrong)
        with open(os.path.join(stale, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        store = MmapStore(pipeline.kb, directory=stale)
        try:
            assert np.array_equal(store.features, pipeline.kb.features)
            assert (
                _read_manifest(stale)["features"]["crc"]
                == features_crc(pipeline.kb.features)
            )
        finally:
            store.close()

    def test_manifest_strictness(self, pipeline, tmp_path):
        directory = str(tmp_path / "bad")
        pack_bundle(pipeline, directory, embeddings=False)
        path = os.path.join(directory, MANIFEST_NAME)
        manifest = _read_manifest(directory)
        manifest["compression"] = "zstd"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises((StorageError, ValueError)):
            MmapStore(pipeline.kb, directory=directory)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(StorageError, match="unreadable bundle manifest"):
            MmapStore(pipeline.kb, directory=directory)

    def test_wrong_schema_version_rejected(self, pipeline, tmp_path):
        directory = str(tmp_path / "future")
        pack_bundle(pipeline, directory, embeddings=False)
        path = os.path.join(directory, MANIFEST_NAME)
        manifest = _read_manifest(directory)
        manifest["schema_version"] = 99
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        with pytest.raises(StorageError, match="schema_version"):
            MmapStore(pipeline.kb, directory=directory)

    def test_pack_without_embeddings(self, pipeline, tmp_path):
        directory = str(tmp_path / "lean")
        manifest = pack_bundle(pipeline, directory, embeddings=False)
        assert manifest["h_ref"] is None
        store = MmapStore(pipeline.kb, directory=directory)
        try:
            assert store.load(content_fingerprint(pipeline)) is None
            # store() persists and returns a map of the same bytes.
            h_ref = store.store(content_fingerprint(pipeline), pipeline.ref_embeddings())
            assert np.array_equal(h_ref, pipeline.ref_embeddings())
            assert store.load(content_fingerprint(pipeline)) is not None
        finally:
            store.close()

    def test_pointed_at_bundle_survives_close(self, pipeline, bundle):
        directory, _ = bundle
        store = MmapStore(pipeline.kb, directory=directory)
        store.close()
        store.close()  # idempotent
        assert os.path.exists(os.path.join(directory, MANIFEST_NAME))
        with pytest.raises(StorageError, match="closed"):
            store.features


# ----------------------------------------------------------------------
# Live arrays vs bundle equivalence
# ----------------------------------------------------------------------
class TestCrossBackendEquivalence:
    @pytest.fixture(scope="class")
    def baseline(self, pipeline, dataset):
        """Predictions from a service over the live arrays, checked once
        against the sequential oracle; a bundle must match them
        bitwise."""
        service = make_service(pipeline)
        try:
            predictions = service.link_batch(dataset.test[:6])
        finally:
            service.close()
        for snippet, prediction in zip(dataset.test[:6], predictions):
            oracle = pipeline.disambiguate_snippet(snippet)
            assert prediction.ranked_entities == oracle.ranked_entities
        return predictions

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    @pytest.mark.parametrize("top_k", [2, 4])
    def test_scores_bit_identical_across_backends(
        self, pipeline, dataset, baseline, backend, top_k, tmp_path
    ):
        # The mmap leg packs a fresh bundle on start and serves its maps.
        bundle_path = str(tmp_path / "bundle") if backend == "mmap" else None
        service = make_service(pipeline, bundle_path)
        try:
            assert service.stats.storage_backend == backend
            predictions = service.link_batch(dataset.test[:6])
            for expected, actual in zip(baseline, predictions):
                assert actual.ranked_entities == expected.ranked_entities
                assert actual.scores == expected.scores  # bitwise, not approx
            # A narrower top_k re-link is served from the result cache:
            # the same bits, truncated.
            hits = service.stats.cache_hits
            truncated = service.link_batch(dataset.test[:6], top_k=top_k)
            assert service.stats.cache_hits == hits + 6
            for expected, actual in zip(baseline, truncated):
                assert actual.ranked_entities == expected.ranked_entities[:top_k]
                assert actual.scores == expected.scores[:top_k]
        finally:
            service.close()

    def test_mmap_bundle_reuse_skips_the_embedding_forward(
        self, pipeline, dataset, bundle
    ):
        # Serving from a packed bundle must load h_ref instead of
        # recomputing it — and still score identically.
        directory, _ = bundle
        calls = []
        original = EDPipeline.ref_embeddings

        def counting(self, *a, **k):
            calls.append(1)
            return original(self, *a, **k)

        try:
            EDPipeline.ref_embeddings = counting
            service = make_service(pipeline, directory)
        finally:
            EDPipeline.ref_embeddings = original
        try:
            assert not calls  # startup served the packed matrix
            prediction = service.link_batch(dataset.test[:1])[0]
            oracle = pipeline.disambiguate_snippet(dataset.test[0])
            assert prediction.ranked_entities == oracle.ranked_entities
        finally:
            service.close()


# ----------------------------------------------------------------------
# Storage telemetry
# ----------------------------------------------------------------------
class TestStorageStats:
    def test_stats_carry_the_storage_block(self, pipeline, tmp_path):
        service = make_service(pipeline, str(tmp_path / "bundle"))
        try:
            payload = service.stats.to_dict()
            assert payload["storage_backend"] == "mmap"
            text = service.stats.to_prometheus()
            assert 'storage_info{backend="mmap"} 1' in text
        finally:
            service.close()
