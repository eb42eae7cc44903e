"""Tests for the sublinear candidate-retrieval subsystem (repro.retrieval).

Covers the acceptance contract of the indexed-generator tentpole:

* the vectorised ``edit_distances`` matches the scalar DP exactly;
* ``RetrievalConfig`` is strict (out-of-range knobs rejected) and
  round-trips through ``LinkerConfig``;
* a typo'd generator name fails with the registry's options listed;
* the n-gram index returns capped, deduplicated, deterministic
  shortlists, and the ``"indexed"`` generator reproduces the fuzzy
  oracle exactly when the shortlist covers the whole KB;
* packed indexes round-trip bit-exactly through a KB bundle,
  staleness rebuilds + repacks, corruption raises ``StorageError``;
* candidate telemetry lands in ``ServiceStats`` and its Prometheus
  rendering.
"""

import numpy as np
import pytest

from repro.api import CANDIDATE_GENERATORS, Linker, LinkerConfig
from repro.core import (
    EDPipeline,
    FuzzyFallbackCandidateGenerator,
    ModelConfig,
    TrainConfig,
)
from repro.datasets import load_dataset
from repro.retrieval import (
    IndexedCandidateGenerator,
    RetrievalConfig,
    build_retrieval_index,
    load_packed_index,
    repack_index,
    retrieval_fingerprint,
)
from repro.serving.stats import ServiceStats
from repro.storage import StorageError, pack_bundle
from repro.text import HashingNgramEmbedder
from repro.text.variants import (
    VariantKind,
    applicable_kinds,
    edit_distance,
    edit_distances,
    generate_variant,
)

SCALE = 0.2


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("NCBI", scale=SCALE)


@pytest.fixture(scope="module")
def kb(dataset):
    return dataset.kb


@pytest.fixture(scope="module")
def embedder():
    return HashingNgramEmbedder(dim=128)


@pytest.fixture(scope="module")
def name_matrix(kb, embedder):
    names = [kb.node_name(v) for v in range(kb.num_nodes)]
    return embedder.embed_batch(names)


@pytest.fixture(scope="module")
def typo_surfaces(kb):
    """Typo'd variants of KB names — the index-miss queries the fuzzy
    fallback (and therefore the shortlist index) exist for."""
    rng = np.random.default_rng(7)
    surfaces = []
    for node in range(kb.num_nodes):
        name = kb.node_name(node)
        if VariantKind.TYPO not in applicable_kinds(name):
            continue
        surface = generate_variant(name, VariantKind.TYPO, rng)
        if surface is not None:
            surfaces.append(surface)
        if len(surfaces) >= 40:
            break
    assert len(surfaces) >= 20
    return surfaces


@pytest.fixture(scope="module")
def pipeline(dataset):
    pipe = EDPipeline(
        dataset.kb,
        model_config=ModelConfig(variant="graphsage", num_layers=2, seed=0),
        train_config=TrainConfig(epochs=2, patience=5, seed=0),
    )
    pipe.fit(dataset.train, dataset.val, dataset.test)
    return pipe


# ----------------------------------------------------------------------
# Vectorised edit distance
# ----------------------------------------------------------------------
class TestEditDistances:
    def test_matches_scalar_dp(self):
        rng = np.random.default_rng(3)
        alphabet = list("abcdefg ")
        pool = [
            "".join(rng.choice(alphabet, size=rng.integers(0, 14)))
            for _ in range(60)
        ]
        for a in pool[:12]:
            batch = edit_distances(a, pool)
            expected = [edit_distance(a, b) for b in pool]
            assert batch.tolist() == expected

    def test_empty_inputs(self):
        assert edit_distances("abc", []).shape == (0,)
        assert edit_distances("", ["", "ab", "xyz"]).tolist() == [0, 2, 3]
        assert edit_distances("abc", ["", ""]).tolist() == [3, 3]

    def test_unicode_surfaces(self):
        others = ["naïve", "naive", "näive"]
        expected = [edit_distance("naïve", b) for b in others]
        assert edit_distances("naïve", others).tolist() == expected


# ----------------------------------------------------------------------
# RetrievalConfig
# ----------------------------------------------------------------------
class TestRetrievalConfig:
    def test_defaults(self):
        config = RetrievalConfig()
        assert config.shortlist == 256
        assert config.max_df_ratio == 0.05
        assert config.bundle_path is None

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(shortlist=0), "shortlist"),
            (dict(ngram_size=0), "ngram_size"),
            (dict(num_buckets=0), "num_buckets"),
            (dict(max_df_ratio=0.0), "max_df_ratio"),
            (dict(max_df_ratio=1.5), "max_df_ratio"),
            (dict(bundle_path=7), "bundle_path"),
        ],
    )
    def test_strict_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetrievalConfig(**kwargs)

    def test_dict_round_trip(self):
        config = RetrievalConfig(shortlist=64, ngram_size=4, max_df_ratio=0.02)
        assert RetrievalConfig(**config.to_dict()) == config

    def test_linker_config_round_trip(self):
        config = LinkerConfig(
            retrieval=RetrievalConfig(shortlist=99, num_buckets=1024),
            candidate_generator="indexed",
        )
        restored = LinkerConfig.from_json(config.to_json())
        assert restored.retrieval == config.retrieval
        assert restored.candidate_generator == "indexed"

    def test_retrieval_section_must_be_typed(self):
        with pytest.raises(ValueError, match="retrieval"):
            LinkerConfig(retrieval={"shortlist": 32})


# ----------------------------------------------------------------------
# Generator names
# ----------------------------------------------------------------------
class TestCandidatesEnv:
    def test_typo_fails_with_options_listed(self):
        assert LinkerConfig().candidate_generator == "exact"
        with pytest.raises(ValueError, match="indxed.*exact.*fuzzy.*indexed"):
            LinkerConfig(candidate_generator="indxed")

    def test_registry_has_all_generators(self):
        for name in ("exact", "fuzzy", "indexed"):
            assert CANDIDATE_GENERATORS.get(name) is not None


# ----------------------------------------------------------------------
# The n-gram shortlist index
# ----------------------------------------------------------------------
class TestShortlistBackends:
    def test_shortlist_shape_and_cap(self, kb, typo_surfaces):
        index = build_retrieval_index(kb, RetrievalConfig(shortlist=8))
        for surface in typo_surfaces[:10]:
            shortlist = index.query(surface)
            assert shortlist.dtype == np.int64
            assert len(shortlist) <= 8
            assert len(np.unique(shortlist)) == len(shortlist)
            assert ((shortlist >= 0) & (shortlist < kb.num_nodes)).all()

    def test_build_is_deterministic(self, kb, typo_surfaces):
        first = build_retrieval_index(kb, RetrievalConfig())
        second = build_retrieval_index(kb, RetrievalConfig())
        for surface in typo_surfaces[:10]:
            assert np.array_equal(first.query(surface), second.query(surface))

    def test_ngram_garbage_surface_returns_empty(self, kb):
        index = build_retrieval_index(kb, RetrievalConfig())
        assert index.query("zzqqxxjj").size == 0

    def test_fingerprint_tracks_surfaces_and_config(self, kb):
        base = retrieval_fingerprint(kb, RetrievalConfig())
        assert base == retrieval_fingerprint(kb, RetrievalConfig())
        assert base == build_retrieval_index(kb, RetrievalConfig()).fingerprint
        # bundle_path is where an index lives, not what it contains.
        moved = RetrievalConfig(bundle_path="/tmp/elsewhere")
        assert base == retrieval_fingerprint(kb, moved)
        other = retrieval_fingerprint(kb, RetrievalConfig(shortlist=7))
        assert base != other
        # A new entity surface changes what the index contains.
        grown = kb.copy()
        grown.add_node(kb.schema.node_types[0], "zzqq entity", aliases=("zzqq",))
        assert base != retrieval_fingerprint(grown, RetrievalConfig())


# ----------------------------------------------------------------------
# The "indexed" generator vs the fuzzy oracle
# ----------------------------------------------------------------------
class TestIndexedGenerator:
    def test_exact_surfaces_identical_to_fuzzy(self, kb, embedder, name_matrix):
        oracle = FuzzyFallbackCandidateGenerator(
            kb, embedder=embedder, name_matrix=name_matrix
        )
        indexed = IndexedCandidateGenerator(
            kb, embedder=embedder, name_matrix=name_matrix
        )
        for node in range(0, kb.num_nodes, max(1, kb.num_nodes // 20)):
            surface = kb.node_name(node)
            assert np.array_equal(
                oracle.candidates_for(surface), indexed.candidates_for(surface)
            )

    def test_full_coverage_shortlist_matches_oracle_exactly(
        self, kb, embedder, name_matrix, typo_surfaces
    ):
        """With stop-gramming off and the shortlist as large as the KB,
        every node the oracle can score is in the shortlist — the indexed
        generator must reproduce the oracle bit-for-bit."""
        oracle = FuzzyFallbackCandidateGenerator(
            kb, embedder=embedder, name_matrix=name_matrix
        )
        indexed = IndexedCandidateGenerator(
            kb,
            embedder=embedder,
            name_matrix=name_matrix,
            retrieval=RetrievalConfig(shortlist=kb.num_nodes, max_df_ratio=1.0),
        )
        for surface in typo_surfaces:
            assert np.array_equal(
                oracle.candidates_for(surface), indexed.candidates_for(surface)
            )

    def test_recall_on_typo_corpus(self, kb, embedder, name_matrix, typo_surfaces):
        oracle = FuzzyFallbackCandidateGenerator(
            kb, embedder=embedder, name_matrix=name_matrix
        )
        indexed = IndexedCandidateGenerator(
            kb,
            embedder=embedder,
            name_matrix=name_matrix,
            # Stop-gramming off: max_df_ratio is tuned per KB scale and
            # 5% of a tiny test KB is a handful of nodes.
            retrieval=RetrievalConfig(max_df_ratio=1.0),
        )
        hits = total = 0
        for surface in typo_surfaces:
            want = set(oracle.candidates_for(surface).tolist())
            got = set(indexed.candidates_for(surface).tolist())
            total += len(want)
            hits += len(want & got)
        assert total > 0
        assert hits / total >= 0.95

    def test_retrieval_accepts_dict(self, kb, embedder, name_matrix):
        gen = IndexedCandidateGenerator(
            kb,
            embedder=embedder,
            name_matrix=name_matrix,
            retrieval={"shortlist": 32},
        )
        assert gen.retrieval_config.shortlist == 32

    def test_retrieval_rejects_bad_type(self, kb, embedder, name_matrix):
        with pytest.raises(ValueError, match="RetrievalConfig"):
            IndexedCandidateGenerator(
                kb, embedder=embedder, name_matrix=name_matrix, retrieval=42
            )

    def test_generator_counts_fallbacks(self, kb, embedder, name_matrix, typo_surfaces):
        gen = IndexedCandidateGenerator(kb, embedder=embedder, name_matrix=name_matrix)
        gen.candidates_for(kb.node_name(0))
        gen.candidates_for(typo_surfaces[0])
        assert gen.index_hits == 1
        assert gen.fallback_hits == 1


# ----------------------------------------------------------------------
# Packing into (and loading out of) bundles
# ----------------------------------------------------------------------
class TestPackedIndexes:
    def test_bundle_round_trip_is_bit_exact(self, pipeline, typo_surfaces, tmp_path):
        kb = pipeline.kb
        config = RetrievalConfig()
        built = build_retrieval_index(kb, config)
        directory = str(tmp_path / "bundle")
        manifest = pack_bundle(
            pipeline, directory, embeddings=False, retrieval_index=built
        )
        entry = manifest["retrieval"]
        assert entry["backend"] == "ngram"
        assert int(entry["fingerprint"]) == built.fingerprint
        for meta in entry["arrays"].values():
            assert set(meta) == {"shape", "dtype", "crc"}

        loaded = load_packed_index(
            directory, config, expected_fingerprint=built.fingerprint
        )
        assert loaded is not None
        for name, array in built.arrays().items():
            assert np.array_equal(loaded.arrays()[name], array)
        for surface in typo_surfaces[:10]:
            assert np.array_equal(loaded.query(surface), built.query(surface))

    def test_stale_or_missing_loads_as_none(self, pipeline, tmp_path):
        kb = pipeline.kb
        config = RetrievalConfig()
        built = build_retrieval_index(kb, config)
        empty = str(tmp_path / "empty")
        assert load_packed_index(empty, config, built.fingerprint) is None

        directory = str(tmp_path / "bundle")
        pack_bundle(pipeline, directory, embeddings=False, retrieval_index=built)
        # A fingerprint mismatch means stale: a rebuild signal, not an error.
        assert load_packed_index(directory, config, built.fingerprint ^ 1) is None

    def test_corrupt_arrays_raise_storage_error(self, pipeline, tmp_path):
        kb = pipeline.kb
        config = RetrievalConfig()
        built = build_retrieval_index(kb, config)
        directory = str(tmp_path / "bundle")
        pack_bundle(pipeline, directory, embeddings=False, retrieval_index=built)
        target = str(tmp_path / "bundle" / "retrieval_postings.npy")
        with open(target, "wb") as fh:
            fh.write(b"not a numpy file")
        with pytest.raises(StorageError, match="retrieval_postings"):
            load_packed_index(directory, config, built.fingerprint)

    def test_mis_shaped_array_raises_storage_error(self, pipeline, tmp_path):
        kb = pipeline.kb
        config = RetrievalConfig()
        built = build_retrieval_index(kb, config)
        directory = str(tmp_path / "bundle")
        pack_bundle(pipeline, directory, embeddings=False, retrieval_index=built)
        target = str(tmp_path / "bundle" / "retrieval_norms.npy")
        np.save(target, np.zeros(3, dtype=np.float32))
        with pytest.raises(StorageError, match="shape/dtype"):
            load_packed_index(directory, config, built.fingerprint)

    def test_generator_repacks_stale_bundles(self, pipeline, typo_surfaces, tmp_path):
        kb = pipeline.kb
        directory = str(tmp_path / "bundle")
        pack_bundle(pipeline, directory, embeddings=False)

        config = RetrievalConfig(bundle_path=directory)
        first = IndexedCandidateGenerator(
            kb, embedder=pipeline.embedder, retrieval=config
        )
        # No packed index yet: the generator builds one and repacks.
        assert first.repacked is True
        second = IndexedCandidateGenerator(
            kb, embedder=pipeline.embedder, retrieval=config
        )
        # Now it maps the packed copy instead of rebuilding.
        assert second.repacked is False
        for surface in typo_surfaces[:5]:
            assert np.array_equal(
                first.candidates_for(surface), second.candidates_for(surface)
            )
        # A different config fails the packed copy's fingerprint: rebuilt
        # and repacked, then mapped on the next start.
        narrow = RetrievalConfig(shortlist=7, bundle_path=directory)
        stale = IndexedCandidateGenerator(kb, embedder=pipeline.embedder, retrieval=narrow)
        assert stale.repacked is True
        again = IndexedCandidateGenerator(kb, embedder=pipeline.embedder, retrieval=narrow)
        assert again.repacked is False

    def test_repack_needs_an_existing_bundle(self, pipeline, tmp_path):
        built = build_retrieval_index(pipeline.kb, RetrievalConfig())
        assert repack_index(str(tmp_path / "nowhere"), built) is False


# ----------------------------------------------------------------------
# Serving integration: stats + prediction parity
# ----------------------------------------------------------------------
class TestCandidateTelemetry:
    def test_record_and_percentiles(self):
        stats = ServiceStats()
        stats.record_candidates(0.002)
        stats.record_candidates(0.004)
        stats.record_candidate_sources("indexed", index_hits=3, fallbacks=1)
        assert stats.candidate_lookups == 2
        assert stats.candidate_generator == "indexed"
        assert stats.candidate_index_hits == 3
        assert stats.candidate_fallbacks == 1
        assert 2.0 <= stats.candidate_percentile(50) <= 4.0
        payload = stats.to_dict()
        assert payload["candidate_generator"] == "indexed"
        assert payload["candidate_lookups"] == 2

    def test_prometheus_series(self):
        stats = ServiceStats()
        stats.record_candidates(0.001)
        stats.record_candidate_sources("indexed", index_hits=1, fallbacks=0)
        text = stats.to_prometheus()
        assert "repro_candidates_lookups_total 1" in text
        assert "repro_candidates_index_hits_total 1" in text
        assert "repro_candidates_stage_ms_count 1" in text
        assert 'repro_candidates_info{generator="indexed"} 1' in text

    def test_reset_clears_candidate_counters(self):
        stats = ServiceStats()
        stats.record_candidates(0.001)
        stats.record_candidate_sources("indexed", index_hits=1, fallbacks=2)
        stats.reset()
        assert stats.candidate_lookups == 0
        assert stats.candidate_generator == "exact"
        assert stats.candidate_fallbacks == 0


class TestServingParity:
    def test_top1_predictions_match_fuzzy(self, dataset, pipeline):
        """When the shortlist holds every row the oracle edit-filters, the
        indexed generator feeds the ranker the same candidate set — top-1
        predictions must be unchanged."""
        linker = Linker(pipeline)
        retrieval = RetrievalConfig(shortlist=pipeline.kb.num_nodes, max_df_ratio=1.0)
        snippets = dataset.test[:10] or dataset.train[:10]

        linker.use_candidate_generator("fuzzy")
        fuzzy_top = [
            linker.disambiguate_snippet(s, top_k=1).top() for s in snippets
        ]
        linker.use_candidate_generator("indexed", retrieval=retrieval)
        assert linker.config.candidate_generator == "indexed"
        indexed_top = [
            linker.disambiguate_snippet(s, top_k=1).top() for s in snippets
        ]
        assert indexed_top == fuzzy_top
