"""Tests for the repro.api front door: registries, LinkerConfig, Linker.

Covers the acceptance contract of the facade redesign:

* ``LinkerConfig.from_json(cfg.to_json())`` round-trips for every
  registered component combination (and rejects unknown keys, unknown
  component names, and bad schema versions — a v1 to v4 payload, or a
  checkpoint carrying one, fails naming every key removed since);
* the registries reject duplicate names and list options on a miss;
* a ``Linker.save`` checkpoint reproduces ``disambiguate_snippet``
  predictions bit-identically after ``Linker.load`` — equal to the
  legacy ``save_pipeline``/``load_pipeline`` path — through both
  ``LinkingService`` and ``AsyncLinkingService``.
"""

import itertools
import json

import pytest

from repro.api import (
    CANDIDATE_GENERATORS,
    CONFIG_SCHEMA_VERSION,
    EMBEDDERS,
    ENCODERS,
    LINKER_CONFIG_FILE,
    NERS,
    Linker,
    LinkerConfig,
    Registry,
    register_encoder,
)
from repro.core import (
    EDPipeline,
    ExactCandidateGenerator,
    FuzzyFallbackCandidateGenerator,
    ModelConfig,
    TrainConfig,
    load_pipeline,
    save_pipeline,
)
from repro.datasets import load_dataset
from repro.serving import ServiceConfig
from repro.text import HashingNgramEmbedder

SMALL_MODEL = dict(variant="graphsage", num_layers=2, feature_dim=32, hidden_dim=32)


#: keys a schema-version-4 payload carried that version 5 removed (the
#: storage section; its bundle path moved to service.bundle_path), with
#: their version-4 defaults
V4_REMOVED = {
    "service.storage.kb_store": "memory",
    "service.storage.bundle_path": None,
}
#: keys version 5 added, absent from every earlier payload
V5_ADDED = ("service.bundle_path",)
#: keys a schema-version-3 payload carried that version 4 removed (the
#: thread shards and the .npz reference-embedding cache), with their
#: version-3 defaults
V3_REMOVED = {
    "service.num_shards": 1,
    "service.ref_cache_path": None,
}
#: keys a schema-version-2 payload carried that version 3 removed (the
#: LSH retrieval backend and the adaptive admission tuner), with their
#: version-2 defaults
V2_REMOVED = {
    "retrieval.backend": "ngram",
    "retrieval.num_bands": 32,
    "retrieval.band_bits": 12,
    "retrieval.probe_radius": 1,
    "service.admission.adaptive": False,
    "service.admission.target_p95_ms": 0.0,
    "service.admission.tuner_window": 64,
    "service.admission.tuner_interval_ms": 250.0,
    "service.admission.min_deadline_ms": 5.0,
    "service.admission.max_deadline_ms": 250.0,
    "service.admission.min_batch_size": 1,
}
#: keys a schema-version-1 payload carried that version 2 removed
V1_REMOVED = {
    "service.shard_backend": "thread",
    "service.shard_workers": 0,
    "service.storage.share_payloads": False,
}


def legacy_payload(config: LinkerConfig, version: int) -> dict:
    """``config`` as a payload of an earlier schema version: the current
    layout without the keys added since ``version``, plus every key
    removed since ``version``."""
    payload = config.to_dict()
    payload["schema_version"] = version
    for dotted in V5_ADDED:
        *path, key = dotted.split(".")
        section = payload
        for name in path:
            section = section[name]
        del section[key]
    removed = {}
    for since, keys in (
        (1, V1_REMOVED), (2, V2_REMOVED), (3, V3_REMOVED), (4, V4_REMOVED)
    ):
        if version <= since:
            removed.update(keys)
    for dotted, value in removed.items():
        *path, key = dotted.split(".")
        section = payload
        for name in path:
            section = section.setdefault(name, {})
        section[key] = value
    return payload


def small_config(**overrides) -> LinkerConfig:
    fields = dict(
        model=ModelConfig(**SMALL_MODEL),
        train=TrainConfig(epochs=2, patience=5, seed=0),
    )
    fields.update(overrides)
    return LinkerConfig(**fields)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("NCBI", scale=0.2, use_cache=False)


@pytest.fixture(scope="module")
def trained(dataset):
    linker = Linker.from_config(small_config(), dataset.kb)
    linker.fit(dataset.train, dataset.val, dataset.test)
    return linker


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a", object)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", object)

    def test_builtin_duplicates_rejected(self):
        for registry, name in (
            (CANDIDATE_GENERATORS, "exact"),
            (NERS, "dictionary"),
            (EMBEDDERS, "hashing-ngram"),
        ):
            with pytest.raises(ValueError, match="already registered"):
                registry.register(name, object)

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match=r"exact.*fuzzy"):
            CANDIDATE_GENERATORS.get("nope")

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("decorated")
        class Widget:
            pass

        assert reg.get("decorated") is Widget
        assert "decorated" in reg and len(reg) == 1

    def test_builtin_components_registered(self):
        assert set(CANDIDATE_GENERATORS.names()) >= {"exact", "fuzzy"}
        assert "dictionary" in NERS
        assert "hashing-ngram" in EMBEDDERS


class TestEncoderRegistry:
    def test_paper_variants_present(self):
        assert set(ENCODERS.names()) >= {
            "graphsage", "rgcn", "magnn", "gcn", "gat", "han", "hetgnn",
        }

    def test_registered_encoder_reaches_model_config(self):
        # A new variant is valid in ModelConfig (and thus LinkerConfig)
        # the moment it is registered — no constructor edits.
        with pytest.raises(ValueError, match="unknown variant"):
            ModelConfig(variant="sage-alias")

        register_encoder("sage-alias", ENCODERS.get("graphsage"))
        try:
            config = LinkerConfig(model=ModelConfig(variant="sage-alias", **{
                k: v for k, v in SMALL_MODEL.items() if k != "variant"
            }))
            assert LinkerConfig.from_json(config.to_json()).model.variant == "sage-alias"
        finally:
            del ENCODERS._entries["sage-alias"]

    def test_duplicate_variant_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_encoder("graphsage", ENCODERS.get("graphsage"))


class TestLinkerConfigRoundTrip:
    def test_every_component_combination(self):
        for gen, ner, emb in itertools.product(
            CANDIDATE_GENERATORS.names(), NERS.names(), EMBEDDERS.names()
        ):
            config = small_config(
                candidate_generator=gen, ner=ner, embedder=emb,
                candidate_generator_kwargs={"top_k": 10} if gen == "fuzzy" else {},
            )
            assert LinkerConfig.from_json(config.to_json()).to_dict() == config.to_dict()

    def test_every_encoder_variant(self):
        for variant in ENCODERS.names():
            if getattr(ENCODERS.get(variant), "baseline_cls", None) is not None:
                continue  # baseline systems are not constructible encoders
            config = LinkerConfig(model=ModelConfig(variant=variant))
            assert LinkerConfig.from_json(config.to_json()).to_dict() == config.to_dict()

    def test_service_section_round_trips(self):
        config = small_config(
            service=ServiceConfig(max_batch_size=8, cache_size=0, top_k=2)
        )
        loaded = LinkerConfig.from_json(config.to_json())
        assert loaded.service == config.service

    def test_defaults_round_trip(self):
        config = LinkerConfig()
        assert LinkerConfig.from_json(config.to_json()).to_dict() == config.to_dict()

    def test_http_section_round_trips(self):
        from repro.serving import HttpConfig

        config = small_config(
            service=ServiceConfig(
                max_batch_size=8,
                http=HttpConfig(host="0.0.0.0", port=9090, max_batch=64),
            )
        )
        loaded = LinkerConfig.from_json(config.to_json())
        assert loaded.service.http == config.service.http
        assert loaded.to_dict() == config.to_dict()

    def test_bad_http_section_rejected(self):
        from repro.serving import HttpConfig

        with pytest.raises(ValueError, match="port"):
            HttpConfig(port=70000)
        with pytest.raises(ValueError, match="max_body_bytes"):
            HttpConfig(max_body_bytes=16)
        payload = small_config().to_dict()
        payload["service"]["http"] = {"port": 8080, "bogus": 1}
        with pytest.raises(ValueError, match="bad http section"):
            LinkerConfig.from_dict(payload)


class TestLinkerConfigRejection:
    def test_unknown_top_level_key(self):
        payload = LinkerConfig().to_dict()
        payload["frobnicate"] = True
        with pytest.raises(ValueError, match="unknown LinkerConfig keys.*frobnicate"):
            LinkerConfig.from_dict(payload)

    def test_bad_schema_version(self):
        payload = LinkerConfig().to_dict()
        payload["schema_version"] = CONFIG_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported LinkerConfig schema_version"):
            LinkerConfig.from_dict(payload)

    def test_v1_payload_rejected_naming_removed_keys(self):
        payload = legacy_payload(small_config(), 1)
        with pytest.raises(
            ValueError,
            match=r"schema_version 1 .*service\.shard_backend, "
            r"service\.shard_workers, service\.storage\.share_payloads",
        ) as info:
            LinkerConfig.from_dict(payload)
        # Every key removed since version 1 is named, not just version 2's.
        for key in (*V2_REMOVED, *V3_REMOVED, *V4_REMOVED):
            assert key in str(info.value)
        # Nor does the current version accept a removed key silently.
        payload["schema_version"] = CONFIG_SCHEMA_VERSION
        with pytest.raises(ValueError, match="bad service section.*shard_backend"):
            LinkerConfig.from_dict(payload)

    def test_v2_payload_rejected_naming_removed_keys(self):
        payload = legacy_payload(small_config(), 2)
        with pytest.raises(ValueError, match="schema_version 2 ") as info:
            LinkerConfig.from_dict(payload)
        for key in (*V2_REMOVED, *V3_REMOVED, *V4_REMOVED):
            assert key in str(info.value)
        for key in V1_REMOVED:
            assert key not in str(info.value)
        # Relabelled as the current version, the removed keys still fail
        # their sections instead of being dropped silently.
        payload["schema_version"] = CONFIG_SCHEMA_VERSION
        with pytest.raises(ValueError, match="bad service section.*num_shards"):
            LinkerConfig.from_dict(payload)
        for dotted in V3_REMOVED:
            del payload["service"][dotted.split(".")[-1]]
        with pytest.raises(ValueError, match="bad service section.*storage"):
            LinkerConfig.from_dict(payload)
        del payload["service"]["storage"]
        with pytest.raises(ValueError, match="bad admission section.*adaptive"):
            LinkerConfig.from_dict(payload)
        del payload["service"]["admission"]
        with pytest.raises(ValueError, match="bad retrieval section.*backend"):
            LinkerConfig.from_dict(payload)

    def test_v3_payload_rejected_naming_removed_keys(self):
        payload = legacy_payload(small_config(), 3)
        with pytest.raises(
            ValueError,
            match=r"schema_version 3 .*service\.num_shards, service\.ref_cache_path",
        ) as info:
            LinkerConfig.from_dict(payload)
        for key in V4_REMOVED:
            assert key in str(info.value)
        for key in (*V1_REMOVED, *V2_REMOVED):
            assert key not in str(info.value)
        payload["schema_version"] = CONFIG_SCHEMA_VERSION
        with pytest.raises(ValueError, match="bad service section.*num_shards"):
            LinkerConfig.from_dict(payload)

    def test_v4_payload_rejected_naming_removed_keys(self):
        payload = legacy_payload(small_config(), 4)
        with pytest.raises(
            ValueError,
            match=r"schema_version 4 .*service\.storage\.kb_store, "
            r"service\.storage\.bundle_path; delete them "
            r"\(a service\.storage\.bundle_path value now lives at "
            r"service\.bundle_path\) and set schema_version to 5",
        ) as info:
            LinkerConfig.from_dict(payload)
        for key in (*V1_REMOVED, *V2_REMOVED, *V3_REMOVED):
            assert key not in str(info.value)
        payload["schema_version"] = CONFIG_SCHEMA_VERSION
        with pytest.raises(ValueError, match="bad service section.*storage"):
            LinkerConfig.from_dict(payload)

    def test_v5_round_trips_exactly(self):
        from repro.retrieval import RetrievalConfig
        from repro.serving import AdmissionConfig

        config = small_config(
            retrieval=RetrievalConfig(shortlist=64, max_df_ratio=0.02, bundle_path="b"),
            service=ServiceConfig(
                bundle_path="kb-bundle",
                admission=AdmissionConfig(
                    shed_policy="wait", max_queue=16, max_wait_ms=40.0
                ),
            ),
        )
        payload = json.loads(config.to_json())
        assert CONFIG_SCHEMA_VERSION == 5
        assert payload["schema_version"] == 5
        loaded = LinkerConfig.from_json(config.to_json())
        assert loaded.to_dict() == config.to_dict()
        assert loaded.retrieval == config.retrieval
        assert loaded.service == config.service
        assert set(payload["service"]) == {
            "max_batch_size", "cache_size", "top_k", "restrict_to_candidates",
            "http", "bundle_path", "admission",
        }
        assert set(payload["retrieval"]) == {
            "shortlist", "ngram_size", "num_buckets", "max_df_ratio", "seed",
            "bundle_path",
        }
        assert set(payload["service"]["admission"]) == {
            "shed_policy", "max_queue", "max_wait_ms",
        }

    def test_missing_schema_version(self):
        payload = LinkerConfig().to_dict()
        del payload["schema_version"]
        with pytest.raises(ValueError, match="unsupported LinkerConfig schema_version"):
            LinkerConfig.from_dict(payload)

    def test_unknown_component_name(self):
        with pytest.raises(ValueError, match="unknown candidate generator"):
            LinkerConfig(candidate_generator="nope")
        with pytest.raises(ValueError, match="unknown ner"):
            LinkerConfig(ner="nope")
        with pytest.raises(ValueError, match="unknown embedder"):
            LinkerConfig(embedder="nope")

    def test_unknown_nested_model_key(self):
        payload = LinkerConfig().to_dict()
        payload["model"]["frobnicate"] = 1
        with pytest.raises(ValueError, match="bad model section"):
            LinkerConfig.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            LinkerConfig.from_json("{nope")

    def test_incomplete_train_section_rejected(self):
        # A hand-written minimal section must fail with a sited error,
        # not a raw KeyError from deep inside the schedule decoder.
        with pytest.raises(ValueError, match="bad train section.*curriculum"):
            LinkerConfig.from_dict(
                {"schema_version": CONFIG_SCHEMA_VERSION, "train": {"epochs": 10}}
            )

    def test_bogus_curriculum_kind_rejected(self):
        payload = LinkerConfig().to_dict()
        payload["train"]["curriculum"]["kind"] = "cirriculum"
        with pytest.raises(ValueError, match="unknown curriculum kind"):
            LinkerConfig.from_dict(payload)

    def test_non_object_kwargs_rejected(self):
        for key in ("candidate_generator_kwargs", "ner_kwargs", "embedder_kwargs"):
            payload = LinkerConfig().to_dict()
            payload[key] = "oops"
            with pytest.raises(ValueError, match=f"{key}.*must be an object"):
                LinkerConfig.from_dict(payload)

    def test_non_string_component_name_rejected(self):
        payload = LinkerConfig().to_dict()
        payload["candidate_generator"] = ["exact"]
        with pytest.raises(ValueError, match="must be a component name"):
            LinkerConfig.from_dict(payload)

    def test_baseline_variant_rejected(self):
        # Baselines live in the encoder registry (one lookup table for
        # every system) but are not constructible GNN encoders: the
        # variant parses at the ModelConfig level yet a LinkerConfig —
        # a promise that Linker.from_config works — must refuse it.
        model = ModelConfig(variant="NCEL")
        assert model.variant == "NCEL"
        with pytest.raises(ValueError, match="baseline system"):
            LinkerConfig(model=model)


class TestLinkerConstruction:
    def test_matches_direct_pipeline(self, dataset):
        # Same seed, same components -> identical weights and predictions
        # (no training needed: init is deterministic per config.seed).
        linker = Linker.from_config(small_config(), dataset.kb)
        direct = EDPipeline(
            dataset.kb,
            model_config=ModelConfig(**SMALL_MODEL),
            train_config=TrainConfig(epochs=2, patience=5, seed=0),
            embedder=HashingNgramEmbedder(dim=32),
        )
        snippet = dataset.test[0]
        a = linker.disambiguate_snippet(snippet, top_k=5)
        b = direct.disambiguate_snippet(snippet, top_k=5)
        assert a.ranked_entities == b.ranked_entities
        assert a.scores == b.scores

    def test_component_kwargs_bound(self, dataset):
        linker = Linker.from_config(
            small_config(
                candidate_generator="fuzzy",
                candidate_generator_kwargs={"top_k": 7},
            ),
            dataset.kb,
        )
        generator = linker.pipeline.candidate_generator
        assert isinstance(generator, FuzzyFallbackCandidateGenerator)
        assert generator.top_k == 7
        assert linker.pipeline.fuzzy_candidates is True

    def test_exact_generator_by_default(self, dataset):
        linker = Linker.from_config(small_config(), dataset.kb)
        assert isinstance(linker.pipeline.candidate_generator, ExactCandidateGenerator)
        assert linker.pipeline.fuzzy_candidates is False


class TestLinkerPersistence:
    def test_save_writes_self_describing_checkpoint(self, trained, tmp_path):
        trained.save(str(tmp_path))
        assert (tmp_path / LINKER_CONFIG_FILE).exists()
        payload = json.loads((tmp_path / LINKER_CONFIG_FILE).read_text())
        assert payload["schema_version"] == CONFIG_SCHEMA_VERSION
        assert payload["model"]["variant"] == "graphsage"
        # The legacy checkpoint files ride along unchanged.
        for name in ("kb.json", "config.json", "weights.npz"):
            assert (tmp_path / name).exists()

    def test_load_rejects_v2_linker_json(self, trained, tmp_path):
        trained.save(str(tmp_path))
        path = tmp_path / LINKER_CONFIG_FILE
        path.write_text(json.dumps(legacy_payload(trained.config, 2)))
        with pytest.raises(ValueError, match="schema_version 2 ") as info:
            Linker.load(str(tmp_path))
        for key in (*V2_REMOVED, *V3_REMOVED, *V4_REMOVED):
            assert key in str(info.value)

    def test_load_rejects_v3_linker_json(self, trained, tmp_path):
        trained.save(str(tmp_path))
        path = tmp_path / LINKER_CONFIG_FILE
        path.write_text(json.dumps(legacy_payload(trained.config, 3)))
        with pytest.raises(ValueError, match="schema_version 3 ") as info:
            Linker.load(str(tmp_path))
        for key in (*V3_REMOVED, *V4_REMOVED):
            assert key in str(info.value)

    def test_load_rejects_v4_linker_json(self, trained, tmp_path):
        trained.save(str(tmp_path))
        path = tmp_path / LINKER_CONFIG_FILE
        path.write_text(json.dumps(legacy_payload(trained.config, 4)))
        with pytest.raises(ValueError, match="schema_version 4 ") as info:
            Linker.load(str(tmp_path))
        for key in V4_REMOVED:
            assert key in str(info.value)
        assert "service.bundle_path" in str(info.value)

    def test_load_equals_legacy_load_bit_identically(self, dataset, trained, tmp_path):
        """Acceptance: Linker.save/load == save_pipeline/load_pipeline,
        through the facade, the engine, LinkingService, and
        AsyncLinkingService — all bit-identical."""
        facade_dir = str(tmp_path / "facade")
        legacy_dir = str(tmp_path / "legacy")
        trained.save(facade_dir)
        save_pipeline(trained.pipeline, legacy_dir)

        reference = [
            trained.disambiguate_snippet(s, top_k=5) for s in dataset.test[:6]
        ]
        loaded = Linker.load(facade_dir)
        legacy = load_pipeline(legacy_dir)
        for snippet, ref in zip(dataset.test[:6], reference):
            a = loaded.disambiguate_snippet(snippet, top_k=5)
            b = legacy.disambiguate_snippet(snippet, top_k=5)
            assert a.ranked_entities == ref.ranked_entities == b.ranked_entities
            assert a.scores == ref.scores == b.scores

        service = loaded.serve(cache_size=0)
        batched = service.link_batch(dataset.test[:6], top_k=5)
        for ref, prediction in zip(reference, batched):
            assert prediction.ranked_entities == ref.ranked_entities
            assert prediction.scores == ref.scores

        with loaded.serve(async_=True, deadline_ms=15.0, cache_size=0) as async_service:
            futures = [async_service.submit(s) for s in dataset.test[:6]]
            for ref, future in zip(reference, futures):
                prediction = future.result(timeout=30.0)
                assert prediction.ranked_entities == ref.ranked_entities
                assert prediction.scores == ref.scores

    def test_load_legacy_checkpoint_without_linker_json(self, dataset, trained, tmp_path):
        save_pipeline(trained.pipeline, str(tmp_path))
        assert not (tmp_path / LINKER_CONFIG_FILE).exists()
        loaded = Linker.load(str(tmp_path))
        snippet = dataset.test[0]
        a = loaded.disambiguate_snippet(snippet, top_k=3)
        b = trained.disambiguate_snippet(snippet, top_k=3)
        assert a.ranked_entities == b.ranked_entities
        assert a.scores == b.scores
        # The inferred config re-saves as a facade checkpoint.
        assert loaded.config.candidate_generator == "exact"

    def test_mismatched_sections_rejected(self, trained, tmp_path):
        trained.save(str(tmp_path))
        path = tmp_path / LINKER_CONFIG_FILE
        payload = json.loads(path.read_text())
        payload["model"]["num_layers"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagree on the model section"):
            Linker.load(str(tmp_path))


class TestLinkerServe:
    def test_serve_honours_config_service_section(self, dataset, trained):
        service = trained.serve()
        assert service.config == trained.config.service
        service.close()

    def test_serve_overrides(self, trained):
        service = trained.serve(max_batch_size=4, cache_size=0)
        assert service.config.max_batch_size == 4
        assert service.config.cache_size == 0
        # The declarative config is untouched by per-call overrides.
        assert trained.config.service.max_batch_size == ServiceConfig().max_batch_size
        service.close()

    def test_linking_service_accepts_linker(self, dataset, trained):
        from repro.serving import LinkingService

        service = LinkingService(trained, ServiceConfig(cache_size=0))
        assert service.pipeline is trained.pipeline
        [p] = service.link_batch(dataset.test[:1], top_k=3)
        q = trained.disambiguate_snippet(dataset.test[0], top_k=3)
        assert p.ranked_entities == q.ranked_entities
        service.close()


class TestTrainedConfigReflectsEngine(object):
    def test_magnn_metapaths_survive_round_trip(self, tmp_path):
        dataset = load_dataset("NCBI", scale=0.2, use_cache=False)
        linker = Linker.from_config(
            LinkerConfig(
                model=ModelConfig(
                    variant="magnn", num_layers=1, feature_dim=16,
                    hidden_dim=16, attention_dim=8,
                ),
                train=TrainConfig(epochs=1, patience=2),
            ),
            dataset.kb,
        )
        # Construction selected data-driven metapaths on the engine copy;
        # the declarative input config stays declarative, the live config
        # reflects the engine.
        assert linker.pipeline.model_config.metapaths is not None
        assert linker.config.model.metapaths is not None
        linker.save(str(tmp_path))
        loaded = Linker.load(str(tmp_path))
        assert loaded.pipeline.model_config.metapaths == linker.pipeline.model_config.metapaths
