"""Declarative construction config for the :class:`~repro.api.Linker`.

One frozen dataclass describes a full linker: the nested
:class:`~repro.core.model.ModelConfig` /
:class:`~repro.core.trainer.TrainConfig` /
:class:`~repro.serving.ServiceConfig`, plus the *names* of the pluggable
components (candidate generator, NER, embedder — see
:mod:`repro.api.registry`) and their kwargs.  The ``retrieval`` section
(:class:`~repro.retrieval.RetrievalConfig`) shapes the sublinear
n-gram shortlist index the ``"indexed"`` candidate generator uses; the
generator itself defaults to ``"exact"``.  The service section covers
the full serving surface: batching, caching, the KB bundle to serve
from, admission, and the HTTP front door
(``ServiceConfig(http=HttpConfig(port=8080))`` declares the server
``Linker.serve(http_port=...)`` starts).  ``to_json``/``from_json`` round-trip
exactly, the payload is schema-versioned, and parsing is strict: unknown
keys, unknown component names, unknown backend names, and unsupported
versions are rejected rather than ignored — a config that parses is a
config that constructs.  A payload of an earlier schema version is
rejected with a message naming every key removed since that version.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from ..core.serialization import (
    ensure_known_keys,
    model_config_from_dict,
    model_config_to_dict,
    train_config_from_dict,
    train_config_to_dict,
)
from ..core.model import ModelConfig
from ..core.trainer import TrainConfig
from ..retrieval.base import RetrievalConfig
from ..serving.service import ServiceConfig
from .registry import CANDIDATE_GENERATORS, EMBEDDERS, ENCODERS, NERS

__all__ = ["LinkerConfig", "CONFIG_SCHEMA_VERSION"]

#: bump when the JSON layout changes incompatibly
CONFIG_SCHEMA_VERSION = 5

#: keys of each earlier schema version that the next version removed:
#: version 2 dropped the process shard backend and its shared-memory
#: payloads, version 3 the LSH retrieval backend and the adaptive
#: admission tuner, version 4 the thread shards and the ``.npz``
#: reference-embedding cache, version 5 the ``storage`` section (a
#: bundle path alone selects the mmap bundle)
_REMOVED_KEYS = {
    1: (
        "service.shard_backend",
        "service.shard_workers",
        "service.storage.share_payloads",
    ),
    2: (
        "retrieval.backend",
        "retrieval.num_bands",
        "retrieval.band_bits",
        "retrieval.probe_radius",
        "service.admission.adaptive",
        "service.admission.target_p95_ms",
        "service.admission.tuner_window",
        "service.admission.tuner_interval_ms",
        "service.admission.min_deadline_ms",
        "service.admission.max_deadline_ms",
        "service.admission.min_batch_size",
    ),
    3: (
        "service.num_shards",
        "service.ref_cache_path",
    ),
    4: (
        "service.storage.kb_store",
        "service.storage.bundle_path",
    ),
}

#: removed keys whose setting lives on under a new name
_MOVED_KEYS = {"service.storage.bundle_path": "service.bundle_path"}

_TOP_LEVEL_KEYS = frozenset(
    {
        "schema_version",
        "model",
        "train",
        "service",
        "retrieval",
        "augment_query_graphs",
        "candidate_generator",
        "candidate_generator_kwargs",
        "ner",
        "ner_kwargs",
        "embedder",
        "embedder_kwargs",
    }
)


def _nested_from_dict(kind: str, payload: dict, builder):
    """Build a nested config dataclass, converting the ``TypeError`` an
    unexpected key raises (or the ``KeyError`` a missing one raises) into
    a sited ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(f"LinkerConfig {kind!r} section must be an object")
    try:
        return builder(payload)
    except TypeError as exc:
        raise ValueError(f"bad {kind} section in LinkerConfig: {exc}") from None
    except KeyError as exc:
        raise ValueError(
            f"bad {kind} section in LinkerConfig: missing key {exc}"
        ) from None


@dataclass(frozen=True)
class LinkerConfig:
    """Everything needed to construct (and reconstruct) a Linker."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    augment_query_graphs: bool = True
    candidate_generator: str = "exact"
    candidate_generator_kwargs: dict = field(default_factory=dict)
    ner: str = "dictionary"
    ner_kwargs: dict = field(default_factory=dict)
    embedder: str = "hashing-ngram"
    embedder_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check component names against the live registries.

        Raises ``ValueError`` naming the bad component and the options.
        """
        for registry, name in (
            (CANDIDATE_GENERATORS, self.candidate_generator),
            (NERS, self.ner),
            (EMBEDDERS, self.embedder),
            (ENCODERS, self.model.variant),
        ):
            if name not in registry:
                raise ValueError(
                    f"unknown {registry.kind} {name!r}; options: {registry.names()}"
                )
        if not isinstance(self.retrieval, RetrievalConfig):
            raise ValueError(
                "LinkerConfig.retrieval must be a RetrievalConfig, got "
                f"{type(self.retrieval).__name__}"
            )
        # Baseline systems live in the encoder table so `repro evaluate`
        # dispatches through one registry, but they are pair classifiers
        # a Linker cannot construct — a config that parses must construct.
        if getattr(ENCODERS.get(self.model.variant), "baseline_cls", None) is not None:
            raise ValueError(
                f"{self.model.variant!r} is a baseline system, not a GNN "
                f"encoder; train it through repro.eval.run_system / "
                f"`repro evaluate --system {self.model.variant}`"
            )

    def with_overrides(self, **changes) -> "LinkerConfig":
        """A copy with top-level fields replaced (frozen-safe)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "model": model_config_to_dict(self.model),
            "train": train_config_to_dict(self.train),
            "service": asdict(self.service),
            "retrieval": self.retrieval.to_dict(),
            "augment_query_graphs": self.augment_query_graphs,
            "candidate_generator": self.candidate_generator,
            "candidate_generator_kwargs": dict(self.candidate_generator_kwargs),
            "ner": self.ner,
            "ner_kwargs": dict(self.ner_kwargs),
            "embedder": self.embedder,
            "embedder_kwargs": dict(self.embedder_kwargs),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "LinkerConfig":
        if not isinstance(payload, dict):
            raise ValueError("LinkerConfig payload must be a JSON object")
        version = payload.get("schema_version")
        if isinstance(version, int) and version in _REMOVED_KEYS:
            removed = [
                key
                for since in sorted(_REMOVED_KEYS)
                if since >= version
                for key in _REMOVED_KEYS[since]
            ]
            moved = "".join(
                f" (a {old} value now lives at {new})"
                for old, new in _MOVED_KEYS.items()
                if old in removed
            )
            raise ValueError(
                f"LinkerConfig schema_version {version} is no longer accepted: "
                f"the keys removed since version {version} are "
                f"{', '.join(removed)}; delete them{moved} and set "
                f"schema_version to {CONFIG_SCHEMA_VERSION}"
            )
        if version != CONFIG_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported LinkerConfig schema_version {version!r} "
                f"(expected {CONFIG_SCHEMA_VERSION})"
            )
        ensure_known_keys(payload, _TOP_LEVEL_KEYS, "LinkerConfig")
        kwargs: dict = {}
        if "model" in payload:
            kwargs["model"] = _nested_from_dict("model", payload["model"], model_config_from_dict)
        if "train" in payload:
            kwargs["train"] = _nested_from_dict("train", payload["train"], train_config_from_dict)
        if "service" in payload:
            kwargs["service"] = _nested_from_dict(
                "service", payload["service"], lambda p: ServiceConfig(**p)
            )
        if "retrieval" in payload:
            kwargs["retrieval"] = _nested_from_dict(
                "retrieval", payload["retrieval"], lambda p: RetrievalConfig(**p)
            )
        for key in (
            "augment_query_graphs",
            "candidate_generator",
            "candidate_generator_kwargs",
            "ner",
            "ner_kwargs",
            "embedder",
            "embedder_kwargs",
        ):
            if key not in payload:
                continue
            value = payload[key]
            # Parse strictly: a config that parses must construct.
            if key.endswith("_kwargs") and not isinstance(value, dict):
                raise ValueError(f"LinkerConfig {key!r} must be an object")
            if key in ("candidate_generator", "ner", "embedder") and not isinstance(value, str):
                raise ValueError(f"LinkerConfig {key!r} must be a component name")
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "LinkerConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"LinkerConfig is not valid JSON: {exc}") from None
        return cls.from_dict(payload)
