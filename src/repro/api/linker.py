"""The front door: a composable linker facade over the ED-GNN engine.

``Linker`` assembles the pipeline from a declarative
:class:`~repro.api.LinkerConfig` (components resolved through the
:mod:`repro.api.registry` tables), trains it, persists it as a
*self-describing* checkpoint (the standard pipeline checkpoint plus a
``linker.json`` carrying the full config), and hands out ready serving
frontends:

    cfg = LinkerConfig(model=ModelConfig(variant="rgcn"))
    linker = Linker.from_config(cfg, kb)
    linker.fit(train, val, test)
    linker.save("ckpt/")                      # later: Linker.load("ckpt/")
    service = linker.serve()                  # LinkingService
    async_service = linker.serve(async_=True) # AsyncLinkingService

Everything the facade produces is bit-identical to driving
:class:`~repro.core.pipeline.EDPipeline` directly — the facade only owns
construction and wiring, never the math.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import replace
from functools import partial
from typing import Optional, Sequence

from ..core.pipeline import EDPipeline, Prediction
from ..core.serialization import (
    load_pipeline,
    model_config_to_dict,
    save_pipeline,
)
from ..core.trainer import TrainResult
from ..graph.hetero import HeteroGraph
from ..graph.io import load_graph
from ..text.corpus import Snippet
from .config import LinkerConfig
from .registry import CANDIDATE_GENERATORS, EMBEDDERS, NERS

__all__ = ["Linker", "LINKER_CONFIG_FILE"]

LINKER_CONFIG_FILE = "linker.json"


class Linker:
    """Facade over a (possibly trained) :class:`EDPipeline`.

    Build through :meth:`from_config` or :meth:`load`; the raw engine
    stays reachable as :attr:`pipeline` for internals the facade does not
    wrap (the explainer, the trainer, staged scoring).
    """

    def __init__(self, pipeline: EDPipeline, config: Optional[LinkerConfig] = None):
        self.pipeline = pipeline
        self._config = config if config is not None else self._infer_config(pipeline)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: LinkerConfig, kb: HeteroGraph) -> "Linker":
        """Assemble the pipeline: resolve the named components from the
        registries, bind their kwargs, and hand the engine deep copies of
        the nested configs (the engine mutates them — e.g. MAGNN metapath
        selection — and the declarative config must stay declarative)."""
        config.validate()
        embedder_kwargs = dict(config.embedder_kwargs)
        embedder_kwargs.setdefault("dim", config.model.feature_dim)
        embedder = EMBEDDERS.get(config.embedder)(**embedder_kwargs)
        generator_factory = CANDIDATE_GENERATORS.get(config.candidate_generator)
        generator_kwargs = dict(config.candidate_generator_kwargs)
        if getattr(generator_factory, "consumes_retrieval_config", False):
            # Only retrieval-aware factories (the "indexed" generator) see
            # the retrieval section; plain ones keep their old signature.
            generator_kwargs.setdefault("retrieval", config.retrieval)
        generator = partial(generator_factory, **generator_kwargs)
        ner = partial(NERS.get(config.ner), **config.ner_kwargs)
        pipeline = EDPipeline(
            kb,
            model_config=copy.deepcopy(config.model),
            train_config=copy.deepcopy(config.train),
            augment_query_graphs=config.augment_query_graphs,
            embedder=embedder,
            candidate_generator=generator,
            ner=ner,
        )
        return cls(pipeline, config)

    @staticmethod
    def _infer_config(pipeline: EDPipeline) -> LinkerConfig:
        """Best-effort config for a pipeline built outside the facade
        (legacy checkpoints, direct ``EDPipeline(...)`` construction)."""
        live = pipeline.candidate_generator
        name = getattr(live, "name", None)
        if name not in CANDIDATE_GENERATORS:
            name = "fuzzy" if pipeline.fuzzy_candidates else "exact"
        extra = {}
        retrieval = getattr(live, "retrieval_config", None)
        if retrieval is not None:
            extra["retrieval"] = retrieval
        return LinkerConfig(
            model=pipeline.model_config,
            train=pipeline.train_config,
            augment_query_graphs=pipeline.augment,
            candidate_generator=name,
            **extra,
            embedder_kwargs={
                "ngram_range": list(pipeline.embedder.ngram_range),
                "use_words": pipeline.embedder.use_words,
                "seed": pipeline.embedder.seed,
            },
        )

    @property
    def config(self) -> LinkerConfig:
        """The declarative config, with nested sections reflecting the
        *live* engine state (metapath selection happens at construction,
        so the saved config reconstructs the exact same model)."""
        return replace(
            self._config,
            model=self.pipeline.model_config,
            train=self.pipeline.train_config,
        )

    def use_candidate_generator(self, name: str, retrieval=None, **kwargs) -> "Linker":
        """Swap the pipeline's candidate-generation stage in place.

        ``name`` is a :data:`~repro.api.CANDIDATE_GENERATORS` entry;
        ``retrieval`` (a :class:`~repro.retrieval.RetrievalConfig` or its
        dict form) replaces the config's retrieval section — the hook
        ``repro serve --candidates indexed`` uses to re-point a loaded
        checkpoint at a packed index bundle.  Returns ``self`` so the
        call chains into :meth:`serve`.
        """
        factory = CANDIDATE_GENERATORS.get(name)
        changes: dict = {
            "candidate_generator": name,
            "candidate_generator_kwargs": dict(kwargs),
        }
        if retrieval is not None:
            if isinstance(retrieval, dict):
                from ..retrieval import RetrievalConfig

                retrieval = RetrievalConfig(**retrieval)
            changes["retrieval"] = retrieval
        config = replace(self._config, **changes)
        call_kwargs = dict(kwargs)
        if getattr(factory, "consumes_retrieval_config", False):
            call_kwargs.setdefault("retrieval", config.retrieval)
        self.pipeline.candidate_generator = factory(
            self.pipeline.kb,
            index=self.pipeline.index,
            embedder=self.pipeline.embedder,
            **call_kwargs,
        )
        self._config = config
        return self

    # ------------------------------------------------------------------
    # Engine delegation
    # ------------------------------------------------------------------
    @property
    def kb(self) -> HeteroGraph:
        return self.pipeline.kb

    @property
    def model(self):
        return self.pipeline.model

    def fit(
        self,
        train_snippets: Sequence[Snippet],
        val_snippets: Sequence[Snippet],
        test_snippets: Sequence[Snippet],
    ) -> TrainResult:
        return self.pipeline.fit(train_snippets, val_snippets, test_snippets)

    def disambiguate(
        self,
        text: str,
        ambiguous_surface: Optional[str] = None,
        top_k: int = 5,
        restrict_to_candidates: bool = True,
    ) -> Prediction:
        return self.pipeline.disambiguate(
            text, ambiguous_surface, top_k=top_k,
            restrict_to_candidates=restrict_to_candidates,
        )

    def disambiguate_snippet(
        self,
        snippet: Snippet,
        top_k: int = 5,
        restrict_to_candidates: bool = True,
    ) -> Prediction:
        return self.pipeline.disambiguate_snippet(snippet, top_k, restrict_to_candidates)

    def snippet_from_text(self, text: str, ambiguous_surface: Optional[str] = None) -> Snippet:
        return self.pipeline.snippet_from_text(text, ambiguous_surface)

    def entity_name(self, entity_id: int) -> str:
        return self.pipeline.entity_name(entity_id)

    # ------------------------------------------------------------------
    # Persistence (self-describing checkpoints)
    # ------------------------------------------------------------------
    def save(self, directory: str) -> None:
        """Write the standard pipeline checkpoint plus ``linker.json``
        (the full config, service section included), so :meth:`load`
        needs nothing but the directory."""
        save_pipeline(self.pipeline, directory)
        with open(os.path.join(directory, LINKER_CONFIG_FILE), "w", encoding="utf-8") as fh:
            fh.write(self.config.to_json())

    @classmethod
    def load(cls, directory: str) -> "Linker":
        """Rebuild from a checkpoint directory.

        A facade checkpoint reconstructs through :meth:`from_config` (the
        registries resolve the same components that were saved); a legacy
        ``save_pipeline`` checkpoint — no ``linker.json`` — loads through
        :func:`load_pipeline` and infers its config.  Predictions are
        identical either way.
        """
        config_path = os.path.join(directory, LINKER_CONFIG_FILE)
        if not os.path.exists(config_path):
            return cls(load_pipeline(directory))
        with open(config_path, encoding="utf-8") as fh:
            config = LinkerConfig.from_json(fh.read())
        # Consistency guard: linker.json and config.json describe one
        # checkpoint; the model weights are keyed by the model section.
        with open(os.path.join(directory, "config.json"), encoding="utf-8") as fh:
            legacy = json.load(fh)
        if legacy.get("model") != model_config_to_dict(config.model):
            raise ValueError(
                f"{LINKER_CONFIG_FILE} and config.json disagree on the model "
                f"section in {directory}; the checkpoint is corrupt"
            )
        kb = load_graph(os.path.join(directory, "kb.json"))
        linker = cls.from_config(config, kb)

        from ..autograd.serialization import load_state

        load_state(linker.pipeline.model, os.path.join(directory, "weights.npz"))
        return linker

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        async_: bool = False,
        storage=None,
        admission=None,
        deadline_ms: Optional[float] = None,
        http_port: Optional[int] = None,
        http_host: Optional[str] = None,
        **overrides,
    ):
        """A ready serving frontend over this linker.

        Returns a :class:`~repro.serving.LinkingService` built from the
        config's service section (any
        :class:`~repro.serving.ServiceConfig` field overriding it, e.g.
        ``linker.serve(cache_size=0)``), or — with ``async_=True`` — an
        :class:`~repro.serving.AsyncLinkingService` wrapping one, which
        flushes a micro-batch once it is full or its oldest request has
        waited ``deadline_ms`` (default 25 ms).

        ``storage`` picks where the KB matrices live
        (:class:`~repro.storage.StorageConfig`, its dict form, or just a
        backend name) — ``linker.serve(storage="mmap")`` serves both
        matrices as read-only memory maps of a packed bundle, and
        ``storage=StorageConfig(kb_store="mmap", bundle_path=...)``
        reuses a ``repro kb pack`` bundle so startup skips the embedding
        forward entirely.

        ``admission`` sets the overload policy of the async scheduler
        (:class:`~repro.serving.AdmissionConfig`, its dict form, or just
        a shed-policy name) — ``linker.serve(async_=True,
        admission="depth")`` bounds the queue and sheds the overflow as
        429s, ``admission=AdmissionConfig(shed_policy="wait")`` also
        sheds arrivals whose estimated queue wait exceeds the budget.
        The config's ``service.admission`` section (by default no
        shedding) applies when omitted.

        ``http_port`` turns the frontend into a *started*
        :class:`~repro.serving.LinkingHTTPServer` over the async service
        (``http_port=0`` binds an ephemeral port, read back from
        ``server.port``).  The config's ``service.http`` section supplies
        the defaults; ``http_host`` / ``deadline_ms`` override it:

            server = linker.serve(http_port=0)
            with LinkerClient(port=server.port) as client:
                client.link(text="...")
            server.close()

        Async services and HTTP servers are context managers; close them
        to drain the queue.
        """
        from ..serving import AsyncLinkingService, HttpConfig, LinkingHTTPServer, LinkingService

        service_config = self._config.service
        if storage is not None:
            from ..storage import StorageConfig

            if isinstance(storage, str):
                storage = StorageConfig(kb_store=storage)
            elif isinstance(storage, dict):
                storage = StorageConfig(**storage)
            elif not isinstance(storage, StorageConfig):
                raise ValueError(
                    "storage must be a StorageConfig, its dict form, "
                    "or a backend name"
                )
            overrides["storage"] = storage
        if admission is not None:
            from ..serving import AdmissionConfig

            if isinstance(admission, str):
                admission = AdmissionConfig(shed_policy=admission)
            elif isinstance(admission, dict):
                admission = AdmissionConfig(**admission)
            elif not isinstance(admission, AdmissionConfig):
                raise ValueError(
                    "admission must be an AdmissionConfig, its dict form, "
                    "or a shed-policy name"
                )
            overrides["admission"] = admission
        if overrides:
            service_config = replace(service_config, **overrides)
        service = LinkingService(self.pipeline, service_config)
        if http_port is not None:
            base = service_config.http or HttpConfig()
            http_config = replace(
                base,
                port=http_port,
                host=http_host if http_host is not None else base.host,
                deadline_ms=deadline_ms if deadline_ms is not None else base.deadline_ms,
            )
            async_service = AsyncLinkingService(
                service, deadline_ms=http_config.deadline_ms
            )
            return LinkingHTTPServer(async_service, http_config).start()
        if async_:
            return AsyncLinkingService(
                service, deadline_ms=25.0 if deadline_ms is None else deadline_ms
            )
        return service
