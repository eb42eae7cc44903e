"""Batched, cached inference over a fitted :class:`~repro.core.pipeline.EDPipeline`.

The pipeline's :meth:`disambiguate_snippet` ranks candidates for one
mention at a time, paying per call for a query-graph compile and a GNN
forward.  ``LinkingService`` amortises those costs for service-style
traffic:

* the **reference-embedding cache** — KB node embeddings are computed
  once at construction and reused for every request; a fingerprint over
  the model weights and the KB shape invalidates the cache when either
  changes.  With ``bundle_path`` set, both KB matrices are served as
  read-only maps of a ``repro kb pack`` bundle (:mod:`repro.storage`),
  which also persists ``h_ref`` so a start skips the KB forward;
* the **result LRU cache** — looked up before any work, under what the
  query-graph builder and the candidate generator read: the snippet's
  (mention, category) pairs, its ambiguous index and the restrict flag.
  An entry holds the whole ranking as numpy arrays, so a repeat at any
  ``top_k`` skips the model entirely;
* the **micro-batch scheduler** — only the misses build query graphs and
  generate candidates, and they are scored ``max_batch_size`` at a time
  by the pipeline's batched scorer
  (:meth:`~repro.core.pipeline.EDPipeline.score_candidates`: one
  disjoint-union forward and one ``score_pairs`` call);
* :class:`~repro.serving.stats.ServiceStats` — throughput, cache hit
  rate, and batch-size telemetry, surfaced by ``repro serve``.

Rankings are the sequential pipeline's: the scorer and the ranking are
the ones :meth:`disambiguate_snippet` calls, and a disjoint union has no
cross-graph edges.  Scores agree up to float32 rounding of the batched
forward; they are bit-identical for a batch of one, and a cache hit
returns the bits its entry's first computation stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from ..core.pipeline import EDPipeline, Prediction, Ranking, check_top_k, rank
from ..core.query_graph import QueryGraph, build_query_graph
from ..storage.bundle import MmapStore
from ..storage.bundle import content_fingerprint as _content_fingerprint
from ..storage.bundle import weights_crc as _weights_crc
from ..text.corpus import Snippet
from ..text.embedder import HashingNgramEmbedder
from .admission import AdmissionConfig
from .cache import LRUCache
from .stats import ServiceStats


class MemoizingEmbedder:
    """Surface-embedding memo over a :class:`HashingNgramEmbedder`.

    The hashing embedder is a deterministic pure function of the text, so
    memoising it is exact; in serving traffic the same mention surfaces
    recur across requests, and re-hashing them dominates query-graph
    construction.  Bounded LRU so a high-cardinality stream cannot grow
    it without limit.
    """

    def __init__(self, inner: HashingNgramEmbedder, capacity: int = 65536):
        self.inner = inner
        self._memo = LRUCache(capacity)

    @property
    def dim(self) -> int:
        return self.inner.dim

    def embed(self, text: str) -> np.ndarray:
        vec = self._memo.get(text)
        if vec is None:
            vec = self.inner.embed(text)
            self._memo.put(text, vec)
        return vec

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.inner.dim), dtype=np.float32)
        return np.stack([self.embed(t) for t in texts])


@dataclass(frozen=True)
class HttpConfig:
    """The network endpoint of the HTTP front door
    (:class:`~repro.serving.http.LinkingHTTPServer`).

    Lives inside :class:`ServiceConfig` as the optional ``http`` section,
    so a :class:`~repro.api.LinkerConfig` JSON can declare a fully
    network-served linker; the round trip is strict and exact like every
    other config section.
    """

    host: str = "127.0.0.1"
    port: int = 8080  # 0 binds an ephemeral port (see server.port)
    max_batch: int = 256  # items per /link request; more is a 413
    max_body_bytes: int = 4 * 1024 * 1024  # request body cap; more is a 413
    deadline_ms: float = 25.0  # scheduler budget of the wrapped async service

    def __post_init__(self):
        if not (0 <= self.port <= 65535):
            raise ValueError("http port must be in [0, 65535]")
        if self.max_batch < 1:
            raise ValueError("http max_batch must be >= 1")
        if self.max_body_bytes < 1024:
            raise ValueError("http max_body_bytes must be >= 1024")
        if self.deadline_ms <= 0:
            raise ValueError("http deadline_ms must be > 0")


@dataclass
class ServiceConfig:
    """Knobs of the linking service."""

    max_batch_size: int = 32  # query graphs per disjoint-union forward
    cache_size: int = 2048  # LRU entries; <= 0 disables the result cache
    top_k: int = 5  # ranked candidates returned per mention; >= 1
    restrict_to_candidates: bool = True
    # Optional network front door (repro.serving.http); a dict — the shape
    # dataclasses.asdict and the LinkerConfig JSON round trip produce — is
    # strictly coerced into an HttpConfig.
    http: Optional[HttpConfig] = None
    # A `repro kb pack` bundle directory: serve x_ref and h_ref as its
    # read-only maps (repro.storage).  None serves the live arrays.
    bundle_path: Optional[str] = None
    # Overload policy of the async scheduler (repro.serving.admission):
    # queue bound, shed policy and priorities.  Same strict dict
    # coercion as http, so it round-trips through LinkerConfig JSON.
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        check_top_k(self.top_k)
        if isinstance(self.http, dict):
            try:
                self.http = HttpConfig(**self.http)
            except TypeError as exc:
                raise ValueError(f"bad http section in ServiceConfig: {exc}") from None
        elif self.http is not None and not isinstance(self.http, HttpConfig):
            raise ValueError("ServiceConfig http must be an HttpConfig (or its dict form)")
        if self.bundle_path is not None and not isinstance(self.bundle_path, str):
            raise ValueError("ServiceConfig bundle_path must be a path string (or null)")
        if isinstance(self.admission, dict):
            try:
                self.admission = AdmissionConfig(**self.admission)
            except TypeError as exc:
                raise ValueError(
                    f"bad admission section in ServiceConfig: {exc}"
                ) from None
        elif not isinstance(self.admission, AdmissionConfig):
            raise ValueError(
                "ServiceConfig admission must be an AdmissionConfig (or its dict form)"
            )


class LinkingService:
    """High-throughput entity-linking frontend over a fitted pipeline.

    Accepts either the raw :class:`EDPipeline` engine or a
    :class:`repro.api.Linker` facade (unwrapped on entry; prefer
    ``Linker.serve()`` which also applies the config's service section).
    """

    def __init__(self, pipeline, config: Optional[ServiceConfig] = None):
        if not isinstance(pipeline, EDPipeline):
            # A Linker facade (duck-typed: serving must not import the
            # api layer, which sits above it).
            pipeline = getattr(pipeline, "pipeline", pipeline)
        self.pipeline = pipeline
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._cache = LRUCache(self.config.cache_size)
        self._embedder = MemoizingEmbedder(pipeline.embedder)
        self._bundle: Optional[MmapStore] = None
        if self.config.bundle_path is not None:
            self._bundle = MmapStore(pipeline.kb, self.config.bundle_path)
        self._fingerprint: Optional[tuple] = None
        self._generator = pipeline.candidate_generator
        self._h_ref: Optional[np.ndarray] = None
        self._x_ref: Optional[np.ndarray] = None
        self.refresh(force=True)

    # ------------------------------------------------------------------
    # Reference-embedding cache
    # ------------------------------------------------------------------
    def _weights_crc(self) -> int:
        return _weights_crc(self.pipeline.model)

    def fingerprint(self) -> tuple:
        """Cheap per-request dirty check: model weights checksum plus the
        KB's mutation counter and shape.  Catches weight updates and any
        KB change made through the ``HeteroGraph`` API (including edge
        rewires that keep counts constant); in-place edits of ``features``
        rows bypass it — call :meth:`refresh` with ``force=True`` after
        such surgery."""
        kb = self.pipeline.kb
        return (self._weights_crc(), kb.version, kb.num_nodes, kb.num_edges)

    def content_fingerprint(self) -> int:
        """Full content checksum (weights + KB nodes/edges/features) that
        keys the *persisted* reference-embedding matrix — unlike
        :meth:`fingerprint` it is stable across processes (it is the key
        the mmap bundle's manifest carries)."""
        return _content_fingerprint(self.pipeline)

    def refresh(self, force: bool = False) -> bool:
        """Recompute the reference embeddings if the model or KB changed
        since they were cached.  Returns True when a rebuild happened.

        Cached results are dropped on a rebuild, and also when the
        pipeline's candidate generator was swapped
        (``Linker.use_candidate_generator``): the result-cache key holds
        what the generator reads, not the generator itself."""
        generator = self.pipeline.candidate_generator
        if generator is not self._generator:
            self._generator = generator
            self._cache.clear()
        current = self.fingerprint()
        if not force and current == self._fingerprint:
            return False
        self.pipeline.invalidate_ref_cache()
        if self._bundle is None:
            h_ref = self.pipeline.ref_embeddings()
            self._x_ref = self.pipeline.kb.features
        else:
            self._bundle.refresh()
            content = self.content_fingerprint()
            h_ref = self._bundle.load(content)
            if h_ref is None:
                h_ref = self._bundle.store(content, self.pipeline.ref_embeddings())
            self._x_ref = self._bundle.features
        # Seed the pipeline's own cache so sequential calls agree (and,
        # from a bundle, score out of the same bytes).
        self.pipeline._h_ref = self._h_ref = np.asarray(h_ref)
        self._fingerprint = current
        self._cache.clear()
        self.stats.record_ref_refresh()
        self.stats.record_storage("memory" if self._bundle is None else "mmap")
        return True

    def close(self) -> None:
        """Release the bundle's maps (a no-op without a bundle)."""
        if self._bundle is not None:
            self._bundle.close()

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def link_batch(
        self,
        snippets: Sequence[Snippet],
        top_k: Optional[int] = None,
        restrict_to_candidates: Optional[bool] = None,
    ) -> List[Prediction]:
        """Link the ambiguous mention of every snippet; order-preserving.

        Ranks as ``disambiguate_snippet`` does, with the same scorer and
        ranking, but answers from the result cache before any work and
        scores the misses in batches.  With the cache on, a repeat inside
        one request joins its pending miss and gets the same ranking.
        """
        top_k = self.config.top_k if top_k is None else check_top_k(top_k)
        restrict = (
            self.config.restrict_to_candidates
            if restrict_to_candidates is None
            else restrict_to_candidates
        )
        self.refresh()
        caching = self._cache.capacity > 0
        rankings: List[Optional[Ranking]] = [None] * len(snippets)
        pending: Dict[Hashable, List[int]] = {}  # miss key -> snippet indices
        hits = 0
        for i, snippet in enumerate(snippets):
            # Without the cache every snippet is its own miss.
            key = self._cache_key(snippet, restrict) if caching else i
            ranking = self._cache.get(key)
            if ranking is not None:
                rankings[i] = ranking
                hits += 1
            elif key in pending:
                pending[key].append(i)
                hits += 1
            else:
                pending[key] = [i]

        misses = list(pending.items())
        for start in range(0, len(misses), self.config.max_batch_size):
            chunk = misses[start : start + self.config.max_batch_size]
            query_graphs, candidate_sets = [], []
            for _, indices in chunk:
                snippet = snippets[indices[0]]
                qg = self._build_query_graph(snippet)
                t0 = perf_counter()
                candidates = self.pipeline.candidate_ids(
                    qg.mention_surface,
                    category=snippet.ambiguous_mention.category,
                    restrict_to_candidates=restrict,
                )
                self.stats.record_candidates(perf_counter() - t0)
                query_graphs.append(qg)
                candidate_sets.append(candidates)
            t0 = perf_counter()
            scored = self.pipeline.score_candidates(
                query_graphs, candidate_sets, self._h_ref, self._x_ref
            )
            self.stats.record_batch(len(chunk), perf_counter() - t0)
            for (key, indices), candidates, scores in zip(chunk, candidate_sets, scored):
                ranking = rank(candidates, scores)
                self._cache.put(key, ranking)
                for i in indices:
                    rankings[i] = ranking

        self.stats.record_request(len(snippets))
        self.stats.record_cache(hits, len(misses))
        generator = self.pipeline.candidate_generator
        self.stats.record_candidate_sources(
            getattr(generator, "name", type(generator).__name__),
            getattr(generator, "index_hits", 0),
            getattr(generator, "fallback_hits", 0),
        )
        return [
            Prediction.from_ranking(snippet.ambiguous_mention.mention, ranking, top_k)
            for snippet, ranking in zip(snippets, rankings)
        ]

    def link_texts(
        self,
        texts: Sequence[str],
        ambiguous_surfaces: Optional[Sequence[Optional[str]]] = None,
        top_k: Optional[int] = None,
    ) -> List[Prediction]:
        """NER + linking for raw texts (one ambiguous mention per text)."""
        if ambiguous_surfaces is None:
            ambiguous_surfaces = [None] * len(texts)
        if len(ambiguous_surfaces) != len(texts):
            raise ValueError("ambiguous_surfaces must align with texts")
        snippets = [
            self.pipeline.snippet_from_text(text, surface)
            for text, surface in zip(texts, ambiguous_surfaces)
        ]
        return self.link_batch(snippets, top_k=top_k)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_query_graph(self, snippet: Snippet) -> QueryGraph:
        """Same construction as the pipeline's, through the surface-
        embedding memo (exact — the hashing embedder is deterministic)."""
        pipeline = self.pipeline
        return build_query_graph(
            snippet,
            pipeline.kb,
            pipeline.index,
            self._embedder,
            augment=pipeline.augment,
            schema=pipeline.schema,
        )

    @staticmethod
    def _cache_key(snippet: Snippet, restrict: bool) -> tuple:
        """Everything the query-graph builder and the candidate generator
        read from a request, so two requests share an entry only when
        they would be scored identically.  The weights, the KB and the
        generator are not in it: :meth:`refresh` clears the cache when
        any of them changes."""
        return (
            tuple((m.mention, m.category) for m in snippet.mentions),
            snippet.ambiguous_index,
            restrict,
        )
