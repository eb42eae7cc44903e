"""The ``"indexed"`` candidate generator: sublinear shortlist + oracle rerank.

Same contract as ``"fuzzy"`` — exact/alias/acronym lookups short-circuit
through the inverted index untouched — but an index miss no longer scans
the whole KB.  A :class:`~repro.retrieval.base.RetrievalIndex` produces
a shortlist in sublinear time, and the fuzzy oracle's exact scoring
(cosine floor + edit-ratio filter + identical tie-breaking) reruns
restricted to that shortlist.  The oracle edit-filters only its top
``max(4 * top_k, 16)`` cosine rows, so the output is *identical* to
``"fuzzy"`` when the shortlist holds those rows.  Covering just the
oracle's survivors is not enough: the restricted scan then reaches rows
further down the cosine ranking, which the oracle never examined, and
can return a longer list.  ``benchmarks/bench_candidates.py`` measures
recall of the oracle's fallback lists against a 0.95 floor.

With ``RetrievalConfig(bundle_path=...)`` the generator loads the packed
index from a KB bundle (memory-mapped, fingerprint-checked) and — when
the packed copy is stale or missing — rebuilds and repacks it in place,
so the next start maps instead of building.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..core.candidates import FuzzyFallbackCandidateGenerator
from ..graph.hetero import HeteroGraph
from ..graph.index import InvertedIndex
from ..text.embedder import HashingNgramEmbedder
from .base import (
    RetrievalConfig,
    RetrievalIndex,
    build_retrieval_index,
    retrieval_fingerprint,
)
from .pack import load_packed_index, repack_index

__all__ = ["IndexedCandidateGenerator"]


class IndexedCandidateGenerator(FuzzyFallbackCandidateGenerator):
    """``"indexed"``: sublinear retrieval shortlist, oracle-scored."""

    name = "indexed"
    #: Tells ``Linker.from_config`` to pass the config's ``retrieval``
    #: section to this factory (plain generators never see it).
    consumes_retrieval_config = True

    def __init__(
        self,
        kb: HeteroGraph,
        index: Optional[InvertedIndex] = None,
        embedder: Optional[HashingNgramEmbedder] = None,
        top_k: int = 20,
        min_similarity: float = 0.25,
        max_edit_ratio: float = 0.6,
        name_matrix: Optional[np.ndarray] = None,
        retrieval: Union[RetrievalConfig, dict, None] = None,
    ):
        super().__init__(
            kb,
            index=index,
            embedder=embedder,
            top_k=top_k,
            min_similarity=min_similarity,
            max_edit_ratio=max_edit_ratio,
            name_matrix=name_matrix,
        )
        if retrieval is None:
            retrieval = RetrievalConfig()
        elif isinstance(retrieval, dict):
            retrieval = RetrievalConfig(**retrieval)
        elif not isinstance(retrieval, RetrievalConfig):
            raise ValueError(
                f"retrieval must be a RetrievalConfig or dict, got {type(retrieval).__name__}"
            )
        self.retrieval_config = retrieval
        self.repacked = False
        loaded: Optional[RetrievalIndex] = None
        if retrieval.bundle_path is not None:
            loaded = load_packed_index(
                retrieval.bundle_path,
                retrieval,
                expected_fingerprint=retrieval_fingerprint(kb, retrieval),
            )
        if loaded is not None:
            self.retrieval_index = loaded
        else:
            self.retrieval_index = build_retrieval_index(kb, retrieval)
            if retrieval.bundle_path is not None:
                self.repacked = repack_index(
                    retrieval.bundle_path, self.retrieval_index
                )

    def _fallback(self, surface: str) -> List[int]:
        shortlist = self.retrieval_index.query(surface)
        if shortlist.size == 0:
            return []
        return self._fuzzy.candidate_ids(surface, top_k=self.top_k, within=shortlist)
