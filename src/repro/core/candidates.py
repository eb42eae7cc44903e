"""Fuzzy candidate generation for surfaces the inverted index misses.

Section 3.1's inverted index covers exact names, synonyms, acronyms and
abbreviations — but a typo'd mention ("protienuria") has *no* index key.
The paper's pipeline then falls back to all type-compatible entities,
which makes ranking needlessly hard on large KBs.  This module adds the
standard production remedy: approximate lexical retrieval.

Two stages, both offline-friendly:

1. **n-gram retrieval** — cosine similarity between the surface's
   character-n-gram hash embedding and every entity name (the same
   embedder that builds the initial node features, so no extra state);
2. **edit-distance re-ranking** — Levenshtein distance breaks cosine
   ties and filters implausible matches.

Candidate generation is a registered pipeline component: pick one by
name via ``LinkerConfig(candidate_generator="exact" | "fuzzy" |
"indexed")`` or the :data:`repro.api.CANDIDATE_GENERATORS` registry
(``"exact"`` is the default).  The evaluation protocol uses ``"exact"``, so
benchmark numbers are unaffected by the fallback generators.  The
``"indexed"`` generator (:mod:`repro.retrieval`) replaces this module's
linear n-gram scan with a sublinear shortlist and then reruns the same
scoring restricted to it — :class:`FuzzyCandidateGenerator` stays the
correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graph.hetero import HeteroGraph
from ..graph.index import InvertedIndex, normalize_surface
from ..text.embedder import HashingNgramEmbedder
from ..text.variants import edit_distances

__all__ = [
    "Candidate",
    "FuzzyCandidateGenerator",
    "ExactCandidateGenerator",
    "FuzzyFallbackCandidateGenerator",
]


@dataclass(frozen=True)
class Candidate:
    """One candidate entity with its retrieval provenance."""

    node: int
    score: float
    source: str  # "index" | "ngram"


class FuzzyCandidateGenerator:
    """Index lookup first, approximate lexical retrieval as fallback."""

    def __init__(
        self,
        kb: HeteroGraph,
        index: Optional[InvertedIndex] = None,
        embedder: Optional[HashingNgramEmbedder] = None,
        min_similarity: float = 0.25,
        max_edit_ratio: float = 0.6,
        name_matrix: Optional[np.ndarray] = None,
    ):
        """``min_similarity`` floors the n-gram cosine; ``max_edit_ratio``
        rejects candidates whose edit distance exceeds that fraction of
        the longer string (1.0 disables the filter).  ``name_matrix``
        lets callers that already embedded every canonical name share
        the matrix instead of re-embedding the KB."""
        self.kb = kb
        self.index = index or InvertedIndex(kb)
        self.embedder = embedder or HashingNgramEmbedder(dim=128)
        self.min_similarity = min_similarity
        self.max_edit_ratio = max_edit_ratio
        names = [kb.node_name(v) for v in range(kb.num_nodes)]
        self._normalized = [normalize_surface(n) for n in names]
        if name_matrix is not None:
            self._name_matrix = name_matrix
        else:
            self._name_matrix = self.embedder.embed_batch(names)

    # ------------------------------------------------------------------
    def candidates(
        self,
        surface: str,
        top_k: int = 10,
        within: Optional[np.ndarray] = None,
    ) -> List[Candidate]:
        """Ranked candidates for a surface form.

        Index hits (exact / alias / acronym) come first with score 1.0;
        when the index has nothing, the n-gram + edit-distance fallback
        fills up to ``top_k`` candidates.  ``within`` restricts the
        fallback to a shortlist of node ids (the sublinear retrieval
        index produces one), scored and filtered exactly as the
        unrestricted scan.  The scan edit-filters only its top
        ``max(4 * top_k, 16)`` cosine rows, so the output matches the
        unrestricted scan when the shortlist holds those rows; a
        shortlist that holds only the scan's survivors can return more.
        """
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        exact = self.index.lookup(surface)
        if exact:
            return [Candidate(node, 1.0, "index") for node in exact[:top_k]]
        return self._fuzzy(surface, top_k, within=within)

    def _fuzzy(
        self,
        surface: str,
        top_k: int,
        within: Optional[np.ndarray] = None,
    ) -> List[Candidate]:
        query = self.embedder.embed(surface)
        if within is None:
            nodes = None
            sims = self._name_matrix @ query
        else:
            nodes = np.asarray(within, dtype=np.int64)
            if nodes.size == 0:
                return []
            sims = self._name_matrix[nodes] @ query
        # Over-fetch so the edit filter still leaves top_k survivors.
        fetch = min(len(sims), max(4 * top_k, 16))
        order = np.argpartition(-sims, fetch - 1)[:fetch]
        norm_surface = normalize_surface(surface)

        positions = order[sims[order].astype(np.float64) >= self.min_similarity]
        kept = positions if nodes is None else nodes[positions]
        # Rank first (the final sort key: score desc, node asc), then run
        # the edit filter lazily over ranked chunks — one batched DP per
        # chunk — stopping as soon as top_k candidates survive.  The
        # survivors (in rank order) are exactly what filter-everything-
        # then-sort-then-cut would produce, without paying the DP for
        # low-ranked candidates that can never make the cut.
        srt = np.lexsort((kept, -sims[positions]))
        positions, kept = positions[srt], kept[srt]
        if self.max_edit_ratio >= 1.0:
            positions, kept = positions[:top_k], kept[:top_k]
            return [
                Candidate(int(node), float(sims[pos]), "ngram")
                for pos, node in zip(positions.tolist(), kept.tolist())
            ]
        scored: List[Candidate] = []
        start = 0
        while start < len(kept) and len(scored) < top_k:
            stop = min(len(kept), start + max(top_k - len(scored) + 8, 16))
            chunk_pos = positions[start:stop]
            chunk_nodes = kept[start:stop]
            names = [self._normalized[int(node)] for node in chunk_nodes]
            longest = np.maximum(
                [len(n) for n in names], len(norm_surface)
            ).astype(np.float64)
            distances = edit_distances(norm_surface, names)
            ratios = distances / np.maximum(longest, 1.0)
            ok = (longest == 0) | (ratios <= self.max_edit_ratio)
            scored.extend(
                Candidate(int(node), float(sims[pos]), "ngram")
                for pos, node in zip(chunk_pos[ok].tolist(), chunk_nodes[ok].tolist())
            )
            start = stop
        return scored[:top_k]

    def candidate_ids(
        self,
        surface: str,
        top_k: int = 10,
        within: Optional[np.ndarray] = None,
    ) -> List[int]:
        """Just the node ids (the pipeline's consumption format)."""
        return [c.node for c in self.candidates(surface, top_k, within=within)]


class ExactCandidateGenerator:
    """The paper's Section 3.1 candidate-generation stage as a component.

    Inverted-index lookup first; on a miss, :meth:`_fallback` (a hook for
    subclasses — no-op here), then all type-compatible entities, then the
    whole KB.  Registered as ``"exact"`` in
    :data:`repro.api.CANDIDATE_GENERATORS`; the behaviour is bit-identical
    to the pre-registry ``EDPipeline.candidate_ids``.
    """

    name = "exact"

    def __init__(
        self,
        kb: HeteroGraph,
        index: Optional[InvertedIndex] = None,
        embedder: Optional[HashingNgramEmbedder] = None,
    ):
        self.kb = kb
        self.index = index if index is not None else InvertedIndex(kb)
        self.embedder = embedder
        # Telemetry: how often the inverted index answered outright vs
        # the fallback path ran.  ServiceStats snapshots these per
        # request into the repro_candidates_* series.
        self.index_hits = 0
        self.fallback_hits = 0

    def _fallback(self, surface: str) -> List[int]:
        """Candidates for an index miss; subclasses widen the retrieval."""
        return []

    def candidates_for(
        self,
        surface: str,
        category: Optional[str] = None,
        restrict_to_candidates: bool = True,
    ) -> np.ndarray:
        """KB node ids to rank for a surface form."""
        candidates = self.index.lookup(surface) if restrict_to_candidates else []
        if candidates:
            self.index_hits += 1
        elif restrict_to_candidates:
            self.fallback_hits += 1
            candidates = self._fallback(surface)
        if candidates:
            return np.asarray(candidates, dtype=np.int64)
        if category is not None and category in self.kb.schema.node_types:
            typed = self.kb.nodes_of_type(category)
            if typed.size:
                return typed.astype(np.int64, copy=False)
        # Whole-KB fallthrough: arange, not a 10^5-element Python list.
        return np.arange(self.kb.num_nodes, dtype=np.int64)


class FuzzyFallbackCandidateGenerator(ExactCandidateGenerator):
    """``"fuzzy"``: exact lookup with approximate lexical retrieval on a
    miss (the production remedy for typo'd surfaces; see
    :class:`FuzzyCandidateGenerator` for the retrieval itself)."""

    name = "fuzzy"

    def __init__(
        self,
        kb: HeteroGraph,
        index: Optional[InvertedIndex] = None,
        embedder: Optional[HashingNgramEmbedder] = None,
        top_k: int = 20,
        min_similarity: float = 0.25,
        max_edit_ratio: float = 0.6,
        name_matrix: Optional[np.ndarray] = None,
    ):
        super().__init__(kb, index=index, embedder=embedder)
        self.top_k = top_k
        self._fuzzy = FuzzyCandidateGenerator(
            kb,
            index=self.index,
            embedder=embedder,
            min_similarity=min_similarity,
            max_edit_ratio=max_edit_ratio,
            name_matrix=name_matrix,
        )

    def _fallback(self, surface: str) -> List[int]:
        return self._fuzzy.candidate_ids(surface, top_k=self.top_k)
