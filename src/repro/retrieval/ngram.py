"""Char-n-gram inverted index with TF-IDF-weighted accumulation.

The classic sublinear remedy for approximate string retrieval: every
entity surface (canonical name + aliases) is decomposed into character
n-grams, each n-gram hashed into one of ``num_buckets`` postings lists,
and a query accumulates IDF weight over the postings its own n-grams
touch.  Work per query is proportional to the postings actually gathered
— for selective n-grams that is a tiny fraction of the KB — instead of
the O(N·d) dense scan the fuzzy oracle performs.

Hash-bucketing (rather than an exact gram vocabulary) keeps the arrays
flat and packable: colliding grams merge their postings lists, which can
only *add* shortlist candidates, never lose them.  Grams seen in more
than ``max_df_ratio`` of all entities get zero IDF (stop-grams like
``"<a"`` carry no signal and their postings are the expensive ones).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

import numpy as np

from ..graph.hetero import HeteroGraph
from ..graph.index import normalize_surface
from ..text.embedder import _stable_hash
from .base import RetrievalConfig, RetrievalIndex

__all__ = ["NgramPostingsIndex"]


class NgramPostingsIndex(RetrievalIndex):
    """Postings-list retrieval over hashed character n-grams.

    State (all flat, packable, memory-mappable):

    * ``offsets``  — int64 ``[num_buckets + 1]`` CSR offsets into postings;
    * ``postings`` — int32 ``[total]`` global node ids, sorted per bucket;
    * ``idf``      — float32 ``[num_buckets]`` per-bucket IDF weight
      (zero for empty buckets and stop-grams);
    * ``norms``    — float32 ``[num_nodes]`` per-node length normaliser
      (sqrt of the node's distinct-bucket count).
    """

    backend = "ngram"

    def __init__(
        self,
        config: RetrievalConfig,
        num_nodes: int,
        offsets: np.ndarray,
        postings: np.ndarray,
        idf: np.ndarray,
        norms: np.ndarray,
        fingerprint: int = 0,
    ):
        super().__init__(config, num_nodes, fingerprint=fingerprint)
        self.offsets = offsets
        self.postings = postings
        self.idf = idf
        self.norms = norms
        self._gram_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _buckets(self, surface: str) -> List[int]:
        """Distinct hash buckets of the surface's n-grams."""
        padded = f"<{normalize_surface(surface)}>"
        n = self.config.ngram_size
        if len(padded) < n:
            grams: Iterable[str] = (padded,)
        else:
            grams = {padded[i : i + n] for i in range(len(padded) - n + 1)}
        buckets: Set[int] = set()
        cache = self._gram_cache
        seed = self.config.seed
        for gram in grams:
            bucket = cache.get(gram)
            if bucket is None:
                bucket = _stable_hash(f"{seed}:g:{gram}") % self.config.num_buckets
                cache[gram] = bucket
            buckets.add(bucket)
        return sorted(buckets)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kb: HeteroGraph,
        config: RetrievalConfig,
        fingerprint: int = 0,
    ) -> "NgramPostingsIndex":
        num_nodes = kb.num_nodes
        if num_nodes >= np.iinfo(np.int32).max:
            raise ValueError("ngram postings store int32 node ids; KB too large")
        shell = cls(
            config,
            num_nodes,
            offsets=np.zeros(1, dtype=np.int64),
            postings=np.zeros(0, dtype=np.int32),
            idf=np.zeros(0, dtype=np.float32),
            norms=np.zeros(0, dtype=np.float32),
            fingerprint=fingerprint,
        )
        bucket_nodes: Dict[int, List[int]] = {}
        norms = np.zeros(num_nodes, dtype=np.float32)
        for node in range(num_nodes):
            buckets: Set[int] = set()
            buckets.update(shell._buckets(kb.node_name(node)))
            for alias in kb.node_aliases(node):
                buckets.update(shell._buckets(alias))
            norms[node] = np.sqrt(len(buckets)) if buckets else 1.0
            for bucket in buckets:
                bucket_nodes.setdefault(bucket, []).append(node)

        offsets = np.zeros(config.num_buckets + 1, dtype=np.int64)
        idf = np.zeros(config.num_buckets, dtype=np.float32)
        chunks: List[np.ndarray] = []
        total = 0
        max_df = config.max_df_ratio * num_nodes
        for bucket in range(config.num_buckets):
            nodes = bucket_nodes.get(bucket)
            offsets[bucket] = total
            if not nodes:
                continue
            df = len(nodes)
            if df <= max_df:
                idf[bucket] = np.log1p(num_nodes / df)
            chunk = np.asarray(nodes, dtype=np.int32)
            chunks.append(chunk)
            total += len(chunk)
        offsets[config.num_buckets] = total
        postings = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)
        )
        return cls(
            config,
            num_nodes,
            offsets=offsets,
            postings=postings,
            idf=idf,
            norms=norms,
            fingerprint=fingerprint,
        )

    # ------------------------------------------------------------------
    def query(self, surface: str) -> np.ndarray:
        offsets, postings, idf = self.offsets, self.postings, self.idf
        buckets = np.asarray(self._buckets(surface), dtype=np.int64)
        weights = idf[buckets]
        lo = offsets[buckets]
        lengths = offsets[buckets + 1] - lo
        live = (weights > 0.0) & (lengths > 0)
        if not live.any():
            return np.zeros(0, dtype=np.int64)
        weights, lo, lengths = weights[live], lo[live], lengths[live]
        cat_ids = np.concatenate(
            [postings[s : s + n] for s, n in zip(lo.tolist(), lengths.tolist())]
        )
        cat_w = np.repeat(weights, lengths)
        if len(cat_ids) * 4 < self.num_nodes:
            # Few postings: sort-based aggregation, independent of KB size.
            uniq, inverse = np.unique(cat_ids, return_inverse=True)
            scores = np.bincount(inverse, weights=cat_w).astype(np.float32)
        else:
            # Heavy gather (common grams): a dense accumulator beats the
            # O(G log G) sort — one linear pass over G postings plus one
            # over the KB, both with tiny constants.
            dense = np.bincount(cat_ids, weights=cat_w, minlength=self.num_nodes)
            uniq = np.flatnonzero(dense)
            scores = dense[uniq].astype(np.float32)
        scores /= self.norms[uniq]
        k = min(self.config.shortlist, len(uniq))
        top = np.argpartition(-scores, k - 1)[:k]
        sel, sc = uniq[top], scores[top]
        order = np.lexsort((sel, -sc))
        return sel[order].astype(np.int64)

    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "offsets": self.offsets,
            "postings": self.postings,
            "idf": self.idf,
            "norms": self.norms,
        }

    def params(self) -> dict:
        return {"num_nodes": self.num_nodes}

    @classmethod
    def from_arrays(
        cls,
        config: RetrievalConfig,
        params: dict,
        arrays: Dict[str, np.ndarray],
        fingerprint: int = 0,
    ) -> "NgramPostingsIndex":
        return cls(
            config,
            int(params["num_nodes"]),
            offsets=arrays["offsets"],
            postings=arrays["postings"],
            idf=arrays["idf"],
            norms=arrays["norms"],
            fingerprint=fingerprint,
        )
