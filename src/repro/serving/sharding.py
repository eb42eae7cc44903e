"""KB sharding for multi-worker serving.

``ShardedKB`` partitions the reference KB's scoring state — its feature
rows and the fingerprinted reference-embedding matrix the serving layer
already caches — into ``num_shards`` shards routed by candidate id
(``candidate_id % num_shards``).  A query's candidate set is scattered to
the shards that own each candidate, scored on a ``concurrent.futures``
thread pool, and gathered back into the original candidate order, so the
merged scores are byte-identical to scoring against the unsharded KB:
the matching math is per (mention, candidate) pair and never mixes rows.

Shard placement is arithmetic (owner ``id % N``, local row ``id // N``),
which keeps the scatter O(candidates) with no lookup tables.

Embeddings are distributed warm-start: the full matrix is computed (or
loaded from the persisted ref cache) once and sliced per shard —
:meth:`ShardedKB.distribute` re-slices after a weight refresh.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.pipeline import EDPipeline
from ..core.query_graph import QueryGraph


@dataclass
class KBShard:
    """One partition of the reference KB.

    ``node_ids`` are the global KB ids this shard owns (every id with
    ``id % num_shards == index``, ascending); row ``i`` of ``h_ref`` /
    ``x_ref`` corresponds to global node ``node_ids[i]``, so the local
    row of global id ``g`` is simply ``g // num_shards``.
    """

    index: int
    node_ids: np.ndarray
    h_ref: np.ndarray
    x_ref: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)


class ShardedKB:
    """Candidate-id-routed shards of the KB with thread fan-out scoring.

    Scoring runs on a pool of ``min(num_shards, cpu_count)`` threads; a
    single shard scores inline.
    """

    def __init__(
        self,
        pipeline: EDPipeline,
        num_shards: int,
        ref_embeddings: Optional[np.ndarray] = None,
        ref_features: Optional[np.ndarray] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.pipeline = pipeline
        self.num_shards = num_shards
        # Warm start: reuse an already-computed (or cache-loaded) matrix
        # instead of re-embedding the KB per shard.
        h_ref = pipeline.ref_embeddings() if ref_embeddings is None else np.asarray(ref_embeddings)
        if h_ref.shape[0] != pipeline.kb.num_nodes:
            raise ValueError("ref_embeddings rows must match the KB node count")
        kb = pipeline.kb
        # The feature matrix may be store-backed (e.g. an mmap of a packed
        # bundle) rather than the KB's live array; slicing either yields
        # identical bytes in a regular per-shard array.
        features = kb.features if ref_features is None else np.asarray(ref_features)
        if features.shape[0] != kb.num_nodes:
            raise ValueError("ref_features rows must match the KB node count")
        self.shards: List[KBShard] = []
        for index in range(num_shards):
            node_ids = np.arange(index, kb.num_nodes, num_shards, dtype=np.int64)
            self.shards.append(
                KBShard(
                    index=index,
                    node_ids=node_ids,
                    h_ref=np.ascontiguousarray(h_ref[node_ids]),
                    x_ref=np.ascontiguousarray(features[node_ids]),
                )
            )
        self._telemetry_lock = threading.Lock()
        self._shard_calls = [0] * num_shards
        self._shard_seconds = [0.0] * num_shards
        self._executor: Optional[ThreadPoolExecutor] = None
        if num_shards > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=min(num_shards, os.cpu_count() or 1),
                thread_name_prefix="kb-shard",
            )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, candidate_id: int) -> int:
        """Index of the shard owning a global candidate id."""
        return int(candidate_id) % self.num_shards

    def local_id(self, candidate_id: int) -> int:
        """Row of ``candidate_id`` inside its owning shard."""
        return int(candidate_id) // self.num_shards

    # ------------------------------------------------------------------
    # Embedding refresh
    # ------------------------------------------------------------------
    def distribute(self, ref_embeddings: np.ndarray) -> None:
        """Re-slice a freshly computed full embedding matrix into the
        shards (warm-start after a weight refresh)."""
        ref_embeddings = np.asarray(ref_embeddings)
        if ref_embeddings.shape[0] != self.pipeline.kb.num_nodes:
            raise ValueError("ref_embeddings rows must match the KB node count")
        for shard in self.shards:
            shard.h_ref = np.ascontiguousarray(ref_embeddings[shard.node_ids])

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_pairs_flat(
        self,
        h_query: Tensor,
        query_ids: np.ndarray,
        ref_ids: np.ndarray,
        x_query: Optional[Tensor] = None,
    ) -> np.ndarray:
        """Fan aligned (query node, global KB node) pairs out to the shard
        workers and gather the scores back into input order.

        Drop-in for the flat ``model.score_pairs(...).data`` call of the
        unsharded path; per-pair math makes the merge exact.
        """
        query_ids = np.asarray(query_ids, dtype=np.int64)
        ref_ids = np.asarray(ref_ids, dtype=np.int64)
        if len(ref_ids) == 0:
            return np.zeros(0, dtype=np.float32)
        owner = ref_ids % self.num_shards
        tasks = []
        for shard in self.shards:
            positions = np.nonzero(owner == shard.index)[0]
            if len(positions) == 0:
                continue
            tasks.append((positions, shard, query_ids[positions], ref_ids[positions] // self.num_shards))

        if self._executor is None or len(tasks) <= 1:
            parts = [
                (positions, self._score_on_shard(shard, h_query, q_ids, local_ids, x_query))
                for positions, shard, q_ids, local_ids in tasks
            ]
        else:
            futures = [
                (positions, self._executor.submit(
                    self._score_on_shard, shard, h_query, q_ids, local_ids, x_query
                ))
                for positions, shard, q_ids, local_ids in tasks
            ]
            parts = [(positions, future.result()) for positions, future in futures]

        out = np.empty(len(ref_ids), dtype=parts[0][1].dtype)
        for positions, scores in parts:
            out[positions] = scores
        return out

    def _score_on_shard(
        self,
        shard: KBShard,
        h_query: Tensor,
        query_ids: np.ndarray,
        local_ids: np.ndarray,
        x_query: Optional[Tensor],
    ) -> np.ndarray:
        t0 = perf_counter()
        with no_grad():
            scores = self.pipeline.model.score_pairs(
                h_query,
                query_ids,
                Tensor(shard.h_ref),
                local_ids,
                x_query=x_query,
                x_ref=Tensor(shard.x_ref),
            ).data
        with self._telemetry_lock:
            self._shard_calls[shard.index] += 1
            self._shard_seconds[shard.index] += perf_counter() - t0
        return scores

    def score_candidates(self, qg: QueryGraph, candidate_ids: np.ndarray) -> np.ndarray:
        """Sharded equivalent of :meth:`EDPipeline.score_candidates`: one
        query-graph forward, then candidate scoring fanned across shards."""
        candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
        model = self.pipeline.model
        model.eval()
        with no_grad():
            compiled = model.compile(qg.graph)
            x_qry = Tensor(qg.graph.features)
            h_qry = model.embed(compiled, x_qry)
        mention_ids = np.full(len(candidate_ids), qg.mention_node, dtype=np.int64)
        return self.score_pairs_flat(h_qry, mention_ids, candidate_ids, x_query=x_qry)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedKB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def shard_telemetry(self) -> Tuple[List[int], List[float]]:
        """Per-shard (score calls, wall seconds)."""
        with self._telemetry_lock:
            return list(self._shard_calls), list(self._shard_seconds)

    def __repr__(self) -> str:
        sizes = "+".join(str(s.num_nodes) for s in self.shards)
        return f"ShardedKB(num_shards={self.num_shards}, nodes={sizes})"
