"""Random-hyperplane LSH over the ``HashingNgramEmbedder`` name matrix.

Sign-random-projection LSH: each entity name's embedding is projected
onto ``num_bands * band_bits`` random hyperplanes; the sign bits, packed
``band_bits`` at a time, give one small integer key per band.  Strings
with high cosine similarity agree on most sign bits, so they collide in
at least one band with high probability.  Queries probe each band's key
*and* its Hamming ball up to ``probe_radius`` (multi-probe) — the
standard trick that buys recall without more tables — and rank the union
of collisions by how many probes hit each candidate.

The hyperplanes are drawn from a seeded generator at build time but
**persisted** in the packed arrays: numpy does not guarantee bit-stream
stability of its generators across versions, and a re-derived plane set
that differs even slightly would silently invalidate every stored key.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..graph.hetero import HeteroGraph
from ..text.embedder import HashingNgramEmbedder
from .base import RetrievalConfig, RetrievalIndex

__all__ = ["LshIndex"]


class LshIndex(RetrievalIndex):
    """Banded sign-random-projection index with Hamming-ball multi-probe.

    State (flat, packable, memory-mappable):

    * ``planes`` — float32 ``[dim, num_bands * band_bits]`` hyperplanes;
    * ``keys``   — uint32 ``[num_bands, n]`` per-band signature keys,
      sorted within each band;
    * ``order``  — int32 ``[num_bands, n]`` global node ids aligned with
      ``keys`` (the argsort that sorted each band).
    """

    backend = "lsh"

    def __init__(
        self,
        config: RetrievalConfig,
        num_nodes: int,
        planes: np.ndarray,
        keys: np.ndarray,
        order: np.ndarray,
        embedder: Optional[HashingNgramEmbedder] = None,
        fingerprint: int = 0,
    ):
        super().__init__(config, num_nodes, fingerprint=fingerprint)
        self.planes = planes
        self.keys = keys
        self.order = order
        self.embedder = embedder
        self._probe_masks = self._hamming_masks(config.band_bits, config.probe_radius)

    @staticmethod
    def _hamming_masks(band_bits: int, radius: int) -> np.ndarray:
        """XOR masks covering the Hamming ball of ``radius`` around a key
        (mask 0 is the key itself).  Probe count is 1 + b + C(b, 2) at
        radius 2 — small enough to batch one ``searchsorted`` per band."""
        masks = [np.uint32(0)]
        if radius >= 1:
            masks.extend(np.uint32(1) << np.arange(band_bits, dtype=np.uint32))
        if radius >= 2:
            for i in range(band_bits):
                for j in range(i + 1, band_bits):
                    masks.append(np.uint32((1 << i) | (1 << j)))
        return np.asarray(masks, dtype=np.uint32)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        kb: HeteroGraph,
        config: RetrievalConfig,
        embedder: HashingNgramEmbedder,
        name_matrix: Optional[np.ndarray] = None,
        fingerprint: int = 0,
    ) -> "LshIndex":
        num_nodes = kb.num_nodes
        if num_nodes >= np.iinfo(np.int32).max:
            raise ValueError("lsh order arrays store int32 node ids; KB too large")
        if name_matrix is None:
            names = [kb.node_name(v) for v in range(num_nodes)]
            name_matrix = embedder.embed_batch(names)
        rng = np.random.default_rng(config.seed)
        planes = rng.standard_normal(
            (embedder.dim, config.num_bands * config.band_bits)
        ).astype(np.float32)
        keys, order = cls._band_tables(name_matrix, planes, config)
        return cls(
            config,
            num_nodes,
            planes=planes,
            keys=keys,
            order=order,
            embedder=embedder,
            fingerprint=fingerprint,
        )

    @staticmethod
    def _band_tables(matrix: np.ndarray, planes: np.ndarray, config: RetrievalConfig):
        bits = (matrix @ planes) > 0  # [n, num_bands * band_bits]
        weights = (1 << np.arange(config.band_bits, dtype=np.uint32)).astype(np.uint32)
        n = matrix.shape[0]
        keys = np.zeros((config.num_bands, n), dtype=np.uint32)
        order = np.zeros((config.num_bands, n), dtype=np.int32)
        for band in range(config.num_bands):
            lo = band * config.band_bits
            band_keys = bits[:, lo : lo + config.band_bits].astype(np.uint32) @ weights
            srt = np.argsort(band_keys, kind="stable")
            keys[band] = band_keys[srt]
            order[band] = srt.astype(np.int32)
        return keys, order

    # ------------------------------------------------------------------
    def query(self, surface: str, query_vec: Optional[np.ndarray] = None) -> np.ndarray:
        if query_vec is None:
            if self.embedder is None:
                raise ValueError(
                    "LshIndex.query needs query_vec when built without an embedder"
                )
            query_vec = self.embedder.embed(surface)
        qbits = (query_vec @ self.planes) > 0
        band_bits = self.config.band_bits
        weights = (1 << np.arange(band_bits, dtype=np.uint32)).astype(np.uint32)
        keys = np.uint32(
            qbits.reshape(self.config.num_bands, band_bits).astype(np.uint32) @ weights
        )
        hits: List[np.ndarray] = []
        for band in range(self.config.num_bands):
            probes = keys[band] ^ self._probe_masks
            band_keys = self.keys[band]
            lo = np.searchsorted(band_keys, probes, side="left")
            hi = np.searchsorted(band_keys, probes, side="right")
            band_order = self.order[band]
            hits.extend(
                band_order[s:e]
                for s, e in zip(lo.tolist(), hi.tolist())
                if e > s
            )
        if not hits:
            return np.zeros(0, dtype=np.int64)
        cat = np.concatenate(hits)
        if len(cat) * 4 < self.num_nodes:
            uniq, counts = np.unique(cat, return_counts=True)
        else:
            # Heavy collision load (wide Hamming ball): a dense vote
            # accumulator beats sorting the gathered ids.
            dense = np.bincount(cat, minlength=self.num_nodes)
            uniq = np.flatnonzero(dense)
            counts = dense[uniq]
        k = min(self.config.shortlist, len(uniq))
        top = np.argpartition(-counts, k - 1)[:k]
        sel, votes = uniq[top], counts[top]
        order = np.lexsort((sel, -votes))
        return sel[order].astype(np.int64)

    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {"planes": self.planes, "keys": self.keys, "order": self.order}

    def params(self) -> dict:
        return {"num_nodes": self.num_nodes}

    @classmethod
    def from_arrays(
        cls,
        config: RetrievalConfig,
        params: dict,
        arrays: Dict[str, np.ndarray],
        embedder: Optional[HashingNgramEmbedder] = None,
        fingerprint: int = 0,
    ) -> "LshIndex":
        return cls(
            config,
            int(params["num_nodes"]),
            planes=arrays["planes"],
            keys=arrays["keys"],
            order=arrays["order"],
            embedder=embedder,
            fingerprint=fingerprint,
        )
