"""The :class:`RetrievalIndex` seam and its strict configuration section.

The fuzzy fallback in :mod:`repro.core.candidates` scores a dense
``name_matrix @ query`` against *every* KB entity per index miss — an
O(N·d) scan that dominates candidate-generation latency once the KB
grows past ~10^5 entities.  This package replaces the scan with a
sublinear shortlist: :class:`~repro.retrieval.ngram.NgramPostingsIndex`,
a char-n-gram inverted index with TF-IDF-weighted accumulation over
postings lists (work proportional to postings touched, not KB size).

The index returns a *shortlist* of node ids; the ``"indexed"`` candidate
generator (:mod:`repro.retrieval.generator`) reruns the exact fuzzy
oracle restricted to that shortlist, so final candidates keep the
oracle's scores and filters.  Indexes are packable artifacts
(:mod:`repro.retrieval.pack`): their state is a dict of flat numpy
arrays plus a small JSON params blob, which the KB bundle serializes
with CRC-checked manifest entries and memory-maps read-only on load.
"""

from __future__ import annotations

import abc
import json
import zlib
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.hetero import HeteroGraph

__all__ = [
    "RetrievalConfig",
    "RetrievalIndex",
    "build_retrieval_index",
    "retrieval_fingerprint",
]


@dataclass(frozen=True)
class RetrievalConfig:
    """Strict configuration for the sublinear n-gram retrieval index.

    ``shortlist`` caps how many node ids the index returns per query;
    ``ngram_size``/``num_buckets``/``max_df_ratio`` shape the postings
    index; ``seed`` fixes the n-gram hashing.  ``bundle_path`` points at
    a KB bundle directory: when set, the ``"indexed"`` generator
    loads the packed index from it (memory-mapped, fingerprint-checked)
    and repacks on staleness instead of rebuilding every start.
    """

    shortlist: int = 256
    ngram_size: int = 3
    num_buckets: int = 32768
    max_df_ratio: float = 0.05
    seed: int = 0x5EED
    bundle_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shortlist < 1:
            raise ValueError("shortlist must be >= 1")
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if not 0.0 < self.max_df_ratio <= 1.0:
            raise ValueError("max_df_ratio must be in (0, 1]")
        if self.bundle_path is not None and not isinstance(self.bundle_path, str):
            raise ValueError("bundle_path must be a string path or None")

    def to_dict(self) -> dict:
        return asdict(self)


class RetrievalIndex(abc.ABC):
    """A sublinear shortlist index over a KB's entity surfaces.

    State is exposed as flat numpy arrays (:meth:`arrays`) plus a small
    JSON-serializable params blob (:meth:`params`) so indexes pack into
    bundles and rebuild from memory-mapped views without pickling.
    ``fingerprint`` ties an index to the exact KB surfaces and config it
    was built from — a mismatch at load time means stale, and stale
    indexes are rebuilt, never served.
    """

    #: index kind, recorded in the bundle manifest's retrieval entry.
    backend: str = ""

    def __init__(self, config: RetrievalConfig, num_nodes: int, fingerprint: int = 0):
        self.config = config
        self.num_nodes = int(num_nodes)
        self.fingerprint = int(fingerprint)

    # -- querying -------------------------------------------------------
    @abc.abstractmethod
    def query(self, surface: str) -> np.ndarray:
        """Shortlist of KB node ids (int64) for a surface form."""

    # -- packing --------------------------------------------------------
    @abc.abstractmethod
    def arrays(self) -> Dict[str, np.ndarray]:
        """The index's state as named flat arrays (packable)."""

    @abc.abstractmethod
    def params(self) -> dict:
        """JSON-serializable reconstruction parameters for the manifest."""


def retrieval_fingerprint(kb: "HeteroGraph", config: RetrievalConfig) -> int:
    """CRC fingerprint over everything that shapes a built index.

    Covers the KB's canonical names and aliases (order-sensitive — node
    ids are positional) and the retrieval config minus ``bundle_path``
    (where an index lives does not change what it contains).  A packed
    index whose recorded fingerprint disagrees with the serving KB is
    stale and must be rebuilt.
    """
    payload = config.to_dict()
    payload.pop("bundle_path", None)
    crc = zlib.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))
    for node in range(kb.num_nodes):
        crc = zlib.crc32(kb.node_name(node).encode("utf-8"), crc)
        for alias in kb.node_aliases(node):
            crc = zlib.crc32(alias.encode("utf-8"), crc)
    return crc & 0xFFFFFFFF


def build_retrieval_index(kb: "HeteroGraph", config: RetrievalConfig) -> RetrievalIndex:
    """Build the n-gram postings index over ``kb``'s surfaces."""
    from .ngram import NgramPostingsIndex

    return NgramPostingsIndex.build(
        kb, config, fingerprint=retrieval_fingerprint(kb, config)
    )
