"""Sublinear candidate retrieval with a packable index.

A char-n-gram inverted index (:class:`NgramPostingsIndex`, behind the
:class:`RetrievalIndex` seam) powers the ``"indexed"`` candidate
generator, which reruns the exact fuzzy oracle restricted to the index's
shortlist so scores and filters match the linear scan.  The index packs
into the KB bundle (``repro kb pack --with-index``) as CRC-checked,
fingerprinted, memory-mappable arrays.  See :mod:`repro.retrieval.base`
for the seam and :class:`RetrievalConfig`, and
``benchmarks/bench_candidates.py`` for the speedup/recall guards.
"""

from .base import (  # noqa: F401
    CANDIDATES_ENV,
    RetrievalConfig,
    RetrievalIndex,
    build_retrieval_index,
    default_candidate_generator,
    retrieval_fingerprint,
)
from .generator import IndexedCandidateGenerator  # noqa: F401
from .ngram import NgramPostingsIndex  # noqa: F401
from .pack import (  # noqa: F401
    load_packed_index,
    repack_index,
    write_retrieval_arrays,
)

__all__ = [
    "CANDIDATES_ENV",
    "RetrievalConfig",
    "RetrievalIndex",
    "IndexedCandidateGenerator",
    "NgramPostingsIndex",
    "build_retrieval_index",
    "retrieval_fingerprint",
    "default_candidate_generator",
    "load_packed_index",
    "repack_index",
    "write_retrieval_arrays",
]
