"""Sublinear candidate retrieval with packable indexes.

Two shortlist backends behind the :class:`RetrievalIndex` seam — a
char-n-gram inverted index (``"ngram"``) and a random-hyperplane LSH
index (``"lsh"``) — powering the ``"indexed"`` candidate generator,
which reruns the exact fuzzy oracle restricted to the shortlist so
scores and filters match the linear scan.  Indexes pack into the KB
bundle (``repro kb pack --with-index``) as CRC-checked, fingerprinted,
memory-mappable arrays.  See :mod:`repro.retrieval.base` for the seam and
:class:`RetrievalConfig`, and ``benchmarks/bench_candidates.py`` for
the speedup/recall guards.
"""

from .base import (  # noqa: F401
    CANDIDATES_ENV,
    RETRIEVAL_BACKENDS,
    RetrievalConfig,
    RetrievalIndex,
    build_retrieval_index,
    default_candidate_generator,
    index_from_arrays,
    retrieval_fingerprint,
)
from .generator import IndexedCandidateGenerator  # noqa: F401
from .lsh import LshIndex  # noqa: F401
from .ngram import NgramPostingsIndex  # noqa: F401
from .pack import (  # noqa: F401
    load_packed_index,
    repack_index,
    write_retrieval_arrays,
)

__all__ = [
    "CANDIDATES_ENV",
    "RETRIEVAL_BACKENDS",
    "RetrievalConfig",
    "RetrievalIndex",
    "IndexedCandidateGenerator",
    "NgramPostingsIndex",
    "LshIndex",
    "build_retrieval_index",
    "index_from_arrays",
    "retrieval_fingerprint",
    "default_candidate_generator",
    "load_packed_index",
    "repack_index",
    "write_retrieval_arrays",
]
