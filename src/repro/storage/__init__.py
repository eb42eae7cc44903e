"""The packed KB bundle (`repro.storage`).

A service serves the KB feature matrix (``x_ref``) and the
reference-embedding matrix (``h_ref``) from the pipeline's live arrays,
or, when ``ServiceConfig.bundle_path`` names a ``repro kb pack`` bundle,
from that bundle's read-only memory maps (:class:`MmapStore`).  The
bundle is the one persisted form of ``h_ref``: it is keyed by a content
fingerprint over the weights and the KB, so a server starts without the
KB forward, and N serving processes on one host share one page-cached
copy.  Both forms serve bit-identical bytes.
"""

from __future__ import annotations

from .bundle import MmapStore, StorageError, content_fingerprint, pack_bundle, weights_crc

__all__ = [
    "MmapStore",
    "StorageError",
    "content_fingerprint",
    "pack_bundle",
    "weights_crc",
]
