"""Pluggable KB / embedding storage for serving (`repro.storage`).

The seam (:class:`KBStore` / :class:`EmbeddingStore`, configured by
:class:`StorageConfig`) decouples where the KB feature table and the
reference-embedding matrix live from how serving uses them.
:func:`open_stores` is the one factory the serving layer calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .base import (
    KB_STORE_ENV,
    KB_STORES,
    EmbeddingStore,
    KBStore,
    StorageConfig,
    StorageError,
    default_kb_store,
    resolve_kb_store,
)
from .bundle import MmapStore, content_fingerprint, pack_bundle, weights_crc
from .memory import MemoryEmbeddingStore, MemoryKBStore

__all__ = [
    "KB_STORES",
    "KB_STORE_ENV",
    "EmbeddingStore",
    "KBStore",
    "MemoryEmbeddingStore",
    "MemoryKBStore",
    "MmapStore",
    "StorageConfig",
    "StorageError",
    "content_fingerprint",
    "default_kb_store",
    "open_stores",
    "pack_bundle",
    "resolve_kb_store",
    "weights_crc",
]


def open_stores(
    config: Optional[StorageConfig], kb
) -> Tuple[KBStore, EmbeddingStore]:
    """Open the (KB store, embedding store) pair a config names.

    The mmap backend returns one bundle-backed object implementing both
    seams (the matrices share a directory and a lifecycle; callers may
    close both handles — close is idempotent).  It is the only backend
    that persists the embedding matrix.
    """
    config = config or StorageConfig()
    if config.kb_store == "mmap":
        store = MmapStore(kb, directory=config.bundle_path)
        return store, store
    return MemoryKBStore(kb), MemoryEmbeddingStore()
