"""The in-RAM storage backend — live arrays behind the seam.

``MemoryKBStore`` serves the live ``kb.features`` array untouched;
``MemoryEmbeddingStore`` is a pass-through that persists nothing: every
service start computes ``h_ref`` afresh.  A matrix that should outlive
the process belongs in an mmap bundle (:mod:`repro.storage.bundle`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import EmbeddingStore, KBStore

__all__ = ["MemoryEmbeddingStore", "MemoryKBStore"]


class MemoryKBStore(KBStore):
    """Serves the KB's own live feature array."""

    backend = "memory"

    def __init__(self, kb):
        self._kb = kb

    @property
    def features(self) -> np.ndarray:
        return self._kb.features

    def close(self) -> None:
        pass


class MemoryEmbeddingStore(EmbeddingStore):
    """Serves the freshly computed matrix as is; never persists it."""

    backend = "memory"

    def load(self, fingerprint: int) -> Optional[np.ndarray]:
        return None

    def store(self, fingerprint: int, h_ref: np.ndarray) -> np.ndarray:
        return h_ref

    def close(self) -> None:
        pass
