"""The KB / embedding storage seam.

Serving historically assumed both the KB feature table and the
reference-embedding matrix live as plain in-RAM numpy arrays owned by
the process.  That couples KB size to one process's memory.  This
module splits *where those matrices live* out of *how they are used*:

* :class:`KBStore` — serves the KB's node feature matrix (``x_ref``);
* :class:`EmbeddingStore` — serves the reference-embedding matrix
  (``h_ref``), and, where the backend persists it, keys it by a content
  fingerprint over (model weights, KB) so a stale matrix is never
  served;
* :class:`StorageConfig` — the declarative knob set, a strict
  round-trip section of :class:`~repro.serving.ServiceConfig` (and thus
  of the LinkerConfig JSON).

Two backends implement the seam (``KB_STORES``):

* ``"memory"`` (default) — live arrays; the embedding matrix is
  computed at every start and never persisted;
* ``"mmap"`` — both matrices persisted as ``.npy`` array files in a
  *bundle* directory (see :mod:`repro.storage.bundle`) and served as
  read-only memory maps, so a KB larger than one process's RAM is
  servable and N serving processes on one host share one page cache.
  The bundle is the one persisted form of ``h_ref``.

Every backend serves bit-identical bytes — scores never depend on where
the matrices live.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "KB_STORES",
    "KB_STORE_ENV",
    "EmbeddingStore",
    "KBStore",
    "StorageConfig",
    "StorageError",
    "default_kb_store",
    "resolve_kb_store",
]

#: the KB/embedding store backends a config may name
KB_STORES = ("memory", "mmap")

#: environment default for the backend (the CI kb-store matrix sets this)
KB_STORE_ENV = "REPRO_KB_STORE"


class StorageError(RuntimeError):
    """A storage backend failed (corrupt bundle, missing arrays)."""


def default_kb_store() -> str:
    """The store used when nothing names one explicitly: the
    ``REPRO_KB_STORE`` environment variable when set (the CI kb-store
    matrix forces the mmap backend this way), else ``"memory"``."""
    return os.environ.get(KB_STORE_ENV, "").strip() or "memory"


def resolve_kb_store(requested: Optional[str] = None) -> str:
    """Resolve a store name: explicit argument, else the
    ``REPRO_KB_STORE`` environment default, else ``"memory"``.
    An unknown name raises."""
    store = requested or default_kb_store()
    if store not in KB_STORES:
        raise ValueError(f"unknown kb store {store!r}; options: {KB_STORES}")
    return store


@dataclass(frozen=True)
class StorageConfig:
    """Where the KB feature table and embedding matrix live.

    Lives inside :class:`~repro.serving.ServiceConfig` as the
    ``storage`` section; the JSON round trip is strict and exact like
    every other config section.
    """

    #: "memory" (live arrays) or "mmap" (bundle-backed read-only maps);
    #: defaults to the REPRO_KB_STORE environment variable when set.
    kb_store: str = field(default_factory=default_kb_store)
    #: bundle directory for the mmap store (``repro kb pack`` output).
    #: None packs into a private temporary bundle, removed on close().
    bundle_path: Optional[str] = None

    def __post_init__(self):
        if self.kb_store not in KB_STORES:
            raise ValueError(
                f"unknown kb_store {self.kb_store!r}; options: {KB_STORES}"
            )
        if self.bundle_path is not None and not isinstance(self.bundle_path, str):
            raise ValueError("storage bundle_path must be a path string (or null)")


class KBStore:
    """Serves the KB node feature matrix (``x_ref``).

    ``features`` must be bit-identical to ``kb.features`` — the store
    only changes where the bytes live (RAM vs a read-only memory map),
    never their values.
    """

    backend: str

    @property
    def features(self) -> np.ndarray:
        raise NotImplementedError

    def refresh(self) -> None:
        """Revalidate against the live KB (after a KB mutation)."""

    def close(self) -> None:
        """Release file handles / temporary directories.  Idempotent."""


class EmbeddingStore:
    """Serves (and, if the backend persists it, reloads) the
    reference-embedding matrix (``h_ref``).

    The matrix is keyed by a content fingerprint over (model weights,
    KB); ``load`` returns ``None`` rather than a stale matrix, and
    always ``None`` from a backend that persists nothing.
    """

    backend: str

    def load(self, fingerprint: int) -> Optional[np.ndarray]:
        raise NotImplementedError

    def store(self, fingerprint: int, h_ref: np.ndarray) -> np.ndarray:
        """Persist a freshly computed matrix; returns the store-backed
        array to serve (for the mmap store, a read-only memory map of
        the bytes just written — bit-identical to ``h_ref``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release file handles / temporary directories.  Idempotent."""
