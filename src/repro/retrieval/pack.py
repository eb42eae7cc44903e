"""Packing retrieval indexes into (and loading them out of) KB bundles.

A packed index is a set of ``retrieval_<name>.npy`` files next to the
bundle's feature/embedding arrays plus a ``"retrieval"`` manifest entry
recording the index kind, the build fingerprint, the config and params
it was built under, and per-array ``{shape, dtype, crc}`` — the same
written-last/atomic manifest discipline as the rest of the bundle, so a
crashed pack never leaves a loadable-but-wrong index.

Loading memory-maps every array read-only (``np.load(mmap_mode="r")``),
so N serving processes on one bundle share a single page-cache copy of
the postings arrays.  A fingerprint mismatch (KB surfaces or retrieval
config changed since packing) loads as ``None`` — callers rebuild and,
when a manifest exists, :func:`repack_index` refreshes the entry in
place.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Optional

import numpy as np

from ..storage.base import StorageError
from ..storage.bundle import MANIFEST_NAME, read_manifest, write_manifest
from .base import RetrievalConfig, RetrievalIndex
from .ngram import NgramPostingsIndex

__all__ = [
    "RETRIEVAL_ARRAY_PREFIX",
    "load_packed_index",
    "repack_index",
    "write_retrieval_arrays",
]

RETRIEVAL_ARRAY_PREFIX = "retrieval_"


def _array_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{RETRIEVAL_ARRAY_PREFIX}{name}.npy")


def write_retrieval_arrays(directory: str, index: RetrievalIndex) -> dict:
    """Save the index's arrays into ``directory``; return its manifest entry.

    The caller owns writing the manifest afterwards (arrays first,
    manifest last — the bundle's crash-safety invariant).
    """
    arrays_entry: Dict[str, dict] = {}
    for name, array in index.arrays().items():
        contiguous = np.ascontiguousarray(array)
        np.save(_array_path(directory, name), contiguous)
        arrays_entry[name] = {
            "shape": list(contiguous.shape),
            "dtype": str(contiguous.dtype),
            "crc": zlib.crc32(contiguous.tobytes()),
        }
    config = index.config.to_dict()
    config.pop("bundle_path", None)
    return {
        "backend": index.backend,
        "fingerprint": int(index.fingerprint),
        "config": config,
        "params": index.params(),
        "arrays": arrays_entry,
    }


def load_packed_index(
    directory: str,
    config: RetrievalConfig,
    expected_fingerprint: int,
) -> Optional[RetrievalIndex]:
    """Load the packed index from a bundle, or ``None`` when it is unusable.

    ``None`` means "build it yourself": no bundle/manifest yet, no
    retrieval entry, or a fingerprint mismatch (stale).  A bundle that
    *claims* to have a current index but whose arrays are unreadable or
    mis-shaped raises :class:`StorageError` — that is corruption, not
    staleness, and silently rebuilding would mask it.
    """
    if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        return None
    manifest = read_manifest(directory)
    entry = manifest.get("retrieval")
    if entry is None or int(entry["fingerprint"]) != int(expected_fingerprint):
        return None
    arrays: Dict[str, np.ndarray] = {}
    for name, meta in entry["arrays"].items():
        path = _array_path(directory, name)
        if not os.path.exists(path):
            return None  # arrays pruned out from under the manifest: rebuild
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise StorageError(f"unreadable bundle array {path}: {exc}") from None
        if list(array.shape) != meta["shape"] or str(array.dtype) != meta["dtype"]:
            raise StorageError(
                f"bundle array {path}: shape/dtype {array.shape}/{array.dtype} "
                f"!= manifest {tuple(meta['shape'])}/{meta['dtype']}"
            )
        arrays[name] = array
    return NgramPostingsIndex.from_arrays(
        config, entry["params"], arrays, fingerprint=int(entry["fingerprint"])
    )


def repack_index(directory: str, index: RetrievalIndex) -> bool:
    """Refresh a bundle's retrieval entry with a freshly built index.

    Only acts on an existing bundle (one with a manifest) — a retrieval
    index is an annex to a packed KB, not a bundle of its own.  Returns
    whether a repack happened.
    """
    if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        return False
    manifest = read_manifest(directory)
    manifest["retrieval"] = write_retrieval_arrays(directory, index)
    write_manifest(directory, manifest)
    return True
