"""The mmap bundle: KB matrices as array files, served as memory maps.

A *bundle* is a directory of plain ``.npy`` files plus a strict JSON
manifest::

    bundle/
      manifest.json   {"schema_version": 1, "features": {...}, "h_ref": {...},
                       "retrieval": {...}}
      features.npy    the KB node feature matrix (x_ref)
      h_ref.npy       the reference-embedding matrix (optional)
      retrieval_*.npy packed candidate-retrieval index arrays (optional;
                      see :mod:`repro.retrieval.pack`)

``repro kb pack`` builds one from a checkpoint; :class:`MmapStore`
serves it with ``np.load(..., mmap_mode="r")``, so the matrices live in
the page cache rather than anonymous process memory — N serving
processes on one host share one copy, and a KB larger than any single
process's RAM budget is servable.  ``np.save``/``np.load`` round-trip float arrays
bit-exactly, so scores are identical to serving the live arrays.

Staleness is handled by content, not by trust: the manifest records a
CRC of the feature bytes and the (weights + KB) content fingerprint the
embedding matrix was computed under.  A mismatch against the live
pipeline reads as "re-pack" / "recompute", never as wrong data.  The
manifest is written last (and atomically) so a crashed pack never
leaves a bundle that parses.

This module also owns the fingerprint helpers (:func:`weights_crc`,
:func:`content_fingerprint`) that key every persisted embedding matrix
— the serving layer delegates here so its refresh check and the mmap
bundle agree on what "stale" means.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Optional

import numpy as np

from ..core.serialization import ensure_known_keys

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "MmapStore",
    "StorageError",
    "content_fingerprint",
    "features_crc",
    "pack_bundle",
    "read_manifest",
    "weights_crc",
    "write_manifest",
]

BUNDLE_SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
FEATURES_NAME = "features.npy"
H_REF_NAME = "h_ref.npy"


class StorageError(RuntimeError):
    """A bundle cannot be served (corrupt manifest, unreadable arrays)."""


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def weights_crc(model) -> int:
    """CRC32 over the model's parameters in name order."""
    crc = 0
    for _, param in sorted(model.named_parameters()):
        crc = zlib.crc32(np.ascontiguousarray(param.data).tobytes(), crc)
    return crc


def features_crc(features: Optional[np.ndarray]) -> int:
    """CRC32 over the raw feature bytes (0 for an absent matrix)."""
    if features is None:
        return 0
    return zlib.crc32(np.ascontiguousarray(features).tobytes())


def content_fingerprint(pipeline) -> int:
    """Full content checksum (weights + KB nodes/edges/features) keying
    every *persisted* embedding matrix — unlike the serving layer's
    cheap per-request fingerprint it is stable across processes."""
    crc = weights_crc(pipeline.model)
    kb = pipeline.kb
    crc = zlib.crc32(np.asarray(kb.node_types, dtype=np.int64).tobytes(), crc)
    for column in kb.edges():
        crc = zlib.crc32(np.ascontiguousarray(column).tobytes(), crc)
    if kb.features is not None:
        crc = zlib.crc32(np.ascontiguousarray(kb.features).tobytes(), crc)
    return crc


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _array_entry(array: np.ndarray) -> dict:
    return {"shape": list(array.shape), "dtype": str(array.dtype)}


def _write_manifest(directory: str, manifest: dict) -> None:
    # Written atomically and last: a bundle without a parsable manifest
    # is simply not a bundle, so a crashed pack can never serve.
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def _read_manifest(directory: str) -> dict:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"unreadable bundle manifest at {path}: {exc}") from None
    where = f"bundle manifest {path}"
    ensure_known_keys(
        manifest, {"schema_version", "features", "h_ref", "retrieval"}, where
    )
    if manifest.get("schema_version") != BUNDLE_SCHEMA_VERSION:
        raise StorageError(
            f"{where}: schema_version {manifest.get('schema_version')!r} "
            f"!= {BUNDLE_SCHEMA_VERSION}"
        )
    if not isinstance(manifest.get("features"), dict):
        raise StorageError(f"{where}: missing features entry")
    ensure_known_keys(manifest["features"], {"shape", "dtype", "crc"}, f"{where} features")
    if manifest.get("h_ref") is not None:
        ensure_known_keys(
            manifest["h_ref"], {"shape", "dtype", "fingerprint"}, f"{where} h_ref"
        )
    if manifest.get("retrieval") is not None:
        retrieval = manifest["retrieval"]
        ensure_known_keys(
            retrieval,
            {"backend", "fingerprint", "config", "params", "arrays"},
            f"{where} retrieval",
        )
        if not isinstance(retrieval.get("arrays"), dict):
            raise StorageError(f"{where} retrieval: missing arrays entry")
        for name, entry in retrieval["arrays"].items():
            ensure_known_keys(
                entry, {"shape", "dtype", "crc"}, f"{where} retrieval array {name!r}"
            )
    return manifest


# Public aliases: :mod:`repro.retrieval.pack` reads and rewrites the
# manifest when it packs or refreshes an index entry, and tests assert
# against the parsed form.
read_manifest = _read_manifest
write_manifest = _write_manifest


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack_bundle(
    pipeline,
    directory: str,
    *,
    embeddings: bool = True,
    retrieval_index=None,
) -> dict:
    """Write an mmap bundle for the pipeline's KB into ``directory``.

    Persists the feature matrix, and — unless ``embeddings=False`` —
    the reference-embedding matrix (computing it if needed) keyed by the
    pipeline's content fingerprint, so a subsequent
    ``repro serve --kb-bundle DIR`` starts without a single forward
    pass.  ``retrieval_index`` (a built
    :class:`~repro.retrieval.base.RetrievalIndex`) additionally packs
    the candidate-retrieval index arrays with CRC-checked manifest
    entries; the helper import is deferred so the storage layer has no
    module-level dependency on the retrieval package.  Returns the
    manifest dict.
    """
    features = pipeline.kb.features
    if features is None:
        raise StorageError("cannot pack a KB with no feature matrix")
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, FEATURES_NAME), np.ascontiguousarray(features))
    manifest = {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "features": {**_array_entry(features), "crc": features_crc(features)},
        "h_ref": None,
        "retrieval": None,
    }
    if embeddings:
        h_ref = pipeline.ref_embeddings()
        np.save(os.path.join(directory, H_REF_NAME), np.ascontiguousarray(h_ref))
        manifest["h_ref"] = {
            **_array_entry(h_ref),
            "fingerprint": content_fingerprint(pipeline),
        }
    if retrieval_index is not None:
        from ..retrieval.pack import write_retrieval_arrays

        manifest["retrieval"] = write_retrieval_arrays(directory, retrieval_index)
    _write_manifest(directory, manifest)
    return manifest


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class MmapStore:
    """Bundle-backed store serving both KB matrices as read-only maps.

    Pointed at a bundle directory (``repro kb pack`` output) it serves
    the packed arrays, after validating the feature CRC against the live
    KB and re-packing on mismatch, so a stale bundle can never change
    scores.  A directory without a manifest (or a path that does not
    exist yet) is packed from the live KB; ``h_ref`` is then stored on
    the first :meth:`store`.
    """

    def __init__(self, kb, directory: str):
        self._kb = kb
        if kb.features is None:
            raise StorageError("mmap store needs a KB with a feature matrix")
        os.makedirs(directory, exist_ok=True)
        self._directory = directory
        self._closed = False
        self._features: Optional[np.ndarray] = None
        self._manifest: Optional[dict] = None
        if os.path.exists(os.path.join(self._directory, MANIFEST_NAME)):
            self._manifest = _read_manifest(self._directory)
        self._validate()

    # -- internals ------------------------------------------------------
    def _validate(self) -> None:
        """Make the bundle's feature file current: (re)pack when the
        manifest is absent or its CRC disagrees with the live KB."""
        live_crc = features_crc(self._kb.features)
        if self._manifest is None or self._manifest["features"]["crc"] != live_crc:
            np.save(
                os.path.join(self._directory, FEATURES_NAME),
                np.ascontiguousarray(self._kb.features),
            )
            h_ref = self._manifest["h_ref"] if self._manifest else None
            retrieval = self._manifest.get("retrieval") if self._manifest else None
            self._manifest = {
                "schema_version": BUNDLE_SCHEMA_VERSION,
                "features": {
                    **_array_entry(self._kb.features),
                    "crc": live_crc,
                },
                # Retained h_ref / retrieval entries are harmless: both
                # are fingerprint-checked at load time and only served
                # while they still match the live pipeline.
                "h_ref": h_ref,
                "retrieval": retrieval,
            }
            _write_manifest(self._directory, self._manifest)
            self._features = None
        if self._features is None:
            path = os.path.join(self._directory, FEATURES_NAME)
            try:
                self._features = np.load(path, mmap_mode="r")
            except (OSError, ValueError) as exc:
                raise StorageError(f"unreadable bundle array {path}: {exc}") from None

    # -- the feature matrix (x_ref) --------------------------------------
    @property
    def features(self) -> np.ndarray:
        if self._closed:
            raise StorageError("mmap store is closed")
        return self._features

    def refresh(self) -> None:
        """Revalidate against the live KB (after a KB mutation)."""
        self._validate()

    # -- the reference embeddings (h_ref) ---------------------------------
    def load(self, fingerprint: int) -> Optional[np.ndarray]:
        """The packed ``h_ref`` if it was computed under ``fingerprint``
        (see :func:`content_fingerprint`), else ``None``: a stale matrix
        is never served."""
        if self._closed:
            raise StorageError("mmap store is closed")
        entry = self._manifest.get("h_ref") if self._manifest else None
        path = os.path.join(self._directory, H_REF_NAME)
        if entry is None or entry["fingerprint"] != fingerprint or not os.path.exists(path):
            return None
        try:
            return np.load(path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise StorageError(f"unreadable bundle array {path}: {exc}") from None

    def store(self, fingerprint: int, h_ref: np.ndarray) -> np.ndarray:
        """Persist a freshly computed ``h_ref`` under ``fingerprint`` and
        return a read-only map of the bytes just written (bit-identical
        to ``h_ref``)."""
        if self._closed:
            raise StorageError("mmap store is closed")
        path = os.path.join(self._directory, H_REF_NAME)
        np.save(path, np.ascontiguousarray(h_ref))
        self._manifest["h_ref"] = {
            **_array_entry(h_ref),
            "fingerprint": int(fingerprint),
        }
        _write_manifest(self._directory, self._manifest)
        return np.load(path, mmap_mode="r")

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drop the maps; the bundle directory stays.  Idempotent."""
        self._closed = True
        self._features = None
