"""The typed wire schema of the HTTP front door (:mod:`repro.serving.http`).

The wire format is a real API in the :class:`~repro.api.LinkerConfig`
style: frozen, schema-versioned request/response dataclasses with strict
``to_json`` / ``from_json`` — unknown keys, wrong types, and unsupported
schema versions are rejected (:class:`WireError`, which carries the HTTP
status and a machine-readable error code) instead of being ignored.  A
payload that parses is a payload the server can execute.

* :class:`LinkItem` — one unit of work: either a fully annotated snippet
  (the paper's ground-truth JSON layout via
  :meth:`~repro.text.corpus.Snippet.to_dict`) or raw ``text`` with an
  optional ``mention`` surface to disambiguate (the server runs NER);
* :class:`LinkRequest` — ``POST /link`` body: one or more items plus an
  optional ``top_k`` cap (also the per-line schema of ``/link_stream``,
  where each NDJSON line is a single item payload);
* :class:`WirePrediction` / :class:`LinkResponse` — the ranked entities
  and scores of :meth:`LinkingService.link_batch`, bit-identical through
  the JSON round trip (``json`` serialises floats via ``repr``, which
  ``float()`` inverts exactly);
* :class:`ErrorResponse` — every non-2xx body, and the per-line failure
  record of streaming endpoints (``repro serve --input -`` emits the
  same shape on unparseable lines).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.pipeline import Prediction
from ..core.serialization import ensure_known_keys
from ..text.corpus import Snippet
from .admission import DEFAULT_PRIORITY, PRIORITIES

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "LinkItem",
    "LinkRequest",
    "WirePrediction",
    "LinkResponse",
    "ErrorResponse",
    "parse_stream_line",
]

#: bump when the wire JSON layout changes incompatibly; v2 added the
#: optional per-item ``priority`` and ``ErrorResponse.retry_after_ms``.
#: Only this version is accepted: any other is a structured 400
#: ``unsupported_schema_version``.
WIRE_SCHEMA_VERSION = 2


class WireError(ValueError):
    """An invalid wire payload: carries the HTTP status and error code.

    The server maps a ``WireError`` straight to a structured
    :class:`ErrorResponse` with :attr:`status`; clients raise it from
    :meth:`ErrorResponse` payloads they receive.
    """

    def __init__(self, message: str, code: str = "bad_request", status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status

    def to_response(self, detail: Optional[str] = None) -> "ErrorResponse":
        return ErrorResponse(code=self.code, message=str(self), detail=detail)


def _known(payload: dict, allowed, where: str) -> None:
    try:
        ensure_known_keys(payload, allowed, where)
    except ValueError as exc:
        raise WireError(str(exc)) from None


def _object(payload, where: str) -> dict:
    if not isinstance(payload, dict):
        raise WireError(f"{where} must be a JSON object")
    return payload


def _check_version(payload: dict, where: str) -> None:
    version = payload.get("schema_version")
    if version != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"unsupported {where} schema_version {version!r} "
            f"(expected {WIRE_SCHEMA_VERSION})",
            code="unsupported_schema_version",
        )


def _loads(text, where: str) -> dict:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"{where} is not valid UTF-8: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"{where} is not valid JSON: {exc}") from None
    return _object(payload, where)


@dataclass(frozen=True)
class LinkItem:
    """One linking work unit: a full snippet OR raw text (+ mention).

    ``priority`` (wire v2) names the admission class the scheduler
    serves the item under (:data:`~repro.serving.admission.PRIORITIES`);
    it is optional and defaults to ``"normal"``, so v1 payloads parse
    unchanged.
    """

    text: Optional[str] = None
    mention: Optional[str] = None
    snippet: Optional[Snippet] = None
    priority: str = DEFAULT_PRIORITY

    def __post_init__(self):
        if (self.snippet is None) == (self.text is None):
            raise WireError("link item needs exactly one of 'text' or 'snippet'")
        if self.snippet is not None and self.mention is not None:
            raise WireError("'mention' only applies to raw 'text' items")
        if self.priority not in PRIORITIES:
            raise WireError(
                f"unknown link item priority {self.priority!r}; "
                f"options: {PRIORITIES}",
                code="unknown_priority",
            )

    def to_dict(self) -> dict:
        if self.snippet is not None:
            payload = {"snippet": self.snippet.to_dict()}
        else:
            payload = {"text": self.text}
            if self.mention is not None:
                payload["mention"] = self.mention
        if self.priority != DEFAULT_PRIORITY:
            payload["priority"] = self.priority
        return payload

    @classmethod
    def from_dict(cls, payload, where: str = "link item") -> "LinkItem":
        payload = _object(payload, where)
        _known(payload, ("text", "mention", "snippet", "priority"), where)
        snippet = payload.get("snippet")
        if snippet is not None:
            try:
                snippet = Snippet.from_dict(_object(snippet, f"{where} snippet"))
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(f"bad {where} snippet: {exc!r}") from None
        for key in ("text", "mention"):
            if payload.get(key) is not None and not isinstance(payload[key], str):
                raise WireError(f"{where} {key!r} must be a string")
        priority = payload.get("priority", DEFAULT_PRIORITY)
        if not isinstance(priority, str):
            raise WireError(f"{where} 'priority' must be a string")
        return cls(
            text=payload.get("text"),
            mention=payload.get("mention"),
            snippet=snippet,
            priority=priority,
        )


@dataclass(frozen=True)
class LinkRequest:
    """``POST /link`` body: a batch of items (a single snippet is a
    batch of one) plus an optional per-request ``top_k`` cap."""

    items: Tuple[LinkItem, ...]
    top_k: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if not self.items:
            raise WireError("link request has no items")
        if self.top_k is not None and (
            isinstance(self.top_k, bool) or not isinstance(self.top_k, int) or self.top_k < 1
        ):
            raise WireError("'top_k' must be a positive integer")

    def to_dict(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "items": [item.to_dict() for item in self.items],
            "top_k": self.top_k,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "LinkRequest":
        payload = _object(payload, "link request")
        _check_version(payload, "link request")
        _known(payload, ("schema_version", "items", "top_k"), "link request")
        items = payload.get("items")
        if not isinstance(items, list):
            raise WireError("link request 'items' must be an array")
        return cls(
            items=tuple(
                LinkItem.from_dict(item, where=f"items[{i}]")
                for i, item in enumerate(items)
            ),
            top_k=payload.get("top_k"),
        )

    @classmethod
    def from_json(cls, text) -> "LinkRequest":
        return cls.from_dict(_loads(text, "link request"))


@dataclass(frozen=True)
class WirePrediction:
    """One ranked candidate list, exactly as the service produced it."""

    mention: str
    entity_ids: Tuple[int, ...]
    scores: Tuple[float, ...]
    entity_names: Tuple[str, ...] = ()

    @classmethod
    def from_prediction(
        cls, prediction: Prediction, entity_names: Tuple[str, ...] = ()
    ) -> "WirePrediction":
        return cls(
            mention=prediction.mention,
            entity_ids=tuple(int(e) for e in prediction.ranked_entities),
            scores=tuple(float(s) for s in prediction.scores),
            entity_names=tuple(entity_names),
        )

    def to_prediction(self) -> Prediction:
        """The :class:`~repro.core.pipeline.Prediction` this encodes —
        bit-identical to the server-side object (JSON floats round-trip
        exactly through ``repr``)."""
        return Prediction(
            mention=self.mention,
            ranked_entities=list(self.entity_ids),
            scores=list(self.scores),
        )

    def to_dict(self) -> dict:
        payload = {
            "mention": self.mention,
            "entity_ids": list(self.entity_ids),
            "scores": list(self.scores),
        }
        if self.entity_names:
            payload["entity_names"] = list(self.entity_names)
        return payload

    @classmethod
    def from_dict(cls, payload, where: str = "prediction") -> "WirePrediction":
        payload = _object(payload, where)
        _known(payload, ("mention", "entity_ids", "scores", "entity_names"), where)
        try:
            return cls(
                mention=payload["mention"],
                entity_ids=tuple(int(e) for e in payload["entity_ids"]),
                scores=tuple(float(s) for s in payload["scores"]),
                entity_names=tuple(payload.get("entity_names", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"bad {where}: {exc!r}") from None


@dataclass(frozen=True)
class LinkResponse:
    """``POST /link`` 200 body: one prediction per request item, in
    request order."""

    predictions: Tuple[WirePrediction, ...]

    def __post_init__(self):
        object.__setattr__(self, "predictions", tuple(self.predictions))

    def to_dict(self) -> dict:
        return {
            "schema_version": WIRE_SCHEMA_VERSION,
            "predictions": [p.to_dict() for p in self.predictions],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "LinkResponse":
        payload = _object(payload, "link response")
        _check_version(payload, "link response")
        _known(payload, ("schema_version", "predictions"), "link response")
        predictions = payload.get("predictions")
        if not isinstance(predictions, list):
            raise WireError("link response 'predictions' must be an array")
        return cls(
            predictions=tuple(
                WirePrediction.from_dict(p, where=f"predictions[{i}]")
                for i, p in enumerate(predictions)
            )
        )

    @classmethod
    def from_json(cls, text) -> "LinkResponse":
        return cls.from_dict(_loads(text, "link response"))


@dataclass(frozen=True)
class ErrorResponse:
    """Every non-2xx body, and the per-line failure record of streams.

    ``retry_after_ms`` (wire v2) rides on 429 shed responses: the
    admission controller's estimate of when the queue will be back
    under budget (the ``Retry-After`` header carries the same hint in
    whole seconds).
    """

    code: str
    message: str
    detail: Optional[str] = None
    retry_after_ms: Optional[float] = None

    def __post_init__(self):
        if self.retry_after_ms is not None:
            if isinstance(self.retry_after_ms, bool) or not isinstance(
                self.retry_after_ms, (int, float)
            ):
                raise WireError("'retry_after_ms' must be a number")
            if self.retry_after_ms < 0:
                raise WireError("'retry_after_ms' must be >= 0")

    def to_dict(self) -> dict:
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION,
            "code": self.code,
            "message": self.message,
        }
        if self.detail is not None:
            payload["detail"] = self.detail
        if self.retry_after_ms is not None:
            payload["retry_after_ms"] = self.retry_after_ms
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "ErrorResponse":
        payload = _object(payload, "error response")
        _check_version(payload, "error response")
        _known(
            payload,
            ("schema_version", "code", "message", "detail", "retry_after_ms"),
            "error response",
        )
        try:
            return cls(
                code=payload["code"],
                message=payload["message"],
                detail=payload.get("detail"),
                retry_after_ms=payload.get("retry_after_ms"),
            )
        except KeyError as exc:
            raise WireError(f"error response missing key {exc}") from None

    @classmethod
    def from_json(cls, text) -> "ErrorResponse":
        return cls.from_dict(_loads(text, "error response"))


def parse_stream_line(line):
    """One ``/link_stream`` response line: a :class:`WirePrediction` or,
    for a failed input line, an :class:`ErrorResponse` (distinguished by
    the ``code`` field only error payloads carry)."""
    payload = _loads(line, "stream line")
    if "code" in payload:
        return ErrorResponse.from_dict(payload)
    return WirePrediction.from_dict(payload, where="stream line")
