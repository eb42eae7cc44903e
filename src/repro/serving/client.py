"""A stdlib client for the HTTP front door (:mod:`repro.serving.http`).

:class:`LinkerClient` speaks the typed wire schema over
``http.client.HTTPConnection`` — no dependencies, same strict parsing as
the server.  Non-2xx responses raise :class:`LinkerClientError` carrying
the decoded :class:`~repro.serving.wire.ErrorResponse` so callers can
branch on the machine-readable ``code`` (``draining``,
``payload_too_large``, ...).  A 429 from the admission gate raises the
:class:`LinkerOverloadedError` subclass, which carries the server's
``Retry-After`` hint; :func:`retry_overloaded` is the matching bounded
backoff helper.

    with LinkerClient(port=server.port) as client:
        prediction = client.link(text="... spinal hyperplasia ...")
        batch = client.link_batch(["text a", "text b"], top_k=3)
        for result in client.link_stream(snippets):
            ...
        burst = retry_overloaded(
            lambda: client.link_batch(texts), retries=3
        )
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Callable, Iterable, Iterator, List, Optional, TypeVar, Union

from ..text.corpus import Snippet
from .wire import (
    ErrorResponse,
    LinkItem,
    LinkRequest,
    LinkResponse,
    WirePrediction,
    parse_stream_line,
)

__all__ = [
    "LinkerClient",
    "LinkerClientError",
    "LinkerOverloadedError",
    "retry_overloaded",
]

#: anything `link_batch` / `link_stream` can normalise into a LinkItem
ItemLike = Union[str, Snippet, LinkItem]

T = TypeVar("T")


class LinkerClientError(RuntimeError):
    """A non-2xx server response; ``error`` is the decoded body when the
    server sent a structured :class:`ErrorResponse` (None otherwise)."""

    def __init__(self, status: int, error: Optional[ErrorResponse], raw: bytes = b""):
        message = error.message if error is not None else raw.decode("utf-8", "replace")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.error = error


class LinkerOverloadedError(LinkerClientError):
    """A 429 from the admission gate: the request was shed, not failed.

    ``retry_after_s`` is the server's hint for when the queue should be
    back under budget — the ``Retry-After`` header when present, else
    the structured body's ``retry_after_ms``, else 1 second.
    """

    def __init__(
        self,
        status: int,
        error: Optional[ErrorResponse],
        raw: bytes = b"",
        retry_after_s: float = 1.0,
    ):
        super().__init__(status, error, raw)
        self.retry_after_s = retry_after_s


def _retry_after_seconds(
    header: Optional[str], error: Optional[ErrorResponse]
) -> float:
    if header is not None:
        try:
            return max(0.0, float(header))
        except ValueError:
            pass  # an HTTP-date Retry-After; fall through to the body
    if error is not None and error.retry_after_ms is not None:
        return max(0.0, error.retry_after_ms / 1000.0)
    return 1.0


def retry_overloaded(
    call: Callable[[], T],
    retries: int = 3,
    max_wait_s: float = 5.0,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run ``call``, retrying up to ``retries`` times when the server
    sheds it with a 429 — sleeping the server's ``Retry-After`` hint
    (capped at ``max_wait_s``) between attempts.  Bounded on purpose:
    after the last attempt the :class:`LinkerOverloadedError` propagates
    so sustained overload surfaces instead of spinning.  ``sleep`` is
    injectable for tests.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    for _ in range(retries):
        try:
            return call()
        except LinkerOverloadedError as exc:
            sleep(min(exc.retry_after_s, max_wait_s))
    return call()


def _as_item(item: ItemLike) -> LinkItem:
    if isinstance(item, LinkItem):
        return item
    if isinstance(item, Snippet):
        return LinkItem(snippet=item)
    if isinstance(item, str):
        return LinkItem(text=item)
    raise TypeError(f"cannot make a link item from {type(item).__name__}")


class LinkerClient:
    """Client for one :class:`~repro.serving.http.LinkingHTTPServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 60.0):
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 headers: Optional[dict] = None):
        headers = dict(headers or {})
        if body is not None:
            headers.setdefault("Content-Type", "application/json")
        self._conn.request(method, path, body=body, headers=headers)
        return self._conn.getresponse()

    def _json(self, method: str, path: str, body: Optional[bytes] = None,
              headers: Optional[dict] = None) -> dict:
        response = self._request(method, path, body, headers)
        raw = response.read()
        if not 200 <= response.status < 300:
            raise _client_error(response, raw)
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness payload; raises :class:`LinkerClientError` with
        ``code="draining"`` once the server refuses new work."""
        return self._json("GET", "/healthz")

    def stats(self, prometheus: bool = False):
        """Server-side :class:`ServiceStats` — the ``to_dict()`` payload,
        or the Prometheus text exposition when ``prometheus=True``."""
        if not prometheus:
            return self._json("GET", "/stats")["stats"]
        response = self._request("GET", "/stats", headers={"Accept": "text/plain"})
        raw = response.read()
        if response.status != 200:
            raise _client_error(response, raw)
        return raw.decode("utf-8")

    def link(
        self,
        text: Optional[str] = None,
        mention: Optional[str] = None,
        snippet: Optional[Snippet] = None,
        top_k: Optional[int] = None,
        priority: str = "normal",
    ) -> WirePrediction:
        """Link one mention: raw ``text`` (+ optional ``mention`` surface)
        or a full ``snippet``; ``priority`` names the admission class the
        server queues it under."""
        item = LinkItem(text=text, mention=mention, snippet=snippet, priority=priority)
        return self.link_batch([item], top_k=top_k)[0]

    def link_batch(
        self, items: Iterable[ItemLike], top_k: Optional[int] = None
    ) -> List[WirePrediction]:
        """``POST /link``: one prediction per item, in item order, as
        ``LinkingService.link_batch`` on the server returns it: the
        sequential ranking, with scores equal up to float32 rounding of
        the server's batched forward."""
        request = LinkRequest(
            items=tuple(_as_item(item) for item in items), top_k=top_k
        )
        payload = self._json("POST", "/link", request.to_json().encode())
        return list(LinkResponse.from_dict(payload).predictions)

    def link_stream(
        self, items: Iterable[ItemLike]
    ) -> Iterator[Union[WirePrediction, ErrorResponse]]:
        """``POST /link_stream``: yields one result per input line as the
        server flushes them — a prediction, or an
        :class:`ErrorResponse` for lines the server could not parse."""
        body = b"".join(
            json.dumps(_as_item(item).to_dict()).encode() + b"\n" for item in items
        )
        response = self._request(
            "POST", "/link_stream", body, {"Content-Type": "application/x-ndjson"}
        )
        if response.status != 200:
            raw = response.read()
            raise _client_error(response, raw)
        for line in response:
            line = line.strip()
            if line:
                yield parse_stream_line(line)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "LinkerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_error(raw: bytes) -> Optional[ErrorResponse]:
    try:
        return ErrorResponse.from_json(raw)
    except ValueError:
        return None


def _client_error(response, raw: bytes) -> LinkerClientError:
    """The typed error for a non-2xx response: a 429 shed becomes
    :class:`LinkerOverloadedError` with its retry hint, everything else
    the generic :class:`LinkerClientError`."""
    error = _decode_error(raw)
    if response.status == 429:
        return LinkerOverloadedError(
            response.status,
            error,
            raw,
            retry_after_s=_retry_after_seconds(
                response.getheader("Retry-After"), error
            ),
        )
    return LinkerClientError(response.status, error, raw)
