"""Batched high-throughput linking service (the production-facing layer).

Wraps a fitted :class:`~repro.core.pipeline.EDPipeline` behind
:class:`LinkingService`, which serves ``link_batch(snippets)`` and
``link_texts(texts)`` with a fingerprinted reference-embedding cache, a
micro-batch scheduler over disjoint-union forwards, an LRU result cache,
and :class:`ServiceStats` telemetry.  Every ranking comes from the
scorer and the ranking ``EDPipeline.disambiguate_snippet`` uses, against
the service's ``h_ref``/``x_ref``: the rankings are the same, and the
scores are equal up to float32 rounding of the batched forward (exact
for a batch of one).  On top of it,
:class:`AsyncLinkingService` (``scheduler``) accepts requests onto a
queue and forms micro-batches under a latency deadline.  A service
serves the KB matrices from the pipeline's live arrays, or — when
``ServiceConfig.bundle_path`` names a ``repro kb pack`` bundle — from
that bundle's read-only maps (:mod:`repro.storage`); the bundle is the
one place ``h_ref`` is persisted.

The network front door is :class:`LinkingHTTPServer` (``http``): an
asyncio + stdlib HTTP server over the async service speaking the typed,
schema-versioned wire format of ``wire`` (:class:`LinkRequest`,
:class:`LinkResponse`, :class:`ErrorResponse`), with
:class:`LinkerClient` (``client``) as the matching stdlib client.

Overload protection is the ``admission`` module:
:class:`AdmissionConfig` (the ``admission`` section of
:class:`ServiceConfig`; no shedding by default) bounds the scheduler's
queue with priority classes and sheds the overflow as structured 429s
with ``Retry-After`` (:class:`AdmissionError` /
:class:`LinkerOverloadedError`), by queue depth or by estimated queue
wait.  The scheduler's ``deadline_ms`` and
``max_batch_size`` are fixed for the life of the service.
See ``examples/serving_quickstart.py``, ``examples/http_quickstart.py``
and the ``repro serve`` CLI command (``repro serve --http PORT``).
"""

from .admission import (  # noqa: F401
    PRIORITIES,
    SHED_POLICIES,
    AdmissionConfig,
    AdmissionController,
    AdmissionError,
)
from .cache import LRUCache  # noqa: F401
from .client import (  # noqa: F401
    LinkerClient,
    LinkerClientError,
    LinkerOverloadedError,
    retry_overloaded,
)
from .http import LinkingHTTPServer  # noqa: F401
from .scheduler import AsyncLinkingService, DeadlineBatcher, QueuedRequest  # noqa: F401
from .service import HttpConfig, LinkingService, ServiceConfig  # noqa: F401
from .stats import ServiceStats  # noqa: F401
from .wire import (  # noqa: F401
    WIRE_SCHEMA_VERSION,
    ErrorResponse,
    LinkItem,
    LinkRequest,
    LinkResponse,
    WireError,
    WirePrediction,
    parse_stream_line,
)

__all__ = [
    "LinkingService",
    "ServiceConfig",
    "HttpConfig",
    "ServiceStats",
    "LRUCache",
    "AsyncLinkingService",
    "DeadlineBatcher",
    "QueuedRequest",
    "LinkingHTTPServer",
    "LinkerClient",
    "LinkerClientError",
    "LinkerOverloadedError",
    "retry_overloaded",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionError",
    "PRIORITIES",
    "SHED_POLICIES",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "LinkItem",
    "LinkRequest",
    "LinkResponse",
    "WirePrediction",
    "ErrorResponse",
    "parse_stream_line",
]
