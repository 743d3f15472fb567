"""The sketch service tier: network ingest/query/merge over sessions.

A stdlib-only asyncio server (:mod:`repro.service.server`) hosts named
:class:`~repro.api.session.StreamSession` instances behind HTTP and
WebSocket endpoints; a versioned binary frame protocol
(:mod:`repro.service.protocol`) carries ingest columns, queries, and
whole snapshot containers; one central metrics registry
(:mod:`repro.service.metrics`) renders Prometheus text at ``/metrics``;
:mod:`repro.service.client` holds the sync HTTP and async WebSocket
drivers.

State served over the network path is bit-identical to an offline
``replay_many`` of the same updates — the session's batch contract,
now with a wire in the middle.  The wire is hardened: every ingest
frame is stamped ``(client_id, seq)`` and applied exactly once end to
end, clients retry with capped jittered backoff (:class:`RetryPolicy`),
served sessions checkpoint to disk and recover on restart, and
:mod:`repro.service.testing` ships a fault-injecting chaos proxy the
soak suite drives to prove bit-identity survives a hostile network.
"""

from repro.service.client import (
    AsyncSessionClient,
    RetryPolicy,
    ServiceClient,
    ServiceClientError,
)
from repro.service.metrics import (
    REGISTRY,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.service.protocol import (
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
)
from repro.service.server import (
    ServerThread,
    ServiceError,
    ServiceServer,
    SketchService,
)

__all__ = [
    "AsyncSessionClient",
    "RetryPolicy",
    "ServiceClient",
    "ServiceClientError",
    "REGISTRY",
    "MetricsRegistry",
    "ServiceMetrics",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "ProtocolError",
    "ServerThread",
    "ServiceError",
    "ServiceServer",
    "SketchService",
]
