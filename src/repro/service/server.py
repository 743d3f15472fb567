"""The sketch service: named ``StreamSession``s behind HTTP + WebSocket.

The missing layer between the in-process facade and remote shards: an
asyncio server (stdlib only — no aiohttp/websockets dependency) hosting
any number of **named sessions**, each a full
:class:`~repro.api.session.StreamSession` with its registry-built
consumer battery.  Three verbs cover the paper's distributed-streaming
story:

* **ingest** — a binary INGEST frame (:mod:`repro.service.protocol`)
  pushes ``(items, deltas)`` columns into a session; state is
  bit-identical to an offline ``replay_many`` of the same updates, by
  the session's batch contract;
* **query** — any tracked spec's uniform ``query(name)`` answer,
  mid-stream, serialized to JSON;
* **merge** — a posted snapshot container (the bytes
  :func:`repro.api.checkpoint.export_snapshot` writes) folds into a
  live session through the ``Mergeable`` ladder — the remote analogue
  of ``StreamSession.merge``.

Layering: :class:`SketchService` is the transport-agnostic core
(sessions + metrics + validation); :class:`ServiceServer` speaks
HTTP/1.1 and upgrades ``/v1/sessions/<name>/ws`` to a WebSocket whose
binary messages carry protocol frames; :class:`ServerThread` runs the
whole thing on a background event loop for tests, examples, and
benchmarks.

HTTP surface (all JSON unless noted)::

    GET    /healthz                        liveness probe
    GET    /metrics                        Prometheus text exposition
    GET    /v1/shed                        load-shedding state
    POST   /v1/shed                        toggle load shedding
    GET    /v1/sessions                    list sessions
    POST   /v1/sessions                    create a named session
    GET    /v1/sessions/<name>             session info (incl. dedup
                                           watermarks)
    DELETE /v1/sessions/<name>             drop a session
    POST   /v1/sessions/<name>/ingest      body = one INGEST frame
    POST   /v1/sessions/<name>/flush       dispatch the partial buffer
    GET    /v1/sessions/<name>/query/<consumer>
    GET    /v1/sessions/<name>/snapshot    snapshot container (binary)
    POST   /v1/sessions/<name>/merge       body = snapshot container
    GET    /v1/sessions/<name>/ws          WebSocket upgrade

Consistency contract: an INGEST frame is applied atomically (the
session lock) or refused whole: bad framing consumes nothing, and
content ``push`` refuses is a ``bad_frame`` that consumes its seq.  A
connection dropped mid-frame applies nothing for the incomplete tail.
``Params`` and ``StreamSession`` admit a session's fields; ``track``
names registry specs only.  Queries flush the partial buffer
first, so every answer reflects every acked update.  A merge folds the
posted snapshot entirely or not at all: ``StreamSession.restore``
refuses a consumer missing state its class sets at construction, and
``StreamSession.merge`` rehearses every consumer's merge on a restored
copy before it mutates any, so a refusal is a ``bad_merge`` that
leaves the session unchanged.

Delivery semantics: every INGEST frame is stamped ``(client_id, seq)``
and applied **exactly once** — the per-session watermark
(:meth:`StreamSession.push_once`) dedups retries and refuses gaps with
a typed ``seq_gap`` error; HELLO answers where a client's stream
stands so a reconnecting client can rewind and resend.  With
``checkpoint_dir`` set, every named session is durable: recovered on
construction (watermarks travel inside the snapshot, so delivery state
and sketch state rewind together) and checkpointed on a trigger after
ingest/merge, plus a final checkpoint at shutdown.  Under overload the
service degrades instead of queueing without bound: ``set_shedding``
(or ``POST /v1/shed``) refuses new ingest with a retryable ``busy``
error, and ``ingest_deadline`` sheds frames that waited longer than
the budget between arrival and processing.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.api.checkpoint import CheckpointStore, Checkpointer, recover_all
from repro.api.registry import PARAM_FIELDS, Params
from repro.api.session import (
    QueryNotSupported,
    SequenceGapError,
    StreamSession,
)
from repro.service import protocol
from repro.service._ws import (
    OP_BINARY,
    WebSocketError,
    accept_key,
    encode_ws_frame,
    read_ws_message,
)
from repro.service.metrics import ServiceMetrics
from repro.streams.io import payload_from_bytes, payload_to_bytes

__all__ = [
    "ServiceError",
    "SketchService",
    "ServiceServer",
    "ServerThread",
]

#: Session names are path segments; keep them boring.
_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,128}$")

_SESSION_PATH_RE = re.compile(
    r"^/v1/sessions/([A-Za-z0-9_.\-]{1,128})"
    r"(?:/(ingest|flush|query/([^/]+)|snapshot|merge|ws))?$"
)

#: Fields a ``POST /v1/sessions`` body may carry besides ``name``: the
#: keyword arguments of :meth:`SketchService.create_session`.
_SESSION_FIELDS = frozenset(
    {"n", "seed", "chunk_size", "node", "params", "track"}
)


#: Largest HTTP body we accept: a protocol frame plus header slack.
_MAX_BODY = protocol.MAX_PAYLOAD + protocol.HEADER_SIZE + 4096

_REASONS = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 426: "Upgrade Required",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Checkpoint trigger when a durable service is given no explicit one.
_DEFAULT_CHECKPOINT_EVERY = 50_000


class ServiceError(Exception):
    """A request the service refuses; carries the wire error code and
    the HTTP status it maps to."""

    def __init__(self, code: str, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.status = status


class SketchService:
    """Transport-agnostic core: named sessions, metrics, validation.

    One service owns its sessions dict and its
    :class:`~repro.service.metrics.ServiceMetrics` inventory; both the
    HTTP routes and the WebSocket frame loop call into the same
    methods, so the two transports cannot disagree about semantics.
    """

    def __init__(self, metrics: ServiceMetrics | None = None, *,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every_updates: int | None = None,
                 checkpoint_every_seconds: float | None = None,
                 checkpoint_keep_last: int = 3,
                 ingest_deadline: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if metrics is None:
            metrics = ServiceMetrics()
        self.metrics = metrics
        self.sessions: dict[str, StreamSession] = {}
        # Reentrant: public accessors hold it and call each other
        # (list_sessions -> info -> get), so plain Lock would deadlock.
        self._lock = threading.RLock()
        #: Durability: one CheckpointStore subdirectory per session
        #: under checkpoint_dir; None means sessions are ephemeral.
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_every_updates = checkpoint_every_updates
        self._checkpoint_every_seconds = checkpoint_every_seconds
        self._checkpoint_keep_last = int(checkpoint_keep_last)
        self._checkpointers: dict[str, Checkpointer] = {}
        #: Graceful degradation: shedding refuses new ingest with a
        #: retryable BUSY; ingest_deadline sheds frames that waited
        #: longer than this many seconds between arrival (transport
        #: read) and processing.
        self.shedding = False
        self.ingest_deadline = ingest_deadline
        self.clock = clock
        if self.checkpoint_dir is not None:
            recovered = recover_all(
                self.checkpoint_dir, keep_last=self._checkpoint_keep_last
            )
            for name, session in recovered.items():
                if not _NAME_RE.match(name):
                    continue  # foreign subdirectory, not a session
                self.sessions[name] = session
                self._attach_checkpointer(name, session)
        metrics.recovered_sessions.set(len(self.sessions))
        metrics.sessions.set_function(lambda: len(self.sessions))
        metrics.pending.set_function(
            lambda: sum(s.pending for s in list(self.sessions.values()))
        )

    def _attach_checkpointer(self, name: str,
                             session: StreamSession) -> None:
        """Wire a session into its per-name checkpoint store (no-op for
        an ephemeral service).  New stores get an immediate checkpoint
        so even an empty session survives a crash."""
        if self.checkpoint_dir is None:
            return
        store = CheckpointStore(
            self.checkpoint_dir / name,
            keep_last=self._checkpoint_keep_last,
        )
        every_updates = self._checkpoint_every_updates
        if every_updates is None and self._checkpoint_every_seconds is None:
            every_updates = _DEFAULT_CHECKPOINT_EVERY
        checkpointer = Checkpointer(
            session, store,
            every_updates=every_updates,
            every_seconds=self._checkpoint_every_seconds,
        )
        if self._checkpoint_every_seconds is not None:
            checkpointer.start()
        if not store.checkpoint_paths():
            checkpointer.checkpoint()
        self._checkpointers[name] = checkpointer

    def _maybe_checkpoint(self, name: str) -> None:
        checkpointer = self._checkpointers.get(name)
        if checkpointer is not None:
            checkpointer.maybe_checkpoint()

    def set_shedding(self, shedding: bool) -> None:
        """Toggle load-shedding mode: while set, every new ingest is
        refused with a retryable ``busy`` error (counted in
        ``repro_ingest_shed_total``); queries, merges, and snapshots
        still answer."""
        self.shedding = bool(shedding)

    def shutdown(self, final_checkpoint: bool = True) -> None:
        """Stop every checkpointer; by default write final checkpoints
        so the acked tail of each stream is durable.  Idempotent —
        ``ServiceServer.close`` calls it, and so should anyone driving
        a durable service directly."""
        with self._lock:
            checkpointers = dict(self._checkpointers)
            self._checkpointers.clear()
        for checkpointer in checkpointers.values():
            checkpointer.stop(final_checkpoint=final_checkpoint)

    # -- session lifecycle ---------------------------------------------------
    def create_session(self, name: str, *, n: int, seed: int = 0,
                       chunk_size: int | None = None, node: int = 0,
                       params: dict[str, Any] | None = None,
                       track: dict[str, Any] | list[str] | None = None,
                       ) -> dict:
        """Create a named session and track its consumer battery.

        ``track`` names registry specs only, at least one: a list tracks
        each spec under its own name, ``{consumer: spec}`` under the
        given names.  (No wire verb adds a consumer later, and a session
        without one could never ingest.)
        ``params`` refines the session's base
        :class:`~repro.api.registry.Params` (``eps`` / ``delta`` /
        ``alpha``).  ``Params`` and ``StreamSession`` admit the other
        fields.  Every refusal, an impossible allocation included, is a
        ``bad_session`` that leaves no session behind.
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ServiceError(
                "bad_name",
                "session names are 1-128 chars of [A-Za-z0-9_.-]",
            )
        specs = track.values() if isinstance(track, dict) else track
        if not (isinstance(params or {}, dict)
                and isinstance(track or {}, (dict, list, tuple))
                and all(isinstance(spec, str) for spec in specs or ())):
            raise ServiceError(
                "bad_session",
                "params is an object; track a list of spec names or an "
                "object mapping consumer names to spec names",
            )
        with self._lock:
            if name in self.sessions:
                raise ServiceError(
                    "conflict", f"session {name!r} already exists", 409
                )
            params = dict(params or {})
            unknown = set(params) - (PARAM_FIELDS - {"n", "seed"})
            if unknown:
                raise ServiceError(
                    "bad_params",
                    f"unknown params {sorted(unknown)}; allowed: "
                    f"{sorted(PARAM_FIELDS - {'n', 'seed'})}",
                )
            try:
                base = Params(n=n, seed=seed, **params)
                session = StreamSession(n, params=base,
                                        chunk_size=chunk_size, node=node)
                if isinstance(track, (list, tuple)):
                    track = {spec: spec for spec in track}
                if not track:
                    raise ValueError(
                        "track names at least one registry spec: a "
                        "session without consumers could never ingest"
                    )
                for cname, spec in track.items():
                    session.track(cname, spec)
            except (KeyError, ValueError, TypeError, MemoryError) as exc:
                raise ServiceError("bad_session", str(exc)) from exc
            self.sessions[name] = session
            self._attach_checkpointer(name, session)
        return self.info(name)

    def delete_session(self, name: str) -> None:
        with self._lock:
            session = self.sessions.pop(name, None)
            checkpointer = self._checkpointers.pop(name, None)
        if session is None:
            raise ServiceError(
                "not_found", f"no session {name!r}", 404
            )
        if checkpointer is not None:
            # A deleted session must stay deleted across restarts:
            # stop without a final checkpoint, then drop its store.
            checkpointer.stop(final_checkpoint=False)
            shutil.rmtree(checkpointer.store.directory, ignore_errors=True)

    def get(self, name: str) -> StreamSession:
        with self._lock:
            try:
                return self.sessions[name]
            except KeyError:
                raise ServiceError(
                    "not_found", f"no session {name!r}; live: "
                    f"{sorted(self.sessions)}", 404
                ) from None

    def info(self, name: str) -> dict:
        with self._lock:
            session = self.get(name)
            durable = name in self._checkpointers
        return {
            "name": name,
            "n": session.n,
            "node": session.node,
            "chunk_size": session.chunk_size,
            "updates_processed": session.updates_processed,
            "pending": session.pending,
            "consumers": {
                cname: session.spec_of(cname) for cname in session.names()
            },
            "ingest_watermarks": session.ingest_watermarks,
            "durable": durable,
        }

    def list_sessions(self) -> list[dict]:
        with self._lock:
            return [self.info(name) for name in sorted(self.sessions)]

    # -- the verbs -----------------------------------------------------------
    def ingest(self, name: str, payload: bytes, *,
               received_at: float | None = None) -> dict:
        """Apply one INGEST frame payload exactly once.

        Returns ``{"applied": updates watermark, "seq": ...,
        "duplicate": ..., "client_id": ...}``.  Every frame lands in
        ``repro_ingest_frames_total`` and in exactly one of
        ``repro_ingest_applied_total``,
        ``repro_ingest_duplicates_total`` (retries: acked
        idempotently, nothing re-applied),
        ``repro_ingest_refused_total``, or ``repro_ingest_shed_total``
        (shedding/deadline BUSY — the only *retryable* refusal: it
        consumes no seq) — the conservation law the tests assert.
        """
        self.metrics.ingest_frames.inc()
        if self.shedding:
            self.metrics.ingest_shed.inc()
            raise ServiceError(
                "busy", "load shedding engaged; retry with backoff", 503
            )
        if (self.ingest_deadline is not None and received_at is not None
                and self.clock() - received_at > self.ingest_deadline):
            self.metrics.ingest_shed.inc()
            raise ServiceError(
                "busy",
                f"frame waited past the {self.ingest_deadline}s ingest "
                "deadline; retry with backoff", 503,
            )
        try:
            session = self.get(name)
        except ServiceError:
            self.metrics.ingest_refused.inc()
            raise
        try:
            items, deltas, client_id, seq = protocol.decode_ingest(payload)
        except protocol.ProtocolError as exc:
            self.metrics.ingest_refused.inc()
            raise ServiceError("bad_frame", str(exc)) from exc
        try:
            duplicate = not session.push_once(client_id, seq, items, deltas)
        except SequenceGapError as exc:
            self.metrics.ingest_refused.inc()
            raise ServiceError("seq_gap", str(exc), 409) from exc
        except (ValueError, TypeError) as exc:
            # push_once consumed the seq: the refusal is
            # deterministic, so the client must not resend.
            self.metrics.ingest_refused.inc()
            raise ServiceError("bad_frame", str(exc)) from exc
        if duplicate:
            self.metrics.ingest_duplicates.inc()
        else:
            self.metrics.ingest_applied.inc()
            self.metrics.ingest_updates.inc(len(items))
            self._maybe_checkpoint(name)
        return {
            "applied": session.updates_processed,
            "seq": seq,
            "duplicate": duplicate,
            "client_id": client_id,
        }

    def hello(self, name: str, client_id: str) -> tuple[int, int]:
        """Where ``client_id``'s stream stands in session ``name``:
        ``(seq watermark, session updates_processed)`` — the
        reconnect-and-resume handshake."""
        session = self.get(name)
        return session.ingest_watermark(client_id), session.updates_processed

    def flush(self, name: str) -> int:
        """Dispatch a session's partial buffer, observed in the flush
        latency histogram; returns the number of updates flushed."""
        session = self.get(name)
        pending = session.pending
        start = time.perf_counter()
        session.flush()
        self.metrics.flush_latency.observe(time.perf_counter() - start)
        return pending

    def query(self, name: str, consumer: str) -> Any:
        """A consumer's headline answer (flushed first; the flush and
        the query land in separate histograms)."""
        session = self.get(name)
        if consumer not in session.names():
            raise ServiceError(
                "not_found",
                f"no consumer {consumer!r} in session {name!r}; "
                f"tracked: {session.names()}", 404,
            )
        self.flush(name)
        spec = session.spec_of(consumer) or "custom"
        start = time.perf_counter()
        try:
            value = session.query(consumer)
        except QueryNotSupported as exc:
            raise ServiceError("query_unsupported", str(exc)) from exc
        self.metrics.query_latency.labels(spec=spec).observe(
            time.perf_counter() - start
        )
        return value

    def merge(self, name: str, container: bytes) -> int:
        """Fold a snapshot container into a live session; returns the
        merged updates-processed watermark."""
        session = self.get(name)
        try:
            # Frame-level validation first (non-empty, size ceiling):
            # a ProtocolError is a ValueError, so a hostile container
            # surfaces as the same typed bad_merge as a corrupt one.
            container = protocol.decode_merge(container)
            other = StreamSession.restore(payload_from_bytes(container))
            session.merge(other)
        except (ValueError, TypeError, KeyError) as exc:
            raise ServiceError("bad_merge", str(exc)) from exc
        self.metrics.merges.inc()
        self._maybe_checkpoint(name)
        return session.updates_processed

    def snapshot(self, name: str) -> bytes:
        """The session's snapshot container (what ``export_snapshot``
        writes to disk), for shipping to a remote merge."""
        return payload_to_bytes(self.get(name).snapshot())


class ServiceServer:
    """Asyncio HTTP/1.1 + WebSocket front-end over a
    :class:`SketchService`."""

    def __init__(self, service: SketchService | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service if service is not None else SketchService()
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Keep-alive connections outlive the listener; reap them so the
        # loop shuts down without destroying pending handler tasks.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            self._conn_tasks.clear()
        # Durable sessions get their final checkpoints on clean
        # shutdown (no-op for an ephemeral service).
        self.service.shutdown()

    # -- HTTP plumbing -------------------------------------------------------
    @staticmethod
    def _response(status: int, body: bytes,
                  content_type: str, *, close: bool) -> bytes:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + body

    def _json(self, status: int, obj: Any, *, close: bool = False) -> bytes:
        return self._response(
            status, json.dumps(obj).encode("utf-8"),
            "application/json", close=close,
        )

    def _error(self, status: int, code: str, message: str, *,
               close: bool = False) -> bytes:
        self.service.metrics.errors.labels(code=code).inc()
        return self._json(
            status, {"error": code, "message": message}, close=close
        )

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        # A request died mid-headers; nothing applied.
                        self.service.metrics.errors.labels(
                            code="disconnect").inc()
                    return
                except asyncio.LimitOverrunError:
                    writer.write(self._error(
                        413, "headers_too_large",
                        "request headers exceed the limit", close=True))
                    await writer.drain()
                    return
                try:
                    method, path, headers, length = self._parse_head(head)
                except ValueError as exc:
                    writer.write(self._error(
                        400, "bad_request", str(exc), close=True))
                    await writer.drain()
                    return
                if length > _MAX_BODY:
                    writer.write(self._error(
                        413, "body_too_large",
                        f"bodies are capped at {_MAX_BODY} bytes",
                        close=True))
                    await writer.drain()
                    return
                try:
                    body = await reader.readexactly(length) if length else b""
                except asyncio.IncompleteReadError:
                    # Disconnect mid-body: the frame never completed,
                    # nothing reaches any session.
                    self.service.metrics.errors.labels(
                        code="disconnect").inc()
                    return
                if (headers.get("upgrade", "").lower() == "websocket"
                        and method == "GET"):
                    await self._websocket(reader, writer, path, headers)
                    return
                close = (
                    headers.get("connection", "").lower() == "close"
                )
                writer.write(self._route(method, path, body, close=close))
                await writer.drain()
                if close:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            # Server shutdown reaps open keep-alive connections.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                pass

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str], int]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:
            raise ValueError("undecodable request head") from None
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line {lines[0]!r}")
        method, path, _ = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[key.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise ValueError(f"malformed Content-Length {length!r}")
        return method.upper(), path, headers, int(length)

    # -- routing -------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes, *,
               close: bool) -> bytes:
        try:
            return self._dispatch(method, path, body, close=close)
        except ServiceError as exc:
            return self._error(exc.status, exc.code, exc.message,
                               close=close)
        except Exception as exc:  # noqa: BLE001 — the server must answer
            return self._error(500, "internal",
                               f"{type(exc).__name__}: {exc}", close=close)

    def _dispatch(self, method: str, path: str, body: bytes, *,
                  close: bool) -> bytes:
        service = self.service
        if path == "/healthz" and method == "GET":
            return self._response(200, b"ok\n", "text/plain", close=close)
        if path == "/metrics" and method == "GET":
            text = service.metrics.registry.render().encode("utf-8")
            return self._response(
                200, text, "text/plain; version=0.0.4", close=close
            )
        if path == "/v1/shed":
            if method == "GET":
                return self._json(
                    200, {"shedding": service.shedding}, close=close
                )
            if method == "POST":
                obj = self._json_body(body)
                service.set_shedding(bool(obj.get("shedding", True)))
                return self._json(
                    200, {"shedding": service.shedding}, close=close
                )
            raise ServiceError("method_not_allowed",
                               f"{method} not supported here", 405)
        if path == "/v1/sessions":
            if method == "GET":
                return self._json(200, service.list_sessions(), close=close)
            if method == "POST":
                spec = self._json_body(body)
                name = spec.pop("name", None)
                if name is None:
                    raise ServiceError("bad_session",
                                       "session spec needs a 'name'")
                if "n" not in spec:
                    raise ServiceError("bad_session",
                                       "session spec needs a universe 'n'")
                unknown = set(spec) - _SESSION_FIELDS
                if unknown:
                    raise ServiceError(
                        "bad_session",
                        f"unknown session fields {sorted(unknown)}; "
                        f"allowed: {sorted(_SESSION_FIELDS)}",
                    )
                return self._json(
                    201, service.create_session(name, **spec), close=close
                )
            raise ServiceError("method_not_allowed",
                               f"{method} not supported here", 405)
        match = _SESSION_PATH_RE.match(path)
        if not match:
            raise ServiceError("not_found", f"no route {path!r}", 404)
        name, action, consumer = match.group(1), match.group(2), match.group(3)
        if action is None:
            if method == "GET":
                return self._json(200, service.info(name), close=close)
            if method == "DELETE":
                service.delete_session(name)
                return self._json(200, {"deleted": name}, close=close)
        elif action == "ingest" and method == "POST":
            frame = self._body_frame(body, protocol.FrameType.INGEST)
            result = service.ingest(name, frame.payload)
            return self._json(200, {
                "applied": result["applied"],
                "pending": service.get(name).pending,
                "seq": result["seq"],
                "duplicate": result["duplicate"],
            }, close=close)
        elif action == "flush" and method == "POST":
            return self._json(
                200, {"flushed": service.flush(name)}, close=close
            )
        elif action.startswith("query/") and method == "GET":
            value = service.query(name, consumer)
            return self._json(200, {
                "name": consumer, "value": protocol.json_safe(value),
            }, close=close)
        elif action == "snapshot" and method == "GET":
            return self._response(
                200, service.snapshot(name),
                "application/octet-stream", close=close,
            )
        elif action == "merge" and method == "POST":
            if not body:
                raise ServiceError("bad_merge", "empty merge body")
            applied = service.merge(name, body)
            return self._json(
                200, {"updates_processed": applied}, close=close
            )
        elif action == "ws":
            raise ServiceError(
                "upgrade_required",
                "this endpoint speaks WebSocket; send an Upgrade request",
                426,
            )
        raise ServiceError(
            "method_not_allowed", f"{method} {path} not supported", 405
        )

    @staticmethod
    def _json_body(body: bytes) -> dict:
        try:
            obj = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ServiceError("bad_json", f"undecodable body: {exc}")
        if not isinstance(obj, dict):
            raise ServiceError("bad_json", "body must be a JSON object")
        return obj

    def _body_frame(self, body: bytes,
                    expect: protocol.FrameType) -> protocol.Frame:
        try:
            frame = protocol.decode_frame(body)
        except protocol.ProtocolError as exc:
            if expect is protocol.FrameType.INGEST:
                self.service.metrics.ingest_frames.inc()
                self.service.metrics.ingest_refused.inc()
            raise ServiceError("bad_frame", str(exc)) from exc
        if frame.type is not expect:
            raise ServiceError(
                "bad_frame",
                f"expected a {expect.name} frame, got {frame.type.name}",
            )
        return frame

    # -- WebSocket -----------------------------------------------------------
    async def _websocket(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, path: str,
                         headers: dict[str, str]) -> None:
        match = _SESSION_PATH_RE.match(path)
        if not match or match.group(2) != "ws":
            writer.write(self._error(404, "not_found",
                                     f"no WebSocket route {path!r}",
                                     close=True))
            await writer.drain()
            return
        name = match.group(1)
        key = headers.get("sec-websocket-key")
        if not key:
            writer.write(self._error(400, "bad_upgrade",
                                     "missing Sec-WebSocket-Key",
                                     close=True))
            await writer.drain()
            return
        try:
            self.service.get(name)
        except ServiceError as exc:
            writer.write(self._error(exc.status, exc.code, exc.message,
                                     close=True))
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: "
            + accept_key(key).encode("ascii")
            + b"\r\n\r\n"
        )
        await writer.drain()
        # A modest send buffer makes drain() engage early: a slow
        # consumer suspends this handler (backpressure) instead of
        # growing an unbounded server-side buffer.
        writer.transport.set_write_buffer_limits(high=1 << 16)
        metrics = self.service.metrics
        metrics.connections.inc()
        decoder = protocol.FrameDecoder()
        try:
            while True:
                message = await read_ws_message(
                    reader, writer, require_masked=True, mask_replies=False
                )
                if message is None:
                    return
                opcode, data = message
                if opcode != OP_BINARY:
                    metrics.errors.labels(code="protocol").inc()
                    writer.write(encode_ws_frame(
                        OP_BINARY,
                        protocol.encode_error(
                            "protocol", "frames travel as binary messages"
                        ),
                    ))
                    await writer.drain()
                    continue
                try:
                    frames = decoder.feed(data)
                except protocol.ProtocolError as exc:
                    # Framing is broken: after an undecodable prefix the
                    # stream can never resynchronise — answer and close.
                    metrics.errors.labels(code="protocol").inc()
                    writer.write(encode_ws_frame(
                        OP_BINARY, protocol.encode_error("protocol", str(exc))
                    ))
                    await writer.drain()
                    return
                # One arrival stamp per transport message: under a
                # pipelined burst the later frames of the message age
                # while the earlier ones process, which is exactly what
                # the ingest deadline measures.
                received_at = self.service.clock()
                for frame in frames:
                    writer.write(encode_ws_frame(
                        OP_BINARY,
                        self._answer_frame(name, frame, received_at),
                    ))
                await writer.drain()
        except WebSocketError:
            metrics.errors.labels(code="websocket").inc()
            return
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            # Dropped mid-frame: the decoder's partial tail is
            # discarded, nothing half-applied.
            metrics.errors.labels(code="disconnect").inc()
            return
        finally:
            metrics.connections.dec()

    def _answer_frame(self, name: str, frame: protocol.Frame,
                      received_at: float | None = None) -> bytes:
        """One protocol frame in, one out; errors become ERROR frames
        so an application failure never kills the connection."""
        service = self.service
        try:
            if frame.type is protocol.FrameType.INGEST:
                result = service.ingest(name, frame.payload,
                                        received_at=received_at)
                return protocol.encode_ingest_ack(
                    result["applied"], result["seq"],
                    duplicate=result["duplicate"],
                )
            if frame.type is protocol.FrameType.HELLO:
                client_id = protocol.decode_hello(frame.payload)
                seq_watermark, updates = service.hello(name, client_id)
                return protocol.encode_hello_ack(seq_watermark, updates)
            if frame.type is protocol.FrameType.QUERY:
                consumer = protocol.decode_query(frame.payload)
                return protocol.encode_query_result(
                    consumer, service.query(name, consumer)
                )
            if frame.type is protocol.FrameType.MERGE:
                return protocol.encode_merge_ack(
                    service.merge(name, frame.payload)
                )
            raise ServiceError(
                "protocol",
                f"clients do not send {frame.type.name} frames",
            )
        except ServiceError as exc:
            service.metrics.errors.labels(code=exc.code).inc()
            return protocol.encode_error(exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — answer, don't die
            service.metrics.errors.labels(code="internal").inc()
            return protocol.encode_error(
                "internal", f"{type(exc).__name__}: {exc}"
            )


class ServerThread:
    """A :class:`ServiceServer` on a background event loop.

    The in-process harness tests, examples, and the load generator's
    sync drivers use: enter the context manager, talk to
    ``http://host:port``, leave, and the loop is gone.

    >>> with ServerThread() as handle:  # doctest: +SKIP
    ...     client = ServiceClient(handle.host, handle.port)
    """

    def __init__(self, service: SketchService | None = None, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service if service is not None else SketchService()
        self.server = ServiceServer(self.service, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        if self._thread is not None:
            return self

        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self.server.close()

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError(
                f"service failed to start: {self._startup_error}"
            )
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        self._thread = None
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
