"""Clients for the sketch service: sync HTTP and async WebSocket.

:class:`ServiceClient` is the blocking driver — ``http.client`` over a
keep-alive connection, one method per endpoint — for scripts, tests,
and the offline halves of the examples.  :class:`AsyncSessionClient`
speaks the binary frame protocol over a WebSocket for the hot path:
ingest frames go out back-to-back (optionally pipelined) and the
server's acks carry the session's cumulative ``updates_processed``
watermark, so a client always knows exactly how much of its stream the
remote state reflects.

Reliability.  Both clients take a :class:`RetryPolicy` (capped
exponential backoff with seeded jitter) and gate every retry on
idempotency.  Connection *setup* never touches server state, so it
retries for all verbs; a request that may already have reached the
server is replayed only when replaying is harmless — reads, flushes,
and ingest.  Ingest needs a ``client_id``: each batch carries
``(client_id, seq)`` and the server applies it exactly once, acking
duplicates idempotently, so a retry after a lost ack cannot
double-count.  The async client keeps every batch it has ever sent
and, on reconnect, asks the server where the stream stands (HELLO),
rewinds to that watermark, and resends — which makes a server
crash+recover (which may legally *rewind* the watermark to the last
checkpoint) invisible to the caller.

>>> with ServerThread() as handle:                      # doctest: +SKIP
...     client = ServiceClient(handle.host, handle.port,
...                            client_id="edge-1")
...     client.create_session("edge", n=1 << 16, track=["countmin"])
...     client.ingest("edge", items, deltas)   # stamped, exactly-once
...     client.query("edge", "countmin")
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import http.client
import json
import os
# repro: allow[rng-discipline] -- seeded retry jitter (random.Random(seed)); never touches sketch state
import random
import time
from typing import Any

from repro.service import protocol
from repro.service._ws import (
    OP_BINARY,
    WebSocketError,
    accept_key,
    encode_ws_frame,
    read_ws_message,
)

__all__ = [
    "ServiceClientError",
    "RetryPolicy",
    "ServiceClient",
    "AsyncSessionClient",
]


class ServiceClientError(RuntimeError):
    """The service refused a request; carries its error code."""

    def __init__(self, code: str, message: str,
                 status: int | None = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.status = status


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter.

    ``attempts`` bounds *consecutive* failures: the async client resets
    the counter whenever the server acks progress, so a long stream
    survives many transient faults as long as each outage eventually
    heals.  ``seed`` makes the jitter deterministic for tests.

    >>> p = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0)
    >>> [p.delay(a, p.rng()) for a in (1, 2, 3, 4, 5)]
    [0.1, 0.2, 0.4, 0.8, 1.0]
    """

    attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter is a fraction in [0, 1]")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.max_delay,
                   self.base_delay * (2 ** max(0, attempt - 1)))
        span = self.jitter * base
        return max(0.0, base + rng.uniform(-span, span))


#: Errors that mean "the bytes didn't make it", not "the server said no".
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError, OSError)


class ServiceClient:
    """Synchronous HTTP client over one keep-alive connection.

    :meth:`ingest` stamps each batch with a ``client_id`` (per call or
    from the constructor; the other verbs need none) for exactly-once
    delivery; sequence numbers are assigned automatically per session.
    ``retry`` tunes the backoff policy; ``RetryPolicy(attempts=1)``
    disables retries entirely.
    """

    def __init__(self, host: str, port: int, *,
                 timeout: float = 30.0,
                 retry: RetryPolicy | None = None,
                 client_id: str | None = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.client_id = client_id
        self.retries_total = 0
        self._rng = self.retry.rng()
        self._seqs: dict[tuple[str, str], int] = {}
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> dict:
        """Client-side delivery stats (mirrors the server's metrics)."""
        return {
            "host": self.host,
            "port": self.port,
            "client_id": self.client_id,
            "retries_total": self.retries_total,
            "retry": dataclasses.asdict(self.retry),
        }

    # -- plumbing ------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        self.retries_total += 1
        time.sleep(self.retry.delay(attempt, self._rng))

    def _request(self, method: str, path: str, body: bytes = b"",
                 content_type: str = "application/json", *,
                 idempotent: bool = False) -> bytes:
        """One round trip, with idempotency-gated retries.

        The connect phase is separated out because a failed connection
        attempt provably touched no server state: it retries for every
        verb.  Once the request may have *reached* the server, a
        transport failure is ambiguous — the server might have applied
        it and lost the response — so it is replayed only when
        ``idempotent``.  A 503 BUSY answer is the server explicitly
        saying it did nothing, so it is retryable for every verb.
        """
        headers = {"Content-Type": content_type} if body else {}
        attempt = 0
        while True:
            reused = self._conn.sock is not None
            if not reused:
                try:
                    self._conn.connect()
                except OSError as exc:
                    self._conn.close()
                    attempt += 1
                    if attempt >= self.retry.attempts:
                        raise ServiceClientError(
                            "unreachable",
                            f"connect to {self.host}:{self.port} failed "
                            f"after {attempt} attempts: {exc}",
                        ) from exc
                    self._backoff(attempt)
                    continue
            try:
                self._conn.request(method, path, body=body or None,
                                   headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except _TRANSPORT_ERRORS as exc:
                self._conn.close()
                attempt += 1
                if not idempotent:
                    raise ServiceClientError(
                        "connection",
                        f"{method} {path} failed mid-request ({exc}); "
                        "not replaying a non-idempotent verb",
                    ) from exc
                if attempt >= self.retry.attempts:
                    raise ServiceClientError(
                        "connection",
                        f"{method} {path} failed after {attempt} "
                        f"attempts: {exc}",
                    ) from exc
                self._backoff(attempt)
                continue
            if response.status >= 400:
                try:
                    err = json.loads(data.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    err = {}
                code = err.get("error", "http_error")
                if response.status == 503:
                    attempt += 1
                    if attempt < self.retry.attempts:
                        self._backoff(attempt)
                        continue
                raise ServiceClientError(
                    code,
                    err.get("message", data.decode("utf-8", "replace")),
                    response.status,
                )
            return data

    def _json(self, method: str, path: str, obj: Any = None, *,
              idempotent: bool = False) -> Any:
        body = json.dumps(obj).encode("utf-8") if obj is not None else b""
        return json.loads(
            self._request(method, path, body, idempotent=idempotent)
        )

    # -- endpoints -----------------------------------------------------------
    def healthz(self) -> bool:
        return self._request("GET", "/healthz", idempotent=True) == b"ok\n"

    def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        return self._request(
            "GET", "/metrics", idempotent=True
        ).decode("utf-8")

    def sessions(self) -> list[dict]:
        return self._json("GET", "/v1/sessions", idempotent=True)

    def create_session(self, name: str, *, n: int, **spec: Any) -> dict:
        return self._json(
            "POST", "/v1/sessions", {"name": name, "n": n, **spec}
        )

    def info(self, name: str) -> dict:
        return self._json("GET", f"/v1/sessions/{name}", idempotent=True)

    def delete_session(self, name: str) -> dict:
        return self._json("DELETE", f"/v1/sessions/{name}")

    def set_shedding(self, shedding: bool) -> bool:
        """Toggle server load shedding; returns the new state."""
        out = self._json("POST", "/v1/shed", {"shedding": bool(shedding)},
                         idempotent=True)
        return bool(out["shedding"])

    def ingest(self, name: str, items, deltas, *,
               client_id: str | None = None,
               seq: int | None = None) -> dict:
        """Push one update batch as a single INGEST frame.

        The frame is stamped ``(client_id, seq)`` — ``client_id`` per
        call or from the constructor — and delivered exactly once: the
        server deduplicates by sequence number, so the batch is
        *idempotent* and retried freely across lost connections and
        lost responses.  ``seq`` defaults to one past the highest
        sequence this client object has sent to ``name`` (starting at
        1); pass it explicitly to resume an older identity — see
        :meth:`resync`.  A ``bad_frame`` refusal of the content consumed
        its seq (the refusal is deterministic), so the next batch moves
        past it; framing refusals, which a frame built here never
        draws, and every other failure consumed nothing.
        """
        cid = client_id if client_id is not None else self.client_id
        if cid is None:
            raise ValueError("ingest needs a client_id")
        key = (name, cid)
        if seq is None:
            seq = self._seqs.get(key, 0) + 1
        frame = protocol.encode_ingest(items, deltas, client_id=cid, seq=seq)
        try:
            out = json.loads(self._request(
                "POST", f"/v1/sessions/{name}/ingest", frame,
                content_type="application/octet-stream", idempotent=True,
            ))
        except ServiceClientError as exc:
            if exc.code == "bad_frame":
                self._seqs[key] = max(self._seqs.get(key, 0), int(seq))
            raise
        self._seqs[key] = max(self._seqs.get(key, 0), int(seq))
        return out

    def ingest_watermark(self, name: str,
                         client_id: str | None = None) -> int:
        """The server's dedup watermark for ``client_id`` on ``name``
        (0 when the client has never been seen)."""
        cid = client_id if client_id is not None else self.client_id
        if cid is None:
            raise ValueError("a client_id is required")
        marks = self.info(name).get("ingest_watermarks", {})
        return int(marks.get(cid, 0))

    def resync(self, name: str, client_id: str | None = None) -> int:
        """Reset local auto-sequencing to the server's watermark and
        return it — the move after a server recovered from a checkpoint
        (its watermark may have *rewound*) or after this process
        restarted with the same client id."""
        cid = client_id if client_id is not None else self.client_id
        if cid is None:
            raise ValueError("a client_id is required")
        watermark = self.ingest_watermark(name, cid)
        self._seqs[(name, cid)] = watermark
        return watermark

    def flush(self, name: str) -> dict:
        # Flushing is idempotent: a second flush of the same state
        # dispatches nothing.
        return self._json("POST", f"/v1/sessions/{name}/flush",
                          idempotent=True)

    def query(self, name: str, consumer: str) -> Any:
        out = self._json("GET", f"/v1/sessions/{name}/query/{consumer}",
                         idempotent=True)
        return out["value"]

    def snapshot(self, name: str) -> bytes:
        """The session's snapshot container — feed it to
        :func:`repro.streams.io.payload_from_bytes` /
        ``StreamSession.restore``, or post it to another session's
        :meth:`merge`."""
        return self._request("GET", f"/v1/sessions/{name}/snapshot",
                             idempotent=True)

    def merge(self, name: str, container: bytes) -> dict:
        """Fold a snapshot container into session ``name``.

        Merging is NOT idempotent (a replay double-counts), so it is
        never retried once the request may have reached the server.
        """
        return json.loads(self._request(
            "POST", f"/v1/sessions/{name}/merge", container,
            content_type="application/octet-stream",
        ))


class AsyncSessionClient:
    """Binary frame protocol over one WebSocket, for the hot path.

    ``connect`` performs the RFC 6455 handshake against
    ``/v1/sessions/<name>/ws``; every frame the client sends is masked
    (mandatory for clients).  :meth:`ingest` is lockstep
    (frame out, ack in); :meth:`ingest_many` pipelines a whole sequence
    of batches before collecting acks — the load generator's mode.

    The client is a reliable stream under its ``client_id``: every
    batch is stamped with a sequence number and **retained**, and
    :meth:`ingest_many` drives the server to the end of the stream no
    matter what the connection does in between.  On any transport
    fault it tears the socket down, backs off per ``retry``, reconnects,
    sends HELLO to learn the server's watermark (which may have moved
    *forward* past a lost ack or *backward* past a crash+recover), and
    resends exactly the suffix the server is missing.  The retained
    history is what makes the rewind possible; it grows with the
    stream, which is the price of client-side replay.

    An application error (unknown consumer, refused frame) arrives as
    an ERROR frame and raises :class:`ServiceClientError`; the
    connection remains usable.
    """

    def __init__(self, host: str, port: int, session: str, *,
                 client_id: str,
                 retry: RetryPolicy | None = None,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.session = session
        self.client_id = client_id
        self.retry = retry if retry is not None else RetryPolicy()
        self.timeout = timeout
        self.retries_total = 0
        self._rng = self.retry.rng()
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._decoder = protocol.FrameDecoder()
        self._frames: list[protocol.Frame] = []
        #: Encoded frames; ``_history[i]`` carries seq ``i+1``.
        self._history: list[bytes] = []
        #: Highest seq this client knows the server has applied.
        self._done = 0
        #: Last cumulative updates_processed reported by the server.
        self._updates = 0
        self._hello_done = False

    def describe(self) -> dict:
        """Client-side delivery stats (mirrors the server's metrics)."""
        return {
            "session": self.session,
            "client_id": self.client_id,
            "retries_total": self.retries_total,
            "sent_batches": len(self._history),
            "acked_seq": self._done,
            "retry": dataclasses.asdict(self.retry),
        }

    async def connect(self) -> "AsyncSessionClient":
        # A fresh TCP stream means any half-parsed frame from the old
        # one is garbage: reset the decoder alongside the socket.
        self._decoder = protocol.FrameDecoder()
        self._frames = []
        self._hello_done = False
        reader, writer = await asyncio.open_connection(self.host, self.port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        path = f"/v1/sessions/{self.session}/ws"
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                "\r\n"
            ).encode("ascii")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            body = b""
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    body = await reader.readexactly(
                        int(line.split(b":", 1)[1].strip())
                    )
            writer.close()
            raise ServiceClientError(
                "upgrade_failed",
                f"{status_line}: {body.decode('utf-8', 'replace')}",
            )
        expected = accept_key(key)
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"sec-websocket-accept:"):
                got = line.split(b":", 1)[1].strip().decode("ascii")
                if got != expected:
                    writer.close()
                    raise WebSocketError("bad Sec-WebSocket-Accept")
        self._reader, self._writer = reader, writer
        return self

    async def close(self) -> None:
        if self._writer is None:
            return
        try:
            self._writer.write(
                encode_ws_frame(0x8, b"", mask=True)  # CLOSE
            )
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._reader = self._writer = None
        self._hello_done = False

    async def __aenter__(self) -> "AsyncSessionClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- frame plumbing ------------------------------------------------------
    async def send_raw(self, data: bytes) -> None:
        """Ship pre-encoded protocol bytes as one binary message (the
        fault tests use this to split or corrupt frames on purpose)."""
        assert self._writer is not None, "connect() first"
        self._writer.write(encode_ws_frame(OP_BINARY, data, mask=True))
        await self._writer.drain()

    async def recv_frame(self) -> protocol.Frame:
        """The next protocol frame from the server."""
        assert self._reader is not None and self._writer is not None
        while not self._frames:
            message = await read_ws_message(
                self._reader, self._writer,
                require_masked=False, mask_replies=True,
            )
            if message is None:
                raise ServiceClientError(
                    "closed", "server closed the connection"
                )
            opcode, data = message
            if opcode != OP_BINARY:
                continue
            self._frames.extend(self._decoder.feed(data))
        return self._frames.pop(0)

    @staticmethod
    def _raise_if_error(frame: protocol.Frame) -> protocol.Frame:
        if frame.type is protocol.FrameType.ERROR:
            code, message = protocol.decode_error(frame.payload)
            raise ServiceClientError(code, message)
        return frame

    def _expect(self, frame: protocol.Frame,
                ftype: protocol.FrameType) -> protocol.Frame:
        self._raise_if_error(frame)
        if frame.type is not ftype:
            raise ServiceClientError(
                "protocol",
                f"expected {ftype.name}, got {frame.type.name}",
            )
        return frame

    # -- reliable delivery ---------------------------------------------------
    def _absorb(self, frame: protocol.Frame) -> bool:
        """Fold a cumulative ack into local delivery state; True when
        the frame was one.  Acks carry watermarks, not events, so a
        stray copy (a duplicate injected by the network, or a leftover
        from an interrupted exchange) is always safe to absorb — the
        watermarks are monotone within a connection."""
        if frame.type is protocol.FrameType.INGEST_ACK:
            applied, seq, _ = protocol.decode_ingest_ack(frame.payload)
            if seq > self._done:
                self._done = seq
            if applied > self._updates:
                self._updates = applied
            return True
        if frame.type is protocol.FrameType.HELLO_ACK:
            watermark, updates = protocol.decode_hello_ack(frame.payload)
            if watermark > self._done:
                self._done = watermark
            if updates > self._updates:
                self._updates = updates
            return True
        return False

    async def _recv_expect(self, ftype: protocol.FrameType,
                           ) -> protocol.Frame:
        """``recv_frame`` that absorbs stray cumulative acks instead of
        tripping over them."""
        while True:
            frame = await self.recv_frame()
            if frame.type is not ftype and self._absorb(frame):
                continue
            return self._expect(frame, ftype)

    async def hello(self) -> tuple[int, int]:
        """Ask the server where this client's stream stands; returns
        ``(seq_watermark, updates_processed)``."""
        await self.send_raw(protocol.encode_hello(self.client_id))
        frame = await self._recv_expect(protocol.FrameType.HELLO_ACK)
        return protocol.decode_hello_ack(frame.payload)

    async def _teardown(self) -> None:
        """Drop the connection without the close handshake — the peer
        is gone or confused; a fresh connect resyncs everything."""
        writer = self._writer
        self._reader = self._writer = None
        self._hello_done = False
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _is_transient(self, exc: BaseException) -> bool:
        if isinstance(exc, (ConnectionError, OSError, WebSocketError,
                            EOFError, asyncio.TimeoutError)):
            return True
        if isinstance(exc, ServiceClientError):
            # "closed": the server (or a proxy) dropped us mid-stream.
            # "busy": load shedding — explicitly retryable, and shed
            # frames never consume a sequence number.
            # "seq_gap": a frame ahead of ours was lost in flight; the
            # reconnect's HELLO rewinds to the watermark and resends.
            return exc.code in ("closed", "busy", "seq_gap")
        return False

    async def _drive_to(self, target: int) -> int:
        """Advance the server's watermark to ``target``, reconnecting
        and resending as needed; returns updates_processed."""
        attempt = 0
        while True:
            round_start = self._done
            try:
                if self._writer is None:
                    await asyncio.wait_for(self.connect(), self.timeout)
                if not self._hello_done:
                    watermark, updates = await asyncio.wait_for(
                        self.hello(), self.timeout
                    )
                    if watermark > len(self._history):
                        raise ServiceClientError(
                            "desync",
                            f"server watermark {watermark} is past this "
                            f"client's history ({len(self._history)} "
                            "batches) — client id reused?",
                        )
                    self._done = watermark
                    self._updates = updates
                    self._hello_done = True
                if self._done >= target:
                    return self._updates
                assert self._writer is not None
                for seq in range(self._done + 1, target + 1):
                    self._writer.write(encode_ws_frame(
                        OP_BINARY, self._history[seq - 1], mask=True
                    ))
                await self._writer.drain()
                while self._done < target:
                    frame = await asyncio.wait_for(
                        self.recv_frame(), self.timeout
                    )
                    self._raise_if_error(frame)
                    if not self._absorb(frame):
                        raise ServiceClientError(
                            "protocol",
                            f"expected INGEST_ACK, got {frame.type.name}",
                        )
                return self._updates
            except Exception as exc:  # noqa: BLE001 — gated below
                if not self._is_transient(exc):
                    raise
                await self._teardown()
                if self._done > round_start:
                    # Net progress this round — whether acks landed or
                    # HELLO revealed frames that were applied before
                    # the connection died.  The outage is healing, so
                    # the consecutive-failure budget starts over.
                    attempt = 0
                attempt += 1
                if attempt >= self.retry.attempts:
                    raise ServiceClientError(
                        "retries_exhausted",
                        f"gave up at seq {self._done}/{target} after "
                        f"{attempt} consecutive failures: {exc}",
                    ) from exc
                self.retries_total += 1
                await asyncio.sleep(self.retry.delay(attempt, self._rng))

    # -- verbs ---------------------------------------------------------------
    async def ingest(self, items, deltas) -> int:
        """One batch, delivered exactly once with automatic
        reconnect+resend; returns the server's cumulative
        updates-processed watermark."""
        return await self.ingest_many([(items, deltas)])

    async def ingest_many(self, batches) -> int:
        """Pipeline a sequence of ``(items, deltas)`` batches; returns
        the final updates-processed watermark.

        The batches join the retained history and :meth:`_drive_to`
        guarantees every one is applied exactly once, surviving drops,
        duplicates, timeouts, reconnects, and server restarts.  All of
        them are encoded before any joins the history, so a batch the
        encoder refuses (raising
        :class:`~repro.service.protocol.ProtocolError`) leaves the
        stream untouched.
        """
        base = len(self._history)
        frames = [
            protocol.encode_ingest(items, deltas, client_id=self.client_id,
                                   seq=seq)
            for seq, (items, deltas) in enumerate(batches, start=base + 1)
        ]
        self._history.extend(frames)
        return await self._drive_to(len(self._history))

    async def query(self, consumer: str) -> Any:
        await self.send_raw(protocol.encode_query(consumer))
        frame = await self._recv_expect(protocol.FrameType.QUERY_RESULT)
        name, value = protocol.decode_query_result(frame.payload)
        if name != consumer:
            raise ServiceClientError(
                "protocol",
                f"result for {name!r} arrived while awaiting {consumer!r}",
            )
        return value

    async def merge(self, container: bytes) -> int:
        """Fold a snapshot container into the remote session."""
        await self.send_raw(protocol.encode_merge(container))
        frame = await self._recv_expect(protocol.FrameType.MERGE_ACK)
        return protocol.decode_merge_ack(frame.payload)
