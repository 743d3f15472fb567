"""Wire protocol of the sketch service tier: versioned binary frames.

Every message between a client and the service — over a raw socket, a
WebSocket binary message, or an HTTP request body — is one **frame**:

====== ======== =========================================================
offset size     field
====== ======== =========================================================
0      2        magic ``b"SK"`` (rejects foreign traffic immediately)
2      1        protocol version (always :data:`PROTOCOL_VERSION`)
3      1        frame type (:class:`FrameType`)
4      4        payload length, unsigned little-endian
8      length   payload
====== ======== =========================================================

Frame payloads:

* ``INGEST`` — a dedup stamp, then the ``(items, deltas)`` columns
  :meth:`repro.api.StreamSession.push` takes::

      cid_len:u8 | client_id (1..64 utf-8 bytes) | seq:u64 |
      count:u32  | items i64[count] | deltas i64[count]

  ``seq`` starts at 1 and increments per frame per ``client_id``; the
  server applies a frame iff ``seq`` is exactly one past its
  per-``(session, client)`` watermark, acks ``seq <= watermark``
  idempotently as a duplicate, and refuses ``seq > watermark + 1`` with
  a typed ``seq_gap`` error.  Decoding checks framing only (stamp,
  count bounds, exact length), and a framing refusal consumes nothing.
  The target session's ``push`` admits the content, universe included,
  and its refusal consumes the seq; :func:`encode_ingest` applies the
  same rules, so a client never stamps a frame ``push`` would refuse
  (the universe aside).
* ``INGEST_ACK`` — ``applied:u64 | seq:u64 | flags:u8``: the session's
  cumulative ``updates_processed``, the acked seq, and bit 0 set when
  the frame was a duplicate.
* ``HELLO`` — a client_id (same length-prefixed form) asking where the
  client's stream stands; ``HELLO_ACK`` answers
  ``seq_watermark:u64 | updates:u64`` (the reconnect-and-resume
  handshake).
* ``QUERY`` — the utf-8 consumer name; ``QUERY_RESULT`` — a JSON
  object ``{"name": ..., "value": ...}`` (:func:`json_safe` maps numpy
  scalars, sets, and tuples onto JSON types).
* ``MERGE`` — a whole snapshot container
  (:func:`repro.streams.io.payload_to_bytes` of
  ``StreamSession.snapshot()``, i.e. exactly what
  :func:`repro.api.checkpoint.export_snapshot` writes to disk);
  ``MERGE_ACK`` — ``applied:u64`` cumulative updates after the fold.
* ``ERROR`` — JSON ``{"code": ..., "message": ...}``.

All framing refusals raise :class:`ProtocolError` (a ``ValueError``):
truncated or trailing bytes, foreign magic, every version but
:data:`PROTOCOL_VERSION`, lengths beyond :data:`MAX_PAYLOAD`, and
malformed payloads never reach a session.  :class:`FrameDecoder`
reassembles frames from an arbitrarily chunked byte stream (the
WebSocket loop feeds it message by message), so a frame split across
transport reads is delivered exactly once and a connection dropped
mid-frame delivers nothing.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.batch import as_update_arrays

#: First bytes of every frame; foreign traffic fails before any parse.
MAGIC = b"SK"

#: Version byte of every frame; decoders refuse every other version, so
#: the format can evolve without silent misreads.
PROTOCOL_VERSION = 2

#: magic(2) | version(1) | type(1) | payload length(4, LE).
HEADER = struct.Struct("<2sBBI")
HEADER_SIZE = HEADER.size

#: Hard payload ceiling (16 MiB): an oversized length prefix is refused
#: from the header alone, before any allocation.
MAX_PAYLOAD = 1 << 24

#: Updates per INGEST frame (count * 16 bytes must also fit the
#: payload ceiling; this is the stricter, intent-level bound).
MAX_INGEST_UPDATES = 1 << 20

#: Consumer-name bound for QUERY frames.
MAX_QUERY_NAME = 4096

#: Client-id bound for stamped ingest and HELLO frames.
MAX_CLIENT_ID = 64

_COUNT = struct.Struct("<I")
_SEQ = struct.Struct("<Q")
_INGEST_ACK = struct.Struct("<QQB")  # applied | seq | flags (bit 0: dup)
_MERGE_ACK = struct.Struct("<Q")     # applied
_HELLO_ACK = struct.Struct("<QQ")    # seq watermark | updates processed


class ProtocolError(ValueError):
    """A frame violated the wire format; nothing was applied."""


class FrameType(enum.IntEnum):
    INGEST = 1
    INGEST_ACK = 2
    QUERY = 3
    QUERY_RESULT = 4
    MERGE = 5
    MERGE_ACK = 6
    ERROR = 7
    HELLO = 8
    HELLO_ACK = 9


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its type and raw payload bytes."""

    type: FrameType
    payload: bytes


# -- framing -----------------------------------------------------------------

def encode_frame(ftype: FrameType, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload).

    >>> encode_frame(FrameType.QUERY, b"countmin")[:4]
    b'SK\\x02\\x03'
    """
    payload = bytes(payload)
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame ceiling"
        )
    return HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(FrameType(ftype)), len(payload)
    ) + payload


def _decode_header(data: bytes) -> tuple[FrameType, int]:
    magic, version, ftype, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this side speaks {PROTOCOL_VERSION})"
        )
    try:
        ftype = FrameType(ftype)
    except ValueError:
        raise ProtocolError(f"unknown frame type {ftype}") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame ceiling"
        )
    return ftype, length


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame; truncated or trailing bytes are
    refused (the HTTP-body discipline: one request, one frame).

    >>> decode_frame(encode_frame(FrameType.QUERY, b"ams")).payload
    b'ams'
    """
    data = bytes(data)
    if len(data) < HEADER_SIZE:
        raise ProtocolError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{HEADER_SIZE}-byte header"
        )
    ftype, length = _decode_header(data)
    if len(data) != HEADER_SIZE + length:
        raise ProtocolError(
            f"frame length mismatch: header declares {length} payload "
            f"bytes, got {len(data) - HEADER_SIZE}"
        )
    return Frame(ftype, data[HEADER_SIZE:])


class FrameDecoder:
    """Incremental frame reassembly over an arbitrarily chunked byte
    stream.

    ``feed(data)`` returns every frame completed by those bytes; a
    partial frame waits for more input.  A connection that dies
    mid-frame therefore delivers nothing for the incomplete tail —
    the at-most-once half of the ingest contract.

    >>> dec = FrameDecoder()
    >>> raw = encode_frame(FrameType.QUERY, b"cauchy")
    >>> dec.feed(raw[:5])
    []
    >>> [f.payload for f in dec.feed(raw[5:])]
    [b'cauchy']
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[Frame]:
        self._buf += data
        return list(self._drain())

    def _drain(self) -> Iterator[Frame]:
        while len(self._buf) >= HEADER_SIZE:
            ftype, length = _decode_header(bytes(self._buf[:HEADER_SIZE]))
            end = HEADER_SIZE + length
            if len(self._buf) < end:
                return
            payload = bytes(self._buf[HEADER_SIZE:end])
            del self._buf[:end]
            yield Frame(ftype, payload)


# -- ingest payloads ---------------------------------------------------------

def _encode_client_id(client_id: str) -> bytes:
    raw = str(client_id).encode("utf-8")
    if not 1 <= len(raw) <= MAX_CLIENT_ID:
        raise ProtocolError(
            f"client ids are 1..{MAX_CLIENT_ID} utf-8 bytes"
        )
    return bytes([len(raw)]) + raw


def _decode_client_id(payload: bytes, what: str) -> tuple[str, int]:
    """``(client_id, bytes consumed)`` from a length-prefixed id."""
    if not payload:
        raise ProtocolError(f"{what} payload is empty")
    cid_len = payload[0]
    if not 1 <= cid_len <= MAX_CLIENT_ID:
        raise ProtocolError(
            f"client ids are 1..{MAX_CLIENT_ID} utf-8 bytes, "
            f"got length {cid_len}"
        )
    if len(payload) < 1 + cid_len:
        raise ProtocolError(f"{what} payload shorter than its client id")
    try:
        cid = payload[1:1 + cid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"client id is not valid utf-8: {exc}") from None
    return cid, 1 + cid_len


def _admit_columns(items, deltas) -> tuple[np.ndarray, np.ndarray]:
    """The session's own admission (:func:`repro.batch.as_update_arrays`)
    applied before a frame is stamped, so the encoder refuses what
    ``push`` would, the universe aside."""
    try:
        return as_update_arrays(items, deltas)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"ingest frame refused: {exc}") from None


def _encode_columns(items, deltas) -> bytes:
    items_arr, deltas_arr = _admit_columns(items, deltas)
    if not 1 <= len(items_arr) <= MAX_INGEST_UPDATES:
        raise ProtocolError(
            f"ingest frames carry 1..{MAX_INGEST_UPDATES} updates, "
            f"got {len(items_arr)}"
        )
    return (
        _COUNT.pack(len(items_arr))
        + np.ascontiguousarray(items_arr, dtype="<i8").tobytes()
        + np.ascontiguousarray(deltas_arr, dtype="<i8").tobytes()
    )


def _decode_columns(payload: bytes,
                    offset: int) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) - offset < _COUNT.size:
        raise ProtocolError("ingest payload shorter than its count field")
    (count,) = _COUNT.unpack_from(payload, offset)
    if not 1 <= count <= MAX_INGEST_UPDATES:
        raise ProtocolError(
            f"ingest frames carry 1..{MAX_INGEST_UPDATES} updates, "
            f"got {count}"
        )
    expected = offset + _COUNT.size + 16 * count
    if len(payload) != expected:
        raise ProtocolError(
            f"ingest payload length mismatch: count {count} needs "
            f"{expected} bytes, got {len(payload)}"
        )
    base = offset + _COUNT.size
    return (
        np.frombuffer(payload, dtype="<i8", count=count, offset=base),
        np.frombuffer(payload, dtype="<i8", count=count,
                      offset=base + 8 * count),
    )


def encode_ingest(items, deltas, *, client_id: str, seq: int) -> bytes:
    """An INGEST frame for ``(items, deltas)`` update columns, stamped
    ``(client_id, seq)`` so the server applies it exactly once.

    >>> frame = encode_ingest([3, 1], [2, -1], client_id="edge-7", seq=12)
    >>> items, deltas, client_id, seq = decode_ingest(
    ...     decode_frame(frame).payload)
    >>> items.tolist(), client_id, seq
    ([3, 1], 'edge-7', 12)
    """
    if not 1 <= int(seq) <= (1 << 64) - 1:
        raise ProtocolError(f"seq must be a u64 >= 1, got {seq}")
    payload = (_encode_client_id(client_id) + _SEQ.pack(int(seq))
               + _encode_columns(items, deltas))
    return encode_frame(FrameType.INGEST, payload)


def decode_ingest(
    payload: bytes,
) -> tuple[np.ndarray, np.ndarray, str, int]:
    """Unpack an INGEST payload: ``(items, deltas, client_id, seq)``.

    Checks framing only; the target session's ``push`` admits the
    columns' content.
    """
    client_id, offset = _decode_client_id(payload, "ingest")
    if len(payload) < offset + _SEQ.size:
        raise ProtocolError("ingest payload shorter than its seq field")
    (seq,) = _SEQ.unpack_from(payload, offset)
    if seq < 1:
        raise ProtocolError("ingest seq must be >= 1")
    items, deltas = _decode_columns(payload, offset + _SEQ.size)
    return items, deltas, client_id, seq


def encode_ingest_ack(applied: int, seq: int, *,
                      duplicate: bool = False) -> bytes:
    """The ack for an INGEST frame: the session's cumulative
    updates-processed watermark, the acked seq, and a duplicate flag
    (set when the frame was deduplicated, not applied)."""
    payload = _INGEST_ACK.pack(int(applied), int(seq), 1 if duplicate else 0)
    return encode_frame(FrameType.INGEST_ACK, payload)


def decode_ingest_ack(payload: bytes) -> tuple[int, int, bool]:
    """``(applied, seq, duplicate)`` from an INGEST_ACK."""
    if len(payload) != _INGEST_ACK.size:
        raise ProtocolError(
            f"ingest-ack payload must be {_INGEST_ACK.size} bytes, "
            f"got {len(payload)}"
        )
    applied, seq, flags = _INGEST_ACK.unpack(payload)
    return applied, seq, bool(flags & 1)


# -- hello / resume ----------------------------------------------------------

def encode_hello(client_id: str) -> bytes:
    """Ask the server where ``client_id``'s stream stands — the
    reconnect-and-resume handshake."""
    return encode_frame(FrameType.HELLO, _encode_client_id(client_id))


def decode_hello(payload: bytes) -> str:
    client_id, consumed = _decode_client_id(payload, "hello")
    if len(payload) != consumed:
        raise ProtocolError("hello payload carries trailing bytes")
    return client_id


def encode_hello_ack(seq_watermark: int, updates_processed: int) -> bytes:
    return encode_frame(
        FrameType.HELLO_ACK,
        _HELLO_ACK.pack(int(seq_watermark), int(updates_processed)),
    )


def decode_hello_ack(payload: bytes) -> tuple[int, int]:
    """``(seq_watermark, updates_processed)`` from a HELLO_ACK."""
    if len(payload) != _HELLO_ACK.size:
        raise ProtocolError(
            f"hello-ack payload must be {_HELLO_ACK.size} bytes, "
            f"got {len(payload)}"
        )
    return _HELLO_ACK.unpack(payload)


# -- query / result / error payloads -----------------------------------------

def encode_query(name: str) -> bytes:
    raw = str(name).encode("utf-8")
    if not 1 <= len(raw) <= MAX_QUERY_NAME:
        raise ProtocolError(
            f"query names are 1..{MAX_QUERY_NAME} utf-8 bytes"
        )
    return encode_frame(FrameType.QUERY, raw)


def decode_query(payload: bytes) -> str:
    if not 1 <= len(payload) <= MAX_QUERY_NAME:
        raise ProtocolError(
            f"query names are 1..{MAX_QUERY_NAME} utf-8 bytes"
        )
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"query name is not valid utf-8: {exc}") from None


def json_safe(value: Any) -> Any:
    """Map a query answer onto JSON types: numpy scalars to Python
    scalars, arrays/tuples to lists, sets to sorted lists.

    >>> json_safe({np.int64(3), np.int64(1)})
    [1, 3]
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"query result of type {type(value).__name__} has no JSON form"
    )


def encode_query_result(name: str, value: Any) -> bytes:
    payload = json.dumps(
        {"name": str(name), "value": json_safe(value)}
    ).encode("utf-8")
    return encode_frame(FrameType.QUERY_RESULT, payload)


def _decode_json(payload: bytes, what: str) -> dict:
    # Frames arriving through decode_frame are already length-capped;
    # this guards the decoders' other life as client-library entry
    # points handed raw bytes.
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"{what} payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame ceiling"
        )
    try:
        out = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"corrupt {what} payload: {exc}") from None
    if not isinstance(out, dict):
        raise ProtocolError(f"{what} payload is not a JSON object")
    return out


def decode_query_result(payload: bytes) -> tuple[str, Any]:
    out = _decode_json(payload, "query-result")
    if "name" not in out or "value" not in out:
        raise ProtocolError("query-result payload missing name/value")
    return str(out["name"]), out["value"]


def encode_merge(container: bytes) -> bytes:
    """A MERGE frame carrying a whole snapshot container (the bytes of
    :func:`repro.streams.io.payload_to_bytes`)."""
    if not container:
        raise ProtocolError("merge frame carries an empty container")
    return encode_frame(FrameType.MERGE, container)


def decode_merge(payload: bytes) -> bytes:
    """Validated MERGE payload: the snapshot-container bytes.

    The container itself is validated downstream by
    :func:`repro.streams.io.payload_from_bytes`; this decoder owns the
    frame-level invariants (non-empty, within the frame ceiling), so
    every frame type has a decode counterpart to its encode.
    """
    if not payload:
        raise ProtocolError("merge frame carries an empty container")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"merge payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame ceiling"
        )
    return payload


def encode_merge_ack(applied: int) -> bytes:
    return encode_frame(FrameType.MERGE_ACK, _MERGE_ACK.pack(int(applied)))


def decode_merge_ack(payload: bytes) -> int:
    """The cumulative updates-processed watermark after a merge."""
    if len(payload) != _MERGE_ACK.size:
        raise ProtocolError(
            f"merge-ack payload must be {_MERGE_ACK.size} bytes, "
            f"got {len(payload)}"
        )
    return _MERGE_ACK.unpack(payload)[0]


def encode_error(code: str, message: str) -> bytes:
    payload = json.dumps(
        {"code": str(code), "message": str(message)}
    ).encode("utf-8")
    return encode_frame(FrameType.ERROR, payload)


def decode_error(payload: bytes) -> tuple[str, str]:
    out = _decode_json(payload, "error")
    return str(out.get("code", "unknown")), str(out.get("message", ""))
