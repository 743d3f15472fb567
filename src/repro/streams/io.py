"""Stream and snapshot-payload serialization.

Benchmark workloads want to be generated once and replayed byte-identically
into every competing sketch; :func:`save_stream`/:func:`load_stream` use a
compact npz container.

:func:`save_payload`/:func:`load_payload` persist the pickle-free state
payloads produced by :func:`repro.api.serialize.snapshot` (and therefore
``StreamSession.snapshot``) to a single ``.npz`` file: every numpy array
in the payload is stored natively under a flat key, and the remaining
structure (scalars, lists, dicts) travels as one JSON sidecar entry.
Neither side ever touches pickle — files load with
``allow_pickle=False`` and object-dtype arrays are refused on save — so
a payload file is as safe to read from untrusted storage as the
in-memory payload contract promises.
"""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.streams.model import Stream

_FORMAT_VERSION = 1

#: Version of the flattened-payload .npz container (independent of the
#: in-memory snapshot format, which is versioned inside the payload).
_PAYLOAD_FORMAT_VERSION = 1

#: npz entry holding the JSON-encoded structure of the payload.
_PAYLOAD_JSON_KEY = "__payload_json__"

#: npz entry holding the container format version.
_PAYLOAD_VERSION_KEY = "__payload_format__"

#: Single-key dict marker that replaces an ndarray in the JSON tree and
#: names the flat npz entry the array was moved to.
_PAYLOAD_ARRAY_TAG = "__npz__"

#: Single-key dict marker for object-dtype arrays of plain Python ints
#: (the exact counters' arbitrary-precision fingerprints).  JSON ints
#: are arbitrary precision, so these ride the sidecar exactly instead
#: of being pickled by np.savez.
_PAYLOAD_BIGINT_TAG = "__npzbig__"


def save_stream(stream: Stream, path: str | Path) -> None:
    """Persist a stream to an ``.npz`` container."""
    items = np.fromiter((u.item for u in stream), dtype=np.int64,
                        count=len(stream))
    deltas = np.fromiter((u.delta for u in stream), dtype=np.int64,
                         count=len(stream))
    np.savez_compressed(
        Path(path),
        version=np.int64(_FORMAT_VERSION),
        n=np.int64(stream.n),
        items=items,
        deltas=deltas,
    )


def load_stream(path: str | Path) -> Stream:
    """Load a stream previously written by :func:`save_stream`.

    The file is untrusted input: it loads with ``allow_pickle=False``
    and the arrays go through :meth:`Stream.from_arrays`, which
    validates dtypes, ``0 <= item < n``, nonzero deltas, and matching
    lengths — a corrupt or hand-edited container raises ``ValueError``
    instead of smuggling out-of-range updates into the sketches.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        for key in ("version", "n", "items", "deltas"):
            if key not in data.files:
                raise ValueError(f"stream container missing entry {key!r}")
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported stream format version {version}")
        n = int(data["n"])
        items = data["items"]
        deltas = data["deltas"]
    if n < 1:
        raise ValueError(f"stream container has invalid universe size {n}")
    return Stream.from_arrays(n, items, deltas)


def _payload_entries(payload: dict) -> dict[str, Any]:
    """Flatten a snapshot payload into the npz entry dict (the shared
    implementation of :func:`save_payload` and
    :func:`payload_to_bytes`)."""
    arrays: dict[str, np.ndarray] = {}

    def strip(node: Any) -> Any:
        if isinstance(node, np.ndarray):
            if node.dtype.hasobject:
                # np.savez would silently pickle these.  The only
                # object arrays the stack produces hold plain Python
                # ints (arbitrary-precision exact-counter
                # fingerprints), which JSON carries exactly.
                flat = node.ravel().tolist()
                if not all(type(x) is int for x in flat):
                    raise TypeError(
                        "payload contains an object-dtype array with "
                        "non-int elements; these cannot be saved "
                        "without pickle"
                    )
                return {_PAYLOAD_BIGINT_TAG: {
                    "shape": list(node.shape), "v": flat,
                }}
            key = f"a{len(arrays)}"
            arrays[key] = node
            return {_PAYLOAD_ARRAY_TAG: key}
        if isinstance(node, dict):
            for reserved in (_PAYLOAD_ARRAY_TAG, _PAYLOAD_BIGINT_TAG):
                if reserved in node:
                    raise ValueError(
                        f"payload dict uses the reserved key "
                        f"{reserved!r}"
                    )
            out = {}
            for key, value in node.items():
                if not isinstance(key, str):
                    raise TypeError(
                        f"payload dict key {key!r} is not a string; "
                        "encode the structure with snapshot() first"
                    )
                out[key] = strip(value)
            return out
        if isinstance(node, list):
            return [strip(x) for x in node]
        if node is None or isinstance(node, (bool, int, float, str)):
            return node
        raise TypeError(
            f"cannot persist payload node of type {type(node).__name__}; "
            "only snapshot() payloads (scalars, lists, string-keyed "
            "dicts, numpy arrays) are supported"
        )

    tree = strip(payload)
    sidecar = np.frombuffer(json.dumps(tree).encode("utf-8"), dtype=np.uint8)
    entries: dict[str, Any] = {
        _PAYLOAD_VERSION_KEY: np.int64(_PAYLOAD_FORMAT_VERSION),
        _PAYLOAD_JSON_KEY: sidecar,
    }
    entries.update(arrays)
    return entries


def save_payload(payload: dict, path: str | Path) -> None:
    """Persist a pickle-free state payload to a flattened-key ``.npz``.

    ``payload`` is the output of :func:`repro.api.serialize.snapshot`
    or ``StreamSession.snapshot()``: nested dicts/lists of scalars plus
    numpy arrays.  Each ndarray is stored natively under a flat
    ``a<k>`` entry (compressed, dtype preserved bit-exactly) and
    replaced in the tree by a ``{"__npz__": "a<k>"}`` marker; the
    remaining pure-JSON tree goes into one utf-8 sidecar entry.  Shared
    arrays appear once in the payload (the snapshot encoder memoizes
    them), so flattening preserves sharing.

    Object-dtype arrays are rejected — ``np.savez`` would silently
    pickle them, which would break the no-pickle guarantee that lets
    :func:`load_payload` read untrusted files.
    """
    entries = _payload_entries(payload)
    # A file handle (not a path) keeps numpy from appending ".npz" to
    # names that lack the suffix — temp-file callers rely on the exact
    # path they asked for.
    with open(Path(path), "wb") as fh:
        np.savez_compressed(fh, **entries)


def payload_to_bytes(payload: dict) -> bytes:
    """The payload container as in-memory bytes — exactly the file
    :func:`save_payload` would write, for shipping a snapshot over a
    wire (the service tier's merge frames) instead of through disk."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **_payload_entries(payload))
    return buf.getvalue()


def _payload_rebuild(data, source: str) -> dict:
    """Decode an open payload ``NpzFile`` back into the state dict."""
    if (_PAYLOAD_VERSION_KEY not in data.files
            or _PAYLOAD_JSON_KEY not in data.files):
        raise ValueError(f"{source} is not a repro payload container")
    version = int(data[_PAYLOAD_VERSION_KEY])
    if version != _PAYLOAD_FORMAT_VERSION:
        raise ValueError(
            f"unsupported payload container version {version}"
        )
    try:
        tree = json.loads(data[_PAYLOAD_JSON_KEY].tobytes().decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt payload sidecar in {source}: {exc}")

    def rebuild(node: Any) -> Any:
        if isinstance(node, dict):
            if set(node) == {_PAYLOAD_ARRAY_TAG}:
                key = node[_PAYLOAD_ARRAY_TAG]
                if not isinstance(key, str) or key not in data.files:
                    raise ValueError(
                        f"payload references missing array entry "
                        f"{key!r}"
                    )
                return data[key]
            if set(node) == {_PAYLOAD_BIGINT_TAG}:
                spec = node[_PAYLOAD_BIGINT_TAG]
                out = np.empty(len(spec["v"]), dtype=object)
                out[:] = spec["v"]
                return out.reshape(spec["shape"])
            return {k: rebuild(v) for k, v in node.items()}
        if isinstance(node, list):
            return [rebuild(x) for x in node]
        return node

    out = rebuild(tree)
    if not isinstance(out, dict):
        raise ValueError(f"{source} does not contain a payload dict")
    return out


def load_payload(path: str | Path) -> dict:
    """Load a payload written by :func:`save_payload`.

    The inverse of the flattening: the JSON sidecar is decoded and
    every ``{"__npz__": key}`` marker is replaced by its array.  Loads
    with ``allow_pickle=False``; truncated, foreign, or hand-edited
    files raise ``ValueError`` (checkpoint recovery treats that as
    "skip this file and fall back to an older checkpoint").
    """
    with np.load(Path(path), allow_pickle=False) as data:
        return _payload_rebuild(data, str(path))


def payload_from_bytes(data: bytes) -> dict:
    """Decode a payload container shipped as bytes (the inverse of
    :func:`payload_to_bytes`).

    The bytes are untrusted input exactly like a payload *file*:
    loading uses ``allow_pickle=False`` and every structural check of
    :func:`load_payload` applies — truncated, foreign, or hand-edited
    containers raise ``ValueError``-family errors rather than
    smuggling state into a session.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("payload container must be bytes")
    try:
        npz = np.load(io.BytesIO(bytes(data)), allow_pickle=False)
    except (OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"corrupt payload container: {exc}") from None
    with npz:
        return _payload_rebuild(npz, "<bytes>")

