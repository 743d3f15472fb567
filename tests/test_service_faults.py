"""Fault injection against the live service: a harness test is only
credible if the server survives misbehaving clients.

Covered faults, each asserting the *session* contract afterwards:

* a client that disconnects mid-frame — the incomplete tail applies
  nothing, the watermark is unchanged, and the server answers the next
  client normally;
* a frame split across several WebSocket messages — applied exactly
  once (the decoder reassembles, never duplicates);
* undecodable framing (foreign magic, a v1 header) — an ERROR frame
  comes back and the connection closes, but the server and session
  live on;
* a malformed HTTP request (bad ``Content-Length``, a session spec of
  the wrong shape) — a typed 400, counted, and the server answers the
  next request normally;
* an application error mid-connection (unknown consumer, refused
  ingest) — an ERROR frame, connection stays usable;
* a raising query hook — the error is contained, the flush that
  preceded the query has already applied (at-least-once, never a
  silent drop), and other consumers still answer exactly;
* a slow consumer that stops reading while queries pile up — the
  server applies backpressure instead of dying, other connections stay
  responsive, and every queued answer eventually arrives.
"""

from __future__ import annotations

import asyncio
import json
import socket

import numpy as np
import pytest

from repro.service import (
    AsyncSessionClient,
    MetricsRegistry,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    ServiceMetrics,
    SketchService,
    protocol,
)
from repro.service._ws import OP_BINARY, encode_ws_frame

N = 1 << 10
CLIENT_ID = "probe"


@pytest.fixture()
def service():
    return SketchService(ServiceMetrics(MetricsRegistry()))


@pytest.fixture()
def server(service):
    with ServerThread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port, client_id=CLIENT_ID) as c:
        yield c


def test_disconnect_mid_frame_applies_nothing(server, client):
    """Kill the connection after half an INGEST frame: the session
    watermark must not move, and the server must stay healthy."""
    client.create_session("edge", n=N, track=["frequency_vector"])
    client.ingest("edge", [1, 2], [1, 1])

    async def die_mid_frame():
        async with AsyncSessionClient(server.host, server.port, "edge",
                                      client_id="ws") as ws:
            frame = protocol.encode_ingest([5] * 100, [1] * 100,
                                           client_id="ws", seq=1)
            half = encode_ws_frame(OP_BINARY, frame[:20], mask=True,
                                   fin=False)
            ws._writer.write(half)
            await ws._writer.drain()
            # Abort without CLOSE: simulate a crashed client.
            ws._writer.transport.abort()
            ws._reader = ws._writer = None

    asyncio.run(die_mid_frame())
    assert client.info("edge")["updates_processed"] == 2
    assert client.query("edge", "frequency_vector") == 2
    assert client.healthz()


def test_frame_split_across_messages_applies_once(server, client):
    """One INGEST frame delivered in three WebSocket messages is
    reassembled and applied exactly once."""
    client.create_session("edge", n=N, track=["frequency_vector"])

    async def split_send():
        async with AsyncSessionClient(server.host, server.port, "edge",
                                      client_id="ws") as ws:
            frame = protocol.encode_ingest([3, 4, 5], [2, 2, 2],
                                           client_id="ws", seq=1)
            for lo, hi in [(0, 5), (5, 11), (11, len(frame))]:
                await ws.send_raw(frame[lo:hi])
            ack = ws._expect(await ws.recv_frame(),
                             protocol.FrameType.INGEST_ACK)
            return protocol.decode_ingest_ack(ack.payload)[0]

    assert asyncio.run(split_send()) == 3
    assert client.info("edge")["updates_processed"] == 3
    assert client.query("edge", "frequency_vector") == 6


def test_undecodable_framing_errors_and_closes(server, client):
    """Foreign magic or a foreign version (a v1 header) can never
    resynchronise: the server answers with an ERROR frame, closes that
    connection, and keeps serving."""
    client.create_session("edge", n=N, track=["frequency_vector"])
    v1 = bytearray(protocol.encode_ingest([1], [1], client_id="old", seq=1))
    v1[2] = 1

    async def send_garbage(garbage):
        async with AsyncSessionClient(server.host, server.port, "edge",
                                      client_id="ws") as ws:
            await ws.send_raw(garbage)
            frame = await ws.recv_frame()
            assert frame.type is protocol.FrameType.ERROR
            code, _ = protocol.decode_error(frame.payload)
            assert code == "protocol"
            # The server closes after a framing error.
            with pytest.raises(ServiceClientError, match="closed"):
                await ws.recv_frame()

    for garbage in (b"XXnot-a-frame-at-all", bytes(v1)):
        asyncio.run(send_garbage(garbage))
    client.ingest("edge", [1], [1])
    assert client.info("edge")["updates_processed"] == 1


def test_application_errors_keep_connection_usable(server, client):
    """Refused frames and unknown consumers come back as ERROR frames;
    the same connection then carries good traffic."""
    client.create_session("edge", n=N, track=["frequency_vector"])

    async def drive():
        async with AsyncSessionClient(server.host, server.port, "edge",
                                      client_id="ws") as ws:
            # Out-of-universe item: frame decodes, push refuses.
            with pytest.raises(ServiceClientError, match="bad_frame"):
                await ws.ingest([N + 5], [1])
            with pytest.raises(ServiceClientError, match="not_found"):
                await ws.query("ghost")
            # Still alive:
            assert await ws.ingest([7], [3]) == 1
            assert await ws.query("frequency_vector") == 3

    asyncio.run(drive())


def test_deletion_beside_misra_gries_is_refused_at_ingest(service, client):
    """ROADMAP item 1's probe: a deletion in a session tracking
    Misra-Gries used to be acked as applied, and every later query then
    failed and fed the buffered chunk to ``frequency_vector`` again.
    Now the frame is a ``bad_frame`` that consumes its seq and buffers
    nothing, and the client's next frame follows on."""
    client.create_session("edge", n=64, chunk_size=8,
                          track=["frequency_vector", "misra_gries"])
    with pytest.raises(ServiceClientError, match="bad_frame"):
        client.ingest("edge", [1, 2, 3], [1, 1, -1])
    info = client.info("edge")
    assert info["ingest_watermarks"] == {CLIENT_ID: 1}
    assert (info["updates_processed"], info["pending"]) == (0, 0)
    for _ in range(3):
        assert client.query("edge", "frequency_vector") == 0
    f = service.get("edge")["frequency_vector"].f
    assert f[1:4].tolist() == [0, 0, 0]
    assert client.ingest("edge", [1, 2], [1, 1])["applied"] == 2
    assert client.query("edge", "frequency_vector") == 2


def test_a_session_without_consumers_is_refused(client):
    """A session must track at least one consumer: no wire verb adds
    one later, and an INGEST into an empty session used to answer a 500
    ``internal``.  The refusal is a ``bad_session`` that leaves no
    session behind, so the name stays free."""
    with pytest.raises(ServiceClientError, match="bad_session") as err:
        client.create_session("edge", n=16)
    assert err.value.status == 400
    assert client.sessions() == []
    client.create_session("edge", n=16, track=["frequency_vector"])
    assert client.ingest("edge", [1], [1])["applied"] == 1
    assert client.query("edge", "frequency_vector") == 1


def test_raising_query_hook_leaves_session_consistent(service, server,
                                                     monkeypatch):
    """A query hook that raises is contained: the ERROR frame comes
    back, the pre-query flush has applied (at-least-once), and every
    other consumer still answers exactly."""
    session_info = service.create_session(
        "edge", n=N, chunk_size=4096, track=["frequency_vector"]
    )
    assert session_info["name"] == "edge"

    def explode():
        raise RuntimeError("hook exploded")

    from repro.streams.model import FrequencyVector
    boom = FrequencyVector(N)
    service.sessions["edge"].add("boom", boom)
    monkeypatch.setattr(boom, "l1", explode)  # what its hook calls

    async def drive(handle):
        async with AsyncSessionClient(handle.host, handle.port, "edge",
                                      client_id="ws") as ws:
            await ws.ingest([1, 2, 3], [1, 1, 1])
            with pytest.raises(ServiceClientError, match="internal"):
                await ws.query("boom")
            # The flush preceding the failed query already dispatched:
            # the healthy consumer reflects every update, exactly.
            assert await ws.query("frequency_vector") == 3
            assert await ws.ingest([4], [5]) == 4
            assert await ws.query("frequency_vector") == 8

    with_handle = server
    asyncio.run(drive(with_handle))
    assert service.sessions["edge"].pending == 0


def test_slow_consumer_backpressure(server, client):
    """A client that floods queries and stops reading: the server's
    write buffer fills and drain() suspends that handler (bounded
    memory) while other connections stay responsive; once the slow
    client reads again, every queued answer arrives in order."""
    client.create_session("edge", n=N, track=["frequency_vector"])
    items = np.arange(200) % N
    deltas = np.ones(200, dtype=np.int64)
    client.ingest("edge", items, deltas)
    queries = 300

    async def drive():
        async with AsyncSessionClient(server.host, server.port, "edge",
                                      client_id="slow") as slow:
            # Fire a burst of queries without reading any response.
            for _ in range(queries):
                slow._writer.write(encode_ws_frame(
                    OP_BINARY, protocol.encode_query("frequency_vector"),
                    mask=True,
                ))
            await slow._writer.drain()

            # While the slow client sits on its responses, a second
            # connection must answer promptly.
            async def probe():
                async with AsyncSessionClient(
                        server.host, server.port, "edge",
                        client_id="other") as other:
                    return await other.query("frequency_vector")

            assert await asyncio.wait_for(probe(), timeout=10) == 200

            # Now read everything; all answers arrive, in order.
            got = 0
            for _ in range(queries):
                frame = slow._expect(await ws_recv(slow),
                                     protocol.FrameType.QUERY_RESULT)
                name, value = protocol.decode_query_result(frame.payload)
                assert (name, value) == ("frequency_vector", 200)
                got += 1
            return got

    async def ws_recv(ws):
        return await asyncio.wait_for(ws.recv_frame(), timeout=30)

    assert asyncio.run(drive()) == queries
    assert client.healthz()


def test_http_disconnect_mid_body_applies_nothing(server, client):
    """An HTTP ingest whose body never finishes applies nothing."""
    client.create_session("edge", n=N, track=["frequency_vector"])
    frame = protocol.encode_ingest([1] * 50, [1] * 50, client_id="raw",
                                   seq=1)
    head = (
        f"POST /v1/sessions/edge/ingest HTTP/1.1\r\n"
        f"Host: x\r\nContent-Length: {len(frame)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((server.host, server.port)) as sock:
        sock.sendall(head + frame[: len(frame) // 2])
        # Hard close mid-body.
    assert client.info("edge")["updates_processed"] == 0
    client.ingest("edge", [1], [1])
    assert client.info("edge")["updates_processed"] == 1


def _post_sessions(spec: dict) -> bytes:
    body = json.dumps(spec).encode("utf-8")
    return (f"POST /v1/sessions HTTP/1.1\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def _errors_total(client, code: str) -> float:
    prefix = f'repro_errors_total{{code="{code}"}} '
    for line in client.metrics().splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return 0.0


@pytest.mark.parametrize("request_bytes, code", [
    (b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
     "bad_request"),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n",
     "bad_request"),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
     "bad_request"),
    (_post_sessions({"name": "s", "n": N, "bogus": 1}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "track": 5}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "params": [1]}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "coalesce": False}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "chunk_size": 1.5}), "bad_session"),
    (_post_sessions({"name": "s", "n": 256.9}), "bad_session"),
    (_post_sessions({"name": "s", "n": True}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "node": 2.7}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "seed": "7"}), "bad_session"),
    (_post_sessions({"name": "s", "n": 16, "track": {
        "fv": "frequency_vector",
        "sf": {"spec": "sampled_frequencies", "universe": 8}}}),
     "bad_session"),
    (_post_sessions({"name": "s", "n": 2**45,
                     "track": ["frequency_vector"]}), "bad_session"),
    (_post_sessions({"name": "s", "n": N, "track": {
        "cs": {"spec": "countsketch", "width": 2**45}}}), "bad_session"),
    (_post_sessions({"name": "s", "n": 16}), "bad_session"),
    (_post_sessions({"name": "s", "n": 16, "track": []}), "bad_session"),
    (_post_sessions({"name": "s", "n": 16, "track": {}}), "bad_session"),
], ids=["length_abc", "length_1e3", "length_negative", "unknown_field",
        "track_not_a_list", "params_not_an_object", "retired_coalesce",
        "chunk_size_float", "n_float", "n_bool", "node_float",
        "seed_string", "sampled_frequencies_universe", "n_unallocatable",
        "track_constructor_keywords", "track_missing", "track_empty_list",
        "track_empty_object"])
def test_malformed_http_request_is_a_typed_400(server, client,
                                               request_bytes, code):
    """A malformed request gets a 400 with its error code, counted in
    repro_errors_total — never a crash, a silent close, or a 500."""
    before = _errors_total(client, code)
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(request_bytes)
        head, _, body = sock.makefile("rb").read().partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0] == b"HTTP/1.1 400 Bad Request"
    assert json.loads(body)["error"] == code
    assert _errors_total(client, code) == before + 1
    assert client.healthz()
    assert client.sessions() == []


@pytest.mark.parametrize("field", ["n", "seed", "node", "chunk_size"])
@pytest.mark.parametrize("value, match", [
    (1.5, "must be an integer, not 1.5"),
    (True, "must be an integer, not True"),
    (-1, "positive|non-negative"),
])
def test_session_fields_are_admitted_by_their_constructors(service, field,
                                                           value, match):
    """``Params`` and ``StreamSession`` admit the raw JSON values: a
    non-integer or negative size, seed or index is a bad_session, and
    no session is left behind."""
    from repro.service.server import ServiceError

    fields = {"n": N, field: value}
    with pytest.raises(ServiceError, match=match) as err:
        service.create_session("s", track=["countmin"], **fields)
    assert err.value.code == "bad_session"
    assert service.sessions == {}


class TestMergeFrameValidation:
    """Regression: SketchService.merge routes the container through
    protocol.decode_merge first, so an empty or oversized body surfaces
    as the typed bad_merge error instead of an opaque parse crash."""

    def test_empty_container_is_bad_merge(self, service):
        from repro.service.server import ServiceError

        service.create_session("s", n=N, track=["countmin"])
        with pytest.raises(ServiceError) as err:
            service.merge("s", b"")
        assert err.value.code == "bad_merge"

    def test_oversized_container_is_bad_merge(self, service):
        from repro.service.server import ServiceError

        service.create_session("s", n=N, track=["countmin"])
        with pytest.raises(ServiceError) as err:
            service.merge("s", b"\x00" * (protocol.MAX_PAYLOAD + 1))
        assert err.value.code == "bad_merge"
        assert "ceiling" in err.value.message

class TestMergeIsAllOrNothing:
    """A MERGE folds the posted snapshot entirely or not at all: one a
    consumer refuses answers ``bad_merge`` and leaves the session as it
    was, so a retried merge cannot count anything twice."""

    TRACK = ["frequency_vector", "sampled_frequencies", "alpha_l0"]

    def _feed(self, server, name, client_id, **fields):
        with ServiceClient(server.host, server.port,
                           client_id=client_id) as c:
            c.create_session(name, n=64, seed=1, track=self.TRACK,
                             **fields)
            c.ingest(name, np.arange(50), np.ones(50, dtype=np.int64))
            return c.snapshot(name)

    @pytest.mark.parametrize("refusal", ["alpha", "missing_state",
                                         "dangling_ref", "missing_field"])
    def test_refused_merge_leaves_the_session_unchanged(
            self, server, client, drop_state, drop_field, refusal):
        """Refused by αL0 (the sibling's α differs, which no pre-check
        sees; ``frequency_vector`` and ``sampled_frequencies`` would
        merge first) or at restore (a ``SampledFrequencies`` without
        the ``_pos`` table its class sets at construction, or without
        its ``_halve_rng``, whose object id a later attribute still
        refers to: the answer names the undefined id; or an array node
        without its dtype)."""
        from repro.api.serialize import payload_equal
        from repro.streams.io import payload_from_bytes, payload_to_bytes

        self._feed(server, "a", "east")
        before = payload_from_bytes(client.snapshot("a"))
        info = client.info("a")
        if refusal == "alpha":
            container = self._feed(server, "b", "west", node=1,
                                   params={"alpha": 8.0})
        else:
            payload = payload_from_bytes(
                self._feed(server, "b", "west", node=1))
            if refusal == "missing_field":
                drop_field(payload, "ndarray", "dtype")
            else:
                attr = ("_pos" if refusal == "missing_state"
                        else "_halve_rng")
                assert drop_state(payload, "SampledFrequencies", attr) == 1
            container = payload_to_bytes(payload)
        with pytest.raises(ServiceClientError, match="bad_merge") as err:
            client.merge("a", container)
        if refusal == "dangling_ref":
            assert "never defines" in err.value.message
        if refusal == "missing_field":
            assert "lacks its 'dtype' field" in err.value.message
        assert payload_equal(payload_from_bytes(client.snapshot("a")),
                             before)
        assert client.info("a") == info
        merged = client.merge("a", self._feed(server, "c", "west", node=1))
        assert merged["updates_processed"] == 100
        assert client.info("a")["ingest_watermarks"] == {"east": 1,
                                                         "west": 1}
        assert client.query("a", "frequency_vector") == 100


class TestServiceLockPins:
    def test_accessors_hold_the_service_lock(self, service):
        """Pin for the lock-discipline sweep: get/info/list_sessions
        acquire the (reentrant) service lock — they nest, which is why
        it must stay an RLock."""
        service.create_session("s", n=N, track=["countmin"])

        class RecordingLock:
            def __init__(self, inner):
                self.inner = inner
                self.count = 0

            def __enter__(self):
                self.count += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        rec = service._lock = RecordingLock(service._lock)
        service.get("s")
        service.info("s")
        service.list_sessions()
        assert rec.count >= 3

