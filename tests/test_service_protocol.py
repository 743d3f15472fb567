"""Wire-protocol tests for the service tier's binary frame codec.

Three layers of assurance: hypothesis round-trips (any encodable frame
decodes to itself, through any chunking of the byte stream), refusal
tests (truncated, corrupt, oversized, foreign-magic, foreign-version
frames raise ``ProtocolError`` before touching any session), and a
hash-pinned golden frame — if the byte layout ever changes, the pin
fails and the protocol version must be bumped.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    HEADER_SIZE,
    MAX_INGEST_UPDATES,
    MAX_PAYLOAD,
    Frame,
    FrameDecoder,
    FrameType,
    ProtocolError,
)

update_columns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**62),
        st.integers(min_value=-(2**31), max_value=2**31).filter(bool),
    ),
    min_size=1,
    max_size=200,
).map(lambda pairs: tuple(np.array(cols, dtype=np.int64)
                          for cols in zip(*pairs)))


def ingest_frame(items, deltas, client_id="c", seq=1):
    return protocol.encode_ingest(items, deltas, client_id=client_id,
                                  seq=seq)


#: Bytes a ``client_id="c"`` stamp puts before the count field:
#: cid_len:u8 | b"c" | seq:u64.
STAMP_C = 1 + 1 + 8


class TestRoundTrips:
    @given(cols=update_columns)
    @settings(max_examples=50, deadline=None)
    def test_ingest_round_trip(self, cols):
        items, deltas = cols
        frame = protocol.decode_frame(ingest_frame(items, deltas))
        assert frame.type is FrameType.INGEST
        out_items, out_deltas, _, _ = protocol.decode_ingest(frame.payload)
        np.testing.assert_array_equal(out_items, items)
        np.testing.assert_array_equal(out_deltas, deltas)

    @given(name=st.text(min_size=1, max_size=64).filter(
        lambda s: 1 <= len(s.encode("utf-8")) <= protocol.MAX_QUERY_NAME))
    @settings(max_examples=50, deadline=None)
    def test_query_round_trip(self, name):
        frame = protocol.decode_frame(protocol.encode_query(name))
        assert protocol.decode_query(frame.payload) == name

    @given(applied=st.integers(min_value=0, max_value=2**64 - 1),
           seq=st.integers(min_value=1, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_ack_round_trip(self, applied, seq):
        frame = protocol.decode_frame(
            protocol.encode_ingest_ack(applied, seq))
        assert protocol.decode_ingest_ack(frame.payload) == (
            applied, seq, False)
        frame = protocol.decode_frame(protocol.encode_merge_ack(applied))
        assert protocol.decode_merge_ack(frame.payload) == applied

    def test_query_result_round_trip(self):
        for value in (3, 2.5, [1, 2], {"a": [True, None]}, "text",
                      np.int64(9), np.array([1, 2, 3])):
            frame = protocol.decode_frame(
                protocol.encode_query_result("spec", value)
            )
            name, out = protocol.decode_query_result(frame.payload)
            assert name == "spec"
            assert out == protocol.json_safe(value)

    def test_error_round_trip(self):
        frame = protocol.decode_frame(
            protocol.encode_error("bad_frame", "because")
        )
        assert protocol.decode_error(frame.payload) == (
            "bad_frame", "because")

    @given(cols=update_columns,
           cut=st.lists(st.integers(min_value=1, max_value=64),
                        max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_decoder_reassembles_any_chunking(self, cols, cut):
        """A frame split at arbitrary byte boundaries arrives exactly
        once; a trailing partial frame arrives zero times."""
        items, deltas = cols
        raw = (ingest_frame(items, deltas)
               + protocol.encode_query("countmin"))
        positions = sorted({min(c, len(raw)) for c in cut})
        pieces, prev = [], 0
        for pos in positions + [len(raw)]:
            pieces.append(raw[prev:pos])
            prev = pos
        dec = FrameDecoder()
        frames = [f for piece in pieces for f in dec.feed(piece)]
        assert [f.type for f in frames] == [FrameType.INGEST,
                                            FrameType.QUERY]
        assert dec.pending_bytes == 0


class TestMergeDecoder:
    """decode_merge — the frame-level validator SketchService.merge
    routes containers through (regression: an empty or oversized body
    used to reach the container parser as an opaque crash)."""

    def test_round_trip(self):
        container = b"npz-bytes-here"
        frame = protocol.decode_frame(protocol.encode_merge(container))
        assert protocol.decode_merge(frame.payload) == container

    def test_empty_container_refused(self):
        with pytest.raises(ProtocolError, match="empty"):
            protocol.decode_merge(b"")
        with pytest.raises(ProtocolError, match="empty"):
            protocol.encode_merge(b"")

    def test_oversized_container_refused(self):
        big = b"\x00" * (MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.decode_merge(big)

    def test_json_decoders_refuse_oversized_payloads(self):
        """_decode_json guards its client-library life: decoders handed
        raw bytes (not through decode_frame) still enforce the frame
        ceiling before trusting the payload."""
        big = b"\x00" * (MAX_PAYLOAD + 1)
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.decode_query_result(big)
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.decode_error(big)


class TestRefusals:
    def test_truncated_header(self):
        raw = protocol.encode_query("x")
        for cut in range(HEADER_SIZE):
            with pytest.raises(ProtocolError, match="truncated"):
                protocol.decode_frame(raw[:cut])

    def test_truncated_payload_and_trailing_bytes(self):
        raw = protocol.encode_query("countmin")
        with pytest.raises(ProtocolError, match="length mismatch"):
            protocol.decode_frame(raw[:-1])
        with pytest.raises(ProtocolError, match="length mismatch"):
            protocol.decode_frame(raw + b"\x00")

    def test_foreign_magic(self):
        raw = bytearray(protocol.encode_query("x"))
        raw[0:2] = b"PB"
        with pytest.raises(ProtocolError, match="magic"):
            protocol.decode_frame(bytes(raw))
        with pytest.raises(ProtocolError, match="magic"):
            FrameDecoder().feed(bytes(raw))

    @pytest.mark.parametrize("version", [1, protocol.PROTOCOL_VERSION + 1])
    def test_foreign_version(self, version):
        """Every version but PROTOCOL_VERSION is refused from the header
        alone — v1 included, whatever frame type it carries."""
        for raw in (protocol.encode_query("x"), protocol.encode_hello("a"),
                    ingest_frame([1], [1])):
            raw = bytearray(raw)
            raw[2] = version
            with pytest.raises(ProtocolError,
                               match="unsupported protocol version"):
                protocol.decode_frame(bytes(raw))
            with pytest.raises(ProtocolError,
                               match="unsupported protocol version"):
                FrameDecoder().feed(bytes(raw))

    def test_unknown_frame_type(self):
        raw = bytearray(protocol.encode_query("x"))
        raw[3] = 0x7F
        with pytest.raises(ProtocolError, match="frame type"):
            protocol.decode_frame(bytes(raw))

    def test_oversized_declared_length_refused_from_header(self):
        """An absurd length prefix is refused before any allocation —
        the decoder never waits for 4 GiB that will not come."""
        header = protocol.HEADER.pack(
            protocol.MAGIC, protocol.PROTOCOL_VERSION,
            int(FrameType.INGEST), MAX_PAYLOAD + 1,
        )
        with pytest.raises(ProtocolError, match="ceiling"):
            FrameDecoder().feed(header)

    def test_oversized_encode_refused(self):
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.encode_frame(FrameType.MERGE,
                                  b"\x00" * (MAX_PAYLOAD + 1))

    def test_ingest_count_mismatch(self):
        frame = protocol.decode_frame(ingest_frame([1], [1]))
        with pytest.raises(ProtocolError, match="mismatch"):
            protocol.decode_ingest(frame.payload + b"\x00" * 8)
        too_many = (frame.payload[:STAMP_C]
                    + protocol._COUNT.pack(MAX_INGEST_UPDATES + 1))
        with pytest.raises(ProtocolError, match="1\\.\\."):
            protocol.decode_ingest(too_many)

    def test_ingest_refuses_negative_items_and_zero_deltas(self):
        """Both ends refuse the same columns: the decoder on hostile
        bytes, the encoder before a frame is ever stamped."""
        good = protocol.decode_frame(ingest_frame([5, 6], [1, 2])).payload
        items_at = STAMP_C + protocol._COUNT.size
        negative = bytearray(good)
        negative[items_at:items_at + 8] = np.int64(-3).tobytes()
        with pytest.raises(ProtocolError, match="negative"):
            protocol.decode_ingest(bytes(negative))
        zero = bytearray(good)
        zero[items_at + 16:items_at + 24] = np.int64(0).tobytes()
        with pytest.raises(ProtocolError, match="zero delta"):
            protocol.decode_ingest(bytes(zero))
        with pytest.raises(ProtocolError, match="negative"):
            ingest_frame([-3, 6], [1, 2])
        with pytest.raises(ProtocolError, match="zero delta"):
            ingest_frame([5, 6], [1, 0])

    def test_ingest_refuses_mismatched_columns(self):
        with pytest.raises(ProtocolError, match="lengths differ"):
            ingest_frame([1, 2], [1])
        with pytest.raises(ProtocolError, match="1-D"):
            ingest_frame([[1]], [[1]])

    def test_empty_refusals(self):
        with pytest.raises(ProtocolError):
            ingest_frame([], [])
        with pytest.raises(ProtocolError):
            protocol.encode_query("")
        with pytest.raises(ProtocolError):
            protocol.encode_merge(b"")
        with pytest.raises(ProtocolError):
            protocol.decode_query(b"")
        with pytest.raises(ProtocolError):
            protocol.decode_ingest_ack(b"\x00" * 8)
        with pytest.raises(ProtocolError):
            protocol.decode_merge_ack(b"\x00" * 7)

    def test_corrupt_json_payloads(self):
        for decoder in (protocol.decode_query_result,
                        protocol.decode_error):
            with pytest.raises(ProtocolError, match="corrupt|JSON"):
                decoder(b"\xff\xfe not json")
        with pytest.raises(ProtocolError, match="name/value"):
            protocol.decode_query_result(b"{}")


class TestStampedIngest:
    """The dedup stamp and the HELLO resume handshake."""

    @given(cols=update_columns,
           seq=st.integers(min_value=1, max_value=2**63),
           cid=st.text(min_size=1, max_size=21).filter(
               lambda s: 1 <= len(s.encode("utf-8"))
               <= protocol.MAX_CLIENT_ID))
    @settings(max_examples=50, deadline=None)
    def test_stamped_round_trip(self, cols, seq, cid):
        items, deltas = cols
        frame = protocol.decode_frame(
            protocol.encode_ingest(items, deltas, client_id=cid, seq=seq)
        )
        out_i, out_d, out_cid, out_seq = protocol.decode_ingest(
            frame.payload)
        np.testing.assert_array_equal(out_i, items)
        np.testing.assert_array_equal(out_d, deltas)
        assert (out_cid, out_seq) == (cid, seq)

    def test_ack_v2_round_trip(self):
        frame = protocol.decode_frame(
            protocol.encode_ingest_ack(900, 7, duplicate=True)
        )
        assert protocol.decode_ingest_ack(frame.payload) == (900, 7, True)

    def test_hello_round_trip(self):
        frame = protocol.decode_frame(protocol.encode_hello("edge-7"))
        assert frame.type is FrameType.HELLO
        assert protocol.decode_hello(frame.payload) == "edge-7"
        ack = protocol.decode_frame(protocol.encode_hello_ack(42, 4200))
        assert protocol.decode_hello_ack(ack.payload) == (42, 4200)

    def test_stamp_refusals(self):
        with pytest.raises(TypeError, match="seq"):
            protocol.encode_ingest([1], [1], client_id="a")
        with pytest.raises(TypeError, match="client_id"):
            protocol.encode_ingest([1], [1], seq=1)
        with pytest.raises(ProtocolError, match="seq"):
            protocol.encode_ingest([1], [1], client_id="a", seq=0)
        with pytest.raises(ProtocolError, match="client ids"):
            protocol.encode_ingest([1], [1], client_id="", seq=1)
        with pytest.raises(ProtocolError, match="client ids"):
            protocol.encode_hello("x" * (protocol.MAX_CLIENT_ID + 1))
        with pytest.raises(ProtocolError, match="trailing"):
            frame = protocol.decode_frame(protocol.encode_hello("a"))
            protocol.decode_hello(frame.payload + b"\x00")
        with pytest.raises(ProtocolError, match="seq field"):
            protocol.decode_ingest(b"\x01a\x00")


class TestGoldenFrame:
    """The byte layout is pinned: changing it without bumping
    PROTOCOL_VERSION breaks deployed peers silently — this test makes
    the break loud instead."""

    GOLDEN_SHA256 = (
        "d58643dc0fcdc5c27abf4dd3442cf9f737e19dfcb6c03f8c407e5558f08cf98b"
    )

    def golden_bytes(self) -> bytes:
        return (
            protocol.encode_ingest([3, 1, 4], [2, -1, 7],
                                   client_id="edge-1", seq=9)
            + protocol.encode_query("countmin")
            + protocol.encode_ingest_ack(12345678901234, 9,
                                         duplicate=True)
            + protocol.encode_hello("edge-1")
            + protocol.encode_hello_ack(9, 12345678901234)
            + protocol.encode_error("bad_frame", "nope")
        )

    def test_header_layout(self):
        raw = protocol.encode_query("ams")
        assert raw[:2] == b"SK"
        assert raw[2] == protocol.PROTOCOL_VERSION == 2
        assert raw[3] == int(FrameType.QUERY) == 3
        assert raw[4:8] == (3).to_bytes(4, "little")
        assert raw[8:] == b"ams"
        assert HEADER_SIZE == 8

    def test_golden_frame_hash(self):
        digest = hashlib.sha256(self.golden_bytes()).hexdigest()
        assert digest == self.GOLDEN_SHA256, (
            "the wire layout changed; bump PROTOCOL_VERSION and "
            "re-pin this digest"
        )

    def test_golden_frames_decode(self):
        dec = FrameDecoder()
        frames = dec.feed(self.golden_bytes())
        assert [f.type for f in frames] == [
            FrameType.INGEST, FrameType.QUERY, FrameType.INGEST_ACK,
            FrameType.HELLO, FrameType.HELLO_ACK, FrameType.ERROR,
        ]
        items, deltas, cid, seq = protocol.decode_ingest(frames[0].payload)
        assert items.tolist() == [3, 1, 4]
        assert deltas.tolist() == [2, -1, 7]
        assert (cid, seq) == ("edge-1", 9)
        assert protocol.decode_ingest_ack(frames[2].payload) == (
            12345678901234, 9, True)
        assert protocol.decode_hello(frames[3].payload) == "edge-1"
        assert protocol.decode_hello_ack(frames[4].payload) == (
            9, 12345678901234)


class TestJsonSafe:
    def test_numpy_and_container_mapping(self):
        out = protocol.json_safe({
            "scalar": np.int64(7),
            "arr": np.arange(3),
            "set": {np.int64(2), np.int64(1)},
            "tup": (1, 2),
            3: "int-key",
        })
        assert out == {"scalar": 7, "arr": [0, 1, 2], "set": [1, 2],
                       "tup": [1, 2], "3": "int-key"}

    def test_unencodable_raises(self):
        with pytest.raises(TypeError, match="no JSON form"):
            protocol.json_safe(object())


def test_frame_dataclass_is_frozen():
    frame = Frame(FrameType.QUERY, b"x")
    with pytest.raises(AttributeError):
        frame.payload = b"y"
