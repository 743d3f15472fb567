"""End-to-end tests of the sketch service: the network path must be
bit-identical to the offline replay path.

An in-process :class:`~repro.service.server.ServerThread` hosts the
full HTTP + WebSocket surface; clients ingest over the wire and every
test closes the loop by restoring the served snapshot and deep-
comparing its sketch state (``assert_same_state`` from the batch
harness — arrays bit-equal, RNG states equal) against an offline
:class:`~repro.api.session.StreamSession` fed the same updates through
``push_once`` with the same ``(client_id, seq)`` stamps, so the dedup
watermarks in the snapshot match too.

Concurrency strategy: the ℤ-linear consumers (countmin, countsketch,
ams, frequency_vector) are order-insensitive at the state level, so
concurrently interleaved clients and remote merges must land
bit-identical to one offline replay of the concatenation.  Sampling
consumers (csss) are order-*sensitive*, so their bit-identity tests
use one ordered client — any push granularity, by the batch contract.

The metrics conservation law is asserted against a live scrape:
``repro_ingest_frames_total`` equals acked frames plus
``repro_ingest_refused_total``, and every acked frame's updates appear
in ``repro_ingest_updates_total`` exactly once.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.api.serialize import payload_equal
from repro.api.session import StreamSession
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
from repro.streams.io import payload_from_bytes

from tests.test_batch_equivalence import assert_same_state

N = 1 << 10
SEED = 41
LINEAR = ["countmin", "countsketch", "ams", "frequency_vector"]
#: The client id the ``client`` fixture stamps its ingest with.
CLIENT_ID = "probe"


@pytest.fixture()
def server():
    """A fresh service (own metrics registry) on a background loop."""
    service = SketchService(ServiceMetrics(MetricsRegistry()))
    with ServerThread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port, client_id=CLIENT_ID) as c:
        yield c


def make_updates(m, seed=SEED, n=N):
    rng = np.random.default_rng(seed)
    items = rng.integers(0, n, size=m)
    deltas = rng.integers(1, 6, size=m)
    return items, deltas


def offline_session(track, *, node=0, seed=SEED, n=N):
    session = StreamSession(n, seed=seed, node=node)
    for spec in track:
        session.track(spec)
    return session


def stamp(client_id, batches):
    """``(client_id, seq, items, deltas)`` for consecutive batches, the
    stamps a client assigns them (seq from 1)."""
    return [(client_id, seq, items, deltas)
            for seq, (items, deltas) in enumerate(batches, start=1)]


def mirror_session(track, stamped_batches, **kw):
    """The offline reference for a stamped stream: same updates pushed
    through ``push_once`` with the same stamps, so the dedup watermarks
    land in the snapshot meta identically."""
    session = offline_session(track, **kw)
    for client_id, seq, items, deltas in stamped_batches:
        session.push_once(client_id, seq, items, deltas)
    return session


def served_session(client, name):
    """The server's live state, restored locally from its snapshot."""
    return StreamSession.restore(payload_from_bytes(client.snapshot(name)))


def assert_served_matches(restored, offline, specs):
    """Deep bit-identity between a served session and the offline
    reference (the reference's partial buffer flushed first, like the
    snapshot path flushes the served one)."""
    offline.flush()
    for spec in specs:
        assert_same_state(restored[spec], offline[spec])


def assert_matches_single_replay(restored, single):
    """A *merged* served session against one offline replay of the
    concatenated stream: every linear consumer's whole state must be
    bit-identical (tables add; order is unobservable)."""
    single.flush()
    for spec in LINEAR:
        assert_same_state(restored[spec], single[spec])


def scrape(client, metric):
    for line in client.metrics().splitlines():
        if line.startswith(f"{metric} ") or line.startswith(f"{metric}{{"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {metric} not exposed")


class TestHttpPath:
    def test_ordered_ingest_is_bit_identical_offline(self, client):
        """One ordered client, a sampling consumer included: whatever
        batch sizes the wire delivers, the served state equals one
        offline replay (chunk boundaries are unobservable)."""
        track = LINEAR + ["csss"]
        client.create_session("edge", n=N, seed=SEED, track=track)
        items, deltas = make_updates(4000)
        batches = [(items[lo:hi], deltas[lo:hi])
                   for lo, hi in [(0, 1), (1, 38), (38, 1500), (1500, 4000)]]
        for batch in batches:
            client.ingest("edge", *batch)
        offline = mirror_session(track, stamp(CLIENT_ID, batches))
        restored = served_session(client, "edge")
        assert_served_matches(restored, offline, track)
        assert payload_equal(restored.snapshot(), offline.snapshot())
        assert restored.updates_processed == offline.updates_processed

    def test_mid_stream_query_does_not_perturb(self, client):
        """A query flushes the partial buffer; that moves a chunk
        boundary, which the batch contract makes unobservable — the
        final state still equals the uninterrupted offline replay."""
        track = LINEAR + ["csss"]
        client.create_session("edge", n=N, seed=SEED, track=track)
        items, deltas = make_updates(3000)
        client.ingest("edge", items[:1700], deltas[:1700])
        mid = client.query("edge", "frequency_vector")
        assert mid == int(deltas[:1700].sum())
        client.ingest("edge", items[1700:], deltas[1700:])
        offline = mirror_session(track, stamp(CLIENT_ID, [
            (items[:1700], deltas[:1700]), (items[1700:], deltas[1700:])]))
        restored = served_session(client, "edge")
        assert_served_matches(restored, offline, track)
        assert client.query("edge", "frequency_vector") == int(deltas.sum())

    def test_concurrent_clients_linear_battery(self, client, server):
        """Eight threads interleave ingest frames into one session;
        the ℤ-linear battery is order-insensitive, so the result is
        bit-identical to one offline replay of the concatenation."""
        client.create_session("edge", n=N, seed=SEED, track=LINEAR)
        items, deltas = make_updates(8000)
        shards = [[(items[i::8][pos:pos + 100], deltas[i::8][pos:pos + 100])
                   for pos in range(0, 1000, 100)] for i in range(8)]
        errors = []

        def work(i):
            try:
                with ServiceClient(server.host, server.port,
                                   client_id=f"shard-{i}") as mine:
                    for seq, batch in enumerate(shards[i], start=1):
                        mine.ingest("edge", *batch)
                        if seq == 4:
                            mine.query("edge", "frequency_vector")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        offline = mirror_session(LINEAR, [
            s for i in range(8) for s in stamp(f"shard-{i}", shards[i])])
        restored = served_session(client, "edge")
        assert_served_matches(restored, offline, LINEAR)
        assert restored.updates_processed == len(items)

    def test_remote_merge_mirrors_local_merge(self, client):
        """Snapshot one session over the wire, POST it into another:
        the result is bit-identical to the same merge done locally
        (sampling consumer included — distinct node indices)."""
        track = LINEAR + ["csss"]
        client.create_session("a", n=N, seed=SEED, node=0, track=track)
        client.create_session("b", n=N, seed=SEED, node=1, track=track)
        items, deltas = make_updates(5000)
        client.ingest("a", items[:2500], deltas[:2500])
        client.ingest("b", items[2500:], deltas[2500:])
        merged = client.merge("a", client.snapshot("b"))
        assert merged["updates_processed"] == len(items)

        local_a = mirror_session(
            track, [(CLIENT_ID, 1, items[:2500], deltas[:2500])], node=0)
        local_b = mirror_session(
            track, [(CLIENT_ID, 1, items[2500:], deltas[2500:])], node=1)
        local_a.merge(local_b)
        restored = served_session(client, "a")
        assert_served_matches(restored, local_a, track)
        # For the linear battery the merged state also equals one
        # offline replay of the whole stream — the acceptance bar.
        single = offline_session(LINEAR).push(items, deltas)
        assert_matches_single_replay(restored, single)

    def test_session_lifecycle_and_errors(self, client):
        client.create_session("s", n=N, track=["countmin"])
        with pytest.raises(ServiceClientError) as err:
            client.create_session("s", n=N)
        assert err.value.status == 409
        with pytest.raises(ServiceClientError) as err:
            client.info("ghost")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            client.query("s", "nope")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError):
            client.create_session("bad/name", n=N)
        assert [s["name"] for s in client.sessions()] == ["s"]
        client.delete_session("s")
        assert client.sessions() == []

    def test_healthz_and_metrics_exposed(self, client):
        assert client.healthz()
        text = client.metrics()
        assert "# TYPE repro_ingest_frames_total counter" in text
        assert "# TYPE repro_flush_latency_seconds histogram" in text
        assert "repro_sessions 0" in text


class TestWebSocketPath:
    def test_ws_ingest_query_merge_bit_identity(self, server, client):
        track = LINEAR + ["csss"]
        client.create_session("edge", n=N, seed=SEED, track=track)
        items, deltas = make_updates(3000)

        batches = [(items[:1000], deltas[:1000])] + [
            (items[pos:pos + 250], deltas[pos:pos + 250])
            for pos in range(1000, 3000, 250)]

        async def drive():
            async with AsyncSessionClient(server.host, server.port, "edge",
                                          client_id=CLIENT_ID) as ws:
                wm = await ws.ingest(*batches[0])
                assert wm == 1000
                value = await ws.query("frequency_vector")
                assert value == int(deltas[:1000].sum())
                return await ws.ingest_many(batches[1:])

        assert asyncio.run(drive()) == 3000
        offline = mirror_session(track, stamp(CLIENT_ID, batches))
        restored = served_session(client, "edge")
        assert_served_matches(restored, offline, track)

    def test_ws_concurrent_clients(self, server, client):
        """Concurrent WebSocket writers interleaving frames: linear
        battery lands bit-identical to the offline concatenation."""
        client.create_session("edge", n=N, seed=SEED, track=LINEAR)
        items, deltas = make_updates(6000)
        shards = [[(items[i::6][pos:pos + 200], deltas[i::6][pos:pos + 200])
                   for pos in range(0, 1000, 200)] for i in range(6)]

        async def one(i):
            async with AsyncSessionClient(server.host, server.port, "edge",
                                          client_id=f"ws-{i}") as ws:
                for batch in shards[i]:
                    await ws.ingest(*batch)

        async def drive():
            await asyncio.gather(*(one(i) for i in range(6)))

        asyncio.run(drive())
        offline = mirror_session(LINEAR, [
            s for i in range(6) for s in stamp(f"ws-{i}", shards[i])])
        restored = served_session(client, "edge")
        assert_served_matches(restored, offline, LINEAR)

    def test_ws_merge_frame(self, server, client):
        client.create_session("a", n=N, seed=SEED, node=0, track=LINEAR)
        client.create_session("b", n=N, seed=SEED, node=1, track=LINEAR)
        items, deltas = make_updates(2000)
        client.ingest("b", items[1000:], deltas[1000:])
        container = client.snapshot("b")

        async def drive():
            async with AsyncSessionClient(server.host, server.port, "a",
                                          client_id="ws") as ws:
                await ws.ingest(items[:1000], deltas[:1000])
                return await ws.merge(container)

        assert asyncio.run(drive()) == 2000
        restored = served_session(client, "a")
        local_a = mirror_session(
            LINEAR, [("ws", 1, items[:1000], deltas[:1000])], node=0)
        local_b = mirror_session(
            LINEAR, [(CLIENT_ID, 1, items[1000:], deltas[1000:])], node=1)
        local_a.merge(local_b)
        assert_served_matches(restored, local_a, LINEAR)
        single = offline_session(LINEAR).push(items, deltas)
        assert_matches_single_replay(restored, single)

    def test_ws_unknown_session_refused_at_upgrade(self, server):
        async def drive():
            with pytest.raises(ServiceClientError) as err:
                async with AsyncSessionClient(server.host, server.port,
                                              "ghost", client_id=CLIENT_ID):
                    pass
            assert "404" in str(err.value)

        asyncio.run(drive())


class TestMetricsConservation:
    def test_frames_in_equals_applied_plus_refused(self, server, client):
        """The ingest counters form a conservation law: every frame
        the service sees is acked or refused, never both, never
        neither — and acked updates are counted exactly once."""
        client.create_session("edge", n=N, seed=SEED, track=LINEAR)
        items, deltas = make_updates(1200)
        acked_frames = 0
        acked_updates = 0
        for pos in range(0, 1200, 100):
            client.ingest("edge", items[pos:pos + 100],
                          deltas[pos:pos + 100])
            acked_frames += 1
            acked_updates += 100
        refused = 0
        # Out-of-universe items pass frame validation but are refused
        # by the session's push (untrusted-input rule lives server-side).
        with pytest.raises(ServiceClientError):
            client.ingest("edge", [N + 7], [1])
        refused += 1
        # A structurally corrupt INGEST frame: declared count does not
        # match the payload length.
        good = protocol.encode_ingest([1], [1], client_id="old", seq=1)
        bad = protocol.encode_frame(
            protocol.FrameType.INGEST,
            good[protocol.HEADER_SIZE:] + b"\x00" * 8)
        # A v1 header is refused from the header alone, like any
        # foreign version.
        v1 = bytearray(good)
        v1[2] = 1
        # The last is not a frame at all.
        for raw in (bad, bytes(v1), b"\x00garbage"):
            with pytest.raises(ServiceClientError) as err:
                client._request("POST", "/v1/sessions/edge/ingest", raw,
                                content_type="application/octet-stream")
            assert err.value.code == "bad_frame"
            refused += 1

        frames = scrape(client, "repro_ingest_frames_total")
        updates = scrape(client, "repro_ingest_updates_total")
        refused_metric = scrape(client, "repro_ingest_refused_total")
        assert frames == acked_frames + refused
        assert refused_metric == refused
        assert updates == acked_updates
        # The session saw exactly the acked updates.
        assert client.info("edge")["updates_processed"] == acked_updates

    def test_latency_histograms_populate(self, client):
        client.create_session("edge", n=N, seed=SEED,
                              track=["frequency_vector"])
        items, deltas = make_updates(500)
        client.ingest("edge", items, deltas)
        client.query("edge", "frequency_vector")
        text = client.metrics()
        assert ('repro_query_latency_seconds_count'
                '{spec="frequency_vector"} 1') in text
        flush_counts = [
            line for line in text.splitlines()
            if line.startswith("repro_flush_latency_seconds_count")
        ]
        assert flush_counts and float(
            flush_counts[0].rsplit(" ", 1)[1]) >= 1

    def test_pending_and_session_gauges_track_state(self, client):
        client.create_session("edge", n=N, seed=SEED, track=["countmin"],
                              chunk_size=4096)
        assert scrape(client, "repro_sessions") == 1
        client.ingest("edge", [1, 2, 3], [1, 1, 1])
        assert scrape(client, "repro_pending_updates") == 3
        client.flush("edge")
        assert scrape(client, "repro_pending_updates") == 0
