"""Delivery semantics of the hardened service tier (PR 9).

Four contracts under test, each stated as an invariant:

* **Exactly-once ingest** — a stamped ``(client_id, seq)`` frame is
  applied iff ``seq == watermark + 1``; at-or-below the watermark it is
  acked as a duplicate with nothing applied; past it the server raises
  a typed ``seq_gap``.  A frame *refused by validation* consumes its
  sequence number (the refusal is deterministic, so a retry can only
  fail the same way), while a frame *shed under load* does not (the
  retry is the whole point).
* **Conservation** — every INGEST frame the service sees lands in
  exactly one of ``applied``, ``duplicates``, ``refused``, ``shed``:
  ``frames_total == applied + duplicates + refused + shed``, asserted
  against a live ``/metrics`` scrape.
* **Idempotency-gated retries** — the HTTP client replays a request
  that may have reached the server only when replaying is harmless;
  connection *setup* failures retry for every verb.
* **Durability** — a service built over a checkpoint directory
  recovers its sessions (dedup watermarks included) after a crash, and
  a stamped client resuming against the recovered server drives the
  state bit-identical (``payload_equal``) to an uninterrupted run.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.serialize import payload_equal
from repro.api.session import SequenceGapError, StreamSession
from repro.service import (
    AsyncSessionClient,
    MetricsRegistry,
    ProtocolError,
    RetryPolicy,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    ServiceMetrics,
    SketchService,
    protocol,
)
from repro.service.server import ServiceError
from repro.streams.io import payload_from_bytes

from tests.test_service_endtoend import (
    LINEAR,
    N,
    SEED,
    make_updates,
    mirror_session,
    scrape,
    served_session,
)

#: Retry tuning for tests: fast, deterministic, bounded.
FAST = RetryPolicy(attempts=3, base_delay=0.005, max_delay=0.02,
                   jitter=0.0, seed=0)


def fresh_service(**kw):
    return SketchService(ServiceMetrics(MetricsRegistry()), **kw)


def stamped(items, deltas, client_id, seq):
    return protocol.encode_ingest(items, deltas,
                                  client_id=client_id, seq=seq)


class TestRetryPolicy:
    def test_delay_doubles_then_caps(self):
        p = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        rng = p.rng()
        assert [p.delay(a, rng) for a in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.4, 0.5]

    def test_jitter_stays_within_fraction_and_is_seeded(self):
        p = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5, seed=7)
        a = [p.delay(k, p.rng()) for k in range(1, 6)]
        b = [p.delay(k, p.rng()) for k in range(1, 6)]
        assert a == b, "seeded jitter must replay"
        for attempt, got in enumerate(a, start=1):
            base = min(10.0, 0.1 * 2 ** (attempt - 1))
            assert 0.5 * base <= got <= 1.5 * base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestSessionExactlyOnce:
    """The dedup watermark at its source: ``StreamSession.push_once``."""

    def test_apply_duplicate_gap(self):
        s = StreamSession(N, seed=SEED).track("frequency_vector")
        assert s.push_once("c", 1, [1, 2], [1, 1]) is True
        assert s.push_once("c", 1, [1, 2], [1, 1]) is False  # duplicate
        assert s.updates_processed == 2
        with pytest.raises(SequenceGapError) as err:
            s.push_once("c", 3, [3], [1])
        assert err.value.expected == 2 and err.value.got == 3
        assert s.ingest_watermark("c") == 1
        assert s.ingest_watermark("never-seen") == 0

    def test_refusal_consumes_the_sequence_number(self):
        s = StreamSession(N, seed=SEED).track("frequency_vector")
        with pytest.raises(ValueError):
            s.push_once("c", 1, [N + 5], [1])  # out of universe
        # The refusal was deterministic: the seq is burned, a retry of
        # it is a duplicate, and the stream continues at seq 2.
        assert s.ingest_watermark("c") == 1
        assert s.push_once("c", 1, [N + 5], [1]) is False
        assert s.push_once("c", 2, [4], [1]) is True
        assert s.updates_processed == 1

    def test_watermarks_survive_snapshot_and_merge_unions(self):
        a = StreamSession(N, seed=SEED, node=0).track("frequency_vector")
        b = StreamSession(N, seed=SEED, node=1).track("frequency_vector")
        a.push_once("east", 1, [1], [1])
        b.push_once("east", 1, [2], [1])
        b.push_once("east", 2, [3], [1])
        b.push_once("west", 1, [4], [1])
        restored = StreamSession.restore(b.snapshot())
        assert restored.ingest_watermarks == {"east": 2, "west": 1}
        a.merge(b)
        assert a.ingest_watermarks == {"east": 2, "west": 1}


class TestServiceExactlyOnce:
    """The same contract at the transport-agnostic service layer."""

    def ingest(self, service, name, frame_bytes):
        frame = protocol.FrameDecoder().feed(frame_bytes)[0]
        return service.ingest(name, frame.payload)

    def test_duplicate_acked_idempotently(self):
        service = fresh_service()
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        out1 = self.ingest(service, "s", stamped([1, 2], [1, 1], "c", 1))
        out2 = self.ingest(service, "s", stamped([1, 2], [1, 1], "c", 1))
        assert out1 == {"applied": 2, "seq": 1, "duplicate": False,
                        "client_id": "c"}
        assert out2["duplicate"] is True
        assert service.metrics.ingest_applied.value == 1
        assert service.metrics.ingest_duplicates.value == 1
        assert service.metrics.ingest_updates.value == 2  # not 4

    def test_gap_is_a_typed_409(self):
        service = fresh_service()
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        with pytest.raises(ServiceError) as err:
            self.ingest(service, "s", stamped([1], [1], "c", 5))
        assert err.value.code == "seq_gap"
        assert err.value.status == 409

    def test_hello_reports_the_watermark(self):
        service = fresh_service()
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        assert service.hello("s", "c") == (0, 0)
        self.ingest(service, "s", stamped([1, 2, 3], [1, 1, 1], "c", 1))
        assert service.hello("s", "c") == (1, 3)


class TestGracefulDegradation:
    def test_shedding_refuses_with_busy_and_consumes_no_seq(self):
        service = fresh_service()
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        service.set_shedding(True)
        with pytest.raises(ServiceError) as err:
            service.ingest(
                "s",
                protocol.FrameDecoder().feed(
                    stamped([1], [1], "c", 1))[0].payload,
            )
        assert err.value.code == "busy" and err.value.status == 503
        assert service.metrics.ingest_shed.value == 1
        service.set_shedding(False)
        # The shed frame did not burn seq 1: the retry applies.
        frame = protocol.FrameDecoder().feed(stamped([1], [1], "c", 1))[0]
        out = service.ingest("s", frame.payload)
        assert out["duplicate"] is False and out["applied"] == 1

    def test_deadline_sheds_stale_frames(self):
        now = [100.0]
        service = fresh_service(ingest_deadline=0.5, clock=lambda: now[0])
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        frame = protocol.FrameDecoder().feed(stamped([1], [1], "c", 1))[0]
        # Fresh frame: inside the deadline.
        service.ingest("s", frame.payload, received_at=now[0] - 0.4)
        # Stale frame: waited longer than the deadline in the queue.
        frame2 = protocol.FrameDecoder().feed(stamped([2], [1], "c", 2))[0]
        with pytest.raises(ServiceError) as err:
            service.ingest("s", frame2.payload, received_at=now[0] - 0.6)
        assert err.value.code == "busy"
        assert service.metrics.ingest_shed.value == 1

    def test_shed_endpoint_round_trip(self):
        with ServerThread(fresh_service()) as h, \
                ServiceClient(h.host, h.port, retry=FAST) as client:
            assert client.set_shedding(True) is True
            client.create_session("s", n=N, seed=SEED,
                                  track=["frequency_vector"])
            with pytest.raises(ValueError, match="client_id"):
                client.ingest("s", [1], [1])  # no id here or at init
            with pytest.raises(ServiceClientError) as err:
                client.ingest("s", [1], [1], client_id="c")
            assert err.value.code == "busy" and err.value.status == 503
            assert client.retries_total == FAST.attempts - 1
            assert client.set_shedding(False) is False
            out = client.ingest("s", [1], [1], client_id="c")
            assert out["applied"] == 1 and out["duplicate"] is False


class TestConservationLaw:
    def test_every_frame_lands_in_exactly_one_bucket(self):
        """frames == applied + duplicates + refused + shed, scraped
        live; client-side retries_total mirrors the shed refusals."""
        with ServerThread(fresh_service()) as h, \
                ServiceClient(h.host, h.port, retry=FAST,
                              client_id="edge") as client:
            client.create_session("s", n=N, seed=SEED, track=LINEAR)
            items, deltas = make_updates(600)
            applied = duplicates = refused = shed = 0

            for pos in range(0, 600, 100):
                client.ingest("s", items[pos:pos + 100],
                              deltas[pos:pos + 100])
                applied += 1
            client.ingest("s", items[:50], deltas[:50], seq=3)
            duplicates += 1
            with pytest.raises(ServiceClientError):  # validation refusal
                client.ingest("s", [N + 9], [1])
            refused += 1
            with pytest.raises(ServiceClientError):  # not_found refusal
                client.ingest("ghost", [1], [1])
            refused += 1
            client.set_shedding(True)
            with pytest.raises(ServiceClientError) as err:
                client.ingest("s", items[:10], deltas[:10])
            assert err.value.code == "busy"
            shed += FAST.attempts  # every attempt hit the shed counter
            client.set_shedding(False)

            frames = scrape(client, "repro_ingest_frames_total")
            got_applied = scrape(client, "repro_ingest_applied_total")
            got_dupes = scrape(client, "repro_ingest_duplicates_total")
            got_refused = scrape(client, "repro_ingest_refused_total")
            got_shed = scrape(client, "repro_ingest_shed_total")
            assert got_applied == applied
            assert got_dupes == duplicates
            assert got_refused == refused
            assert got_shed == shed
            assert frames == applied + duplicates + refused + shed
            # Applied updates counted exactly once, duplicates add 0.
            assert scrape(client, "repro_ingest_updates_total") == 600
            assert client.describe()["retries_total"] == \
                client.retries_total == FAST.attempts - 1


#: Batches no session applies.  The frame decoder refuses the last two,
#: so the encoder refuses them before they are stamped; the first
#: passes the decoder and the session refuses it, consuming its seq.
BAD_BATCHES = {
    "out_of_universe": ([N + 5], [1]),
    "zero_delta": ([3], [0]),
    "negative_item": ([-3], [1]),
}


class TestRefusedBatchKeepsTheStream:
    @pytest.mark.parametrize("bad", sorted(BAD_BATCHES))
    @pytest.mark.parametrize("transport", ["http", "ws"])
    def test_next_good_batch_applies(self, transport, bad):
        """A refused batch breaks neither client's stream: the next good
        batch is applied, and the counters still conserve frames."""
        good = [([1], [1]), ([2], [3])]
        expected = (ServiceClientError if bad == "out_of_universe"
                    else ProtocolError)
        with ServerThread(fresh_service()) as h, \
                ServiceClient(h.host, h.port, retry=FAST,
                              client_id="edge") as http:
            http.create_session("s", n=N, seed=SEED,
                                track=["frequency_vector"])
            if transport == "http":
                http.ingest("s", *good[0])
                with pytest.raises(expected) as err:
                    http.ingest("s", *BAD_BATCHES[bad])
                http.ingest("s", *good[1])
            else:
                async def drive():
                    async with AsyncSessionClient(
                            h.host, h.port, "s", client_id="edge",
                            retry=FAST) as ws:
                        await ws.ingest(*good[0])
                        with pytest.raises(expected) as err:
                            await ws.ingest(*BAD_BATCHES[bad])
                        await ws.ingest(*good[1])
                    return err

                err = asyncio.run(drive())
            if expected is ServiceClientError:
                assert err.value.code == "bad_frame"
            assert http.query("s", "frequency_vector") == 4
            applied = scrape(http, "repro_ingest_applied_total")
            assert applied == len(good)
            assert scrape(http, "repro_ingest_frames_total") == (
                applied + scrape(http, "repro_ingest_duplicates_total")
                + scrape(http, "repro_ingest_refused_total")
                + scrape(http, "repro_ingest_shed_total"))


class TestHttpRetryGating:
    def test_unreachable_port_retries_then_raises_typed(self):
        client = ServiceClient("127.0.0.1", 1, retry=FAST)
        with pytest.raises(ServiceClientError) as err:
            client.healthz()
        assert err.value.code == "unreachable"
        assert client.retries_total == FAST.attempts - 1

    def test_idempotent_verbs_survive_a_server_restart(self):
        """Kill the server between requests: the keep-alive socket goes
        stale.  Reads replay transparently; a non-idempotent merge must
        refuse to replay (it cannot know the old server didn't apply
        it) and raise a typed connection error."""
        first = ServerThread(fresh_service()).start()
        host, port = first.host, first.port
        client = ServiceClient(host, port, retry=FAST, client_id="edge")
        try:
            client.create_session("s", n=N, seed=SEED,
                                  track=["frequency_vector"])
            client.ingest("s", [1, 2], [1, 1])
            container = client.snapshot("s")
            first.stop()

            second = ServerThread(fresh_service(), host=host, port=port)
            second.start()
            try:
                second.service.create_session(
                    "s", n=N, seed=SEED, track=["frequency_vector"])
                # Idempotent read: stale socket, transparent replay.
                assert client.info("s")["updates_processed"] == 0
                # Stamped ingest: idempotent by construction, replays.
                out = client.ingest("s", [3], [1], seq=1)
                assert out["applied"] == 1
                second.stop()
                # The keep-alive socket to the stopped server is now
                # dead mid-conversation: a non-idempotent merge must
                # surface a typed failure instead of replaying blind.
                with pytest.raises(ServiceClientError) as err:
                    client.merge("s", container)
                assert err.value.code in ("connection", "unreachable")
            finally:
                second.stop()
        finally:
            first.stop()
            client.close()


class TestDurableService:
    TRACK = LINEAR + ["csss"]

    def batches(self, m=1200, per=300, client_id="edge"):
        items, deltas = make_updates(m)
        return [
            (client_id, seq, items[pos:pos + per], deltas[pos:pos + per])
            for seq, pos in enumerate(range(0, m, per), start=1)
        ]

    def drive(self, service, batches):
        for client_id, seq, items, deltas in batches:
            payload = protocol.FrameDecoder().feed(
                stamped(items, deltas, client_id, seq))[0].payload
            service.ingest("s", payload)

    def test_clean_shutdown_recovers_everything(self, tmp_path):
        service = fresh_service(checkpoint_dir=tmp_path,
                                checkpoint_every_updates=10 ** 9)
        service.create_session("s", n=N, seed=SEED, track=self.TRACK)
        batches = self.batches()
        self.drive(service, batches)
        service.shutdown()  # final checkpoint

        reg = MetricsRegistry()
        recovered = SketchService(ServiceMetrics(reg),
                                  checkpoint_dir=tmp_path)
        assert recovered.metrics.recovered_sessions.value == 1
        session = recovered.get("s")
        assert session.ingest_watermark("edge") == len(batches)
        mirror = mirror_session(self.TRACK, batches)
        mirror.flush()
        session.flush()
        assert payload_equal(session.snapshot(), mirror.snapshot())
        recovered.shutdown()

    def test_crash_rewinds_and_resume_is_bit_identical(self, tmp_path):
        """Kill the service with un-checkpointed tail state; the
        recovered watermark legally rewinds, and a client resending
        from it converges to the uninterrupted state bit-for-bit."""
        service = fresh_service(checkpoint_dir=tmp_path,
                                checkpoint_every_updates=500)
        service.create_session("s", n=N, seed=SEED, track=self.TRACK)
        batches = self.batches(m=1500)    # 5 × 300 updates
        self.drive(service, batches)
        # Crash: no final checkpoint; the durable prefix ends at the
        # last threshold crossing (1200 updates = seq 4), so seq 5 is
        # acked but lost — exactly the window HELLO resend covers.
        service.shutdown(final_checkpoint=False)

        recovered = fresh_service(checkpoint_dir=tmp_path)
        session = recovered.get("s")
        watermark = session.ingest_watermark("edge")
        assert 0 < watermark < len(batches), "crash lost the tail"
        # The resuming client learns the watermark (HELLO semantics)
        # and resends everything past it.
        assert recovered.hello("s", "edge")[0] == watermark
        self.drive(recovered, batches[watermark:])
        mirror = mirror_session(self.TRACK, batches)
        mirror.flush()
        recovered.get("s").flush()
        assert payload_equal(recovered.get("s").snapshot(),
                             mirror.snapshot())
        recovered.shutdown()

    def test_empty_session_survives_a_crash(self, tmp_path):
        service = fresh_service(checkpoint_dir=tmp_path)
        service.create_session("empty", n=N, seed=SEED,
                               track=["frequency_vector"])
        service.shutdown(final_checkpoint=False)
        recovered = fresh_service(checkpoint_dir=tmp_path)
        assert recovered.info("empty")["updates_processed"] == 0
        recovered.shutdown()

    def test_delete_session_removes_its_checkpoints(self, tmp_path):
        service = fresh_service(checkpoint_dir=tmp_path)
        service.create_session("s", n=N, seed=SEED,
                               track=["frequency_vector"])
        assert (tmp_path / "s").is_dir()
        service.delete_session("s")
        assert not (tmp_path / "s").exists()
        recovered = fresh_service(checkpoint_dir=tmp_path)
        assert recovered.list_sessions() == []
        recovered.shutdown()
        service.shutdown()

    def test_served_restart_is_invisible_to_a_stamped_client(
            self, tmp_path):
        """The client's-eye view: ingest over WebSocket, the server
        restarts (clean stop + fresh process-equivalent on the same
        port and directory), the client keeps ingesting — the final
        state equals an uninterrupted offline run, bit for bit."""
        items, deltas = make_updates(2000)
        batches = [(items[p:p + 200], deltas[p:p + 200])
                   for p in range(0, 2000, 200)]
        first = ServerThread(
            fresh_service(checkpoint_dir=tmp_path)).start()
        host, port = first.host, first.port
        client = AsyncSessionClient(host, port, "s", client_id="edge",
                                    retry=RetryPolicy(
                                        attempts=8, base_delay=0.01,
                                        max_delay=0.1, seed=1),
                                    timeout=5.0)
        with ServiceClient(host, port) as http:
            http.create_session("s", n=N, seed=SEED, track=self.TRACK)

        async def phase_one():
            total = await client.ingest_many(batches[:5])
            await client.close()
            return total

        assert asyncio.run(phase_one()) == 1000
        first.stop()

        second = ServerThread(fresh_service(checkpoint_dir=tmp_path),
                              host=host, port=port).start()
        try:
            assert second.service.metrics.recovered_sessions.value == 1
            async def phase_two():
                total = await client.ingest_many(batches[5:])
                await client.close()
                return total

            assert asyncio.run(phase_two()) == 2000
            with ServiceClient(host, port) as http:
                restored = served_session(http, "s")
            stamps = [("edge", seq, it, dl)
                      for seq, (it, dl) in enumerate(batches, start=1)]
            mirror = mirror_session(self.TRACK, stamps)
            mirror.flush()
            assert payload_equal(restored.snapshot(), mirror.snapshot())
        finally:
            second.stop()
