"""Chaos soak: served state must be bit-identical under network faults.

The acceptance bar of the reliability layer, enforced mechanically:
a stamped client drives a stream through a :class:`ChaosProxy` that
drops, duplicates, delays, truncates, and re-fragments frames on a
seeded schedule — and for **every** schedule the served session must
end ``payload_equal`` to an offline mirror fed the same stamped
batches.  Not approximately right under faults; *bit-identical* under
faults.  The metrics conservation law
(``frames == applied + duplicates + refused + shed``) is asserted on
the same runs, with the chaos-injected duplicates landing in the
duplicates bucket.

Seeds: the fixed matrix comes from ``REPRO_CHAOS_SEEDS`` (comma-
separated, default "7"), so CI can widen it without editing the file;
one extra test draws a fresh random seed each run and logs it, so a
failure is reproducible by adding the printed seed to the env var.

The kill harness at the bottom extends ``tests/_checkpoint_child.py``:
the server itself is SIGKILLed mid-stream under concurrent client
load, restarted on the same checkpoint directory, and the resumed
clients must drive every session to the uninterrupted state.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.serialize import payload_equal
from repro.service import (
    MetricsRegistry,
    RetryPolicy,
    ServerThread,
    ServiceClient,
    ServiceClientError,
    ServiceMetrics,
    SketchService,
)
from repro.service.client import AsyncSessionClient
from repro.service.testing import ChaosProxy, FaultPlan, FaultSchedule

from tests.test_service_endtoend import (
    LINEAR,
    N,
    SEED,
    make_updates,
    mirror_session,
    scrape,
    served_session,
)

import _service_child as child

TRACK = LINEAR + ["csss"]

#: The fault matrix. Each entry is one hostile-network personality;
#: every one of them must preserve bit-identity.
SCHEDULES = {
    "drop_c2s": dict(drop=0.2, directions=("c2s",)),
    "drop_acks": dict(drop=0.2, directions=("s2c",)),
    "duplicates": dict(duplicate=0.2),
    "conn_killer": dict(truncate=0.06),
    "resplit_delay": dict(resplit=0.3, delay=0.4, max_delay=0.003),
    "mayhem": dict(drop=0.08, duplicate=0.08, truncate=0.03,
                   resplit=0.08, delay=0.2, max_delay=0.003),
}


def chaos_seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "7")
    return [int(s) for s in raw.split(",") if s.strip()]


def run_soak(schedule, *, batches=30, per=60, client_id="chaos"):
    """One full soak: stamped stream through the proxy, then the hard
    gate — served state ``payload_equal`` to the offline mirror."""
    service = SketchService(ServiceMetrics(MetricsRegistry()))
    m = batches * per
    items, deltas = make_updates(m)
    batch_list = [(items[p:p + per], deltas[p:p + per])
                  for p in range(0, m, per)]
    with ServerThread(service) as handle:
        with ServiceClient(handle.host, handle.port) as http:
            http.create_session("edge", n=N, seed=SEED, track=TRACK)

        async def drive():
            async with ChaosProxy(handle.host, handle.port,
                                  schedule) as proxy:
                client = AsyncSessionClient(
                    proxy.host, proxy.port, "edge", client_id=client_id,
                    retry=RetryPolicy(attempts=12, base_delay=0.01,
                                      max_delay=0.1, seed=schedule.seed),
                    timeout=0.5,
                )
                try:
                    total = await client.ingest_many(batch_list)
                finally:
                    await client.close()
                return total, list(proxy.fault_log), client.retries_total

        total, faults, retries = asyncio.run(drive())
        assert total == m, "the stream must fully land despite the chaos"

        with ServiceClient(handle.host, handle.port) as http:
            restored = served_session(http, "edge")
            frames = scrape(http, "repro_ingest_frames_total")
            applied = scrape(http, "repro_ingest_applied_total")
            dupes = scrape(http, "repro_ingest_duplicates_total")
            refused = scrape(http, "repro_ingest_refused_total")
            shed = scrape(http, "repro_ingest_shed_total")
        # Conservation: every frame in exactly one bucket.  Dropped
        # c2s frames surface as seq_gap refusals of their successors;
        # chaos duplicates and client resends land in duplicates; but
        # each batch is *applied* exactly once, so the update count is
        # exact.
        assert frames == applied + dupes + refused + shed
        assert applied == batches, "each batch applied exactly once"
        assert shed == 0
        assert scrape_updates_equal(service, m)

        stamps = [(client_id, seq, it, dl)
                  for seq, (it, dl) in enumerate(batch_list, start=1)]
        mirror = mirror_session(TRACK, stamps)
        mirror.flush()
        assert payload_equal(restored.snapshot(), mirror.snapshot()), (
            f"served state diverged under faults {faults!r}"
        )
        return faults, retries, dupes


def scrape_updates_equal(service, m):
    return service.metrics.ingest_updates.value == m


class TestFaultSchedule:
    def test_decisions_are_pure_functions_of_seed(self):
        a = FaultSchedule(3, drop=0.3, duplicate=0.2, delay=0.5)
        b = FaultSchedule(3, drop=0.3, duplicate=0.2, delay=0.5)
        plans_a = [a.plan("c2s", i) for i in range(200)]
        plans_b = [b.plan("c2s", i) for i in range(200)]
        assert plans_a == plans_b
        assert any(p.action == "drop" for p in plans_a)
        assert any(p.action == "duplicate" for p in plans_a)
        assert all(isinstance(p, FaultPlan) for p in plans_a)

    def test_directions_filter(self):
        s = FaultSchedule(1, drop=1.0, directions=("c2s",))
        assert s.plan("s2c", 0).action == "pass"
        assert s.plan("c2s", 0).action == "drop"

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(0, drop=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(0, drop=0.6, duplicate=0.6)
        with pytest.raises(ValueError):
            FaultSchedule(0, directions=("sideways",))

    def test_seeds_differ(self):
        a = [FaultSchedule(1, drop=0.5).plan("c2s", i).action
             for i in range(64)]
        b = [FaultSchedule(2, drop=0.5).plan("c2s", i).action
             for i in range(64)]
        assert a != b


class TestProxyTransparency:
    def test_faultless_proxy_is_invisible(self):
        """With all probabilities at zero the proxy must not perturb
        anything — HTTP tunnels and WS streams both round-trip."""
        service = SketchService(ServiceMetrics(MetricsRegistry()))
        items, deltas = make_updates(500)
        with ServerThread(service) as handle:
            def through_proxy(host, port):
                # The sync client must not block the loop the proxy
                # lives on — hence the thread.
                with ServiceClient(host, port) as http:
                    http.create_session("edge", n=N, seed=SEED,
                                        track=TRACK)
                    assert http.healthz()

            async def drive():
                async with ChaosProxy(handle.host, handle.port,
                                      FaultSchedule(0)) as proxy:
                    await asyncio.to_thread(through_proxy,
                                            proxy.host, proxy.port)
                    ws = AsyncSessionClient(proxy.host, proxy.port,
                                            "edge", client_id="c")
                    async with ws:
                        total = await ws.ingest_many(
                            [(items[:250], deltas[:250]),
                             (items[250:], deltas[250:])])
                    assert total == 500
                    assert proxy.fault_log == []

            asyncio.run(drive())
            with ServiceClient(handle.host, handle.port) as http:
                restored = served_session(http, "edge")
            mirror = mirror_session(
                TRACK, [("c", 1, items[:250], deltas[:250]),
                        ("c", 2, items[250:], deltas[250:])])
            mirror.flush()
            assert payload_equal(restored.snapshot(), mirror.snapshot())


@pytest.mark.parametrize("seed", chaos_seeds())
@pytest.mark.parametrize("name", sorted(SCHEDULES))
class TestChaosSoak:
    def test_bit_identity_survives(self, name, seed):
        faults, retries, dupes = run_soak(
            FaultSchedule(seed, **SCHEDULES[name]))
        if name != "resplit_delay":
            # Every lossy personality must actually have injected
            # faults for the run to mean anything.  (Cumulative acks
            # mean retries are not *guaranteed* — a dropped ack is
            # healed by any later one — so bit-identity plus a
            # non-empty fault log is the assertion, not retry counts.)
            assert faults, f"schedule {name!r} injected nothing"


class TestRandomizedSoak:
    def test_fresh_seed_every_run(self, capsys):
        """One randomized-schedule run per invocation; the seed is
        printed so a CI failure is replayable by adding it to
        REPRO_CHAOS_SEEDS."""
        seed = int.from_bytes(os.urandom(4), "big")
        with capsys.disabled():
            print(f"\n[chaos] randomized soak seed={seed} "
                  f"(replay: REPRO_CHAOS_SEEDS={seed})", flush=True)
        run_soak(FaultSchedule(seed, **SCHEDULES["mayhem"]))


# -- kill the *server* under concurrent load ---------------------------------


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(port, checkpoint_dir):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("_service_child.py")),
         str(port), str(checkpoint_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "READY" in line:
            return proc
        if proc.poll() is not None:
            break
    out, err = proc.communicate()
    raise AssertionError(f"server child never came up: {line!r} {err!r}")


class _ResumingWorker(threading.Thread):
    """One stamped HTTP client driving one session to completion, no
    matter what happens to the server: on any failure it polls for the
    server's watermark (which may have *rewound* past a crash) and
    resumes exactly there."""

    def __init__(self, port, session, batches, pace=0.004):
        super().__init__()
        self.port = port
        self.session = session
        self.batches = batches
        self.pace = pace
        self.progress = 0
        self.error: BaseException | None = None

    def run(self):
        try:
            client = ServiceClient(
                "127.0.0.1", self.port,
                client_id=f"cli-{self.session}",
                retry=RetryPolicy(attempts=1), timeout=10.0,
            )
            seq = 1
            deadline = time.monotonic() + 120.0
            while seq <= len(self.batches):
                if time.monotonic() > deadline:
                    raise AssertionError("worker stalled")
                items, deltas = self.batches[seq - 1]
                try:
                    client.ingest(self.session, items, deltas, seq=seq)
                    self.progress = seq
                    seq += 1
                    time.sleep(self.pace)
                except ServiceClientError:
                    # Server gone (or restarted with a rewound
                    # watermark): wait it out, learn where the stream
                    # stands, resume from there.
                    while time.monotonic() < deadline:
                        try:
                            seq = client.ingest_watermark(
                                self.session) + 1
                            break
                        except ServiceClientError:
                            time.sleep(0.05)
                    else:
                        raise AssertionError("server never came back")
            client.close()
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc


class TestServerKillAndRecover:
    def test_sigkilled_server_resumes_bit_identically(self, tmp_path):
        """SIGKILL the serving process mid-stream under three
        concurrent resuming clients, restart it on the same checkpoint
        directory, and require every session to land payload-equal to
        an offline mirror of its full stamped stream."""
        per, count = 100, 24
        streams = {}
        for k, name in enumerate(child.SESSIONS):
            items, deltas = make_updates(per * count, seed=SEED + k,
                                         n=child.N)
            streams[name] = [
                (items[p:p + per], deltas[p:p + per])
                for p in range(0, per * count, per)
            ]
        port = _free_port()
        proc = _spawn_server(port, tmp_path)
        try:
            workers = [
                _ResumingWorker(port, name, streams[name])
                for name in child.SESSIONS
            ]
            for w in workers:
                w.start()
            # Let every client get past its first durable checkpoint,
            # then kill without ceremony.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if all(w.progress >= count // 3 for w in workers):
                    break
                if any(w.error for w in workers):
                    break
                time.sleep(0.01)
            proc.kill()  # SIGKILL: no flush, no final checkpoint
            proc.wait(timeout=60)

            proc = _spawn_server(port, tmp_path)
            for w in workers:
                w.join(timeout=120.0)
            assert not any(w.is_alive() for w in workers)
            for w in workers:
                assert w.error is None, f"{w.session}: {w.error!r}"

            with ServiceClient("127.0.0.1", port) as http:
                for k, name in enumerate(child.SESSIONS):
                    stamps = [
                        (f"cli-{name}", seq, it, dl)
                        for seq, (it, dl) in enumerate(streams[name],
                                                       start=1)
                    ]
                    mirror = mirror_session(child.TRACK, stamps,
                                            seed=child.SESSION_SEED,
                                            n=child.N)
                    mirror.flush()
                    restored = served_session(http, name)
                    assert payload_equal(restored.snapshot(),
                                         mirror.snapshot()), name
                    assert restored.ingest_watermarks == {
                        f"cli-{name}": count}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
