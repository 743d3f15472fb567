"""Service-tier load generator — the ``service`` section of
``BENCH_throughput.json``.

End-to-end measurement of the network ingest path: one in-process
:class:`~repro.service.server.ServerThread`, N concurrent WebSocket
clients each pushing a contiguous shard of the stream into its *own*
named session (distinct ``node`` indices, the distributed-sibling
setup) as stamped, exactly-once frames, pipelined so the wire — not
ack round-trips — is the bottleneck.  After ingest, the sibling
sessions are folded into session 0 over the wire (snapshot container +
merge endpoint), the aggregate is snapshotted back out, and the
restored state is compared **bit-identically** against an offline
mirror: local sibling sessions fed the same shards through
``push_once`` with the same stamps and merged in the same order.  The
batch contract end to end — HTTP, frames, WebSocket messages, and
merges in the middle change nothing.

Recorded, as the median and the best of :data:`RUNS` runs:
end-to-end updates/sec (wall clock from first frame to last ack, all
clients) and its ratio to the offline replay rate for the same
battery, timed in the same run; plus the median per-client and offline
rates.  Every run is hard-gated on bit-identity.

Run as a script to update the artifact in place::

    PYTHONPATH=src python benchmarks/bench_service.py

``--smoke`` runs a tiny stream once, writes nothing, and hard-fails
unless the served state is bit-identical — the CI gate.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.api.serialize import payload_equal
from repro.api.session import StreamSession
from repro.service import (
    AsyncSessionClient,
    MetricsRegistry,
    RetryPolicy,
    ServerThread,
    ServiceClient,
    ServiceMetrics,
    SketchService,
)
from repro.service.testing import ChaosProxy, FaultSchedule
from repro.streams.io import payload_from_bytes

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

N_UNIVERSE = 1 << 14
BATTERY = ("countsketch", "countmin", "frequency_vector")
CLIENTS = 4
M = 400_000
PUSH = 4096
SEED = 0xBDE5
SMOKE_M = 8_000
RUNS = 5

FAULT_RATES = (0.0, 0.01, 0.05)
FAULT_M = 100_000
FAULT_PUSH = 512  # ~200 frames/run, so the 1% drop rate actually fires
SMOKE_FAULT_M = 4_000


def make_stream(m: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED)
    items = rng.integers(0, N_UNIVERSE, size=m)
    deltas = rng.integers(1, 6, size=m)
    return items, deltas


def offline_session(node: int) -> StreamSession:
    session = StreamSession(N_UNIVERSE, seed=SEED & 0xFFFF, node=node)
    for spec in BATTERY:
        session.track(spec)
    return session


def shard_batches(items: np.ndarray, deltas: np.ndarray, clients: int,
                  push: int) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Client ``i``'s batches: its contiguous shard cut into pushes."""
    bounds = np.linspace(0, len(items), clients + 1).astype(int)
    return [[(items[pos:min(pos + push, hi)],
              deltas[pos:min(pos + push, hi)])
             for pos in range(lo, hi, push)]
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def mirror_snapshot(shards) -> dict:
    """The offline mirror of :func:`serve_once`: sibling sessions fed
    the same shards through ``push_once`` with the same stamps, on the
    same nodes, merged in the same order."""
    siblings = []
    for i, batches in enumerate(shards):
        sibling = offline_session(i)
        for seq, (b_items, b_deltas) in enumerate(batches, start=1):
            sibling.push_once(f"load_{i}", seq, b_items, b_deltas)
        siblings.append(sibling)
    for sibling in siblings[1:]:
        siblings[0].merge(sibling)
    return siblings[0].snapshot()


def serve_once(shards, expected: dict) -> float:
    """One served run: client ``i`` pipelines ``shards[i]`` into session
    ``load_i`` under client id ``load_i``, then the siblings fold into
    ``load_0`` over the wire.  Returns the ingest wall time; exits
    unless the aggregate is bit-identical to ``expected``."""
    service = SketchService(ServiceMetrics(MetricsRegistry()))
    with ServerThread(service) as handle:
        http = ServiceClient(handle.host, handle.port)
        for i in range(len(shards)):
            http.create_session(f"load_{i}", n=N_UNIVERSE,
                                seed=SEED & 0xFFFF, node=i,
                                track=list(BATTERY))

        async def one_client(i: int) -> int:
            async with AsyncSessionClient(handle.host, handle.port,
                                          f"load_{i}",
                                          client_id=f"load_{i}") as ws:
                return await ws.ingest_many(shards[i])

        async def drive() -> float:
            start = time.perf_counter()
            await asyncio.gather(*(one_client(i)
                                   for i in range(len(shards))))
            return time.perf_counter() - start

        elapsed = asyncio.run(drive())
        for i in range(1, len(shards)):
            http.merge("load_0", http.snapshot(f"load_{i}"))
        served = StreamSession.restore(
            payload_from_bytes(http.snapshot("load_0"))
        )
        http.close()
    if not payload_equal(served.snapshot(), expected):
        raise SystemExit(
            "service: served state diverged from the offline mirror; "
            "not writing the artifact"
        )
    return elapsed


def measure_service(m: int, clients: int, push: int) -> dict:
    items, deltas = make_stream(m)
    shards = shard_batches(items, deltas, clients, push)
    expected = mirror_snapshot(shards)
    rates, offline_rates, ratios = [], [], []
    for _ in range(RUNS):
        elapsed = serve_once(shards, expected)
        # Offline replay context: one session, whole stream, no network.
        offline = offline_session(0)
        start = time.perf_counter()
        for pos in range(0, m, push):
            offline.push(items[pos:pos + push], deltas[pos:pos + push])
        offline.flush()
        offline_elapsed = time.perf_counter() - start
        rates.append(m / elapsed)
        offline_rates.append(m / offline_elapsed)
        ratios.append(offline_elapsed / elapsed)

    return {
        "transport": "websocket+frames",
        "delivery": "exactly-once (stamped frames, cumulative acks)",
        "clients": clients,
        "m": m,
        "push_size": push,
        "battery": list(BATTERY),
        "runs": RUNS,
        "updates_per_sec": {"median": int(statistics.median(rates)),
                            "best": int(max(rates))},
        "per_client_updates_per_sec": int(
            statistics.median(rates) / clients),
        "offline_updates_per_sec": int(statistics.median(offline_rates)),
        "service_over_offline": {
            "median": round(statistics.median(ratios), 4),
            "best": round(max(ratios), 4),
        },
        "identical_states": True,
        "merged_sessions": clients,
    }


def measure_faults(m: int, push: int,
                   rates: tuple[float, ...] = FAULT_RATES) -> dict:
    """Exactly-once WS ingest throughput under injected frame loss.

    One stamped :class:`AsyncSessionClient` pushes the stream through
    a :class:`ChaosProxy` dropping ``rate`` of all data frames (both
    directions — lost ingests force reconnect-and-resend, lost acks
    exercise the cumulative-ack healing path).  Every run is
    hard-gated on bit-identity against an offline ``push_once`` mirror
    carrying the same stamps: faults may cost throughput, never
    correctness.
    """
    items, deltas = make_stream(m)
    batches = [(items[pos:pos + push], deltas[pos:pos + push])
               for pos in range(0, m, push)]
    runs = []
    for rate in rates:
        service = SketchService(ServiceMetrics(MetricsRegistry()))
        with ServerThread(service) as handle:
            http = ServiceClient(handle.host, handle.port)
            http.create_session("faulty", n=N_UNIVERSE, seed=SEED & 0xFFFF,
                                node=0, track=list(BATTERY))

            async def drive(drop_rate: float) -> tuple[float, int, int]:
                schedule = FaultSchedule(seed=SEED + int(drop_rate * 1000),
                                         drop=drop_rate)
                async with ChaosProxy(handle.host, handle.port,
                                      schedule) as proxy:
                    ws = AsyncSessionClient(
                        proxy.host, proxy.port, "faulty",
                        client_id="bench",
                        retry=RetryPolicy(attempts=30, base_delay=0.01,
                                          max_delay=0.25, seed=SEED),
                        timeout=1.0,
                    )
                    start = time.perf_counter()
                    try:
                        await ws.ingest_many(batches)
                        elapsed = time.perf_counter() - start
                    finally:
                        with contextlib.suppress(Exception):
                            await ws.close()
                    return elapsed, ws.retries_total, len(proxy.fault_log)

            elapsed, retries, faults = asyncio.run(drive(rate))
            served = StreamSession.restore(
                payload_from_bytes(http.snapshot("faulty"))
            )
            http.close()

        mirror = offline_session(0)
        for i, (b_items, b_deltas) in enumerate(batches):
            mirror.push_once("bench", i + 1, b_items, b_deltas)
        identical = payload_equal(served.snapshot(), mirror.snapshot())
        if not identical:
            raise SystemExit(
                f"service_faults: state diverged at drop rate {rate}"
            )
        runs.append({
            "drop_rate": rate,
            "updates_per_sec": int(m / elapsed),
            "client_retries": retries,
            "faults_injected": faults,
            "identical_states": bool(identical),
        })
    return {
        "transport": "websocket+frames via ChaosProxy",
        "delivery": "exactly-once (stamped frames, cumulative acks)",
        "m": m,
        "push_size": push,
        "battery": list(BATTERY),
        "runs": runs,
    }


def run_smoke() -> int:
    shards = shard_batches(*make_stream(SMOKE_M), clients=2, push=512)
    elapsed = serve_once(shards, mirror_snapshot(shards))
    print(f"service smoke ok: {int(SMOKE_M / elapsed):,} updates/s "
          f"end-to-end, bit-identical to the offline mirror")
    faults = measure_faults(SMOKE_FAULT_M, push=256, rates=(0.05,))
    run = faults["runs"][0]
    assert run["identical_states"]  # measure_faults hard-gates too
    print(f"chaos smoke ok: {run['updates_per_sec']:,} updates/s at "
          f"{run['drop_rate']:.0%} drop ({run['faults_injected']} faults, "
          f"{run['client_retries']} retries), bit-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size CI gate; no artifact write")
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--m", type=int, default=M)
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    report = measure_service(args.m, clients=args.clients, push=PUSH)
    faults = measure_faults(FAULT_M, push=FAULT_PUSH)
    artifact = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    artifact["service"] = report
    artifact["service_faults"] = faults
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    rate, ratio = report["updates_per_sec"], report["service_over_offline"]
    print(
        f"service ({report['runs']} runs): {report['clients']} clients, "
        f"median {rate['median']:,} / best {rate['best']:,} updates/s "
        f"end-to-end (offline replay "
        f"{report['offline_updates_per_sec']:,}/s, ratio median "
        f"x{ratio['median']:.3f} / best x{ratio['best']:.3f}, "
        f"identical={report['identical_states']})"
    )
    for run in faults["runs"]:
        print(
            f"service_faults: drop {run['drop_rate']:.0%} -> "
            f"{run['updates_per_sec']:,} updates/s "
            f"({run['faults_injected']} faults, "
            f"{run['client_retries']} retries, "
            f"identical={run['identical_states']})"
        )
    print(f"updated {ARTIFACT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
