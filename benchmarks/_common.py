"""Shared helpers for the benchmark harness.

Streams are cached per-parameter so different bench functions reuse them;
metrics captured during setup are attached to pytest-benchmark's
``extra_info`` so the regenerated "table rows" land in the benchmark
report next to the timings.  Throughput helpers wrap the chunked batch
engine (:mod:`repro.streams.engine`) and report **updates/sec**, the
figure ``BENCH_throughput.json`` tracks across PRs.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.api import Params, build
from repro.api.session import StreamSession
from repro.streams.engine import iter_chunks, replay, replay_many
from repro.streams.generators import (
    bounded_deletion_stream,
    sensor_occupancy_stream,
    strong_alpha_stream,
    traffic_difference_stream,
)


def spec_factory(name: str, params: Params, **overrides):
    """A zero-argument sketch factory from the spec registry — the
    benchmark-side of the facade: benchmarks name specs instead of
    hand-rolling constructor lambdas, so they build exactly what the
    CLI and sessions build."""
    return functools.partial(build, name, params, 0, **overrides)


@lru_cache(maxsize=32)
def cached_bounded_stream(n: int, m: int, alpha: float, seed: int,
                          strict: bool = True):
    return bounded_deletion_stream(n, m, alpha=alpha, seed=seed, strict=strict)


@lru_cache(maxsize=16)
def cached_sensor_stream(n: int, regions: int, seed: int):
    return sensor_occupancy_stream(n, regions, seed=seed)


@lru_cache(maxsize=16)
def cached_traffic_stream(n: int, flows: int, seed: int,
                          change_fraction: float = 0.1):
    return traffic_difference_stream(
        n, flows, change_fraction=change_fraction, seed=seed
    )


@lru_cache(maxsize=16)
def cached_strong_stream(n: int, items: int, alpha: float, seed: int):
    return strong_alpha_stream(n, items, alpha=alpha, magnitude=8, seed=seed)


def median_estimate(make_and_estimate, seeds) -> float:
    """Median of ``make_and_estimate(seed)`` over seeds."""
    return float(np.median([make_and_estimate(s) for s in seeds]))


@dataclass(frozen=True)
class ReplayStats:
    """Wall-clock result of a timed replay."""

    updates: int
    seconds: float
    chunk_size: int

    @property
    def updates_per_sec(self) -> float:
        return self.updates / self.seconds if self.seconds > 0 else float("inf")


def measure_throughput(
    stream,
    make_sketch,
    chunk_size: int = 4096,
    force_scalar: bool = False,
    planless: bool = False,
    repeats: int = 1,
) -> ReplayStats:
    """Replay ``stream`` into a fresh sketch; returns the timing stats
    (``stats.updates_per_sec`` is the headline number).  ``planless``
    feeds ``update_batch`` chunk by chunk instead of replaying through
    the engine's plan policy — the reference side of the coalescing
    comparisons in ``bench_throughput.py``.  ``force_scalar`` times the
    raw per-update loop instead: the baseline side of every throughput
    comparison.  ``repeats`` returns the best of N fresh replays: the
    fastest structures finish a replay in ~100s of microseconds, where
    single-shot wall clocks are dominated by cache state and scheduler
    noise."""
    items, deltas = stream.as_arrays()
    best = None
    for _ in range(max(1, repeats)):
        sketch = make_sketch()
        start = time.perf_counter()
        if force_scalar:
            update = sketch.update
            for item, delta in zip(items.tolist(), deltas.tolist()):
                update(item, delta)
        elif planless:
            for chunk_items, chunk_deltas in iter_chunks(stream, chunk_size):
                sketch.update_batch(chunk_items, chunk_deltas)
        else:
            replay(stream, sketch, chunk_size=chunk_size)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return ReplayStats(updates=len(items), seconds=best,
                       chunk_size=chunk_size)


def measure_offline_many(stream, factories, chunk_size: int = 4096,
                         repeats: int = 1) -> ReplayStats:
    """One-pass ``replay_many`` over a battery of sketches, timed —
    the offline side of the push-mode comparison."""
    items, _ = stream.as_arrays()
    best = None
    for _ in range(max(1, repeats)):
        sketches = [make() for make in factories]
        start = time.perf_counter()
        replay_many(stream, sketches, chunk_size=chunk_size)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return ReplayStats(updates=len(items), seconds=best,
                       chunk_size=chunk_size)


def measure_session_throughput(
    stream,
    factories,
    chunk_size: int = 4096,
    push_size: int = 1000,
    repeats: int = 1,
) -> ReplayStats:
    """Push the stream through a :class:`~repro.api.StreamSession` in
    ``push_size`` slices, timed — the live-ingestion side of the
    comparison.  ``push_size`` deliberately straddles chunk boundaries
    (it is not a divisor of ``chunk_size``), so the buffering path is
    actually exercised."""
    items, deltas = stream.as_arrays()
    best = None
    for _ in range(max(1, repeats)):
        session = StreamSession(stream.n, chunk_size=chunk_size)
        for i, make in enumerate(factories):
            session.add(f"sketch_{i}", make())
        start = time.perf_counter()
        for pos in range(0, len(items), push_size):
            session.push(items[pos:pos + push_size],
                         deltas[pos:pos + push_size])
        session.flush()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return ReplayStats(updates=len(items), seconds=best,
                       chunk_size=chunk_size)


def relative_error(estimate: float, truth: float) -> float:
    if truth == 0:
        return abs(estimate)
    return abs(estimate - truth) / abs(truth)
