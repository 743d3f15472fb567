"""Chunked batch-replay engine: the package's one chunk driver.

The scalar path — ``for u in stream: sketch.update(u.item, u.delta)`` —
costs a Python call (plus per-item hash polynomial evaluations) per
update.  This module replays :class:`~repro.streams.model.Stream` objects
as ``(items, deltas)`` column chunks instead.  :class:`ChunkDriver` holds
the only chunk loop and the only plan policy in the package, and every
driver routes through it:

* :func:`replay` — one sketch (every sketch's ``consume`` on an
  array-backed stream, via :func:`repro.batch.consume_stream`);
* :func:`replay_many` — several sketches in one chunk-major pass, so the
  stream columns are materialised once;
* :class:`repro.api.session.StreamSession` — live pushes, buffered into
  whole chunks.

The batch contract guarantees the final sketch state is identical for
every chunk size, so ``--chunk-size`` is purely a throughput knob.

Typical use::

    from repro.streams.engine import replay

    sketch = replay(stream, CountSketch(n, 96, 6, rng), chunk_size=4096)

**Admission.**  :class:`ChunkDriver` refuses a consumer whose integer
``n`` is not the stream's universe, and its :meth:`~ChunkDriver.admit`
refuses deletions beside an ``insertion_only`` consumer before the
first chunk, so no consumer re-checks a chunk.

**The plan policy.**  A chunk is pre-planned (:mod:`repro.streams.plan`:
unique items, per-item summed deltas, a value-keyed hash-evaluation
cache) iff some consumer implements ``update_plan``
(:func:`repro.batch.supports_plan`).  That one plan feeds every such
consumer; the rest take ``update_batch``, else the scalar loop.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.batch import (
    DEFAULT_CHUNK_SIZE,
    is_integer,
    supports_batch,
    supports_plan,
)
from repro.streams.plan import ChunkPlanner
from repro.streams.model import Stream


def _chunk_size(chunk_size: int | None) -> int:
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    if not is_integer(chunk_size):
        raise TypeError(f"chunk_size must be an integer, not {chunk_size!r}")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return int(chunk_size)


def iter_chunks(
    stream: Stream, chunk_size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the stream as ``(items, deltas)`` column chunks (views).

    >>> from repro.streams.model import stream_from_updates
    >>> s = stream_from_updates(8, [(1, 2), (3, -1), (5, 4)])
    >>> [items.tolist() for items, _ in iter_chunks(s, chunk_size=2)]
    [[1, 3], [5]]
    """
    return _chunks(*stream.as_arrays(), _chunk_size(chunk_size))


def _chunks(items: np.ndarray, deltas: np.ndarray,
            size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for start in range(0, len(items), size):
        yield items[start:start + size], deltas[start:start + size]


def _feed(
    sketch: Any, items: np.ndarray, deltas: np.ndarray, plan=None
) -> None:
    if plan is not None and supports_plan(sketch):
        sketch.update_plan(plan)
    elif supports_batch(sketch):
        sketch.update_batch(items, deltas)
    else:
        update = sketch.update
        for item, delta in zip(items.tolist(), deltas.tolist()):
            update(item, delta)


class ChunkDriver:
    """The chunk loop, plan policy and admission behind every replay
    and session.

    :meth:`feed` cuts ``(items, deltas)`` columns into ``chunk_size``
    chunks and hands each chunk to every consumer in order.  A chunk is
    planned iff some consumer implements ``update_plan``, and that one
    plan feeds every such consumer (the module's plan policy).  A
    driver persists across ``feed`` calls (a session keeps one per
    consumer set), so the planner's dense workspaces are allocated once.

    >>> import numpy as np
    >>> from repro.streams.model import FrequencyVector
    >>> fv = FrequencyVector(8)
    >>> driver = ChunkDriver([fv], universe=8, chunk_size=2)
    >>> driver.planner is None  # no update_plan consumer: never planned
    True
    >>> driver.feed(np.array([1, 1, 4]), np.array([2, 3, -1]))
    >>> fv.f.tolist()
    [0, 5, 0, 0, -1, 0, 0, 0]
    """

    def __init__(self, consumers: Iterable[Any], universe: int,
                 chunk_size: int | None = None) -> None:
        self.consumers = list(consumers)
        for consumer in self.consumers:
            n = getattr(consumer, "n", None)
            if is_integer(n) and n != universe:
                # A consumer over another universe would refuse a chunk
                # that the consumers before it had already applied.
                raise ValueError(
                    f"{type(consumer).__name__} covers universe {n}, "
                    f"not the stream's {universe}"
                )
        self.chunk_size = _chunk_size(chunk_size)
        self._insertion_only = next(
            (type(c).__name__ for c in self.consumers
             if getattr(c, "insertion_only", False)),
            None,
        )
        plans = any(supports_plan(c) for c in self.consumers)
        self.planner = ChunkPlanner(universe) if plans else None

    def admit(self, deltas: np.ndarray) -> None:
        """Refuse validated ``deltas`` holding a deletion that an
        insertion-only consumer would be fed."""
        if self._insertion_only and deltas.size and deltas.min() < 0:
            raise ValueError(f"{self._insertion_only} is insertion-only; "
                             "use the alpha-property algorithms for "
                             "deletions")

    def feed(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Feed every consumer the columns, one chunk at a time."""
        for chunk_items, chunk_deltas in _chunks(items, deltas,
                                                 self.chunk_size):
            plan = (
                self.planner.plan(chunk_items, chunk_deltas)
                if self.planner is not None
                else None
            )
            for consumer in self.consumers:
                _feed(consumer, chunk_items, chunk_deltas, plan)


def replay(stream: Stream, sketch: Any, chunk_size: int | None = None):
    """Replay ``stream`` into ``sketch`` in chunks; returns the sketch.

    Uses ``update_plan`` when the sketch has one, else ``update_batch``,
    else the scalar loop — every path leaves the same final state as a
    plain ``consume``.

    >>> from repro.streams.model import FrequencyVector, stream_from_updates
    >>> s = stream_from_updates(8, [(1, 2), (1, 3), (4, -1)])
    >>> replay(s, FrequencyVector(8), chunk_size=2).f.tolist()
    [0, 5, 0, 0, -1, 0, 0, 0]
    """
    return replay_many(stream, [sketch], chunk_size)[0]


def replay_many(
    stream: Stream,
    sketches: Sequence[Any],
    chunk_size: int | None = None,
) -> list[Any]:
    """One-pass replay into several sketches (chunk-major order).

    Sketches are independent structures, so interleaving their chunk
    updates leaves each in exactly the state a dedicated replay would.
    When a chunk is planned, all sketches are fed from *one*
    :class:`~repro.streams.plan.ChunkPlan`, so the chunk's unique items
    are computed once and value-equal hash functions (same-seeded
    sketches, shared contexts) are evaluated once per chunk instead of
    once per consumer.

    >>> from repro.streams.model import FrequencyVector, stream_from_updates
    >>> s = stream_from_updates(4, [(0, 1), (2, 5)])
    >>> a, b = replay_many(s, [FrequencyVector(4), FrequencyVector(4)])
    >>> a.f.tolist() == b.f.tolist() == [1, 0, 5, 0]
    True
    """
    driver = ChunkDriver(sketches, stream.n, chunk_size)
    items, deltas = stream.as_arrays()
    driver.admit(deltas)
    driver.feed(items, deltas)
    return driver.consumers
