"""Push-based ingestion: the ``StreamSession`` facade.

The replay engine (:mod:`repro.streams.engine`) assumes the whole
:class:`~repro.streams.model.Stream` exists up front.  Live systems —
the DDoS monitors and 802.11 measurement pipelines the paper cites —
see updates *arrive*: a session must accept pushes of whatever size the
wire delivers, keep every registered sketch current, and still hit the
batch pipeline's throughput.  :class:`StreamSession` is that surface:

* ``push(items, deltas)`` buffers partial chunks and dispatches full
  ones through the engine's :class:`~repro.streams.engine.ChunkDriver`,
  exactly like ``replay_many`` — when a chunk is planned, every
  registered consumer shares its unique items and cached hash
  evaluations;
* by the batch/plan contracts (state equals the scalar loop for every
  chunking, randomness included) the sketches are **bit-identical to
  an offline ``replay_many``** of the concatenated pushes, at every
  push granularity — queries mid-stream flush the partial buffer and
  never change any future estimate;
* ``merge(other)`` folds a sibling session (same specs, same root
  seed) through each sketch's :class:`~repro.batch.Mergeable` ladder,
  so sessions fed disjoint parts of a stream aggregate into one;
* ``query(name)`` answers through the registry's uniform query hooks;
* ``snapshot()`` / :meth:`StreamSession.restore` round-trip the whole
  session through the pickle-free state dicts of
  :mod:`repro.api.serialize`, and ingestion *continues* bit-identically
  after a restore — :mod:`repro.api.checkpoint` builds on this to make
  a live session durable on disk (periodic checkpoints, crash
  recovery, snapshot shipping).

>>> import numpy as np
>>> session = StreamSession(n=256, seed=7).track("countmin")
>>> _ = session.push([3, 9, 3], [2, 1, 5]).flush()
>>> session["countmin"].query(3)
7
>>> restored = StreamSession.restore(session.snapshot())
>>> restored["countmin"].query(3)
7
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, Callable, Iterable

import numpy as np

from repro.api.registry import (
    PARAM_FIELDS,
    Params,
    SketchSpec,
    get_spec,
)
from repro.api.serialize import FORMAT_VERSION, restore as _restore_state
from repro.api.serialize import snapshot as _snapshot_state
from repro.batch import as_update_arrays, is_integer, supports_merge
from repro.streams.engine import ChunkDriver


def _query_for_type(cls: type) -> Callable[[Any], Any] | None:
    """The registry query hook for a sketch class, when one spec
    declares it (prebuilt sketches added via ``add`` get the same
    uniform answer surface as tracked ones)."""
    from repro.api.registry import specs

    for spec in specs():
        if spec.cls is cls and spec.query is not None:
            return spec.query
    return None


class QueryNotSupported(TypeError):
    """A consumer has no no-argument headline answer (point-query
    structures); ``query_all`` skips these, real hook failures raise."""


class SequenceGapError(ValueError):
    """A stamped push arrived more than one past its client's
    watermark: an earlier frame from that client was lost in transit.
    Nothing was applied; the client must rewind and resend from
    ``expected``."""

    def __init__(self, client_id: str, expected: int, got: int) -> None:
        super().__init__(
            f"client {client_id!r}: expected seq {expected}, got {got} "
            "— an earlier frame was lost; resend from the watermark"
        )
        self.client_id = client_id
        self.expected = expected
        self.got = got


class StreamSession:
    """One push-based ingestion surface for many sketches.

    Parameters
    ----------
    n:
        Universe size (every pushed item must lie in ``[0, n)``).
    seed:
        Root seed for registry-built consumers (ignored when an
        explicit ``params`` is given).
    params:
        Base :class:`~repro.api.registry.Params` for ``track``; its
        ``n`` must match the session universe.
    chunk_size:
        Dispatch granularity — a pure throughput knob: estimates are
        identical for every value, by the batch contract.
    node:
        This session's index among merging siblings (the registry's
        ``shard_index``).  Node 0 keeps the single-replay sampling
        streams; every other node reroots its sampling-seeded
        structures (CSSS, heavy hitters, general L1) so sibling
        sessions sample *independently* while still sharing hash
        seeds — without distinct nodes, same-params siblings consume
        identical sampling streams and their sampling errors are
        correlated instead of cancelling in the merge.
    """

    def __init__(
        self,
        n: int,
        *,
        seed: int = 0,
        params: Params | None = None,
        chunk_size: int | None = None,
        node: int = 0,
    ) -> None:
        for field, value in (("n", n), ("node", node)):
            if not is_integer(value):
                raise TypeError(f"{field} must be an integer, not {value!r}")
        if params is None:
            params = Params(n=int(n), seed=seed)
        elif params.n != n:
            raise ValueError(
                f"params.n ({params.n}) does not match the session "
                f"universe ({n})"
            )
        if node < 0:
            raise ValueError("node must be non-negative")
        self.n = int(n)
        self.params = params
        self.node = int(node)
        #: The engine's chunk loop over the registered consumers,
        #: rebuilt by add() so the plan policy sees the current set.
        self._driver = ChunkDriver((), self.n, chunk_size)
        self.chunk_size = self._driver.chunk_size
        self.updates_processed = 0
        self._sketches: dict[str, Any] = {}
        self._queries: dict[str, Callable[[Any], Any] | None] = {}
        self._spec_names: dict[str, str | None] = {}
        self._buf_items = np.empty(self.chunk_size, dtype=np.int64)
        self._buf_deltas = np.empty(self.chunk_size, dtype=np.int64)
        self._fill = 0
        #: Exactly-once ingest watermarks: client id -> highest seq this
        #: session has consumed from that client (see push_once).  Part
        #: of the snapshot, so recovery rewinds delivery state together
        #: with sketch state and the two can never disagree.
        self._ingest_watermarks: dict[str, int] = {}
        #: Session-level reentrant lock: push/flush/query/merge/snapshot
        #: are atomic with respect to each other, so one session can sit
        #: behind a threaded server (or a checkpointer thread) without
        #: interleaved pushes corrupting the partial-chunk buffer.
        #: Reentrant because query() flushes and merge() flushes both
        #: sides.  (The sketches themselves are single-writer; the lock
        #: serializes that writer.)
        self._lock = threading.RLock()

    # -- consumer registration ----------------------------------------------
    def add(self, name: str, sketch: Any) -> "StreamSession":
        """Register an already-built sketch under ``name``.

        The session's chunk driver admits it first (``ValueError``):
        its universe.  The partial buffer is then flushed to the
        consumers already registered, so the new one sees exactly the
        updates pushed after it, whatever the chunk size.  It answers
        :meth:`query` through the hook of the registry spec that builds
        its class, if one has a hook.

        >>> from repro.streams.model import FrequencyVector
        >>> StreamSession(n=8).add("truth", FrequencyVector(8)).names()
        ['truth']
        """
        return self._add(name, sketch, None)

    def _add(self, name: str, sketch: Any,
             spec: SketchSpec | None) -> "StreamSession":
        with self._lock:
            if name in self._sketches:
                raise ValueError(f"duplicate consumer name {name!r}")
            if not callable(getattr(sketch, "update", None)):
                raise TypeError(
                    f"{type(sketch).__name__} has no update method"
                )
            driver = ChunkDriver([*self._sketches.values(), sketch],
                                 self.n, self.chunk_size)
            self.flush()
            self._sketches[name] = sketch
            if spec is None:
                self._queries[name] = _query_for_type(type(sketch))
                self._spec_names[name] = None
            else:
                self._queries[name] = spec.query
                self._spec_names[name] = spec.name
            self._driver = driver
        return self

    def track(self, name: str, spec: str | SketchSpec | None = None,
              **overrides) -> "StreamSession":
        """Build a registry sketch and register it under ``name``.

        ``spec`` defaults to ``name``.  Keyword overrides that are
        :class:`~repro.api.registry.Params` fields (``eps``, ``delta``,
        ``alpha``, ``seed``) refine the session's base params; anything
        else passes through to the structure's constructor.

        >>> s = StreamSession(n=64, seed=1).track("heavy_hitters",
        ...                                       eps=0.25, alpha=2.0)
        >>> type(s["heavy_hitters"]).__name__
        'AlphaHeavyHitters'
        """
        resolved = (
            spec if isinstance(spec, SketchSpec)
            else get_spec(spec if spec is not None else name)
        )
        param_changes = {
            k: overrides.pop(k) for k in list(overrides)
            if k in PARAM_FIELDS
        }
        if "n" in param_changes and param_changes["n"] != self.n:
            raise ValueError("cannot override n away from the session "
                             "universe")
        params = self.params.replace(**param_changes)
        return self._add(
            name, resolved.build(params, shard_index=self.node, **overrides),
            resolved)

    def spec_of(self, name: str) -> str | None:
        """The registry spec a consumer was built from (``None`` for
        sketches registered via :meth:`add`)."""
        with self._lock:
            if name not in self._sketches:
                raise KeyError(
                    f"unknown consumer {name!r}; "
                    f"registered: {self.names()}"
                )
            return self._spec_names[name]

    def names(self) -> list[str]:
        """Registered consumer names, in registration order."""
        with self._lock:
            return list(self._sketches)

    def __getitem__(self, name: str) -> Any:
        with self._lock:
            return self._sketches[name]

    def results(self) -> dict[str, Any]:
        """Name -> sketch mapping (the live objects, not copies)."""
        with self._lock:
            return dict(self._sketches)

    def space_report(self) -> dict[str, int]:
        """``space_bits`` per consumer (skips structures without)."""
        out = {}
        with self._lock:
            sketches = list(self._sketches.items())
        for name, sketch in sketches:
            fn = getattr(sketch, "space_bits", None)
            if callable(fn):
                out[name] = int(fn())
        return out

    # -- ingestion -----------------------------------------------------------
    def push(self, items, deltas) -> "StreamSession":
        """Ingest a batch of updates of any size.

        Update content is admitted here, before anything is buffered
        (:func:`~repro.batch.as_update_arrays`, then the driver's
        ``admit``), so a refused batch leaves the session as it was.

        Updates accumulate in a partial-chunk buffer; every full
        ``chunk_size`` worth goes through the engine's chunk driver to
        all registered consumers.  The resulting sketch states are
        bit-identical to an offline ``replay_many`` over the
        concatenation of every push, whatever the push sizes — the
        batch contract makes chunk boundaries unobservable.

        >>> s = StreamSession(n=16, chunk_size=4).track("frequency_vector")
        >>> _ = s.push([1, 2], [3, -1]).push([1], [4])
        >>> s.query("frequency_vector")  # flushes the partial chunk
        8
        """
        items_arr, deltas_arr = as_update_arrays(items, deltas, self.n)
        with self._lock:
            if not self._sketches:
                raise RuntimeError(
                    "no consumers registered; track() or add() "
                    "before push()"
                )
            self._driver.admit(deltas_arr)
            m = len(items_arr)
            self.updates_processed += m
            chunk = self.chunk_size
            pos = 0
            if self._fill:
                take = min(chunk - self._fill, m)
                self._buf_items[self._fill:self._fill + take] = (
                    items_arr[:take])
                self._buf_deltas[self._fill:self._fill + take] = (
                    deltas_arr[:take])
                self._fill += take
                pos = take
                if self._fill == chunk:
                    self._driver.feed(self._buf_items, self._buf_deltas)
                    self._fill = 0
            whole = pos + (m - pos) // chunk * chunk
            self._driver.feed(items_arr[pos:whole], deltas_arr[pos:whole])
            if whole < m:
                tail = m - whole
                self._buf_items[:tail] = items_arr[whole:]
                self._buf_deltas[:tail] = deltas_arr[whole:]
                self._fill = tail
        return self

    def push_once(self, client_id: str, seq: int, items,
                  deltas) -> bool:
        """Exactly-once :meth:`push`: apply the batch iff ``seq`` is
        one past ``client_id``'s watermark.

        Returns ``True`` when applied, ``False`` for a duplicate
        (``seq <= watermark`` — already consumed; ack it again, apply
        nothing).  ``seq > watermark + 1`` raises
        :class:`SequenceGapError` — an earlier frame was lost and
        applying out of order would silently skip it.  A batch
        :meth:`push` refuses *consumes* its seq (the refusal is
        deterministic, so a retry of the same bytes would be refused
        again; advancing lets the client's next good frame through).
        The check and the push are one critical section under the
        session lock, so a snapshot never observes a half-consumed seq.

        >>> s = StreamSession(n=16).track("frequency_vector")
        >>> s.push_once("edge", 1, [1], [2])
        True
        >>> s.push_once("edge", 1, [1], [2])  # retried frame: dedup
        False
        >>> s.query("frequency_vector")
        2
        """
        client_id = str(client_id)
        seq = int(seq)
        if seq < 1:
            raise ValueError(f"seq must be >= 1, got {seq}")
        with self._lock:
            watermark = self._ingest_watermarks.get(client_id, 0)
            if seq <= watermark:
                return False
            if seq != watermark + 1:
                raise SequenceGapError(client_id, watermark + 1, seq)
            try:
                self.push(items, deltas)
            except (ValueError, TypeError):
                self._ingest_watermarks[client_id] = seq
                raise
            self._ingest_watermarks[client_id] = seq
            return True

    def ingest_watermark(self, client_id: str) -> int:
        """The highest seq consumed from ``client_id`` (0 if none)."""
        with self._lock:
            return self._ingest_watermarks.get(str(client_id), 0)

    @property
    def ingest_watermarks(self) -> dict[str, int]:
        """A copy of every client's consumed-seq watermark."""
        with self._lock:
            return dict(self._ingest_watermarks)

    def push_stream(self, stream: Iterable) -> "StreamSession":
        """Push a whole :class:`~repro.streams.model.Stream` (or any
        object with ``as_arrays``); falls back to per-update pushes for
        plain update iterables."""
        as_arrays = getattr(stream, "as_arrays", None)
        if callable(as_arrays):
            return self.push(*as_arrays())
        for u in stream:
            self.push([u.item], [u.delta])
        return self

    def flush(self) -> "StreamSession":
        """Dispatch the buffered partial chunk (if any).

        Flushing early never changes any estimate — a flush only moves
        a chunk boundary, and the batch contract makes boundaries
        unobservable — it just costs one smaller dispatch.
        """
        with self._lock:
            if self._fill:
                items = self._buf_items[:self._fill].copy()
                deltas = self._buf_deltas[:self._fill].copy()
                # Dispatch *then* clear: if a consumer raises
                # mid-dispatch the buffer survives and a retried flush
                # re-delivers it.  Consumers ordered before the raiser
                # will then see the chunk twice — delivery is
                # at-least-once on failure, never a silent drop.
                self._driver.feed(items, deltas)
                self._fill = 0
        return self

    @property
    def pending(self) -> int:
        """Updates buffered but not yet dispatched."""
        with self._lock:
            return self._fill

    # -- answers -------------------------------------------------------------
    def query(self, name: str):
        """The headline estimate of consumer ``name`` (buffer flushed
        first, so the answer reflects every pushed update).

        The answer is the registry spec's ``query`` hook: the tracked
        spec's, or for a consumer registered with :meth:`add`, that of
        the spec that builds its class.  A consumer without one (a
        point-query structure) raises :class:`QueryNotSupported`.
        """
        with self._lock:
            if name not in self._sketches:
                raise KeyError(
                    f"unknown consumer {name!r}; registered: "
                    f"{self.names()}"
                )
            self.flush()
            sketch = self._sketches[name]
            query = self._queries[name]
            if query is None:
                raise QueryNotSupported(
                    f"{type(sketch).__name__} has no no-argument answer "
                    "surface; access the structure via session[name] and "
                    "use its query methods"
                )
            return query(sketch)

    def query_all(self) -> dict[str, Any]:
        """Every queryable consumer's headline estimate (point-query
        structures are skipped; a failing query hook raises)."""
        with self._lock:
            self.flush()
            out = {}
            for name in self._sketches:
                try:
                    out[name] = self.query(name)
                except QueryNotSupported:
                    pass  # point-query structures have no no-arg answer
            return out

    # -- distributed aggregation --------------------------------------------
    def merge(self, other: "StreamSession") -> "StreamSession":
        """Fold a sibling session in, consumer by consumer.

        Both sessions are flushed; each pair of same-named sketches
        merges through the :class:`~repro.batch.Mergeable` ladder
        (sketches must have been built with the same root seed — use
        one spec + params on every node, and give each sibling a
        distinct ``node`` index so sampling structures draw
        independent sampling streams while sharing hash seeds).
        """
        if not isinstance(other, StreamSession) or other.n != self.n:
            raise ValueError("sessions cover different universes")
        # Take both session locks in a global order (by object id) so
        # two threads merging in opposite directions cannot deadlock.
        first, second = sorted((self, other), key=id)
        with first._lock, second._lock:
            return self._merge_locked(other)

    def _merge_locked(self, other: "StreamSession") -> "StreamSession":
        if set(other._sketches) != set(self._sketches):
            raise ValueError(
                f"consumer sets differ: {sorted(self._sketches)} vs "
                f"{sorted(other._sketches)}"
            )
        # Validate *before* mutating: a merge that raises halfway would
        # leave this session holding a mix of merged and unmerged
        # consumers.
        for name, sketch in self._sketches.items():
            theirs = other._sketches[name]
            if type(sketch) is not type(theirs):
                raise TypeError(
                    f"consumer {name!r} is a {type(sketch).__name__} "
                    f"here but a {type(theirs).__name__} in the other "
                    "session"
                )
            if self._spec_names[name] != other._spec_names[name]:
                raise ValueError(
                    f"consumer {name!r} was built from spec "
                    f"{self._spec_names[name]!r} here but "
                    f"{other._spec_names[name]!r} in the other session"
                )
            if not supports_merge(sketch):
                raise TypeError(
                    f"consumer {name!r} ({type(sketch).__name__}) does "
                    "not implement merge()"
                )
        if other.node == self.node:
            sensitive = [
                name for name, spec in self._spec_names.items()
                if spec is not None and get_spec(spec).node_sensitive()
            ]
            if sensitive:
                warnings.warn(
                    f"merging two sessions with the same node index "
                    f"({self.node}): sampling consumers {sensitive} "
                    "drew identical sampling streams on both siblings, "
                    "so their sampling errors are correlated instead "
                    "of cancelling — give each sibling session a "
                    "distinct node=",
                    UserWarning,
                    stacklevel=2,
                )
        self.flush()
        other.flush()
        # A consumer can still refuse its sibling (an αL0 built at
        # another α), so rehearse every merge on a restored copy first:
        # the live consumers merge only once all of them can.  No merge
        # mutates its argument, so the sibling is merged twice safely.
        rehearsal = _restore_state(_snapshot_state(self._sketches))
        for name, sketch in [*rehearsal.items(), *self._sketches.items()]:
            sketch.merge(other._sketches[name])
        self.updates_processed += other.updates_processed
        # Dedup watermarks union by max: after a merge this session has
        # consumed everything either sibling consumed from each client.
        for cid, seq in other._ingest_watermarks.items():
            if seq > self._ingest_watermarks.get(cid, 0):
                self._ingest_watermarks[cid] = seq
        return self

    # -- persistence ---------------------------------------------------------
    def snapshot(self) -> dict:
        """The whole session as a versioned, pickle-free state dict.

        The partial buffer is flushed first (harmless — boundaries are
        unobservable), so the payload is consumer state only; shared
        objects (hash functions, contexts) are snapshotted once and
        stay shared after restore.
        """
        with self._lock:
            self.flush()
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "session": {
                "n": self.n,
                "node": self.node,
                "chunk_size": self.chunk_size,
                "updates_processed": self.updates_processed,
                "params": {
                    "n": self.params.n,
                    "eps": self.params.eps,
                    "delta": self.params.delta,
                    "alpha": self.params.alpha,
                    "seed": self.params.seed,
                },
                "specs": dict(self._spec_names),
                "ingest_watermarks": dict(self._ingest_watermarks),
            },
            "consumers": _snapshot_state(self._sketches),
        }

    @classmethod
    def restore(cls, payload: dict) -> "StreamSession":
        """Rebuild a session from :meth:`snapshot`; ingestion continues
        bit-identically to a session that never snapshotted.

        Each consumer answers through the same hook as before: a
        tracked one's is looked up again by its spec name.  A tracked
        consumer that lacks an attribute a fresh build of its spec
        holds is refused (``ValueError``) before it could fail
        mid-chunk; extra attributes are allowed.
        """
        version = payload.get("format")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported session snapshot format {version!r}"
            )
        meta = payload["session"]
        # Older snapshots also carry a "coalesce" flag and a
        # "custom_queries" list; both are ignored, since planning
        # follows the consumers (repro.streams.engine) and every hook
        # comes from the registry.
        session = cls(
            meta["n"],
            params=Params(**meta["params"]),
            chunk_size=meta["chunk_size"],
            node=meta.get("node", 0),
        )
        sketches = _restore_state(payload["consumers"])
        for name, sketch in sketches.items():
            spec_name = meta["specs"].get(name)
            spec = None
            if spec_name is not None:
                spec = get_spec(spec_name)
                missing = spec.state_attributes() - set(vars(sketch))
                if missing:
                    raise ValueError(
                        f"consumer {name!r} (spec {spec_name!r}) lacks "
                        f"state its class sets at construction: "
                        f"{sorted(missing)}"
                    )
            session._add(name, sketch, spec)
        session.updates_processed = int(meta["updates_processed"])
        # Absent in pre-reliability snapshots: those sessions had no
        # stamped clients, so the empty default is exact, not a guess.
        session._ingest_watermarks = {
            str(cid): int(seq)
            for cid, seq in meta.get("ingest_watermarks", {}).items()
        }
        return session

    def __repr__(self) -> str:  # pragma: no cover
        with self._lock:
            processed = self.updates_processed
        return (
            f"StreamSession(n={self.n}, consumers={self.names()}, "
            f"processed={processed}, pending={self.pending})"
        )
