"""Session-vs-replay bit-identity harness (the facade's core promise).

``StreamSession.push`` at arbitrary granularities must leave every
registered sketch bit-identical to an offline ``replay_many`` over the
same updates — randomness included — because the batch/plan contracts
make chunk boundaries unobservable.  This harness drives random push
schedules (including pushes that straddle chunk boundaries, single-item
pushes, and pushes much larger than a chunk), interleaves queries
mid-stream (flushes must not perturb anything), and compares final
states structurally via the snapshot encoder.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Params, StreamSession, build, get_spec, specs
from repro.api.session import QueryNotSupported
from repro.streams.engine import replay_many
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)
from repro.streams.model import FrequencyVector

N = 512
M = 4_000
PARAMS = Params(n=N, eps=0.2, delta=0.25, alpha=4.0, seed=0xAB)

#: The mixed-sign battery: coalescing linear sketches, float linear,
#: RNG-consuming samplers, composed structures — every plan regime.
GENERAL_BATTERY = (
    "frequency_vector", "countsketch", "countmin", "ams", "cauchy",
    "csss", "heavy_hitters_general", "l1_general", "l1_strict",
    "alpha_l0",
)

#: Insertion-only battery (Misra-Gries is the alpha = 1 endpoint and
#: rejects deletions).
INSERTION_BATTERY = ("misra_gries", "countsketch", "frequency_vector",
                     "sampled_frequencies")


def _state_diff(a, b, path="", seen=None):
    """Recursive bitwise state equality over live object graphs.

    Arrays compare bitwise (dtype included), generators by bit-generator
    state, repro objects attribute-by-attribute.  Dicts compare as
    *mappings* (insertion order is bookkeeping, not state — exactly the
    batch-equivalence harness's semantics: different chunkings may
    insert the same keys in a different order)."""
    if seen is None:
        seen = set()
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        same = (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and np.array_equal(a, b)
        )
        return None if same else f"{path}: arrays differ"
    if isinstance(a, np.random.Generator) and isinstance(
        b, np.random.Generator
    ):
        return _state_diff(a.bit_generator.state, b.bit_generator.state,
                           f"{path}.<rng>", seen)
    if type(a) is not type(b):
        return f"{path}: types {type(a).__name__} != {type(b).__name__}"
    if a is None or isinstance(a, (bool, int, float, str)):
        return None if a == b else f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return f"{path}: dict keys differ"
        for k in a:
            found = _state_diff(a[k], b[k], f"{path}[{k!r}]", seen)
            if found:
                return found
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _state_diff(x, y, f"{path}[{i}]", seen)
            if found:
                return found
        return None
    if isinstance(a, (set, frozenset)):
        return None if a == b else f"{path}: sets differ"
    if (type(a).__module__ or "").startswith("repro."):
        key = (id(a), id(b))
        if key in seen:  # cycle / shared subobject already compared
            return None
        seen.add(key)
        from repro.api.serialize import _object_state

        state_a, state_b = _object_state(a), _object_state(b)
        if state_a.keys() != state_b.keys():
            return f"{path}: attribute sets differ"
        for attr in state_a:
            found = _state_diff(state_a[attr], state_b[attr],
                                f"{path}.{attr}", seen)
            if found:
                return found
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def assert_bit_identical(sketch_a, sketch_b, label=""):
    diff = _state_diff(sketch_a, sketch_b)
    assert diff is None, f"{label}: {diff}"


def _offline(stream, names, chunk_size):
    sketches = [build(name, PARAMS) for name in names]
    replay_many(stream, sketches, chunk_size=chunk_size)
    return dict(zip(names, sketches))


def _session(stream, names, chunk_size, push_sizes, query_at=()):
    session = StreamSession(stream.n, params=PARAMS, chunk_size=chunk_size)
    for name in names:
        session.track(name)
    items, deltas = stream.as_arrays()
    pos, i = 0, 0
    while pos < len(items):
        step = push_sizes[i % len(push_sizes)]
        i += 1
        session.push(items[pos:pos + step], deltas[pos:pos + step])
        pos += step
        if i in query_at:
            # Mid-stream queries flush the partial buffer; the batch
            # contract says nothing downstream may change.
            session.query(names[0])
    session.flush()
    return session


@pytest.fixture(scope="module")
def general_stream():
    return bounded_deletion_stream(N, M, alpha=4, seed=91, strict=False)


@pytest.fixture(scope="module")
def insertion_stream():
    return zipfian_insertion_stream(N, M, skew=1.5, seed=92)


class TestPushEqualsReplayMany:
    #: Push schedules that straddle chunk boundaries in every way:
    #: divisors, non-divisors, singles, larger-than-chunk, mixes.
    PUSH_SCHEDULES = [
        (1,),
        (7,),
        (256,),
        (1000,),
        (1024,),
        (5000,),          # larger than the chunk: direct dispatch path
        (3, 1000, 1, 511, 4096, 17),
    ]

    @pytest.mark.parametrize("push_sizes", PUSH_SCHEDULES)
    def test_general_battery(self, general_stream, push_sizes):
        chunk = 1024
        offline = _offline(general_stream, GENERAL_BATTERY, chunk)
        session = _session(general_stream, GENERAL_BATTERY, chunk,
                           push_sizes)
        for name in GENERAL_BATTERY:
            assert_bit_identical(offline[name], session[name],
                                 f"{name} @push{push_sizes}")

    @pytest.mark.parametrize("push_sizes", [(1,), (777,), (4096,)])
    def test_insertion_battery(self, insertion_stream, push_sizes):
        chunk = 512
        offline = _offline(insertion_stream, INSERTION_BATTERY, chunk)
        session = _session(insertion_stream, INSERTION_BATTERY, chunk,
                           push_sizes)
        for name in INSERTION_BATTERY:
            assert_bit_identical(offline[name], session[name],
                                 f"{name} @push{push_sizes}")

    def test_mid_stream_queries_do_not_perturb(self, general_stream):
        """Interleaved queries flush partial chunks, which moves chunk
        boundaries — and must still end bit-identical."""
        chunk = 1024
        offline = _offline(general_stream, GENERAL_BATTERY, chunk)
        session = _session(general_stream, GENERAL_BATTERY, chunk,
                           (313,), query_at={2, 5, 9})
        for name in GENERAL_BATTERY:
            assert_bit_identical(offline[name], session[name], name)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_property_random_push_schedules(self, data):
        """Hypothesis-driven: random streams, random chunk size, random
        push schedule — always bit-identical to replay_many."""
        m = data.draw(st.integers(min_value=1, max_value=600), label="m")
        rng = np.random.default_rng(data.draw(
            st.integers(min_value=0, max_value=2**16), label="seed"))
        items = rng.integers(0, N, size=m)
        deltas = rng.integers(1, 20, size=m) * rng.choice([-1, 1], size=m)
        from repro.streams.model import Stream
        stream = Stream.from_arrays(N, items, deltas)
        chunk = data.draw(st.integers(min_value=1, max_value=300),
                          label="chunk")
        names = ("countsketch", "csss", "frequency_vector")
        offline = _offline(stream, names, chunk)
        session = StreamSession(N, params=PARAMS, chunk_size=chunk)
        for name in names:
            session.track(name)
        pos = 0
        while pos < m:
            step = data.draw(st.integers(min_value=1, max_value=200),
                             label="push")
            session.push(items[pos:pos + step], deltas[pos:pos + step])
            pos += step
        session.flush()
        for name in names:
            assert_bit_identical(offline[name], session[name], name)


class TestSessionSurface:
    def test_push_validates_the_update_model(self):
        session = StreamSession(N, params=PARAMS).track("countmin")
        with pytest.raises(ValueError):
            session.push([N + 5], [1])  # outside the universe
        with pytest.raises(ValueError):
            session.push([1], [0])  # zero delta
        with pytest.raises(RuntimeError):
            StreamSession(N).push([1], [1])  # no consumers

    def test_duplicate_and_unknown_names(self):
        session = StreamSession(N, params=PARAMS).track("countmin")
        with pytest.raises(ValueError):
            session.track("countmin")
        with pytest.raises(KeyError):
            session.query("nope")

    def test_query_uses_registry_hooks(self, general_stream):
        session = StreamSession(N, params=PARAMS).track("l1_strict")
        session.push_stream(general_stream)
        truth = general_stream.frequency_vector().l1()
        assert session.query("l1_strict") == pytest.approx(truth, rel=0.5)

    #: The point-query structures: no registry hook, no headline answer.
    NO_HOOK = {"countmin", "csss", "csss_tail", "inner_product",
               "sparse_recovery"}

    @pytest.mark.parametrize("name", sorted(spec.name for spec in specs()))
    def test_every_query_hook_answers(self, insertion_stream, name):
        """The one answer rule, per spec: a tracked consumer answers
        what its spec's hook answers on a restored twin, and so do a
        restored session and a session that registered the twin with
        ``add``; a spec without a hook raises ``QueryNotSupported`` and
        ``query_all`` leaves it out.  (The stream is insertion-only, so
        misra_gries stays valid.)"""
        spec = get_spec(name)
        assert (spec.query is None) == (name in self.NO_HOOK)
        items, deltas = insertion_stream.as_arrays()
        session = StreamSession(N, params=PARAMS).track(name)
        payload = session.push(items[:500], deltas[:500]).snapshot()
        added = StreamSession(N).add(
            name, StreamSession.restore(payload)[name])
        sessions = (session, StreamSession.restore(payload), added)
        if spec.query is None:
            for s in sessions:
                with pytest.raises(QueryNotSupported):
                    s.query(name)
                assert s.query_all() == {}
            return
        want = spec.query(StreamSession.restore(payload)[name])
        for s in sessions:
            assert s.query(name) == want
            assert list(s.query_all()) == [name]

    def test_query_point_structures_raise_helpfully(self):
        session = StreamSession(N, params=PARAMS).track("countmin")
        session.push([1], [1])
        with pytest.raises(TypeError, match="session\\[name\\]"):
            session.query("countmin")

    def test_add_accepts_prebuilt_sketches(self, general_stream):
        fv = FrequencyVector(N)
        session = StreamSession(N).add("truth", fv)
        session.push_stream(general_stream).flush()
        assert fv.num_updates == len(general_stream)
        assert session.query("truth") == general_stream.frequency_vector().l1()

    def test_pending_and_flush(self):
        session = StreamSession(N, chunk_size=10).track("frequency_vector")
        session.push([1, 2, 3], [1, 1, 1])
        assert session.pending == 3
        session.flush()
        assert session.pending == 0
        assert session["frequency_vector"].num_updates == 3

    def test_track_rejects_foreign_universe_override(self):
        with pytest.raises(ValueError):
            StreamSession(N).track("countmin", n=N * 2)

    def test_sampled_frequencies_takes_no_universe(self):
        """SampledFrequencies holds only its retained entries; its
        dense mode and the ``universe`` argument that chose it are gone,
        so the override is a TypeError and nothing is registered."""
        session = StreamSession(16).track("fv", "frequency_vector")
        with pytest.raises(TypeError, match="universe"):
            session.track("sf", "sampled_frequencies", universe=8)
        assert session.names() == ["fv"]
        session.push([1, 12], [1, 1]).flush()
        assert session["fv"].f[[1, 12]].tolist() == [1, 1]

    def test_add_rejects_objects_without_update(self):
        with pytest.raises(TypeError, match="no update method"):
            StreamSession(N).add("bad", object())

    def test_add_rejects_a_consumer_over_another_universe(self):
        """A consumer over a smaller universe would refuse a chunk the
        consumers before it had already applied, leaving them apart.
        It is refused at registration, and the session stays whole."""
        first = FrequencyVector(16)
        session = StreamSession(16, chunk_size=4).add("first", first)
        for n in (8, 32):
            with pytest.raises(ValueError, match="universe"):
                session.add("other", FrequencyVector(n))
        assert session.names() == ["first"]
        session.push([12, 1, 2, 3], [1, 1, 1, 1]).flush()
        assert first.f[[12, 1, 2, 3]].tolist() == [1, 1, 1, 1]

    @pytest.mark.parametrize("chunk_size", [2, 8])
    def test_add_flushes_before_registering(self, chunk_size):
        """A consumer added mid-stream sees exactly the updates pushed
        after it, whatever the chunk size: the partial buffer goes to
        the consumers already registered first, and they end where a
        twin session without the add ends."""
        from repro.api.serialize import payload_equal, snapshot

        names = ("frequency_vector", "countsketch", "csss", "cauchy")
        session, twin = (
            StreamSession(N, params=PARAMS, chunk_size=chunk_size)
            for _ in range(2))
        for name in names:
            session.track(name)
            twin.track(name)
        late = FrequencyVector(N)
        for s in (session, twin):
            s.push([1, 2, 3], [1, 1, 1])
        session.add("late", late)
        assert late.f[1:4].tolist() == [0, 0, 0]
        for s in (session, twin):
            s.push([4, 5], [1, -1]).flush()
        assert late.f[1:6].tolist() == [0, 0, 0, 1, -1]
        for name in names:
            assert payload_equal(snapshot(session[name]),
                                 snapshot(twin[name])), name

    def test_space_report_skips_consumers_without_space_bits(self):
        from repro.counters.exact import ExactL1Counter

        session = (
            StreamSession(8)
            .add("counter", ExactL1Counter())
            .add("dense", FrequencyVector(8))  # no space_bits
        )
        session.push([0], [5]).flush()
        report = session.space_report()
        assert "counter" in report and "dense" not in report


class TestSessionMerge:
    #: Semantic state extractors for the linear sketches (merges update
    #: space-accounting fields like the observed-peak counter, which are
    #: bookkeeping, not sketch state).
    LINEAR_STATE = {
        "frequency_vector": lambda s: (s.f, s.insertions, s.deletions,
                                       s.num_updates),
        "countsketch": lambda s: (s.table,),
        "countmin": lambda s: (s.table,),
        "ams": lambda s: (s.z,),
    }

    def test_merge_equals_single_session(self, general_stream):
        """Split the stream across two same-seeded sessions and merge:
        linear sketches end bit-identical to one session over the
        whole stream."""
        names = tuple(self.LINEAR_STATE)
        items, deltas = general_stream.as_arrays()
        half = len(items) // 2

        def make():
            session = StreamSession(N, params=PARAMS, chunk_size=256)
            for name in names:
                session.track(name)
            return session

        whole = make()
        whole.push(items, deltas).flush()
        east, west = make(), make()
        east.push(items[:half], deltas[:half])
        west.push(items[half:], deltas[half:])
        merged = east.merge(west)
        assert merged.updates_processed == len(items)
        for name, state in self.LINEAR_STATE.items():
            for a, b in zip(state(whole[name]), state(merged[name])):
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), name
                else:
                    assert a == b, name

    def test_merge_rejects_mismatches(self):
        a = StreamSession(N, params=PARAMS).track("countmin")
        b = StreamSession(N, params=PARAMS).track("countsketch")
        with pytest.raises(ValueError, match="consumer sets"):
            a.merge(b)
        c = StreamSession(2 * N).track("countmin")
        with pytest.raises(ValueError, match="universes"):
            a.merge(c)

    def test_merge_rejects_non_mergeable_consumers(self):
        a = StreamSession(N, params=PARAMS).track("support_sampler")
        b = StreamSession(N, params=PARAMS).track("support_sampler")
        with pytest.raises(TypeError, match="merge"):
            a.merge(b)

    def test_refused_merge_changes_nothing(self):
        """A consumer can refuse its sibling after the type and spec
        pre-checks pass: an αL0 built at another α.  The merge is then
        refused whole, although ``frequency_vector`` merges first: the
        snapshot, ``updates_processed`` and the watermarks read as
        before, and a compatible merge still lands."""
        from repro.api.serialize import payload_equal

        def make(client, alpha):
            session = StreamSession(64, seed=1).track("frequency_vector")
            session.track("alpha_l0", alpha=alpha)
            session.push_once(client, 1, np.arange(50), np.ones(50, int))
            return session

        a = make("east", 4.0)
        before = a.snapshot()
        with pytest.raises(ValueError, match="dimensions"):
            a.merge(make("west", 8.0))
        assert payload_equal(a.snapshot(), before)
        assert a.updates_processed == 50
        assert a.ingest_watermarks == {"east": 1}
        a.merge(make("west", 4.0))
        assert a.updates_processed == 100
        assert a.ingest_watermarks == {"east": 1, "west": 1}
        assert int(a["frequency_vector"].f.sum()) == 100


class TestReviewHardening:
    """Regression pins for the review findings on the facade."""

    def test_merge_validates_before_mutating(self, general_stream):
        """A session mixing mergeable and non-mergeable consumers must
        refuse the merge WITHOUT folding any consumer first."""
        def make():
            return (
                StreamSession(N, params=PARAMS)
                .track("fv", "frequency_vector")
                .track("ss", "support_sampler")
            )

        a, b = make(), make()
        items, deltas = general_stream.as_arrays()
        a.push(items[:500], deltas[:500]).flush()
        b.push(items[500:1000], deltas[500:1000]).flush()
        before = a["fv"].f.copy()
        with pytest.raises(TypeError, match="merge"):
            a.merge(b)
        assert np.array_equal(a["fv"].f, before)  # untouched

    def test_node_index_decorrelates_sampling_but_merges(self,
                                                         general_stream):
        """Sibling sessions with distinct node indices share hash seeds
        (merge validates) but draw independent sampling streams."""
        items, deltas = general_stream.as_arrays()

        def make(node):
            # Small budget: the sampler must actually thin, or nodes are
            # indistinguishable (acceptance at rate 1 ignores uniforms).
            return StreamSession(N, params=PARAMS, node=node).track(
                "csss", depth=4, sample_budget=300
            )

        a, b = make(0), make(1)
        a.push(items, deltas).flush()
        b.push(items, deltas).flush()
        assert not (
            np.array_equal(a["csss"].pos, b["csss"].pos)
            and np.array_equal(a["csss"].neg, b["csss"].neg)
        )
        merged = a.merge(b)  # same hash seeds: compatible
        csss = merged["csss"]
        for r in range(csss.depth):
            assert int(csss._row_weight[r]) <= csss.budget

    def test_query_all_propagates_hook_failures(self, monkeypatch):
        """query_all skips point-query structures but must NOT swallow
        a genuinely failing query hook."""
        session = StreamSession(N, params=PARAMS).track("countmin")
        session.push([1], [1])
        assert session.query_all() == {}  # point-query: skipped

        def broken():
            raise TypeError("boom")

        fv = FrequencyVector(N)
        session2 = StreamSession(N, params=PARAMS).add("fv", fv)
        monkeypatch.setattr(fv, "l1", broken)  # what the hook calls
        session2.push([1], [1])
        with pytest.raises(TypeError, match="boom"):
            session2.query_all()


class TestPersistencePathBugSweep:
    """Regression pins for the durable-sessions bug sweep: buffered
    updates must survive a failing dispatch, legacy snapshot fields
    must not block a restore, and merge must validate per-name
    type/spec agreement up front."""

    class _Raising:
        """A consumer whose update path fails (e.g. a full downstream
        queue in a production monitor)."""

        def __init__(self):
            self.armed = True
            self.seen = 0

        def update(self, item, delta):
            if self.armed:
                raise RuntimeError("downstream failure")
            self.seen += 1

    def test_flush_keeps_buffer_when_dispatch_raises(self):
        """flush() used to zero the buffer *before* dispatching: a
        raising consumer silently dropped every buffered update.  The
        buffer must survive the failure and a retried flush must
        deliver the updates."""
        import warnings as _w

        raising = self._Raising()
        session = StreamSession(N, params=PARAMS, chunk_size=100)
        # The raiser registers FIRST so no consumer saw the chunk
        # before the failure (delivery is at-least-once on retry).
        with _w.catch_warnings():
            _w.simplefilter("ignore")  # no registry query hook: fine
            session.add("raising", raising)
        session.track("fv", "frequency_vector")
        session.push([1, 2, 3], [5, 1, 1])
        assert session.pending == 3
        with pytest.raises(RuntimeError, match="downstream"):
            session.flush()
        assert session.pending == 3  # nothing dropped
        raising.armed = False
        session.flush()
        assert session.pending == 0
        assert raising.seen == 3
        assert session["fv"].f[1] == 5  # the updates really landed

    @pytest.mark.parametrize("legacy_flag", [False, True])
    def test_restore_ignores_the_legacy_coalesce_flag(
            self, monkeypatch, general_stream, legacy_flag):
        """Snapshots written while the engine had a ``coalesce`` switch
        still carry it in their session meta (and those written while
        ``add`` took custom query hooks, a ``custom_queries`` list), and
        a durable service recovers every session from such files.
        Either value restores, the restored session still plans its
        chunks, answers through the registry hooks, and ends
        bit-identical to an uninterrupted session."""
        from repro.streams.plan import ChunkPlanner

        names = ("countsketch", "frequency_vector")
        chunk = 256
        items, deltas = general_stream.as_arrays()
        half = len(items) // 2

        def fresh():
            session = StreamSession(N, params=PARAMS, chunk_size=chunk)
            for name in names:
                session.track(name)
            return session

        reference = fresh().push(items, deltas)
        reference.flush()
        interrupted = fresh().push(items[:half], deltas[:half])
        payload = interrupted.snapshot()
        payload["session"]["coalesce"] = legacy_flag
        payload["session"]["custom_queries"] = (
            ["frequency_vector"] if legacy_flag else [])
        planned = []
        original = ChunkPlanner.plan

        def counting(planner, chunk_items, chunk_deltas):
            planned.append(len(chunk_items))
            return original(planner, chunk_items, chunk_deltas)

        monkeypatch.setattr(ChunkPlanner, "plan", counting)
        restored = StreamSession.restore(payload)
        restored.push(items[half:], deltas[half:])
        restored.flush()
        rest = len(items) - half
        assert len(planned) == -(-rest // chunk) and sum(planned) == rest
        for name in names:
            assert_bit_identical(reference[name], restored[name], name)
        assert restored.query_all() == reference.query_all()

    def test_restore_refuses_a_consumer_missing_built_state(
            self, drop_state):
        """A ``SampledFrequencies`` payload without ``_pos`` (what a
        snapshot from the deleted dense mode holds) used to restore,
        and every later flush raised ``AttributeError`` after the
        consumers before it had applied the chunk.  ``restore`` refuses
        it, naming the consumer, its spec and what is missing."""
        session = (StreamSession(N, params=PARAMS)
                   .track("fv", "frequency_vector")
                   .track("sf", "sampled_frequencies"))
        payload = session.push([1, 2, 3], [1, 1, 1]).snapshot()
        assert drop_state(payload, "SampledFrequencies", "_pos") == 1
        with pytest.raises(ValueError,
                           match="'sf' .*'sampled_frequencies'.*'_pos'"):
            StreamSession.restore(payload)

    @pytest.mark.parametrize("name", sorted(spec.name for spec in specs()))
    def test_every_spec_holds_the_state_restore_checks(
            self, insertion_stream, name):
        """``restore`` checks a consumer against one probe build of its
        spec, so that build must list exactly the attributes the spec's
        consumers hold at other params and node indices, before and
        after feeding and after a restore: a longer list would refuse a
        sound snapshot, a shorter one would miss a gap."""
        spec = get_spec(name)
        items, deltas = insertion_stream.as_arrays()
        other = Params(n=N, eps=0.1, delta=0.1, alpha=8.0, seed=7)
        for params, node in ((PARAMS, 0), (other, 1)):
            session = StreamSession(N, params=params, node=node).track(name)
            assert set(vars(session[name])) == spec.state_attributes()
            session.push(items[:500], deltas[:500]).flush()
            assert set(vars(session[name])) == spec.state_attributes()
            restored = StreamSession.restore(session.snapshot())
            assert set(vars(restored[name])) == spec.state_attributes()

    @pytest.mark.parametrize("name", sorted(spec.name for spec in specs()))
    def test_restore_refuses_every_spec_missing_any_built_state(
            self, insertion_stream, name):
        """Per spec, and per attribute a fresh build holds: a snapshot
        of a consumer without that attribute (what an older class
        layout encodes) is refused, naming the consumer, its spec and
        the attribute."""
        import re

        items, deltas = insertion_stream.as_arrays()
        payload = (StreamSession(N, params=PARAMS).track("c", name)
                   .push(items[:500], deltas[:500]).snapshot())
        for attr in sorted(get_spec(name).state_attributes()):
            older = StreamSession.restore(payload)
            delattr(older["c"], attr)
            with pytest.raises(ValueError, match=re.escape(
                    f"consumer 'c' (spec '{name}')") + f".*'{attr}'"):
                StreamSession.restore(older.snapshot())

    def test_merge_rejects_same_name_different_type(self):
        from repro.counters.exact import ExactL1Counter

        a = StreamSession(N, params=PARAMS)
        a.add("x", FrequencyVector(N))
        b = StreamSession(N, params=PARAMS)
        b.add("x", ExactL1Counter())
        with pytest.raises(TypeError, match="FrequencyVector"):
            a.merge(b)

    def test_merge_rejects_same_name_different_spec(self):
        a = StreamSession(N, params=PARAMS).track("hh", "heavy_hitters")
        b = StreamSession(N, params=PARAMS).track(
            "hh", "heavy_hitters_general"
        )
        with pytest.raises((TypeError, ValueError), match="hh"):
            a.merge(b)

    def test_merge_warns_on_same_node_sampling_consumers(self):
        def make(node):
            return StreamSession(N, params=PARAMS, node=node).track("csss")

        a, b = make(0), make(0)
        with pytest.warns(UserWarning, match="same node"):
            a.merge(b)
        # Distinct nodes: the documented setup, silent.
        import warnings as _w

        c, d = make(0), make(1)
        with _w.catch_warnings():
            _w.simplefilter("error")
            c.merge(d)

    def test_same_node_merge_of_linear_consumers_stays_silent(self):
        """Linear sketches are node-insensitive; warning on them would
        train users to ignore the real footgun."""
        import warnings as _w

        def make():
            return (
                StreamSession(N, params=PARAMS)
                .track("countsketch").track("frequency_vector")
            )

        a, b = make(), make()
        a.push([1], [1])
        b.push([2], [1])
        with _w.catch_warnings():
            _w.simplefilter("error")
            a.merge(b)


class TestThreadSafety:
    """The session-level lock: concurrent pushers and queriers must
    never corrupt the partial-chunk buffer or lose updates.

    Before the lock, two racing ``push`` calls could interleave inside
    the buffer bookkeeping (read ``_fill``, write past it, clobber the
    other thread's tail) and drop or duplicate updates silently; with
    the ℤ-linear frequency vector, any such corruption shows up as a
    wrong exact L1.
    """

    def test_threaded_push_and_query_exact(self):
        import threading

        session = StreamSession(N, params=PARAMS, chunk_size=7)
        session.track("frequency_vector").track("countmin")
        rng = np.random.default_rng(5)
        per_thread = 2_000
        threads_n = 6
        shards = []
        for t in range(threads_n):
            items = rng.integers(0, N, size=per_thread)
            deltas = rng.integers(1, 4, size=per_thread)
            shards.append((items, deltas))
        errors = []

        def hammer(items, deltas):
            try:
                for pos in range(0, per_thread, 13):
                    session.push(items[pos:pos + 13],
                                 deltas[pos:pos + 13])
                    if pos % 260 == 0:
                        session.query("frequency_vector")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=shard)
            for shard in shards
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        session.flush()
        expected = int(sum(int(d.sum()) for _, d in shards))
        assert session.query("frequency_vector") == expected
        assert session.updates_processed == threads_n * per_thread
        # The exact frequency of every item survived the interleaving.
        truth = np.zeros(N, dtype=np.int64)
        for items, deltas in shards:
            np.add.at(truth, items, deltas)
        np.testing.assert_array_equal(session["frequency_vector"].f, truth)

    def test_public_accessors_hold_the_lock(self):
        """Pin for the lock-discipline sweep: every public accessor
        that reads session state (names, spec_of, results, pending,
        __getitem__, __repr__) acquires the session lock — a recording
        wrapper counts the acquisitions."""
        session = StreamSession(N, params=PARAMS)
        session.track("frequency_vector")
        session.push([1], [1])

        class RecordingLock:
            def __init__(self, inner):
                self.inner = inner
                self.count = 0

            def __enter__(self):
                self.count += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        rec = session._lock = RecordingLock(session._lock)
        session.names()
        session.spec_of("frequency_vector")
        session.results()
        _ = session.pending
        repr(session)
        session["frequency_vector"]
        assert rec.count >= 6

    def test_threaded_merge_has_no_lock_ordering_deadlock(self):
        """Two threads merging sibling pairs in opposite directions:
        the ordered two-lock acquisition must not deadlock."""
        import threading

        def make(node):
            s = StreamSession(N, params=PARAMS, node=node)
            s.track("countsketch")
            s.push([1, 2, 3], [1, 1, 1])
            return s

        for _ in range(20):
            a, b = make(0), make(1)
            barrier = threading.Barrier(2)
            errors = []

            def run(dst, src):
                try:
                    barrier.wait(timeout=5)
                    dst.merge(src)
                except Exception as exc:
                    errors.append(exc)

            t1 = threading.Thread(target=run, args=(a, b))
            t2 = threading.Thread(target=run, args=(b, a))
            t1.start(); t2.start()
            t1.join(timeout=10); t2.join(timeout=10)
            assert not t1.is_alive() and not t2.is_alive(), "deadlock"
            assert not errors
