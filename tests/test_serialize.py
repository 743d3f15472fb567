"""Snapshot/restore harness: pickle-free persistence for every
mergeable structure.

The contract (:mod:`repro.api.serialize`): ``restore(snapshot(s))``
rebuilds a structure that *continues* ingestion bit-identically —
consumed randomness included — and the payload is a plain, versioned
dict of Python scalars, containers, and numpy arrays (no pickle
opcodes, no arbitrary classes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Params, StreamSession, snapshot, restore
from repro.api.serialize import FORMAT_VERSION
from repro.core.inner_product import AlphaInnerProduct
from repro.streams.generators import (
    bounded_deletion_stream,
    zipfian_insertion_stream,
)

from test_session import assert_bit_identical

N = 512
SEED = 0x51AB
PARAMS = Params(n=N, eps=0.2, delta=0.25, alpha=4.0, seed=SEED)

#: Every mergeable spec in the registry (mergeable = the structures the
#: ISSUE requires round-trips for), plus the non-mergeable support
#: sampler — persistence should not stop at the merge boundary.
from repro.api.registry import specs
from repro.batch import supports_merge

MERGEABLE_SPECS = [s.name for s in specs() if supports_merge(s.build(PARAMS))]
ALL_SPECS = MERGEABLE_SPECS + ["support_sampler"]

#: Insertion-only structures ride the zipf stream.
INSERTION_ONLY = {"misra_gries"}


def _stream_for(name):
    if name in INSERTION_ONLY:
        return zipfian_insertion_stream(N, 3000, skew=1.2, seed=44)
    return bounded_deletion_stream(N, 3000, alpha=4, seed=43, strict=False)


class TestRoundTripEveryMergeable:
    def test_registry_has_mergeable_specs(self):
        # The sweep below must actually cover the stack.
        assert len(MERGEABLE_SPECS) >= 15

    @pytest.mark.parametrize("name", ALL_SPECS)
    def test_snapshot_restore_continue_is_bit_identical(self, name):
        """Feed half a stream, snapshot, restore, feed the other half
        to both original and clone: final states must match bitwise
        (RNG state round-trips too)."""
        from repro.api import build

        stream = _stream_for(name)
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        original = build(name, PARAMS)
        original.update_batch(items[:half], deltas[:half])
        clone = restore(snapshot(original))
        assert clone is not original
        original.update_batch(items[half:], deltas[half:])
        clone.update_batch(items[half:], deltas[half:])
        assert_bit_identical(original, clone, name)

    @pytest.mark.parametrize("name", MERGEABLE_SPECS)
    def test_restored_clone_still_merges(self, name):
        """A restored sibling must pass the by-value compatibility
        checks of merge() (hash functions compare by value)."""
        from repro.api import build

        stream = _stream_for(name)
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        a = build(name, PARAMS)
        b = build(name, PARAMS)
        a.update_batch(items[:half], deltas[:half])
        b.update_batch(items[half:], deltas[half:])
        a.merge(restore(snapshot(b)))  # must not raise


class TestPayloadShape:
    def test_payload_contains_only_plain_types(self):
        """The whole point of pickle-free: nothing but scalars,
        containers, and numpy arrays anywhere in the payload."""
        from repro.api import build

        payload = snapshot(build("heavy_hitters_general", PARAMS))

        def walk(node):
            if node is None or isinstance(node, (bool, int, float, str)):
                return
            if isinstance(node, np.ndarray):
                return
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(key)
                    walk(value)
                return
            if isinstance(node, list):
                for value in node:
                    walk(value)
                return
            raise AssertionError(f"non-plain payload node: {type(node)}")

        walk(payload)
        assert payload["format"] == FORMAT_VERSION

    def test_shared_subobjects_stay_shared(self):
        """Two sketches sharing one context serialize the context once
        and share it again after restore (Theorem 2 pair)."""
        ctx = AlphaInnerProduct(N, eps=0.25, alpha=4,
                                rng=np.random.default_rng(SEED))
        f, g = ctx.make_sketch(), ctx.make_sketch()
        f.update(3, 5)
        g.update(3, 2)
        out = restore(snapshot({"ctx": ctx, "f": f, "g": g}))
        ctx2, f2, g2 = out["ctx"], out["f"], out["g"]
        assert ctx.estimate(f, g) == ctx2.estimate(f2, g2)

    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="format"):
            restore({"format": 999, "root": None})

    def test_foreign_classes_are_refused(self):
        """A class outside ``repro.*``, or a class, module or dtype this
        version does not define (a checkpoint of a deleted class), is a
        ``ValueError`` naming it — never an import, attribute or type
        error."""
        for root, refusal in [
            ({"~t": "obj", "id": 0, "cls": "os:system", "state": {}},
             "repro"),
            ({"~t": "obj", "id": 0, "state": {},
              "cls": "repro.sketches.knw_l0:F0Tracker"}, "F0Tracker"),
            ({"~t": "obj", "id": 0, "state": {},
              "cls": "repro.core.sampling:AdaptiveUniformSampler"},
             "AdaptiveUniformSampler"),
            ({"~t": "obj", "id": 0, "state": {},
              "cls": "repro.no_such_module:Thing"}, "no_such_module"),
            ({"~t": "ndarray", "id": 0, "dtype": "float999",
              "data": np.zeros(2)}, "'ndarray' node names dtype 'float999'"),
            ({"~t": "npscalar", "dtype": "int3", "v": 1},
             "'npscalar' node names dtype 'int3'"),
        ]:
            with pytest.raises(ValueError, match=refusal):
                restore({"format": FORMAT_VERSION, "root": root})

    @pytest.mark.parametrize("tag, field", [
        ("dict", "v"), ("frozenset", "v"), ("list", "v"), ("set", "v"),
        ("tuple", "v"), ("ndarray", "data"), ("ndarray", "dtype"),
        ("npscalar", "dtype"), ("npscalar", "v"), ("obj", "cls"),
        ("obj", "id"), ("obj", "state"), ("ref", "id"),
        ("rng", "bit_generator"), ("rng", "state"),
    ])
    def test_a_node_missing_a_field_is_refused(self, drop_field, tag, field):
        """Every field the decoder reads from a node: a node without it
        is a ``ValueError`` naming the node's tag and the field, never
        a bare ``KeyError``."""
        from repro.sketches.countmin import CountMin

        arr = np.arange(3)
        payload = snapshot({
            "t": (1, np.int64(2)), "s": {3}, "f": frozenset({4}),
            "a": arr, "again": arr, "l": [5], "g": np.random.default_rng(0),
            "cm": CountMin(16, 8, 2, np.random.default_rng(1)),
        })
        drop_field(payload["root"], tag, field)
        with pytest.raises(ValueError,
                           match=f"'{tag}' node lacks its '{field}' field"):
            restore(payload)

    def test_unsnapshotable_objects_raise(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            snapshot(object())

    def test_scalar_and_container_round_trip(self):
        value = {"a": (1, 2.5), "b": [np.int64(3)], "c": {7, 8},
                 "d": frozenset({9})}
        out = restore(snapshot(value))
        assert out["a"] == (1, 2.5)
        assert out["b"][0] == 3 and isinstance(out["b"][0], np.int64)
        assert out["c"] == {7, 8} and out["d"] == frozenset({9})


class TestSessionSnapshots:
    def test_session_round_trip_continues_identically(self):
        """The acceptance criterion: snapshot a live session, restore,
        continue pushing on both — every consumer stays bit-identical
        and subsequent estimates agree exactly."""
        names = ("heavy_hitters_general", "l1_general", "csss",
                 "frequency_vector", "alpha_l0")
        stream = bounded_deletion_stream(N, 5000, alpha=4, seed=77,
                                         strict=False)
        items, deltas = stream.as_arrays()
        session = StreamSession(N, params=PARAMS, chunk_size=700)
        for name in names:
            session.track(name)
        session.push(items[:2200], deltas[:2200])
        resumed = StreamSession.restore(session.snapshot())
        assert resumed.names() == list(names)
        assert resumed.updates_processed == 2200
        session.push(items[2200:], deltas[2200:])
        resumed.push(items[2200:], deltas[2200:])
        for name in names:
            assert_bit_identical(session[name], resumed[name], name)
        for name in ("heavy_hitters_general", "l1_general",
                     "frequency_vector", "alpha_l0"):
            assert session.query(name) == resumed.query(name), name

    def test_restored_session_keeps_query_hooks(self):
        session = StreamSession(N, params=PARAMS).track("l1_strict")
        session.push([1, 2, 3], [1, 1, 1])
        resumed = StreamSession.restore(session.snapshot())
        assert resumed.query("l1_strict") == session.query("l1_strict")

    def test_session_snapshot_flushes_first(self):
        session = StreamSession(N, chunk_size=100).track("frequency_vector")
        session.push([1] * 7, [1] * 7)
        assert session.pending == 7
        payload = session.snapshot()
        assert session.pending == 0
        resumed = StreamSession.restore(payload)
        assert resumed["frequency_vector"].num_updates == 7

    def test_session_snapshot_rejects_foreign_format(self):
        with pytest.raises(ValueError):
            StreamSession.restore({"format": 0})

    def test_parent_format_sampled_frequencies_restores(self):
        """A SampledFrequencies snapshot from when the class still had
        its dense mode (dict mode: the state also carries
        ``universe: None`` and ``_dense: False``) restores, keeps
        ingesting, and answers what a never-snapshotted twin answers."""
        stream = bounded_deletion_stream(N, 6000, alpha=4, seed=3,
                                         strict=False)
        items, deltas = stream.as_arrays()

        def fresh():
            return StreamSession(N, params=PARAMS, chunk_size=512).track(
                "sf", "sampled_frequencies", budget=300)

        old = fresh().push(items[:3000], deltas[:3000])
        payload = old.snapshot()

        def parent_format(node):
            if isinstance(node, dict):
                if str(node.get("cls", "")).endswith(":SampledFrequencies"):
                    node["state"].update(universe=None, _dense=False)
                    return 1
                return sum(parent_format(v) for v in node.values())
            if isinstance(node, list):
                return sum(parent_format(v) for v in node)
            return 0

        assert parent_format(payload["consumers"]) == 1
        resumed = StreamSession.restore(payload)
        resumed.push(items[3000:], deltas[3000:]).flush()
        twin = fresh().push(items, deltas).flush()
        got, want = resumed["sf"], twin["sf"]
        assert got.log2_inv_p == want.log2_inv_p > 0
        assert resumed.query("sf") == twin.query("sf")
        assert got.space_bits() == want.space_bits()
        assert got.sampled_items() == want.sampled_items()
        assert all(got.estimate(i) == want.estimate(i) for i in range(N))


class TestReviewHardening:
    """Regression pins for the review findings on the serializer."""

    def test_shared_lists_and_arrays_stay_shared(self):
        """Mutable containers/arrays shared between objects decode to
        ONE shared object (clone_empty-style hash-list sharing)."""
        from repro.api import build

        a = build("countsketch", PARAMS)
        b = a.clone_empty()  # shares the hash-function lists
        assert a._bucket_hashes is b._bucket_hashes
        out = restore(snapshot({"a": a, "b": b}))
        assert out["a"]._bucket_hashes is out["b"]._bucket_hashes
        shared = np.arange(4)
        pair = restore(snapshot({"x": shared, "y": shared}))
        assert pair["x"] is pair["y"]

    def test_qualname_traversal_cannot_escape_allowlist(self):
        """A payload whose qualname walks module attributes to a
        non-repro class must be refused (the resolved class is
        checked, not just the module string)."""
        payload = {
            "format": FORMAT_VERSION,
            "root": {"~t": "obj", "id": 0,
                     "cls": "repro.api.serialize:np.random.Generator",
                     "state": {}},
        }
        with pytest.raises(ValueError, match="not a repro"):
            restore(payload)

    def test_shard_strict_l1_seeds_are_independent(self):
        """The registry's l1_strict builder reroots the sampling
        generator of every shard index but 0."""
        from repro.api import build
        from repro.streams.generators import bounded_deletion_stream

        s0, s1 = (build("l1_strict", PARAMS, shard) for shard in (0, 1))
        stream = bounded_deletion_stream(N, 1500, alpha=4, seed=21,
                                         strict=True)
        items, deltas = stream.as_arrays()
        s0.update_batch(items, deltas)
        s1.update_batch(items, deltas)
        # Same params => mergeable; independent draws => different state.
        from test_session import _state_diff
        assert _state_diff(s0, s1) is not None
        s0.merge(s1)  # must not raise
