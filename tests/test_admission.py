"""Admission at the boundaries: no consumer applies a chunk its
siblings refuse.

The chunk driver (:class:`repro.streams.engine.ChunkDriver`) admits
consumers once, for every replay, ``replay_many`` and session: a
consumer declaring another universe is refused, and a consumer
declaring ``insertion_only`` makes every deletion a refusal before the
first chunk.  ``StreamSession.push`` admits update content before
anything is buffered.  A refusal therefore leaves every consumer, and
the session's counters, exactly as they were.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Params, StreamSession, get_spec, specs
from repro.api.serialize import payload_equal, snapshot
from repro.core.csss import CSSSWithTailEstimate
from repro.sketches.countmin import CountMin
from repro.streams.engine import ChunkDriver, replay, replay_many
from repro.streams.model import FrequencyVector, Stream

N = 64

#: Small registry parameters: every spec builds in milliseconds.
PARAMS = Params(n=N, eps=0.25, delta=0.25, alpha=2.0, seed=3)

#: The session battery of the property test: specs over N, Misra-Gries
#: (insertion-only) among them.
BATTERY = ("frequency_vector", "misra_gries", "countmin", "countsketch",
           "csss", "ams", "alpha_l0", "l1_strict", "sampled_frequencies",
           "inner_product")

#: One update batch per refusal rule of push's admission.
BAD_BATCHES = {
    "negative_item": ([1, -2], [1, 1]),
    "item_at_universe": ([1, N], [1, 1]),
    "zero_delta": ([1, 2], [1, 0]),
    "delta_without_magnitude": ([1, 2], np.array([1, -2**63])),
    "float_items": (np.array([1.0, 2.0]), [1, 1]),
    "float_deltas": ([1, 2], np.array([1.5, 1.0])),
    "mismatched_lengths": ([1, 2, 3], [1, 1]),
}


def _snapshots(consumers) -> list:
    return [snapshot(c) for c in consumers]


def _unchanged(before, consumers) -> bool:
    return all(payload_equal(a, snapshot(c))
               for a, c in zip(before, consumers))


class TestConsumerAdmission:
    """The driver refuses a consumer over another universe, so no
    replay and no session can half-apply a chunk."""

    def test_every_universe_bounded_spec_declares_it(self):
        """Any registry structure that refuses an item past its
        universe declares that universe as ``n`` (the composed CSSS
        pair, the Theorem 2 sketch and the multi-sampler through a
        component), so the driver refuses it in a wider session."""
        params = PARAMS.replace(n=8)
        for spec in specs():
            sketch = spec.build(params)
            try:
                sketch.update_batch(np.array([8]), np.array([1]))
            except ValueError as exc:
                assert "outside universe" in str(exc), spec.name
                assert getattr(sketch, "n", None) == 8, spec.name
                with pytest.raises(ValueError, match="universe 8"):
                    StreamSession(16).add("small", spec.build(params))

    def test_session_refuses_csss_tail_over_a_smaller_universe(self):
        """A CSSS pair over [0, 8) in an n = 16 session used to be
        registered; a push of item 12 then raised only after
        ``frequency_vector`` had applied the chunk."""
        session = StreamSession(16, chunk_size=4).track(
            "fv", "frequency_vector")
        tail = CSSSWithTailEstimate(8, 4, 0.25, 2.0,
                                    np.random.default_rng(0))
        with pytest.raises(ValueError, match="universe 8"):
            session.add("tail", tail)
        assert session.names() == ["fv"]
        session.push([12, 1, 2, 3], [1, 1, 1, 1]).flush()
        assert session["fv"].f[[12, 1, 2, 3]].tolist() == [1, 1, 1, 1]

    def test_replay_many_refuses_before_any_consumer_applies(self):
        """``CountMin`` over [0, 8) beside a frequency vector over
        [0, 16): refused at construction, where ``CountMin.update_plan``
        used to raise after the vector had applied the chunk."""
        stream = Stream.from_arrays(16, np.arange(16), np.ones(16, int))
        fv = FrequencyVector(16)
        cm = CountMin(8, 8, 2, np.random.default_rng(0))
        before = _snapshots([fv, cm])
        with pytest.raises(ValueError, match="universe 8"):
            replay_many(stream, [fv, cm], chunk_size=4)
        assert _unchanged(before, [fv, cm])
        assert not fv.f.any()


class TestInsertionOnlyAdmission:
    """Misra-Gries declares ``insertion_only``; a deletion is refused
    before any consumer sees the batch it arrived in."""

    def test_only_insertion_only_specs_refuse_a_deletion(self):
        """Fed a negative delta directly, a registry structure raises
        iff it declares the flag the driver reads."""
        for spec in specs():
            for path in ("update", "update_batch"):
                sketch = spec.build(PARAMS)
                declared = getattr(sketch, "insertion_only", False)
                try:
                    if path == "update":
                        sketch.update(3, -1)
                    else:
                        sketch.update_batch(np.array([3]), np.array([-1]))
                except ValueError:
                    assert declared, (spec.name, path)
                else:
                    assert not declared, (spec.name, path)

    def test_replay_refuses_before_the_first_chunk(self):
        items = np.arange(1, 41)
        deltas = np.ones(40, dtype=np.int64)
        deltas[-1] = -1  # the deletion sits in the last chunk
        stream = Stream.from_arrays(N, items, deltas)
        fv = FrequencyVector(N)
        mg = get_spec("misra_gries").build(PARAMS)
        with pytest.raises(ValueError, match="insertion-only"):
            replay_many(stream, [fv, mg], chunk_size=8)
        assert not fv.f.any()
        with pytest.raises(ValueError, match="insertion-only"):
            replay(stream, mg, chunk_size=8)
        assert payload_equal(snapshot(mg),
                             snapshot(get_spec("misra_gries").build(PARAMS)))

    def test_push_refuses_before_buffering(self):
        """The ROADMAP probe in-process: the deletion is refused at
        push, nothing is buffered, and later queries answer."""
        session = (StreamSession(N, chunk_size=8)
                   .track("frequency_vector").track("misra_gries"))
        with pytest.raises(ValueError, match="insertion-only"):
            session.push([1, 2, 3], [1, 1, -1])
        assert (session.pending, session.updates_processed) == (0, 0)
        for _ in range(3):
            session.query("frequency_vector")
        assert session["frequency_vector"].f[1:4].tolist() == [0, 0, 0]

    def test_add_never_feeds_a_pending_deletion_to_insertion_only(self):
        """``add`` flushes the partial buffer to the consumers already
        registered before it registers, so an insertion-only consumer
        added while a deletion is pending never sees that deletion."""
        session = StreamSession(N, chunk_size=8).track("frequency_vector")
        session.push([1, 2], [1, -1])
        mg = get_spec("misra_gries").build(PARAMS)
        session.add("mg", mg)
        assert session.pending == 0
        assert session["frequency_vector"].f[1:3].tolist() == [1, -1]
        assert payload_equal(snapshot(mg),
                             snapshot(get_spec("misra_gries").build(PARAMS)))
        session.push([4], [2]).flush()
        assert mg.query(4) == 2
        with pytest.raises(ValueError, match="insertion-only"):
            session.push([1], [-1])

    def test_admit_refuses_deletions_only_beside_insertion_only(self):
        mg = get_spec("misra_gries").build(PARAMS)
        driver = ChunkDriver([FrequencyVector(N), mg], N)
        driver.admit(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="MisraGries is insertion-only"):
            driver.admit(np.array([1, -2], dtype=np.int64))
        ChunkDriver([FrequencyVector(N)], N).admit(
            np.array([-2], dtype=np.int64))


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_refused_batches_change_nothing(data):
    """Random registry consumer sets, Misra-Gries and a consumer over
    another universe among the candidates, fed every kind of bad batch
    between good pushes: after each refusal the counters and every
    consumer's snapshot are what they were before the call."""
    chosen = data.draw(st.lists(st.sampled_from(BATTERY), min_size=1,
                                max_size=4, unique=True), label="specs")
    chunk_size = data.draw(st.sampled_from([3, 8, 64]), label="chunk")
    session = StreamSession(N, params=PARAMS, chunk_size=chunk_size)
    for name in chosen:
        session.track(name)
    foreign = get_spec(data.draw(st.sampled_from(BATTERY), label="foreign")
                       ).build(PARAMS.replace(n=N // 2))
    if getattr(foreign, "n", None) is not None:
        with pytest.raises(ValueError, match="universe"):
            session.add("foreign", foreign)
        assert session.names() == list(chosen)
    consumers = [session[name] for name in chosen]
    bad = dict(BAD_BATCHES)
    if "misra_gries" in chosen:
        bad["deletion_beside_misra_gries"] = ([1, 2], [1, -1])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16),
                                          label="seed"))
    for kind in data.draw(st.permutations(sorted(bad)), label="order"):
        good = rng.integers(0, N, size=int(rng.integers(1, 12)))
        session.push(good, np.ones(len(good), dtype=np.int64))
        counters = (session.updates_processed, session.pending)
        before = _snapshots(consumers)
        with pytest.raises((TypeError, ValueError)):
            session.push(*bad[kind])
        assert (session.updates_processed, session.pending) == counters, kind
        assert _unchanged(before, consumers), kind
    session.flush()
    before = _snapshots(consumers)
    deletion = Stream.from_arrays(N, [1, 2, 3], [1, 1, -1])
    refusals = [[*consumers, foreign]] if getattr(foreign, "n", None) else []
    if "misra_gries" in chosen:
        refusals.append(consumers)
    for sketches in refusals:
        with pytest.raises(ValueError):
            replay_many(deletion, sketches, chunk_size=chunk_size)
        assert _unchanged(before, consumers)
