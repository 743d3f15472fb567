"""Tests for repro.core.l0_estimation (Section 6, Figure 7, Lemma 20)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import StreamSession
from repro.api.serialize import restore, snapshot
from repro.core.l0_estimation import (
    AlphaConstL0Estimator,
    AlphaL0Estimator,
    AlphaRoughL0Estimate,
)
from repro.hashing.kwise import KWiseHash
from repro.streams.alpha import l0_alpha
from repro.streams.engine import replay
from repro.streams.generators import (
    bounded_deletion_stream,
    sensor_occupancy_stream,
    zipfian_insertion_stream,
)
from repro.streams.plan import ChunkPlanner

from test_batch_equivalence import assert_same_state


class TestAlphaRoughL0Estimate:
    def test_nondecreasing_and_bounded(self, sensor_stream):
        r = AlphaRoughL0Estimate(4096, np.random.default_rng(1))
        last = 0.0
        for u in sensor_stream:
            r.update(u.item, u.delta)
            est = r.estimate()
            assert est >= last
            last = est
        fv = sensor_stream.frequency_vector()
        # Corollary 2 band: [L0^m, 8 alpha L0]; alpha_L0 here is ~3.5.
        assert fv.l0() / 4 <= last <= 8 * 8 * fv.l0()

    def test_floor_on_empty(self):
        r = AlphaRoughL0Estimate(1 << 16, np.random.default_rng(2))
        assert r.estimate() >= 8.0


class TestAlphaConstL0Estimator:
    def test_constant_factor(self, sensor_stream):
        fv = sensor_stream.frequency_vector()
        ests = []
        for seed in range(7):
            c = AlphaConstL0Estimator(
                4096, alpha=4, rng=np.random.default_rng(seed)
            ).consume(sensor_stream)
            ests.append(c.estimate())
        med = float(np.median(ests))
        assert fv.l0() / 5 <= med <= 5 * fv.l0()

    def test_window_limits_live_levels(self):
        c = AlphaConstL0Estimator(
            1 << 20, alpha=2, rng=np.random.default_rng(3), window_slack=1
        )
        for i in range(5000):
            c.update(i, 1)
        assert len(c._levels) <= 2 * c.half_window + 2
        assert len(c._levels) < 21  # fewer than log n levels

    def test_space_below_full_rough_estimator(self):
        from repro.sketches.knw_l0 import RoughL0Estimator

        n = 1 << 20
        s = bounded_deletion_stream(n, 4000, alpha=2, seed=90)
        a = AlphaConstL0Estimator(
            n, alpha=2, rng=np.random.default_rng(4), window_slack=1
        ).consume(s)
        full = RoughL0Estimator(n, np.random.default_rng(5)).consume(s)
        assert a.space_bits() < full.space_bits()


class TestAlphaL0Estimator:
    def test_relative_error_sensor(self, sensor_stream):
        fv = sensor_stream.frequency_vector()
        ests = []
        for seed in range(7):
            e = AlphaL0Estimator(
                4096, eps=0.1, alpha=4, rng=np.random.default_rng(seed)
            ).consume(sensor_stream)
            ests.append(e.estimate())
        med = float(np.median(ests))
        assert med == pytest.approx(fv.l0(), rel=0.25)

    def test_small_l0_exact(self):
        e = AlphaL0Estimator(1 << 14, eps=0.2, alpha=2,
                             rng=np.random.default_rng(6))
        for i in range(23):
            e.update(i * 31, 1)
        assert e.estimate() == 23

    def test_zero_stream(self):
        e = AlphaL0Estimator(1024, eps=0.2, alpha=2,
                             rng=np.random.default_rng(7))
        assert e.estimate() == 0

    def test_window_is_sublinear_in_log_n(self):
        n = 1 << 20
        e = AlphaL0Estimator(
            n, eps=0.25, alpha=2, rng=np.random.default_rng(8), window_slack=1
        )
        for i in range(3000):
            e.update(i, 1)
        assert len(e.live_rows()) < int(np.log2(n))

    def test_window_follows_growing_support(self):
        """Rows must slide as L0 grows by orders of magnitude."""
        n = 1 << 18
        e = AlphaL0Estimator(
            n, eps=0.25, alpha=2, rng=np.random.default_rng(9), window_slack=1
        )
        for i in range(50):
            e.update(i, 1)
        early_rows = set(e.live_rows())
        for i in range(50, 60_000):
            e.update(i, 1)
        late_rows = set(e.live_rows())
        assert early_rows != late_rows
        est = e.estimate()
        assert est == pytest.approx(60_000, rel=0.3)

    def test_deletions_respected(self, sensor_stream):
        """The final estimate reflects L0, not F0."""
        fv = sensor_stream.frequency_vector()
        assert fv.f0() > fv.l0()  # churn happened
        e = AlphaL0Estimator(
            4096, eps=0.1, alpha=4, rng=np.random.default_rng(10)
        ).consume(sensor_stream)
        assert e.estimate() < 0.75 * fv.f0()

    def test_space_beats_baseline_at_large_n(self):
        from repro.sketches.knw_l0 import KNWL0Estimator

        n = 1 << 20
        s = sensor_occupancy_stream(n, 400, seed=91)
        a = AlphaL0Estimator(
            n, eps=0.25, alpha=4, rng=np.random.default_rng(11), window_slack=1
        ).consume(s)
        b = KNWL0Estimator(n, eps=0.25, rng=np.random.default_rng(12)).consume(s)
        assert a.space_bits() < b.space_bits()

    def test_validation(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            AlphaL0Estimator(64, eps=0, alpha=2, rng=rng)
        with pytest.raises(ValueError):
            AlphaL0Estimator(64, eps=0.2, alpha=0.5, rng=rng)


# -- the α-bounded Lemma 21 table inside αL0 ----------------------------------

def _unbounded_twin(n, eps, alpha, seed):
    """αL0 whose exact small-L0 structure is laid out as before the bound
    existed: no ``bound`` attribute, so the class default (unbounded)
    applies.  The bound changes no seed draw, so this is a same-seeded
    twin."""
    twin = AlphaL0Estimator(n, eps=eps, alpha=alpha,
                            rng=np.random.default_rng(seed))
    del twin._exact_small.bound
    return twin


def _alpha_stream(n, alpha, active, seed):
    """A stream from the existing generators whose L0 α is at most
    ``alpha``: insertion-only for α = 1, else sensor churn with
    ``F0 ≈ alpha * L0``."""
    if alpha == 1:
        return zipfian_insertion_stream(n, 3 * active, skew=0.5, seed=seed)
    return sensor_occupancy_stream(
        n, active, churn_rounds=2 * (alpha - 1), churn_fraction=0.5,
        seed=seed)


def _perfbench_shaped(skew, seed, n=1 << 16, m=1 << 19):
    """The benchmark of record's stream shape, in NumPy: ``m`` unit
    updates over ``n`` items, zipf(``skew``) insertions (uniform at 0),
    a (α - 1)/(α + 1) fraction deleted a geometric(0.05) distance after
    insertion, α = 4."""
    rng = np.random.default_rng(seed)
    q = 3.0 / 5.0
    inserts = int(round(m / (1.0 + q)))
    if skew > 0:
        weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
        keys = rng.permutation(n)[
            rng.choice(n, size=inserts, p=weights / weights.sum())]
    else:
        keys = rng.integers(0, n, size=inserts)
    deleted = np.sort(rng.choice(inserts, size=m - inserts, replace=False))
    later = deleted + rng.geometric(0.05, size=len(deleted)) + 0.5
    order = np.argsort(np.concatenate(
        [np.arange(inserts, dtype=np.float64), later]), kind="stable")
    items = np.concatenate([keys, keys[deleted]]).astype(np.int64)[order]
    deltas = np.concatenate([np.ones(inserts, dtype=np.int64),
                             -np.ones(len(deleted), dtype=np.int64)])[order]
    return items, deltas


class TestAlphaBoundedExactTable:
    """αL0 hands its α to the Lemma 21 structure, whose trials retire
    once the α-property proves L0 > c."""

    @given(alpha=st.sampled_from([1, 2, 4, 16]),
           active=st.integers(20, 300),
           seed=st.integers(0, 2**31 - 1),
           chunk=st.sampled_from([97, 4096]))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_answers_match_the_unbounded_twin(self, alpha, active, seed,
                                              chunk):
        n = 1 << 14
        stream = _alpha_stream(n, alpha, active, seed)
        assert l0_alpha(stream) <= alpha
        bounded = replay(stream, AlphaL0Estimator(
            n, eps=0.25, alpha=alpha, rng=np.random.default_rng(seed)),
            chunk_size=chunk)
        twin = replay(stream, _unbounded_twin(n, 0.25, alpha, seed),
                      chunk_size=chunk)
        assert bounded.estimate() == twin.estimate()

    def test_retired_trials_are_never_hashed(self, backend, monkeypatch):
        """Once every trial has retired, neither update_plan nor
        update_batch evaluates a trial hash (the row hashes still run)."""
        n = 1 << 14
        stream = _alpha_stream(n, 2, 600, seed=5)  # F0 = 1200 > 2 * 100
        sketch = replay(stream, AlphaL0Estimator(
            n, eps=0.25, alpha=2, rng=np.random.default_rng(5)))
        exact = sketch._exact_small
        calls: list = []
        original = KWiseHash.hash_array

        def recording(self, xs):
            calls.append(self)
            return original(self, xs)

        monkeypatch.setattr(KWiseHash, "hash_array", recording)
        items, deltas = stream.as_arrays()
        sketch.update_plan(ChunkPlanner(n).plan(items[:512], deltas[:512]))
        sketch.update_batch(items[:512], deltas[:512])
        assert any(h is sketch._h1 for h in calls)
        assert not any(h is t for h in calls for t in exact._hashes)
        assert exact._tables == [None] * 3

    @pytest.mark.parametrize("skew", [1.5, 0.0], ids=["zipf", "uniform"])
    def test_held_entries_fit_the_charge(self, skew, backend):
        """On benchmark-shaped streams (α = 4, ε = 1/16), the entries the
        trials hold at every chunk boundary, at the widths space_bits
        assumes, stay within what it charges."""
        n = 1 << 16
        items, deltas = _perfbench_shaped(skew, seed=1)
        sketch = AlphaL0Estimator(n, eps=1 / 16, alpha=4,
                                  rng=np.random.default_rng(1))
        exact = sketch._exact_small
        per_entry = (int(exact._hashes[0].range_size - 1).bit_length()
                     + max(p.bit_length() for p in exact._primes))
        charged = exact.space_bits() - sum(
            h.space_bits() for h in exact._hashes)
        planner = ChunkPlanner(n)
        peak = 0
        for start in range(0, len(items), 4096):
            sketch.update_plan(planner.plan(items[start:start + 4096],
                                            deltas[start:start + 4096]))
            peak = max(peak, sum(
                len(t) for t in exact._tables if t is not None))
        assert peak * per_entry <= charged
        assert exact._tables == [None] * 3  # L0 > c = 100 on both
        assert exact.estimate() == 101

    @pytest.mark.parametrize("active", [60, 400])
    def test_parent_format_snapshot_restores_and_answers_identically(
            self, active, backend):
        """A snapshot from before the bound existed (its exact structure
        carries no ``bound``) restores as the unbounded table
        it was, keeps ingesting, and answers what the bounded estimator
        answers."""
        n = 1 << 14
        stream = _alpha_stream(n, 2, active, seed=17)
        items, deltas = stream.as_arrays()
        half = len(items) // 2
        old = _unbounded_twin(n, 0.25, 2, seed=17)
        old.update_batch(items[:half], deltas[:half])
        payload = snapshot(old)
        node = payload["root"]["state"]["_exact_small"]
        assert node["cls"].endswith(":ExactSmallL0")
        assert "bound" not in node["state"]
        restored = restore(payload)
        assert restored._exact_small.bound is None
        restored.update_batch(items[half:], deltas[half:])
        old.update_batch(items[half:], deltas[half:])
        assert_same_state(old, restored)
        bounded = replay(stream, AlphaL0Estimator(
            n, eps=0.25, alpha=2, rng=np.random.default_rng(17)))
        assert restored.estimate() == bounded.estimate()

    def test_siblings_with_different_alpha_refuse_to_merge(self):
        """Refused before any component merges: the receiver is left as
        it was."""
        stream = _alpha_stream(1 << 12, 2, 50, seed=3)

        def build(alpha):
            return replay(stream, AlphaL0Estimator(
                1 << 12, eps=0.3, alpha=alpha, rng=np.random.default_rng(3)))

        a, b = build(4.0), build(4.5)
        assert a.half_window == b.half_window
        with pytest.raises(ValueError):
            a.merge(b)
        assert_same_state(a, build(4.0))

    @pytest.mark.parametrize("twin_side", ["receiver", "argument"])
    def test_parent_format_sibling_is_refused_before_any_merge(
            self, twin_side):
        """A parent-format αL0 (unbounded exact table) and a bounded one
        do not fold into each other.  The refusal comes before any
        component merges, so both sides are left as they were."""
        n = 1 << 12
        stream = _alpha_stream(n, 2, 50, seed=3)

        def build(unbounded):
            sketch = (_unbounded_twin(n, 0.3, 2, seed=3) if unbounded
                      else AlphaL0Estimator(n, eps=0.3, alpha=2,
                                            rng=np.random.default_rng(3)))
            return replay(stream, sketch)

        receiver = build(twin_side == "receiver")
        argument = build(twin_side == "argument")
        with pytest.raises(ValueError, match="dimensions and seeds"):
            receiver.merge(argument)
        assert_same_state(receiver, build(twin_side == "receiver"))
        assert_same_state(argument, build(twin_side == "argument"))

    @pytest.mark.parametrize("twin_side", ["receiver", "argument"])
    def test_session_merge_with_a_parent_format_sibling_is_refused_whole(
            self, twin_side):
        """The same refusal through ``StreamSession.merge``: the session's
        αL0 and its update count are left as they were, so a retried
        merge cannot double-count."""
        n = 1 << 12
        items, deltas = _alpha_stream(n, 2, 50, seed=3).as_arrays()

        def session(unbounded):
            sketch = (_unbounded_twin(n, 0.3, 2, seed=3) if unbounded
                      else AlphaL0Estimator(n, eps=0.3, alpha=2,
                                            rng=np.random.default_rng(3)))
            return StreamSession(n).add("l0", sketch).push(
                items, deltas).flush()

        receiver = session(twin_side == "receiver")
        with pytest.raises(ValueError, match="dimensions and seeds"):
            receiver.merge(session(twin_side == "argument"))
        untouched = session(twin_side == "receiver")
        assert receiver.updates_processed == untouched.updates_processed
        assert_same_state(receiver["l0"], untouched["l0"])
