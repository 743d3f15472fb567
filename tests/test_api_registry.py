"""Registry pin tests: every exported sketch has a spec whose
capability flags are correct, and the root-seed RNG policy is
deterministic (the property shard merges and snapshots rest on)."""

from __future__ import annotations

import inspect
# repro: allow[pickle-ban] -- pins that shard factories stay picklable (callers may ship them to their own worker processes); never loads untrusted bytes
import pickle

import numpy as np
import pytest

import repro
from repro.api.registry import (
    REGISTRY,
    Capabilities,
    Params,
    build,
    get_spec,
    rng_for,
    shard_factory,
    specs,
)
from repro.batch import (
    supports_batch,
    supports_coalescing,
    supports_kernels,
    supports_merge,
    supports_plan,
    supports_plan_solo,
)

PROBE = Params(n=128, eps=0.25, delta=0.25, alpha=2.0, seed=3)


def _exported_sketch_classes() -> list[type]:
    """Every class exported from ``repro`` that consumes updates —
    excluding Protocols (BatchSketch, Mergeable are contracts, not
    structures)."""
    out = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if (
            inspect.isclass(obj)
            and callable(getattr(obj, "update", None))
            and not getattr(obj, "_is_protocol", False)
        ):
            out.append(obj)
    return out


class TestRegistryPins:
    def test_every_exported_sketch_has_a_spec(self):
        covered = {spec.cls for spec in specs()}
        missing = [
            cls.__name__ for cls in _exported_sketch_classes()
            if cls not in covered
        ]
        assert not missing, (
            f"exported sketches without a registry spec: {missing}"
        )

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_spec_builds_its_declared_class(self, name):
        spec = get_spec(name)
        sketch = spec.build(PROBE)
        assert isinstance(sketch, spec.cls), name

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_capability_flags_match_protocols(self, name):
        """The cached flags must equal the batch.py protocol checks on
        a freshly built instance — the registry is *derived from* the
        protocols, never allowed to drift from them."""
        spec = get_spec(name)
        sketch = spec.build(PROBE)
        caps = spec.capabilities()
        assert caps == Capabilities(
            batch=supports_batch(sketch),
            plan=supports_plan(sketch),
            plan_solo=supports_plan_solo(sketch),
            coalesce=supports_coalescing(sketch),
            merge=supports_merge(sketch),
            kernel=supports_kernels(sketch),
        )

    #: Hard pins for the load-bearing structures: a silent capability
    #: regression (a sketch losing its plan path, a merge disappearing)
    #: must fail loudly, not just re-derive.
    EXPECTED_FLAGS = {
        #                        batch  plan  coalesce merge
        "frequency_vector":     (True,  True,  True,  True),
        "countsketch":          (True,  True,  True,  True),
        "countmin":             (True,  True,  True,  True),
        "ams":                  (True,  True,  True,  True),
        "cauchy":               (True,  True,  False, True),
        "csss":                 (True,  True,  False, True),
        "heavy_hitters":        (True,  True,  False, True),
        "heavy_hitters_general": (True, True,  False, True),
        "l1_general":           (True,  True,  False, True),
        "l1_strict":            (True,  False, False, True),
        # Unique-item hashing for Figure 7 (not coalesced: rows are born
        # mid-chunk).
        "alpha_l0":             (True,  True,  False, True),
        # Satellite (e): the plan-aware fill-phase upsert.
        "misra_gries":          (True,  True,  False, True),
        # The documented order-sensitive holdout: no merge.
        "support_sampler":      (True,  False, False, False),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
    def test_pinned_capability_flags(self, name):
        batch, plan, coalesce, merge = self.EXPECTED_FLAGS[name]
        caps = get_spec(name).capabilities()
        assert (caps.batch, caps.plan, caps.coalesce, caps.merge) == (
            batch, plan, coalesce, merge
        ), name

    #: Kernel-dispatch pins: exactly these specs route their batch/plan
    #: updates through :mod:`repro.kernels` when the backend is active.
    EXPECTED_KERNEL = {
        "countsketch": True,
        "countmin": True,
        "ams": True,
        "cauchy": True,
        "csss": True,
        "csss_tail": True,
        "heavy_hitters": True,
        "heavy_hitters_general": True,
        "l2_heavy_hitters": True,
        "frequency_vector": False,
        "misra_gries": False,
        "support_sampler": False,
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_KERNEL))
    def test_pinned_kernel_flags(self, name):
        caps = get_spec(name).capabilities()
        assert caps.kernel == self.EXPECTED_KERNEL[name], name

    def test_shared_only_planners_are_not_solo(self):
        """FrequencyVector (lever f verdict) and Misra-Gries (lever e)
        plan only off shared views; solo drivers must skip them."""
        for name in ("frequency_vector", "misra_gries"):
            caps = get_spec(name).capabilities()
            assert caps.plan and not caps.plan_solo, name

    def test_every_spec_has_summary_and_docs(self):
        for spec in specs():
            assert spec.summary, spec.name

    def test_unknown_spec_is_a_helpful_error(self):
        with pytest.raises(KeyError, match="unknown sketch spec"):
            get_spec("nope")


class TestParams:
    def test_defaults_valid(self):
        p = Params()
        assert p.depth >= 2 and p.k >= 1

    @pytest.mark.parametrize("bad", [
        dict(n=0), dict(eps=0.0), dict(eps=1.0), dict(delta=0.0),
        dict(alpha=0.5), dict(seed=-1),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Params(**bad)

    def test_replace(self):
        assert Params(seed=1).replace(eps=0.5).seed == 1

    def test_rng_policy_is_deterministic_and_label_split(self):
        a = rng_for(9, "x").integers(1 << 40)
        b = rng_for(9, "x").integers(1 << 40)
        c = rng_for(9, "y").integers(1 << 40)
        d = rng_for(10, "x").integers(1 << 40)
        assert a == b
        assert len({int(a), int(c), int(d)}) == 3

    def test_same_params_build_value_equal_sketches(self):
        """Two builds from one (spec, params) must merge — the property
        every distributed path (shards, sessions) relies on."""
        a = build("countsketch", PROBE)
        b = build("countsketch", PROBE)
        a.update(3, 5)
        b.update(3, 2)
        assert a.merge(b).query(3) == 7

    def test_sampling_seed_policy(self):
        p = Params(seed=5)
        assert p.sampling_seed(0) is None  # shard 0 = single-replay
        assert p.sampling_seed(2) == (5, 2)


class TestShardFactories:
    def test_factory_requires_shard_index_and_is_picklable(self):
        factory = shard_factory("csss", PROBE, depth=3)
        with pytest.raises(TypeError):
            factory()  # replay_sharded always passes the index
        rebuilt = pickle.loads(pickle.dumps(factory))
        a, b = factory(0), rebuilt(0)
        assert np.array_equal(a.pos, b.pos)

    def test_shards_share_hashes_but_not_sampling(self):
        factory = shard_factory("csss", PROBE, depth=3, sample_budget=128)
        s0, s1 = factory(0), factory(1)
        stream = repro.bounded_deletion_stream(PROBE.n, 2000, alpha=2,
                                               seed=4, strict=False)
        items, deltas = stream.as_arrays()
        s0.update_batch(items, deltas)
        s1.update_batch(items, deltas)
        # Different sampling realisations...
        assert not (
            np.array_equal(s0.pos, s1.pos) and np.array_equal(s0.neg, s1.neg)
        )
        # ...but value-equal hashes: the merge validates.
        merged = s0.merge(s1)
        for r in range(merged.depth):
            assert int(merged._row_weight[r]) <= merged.budget

    def test_replay_sharded_round_trip(self):
        stream = repro.bounded_deletion_stream(PROBE.n, 3000, alpha=2,
                                               seed=6, strict=False)
        merged = repro.replay_sharded(
            stream, shard_factory("countmin", PROBE), workers=3,
        )
        single = repro.replay(stream, build("countmin", PROBE))
        assert np.array_equal(merged.table, single.table)

    def test_overrides_reach_the_constructor(self):
        sketch = build("countsketch", PROBE, width=12, depth=2)
        assert sketch.width == 12 and sketch.depth == 2
