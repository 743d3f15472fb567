"""Registry pin tests: every exported sketch has a spec whose
capabilities — what the :mod:`repro.batch` protocol checks read off a
built instance, and whether its updates take a compiled kernel — are
pinned, and the root-seed RNG policy is deterministic (the property
session merges and snapshots rest on)."""

from __future__ import annotations

import functools
import inspect
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import kernels
from repro.analysis.core import SourceFile, load_path, run_rules
from repro.analysis.rules.capability_consistency import (
    CapabilityConsistency,
)
from repro.api.registry import (
    REGISTRY,
    Params,
    build,
    get_spec,
    rng_for,
    specs,
)
from repro.batch import supports_batch, supports_merge, supports_plan
from repro.streams.engine import replay
from repro.streams.generators import zipfian_insertion_stream

PROBE = Params(n=128, eps=0.25, delta=0.25, alpha=2.0, seed=3)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _flags(name: str) -> tuple[bool, bool, bool]:
    """(batch, plan, merge) as the protocol checks read them off a
    probe build of the spec."""
    sketch = get_spec(name).build(PROBE)
    return supports_batch(sketch), supports_plan(sketch), \
        supports_merge(sketch)


@functools.lru_cache(maxsize=None)
def _static_mismatches() -> tuple[str, ...]:
    """The capability-consistency rule's findings with every spec
    pinned at its runtime flags: one message per spec whose statically
    derived (batch, plan, merge) differ from what a build reports."""
    pins = {name: _flags(name) for name in REGISTRY}
    files = load_path(SRC)
    files.append(SourceFile("tests/test_api_registry.py",
                            f"EXPECTED_FLAGS = {pins!r}\n"))
    found = run_rules(files, [CapabilityConsistency()])
    return tuple(f.message for f in found
                 if f.rule == "capability-consistency")


_KERNEL_HELPERS = (
    "try_kwise", "try_table_update", "try_cauchy_fold", "try_csss_scatter",
)


def _takes_kernels(name: str, monkeypatch) -> bool:
    """Whether one 4096-update chunk fed to a probe build of the spec
    has some :mod:`repro.kernels` ``try_*`` helper take the call
    (return neither ``None`` nor ``False``) with the backend active."""
    taken = []

    def counted(helper):
        def call(*args, **kwargs):
            out = helper(*args, **kwargs)
            if out is not None and out is not False:
                taken.append(helper)
            return out
        return call

    for attr in _KERNEL_HELPERS:
        monkeypatch.setattr(kernels, attr, counted(getattr(kernels, attr)))
    stream = zipfian_insertion_stream(PROBE.n, 4096, skew=1.1, seed=5)
    replay(stream, get_spec(name).build(PROBE), chunk_size=4096)
    return bool(taken)


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
        """The (batch, plan, merge) flags the protocol checks read off
        a built instance equal the ones the capability-consistency lint
        rule derives from the source, for every spec — so the rule's
        compile-time pins and these runtime pins cannot drift apart."""
        prefix = f"spec {name!r}"
        assert [m for m in _static_mismatches()
                if m.startswith(prefix)] == []

    #: Hard pins for the load-bearing structures: a silent capability
    #: regression (a sketch losing its plan path, a merge disappearing)
    #: must fail loudly, not just re-derive.
    EXPECTED_FLAGS = {
        #                        batch  plan   merge
        # Batch-only: already a dense per-item sum, so nothing to plan.
        "frequency_vector":     (True,  False, True),
        "countsketch":          (True,  True,  True),
        "countmin":             (True,  True,  True),
        "ams":                  (True,  True,  True),
        "cauchy":               (True,  True,  True),
        "csss":                 (True,  True,  True),
        "heavy_hitters":        (True,  True,  True),
        "heavy_hitters_general": (True, True,  True),
        "l1_general":           (True,  True,  True),
        "l1_strict":            (True,  False, True),
        # Unique-item hashing for Figure 7 (not coalesced: rows are born
        # mid-chunk).
        "alpha_l0":             (True,  True,  True),
        # Figure 1's alpha = 1 endpoint: batch-only.
        "misra_gries":          (True,  False, True),
        # The documented order-sensitive holdout: no merge.
        "support_sampler":      (True,  False, False),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_FLAGS))
    def test_pinned_capability_flags(self, name):
        assert _flags(name) == self.EXPECTED_FLAGS[name], name

    #: Kernel-dispatch pins, observed rather than declared: whether a
    #: chunk fed to the spec has a compiled kernel take some of its
    #: work when the backend is active (support_sampler's hashing rides
    #: the Horner kernel; the exact baselines hash nothing).
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
        "support_sampler": True,
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED_KERNEL))
    def test_pinned_kernel_flags(self, name, monkeypatch):
        if os.environ.get("REPRO_KERNELS", "").strip().lower() == "off":
            pytest.skip("REPRO_KERNELS=off forces the NumPy backend")
        with kernels.override("auto") as backend:
            if not backend.active:
                pytest.skip(f"kernel backend inactive: {backend.reason}")
            taken = _takes_kernels(name, monkeypatch)
        assert taken == self.EXPECTED_KERNEL[name], name

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
    def test_shards_share_hashes_but_not_sampling(self):
        s0, s1 = (build("csss", PROBE, shard, depth=3, sample_budget=128)
                  for shard in (0, 1))
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

    def test_overrides_reach_the_constructor(self):
        sketch = build("countsketch", PROBE, width=12, depth=2)
        assert sketch.width == 12 and sketch.depth == 2
