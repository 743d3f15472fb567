"""Shared fixtures for the test suite.

All tests are deterministic: randomized structures receive generators
seeded per-fixture, and statistical assertions use medians over repeats
with tolerances far looser than the observed behaviour (but tight enough
to catch real regressions).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import kernels
from repro.streams.generators import (
    bounded_deletion_stream,
    sensor_occupancy_stream,
    strong_alpha_stream,
    traffic_difference_stream,
)


@pytest.fixture(params=["numpy", "kernel"])
def backend(request) -> str:
    """Run the test once per update backend.

    ``numpy`` forces the pure-NumPy paths; ``kernel`` requires the
    compiled backend (skipping, not silently passing, where it cannot
    build — CI's main job separately asserts it *is* active there).
    The equivalence harnesses opt in per test; everything else runs
    under whatever ``REPRO_KERNELS`` selects, which keeps the suite's
    cost flat."""
    if request.param == "kernel":
        forced = os.environ.get("REPRO_KERNELS", "").strip().lower()
        if forced == "off":
            # CI's tests-no-kernels job: stay genuinely NumPy-only.
            pytest.skip("REPRO_KERNELS=off forces the NumPy backend")
    mode = "off" if request.param == "numpy" else "auto"
    with kernels.override(mode) as b:
        if request.param == "kernel" and not b.active:
            pytest.skip(f"kernel backend inactive: {b.reason}")
        yield request.param


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xBDE1)


@pytest.fixture
def small_alpha_stream():
    """Strict-turnstile zipfian stream with L1 alpha = 4, n = 1024."""
    return bounded_deletion_stream(n=1024, m=4000, alpha=4, seed=11)


@pytest.fixture
def general_alpha_stream():
    """General-turnstile (non-strict interleaving) alpha = 4 stream."""
    return bounded_deletion_stream(n=1024, m=4000, alpha=4, seed=12, strict=False)


@pytest.fixture
def sensor_stream():
    """L0 alpha-property stream over a 4096-cell grid."""
    return sensor_occupancy_stream(n=4096, active_regions=300, seed=13)


@pytest.fixture
def strong_stream():
    """Strong alpha-property stream (Definition 2), alpha = 3."""
    return strong_alpha_stream(n=512, items=60, alpha=3, magnitude=8, seed=14)


@pytest.fixture
def traffic_pair():
    """Two traffic-difference streams over a shared universe."""
    f = traffic_difference_stream(n=4096, flows=400, seed=21)
    g = traffic_difference_stream(n=4096, flows=400, seed=22)
    return f, g


@pytest.fixture
def drop_state():
    """``drop_state(payload, cls_name, attr)`` deletes ``attr`` from
    every ``cls_name`` object in a snapshot payload (what a snapshot of
    an older class layout holds) and returns how many it found."""
    def drop(node, cls_name, attr):
        if isinstance(node, dict):
            if str(node.get("cls", "")).endswith(f":{cls_name}"):
                del node["state"][attr]
                return 1
            return sum(drop(v, cls_name, attr) for v in node.values())
        if isinstance(node, list):
            return sum(drop(v, cls_name, attr) for v in node)
        return 0
    return drop


def _tagged_nodes(node):
    """Every tagged node of a snapshot payload, depth first."""
    if isinstance(node, dict):
        if "~t" in node:
            yield node
        for value in node.values():
            yield from _tagged_nodes(value)
    elif isinstance(node, list):
        for value in node:
            yield from _tagged_nodes(value)


@pytest.fixture
def drop_field():
    """``drop_field(payload, tag, field)`` deletes ``field`` from the
    first node tagged ``tag`` (depth first) that holds it, as a
    truncated or hand-edited payload would lack it."""
    def drop(payload, tag, field):
        node = next(node for node in _tagged_nodes(payload)
                    if node["~t"] == tag and field in node)
        del node[field]
    return drop


@pytest.fixture
def relabel_class():
    """``relabel_class(payload, cls_name, cls)`` renames every
    ``cls_name`` object of a snapshot payload to ``cls`` (a class a
    later version deleted) and returns how many it renamed."""
    def relabel(payload, cls_name, cls):
        nodes = [node for node in _tagged_nodes(payload)
                 if str(node.get("cls", "")).endswith(f":{cls_name}")]
        for node in nodes:
            node["cls"] = cls
        return len(nodes)
    return relabel


def median_over_seeds(fn, seeds, *args, **kwargs):
    """Run ``fn(seed, ...)`` over seeds and return the median result."""
    vals = [fn(seed, *args, **kwargs) for seed in seeds]
    return float(np.median(vals))
