"""Experiment A3 — window-width ablation for the L0 and support samplers.

Figure 7's ``±2 log(4α/ε)`` row window carries a proof-driven constant
(``AlphaL0Estimator``'s ``window_constant``, default 1).  This ablation
sweeps the window multiplier and records the accuracy/space trade:
shrinking the window saves rows linearly while the estimate stays
correct until the window no longer covers the occupancy transition, at
which point accuracy collapses — exactly the behaviour the Theorem 10
analysis predicts.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import cached_sensor_stream, relative_error
from repro.core.l0_estimation import AlphaL0Estimator
from repro.core.support_sampler import AlphaSupportSampler

N = 1 << 18
REGIONS = 350
ALPHA = 4


@pytest.fixture(scope="module")
def stream():
    return cached_sensor_stream(N, REGIONS, seed=85)


@pytest.fixture(scope="module")
def truth(stream):
    return stream.frequency_vector()


def _l0_run(stream, constant: float, seed: int = 0):
    e = AlphaL0Estimator(
        N, eps=0.2, alpha=ALPHA, rng=np.random.default_rng(seed),
        window_constant=constant, window_slack=1,
    ).consume(stream)
    return e


def test_a3_l0_window_sweep(stream, truth, benchmark):
    rows = {}
    errs = {}
    for constant in (0.5, 1.0, 2.0):
        e = _l0_run(stream, constant)
        rows[constant] = len(e.live_rows())
        errs[constant] = relative_error(e.estimate(), truth.l0())
        benchmark.extra_info[f"rows_c_{constant}"] = rows[constant]
        benchmark.extra_info[f"rel_err_c_{constant}"] = round(errs[constant], 3)
    # Wider window -> more rows; paper-width (2.0) must stay accurate.
    assert rows[0.5] <= rows[1.0] <= rows[2.0]
    assert errs[2.0] <= 0.35
    assert errs[1.0] <= 0.35
    benchmark(lambda: _l0_run(stream, 1.0).estimate())


def test_a3_l0_space_tracks_window(stream, benchmark):
    narrow = _l0_run(stream, 0.5).space_bits()
    wide = _l0_run(stream, 2.0).space_bits()
    benchmark.extra_info["bits_c_0.5"] = narrow
    benchmark.extra_info["bits_c_2.0"] = wide
    assert narrow < wide
    benchmark(lambda: None)


def test_a3_support_window_sweep(stream, truth, benchmark):
    k = 8
    for constant in (0.5, 1.0):
        ss = AlphaSupportSampler(
            N, k=k, alpha=ALPHA, rng=np.random.default_rng(1),
            window_constant=constant, window_slack=1,
        ).consume(stream)
        got = ss.sample()
        benchmark.extra_info[f"levels_c_{constant}"] = len(ss.live_levels())
        benchmark.extra_info[f"recovered_c_{constant}"] = len(got)
        assert got <= truth.support()
        if constant >= 1.0:
            assert len(got) >= min(k, truth.l0())
    benchmark(lambda: None)
