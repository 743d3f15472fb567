"""The paper's primary contribution: α-property streaming algorithms.

Each module implements one section of Jayaram-Woodruff PODS'18:

* :mod:`repro.core.sampling` — the Sampling Lemma machinery (Lemma 1 / 13)
  and the adaptive Lemma 1 frequency sample with counter halving.
* :mod:`repro.core.schedules` — the order-insensitive schedule core:
  paced-counter (Morris) pacing, budgeted adaptive acceptance,
  precision-sampling weights, and the live-window machine (one
  placement, one level sync, one segment loop) — the machinery behind
  every vectorised ``update_batch``.
* :mod:`repro.core.csss` — CSSampSim, Countsketch simulated on per-row
  uniform samples (Figure 2, Theorem 1) plus the tail-error estimator of
  Lemma 5.
* :mod:`repro.core.heavy_hitters` — L1 ε-heavy hitters (Section 3).
* :mod:`repro.core.inner_product` — inner-product estimation (Section 2.2).
* :mod:`repro.core.l1_sampler` — αL1Sampler (Figure 3, Section 4).
* :mod:`repro.core.l1_estimation` — strict-turnstile (Figure 4) and
  general-turnstile (Section 5.2) L1 estimators.
* :mod:`repro.core.l0_estimation` — αL0Estimator (Figure 7, Section 6).
* :mod:`repro.core.support_sampler` — α-SupportSampler (Figure 8, Sec. 7).
* :mod:`repro.core.l2_heavy_hitters` — the Appendix A L2 HH sketch.
"""

from repro.core.sampling import (
    SampledFrequencies,
    lemma1_sampling_probability,
    binomial_thin,
)
from repro.core.schedules import (
    AdaptiveSamplingSchedule,
    PacedCounterSchedule,
    PrecisionSamplingSchedule,
)
from repro.core.csss import CSSS, CSSSWithTailEstimate
from repro.core.heavy_hitters import AlphaHeavyHitters
from repro.core.inner_product import AlphaInnerProduct, AlphaInnerProductSketch
from repro.core.l1_sampler import AlphaL1Sampler, AlphaL1MultiSampler
from repro.core.l1_estimation import (
    AlphaL1EstimatorStrict,
    AlphaL1EstimatorGeneral,
)
from repro.core.l0_estimation import (
    AlphaL0Estimator,
    AlphaConstL0Estimator,
    AlphaRoughL0Estimate,
)
from repro.core.support_sampler import AlphaSupportSampler
from repro.core.l2_heavy_hitters import AlphaL2HeavyHitters

__all__ = [
    "AdaptiveSamplingSchedule",
    "PacedCounterSchedule",
    "PrecisionSamplingSchedule",
    "SampledFrequencies",
    "lemma1_sampling_probability",
    "binomial_thin",
    "CSSS",
    "CSSSWithTailEstimate",
    "AlphaHeavyHitters",
    "AlphaInnerProduct",
    "AlphaInnerProductSketch",
    "AlphaL1Sampler",
    "AlphaL1MultiSampler",
    "AlphaL1EstimatorStrict",
    "AlphaL1EstimatorGeneral",
    "AlphaL0Estimator",
    "AlphaConstL0Estimator",
    "AlphaRoughL0Estimate",
    "AlphaSupportSampler",
    "AlphaL2HeavyHitters",
]
