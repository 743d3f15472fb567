"""repro — reproduction of *Data Streams with Bounded Deletions*
(Jayaram & Woodruff, PODS 2018).

The package implements the paper's α-property streaming algorithms
(:mod:`repro.core`), the classical turnstile baselines they improve upon
(:mod:`repro.sketches`), every substrate both depend on
(:mod:`repro.streams`, :mod:`repro.hashing`, :mod:`repro.counters`,
:mod:`repro.space`), and executable versions of the Section 8 lower-bound
reductions (:mod:`repro.lowerbounds`).

Quickstart — the push-based facade (:mod:`repro.api`) is the public
surface: build sketches by name from the spec registry, push updates at
whatever granularity they arrive, query uniformly, snapshot anywhere::

    from repro import StreamSession, bounded_deletion_stream

    stream = bounded_deletion_stream(n=1 << 14, m=100_000, alpha=4, seed=7)
    session = (
        StreamSession(n=stream.n, seed=0)
        .track("heavy_hitters", eps=1 / 16, alpha=4.0)
        .track("l1_strict", alpha=4.0)
    )
    session.push_stream(stream)          # or push(items, deltas) live
    print(session.query("heavy_hitters"), session.query("l1_strict"))

Direct constructors (``AlphaHeavyHitters(...).consume(stream)``) keep
working — the facade builds on them, it does not replace them.

Navigation: ``docs/PAPER_MAP.md`` cross-references every theorem and
figure of the paper to its module, test, and benchmark;
``docs/ARCHITECTURE.md`` covers the layering, the public facade, the
batch pipeline, and the merge semantics (:class:`Mergeable`,
``StreamSession.merge``).
"""

from repro.api import (
    Capabilities,
    Checkpointer,
    CheckpointStore,
    Params,
    SketchSpec,
    StreamSession,
    export_snapshot,
    get_spec,
    import_and_merge,
    import_session,
    recover,
    restore,
    rng_for,
    snapshot,
    specs,
)

from repro.batch import (
    BatchSketch,
    Mergeable,
    as_update_arrays,
    consume_stream,
    supports_batch,
    supports_merge,
)
from repro.core import (
    CSSS,
    CSSSWithTailEstimate,
    AdaptiveSamplingSchedule,
    PacedCounterSchedule,
    PrecisionSamplingSchedule,
    AlphaHeavyHitters,
    AlphaInnerProduct,
    AlphaInnerProductSketch,
    AlphaL0Estimator,
    AlphaConstL0Estimator,
    AlphaRoughL0Estimate,
    AlphaL1EstimatorGeneral,
    AlphaL1EstimatorStrict,
    AlphaL1MultiSampler,
    AlphaL1Sampler,
    AlphaL2HeavyHitters,
    AlphaSupportSampler,
)
from repro.sketches import (
    AMSSketch,
    CauchyL1Sketch,
    CountMin,
    CountSketch,
    KNWL0Estimator,
    MisraGries,
    RoughL0Estimator,
    SparseRecovery,
    TurnstileL1Sampler,
    TurnstileSupportSampler,
)
from repro.streams import (
    DEFAULT_CHUNK_SIZE,
    FrequencyVector,
    Stream,
    Update,
    iter_chunks,
    replay,
    replay_many,
    adversarial_cancellation_stream,
    bounded_deletion_stream,
    l0_alpha,
    l1_alpha,
    rdc_sync_stream,
    sensor_occupancy_stream,
    strong_alpha,
    strong_alpha_stream,
    stream_from_updates,
    traffic_difference_stream,
    zipfian_insertion_stream,
)

__version__ = "1.0.0"

__all__ = [
    "Capabilities",
    "Checkpointer",
    "CheckpointStore",
    "Params",
    "SketchSpec",
    "StreamSession",
    "export_snapshot",
    "get_spec",
    "import_and_merge",
    "import_session",
    "recover",
    "restore",
    "rng_for",
    "snapshot",
    "specs",
    "BatchSketch",
    "Mergeable",
    "as_update_arrays",
    "consume_stream",
    "supports_batch",
    "supports_merge",
    "DEFAULT_CHUNK_SIZE",
    "iter_chunks",
    "replay",
    "replay_many",
    "CSSS",
    "CSSSWithTailEstimate",
    "AdaptiveSamplingSchedule",
    "PacedCounterSchedule",
    "PrecisionSamplingSchedule",
    "AlphaHeavyHitters",
    "AlphaInnerProduct",
    "AlphaInnerProductSketch",
    "AlphaL0Estimator",
    "AlphaConstL0Estimator",
    "AlphaRoughL0Estimate",
    "AlphaL1EstimatorGeneral",
    "AlphaL1EstimatorStrict",
    "AlphaL1MultiSampler",
    "AlphaL1Sampler",
    "AlphaL2HeavyHitters",
    "AlphaSupportSampler",
    "AMSSketch",
    "CauchyL1Sketch",
    "CountMin",
    "CountSketch",
    "KNWL0Estimator",
    "MisraGries",
    "RoughL0Estimator",
    "SparseRecovery",
    "TurnstileL1Sampler",
    "TurnstileSupportSampler",
    "FrequencyVector",
    "Stream",
    "Update",
    "adversarial_cancellation_stream",
    "bounded_deletion_stream",
    "l0_alpha",
    "l1_alpha",
    "rdc_sync_stream",
    "sensor_occupancy_stream",
    "strong_alpha",
    "strong_alpha_stream",
    "stream_from_updates",
    "traffic_difference_stream",
    "zipfian_insertion_stream",
    "__version__",
]
