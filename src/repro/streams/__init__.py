"""Stream substrate: update model, α-property measurement, workloads.

* :mod:`repro.streams.model` — updates, replayable streams, and the exact
  dense :class:`FrequencyVector` used as ground truth everywhere.
* :mod:`repro.streams.alpha` — measuring and validating the Lp α-property
  (Definition 1) and the strong α-property (Definition 2).
* :mod:`repro.streams.generators` — synthetic workloads modelled on the
  paper's motivating applications (Section 1): network-traffic differences,
  remote differential compression, sensor occupancy, plus adversarial
  near-cancelling turnstile streams.
* :mod:`repro.streams.engine` — the chunked batch-replay driver feeding
  ``(items, deltas)`` column chunks into ``update_batch`` sketches.
"""

from repro.streams.model import (
    Update,
    Stream,
    FrequencyVector,
    stream_from_updates,
)
from repro.streams.engine import (
    DEFAULT_CHUNK_SIZE,
    iter_chunks,
    replay,
    replay_many,
)
from repro.streams.alpha import (
    lp_alpha,
    l0_alpha,
    l1_alpha,
    strong_alpha,
    has_lp_alpha_property,
    has_strong_alpha_property,
    AlphaPropertyError,
)
from repro.streams.generators import (
    zipfian_insertion_stream,
    bounded_deletion_stream,
    traffic_difference_stream,
    rdc_sync_stream,
    sensor_occupancy_stream,
    adversarial_cancellation_stream,
    strong_alpha_stream,
)

__all__ = [
    "Update",
    "Stream",
    "FrequencyVector",
    "stream_from_updates",
    "DEFAULT_CHUNK_SIZE",
    "iter_chunks",
    "replay",
    "replay_many",
    "lp_alpha",
    "l0_alpha",
    "l1_alpha",
    "strong_alpha",
    "has_lp_alpha_property",
    "has_strong_alpha_property",
    "AlphaPropertyError",
    "zipfian_insertion_stream",
    "bounded_deletion_stream",
    "traffic_difference_stream",
    "rdc_sync_stream",
    "sensor_occupancy_stream",
    "adversarial_cancellation_stream",
    "strong_alpha_stream",
]
