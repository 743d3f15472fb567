"""Experiment T — batch-pipeline throughput (``BENCH_throughput.json``).

Measures scalar-loop vs ``update_batch`` replay throughput (updates/sec)
for the hot structures of the stack and records the speedups.  The
acceptance bar tracked across PRs: the vectorised batch path on
CountSketch / CountMin / Cauchy / FrequencyVector — and, since the
order-insensitive sampling / segmented-window work, on the paper's own
CSSS and αL0 — is at least **10x** the scalar loop at chunk size 4096.
The schedule-core PR added the six formerly scalar-loop structures
(strict L1, support sampler, inner product, sampled frequencies,
Misra-Gries, αL1Sampler) to the acceptance set at **8x**.

Since the chunk-planning engine landed, the default batch path runs
*planned* (duplicate coalescing + cross-sketch hash reuse,
:mod:`repro.streams.plan`); each plan-capable structure also records
its planless rate and the resulting ``coalesce_speedup``, and a **skew
sweep** (uniform vs zipf 1.1/1.5/2.0 insertion streams) records both
rates next to the distinct-items-per-chunk figure that explains them.
Acceptance: at zipf(1.5), >= 4 structures gain >= 2x from planning.

``--smoke`` runs a tiny-size variant (short stream, no artifact write,
relaxed 2x bar, planned and planless paths both gated) for CI: a
vectorised-path regression fails the build instead of only showing up
as BENCH json drift.  ``--check-floors`` re-measures every recorded
structure and fails below 0.5x its recorded rate (CI runs it
non-blocking — wall-clock checks warn, they don't break builds).

A **session** section measures the facade's push path: the same
battery replayed by offline :func:`repro.streams.engine.replay_many`
and pushed through :class:`repro.api.StreamSession` at a granularity
that straddles chunk boundaries, in alternating fresh pairs (the ratio
is the median pair's).  Acceptance: push-mode is bit-identical to
offline and within 10% of its rate at chunk 4096.

The whole battery runs :data:`RUNS` times.  Every figure in the
artifact is the median of its runs (:func:`median_report`), and each
gated figure records its interquartile range beside it under
``<key>_iqr``, so one noisy run can neither fail nor pass a bar.  Every
acceptance bar is checked on the medians by :func:`gate_failures`, and
the JSON artifact is written only when all of them pass
(:func:`write_if_passing`); a failing gate exits non-zero and leaves
the committed artifact untouched.  The script is the one regenerator::

    PYTHONPATH=src python benchmarks/bench_throughput.py

Under pytest the same battery asserts every gate on its medians and
writes nothing, so a test run never rewrites a tracked file::

    PYTHONPATH=src python -m pytest benchmarks/bench_throughput.py -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))  # script mode

from _common import (
    cached_bounded_stream,
    measure_offline_many,
    measure_session_throughput,
    measure_throughput,
    spec_factory,
)
from repro import kernels
from repro.api import Params
from repro.api.serialize import payload_equal, snapshot
from repro.batch import supports_plan
from repro.streams.engine import replay
from repro.streams.generators import zipfian_insertion_stream

N = 1 << 12
M = 24_000
ALPHA = 4
CHUNK = 4096
# The scalar loop is measured on a prefix (its per-update cost is flat),
# so slow baselines don't dominate wall-clock; rates are per-update.
SCALAR_PREFIX = 2_000

#: All benchmark sketches build through the spec registry (the facade's
#: one source of truth) from this param record; per-row widths/depths
#: are pinned as constructor overrides so recorded figures stay
#: comparable across PRs.
BENCH_PARAMS = Params(n=N, alpha=ALPHA, seed=1)

#: Structures with a genuinely vectorised batch path, as
#: ``(spec_name, constructor overrides, stream kind)``.  The stream
#: kind selects the workload: mixed-sign bounded-deletion ("general")
#: or insertion-only zipf ("insertion" — Misra-Gries is the alpha = 1
#: endpoint and rejects deletions).
SKETCHES = {
    "countsketch": ("countsketch", {"width": 96, "depth": 6}, "general"),
    "countmin": ("countmin", {"width": 128, "depth": 6}, "general"),
    "cauchy": ("cauchy", {"eps": 0.25}, "general"),
    "frequency_vector": ("frequency_vector", {}, "general"),
    "ams": ("ams", {"per_group": 16, "groups": 6}, "general"),
    "csss": ("csss", {"k": 16, "eps": 0.1, "depth": 6}, "general"),
    "alpha_l0": ("alpha_l0", {"eps": 0.25}, "general"),
    "alpha_const_l0": ("alpha_const_l0", {}, "general"),
    # The six schedule-core ports (retired scalar-loop mixin):
    "alpha_l1_strict": ("l1_strict", {"eps": 0.2, "s": 2000}, "general"),
    "alpha_support": ("support_sampler", {"k": 8}, "general"),
    "inner_product": ("inner_product", {"eps": 0.1}, "general"),
    # The two dict-backed summaries run on the skewed insertion stream:
    # their batch cost scales with distinct keys per chunk, and skewed
    # key distributions are the workload frequency summaries exist for
    # (Misra-Gries additionally *requires* insertion-only input).
    "sampled_frequencies": (
        "sampled_frequencies", {"budget": 2048}, "insertion"),
    "misra_gries": ("misra_gries", {"eps": 1 / 256}, "insertion"),
    "alpha_l1_sampler": ("l1_sampler", {"eps": 0.25, "depth": 4}, "general"),
}


def _factory(name: str):
    spec_name, overrides, _ = SKETCHES[name]
    return spec_factory(spec_name, BENCH_PARAMS, **overrides)

#: The acceptance bars: baselines and PR-2 structures hold 10x; the six
#: schedule-core ports hold the ISSUE's 8x floor (several clear 10x —
#: the JSON records the measured figures).
REQUIRED_SPEEDUP = {
    "countsketch": 10.0,
    "countmin": 10.0,
    "cauchy": 10.0,
    "frequency_vector": 10.0,
    "csss": 10.0,
    "alpha_l0": 10.0,
    "alpha_l1_strict": 8.0,
    "alpha_support": 8.0,
    "inner_product": 8.0,
    "sampled_frequencies": 8.0,
    "misra_gries": 8.0,
    "alpha_l1_sampler": 8.0,
}

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"

#: Battery runs behind every artifact figure (as in bench_service.py):
#: a single run read the skew gate's countmin at 1.75-2.79x against its
#: 2.0x bar, so only a median can gate.
RUNS = 5

#: The gated figures: :func:`median_report` records each one's IQR
#: across runs beside its median.
GATED_KEYS = (
    "speedup", "coalesce_speedup", "session_over_offline", "kernel_speedup",
)


def _streams(m: int):
    """The benchmark streams per kind (insertion: skew 1.5 zipf — the
    heavy-hitter regime Misra-Gries is built for)."""
    return {
        "general": cached_bounded_stream(N, m, ALPHA, seed=17, strict=False),
        "insertion": zipfian_insertion_stream(N, m, skew=1.5, seed=17),
    }


def _measure_all(chunk_size: int = CHUNK, m: int = M,
                 scalar_prefix: int = SCALAR_PREFIX,
                 with_skew: bool = True,
                 with_session: bool = True) -> dict:
    streams = _streams(m)
    scalar_streams = {
        kind: type(s)(s.n, list(s)[:scalar_prefix])
        for kind, s in streams.items()
    }
    results = {}
    for name, (_, _, kind) in SKETCHES.items():
        make = _factory(name)
        scalar = measure_throughput(
            scalar_streams[kind],
            make,
            chunk_size=chunk_size,
            force_scalar=True,
            repeats=3,
        )
        batch = measure_throughput(
            streams[kind],
            make,
            chunk_size=chunk_size,
            repeats=3,
        )
        row = {
            "scalar_updates_per_sec": int(round(scalar.updates_per_sec)),
            "batch_updates_per_sec": int(round(batch.updates_per_sec)),
            "speedup": round(batch.updates_per_sec / scalar.updates_per_sec, 1),
        }
        if supports_plan(make()):
            # The batch figure above is the default engine path (plans
            # on); record the planless path next to it so the plan
            # layer's contribution stays visible across PRs.
            uncoalesced = measure_throughput(
                streams[kind],
                make,
                chunk_size=chunk_size,
                planless=True,
                repeats=3,
            )
            row["uncoalesced_updates_per_sec"] = int(
                round(uncoalesced.updates_per_sec)
            )
            row["coalesce_speedup"] = round(
                batch.updates_per_sec / uncoalesced.updates_per_sec, 2
            )
        results[name] = row
    report = {
        "n": N,
        "m": m,
        "alpha": ALPHA,
        "chunk_size": chunk_size,
        "scalar_prefix": scalar_prefix,
        "results": results,
    }
    if with_session:
        report["session"] = _measure_session(chunk_size, m)
    if with_skew:
        report["skew_sweep"] = _measure_skew(chunk_size, m)
    report["kernels"] = _measure_kernels(chunk_size, m)
    return report


#: The compiled-backend section: kernel-dispatching structures plus
#: alpha_support, which has no fused update kernel but rides the C
#: Horner hash through the shared hashing layer.
KERNEL_STRUCTURES = (
    "countsketch", "countmin", "ams", "cauchy", "csss", "alpha_support",
)

#: Acceptance (hard-gated in the artifact test when a toolchain
#: exists): >= 2x kernel-over-NumPy on >= 3 of these, and
#: ``identical_states`` on every row — the backend is a pure
#: throughput lever, never an accuracy one.
KERNEL_ACCEPT_NAMES = (
    "cauchy", "ams", "countsketch", "csss", "alpha_support",
)
KERNEL_ACCEPT_SPEEDUP = 2.0
KERNEL_ACCEPT_MIN_STRUCTURES = 3


def _measure_kernels(chunk_size: int = CHUNK, m: int = M) -> dict:
    """Kernel vs pure-NumPy batch rates per structure (best of 3 each),
    with a bitwise state-identity check between the two replays.  When
    no compiled backend is available the section records that honestly
    and skips the rates."""
    with kernels.override("auto") as probe:
        active = probe.active
        info = probe.describe()
    section = {
        "active": bool(active),
        "mode": info["mode"],
        "compiler": info["compiler"],
        "reason": info["reason"],
        "results": {},
    }
    if not active:
        return section
    streams = _streams(m)
    for name in KERNEL_STRUCTURES:
        kind = SKETCHES[name][2]
        make = _factory(name)
        with kernels.override("off"):
            plain = measure_throughput(
                streams[kind], make, chunk_size=chunk_size, repeats=3,
            )
            want = replay(streams[kind], make(), chunk_size=chunk_size)
        with kernels.override("auto"):
            fused = measure_throughput(
                streams[kind], make, chunk_size=chunk_size, repeats=3,
            )
            got = replay(streams[kind], make(), chunk_size=chunk_size)
        section["results"][name] = {
            "numpy_updates_per_sec": int(round(plain.updates_per_sec)),
            "kernel_updates_per_sec": int(round(fused.updates_per_sec)),
            "kernel_speedup": round(
                fused.updates_per_sec / plain.updates_per_sec, 2
            ),
            "identical_states": payload_equal(snapshot(want), snapshot(got)),
        }
    return section


#: The push-mode battery: a representative mixed battery (two
#: coalescing linear sketches + the paper's own sampler) pushed at a
#: granularity that straddles chunk boundaries.
SESSION_BATTERY = ("countsketch", "countmin", "csss")
SESSION_PUSH_SIZE = 1000

#: Acceptance: push-mode ingestion must stay within 10% of the
#: offline ``replay_many`` rate at chunk 4096 (the facade's price tag).
SESSION_MIN_RATIO = 0.9

#: Fresh offline/session replay pairs per section run.  The two sides
#: of a pair run back to back, so host drift between them cancels in
#: the pair's ratio, and the section reports the median pair.
SESSION_PAIRS = 3


def _measure_session(chunk_size: int = CHUNK, m: int = M) -> dict:
    """Offline ``replay_many`` vs ``StreamSession.push`` on the same
    battery — the facade acceptance figure, plus a hard bit-identity
    check between the two paths."""
    stream = _streams(m)["general"]
    factories = [_factory(name) for name in SESSION_BATTERY]
    offline, pushed = [], []
    for _ in range(SESSION_PAIRS):
        offline.append(measure_offline_many(
            stream, factories, chunk_size=chunk_size).updates_per_sec)
        pushed.append(measure_session_throughput(
            stream, factories, chunk_size=chunk_size,
            push_size=SESSION_PUSH_SIZE).updates_per_sec)
    # Bit-identity of the two paths (the session contract).
    from repro.api.session import StreamSession
    from repro.streams.engine import replay_many

    offline_sketches = [make() for make in factories]
    replay_many(stream, offline_sketches, chunk_size=chunk_size)
    session = StreamSession(stream.n, chunk_size=chunk_size)
    for i, make in enumerate(factories):
        session.add(f"sketch_{i}", make())
    items, deltas = stream.as_arrays()
    for pos in range(0, len(items), SESSION_PUSH_SIZE):
        session.push(items[pos:pos + SESSION_PUSH_SIZE],
                     deltas[pos:pos + SESSION_PUSH_SIZE])
    session.flush()
    identical = all(
        np.array_equal(getattr(off, attr), getattr(session[f"sketch_{i}"], attr))
        for i, off in enumerate(offline_sketches)
        for attr in ("table",) if hasattr(off, "table")
    ) and np.array_equal(offline_sketches[2].pos, session["sketch_2"].pos) \
      and np.array_equal(offline_sketches[2].neg, session["sketch_2"].neg)
    return {
        "battery": list(SESSION_BATTERY),
        "m": m,
        "push_size": SESSION_PUSH_SIZE,
        "offline_updates_per_sec": int(round(statistics.median(offline))),
        "session_updates_per_sec": int(round(statistics.median(pushed))),
        "session_over_offline": round(statistics.median(
            [p / o for p, o in zip(pushed, offline)]), 3),
        "identical_states": bool(identical),
    }


#: The skew sweep measures the chunk-planning layer where it matters:
#: structures that coalesce duplicates (CountSketch/CountMin/AMS) or
#: reuse unique-item hash evaluations (Cauchy, CSSS), across duplicate
#: densities from uniform (few dups per chunk) to zipf 2.0 (a handful
#: of distinct items per chunk).  FrequencyVector is absent: it has no
#: plan path (its batch path already is a dense per-item sum).
SKEW_STRUCTURES = (
    "countsketch", "countmin", "ams", "cauchy", "csss",
)
SKEW_LEVELS = (0.0, 1.1, 1.5, 2.0)  # 0.0 = uniform

#: Acceptance: on the zipf(1.5) insertion stream at chunk 4096, at
#: least this many planned structures must gain >= 2x over the planless
#: batch path (the coalescing/hash-reuse headline).
SKEW_ACCEPT_LEVEL = 1.5
SKEW_ACCEPT_MIN_STRUCTURES = 4
SKEW_ACCEPT_SPEEDUP = 2.0


def _distinct_per_chunk(stream, chunk_size: int) -> float:
    items, _ = stream.as_arrays()
    counts = [
        len(np.unique(items[start:start + chunk_size]))
        for start in range(0, len(items), chunk_size)
    ]
    return float(np.mean(counts))


def _measure_skew(chunk_size: int = CHUNK, m: int = M) -> dict:
    """Coalesced vs uncoalesced updates/sec per structure across the
    skew ladder, with the distinct-items-per-chunk figure that makes
    the coalescing win interpretable."""
    sweep = {}
    for skew in SKEW_LEVELS:
        stream = zipfian_insertion_stream(N, m, skew=skew, seed=17)
        rows = {}
        for name in SKEW_STRUCTURES:
            make = _factory(name)
            coalesced = measure_throughput(
                stream, make, chunk_size=chunk_size, repeats=3,
            )
            uncoalesced = measure_throughput(
                stream, make, chunk_size=chunk_size, planless=True,
                repeats=3,
            )
            rows[name] = {
                "coalesced_updates_per_sec": int(
                    round(coalesced.updates_per_sec)
                ),
                "uncoalesced_updates_per_sec": int(
                    round(uncoalesced.updates_per_sec)
                ),
                "coalesce_speedup": round(
                    coalesced.updates_per_sec / uncoalesced.updates_per_sec,
                    2,
                ),
            }
        sweep[f"skew_{skew}"] = {
            "skew": skew,
            "distinct_per_chunk": round(
                _distinct_per_chunk(stream, chunk_size), 1
            ),
            "results": rows,
        }
    return sweep


#: Sections ``bench_service.py`` merges into the same artifact; a
#: throughput regeneration carries them over unchanged.
SERVICE_SECTIONS = ("service", "service_faults")


def write_artifact(report: dict) -> None:
    """Write ``report`` as the artifact, replacing every section except
    :data:`SERVICE_SECTIONS`, which are kept from the existing file."""
    previous = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    kept = {key: previous[key] for key in SERVICE_SECTIONS if key in previous}
    ARTIFACT.write_text(json.dumps({**report, **kept}, indent=2) + "\n")


def gate_failures(report: dict) -> list[str]:
    """Every acceptance bar ``report`` misses (empty when all pass).

    The one gate for the artifact: the script writes
    ``BENCH_throughput.json`` only when this is empty, and the pytest
    entry asserts that it is."""
    failures = []
    for name, bar in REQUIRED_SPEEDUP.items():
        speedup = report["results"][name]["speedup"]
        if speedup < bar:
            failures.append(
                f"{name}: batch path only {speedup}x the scalar loop "
                f"(need >= {bar}x at chunk {CHUNK})"
            )
    session = report["session"]
    if not session["identical_states"]:
        failures.append(
            "push-mode session states diverged from offline replay_many"
        )
    if session["session_over_offline"] < SESSION_MIN_RATIO:
        failures.append(
            f"push-mode ingestion only {session['session_over_offline']}x "
            f"the offline replay_many rate (need >= {SESSION_MIN_RATIO}x "
            f"at chunk {CHUNK})"
        )
    skew_rows = report["skew_sweep"][f"skew_{SKEW_ACCEPT_LEVEL}"]["results"]
    winners = [
        name for name, row in skew_rows.items()
        if row["coalesce_speedup"] >= SKEW_ACCEPT_SPEEDUP
    ]
    if len(winners) < SKEW_ACCEPT_MIN_STRUCTURES:
        failures.append(
            f"chunk planning gained >= {SKEW_ACCEPT_SPEEDUP}x on only "
            f"{winners} at zipf({SKEW_ACCEPT_LEVEL}) "
            f"(need {SKEW_ACCEPT_MIN_STRUCTURES} structures)"
        )
    kern = report["kernels"]
    if kern["active"]:
        for name, row in kern["results"].items():
            if not row["identical_states"]:
                failures.append(
                    f"{name}: compiled kernel replay diverged from the "
                    f"NumPy path (bit-identity is the backend's contract)"
                )
        winners = [
            name for name in KERNEL_ACCEPT_NAMES
            if kern["results"][name]["kernel_speedup"]
            >= KERNEL_ACCEPT_SPEEDUP
        ]
        if len(winners) < KERNEL_ACCEPT_MIN_STRUCTURES:
            failures.append(
                f"compiled kernels gained >= {KERNEL_ACCEPT_SPEEDUP}x on "
                f"only {winners} of {KERNEL_ACCEPT_NAMES} "
                f"(need {KERNEL_ACCEPT_MIN_STRUCTURES})"
            )
    return failures


def _fold(values: list):
    """One report node from its value in every run (see
    :func:`median_report`)."""
    first = values[0]
    if isinstance(first, dict):
        out = {}
        for key in first:
            column = [value[key] for value in values]
            out[key] = _fold(column)
            if key in GATED_KEYS:
                q1, _, q3 = statistics.quantiles(column, n=4,
                                                 method="inclusive")
                out[f"{key}_iqr"] = round(q3 - q1, 3)
        return out
    if isinstance(first, bool):
        return all(values)
    if isinstance(first, int):
        return int(round(statistics.median(values)))
    if isinstance(first, float):
        return round(statistics.median(values), 3)
    return first  # labels and settings: the same in every run


def median_report(runs: list[dict]) -> dict:
    """Fold same-schema run reports into the artifact report: every
    number becomes its median across runs, every :data:`GATED_KEYS`
    figure gains its IQR at ``<key>_iqr``, and a bit-identity flag holds
    only if it held in every run."""
    return {**_fold(runs), "runs": len(runs)}


def write_if_passing(report: dict) -> list[str]:
    """Write ``report`` as the artifact iff it passes every gate;
    returns the gate failures (the committed file is left untouched
    when there are any)."""
    failures = gate_failures(report)
    if not failures:
        write_artifact(report)
    return failures


def test_throughput_artifact():
    """Measure :data:`RUNS` battery runs and assert every acceptance
    gate on their medians; the artifact is left as it is."""
    failures = gate_failures(
        median_report([_measure_all() for _ in range(RUNS)]))
    assert not failures, "\n".join(failures)


#: Smoke-mode sizing: small enough for CI latency, large enough that a
#: vectorised path still clearly beats the scalar loop.
SMOKE_M = 6_000
SMOKE_PREFIX = 600
SMOKE_BAR = 2.0


def run_smoke() -> int:
    """Tiny-size regression gate: every acceptance structure must still
    beat the scalar loop by ``SMOKE_BAR``x — on the default (planned /
    coalesced) path AND, where a plan path exists, on the planless
    batch path, so a regression in either layer fails the build.  No
    artifact is written — this guards the *paths*, not the recorded
    figures."""
    report = _measure_all(
        chunk_size=1024, m=SMOKE_M, scalar_prefix=SMOKE_PREFIX,
        with_skew=False,
    )
    failures = []
    # The facade gate: push-mode must be bit-identical to replay_many
    # (its ratio is asserted only in the full artifact run — smoke
    # sizes are too small for a wall-clock bar).
    if not report["session"]["identical_states"]:
        print("session FAIL: push-mode states diverged from replay_many")
        failures.append("session")
    width = max(len(k) for k in report["results"])
    for name in REQUIRED_SPEEDUP:
        row = report["results"][name]
        ok = row["speedup"] >= SMOKE_BAR
        planless = ""
        if "uncoalesced_updates_per_sec" in row:
            raw_speedup = (
                row["uncoalesced_updates_per_sec"]
                / max(1, row["scalar_updates_per_sec"])
            )
            ok = ok and raw_speedup >= SMOKE_BAR
            planless = (
                f"  planless {row['uncoalesced_updates_per_sec']:>10,}/s"
            )
        status = "ok" if ok else "FAIL"
        print(
            f"{name:<{width}}  scalar {row['scalar_updates_per_sec']:>10,}/s"
            f"  batch {row['batch_updates_per_sec']:>10,}/s"
            f"  speedup {row['speedup']:>6.1f}x{planless}  [{status}]"
        )
        if not ok:
            failures.append(name)
    kern = report["kernels"]
    if kern["active"]:
        # Speed bars are meaningless at smoke sizes; bit-identity of
        # the two backends is not — gate it on every structure.
        broken = [
            name for name, row in kern["results"].items()
            if not row["identical_states"]
        ]
        if broken:
            print(f"kernels FAIL: backend diverged from NumPy on {broken}")
            failures.append("kernels")
        else:
            print(f"kernels ok: both backends bit-identical on "
                  f"{len(kern['results'])} structures")
    else:
        print(f"kernels skipped: backend inactive ({kern['reason']})")
    if failures:
        print(f"smoke FAILED (< {SMOKE_BAR}x at m={SMOKE_M}): {failures}")
        return 1
    print(f"smoke ok: all {len(REQUIRED_SPEEDUP)} vectorised paths "
          f">= {SMOKE_BAR}x at m={SMOKE_M} (planned + planless)")
    return 0


#: --check-floors: fail when a structure's measured batch rate falls
#: below this fraction of its recorded BENCH_throughput.json figure.
FLOOR_FRACTION = 0.5


def run_floor_check() -> int:
    """Throughput floor gate: re-measure every recorded structure's
    batch rate (same sizes as the artifact, scalar baselines skipped)
    and fail if any falls below ``FLOOR_FRACTION`` of the recorded
    updates/sec.  Wall-clock sensitive by nature — CI runs it as a
    non-blocking job, so a noisy host warns instead of breaking."""
    artifact = json.loads(ARTIFACT.read_text())
    recorded = artifact["results"]
    streams = _streams(M)
    failures = []
    width = max(len(k) for k in recorded)
    for name, row in recorded.items():
        kind = SKETCHES[name][2]
        measured = measure_throughput(
            streams[kind], _factory(name), chunk_size=CHUNK, repeats=3,
        ).updates_per_sec
        floor = FLOOR_FRACTION * row["batch_updates_per_sec"]
        status = "ok" if measured >= floor else "FAIL"
        print(
            f"{name:<{width}}  recorded "
            f"{row['batch_updates_per_sec']:>10,}/s  measured "
            f"{measured:>12,.0f}/s  floor {floor:>12,.0f}/s  [{status}]"
        )
        if measured < floor:
            failures.append(name)
    kern = artifact.get("kernels", {})
    if kern.get("active") and kernels.backend().active:
        # Kernel-rate floors only apply where both the recording host
        # and this host have a working backend.
        with kernels.override("auto"):
            for name, row in kern["results"].items():
                measured = measure_throughput(
                    streams[SKETCHES[name][2]], _factory(name),
                    chunk_size=CHUNK, repeats=3,
                ).updates_per_sec
                floor = FLOOR_FRACTION * row["kernel_updates_per_sec"]
                status = "ok" if measured >= floor else "FAIL"
                print(
                    f"{name + ' (kernel)':<{width + 9}}  recorded "
                    f"{row['kernel_updates_per_sec']:>10,}/s  measured "
                    f"{measured:>12,.0f}/s  floor {floor:>12,.0f}/s"
                    f"  [{status}]"
                )
                if measured < floor:
                    failures.append(f"{name} (kernel)")
    if failures:
        print(f"floor check FAILED (< {FLOOR_FRACTION}x recorded): "
              f"{failures}")
        return 1
    print(f"floor check ok: all {len(recorded)} structures >= "
          f"{FLOOR_FRACTION}x their recorded rates")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-size CI gate; no artifact write")
    parser.add_argument("--check-floors", action="store_true",
                        help="fail if any structure regresses below "
                             f"{FLOOR_FRACTION}x its recorded "
                             "BENCH_throughput.json rate (no artifact "
                             "write)")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke()
    if args.check_floors:
        return run_floor_check()
    report = median_report([_measure_all() for _ in range(RUNS)])
    width = max(len(k) for k in report["results"])
    for name, row in report["results"].items():
        extra = ""
        if "coalesce_speedup" in row:
            extra = f"  coalesce x{row['coalesce_speedup']:.2f}"
        print(
            f"{name:<{width}}  scalar {row['scalar_updates_per_sec']:>10,}/s"
            f"  batch {row['batch_updates_per_sec']:>10,}/s"
            f"  speedup {row['speedup']:>6.1f}x{extra}"
        )
    session = report["session"]
    print(
        f"session push-mode ({'+'.join(session['battery'])}, push "
        f"{session['push_size']}): offline "
        f"{session['offline_updates_per_sec']:,}/s  pushed "
        f"{session['session_updates_per_sec']:,}/s  ratio "
        f"x{session['session_over_offline']:.3f} "
        f"(IQR {session['session_over_offline_iqr']:.3f})  "
        f"identical={session['identical_states']}"
    )
    for key, block in report["skew_sweep"].items():
        rows = block["results"]
        gains = ", ".join(
            f"{name} x{rows[name]['coalesce_speedup']:.2f}"
            for name in SKEW_STRUCTURES
        )
        print(f"{key:<12} distinct/chunk {block['distinct_per_chunk']:>7,.1f}"
              f"  {gains}")
    kern = report["kernels"]
    if kern["active"]:
        for name, row in kern["results"].items():
            print(
                f"kernel  {name:<{width}}  numpy "
                f"{row['numpy_updates_per_sec']:>10,}/s  fused "
                f"{row['kernel_updates_per_sec']:>10,}/s  speedup "
                f"x{row['kernel_speedup']:.2f}  "
                f"identical={row['identical_states']}"
            )
    else:
        print(f"kernel  backend inactive ({kern['reason']})")
    failures = write_if_passing(report)
    for failure in failures:
        print(f"gate FAIL (median of {RUNS} runs): {failure}")
    if failures:
        print(f"{ARTIFACT.name} not written: {len(failures)} gate(s) failed")
        return 1
    print(f"wrote {ARTIFACT} (medians of {RUNS} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
