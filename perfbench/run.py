"""End-to-end and per-layer benchmark of the bounded-deletion sketch stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 10 --trace 0

A run generates a seeded stream (``systems.make_stream``), stands up the
workload's system, ingests the stream once untimed (caches fill, lazy
set-up finishes), then repeats *rounds* until ``--seconds`` have passed:
each round ingests the whole stream into a freshly built system through
user-level ingest calls, then asks every consumer's query once.  Every
answer is checked against the exact ground truth and against the first
round's answer (same inputs, same seeds: the answers must be
bit-identical), and the last round's exact frequency vector must match
the stream.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer spans of ``layers.py`` and prints the per-layer metrics instead.
Set-up time is measured in fresh interpreters (``--setup-probe``), so it
includes importing the library and loading the compiled kernels.  Every
time is scaled by the calibration loop timed around it
(``calibrate.py``), which takes out the host's speed changes.

The compiled kernels are built into ``.bench_build/`` inside the
checkout.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import systems
from calibrate import Calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: A run always measures at least this many rounds, however short
#: ``--seconds`` is.
MIN_ROUNDS = 3


def load_library(kernel_mode: str) -> None:
    """Put the checkout's ``src`` first on the path, with the kernel
    cache inside the checkout, and import the library from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source under {SRC}")
    os.environ["REPRO_KERNELS"] = kernel_mode
    os.environ["REPRO_KERNELS_CACHE"] = str(ROOT / ".bench_build" / "kernels")
    os.environ.pop("REPRO_KERNELS_SANITIZE", None)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from a cold import to a system ready for its first
    ingest call, in this (fresh) interpreter."""
    system_cls, _, _, kernel_mode = systems.WORKLOADS[workload]
    start = time.perf_counter()
    load_library(kernel_mode)
    from repro import kernels

    kernels.backend()
    system = system_cls(seed)
    system.open_round()
    elapsed = time.perf_counter() - start
    system.close()
    return elapsed


def measure_setup(workload: str, seed: int, calibration) -> float:
    samples = []
    before = calibration.sample()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        after = calibration.sample()
        samples.append(float(proc.stdout.strip().splitlines()[-1])
                       * Calibration.scale(before, after))
        before = after
    return statistics.median(samples)


class Round:
    """One round's measurements and answers."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.ingest_seconds = 0.0
        self.query_seconds = 0.0
        self.answers: dict = {}
        self.attempted = 0
        self.failed = 0
        #: Calibration factor for this round's times (see calibrate.py).
        self.scale = 1.0


def _call(tracer, span: str, fn, *args):
    """``fn(*args)`` -> (result, seconds, ok); failures are reported on
    stderr and counted by the caller, never raised."""
    start = time.perf_counter()
    token = tracer.begin() if tracer is not None else None
    try:
        return fn(*args), time.perf_counter() - start, True
    except Exception:  # the run reports every failed call
        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter() - start, False
    finally:
        if tracer is not None:
            tracer.end(span, token)


def run_round(system, batches, tracer=None) -> Round:
    r = Round()
    system.open_round()
    if tracer is not None:
        tracer.consumers = {id(sketch): name
                            for name, sketch in system.consumers().items()}
    for items, deltas in batches:
        _, seconds, ok = _call(tracer, "ingest_call", system.ingest,
                               items, deltas)
        r.latencies.append(seconds)
        r.attempted += 1
        r.failed += not ok
    start = time.perf_counter()
    system.finish()
    r.ingest_seconds = sum(r.latencies) + time.perf_counter() - start
    for name in systems.BATTERY:
        answer, seconds, ok = _call(tracer, f"query.{name}", system.query,
                                    name)
        r.query_seconds += seconds
        r.attempted += 1
        r.failed += not ok
        if ok:
            r.answers[name] = answer
    return r


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    # Every metric is a median over rounds, so the few rounds a burst of
    # host contention lands in cannot drag the run's figures.
    def call_percentile_ms(q: float) -> float:
        return statistics.median(float(np.percentile(r.latencies, q))
                                 * r.scale for r in rounds) * 1e3

    rates = [systems.UPDATES / (r.ingest_seconds * r.scale) for r in rounds]
    return {
        "ingest_updates_per_s": (statistics.median(rates), "updates/s"),
        "ingest_call_p50_ms": (call_percentile_ms(50), "ms"),
        "ingest_call_p90_ms": (call_percentile_ms(90), "ms"),
        "query_all_ms": (statistics.median(
            r.query_seconds * r.scale for r in rounds) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(rounds: list[Round], tracer) -> dict:
    spans = tracer.merged()
    self_s, total_s, calls, counts = (spans["self"], spans["total"],
                                      spans["calls"], spans["counts"])
    updates = systems.UPDATES * len(rounds)
    scale = statistics.median(r.scale for r in rounds)

    def ns_per_update(seconds: float) -> tuple[float, str]:
        return seconds * scale / updates * 1e9, "ns/update"

    out = {
        "validate_ns_per_update": ns_per_update(self_s["validate"]),
        "session_ns_per_update": ns_per_update(self_s["session"]),
        "plan_ns_per_update": ns_per_update(self_s["plan"]),
        "hash_ns_per_update": ns_per_update(self_s["hash"]),
        "kernel_ns_per_update": ns_per_update(self_s["kernel"]),
    }
    for name in systems.BATTERY:
        out[f"feed_{name}_ns_per_update"] = ns_per_update(
            self_s[f"feed.{name}"])
    # Time an ingest call spends outside the session layer: the service's
    # client, transport, frame decode and dedup, or a bare call's cost.
    out["above_session_ns_per_update"] = ns_per_update(
        total_s["ingest_call"] - total_s["session"])
    for name in systems.BATTERY:
        span = f"query.{name}"
        out[f"query_{name}_ms"] = (
            total_s[span] * scale / max(1, calls[span]) * 1e3, "ms")
    dispatched = counts["kernel_taken"] + counts["kernel_declined"]
    out["kernel_taken_ratio"] = (
        counts["kernel_taken"] / max(1, dispatched), "ratio")
    out["plan_distinct_ratio"] = (
        counts["plan_distinct"] / max(1, counts["plan_items"]), "ratio")
    out["hash_items_per_update"] = (counts["hash_items"] / updates,
                                    "items/update")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(systems.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = args.seed % (1 << 31)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, seed)))
        return 0

    system_cls, skew, push, kernel_mode = systems.WORKLOADS[args.workload]
    load_library(kernel_mode)
    from repro import kernels

    kernels.backend()  # compiles into the cache on a checkout's first run
    items, deltas = systems.make_stream(seed, skew)
    truth = systems.Truth(items, deltas)
    batches = [(items[pos:pos + push], deltas[pos:pos + push])
               for pos in range(0, systems.UPDATES, push)]

    problems: list[str] = []
    tracer = None
    rounds: list[Round] = []
    system = system_cls(seed)
    try:
        warm = run_round(system, batches)
        problems += truth.problems(warm.answers) if not warm.failed else [
            "warm-up round had failed calls"]
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install(type(s) for s in system.consumers().values())
        calibration = Calibration()
        before = calibration.sample()
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(run_round(system, batches, tracer))
            after = calibration.sample()
            rounds[-1].scale = Calibration.scale(before, after)
            before = after
            if rounds[-1].answers != warm.answers:
                problems.append(f"round {len(rounds)} answers differ from "
                                "the warm-up round's")
        if not np.array_equal(system.frequencies(), truth.f):
            problems.append("final frequency vector differs from the stream")
    finally:
        if tracer is not None:
            tracer.uninstall()
        system.close()

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        metrics = per_layer_metrics(rounds, tracer)
    else:
        metrics = end_to_end_metrics(
            rounds, measure_setup(args.workload, seed, calibration))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
