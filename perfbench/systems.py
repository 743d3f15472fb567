"""Inputs, systems under test, and answer checks for ``run.py``.

Everything the program sees is generated here from the run's seed with
plain NumPy, independent of the program's own stream generators, so a
change to the program never changes its inputs.

A *system* is what a user of the library stands up: a
:class:`repro.api.session.StreamSession` tracking the benchmark battery
in-process, or the same battery behind the HTTP + WebSocket service,
fed by a stamped (exactly-once) :class:`AsyncSessionClient`.  Each
system exposes the same four steps -- ``open_round``, ``ingest`` (one
user-level call), ``finish`` and ``query`` -- so the measurement loop in
``run.py`` is shared by every workload.
"""

from __future__ import annotations

import asyncio

import numpy as np

#: Each stream parameter is a default or a benchmark setting the
#: repository already records (README.md lists the sources).
#: ``repro serve --n``: served sessions cover 2^16 items.
UNIVERSE = 1 << 16
#: bench_throughput's sharded section replays 2^19 updates of the
#: bounded-deletion generator at alpha = 4.  One round ingests the
#: whole stream into a fresh system, then asks every query once.
UPDATES = 1 << 19
#: Session dispatch granularity (the library default).
CHUNK = 4096
#: ``--alpha`` of the CLI and ALPHA of bench_throughput.  The stream's
#: own alpha is (I + D) / (I - D) = 4 exactly, and the sketches are
#: told the same bound.
ALPHA = 4.0
#: ``Params.eps``, the registry default every spec builds with.
EPS = 1 / 16
#: A deletion follows its insertion by a geometric(0.05) number of
#: insertions (mean 20), the delay ``bounded_deletion_stream`` uses.
DELETE_DELAY_P = 0.05
#: The consumer battery: exact ground truth, the CountSketch baseline,
#: and the paper's heavy hitters (Theorem 4), strict L1 (Figure 4) and
#: L0 (Figure 7) estimators.
BATTERY = ("frequency_vector", "countsketch", "heavy_hitters",
           "l1_strict", "alpha_l0")


def make_stream(seed: int, skew: float) -> tuple[np.ndarray, np.ndarray]:
    """``UPDATES`` unit updates over ``UNIVERSE`` items, shaped like
    ``repro.streams.generators.bounded_deletion_stream(strict=True)``,
    the CLI's ``--workload zipf``.

    Insertion keys are zipf(``skew``) over a seeded permutation of the
    universe (``skew == 0``: uniform).  A fraction q = (alpha - 1) /
    (alpha + 1) of the inserted occurrences, chosen uniformly, is
    deleted, each a geometric(``DELETE_DELAY_P``) number of insertions
    after it was inserted, so no frequency is ever negative.
    """
    rng = np.random.default_rng(seed)
    q = (ALPHA - 1.0) / (ALPHA + 1.0)
    insertions = int(round(UPDATES / (1.0 + q)))
    deletions = UPDATES - insertions
    if skew > 0:
        weights = np.arange(1, UNIVERSE + 1, dtype=np.float64) ** -skew
        ranks = rng.choice(UNIVERSE, size=insertions, p=weights / weights.sum())
        keys = rng.permutation(UNIVERSE)[ranks]
    else:
        keys = rng.integers(0, UNIVERSE, size=insertions)
    deleted = np.sort(rng.choice(insertions, size=deletions, replace=False))
    # A deletion sorts just after the insertion it waits for.
    later = deleted + rng.geometric(DELETE_DELAY_P, size=deletions) + 0.5
    order = np.argsort(np.concatenate([np.arange(insertions, dtype=np.float64),
                                       later]), kind="stable")
    items = np.concatenate([keys, keys[deleted]]).astype(np.int64)[order]
    deltas = np.concatenate([
        np.ones(insertions, dtype=np.int64),
        -np.ones(deletions, dtype=np.int64),
    ])[order]
    return np.ascontiguousarray(items), np.ascontiguousarray(deltas)


def _normalise(value):
    """Wire and in-process answers in one comparable form."""
    if isinstance(value, (set, frozenset, list, tuple)):
        return tuple(sorted(int(v) for v in value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


class Truth:
    """Exact answers for one stream, and the tolerances each estimate
    must meet.  Tolerances are the paper's guarantees widened enough to
    hold for every seed."""

    def __init__(self, items: np.ndarray, deltas: np.ndarray) -> None:
        self.f = np.bincount(items, weights=deltas,
                             minlength=UNIVERSE).astype(np.int64)
        self.l1 = int(np.abs(self.f).sum())
        self.l0 = int(np.count_nonzero(self.f))
        self.l2 = float(np.sqrt(np.square(self.f.astype(np.float64)).sum()))
        self.heavy = set(np.flatnonzero(self.f >= EPS * self.l1).tolist())

    def problems(self, answers: dict) -> list[str]:
        """Every way ``answers`` (normalised) misses the truth."""
        out = []
        if answers["frequency_vector"] != self.l1:
            out.append(f"frequency_vector {answers['frequency_vector']} "
                       f"!= exact L1 {self.l1}")
        if abs(answers["l1_strict"] - self.l1) > EPS * self.l1:
            out.append(f"l1_strict {answers['l1_strict']} not within "
                       f"{EPS} of {self.l1}")
        if not 2 / 3 <= answers["countsketch"] / self.l2 <= 1.5:
            out.append(f"countsketch L2 {answers['countsketch']} vs "
                       f"{self.l2:.1f}")
        if not 0.5 <= answers["alpha_l0"] / self.l0 <= 2.0:
            out.append(f"alpha_l0 {answers['alpha_l0']} vs {self.l0}")
        reported = set(answers["heavy_hitters"])
        if not self.heavy <= reported:
            out.append(f"heavy_hitters missed {self.heavy - reported}")
        light = [i for i in reported if self.f[i] < EPS / 4 * self.l1]
        if light:
            out.append(f"heavy_hitters reported light items {light}")
        return out


class SessionSystem:
    """The battery in an in-process :class:`StreamSession`."""

    def __init__(self, seed: int) -> None:
        from repro.api.session import StreamSession

        self._make = StreamSession
        self.seed = seed
        self.session = None

    def open_round(self) -> None:
        session = self._make(UNIVERSE, seed=self.seed, chunk_size=CHUNK)
        for spec in BATTERY:
            session.track(spec, alpha=ALPHA, eps=EPS)
        self.session = session

    def consumers(self) -> dict:
        return self.session.results()

    def ingest(self, items: np.ndarray, deltas: np.ndarray) -> None:
        self.session.push(items, deltas)

    def finish(self) -> None:
        self.session.flush()

    def query(self, consumer: str):
        return _normalise(self.session.query(consumer))

    def frequencies(self) -> np.ndarray:
        return self.session["frequency_vector"].f

    def close(self) -> None:
        self.session = None


class ServiceSystem:
    """The battery behind the HTTP + WebSocket service on a background
    thread, fed lockstep by one stamped WebSocket client: every ingest
    call is one INGEST frame out and its ack back."""

    def __init__(self, seed: int) -> None:
        from repro.service import (MetricsRegistry, ServerThread,
                                   ServiceClient, ServiceMetrics,
                                   SketchService)

        self.seed = seed
        self.service = SketchService(ServiceMetrics(MetricsRegistry()))
        self.server = ServerThread(self.service).start()
        try:
            self.http = ServiceClient(self.server.host, self.server.port,
                                      timeout=30.0)
        except BaseException:
            self.server.stop()
            raise
        self.loop = asyncio.new_event_loop()
        self.rounds = 0
        self.current = None
        self.ws = None

    def open_round(self) -> None:
        from repro.service import AsyncSessionClient

        self._close_round()
        self.rounds += 1
        self.current = f"round-{self.rounds}"
        self.http.create_session(
            self.current, n=UNIVERSE, seed=self.seed, chunk_size=CHUNK,
            params={"alpha": ALPHA, "eps": EPS}, track=list(BATTERY),
        )
        self.ws = AsyncSessionClient(self.server.host, self.server.port,
                                     self.current, client_id="perfbench")
        self.loop.run_until_complete(self.ws.connect())

    def consumers(self) -> dict:
        return self.service.get(self.current).results()

    def ingest(self, items: np.ndarray, deltas: np.ndarray) -> None:
        self.loop.run_until_complete(self.ws.ingest(items, deltas))

    def finish(self) -> None:
        pass  # a query flushes the server's partial chunk

    def query(self, consumer: str):
        return _normalise(self.loop.run_until_complete(
            self.ws.query(consumer)))

    def frequencies(self) -> np.ndarray:
        from repro.api.session import StreamSession
        from repro.streams.io import payload_from_bytes

        restored = StreamSession.restore(
            payload_from_bytes(self.http.snapshot(self.current)))
        return restored["frequency_vector"].f

    def _close_round(self) -> None:
        if self.ws is not None:
            self.loop.run_until_complete(self.ws.close())
            self.ws = None
        if self.current is not None:
            self.http.delete_session(self.current)
            self.current = None

    def close(self) -> None:
        try:
            self._close_round()
        finally:
            self.loop.close()
            self.http.close()
            self.server.stop()


#: Workload name -> (system, zipf skew, updates per ingest call, kernel
#: backend mode).  Skew 1.5 is bench_throughput's planning acceptance
#: level and 0.0 the uniform rung of its skew sweep.  Calls of 4096 are
#: bench_service's frame size and the chunk size.  ``uniform`` calls
#: with 3000, which does not divide the chunk, so every call runs the
#: session's partial-chunk buffer; README.md says why not 1000.
WORKLOADS = {
    "zipf": (SessionSystem, 1.5, CHUNK, "on"),
    "uniform": (SessionSystem, 0.0, 3000, "on"),
    "numpy": (SessionSystem, 1.5, CHUNK, "off"),
    "service": (ServiceSystem, 1.5, CHUNK, "on"),
}
