"""Per-layer spans for traced runs (``--trace 1``).

Spans are recorded from the benchmark's side of each layer boundary:
:meth:`Tracer.install` wraps the program's entry points into each layer
(validation, the session buffer, chunk planning, per-consumer feeds,
k-wise hashing, compiled-kernel dispatch) for the duration of a traced
run, and the run loop opens its own spans around every ingest call and
query.  A span's *self time* is its duration minus the time of the
spans directly nested in it on the same thread, so the layer totals
partition the traced wall time instead of double counting it.

Wrapping costs a few hundred nanoseconds per call, which is why the
end-to-end metrics come from untraced runs only.  An entry point the
program no longer has fails the traced run: a layer that silently read
zero would look like a win.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

#: Kernel dispatch helpers: each returns None or False when it declines
#: the call and the caller falls back to NumPy.
KERNEL_ENTRY_POINTS = ("try_kwise", "try_table_update", "try_cauchy_fold",
                       "try_csss_scatter")


class _Totals:
    """One thread's accumulators (merged when the run ends)."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_Totals] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object, bool]] = []
        #: id(sketch) -> consumer name, for the top-level consumers of
        #: the current round (their nested components stay unattributed,
        #: so a consumer's feed span covers its whole update).
        self.consumers: dict[int, str] = {}
        #: Set while a consumer's feed span is open on this thread, so
        #: its own nested update calls open no second span.
        self._feeding = threading.local()

    # -- span bookkeeping ----------------------------------------------------
    def _totals(self) -> _Totals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = _Totals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def begin(self) -> float:
        self._totals().stack.append(0.0)
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        totals = self._totals()
        children = totals.stack.pop()
        totals.self_time[name] += duration - children
        totals.total_time[name] += duration
        totals.calls[name] += 1
        if totals.stack:
            totals.stack[-1] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self._totals().counts[name] += amount

    def merged(self) -> dict[str, dict]:
        out = {"self": defaultdict(float), "total": defaultdict(float),
               "calls": defaultdict(int), "counts": defaultdict(int)}
        with self._lock:
            threads = list(self._threads)
        for t in threads:
            for key, table in (("self", t.self_time),
                               ("total", t.total_time),
                               ("calls", t.calls), ("counts", t.counts)):
                for name, value in table.items():
                    out[key][name] += value
        return out

    # -- wrapping program entry points ---------------------------------------
    def _wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            raise AttributeError(f"perfbench: {owner.__name__}.{attr} is gone; "
                                 "update the layer map in layers.py")
        own = attr in vars(owner)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original, own))

    def _span(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = self.begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(name, start)
            return wrapper
        return make

    def _hash_span(self, fn):
        def wrapper(h, xs, *args, **kwargs):
            self.count("hash_items", len(xs))
            start = self.begin()
            try:
                return fn(h, xs, *args, **kwargs)
            finally:
                self.end("hash", start)
        return wrapper

    def _plan_span(self, fn):
        def wrapper(planner, items, deltas, *args, **kwargs):
            start = self.begin()
            try:
                return fn(planner, items, deltas, *args, **kwargs)
            finally:
                self.end("plan", start)
                # Counting distinct items costs as much as planning; its
                # own span keeps it out of the enclosing layer's time.
                start = self.begin()
                self.count("plan_items", len(items))
                self.count("plan_distinct", len(np.unique(items)))
                self.end("trace", start)
        return wrapper

    def _unique_span(self, fn):
        def wrapper(plan, *args, **kwargs):
            if getattr(plan, "_unique", None) is not None:
                return fn(plan, *args, **kwargs)  # already computed
            start = self.begin()
            try:
                return fn(plan, *args, **kwargs)
            finally:
                self.end("plan", start)
        return wrapper

    def _kernel_span(self, fn):
        def wrapper(*args, **kwargs):
            start = self.begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end("kernel", start)
                taken = result is not None and result is not False
                self.count("kernel_taken" if taken else "kernel_declined")
        return wrapper

    def _feed_span(self, fn):
        feeding = self._feeding

        def wrapper(sketch, *args, **kwargs):
            name = self.consumers.get(id(sketch))
            if name is None or getattr(feeding, "on", False):
                return fn(sketch, *args, **kwargs)
            feeding.on = True
            start = self.begin()
            try:
                return fn(sketch, *args, **kwargs)
            finally:
                self.end(f"feed.{name}", start)
                feeding.on = False
        return wrapper

    def install(self, consumer_types) -> None:
        """Wrap every layer entry point (idempotence is the caller's
        job: install once per traced run, :meth:`uninstall` after)."""
        import repro.kernels as kernels
        from repro.api import session
        from repro.hashing.kwise import KWiseHash
        from repro.streams import plan

        self._wrap(session.StreamSession, "push", self._span("session"))
        self._wrap(session, "as_update_arrays", self._span("validate"))
        self._wrap(plan, "as_update_arrays", self._span("validate"))
        self._wrap(plan.ChunkPlanner, "plan", self._plan_span)
        self._wrap(plan.ChunkPlan, "_build_unique", self._unique_span)
        self._wrap(KWiseHash, "hash_array", self._hash_span)
        for attr in KERNEL_ENTRY_POINTS:
            self._wrap(kernels, attr, self._kernel_span)
        for cls in set(consumer_types):
            # A consumer feeds through a plan, a batch, or both.
            feeds = [attr for attr in ("update_plan", "update_batch")
                     if hasattr(cls, attr)] or ["update_batch"]
            for attr in feeds:
                self._wrap(cls, attr, self._feed_span)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
