"""no-wall-clock: core paths read time only through injected seams.

Sketch state is a pure function of the update stream — that is the
whole bit-identity contract.  A wall-clock read inside a core, sketch,
or stream path either (a) leaks nondeterminism into state, or (b) makes
the path untestable without real sleeps.  The house idiom is the
injected seam::

    class Checkpointer:
        def __init__(..., clock: Callable[[], float] = time.monotonic):
            self._clock = clock

The *reference* ``time.monotonic`` as a default argument is fine (no
call happens at import); what this rule flags is *calling*
``time.time()`` / ``time.monotonic()`` / ``time.perf_counter()`` /
``datetime.now()`` directly inside the deterministic modules
(``repro.core/sketches/streams/hashing/counters/api/space``).  The
service tier (latency metrics) and CLI are out of scope — wall time is
their job.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule, dotted_name

_SCOPES = (
    "repro.core", "repro.sketches", "repro.streams", "repro.hashing",
    "repro.counters", "repro.api", "repro.space",
)
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.datetime.now",
    "datetime.datetime.utcnow",
}


class NoWallClock(Rule):
    id = "no-wall-clock"
    summary = (
        "core/sketch/stream paths read time only via injected clock="
        " seams (default-argument references are the compliant idiom);"
        " direct time.time()/monotonic() calls are flagged"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for f in project.repro_files():
            if f.tree is None or not f.in_module(*_SCOPES):
                continue
            for node in ast.walk(f.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in _CLOCK_CALLS:
                    yield Finding(
                        f.path, node.lineno, node.col_offset, self.id,
                        f"direct {name}() call in a deterministic"
                        " module; inject the clock as a default"
                        " argument seam (clock: Callable[[], float] ="
                        f" {name}) and call clock()",
                    )
