"""Counter substrate: Morris approximate counting and exact counters."""

from repro.counters.morris import MorrisCounter
from repro.counters.exact import ExactL1Counter, SignedCounter

__all__ = ["MorrisCounter", "ExactL1Counter", "SignedCounter"]
