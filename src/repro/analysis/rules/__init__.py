"""The ``repro lint`` rule battery.

One module per rule; ``all_rules()`` is the registry the CLI and the
test entry points run.  Adding a rule = adding a module here and
listing it below; rule ids are kebab-case and double as the pragma
key: ``# repro: allow[rule-id] -- justification``.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.lock_discipline import LockDiscipline
from repro.analysis.rules.no_wall_clock import NoWallClock
from repro.analysis.rules.overflow_discipline import OverflowDiscipline
from repro.analysis.rules.pickle_ban import PickleBan
from repro.analysis.rules.protocol_hygiene import ProtocolHygiene
from repro.analysis.rules.rng_discipline import RngDiscipline
from repro.analysis.rules.snapshot_completeness import (
    SnapshotCompleteness,
)

_RULE_CLASSES: tuple[type[Rule], ...] = (
    RngDiscipline,
    SnapshotCompleteness,
    LockDiscipline,
    OverflowDiscipline,
    ProtocolHygiene,
    NoWallClock,
    PickleBan,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in battery order."""
    return [cls() for cls in _RULE_CLASSES]


def rule_ids() -> list[str]:
    return [cls.id for cls in _RULE_CLASSES]


__all__ = [
    "all_rules",
    "rule_ids",
    "LockDiscipline",
    "NoWallClock",
    "OverflowDiscipline",
    "PickleBan",
    "ProtocolHygiene",
    "RngDiscipline",
    "SnapshotCompleteness",
]
