"""lock-discipline: shared mutable state is touched under ``_lock``.

``StreamSession`` and ``SketchService`` are the two concurrently
accessed objects in the package (WebSocket handlers, checkpointer
threads, and merging peers all reach into them).  Their locking
contract is simple and this rule makes it mechanical:

* every *public* method (including dunders and properties) that reads
  or writes one of the designated mutable attributes must do so inside
  ``with self._lock``;  private ``_``-prefixed helpers are exempt —
  they document themselves as called-under-lock;
* acquiring two instance locks in one ``with`` (the merge pattern) is
  only deadlock-free when both sides order the acquisition the same
  way, so any ``with a._lock, b._lock:`` must be preceded in the same
  function by the id-ordered ``sorted((...), key=id)`` assignment that
  ``StreamSession.merge`` established.

The guarded attribute sets are declared here rather than inferred:
they are the rule's contract, reviewed like code.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    parent_map,
    self_attribute,
)

#: module -> class -> attribute names that must be touched under _lock.
GUARDED: dict[str, dict[str, frozenset[str]]] = {
    "repro.api.session": {
        "StreamSession": frozenset({
            "_sketches", "_queries", "_spec_names", "_driver",
            "_buf_items", "_buf_deltas", "_fill", "_ingest_watermarks",
            "updates_processed",
        }),
    },
    "repro.service.server": {
        "SketchService": frozenset({"sessions", "_checkpointers"}),
    },
}

_LOCK_ATTR = "_lock"
_EXEMPT_METHODS = {"__init__", "__del__"}


def _lock_exprs(with_node: ast.With) -> list[ast.expr]:
    return [item.context_expr for item in with_node.items]


def _is_self_lock(expr: ast.expr) -> bool:
    return self_attribute(expr) == _LOCK_ATTR


def _is_any_lock(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Attribute) and expr.attr == _LOCK_ATTR


def _has_id_ordered_sort(fn: ast.FunctionDef) -> bool:
    """True when the function contains ``... = sorted(..., key=id)``."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and any(
                kw.arg == "key" and isinstance(kw.value, ast.Name)
                and kw.value.id == "id"
                for kw in node.keywords
            )
        ):
            return True
    return False


class LockDiscipline(Rule):
    id = "lock-discipline"
    summary = (
        "StreamSession/SketchService public methods must touch the"
        " designated mutable attributes under self._lock; two-lock"
        " acquisition must use the id-ordered sorted(..., key=id)"
        " pattern from merge()"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for f in project.repro_files():
            if f.tree is None:
                continue
            guarded_classes = GUARDED.get(f.module or "", {})
            for node in ast.walk(f.tree):
                if isinstance(node, ast.ClassDef):
                    guarded = guarded_classes.get(node.name)
                    if guarded is not None:
                        yield from self._check_class(f, node, guarded)
                    yield from self._check_two_lock(f, node)

    # -- public methods hold the lock ------------------------------------

    def _check_class(
        self, f, cls: ast.ClassDef, guarded: frozenset[str]
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            name = method.name
            is_dunder = name.startswith("__") and name.endswith("__")
            if name in _EXEMPT_METHODS:
                continue
            if name.startswith("_") and not is_dunder:
                continue  # private helper: documented called-under-lock
            parents = parent_map(method)
            id_ordered = _has_id_ordered_sort(method)
            reported: set[str] = set()
            for node in ast.walk(method):
                attr = self_attribute(node)
                if attr not in guarded or attr in reported:
                    continue
                if isinstance(parents.get(node), ast.Attribute):
                    pass  # self.x.y: still a touch of self.x — check it
                if self._under_lock(node, parents, id_ordered):
                    continue
                reported.add(attr)
                yield Finding(
                    f.path, node.lineno, node.col_offset, self.id,
                    f"{cls.name}.{name}() touches self.{attr} outside"
                    f" `with self.{_LOCK_ATTR}:` — concurrent"
                    " ingest/query/checkpoint threads race here",
                )

    def _under_lock(self, node, parents, id_ordered: bool) -> bool:
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.With):
                exprs = _lock_exprs(cur)
                if any(_is_self_lock(e) for e in exprs):
                    return True
                locks = [e for e in exprs if _is_any_lock(e)]
                if len(locks) >= 2 and id_ordered:
                    return True  # merge(): both locks, id-ordered
            cur = parents.get(cur)
        return False

    # -- two-lock acquisitions are id-ordered ----------------------------

    def _check_two_lock(self, f, cls: ast.ClassDef) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.With):
                    continue
                locks = [
                    e for e in _lock_exprs(node) if _is_any_lock(e)
                ]
                non_self = [e for e in locks if not _is_self_lock(e)]
                if len(locks) >= 2 and non_self and \
                        not _has_id_ordered_sort(method):
                    yield Finding(
                        f.path, node.lineno, node.col_offset, self.id,
                        f"{cls.name}.{method.name}() acquires"
                        f" {len(locks)} locks in one `with` without"
                        " the id-ordered sorted(..., key=id) pattern"
                        " — opposite acquisition orders deadlock",
                    )
