"""protocol-hygiene: every wire frame type has encode, decode, bounds.

``repro.service.protocol`` parses length-prefixed binary frames from
untrusted sockets.  Three properties keep that safe and complete:

* every ``FrameType`` member has an ``encode_<name>`` constructor — a
  frame the server can emit but a client library cannot build (or vice
  versa) is an interop bug waiting for a third-party implementation;
* every member has a ``decode_<name>`` validator;
* every ``decode_*`` function performs a length/bounds check guarding a
  ``ProtocolError`` raise *before* trusting payload bytes — directly or
  through a helper it calls (the rule follows same-module calls), so a
  hostile length field can never drive an allocation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule

_PROTOCOL_MODULE = "repro.service.protocol"


def _has_bounds_guard(fn: ast.FunctionDef) -> bool:
    """A Compare touching len()/MAX_*/struct .size, plus a raise of
    ProtocolError, both present in this function body."""
    has_compare = False
    has_raise = False
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "len"
                ):
                    has_compare = True
                elif isinstance(sub, ast.Name) and "MAX" in sub.id:
                    has_compare = True
                elif isinstance(sub, ast.Attribute) and \
                        sub.attr in ("size", "itemsize"):
                    has_compare = True
        elif isinstance(node, ast.Raise) and node.exc is not None:
            for sub in ast.walk(node.exc):
                if isinstance(sub, ast.Name) and \
                        sub.id == "ProtocolError":
                    has_raise = True
    return has_compare and has_raise


def _called_names(fn: ast.FunctionDef) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
    }


class ProtocolHygiene(Rule):
    id = "protocol-hygiene"
    summary = (
        "every FrameType in service/protocol.py needs an encode, a"
        " decode, and a length/bounds check guarding ProtocolError"
        " before any payload bytes are trusted"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        f = project.find_module(_PROTOCOL_MODULE)
        if f is None or f.tree is None:
            return
        functions = {
            node.name: node
            for node in f.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        frame_types = self._frame_type_members(f.tree)
        yield from self._check_coverage(f, frame_types, functions)
        yield from self._check_guards(f, functions)

    def _frame_type_members(
        self, tree: ast.Module
    ) -> list[tuple[str, int, int]]:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and \
                    node.name == "FrameType":
                return [
                    (s.targets[0].id.lower(), s.lineno, s.col_offset)
                    for s in node.body
                    if isinstance(s, ast.Assign)
                    and len(s.targets) == 1
                    and isinstance(s.targets[0], ast.Name)
                ]
        return []

    def _check_coverage(
        self, f, frame_types, functions
    ) -> Iterator[Finding]:
        for member, line, col in frame_types:
            if f"encode_{member}" not in functions:
                yield Finding(
                    f.path, line, col, self.id,
                    f"FrameType.{member.upper()} has no"
                    f" encode_{member}() constructor",
                )
            if f"decode_{member}" not in functions:
                yield Finding(
                    f.path, line, col, self.id,
                    f"FrameType.{member.upper()} has no"
                    f" decode_{member}() decoder",
                )

    def _check_guards(self, f, functions) -> Iterator[Finding]:
        guarded: dict[str, bool] = {
            name: _has_bounds_guard(fn)
            for name, fn in functions.items()
        }

        def transitively_guarded(name: str, seen: set[str]) -> bool:
            if guarded.get(name):
                return True
            if name in seen or name not in functions:
                return False
            seen.add(name)
            return any(
                transitively_guarded(callee, seen)
                for callee in _called_names(functions[name])
                if callee in functions
            )

        for name, fn in functions.items():
            if not name.startswith("decode_"):
                continue
            if not transitively_guarded(name, set()):
                yield Finding(
                    f.path, fn.lineno, fn.col_offset, self.id,
                    f"{name}() trusts payload bytes without a"
                    " length/bounds check guarding ProtocolError"
                    " (directly or via a helper it calls)",
                )
