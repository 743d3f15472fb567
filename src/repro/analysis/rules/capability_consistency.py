"""capability-consistency: registry specs match implemented protocols.

``repro.api.registry`` reads each built sketch's capabilities at runtime
through the ``batch.py`` protocol checks, and
``tests/test_api_registry.py`` pins the load-bearing ones.  Those pins
fire when the suite runs; this rule is their compile-time twin — it
cross-checks the ``@_register`` declarations against the methods
*actually defined* in each class's statically resolvable MRO, so a
capability regression (a sketch losing its plan path) fails
``repro lint`` before anything executes.

Checks, per registered class:

* the class exists in the project and defines/inherits ``update``;
* ``update_plan`` without ``update_batch`` is flagged (the plan path is
  an optimisation over batch, never a replacement);
* when ``tests/test_api_registry.py`` is in the lint set, its
  ``EXPECTED_FLAGS`` (batch, plan, merge) pins are compared against the
  statically derived capabilities, reported at the ``@_register`` site.

Method resolution follows base-class *names* across the project (the
idiom here is single inheritance plus mixins, all importable by name),
so dynamic tricks (``__getattr__`` delegation) would need a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule

_REGISTRY_MODULE = "repro.api.registry"
_PINS_PATH_SUFFIX = "test_api_registry.py"


class _ClassInfo:
    def __init__(self, node: ast.ClassDef) -> None:
        self.methods = {
            s.name for s in node.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.bases = [
            b.attr if isinstance(b, ast.Attribute) else b.id
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        ]


class CapabilityConsistency(Rule):
    id = "capability-consistency"
    summary = (
        "registry batch/plan/merge capabilities must match the"
        " methods each sketch class actually defines (compile-time"
        " twin of the test_api_registry.py runtime pins)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        registry = project.find_module(_REGISTRY_MODULE)
        if registry is None or registry.tree is None:
            return
        classes = self._class_table(project)
        pins = self._pins(project)
        for call in ast.walk(registry.tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "_register"
                and len(call.args) >= 2
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[1], ast.Name)
            ):
                continue
            spec = call.args[0].value
            cls_name = call.args[1].id
            yield from self._check_spec(
                registry, call, spec, cls_name, classes, pins
            )

    # -- static model -----------------------------------------------------

    def _class_table(self, project: Project) -> dict[str, _ClassInfo]:
        table: dict[str, _ClassInfo] = {}
        for f in project.repro_files():
            if f.tree is None:
                continue
            for node in ast.walk(f.tree):
                if isinstance(node, ast.ClassDef):
                    table.setdefault(node.name, _ClassInfo(node))
        return table

    def _mro(
        self, name: str, classes: dict[str, _ClassInfo],
        seen: set[str] | None = None,
    ) -> list[_ClassInfo]:
        seen = seen if seen is not None else set()
        if name in seen or name not in classes:
            return []
        seen.add(name)
        info = classes[name]
        out = [info]
        for base in info.bases:
            out.extend(self._mro(base, classes, seen))
        return out

    def _has_method(self, mro: list[_ClassInfo], method: str) -> bool:
        return any(method in info.methods for info in mro)

    def _pins(self, project: Project) -> dict[str, tuple]:
        """The EXPECTED_FLAGS dict literal from the runtime-pin test
        file, when it is part of this lint run."""
        pins_file = next(
            (f for f in project.files
             if f.path.endswith(_PINS_PATH_SUFFIX)), None,
        )
        flags: dict[str, tuple] = {}
        if pins_file is None or pins_file.tree is None:
            return flags
        for node in ast.walk(pins_file.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets)
                    == 1 and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "EXPECTED_FLAGS"
                    and isinstance(node.value, ast.Dict)):
                continue
            for k, v in zip(node.value.keys, node.value.values):
                if isinstance(k, ast.Constant) and isinstance(v, ast.Tuple):
                    flags[k.value] = tuple(
                        bool(e.value) for e in v.elts
                        if isinstance(e, ast.Constant)
                    )
        return flags

    # -- per-spec checks --------------------------------------------------

    def _check_spec(
        self, registry, call, spec, cls_name, classes, pins
    ) -> Iterator[Finding]:
        where = (registry.path, call.lineno, call.col_offset, self.id)
        mro = self._mro(cls_name, classes)
        if not mro:
            yield Finding(
                *where,
                f"spec {spec!r} registers {cls_name}, which is not"
                " defined anywhere in the linted repro modules",
            )
            return
        if not self._has_method(mro, "update"):
            yield Finding(
                *where,
                f"spec {spec!r}: {cls_name} never defines update() —"
                " every registered sketch consumes scalar updates",
            )
        has_batch = self._has_method(mro, "update_batch")
        has_plan = self._has_method(mro, "update_plan")
        has_merge = self._has_method(mro, "merge")
        if has_plan and not has_batch:
            yield Finding(
                *where,
                f"spec {spec!r}: {cls_name} defines update_plan but no"
                " update_batch — the plan path optimises batch, it"
                " cannot replace it",
            )
        pin = pins.get(spec)
        if pin is not None and len(pin) == 3:
            derived = (has_batch, has_plan, has_merge)
            if derived != pin:
                yield Finding(
                    *where,
                    f"spec {spec!r}: statically derived capabilities"
                    f" (batch, plan, merge) = {derived} do"
                    f" not match the test_api_registry.py pin {pin}",
                )
