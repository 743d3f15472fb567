"""capability-consistency: registry flags match implemented protocols.

``repro.api.registry`` derives each spec's capability flags at runtime
from the ``batch.py`` protocol checks, and ``tests/test_api_registry.py``
pins the load-bearing ones.  Those pins fire when the suite runs; this
rule is their compile-time twin — it cross-checks the ``@_register``
declarations against the methods and flags *actually defined* in each
class's statically resolvable MRO, so a capability regression (a sketch
losing its plan path, a kernel flag on a class that never dispatches)
fails ``repro lint`` before anything executes.

Checks, per registered class:

* the class exists in the project and defines/inherits ``update``;
* ``update_plan`` without ``update_batch`` is flagged (the plan path is
  an optimisation over batch, never a replacement);
* ``kernel_updates = True`` requires the class's defining module (or an
  ancestor's, or a kernel-flagged *component* class it instantiates —
  the heavy-hitter wrappers dispatch through their inner CSSS) to
  reference a ``repro.kernels`` ``try_*`` dispatch helper — a kernel
  flag nothing dispatches through is a lie;
* when ``tests/test_api_registry.py`` is in the lint set, its
  ``EXPECTED_FLAGS`` (batch, plan, merge) and
  ``EXPECTED_KERNEL`` pins are compared against the statically derived
  capabilities, reported at the ``@_register`` site.

Method resolution follows base-class *names* across the project (the
idiom here is single inheritance plus mixins, all importable by name),
so dynamic tricks (``__getattr__`` delegation) would need a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule, SourceFile

_REGISTRY_MODULE = "repro.api.registry"
_PINS_PATH_SUFFIX = "test_api_registry.py"
_KERNEL_DISPATCH = {
    "try_kwise", "try_table_update", "try_cauchy_fold",
    "try_csss_scatter",
}
_FLAG_ATTRS = {"kernel_updates"}


class _ClassInfo:
    def __init__(self, f: SourceFile, node: ast.ClassDef) -> None:
        self.file = f
        self.node = node
        self.methods = {
            s.name for s in node.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.flags: dict[str, bool] = {}
        for s in node.body:
            if isinstance(s, ast.Assign) and len(s.targets) == 1 and \
                    isinstance(s.targets[0], ast.Name):
                name = s.targets[0].id
                if name in _FLAG_ATTRS and \
                        isinstance(s.value, ast.Constant):
                    self.flags[name] = bool(s.value.value)
        self.bases = [
            b.attr if isinstance(b, ast.Attribute) else b.id
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        ]


class CapabilityConsistency(Rule):
    id = "capability-consistency"
    summary = (
        "registry batch/plan/merge/kernel capability flags"
        " must match the methods and dispatch each sketch class"
        " actually defines (compile-time twin of the"
        " test_api_registry.py runtime pins)"
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
                    table.setdefault(node.name, _ClassInfo(f, node))
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

    def _flag(self, mro: list[_ClassInfo], flag: str) -> bool:
        for info in mro:
            if flag in info.flags:
                return info.flags[flag]
        return False

    def _dispatches_kernels(
        self, mro: list[_ClassInfo],
        classes: dict[str, _ClassInfo] | None = None,
        depth: int = 0,
    ) -> bool:
        for info in mro:
            if info.file.tree is None:
                continue
            for node in ast.walk(info.file.tree):
                name = (
                    node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None
                )
                if name in _KERNEL_DISPATCH:
                    return True
        # Composition: a wrapper whose methods instantiate a
        # kernel-flagged component dispatches through it.
        if classes is None or depth >= 2:
            return False
        for info in mro:
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    continue
                component = node.func.id
                if component not in classes:
                    continue
                comp_mro = self._mro(component, classes)
                if self._flag(comp_mro, "kernel_updates") and \
                        self._dispatches_kernels(
                            comp_mro, classes, depth + 1):
                    return True
        return False

    def _pins(self, project: Project):
        """(EXPECTED_FLAGS, EXPECTED_KERNEL) dict literals from the
        runtime-pin test file, when it is part of this lint run."""
        pins_file = next(
            (f for f in project.files
             if f.path.endswith(_PINS_PATH_SUFFIX)), None,
        )
        flags: dict[str, tuple] = {}
        kernel: dict[str, bool] = {}
        if pins_file is None or pins_file.tree is None:
            return flags, kernel
        for node in ast.walk(pins_file.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets)
                    == 1 and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            if target not in ("EXPECTED_FLAGS", "EXPECTED_KERNEL") or \
                    not isinstance(node.value, ast.Dict):
                continue
            for k, v in zip(node.value.keys, node.value.values):
                if not isinstance(k, ast.Constant):
                    continue
                if target == "EXPECTED_FLAGS" and \
                        isinstance(v, ast.Tuple):
                    flags[k.value] = tuple(
                        bool(e.value) for e in v.elts
                        if isinstance(e, ast.Constant)
                    )
                elif target == "EXPECTED_KERNEL" and \
                        isinstance(v, ast.Constant):
                    kernel[k.value] = bool(v.value)
        return flags, kernel

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
        kernel = self._flag(mro, "kernel_updates")
        if has_plan and not has_batch:
            yield Finding(
                *where,
                f"spec {spec!r}: {cls_name} defines update_plan but no"
                " update_batch — the plan path optimises batch, it"
                " cannot replace it",
            )
        if kernel and not self._dispatches_kernels(mro, classes):
            yield Finding(
                *where,
                f"spec {spec!r}: {cls_name} declares kernel_updates"
                " but neither its module nor an ancestor's references"
                " a repro.kernels try_* dispatch helper",
            )
        expected_flags, expected_kernel = pins
        pin = expected_flags.get(spec)
        if pin is not None and len(pin) == 3:
            derived = (has_batch, has_plan, has_merge)
            if derived != pin:
                yield Finding(
                    *where,
                    f"spec {spec!r}: statically derived capabilities"
                    f" (batch, plan, merge) = {derived} do"
                    f" not match the test_api_registry.py pin {pin}",
                )
        if spec in expected_kernel and kernel != expected_kernel[spec]:
            yield Finding(
                *where,
                f"spec {spec!r}: kernel_updates={kernel} does not"
                f" match the test_api_registry.py kernel pin"
                f" {expected_kernel[spec]}",
            )
