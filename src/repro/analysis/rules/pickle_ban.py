"""pickle-ban: no pickle anywhere except documented test-only shims.

The persistence stack (``api/serialize``, ``streams/io``, checkpoints,
snapshot-shipping over the wire) is deliberately pickle-free: snapshots
are versioned ``.npz`` containers with a JSON sidecar, so restoring
untrusted bytes can never execute code.  One stray ``import pickle`` on
a load path reopens that hole.

Flags, in **every** linted file (src, tests, benchmarks):

* ``import pickle`` / ``cPickle`` / ``_pickle`` / ``dill`` /
  ``cloudpickle`` / ``shelve`` (and ``from X import ...`` of the same);
* ``allow_pickle=True`` keywords (``np.load``'s escape hatch back into
  pickle execution).

The legitimate uses — tests that pin merges surviving a pickle round
trip, because hash functions must compare by value once a sketch has
crossed a process boundary — carry ``# repro: allow[pickle-ban]``
pragmas naming that reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule

_BANNED = {"pickle", "cPickle", "_pickle", "dill", "cloudpickle",
           "shelve"}


class PickleBan(Rule):
    id = "pickle-ban"
    summary = (
        "no pickle imports or allow_pickle=True anywhere outside"
        " documented test-only shims — the persistence stack is"
        " pickle-free so untrusted snapshots cannot execute code"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for f in project.files:
            if f.tree is None or f.in_module("repro.analysis"):
                continue
            for node in ast.walk(f.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] in _BANNED:
                            yield self._finding(f, node, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    mod = (node.module or "").split(".")[0]
                    if mod in _BANNED:
                        yield self._finding(f, node, node.module)
                elif isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if (
                            kw.arg == "allow_pickle"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            yield Finding(
                                f.path, node.lineno, node.col_offset,
                                self.id,
                                "allow_pickle=True reopens code"
                                " execution on load; the container"
                                " format round-trips object arrays"
                                " through the JSON sidecar instead",
                            )

    def _finding(self, f, node, name) -> Finding:
        return Finding(
            f.path, node.lineno, node.col_offset, self.id,
            f"import of {name}: the persistence stack is pickle-free;"
            " test-only picklability pins need a pragma naming the"
            " reason",
        )
