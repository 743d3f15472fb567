"""Core machinery for ``repro lint`` — the AST invariant analyzer.

Nine PRs of growth made bit-identity the acceptance bar for every
execution path, but the invariants that *guarantee* it (rooted-RNG
construction, snapshot-complete state, lock discipline, overflow-safe
accumulation) lived only in prose and runtime pins.  This package turns
them into machine-checked rules.

The model:

* :class:`SourceFile` — one parsed python file: AST, raw lines, and the
  ``# repro: allow[rule-id] -- justification`` pragmas found in it.
* :class:`Project` — the set of files under analysis, with helpers to
  locate files by their dotted ``repro.*`` module path (protocol-hygiene
  finds the wire module this way).
* :class:`Rule` — a named check producing :class:`Finding` records.
  Rules live in :mod:`repro.analysis.rules`; each owns one invariant.
* :func:`run_rules` — parse, check, apply pragma suppression, report
  unused/malformed pragmas, and return the sorted finding list.

Pragma policy
-------------
A finding is suppressed by ``# repro: allow[rule-id] -- justification``
either trailing on the flagged line or on a comment-only line
immediately above it (stacked pragmas each bind to the next code line).
The justification after ``--`` is mandatory: a pragma without one is
itself a finding (``bad-pragma``), and a pragma that suppresses nothing
is reported too (``unused-pragma``) so stale annotations cannot
accumulate.  The three framework rule ids — ``parse-error``,
``bad-pragma``, ``unused-pragma`` — are never suppressible.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Sequence

#: Rule ids emitted by the framework itself (not suppressible).
PARSE_ERROR = "parse-error"
BAD_PRAGMA = "bad-pragma"
UNUSED_PRAGMA = "unused-pragma"
FRAMEWORK_RULES = frozenset({PARSE_ERROR, BAD_PRAGMA, UNUSED_PRAGMA})

_PRAGMA_RE = re.compile(r"repro:\s*allow\[([^\]]*)\]\s*(.*)$")

#: Directory names never walked for sources.
_SKIP_DIRS = frozenset({
    ".git", "__pycache__", ".pytest_cache", ".claude", ".venv",
    "node_modules",
})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: " \
               f"{self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def _sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)


@dataclass
class Pragma:
    """A parsed ``# repro: allow[rule-id] -- justification`` comment."""

    rule: str
    line: int           # line the comment sits on (1-based)
    target_line: int    # line whose findings it suppresses
    justification: str
    used: bool = False


def module_of(path: str) -> str | None:
    """Dotted ``repro.*`` module for a path, or None outside the tree.

    >>> module_of("src/repro/core/csss.py")
    'repro.core.csss'
    >>> module_of("src/repro/kernels/__init__.py")
    'repro.kernels'
    >>> module_of("tests/test_cli.py") is None
    True
    """
    parts = PurePosixPath(path).parts
    if "repro" not in parts or not parts[-1].endswith(".py"):
        return None
    i = parts.index("repro")
    if "src" in parts:
        j = parts.index("src")
        if j + 1 < len(parts) and parts[j + 1] == "repro":
            i = j + 1
    names = list(parts[i:-1])
    stem = parts[-1][:-3]
    if stem != "__init__":
        names.append(stem)
    return ".".join(names)


def _parse_pragmas(
    path: str, text: str
) -> tuple[list[Pragma], list[Finding]]:
    """Extract pragmas (via tokenize, so strings can't false-match) and
    malformed-pragma findings."""
    pragmas: list[Pragma] = []
    errors: list[Finding] = []
    lines = text.splitlines()
    comments: list[tuple[int, int, str]] = []  # (row, col, text)
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []  # the parse-error finding covers it

    def next_code_line(row: int) -> int:
        for r in range(row + 1, len(lines) + 1):
            stripped = lines[r - 1].strip()
            if stripped and not stripped.startswith("#"):
                return r
        return row  # trailing comment block: bind to itself (unused)

    for row, col, comment in comments:
        m = _PRAGMA_RE.search(comment)
        if m is None:
            continue
        rule = m.group(1).strip()
        rest = m.group(2).strip()
        justification = ""
        if rest.startswith("--"):
            justification = rest[2:].strip()
        if not rule or not justification:
            errors.append(Finding(
                path, row, col, BAD_PRAGMA,
                "pragma needs a rule id and a justification: "
                "# repro: allow[rule-id] -- why this is intentional",
            ))
            continue
        trailing = bool(lines[row - 1][:col].strip())
        target = row if trailing else next_code_line(row)
        pragmas.append(Pragma(rule, row, target, justification))
    return pragmas, errors


class SourceFile:
    """One file under analysis: path, text, AST, pragmas."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.module = module_of(path)
        self.tree: ast.Module | None = None
        self.parse_error: Finding | None = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = Finding(
                path, exc.lineno or 1, (exc.offset or 1) - 1, PARSE_ERROR,
                f"cannot parse: {exc.msg}",
            )
        self.pragmas, self.pragma_errors = _parse_pragmas(path, text)

    def in_module(self, *prefixes: str) -> bool:
        """True when this file's dotted module matches any prefix
        (exact name or dotted-descendant)."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )


class Project:
    """The file set one lint run analyzes."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self._by_module = {
            f.module: f for f in self.files if f.module is not None
        }

    def find_module(self, dotted: str) -> SourceFile | None:
        return self._by_module.get(dotted)

    def repro_files(self) -> list[SourceFile]:
        return [f for f in self.files if f.module is not None]


class Rule:
    """Base class: one named invariant check over the project."""

    id: str = ""
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract


# ---------------------------------------------------------------------------
# Shared AST helpers for the rule battery.


def dotted_name(node: ast.AST) -> str | None:
    """Flatten a Name/Attribute chain: ``np.random.default_rng`` →
    that string; None for anything non-static (calls, subscripts)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """child -> parent for every node (rules that need ancestry)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def self_attribute(node: ast.AST) -> str | None:
    """``self.X`` → ``"X"``; None otherwise."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# Running rules and applying pragmas.


def load_path(path: Path) -> list[SourceFile]:
    """One file, or a directory walked for ``*.py`` (skipping caches)."""
    root = Path.cwd()

    def rel(p: Path) -> str:
        try:
            return p.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return p.as_posix()

    if path.is_file():
        return [SourceFile(rel(path), path.read_text())]
    if not path.is_dir():
        raise FileNotFoundError(f"no such file or directory: {path}")
    out = []
    for p in sorted(path.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in p.parts):
            continue
        out.append(SourceFile(rel(p), p.read_text()))
    return out


def run_rules(
    files: Sequence[SourceFile], rules: Sequence[Rule]
) -> list[Finding]:
    """Check every rule, apply pragma suppression, report pragma
    hygiene; returns findings sorted by location."""
    project = Project(files)
    findings: list[Finding] = []
    for f in files:
        if f.parse_error is not None:
            findings.append(f.parse_error)
        findings.extend(f.pragma_errors)

    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project))

    by_path = {f.path: f for f in files}
    for finding in raw:
        src = by_path.get(finding.path)
        suppressed = False
        if src is not None and finding.rule not in FRAMEWORK_RULES:
            for pragma in src.pragmas:
                if (
                    pragma.rule == finding.rule
                    and pragma.target_line == finding.line
                ):
                    pragma.used = True
                    suppressed = True
        if not suppressed:
            findings.append(finding)

    active = {rule.id for rule in rules}
    for f in files:
        for pragma in f.pragmas:
            if pragma.used:
                continue
            if pragma.rule not in active and pragma.rule not in \
                    FRAMEWORK_RULES:
                findings.append(Finding(
                    f.path, pragma.line, 0, BAD_PRAGMA,
                    f"unknown rule id {pragma.rule!r} in pragma",
                ))
            else:
                findings.append(Finding(
                    f.path, pragma.line, 0, UNUSED_PRAGMA,
                    f"pragma allow[{pragma.rule}] suppresses nothing "
                    f"on line {pragma.target_line}; remove it",
                ))
    return sorted(findings, key=Finding._sort_key)


def lint_sources(
    named_sources: Iterable[tuple[str, str]],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Lint in-memory ``(path, text)`` pairs — the test entry point."""
    from repro.analysis.rules import all_rules

    files = [SourceFile(path, text) for path, text in named_sources]
    return run_rules(files, all_rules() if rules is None else rules)


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] | None = None,
) -> tuple[list[Finding], int]:
    """Lint files/directories; returns (findings, files_scanned)."""
    from repro.analysis.rules import all_rules

    files: list[SourceFile] = []
    for p in paths:
        files.extend(load_path(Path(p)))
    return run_rules(files, all_rules() if rules is None else rules), \
        len(files)
