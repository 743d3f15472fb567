"""Tests for repro.analysis — the AST invariant analyzer behind
``repro lint``.

Each rule gets a fires-on-violation / silent-on-the-house-idiom pair
(via :func:`lint_sources` over in-memory sources with fake repo paths),
plus framework tests for pragma binding, pragma hygiene, reporters, and
the exit-code contract.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis.core import lint_sources, module_of
from repro.analysis.rules import all_rules, rule_ids
from repro.analysis.rules.lock_discipline import LockDiscipline
from repro.analysis.rules.no_wall_clock import NoWallClock
from repro.analysis.rules.overflow_discipline import OverflowDiscipline
from repro.analysis.rules.pickle_ban import PickleBan
from repro.analysis.rules.protocol_hygiene import ProtocolHygiene
from repro.analysis.rules.rng_discipline import RngDiscipline
from repro.analysis.rules.snapshot_completeness import (
    SnapshotCompleteness,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(rule, *sources):
    """Run one rule over (path, text) pairs; return the findings."""
    return lint_sources(list(sources), rules=[rule])


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Framework: module scoping, pragmas, reporters, exit codes.


class TestModuleOf:
    def test_src_layout(self):
        assert module_of("src/repro/core/csss.py") == "repro.core.csss"

    def test_package_init(self):
        assert module_of("src/repro/kernels/__init__.py") == \
            "repro.kernels"

    def test_outside_tree(self):
        assert module_of("tests/test_cli.py") is None
        assert module_of("benchmarks/bench.py") is None


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        src = (
            "import numpy as np\n"
            "r = np.random.default_rng()"
            "  # repro: allow[rng-discipline] -- test fixture\n"
        )
        assert findings_for(
            RngDiscipline(), ("src/repro/core/x.py", src)
        ) == []

    def test_comment_above_binds_to_next_code_line(self):
        src = (
            "import numpy as np\n"
            "# repro: allow[rng-discipline] -- test fixture\n"
            "r = np.random.default_rng()\n"
        )
        assert findings_for(
            RngDiscipline(), ("src/repro/core/x.py", src)
        ) == []

    def test_pragma_for_wrong_rule_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "# repro: allow[pickle-ban] -- wrong rule\n"
            "r = np.random.default_rng()\n"
        )
        found = lint_sources(
            [("src/repro/core/x.py", src)],
            rules=[RngDiscipline(), PickleBan()],
        )
        # The violation survives AND the pragma is reported unused.
        assert "rng-discipline" in rules_of(found)
        assert "unused-pragma" in rules_of(found)

    def test_pragma_without_justification_is_a_finding(self):
        src = "x = 1  # repro: allow[rng-discipline]\n"
        found = findings_for(RngDiscipline(),
                             ("src/repro/core/x.py", src))
        assert rules_of(found) == ["bad-pragma"]

    def test_unknown_rule_id_is_a_finding(self):
        src = "x = 1  # repro: allow[no-such-rule] -- because\n"
        found = findings_for(RngDiscipline(),
                             ("src/repro/core/x.py", src))
        assert rules_of(found) == ["bad-pragma"]
        assert "no-such-rule" in found[0].message

    def test_unused_pragma_is_a_finding(self):
        src = "x = 1  # repro: allow[rng-discipline] -- stale\n"
        found = findings_for(RngDiscipline(),
                             ("src/repro/core/x.py", src))
        assert rules_of(found) == ["unused-pragma"]

    def test_framework_rules_not_suppressible(self):
        # A pragma cannot silence the bad-pragma it itself raises.
        src = (
            "# repro: allow[bad-pragma] -- nice try\n"
            "x = 1  # repro: allow[rng-discipline]\n"
        )
        found = findings_for(RngDiscipline(),
                             ("src/repro/core/x.py", src))
        assert "bad-pragma" in rules_of(found)

    def test_parse_error_reported(self):
        found = findings_for(RngDiscipline(),
                             ("src/repro/core/x.py", "def broken(:\n"))
        assert rules_of(found) == ["parse-error"]


class TestReporters:
    def test_text_summary_line(self):
        code, out = self._run_capture(["src/repro"], fmt="text")
        assert out.splitlines()[-1].endswith("files scanned")

    def test_json_contract(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core"
        bad.mkdir(parents=True)
        (bad / "x.py").write_text(
            "import numpy as np\nr = np.random.default_rng()\n"
        )
        lines = []
        code = analysis.run([str(tmp_path)], fmt="json",
                            out=lines.append)
        assert code == analysis.EXIT_FINDINGS
        doc = json.loads(lines[0])
        assert doc["version"] == 1
        assert doc["count"] == len(doc["findings"]) == 1
        assert doc["files_scanned"] == 1
        assert {r["id"] for r in doc["rules"]} == set(rule_ids())
        f = doc["findings"][0]
        assert f["rule"] == "rng-discipline"
        assert set(f) == {"path", "line", "col", "rule", "message"}

    @staticmethod
    def _run_capture(paths, fmt):
        lines = []
        code = analysis.run(
            [str(REPO_ROOT / p) for p in paths], fmt=fmt,
            out=lines.append,
        )
        return code, "\n".join(lines)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("x = 1\n")
        assert analysis.run([str(clean)]) == analysis.EXIT_CLEAN

    def test_findings_exit_one(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "x.py").write_text("import random\n")
        out = []
        assert analysis.run([str(tmp_path)], out=out.append) == \
            analysis.EXIT_FINDINGS

    def test_internal_error_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope" / "missing.py"
        assert analysis.run([str(missing)]) == \
            analysis.EXIT_INTERNAL_ERROR
        assert "FileNotFoundError" in capsys.readouterr().err

    def test_list_rules(self):
        lines = []
        assert analysis.run([], list_rules=True, out=lines.append) == \
            analysis.EXIT_CLEAN
        listed = {line.split(":")[0] for line in lines}
        assert listed == set(rule_ids())
        assert len(rule_ids()) == 7


# ---------------------------------------------------------------------------
# Rule battery: each rule fires on its violation and stays silent on
# the compliant house idiom.


class TestRngDiscipline:
    def test_fires_on_naked_default_rng(self):
        found = findings_for(RngDiscipline(), (
            "src/repro/core/x.py",
            "import numpy as np\nr = np.random.default_rng(7)\n",
        ))
        assert rules_of(found) == ["rng-discipline"]

    def test_fires_on_stdlib_random_import(self):
        for src in ("import random\n", "from random import shuffle\n"):
            found = findings_for(
                RngDiscipline(), ("src/repro/core/x.py", src)
            )
            assert rules_of(found) == ["rng-discipline"]

    def test_fires_on_from_numpy_random_sampler(self):
        found = findings_for(RngDiscipline(), (
            "src/repro/core/x.py",
            "from numpy.random import default_rng\n",
        ))
        assert rules_of(found) == ["rng-discipline"]

    def test_silent_on_allowed_imports_and_seedsequence(self):
        src = (
            "import numpy as np\n"
            "from numpy.random import Generator, SeedSequence\n"
            "ss = np.random.SeedSequence(7)\n"
        )
        assert findings_for(
            RngDiscipline(), ("src/repro/core/x.py", src)
        ) == []

    def test_silent_outside_repro(self):
        assert findings_for(RngDiscipline(), (
            "tests/test_x.py",
            "import numpy as np\nr = np.random.default_rng()\n",
        )) == []

    def test_policy_root_exempt_but_rest_of_registry_is_not(self):
        src = (
            "import numpy as np\n"
            "def rng_for(seed, label):\n"
            "    return np.random.default_rng([seed, hash(label)])\n"
            "def elsewhere():\n"
            "    return np.random.default_rng()\n"
        )
        found = findings_for(
            RngDiscipline(), ("src/repro/api/registry.py", src)
        )
        assert rules_of(found) == ["rng-discipline"]
        assert found[0].line == 5


class TestSnapshotCompleteness:
    def test_fires_on_attribute_born_outside_ctor(self):
        src = (
            "class Sketch:\n"
            "    def __init__(self):\n"
            "        self.a = 1\n"
            "    def update(self):\n"
            "        self.b = 2\n"
        )
        found = findings_for(
            SnapshotCompleteness(), ("src/repro/core/x.py", src)
        )
        assert rules_of(found) == ["snapshot-completeness"]
        assert "self.b" in found[0].message or "b" in found[0].message

    def test_silent_on_declared_state(self):
        src = (
            "class Sketch:\n"
            "    tuning = 3\n"
            "    def __init__(self):\n"
            "        self.a = 1\n"
            "    def update(self):\n"
            "        self.a = 2\n"
            "        self.a += 1\n"
            "        self.tuning = 4\n"
        )
        assert findings_for(
            SnapshotCompleteness(), ("src/repro/core/x.py", src)
        ) == []

    def test_silent_on_slots_and_post_init(self):
        src = (
            "class A:\n"
            "    __slots__ = ('x',)\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def poke(self):\n"
            "        self.x = 1\n"
            "class B:\n"
            "    def __post_init__(self):\n"
            "        self.y = 0\n"
            "    def poke(self):\n"
            "        self.y = 1\n"
        )
        assert findings_for(
            SnapshotCompleteness(), ("src/repro/core/x.py", src)
        ) == []

    def test_silent_on_ctor_less_mixin(self):
        src = (
            "class Mixin:\n"
            "    def helper(self):\n"
            "        self.cache = {}\n"
        )
        assert findings_for(
            SnapshotCompleteness(), ("src/repro/core/x.py", src)
        ) == []


class TestLockDiscipline:
    SESSION = "src/repro/api/session.py"

    def test_fires_on_unlocked_guarded_read(self):
        src = (
            "class StreamSession:\n"
            "    def names(self):\n"
            "        return list(self._spec_names)\n"
        )
        found = findings_for(LockDiscipline(), (self.SESSION, src))
        assert rules_of(found) == ["lock-discipline"]
        assert "_spec_names" in found[0].message

    def test_silent_under_lock(self):
        src = (
            "class StreamSession:\n"
            "    def names(self):\n"
            "        with self._lock:\n"
            "            return list(self._spec_names)\n"
        )
        assert findings_for(LockDiscipline(), (self.SESSION, src)) == []

    def test_private_helpers_exempt(self):
        src = (
            "class StreamSession:\n"
            "    def _names_locked(self):\n"
            "        return list(self._spec_names)\n"
        )
        assert findings_for(LockDiscipline(), (self.SESSION, src)) == []

    def test_two_lock_without_id_order_fires(self):
        src = (
            "class StreamSession:\n"
            "    def merge(self, other):\n"
            "        with self._lock, other._lock:\n"
            "            pass\n"
        )
        found = findings_for(LockDiscipline(), (self.SESSION, src))
        assert "lock-discipline" in rules_of(found)
        assert any("id-ordered" in f.message for f in found)

    def test_two_lock_with_id_order_is_silent(self):
        src = (
            "class StreamSession:\n"
            "    def merge(self, other):\n"
            "        first, second = sorted((self, other), key=id)\n"
            "        with first._lock, second._lock:\n"
            "            pass\n"
        )
        assert findings_for(LockDiscipline(), (self.SESSION, src)) == []


class TestOverflowDiscipline:
    MOD = "src/repro/sketches/x.py"

    def test_fires_on_int_of_sum(self):
        src = "total = int(arr.sum())\n"
        found = findings_for(OverflowDiscipline(), (self.MOD, src))
        assert rules_of(found) == ["overflow-discipline"]
        assert "exact_sum" in found[0].message

    def test_fires_on_cumsum(self):
        for src in ("import numpy as np\nr = np.cumsum(a)\n",
                    "r = a.cumsum()\n"):
            found = findings_for(OverflowDiscipline(), (self.MOD, src))
            assert rules_of(found) == ["overflow-discipline"]

    def test_silent_on_float64_bound_check(self):
        src = (
            "import numpy as np\n"
            "bound = int(np.abs(a).astype(np.float64).sum())\n"
        )
        assert findings_for(OverflowDiscipline(), (self.MOD, src)) == []

    def test_silent_outside_numeric_modules(self):
        src = "total = int(arr.sum())\n"
        assert findings_for(
            OverflowDiscipline(), ("src/repro/service/x.py", src)
        ) == []


class TestProtocolHygiene:
    MOD = "src/repro/service/protocol.py"

    def test_fires_on_missing_encode_and_decode(self):
        src = (
            "class FrameType:\n"
            "    PING = 1\n"
        )
        found = findings_for(ProtocolHygiene(), (self.MOD, src))
        msgs = " ".join(f.message for f in found)
        assert rules_of(found) == ["protocol-hygiene"] * 2
        assert "encode_ping" in msgs and "decoder" in msgs

    def test_fires_on_unguarded_decoder(self):
        src = (
            "class FrameType:\n"
            "    PING = 1\n"
            "def encode_ping(x):\n"
            "    return b''\n"
            "def decode_ping(payload):\n"
            "    return payload[4:]\n"
        )
        found = findings_for(ProtocolHygiene(), (self.MOD, src))
        assert rules_of(found) == ["protocol-hygiene"]
        assert "bounds" in found[0].message

    def test_silent_with_transitive_guard(self):
        src = (
            "MAX_PAYLOAD = 1 << 24\n"
            "class ProtocolError(ValueError):\n"
            "    pass\n"
            "class FrameType:\n"
            "    PING = 1\n"
            "def _check(payload):\n"
            "    if len(payload) > MAX_PAYLOAD:\n"
            "        raise ProtocolError('too big')\n"
            "def encode_ping(x):\n"
            "    return b''\n"
            "def decode_ping(payload):\n"
            "    _check(payload)\n"
            "    return payload[4:]\n"
        )
        assert findings_for(ProtocolHygiene(), (self.MOD, src)) == []

    def test_silent_outside_protocol_module(self):
        src = "class FrameType:\n    PING = 1\n"
        assert findings_for(
            ProtocolHygiene(), ("src/repro/service/other.py", src)
        ) == []


class TestNoWallClock:
    MOD = "src/repro/streams/x.py"

    def test_fires_on_direct_clock_call(self):
        src = "import time\nt0 = time.perf_counter()\n"
        found = findings_for(NoWallClock(), (self.MOD, src))
        assert rules_of(found) == ["no-wall-clock"]
        assert "seam" in found[0].message

    def test_silent_on_injected_seam(self):
        src = (
            "import time\n"
            "def replay(clock=time.perf_counter):\n"
            "    return clock()\n"
        )
        assert findings_for(NoWallClock(), (self.MOD, src)) == []

    def test_silent_in_service_tier(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert findings_for(
            NoWallClock(), ("src/repro/service/x.py", src)
        ) == []


class TestPickleBan:
    def test_fires_everywhere_even_tests(self):
        for path in ("src/repro/api/x.py", "tests/test_x.py",
                     "benchmarks/bench_x.py"):
            found = findings_for(
                PickleBan(), (path, "import pickle\n")
            )
            assert rules_of(found) == ["pickle-ban"], path

    def test_fires_on_from_import_and_allow_pickle(self):
        src = (
            "from pickle import loads\n"
            "import numpy as np\n"
            "d = np.load('f.npz', allow_pickle=True)\n"
        )
        found = findings_for(PickleBan(), ("src/repro/api/x.py", src))
        assert rules_of(found) == ["pickle-ban"] * 2

    def test_silent_on_npz_json_stack(self):
        src = (
            "import json\n"
            "import numpy as np\n"
            "d = np.load('f.npz')\n"
        )
        assert findings_for(
            PickleBan(), ("src/repro/api/x.py", src)
        ) == []


# ---------------------------------------------------------------------------
# The shipped tree itself.


class TestShippedTree:
    def test_whole_tree_is_clean(self):
        """`repro lint src tests benchmarks examples` — the CI gate —
        finds nothing; every intentional deviation carries a justified
        pragma."""
        from repro.analysis.core import lint_paths

        paths = [str(REPO_ROOT / p)
                 for p in ("src", "tests", "benchmarks", "examples")
                 if (REPO_ROOT / p).exists()]
        found, scanned = lint_paths(paths)
        assert found == [], "\n".join(f.format() for f in found)
        assert scanned > 100

    def test_rule_inventory(self):
        assert rule_ids() == [
            "rng-discipline",
            "snapshot-completeness",
            "lock-discipline",
            "overflow-discipline",
            "protocol-hygiene",
            "no-wall-clock",
            "pickle-ban",
        ]
        assert len(all_rules()) == 7
