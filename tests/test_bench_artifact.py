"""The shared ``BENCH_throughput.json`` artifact keeps every writer's
sections: ``bench_throughput.py`` regenerates its own and carries over
the ``service`` / ``service_faults`` sections ``bench_service.py``
merged in.  Its gates read the medians of the battery runs, and a
failing median leaves the committed file untouched."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench_throughput(monkeypatch, tmp_path):
    """The benchmark module, writing its artifact under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "bench_throughput", raising=False)
    import bench_throughput

    monkeypatch.setattr(bench_throughput, "ARTIFACT",
                        tmp_path / "BENCH_throughput.json")
    return bench_throughput


def test_throughput_regeneration_keeps_service_sections(bench_throughput):
    artifact = bench_throughput.ARTIFACT
    bench_throughput.write_artifact({"results": {}})  # no file yet
    assert json.loads(artifact.read_text()) == {"results": {}}

    service = {"updates_per_sec": {"median": 1225295, "best": 1403165},
               "identical_states": True}
    faults = {"drop_0.05": {"updates_per_sec": 61580}}
    artifact.write_text(json.dumps({
        "results": {"stale": 1},
        "fv_solo_plan": {"speedup": 0.44},
        "service": service,
        "service_faults": faults,
    }, indent=2) + "\n")
    bench_throughput.write_artifact({"results": {"countsketch": 2},
                                     "session": {"ratio": 0.9}})

    written = json.loads(artifact.read_text())
    assert written["results"] == {"countsketch": 2}
    assert written["session"] == {"ratio": 0.9}
    assert "fv_solo_plan" not in written
    for key, section in (("service", service), ("service_faults", faults)):
        assert json.dumps(written[key]) == json.dumps(section)


def _run(bench, session_ratio: float) -> dict:
    """A run report meeting every bar but, perhaps, the session's."""
    skew = {name: {"coalesce_speedup": bench.SKEW_ACCEPT_SPEEDUP}
            for name in bench.SKEW_STRUCTURES}
    return {
        "results": {name: {"speedup": bar}
                    for name, bar in bench.REQUIRED_SPEEDUP.items()},
        "session": {"identical_states": True,
                    "session_over_offline": session_ratio},
        "skew_sweep": {f"skew_{bench.SKEW_ACCEPT_LEVEL}": {"results": skew}},
        "kernels": {"active": False, "results": {}},
    }


def test_throughput_gates_read_the_median_of_the_runs(bench_throughput):
    bar = bench_throughput.SESSION_MIN_RATIO

    def report(*offsets):
        return bench_throughput.median_report(
            [_run(bench_throughput, bar + offset) for offset in offsets])

    # One run of five misses the bar, the median meets it: written.
    assert bench_throughput.write_if_passing(
        report(-0.1, 0.0, 0.01, 0.02, 0.03)) == []
    written = bench_throughput.ARTIFACT.read_bytes()
    session = json.loads(written)["session"]
    assert session["session_over_offline"] == round(bar + 0.01, 3)
    assert session["session_over_offline_iqr"] == pytest.approx(0.02)
    # The median misses it: nothing is written, the old file stays.
    failures = bench_throughput.write_if_passing(
        report(-0.1, -0.05, -0.01, 0.1, 0.2))
    assert len(failures) == 1 and "push-mode" in failures[0]
    assert bench_throughput.ARTIFACT.read_bytes() == written
