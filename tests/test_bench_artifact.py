"""The shared ``BENCH_throughput.json`` artifact keeps every writer's
sections: ``bench_throughput.py`` regenerates its own and carries over
the ``service`` / ``service_faults`` sections ``bench_service.py``
merged in."""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_throughput_regeneration_keeps_service_sections(monkeypatch,
                                                        tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "bench_throughput", raising=False)
    import bench_throughput

    artifact = tmp_path / "BENCH_throughput.json"
    monkeypatch.setattr(bench_throughput, "ARTIFACT", artifact)
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
