"""Benchmark harness configuration.

Each ``bench_*.py`` file regenerates one artifact from the paper (see the
benchmark column of docs/PAPER_MAP.md).  Numbers that correspond to the paper's
claims — errors, space ratios, recalls — are attached to each benchmark's
``extra_info`` and asserted at the "shape" level (who wins, how things
scale); timings come from pytest-benchmark as usual.

Run with:  pytest benchmarks/ --benchmark-only
"""

import sys
from pathlib import Path

# Make the sibling helper module importable regardless of rootdir config.
sys.path.insert(0, str(Path(__file__).parent))

collect_ignore = ["_common.py"]
