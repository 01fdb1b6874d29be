"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure and prints the same
rows/series the paper reports (shapes are asserted; absolute numbers are
simulator-scale).  Use ``pytest benchmarks/ --benchmark-only -s`` to see
the rendered tables.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Repository root: where the ``BENCH_*.json`` result files live.
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The experiments are deterministic end-to-end simulations (seconds of
    wall clock), so a single round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record_bench(filename: str, section: str, payload: dict) -> None:
    """Merge one section into ``REPO_ROOT / filename`` (atomic enough for CI)."""
    path = REPO_ROOT / filename
    data: dict = {}
    if path.is_file():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
