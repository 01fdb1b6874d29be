"""Benchmark harness configuration.

Every benchmark regenerates one paper table/figure and prints the same
rows/series the paper reports (shapes are asserted; absolute numbers are
simulator-scale).  Use ``pytest benchmarks/ --benchmark-only -s`` to see
the rendered tables.

Measurements are appended to :data:`RESULTS`, a gitignored JSON-lines
file, one line per measurement keyed by :func:`source_digest`, so a run
never edits a tracked file and the history of every source tree survives.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]
#: Where :func:`record_bench` appends (``.benchmarks/`` is gitignored).
RESULTS = REPO_ROOT / ".benchmarks" / "results.jsonl"
#: ABBA rounds per :func:`paired_ratio`: on a shared 2-core host single
#: rounds of the serving gates spread by about +-10%, so the median needs
#: several of them.
ROUNDS = 5
#: Least host seconds of work in one timed sample.
MIN_SAMPLE_SECONDS = 0.5


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    The experiments are deterministic end-to-end simulations (seconds of
    wall clock), so a single round is both sufficient and honest.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def source_digest() -> str:
    """Identifies the code measured: a hash of the library and the benchmarks."""
    h = hashlib.sha256()
    sources = [*(REPO_ROOT / "src").rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        h.update(path.relative_to(REPO_ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record_bench(group: str, section: str, payload: dict) -> None:
    """Append one measurement to :data:`RESULTS` under the source digest."""
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "source": source_digest(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "group": group,
        "section": section,
        **payload,
    }
    with RESULTS.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")


@dataclass(frozen=True)
class PairedTiming:
    """Outcome of :func:`paired_ratio`.

    Attributes:
        ratio: median over rounds of the candidate/baseline time ratio.
        ratios: each round's ratio, in run order.
        baseline_seconds / candidate_seconds: median host seconds of one
            call of each side.
        repeats: calls per timed sample.
    """

    ratio: float
    ratios: tuple[float, ...]
    baseline_seconds: float
    candidate_seconds: float
    repeats: int


def paired_ratio(
    baseline: Callable[[], Any], candidate: Callable[[], Any]
) -> PairedTiming:
    """Time ``candidate`` against ``baseline`` in interleaved ABBA rounds.

    One untimed call of each side warms up and sizes the samples: every
    sample repeats its call enough times to do at least
    :data:`MIN_SAMPLE_SECONDS` of work, the same count on both sides.  A round
    times baseline, candidate, candidate, baseline; its ratio
    ``(B1 + B2) / (A1 + A2)`` cancels a host slowdown that drifts over the
    round, and the median over :data:`ROUNDS` rounds drops the rounds a
    burst landed in.  Timing each side in its own block instead lets a
    slowdown during one block move the ratio.
    """
    warm = min(_timed(baseline), _timed(candidate))
    repeats = max(1, math.ceil(MIN_SAMPLE_SECONDS / max(warm, 1e-9)))

    def sample(fn: Callable[[], Any]) -> float:
        gc.collect()
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return time.perf_counter() - start

    ratios: list[float] = []
    a_times: list[float] = []
    b_times: list[float] = []
    for _ in range(ROUNDS):
        a1, b1, b2, a2 = (sample(fn) for fn in (baseline, candidate, candidate, baseline))
        ratios.append((b1 + b2) / (a1 + a2))
        a_times += [a1, a2]
        b_times += [b1, b2]
    return PairedTiming(
        ratio=statistics.median(ratios),
        ratios=tuple(ratios),
        baseline_seconds=statistics.median(a_times) / repeats,
        candidate_seconds=statistics.median(b_times) / repeats,
        repeats=repeats,
    )


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
