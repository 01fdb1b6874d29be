"""In-memory span tracing around the library's layer entry points.

The traced run wraps each entry point from the benchmark's own code: class
methods are replaced on the class, module functions on the module where
their caller looks them up.  Every wrapped call records a span (name,
start, end, parent) plus counts taken from its return value.  Nothing in
the library itself changes, and :meth:`Tracer.remove` puts every original
back.

A layer's self time is its span's duration minus the time its child spans
cover; the residual of an operation is the self time of the operation's
root span, i.e. host time no wrapped layer accounts for.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

Observe = Callable[[Any], dict[str, float]]


def engine_counts(report: Any) -> dict[str, float]:
    """The serving report's counters, under their per-layer metric names."""
    admission = report.admission
    autoscale = report.autoscale
    return {
        "engine.offered": report.offered,
        "engine.batches": report.batches,
        "engine.completed": report.completed,
        "engine.shed": admission.shed if admission is not None else 0,
        "engine.failed": report.failed,
        "engine.retries": report.retries,
        "engine.crashes": report.crashes,
        "engine.hedges_fired": report.hedges_fired,
        "engine.hedges_cancelled": report.hedges_cancelled,
        "engine.scale_events": len(autoscale.events) if autoscale is not None else 0,
    }


#: (span name, module, class or None for a module function, attribute,
#: counts taken from the return value).  Module functions are listed under
#: the module that calls them, because that is where the name is looked up.
ENTRY_POINTS: tuple[tuple[str, str, str | None, str, Observe | None], ...] = (
    ("graph", "repro.core.accelerator", None, "load_dataset",
     lambda g: {"graph.edges": g.num_edges}),
    ("partition", "repro.core.accelerator", None, "partition_graph",
     lambda p: {"partition.edge_cut": p.edge_cut}),
    ("batching", "repro.core.accelerator", "ReGraphX", "build_workload",
     lambda w: {"batching.blocks": w.block_mapping.nnz_blocks}),
    ("mapping", "repro.core.accelerator", None, "anneal_mapping", None),
    ("traffic", "repro.core.traffic", "GNNTrafficModel", "leg_volumes", None),
    ("traffic", "repro.core.traffic", "GNNTrafficModel", "messages",
     lambda m: {"traffic.messages": len(m)}),
    ("noc", "repro.noc.schedule", "StaticScheduler", "simulate",
     lambda r: {"noc.flit_hops": r.total_flit_hops}),
    ("evaluate", "repro.core.accelerator", "ReGraphX", "evaluate", None),
    ("thermal", "repro.core.thermal", "ThermalModel", "steady_state", None),
    ("store.get", "repro.campaign.store", "ResultStore", "get",
     lambda r: {"store.hits": int(r is not None)}),
    ("store.put", "repro.campaign.store", "ResultStore", "put", None),
    ("arrivals", "repro.serve.arrivals", "ArrivalProcess", "generate",
     lambda r: {"arrivals.requests": len(r)}),
    ("engine", "repro.serve.engine", "ServingEngine", "run", engine_counts),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1
        )
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def _wrapper(self, name: str, fn: Callable, observe: Observe | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if observe is not None:
                    record.counts = observe(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every entry point; a missing one is an error, not a skip."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        try:
            for name, module, cls, attr, observe in ENTRY_POINTS:
                owner: Any = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                if attr not in vars(owner):
                    raise RuntimeError(
                        f"entry point {module}.{cls + '.' if cls else ''}{attr} "
                        "no longer exists; update perfbench/spans.py"
                    )
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrapper(name, original, observe))
                self._originals.append((owner, attr, original))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def descendants(self, roots: set[int]) -> list[int]:
        """Indices of spans strictly below any of ``roots``.

        Spans are appended in start order, so a parent always precedes its
        children and one forward pass suffices.
        """
        below: set[int] = set()
        for i, s in enumerate(self.spans):
            if s.parent in roots or s.parent in below:
                below.add(i)
        return sorted(below)

    def write_jsonl(self, path: Path) -> None:
        """Write every span, one JSON object per line, start-relative."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w") as handle:
            for i, (s, own) in enumerate(zip(self.spans, self.self_seconds())):
                handle.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "parent": s.parent,
                    "start_s": s.start - t0,
                    "end_s": s.end - t0,
                    "self_s": own,
                    "counts": s.counts,
                }) + "\n")


@dataclass
class LayerTotals:
    """Per-layer aggregates over the spans below a set of root spans."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    residual_s: float = 0.0

    @classmethod
    def of(cls, tracer: Tracer, roots: list[int]) -> "LayerTotals":
        totals = cls()
        own = tracer.self_seconds()
        totals.residual_s = sum(own[r] for r in roots)
        for i in tracer.descendants(set(roots)):
            s = tracer.spans[i]
            totals.calls[s.name] = totals.calls.get(s.name, 0) + 1
            totals.self_s[s.name] = totals.self_s.get(s.name, 0.0) + own[i]
            for key, value in s.counts.items():
                totals.counts[key] = totals.counts.get(key, 0.0) + value
        return totals
