"""Campaign execution: run scenarios serially or across processes.

The executor is the single funnel every sweep goes through — CLI
campaigns (architecture and serving), experiments, tests.  For each
scenario it first consults the content-addressed
:class:`~repro.campaign.store.ResultStore` (a hit costs one JSON read),
then fans the remaining evaluations out over a ``ProcessPoolExecutor``
(``jobs > 1``) or runs them inline.  Results come back in scenario order
regardless of completion order, so parallel and serial runs are
bit-identical.

The executor knows no scenario kind.  Each scenario type supplies
``content_key(base_config)`` (its store key), ``evaluate(key,
base_config, store)`` (the leaf evaluator, run in the worker) and
``record_type`` (whose ``from_dict`` revives a stored payload): the
architecture :class:`~repro.campaign.spec.Scenario` and the serving
layer's ``ServingScenario`` both do.  The store handed to ``evaluate``
lets an architecture scenario reuse its workload's graph and partition
from the store's workload archives; serving scenarios ignore it.

Determinism: every scenario carries its own seed (part of its content
hash), and each evaluation builds its workload and mapping from that seed
alone — worker processes share no RNG state.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.config import ReGraphXConfig


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed step of a campaign run.

    The executor emits one ``started`` event when an evaluation begins
    and one terminal event per scenario — ``cache-hit`` (revived from the
    store) or ``finished`` (freshly computed) — so a consumer can render
    live progress, split hits from computed work, and show an ETA without
    re-deriving any of it.

    Attributes:
        kind: ``"started"`` / ``"cache-hit"`` / ``"finished"``.
        index: the scenario's position in the sweep (input order).
        total: scenarios in the sweep.
        done: scenarios complete after this event.
        label: the scenario's display label.
        eval_seconds: leaf wall time (terminal events; a cache hit
            carries the stored record's original time).
        hits / computed: terminal-event tallies so far, split by origin.
        eta_seconds: projected wall time left, from the mean computed
            leaf time over the remaining uncached work (``None`` until
            one computed result exists, or when nothing remains).
    """

    kind: str
    index: int
    total: int
    done: int
    label: str
    eval_seconds: float = 0.0
    hits: int = 0
    computed: int = 0
    eta_seconds: float | None = None

    def render(self) -> str:
        """One-line form: ``[done/total] label  (status[, eta Ns])``."""
        if self.kind == "started":
            return f"[{self.done}/{self.total}] {self.label}  (running)"
        status = (
            "cache hit" if self.kind == "cache-hit"
            else f"{self.eval_seconds:.1f}s"
        )
        eta = (
            f", eta {self.eta_seconds:.0f}s"
            if self.eta_seconds is not None
            else ""
        )
        return f"[{self.done}/{self.total}] {self.label}  ({status}{eta})"


EventFn = Callable[[ProgressEvent], None]


def run_scenarios(
    scenarios: Sequence[Any],
    base_config: ReGraphXConfig | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    name: str = "campaign",
    on_event: EventFn | None = None,
) -> CampaignResult:
    """Run ``scenarios``, reusing stored results and fanning out misses.

    A stored record is revived with the scenario's current display label;
    misses run through ``scenario.evaluate`` — inline, or across a process
    pool — and their records are persisted by this parent, so workers
    never write a record.  Workers do share the store's workload archives
    through disk.

    Args:
        scenarios: evaluation points, already labelled and seeded (any
            scenario type with the executor contract, see module doc).
        base_config: architecture every scenario's overrides apply to.
        jobs: worker processes for cache misses (``1`` runs inline).
        store: result and workload cache; ``None`` disables persistence
            entirely.
        name: campaign name carried into the result.
        on_event: :class:`ProgressEvent` callback (start events, hit vs
            computed tallies, ETA).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    scenarios = list(scenarios)
    keys = [s.content_key(base_config) for s in scenarios]
    records: list[Any] = [None] * len(scenarios)
    pending: list[int] = []
    for i, (scenario, key) in enumerate(zip(scenarios, keys)):
        stored = store.get(key) if store is not None else None
        if stored is None:
            pending.append(i)
        else:
            record = type(scenario).record_type.from_dict(stored, cached=True)
            records[i] = _relabel(record, scenario.display_label)

    total = len(scenarios)
    workers = max(1, min(jobs, len(pending)))
    tally = {"done": 0, "hits": 0, "computed": 0, "seconds": 0.0}

    def emit(kind: str, index: int, record: Any = None) -> None:
        if on_event is None:
            return
        eta = None
        left = len(pending) - tally["computed"]
        if record is not None and left > 0 and tally["computed"] > 0:
            eta = tally["seconds"] / tally["computed"] * left / workers
        on_event(
            ProgressEvent(
                kind=kind,
                index=index,
                total=total,
                done=tally["done"],
                label=scenarios[index].display_label,
                eval_seconds=record.eval_seconds if record is not None else 0.0,
                hits=tally["hits"],
                computed=tally["computed"],
                eta_seconds=eta,
            )
        )

    def finish(index: int, record: Any) -> None:
        tally["done"] += 1
        if record.cached:
            tally["hits"] += 1
        else:
            tally["computed"] += 1
            tally["seconds"] += record.eval_seconds
        emit("cache-hit" if record.cached else "finished", index, record)

    def evaluated() -> Iterator[tuple[int, Any]]:
        """``(index, record)`` for every miss, in completion order."""
        if jobs == 1 or not pending:
            for i in pending:
                emit("started", i)
                yield i, scenarios[i].evaluate(keys[i], base_config, store)
            return
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            for i in pending:
                emit("started", i)
                future = pool.submit(
                    scenarios[i].evaluate, keys[i], base_config, store
                )
                futures[future] = i
            for future in as_completed(futures):
                yield futures[future], future.result()

    for i, record in enumerate(records):
        if record is not None:
            finish(i, record)
    for i, record in evaluated():
        records[i] = record
        if store is not None:
            store.put(keys[i], record.to_dict())
        finish(i, record)

    return CampaignResult(
        name=name,
        records=records,
        hits=total - len(pending),
        misses=len(pending),
        elapsed_seconds=time.perf_counter() - started,
    )


def run_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    store: ResultStore | None = None,
    on_event: EventFn | None = None,
) -> CampaignResult:
    """Enumerate a :class:`CampaignSpec` and run it through the engine."""
    return run_scenarios(
        spec.scenarios(),
        base_config=spec.base_config,
        jobs=jobs,
        store=store,
        name=spec.name,
        on_event=on_event,
    )


def _relabel(record: Any, display_label: str) -> Any:
    """Carry the *current* display label on a cached record.

    Labels are presentation, not content — two sweeps may name the same
    evaluation point differently, and each should see its own name.
    """
    if record.label == display_label:
        return record
    return replace(
        record,
        label=display_label,
        scenario={**record.scenario, "label": display_label},
    )
