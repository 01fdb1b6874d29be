"""The benchmark's four workloads, driven through the library's public calls.

Each workload is a closed loop: one caller issues operations back to back.
``setup`` prepares what every operation shares and returns the host
seconds of any cold evaluation point it paid for; ``op`` runs one timed
operation and returns an :class:`OpResult` holding the host-side work it
did, the modelled outputs (checked, never graded) and any failed
correctness checks.

``tiny=True`` shrinks every workload to a few seconds for the smoke
tests; the measured workloads always run at full size.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, ContextManager

from repro.campaign.executor import ProgressEvent, run_campaign
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore
from repro.core.accelerator import ReGraphX
from repro.core.thermal import ThermalModel, tier_powers_from_report
from repro.serve.scenario import ServingScenario
from repro.serve.service import AcceleratorServiceModel
from probe import Machine
from spans import Tracer, engine_counts


@dataclass
class OpResult:
    """What one timed operation did.

    Attributes:
        key: identifies the operation's inputs; two operations with the
            same key must produce identical ``model`` outputs.
        items: work items done (evaluation points or simulated requests).
        item_seconds: host seconds spent on those items.
        point_seconds: host seconds of each cold evaluation point.
        model: modelled outputs, recorded and compared but never graded.
        errors: failed correctness checks, one line each.
    """

    key: str
    items: int
    item_seconds: float
    point_seconds: list[float] = field(default_factory=list)
    model: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _finite_positive(errors: list[str], **values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            errors.append(f"{name} = {value!r} is not finite and positive")


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    name = ""
    why = ""
    #: Span names the traced run must see at least once per workload.
    reaches: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, machine: Machine, tiny: bool = False,
                 tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.machine = machine
        self.tiny = tiny
        self.tracer = tracer

    def span(self, name: str) -> ContextManager[Any]:
        """A span of the benchmark's own, recorded when tracing."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> list[float]:
        return []

    def op(self, index: int) -> OpResult:
        raise NotImplementedError


class TrainReddit(Workload):
    name = "train-reddit"
    why = (
        "Cold reddit@0.01 training points, a new seed per operation: graph "
        "generation and partition are ~85% of a point, so graph-layer speedups "
        "show here and NoC or mapping changes do not."
    )
    reaches = ("graph", "partition", "batching", "mapping", "traffic", "noc",
               "evaluate", "thermal")

    def setup(self) -> list[float]:
        self.dataset, self.scale = ("reddit", 0.002) if self.tiny else ("reddit", 0.01)
        self.accelerator = ReGraphX()
        self.thermal = ThermalModel()
        return []

    def op(self, index: int) -> OpResult:
        # A distinct seed per operation, so no cache can make a point warm.
        seed = self.seed * 1000 + index
        start = time.perf_counter()
        workload = self.accelerator.build_workload(self.dataset, scale=self.scale, seed=seed)
        report = self.accelerator.evaluate(workload, use_sa=True, seed=seed, sa_restarts=1)
        profile = self.thermal.steady_state(tier_powers_from_report(report))
        seconds = time.perf_counter() - start
        errors: list[str] = []
        _finite_positive(
            errors,
            epoch_seconds=report.epoch_seconds,
            epoch_energy=report.epoch_energy,
            peak_celsius=profile.peak_celsius,
        )
        return OpResult(
            key=f"seed={seed}",
            items=1,
            item_seconds=seconds,
            point_seconds=[seconds],
            model={
                "model.epoch_s": report.epoch_seconds,
                "model.epoch_J": report.epoch_energy,
                "model.peak_C": profile.peak_celsius,
            },
            errors=errors,
        )


class SweepReddit(Workload):
    name = "sweep-reddit"
    why = (
        "24-scenario campaign, cold then warm, over 3 reddit@0.005 workloads x "
        "8 architectures: it rebuilds each workload 8 times (partition paid 24x) "
        "and is mapping/traffic/NoC-heavy at 12x12x4."
    )
    reaches = ("graph", "partition", "batching", "mapping", "traffic", "noc",
               "evaluate", "thermal", "store.get", "store.put")

    def setup(self) -> list[float]:
        # The corners of the nocscale preset (mesh 6..12, tiers 2..4) x
        # multicast, over three workloads so that one run averages over
        # seeds.  reddit, not the preset's ppi@0.05: ppi partitions in 0.3 s
        # on some seeds and 2 s on others (the coarsening depth varies).
        seeds = tuple(1000 * self.seed + j for j in range(3))
        axes: tuple[tuple[str, tuple[Any, ...]], ...] = (
            ("seed", seeds), ("mesh_width", (6, 12)), ("tiers", (2, 4)),
            ("multicast", (True, False)),
        )
        base = Scenario(dataset="reddit", scale=0.005, use_sa=True, sa_restarts=1)
        if self.tiny:
            axes = (("seed", seeds[:1]), ("mesh_width", (6,)), ("multicast", (True, False)))
            base = replace(base, scale=0.002)
        self.spec = CampaignSpec(name="sweep-reddit", base=base, axes=axes)
        self.expected = len(self.spec.scenarios())
        # A fresh store: created here once to time it, and again per op.
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        len(ResultStore(root))
        shutil.rmtree(root)
        return []

    def op(self, index: int) -> OpResult:
        root = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        try:
            store = ResultStore(root)
            started: dict[int, float] = {}
            points: list[float] = []

            def on_event(event: ProgressEvent) -> None:
                now = time.perf_counter()
                if event.kind == "started":
                    started[event.index] = now
                elif event.kind == "finished":
                    points.append(now - started[event.index])
                    # One operation spans tens of seconds: probe the machine
                    # between scenarios too (outside every point's interval).
                    if event.done % 4 == 0:
                        self.machine.check()

            paused = self.machine.paused
            t0 = time.perf_counter()
            cold = run_campaign(self.spec, jobs=1, store=store, on_event=on_event)
            t1 = time.perf_counter()
            cold_seconds = t1 - t0 - (self.machine.paused - paused)
            puts = len(store)
            warm = run_campaign(self.spec, jobs=1, store=store)
        finally:
            shutil.rmtree(root, ignore_errors=True)

        n = self.expected
        errors: list[str] = []
        if (cold.hits, cold.misses, puts) != (0, n, n):
            errors.append(
                f"cold pass: {cold.hits} hits, {cold.misses} misses, {puts} puts; "
                f"want 0, {n}, {n}"
            )
        if (warm.hits, warm.misses) != (n, 0):
            errors.append(f"warm pass: {warm.hits} hits, {warm.misses} misses; want {n}, 0")
        for c, w in zip(cold.records, warm.records):
            a, b = asdict(c), asdict(w)
            for volatile in ("cached", "eval_seconds"):
                a.pop(volatile)
                b.pop(volatile)
            if a != b:
                errors.append(f"warm record {w.label} differs from the cold one")
            _finite_positive(
                errors,
                **{
                    f"{c.label}.epoch_seconds": c.epoch_seconds,
                    f"{c.label}.epoch_energy": c.epoch_energy_joules,
                    f"{c.label}.peak_celsius": c.peak_celsius,
                },
            )
        first = cold.records[0]
        return OpResult(
            key=f"seed={self.seed}",
            items=len(cold.records),
            item_seconds=cold_seconds,
            point_seconds=points,
            model={
                "model.epoch_s": first.epoch_seconds,
                "model.epoch_J": first.epoch_energy_joules,
                "model.records": _digest([r.metrics() for r in cold.records]),
            },
            errors=errors,
        )


class _Serve(Workload):
    """Shared open-loop serving operation: generate arrivals, run the engine.

    Every operation feeds exactly ``requests`` requests: the stream is
    generated over a window long enough to hold them on any seed, then cut
    after the last one, so host work does not drift with the seed's
    arrival count.
    """

    reaches = ("arrivals", "engine")
    requests = 0
    tiny_requests = 0
    knobs: dict[str, Any] = {}

    def scenario(self) -> ServingScenario:
        knobs = dict(self.knobs, dataset="ppi", scale=0.05, seed=self.seed)
        if self.tiny:
            # Three times the window the cut needs: even an MMPP stream that
            # never bursts holds enough arrivals.
            knobs.update(scale=0.01, duration_seconds=3 * knobs["duration_seconds"]
                         * self.tiny_requests / self.requests)
        return ServingScenario(**knobs)

    def setup(self) -> list[float]:
        self.target = self.tiny_requests if self.tiny else self.requests
        self.sc = self.scenario()
        start = time.perf_counter()
        # The service model describes the accelerator, not the traffic, so
        # it is calibrated at a fixed seed: its cost must not vary with the
        # workload seed (ppi@0.05 takes 0.5 s at seed 0 and 2 s at seed 1).
        self.service = AcceleratorServiceModel(
            dataset=self.sc.dataset, scale=self.sc.scale, seed=0
        )
        with self.span("service.calibrate"):
            self.service.period_seconds  # one inference-mode evaluate()
        return [time.perf_counter() - start]

    def check(self, counts: dict[str, float], errors: list[str]) -> None:
        pass

    def op(self, index: int) -> OpResult:
        # A distinct seed per operation: the run's median averages over the
        # seeds' different fault, shed and batching histories.
        seed = self.seed * 1000 + index
        sc = replace(self.sc, seed=seed)
        start = time.perf_counter()
        stream = sc.build_arrivals().generate(sc.duration_seconds)
        errors: list[str] = []
        if len(stream) <= self.target:
            errors.append(f"only {len(stream)} arrivals; want more than {self.target}")
            return OpResult(key=f"seed={seed}", items=0, item_seconds=0.0,
                            errors=errors)
        horizon = stream[self.target].arrival_time
        report = sc.build_engine(self.service).run(
            requests=stream[: self.target], horizon_seconds=horizon
        )
        seconds = time.perf_counter() - start
        counts = engine_counts(report)
        shed = counts["engine.shed"]
        if report.offered != report.completed + report.failed + shed:
            errors.append(
                f"offered {report.offered} != completed {report.completed} "
                f"+ failed {report.failed} + shed {shed}"
            )
        if not 0.0 <= report.utilization <= 1.0:
            errors.append(f"utilization {report.utilization!r} outside [0, 1]")
        if report.offered != self.target:
            errors.append(f"offered {report.offered}; want {self.target}")
        self.check(counts, errors)
        return OpResult(
            key=f"seed={seed}",
            items=report.offered,
            item_seconds=seconds,
            model={
                "model.p99_ms": report.latency.p99 * 1e3,
                "model.slo_violation": report.slo_violation_rate,
                "model.availability": report.availability,
                "model.shed": shed,
            },
            errors=errors,
        )


class ServePlain(_Serve):
    name = "serve-plain"
    why = (
        "10^5 Poisson requests on a homogeneous fleet at ~70% utilisation with "
        "every feature off: arrival generation and the event loop, the hot path "
        "the engine refactor must not slow."
    )
    requests = 100_000
    tiny_requests = 2_000
    # 2000 req/s for 52 s holds 104k arrivals, 12 sigma above the cut.
    knobs = dict(arrival="poisson", qps=2000.0, duration_seconds=52.0,
                 instances=10, max_batch=8)

    def check(self, counts: dict[str, float], errors: list[str]) -> None:
        for kind in ("failed", "retries", "crashes", "hedges_fired",
                     "hedges_cancelled", "shed", "scale_events"):
            value = counts[f"engine.{kind}"]
            if value:
                errors.append(f"{kind} = {value} on a run with every feature off")


class ServeChaos(_Serve):
    name = "serve-chaos"
    why = (
        "MMPP bursts on small:3,large:2 with autoscaling, shedding, faults, "
        "retries and hedging: every feature handler fires, so cost moved out of "
        "serve-plain's path into handlers shows here."
    )
    requests = 50_000
    tiny_requests = 2_000
    # MMPP counts over 100 s spread ~7.5% per seed; 80 s at 1000 req/s keeps
    # the cut at 50k more than four sigma below the mean.
    knobs = dict(arrival="mmpp", qps=1000.0, duration_seconds=80.0,
                 fleet="small:3,large:2", routing="size_affinity",
                 autoscaler="target-util", min_instances=2, max_instances=12,
                 admission="shed", queue_budget=64, faults="default",
                 retry="backoff", hedge_seconds=0.07, max_batch=8)

    def check(self, counts: dict[str, float], errors: list[str]) -> None:
        if self.tiny:
            return
        for kind in ("shed", "crashes", "retries", "hedges_fired", "scale_events"):
            if not counts[f"engine.{kind}"]:
                errors.append(f"{kind} = 0: the {kind} handler never fired")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (TrainReddit, SweepReddit, ServePlain, ServeChaos)
}
