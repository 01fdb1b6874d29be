"""Discrete-event serving simulation: arrivals -> admission -> routing -> batches -> fleet.

Same priority-queue idiom as the NoC event engine
(:mod:`repro.noc.events`): a heap of timestamped events, cost scaling
with the number of requests rather than with elapsed time.  Each
:meth:`ServingEngine.run` builds one private run-state object that owns
the heap, the fleet, the queues, and every counter; its loop integrates
occupancy between events and hands each event to the one handler method
of its kind.  Nine event kinds:

* ``DEPART`` — a replica finishes a batch: record per-request latencies,
  free (or retire) the instance, re-check the queue (and, closed-loop,
  owe each finished client its next request).
* ``WARMED`` — a scaled-out instance finished its warm-up delay and joins
  the serving pool.
* ``ARRIVE`` — a request reaches the admission controller; if admitted it
  is routed to a scheduler queue (and arms its max-wait deadline),
  otherwise it is shed on the spot or tarpitted and retried later.
* ``TIMEOUT`` — a queued request's deadline passed: dispatch whatever is
  waiting if a replica is free.
* ``AUTOSCALE`` — the autoscaler's evaluation tick: the policy sees a
  :class:`~repro.serve.autoscale.FleetSnapshot` and may grow or shrink
  the fleet.
* ``FAULT`` — the next injected failure fires: an instance crash (the
  victim is torn down, its in-flight batch fails, a repair is
  scheduled), a transient slice slowdown, or a correlated zone outage
  (:mod:`repro.serve.faults`).
* ``RECOVER`` — a crashed instance's repair completes: a replacement is
  provisioned in its slice and pays the normal warm-up.
* ``RETRY`` — a failed request's backoff elapsed: it re-routes like a
  fresh arrival (skipping admission — it was already admitted once) and
  so lands on a healthy target (:mod:`repro.serve.retry`).
* ``HEDGE`` — a request still unfinished ``hedge_seconds`` after its
  enqueue is duplicated onto the least-loaded healthy queue; whichever
  copy departs first wins and the loser cancels at its own departure.

Events at the same instant process departures first (a freed replica can
serve a batch formed in the same instant), then warm-ups, arrivals, and
timeouts, with the autoscaler observing the settled state and fault /
reliability events resolving last; within a kind, insertion order breaks
ties — the whole simulation is a deterministic function of the seeded
inputs, faults included.

The fleet is a :class:`~repro.serve.fleet.TypedReplicaPool`: one or more
instance types (:mod:`repro.serve.fleet`), each with its own batch
ceiling, service-time scale, warm-up, and $-cost rate.  A
:class:`~repro.serve.routing.RoutingPolicy` sits between admission and
the per-target :class:`~repro.serve.scheduler.BatchingScheduler` queues:
it assigns each admitted request to a target queue and tells each
instance type which targets it drains.  Every enqueue goes through that
one routing step; the default ``shared_queue`` policy is simply the
one-target case.  The homogeneous default — one ``default`` type behind
the single shared queue — reproduces the pre-fleet engine
*bit-identically*; the regression baseline pins that.

Scale-out provisions instances that bill immediately but serve only
after their warm-up, and scale-in retires idle instances at once while
busy ones drain their current batch first.  Billed capacity integrates
into the report's ``instance_seconds`` — and, weighted by each type's
``cost_per_second``, into ``cost_dollars``, the number the
fleet-composition planner minimizes.

The output :class:`ServingReport` carries the SLO analytics: per-tenant
latency percentiles (via the shared
:func:`repro.noc.stats.summarize_latencies`), throughput, queue depths,
replica utilization, SLO-violation rates, windowed burn-rate analytics
(:class:`~repro.obs.slo.SloBurnReport`), per-type fleet usage
(:class:`~repro.serve.fleet.TypeUsage`) for heterogeneous runs, and —
when the corresponding controller is attached — autoscaling and
admission tallies.

Telemetry is injected, never hard-wired: the engine accepts an optional
:class:`~repro.obs.trace.TraceRecorder` (per-request lifecycle spans), a
:class:`~repro.obs.metrics.MetricRegistry` (counters/gauges/histograms
filled at report time), and a :class:`~repro.obs.metrics.Sampler`
(fixed-interval fleet-state series).  A disabled recorder is resolved to
``None`` before the event loop starts, so the default path pays one
attribute check per run, not per event.  Latency distributions go
through :mod:`repro.obs.sketch` — the ``"exact"`` backend keeps reports
bit-identical to the pre-telemetry engine, ``"p2"`` keeps memory
constant at web scale.  Heterogeneous runs additionally export per-type
gauges and sampler columns; the homogeneous default exports exactly what
it always did.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.noc.stats import LatencySummary
from repro.obs.metrics import MetricRegistry, Sampler
from repro.obs.sketch import SKETCH_BACKENDS, make_sketch
from repro.obs.slo import BurnRateTracker, SloBurnReport
from repro.obs.trace import (
    FLEET_CRASH,
    FLEET_RECOVER,
    FLEET_RESCUE,
    FLEET_SCALE,
    FLEET_SLOWDOWN,
    FLEET_WARMED,
    FLEET_ZONE_OUTAGE,
    SPAN_ADMIT,
    SPAN_ARRIVE,
    SPAN_DEPART,
    SPAN_DISPATCH,
    SPAN_ENQUEUE,
    SPAN_FAIL,
    SPAN_HEDGE_CANCELLED,
    SPAN_HEDGE_FIRED,
    SPAN_RETRY,
    SPAN_SHED,
    SPAN_TARPIT,
    TraceRecorder,
)
from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.arrivals import ClosedLoopPool, Request
from repro.serve.autoscale import (
    AutoscalerPolicy,
    AutoscaleStats,
    FleetSnapshot,
    ScalingEvent,
)
from repro.serve.faults import FaultInjector, FaultSpec, coerce_faults
from repro.serve.fleet import FleetSpec, TypedReplicaPool, TypeUsage, coerce_fleet
from repro.serve.retry import RetryPolicy, make_retry_policy
from repro.serve.routing import ROUTING_POLICIES, make_routing
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import ServiceModel

__all__ = [
    "ServingEngine",
    "ServingReport",
    "TenantReport",
]

_DEPART = 0
_WARMED = 1
_ARRIVE = 2
_TIMEOUT = 3
_AUTOSCALE = 4
# Reliability kinds resolve after the autoscaler has observed the settled
# state at the same instant; new kinds append (same-instant ordering of
# the original five is pinned by the serving regression baseline).
_FAULT = 5
_RECOVER = 6
_RETRY = 7
_HEDGE = 8


@dataclass(frozen=True)
class TenantReport:
    """SLO analytics for one tenant's completed requests."""

    tenant: str
    completed: int
    throughput_qps: float
    latency: LatencySummary
    slo_violation_rate: float


@dataclass(frozen=True)
class ServingReport:
    """Everything one serving simulation measured.

    ``instances`` is the initial fleet; with an autoscaler attached the
    fleet varies over time and ``instance_seconds`` (billed capacity
    integrated over the serving window) plus the ``autoscale`` trajectory
    tell the full story.  ``admission`` is ``None`` unless an admission
    controller gated the run.  ``cost_dollars`` prices the billed
    capacity by each type's ``cost_per_second`` (for the homogeneous
    default fleet it equals ``instance_seconds`` at $1/s); ``per_type``
    breaks usage down by instance type and is empty for the homogeneous
    default fleet.
    """

    horizon_seconds: float
    makespan_seconds: float
    instances: int
    slo_seconds: float
    offered: int
    completed: int
    batches: int
    throughput_qps: float
    utilization: float
    mean_batch_size: float
    mean_queue_depth: float
    peak_queue_depth: int
    latency: LatencySummary
    slo_violation_rate: float
    tenants: dict[str, TenantReport]
    instance_seconds: float = 0.0
    peak_instances: int = 0
    autoscale: AutoscaleStats | None = None
    admission: AdmissionStats | None = None
    burn: SloBurnReport | None = None
    fleet: str = ""
    routing: str = "shared_queue"
    cost_dollars: float = 0.0
    per_type: tuple[TypeUsage, ...] = ()
    faults: str = ""
    retry: str = "none"
    failed: int = 0
    retries: int = 0
    crashes: int = 0
    recoveries: int = 0
    slowdowns: int = 0
    zone_outages: int = 0
    hedges_fired: int = 0
    hedges_cancelled: int = 0
    availability: float = 1.0

    def render(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""

        def ms(seconds: float) -> str:
            # Adaptive precision: sub-0.1 ms values would render as
            # "0.00 ms" at fixed precision, which reads as zero latency.
            value = seconds * 1e3
            if value != 0 and abs(value) < 0.1:
                return f"{value:.3g} ms"
            return f"{value:.2f} ms"

        lines = [
            f"served {self.completed}/{self.offered} requests in "
            f"{self.makespan_seconds:.3f} s on {self.instances} instance(s) "
            f"({self.batches} batches, mean size {self.mean_batch_size:.2f})",
            f"throughput {self.throughput_qps:.1f} req/s   "
            f"utilization {self.utilization:.1%}   "
            f"queue depth mean {self.mean_queue_depth:.2f} / "
            f"peak {self.peak_queue_depth}",
            f"latency  p50 {ms(self.latency.p50)}  p95 {ms(self.latency.p95)}  "
            f"p99 {ms(self.latency.p99)}  max {ms(self.latency.max)}",
            f"SLO {ms(self.slo_seconds)}: violation rate "
            f"{self.slo_violation_rate:.2%}",
        ]
        if self.autoscale is not None:
            a = self.autoscale
            lines.append(
                f"fleet[{a.policy}]: start {self.instances} -> peak "
                f"{a.peak_instances} / min {a.min_instances} / final "
                f"{a.final_instances}   {a.scale_out_events} scale-out(s), "
                f"{a.scale_in_events} scale-in(s)   "
                f"instance-seconds {self.instance_seconds:.3f}"
            )
            if a.events:
                shown = a.events[:10]
                steps = " ".join(
                    f"{e.previous}->{e.target}@{e.time:.2f}s" for e in shown
                )
                suffix = (
                    f" ... (+{len(a.events) - len(shown)} more)"
                    if len(a.events) > len(shown)
                    else ""
                )
                lines.append(f"  trajectory: {steps}{suffix}")
        if self.per_type:
            # Typed fleets only: the homogeneous default render is pinned
            # bit-identical to the pre-fleet engine.
            lines.append(
                f"fleet [{self.fleet}] routing {self.routing}: "
                f"cost ${self.cost_dollars:.4f} for "
                f"{self.instance_seconds:.3f} instance-s"
            )
            for u in self.per_type:
                lines.append(
                    f"  {u.name:<8} x{u.initial}->{u.final} "
                    f"(peak {u.peak})  batches {u.batches}  "
                    f"served {u.completed}  inst-s {u.instance_seconds:.3f}"
                    f"  ${u.cost_dollars:.4f}"
                )
        if self.faults:
            # Faulted runs only: the fault-free render is pinned
            # bit-identical to the pre-reliability engine.
            lines.append(
                f"faults [{self.faults}]: killed {self.crashes} instance(s), "
                f"{self.recoveries} recovered   {self.slowdowns} slowdown(s)"
                f"   {self.zone_outages} zone outage(s)"
            )
        if self.faults or self.retry != "none" or self.hedges_fired:
            lines.append(
                f"reliability [retry={self.retry}]: availability "
                f"{self.availability:.2%}   failed {self.failed}   "
                f"retries {self.retries}   hedges {self.hedges_fired} fired"
                f" / {self.hedges_cancelled} cancelled"
            )
        if self.burn is not None:
            lines.extend(self.burn.render())
        if self.admission is not None:
            lines.append(self.admission.render())
        if self.tenants:
            lines.append("per-tenant:")
            for name in sorted(self.tenants):
                t = self.tenants[name]
                lines.append(
                    f"  {name:<12} n={t.latency.count:<7} "
                    f"p50 {ms(t.latency.p50)}  p95 {ms(t.latency.p95)}  "
                    f"p99 {ms(t.latency.p99)}  "
                    f"violations {t.slo_violation_rate:.2%}"
                )
        return "\n".join(lines)


class ServingEngine:
    """Drive schedulers + service model + a typed fleet over a workload.

    Args:
        scheduler: the batching scheduler owning the admission queue.
            It is the first routing target's queue and the prototype for
            the rest — each further target gets an identically configured
            :meth:`~repro.serve.scheduler.BatchingScheduler.spawn`.
        service: per-batch service-time model (each instance type scales
            it by its ``service_scale``).
        instances: initial replica count (the *whole* fleet when no
            autoscaler is attached).  Ignored when ``fleet`` is given —
            the spec's total wins.
        slo_seconds: per-request latency target for violation accounting.
        autoscaler: optional :class:`~repro.serve.autoscale
            .AutoscalerPolicy` evaluated on a fixed cadence; the fleet
            then grows and shrinks mid-simulation (the policy answers
            with a total; :func:`~repro.serve.autoscale.allocate_fleet`
            splits it across types, cheapest capacity first).
        admission: optional :class:`~repro.serve.admission
            .AdmissionController` gating every arrival before it may
            enter a scheduler queue.
        warmup_seconds: provisioning delay for scaled-out instances (they
            bill immediately, serve only once warm; the initial fleet
            starts warm).  Instance types may override it per type.
        recorder: optional :class:`~repro.obs.trace.TraceRecorder`
            receiving per-request lifecycle spans.  A recorder whose
            ``enabled`` is false (the :class:`~repro.obs.trace
            .NullRecorder` default) is dropped before the event loop, so
            tracing costs nothing unless it is on.
        registry: optional :class:`~repro.obs.metrics.MetricRegistry`
            filled with run counters/gauges and the latency sketches at
            report time.
        sampler: optional :class:`~repro.obs.metrics.Sampler` recording
            the fleet-state time series on its fixed simulated-time
            cadence.
        metrics_backend: latency-sketch backend (``"exact"`` stores every
            latency and keeps reports bit-identical to the pre-telemetry
            engine; ``"p2"`` is the constant-memory streaming estimator).
        violation_budget: the SLO error budget (fraction of requests
            allowed to violate) the burn-rate analytics measure against.
        burn_window_seconds: burn-rate window width; ``0`` picks an
            eighth of the run horizon automatically.
        fleet: optional typed-fleet composition — a
            :class:`~repro.serve.fleet.FleetSpec` or its string form
            (``"small:2,large:1"``).  ``None`` keeps the homogeneous
            ``default`` fleet of ``instances``, which is bit-identical to
            the pre-fleet engine.
        routing: routing-policy name from
            :data:`~repro.serve.routing.ROUTING_POLICIES` (default
            ``shared_queue``, the single queue every type drains).
        routing_seed: seed for randomized routing policies (po2).
        faults: optional fault model — a :class:`~repro.serve.faults
            .FaultSpec` or its string form (``"mtbf=0.4,mttr=0.1"``,
            or the named preset ``"default"``).  ``None`` / ``""`` (or a
            spec with every process disabled) skips the fault machinery
            entirely, keeping the default path bit-identical to the
            fault-free engine.
        retry: optional :class:`~repro.serve.retry.RetryPolicy` (or a
            mode name from :data:`~repro.serve.retry.RETRY_POLICIES`)
            deciding whether failed requests re-enter the queue.
        hedge_seconds: duplicate a request onto a second queue when it
            is still unfinished this long after enqueue (``0`` disables
            hedging); first copy to depart wins.
        fault_seed: seed of the fault injector's event stream (the
            scenario layer passes the scenario seed).
    """

    def __init__(
        self,
        scheduler: BatchingScheduler,
        service: ServiceModel,
        instances: int = 2,
        slo_seconds: float = 0.05,
        autoscaler: AutoscalerPolicy | None = None,
        admission: AdmissionController | None = None,
        warmup_seconds: float = 0.0,
        recorder: TraceRecorder | None = None,
        registry: MetricRegistry | None = None,
        sampler: Sampler | None = None,
        metrics_backend: str = "exact",
        violation_budget: float = 0.01,
        burn_window_seconds: float = 0.0,
        fleet: FleetSpec | str | None = None,
        routing: str = "shared_queue",
        routing_seed: int = 0,
        faults: FaultSpec | str | None = None,
        retry: RetryPolicy | str | None = None,
        hedge_seconds: float = 0.0,
        fault_seed: int = 0,
    ) -> None:
        if fleet is None and instances < 1:
            raise ValueError(f"need at least one instance, got {instances}")
        if slo_seconds <= 0:
            raise ValueError(f"SLO must be positive, got {slo_seconds}")
        if warmup_seconds < 0:
            raise ValueError("warm-up must be non-negative")
        if metrics_backend not in SKETCH_BACKENDS:
            raise ValueError(
                f"unknown metrics backend {metrics_backend!r}; "
                f"choose from {SKETCH_BACKENDS}"
            )
        if not 0 < violation_budget < 1:
            raise ValueError(
                f"violation budget must be a rate in (0, 1), got "
                f"{violation_budget}"
            )
        if burn_window_seconds < 0:
            raise ValueError("burn window must be non-negative")
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {routing!r}; "
                f"choose from {sorted(ROUTING_POLICIES)}"
            )
        self.scheduler = scheduler
        self.service = service
        self.fleet_spec = coerce_fleet(fleet, instances)
        self.instances = self.fleet_spec.total()
        self.slo_seconds = slo_seconds
        self.autoscaler = autoscaler
        self.admission = admission
        self.warmup_seconds = warmup_seconds
        self.recorder = recorder
        self.registry = registry
        self.sampler = sampler
        self.metrics_backend = metrics_backend
        self.violation_budget = violation_budget
        self.burn_window_seconds = burn_window_seconds
        self.routing = routing
        self.routing_seed = routing_seed
        if hedge_seconds < 0:
            raise ValueError("hedge_seconds must be non-negative")
        self.faults = coerce_faults(faults)
        if isinstance(retry, str):
            retry = make_retry_policy(retry)
        # A policy that can never retry (mode "none", or one attempt
        # total) resolves to None so the loop skips the machinery.
        self.retry_policy = retry if retry is not None and retry.enabled else None
        self.hedge_seconds = hedge_seconds
        self.fault_seed = fault_seed

    def run(
        self,
        requests: Sequence[Request] | None = None,
        closed_loop: ClosedLoopPool | None = None,
        horizon_seconds: float | None = None,
    ) -> ServingReport:
        """Simulate one workload to completion.

        Exactly one of ``requests`` (open-loop: the pre-generated stream)
        or ``closed_loop`` (a client pool the simulation drives) must be
        given.  ``horizon_seconds`` stops *admission* — requests arriving
        at or after it are dropped (closed-loop pools stop spawning), and
        tarpitted requests still refused at the horizon are shed — but
        everything admitted is served to completion.  Closed-loop runs
        require a horizon or they would never terminate.
        """
        if (requests is None) == (closed_loop is None):
            raise ValueError("provide exactly one of requests / closed_loop")
        if closed_loop is not None and horizon_seconds is None:
            raise ValueError("closed-loop runs need horizon_seconds")
        if horizon_seconds is not None and horizon_seconds <= 0:
            raise ValueError("horizon must be positive")
        if self.autoscaler is not None:
            self.autoscaler.reset()
        if self.admission is not None:
            self.admission.reset()
        state = _Run(self, requests, closed_loop, horizon_seconds)
        state.simulate()
        return self._report(state)

    def _report(self, run: "_Run") -> ServingReport:
        window = run.makespan if run.makespan > 0 else 1.0
        served = run.served
        burn = run.burn
        tenants: dict[str, TenantReport] = {}
        for name in sorted(run.tenant_sketches):
            sketch = run.tenant_sketches[name]
            completed = sketch.count  # type: ignore[attr-defined]
            tenants[name] = TenantReport(
                tenant=name,
                completed=completed,
                throughput_qps=completed / window,
                latency=sketch.summary(),  # type: ignore[attr-defined]
                slo_violation_rate=burn.violations_for(name) / completed,
            )
        return ServingReport(
            horizon_seconds=run.horizon,
            makespan_seconds=run.makespan,
            instances=self.instances,
            slo_seconds=self.slo_seconds,
            offered=run.offered,
            completed=served,
            batches=run.batches,
            throughput_qps=served / window,
            utilization=(
                run.busy_seconds / run.instance_seconds
                if run.instance_seconds > 0
                else 0.0
            ),
            mean_batch_size=served / run.batches if run.batches else 0.0,
            mean_queue_depth=run.depth_integral / window,
            peak_queue_depth=run.peak_depth,
            latency=run.overall_sketch.summary(),  # type: ignore[attr-defined]
            slo_violation_rate=burn.violations / served if served else 0.0,
            tenants=tenants,
            instance_seconds=run.instance_seconds,
            peak_instances=run.peak_pool,
            autoscale=run.autoscale_stats,
            admission=run.stats,
            burn=burn.report(),
            fleet=self.fleet_spec.render() if run.fleet.is_typed else "",
            routing=self.routing,
            cost_dollars=run.cost_dollars,
            per_type=run.per_type,
            faults=run.fault_spec.render() if run.faulty else "",
            retry=run.retry_policy.mode if run.retry_policy is not None else "none",
            failed=run.failed,
            retries=run.retries,
            crashes=run.crashes,
            recoveries=run.recoveries,
            slowdowns=run.slowdowns,
            zone_outages=run.zone_outages,
            hedges_fired=run.hedges_fired,
            hedges_cancelled=run.hedges_cancelled,
            availability=(
                served / (served + run.failed) if served + run.failed > 0 else 1.0
            ),
        )


class _Run:
    """The state of one :meth:`ServingEngine.run`.

    Holds the event heap, the fleet, the per-target scheduler queues, the
    reliability bookkeeping, and every counter the report reads.  Each
    event kind has one handler method; :meth:`simulate` pops the heap,
    integrates occupancy over the elapsed time in loop locals, and
    dispatches.  Controllers and telemetry the engine was not given stay
    ``None``, so the default path skips them with one check each.
    """

    def __init__(
        self,
        engine: ServingEngine,
        requests: Sequence[Request] | None,
        closed_loop: ClosedLoopPool | None,
        horizon_seconds: float | None,
    ) -> None:
        self.service = engine.service
        self.instances = engine.instances
        self.closed_loop = closed_loop
        self.events: list[tuple[float, int, int, object]] = []
        self._seq = itertools.count()
        fleet = self.fleet = TypedReplicaPool(
            engine.fleet_spec, default_warmup_seconds=engine.warmup_seconds
        )
        slices = self.slices = fleet.slices
        self.typed = fleet.is_typed

        initial = closed_loop.initial_requests() if requests is None else list(requests)
        self.offered = 0
        for request in sorted(initial, key=lambda r: (r.arrival_time, r.request_id)):
            if horizon_seconds is not None and request.arrival_time >= horizon_seconds:
                continue
            self.push(request.arrival_time, _ARRIVE, request)
            self.offered += 1
        self.horizon = horizon = horizon_seconds or max(
            (r.arrival_time for r in initial), default=0.0
        )
        autoscaler, admission = engine.autoscaler, engine.admission
        fault_spec, retry_policy = engine.faults, engine.retry_policy
        recorder, sampler, registry = engine.recorder, engine.sampler, engine.registry
        if not self.offered:
            # Nothing arrives inside the horizon, so nothing runs: arm no
            # controller and no telemetry; the report carries only the
            # fleet and routing labels.
            autoscaler = admission = fault_spec = retry_policy = None
            recorder = sampler = registry = None
            self.typed = False
        self.autoscaler = autoscaler
        self.admission = admission
        self.stats = (
            AdmissionStats(mode=admission.mode) if admission is not None else None
        )

        # The routing layer: one scheduler queue per target, the engine's
        # scheduler serving as the first queue and the prototype for the
        # rest.  Each instance type drains its declared targets in
        # priority order, capped by its own batch ceiling.
        policy = self.policy = make_routing(
            engine.routing, fleet.types, seed=engine.routing_seed
        )
        targets = self.targets = policy.targets()
        first = engine.scheduler
        schedulers = self.schedulers = {
            target: (first if i == 0 else first.spawn())
            for i, target in enumerate(targets)
        }
        self.max_wait = first.max_wait_seconds
        self.serve_plan = [
            (
                s,
                s.itype.max_batch or None,
                tuple(schedulers[t] for t in policy.serves(s.itype.name)),
                s.itype.service_scale,
            )
            for s in slices
        ]
        # Which slices serve each target: the health view behind
        # failure-aware routing and hedging (a target is healthy while
        # any serving slice has an instance up or warming).
        self.serving_slices = {
            target: tuple(s for s in slices if target in policy.serves(s.itype.name))
            for target in targets
        }

        # Telemetry.  A disabled recorder resolves to None here, once, so
        # the event loop never pays for tracing it is not doing.
        self.rec = recorder if recorder is not None and recorder.enabled else None
        self.sampler = sampler
        self.registry = registry
        self.seen_requests: set[int] = set()  # first-arrival dedup, tracing only
        self.burn = BurnRateTracker(
            slo_seconds=engine.slo_seconds,
            budget=engine.violation_budget,
            window_seconds=engine.burn_window_seconds
            or max(horizon / 8.0, 1e-9),
        )
        self.metrics_backend = engine.metrics_backend
        self.overall_sketch = make_sketch(engine.metrics_backend)
        self.tenant_sketches: dict[str, object] = {}

        # Reliability machinery (fault injection / retries / hedging),
        # untouched unless armed — which keeps the default path
        # bit-identical to the pre-reliability engine.
        self.fault_spec = fault_spec
        self.injector = (
            FaultInjector(fault_spec, engine.fault_seed, len(slices))
            if fault_spec is not None
            else None
        )
        self.faulty = self.injector is not None
        # Failure-aware routing needs a second target to fall back to.
        self.reroute = self.faulty and len(targets) > 1
        self.retry_policy = retry_policy
        self.hedge_seconds = engine.hedge_seconds
        self.hedging = self.hedge_seconds > 0
        self.in_flight: dict[tuple[int, int], object] = {}
        self.crashed_handles: set[tuple[int, int]] = set()
        self.slow_until = [0.0] * len(slices)
        self.attempt_count: dict[int, int] = {}  # failed attempts per request
        self.finished_ids: set[int] = set()  # hedging: departed-or-failed ids
        self.copies: dict[int, int] = {}  # hedging: extra outstanding copies
        self.route_of: dict[int, str] = {}  # hedging: the primary copy's target

        self.depth = 0  # requests waiting across every target queue
        self.peak_depth = self.arrived = self.served = self.batches = 0
        self.failed = self.retries = self.crashes = self.recoveries = 0
        self.slowdowns = self.zone_outages = 0
        self.hedges_fired = self.hedges_cancelled = 0
        self.peak_pool = self.min_pool = fleet.provisioned
        self.scale_events: list[ScalingEvent] = []
        self.tick_busy_mark = 0.0
        self.tick_pool_mark = 0.0

    def push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self.events, (time, kind, next(self._seq), payload))

    def depth_of(self, target: str) -> int:
        """One target queue's depth (what routing policies inspect)."""
        return self.schedulers[target].queue_depth

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def simulate(self) -> None:
        """Arm the controllers, drain the heap, then settle the totals."""
        if self.autoscaler is not None:
            self.push(self.autoscaler.interval_seconds, _AUTOSCALE, None)
        if self.faulty:
            self._seed_faults()
        events = self.events
        fleet = self.fleet
        sampler = self.sampler
        depart = self._depart
        handlers = (
            None,
            self._warmed,
            self._arrive,
            self._timeout,
            None,
            self._fault,
            self._recover,
            self._retry,
            self._hedge,
        )
        depth_integral = 0.0  # queued requests x time
        busy_integral = 0.0  # busy instances x time
        pool_integral = 0.0  # provisioned (billed) instances x time
        busy_at_makespan = 0.0
        pool_at_makespan = 0.0
        last_time = 0.0
        makespan = 0.0
        while events:
            now, kind, _, payload = heapq.heappop(events)
            dt = now - last_time
            depth_integral += self.depth * dt
            busy_integral += fleet.busy_count * dt
            pool_integral += fleet.provisioned * dt
            last_time = now
            if sampler is not None and now >= sampler.next_time:
                sampler.record(now, self._fleet_state(busy_integral, pool_integral))
            if kind == _DEPART:
                # Only departures advance the makespan: stale TIMEOUT (or
                # autoscale-tick) events outliving the last departure are
                # no-ops and must not inflate the throughput/utilization
                # window — the billing integrals are snapshotted here too.
                if depart(now, payload):
                    makespan = now
                    busy_at_makespan = busy_integral
                    pool_at_makespan = pool_integral
            elif kind == _AUTOSCALE:
                self._autoscale(now, busy_integral, pool_integral)
            else:
                handlers[kind](now, payload)

        self.makespan = makespan
        self.depth_integral = depth_integral
        self.busy_seconds = busy_at_makespan
        self.instance_seconds = pool_at_makespan
        if self.stats is not None:
            self.stats.offered = self.offered
        if self.rec is not None:
            self.rec.finish()
        if sampler is not None:
            # Extend the series through the run horizon so its length is a
            # deterministic function of horizon / interval alone.
            sampler.record(
                max(self.horizon, last_time),
                self._fleet_state(busy_integral, pool_integral),
            )
        self.autoscale_stats = (
            AutoscaleStats(
                policy=self.autoscaler.kind,
                peak_instances=self.peak_pool,
                min_instances=self.min_pool,
                final_instances=fleet.target_size,
                scale_out_events=sum(1 for e in self.scale_events if e.delta > 0),
                scale_in_events=sum(1 for e in self.scale_events if e.delta < 0),
                events=tuple(self.scale_events),
            )
            if self.autoscaler is not None
            else None
        )
        # The homogeneous default fleet bills $1/s, so its cost is exactly
        # the instance-seconds integral and the per-type breakdown stays
        # empty (pre-fleet reports pinned).
        if self.typed:
            self.per_type = fleet.usage()
            self.cost_dollars = sum(u.cost_dollars for u in self.per_type)
        else:
            self.per_type = ()
            self.cost_dollars = pool_at_makespan
        if self.registry is not None:
            self._export(self.registry)

    def _seed_faults(self) -> None:
        """One event per armed fault process.

        Seeds and re-arms alike only land inside the admission horizon, so
        the fault stream always terminates and the post-horizon drain runs
        fault-free (counters and billing integrals stay inside the run).
        """
        spec, injector, horizon = self.fault_spec, self.injector, self.horizon
        if spec.mtbf > 0:
            for i, s in enumerate(self.slices):
                gap = injector.next_crash_gap(s.provisioned)
                if gap < horizon:
                    self.push(gap, _FAULT, ("crash", i))
        if spec.slow_mtbf > 0:
            for i in range(len(self.slices)):
                gap = injector.next_slowdown_gap()
                if gap < horizon:
                    self.push(gap, _FAULT, ("slow", i))
        if spec.zone_mtbf > 0:
            gap = injector.next_zone_gap()
            if gap < horizon:
                self.push(gap, _FAULT, ("zone", -1))

    # ------------------------------------------------------------------
    # Event handlers, one per kind
    # ------------------------------------------------------------------
    def _depart(self, now: float, payload: object) -> bool:
        """A replica finished a batch; ``False`` if the departure is stale."""
        handle, batch = payload  # type: ignore[misc]
        if self.faulty:
            if handle in self.crashed_handles:
                # The instance died mid-batch: its requests took the
                # failure path at crash time, the fleet slot was released
                # by the crash itself — this departure must not double-free.
                self.crashed_handles.discard(handle)
                return False
            del self.in_flight[handle]
        fleet = self.fleet
        fleet.release(handle, now)
        rec = self.rec
        hedging = self.hedging
        attempt_count = self.attempt_count if self.faulty else None
        burn = self.burn
        overall_sketch = self.overall_sketch
        tenant_sketches = self.tenant_sketches
        closed_loop = self.closed_loop
        served = self.served
        for request in batch.requests:  # type: ignore[attr-defined]
            if hedging:
                rid = request.request_id
                if rid in self.finished_ids:
                    # The losing hedge copy: the winner already recorded
                    # this request's latency (or its failure).
                    self.hedges_cancelled += 1
                    self.copies.pop(rid, None)
                    if rec is not None:
                        label = fleet.label(handle)
                        rec.request_event(
                            now, SPAN_HEDGE_CANCELLED, request, instance=label
                        )
                    continue
                self.finished_ids.add(rid)
            if attempt_count:
                # A previously failed request finally succeeded.
                attempt_count.pop(request.request_id, None)
            latency = now - request.arrival_time
            sketch = tenant_sketches.get(request.tenant)
            if sketch is None:
                sketch = tenant_sketches[request.tenant] = make_sketch(
                    self.metrics_backend
                )
            sketch.add(latency)  # type: ignore[attr-defined]
            overall_sketch.add(latency)
            violated = burn.observe(now, request.tenant, latency)
            served += 1
            if rec is not None:
                rec.request_event(
                    now, SPAN_DEPART, request, instance=fleet.label(handle),
                    latency=latency, violated=violated,
                )
            if closed_loop is not None:
                self._follow_up(now)
        self.slices[handle[0]].completed += served - self.served
        self.served = served
        self._dispatch(now)
        return True

    def _warmed(self, now: float, handle: object) -> None:
        if self.fleet.warmed(handle, now):  # type: ignore[arg-type]
            if self.rec is not None:
                label = self.fleet.label(handle)
                self.rec.fleet_event(now, FLEET_WARMED, instance=label)
            self._dispatch(now)

    def _arrive(self, now: float, request: Request) -> None:
        self.arrived += 1
        rec = self.rec
        if rec is not None and request.request_id not in self.seen_requests:
            self.seen_requests.add(request.request_id)
            rec.request_event(now, SPAN_ARRIVE, request)
        if self.admission is not None:
            if not self._admit(now, request):
                return
        elif rec is not None:
            rec.request_event(now, SPAN_ADMIT, request, reason="open")
        if self.hedging:
            # Armed once per request, at its first (admitted) enqueue;
            # fires only if still unfinished then.
            self.push(now + self.hedge_seconds, _HEDGE, request)
        self._enqueue(request, now)

    def _timeout(self, now: float, payload: object) -> None:
        # The queue head may have exceeded its wait.
        self._dispatch(now)

    def _autoscale(
        self, now: float, busy_integral: float, pool_integral: float
    ) -> None:
        """Observe the interval, maybe resize the fleet."""
        fleet = self.fleet
        interval_busy = busy_integral - self.tick_busy_mark
        interval_pool = pool_integral - self.tick_pool_mark
        self.tick_busy_mark = busy_integral
        self.tick_pool_mark = pool_integral
        snapshot = FleetSnapshot(
            now=now,
            provisioned=fleet.target_size,
            ready=fleet.ready_count,
            busy=fleet.busy_count,
            warming=fleet.warming_count,
            queue_depth=self.depth,
            utilization=(
                min(interval_busy / interval_pool, 1.0) if interval_pool > 0 else 0.0
            ),
        )
        target = self.autoscaler.decide(snapshot)
        if target != snapshot.provisioned:
            for handle, ready_at in fleet.scale_to(target, now):
                if ready_at > now:
                    self.push(ready_at, _WARMED, handle)
            previous = snapshot.provisioned
            detail = fleet.last_scale_detail if self.typed else ()
            if self.rec is not None:
                extra = {"per_type": [list(r) for r in detail]} if self.typed else {}
                self.rec.fleet_event(
                    now, FLEET_SCALE, previous=previous, target=target, **extra
                )
                for label in fleet.last_rescued:
                    self.rec.fleet_event(now, FLEET_RESCUE, instance=label)
            self.scale_events.append(ScalingEvent(now, previous, target, detail))
            self._dispatch(now)
        self.peak_pool = max(self.peak_pool, fleet.provisioned)
        self.min_pool = min(self.min_pool, fleet.target_size)
        if self.events or self.depth > 0 or fleet.busy_count > 0:
            self.push(now + self.autoscaler.interval_seconds, _AUTOSCALE, None)

    def _fault(self, now: float, payload: object) -> None:
        what, idx = payload  # type: ignore[misc]
        spec, injector = self.fault_spec, self.injector
        if what == "crash":
            victim = injector.pick_victim(self.fleet.instance_ids(idx))
            if victim is not None:
                self._crash((idx, victim), now, spec.mttr)
            gap = injector.next_crash_gap(self.slices[idx].provisioned)
            if now + gap < self.horizon:
                self.push(now + gap, _FAULT, ("crash", idx))
        elif what == "slow":
            self.slowdowns += 1
            self.slow_until[idx] = now + spec.slow_duration
            if self.rec is not None:
                self.rec.fleet_event(
                    now, FLEET_SLOWDOWN, type=self.slices[idx].itype.name,
                    factor=spec.slow_factor, until=self.slow_until[idx],
                )
            gap = injector.next_slowdown_gap()
            if now + gap < self.horizon:
                self.push(now + gap, _FAULT, ("slow", idx))
        else:  # zone outage: correlated teardown across slices
            zone = injector.pick_zone()
            self.zone_outages += 1
            victims = [
                (s.index, instance)
                for s in self.slices
                for instance in s.instance_ids()
                if injector.zone_of(instance) == zone
            ]
            if self.rec is not None:
                killed = len(victims)
                self.rec.fleet_event(now, FLEET_ZONE_OUTAGE, zone=zone, killed=killed)
            for handle in victims:
                self._crash(handle, now, spec.zone_mttr)
            gap = injector.next_zone_gap()
            if now + gap < self.horizon:
                self.push(now + gap, _FAULT, ("zone", -1))

    def _recover(self, now: float, index: object) -> None:
        self.recoveries += 1
        handle, ready_at = self.fleet.restore(index, now)  # type: ignore[arg-type]
        if self.rec is not None:
            label = self.fleet.label(handle)
            self.rec.fleet_event(now, FLEET_RECOVER, instance=label, ready_at=ready_at)
        if ready_at > now:
            self.push(ready_at, _WARMED, handle)
        else:
            self._dispatch(now)

    def _retry(self, now: float, request: Request) -> None:
        # Admission was already paid at the original arrival.
        self._enqueue(request, now)

    def _hedge(self, now: float, request: Request) -> None:
        """Duplicate a still-unfinished request onto another queue."""
        rid = request.request_id
        primary = self.route_of.pop(rid, None)
        if rid not in self.finished_ids:
            self.hedges_fired += 1
            self.copies[rid] = self.copies.get(rid, 0) + 1
            if self.rec is not None:
                self.rec.request_event(now, SPAN_HEDGE_FIRED, request)
            self._enqueue(request, now, exclude=primary)

    # ------------------------------------------------------------------
    # Shared steps
    # ------------------------------------------------------------------
    def _admit(self, now: float, request: Request) -> bool:
        """Gate one arrival; a refused one is shed or tarpitted here."""
        # Graceful degradation: with part of the fleet down, the queue
        # budget tightens to the healthy fraction of declared capacity.
        fraction = self.fleet.provisioned / self.instances if self.faulty else 1.0
        decision = self.admission.admit(
            request.tenant, now, self.depth, capacity_fraction=fraction
        )
        stats = self.stats
        rec = self.rec
        if decision.admitted:
            stats.admitted += 1
            if rec is not None:
                rec.request_event(now, SPAN_ADMIT, request, reason=decision.reason)
            return True
        retry_at = now + decision.retry_after_seconds
        if decision.retry_after_seconds > 0 and retry_at < self.horizon:
            stats.tarpitted += 1
            if rec is not None:
                rec.request_event(
                    now, SPAN_TARPIT, request, reason=decision.reason, retry_at=retry_at
                )
            self.push(retry_at, _ARRIVE, request)
            return False
        stats.shed += 1
        stats.shed_by_reason[decision.reason] = (
            stats.shed_by_reason.get(decision.reason, 0) + 1
        )
        stats.per_tenant_shed[request.tenant] = (
            stats.per_tenant_shed.get(request.tenant, 0) + 1
        )
        if rec is not None:
            rec.request_event(now, SPAN_SHED, request, reason=decision.reason)
        if self.closed_loop is not None:
            # The refused client errors out and retries after a backoff
            # (the controller's tarpit delay), so the clock advances even
            # for zero-think-time pools — an instant retry against a
            # still-full queue would livelock the simulation.
            self._follow_up(now + self.admission.tarpit_seconds)
        return False

    def _enqueue(
        self, request: Request, now: float, exclude: str | None = None
    ) -> None:
        """Route a request to a target queue and arm its batching deadline.

        ``exclude`` steers a hedged duplicate away from the target
        already carrying the primary copy.
        """
        if exclude is None and not self.reroute:
            target = self.policy.route(request, self.depth_of)
        else:
            target = self._healthy_route(request, exclude)
        self.schedulers[target].enqueue(request)
        if self.hedging:
            self.route_of[request.request_id] = target
        self.depth += 1
        if self.rec is not None:
            self.rec.request_event(
                now, SPAN_ENQUEUE, request, queue_depth=self.depth
            )
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
        if self.max_wait > 0:
            self.push(now + self.max_wait, _TIMEOUT, None)
        self._dispatch(now)

    def _healthy(self, target: str) -> bool:
        """Whether any slice serving ``target`` has capacity alive."""
        return any(
            s.ready_count + s.warming_count > 0 for s in self.serving_slices[target]
        )

    def _least_loaded(self, targets: Sequence[str]) -> str:
        return min(targets, key=lambda t: (self.depth_of(t), t))

    def _healthy_route(self, request: Request, exclude: str | None) -> str:
        """Failure-aware routing: fall back to the least-loaded healthy
        target when the policy's pick has no capacity left.

        A hedged duplicate (``exclude`` = the primary's target) goes to
        the least-loaded *other* healthy target when one exists — the
        point of hedging is a second, independent path — and only falls
        back to the primary's target when it is the sole survivor.
        """
        if exclude is not None:
            alive = [
                t for t in self.targets if t != exclude and self._healthy(t)
            ]
            if alive:
                return self._least_loaded(alive)
        target = self.policy.route(request, self.depth_of)
        if not self._healthy(target):
            alive = [t for t in self.targets if self._healthy(t)]
            if alive:
                target = self._least_loaded(alive)
        return target

    def _dispatch(self, now: float) -> None:
        """Start every batch a free replica can take right now."""
        fleet = self.fleet
        rec = self.rec
        for slice_, limit, scheds, scale in self.serve_plan:
            while slice_.has_free():
                batch = None
                for sched in scheds:
                    if sched.ready(now, limit):
                        batch = sched.pop_batch(now, limit)
                        break
                if batch is None:
                    break
                self.depth -= len(batch.requests)
                handle = fleet.acquire(slice_.index, now)
                seconds = self.service.batch_service_seconds(batch.graph_sizes)
                if scale != 1.0:
                    seconds *= scale
                if self.faulty:
                    if now < self.slow_until[slice_.index]:
                        seconds *= self.fault_spec.slow_factor
                    self.in_flight[handle] = batch
                self.batches += 1
                if rec is not None:
                    label, size = fleet.label(handle), len(batch.requests)
                    for request in batch.requests:
                        rec.request_event(
                            now, SPAN_DISPATCH, request, instance=label,
                            batch_size=size, service_seconds=seconds,
                        )
                self.push(now + seconds, _DEPART, (handle, batch))

    def _follow_up(self, now: float) -> None:
        """Closed loop: a finished (or refused) client owes its next request."""
        follow_up = self.closed_loop.next_request(now)
        if follow_up.arrival_time < self.horizon:
            self.push(follow_up.arrival_time, _ARRIVE, follow_up)
            self.offered += 1

    def _fail_attempt(self, request: Request, now: float) -> None:
        """One service attempt died with its instance: retry or fail."""
        rid = request.request_id
        if self.hedging:
            if rid in self.finished_ids:
                self.copies.pop(rid, None)  # late copy of a settled request
                return
            extra = self.copies.get(rid, 0)
            if extra > 0:
                # A surviving copy (queued or in flight) still carries the
                # request; the duplicate absorbs this failure.
                self.copies[rid] = extra - 1
                return
        attempt = self.attempt_count.get(rid, 0) + 1
        delay = (
            self.retry_policy.next_delay(request, attempt, now)
            if self.retry_policy is not None
            else None
        )
        if delay is None:
            self.failed += 1
            self.attempt_count.pop(rid, None)
            if self.hedging:
                self.finished_ids.add(rid)
                self.copies.pop(rid, None)
                self.route_of.pop(rid, None)
            if self.rec is not None:
                self.rec.request_event(now, SPAN_FAIL, request, attempts=attempt)
            if self.closed_loop is not None:
                # The client saw an error; it owes its next request.
                self._follow_up(now)
            return
        self.attempt_count[rid] = attempt
        self.retries += 1
        if self.rec is not None:
            self.rec.request_event(
                now, SPAN_RETRY, request, attempt=attempt, retry_at=now + delay
            )
        self.push(now + delay, _RETRY, request)

    def _crash(self, handle: tuple[int, int], now: float, repair: float) -> None:
        """Tear one instance down and fail whatever it was serving."""
        self.crashes += 1
        state = self.fleet.crash(handle, now)
        if self.rec is not None:
            label = self.fleet.label(handle)
            self.rec.fleet_event(now, FLEET_CRASH, instance=label, state=state)
        if state in ("busy", "retiring"):
            batch = self.in_flight.pop(handle)
            # The already-scheduled DEPART for this batch is now stale;
            # the set tells the depart handler to discard it (instance
            # ids are never reused, so at most one outstanding departure
            # can ever match a handle).
            self.crashed_handles.add(handle)
            for request in batch.requests:  # type: ignore[attr-defined]
                self._fail_attempt(request, now)
        if state != "retiring":
            # A retiring instance was leaving anyway; everyone else gets a
            # replacement once the repair completes.
            self.push(now + repair, _RECOVER, handle[0])
        if self._eject_dead_targets():
            self._dispatch(now)

    def _eject_dead_targets(self) -> int:
        """Move requests stranded behind targets with no capacity onto the
        least-loaded healthy targets; returns how many moved (a total
        outage moves nothing — those queues wait for recoveries)."""
        alive = [t for t in self.targets if self._healthy(t)]
        if not alive:
            return 0
        moved = 0
        for target in self.targets:
            sched = self.schedulers[target]
            if target in alive or sched.queue_depth == 0:
                continue
            for request in sched.drain():
                self.schedulers[self._least_loaded(alive)].enqueue(request)
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _fleet_state(
        self, busy_integral: float, pool_integral: float
    ) -> dict[str, object]:
        """What one Sampler row holds (state before the current event).

        Typed fleets add per-type and per-target columns; the homogeneous
        default keeps exactly the pre-fleet columns.
        """
        fleet = self.fleet
        stats = self.stats
        state: dict[str, object] = {
            "ready": fleet.ready_count,
            "warming": fleet.warming_count,
            "busy": fleet.busy_count,
            "retiring": fleet.retiring_count,
            "provisioned": fleet.provisioned,
            "queue_depth": self.depth,
            "arrived": self.arrived,
            "admitted": stats.admitted if stats is not None else self.arrived,
            "shed": stats.shed if stats is not None else 0,
            "tarpitted": stats.tarpitted if stats is not None else 0,
            "completed": self.served,
            "utilization": (
                round(busy_integral / pool_integral, 9) if pool_integral > 0 else 0.0
            ),
        }
        if self.typed:
            for s in self.slices:
                state[f"provisioned[{s.itype.name}]"] = s.provisioned
                state[f"busy[{s.itype.name}]"] = s.busy_count
            for target in self.targets:
                state[f"queue_depth[{target}]"] = self.depth_of(target)
        return state

    def _export(self, registry: MetricRegistry) -> None:
        """Fill the metric registry with the run's counters and sketches."""
        counter, gauge = registry.counter, registry.gauge
        if self.faulty or self.retry_policy is not None or self.hedging:
            # Reliability counters appear only when the machinery was
            # armed: default-run registry contents stay pinned.
            counter("requests_failed").inc(self.failed)
            counter("requests_retried").inc(self.retries)
            counter("instances_crashed").inc(self.crashes)
            counter("instances_recovered").inc(self.recoveries)
            counter("hedges_fired").inc(self.hedges_fired)
            counter("hedges_cancelled").inc(self.hedges_cancelled)
        counter("requests_offered").inc(self.offered)
        counter("arrival_events").inc(self.arrived)
        counter("requests_completed").inc(self.served)
        counter("batches_dispatched").inc(self.batches)
        counter("slo_violations").inc(self.burn.violations)
        if self.stats is not None:
            counter("admission_admitted").inc(self.stats.admitted)
            counter("admission_shed").inc(self.stats.shed)
            counter("admission_tarpitted").inc(self.stats.tarpitted)
        gauge("peak_queue_depth").set(self.peak_depth)
        gauge("peak_instances").set(self.peak_pool)
        gauge("final_instances").set(self.fleet.target_size)
        gauge("instance_seconds").set(self.instance_seconds)
        gauge("makespan_seconds").set(self.makespan)
        if self.typed:
            gauge("cost_dollars").set(self.cost_dollars)
        for u in self.per_type:
            gauge(f"instance_seconds[{u.name}]").set(u.instance_seconds)
            gauge(f"peak_instances[{u.name}]").set(u.peak)
            counter(f"requests_completed[{u.name}]").inc(u.completed)
            counter(f"batches_dispatched[{u.name}]").inc(u.batches)
        registry.attach_histogram("latency_seconds", self.overall_sketch)
        for tenant in sorted(self.tenant_sketches):
            sketch = self.tenant_sketches[tenant]
            registry.attach_histogram(f"latency_seconds[{tenant}]", sketch)
