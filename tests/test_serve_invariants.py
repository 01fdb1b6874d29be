"""Serving-engine invariants that must hold across the whole knob space.

* Little's law against the analytic queue: with a deterministic service
  time and one request per batch, the time-averaged queue depth equals
  throughput times the mean wait, exactly (up to float rounding).
* The M/D/1 Pollaczek-Khinchine mean wait, within three standard errors
  over seeds.
* A scenario fuzz over fleet x routing x autoscaler x admission x faults
  x retry x hedge, asserting conservation, bounded utilization, per-type
  accounting, and seed determinism on every draw.
* Regression tests for two bugs in the hedging paths of typed fleets.
"""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.scenario import ServingScenario, simulate_serving_scenario
from repro.serve.service import LinearServiceModel

#: Analytic service model: fast, and independent of the accelerator model.
SERVICE = LinearServiceModel(base_seconds=0.004, per_node_seconds=2e-6)


@pytest.mark.parametrize("instances", [1, 2, 4])
def test_littles_law_holds_exactly(instances: int) -> None:
    """``L_q = lambda * W_q`` at rho = 0.7 on an M/D/c queue."""
    service_seconds = 2e-3
    scenario = ServingScenario(
        qps=0.7 * instances / service_seconds,
        duration_seconds=20.0,
        instances=instances,
        max_batch=1,
        seed=0,
    )
    report = simulate_serving_scenario(
        scenario,
        service=LinearServiceModel(
            base_seconds=service_seconds, per_node_seconds=0.0
        ),
    )
    assert report.completed > 1000
    mean_wait = report.latency.mean - service_seconds
    assert report.mean_queue_depth == pytest.approx(
        report.throughput_qps * mean_wait, rel=1e-9
    )


def test_md1_mean_wait_matches_pollaczek_khinchine() -> None:
    """M/D/1 at rho = 0.7: ``W_q = rho * S / (2 (1 - rho))`` = 2.333 ms."""
    service_seconds, rho = 2e-3, 0.7
    service = LinearServiceModel(base_seconds=service_seconds, per_node_seconds=0.0)
    waits = []
    for seed in range(8):
        scenario = ServingScenario(
            qps=rho / service_seconds,
            duration_seconds=60.0,
            instances=1,
            max_batch=1,
            seed=seed,
        )
        report = simulate_serving_scenario(scenario, service=service)
        waits.append(report.latency.mean - service_seconds)
    analytic = rho * service_seconds / (2.0 * (1.0 - rho))
    standard_error = statistics.stdev(waits) / math.sqrt(len(waits))
    assert abs(statistics.fmean(waits) - analytic) < 3.0 * standard_error


def test_hedging_on_typed_routing_without_faults_runs() -> None:
    """Hedges on a multi-target policy need the target health view even
    when no fault model is armed (this used to raise ``KeyError``)."""
    scenario = ServingScenario(
        qps=200.0,
        duration_seconds=0.5,
        fleet="small:2,large:1",
        routing="size_affinity",
        hedge_seconds=0.01,
    )
    report = simulate_serving_scenario(scenario, service=SERVICE)
    assert report.hedges_fired > 0
    assert report.completed == report.offered


def test_per_type_served_excludes_cancelled_hedge_copies() -> None:
    """Each request is served once, so the per-type ``completed`` values
    add up to the run's ``completed`` even when hedge copies lose."""
    scenario = ServingScenario(
        qps=300.0,
        duration_seconds=1.0,
        fleet="small:2,large:1",
        routing="size_affinity",
        faults="default",
        retry="backoff",
        hedge_seconds=0.01,
        seed=0,
    )
    report = simulate_serving_scenario(scenario, service=SERVICE)
    assert report.hedges_cancelled > 0
    assert sum(u.completed for u in report.per_type) == report.completed


scenarios = st.builds(
    ServingScenario,
    arrival=st.sampled_from(["poisson", "mmpp"]),
    qps=st.sampled_from([150.0, 400.0, 800.0]),
    duration_seconds=st.sampled_from([0.1, 0.2, 0.3]),
    fleet=st.sampled_from(
        ["", "default:3", "small:2,large:1", "small:1,default:1,large:1"]
    ),
    routing=st.sampled_from(["shared_queue", "size_affinity", "po2", "tenant_pin"]),
    autoscaler=st.sampled_from(["none", "target-util", "queue-pid"]),
    admission=st.sampled_from(["none", "shed", "tarpit"]),
    queue_budget=st.sampled_from([8, 32]),
    faults=st.sampled_from(["", "default", "mtbf=0.1,mttr=0.05,zones=2,zone_mtbf=0.2"]),
    retry=st.sampled_from(["none", "backoff", "deadline"]),
    hedge_seconds=st.sampled_from([0.0, 0.005, 0.02]),
    num_tenants=st.integers(1, 3),
    max_instances=st.sampled_from([4, 8]),
    seed=st.integers(0, 50),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scenario=scenarios)
def test_scenario_fuzz_invariants(scenario: ServingScenario) -> None:
    report = simulate_serving_scenario(scenario, service=SERVICE)
    shed = report.admission.shed if report.admission is not None else 0
    assert report.offered == report.completed + report.failed + shed
    assert 0.0 <= report.utilization <= 1.0
    busy_seconds = report.utilization * report.instance_seconds
    assert report.instance_seconds >= busy_seconds
    for usage in report.per_type:
        assert usage.instance_seconds >= usage.busy_seconds >= 0.0
    if report.per_type:
        assert sum(u.completed for u in report.per_type) == report.completed
    again = simulate_serving_scenario(scenario, service=SERVICE)
    assert again.render() == report.render()
