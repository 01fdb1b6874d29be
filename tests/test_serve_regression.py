"""Differential regression: the fleet/routing refactor must not move a bit.

``tests/data/serve_regression_baseline.json`` pins the full output of the
*pre-fleet* serving engine (PR 4/5 era) over five scenarios spanning every
subsystem — arrival processes, wfq batching, autoscalers, admission
control, the p2 sketch backend — plus a closed-loop run through the raw
engine API.  The refactored engine, on its compatibility path (a
homogeneous ``default`` fleet behind the shared queue), must reproduce
every metric, the rendered report, and each autoscale trajectory
*exactly*: ``==`` on floats, not ``approx``.  JSON round-trips floats via
``repr``, so exact comparison is well-defined.

The same scenarios run a second time with the fleet spelled explicitly
(``fleet="default:N"``) to pin that the typed-fleet machinery itself —
handles, slice accounting, the routing layer — degenerates to the same
bits, not just that the default arguments bypass it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serve.arrivals import ClosedLoopPool
from repro.serve.engine import ServingEngine
from repro.serve.scenario import (
    ServingRecord,
    ServingScenario,
    simulate_serving_scenario,
)
from repro.serve.scheduler import BatchingScheduler
from repro.serve.service import LinearServiceModel

BASELINE_PATH = (
    Path(__file__).parent / "data" / "serve_regression_baseline.json"
)
BASELINE = json.loads(BASELINE_PATH.read_text())

#: The exact scenarios the baseline was captured from (pre-fleet engine).
SCENARIOS = {
    "open-fifo": dict(qps=50.0, duration_seconds=0.3, instances=1, seed=0),
    "wfq-diurnal": dict(
        arrival="diurnal",
        qps=300.0,
        duration_seconds=1.0,
        policy="wfq",
        num_tenants=3,
        instances=2,
        seed=2,
    ),
    "autoscale-shed": dict(
        arrival="mmpp",
        qps=400.0,
        duration_seconds=0.4,
        instances=1,
        autoscaler="target-util",
        max_instances=4,
        admission="shed",
        queue_budget=16,
        seed=3,
    ),
    "pid-tarpit": dict(
        arrival="mmpp",
        qps=150.0,
        duration_seconds=1.0,
        instances=2,
        autoscaler="queue-pid",
        autoscale_target=1.0,
        max_instances=6,
        admission="tarpit",
        seed=0,
    ),
    "p2-backend": dict(
        qps=150.0, duration_seconds=0.3, metrics_backend="p2", seed=1
    ),
}


def _check(name: str, scenario: ServingScenario) -> None:
    expected = BASELINE[name]
    report = simulate_serving_scenario(scenario)
    record = ServingRecord.from_report(
        scenario, report, key="-", eval_seconds=0.0
    )
    metrics = record.metrics()
    for key, value in expected["metrics"].items():
        assert metrics[key] == value, f"{name}: metric {key} drifted"
    assert report.render() == expected["render"]
    if "trajectory" in expected:
        assert [
            [e.time, e.previous, e.target] for e in report.autoscale.events
        ] == expected["trajectory"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_path_is_bit_identical(name: str) -> None:
    """The refactored engine with default knobs == the pre-fleet engine."""
    _check(name, ServingScenario(**SCENARIOS[name]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_explicit_default_fleet_is_bit_identical(name: str) -> None:
    """Spelling the fleet out (``default:N`` + shared queue) routes every
    request through the typed-fleet machinery and still reproduces the
    pre-fleet bits."""
    params = dict(SCENARIOS[name])
    fleet = f"default:{params.get('instances', 2)}"
    _check(name, ServingScenario(**params, fleet=fleet))


def test_closed_loop_is_bit_identical() -> None:
    """Raw engine API, closed-loop workload: exact reproduction."""
    expected = BASELINE["closed-loop"]
    engine = ServingEngine(
        scheduler=BatchingScheduler(max_batch=4, max_wait_seconds=0.002),
        service=LinearServiceModel(base_seconds=0.002, per_node_seconds=1e-6),
        instances=2,
        slo_seconds=0.05,
    )
    report = engine.run(
        closed_loop=ClosedLoopPool(num_clients=3, think_seconds=0.01, seed=0),
        horizon_seconds=1.0,
    )
    assert report.completed == expected["completed"]
    assert report.offered == expected["offered"]
    assert report.batches == expected["batches"]
    assert report.makespan_seconds == expected["makespan_seconds"]
    assert report.throughput_qps == expected["throughput_qps"]
    assert report.latency.p99 == expected["p99_latency_seconds"]
    assert report.latency.mean == expected["mean_latency_seconds"]
    assert report.utilization == expected["utilization"]
    # The compatibility path reports no typed-fleet extras.
    assert report.fleet == ""
    assert report.per_type == ()
    assert report.cost_dollars == report.instance_seconds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_inert_reliability_machinery_is_bit_identical(name: str) -> None:
    """A retry policy that never fires (no faults -> no failures) must
    leave the simulation untouched: every metric matches the pre-fault
    baseline exactly, and the render differs only by the one line that
    discloses the armed (but idle) policy."""
    expected = BASELINE[name]
    scenario = ServingScenario(
        **SCENARIOS[name], retry="backoff", faults="", hedge_seconds=0.0
    )
    report = simulate_serving_scenario(scenario)
    record = ServingRecord.from_report(
        scenario, report, key="-", eval_seconds=0.0
    )
    metrics = record.metrics()
    for key, value in expected["metrics"].items():
        assert metrics[key] == value, f"{name}: metric {key} drifted"
    assert metrics["failed"] == 0
    assert metrics["retries"] == 0
    assert metrics["availability"] == 1.0
    stripped = "\n".join(
        line
        for line in report.render().splitlines()
        if not line.startswith("reliability [")
    )
    assert stripped == expected["render"]
