"""Design-space exploration: tier/mesh sweeps and Pareto fronts.

The sweeps are plain ``CampaignSpec`` cross-products run through
``run_campaign``; the Pareto front works on the records they return.
"""

import pytest

from repro.campaign.analysis import pareto_front
from repro.campaign.executor import run_campaign
from repro.campaign.results import ScenarioRecord
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore

PPI = Scenario(dataset="ppi", scale=0.05, seed=0)


def make_point(label, time, energy, temp):
    return ScenarioRecord(
        label=label,
        key=label,
        scenario=PPI.describe(),
        epoch_seconds=time,
        epoch_energy_joules=energy,
        peak_celsius=temp,
        thermally_feasible=temp < 105,
        worst_compute_seconds=time / 2,
        worst_communication_seconds=time / 2,
        energy_per_input_joules=energy / 10,
        num_inputs=10,
        eval_seconds=0.0,
    )


def tier_spec(tiers):
    return CampaignSpec(name="sweep-tiers", base=PPI, axes=(("tiers", tiers),))


class TestParetoFront:
    def test_dominated_point_removed(self):
        a = make_point("good", 1.0, 1.0, 50.0)
        b = make_point("bad", 2.0, 2.0, 60.0)
        assert pareto_front([a, b]) == [a]

    def test_tradeoff_points_kept(self):
        a = make_point("fast-hot", 1.0, 2.0, 90.0)
        b = make_point("slow-cool", 2.0, 1.0, 60.0)
        assert set(p.label for p in pareto_front([a, b])) == {"fast-hot", "slow-cool"}

    def test_identical_points_both_kept(self):
        a = make_point("a", 1.0, 1.0, 50.0)
        b = make_point("b", 1.0, 1.0, 50.0)
        assert len(pareto_front([a, b])) == 2

    def test_tie_on_two_axes_still_dominates(self):
        """Equal on time+energy but strictly cooler -> dominates."""
        cooler = make_point("cooler", 1.0, 1.0, 50.0)
        hotter = make_point("hotter", 1.0, 1.0, 60.0)
        assert pareto_front([cooler, hotter]) == [cooler]

    def test_many_duplicates_with_one_dominated(self):
        dup1 = make_point("dup1", 1.0, 1.0, 50.0)
        dup2 = make_point("dup2", 1.0, 1.0, 50.0)
        dup3 = make_point("dup3", 1.0, 1.0, 50.0)
        bad = make_point("bad", 2.0, 1.0, 50.0)
        front = pareto_front([dup1, bad, dup2, dup3])
        assert front == [dup1, dup2, dup3]

    def test_single_point_front(self):
        a = make_point("only", 3.0, 4.0, 70.0)
        assert pareto_front([a]) == [a]

    def test_empty(self):
        assert pareto_front([]) == []

    def test_edp_property(self):
        assert make_point("x", 2.0, 3.0, 50.0).edp == pytest.approx(6.0)


class TestTierSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return run_campaign(tier_spec((2, 3, 5))).records

    def test_one_point_per_tier_count(self, points):
        assert [p.scenario["tiers"] for p in points] == [2, 3, 5]
        assert [p.label for p in points] == [
            "ppi-2t-mc-s0", "ppi-3t-mc-s0", "ppi-5t-mc-s0",
        ]

    def test_more_tiers_hotter(self, points):
        temps = [p.peak_celsius for p in points]
        assert temps == sorted(temps)

    def test_more_tiers_more_e_capacity(self, points):
        configs = [Scenario.from_dict(p.scenario).to_config() for p in points]
        capacities = [c.num_e_crossbars for c in configs]
        assert capacities == sorted(capacities)
        assert capacities[0] < capacities[-1]

    def test_paper_design_point_feasible(self, points):
        three_tier = points[1]
        assert three_tier.thermally_feasible

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            tier_spec(())
        with pytest.raises(ValueError, match="at least 2 tiers"):
            tier_spec((1,)).scenarios()


class TestMeshSweep:
    def test_mesh_sweep_runs(self):
        spec = CampaignSpec(name="sweep-mesh", base=PPI, axes=(("mesh_width", (8,)),))
        points = run_campaign(spec).records
        assert len(points) == 1
        assert points[0].label == "ppi-8x8-mc-s0"
        assert points[0].epoch_seconds > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="no values"):
            CampaignSpec(name="sweep-mesh", base=PPI, axes=(("mesh_width", ()),))


class TestSweepsThroughCampaignEngine:
    def test_tier_sweep_uses_result_store(self, tmp_path, monkeypatch):
        """Sweeps ride the campaign cache: a repeat sweep re-evaluates nothing."""
        store = ResultStore(tmp_path)
        first = run_campaign(tier_spec((2, 3)), store=store)
        assert len(store) == 2

        def boom(*args, **kwargs):
            raise AssertionError("expected pure cache hits")

        monkeypatch.setattr(Scenario, "evaluate", boom)
        second = run_campaign(tier_spec((2, 3)), store=store)
        assert (second.hits, second.misses) == (2, 0)
        assert [p.label for p in second.records] == [p.label for p in first.records]
        assert [p.metrics() for p in second.records] == [
            p.metrics() for p in first.records
        ]
