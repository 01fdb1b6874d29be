"""Tests for campaign analysis: Pareto fronts and tables over records."""

from repro.campaign.analysis import pareto_front
from repro.campaign.results import CampaignResult, ScenarioRecord
from repro.campaign.spec import Scenario


def make_record(label, time, energy, temp, tiers=None, feasible=True):
    scenario = Scenario(dataset="ppi", scale=0.05, tiers=tiers, label=label)
    return ScenarioRecord(
        label=label,
        key=label,
        scenario=scenario.describe(),
        epoch_seconds=time,
        epoch_energy_joules=energy,
        peak_celsius=temp,
        thermally_feasible=feasible,
        worst_compute_seconds=time / 2,
        worst_communication_seconds=time / 2,
        energy_per_input_joules=energy / 10,
        num_inputs=10,
        eval_seconds=0.0,
    )


class TestPareto:
    def test_dominated_record_removed(self):
        good = make_record("good", 1.0, 1.0, 50.0)
        bad = make_record("bad", 2.0, 2.0, 60.0)
        assert pareto_front([good, bad]) == [good]

    def test_tradeoffs_kept(self):
        a = make_record("fast-hot", 1.0, 2.0, 90.0)
        b = make_record("slow-cool", 2.0, 1.0, 60.0)
        assert pareto_front([a, b]) == [a, b]

    def test_exact_duplicates_all_survive(self):
        a = make_record("a", 1.0, 1.0, 50.0)
        b = make_record("b", 1.0, 1.0, 50.0)
        assert pareto_front([a, b]) == [a, b]

    def test_empty(self):
        assert pareto_front([]) == []


class TestRecordScenario:
    def test_record_knobs_rematerialize_config(self):
        record = make_record("x", 1.0, 2.0, 50.0, tiers=5)
        config = Scenario.from_dict(record.scenario).to_config()
        assert config.tiers == 5
        assert config.v_tier == 2
        assert record.edp == 2.0


class TestCampaignTable:
    def test_summary_counts_rendered(self):
        result = CampaignResult(
            name="demo",
            records=[make_record("a", 1.0, 1.0, 50.0)],
            hits=1,
            misses=0,
            elapsed_seconds=0.5,
        )
        text = result.table().render()
        assert "demo" in text
        assert "1 cached / 0 evaluated" in text
