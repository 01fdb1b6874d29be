"""Tests for the campaign executor: caching, parallelism, determinism.

The scenarios here use PPI at scale 0.05 (the cheapest real workload) and
one shared module-scoped first run, so the whole file costs only a
handful of evaluations.  The executor runs serving scenarios through the
same path; ``TestBothKinds`` drives one of each against one store.
"""

import dataclasses
import json

import pytest

from repro.core import accelerator

from repro.campaign.executor import ProgressEvent, run_campaign, run_scenarios
from repro.campaign.results import ScenarioRecord
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore
from repro.serve.scenario import ServingRecord, ServingScenario

SCENARIOS = [
    Scenario(dataset="ppi", scale=0.05, tiers=2, label="2-tier"),
    Scenario(dataset="ppi", scale=0.05, tiers=3, label="3-tier"),
    Scenario(dataset="ppi", scale=0.05, tiers=3, multicast=False, label="3-tier-uni"),
]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("repro_cache"))


@pytest.fixture(scope="module")
def first_run(store):
    return run_scenarios(SCENARIOS, store=store, name="exec-test")


class TestCaching:
    def test_first_run_evaluates_everything(self, first_run, store):
        assert first_run.misses == len(SCENARIOS)
        assert first_run.hits == 0
        assert not any(r.cached for r in first_run.records)
        assert len(store) == len(SCENARIOS)

    def test_second_run_is_pure_cache_hits(self, first_run, store, monkeypatch):
        # Prove "zero re-evaluations": any evaluation would blow up.
        def boom(*args, **kwargs):
            raise AssertionError("cache hit expected; evaluator was called")

        monkeypatch.setattr(Scenario, "evaluate", boom)
        second = run_scenarios(SCENARIOS, store=store, name="exec-test")
        assert second.hits == len(SCENARIOS)
        assert second.misses == 0
        assert all(r.cached for r in second.records)
        assert [r.metrics() for r in second.records] == [
            r.metrics() for r in first_run.records
        ]
        assert [r.key for r in second.records] == [r.key for r in first_run.records]

    def test_no_store_never_persists(self, tmp_path):
        result = run_scenarios(SCENARIOS[:1], store=None, name="volatile")
        assert result.misses == 1
        # And an unrelated store directory stays empty.
        assert len(ResultStore(tmp_path)) == 0

    def test_cache_shared_across_campaign_shapes(self, first_run, store, monkeypatch):
        """A CampaignSpec naming the same points reuses the sweep's records."""

        def boom(*args, **kwargs):
            raise AssertionError("cross-campaign cache hit expected")

        monkeypatch.setattr(Scenario, "evaluate", boom)
        spec = CampaignSpec(
            name="reshaped",
            base=Scenario(dataset="ppi", scale=0.05),
            axes=(("tiers", (2, 3)),),
        )
        result = run_campaign(spec, store=store)
        assert result.hits == 2 and result.misses == 0
        # Cached records carry the *current* campaign's labels.
        assert [r.label for r in result.records] == [
            s.display_label for s in spec.scenarios()
        ]

    def test_records_in_scenario_order(self, first_run):
        assert [r.label for r in first_run.records] == [
            s.label for s in SCENARIOS
        ]


class TestParallel:
    def test_parallel_matches_serial(self, first_run, tmp_path):
        parallel = run_scenarios(
            SCENARIOS,
            jobs=2,
            store=ResultStore(tmp_path / "fresh"),
            name="exec-test",
        )
        assert parallel.misses == len(SCENARIOS)
        assert [r.label for r in parallel.records] == [
            r.label for r in first_run.records
        ]
        assert [r.metrics() for r in parallel.records] == [
            r.metrics() for r in first_run.records
        ]
        assert [r.key for r in parallel.records] == [
            r.key for r in first_run.records
        ]

    def test_jobs_validated(self):
        with pytest.raises(ValueError, match="jobs"):
            run_scenarios(SCENARIOS, jobs=0)


class TestProgressEvents:
    def test_cache_hits_stream_terminal_events_only(self, first_run, store):
        events = []
        run_scenarios(SCENARIOS, store=store, on_event=events.append)
        assert [e.kind for e in events] == ["cache-hit"] * len(SCENARIOS)
        assert [e.done for e in events] == [1, 2, 3]
        assert events[-1].hits == len(SCENARIOS)
        assert events[-1].computed == 0
        assert all(e.eta_seconds is None for e in events)

    def test_computed_runs_announce_then_finish(self):
        events = []
        run_scenarios(SCENARIOS[:2], store=None, on_event=events.append)
        assert [e.kind for e in events] == [
            "started", "finished", "started", "finished",
        ]
        # The first finish projects the remaining uncached work; the last
        # one has nothing left to project.
        assert events[1].eta_seconds is not None
        assert events[1].eta_seconds > 0
        assert events[3].eta_seconds is None
        assert events[3].computed == 2
        assert all(e.total == 2 for e in events)
        assert [e.label for e in events] == [
            "2-tier", "2-tier", "3-tier", "3-tier",
        ]

    def test_render_formats(self):
        started = ProgressEvent(
            kind="started", index=0, total=4, done=0, label="point",
        )
        assert started.render() == "[0/4] point  (running)"
        hit = ProgressEvent(
            kind="cache-hit", index=0, total=4, done=1, label="point", hits=1,
        )
        assert hit.render() == "[1/4] point  (cache hit)"
        finished = ProgressEvent(
            kind="finished", index=1, total=4, done=2, label="point",
            eval_seconds=1.26, computed=1, eta_seconds=12.4,
        )
        assert finished.render() == "[2/4] point  (1.3s, eta 12s)"


class TestProgressAndExport:
    def test_progress_reports_every_scenario(self, store):
        lines = []
        run_scenarios(
            SCENARIOS, store=store, on_event=lambda e: lines.append(e.render())
        )
        assert len(lines) == len(SCENARIOS)
        assert all("cache hit" in line for line in lines)

    def test_json_export_roundtrip(self, first_run, tmp_path):
        path = first_run.to_json(tmp_path / "out" / "campaign.json")
        payload = json.loads(path.read_text())
        assert payload["campaign"] == "exec-test"
        assert payload["num_scenarios"] == len(SCENARIOS)
        reloaded = [ScenarioRecord.from_dict(r) for r in payload["records"]]
        assert [r.metrics() for r in reloaded] == [
            r.metrics() for r in first_run.records
        ]

    def test_csv_export_one_row_per_scenario(self, first_run, tmp_path):
        import csv

        path = first_run.to_csv(tmp_path / "out" / "campaign.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(SCENARIOS)
        assert rows[0]["label"] == "2-tier"
        assert float(rows[0]["epoch_seconds"]) > 0
        assert {"dataset", "tiers", "multicast", "edp"} <= set(rows[0])

    def test_table_renders(self, first_run):
        text = first_run.table().render()
        assert "exec-test" in text and "2-tier" in text

    def test_record_roundtrip_preserves_metrics(self, first_run):
        record = first_run.records[0]
        rebuilt = ScenarioRecord.from_dict(record.to_dict(), cached=True)
        assert rebuilt.metrics() == record.metrics()
        assert rebuilt.cached


class TestBothKinds:
    """Architecture and serving specs share the one runner and one store."""

    ARCH = CampaignSpec(
        name="arch",
        base=Scenario(dataset="ppi", scale=0.05),
        axes=(("tiers", (2, 3)),),
    )
    SERVING = CampaignSpec(
        name="serving",
        base=ServingScenario(qps=50.0, duration_seconds=0.3, instances=1),
        axes=(("max_batch", (1, 8)),),
    )

    def test_shared_store_keys_revival_and_parallelism(self, first_run, store):
        # The architecture points are already stored by ``first_run``.
        arch = run_campaign(self.ARCH, store=store)
        serving = run_campaign(self.SERVING, store=store)
        assert (arch.hits, arch.misses) == (2, 0)
        assert (serving.hits, serving.misses) == (0, 2)
        keys = [r.key for r in arch.records + serving.records]
        assert len(set(keys)) == 4 and set(keys) <= set(store.keys())

        again = run_campaign(self.SERVING, store=store)
        assert (again.hits, again.misses) == (2, 0)
        assert all(type(r) is ServingRecord for r in again.records)
        assert all(type(r) is ScenarioRecord for r in arch.records)
        assert [r.metrics() for r in again.records] == [
            r.metrics() for r in serving.records
        ]

        for spec, serial in ((self.ARCH, arch), (self.SERVING, serving)):
            parallel = run_campaign(spec, jobs=2)
            assert parallel.misses == len(spec)
            assert [type(r) for r in parallel.records] == [
                type(r) for r in serial.records
            ]
            assert [r.key for r in parallel.records] == [
                r.key for r in serial.records
            ]
            assert [r.metrics() for r in parallel.records] == [
                r.metrics() for r in serial.records
            ]


def _comparable(record):
    """A record's content, without the fields that differ run to run."""
    data = dataclasses.asdict(record)
    for volatile in ("cached", "eval_seconds"):
        data.pop(volatile)
    return data


@pytest.fixture(scope="module")
def uncached_run():
    return run_scenarios(SCENARIOS, store=None, name="exec-test")


@pytest.fixture
def builds(monkeypatch):
    """Counts the graph generations and partitions every evaluation pays."""
    calls = {"load_dataset": 0, "partition_graph": 0}
    for name in calls:
        original = getattr(accelerator, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(accelerator, name, counted)
    return calls


class TestWorkloadCache:
    """Scenarios on one workload share one archived graph and partition."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_identical_with_and_without_store(
        self, uncached_run, tmp_path, jobs
    ):
        store = ResultStore(tmp_path)
        cached = run_scenarios(SCENARIOS, jobs=jobs, store=store, name="exec-test")
        assert cached.misses == len(SCENARIOS)
        assert [_comparable(r) for r in cached.records] == [
            _comparable(r) for r in uncached_run.records
        ]
        # Three scenarios, one workload: one archive.
        assert store.size_report()["workloads"] == 1
        assert len(store) == len(SCENARIOS)

    def test_other_architectures_reuse_the_partition(self, tmp_path, builds):
        store = ResultStore(tmp_path)
        run_scenarios(SCENARIOS[:1], store=store)
        assert builds == {"load_dataset": 1, "partition_graph": 1}
        spec = CampaignSpec(
            name="other-chips",
            base=Scenario(dataset="ppi", scale=0.05),
            axes=(
                ("mesh_width", (6, 10)),
                ("tiers", (4,)),
                ("multicast", (True, False)),
            ),
        )
        result = run_campaign(spec, store=store)
        assert (result.hits, result.misses) == (0, len(spec))
        assert builds == {"load_dataset": 1, "partition_graph": 1}

    def test_truncated_archive_is_rebuilt(self, uncached_run, tmp_path, builds):
        store = ResultStore(tmp_path)
        run_scenarios(SCENARIOS[:1], store=store)
        (archive,) = store.workloads_dir.glob("*/*.npz")
        whole = archive.read_bytes()
        archive.write_bytes(whole[: len(whole) // 2])
        store.path_for(SCENARIOS[0].content_key()).unlink()

        again = run_scenarios(SCENARIOS[:1], store=store)
        assert again.misses == 1
        assert builds["partition_graph"] == 2
        assert archive.read_bytes() == whole
        assert _comparable(again.records[0]) == _comparable(
            uncached_run.records[0]
        )

    def test_key_covers_every_build_argument(self, monkeypatch):
        base = dict(dataset="ppi", scale=0.05, seed=0, num_parts=10)
        key = accelerator.workload_key(**base)
        for field, value in (
            ("dataset", "reddit"), ("scale", 0.02), ("seed", 1), ("num_parts", 8),
        ):
            assert accelerator.workload_key(**{**base, field: value}) != key
        monkeypatch.setattr(accelerator, "WORKLOAD_SCHEMA", accelerator.WORKLOAD_SCHEMA + 1)
        assert accelerator.workload_key(**base) != key

    def test_batch_size_reaches_the_key_through_the_part_count(self, tmp_path):
        chip = accelerator.ReGraphX()
        # ppi@0.05 cuts 10 parts at the paper's beta of 5, and 8 at beta 4.
        for beta in (5, 4, 2):
            chip.build_workload("ppi", scale=0.05, batch_size=beta, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*/*.npz"))) == 2

    def test_serving_scenarios_ignore_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        run_campaign(TestBothKinds.SERVING, store=store)
        assert store.size_report()["workloads"] == 0
