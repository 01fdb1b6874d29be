"""Tests for content-addressed scenario keys and the result store."""

import os

import pytest

from repro.campaign.spec import Scenario
from repro.campaign.store import ResultStore
from repro.core.config import ReGraphXConfig
from repro.utils.hashing import canonical_json, stable_digest, stable_seed


class TestHashing:
    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_dataclasses_canonicalize(self):
        text = canonical_json(ReGraphXConfig())
        assert '"mesh_width":8' in text

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json(object())

    def test_stable_digest_stable(self):
        assert stable_digest({"x": 1}) == stable_digest({"x": 1})
        assert stable_digest({"x": 1}) != stable_digest({"x": 2})

    def test_stable_seed_range_and_determinism(self):
        a = stable_seed("campaign", 0, 3)
        assert a == stable_seed("campaign", 0, 3)
        assert 0 <= a < 2**32
        assert a != stable_seed("campaign", 0, 4)


class TestScenarioKey:
    def test_deterministic(self):
        s = Scenario(dataset="ppi", scale=0.05, tiers=4)
        assert s.content_key() == s.content_key()

    def test_every_knob_changes_the_key(self):
        base = Scenario(dataset="ppi", scale=0.05)
        variants = [
            Scenario(dataset="reddit", scale=0.05),
            Scenario(dataset="ppi", scale=0.06),
            Scenario(dataset="ppi", scale=0.05, seed=1),
            Scenario(dataset="ppi", scale=0.05, tiers=4),
            Scenario(dataset="ppi", scale=0.05, mesh_width=6),
            Scenario(dataset="ppi", scale=0.05, noc_clock_hz=2e8),
            Scenario(dataset="ppi", scale=0.05, multicast=False),
            Scenario(dataset="ppi", scale=0.05, use_sa=True),
            Scenario(dataset="ppi", scale=0.05, batch_size=2),
        ]
        keys = {v.content_key() for v in variants} | {base.content_key()}
        assert len(keys) == len(variants) + 1

    def test_label_is_presentation_only(self):
        a = Scenario(dataset="ppi", scale=0.05, label="one")
        b = Scenario(dataset="ppi", scale=0.05, label="two")
        assert a.content_key() == b.content_key()

    def test_default_scale_and_explicit_equal_share_a_key(self):
        from repro.experiments.common import DEFAULT_SCALES

        implicit = Scenario(dataset="ppi")
        explicit = Scenario(dataset="ppi", scale=DEFAULT_SCALES["ppi"])
        assert implicit.content_key() == explicit.content_key()

    def test_base_config_participates(self):
        s = Scenario(dataset="ppi", scale=0.05)
        custom = ReGraphXConfig(num_layers=2)
        assert s.content_key() != s.content_key(custom)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        assert store.get(key) is None
        assert key not in store
        store.put(key, {"epoch_seconds": 1.5})
        assert key in store
        assert store.get(key) == {"epoch_seconds": 1.5}
        assert len(store) == 1
        assert store.keys() == [key]

    def test_sharded_layout(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" + "1" * 62
        path = store.put(key, {})
        assert path == tmp_path / "campaigns" / "cd" / f"{key}.json"
        assert path.is_file()

    def test_corrupt_record_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "2" * 62
        store.put(key, {"ok": True})
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(f"{i:02d}" + "3" * 62, {"i": i})
        assert store.clear() == 3
        assert len(store) == 0

    def test_clear_deletes_workload_archives(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("00" + "3" * 62, {})
        archive = store.workloads_dir / "ab" / ("ab" + "4" * 62 + ".npz")
        archive.parent.mkdir(parents=True)
        archive.write_bytes(b"graph")
        # The count is of records; the archive goes with them.
        assert store.clear() == 1
        assert not archive.exists()
        assert store.size_report()["workloads"] == 0

    def test_archives_are_not_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("00" + "3" * 62, {})
        archive = store.workloads_dir / "ab" / ("ab" + "4" * 62 + ".npz")
        archive.parent.mkdir(parents=True)
        archive.write_bytes(b"graph")
        assert len(store) == 1
        assert store.keys() == ["00" + "3" * 62]
        assert store.get("ab" + "4" * 62) is None
        assert store.prune(0) == 1
        assert archive.exists()

    def test_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert len(store) == 0
        assert store.keys() == []
        assert store.clear() == 0


class TestPruneAndSize:
    @staticmethod
    def fill(store, n):
        keys = [f"{i:02d}" + "a" * 62 for i in range(n)]
        for i, key in enumerate(keys):
            path = store.put(key, {"i": i})
            # Deterministic mtimes: key i is the i-th oldest.
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return keys

    def test_size_report_counts_entries_and_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        self.fill(store, 4)
        archive = store.workloads_dir / "ab" / ("ab" + "4" * 62 + ".npz")
        archive.parent.mkdir(parents=True)
        archive.write_bytes(b"x" * 100)
        report = store.size_report()
        assert report["entries"] == 4
        assert report["total_bytes"] > 0
        assert report["workloads"] == 1
        assert report["workload_bytes"] == 100

    def test_size_report_empty(self, tmp_path):
        report = ResultStore(tmp_path / "nowhere").size_report()
        assert report == {
            "entries": 0, "total_bytes": 0, "workloads": 0, "workload_bytes": 0,
        }

    def test_prune_evicts_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = self.fill(store, 5)
        assert store.prune(2) == 3
        assert store.get(keys[0]) is None
        assert store.get(keys[2]) is None
        assert store.get(keys[3]) == {"i": 3}
        assert store.get(keys[4]) == {"i": 4}
        assert len(store) == 2

    def test_prune_noop_when_under_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        self.fill(store, 3)
        assert store.prune(10) == 0
        assert len(store) == 3

    def test_prune_zero_clears_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        self.fill(store, 3)
        assert store.prune(0) == 3
        assert len(store) == 0

    def test_prune_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "nowhere").prune(5) == 0

    def test_prune_negative_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultStore(tmp_path).prune(-1)
