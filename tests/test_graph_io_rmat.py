"""Unit tests for graph serialization and the R-MAT generator."""

import numpy as np
import pytest

from repro.graph.generators import powerlaw_community_graph, rmat_graph
from repro.graph.io import (
    load_graph,
    load_partition,
    load_workload,
    save_graph,
    save_partition,
    save_workload,
)
from repro.graph.partition import partition_graph


class TestGraphIO:
    def test_roundtrip_structure_only(self, tiny_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_graph(tiny_graph, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.indptr, tiny_graph.indptr)
        assert np.array_equal(loaded.indices, tiny_graph.indices)
        assert loaded.name == tiny_graph.name
        assert loaded.features is None

    def test_roundtrip_with_features(self, small_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_graph(small_graph, path)
        loaded = load_graph(path)
        assert np.array_equal(loaded.features, small_graph.features)
        assert np.array_equal(loaded.labels, small_graph.labels)
        assert np.array_equal(loaded.community, small_graph.community)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "nope.npz")

    def test_partition_roundtrip(self, small_graph, small_partition, tmp_path):
        path = tmp_path / "p.npz"
        save_partition(small_partition, path)
        loaded = load_partition(path)
        assert np.array_equal(loaded.assignment, small_partition.assignment)
        assert loaded.num_parts == small_partition.num_parts
        assert loaded.edge_cut == small_partition.edge_cut
        assert loaded.imbalance == pytest.approx(small_partition.imbalance)

    def test_partition_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_partition(tmp_path / "nope.npz")

    def test_loaded_graph_usable(self, small_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_graph(small_graph, path)
        loaded = load_graph(path)
        result = partition_graph(loaded, 4, seed=0)
        assert result.num_parts == 4


    def test_workload_roundtrip_is_one_archive(
        self, small_graph, small_partition, tmp_path
    ):
        path = tmp_path / "ab" / "w.npz"
        save_workload(small_graph, small_partition, path)
        assert [p.name for p in path.parent.iterdir()] == ["w.npz"]
        graph, partition = load_workload(path)
        assert np.array_equal(graph.indptr, small_graph.indptr)
        assert np.array_equal(graph.indices, small_graph.indices)
        assert np.array_equal(graph.community, small_graph.community)
        assert np.array_equal(partition.assignment, small_partition.assignment)
        assert np.array_equal(partition.part_sizes, small_partition.part_sizes)
        assert partition.edge_cut == small_partition.edge_cut
        assert partition.imbalance == small_partition.imbalance

    def test_wrong_version_rejected(self, small_graph, small_partition, tmp_path):
        path = tmp_path / "w.npz"
        save_workload(small_graph, small_partition, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["part_version"] = np.array([99])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="partition archive version 99"):
            load_workload(path)


class TestRMAT:
    def test_node_count(self):
        g = rmat_graph(scale=8, edge_factor=4, seed=0)
        assert g.num_nodes == 256

    def test_edge_count_near_target(self):
        g = rmat_graph(scale=10, edge_factor=8, seed=0)
        # Dedup + self-loop removal trims the drawn count somewhat.
        assert 0.5 * 1024 * 8 < g.num_edges <= 1024 * 8

    def test_heavy_tail(self):
        g = rmat_graph(scale=11, edge_factor=8, seed=0)
        degrees = np.sort(g.degrees)[::-1]
        assert degrees[0] > 5 * g.average_degree

    def test_deterministic(self):
        a = rmat_graph(scale=7, seed=5)
        b = rmat_graph(scale=7, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_uniform_probabilities_balanced(self):
        g = rmat_graph(
            scale=9, edge_factor=4, probabilities=(0.25, 0.25, 0.25, 0.25), seed=0
        )
        degrees = np.sort(g.degrees)[::-1]
        # Erdos-Renyi-like: no extreme hubs.
        assert degrees[0] < 4 * g.average_degree

    def test_validation(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=0)
        with pytest.raises(ValueError):
            rmat_graph(scale=4, edge_factor=0)
        with pytest.raises(ValueError):
            rmat_graph(scale=4, probabilities=(0.5, 0.5, 0.5, 0.5))

    def test_feeds_block_mapper(self):
        """R-MAT graphs flow through the E-PE block mapper."""
        from repro.reram.sparse_mapping import block_tile_adjacency

        g = rmat_graph(scale=9, edge_factor=6, seed=1)
        small = block_tile_adjacency(g, 8)
        large = block_tile_adjacency(g, 128)
        assert large.zeros_stored >= small.zeros_stored
