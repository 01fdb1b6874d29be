"""Graph serialization: save/load CSR graphs as compressed .npz archives.

Keeps expensive synthetic generations and partitions reusable across
sessions; archives are self-describing and versioned.  A graph and its
partition can also share one archive (:func:`save_workload`), which is
how the campaign store persists a workload's graph and METIS cut.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.graph.graph import CSRGraph
from repro.graph.partition import PartitionResult

_FORMAT_VERSION = 1
#: Key prefix of the partition's arrays inside a workload archive.
_PART = "part_"


def _graph_arrays(graph: CSRGraph) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "indptr": graph.indptr,
        "indices": graph.indices,
        "name": np.array([graph.name]),
    }
    if graph.features is not None:
        arrays["features"] = graph.features
    if graph.labels is not None:
        arrays["labels"] = graph.labels
    community = getattr(graph, "community", None)
    if community is not None:
        arrays["community"] = np.asarray(community)
    return arrays


def _partition_arrays(partition: PartitionResult) -> dict[str, np.ndarray]:
    return {
        "version": np.array([_FORMAT_VERSION]),
        "assignment": partition.assignment,
        "num_parts": np.array([partition.num_parts]),
        "edge_cut": np.array([partition.edge_cut]),
        "part_sizes": partition.part_sizes,
        "imbalance": np.array([partition.imbalance]),
    }


def _check_version(data: Any, kind: str, prefix: str = "") -> None:
    version = int(data[prefix + "version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported {kind} archive version {version} "
            f"(this build reads {_FORMAT_VERSION})"
        )


def _graph_from(data: Any) -> CSRGraph:
    _check_version(data, "graph")
    graph = CSRGraph(
        indptr=data["indptr"],
        indices=data["indices"],
        features=data["features"] if "features" in data else None,
        labels=data["labels"] if "labels" in data else None,
        name=str(data["name"][0]),
    )
    if "community" in data:
        graph.community = data["community"]
    return graph


def _partition_from(data: Any, prefix: str = "") -> PartitionResult:
    _check_version(data, "partition", prefix)
    return PartitionResult(
        assignment=data[prefix + "assignment"],
        num_parts=int(data[prefix + "num_parts"][0]),
        edge_cut=int(data[prefix + "edge_cut"][0]),
        part_sizes=data[prefix + "part_sizes"],
        imbalance=float(data[prefix + "imbalance"][0]),
    )


def _open(path: str | Path, kind: str) -> Any:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no {kind} archive at {path}")
    return np.load(path, allow_pickle=False)


def save_graph(graph: CSRGraph, path: str | Path) -> None:
    """Write ``graph`` (structure + optional features/labels) to ``path``."""
    np.savez_compressed(Path(path), **_graph_arrays(graph))


def load_graph(path: str | Path) -> CSRGraph:
    """Read a graph previously written by :func:`save_graph`."""
    with _open(path, "graph") as data:
        return _graph_from(data)


def save_partition(partition: PartitionResult, path: str | Path) -> None:
    """Write a partition result next to its graph."""
    np.savez_compressed(Path(path), **_partition_arrays(partition))


def load_partition(path: str | Path) -> PartitionResult:
    """Read a partition previously written by :func:`save_partition`."""
    with _open(path, "partition") as data:
        return _partition_from(data)


def save_workload(
    graph: CSRGraph, partition: PartitionResult, path: str | Path
) -> None:
    """Write a graph and its partition to one archive, atomically.

    The archive is written to a temporary file beside ``path`` and moved
    into place with :func:`os.replace`, so a concurrent reader sees either
    no archive or a whole one; of two racing writers, the last one wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = _graph_arrays(graph)
    arrays.update(
        (_PART + key, value) for key, value in _partition_arrays(partition).items()
    )
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_workload(path: str | Path) -> tuple[CSRGraph, PartitionResult]:
    """Read the graph and partition written by :func:`save_workload`."""
    with _open(path, "workload") as data:
        return _graph_from(data), _partition_from(data, _PART)
