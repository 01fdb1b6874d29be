"""Multilevel k-way graph partitioner (METIS-style).

The paper partitions input graphs with METIS [17] before Cluster-GCN
training.  METIS is not available offline, so this module implements the
same multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge matching (mutual-proposal variant,
   fully vectorized) collapses matched pairs until the graph is small.
2. **Initial partition** — greedy region growing on the coarsest graph,
   seeded at high-connectivity nodes, targeting balanced part weights.
3. **Uncoarsening + refinement** — the assignment is projected back level
   by level; at each sufficiently small level a boundary-move refinement
   pass reduces the edge cut while respecting a balance constraint.

The result quality (balanced parts, low edge cut) is what Cluster-GCN
needs; exact METIS parity is not required.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.graph import CSRGraph
from repro.utils.rng import rng_from_seed

# Stop coarsening once the graph is this factor of the target part count,
# or when matching stops making progress.
_COARSEST_FACTOR = 4
_MIN_COARSEST = 256
# Refinement is applied only to levels at most this large (the finest levels
# of very large graphs are projected without refinement for speed).
_MAX_REFINE_NODES = 60_000
#: Default balance bound of :func:`partition_graph` (max part / ideal size).
DEFAULT_MAX_IMBALANCE = 1.1


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of :func:`partition_graph`.

    Attributes:
        assignment: part id per node, shape ``(num_nodes,)``.
        num_parts: the requested k.
        edge_cut: undirected edges crossing parts.
        part_sizes: node count per part.
        imbalance: max part size divided by the ideal size (1.0 = perfect).
    """

    assignment: np.ndarray
    num_parts: int
    edge_cut: int
    part_sizes: np.ndarray
    imbalance: float

    def part_nodes(self, part: int) -> np.ndarray:
        """Node ids belonging to ``part``."""
        if not 0 <= part < self.num_parts:
            raise IndexError(f"part {part} out of range [0, {self.num_parts})")
        return np.flatnonzero(self.assignment == part)


@dataclass
class _Level:
    """One level of the multilevel hierarchy."""

    adj: sparse.csr_matrix  # weighted adjacency (edge weights = collapsed multiplicity)
    node_weight: np.ndarray  # collapsed node counts
    fine_to_coarse: np.ndarray | None  # projection map from the finer level


def _heavy_edge_matching(
    adj: sparse.csr_matrix, rng: np.random.Generator, rounds: int = 3
) -> np.ndarray:
    """Match nodes to a heavy-weight neighbor via mutual proposals.

    Each round, every unmatched node proposes to its heaviest unmatched
    neighbor; mutual proposals become matches.  Returns the coarse node id
    per fine node.
    """
    n = adj.shape[0]
    match = np.full(n, -1, dtype=np.int64)
    work = adj.copy()
    for _ in range(rounds):
        unmatched = match < 0
        if not unmatched.any():
            break
        # Mask out matched columns so proposals only target unmatched nodes.
        col_alive = unmatched[work.indices]
        masked = work.copy()
        masked.data = masked.data * col_alive
        proposals = np.asarray(masked.argmax(axis=1)).ravel()
        row_max = np.asarray(masked.max(axis=1).todense()).ravel()
        proposals[row_max <= 0] = -1
        proposals[~unmatched] = -1
        # Mutual proposal: i -> j and j -> i with i < j.
        cand = np.flatnonzero(proposals >= 0)
        mutual = cand[(proposals[proposals[cand]] == cand) & (cand < proposals[cand])]
        match[mutual] = proposals[mutual]
        match[proposals[mutual]] = mutual
    # Assign coarse ids: matched pairs share one id, singletons get their own.
    coarse_id = np.full(n, -1, dtype=np.int64)
    next_id = 0
    order = rng.permutation(n)
    for node in order:
        if coarse_id[node] >= 0:
            continue
        coarse_id[node] = next_id
        if match[node] >= 0:
            coarse_id[match[node]] = next_id
        next_id += 1
    return coarse_id


def _coarsen(
    adj: sparse.csr_matrix, node_weight: np.ndarray, coarse_map: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Collapse a level through ``coarse_map`` (contraction of matched pairs)."""
    n_coarse = int(coarse_map.max()) + 1
    proj = sparse.csr_matrix(
        (np.ones(coarse_map.size), (coarse_map, np.arange(coarse_map.size))),
        shape=(n_coarse, coarse_map.size),
    )
    coarse_adj = (proj @ adj @ proj.T).tocsr()
    coarse_adj.setdiag(0)
    coarse_adj.eliminate_zeros()
    coarse_weight = np.asarray(proj @ node_weight).ravel()
    return coarse_adj, coarse_weight


def _initial_partition(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy region growing on the coarsest graph."""
    n = adj.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    target = node_weight.sum() / k
    # Seeds: heaviest nodes first, so hubs anchor distinct regions.
    seed_order = list(np.argsort(-node_weight + rng.random(n) * 1e-9))
    # int64 ids: fancy indexing with scipy's int32 indices converts on every call.
    indptr, indices, data = adj.indptr, adj.indices.astype(np.int64), adj.data
    for part in range(k):
        # Find an unassigned seed.
        while seed_order and assignment[seed_order[-1]] >= 0:
            seed_order.pop()
        if not seed_order:
            break
        seed = int(seed_order.pop())
        # Connection weight to the part per frontier node, and the order in
        # which nodes joined the frontier.  The lazy max-heap is keyed
        # (-connection, rank): among equally connected nodes the one that
        # joined first is pulled first.
        frontier: dict[int, float] = {seed: 0.0}
        rank: dict[int, int] = {seed: 0}
        heap: list[tuple[float, int, int]] = [(-0.0, 0, seed)]
        weight = 0.0
        while heap and weight < target:
            # Pull the frontier node with the strongest connection to the part.
            _, _, node = heapq.heappop(heap)
            if assignment[node] >= 0:
                # Connections only grow, so a node's newest (heaviest) entry
                # always pops before its stale ones.
                continue
            assignment[node] = part
            weight += node_weight[node]
            lo, hi = indptr[node], indptr[node + 1]
            nbrs = indices[lo:hi]
            free = assignment[nbrs] < 0
            for nbr, w in zip(nbrs[free].tolist(), data[lo:hi][free].tolist()):
                total = frontier[nbr] = frontier.get(nbr, 0.0) + w
                heapq.heappush(heap, (-total, rank.setdefault(nbr, len(rank)), nbr))
    # Any stragglers (disconnected bits) go to the lightest part.
    part_weight = np.bincount(
        assignment[assignment >= 0], weights=node_weight[assignment >= 0], minlength=k
    )
    for node in np.flatnonzero(assignment < 0):
        part = int(np.argmin(part_weight))
        assignment[node] = part
        part_weight[part] += node_weight[node]
    return assignment


def _rebalance(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    assignment: np.ndarray,
    part_weight: np.ndarray,
    cap: float,
) -> None:
    """Push nodes out of overweight parts (in place) until all fit under ``cap``.

    Each evicted node goes to the lightest adjacent part (lowest id among
    equals), falling back to the globally lightest part, so the cut damage
    is bounded while balance is restored unconditionally.
    """
    indptr, indices = adj.indptr, adj.indices
    for part in np.argsort(-part_weight):
        if part_weight[part] <= cap:
            break
        for node in np.flatnonzero(assignment == part):
            if part_weight[part] <= cap:
                break
            nbr_parts = assignment[indices[indptr[node]:indptr[node + 1]]]
            nbr_parts = nbr_parts[nbr_parts != part]
            if nbr_parts.size:
                load = part_weight[nbr_parts]
                dest = int(nbr_parts[load == load.min()].min())
            else:
                dest = int(np.argmin(part_weight))
            if dest == part:
                continue
            assignment[node] = dest
            part_weight[part] -= node_weight[node]
            part_weight[dest] += node_weight[node]


def _refine(
    adj: sparse.csr_matrix,
    node_weight: np.ndarray,
    assignment: np.ndarray,
    k: int,
    max_imbalance: float,
    passes: int = 4,
) -> np.ndarray:
    """Boundary-move refinement: visit the boundary nodes in id order and move
    each to the adjacent part with the highest cut-gain (ties to the part
    first seen in neighbour order) while keeping parts under the balance cap.

    Moves are sequential, so each node sees the moves made before it in the
    pass.  Edge weights are integer-valued (collapsed multiplicities), so the
    per-part connection sums are exact in any summation order.
    """
    assignment = assignment.copy()
    n = adj.shape[0]
    # int64 ids: fancy indexing with scipy's int32 indices converts on every call.
    indptr, indices, data = adj.indptr, adj.indices.astype(np.int64), adj.data
    part_weight = np.bincount(assignment, weights=node_weight, minlength=k).astype(float)
    cap = max_imbalance * node_weight.sum() / k
    _rebalance(adj, node_weight, assignment, part_weight, cap)
    src = np.repeat(np.arange(n), np.diff(indptr))
    degree = np.bincount(src, weights=data, minlength=n)
    for _ in range(passes):
        inside = assignment[src] == assignment[indices]
        boundary = np.flatnonzero(np.bincount(src[~inside], minlength=n))
        internal = np.bincount(src[inside], weights=data[inside], minlength=n)
        # No other part can hold more of a node's edge weight than its own
        # part when its own holds half or more; that stays true until a
        # neighbour moves, so such nodes are skipped until then.
        stuck = degree - internal <= internal
        touched = np.zeros(n, dtype=bool)
        moved = 0
        for node in boundary.tolist():
            if stuck[node] and not touched[node]:
                continue
            lo, hi = indptr[node], indptr[node + 1]
            nbr_parts = assignment[indices[lo:hi]]
            here = assignment[node]
            gain = np.bincount(nbr_parts, weights=data[lo:hi], minlength=k)
            gain -= gain[here]
            best = (gain > 0) & (part_weight + node_weight[node] <= cap)
            if not best.any():
                continue
            best &= gain == gain[best].max()
            dest = nbr_parts[np.argmax(best[nbr_parts])]
            part_weight[here] -= node_weight[node]
            part_weight[dest] += node_weight[node]
            assignment[node] = dest
            touched[indices[lo:hi]] = True
            moved += 1
        if not moved:
            break
    return assignment


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    seed: int | np.random.Generator | None = 0,
    max_imbalance: float = DEFAULT_MAX_IMBALANCE,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced parts (METIS-style).

    Args:
        graph: the graph to cut.
        num_parts: number of parts (the paper's NumPart).
        seed: RNG seed controlling matching and seed selection.
        max_imbalance: allowed max-part-size / ideal-size ratio during
            refinement (METIS default ballpark: 1.03-1.3).

    Returns:
        A :class:`PartitionResult`; ``assignment[v]`` is the part of node v.
    """
    if num_parts < 1:
        raise ValueError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > graph.num_nodes:
        raise ValueError(
            f"cannot cut {graph.num_nodes} nodes into {num_parts} parts"
        )
    rng = rng_from_seed(seed)
    if num_parts == 1:
        assignment = np.zeros(graph.num_nodes, dtype=np.int64)
        return _result(graph, assignment, 1)

    adj = graph.to_scipy().astype(np.float64)
    levels: list[_Level] = [_Level(adj, np.ones(graph.num_nodes), None)]
    coarsest_target = max(_MIN_COARSEST, _COARSEST_FACTOR * num_parts)
    while levels[-1].adj.shape[0] > coarsest_target:
        current = levels[-1]
        coarse_map = _heavy_edge_matching(current.adj, rng)
        n_coarse = int(coarse_map.max()) + 1
        if n_coarse >= current.adj.shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs); stop coarsening
        coarse_adj, coarse_weight = _coarsen(current.adj, current.node_weight, coarse_map)
        levels.append(_Level(coarse_adj, coarse_weight, coarse_map))

    coarsest = levels[-1]
    k = min(num_parts, coarsest.adj.shape[0])
    assignment = _initial_partition(coarsest.adj, coarsest.node_weight, k, rng)
    assignment = _refine(
        coarsest.adj, coarsest.node_weight, assignment, num_parts, max_imbalance
    )
    # Project back through the hierarchy, refining where affordable.
    for i in range(len(levels) - 1, 0, -1):
        assignment = assignment[levels[i].fine_to_coarse]
        fine = levels[i - 1]
        if fine.adj.shape[0] <= _MAX_REFINE_NODES:
            assignment = _refine(
                fine.adj, fine.node_weight, assignment, num_parts, max_imbalance
            )
    return _result(graph, assignment, num_parts)


def _result(graph: CSRGraph, assignment: np.ndarray, k: int) -> PartitionResult:
    part_sizes = np.bincount(assignment, minlength=k)
    ideal = graph.num_nodes / k
    return PartitionResult(
        assignment=assignment,
        num_parts=k,
        edge_cut=graph.edge_cut(assignment),
        part_sizes=part_sizes,
        imbalance=float(part_sizes.max() / ideal) if graph.num_nodes else 1.0,
    )
