"""Differential test: the partitioner's inner loops against scalar oracles.

The reference functions below are the original per-neighbour Python loops
of ``repro.graph.partition`` (dict-based region growing, per-node
``np.unique`` rebalancing, dict-based gain refinement), kept verbatim as the
oracle.  The library versions must produce identical assignments: same
moves, same tie-breaks, same part weights.  Graphs use small integer edge
and node weights so that equal gains and equal frontier weights are common.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph import partition as fast

# ----------------------------------------------------------------------
# Reference oracle: the scalar loops, unchanged.
# ----------------------------------------------------------------------


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
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for part in range(k):
        # Find an unassigned seed.
        while seed_order and assignment[seed_order[-1]] >= 0:
            seed_order.pop()
        if not seed_order:
            break
        seed = seed_order.pop()
        frontier: dict[int, float] = {int(seed): 0.0}
        weight = 0.0
        while frontier and weight < target:
            # Pull the frontier node with the strongest connection to the part.
            node = max(frontier, key=frontier.__getitem__)
            del frontier[node]
            if assignment[node] >= 0:
                continue
            assignment[node] = part
            weight += node_weight[node]
            for idx in range(indptr[node], indptr[node + 1]):
                nbr = int(indices[idx])
                if assignment[nbr] < 0:
                    frontier[nbr] = frontier.get(nbr, 0.0) + float(data[idx])
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

    Moves prefer boundary nodes and the lightest adjacent part, falling back
    to the globally lightest part, so the cut damage is bounded while balance
    is restored unconditionally.
    """
    indptr, indices = adj.indptr, adj.indices
    for part in np.argsort(-part_weight):
        if part_weight[part] <= cap:
            break
        candidates = np.flatnonzero(assignment == part)
        # Boundary nodes first: they have somewhere natural to go.
        for node in candidates:
            if part_weight[part] <= cap:
                break
            nbr_parts = np.unique(assignment[indices[indptr[node]:indptr[node + 1]]])
            nbr_parts = nbr_parts[nbr_parts != part]
            if nbr_parts.size:
                dest = int(nbr_parts[np.argmin(part_weight[nbr_parts])])
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
    """Boundary-move refinement: greedily move nodes to the adjacent part
    with the highest cut-gain while keeping parts under the balance cap."""
    assignment = assignment.copy()
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    part_weight = np.bincount(assignment, weights=node_weight, minlength=k).astype(float)
    cap = max_imbalance * node_weight.sum() / k
    _rebalance(adj, node_weight, assignment, part_weight, cap)
    for _ in range(passes):
        boundary = _boundary_nodes(adj, assignment)
        moved = 0
        for node in boundary:
            here = assignment[node]
            gains: dict[int, float] = {}
            for idx in range(indptr[node], indptr[node + 1]):
                gains[assignment[indices[idx]]] = (
                    gains.get(assignment[indices[idx]], 0.0) + float(data[idx])
                )
            internal = gains.pop(here, 0.0)
            best_part, best_gain = here, 0.0
            for part, weight in gains.items():
                gain = weight - internal
                if gain > best_gain and part_weight[part] + node_weight[node] <= cap:
                    best_part, best_gain = part, gain
            if best_part != here:
                part_weight[here] -= node_weight[node]
                part_weight[best_part] += node_weight[node]
                assignment[node] = best_part
                moved += 1
        if not moved:
            break
    return assignment


def _boundary_nodes(adj: sparse.csr_matrix, assignment: np.ndarray) -> np.ndarray:
    """Nodes with at least one neighbor in a different part."""
    src = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    crossing = assignment[src] != assignment[adj.indices]
    return np.unique(src[crossing])


# ----------------------------------------------------------------------
# Random weighted graphs
# ----------------------------------------------------------------------


@st.composite
def weighted_graphs(draw):
    """(adj, node_weight, k, seed, start) with integer weights and k <= 64.

    ``random`` graphs scatter edges uniformly; ``planted`` graphs wire k
    dense blocks and start from the blocks with whole chunks moved to a
    wrong part, so refinement cascades: moving part of a chunk back
    changes its chunk-mates' gains within the same pass.  ``start`` is the
    assignment handed to the refinement loops; ``overweight`` piles half the
    nodes into part 0 to exercise rebalancing.
    """
    k = draw(st.integers(1, 64))
    n = draw(st.integers(max(k, 2), max(k, 2) + 120))
    kind = draw(st.sampled_from(["random", "planted"]))
    max_edge_weight = draw(st.integers(1, 3))
    max_node_weight = draw(st.integers(1, 3))
    overweight = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    block = rng.integers(0, k, n)
    rows, cols = np.triu_indices(n, 1)
    if kind == "random":
        density = draw(st.sampled_from([0.0, 0.02, 0.08, 0.3]))
        keep = rng.random(rows.size) < density
        start = rng.integers(0, k, n)
    else:
        same = block[rows] == block[cols]
        keep = rng.random(rows.size) < np.where(same, 0.6, 0.03)
        start = block.copy()
        for b in range(k):
            chunk = np.flatnonzero((block == b) & (rng.random(n) < 0.5))
            start[chunk] = rng.integers(0, k)
    rows, cols = rows[keep], cols[keep]
    weight = rng.integers(1, max_edge_weight + 1, rows.size).astype(float)
    upper = sparse.csr_matrix((weight, (rows, cols)), shape=(n, n))
    adj = (upper + upper.T).tocsr()
    node_weight = rng.integers(1, max_node_weight + 1, n).astype(float)
    if overweight:
        start[rng.random(n) < 0.5] = 0
    return adj, node_weight, k, seed, start


class TestAgainstScalarLoops:
    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs())
    def test_initial_partition(self, case):
        adj, node_weight, k, seed, _ = case
        want = _initial_partition(adj, node_weight, k, np.random.default_rng(seed))
        got = fast._initial_partition(adj, node_weight, k, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(weighted_graphs(), st.sampled_from([1.0, 1.03, 1.1, 1.5]))
    def test_rebalance(self, case, max_imbalance):
        adj, node_weight, k, _, start = case
        part_weight = np.bincount(start, weights=node_weight, minlength=k)
        cap = max_imbalance * node_weight.sum() / k
        want_a, want_w = start.copy(), part_weight.copy()
        _rebalance(adj, node_weight, want_a, want_w, cap)
        got_a, got_w = start.copy(), part_weight.copy()
        fast._rebalance(adj, node_weight, got_a, got_w, cap)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_w, want_w)

    @settings(max_examples=200, deadline=None)
    @given(weighted_graphs(), st.sampled_from([1.0, 1.03, 1.1, 1.5]), st.integers(1, 6))
    def test_refine(self, case, max_imbalance, passes):
        adj, node_weight, k, _, start = case
        want = _refine(adj, node_weight, start, k, max_imbalance, passes)
        got = fast._refine(adj, node_weight, start, k, max_imbalance, passes)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs(), st.sampled_from([1.03, 1.1]))
    def test_grow_then_refine(self, case, max_imbalance):
        """The order ``partition_graph`` uses on the coarsest level."""
        adj, node_weight, k, seed, _ = case
        start = _initial_partition(adj, node_weight, k, np.random.default_rng(seed))
        want = _refine(adj, node_weight, start, k, max_imbalance)
        got = fast._refine(adj, node_weight, start, k, max_imbalance)
        np.testing.assert_array_equal(got, want)
