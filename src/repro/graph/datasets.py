"""Dataset registry reproducing the paper's Table II.

The three evaluation datasets (PPI, Reddit, Amazon2M) are registered with
their exact Table II statistics plus the feature/label dimensions of the
real datasets and the Cluster-GCN hidden widths.  ``load_dataset`` produces
a degree-matched synthetic graph at an arbitrary ``scale`` (scale=1.0 is
the full paper-size graph; smaller scales keep the average degree and
community structure, shrinking only the node count — convenient for tests
and laptop-scale experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.generators import powerlaw_community_graph, random_features_and_labels
from repro.graph.graph import CSRGraph


@dataclass(frozen=True)
class DatasetSpec:
    """Statistics and hyper-parameters of one evaluation dataset.

    ``num_nodes`` .. ``num_inputs`` mirror the paper's Table II exactly.
    ``feature_dim``/``num_classes`` come from the real datasets and
    ``hidden_dim``/``num_layers`` from the Cluster-GCN configurations the
    paper adopts (4 neural layers for every dataset, Sec. V.A).
    """

    name: str
    num_nodes: int
    num_edges: int
    num_partitions: int
    batch_size: int
    num_inputs: int
    feature_dim: int
    num_classes: int
    hidden_dim: int
    num_layers: int = 4
    mixing: float = 0.1
    powerlaw_exponent: float = 2.5

    def __post_init__(self) -> None:
        if self.num_partitions % self.batch_size:
            raise ValueError(
                f"{self.name}: NumPart ({self.num_partitions}) must be divisible "
                f"by batch size ({self.batch_size})"
            )
        if self.num_inputs != self.num_partitions // self.batch_size:
            raise ValueError(
                f"{self.name}: Table II requires NumInput = NumPart / beta, "
                f"got {self.num_inputs} != {self.num_partitions // self.batch_size}"
            )

    @property
    def average_degree(self) -> float:
        """Average (undirected) degree, 2E/N."""
        return 2.0 * self.num_edges / self.num_nodes

    @property
    def nodes_per_input(self) -> float:
        """Average node count of one merged input sub-graph."""
        return self.num_nodes / self.num_inputs

    def scaled(self, scale: float) -> tuple[int, int, int]:
        """(nodes, edges, partitions) at ``scale``, keeping average degree."""
        if not 0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        nodes = max(16, round(self.num_nodes * scale))
        edges = max(nodes, round(self.num_edges * scale))
        edges = min(edges, nodes * (nodes - 1) // 2)
        partitions = max(self.batch_size, round(self.num_partitions * scale))
        # Keep NumPart divisible by beta so NumInput stays integral.
        partitions -= partitions % self.batch_size
        partitions = max(self.batch_size, partitions)
        return nodes, edges, partitions


# Table II of the paper, extended with real-dataset feature/label widths
# (PPI: 50 features / 121 classes; Reddit: 602 / 41; Amazon2M: 100 / 47)
# and Cluster-GCN hidden widths (512 / 128 / 400).
DATASETS: dict[str, DatasetSpec] = {
    "ppi": DatasetSpec(
        name="ppi",
        num_nodes=56_944,
        num_edges=818_716,
        num_partitions=250,
        batch_size=5,
        num_inputs=50,
        feature_dim=50,
        num_classes=121,
        hidden_dim=512,
        mixing=0.15,
        powerlaw_exponent=2.6,
    ),
    "reddit": DatasetSpec(
        name="reddit",
        num_nodes=232_965,
        num_edges=11_606_919,
        num_partitions=1500,
        batch_size=10,
        num_inputs=150,
        feature_dim=602,
        num_classes=41,
        hidden_dim=512,
        mixing=0.02,
        powerlaw_exponent=2.2,
    ),
    "amazon2m": DatasetSpec(
        name="amazon2m",
        num_nodes=2_449_029,
        num_edges=61_859_140,
        num_partitions=15_000,
        batch_size=10,
        num_inputs=1500,
        feature_dim=100,
        num_classes=47,
        hidden_dim=512,
        mixing=0.05,
        powerlaw_exponent=2.4,
    ),
}


def dataset_names() -> list[str]:
    """Registered dataset names, in the paper's presentation order."""
    return list(DATASETS)


def get_dataset_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by (case-insensitive) name."""
    key = name.lower()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    return DATASETS[key]


def load_dataset(
    name: str,
    scale: float = 0.05,
    seed: int = 0,
    with_features: bool = True,
    feature_noise: float = 1.0,
) -> CSRGraph:
    """Generate the synthetic stand-in for dataset ``name`` at ``scale``.

    Args:
        name: one of ``ppi``, ``reddit``, ``amazon2m``.
        scale: linear node-count scale factor; 1.0 targets the Table II
            node and edge counts.  The node count is always exact.  The
            edge count is exact when the generator's 20 sampling rounds
            collect enough distinct edges, as they do at the benchmark and
            default scales; dense scales can end a little short (reddit at
            0.05 gets 580270 of its 580346 edges).  The default (0.05) is
            laptop-friendly.
        seed: RNG seed; the same (name, scale, seed) triple always yields
            the identical graph.
        with_features: also synthesize community-correlated node features
            and labels (needed for training experiments; skip for purely
            structural studies to save memory).
        feature_noise: per-node Gaussian noise around the class centroid;
            raise it (e.g. 3-4) to make the classification task genuinely
            hard so accuracy curves differentiate (Fig. 5 experiments).

    Returns:
        A :class:`CSRGraph` whose ``name`` is ``f"{name}@{scale}"``.
    """
    spec = get_dataset_spec(name)
    nodes, edges, partitions = spec.scaled(scale)
    num_communities = max(spec.num_classes, partitions)
    # A community of N/C nodes can host ~(N/C)^2 / 2 intra edges; cap C so
    # communities stay under ~40% fill, otherwise dense scaled-down graphs
    # saturate their communities and the edge target cannot be met.
    capacity_cap = max(2, int(nodes * nodes / (5 * max(edges, 1))))
    num_communities = min(num_communities, capacity_cap)
    graph = powerlaw_community_graph(
        num_nodes=nodes,
        num_edges=edges,
        num_communities=num_communities,
        mixing=spec.mixing,
        exponent=spec.powerlaw_exponent,
        seed=seed,
        name=f"{spec.name}@{scale:g}",
    )
    if with_features:
        graph = random_features_and_labels(
            graph,
            feature_dim=spec.feature_dim,
            num_classes=spec.num_classes,
            noise=feature_noise,
            seed=seed + 1,
        )
    return graph
