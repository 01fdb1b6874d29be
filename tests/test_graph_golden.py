"""Golden digests of generated graphs and their partitions.

Every downstream number (block histograms, traffic, NoC schedule, energy)
is a function of the synthetic graph and its METIS-style partition, so any
change to the generator or the partitioner that is meant to be a pure
speed-up must leave these bytes unchanged.  Each case builds the graph the
way ``ReGraphX.build_workload`` does and hashes ``indptr``, ``indices``,
the planted ``community``, the partition ``assignment`` and the edge cut.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import get_dataset_spec, load_dataset
from repro.graph.partition import partition_graph

# (dataset, scale, seed) -> (indptr, indices, community, assignment, edge_cut)
GOLDEN = {
    ("reddit", 0.005, 0): (
        "2c55b64134eb6f18b58803363bc7d09f39264e8649b5c4e785abc4cda76b2a1a",
        "447fdf1551352527b280f87d2646a2b2e77a9de2f77d302b3648fb704ee4d63f",
        "025c6f452a533a9bacb240dd18b92958da96867dafd4942a625d294c9257023e",
        "c8d39556276a82217a8479e231c713681507b0e73ce405ba56679db84cf26f79",
        34869,
    ),
    ("reddit", 0.005, 1000): (
        "8b798c750f7dfb264b885b17af56820c648d131d65897383891aa5b7764707e0",
        "76b6b80c2e190e41509b868fe7d9f44721a3988cb7eb41e0eb1a4bfd2dd1e156",
        "72e1c17b32f545e76265f6116128ee62164743775beafe058ed0158927a1aa1a",
        "27e3a2973b8d1d723d63c99f9913a37343b2d2c6dd637b7b760532bb4d4ccd53",
        34695,
    ),
    ("reddit", 0.01, 0): (
        "e30d515b395d07fd7049842297822ade40030675c246756da255bf27a6da2f21",
        "5c109c404377c8c8fc89beb73e02f8294a97affd44dd3bda3b53a6f2aecfe823",
        "79d567e70b9ef21fe7f7c0e91362742744891c552ad8f7dee8ebd3d677af56db",
        "080baffc4d2c053f890f7f1926d32c0dcb7ec493c4b88b4adb35bb9005535b91",
        27495,
    ),
    ("reddit", 0.01, 1000): (
        "f6deb27d3ccd33c74830f13d714502d07a74cfa124138ff2293ba9cba050d80c",
        "8e82a106800b82f118b507e65728a55a7ec96ccf6a0332a064e41b35fe060bc5",
        "93f9288ea9e1671dc0dc106a0dd9bd060a3033ca8eb55069e21a71499b32f3dd",
        "d36651d41a2e9c2de1ba8b188a07477d047fa6e7568818cde997d5821349bea7",
        22381,
    ),
    ("ppi", 0.02, 0): (
        "fa623ffc1571422b95b5af5862e5787b3eaefdd19818d2e5c8a7f6d66019b8ba",
        "fd5b7f2a23d2ccfde2ad1ad61315d514a3c49af97fc8dca360b4ec7e3791e70b",
        "25ea42484901b8c49c27e1af390eeb992caad41479a7517b78eb2df3a5741fa0",
        "8256294c0f32fae8fd91d0aca32a8347cb327ebd4ca6f4a946b2e04ed90f0689",
        3102,
    ),
    ("ppi", 0.02, 1): (
        "55a0c099e22d1e708f8b75f97c67e2d763833ba1bc6c081b6073ff4053e5dbdf",
        "696ee3fb997e243188fd16e3a5cbdae169659064a0ec5aefeb3deb874a4f381b",
        "500d5d9a7b4687eb113d8c93352b4ffcaf21b44e6d61d92ec44d94bc37d58251",
        "eecad3cf5732bb2e7207f9330f0818d38b36bae01a57656ac994df0acc1b71e1",
        4179,
    ),
    ("amazon2m", 0.001, 0): (
        "27f440a1e87a2f00d21ee0c62ddfd0f7bafd41cc942df340ac8e5c23f0adda92",
        "97edb0884c8254554c6025f42cf68bdbfa7d422983ea2942b05822aea54b1dc0",
        "7d82ceb21cb7f42186a643214a6dc4172462fd3ac370dfc1f868e801445e5d04",
        "2aa09f374336e1f892e73b748b3815b5f8fb951f747cc1d6c498b0a2c0492e24",
        9011,
    ),
}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}@{c[1]}-s{c[2]}")
def test_graph_and_partition_bytes(case):
    name, scale, seed = case
    graph = load_dataset(name, scale=scale, seed=seed, with_features=False)
    _, _, num_parts = get_dataset_spec(name).scaled(scale)
    partition = partition_graph(graph, num_parts, seed=seed)
    got = (
        _digest(graph.indptr),
        _digest(graph.indices),
        _digest(graph.community),
        _digest(partition.assignment),
        partition.edge_cut,
    )
    assert got == GOLDEN[case]
