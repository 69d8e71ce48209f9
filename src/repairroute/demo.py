"""Small synthetic showcases of the estimate-then-route versus joint trade-off.

Both instances share the same story: two clean training clusters decide most
node probabilities, but one node sits far from the training mass (its second
feature coordinate is unlike anything seen) and lands near probability 1/2.
That node is also expensive to reach.  The plain pipeline takes the 1/2 at
face value and detours early; the joint optimizer pays a little training
loss to shrink that one probability and pushes the node to the end of the
route, cutting the expected-failure cost.  Numbers here are hand-tuned so
the flip is robust; the effect, not the digits, is the point.
"""

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset
from .opt import MltrpConfig


@dataclass(frozen=True)
class DemoInstance:
    name: str
    train: LabeledDataset
    nodes: np.ndarray
    D: np.ndarray
    cfg: MltrpConfig
    odd_node: int  # 1-based id of the off-manifold node


def _clusters(seed: int, per_side: int = 20) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    plus = np.column_stack(
        [rng.normal(2.0, 0.6, per_side), rng.normal(0.0, 0.5, per_side), np.ones(per_side)]
    )
    minus = np.column_stack(
        [rng.normal(-2.0, 0.6, per_side), rng.normal(0.0, 0.5, per_side), np.ones(per_side)]
    )
    return LabeledDataset(
        features=np.vstack([plus, minus]),
        labels=np.array([1.0] * per_side + [-1.0] * per_side),
    )


def _euclidean(points: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def four_node(seed: int = 0) -> DemoInstance:
    """Four nodes; node 2 is ambiguous and off the direct path."""
    nodes = np.array(
        [
            [2.0, 0.0, 1.0],
            [0.1, 1.3, 1.0],
            [2.2, -0.1, 1.0],
            [-1.8, 0.0, 1.0],
        ]
    )
    points = np.array([[0.0, 0.0], [1.2, 1.5], [1.0, 0.0], [2.2, 0.0]])
    return DemoInstance(
        name="four_node",
        train=_clusters(seed),
        nodes=nodes,
        D=_euclidean(points),
        cfg=MltrpConfig(c2=0.1, c1=0.8, cost_model="cost1"),
        odd_node=2,
    )


def six_node(seed: int = 0) -> DemoInstance:
    """Six nodes; node 6 is ambiguous and sits off to the side of the chain."""
    nodes = np.array(
        [
            [2.2, 0.1, 1.0],
            [2.0, -0.1, 1.0],
            [1.8, 0.0, 1.0],
            [-2.0, 0.1, 1.0],
            [-2.2, -0.1, 1.0],
            [0.1, 1.3, 1.0],
        ]
    )
    points = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.5, 0.4], [4.5, -0.3], [1.5, 2.0]]
    )
    return DemoInstance(
        name="six_node",
        train=_clusters(seed),
        nodes=nodes,
        D=_euclidean(points),
        cfg=MltrpConfig(c2=0.1, c1=0.6, cost_model="cost1"),
        odd_node=6,
    )


INSTANCES = {"four_node": four_node, "six_node": six_node}
