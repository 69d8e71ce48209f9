"""Domain types, latencies, and traversal-cost formulas for risk-weighted routing.

Conventions used throughout the package:

* Nodes are numbered 1..M and a route is a visit order starting at node 1,
  e.g. ``[1, 3, 2]``.  The crew returns to node 1 after the last visit.
* Distances are an M x M matrix ``D`` with ``D[i, j]`` the travel cost from
  node i+1 to node j+1.  Asymmetric matrices are accepted.
* Latency of a node is the travel time accumulated before the crew reaches
  it.  Node 1 is special: its latency is the full closed-tour length, so a
  failure there is only repaired once the crew comes back around.
"""

from dataclasses import dataclass

import numpy as np


def sigmoid(z):
    """Numerically stable logistic function 1 / (1 + exp(-z)), elementwise.

    With e = exp(-|z|), computed once: 1 / (1 + e) where z >= 0, else
    e / (1 + e), which is exp(z) / (1 + exp(z)) as -|z| = z there.  Neither
    form overflows.  -|z| is taken as min(z, -z), which keeps a nan's sign,
    so every output bit matches evaluating each branch on its own elements.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def softplus(z):
    """Numerically stable log(1 + exp(z)), elementwise.

    Strictly positive for all finite z; no overflow for large positive z and
    no underflow to zero for large negative z (down to double denormals).
    """
    z = np.asarray(z, dtype=float)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows paired with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.labels, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-d array")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"label count {y.shape[0]} does not match {X.shape[0]} feature rows"
            )
        if not np.isfinite(X).all():
            raise ValueError("features contain non-finite values")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def as_distance_matrix(D) -> np.ndarray:
    """Validate a square travel-cost matrix: finite, nonnegative, zero diagonal."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if D.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    if not np.isfinite(D).all():
        raise ValueError("distance matrix contains non-finite values")
    if (D < 0).any():
        raise ValueError("distances must be nonnegative")
    if np.abs(np.diag(D)).max() != 0.0:
        raise ValueError("distance matrix diagonal must be zero")
    return D


def as_weights(w, M: int | None = None) -> np.ndarray:
    """Validate a nonnegative finite node-weight vector."""
    w = np.asarray(w, dtype=float).ravel()
    if M is not None and w.shape[0] != M:
        raise ValueError(f"expected {M} weights, got {w.shape[0]}")
    if not np.isfinite(w).all():
        raise ValueError("weights contain non-finite values")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    return w


def check_route(route, M: int) -> np.ndarray:
    """Validate a visit order over nodes 1..M and return it zero-based."""
    arr = np.asarray(route).ravel()
    if arr.dtype.kind not in "iu" and not np.array_equal(arr, np.floor(arr)):
        raise ValueError("route entries must be integers")
    r = arr.astype(int)
    if r.shape[0] != M:
        raise ValueError(f"route visits {r.shape[0]} nodes, expected {M}")
    if r[0] != 1:
        raise ValueError("route must start at node 1")
    if not np.array_equal(np.sort(r), np.arange(1, M + 1)):
        raise ValueError("route must visit each of 1..M exactly once")
    return r - 1


def latency(route, D) -> np.ndarray:
    """Per-node waiting times along a closed tour.

    Returns an array keyed by node id: entry k is the latency of node k+1.
    Visited nodes wait for the travel accumulated before their visit; node 1
    waits for the entire closed tour.
    """
    D = as_distance_matrix(D)
    return _latency(check_route(route, D.shape[0]), D)


def _latency(order, D) -> np.ndarray:
    """:func:`latency` for a checked zero-based order over a checked D."""
    legs = D[order[:-1], order[1:]]
    arrive = np.concatenate(([0.0], np.cumsum(legs)))
    lat = np.empty(D.shape[0])
    lat[order] = arrive
    lat[order[0]] = arrive[-1] + D[order[-1], order[0]]
    return lat


def cost1(route, w, D) -> float:
    """Expected failure count before repair: sum of weight * latency."""
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    return float(w @ latency(route, D))


def cost2_exact(route, w, D) -> float:
    """Probability-of-early-failure cost under a per-step failure process.

    w holds each node's failure rate softplus(f_i), f_i = lam . x_i (the
    cost2 weights of opt.node_weights): node i fails independently each unit
    step with probability sigmoid(f_i), so its cost, the probability that its
    first failure lands before its repair visit, is
    1 - (1 + exp(f_i))^(-L_i) = 1 - exp(-L_i w_i).  Zero-latency nodes
    contribute 0.
    """
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    lat = latency(route, D)
    per_node = np.where(lat > 0, -np.expm1(-lat * w), 0.0)
    return float(per_node.sum())


def standard_trp_cost(route, D) -> float:
    """Unweighted repairman cost: each tour leg is paid once per node still waiting.

    Equals sum over legs k=1..M of d(route[k], route[k+1]) * (M + 1 - k) with
    the tour closed back to the start.
    """
    D = as_distance_matrix(D)
    order = check_route(route, D.shape[0])
    M = D.shape[0]
    closed = np.concatenate((order, order[:1]))
    legs = D[closed[:-1], closed[1:]]
    mult = M + 1 - np.arange(1, M + 1)
    return float(legs @ mult)
