"""Uniform deviation bound linking training risk to routing-weighted risk.

The route-weighted empirical risk over M nodes is compared against its
population counterpart uniformly over coefficient vectors in a radius-M1
ball, for node and training features bounded in norm by M2.  The bound has
the familiar covering-number shape but with an extra geometric factor alpha:
the fraction of the coefficient ball that survives a single linear constraint
induced by the routing weights.  alpha is the volume fraction of a ball cut
by a hyperplane, an incomplete-beta quantity computed here from scratch with
a continued fraction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, sigmoid
from .trp import solve_weighted_trp_dp


@dataclass(frozen=True)
class BoundInputs:
    """Everything the deviation bound needs.

    M1 caps the coefficient norm, M2 the feature norms, Cg is the budget on
    the weighted failure-rate sum, eps the deviation, m the training-set
    size.  Node features must be supplied with norms within M2.
    """

    M1: float
    M2: float
    Cg: float
    eps: float
    m: int
    nodes: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        D = as_distance_matrix(self.D)
        if nodes.shape[0] != D.shape[0]:
            raise ValueError("node feature count does not match distance matrix")
        if not np.isfinite(nodes).all():
            raise ValueError("node features contain non-finite values")
        for name in ("M1", "M2", "Cg", "eps"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        self.check_norms(nodes, "node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "D", D)

    def check_norms(self, rows, what: str) -> None:
        """Raise ValueError if a row of `rows` has a norm above M2, with 1e-12
        relative and absolute slack; `what` names the rows in the message."""
        top = float(np.linalg.norm(rows, axis=1).max())
        if top > self.M2 * (1 + 1e-12) + 1e-12:
            raise ValueError(f"{what} feature norm {top:.6g} exceeds the M2 cap {self.M2:.6g}")

    @property
    def d(self) -> int:
        return self.nodes.shape[1]


def shortest_distances(D) -> np.ndarray:
    """Per-node distance floor used to lower-bound latencies.

    Entry i (i >= 2) is the shortest directed path length from node 1; no
    metric assumption is made.  Entry 1 is the length of the shortest closed
    tour through all nodes, the floor for node 1's own latency; it comes from
    the exact DP, so at most 20 nodes are accepted.
    """
    D = as_distance_matrix(D)
    M = D.shape[0]
    dist = np.full(M, np.inf)
    dist[0] = 0.0
    done = np.zeros(M, dtype=bool)
    for _ in range(M):
        u = int(np.argmin(np.where(done, np.inf, dist)))
        done[u] = True
        np.minimum(dist, dist[u] + D[u], out=dist)
    # A unit weight on node 1 alone prices a route at exactly its closed-tour
    # length, so the latency DP doubles as an exact tour solver.
    e1 = np.zeros(M)
    e1[0] = 1.0
    dist[0] = solve_weighted_trp_dp(e1, D).cost
    return dist


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    EPS = 1e-15
    FPMIN = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        # The even and the odd coefficient of step m, each one Lentz update.
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < FPMIN:
                d = FPMIN
            c = 1.0 + aa / c
            if abs(c) < FPMIN:
                c = FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), absolute error below 1e-10.

    Continued-fraction evaluation with the usual symmetry switch at
    x > (a + 1) / (a + b + 2) for fast convergence on both flanks.
    """
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def halfspace_ball_fraction(z: float, R: float, d: int) -> float:
    """Fraction of a radius-R ball in R^d on the center side of a hyperplane at distance z.

    Equals 1 - (cap volume fraction) = 1 - I_{1 - z^2/R^2}((d+1)/2, 1/2) / 2;
    one half at z = 0, one when the plane clears the ball.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not R > 0:
        raise ValueError("radius must be positive")
    if z < 0:
        raise ValueError("distance must be nonnegative")
    if z >= R:
        return 1.0
    x = 1.0 - (z / R) ** 2
    return 1.0 - 0.5 * reg_inc_beta(x, (d + 1) / 2.0, 0.5)


@dataclass(frozen=True)
class BoundReport:
    """Every quantity of the bound; the field names are ``bound.json``'s keys."""

    shortest_distances: np.ndarray
    m1_slope: float
    m0_intercept: float
    c_tilde: np.ndarray
    c_tilde0: float
    c: np.ndarray
    c_norm_inv: float
    z_prime: float
    r_prime: float
    alpha: float
    covering_factor: float
    exp_factor: float
    bound: float
    constraint_vacuous: bool


def generalization_bound(inputs: BoundInputs) -> BoundReport:
    """Probability bound 4 * alpha * (32 M1 M2 / eps + 1)^d * exp(-m eps^2 / (512 (M1 M2)^2)).

    The failure rate sigmoid(lam . x) is bounded above by its tangent line at
    -M1*M2, the worst-case margin: slope m1 and intercept m0.  Summing the
    tangent bound against the distance floors turns the budget Cg into the
    half-space {lam : c . lam <= 1}, c = c_tilde / (Cg - c_tilde0) with
    c_tilde = m1 * sum_i dist_i x_i and c_tilde0 = m0 * sum_i dist_i.  Cg must
    exceed the intercept mass c_tilde0 for the half-space to be well defined.

    alpha is the surviving volume fraction of the coefficient ball under
    c . lam <= 1: the plane distance 1/|c| and the ball radius M1, both padded
    by eps / (32 M2), give z_prime and r_prime, and alpha is one when the
    plane clears the ball.

    Not clamped at one; values above one simply mean the bound is vacuous at
    these dimensions and sample size.  constraint_vacuous flags a budget so
    loose (Cg above the distance-floor mass) that it removes nothing.
    ValueError names M1, M2, eps and d when the covering factor overflows.
    """
    try:
        covering = (32.0 * inputs.M1 * inputs.M2 / inputs.eps + 1.0) ** inputs.d
    except OverflowError:  # a finite base whose power overflows
        covering = math.inf
    if not math.isfinite(covering):
        raise ValueError(
            f"M1 = {float(inputs.M1)!r}, M2 = {float(inputs.M2)!r}, eps = {float(inputs.eps)!r} "
            f"and d = {inputs.d} make the covering factor (32 M1 M2 / eps + 1)^d overflow"
        )
    z = inputs.M1 * inputs.M2
    m1 = float(sigmoid(z) * sigmoid(-z))
    m0 = z * m1 + float(sigmoid(-z))
    dists = shortest_distances(inputs.D)
    c_tilde = m1 * (dists @ inputs.nodes)
    c_tilde0 = m0 * float(dists.sum())
    denom = inputs.Cg - c_tilde0
    if denom <= 0:
        raise ValueError(
            f"budget Cg={inputs.Cg:.6g} does not exceed the tangent intercept mass "
            f"{c_tilde0:.6g}; the linearized constraint is void"
        )
    c = c_tilde / denom
    cn = float(np.linalg.norm(c))
    c_norm_inv = math.inf if cn == 0.0 else 1.0 / cn
    pad = inputs.eps / (32.0 * inputs.M2)
    z_prime, r_prime = c_norm_inv + pad, inputs.M1 + pad
    a = halfspace_ball_fraction(z_prime, r_prime, inputs.d)
    exp_factor = math.exp(-inputs.m * inputs.eps**2 / (512.0 * (inputs.M1 * inputs.M2) ** 2))
    return BoundReport(
        shortest_distances=dists,
        m1_slope=m1,
        m0_intercept=m0,
        c_tilde=c_tilde,
        c_tilde0=c_tilde0,
        c=c,
        c_norm_inv=c_norm_inv,
        z_prime=z_prime,
        r_prime=r_prime,
        alpha=a,
        covering_factor=covering,
        exp_factor=exp_factor,
        bound=4.0 * a * covering * exp_factor,
        constraint_vacuous=bool(inputs.Cg > float(dists.sum())),
    )
