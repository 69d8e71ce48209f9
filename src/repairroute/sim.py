"""Monte Carlo validation of the closed-form traversal costs.

Failures at a node happen once per unit time step with a fixed probability.
The count cost adds up failures that land before the node's repair visit;
the early-failure cost asks only whether the first failure does.  Streams
are PCG64 generators seeded per node from (seed, node index), so estimates
are reproducible bit for bit and independent of evaluation order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights, latency, node_scores, sigmoid
from .opt import COST_MODELS


@dataclass(frozen=True)
class SimConfig:
    trials: int = 100_000
    seed: int = 0
    steps_per_unit: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.steps_per_unit < 1:
            raise ValueError("steps_per_unit must be >= 1")
        if not 0 <= int(self.seed) < 2**63:
            raise ValueError("seed must be a nonnegative 63-bit integer")


def _rng(seed: int, stream: int):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(stream)))))


def _check_prob(p: float) -> float:
    p = float(p)
    if not (np.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability {p!r} is not in [0, 1]")
    return p


def _steps(lat: float, k: int) -> int:
    if lat < 0 or not np.isfinite(lat):
        raise ValueError("latency must be finite and nonnegative")
    return int(math.floor(lat * k))


@dataclass(frozen=True)
class SimRouteReport:
    model: str
    trials: int
    seed: int
    steps_per_unit: int
    estimate: float
    std_error: float
    analytic: float
    analytic_discretized: float
    z_score: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "trials": self.trials,
            "seed": self.seed,
            "steps_per_unit": self.steps_per_unit,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "analytic": self.analytic,
            "analytic_discretized": self.analytic_discretized,
            "z_score": self.z_score,
        }


def simulate_route_cost(
    route,
    D,
    cfg: SimConfig,
    model: str = "cost1",
    probs=None,
    lam=None,
    nodes=None,
) -> SimRouteReport:
    """Simulate the traversal cost of a route and compare with the closed form.

    Per-node failure probabilities come either from `probs` directly or from
    sigmoid(lam . x) when `lam` and `nodes` are given.  Latencies are floored
    to whole steps; `analytic` uses the exact latencies while
    `analytic_discretized` matches the floored process the trials draw from,
    and the z score is taken against the latter so any flooring gap is
    reported rather than folded into the noise.
    """
    if model not in COST_MODELS:
        raise ValueError(f"model must be one of {COST_MODELS}")
    D = as_distance_matrix(D)
    M = D.shape[0]
    if (probs is None) == (lam is None):
        raise ValueError("supply exactly one of probs or (lam, nodes)")
    if probs is not None:
        p = as_weights(probs, M)
        if (p > 1.0).any():
            raise ValueError("probabilities must be in [0, 1]")
    else:
        if nodes is None:
            raise ValueError("lam requires node features")
        p = sigmoid(node_scores(lam, nodes, M))

    lat = latency(route, D)
    k = cfg.steps_per_unit
    totals = np.zeros(cfg.trials)
    analytic = 0.0
    analytic_disc = 0.0
    for node in range(M):
        steps = _steps(float(lat[node]), k)
        pi = _check_prob(p[node])
        gen = _rng(cfg.seed, node)
        if model == "cost1":
            p_step = pi / k
            totals += gen.binomial(steps, p_step, size=cfg.trials)
            analytic += pi * lat[node]
            analytic_disc += p_step * steps
        else:
            p_step = -math.expm1(math.log1p(-pi) / k) if pi < 1.0 else 1.0
            if p_step > 0.0 and steps > 0:
                totals += gen.geometric(p_step, size=cfg.trials) <= steps
            analytic += -math.expm1(lat[node] * math.log1p(-pi)) if pi < 1.0 else (
                1.0 if lat[node] > 0 else 0.0
            )
            analytic_disc += -math.expm1(steps * math.log1p(-p_step)) if p_step < 1.0 else (
                1.0 if steps > 0 else 0.0
            )
    est = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    diff = est - analytic_disc
    if se > 0:
        z = diff / se
    else:
        z = 0.0 if diff == 0.0 else math.inf if diff > 0 else -math.inf
    return SimRouteReport(
        model=model,
        trials=cfg.trials,
        seed=int(cfg.seed),
        steps_per_unit=k,
        estimate=est,
        std_error=se,
        analytic=float(analytic),
        analytic_discretized=float(analytic_disc),
        z_score=float(z),
    )
