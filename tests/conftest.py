import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from repairroute.core import (
    LabeledDataset,
    as_distance_matrix,
    as_weights,
    check_route,
    cost1,
    latency,
)
from repairroute.milp import MilpInstance
from repairroute.sim import SimRouteReport, _rng, _steps
from repairroute.trp import TIE_TOL, TrpSolution

_BF_MAX_NODES = 10


def load_tool(name):
    """Import tools/<name>.py as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def random_instance(seed, M, low=1.0, high=10.0, wlow=0.05, whigh=1.0, integer=False):
    """Seeded routing instance: weights plus a dense asymmetric distance matrix."""
    rng = np.random.default_rng(seed)
    if integer:
        D = rng.integers(1, 6, size=(M, M)).astype(float)
    else:
        D = rng.uniform(low, high, size=(M, M))
    np.fill_diagonal(D, 0.0)
    w = rng.uniform(wlow, whigh, size=M)
    return w, D


def legs_nbytes(M):
    """Bytes of one D's kept fill legs (trp._gather_legs): one double per
    (set, last node, free node) candidate, (M-1)(M-2) * 2^M bytes, plus
    layer 0's M - 1."""
    return (M - 1) * (M - 2) * 2**M + 8 * (M - 1)


def twin_last_node(D):
    """Make the last node of D the twin of the one before it (same row, same
    column), in place, so that swapping the two in any route ties when
    their weights are equal."""
    D[-1, :-2] = D[-2, :-2]
    D[:-2, -1] = D[:-2, -2]
    D[-1, -2] = D[-2, -1]
    return D


def _walk_cost(tail, w, D) -> float:
    # Prefix-sum accumulation over one route; independent of the DP's
    # per-edge-contribution arithmetic.
    t = 0.0
    c = 0.0
    prev = 0
    for node in tail:
        t += D[prev, node]
        c += w[node] * t
        prev = node
    t += D[prev, 0]
    return c + w[0] * t


def solve_weighted_trp_bruteforce(w, D) -> TrpSolution:
    """Reference solver: enumerate all (M-1)! routes; exact optimum with the
    same tie-breaking as the DP and its per-step gaps (for each step s, the
    least cost of a route that first leaves the optimum at step s, minus the
    optimum; inf where no route does), whose least is the margin: the least
    cost of any other route minus the optimum (inf when M = 2)."""
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    if M > _BF_MAX_NODES:
        raise ValueError(f"brute force supports at most {_BF_MAX_NODES} nodes, got {M}")
    tails = range(1, M)
    costs = {tail: _walk_cost(tail, w, D) for tail in itertools.permutations(tails)}
    best = min(costs.values())
    band = TIE_TOL * abs(best)
    chosen = next(tail for tail, c in costs.items() if c <= best + band)  # lexicographic
    leave = [math.inf] * (M - 1)
    for tail, c in costs.items():
        if tail != chosen:
            s = next(i for i, (a, b) in enumerate(zip(tail, chosen)) if a != b)
            leave[s] = min(leave[s], c)
    step_margins = tuple(c - best for c in leave)
    route = [1] + [i + 1 for i in chosen]
    return TrpSolution(
        route=route,
        cost=cost1(route, w, D),
        latencies=latency(route, D),
        step_margins=step_margins,
    )


def loop_simulate_route_cost(route, D, cfg, model, probs) -> SimRouteReport:
    """Reference: simulate_route_cost's per-node loop with every draw taken
    from numpy's own samplers (Generator.binomial for the count cost,
    Generator.geometric for the first-failure cost), on the same streams.
    numpy saturates a geometric draw at 2**63 - 1, so past that many steps
    this reference counts every first failure as landing; the package's
    threshold comparison does not."""
    D = as_distance_matrix(D)
    p = as_weights(probs, D.shape[0])
    lat = latency(route, D)
    k = cfg.steps_per_unit
    totals = np.zeros(cfg.trials)
    analytic = 0.0
    analytic_disc = 0.0
    for node in range(D.shape[0]):
        steps = _steps(float(lat[node]), k)
        pi = float(p[node])
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


def route_to_flow(route, w, D):
    """Edge indicators and carried-weight flows induced by a route.

    Returns (Y, Z) as M x M arrays.  The leg leaving the t-th visited node
    carries the total weight minus everything dropped at positions 2..t; the
    closing leg therefore carries exactly node 1's weight.
    """
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    order = check_route(route, M)
    Y = np.zeros((M, M))
    Z = np.zeros((M, M))
    carry = float(w.sum())
    for t in range(M):
        if t > 0:
            carry -= w[order[t]]
        nxt = order[(t + 1) % M]
        Y[order[t], nxt] = 1.0
        Z[order[t], nxt] = carry
    return Y, Z


def milp_violations(instance: MilpInstance, Y, Z, tol=1e-9) -> list:
    """Names of the rows, bounds (bound_<var>) and binaries (binary_<var>)
    of the flow model that (Y, Z) violates by more than tol; empty when
    (Y, Z) is feasible.  The rows are checked by one sparse product."""
    M, nrows = instance.M, len(instance.constraints)
    x = np.concatenate([np.ravel(Z), np.ravel(Y)]).astype(float)
    row_of_term = np.repeat(np.arange(nrows), np.diff(instance.indptr))
    res = np.bincount(row_of_term, instance.vals * x[instance.cols], nrows) - instance.rhs
    names = [f"{v}_{i}_{j}" for v in "zy" for i in range(1, M + 1) for j in range(1, M + 1)]
    bad_bound = (x < -tol) | (x > instance.ub + tol)
    bad_binary = np.abs(x - np.round(x)) > tol
    return (
        [n for n, r, eq in zip(instance.constraints, res, instance.eq) if (abs(r) if eq else r) > tol]
        + [f"bound_{n}" for n, bad in zip(names, bad_bound) if bad]
        + [f"binary_{n}" for n, bad in zip(names[M * M :], bad_binary[M * M :]) if bad]
    )


def objective_value(instance: MilpInstance, Z) -> float:
    """sum d_ij * z_ij."""
    Z = np.asarray(Z, dtype=float)
    return float(np.sum(instance.D * Z))


def blobs(seed, per_side=20, d=2, sep=1.5, scale=1.0):
    """Two labeled Gaussian clusters, the stock training set for fit tests."""
    rng = np.random.default_rng(seed)
    plus = rng.normal(sep, scale, size=(per_side, d))
    minus = rng.normal(-sep, scale, size=(per_side, d))
    return LabeledDataset(
        features=np.vstack([plus, minus]),
        labels=np.array([1.0] * per_side + [-1.0] * per_side),
    )


@pytest.fixture
def small_blobs():
    return blobs(7, per_side=15)
