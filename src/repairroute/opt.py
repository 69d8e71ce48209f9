"""Joint coefficient fitting and route choice.

The combined objective is TrainingError(lam) + C1 * RouteCost(route, lam),
where the route cost is the weighted latency sum under node weights induced
by lam, one weight function per cost model in COST_MODELS: sigmoid scores
for cost1 (expected failure counts), softplus weights for cost2 (the convex
stand-in for the early-failure cost).  Three drivers are provided:

* sequential: fit, then route the fitted weights (the C1 = 0 baseline);
* nelder_mead: direct simplex search on lam with the route re-optimized
  exactly inside every evaluation (or certified unchanged by the per-step
  gaps of the last exact solve);
* alternating_minimization: alternate exact routing with damped Newton
  descent on lam at the frozen route.

`solve` dispatches on the method name, one of METHODS.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LabeledDataset,
    _latency,
    as_distance_matrix,
    latency,
    sigmoid,
    softplus,
)
from .learn import (
    auc,
    fit_logistic,
    minimize_descent,
    training_error,
    training_gradient,
    training_hessian,
)
from .trp import TIE_TOL, solve_weighted_trp_dp

# Per cost model: a node's routing weight w as a function of its score
# z = lam . x, then w'(z) and w''(z).  cost2 routes by the softplus
# surrogate, not by the exact early-failure cost (core.cost2_exact).
_WEIGHTS = {
    "cost1": (
        sigmoid,
        lambda z: (s := sigmoid(z)) * (1.0 - s),
        lambda z: (s := sigmoid(z)) * (1.0 - s) * (1.0 - 2.0 * s),
    ),
    "cost2": (softplus, sigmoid, lambda z: (s := sigmoid(z)) * (1.0 - s)),
}
COST_MODELS = tuple(_WEIGHTS)
METHODS = ("sequential", "nm", "am")

# Nelder-Mead: evaluation budget, simplex-diameter stop, start-simplex size
# relative to max(1, ||lam0||_inf), and the standard coefficients of Nelder
# & Mead (1965).
_NM_MAX_EVALS = 2000
_NM_DIAM_TOL = 1e-8
_NM_SCALE = 0.1
_NM_REFLECT = 1.0
_NM_EXPAND = 2.0
_NM_CONTRACT = 0.5
_NM_SHRINK = 0.5
_AM_ROUNDS = 10  # cap on alternating-minimization rounds


@dataclass(frozen=True)
class MltrpConfig:
    """Parameters of the combined objective.

    c2 weights the squared-norm penalty and is required, as in
    learn.fit_logistic; c1 weights the route cost; cost_model picks the
    failure-cost model.  Solver settings are module constants: the _NM_*
    values for nelder_mead, _AM_ROUNDS for alternating_minimization, and
    learn's _MAX_ITERS, _GRAD_TOL, _SHRINK and _ARMIJO_C for every descent.
    """

    c2: float
    c1: float = 0.0
    cost_model: str = "cost1"

    def __post_init__(self):
        if not (np.isfinite(self.c1) and self.c1 >= 0):
            raise ValueError("c1 must be finite and >= 0")
        if not (np.isfinite(self.c2) and self.c2 >= 0):
            raise ValueError("c2 must be finite and >= 0")
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"cost_model must be one of {COST_MODELS}")


@dataclass(frozen=True)
class MltrpSolution:
    lam: np.ndarray
    route: list[int]
    training_error: float
    traversal_cost: float
    combined_objective: float
    trace: tuple
    method: str


def node_weights(lam, nodes, cost_model: str) -> np.ndarray:
    """Weights induced by the model at each node, from its score lam . x:
    failure probabilities sigmoid(lam . x) for cost1, failure rates
    softplus(lam . x) for cost2.  The one place where scores become weights."""
    if cost_model not in COST_MODELS:
        raise ValueError(f"cost_model must be one of {COST_MODELS}")
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    lam = np.asarray(lam, dtype=float).ravel()
    if nodes.shape[1] != lam.shape[0]:
        raise ValueError(
            f"lambda has {lam.shape[0]} coefficients, node features have {nodes.shape[1]}"
        )
    return _WEIGHTS[cost_model][0](nodes @ lam)


class _RouteAnchor:
    """The route of the most recent DP call, reused while it provably stays
    the route the DP would return.

    Say the DP returned route p = (p_0 = node 1, p_1, ..., p_n) with
    arrival times a_i (a_0 = 0) and per-step gaps g_s (TrpSolution.
    step_margins) at weights w0, and let d = w - w0.  A route q that first
    leaves p at step s visits p_1..p_{s-1} at p's times; every other node j
    (p_s..p_n, and node 1, whose latency is the tour length) it reaches
    after a_{s-1} and by H_s = a_{s-1} + rmax(p_{s-1}) + sum_{i>=s}
    rmax(p_i), rmax(j) = max_k D[j, k], since q leaves p_{s-1} and each of
    p_s..p_n once, by a leg no longer than that node's longest; p's own
    latencies lie in the same range.  Hence
        cost(q, w) - cost(p, w) = cost(q, w0) - cost(p, w0) + d . (lat(q) - lat(p))
                                >= g_s - r_s,
        r_s = sum_{j in {p_s..p_n, 1}} d_j+ (lat_j - a_{s-1}) + d_j- (H_s - lat_j),
    with lat = lat(p) and d+ = max(d, 0), d- = max(-d, 0).  While every
    g_s - r_s exceeds TIE_TOL plus a rounding allowance of
    1e-9 (1 + cost(p, w0) + T ||d||_1), T = sum_j rmax(j), no other route
    can enter the DP's tie band, so the DP would return p again, at cost
    w @ lat(p): its own expression, so the value agrees bit for bit.  As
    r_s <= T ||d||_1, every point where the margin min_s g_s exceeds
    T ||d||_1 plus the same allowance is certified too.  Ties (g_s <= TIE_TOL)
    never qualify, nor do non-finite weights, which the DP rejects: they
    make the allowance inf or nan, and each comparison fails on nan.
    """

    def __init__(self, D):
        D = as_distance_matrix(D)
        self._D = D
        self._rmax = D.max(axis=1).tolist()
        self._reach = sum(self._rmax)
        self._w0 = None

    def cost(self, w, D) -> float:
        """The DP's optimal cost at weights w: reused when certified, else solved."""
        if self._w0 is not None and self._certifies((w - self._w0).tolist()):
            return float(w @ self._lats)
        sol = solve_weighted_trp_dp(w, D)
        order = [i - 1 for i in sol.route]
        self._w0, self._cost0 = w, sol.cost
        self._lats = _latency(np.array(order), self._D)
        lats, rmax = self._lats.tolist(), self._rmax
        # One (node p_s, lat(p_s), a_{s-1}, H_s, g_s) per step s, last step
        # first, after node 1, which joins every step's sums and has no gap.
        steps, reach = [(0, lats[0], 0.0, 0.0, math.inf)], 0.0
        for s in range(len(order) - 1, 0, -1):
            j, prev = order[s], order[s - 1]
            reach += rmax[j]
            a = lats[prev] if s > 1 else 0.0
            steps.append((j, lats[j], a, a + rmax[prev] + reach, sol.step_margins[s - 1]))
        self._steps = steps
        return sol.cost

    def _certifies(self, dw) -> bool:
        # g_s - r_s > tol at every step, with r_s's sums over {p_s..p_n, 1}
        # accumulated from the last step back; nan fails every comparison.
        tol = TIE_TOL + 1e-9 * (1.0 + self._cost0 + self._reach * sum(map(abs, dw)))
        up = up_lat = down = down_lat = 0.0
        for j, lat, a, h, gap in self._steps:
            d = dw[j]
            if d > 0:
                up += d
                up_lat += d * lat
            else:
                down -= d
                down_lat -= d * lat
            if not gap - (up_lat - a * up + h * down - down_lat) > tol:
                return False
        return True


def simultaneous_objective(
    lam, data: LabeledDataset, nodes, D, cfg: MltrpConfig, *, anchor: _RouteAnchor | None = None
) -> float:
    """Combined objective with the route re-optimized exactly for this lam.

    With an anchor (nelder_mead passes its own), the exact DP is skipped
    wherever the anchor's per-step gaps certify that the DP would return the
    anchor's route p again: a route that first leaves p at step s keeps p's
    first s - 1 latencies and has every other one in [a_{s-1}, H_s], so at
    weights w it costs at least cost(p, w) + g_s - r_s, r_s the most that
    w - w0 can shift the free nodes' weighted latencies within that range.
    The skip needs every g_s - r_s above TIE_TOL plus the rounding allowance
    1e-9 (1 + cost(p, w0) + T ||w - w0||_1), T = sum_j max_k D[j, k]; the
    value is then the same bit for bit (see _RouteAnchor).  Otherwise the DP
    runs and becomes the new anchor.
    """
    te = training_error(lam, data, cfg.c2)
    w = node_weights(lam, nodes, cfg.cost_model)
    if anchor is None:
        return te + cfg.c1 * solve_weighted_trp_dp(w, D).cost
    return te + cfg.c1 * anchor.cost(w, D)


def _finalize(lam, data, nodes, D, cfg, trace, method) -> MltrpSolution:
    lam = np.asarray(lam, dtype=float).ravel()
    te = training_error(lam, data, cfg.c2)
    sol = solve_weighted_trp_dp(node_weights(lam, nodes, cfg.cost_model), D)
    return MltrpSolution(
        lam=lam,
        route=sol.route,
        training_error=te,
        traversal_cost=sol.cost,
        combined_objective=te + cfg.c1 * sol.cost,
        trace=tuple(trace),
        method=method,
    )


def sequential_pipeline(data: LabeledDataset, nodes, D, cfg: MltrpConfig) -> MltrpSolution:
    """Fit first, route second; lam never sees the distances."""
    fit = fit_logistic(data, cfg.c2)
    sol = _finalize(fit.lam, data, nodes, D, cfg, trace=(), method="sequential")
    return replace(sol, trace=(sol.combined_objective,))


def nelder_mead(data: LabeledDataset, nodes, D, cfg: MltrpConfig, lam0=None) -> MltrpSolution:
    """Downhill simplex on lam over the exact-inner-route objective.

    The starting simplex sits at lam0 (the plain logistic fit when omitted)
    plus one axis perturbation per coordinate, scaled by
    _NM_SCALE * max(1, ||lam0||_inf).  Steps use the _NM_REFLECT,
    _NM_EXPAND, _NM_CONTRACT and _NM_SHRINK coefficients.  The best vertex
    never worsens; the search stops when the simplex diameter falls under
    _NM_DIAM_TOL or _NM_MAX_EVALS evaluations are spent, and the latter,
    with the simplex still wider, is logged as a warning on the
    "repairroute" logger.

    Every evaluation is simultaneous_objective with one shared anchor: the
    most recent evaluation that ran the exact DP.  The DP is skipped where,
    at every step s of the anchor's route, its gap g_s exceeds r_s plus
    TIE_TOL and a rounding allowance: a route that first leaves the anchor's
    at step s keeps its first s - 1 latencies and moves the others only
    within [a_{s-1}, H_s], which bounds by r_s what the weight change can
    gain it (see _RouteAnchor), so no other route can come within the DP's
    tie band.  Values, the trace and the result are those of re-solving at
    every evaluation, bit for bit.  Vertices of equal value keep their order
    (the sort is stable).
    """
    if lam0 is None:
        lam0 = fit_logistic(data, cfg.c2).lam
    lam0 = np.asarray(lam0, dtype=float).ravel()
    d = lam0.shape[0]
    anchor = _RouteAnchor(D)

    def f(v):
        val = simultaneous_objective(v, data, nodes, D, cfg, anchor=anchor)
        if not math.isfinite(val):
            raise ValueError(f"non-finite objective at simplex vertex {v.tolist()}")
        return val

    scale = _NM_SCALE * max(1.0, float(np.abs(lam0).max()))
    verts = [lam0.copy()]
    for j in range(d):
        v = lam0.copy()
        v[j] += scale
        verts.append(v)
    fvals = [f(v) for v in verts]
    evals = d + 1
    trace = []
    while True:
        idx = sorted(range(d + 1), key=fvals.__getitem__)
        verts = [verts[i] for i in idx]
        fvals = [fvals[i] for i in idx]
        trace.append(fvals[0])
        simplex = np.array(verts)
        diam = float(np.abs(simplex[1:] - simplex[0]).max())
        if diam < _NM_DIAM_TOL or evals >= _NM_MAX_EVALS:
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = verts[-1]
        xr = centroid + _NM_REFLECT * (centroid - worst)
        fr = f(xr)
        evals += 1
        if fr < fvals[0]:
            xe = centroid + _NM_EXPAND * (centroid - worst)
            fe = f(xe)
            evals += 1
            verts[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            # Contract on the reflected side when the reflection beat the
            # worst vertex, else on the worst vertex's side; shrink if that fails.
            outside = fr < fvals[-1]
            xc = centroid + (_NM_CONTRACT if outside else -_NM_CONTRACT) * (centroid - worst)
            fc = f(xc)
            evals += 1
            if (fc <= fr) if outside else (fc < fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, d + 1):
                    verts[i] = verts[0] + _NM_SHRINK * (verts[i] - verts[0])
                    fvals[i] = f(verts[i])
                evals += d
    if diam >= _NM_DIAM_TOL:
        import logging  # here, not at the top: the import adds about 0.45 MiB RSS

        logging.getLogger("repairroute").warning(
            "Nelder-Mead stopped after %d evaluations (budget %d) with simplex diameter %.3g",
            evals, _NM_MAX_EVALS, diam,
        )
    return _finalize(verts[0], data, nodes, D, cfg, trace, method="nm")


def _fixed_route_objective(lam, lats, data, nodes, cfg: MltrpConfig) -> float:
    # The combined objective at the route whose per-node latencies are lats.
    w = _WEIGHTS[cfg.cost_model][0](nodes @ lam)
    return training_error(lam, data, cfg.c2) + cfg.c1 * float(w @ lats)


def _fixed_route_gradient(lam, lats, data, nodes, cfg: MltrpConfig) -> np.ndarray:
    # d/dlam of _fixed_route_objective.
    wgrad = _WEIGHTS[cfg.cost_model][1](nodes @ lam)
    return training_gradient(lam, data, cfg.c2) + cfg.c1 * (nodes.T @ (lats * wgrad))


def _fixed_route_hessian(lam, lats, data, nodes, cfg: MltrpConfig) -> np.ndarray:
    # d2/dlam2 of _fixed_route_objective.
    wcurv = _WEIGHTS[cfg.cost_model][2](nodes @ lam)
    return training_hessian(lam, data, cfg.c2) + cfg.c1 * (nodes.T @ ((lats * wcurv)[:, None] * nodes))


def alternating_minimization(
    data: LabeledDataset, nodes, D, cfg: MltrpConfig, lam0=None
) -> MltrpSolution:
    """Alternate exact routing with descent on lam at the frozen route.

    Each round first re-solves the route for the current weights, then runs
    damped Newton descent (learn.minimize_descent with the exact Hessian) on
    the combined objective with that route frozen, warm-started at the
    current lam.  Both half-steps can only lower the objective, up to
    16 eps |f| rounding in the descent's last steps, so the recorded trace is
    non-increasing to that precision.  A descent that stops unconverged is
    logged as a warning on the "repairroute" logger.  The loop stops early
    once the route repeats: the following lam step would start at its own
    minimizer and move nowhere; otherwise _AM_ROUNDS rounds run.
    """
    if lam0 is None:
        lam0 = fit_logistic(data, cfg.c2).lam
    lam = np.asarray(lam0, dtype=float).ravel()
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    D = as_distance_matrix(D)
    prev_route = None
    trace = []
    for rnd in range(1, _AM_ROUNDS + 1):
        w = node_weights(lam, nodes, cfg.cost_model)
        route = solve_weighted_trp_dp(w, D).route
        if route == prev_route:
            break
        lats = latency(route, D)
        res = minimize_descent(
            lambda v: _fixed_route_objective(v, lats, data, nodes, cfg),
            lambda v: _fixed_route_gradient(v, lats, data, nodes, cfg),
            lam,
            hess=lambda v: _fixed_route_hessian(v, lats, data, nodes, cfg),
        )
        if not res.converged:
            import logging  # here, not at the top: the import adds about 0.45 MiB RSS

            logging.getLogger("repairroute").warning(
                "AM round %d: fixed-route descent stopped unconverged after %d iterations, "
                "|grad| = %.3g",
                rnd, res.iterations, res.grad_norm,
            )
        lam = res.lam
        trace.append(res.loss)
        prev_route = route
    return _finalize(lam, data, nodes, D, cfg, trace, method="am")


def solve(method: str, data: LabeledDataset, nodes, D, cfg: MltrpConfig, lam0=None) -> MltrpSolution:
    """Run one of METHODS; lam0 warm-starts nm and am and is unused by sequential."""
    if method == "sequential":
        return sequential_pipeline(data, nodes, D, cfg)
    if method == "nm":
        return nelder_mead(data, nodes, D, cfg, lam0=lam0)
    if method == "am":
        return alternating_minimization(data, nodes, D, cfg, lam0=lam0)
    raise ValueError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class SweepRow:
    c1: float
    train_auc: float
    test_auc: float  # nan when no test set was supplied
    traversal_cost: float
    train_loss: float
    route: list[int]


def check_c1_grid(c1_grid) -> list[float]:
    """The C1 grid as floats; ValueError unless it is non-empty and every
    value is finite and >= 0."""
    grid = [float(c) for c in c1_grid]
    if not grid:
        raise ValueError("c1_grid must be non-empty")
    if any(not (math.isfinite(c) and c >= 0) for c in grid):
        raise ValueError("c1 values must be finite and >= 0")
    return grid


def c1_sweep(
    data: LabeledDataset,
    nodes,
    D,
    cfg: MltrpConfig,
    c1_grid,
    method: str = "am",
    test_data: LabeledDataset | None = None,
) -> list[SweepRow]:
    """Trace the accuracy/cost trade-off over a grid of C1 values.

    All grid points share the same warm start (the plain logistic fit), so
    rows differ only through C1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    grid = check_c1_grid(c1_grid)
    lam0 = fit_logistic(data, cfg.c2).lam
    rows = []
    for c1 in grid:
        sol = solve(method, data, nodes, D, replace(cfg, c1=c1), lam0)
        train_auc = auc(data.features @ sol.lam, data.labels)
        test_auc = (
            auc(test_data.features @ sol.lam, test_data.labels)
            if test_data is not None
            else math.nan
        )
        rows.append(
            SweepRow(
                c1=c1,
                train_auc=train_auc,
                test_auc=test_auc,
                traversal_cost=sol.traversal_cost,
                train_loss=sol.training_error,
                route=sol.route,
            )
        )
    return rows


def route_string(route) -> str:
    """Render a route as a dash-joined closed tour, e.g. 1-3-2-1."""
    return "-".join(str(int(i)) for i in list(route) + [route[0]])


def sweep_csv(rows) -> str:
    """Plot-ready CSV for a C1 sweep, one row per grid point."""
    lines = ["c1,train_auc,test_auc,traversal_cost,train_loss,route"]
    for r in rows:
        lines.append(
            f"{r.c1!r},{r.train_auc!r},{r.test_auc!r},"
            f"{r.traversal_cost!r},{r.train_loss!r},{route_string(r.route)}"
        )
    return "\n".join(lines) + "\n"
