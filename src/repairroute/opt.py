"""Joint coefficient fitting and route choice.

The combined objective is TrainingError(lam) + C1 * RouteCost(route, lam),
where the route cost is the weighted latency sum under node weights induced
by lam, one weight function per cost model in COST_MODELS: sigmoid scores
for cost1 (expected failure counts), softplus weights for cost2 (the convex
stand-in for the early-failure cost).  `solve` is the one entry point: it
takes the warm start, builds the one route anchor and the final solution,
and runs one of METHODS in between:

* sequential: fit, then route the fitted weights (the C1 = 0 baseline);
* nm: nelder_mead, a downhill simplex over lam on the objective with the
  route re-optimized exactly inside every evaluation (or certified
  unchanged by the per-step gaps of the last exact solve), finished by
  am's fixed-route descent once the simplex is small and on one route;
* am: alternating_minimization, exact routing alternated with damped
  Newton descent on lam at the frozen route.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LabeledDataset, sigmoid, softplus
from .learn import (
    auc,
    fit_logistic,
    minimize_descent,
    training_error,
    training_gradient,
    training_hessian,
)
from .trp import _RouteAnchor

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

# Nelder-Mead: evaluation budget, simplex-diameter stop, the diameter
# relative to max(1, ||lam_best||_inf) below which a simplex on one route
# tries the fixed-route finish, start-simplex size relative to
# max(1, ||lam0||_inf), and the standard coefficients of Nelder & Mead (1965).
_NM_MAX_EVALS = 2000
_NM_DIAM_TOL = 1e-8
_NM_FINISH_DIAM = 1e-2
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
    softplus(lam . x) for cost2.  The one place where scores become weights,
    through _weights, which the solvers call on inputs that solve checked;
    ValueError names the first node whose score is not finite."""
    if cost_model not in COST_MODELS:
        raise ValueError(f"cost_model must be one of {COST_MODELS}")
    return _weights(*_scores_input(lam, nodes), _WEIGHTS[cost_model][0])


def _scores_input(lam, nodes) -> tuple[np.ndarray, np.ndarray]:
    # lam as a float vector and nodes as a 2-D float array of its width.
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    lam = np.asarray(lam, dtype=float).ravel()
    if nodes.shape[1] != lam.shape[0]:
        raise ValueError(
            f"lambda has {lam.shape[0]} coefficients, node features have {nodes.shape[1]}"
        )
    return lam, nodes


def _weights(lam, nodes, weight) -> np.ndarray:
    # node_weights on a lam and nodes that _scores_input checked, with the
    # cost model's weight map.
    with np.errstate(over="ignore", invalid="ignore"):
        z = nodes @ lam
    if not np.isfinite(z).all():
        k = int(np.flatnonzero(~np.isfinite(z))[0])
        raise ValueError(f"node {k + 1} has a non-finite score lambda . x = {float(z[k])}")
    return weight(z)


def _anchored_route(lam, nodes, anchor: _RouteAnchor, cfg: MltrpConfig):
    # (route, latencies, cost, C1 * cost) of the exact route for lam's
    # weights, as anchor.route gives it (see trp._RouteAnchor), on a lam and
    # nodes that solve checked.  ValueError names C1 when C1 times the route
    # cost overflows: the overflow is C1's, not the data's.
    w = _weights(lam, nodes, _WEIGHTS[cfg.cost_model][0])
    route, lats = anchor.route(w)
    cost = float(w @ lats)
    term = cfg.c1 * cost
    if math.isfinite(cost) and not math.isfinite(term):
        raise ValueError(f"C1 = {cfg.c1:g} times the route cost {cost:.6g} overflows")
    return route, lats, cost, term


def _warn(msg, *args):
    # A warning on the "repairroute" logger.  logging is imported here, not
    # at the top: the import adds about 0.45 MiB RSS.
    import logging

    logging.getLogger("repairroute").warning(msg, *args)


def _objective(lam, data: LabeledDataset, nodes, anchor: _RouteAnchor, cfg: MltrpConfig):
    # (value, route as a tuple, latencies) of the combined objective with the
    # route re-optimized exactly for lam.
    te = training_error(lam, data, cfg.c2)
    route, lats, _, term = _anchored_route(lam, nodes, anchor, cfg)
    return te + term, tuple(route), lats


def nelder_mead(f, lam0, descend=None) -> tuple[np.ndarray, list]:
    """Downhill simplex minimizing f from lam0, where f(v) returns (value,
    piece); returns the best vertex and the best value after each iteration.

    The starting simplex sits at lam0 plus one axis perturbation per
    coordinate, scaled by _NM_SCALE * max(1, ||lam0||_inf).  Steps use the
    _NM_REFLECT, _NM_EXPAND, _NM_CONTRACT and _NM_SHRINK coefficients.  The
    best vertex never worsens; the search stops when the simplex diameter
    falls under _NM_DIAM_TOL or _NM_MAX_EVALS evaluations are spent, and the
    latter, with the simplex still wider, is logged as a warning on the
    "repairroute" logger.  A non-finite value raises ValueError naming the
    vertex.  The simplex is one list of (value, piece, vertex) records, and
    records of equal value keep their order (the sort is stable).

    The piece names the smooth piece of f that the evaluation lay on by a
    value that compares with == (solve: the exact route there; None where f
    has one piece).  Given descend, as solve gives it, the search may also
    finish on one piece: descend(lam, p) returns the end of a descent on
    piece p's smooth extension from lam, or None when it did not converge
    (solve: the fixed-route damped Newton descent of
    alternating_minimization).  After each sort, once every vertex lies on
    one piece, the diameter is below _NM_FINISH_DIAM * max(1,
    ||lam_best||_inf) and that piece has not been tried, the search descends
    from the best vertex and evaluates f at the end.  It stops there, with
    that value last in the trace, only if the descent converged, the end
    lies on the same piece, and its value is not above the best vertex's;
    otherwise the piece is marked tried and the simplex goes on as if
    nothing happened.
    """
    lam0 = np.asarray(lam0, dtype=float).ravel()
    d = lam0.shape[0]

    def record(v):
        val, piece = f(v)
        if not math.isfinite(val):
            raise ValueError(f"non-finite objective at simplex vertex {v.tolist()}")
        return val, piece, v

    scale = _NM_SCALE * max(1.0, float(np.abs(lam0).max()))
    starts = [lam0.copy()]
    for j in range(d):
        v = lam0.copy()
        v[j] += scale
        starts.append(v)
    simplex = [record(v) for v in starts]
    evals = d + 1
    trace, tried = [], []
    while True:
        simplex.sort(key=lambda r: r[0])
        best_val, best_piece, best = simplex[0]
        trace.append(best_val)
        verts = np.array([v for _, _, v in simplex])
        diam = float(np.abs(verts[1:] - verts[0]).max())
        if diam < _NM_DIAM_TOL or evals >= _NM_MAX_EVALS:
            break
        if (
            descend is not None
            and all(p == best_piece for _, p, _ in simplex)
            and diam < _NM_FINISH_DIAM * max(1.0, float(np.abs(best).max()))
            and best_piece not in tried
        ):
            tried.append(best_piece)
            end = descend(best, best_piece)
            if end is not None:
                fe, pe, _ = record(end)
                evals += 1
                if pe == best_piece and fe <= best_val:
                    trace.append(fe)
                    return end, trace
        centroid = np.add.reduce(verts[:-1]) / d  # np.mean's arithmetic, without its wrapper
        worst = verts[-1]
        reflected = record(centroid + _NM_REFLECT * (centroid - worst))
        evals += 1
        if reflected[0] < best_val:
            expanded = record(centroid + _NM_EXPAND * (centroid - worst))
            evals += 1
            simplex[-1] = expanded if expanded[0] < reflected[0] else reflected
        elif reflected[0] < simplex[-2][0]:
            simplex[-1] = reflected
        else:
            # Contract on the reflected side when the reflection beat the
            # worst vertex, else on the worst vertex's side; shrink if that fails.
            outside = reflected[0] < simplex[-1][0]
            contracted = record(
                centroid + (_NM_CONTRACT if outside else -_NM_CONTRACT) * (centroid - worst)
            )
            evals += 1
            if (contracted[0] <= reflected[0]) if outside else (contracted[0] < simplex[-1][0]):
                simplex[-1] = contracted
            else:
                simplex[1:] = [record(best + _NM_SHRINK * (v - best)) for _, _, v in simplex[1:]]
                evals += d
    if diam >= _NM_DIAM_TOL:
        _warn(
            "Nelder-Mead stopped after %d evaluations (budget %d) with simplex diameter %.3g",
            evals, _NM_MAX_EVALS, diam,
        )
    return simplex[0][2], trace


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


def _route_descent(lam, lats, data, nodes, cfg: MltrpConfig):
    # Damped Newton descent (learn.minimize_descent with the exact Hessian)
    # on _fixed_route_objective at the route whose latencies are lats, from lam.
    return minimize_descent(
        lambda v: _fixed_route_objective(v, lats, data, nodes, cfg),
        lambda v: _fixed_route_gradient(v, lats, data, nodes, cfg),
        lam,
        hess=lambda v: _fixed_route_hessian(v, lats, data, nodes, cfg),
    )


def alternating_minimization(
    lam, data: LabeledDataset, nodes: np.ndarray, anchor: _RouteAnchor, cfg: MltrpConfig
) -> tuple[np.ndarray, list]:
    """Alternate exact routing with descent on lam at the frozen route,
    starting at lam; returns the final lam and the loss after each round.

    Each round first takes the exact route and its latencies for the current
    weights from the anchor (see trp._RouteAnchor), then runs damped Newton
    descent (learn.minimize_descent with the exact Hessian) on the combined
    objective with that route frozen, warm-started at the current lam.  Both
    half-steps can only lower the objective, up to 16 eps |f| rounding in the
    descent's last steps, so the recorded trace is non-increasing to that
    precision.  A descent that stops unconverged is logged as a warning on
    the "repairroute" logger.  The loop stops once the route repeats: the
    following lam step would start at its own minimizer and move nowhere.
    After _AM_ROUNDS rounds it takes the route at the final lam and stops
    there too; if that route is new, the cap stopped AM early, and that is
    logged as a warning as well.  lam is a float vector and nodes a 2-D
    float array of its width.
    """
    prev_route = None
    trace = []
    for rnd in range(1, _AM_ROUNDS + 2):
        route, lats, _, _ = _anchored_route(lam, nodes, anchor, cfg)
        if route == prev_route:
            break
        if rnd > _AM_ROUNDS:
            _warn("AM stopped at its cap of %d rounds before the route repeated", _AM_ROUNDS)
            break
        res = _route_descent(lam, lats, data, nodes, cfg)
        if not res.converged:
            _warn(
                "AM round %d: fixed-route descent stopped unconverged after %d iterations, "
                "|grad| = %.3g",
                rnd, res.iterations, res.grad_norm,
            )
        lam = res.lam
        trace.append(res.loss)
        prev_route = route
    return lam, trace


def solve(method: str, data: LabeledDataset, nodes, D, cfg: MltrpConfig, lam0=None) -> MltrpSolution:
    """Minimize the combined objective by one of METHODS; the one solver
    entry point.

    lam starts at lam0, or at the plain logistic fit when lam0 is omitted;
    sequential always takes the fit (the C1 = 0 optimum) and stops there.
    nm runs nelder_mead on _objective, with the exact route that each
    evaluation returns as its piece and _route_descent on that route's
    latencies, from the same evaluation, as its fixed-route finish; am runs
    alternating_minimization; both start there.  Every route, the final
    one included, comes from one _RouteAnchor on D, which skips the DP where
    its certificate shows the DP would return the anchor's route again, so
    values, trace and result are those of re-solving every time, bit for
    bit.  The start's width against the node features is checked here, and
    D by the anchor, once per solve; the loops run unchecked kernels.  The
    solution's trace is the method's (sequential's is its combined
    objective alone).  ValueError names C1 when C1 times a route cost
    overflows.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if lam0 is None or method == "sequential":
        lam0 = fit_logistic(data, cfg.c2).lam
    lam, nodes = _scores_input(lam0, nodes)
    anchor = _RouteAnchor(D)
    trace = []
    if method == "nm":
        lats_of = {}  # route -> its latencies, for every route NM has met

        def evaluate(v):
            val, route, lats = _objective(v, data, nodes, anchor, cfg)
            lats_of[route] = lats
            return val, route

        def descend(v, route):
            res = _route_descent(v, lats_of[route], data, nodes, cfg)
            return res.lam if res.converged else None

        lam, trace = nelder_mead(evaluate, lam, descend)
    elif method == "am":
        lam, trace = alternating_minimization(lam, data, nodes, anchor, cfg)
    te = training_error(lam, data, cfg.c2)
    route, _, cost, term = _anchored_route(lam, nodes, anchor, cfg)
    combined = te + term
    return MltrpSolution(
        lam=lam, route=route, training_error=te, traversal_cost=cost, combined_objective=combined,
        trace=(combined,) if method == "sequential" else tuple(trace), method=method,
    )


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
    rows differ only through C1.  Under sequential neither the fit nor its
    route depends on C1, so one solve, at the grid's largest C1 (which
    checks C1 times the route cost for overflow), serves every row.
    """
    grid = check_c1_grid(c1_grid)
    if method == "sequential":
        sols = [solve(method, data, nodes, D, replace(cfg, c1=max(grid)))] * len(grid)
    else:
        lam0 = fit_logistic(data, cfg.c2).lam
        sols = (solve(method, data, nodes, D, replace(cfg, c1=c1), lam0) for c1 in grid)
    rows = []
    for c1, sol in zip(grid, sols):
        train_auc = auc(data.features @ sol.lam, data.labels)
        test_auc = (
            auc(test_data.features @ sol.lam, test_data.labels)
            if test_data is not None
            else math.nan
        )
        rows.append(SweepRow(
            c1=c1, train_auc=train_auc, test_auc=test_auc, traversal_cost=sol.traversal_cost,
            train_loss=sol.training_error, route=sol.route,
        ))
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
