"""Independent checks of every CLI output.

Nothing here imports the package under test: latencies, weights, losses
and optimal route costs are recomputed from the generated arrays with code
of the benchmark's own.  The exact route optimum comes from a forward
Held-Karp recurrence evaluated one subset size at a time, which is checked
against brute-force enumeration on every instance of at most BRUTE_MAX
nodes (and on an 8-node cut of every larger instance).
"""

import itertools
import json
import math

import numpy as np

RTOL = 1e-9
TRACE_TOL = 1e-7
BRUTE_MAX = 9


def close(a, b, rtol=RTOL) -> bool:
    a, b = float(a), float(b)
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def all_close(a, b, rtol=RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


def is_tour(route, M) -> bool:
    return isinstance(route, list) and len(route) == M and route[0] == 1 and sorted(route) == list(range(1, M + 1))


def latency(route, D) -> np.ndarray:
    """Per-node waiting time by prefix sums; node 1 waits the whole tour."""
    order = np.asarray(route) - 1
    arrive = np.concatenate(([0.0], np.cumsum(D[order[:-1], order[1:]])))
    lat = np.empty(len(order))
    lat[order] = arrive
    lat[order[0]] = arrive[-1] + D[order[-1], order[0]]
    return lat


def route_cost(route, w, D) -> float:
    return float(np.dot(w, latency(route, D)))


def weights(lam, nodes, cost_model) -> np.ndarray:
    s = nodes @ np.asarray(lam, dtype=float)
    return 1.0 / (1.0 + np.exp(-s)) if cost_model == "cost1" else np.logaddexp(0.0, s)


def training_loss(lam, X, y, c2) -> float:
    lam = np.asarray(lam, dtype=float)
    return float(np.logaddexp(0.0, -y * (X @ lam)).sum() + c2 * lam @ lam)


def held_karp(w, D) -> float:
    """Optimal weighted latency over tours from node 1.

    F[S, j] is the cheapest path from node 1 through the non-depot set S
    ending at node j+2; the leg into a node costs its length times the
    weight still waiting (all nodes outside S, plus node 1).
    """
    w = np.asarray(w, dtype=float)
    M = len(w)
    n = M - 1
    full = 1 << n
    masks = np.arange(full)
    bits = (masks[:, None] >> np.arange(n)) & 1
    waiting = w.sum() - bits @ w[1:]
    size = bits.sum(axis=1)
    F = np.full((full, n), np.inf)
    F[1 << np.arange(n), np.arange(n)] = D[0, 1:] * waiting[0]
    for c in range(1, n):
        layer = masks[size == c]
        for k in range(n):
            S = layer[((layer >> k) & 1) == 0]
            best = (F[S] + np.outer(waiting[S], D[1:, k + 1])).min(axis=1)
            T = S | (1 << k)
            F[T, k] = np.minimum(F[T, k], best)
    return float((F[full - 1] + D[1:, 0] * w[0]).min())


def brute_force(w, D) -> float:
    """Optimal weighted latency by enumerating all (M-1)! tours."""
    w = np.asarray(w, dtype=float)
    M = len(w)
    perms = np.array(list(itertools.permutations(range(1, M))))
    prev = np.column_stack([np.zeros(len(perms), dtype=int), perms[:, :-1]])
    arrive = np.cumsum(D[prev, perms], axis=1)
    tour = arrive[:, -1] + D[perms[:, -1], 0]
    return float(((w[perms] * arrive).sum(axis=1) + w[0] * tour).min())


def depot_distances(D) -> np.ndarray:
    """Shortest directed path lengths from node 1 (Bellman-Ford)."""
    dist = D[0].copy()
    dist[0] = 0.0
    for _ in range(len(dist)):
        dist = np.minimum(dist, (dist[:, None] + D).min(axis=0))
    return dist


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class Verdict:
    """Problems found for one operation, its objective and deferred DP checks."""

    def __init__(self):
        self.problems = []
        self.objective = 0.0
        self.optima = []  # (weights, D, claimed optimum, label)

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)


def _check_route_doc(v, doc, inst, w):
    v.require(is_tour(doc["route"], inst.M), "route.json: route is not a tour of 1..M from 1")
    v.require(all_close(doc["weights"], w), "route.json: weights differ from the model's")
    if is_tour(doc["route"], inst.M):
        v.require(
            close(doc["weighted_latency_cost"], route_cost(doc["route"], w, inst.D)),
            "route.json: weighted_latency_cost differs from the prefix-sum latency cost",
        )


def check(op, code) -> Verdict:
    """Check the files one operation wrote; DP optima are queued in v.optima."""
    v = Verdict()
    v.require(code == 0, f"exit code {code}")
    if code != 0:
        return v
    try:
        _CHECKS[op.kind](v, op)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        v.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return v


def _route(v, op):
    inst = op.inst
    model = _load(op.out / "model.json")
    doc = _load(op.out / "route.json")
    w = weights(model["lambda"], inst.nodes, op.cost_model)
    _check_route_doc(v, doc, inst, w)
    v.objective = float(doc["weighted_latency_cost"])
    v.optima.append((w, inst.D, v.objective, "route"))


def _simulate(v, op):
    doc = _load(op.out / "simulation.json")
    v.require(is_tour(doc["route"], op.inst.M), "simulation.json: route is not a tour")
    v.require(math.isfinite(doc["z_score"]), "simulation.json: z_score is not finite")
    v.require(math.isfinite(doc["estimate"]) and math.isfinite(doc["analytic"]), "simulation.json: non-finite cost")


def _export(v, op):
    M = op.inst.M
    text = (op.out / "model.lp").read_text()
    lines = text.splitlines()
    v.require(lines[0] == "Minimize" and lines[-1] == "End", "model.lp: not framed by Minimize ... End")
    for section in ("Subject To", "Bounds", "Binaries"):
        v.require(section in lines, f"model.lp: missing {section}")
    if "Binaries" in lines:
        binaries = lines[lines.index("Binaries") + 1 : -1]
        v.require(len(binaries) == M * M, f"model.lp: {len(binaries)} binaries, expected {M * M}")
    v.require(lines[1].count(" z_") == M * (M - 1), "model.lp: objective does not price every edge")


def _bound(v, op):
    inst = op.inst
    doc = _load(op.out / "bound.json")
    v.require(math.isfinite(doc["bound"]) and doc["bound"] >= 0, "bound.json: bound is not finite and >= 0")
    floors = np.asarray(doc["shortest_distances"], dtype=float)
    v.require(all_close(floors[1:], depot_distances(inst.D)[1:]), "bound.json: path floors differ from Bellman-Ford")
    unit = np.zeros(inst.M)
    unit[0] = 1.0
    v.objective = float(floors[0])
    v.optima.append((unit, inst.D, v.objective, "bound tour"))


def _simultaneous(v, op):
    inst = op.inst
    sol = _load(op.out / "solution.json")
    lam = np.asarray(sol["lambda"], dtype=float)
    w = weights(lam, inst.nodes, op.cost_model)
    route = sol["route"]
    v.require(is_tour(route, inst.M), "solution.json: route is not a tour")
    te, tc, combined = sol["training_error"], sol["traversal_cost"], sol["combined_objective"]
    v.require(close(te, training_loss(lam, inst.X, inst.y, op.c2)), "solution.json: training_error differs")
    if is_tour(route, inst.M):
        v.require(close(tc, route_cost(route, w, inst.D)), "solution.json: traversal_cost differs")
    v.require(close(combined, te + op.c1 * tc), "solution.json: combined_objective != training_error + c1*traversal")
    rise = float(np.diff(np.asarray(sol["trace"], dtype=float)).max(initial=0.0))
    v.require(rise <= TRACE_TOL, f"solution.json: {sol['method']} trace rises by {rise:.3g}")
    _check_route_doc(v, _load(op.out / "route.json"), inst, w)
    v.objective = float(combined)
    v.optima.append((w, inst.D, float(tc), "traversal"))


def _demo(v, op):
    doc = _load(op.out / "summary.json")
    for side in ("sequential", "simultaneous"):
        part = doc[side]
        v.require(is_tour(part["route"], len(part["probabilities"])), f"summary.json: {side} route is not a tour")
        v.require(math.isfinite(part["cost1"]) and math.isfinite(part["training_error"]), f"summary.json: {side} costs")


_CHECKS = {
    "route": _route,
    "simulate": _simulate,
    "export-milp": _export,
    "bound": _bound,
    "simultaneous": _simultaneous,
    "demo": _demo,
}


def verify_optima(jobs) -> list:
    """Check each claimed optimum against held_karp, and held_karp against brute force.

    jobs: list of (op index, weights, D, claimed, label).  Returns
    (op index or None, message) for each failure; None marks a failure of
    the reference itself.
    """
    failures = []
    cache = {}
    for idx, w, D, claimed, label in jobs:
        key = (w.tobytes(), D.tobytes())
        if key not in cache:
            cache[key] = held_karp(w, D)
        if not close(claimed, cache[key]):
            failures.append((idx, f"{label}: {claimed!r} is not the optimum {cache[key]!r}"))
    seen = set()
    for idx, w, D, _, _ in jobs:
        m = min(len(w), 8) if len(w) > BRUTE_MAX else len(w)
        ws, Ds = w[:m], D[:m, :m]
        key = (ws.tobytes(), Ds.tobytes())
        if key in seen:
            continue
        seen.add(key)
        if not close(held_karp(ws, Ds), brute_force(ws, Ds)):
            failures.append((None, f"reference DP disagrees with brute force on a {m}-node instance"))
    return failures
