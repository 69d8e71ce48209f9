"""Exact solvers for the weighted minimum-latency routing problem.

Both solvers minimize cost1(route, w, D) over all routes that start at node 1,
visit every node once, and close back at node 1.  Ties within an absolute
tolerance of 1e-12 are broken toward the lexicographically smallest route so
independent solvers agree on the returned order.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights, cost1

TIE_TOL = 1e-12

_DP_MAX_NODES = 20
_BF_MAX_NODES = 10
# Visited sets extended per numpy step: caps each step's temporaries at
# about 1024 * M doubles, so the table stays the DP's only large allocation.
_FILL_ROWS = 1024


@dataclass(frozen=True)
class TrpSolution:
    route: list[int]
    cost: float
    solver: str


def solve_weighted_trp_dp(w, D) -> TrpSolution:
    """Held-Karp style subset dynamic program over (visited set, last node).

    An edge (j, k) taken with visited set S (node 1 included) contributes
    d[j, k] * (remaining weight outside S plus node 1's weight), because every
    still-waiting node and the start node itself pay for that leg.  States are
    keyed by subsets of nodes 2..M.  The table is filled one subset size at a
    time, largest first: for each size and each node, numpy steps extend
    every visited set of that size that lacks the node, up to _FILL_ROWS sets
    per step.  Each state still takes the minimum over its next nodes in
    increasing order, so the table equals a per-set loop bit for bit.
    Memory is O(2^(M-1) * M) for the table plus one step's temporaries.
    """
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    if M > _DP_MAX_NODES:
        raise ValueError(f"exact DP supports at most {_DP_MAX_NODES} nodes, got {M}")
    n = M - 1  # bit k of a mask marks node k+2 (1-based) as visited
    full = (1 << n) - 1
    wtot = float(w.sum())

    # subw[mask] adds the weights of mask's nodes from the highest bit down,
    # the order of the recurrence subw[mask] = subw[mask - lsb] + w[lsb];
    # size[mask] counts them.
    subw = np.zeros(full + 1)
    size = np.zeros(full + 1, dtype=np.int8)
    for b in range(n - 1, -1, -1):
        subw[1 << b :: 2 << b] = subw[:: 2 << b] + w[b + 1]
        size[1 << b :: 2 << b] = size[:: 2 << b] + 1
    coef = wtot - subw  # per-leg weight multiplier for each visited set
    del subw

    g = np.full((full + 1, M), np.inf)
    g[full, :] = D[:, 0] * w[0]
    for s in range(n - 1, -1, -1):
        layer = np.flatnonzero(size == s)
        for k in range(n):
            free = layer[(layer & (1 << k)) == 0]
            node = k + 1
            for lo in range(0, free.size, _FILL_ROWS):
                sub = free[lo : lo + _FILL_ROWS]
                cand = np.multiply.outer(coef[sub], D[:, node])
                cand += g[sub | (1 << k), node][:, None]
                np.minimum(g[sub], cand, out=cand)
                g[sub] = cand
    c_star = float(g[0, 0])

    # Greedy reconstruction: at each step take the smallest next node whose
    # completion stays within TIE_TOL of the optimum.
    mask, last, acc = 0, 0, 0.0
    order = [0]
    for _ in range(n):
        chosen = None
        fallback = (np.inf, None)
        for k in range(n):
            if mask >> k & 1:
                continue
            node = k + 1
            total = acc + D[last, node] * coef[mask] + g[mask | (1 << k), node]
            if total <= c_star + TIE_TOL:
                chosen = (k, node)
                break
            if total < fallback[0]:
                fallback = (total, (k, node))
        if chosen is None:  # accumulated roundoff exceeded the tolerance
            chosen = fallback[1]
        k, node = chosen
        acc += D[last, node] * coef[mask]
        mask |= 1 << k
        last = node
        order.append(node)

    route = [i + 1 for i in order]
    return TrpSolution(route=route, cost=cost1(route, w, D), solver="dp")


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
    """Enumerate all (M-1)! routes; exact optimum with the same tie-breaking as the DP."""
    D = as_distance_matrix(D)
    w = as_weights(w, D.shape[0])
    M = D.shape[0]
    if M > _BF_MAX_NODES:
        raise ValueError(f"brute force supports at most {_BF_MAX_NODES} nodes, got {M}")
    tails = range(1, M)
    best = np.inf
    for tail in itertools.permutations(tails):
        c = _walk_cost(tail, w, D)
        if c < best:
            best = c
    route = None
    for tail in itertools.permutations(tails):  # lexicographic order
        if _walk_cost(tail, w, D) <= best + TIE_TOL:
            route = [1] + [i + 1 for i in tail]
            break
    return TrpSolution(route=route, cost=cost1(route, w, D), solver="brute_force")


def naive_route(w) -> list[int]:
    """Visit nodes in decreasing weight, ignoring distances; ties toward the smaller id."""
    w = as_weights(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    tail = sorted(range(1, w.shape[0]), key=lambda i: (-w[i], i))
    return [1] + [i + 1 for i in tail]
