"""Exact solver for the weighted minimum-latency routing problem.

solve_weighted_trp_dp minimizes cost1(route, w, D) over all routes that
start at node 1, visit every node once, and close back at node 1.  Ties
within an absolute tolerance of 1e-12 are broken toward the
lexicographically smallest route, so any exact solver with the same rule
returns the same order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import _latency, as_distance_matrix, as_weights

TIE_TOL = 1e-12

_DP_MAX_NODES = 20
# (Visited set, next node) pairs extended per numpy step: caps each step's
# temporaries at about 1024 * M doubles, so the table and the cached pair
# index stay the DP's only large allocations.
_FILL_ROWS = 1024


@dataclass(frozen=True)
class TrpSolution:
    route: list[int]
    cost: float
    solver: str


@functools.lru_cache(maxsize=1)
def _layers(n):
    """Per subset size s < n: the sets of n bits with s bits set (int32,
    ascending) and, row by row, each set's n - s free bits in ascending order
    (uint8).  Depends on n alone, so the most recent node count is kept."""
    # Masks are filled by their lowest set bit, highest bit first, so each
    # reads an entry written at an earlier bit.
    size = np.zeros(1 << n, dtype=np.int8)
    low = np.zeros(1 << n, dtype=np.uint8)  # index of the lowest set bit
    for b in range(n - 1, -1, -1):
        size[1 << b :: 2 << b] = size[:: 2 << b] + 1
        low[1 << b :: 2 << b] = b
    layers = []
    for s in range(n):
        sets = np.flatnonzero(size == s).astype(np.int32)
        bits = np.empty((sets.size, n - s), dtype=np.uint8)
        rest = ((1 << n) - 1) ^ sets
        for j in range(n - s):
            bits[:, j] = low[rest]
            rest &= rest - 1
        sets.flags.writeable = bits.flags.writeable = False
        layers.append((sets, bits))
    return tuple(layers)


def solve_weighted_trp_dp(w, D) -> TrpSolution:
    """Held-Karp style subset dynamic program over (visited set, last node).

    An edge (j, k) taken with visited set S (node 1 included) contributes
    d[j, k] * (remaining weight outside S plus node 1's weight), because every
    still-waiting node and the start node itself pay for that leg.  States are
    keyed by subsets of nodes 2..M.  The table is filled one subset size at a
    time, largest first: one gathered numpy step extends up to _FILL_ROWS
    (visited set, free node) pairs of that size and takes each set's minimum
    over its free nodes.  A float minimum does not depend on the order of its
    terms, so the table equals a per-set loop bit for bit.  The pair index
    depends only on M and is cached for the most recent M (int32 sets, uint8
    node bits: about (M + 7) * 2^(M-2) bytes).  Memory is O(2^(M-1) * M) for
    the table plus the index and one step's temporaries.
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
    # the order of the recurrence subw[mask] = subw[mask - lsb] + w[lsb].
    subw = np.zeros(full + 1)
    for b in range(n - 1, -1, -1):
        subw[1 << b :: 2 << b] = subw[:: 2 << b] + w[b + 1]
    coef = wtot - subw  # per-leg weight multiplier for each visited set
    del subw

    into = np.ascontiguousarray(D[:, 1:].T)  # into[k] = D[:, k+1]: legs into node k+2
    bit = 1 << np.arange(n)
    g = np.full((full + 1, M), np.inf)
    g[full, :] = D[:, 0] * w[0]
    g_next = g[:, 1:]  # g_next[S, k] = g[S, k+1]
    layers = _layers(n)
    for s in range(n - 1, -1, -1):
        sets, bits = layers[s]
        rows = max(1, _FILL_ROWS // (n - s))
        for lo in range(0, sets.size, rows):
            S, F = sets[lo : lo + rows], bits[lo : lo + rows]
            cand = into[F]
            cand *= coef[S][:, None, None]
            cand += g_next[S[:, None] | bit[F], F][:, :, None]
            g[S] = cand.min(axis=1)
    c_star = float(g[0, 0])

    # Greedy reconstruction: at each step take the smallest next node whose
    # completion stays within TIE_TOL of the optimum.
    free = np.arange(n)
    mask, last, acc = 0, 0, 0.0
    order = [0]
    for _ in range(n):
        leg = D[last, free + 1] * coef[mask]
        total = acc + leg + g_next[mask | bit[free], free]
        hit = total <= c_star + TIE_TOL
        i = hit.argmax()  # the first hit
        if not hit[i]:  # accumulated roundoff exceeded the tolerance
            i = total.argmin()
        k = int(free[i])
        acc += leg[i]
        mask |= 1 << k
        last = k + 1
        order.append(last)
        free = free[free != k]

    cost = float(w @ _latency(np.array(order), D))  # cost1 without re-checking its inputs
    return TrpSolution(route=[i + 1 for i in order], cost=cost, solver="dp")


def naive_route(w) -> list[int]:
    """Visit nodes in decreasing weight, ignoring distances; ties toward the smaller id."""
    w = as_weights(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    tail = sorted(range(1, w.shape[0]), key=lambda i: (-w[i], i))
    return [1] + [i + 1 for i in tail]
