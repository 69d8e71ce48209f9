"""Exact solver for the weighted minimum-latency routing problem.

solve_weighted_trp_dp minimizes cost1(route, w, D) over all routes that
start at node 1, visit every node once, and close back at node 1.  Ties
within an absolute tolerance of 1e-12 are broken toward the
lexicographically smallest route, so any exact solver with the same rule
returns the same order.  The solution also reports, for each step s of
its route, the gap: the least cost of a route that first leaves it at step
s, minus the optimum (inf where no other node is free), and its margin: the
least gap, i.e. the least cost of any other route minus the optimum, so a
tie has margin <= TIE_TOL.

The tables are layer-major: one contiguous (C(M-1, s), M) table per subset
size s.  The index that links the layers (`_layers`: the sets, their free
nodes, each mask's row `pos` and each successor entry's flat position
`nxt` in the next layer) depends only on M and is cached for the most
recent M.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _latency, as_distance_matrix, as_weights

TIE_TOL = 1e-12

_DP_MAX_NODES = 20
# (Visited set, next node) pairs extended per numpy step: caps each step's
# temporaries at about 1024 * M doubles, so the tables and the cached index
# stay the DP's only large allocations.
_FILL_ROWS = 1024


@dataclass(frozen=True)
class TrpSolution:
    route: list[int]
    cost: float
    solver: str
    margin: float  # runner-up cost minus the optimum; inf when only one route exists
    # step_margins[s - 1]: least cost of a route that agrees with `route` on
    # its first s nodes and not on the next, minus the optimum; inf where no
    # other node is free (the last step).  margin == min(step_margins).
    step_margins: tuple[float, ...]


@functools.lru_cache(maxsize=1)
def _layers(n):
    """Index of the subset DP over n bits, kept for the most recent n.

    Returns (pos, layers).  pos (int32, length 2^n) gives each mask's row
    within its layer: the sets of one size, ascending.  layers[s], for each
    size s < n, is (sets, free, nxt):
      sets  int32 (C(n, s),): the masks with s bits set, ascending;
      free  uint8 (n - s, C(n, s)): column r lists sets[r]'s free bits in
            ascending order;
      nxt   int32 (n - s, C(n, s)): for free bit k = free[j, r], the flat
            index of g[sets[r] | 1 << k, k + 1] in layer s + 1's
            (C(n, s + 1), n + 1) table.
    The free-bit rows are the leading axis, so one fill step gathers and
    reduces whole contiguous rows."""
    # Masks are filled by their lowest set bit, highest bit first, so each
    # reads an entry written at an earlier bit.
    size = np.zeros(1 << n, dtype=np.int8)
    low = np.zeros(1 << n, dtype=np.uint8)  # index of the lowest set bit
    for b in range(n - 1, -1, -1):
        size[1 << b :: 2 << b] = size[:: 2 << b] + 1
        low[1 << b :: 2 << b] = b
    by_size = [np.flatnonzero(size == s).astype(np.int32) for s in range(n + 1)]
    pos = np.empty(1 << n, dtype=np.int32)
    for sets in by_size:
        pos[sets] = np.arange(sets.size, dtype=np.int32)
    layers = []
    for s, sets in enumerate(by_size[:n]):
        free = np.empty((n - s, sets.size), dtype=np.uint8)
        rest = ((1 << n) - 1) ^ sets
        for j in range(n - s):
            free[j] = low[rest]
            rest &= rest - 1
        nxt = pos[sets | np.left_shift(1, free, dtype=np.int32)] * (n + 1) + free + 1
        sets.flags.writeable = free.flags.writeable = nxt.flags.writeable = False
        layers.append((sets, free, nxt))
    pos.flags.writeable = False
    return pos, tuple(layers)


def solve_weighted_trp_dp(w, D) -> TrpSolution:
    """Held-Karp style subset dynamic program over (visited set, last node).

    An edge (j, k) taken with visited set S (node 1 included) contributes
    d[j, k] * (remaining weight outside S plus node 1's weight), because every
    still-waiting node and the start node itself pay for that leg.  States are
    keyed by subsets of nodes 2..M, one (C(M-1, s), M) table per subset size
    s, filled largest size first.  One numpy step extends up to _FILL_ROWS
    (visited set, free node) pairs of a size: it gathers the legs into each
    free node with `take`, adds the successor entries that the cached `nxt`
    index locates in the next size's table, and reduces over the free nodes,
    the leading axis.  A float minimum does not depend on the order of its
    terms, so the tables equal a per-set loop bit for bit.  The route is then
    rebuilt in Python floats, looking rows up through the cached `pos`.

    The rebuild evaluates the completion total acc + leg + g of every free
    node at every step.  Any route other than the one returned first leaves
    it at some step, onto a node not taken there (Lawler's partition,
    Management Science 1972), so the least total not taken at step s is the
    least cost of the routes that first leave at s: `step_margins` holds it
    minus c* = g[{}, 1] for each step, in the tables' own arithmetic, and
    `margin`, their minimum, is the runner-up cost minus c*.  The last step
    has one free node, so its entry is inf; with M = 2 only one route exists
    and the margin is inf.

    Memory: the tables hold 2^(M-1) * M doubles in all (4 MiB at 16 nodes,
    80 MiB at 20), plus one step's temporaries.  The index depends only on
    M and is cached for the most recent M (int32 sets, pos and nxt, uint8
    free bits: about 1.4 MiB at 16 nodes and 28 MiB at 20).
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
    pos, layers = _layers(n)
    tables = [None] * n + [(D[:, 0] * w[0])[None, :]]  # tables[s][pos[S], j] = g[S, j]
    for s in range(n - 1, -1, -1):
        sets, free, nxt = layers[s]
        prev, t = tables[s + 1], np.empty((sets.size, M))
        rows = max(1, _FILL_ROWS // (n - s))
        for lo in range(0, sets.size, rows):
            hi = lo + rows
            cand = into.take(free[:, lo:hi], axis=0)
            cand *= coef.take(sets[lo:hi])[None, :, None]
            cand += prev.take(nxt[:, lo:hi])[:, :, None]
            np.minimum.reduce(cand, axis=0, out=t[lo:hi])
        tables[s] = t
    c_star = tables[0].item(0, 0)

    # Greedy reconstruction: at each step take the smallest next node whose
    # completion stays within TIE_TOL of the optimum; if accumulated roundoff
    # leaves none within it, the first node of least completion.  Every free
    # node is evaluated, so the least completion not taken at a step is the
    # best route that first leaves there.
    limit = c_star + TIE_TOL
    step_margins = []
    Dl = D.tolist()
    free_nodes = list(range(n))
    mask, last, acc = 0, 0, 0.0
    order = [0]
    for s in range(1, n + 1):
        t, c, row = tables[s], coef.item(mask), Dl[last]
        best = None  # (total, k, leg) of the node taken
        other = math.inf  # least total of the nodes not taken
        for k in free_nodes:
            leg = row[k + 1] * c
            total = acc + leg + t.item(pos.item(mask | 1 << k), k + 1)
            if best is None:
                best = (total, k, leg)
                continue
            if best[0] > limit and total < best[0]:
                best, total = (total, k, leg), best[0]  # the displaced node competes below
            if total < other:
                other = total
        step_margins.append(other - c_star)
        _, k, leg = best
        acc += leg
        mask |= 1 << k
        last = k + 1
        order.append(last)
        free_nodes.remove(k)

    cost = float(w @ _latency(np.array(order), D))  # cost1 without re-checking its inputs
    return TrpSolution(
        route=[i + 1 for i in order],
        cost=cost,
        solver="dp",
        margin=min(step_margins),
        step_margins=tuple(step_margins),
    )


def naive_route(w) -> list[int]:
    """Visit nodes in decreasing weight, ignoring distances; ties toward the smaller id."""
    w = as_weights(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    tail = sorted(range(1, w.shape[0]), key=lambda i: (-w[i], i))
    return [1] + [i + 1 for i in tail]
