"""Exact solver for the weighted minimum-latency routing problem.

solve_weighted_trp_dp minimizes cost1(route, w, D) over all routes that
start at node 1, visit every node once, and close back at node 1.  Ties
within an absolute tolerance of 1e-12 are broken toward the
lexicographically smallest route, so any exact solver with the same rule
returns the same order.  The solution also reports, for each step s of
its route, the gap: the least cost of a route that first leaves it at step
s, minus the optimum (inf where no other node is free).  The least gap is
the margin, the least cost of any other route minus the optimum, so a tie
has margin <= TIE_TOL.

The tables are layer-major: one contiguous (s, C(M-1, s)) table per subset
size s, holding g[S, j] only for the last nodes j in S (node 1 alone when S
is empty), with the sets on the fast axis.  The index that links the layers
(`_layers`: the sets, the D offsets of their members' rows and of their
free nodes' columns, each mask's column `pos` and each successor entry's
flat position `nxt` in the next layer) depends only on M and the step size,
and is cached for the most recent M.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import _latency, as_distance_matrix, as_weights

TIE_TOL = 1e-12

_DP_MAX_NODES = 20
# Caps each numpy fill step at 1024 * M candidate doubles (one visited set
# at least), so the tables and the cached index stay the DP's only large
# allocations.
_FILL_ROWS = 1024


@dataclass(frozen=True)
class TrpSolution:
    route: list[int]
    cost: float
    # step_margins[s - 1]: least cost of a route that agrees with `route` on
    # its first s nodes and not on the next, minus the optimum; inf where no
    # other node is free (the last step).  min(step_margins) is the margin:
    # the runner-up cost minus the optimum, inf when only one route exists.
    step_margins: tuple[float, ...]


@functools.lru_cache(maxsize=1)
def _layers(n, fill_rows):
    """Index of the subset DP over n bits, kept for the most recent call.

    Returns (pos, sets, layers).  pos (int32, length 2^n) gives each mask's
    column within its layer: the sets of one size, ascending.  sets (int32)
    lists the masks of sizes 0, 1, ..., n - 1, each size ascending.
    layers[s], for each size s < n, is (span, shape, steps): the layer's
    slice of `sets`, its table's shape (max(s, 1), C(n, s)), and its fill
    steps.  A step (cut, rows, cols, nxt) covers the columns `cut`, at most
    fill_rows * (n + 1) candidates and at least one set, through views of
    three arrays per layer, for column r and free row j:
      rows  uint16 (1, max(s, 1), .): row i is (b + 1) * (n + 1), the flat
            offset in D of the row of the set's i-th lowest bit b, a last
            node of the set; layer 0's one entry is node 1's row, offset 0;
      cols  uint8 (n - s, 1, .): k + 1, the D column of the set's j-th
            lowest free bit k;
      nxt   int32 (n - s, 1, .): the flat index of g[set | 1 << k, k + 1] in
            layer s + 1's table, rank * C(n, s + 1) + pos[set | 1 << k],
            where the rank k - j counts the set's bits below k.
    The sets are the fast axis, so a step broadcasts and reduces over
    contiguous rows."""
    # Ascending masks of s bits are those of s - 1 bits below bit m, with bit
    # m added, for m = s - 1 .. n - 1 in turn, so each size is assembled from
    # slices of the one before.  Complements reverse the order, so the free
    # bits of size s are the bits of size n - s read backwards.
    bits = [np.zeros((0, 1), dtype=np.uint8)]  # bits[s][i, r]: set r's i-th lowest bit
    by_size = [np.zeros(1, dtype=np.int32)]
    for s in range(1, n + 1):
        below, prev = bits[-1], by_size[-1]
        b = np.empty((s, math.comb(n, s)), dtype=np.uint8)
        sets = np.empty(b.shape[1], dtype=np.int32)
        lo = 0
        for m in range(s - 1, n):
            hi = lo + math.comb(m, s - 1)
            b[: s - 1, lo:hi] = below[:, : hi - lo]
            b[s - 1, lo:hi] = m
            np.bitwise_or(prev[: hi - lo], 1 << m, out=sets[lo:hi])
            lo = hi
        bits.append(b)
        by_size.append(sets)
    pos = np.empty(1 << n, dtype=np.int32)
    for sets in by_size:
        pos[sets] = np.arange(sets.size, dtype=np.int32)
    all_sets = np.concatenate(by_size[:n])
    pos.flags.writeable = all_sets.flags.writeable = False
    layers, lo = [], 0
    for s, sets in enumerate(by_size[:n]):
        free = bits[n - s][:, ::-1]
        rows = (bits[s].astype(np.uint16) + 1) * (n + 1) if s else np.zeros((1, 1), np.uint16)
        cols = free + 1
        nxt = pos.take(sets | np.left_shift(1, free, dtype=np.int32))
        rank = free.astype(np.int32) - np.arange(n - s, dtype=np.int32)[:, None]
        nxt += rank * math.comb(n, s + 1)
        rows.flags.writeable = cols.flags.writeable = nxt.flags.writeable = False
        width = max(1, fill_rows * (n + 1) // (rows.shape[0] * (n - s)))
        steps = []
        for a in range(0, sets.size, width):
            cut = slice(a, a + width)
            steps.append((cut, rows[None, :, cut], cols[:, None, cut], nxt[:, None, cut]))
        layers.append((slice(lo, lo + sets.size), rows.shape, tuple(steps)))
        lo += sets.size
    return pos, all_sets, tuple(layers)


def solve_weighted_trp_dp(w, D) -> TrpSolution:
    """Held-Karp style subset dynamic program over (visited set, last node).

    An edge (j, k) taken with visited set S (node 1 included) contributes
    d[j, k] * (remaining weight outside S plus node 1's weight), because every
    still-waiting node and the start node itself pay for that leg.  States are
    keyed by subsets S of nodes 2..M and a last node in S (node 1 when S is
    empty), one (s, C(M-1, s)) table per subset size s, filled largest size
    first.  One numpy step extends visited sets of one size, up to
    _FILL_ROWS * M (set, last node, free node) candidates: it gathers the
    legs from every member into each free node with one flat `take` of D,
    multiplies them by the sets' weight multipliers, adds the successor
    entries that the cached `nxt` index locates in the next size's table,
    and reduces over the free nodes, the leading axis.  Each entry is the
    same product, sum and minimum, over the same terms in the same order, as
    in a per-set loop, so the tables equal one bit for bit.  The route is
    then rebuilt in Python floats, looking entries up through the cached
    `pos`.

    The rebuild evaluates the completion total acc + leg + g of every free
    node at every step.  Any route other than the one returned first leaves
    it at some step, onto a node not taken there (Lawler's partition,
    Management Science 1972), so the least total not taken at step s is the
    least cost of the routes that first leave at s: `step_margins` holds it
    minus c* = g[{}, 1] for each step, in the tables' own arithmetic, and
    `margin`, their minimum, is the runner-up cost minus c*.  The last step
    has one free node, so its entry is inf; with M = 2 only one route exists
    and the margin is inf.

    Memory: the tables hold 2^(M-2) * (M-1) doubles in all (1.9 MiB at 16
    nodes, 38 MiB at 20), plus one step's temporaries.  The index is cached
    for the most recent M (int32 sets, pos and nxt, uint16 member rows,
    uint8 free columns: 1.9 MiB at 16 nodes and 37 MiB at 20).
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

    flat = D.ravel()
    pos, sets, layers = _layers(n, _FILL_ROWS)
    coefs = coef.take(sets)
    # tables[s][i, pos[S]] = g[S, S's i-th lowest node]; g[{}, 1] when s = 0
    tables = [None] * n + [(D[1:, 0] * w[0])[:, None]]
    for s in range(n - 1, -1, -1):
        span, shape, steps = layers[s]
        c, prev, t = coefs[span], tables[s + 1], np.empty(shape)
        for cut, rows, cols, nxt in steps:
            cand = flat.take(rows + cols)
            cand *= c[cut]
            cand += prev.take(nxt)
            np.minimum.reduce(cand, axis=0, out=t[:, cut])
        tables[s] = t
    c_star = tables[0].item(0, 0)

    # Greedy reconstruction: at each step take the smallest next node whose
    # completion stays within TIE_TOL of the optimum; if accumulated roundoff
    # leaves none within it, the first node of least completion.  Every free
    # node is evaluated, so the least completion not taken at a step is the
    # best route that first leaves there.  free_nodes is ascending, so the
    # visited bits below k, k's row in the next table, number k - i.
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
        for i, k in enumerate(free_nodes):
            leg = row[k + 1] * c
            total = acc + leg + t.item(k - i, pos.item(mask | 1 << k))
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
        step_margins=tuple(step_margins),
    )


def naive_route(w) -> list[int]:
    """Visit nodes in decreasing weight, ignoring distances; ties toward the smaller id."""
    w = as_weights(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    tail = sorted(range(1, w.shape[0]), key=lambda i: (-w[i], i))
    return [1] + [i + 1 for i in tail]
