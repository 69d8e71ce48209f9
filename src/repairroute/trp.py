"""Exact solver for the weighted minimum-latency routing problem.

solve_weighted_trp_dp minimizes cost1(route, w, D) over all routes that
start at node 1, visit every node once, and close back at node 1.  Ties
within a relative tolerance of TIE_TOL = 1e-12 of the optimum c* (routes
costing at most c* + TIE_TOL * |c*|) are broken toward the
lexicographically smallest route, so any exact solver with the same rule
returns the same order, and scaling the weights or the distances by any
positive factor leaves the route unchanged.  The solution also reports,
for each step s of its route, the gap: the least cost of a route that
first leaves it at step s, minus the optimum (inf where no other node is
free).  The least gap is
the margin, the least cost of any other route minus the optimum, so a tie
has margin <= TIE_TOL * |c*|.

The tables are layer-major: one contiguous (s, C(M-1, s)) table per subset
size s, holding g[S, j] only for the last nodes j in S (node 1 alone when S
is empty), with the sets on the fast axis.  The index that links the layers
(`_layers`: the sets, the D offsets of their members' rows and of their
free nodes' columns, each mask's column `pos` and each successor entry's
flat position `nxt` in the next layer) depends only on M, and is cached for
the most recent M.

Memory beyond one call's tables (see solve_weighted_trp_dp): a caller that
runs the kernel many times on one D may keep that D's fill legs
(`_gather_legs`), the D entry of every (set, last node, next node) candidate
of every fill step, (M-1)(M-2) * 2^M bytes: 72 KiB at 10 nodes, 2.4 MiB at
14 and 13.1 MiB at 16.  They are gathered only within _LEGS_MAX_BYTES, so
for M <= 16; _RouteAnchor keeps them from its second DP call on.  The
public solver runs once per D and keeps none.

_RouteAnchor serves the solvers of the combined objective (opt), which
route every evaluation exactly: it returns the route of its most recent DP
call while the per-step gaps of that call's rebuild walk certify that the
DP would return it again, so the walk's tie rule and the certificate's
allowance live here together.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights

TIE_TOL = 1e-12

_DP_MAX_NODES = 20
# Caps each numpy fill step at 1024 * M candidate doubles (one visited set
# at least), so the tables and the cached index stay the DP's only large
# allocations.
_FILL_ROWS = 1024
# Cap on the bytes of one D's kept fill legs (_gather_legs): 16 MiB admits
# M <= 16 (13.1 MiB), not M = 17 (30 MiB).
_LEGS_MAX_BYTES = 16 << 20


@dataclass(frozen=True)
class TrpSolution:
    route: list[int]
    cost: float
    # latencies[k]: the latency of node k + 1 along `route` (core.latency),
    # read-only; cost == float(w @ latencies).
    latencies: np.ndarray
    # step_margins[s - 1]: least cost of a route that agrees with `route` on
    # its first s nodes and not on the next, minus the optimum; inf where no
    # other node is free (the last step).  min(step_margins) is the margin:
    # the runner-up cost minus the optimum, inf when only one route exists.
    step_margins: tuple[float, ...]


@functools.lru_cache(maxsize=1)
def _layers(n):
    """Index of the subset DP over n bits, kept for the most recent call.

    Returns (pos, sets, layers).  pos (int32, length 2^n) gives each mask's
    column within its layer: the sets of one size, ascending.  sets (int32)
    lists the masks of sizes 0, 1, ..., n - 1, each size ascending.
    layers[s], for each size s < n, is (span, shape, steps): the layer's
    slice of `sets`, its table's shape (max(s, 1), C(n, s)), and its fill
    steps.  A step (cut, rows, cols, nxt) covers the columns `cut`, at most
    _FILL_ROWS * (n + 1) candidates and at least one set, through views of
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
        width = max(1, _FILL_ROWS * (n + 1) // (rows.shape[0] * (n - s)))
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
    `pos`, and the same walk adds up the latencies along it.

    The rebuild evaluates the completion total acc + leg + g of every free
    node at every step.  Any route other than the one returned first leaves
    it at some step, onto a node not taken there (Lawler's partition,
    Management Science 1972), so the least total not taken at step s is the
    least cost of the routes that first leave at s: `step_margins` holds it
    minus c* = g[{}, 1] for each step, in the tables' own arithmetic, and
    min(step_margins) is the runner-up cost minus c*.  The last step
    has one free node, so its entry is inf; with M = 2 only one route exists
    and min(step_margins) is inf.

    Memory: the tables hold 2^(M-2) * (M-1) doubles in all (1.9 MiB at 16
    nodes, 38 MiB at 20), plus one step's temporaries.  The index is cached
    for the most recent M (int32 sets, pos and nxt, uint16 member rows,
    uint8 free columns: 1.9 MiB at 16 nodes and 37 MiB at 20).

    Finite weights and distances can still make a cost pass the largest
    float; ValueError names the overflow when c* is not finite.
    """
    D = _dp_matrix(D)
    return _held_karp(as_weights(w, D.shape[0]), D)


def _dp_matrix(D) -> np.ndarray:
    """D checked by core.as_distance_matrix and against the DP's node cap."""
    D = as_distance_matrix(D)
    if D.shape[0] > _DP_MAX_NODES:
        raise ValueError(f"exact DP supports at most {_DP_MAX_NODES} nodes, got {D.shape[0]}")
    return D


def _gather_legs(D):
    """The fill legs of _held_karp on a _dp_matrix D, or None past
    _LEGS_MAX_BYTES.

    Per layer, per fill step, the read-only flat.take(rows + cols) that the
    step would gather, D[member, free] for every (set, last node, free
    node) candidate.  Together they take (M-1)(M-2) * 2^M bytes plus
    8 (M - 1) for layer 0."""
    n = D.shape[0] - 1
    _, _, layers = _layers(n)
    nbytes = sum(8 * (n - s) * math.prod(shape) for s, (_, shape, _) in enumerate(layers))
    if nbytes > _LEGS_MAX_BYTES:
        return None
    flat = D.ravel()
    legs = []
    for _, _, steps in layers:
        layer = []
        for _, rows, cols, _ in steps:
            leg = flat.take(rows + cols)
            leg.flags.writeable = False
            layer.append(leg)
        legs.append(tuple(layer))
    return tuple(legs)


def _held_karp(w, D, legs=None) -> TrpSolution:
    """solve_weighted_trp_dp on weights and a _dp_matrix the caller checked.

    legs, when given, is _gather_legs(D): each fill step then multiplies
    its kept legs instead of gathering them from D again; the products are
    the same, so the tables, and all the solution, equal those without them
    bit for bit."""
    n = D.shape[0] - 1  # bit k of a mask marks node k+2 (1-based) as visited
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
    pos, sets, layers = _layers(n)
    coefs = coef.take(sets)
    # tables[s][i, pos[S]] = g[S, S's i-th lowest node]; g[{}, 1] when s = 0
    tables = [None] * n + [(D[1:, 0] * w[0])[:, None]]
    for s in range(n - 1, -1, -1):
        span, shape, steps = layers[s]
        c, prev, t = coefs[span], tables[s + 1], np.empty(shape)
        for q, (cut, rows, cols, nxt) in enumerate(steps):
            if legs is None:
                cand = flat.take(rows + cols)
                cand *= c[cut]
            else:
                cand = legs[s][q] * c[cut]
            cand += prev.take(nxt)
            np.minimum.reduce(cand, axis=0, out=t[:, cut])
        tables[s] = t
    c_star = tables[0].item(0, 0)
    if not math.isfinite(c_star):
        raise ValueError(f"the route cost overflows to {c_star!r} (the weights sum to {wtot:.6g})")

    # Greedy reconstruction: at each step take the smallest next node whose
    # completion stays within TIE_TOL * |c*| of the optimum; if accumulated
    # roundoff leaves none within it, the first node of least completion.
    # That guard serves near-ties at the band's edge: a route within an ulp
    # of the limit may be taken at one step and its running sum land past
    # the limit at a later one.  Every free node is evaluated, so the least
    # completion not taken at a step is the best route that first leaves
    # there.  free_nodes is ascending, so the visited bits below k, k's row
    # in the next table, number k - i.  The arrival times add the legs left
    # to right from -0.0, the identity of IEEE addition, so they are
    # np.cumsum's bit for bit (core.latency).
    limit = c_star + TIE_TOL * abs(c_star)
    step_margins = []
    Dl = D.tolist()
    free_nodes = list(range(n))
    mask, last, acc, arrive = 0, 0, 0.0, -0.0
    order, lats = [0], [0.0] * (n + 1)
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
        arrive += row[k + 1]
        mask |= 1 << k
        last = k + 1
        lats[last] = arrive
        order.append(last)
        free_nodes.remove(k)

    lats[0] = arrive + Dl[last][0]  # node 1 waits for the closed tour
    lats = np.array(lats)
    lats.flags.writeable = False
    return TrpSolution(
        route=[i + 1 for i in order],
        cost=float(w @ lats),
        latencies=lats,
        step_margins=tuple(step_margins),
    )


class _RouteAnchor:
    """The route of the most recent DP call, reused while it provably stays
    the route the DP would return.  route(w) serves every route the solvers
    use, with the latencies the DP computed for it.

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
    w @ lat(p): its own expression, so the value agrees bit for bit.  The
    band is relative, TIE_TOL * c*(w) at w, and c*(w) = cost(p, w) <=
    cost(p, w0) + T ||d||_1, so the band is at most a thousandth of the
    allowance's 1e-9 (1 + cost(p, w0) + T ||d||_1), which therefore covers
    it with room for rounding, and the certificate stays sound.  As
    r_s <= T ||d||_1, every point where the margin min_s g_s exceeds
    T ||d||_1 plus the same allowance is certified too.  Ties (g_s <=
    TIE_TOL * c*(w0), below the allowance) never qualify, nor do non-finite
    weights, which the DP rejects: they make the allowance inf or nan, and
    each comparison fails on nan.

    D and the DP's node cap are checked once, at construction; an
    uncertified route(w) checks w (core.as_weights) and runs the DP's
    kernel, _held_karp, on them.  From the second uncertified call on,
    the kernel fills from D's kept legs (_gather_legs, gathered on that
    call and read-only) instead of gathering them from D on every call, with
    the same result bit for bit.  They take (M-1)(M-2) * 2^M bytes, 72 KiB
    at M = 10, 2.4 MiB at 14 and 13.1 MiB at 16, and are kept only within
    _LEGS_MAX_BYTES (M <= 16); a solve that runs the DP once, as
    sequential does, gathers none.
    """

    def __init__(self, D):
        D = _dp_matrix(D)
        self._D = D
        self._rmax = D.max(axis=1).tolist()
        self._reach = sum(self._rmax)
        self._w0 = None
        self._dp_calls = 0
        self._legs = None

    def route(self, w) -> tuple[list[int], np.ndarray]:
        """(route, latencies) of the DP at weights w: reused when certified,
        else solved; the DP's cost there is float(w @ latencies)."""
        if self._w0 is not None and self._certifies((w - self._w0).tolist()):
            return self._sol.route, self._sol.latencies
        w_dp = as_weights(w, self._D.shape[0])
        self._dp_calls += 1
        if self._dp_calls == 2:
            self._legs = _gather_legs(self._D)
        sol = _held_karp(w_dp, self._D, self._legs)
        self._w0, self._sol = w, sol
        order = [i - 1 for i in sol.route]
        lats, rmax = sol.latencies.tolist(), self._rmax
        # One (node p_s, lat(p_s), a_{s-1}, H_s, g_s) per step s, last step
        # first, after node 1, which joins every step's sums and has no gap.
        steps, reach = [(0, lats[0], 0.0, 0.0, math.inf)], 0.0
        for s in range(len(order) - 1, 0, -1):
            j, prev = order[s], order[s - 1]
            reach += rmax[j]
            a = lats[prev] if s > 1 else 0.0
            steps.append((j, lats[j], a, a + rmax[prev] + reach, sol.step_margins[s - 1]))
        self._steps = steps
        return sol.route, sol.latencies

    def _certifies(self, dw) -> bool:
        # g_s - r_s > tol at every step, with r_s's sums over {p_s..p_n, 1}
        # accumulated from the last step back; nan fails every comparison.
        tol = TIE_TOL + 1e-9 * (1.0 + self._sol.cost + self._reach * sum(map(abs, dw)))
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


def naive_route(w) -> list[int]:
    """Visit nodes in decreasing weight, ignoring distances; ties toward the smaller id."""
    w = as_weights(w)
    if w.shape[0] < 2:
        raise ValueError("need at least 2 nodes")
    tail = sorted(range(1, w.shape[0]), key=lambda i: (-w[i], i))
    return [1] + [i + 1 for i in tail]
