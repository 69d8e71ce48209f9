import functools
import itertools
import math

import numpy as np
import pytest

import repairroute.core as core_mod
import repairroute.trp as trp_mod
from repairroute.bound import shortest_distances
from repairroute.core import cost1, standard_trp_cost
from repairroute.trp import TIE_TOL, naive_route, solve_weighted_trp_dp

from conftest import legs_nbytes, random_instance, solve_weighted_trp_bruteforce, twin_last_node


BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)])


def popcount(masks):
    return sum(BYTE_POPCOUNT[(masks >> shift) & 0xFF] for shift in (0, 8, 16))


def use_fill_rows(monkeypatch, fill_rows):
    """Make the DP's fill steps fill_rows rows deep: _FILL_ROWS patched with a
    fresh _layers cache, so undoing the patch restores the shipped cache and
    no layout of another depth stays cached for later tests."""
    monkeypatch.setattr(trp_mod, "_FILL_ROWS", fill_rows)
    monkeypatch.setattr(trp_mod, "_layers", functools.lru_cache(maxsize=1)(trp_mod._layers.__wrapped__))


def latencies_agree(sol, w, D) -> bool:
    """sol.latencies are core.latency's along sol.route, bit for bit, and
    sol.cost is their weighted sum."""
    lats = core_mod.latency(sol.route, D)
    return sol.latencies.tobytes() == lats.tobytes() and sol.cost == float(w @ sol.latencies)


def enumerate_routes(M):
    for tail in itertools.permutations(range(2, M + 1)):
        yield [1] + list(tail)


def loop_dp(w, D, fallbacks=None):
    """Reference: the subset DP filled one mask at a time, with the same
    greedy reconstruction.  Returns (route, cost, gaps), gaps[s - 1] being
    the least completion not taken at step s minus c* (inf where one node is
    free); appends to `fallbacks`, if given, each step at which no
    completion came within the DP's band, trp.TIE_TOL * |c*|, of c*."""
    D = np.asarray(D, dtype=float)
    w = np.asarray(w, dtype=float)
    M = D.shape[0]
    n = M - 1
    full = (1 << n) - 1
    wtot = float(w.sum())
    subw = np.zeros(full + 1)
    for mask in range(1, full + 1):
        lsb = mask & -mask
        subw[mask] = subw[mask ^ lsb] + w[lsb.bit_length()]
    coef = wtot - subw
    g = np.full((full + 1, M), np.inf)
    g[full, :] = D[:, 0] * w[0]
    for mask in range(full - 1, -1, -1):
        best = g[mask]
        for k in range(n):
            if mask >> k & 1:
                continue
            node = k + 1
            cand = D[:, node] * coef[mask] + g[mask | (1 << k), node]
            np.minimum(best, cand, out=best)
    c_star = float(g[0, 0])
    mask, last, acc = 0, 0, 0.0
    order = [0]
    gaps = []
    for _ in range(n):
        free = [k for k in range(n) if not mask >> k & 1]
        totals = [acc + D[last, k + 1] * coef[mask] + g[mask | (1 << k), k + 1] for k in free]
        band = trp_mod.TIE_TOL * abs(c_star)
        within = [i for i, total in enumerate(totals) if total <= c_star + band]
        if within:
            i = within[0]
        else:
            i = totals.index(min(totals))
            if fallbacks is not None:
                fallbacks.append(len(order))
        gaps.append(float(min(totals[:i] + totals[i + 1 :], default=math.inf) - c_star))
        k, node = free[i], free[i] + 1
        acc += D[last, node] * coef[mask]
        mask |= 1 << k
        last = node
        order.append(node)
    route = [i + 1 for i in order]
    return route, cost1(route, w, D), tuple(gaps)


class TestDp:
    def test_latencies_are_read_only(self):
        # The route anchor in opt shares them, so nobody may write to them.
        w, D = random_instance(5, 5)
        sol = solve_weighted_trp_dp(w, D)
        assert not sol.latencies.flags.writeable
        with pytest.raises(ValueError):
            sol.latencies[0] = 0.0

    def test_two_node_closed_form(self):
        D = np.array([[0.0, 3.0], [7.0, 0.0]])
        w = [0.3, 0.8]
        sol = solve_weighted_trp_dp(w, D)
        assert sol.route == [1, 2]
        assert sol.cost == pytest.approx(0.8 * 3.0 + 0.3 * (3.0 + 7.0), rel=1e-14)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(4, 8))
        w, D = random_instance(seed, M)
        a = solve_weighted_trp_dp(w, D)
        b = solve_weighted_trp_bruteforce(w, D)
        assert a.route == b.route
        assert a.cost == b.cost  # identical routes, identically recomputed cost
        assert latencies_agree(a, w, D) and latencies_agree(b, w, D)

    @pytest.mark.parametrize("seed", range(15))
    def test_self_certifying_optimality(self, seed):
        w, D = random_instance(seed, 6)
        sol = solve_weighted_trp_dp(w, D)
        for route in enumerate_routes(6):
            assert sol.cost <= cost1(route, w, D) + 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_weights_reduce_to_plain_repairman(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(4, 7))
        _, D = random_instance(seed, M)
        p = float(rng.uniform(0.05, 1.0))
        sol = solve_weighted_trp_dp(np.full(M, p), D)
        best_plain = min(standard_trp_cost(r, D) for r in enumerate_routes(M))
        assert sol.cost == pytest.approx(p * best_plain, rel=1e-12)

    def test_unit_distance_tie_breaks_lexicographic(self):
        M = 5
        D = np.ones((M, M)) - np.eye(M)
        w = np.full(M, 0.4)  # every route ties exactly
        assert solve_weighted_trp_dp(w, D).route == [1, 2, 3, 4, 5]
        assert solve_weighted_trp_bruteforce(w, D).route == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_matches_recomputation(self, seed):
        w, D = random_instance(seed, 7)
        sol = solve_weighted_trp_dp(w, D)
        assert sol.cost == pytest.approx(cost1(sol.route, w, D), rel=1e-9)

    @pytest.mark.parametrize("M", [5, 10])
    def test_validates_distances_once(self, M, monkeypatch):
        # The route's cost is summed without re-checking D and the route.
        calls = []
        real = core_mod.as_distance_matrix

        def counting(D):
            calls.append(1)
            return real(D)

        monkeypatch.setattr(core_mod, "as_distance_matrix", counting)
        monkeypatch.setattr(trp_mod, "as_distance_matrix", counting)
        w, D = random_instance(M, M)
        solve_weighted_trp_dp(w, D)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_and_distance_scaling(self, seed):
        w, D = random_instance(seed, 5)
        base = solve_weighted_trp_dp(w, D)
        assert solve_weighted_trp_dp(3.0 * w, D).cost == pytest.approx(
            3.0 * base.cost, rel=1e-12
        )
        assert solve_weighted_trp_dp(w, 2.0 * D).cost == pytest.approx(
            2.0 * base.cost, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_symmetry(self, seed):
        # Renaming the non-start nodes must not change the optimal cost.
        rng = np.random.default_rng(seed)
        w, D = random_instance(seed, 6)
        perm = np.concatenate(([0], rng.permutation(np.arange(1, 6))))
        w2 = w[perm]
        D2 = D[np.ix_(perm, perm)]
        assert solve_weighted_trp_dp(w2, D2).cost == pytest.approx(
            solve_weighted_trp_dp(w, D).cost, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_shortest_distance_lower_bound(self, seed):
        w, D = random_instance(seed, 6)
        sol = solve_weighted_trp_dp(w, D)
        floor = float(w @ shortest_distances(D))
        assert sol.cost >= floor - 1e-9

    @pytest.mark.parametrize("fill_rows", [trp_mod._FILL_ROWS, 3])
    @pytest.mark.parametrize("kind", ["random", "equal_weights", "zero_weights", "integer_distances"])
    @pytest.mark.parametrize("M", range(2, 13))
    def test_matches_per_mask_loop_exactly(self, M, kind, fill_rows, monkeypatch):
        # fill_rows=3 splits every step of the layered fill into small pieces.
        use_fill_rows(monkeypatch, fill_rows)
        w, D = random_instance(100 + M, M, integer=kind == "integer_distances")
        if kind == "equal_weights":
            w = np.full(M, 0.3)
        elif kind == "zero_weights":
            w[1:] = 0.0
        sol = solve_weighted_trp_dp(w, D)
        route, cost, gaps = loop_dp(w, D)
        assert sol.route == route
        assert sol.cost == cost
        assert sol.step_margins == gaps
        assert latencies_agree(sol, w, D)

    @pytest.mark.parametrize("fill_rows", [trp_mod._FILL_ROWS, 3])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("scale", [1e9, 1e15])
    @pytest.mark.parametrize("M", [2, 6, 9, 12])
    def test_matches_per_mask_loop_past_tie_tolerance(self, M, scale, kind, seed, fill_rows,
                                                       monkeypatch):
        # The tie band is relative, so at these scales the rebuilt route's
        # running sum stays within it as at scale 1, and the walk takes the
        # same routes as the per-mask loop.  Equal weights on integer
        # distances make completions tie, which checks that the first of
        # them is taken.
        use_fill_rows(monkeypatch, fill_rows)
        w, D = random_instance(300 + seed, M, integer=kind == "tied")
        if kind == "tied":
            w = np.full(M, 0.3)
        D *= scale
        sol = solve_weighted_trp_dp(w, D)
        route, cost, gaps = loop_dp(w, D)
        assert sol.route == route
        assert sol.cost == cost
        assert sol.step_margins == gaps
        assert latencies_agree(sol, w, D)

    @pytest.mark.parametrize("M", [13, 14])
    def test_matches_per_mask_loop_larger(self, M):
        w, D = random_instance(100 + M, M)
        sol = solve_weighted_trp_dp(w, D)
        assert (sol.route, sol.cost, sol.step_margins) == loop_dp(w, D)
        assert latencies_agree(sol, w, D)

    @pytest.mark.parametrize("kind", ["asymmetric", "twin", "negative_zero_legs"])
    @pytest.mark.parametrize("M", range(2, 13))
    def test_kernel_matches_the_public_dp(self, M, kind):
        # The kernel runs on inputs its caller checked, and its rebuild walk
        # sums the latencies: core.latency's bit for bit, also where the first
        # leg is -0.0, which np.cumsum keeps and 0.0 + -0.0 would not.
        w, D = random_instance(500 + M, M, integer=kind == "twin")
        if kind == "twin":
            w[-1] = w[-2]
            twin_last_node(D)
        elif kind == "negative_zero_legs":
            D[0, 1:] = -0.0
        sol = solve_weighted_trp_dp(w, D)
        ker = trp_mod._held_karp(w, D)
        assert (ker.route, ker.cost, ker.step_margins) == (sol.route, sol.cost, sol.step_margins)
        assert ker.latencies.tobytes() == sol.latencies.tobytes()
        assert latencies_agree(ker, w, D)

    def test_pair_index_cache_across_node_counts(self):
        # The (set, free bit) index is cached for the most recent node count
        # only; switching M back and forth must rebuild it, never reuse it.
        for M in (10, 12, 10, 20, 5):
            if M == 20:
                # Stops on a line, depot at one end: visiting them by distance
                # gives every stop its least possible latency, so that is the
                # unique optimum.
                rng = np.random.default_rng(M)
                x = np.concatenate(([0.0], rng.permutation(np.arange(1.0, M))))
                D = np.abs(x[:, None] - x[None, :])
                w = rng.uniform(0.1, 1.0, M)
                route = [1] + [int(i) + 1 for i in np.argsort(x)[1:]]
                assert solve_weighted_trp_dp(w, D).route == route
            else:
                w, D = random_instance(200 + M, M)
                sol = solve_weighted_trp_dp(w, D)
                assert (sol.route, sol.cost, sol.step_margins) == loop_dp(w, D)
            assert trp_mod._layers.cache_info().currsize == 1
            self.check_pair_index(M - 1)

    @staticmethod
    def check_pair_index(n):
        fill_rows = trp_mod._FILL_ROWS
        pos, all_sets, layers = trp_mod._layers(n)
        assert len(layers) == n
        assert pos.dtype == all_sets.dtype == np.int32 and pos.shape == (1 << n,)
        assert pos[(1 << n) - 1] == 0  # the full set is alone in its layer
        assert all_sets.size == (1 << n) - 1
        # layer s + 1's members, to check where each successor entry lands;
        # the full set's table holds its n nodes in order
        members_above = np.arange(n)[:, None]
        for s in range(n - 1, -1, -1):
            span, shape, steps = layers[s]
            size = math.comb(n, s)
            sets = all_sets[span]
            assert shape == (max(s, 1), size)
            # every set of s bits, each once, in ascending order
            assert sets.size == size
            assert np.all(np.diff(sets) > 0)
            assert np.all(popcount(sets) == s)
            # pos numbers the layer's sets 0..size-1 in order
            assert np.array_equal(pos[sets], np.arange(size))
            # the steps cover the columns in order, each within the cap or one set wide
            assert steps[0][0].start == 0 and steps[-1][0].stop >= size
            for (cut, *_), (after, *_) in zip(steps, steps[1:]):
                assert cut.stop == after.start
            for cut, rows, cols, nxt in steps:
                assert rows.dtype == np.uint16 and cols.dtype == np.uint8 and nxt.dtype == np.int32
                width = cut.stop - cut.start
                assert width == 1 or (n - s) * shape[0] * width <= fill_rows * (n + 1)
            rows = np.concatenate([step[1] for step in steps], axis=2)[0]
            cols = np.concatenate([step[2] for step in steps], axis=2)[:, 0]
            nxt = np.concatenate([step[3] for step in steps], axis=2)[:, 0]
            assert rows.shape == shape and cols.shape == nxt.shape == (n - s, size)
            # members: ascending rows of D, exactly the set's bits (node 1 for {})
            node, rem = np.divmod(rows.astype(int), n + 1)
            assert not rem.any()
            if s == 0:
                assert node.tolist() == [[0]]
            else:
                assert np.all(np.diff(node, axis=0) > 0)
                assert np.array_equal(np.bitwise_or.reduce(1 << (node - 1), axis=0), sets)
            # free columns: ascending, exactly the set's complement
            k = cols.astype(np.int64) - 1
            assert np.all(np.diff(k, axis=0) > 0)
            covered = np.bitwise_or.reduce(1 << k, axis=0)
            assert not np.any(sets & covered)
            assert np.all((sets | covered) == (1 << n) - 1)
            # nxt[j, r] is g[sets[r] | 1 << k, k + 1] in layer s + 1's
            # (s + 1, C(n, s + 1)) table: row = the rank of k, the set's
            # bits below k, column = pos of the successor set
            rank, col = np.divmod(nxt, math.comb(n, s + 1))
            assert np.array_equal(rank, popcount(sets & ((1 << k) - 1)))
            assert np.array_equal(col, pos[sets | (1 << k)])
            assert np.array_equal(members_above[rank, col], k)
            members_above = node - 1

    def test_index_and_tables_fit_fifteen_bits(self):
        # At 16 nodes the cached index plus the tables took 5.42 MiB with the
        # (C(15, s), 16) tables (index 1.42 MiB, tables 4.00 MiB).
        n = 15
        pos, all_sets, layers = trp_mod._layers(n)
        index = pos.nbytes + all_sets.nbytes + sum(
            a.nbytes for _, _, steps in layers for step in steps for a in step[1:]
        )
        tables = sum(np.empty(shape).nbytes for _, shape, _ in layers) + np.empty((n, 1)).nbytes
        assert tables == 8 * (n * 2 ** (n - 1) + 1)  # one double per (set, member), and g[{}, 1]
        assert index + tables < 5.42 * 2**20

    def test_rejects_oversized(self):
        M = 21
        D = np.ones((M, M)) - np.eye(M)
        with pytest.raises(ValueError):
            solve_weighted_trp_dp(np.ones(M), D)
        with pytest.raises(ValueError):
            solve_weighted_trp_bruteforce(np.ones(11), np.ones((11, 11)) - np.eye(11))

    def test_rejects_negative_weights(self):
        D = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            solve_weighted_trp_dp([-0.1, 1.0], D)


class TestKeptLegs:
    @pytest.mark.parametrize("fill_rows", [trp_mod._FILL_ROWS, 3])
    @pytest.mark.parametrize(
        "kind",
        ["random", "equal_weights", "zero_weights", "integer_distances", "twin", "negative_zero_legs"],
    )
    @pytest.mark.parametrize("M", range(2, 13))
    def test_match_the_gathering_kernel(self, M, kind, fill_rows, monkeypatch):
        # The same legs serve every weight vector on their D, and each gives
        # the kernel's solution without them, bit for bit.
        use_fill_rows(monkeypatch, fill_rows)
        w, D = random_instance(700 + M, M, integer=kind in ("integer_distances", "twin"))
        if kind == "equal_weights":
            w = np.full(M, 0.3)
        elif kind == "zero_weights":
            w[1:] = 0.0
        elif kind == "twin":
            w[-1] = w[-2]
            twin_last_node(D)
        elif kind == "negative_zero_legs":
            D[0, 1:] = -0.0
        D = trp_mod._dp_matrix(D)
        legs = trp_mod._gather_legs(D)
        for weights in (w, w[::-1].copy(), np.full(M, 0.7)):
            ref = trp_mod._held_karp(weights, D)
            got = trp_mod._held_karp(weights, D, legs)
            assert (got.route, got.cost, got.step_margins) == (ref.route, ref.cost, ref.step_margins)
            assert got.latencies.tobytes() == ref.latencies.tobytes()
            assert latencies_agree(got, weights, D)

    @pytest.mark.parametrize("M", [2, 3, 7, 12])
    def test_are_read_only_and_sized(self, M):
        w, D = random_instance(M, M)
        legs = trp_mod._gather_legs(trp_mod._dp_matrix(D))
        arrays = [leg for layer in legs for leg in layer]
        assert sum(leg.nbytes for leg in arrays) == legs_nbytes(M)
        assert all(not leg.flags.writeable for leg in arrays)
        with pytest.raises(ValueError):
            arrays[-1][0, 0, 0] = 1.0

    def test_budget(self, monkeypatch):
        # None past _LEGS_MAX_BYTES; the shipped budget admits 16 nodes, not 17.
        _, D = random_instance(1, 8)
        D = trp_mod._dp_matrix(D)
        monkeypatch.setattr(trp_mod, "_LEGS_MAX_BYTES", legs_nbytes(8) - 1)
        assert trp_mod._gather_legs(D) is None
        monkeypatch.setattr(trp_mod, "_LEGS_MAX_BYTES", legs_nbytes(8))
        assert trp_mod._gather_legs(D) is not None
        monkeypatch.undo()
        assert legs_nbytes(16) <= trp_mod._LEGS_MAX_BYTES < legs_nbytes(17)
        _, D = random_instance(1, 17)
        assert trp_mod._gather_legs(trp_mod._dp_matrix(D)) is None


class TestMargin:
    @pytest.mark.parametrize("kind", ["random", "integer", "binary_weights"])
    @pytest.mark.parametrize("M", range(3, 9))
    def test_matches_enumeration(self, M, kind):
        # The runner-up is the least cost of any route but the one returned.
        for seed in range(8):
            w, D = random_instance(500 + 10 * M + seed, M, integer=kind == "integer")
            if kind == "binary_weights":
                w = (w > 0.5).astype(float)
            sol = solve_weighted_trp_dp(w, D)
            ref = solve_weighted_trp_bruteforce(w, D)
            assert sol.route == ref.route
            margin, ref_margin = min(sol.step_margins), min(ref.step_margins)
            assert abs(margin - ref_margin) <= 1e-12 * (1.0 + sol.cost), (seed, sol, ref)

    @pytest.mark.parametrize("kind", ["random", "integer", "binary_weights"])
    @pytest.mark.parametrize("M", range(3, 9))
    def test_step_margins_match_enumeration(self, M, kind):
        # Step s's gap is the least cost of the routes that first leave the
        # returned one at step s; only the last step has no such route.
        for seed in range(8):
            w, D = random_instance(700 + 10 * M + seed, M, integer=kind == "integer")
            if kind == "binary_weights":
                w = (w > 0.5).astype(float)
            sol = solve_weighted_trp_dp(w, D)
            ref = solve_weighted_trp_bruteforce(w, D)
            assert sol.route == ref.route
            assert len(sol.step_margins) == M - 1
            assert sol.step_margins[-1] == ref.step_margins[-1] == math.inf
            for got, want in zip(sol.step_margins[:-1], ref.step_margins[:-1]):
                assert abs(got - want) <= 1e-12 * (1.0 + sol.cost), (seed, sol, ref)

    @pytest.mark.parametrize("M", range(3, 9))
    def test_ties_have_no_margin(self, M):
        unit = np.ones((M, M)) - np.eye(M)  # every route ties
        twins = twin_last_node(random_instance(M, M, integer=True)[1])
        for w, D in [(np.full(M, 0.4), unit), (np.full(M, 0.3), twins)]:
            sol = solve_weighted_trp_dp(w, D)
            assert min(solve_weighted_trp_bruteforce(w, D).step_margins) == 0.0
            assert abs(min(sol.step_margins)) <= TIE_TOL
            assert sol.route == loop_dp(w, D)[0]

    def test_two_nodes_have_one_route(self):
        w, D = random_instance(3, 2)
        assert solve_weighted_trp_dp(w, D).step_margins == (math.inf,)
        assert solve_weighted_trp_bruteforce(w, D).step_margins == (math.inf,)

    @pytest.mark.parametrize("M", range(3, 9))
    def test_scaled_distances_take_the_argmin_fallback(self, M, monkeypatch):
        # With no tie band the rebuilt route's running sum misses c* by its
        # rounding on some of these seeds; evaluating every free node must
        # still take the first least completion, as the per-mask loop does.
        # (The relative band covers that rounding, so with it no walk here
        # falls back.)
        monkeypatch.setattr(trp_mod, "TIE_TOL", 0.0)
        fallbacks = []
        for seed in range(300, 310):
            w, D = random_instance(seed, M)
            D *= 1e9
            sol = solve_weighted_trp_dp(w, D)
            assert (sol.route, sol.cost, sol.step_margins) == loop_dp(w, D, fallbacks)
            ref = solve_weighted_trp_bruteforce(w, D)
            assert abs(min(sol.step_margins) - min(ref.step_margins)) <= 1e-12 * (1.0 + sol.cost)
        assert fallbacks

    @pytest.mark.parametrize("seed", [148, 228, 49, 53, 14, 26, 43, 75])
    def test_band_edge_near_ties_take_the_argmin_fallback(self, seed):
        # With the shipped band: a route within an ulp of c* + TIE_TOL * |c*|
        # is taken at one step, and the walk's later running sums put every
        # completion past the limit.  These seeds (M = 4, 5, 6, 7, two each)
        # are among the 61 of seeds 0-399 whose switch point falls back.
        fallbacks = []
        for w, D in band_edge_instances(seed):
            sol = solve_weighted_trp_dp(w, D)
            assert (sol.route, sol.cost, sol.step_margins) == loop_dp(w, D, fallbacks)
        assert fallbacks


def band_edge_instances(seed):
    """Euclidean distances between M = 4 + seed % 4 random points in a
    10 x 10 square, weights uniform(0.1, 1), and node j = seed % M's weight
    bisected to the two adjacent floats in [0, 2] across its first change of
    the DP's route: one weight vector each side, where the two routes' costs
    sit at the edge of the tie band.  Empty where the route never changes."""
    rng = np.random.default_rng([7, seed])
    M = 4 + seed % 4
    xy = rng.uniform(0.0, 10.0, (M, 2))
    D = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    w = rng.uniform(0.1, 1.0, M)
    j = seed % M

    def at(x):
        v = w.copy()
        v[j] = x
        return v

    grid = np.linspace(0.0, 2.0, 17)
    routes = [solve_weighted_trp_dp(at(x), D).route for x in grid]
    for lo, hi, first, other in zip(grid, grid[1:], routes, routes[1:]):
        if first != other:
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if solve_weighted_trp_dp(at(mid), D).route == first:
                    lo = mid
                else:
                    hi = mid
            return [(at(lo), D), (at(hi), D)]
    return []


def plane_instance(seed, M, scale):
    """Euclidean distances between M random points in a 10 x 10 square and
    weights uniform(0.1, 1) times scale."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 10.0, (M, 2))
    D = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    return rng.uniform(0.1, 1.0, M) * scale, D


def tied_grid_instance(seed, M=6):
    """L1 distances between M integer grid points and weights in {1, 2, 3}/3,
    so that many routes tie exactly."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 4, (M, 2)).astype(float)
    D = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    return rng.integers(1, 4, M) / 3.0, D


class TestRelativeTieBand:
    """The DP's tie band is TIE_TOL * |c*|, so neither the optimum nor the
    tie rule depends on the scale of the weights or of the distances."""

    @staticmethod
    def optimum(w, D):
        return min(cost1(route, w, D) for route in enumerate_routes(D.shape[0]))

    @pytest.mark.parametrize("M", range(5, 9))
    def test_equal_tiny_weights_get_the_optimum(self, M):
        for seed in range(3):
            _, D = random_instance(900 + 10 * M + seed, M)
            w = np.full(M, 1e-20)
            best = self.optimum(w, D)
            assert abs(solve_weighted_trp_dp(w, D).cost - best) <= 1e-12 * best, seed

    def test_tiny_plane_weights_get_the_optimum(self):
        for seed in range(100):
            w, D = plane_instance(seed, 6, 1e-13)
            best = self.optimum(w, D)
            assert abs(solve_weighted_trp_dp(w, D).cost - best) <= 1e-12 * best, seed

    @pytest.mark.parametrize("chunk", range(5))
    def test_route_does_not_depend_on_units(self, chunk):
        # Scaling D or w by s scales every route's cost by s, so the DP must
        # return the oracle's lexicographically first tied route at every s.
        for seed in range(60 * chunk, 60 * chunk + 60):
            w, D = tied_grid_instance(seed)
            want = solve_weighted_trp_bruteforce(w, D).route
            for s in 10.0 ** np.arange(-9, 10, 3):
                assert solve_weighted_trp_dp(w, s * D).route == want, (seed, s, "D")
                assert solve_weighted_trp_dp(s * w, D).route == want, (seed, s, "w")


class TestNaiveRoute:
    def test_orders_by_weight(self):
        assert naive_route([0.2, 0.9, 0.1, 0.5]) == [1, 2, 4, 3]

    def test_ties_break_by_index(self):
        assert naive_route([0.9, 0.5, 0.5, 0.5]) == [1, 2, 3, 4]

    def test_start_fixed_even_if_heavy(self):
        assert naive_route([9.0, 0.1, 0.2]) == [1, 3, 2]
