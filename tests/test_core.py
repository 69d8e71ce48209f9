import itertools
import math

import numpy as np
import pytest

from repairroute.core import (
    cost1,
    cost2_exact,
    latency,
    sigmoid,
    softplus,
    standard_trp_cost,
)
from repairroute.opt import node_weights
from repairroute.sim import SimConfig, simulate_route_cost

from conftest import random_instance


def walk_latencies(route, D):
    # Independent oracle: walk the route position by position with prefix sums.
    order = [i - 1 for i in route]
    M = len(order)
    lat = {}
    t = 0.0
    for k in range(1, M):
        t += D[order[k - 1], order[k]]
        lat[order[k]] = t
    lat[order[0]] = t + D[order[-1], order[0]]
    return np.array([lat[i] for i in range(M)])


UNIT3 = np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestLatency:
    def test_two_nodes(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        lat = latency([1, 2], D)
        assert lat[1] == 3.0
        assert lat[0] == 6.0  # start node waits for the whole loop

    def test_unit_triangle(self):
        lat = latency([1, 2, 3], UNIT3)
        assert lat.tolist() == [3.0, 1.0, 2.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_prefix_walk_oracle(self, seed):
        w, D = random_instance(seed, 5)
        rng = np.random.default_rng(1000 + seed)
        route = [1] + (rng.permutation(np.arange(2, 6)).tolist())
        assert latency(route, D) == pytest.approx(walk_latencies(route, D), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_start_node_waits_longest(self, seed):
        w, D = random_instance(seed, 6)
        rng = np.random.default_rng(2000 + seed)
        route = [1] + (rng.permutation(np.arange(2, 7)).tolist())
        lat = latency(route, D)
        assert lat.min() >= 0.0
        assert lat[0] >= lat.max() - 1e-12

    def test_rejects_bad_routes(self):
        D = UNIT3
        with pytest.raises(ValueError):
            latency([2, 1, 3], D)  # must start at node 1
        with pytest.raises(ValueError):
            latency([1, 2], D)  # wrong length
        with pytest.raises(ValueError):
            latency([1, 2, 2], D)  # repeats
        with pytest.raises(ValueError):
            latency([1, 2, 4], D)  # out of range


class TestCost1:
    def test_unit_triangle_half_weights(self):
        assert cost1([1, 2, 3], [0.5, 0.5, 0.5], UNIT3) == pytest.approx(3.0)

    def test_zero_weights(self):
        w, D = random_instance(3, 5)
        assert cost1([1, 3, 2, 5, 4], np.zeros(5), D) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_nodewise_oracle(self, seed):
        w, D = random_instance(seed, 6)
        rng = np.random.default_rng(3000 + seed)
        route = [1] + (rng.permutation(np.arange(2, 7)).tolist())
        oracle = float(np.dot(w, walk_latencies(route, D)))
        assert cost1(route, w, D) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_node_keyed_equals_position_keyed(self, seed):
        # Summing over visit positions must agree with summing over node ids.
        w, D = random_instance(seed, 6)
        rng = np.random.default_rng(4000 + seed)
        route = [1] + (rng.permutation(np.arange(2, 7)).tolist())
        lat = latency(route, D)
        by_node = float(np.dot(w, lat))
        by_position = sum(w[i - 1] * lat[i - 1] for i in route)
        assert cost1(route, w, D) == pytest.approx(by_node, rel=1e-12)
        assert by_node == pytest.approx(by_position, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cost1([1, 2, 3], [0.5, 0.5], UNIT3)


class TestCost2Exact:
    def test_two_nodes_zero_score(self):
        # f = 0 at both nodes: per-step failure chance 1/2, latencies 3 and 6.
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        val = cost2_exact([1, 2], node_weights([0.0], [[1.0], [1.0]], "cost2"), D)
        assert val == pytest.approx((1 - 0.5**6) + (1 - 0.5**3), abs=1e-12)
        assert val == pytest.approx(1.859375, abs=1e-9)

    def test_zero_latency_node_contributes_nothing(self):
        D = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        lam = [3.0]
        nodes = [[1.0], [1.0], [1.0]]
        # Node 2 is reached at distance 0; only nodes 3 and 1 contribute.
        lat = latency([1, 2, 3], D)
        assert lat[1] == 0.0
        rate = softplus(3.0)
        expected = (1 - math.exp(-lat[2] * rate)) + (1 - math.exp(-lat[0] * rate))
        rates = node_weights(lam, nodes, "cost2")
        assert cost2_exact([1, 2, 3], rates, D) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_node_terms_are_probabilities(self, seed):
        w, D = random_instance(seed, 5)
        rng = np.random.default_rng(5000 + seed)
        nodes = rng.normal(size=(5, 3))
        lam = rng.normal(size=3)
        route = [1] + (rng.permutation(np.arange(2, 6)).tolist())
        assert 0.0 <= cost2_exact(route, node_weights(lam, nodes, "cost2"), D) <= 5.0

    def test_survival_form_oracle(self):
        # Independent accumulation: per node, 1 - (1 + e^f)^(-L) via direct powers.
        rng = np.random.default_rng(11)
        D = rng.uniform(1, 5, size=(4, 4))
        np.fill_diagonal(D, 0.0)
        nodes = rng.normal(size=(4, 2))
        lam = rng.normal(size=2)
        route = [1, 3, 4, 2]
        lat = walk_latencies(route, D)
        expected = sum(
            1.0 - (1.0 + math.exp(float(nodes[i] @ lam))) ** (-lat[i]) for i in range(4)
        )
        rates = node_weights(lam, nodes, "cost2")
        assert cost2_exact(route, rates, D) == pytest.approx(expected, rel=1e-12)


class TestSurrogateWeights:
    def test_zero_score_gives_log_two(self):
        w = node_weights([0.0, 0.0], [[1.0, -1.0]], "cost2")
        assert w[0] == pytest.approx(math.log(2.0), rel=1e-15)

    def test_strictly_positive_far_negative(self):
        w = node_weights([-40.0], [[1.0]], "cost2")
        assert w[0] > 0.0
        assert w[0] == pytest.approx(math.exp(-40.0), rel=1e-10)

    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for z in (-30.0, -3.0, -0.5, 0.0, 0.5, 3.0, 30.0):
            expected = float(mp.log(1 + mp.exp(z)))
            got = node_weights([z], [[1.0]], "cost2")[0]
            assert got == pytest.approx(expected, rel=1e-13)


_D3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
_WEIGHT_USERS = {
    "cost2_exact": lambda w: cost2_exact([1, 2, 3], w, _D3),
    "simulate_route_cost": lambda w: simulate_route_cost([1, 2, 3], _D3, SimConfig(trials=10), w),
}


class TestNodeScoreChecks:
    # node_weights is the one place where lam . x becomes a weight, so it
    # alone checks lam against the feature width; the weight users check the
    # weight count against the distance matrix, as cost1 does.
    @pytest.mark.parametrize(
        "model", ["cost1", "cost2"], ids=["node_weights_cost1", "node_weights_cost2_surrogate"]
    )
    def test_rejects_lambda_width_mismatch(self, model):
        with pytest.raises(ValueError, match="lambda has 3 coefficients, node features have 2"):
            node_weights([1.0, 2.0, 3.0], np.zeros((3, 2)), model)

    @pytest.mark.parametrize("name", sorted(_WEIGHT_USERS))
    def test_rejects_node_count_mismatch(self, name):
        with pytest.raises(ValueError, match="expected 3 weights, got 4"):
            _WEIGHT_USERS[name](node_weights([1.0, 2.0], np.zeros((4, 2)), "cost1"))

    def test_node_weights(self):
        lam = np.array([0.5, 1.0])
        nodes = np.array([[1.0, 2.0], [3.0, -1.0], [-4.0, 0.25]])
        assert np.array_equal(node_weights(lam, nodes, "cost1"), sigmoid(nodes @ lam))
        assert np.array_equal(node_weights(lam, nodes, "cost2"), softplus(nodes @ lam))


class TestStandardTrp:
    def test_unit_triangle(self):
        assert standard_trp_cost([1, 2, 3], UNIT3) == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_equal_weight_reduction(self, seed):
        # With every weight equal to p the weighted cost collapses to
        # p times the unweighted repairman cost.
        rng = np.random.default_rng(seed)
        M = int(rng.integers(3, 8))
        D = rng.uniform(0.5, 9.0, size=(M, M))
        np.fill_diagonal(D, 0.0)
        p = float(rng.uniform(0.01, 1.0))
        route = [1] + (rng.permutation(np.arange(2, M + 1)).tolist())
        lhs = cost1(route, np.full(M, p), D)
        rhs = p * standard_trp_cost(route, D)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_leg_multiplier_oracle(self, seed):
        w, D = random_instance(seed, 7)
        rng = np.random.default_rng(8000 + seed)
        route = [1] + (rng.permutation(np.arange(2, 8)).tolist())
        order = [i - 1 for i in route] + [0]
        M = 7
        expected = sum(
            D[order[k], order[k + 1]] * (M + 1 - (k + 1)) for k in range(M)
        )
        assert standard_trp_cost(route, D) == pytest.approx(expected, rel=1e-12)


class TestNumerics:
    def test_sigmoid_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
        assert sigmoid(-800.0) == 0.0  # underflows cleanly, no exception
        assert sigmoid(800.0) == 1.0

    def test_sigmoid_symmetry(self):
        z = np.linspace(-30, 30, 401)
        assert np.max(np.abs(sigmoid(z) + sigmoid(-z) - 1.0)) < 1e-15

    def test_softplus_large_positive_no_overflow(self):
        assert softplus(800.0) == 800.0

    def test_softplus_matches_naive_in_safe_range(self):
        z = np.linspace(-25, 25, 101)
        naive = np.log(1 + np.exp(z))
        assert softplus(z) == pytest.approx(naive, rel=1e-13)
