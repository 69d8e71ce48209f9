import itertools
from pathlib import Path

import numpy as np
import pytest

from repairroute.core import cost1
from repairroute.milp import build_milp, export_lp, flow_caps
from repairroute.trp import solve_weighted_trp_dp

from conftest import milp_violations, objective_value, random_instance, route_to_flow

GOLDEN = Path(__file__).parent / "data" / "milp_m2_unit.lp"
UNIT3_W = np.array([1.0, 1.0, 1.0])
UNIT3_D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def enumerate_routes(M):
    for tail in itertools.permutations(range(2, M + 1)):
        yield [1] + list(tail)


def row_terms(inst, name):
    """{variable name: coefficient} of one CSR row."""
    nodes = range(1, inst.M + 1)
    var = [f"{v}_{i}_{j}" for v in "zy" for i in nodes for j in nodes]
    r = inst.constraints.index(name)
    a, b = inst.indptr[r], inst.indptr[r + 1]
    return {var[c]: v for c, v in zip(inst.cols[a:b].tolist(), inst.vals[a:b].tolist())}


def emit_rows_reference(w, D):
    """Independent constraint emitter: same model, different construction.

    Builds dense rows over the fixed variable order (all z row-major, then
    all y row-major) straight from the textbook statement, without reusing
    any package code.  Rows come in the model's row order.
    """
    M = len(w)
    wtot = float(np.sum(w))
    nvar = 2 * M * M

    def zcol(i, j):
        return (i - 1) * M + (j - 1)

    def ycol(i, j):
        return M * M + (i - 1) * M + (j - 1)

    rows = {}
    for j in range(1, M + 1):
        row = np.zeros(nvar)
        for i in range(1, M + 1):
            row[ycol(i, j)] += 1.0
        rows[f"deg_in_{j}"] = (row, "==", 1.0)
    for i in range(1, M + 1):
        row = np.zeros(nvar)
        for j in range(1, M + 1):
            row[ycol(i, j)] += 1.0
        rows[f"deg_out_{i}"] = (row, "==", 1.0)
    row = np.zeros(nvar)
    for i in range(1, M + 1):
        row[zcol(i, 1)] += 1.0
    rows["ret"] = (row, "==", float(w[0]))
    for k in range(1, M + 1):
        row = np.zeros(nvar)
        for i in range(1, M + 1):
            row[zcol(i, k)] += 1.0
        for j in range(1, M + 1):
            row[zcol(k, j)] -= 1.0
        rhs = float(w[0]) - wtot if k == 1 else float(w[k - 1])
        rows[f"flow_{k}"] = (row, "==", rhs)
    for i in range(1, M + 1):
        for j in range(1, M + 1):
            row = np.zeros(nvar)
            row[zcol(i, j)] += 1.0
            if j == 1:
                cap = float(w[0])
            elif i == 1:
                cap = wtot
            else:
                cap = wtot - float(w[i - 1])
            row[ycol(i, j)] -= cap
            rows[f"link_{i}_{j}"] = (row, "<=", 0.0)
    return rows, nvar


class TestBuild:
    def test_row_and_variable_counts(self):
        w, D = random_instance(0, 5)
        inst = build_milp(w, D)
        M = 5
        names = inst.constraints
        assert len(names) == 2 * M + 1 + M + M * M
        assert len(set(names)) == len(names)
        assert inst.indptr.shape == (len(names) + 1,) and inst.indptr[0] == 0
        assert inst.cols.shape == inst.vals.shape == (inst.indptr[-1],)
        assert inst.eq.shape == inst.rhs.shape == (len(names),)
        assert inst.ub.shape == (2 * M * M,)
        assert 0 <= inst.cols.min() and inst.cols.max() < 2 * M * M

    def test_depot_flow_rhs_unit_three(self):
        inst = build_milp(UNIT3_W, UNIT3_D)
        assert inst.rhs[inst.constraints.index("flow_1")] == -2.0
        assert row_terms(inst, "flow_1") == {"z_2_1": 1.0, "z_3_1": 1.0, "z_1_2": -1.0, "z_1_3": -1.0}

    def test_cap_table(self):
        w = np.array([0.4, 0.3, 0.2, 0.6])
        r = flow_caps(w)
        assert r[2, 0] == pytest.approx(0.4)  # into the start node
        assert r[0, 2] == pytest.approx(1.5)  # out of the start node
        assert r[1, 3] == pytest.approx(1.2)  # everything but the tail's share
        assert r[3, 1] == pytest.approx(0.9)  # cap varies with the tail node

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_match_independent_emitter(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 7))
        w, D = random_instance(seed, M)
        inst = build_milp(w, D)
        ref, nvar = emit_rows_reference(w, D)
        assert list(inst.constraints) == list(ref)
        for r, name in enumerate(inst.constraints):
            cols = inst.cols[inst.indptr[r] : inst.indptr[r + 1]]
            assert np.unique(cols).size == cols.size, name
            row = np.zeros(nvar)
            row[cols] = inst.vals[inst.indptr[r] : inst.indptr[r + 1]]
            ref_row, ref_sense, ref_rhs = ref[name]
            assert ("==" if inst.eq[r] else "<=") == ref_sense
            assert inst.rhs[r] == pytest.approx(ref_rhs, abs=1e-12)
            assert row == pytest.approx(ref_row, abs=1e-12), name


class TestRouteToFlow:
    def test_unit_three_example(self):
        Y, Z = route_to_flow([1, 3, 2], UNIT3_W, UNIT3_D)
        assert Y[0, 2] == Y[2, 1] == Y[1, 0] == 1.0
        assert Y.sum() == 3.0
        assert Z[0, 2] == 3.0  # leaves the start with all weight
        assert Z[2, 1] == 2.0
        assert Z[1, 0] == 1.0  # closing leg carries the start node's share

    def test_zero_weights_zero_flow(self):
        # Zero flow cannot tell a tour from a subtour, so the model refuses
        # zero weights.
        _, D = random_instance(2, 4)
        Y, Z = route_to_flow([1, 4, 2, 3], np.zeros(4), D)
        assert Z.sum() == 0.0
        with pytest.raises(ValueError, match="node 2 has weight 0"):
            build_milp(np.zeros(4), D)

    def test_zero_depot_weight_flows_feasible_and_priced_right(self):
        w, D = random_instance(3, 5)
        w[0] = 0.0
        inst = build_milp(w, D)
        for route in enumerate_routes(5):
            Y, Z = route_to_flow(route, w, D)
            assert milp_violations(inst, Y, Z) == []
            assert objective_value(inst, Z) == pytest.approx(cost1(route, w, D), abs=1e-9)

    @pytest.mark.parametrize("seed", range(100))
    def test_route_flows_feasible_and_priced_right(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(3, 7))
        w, D = random_instance(seed, M)
        route = [1] + (rng.permutation(np.arange(2, M + 1)).tolist())
        inst = build_milp(w, D)
        Y, Z = route_to_flow(route, w, D)
        assert milp_violations(inst, Y, Z) == []
        assert objective_value(inst, Z) == pytest.approx(cost1(route, w, D), abs=1e-9)


class TestCheckFeasible:
    def test_perturbed_flow_names_the_row(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Z = Z.copy()
        Z[1, 2] += 1e-6
        assert {"flow_2", "flow_3"} & set(milp_violations(inst, Y, Z))

    def test_edge_without_indicator_flags_link_row(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Y = Y.copy()
        Y[1, 2] = 0.0  # flow stays on the edge but the indicator is gone
        assert "link_2_3" in milp_violations(inst, Y, Z)

    def test_fractional_indicator_flags_integrality(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Y = Y.copy()
        Y[0, 1] = 0.4
        assert "binary_y_1_2" in milp_violations(inst, Y, Z)


class TestOptimalityAgainstDp:
    @pytest.mark.parametrize("seed", range(12))
    def test_enumerated_minimum_equals_dp(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(4, 7))
        w, D = random_instance(seed, M)
        inst = build_milp(w, D)
        best = np.inf
        for route in enumerate_routes(M):
            Y, Z = route_to_flow(route, w, D)
            assert milp_violations(inst, Y, Z) == []
            best = min(best, objective_value(inst, Z))
        assert best == pytest.approx(solve_weighted_trp_dp(w, D).cost, abs=1e-9)

    def test_subtour_indicators_admit_no_flow(self):
        # Two disjoint 2-cycles satisfy the degree rows; the flow rows must
        # then be infeasible for every nonnegative capped z.  Certified by an
        # independent LP feasibility solve.
        linprog = pytest.importorskip("scipy.optimize").linprog
        w, D = random_instance(9, 4, wlow=0.3)
        M = 4
        inst = build_milp(w, D)
        Y = np.zeros((M, M))
        Y[0, 1] = Y[1, 0] = 1.0
        Y[2, 3] = Y[3, 2] = 1.0
        for j in range(1, M + 1):
            assert sum(Y[i - 1, j - 1] for i in range(1, M + 1)) == 1.0

        nz = M * M
        idx = {(i, j): (i - 1) * M + (j - 1) for i in range(1, M + 1) for j in range(1, M + 1)}
        A_eq, b_eq = [], []
        row = np.zeros(nz)
        for i in range(1, M + 1):
            row[idx[(i, 1)]] = 1.0
        A_eq.append(row)
        b_eq.append(float(w[0]))
        wtot = float(w.sum())
        for k in range(1, M + 1):
            row = np.zeros(nz)
            for i in range(1, M + 1):
                if i != k:
                    row[idx[(i, k)]] += 1.0
            for j in range(1, M + 1):
                if j != k:
                    row[idx[(k, j)]] -= 1.0
            A_eq.append(row)
            b_eq.append(float(w[0]) - wtot if k == 1 else float(w[k - 1]))
        ub = inst.ub[:nz] * Y.ravel()
        res = linprog(
            c=np.zeros(nz), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
            bounds=list(zip(np.zeros(nz), ub)), method="highs",
        )
        assert res.status == 2  # infeasible


class TestHighs:
    """The model handed straight to HiGHS solves to the DP optimum.

    HiGHS accepts rows within its primal feasibility tolerance (1e-7), so
    its objective may sit up to about 1e-6 below the optimum; the exact
    check is on the cost of the tour that its integral y encodes."""

    @staticmethod
    def solve(w, D):
        opt = pytest.importorskip("scipy.optimize")
        sparse = pytest.importorskip("scipy.sparse")
        inst = build_milp(w, D)
        M = inst.M
        A = sparse.csr_array((inst.vals, inst.cols, inst.indptr), shape=(len(inst.constraints), 2 * M * M))
        res = opt.milp(
            np.concatenate([inst.D.ravel(), np.zeros(M * M)]),
            constraints=opt.LinearConstraint(A, np.where(inst.eq, inst.rhs, -np.inf), inst.rhs),
            bounds=opt.Bounds(0.0, inst.ub),
            integrality=np.repeat([0, 1], M * M),
            options={"mip_rel_gap": 0},
        )
        assert res.status == 0, res.message
        # Follow y from node 1; a subtour repeats a node, which cost1 rejects.
        succ = np.rint(res.x[M * M :]).reshape(M, M).argmax(axis=1)
        route = [1]
        for _ in range(M - 1):
            route.append(int(succ[route[-1] - 1]) + 1)
        return res.fun, route

    def check(self, w, D):
        fun, route = self.solve(w, D)
        dp = solve_weighted_trp_dp(w, D).cost
        assert cost1(route, w, D) == pytest.approx(dp, rel=1e-9, abs=0.0)
        assert fun == pytest.approx(dp, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("M", range(2, 8))
    @pytest.mark.parametrize("seed", range(3))
    def test_optimum_equals_dp(self, M, seed):
        self.check(*random_instance(seed, M))

    def test_eight_nodes(self):
        self.check(*random_instance(0, 8))

    def test_zero_depot_weight(self):
        w, D = random_instance(11, 6)
        w[0] = 0.0
        self.check(w, D)

    def test_zero_weight_subtour_family_is_rejected(self):
        # With these weights at 0 the model used to solve below the DP.
        for seed in range(10):
            w, D = random_instance(seed, 6)
            w[[2, 4]] = 0.0
            with pytest.raises(ValueError, match="node 3 has weight 0"):
                build_milp(w, D)


class TestExportLp:
    def test_golden_file(self):
        text = export_lp(build_milp([1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]))
        assert text == GOLDEN.read_text()

    def test_sections_in_order(self):
        w, D = random_instance(4, 4)
        text = export_lp(build_milp(w, D))
        positions = [text.index(s) for s in ("Minimize", "Subject To", "Bounds", "Binaries", "End")]
        assert positions == sorted(positions)
        assert text.endswith("End\n")

    def test_zero_weight_node_is_rejected(self):
        for zeros, named in (([0, 1, 2], 2), ([2], 3), ([1, 2], 2)):
            w, D = random_instance(5, 3)
            w[zeros] = 0.0
            with pytest.raises(ValueError, match=f"node {named} has weight 0"):
                build_milp(w, D)

    def test_zero_depot_weight_caps_return_legs_at_zero(self):
        w, D = random_instance(5, 3)
        w[0] = 0.0
        text = export_lp(build_milp(w, D))
        bounds = text.split("Bounds\n")[1].split("Binaries")[0]
        for i in (2, 3):
            assert f" 0 <= z_{i}_1 <= 0\n" in bounds

    def test_deterministic_bytes(self):
        w, D = random_instance(6, 5)
        a = export_lp(build_milp(w, D))
        b = export_lp(build_milp(w.copy(), D.copy()))
        assert a == b

    def test_seventeen_digit_numerals(self):
        D = [[0.0, 0.1], [0.2, 0.0]]
        text = export_lp(build_milp([0.1, 0.3], D))
        assert "0.10000000000000001 z_1_2" in text  # 0.1 printed to full precision
