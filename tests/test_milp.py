import itertools
from pathlib import Path

import numpy as np
import pytest

from repairroute.core import cost1
from repairroute.milp import (
    build_milp,
    check_feasible,
    export_lp,
    flow_caps,
    yvar,
    zvar,
)
from repairroute.trp import solve_weighted_trp_dp

from conftest import objective_value, random_instance, route_to_flow

GOLDEN = Path(__file__).parent / "data" / "milp_m2_unit.lp"
UNIT3_W = np.array([1.0, 1.0, 1.0])
UNIT3_D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def enumerate_routes(M):
    for tail in itertools.permutations(range(2, M + 1)):
        yield [1] + list(tail)


def emit_rows_reference(w, D):
    """Independent constraint emitter: same model, different construction.

    Builds dense rows over the fixed variable order (all z row-major, then
    all y row-major) straight from the textbook statement, without reusing
    any package code.
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
    return rows, zcol, ycol, nvar


class TestBuild:
    def test_row_and_variable_counts(self):
        w, D = random_instance(0, 5)
        inst = build_milp(w, D)
        M = 5
        names = [c.name for c in inst.constraints]
        assert len(names) == 2 * M + 1 + M + M * M
        assert len(set(names)) == len(names)
        variables = {v for c in inst.constraints for v in c.coeffs}
        assert variables <= {zvar(i, j) for i in range(1, 6) for j in range(1, 6)} | {
            yvar(i, j) for i in range(1, 6) for j in range(1, 6)
        }

    def test_depot_flow_rhs_unit_three(self):
        inst = build_milp(UNIT3_W, UNIT3_D)
        flow1 = next(c for c in inst.constraints if c.name == "flow_1")
        assert flow1.rhs == -2.0
        assert flow1.coeffs == {"z_2_1": 1.0, "z_3_1": 1.0, "z_1_2": -1.0, "z_1_3": -1.0}

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
        ref, zcol, ycol, nvar = emit_rows_reference(w, D)
        assert set(c.name for c in inst.constraints) == set(ref)
        for con in inst.constraints:
            row = np.zeros(nvar)
            for var, coef in con.coeffs.items():
                kind, i, j = var.split("_")
                col = (zcol if kind == "z" else ycol)(int(i), int(j))
                row[col] += coef
            ref_row, ref_sense, ref_rhs = ref[con.name]
            sense = "==" if con.sense == "==" else "<="
            assert sense == ref_sense
            assert con.rhs == pytest.approx(ref_rhs, abs=1e-12)
            assert row == pytest.approx(ref_row, abs=1e-12), con.name


class TestRouteToFlow:
    def test_unit_three_example(self):
        Y, Z = route_to_flow([1, 3, 2], UNIT3_W, UNIT3_D)
        assert Y[0, 2] == Y[2, 1] == Y[1, 0] == 1.0
        assert Y.sum() == 3.0
        assert Z[0, 2] == 3.0  # leaves the start with all weight
        assert Z[2, 1] == 2.0
        assert Z[1, 0] == 1.0  # closing leg carries the start node's share

    def test_zero_weights_zero_flow(self):
        _, D = random_instance(2, 4)
        Y, Z = route_to_flow([1, 4, 2, 3], np.zeros(4), D)
        assert Z.sum() == 0.0
        inst = build_milp(np.zeros(4), D)
        assert check_feasible(inst, Y, Z).feasible

    @pytest.mark.parametrize("seed", range(100))
    def test_route_flows_feasible_and_priced_right(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(3, 7))
        w, D = random_instance(seed, M)
        route = [1] + (rng.permutation(np.arange(2, M + 1)).tolist())
        inst = build_milp(w, D)
        Y, Z = route_to_flow(route, w, D)
        report = check_feasible(inst, Y, Z)
        assert report.feasible, report.violations
        assert objective_value(inst, Z) == pytest.approx(cost1(route, w, D), abs=1e-9)


class TestCheckFeasible:
    def test_perturbed_flow_names_the_row(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Z = Z.copy()
        Z[1, 2] += 1e-6
        report = check_feasible(inst, Y, Z)
        assert not report.feasible
        flagged = {name for name, _ in report.violations}
        assert {"flow_2", "flow_3"} & flagged

    def test_edge_without_indicator_flags_link_row(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Y = Y.copy()
        Y[1, 2] = 0.0  # flow stays on the edge but the indicator is gone
        report = check_feasible(inst, Y, Z)
        assert not report.feasible
        flagged = {name for name, _ in report.violations}
        assert "link_2_3" in flagged

    def test_fractional_indicator_flags_integrality(self):
        w, D = UNIT3_W, UNIT3_D
        inst = build_milp(w, D)
        Y, Z = route_to_flow([1, 2, 3], w, D)
        Y = Y.copy()
        Y[0, 1] = 0.4
        report = check_feasible(inst, Y, Z)
        assert any(name == "binary_y_1_2" for name, _ in report.violations)


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
            assert check_feasible(inst, Y, Z).feasible
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
        ub = np.array(
            [inst.r[i - 1, j - 1] * Y[i - 1, j - 1] for i in range(1, M + 1) for j in range(1, M + 1)]
        )
        res = linprog(
            c=np.zeros(nz), A_eq=np.array(A_eq), b_eq=np.array(b_eq),
            bounds=list(zip(np.zeros(nz), ub)), method="highs",
        )
        assert res.status == 2  # infeasible


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

    def test_zero_weights_cap_every_flow_at_zero(self):
        _, D = random_instance(5, 3)
        text = export_lp(build_milp(np.zeros(3), D))
        bounds = text.split("Bounds\n")[1].split("Binaries")[0]
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert f" 0 <= z_{i}_{j} <= 0\n" in bounds

    def test_deterministic_bytes(self):
        w, D = random_instance(6, 5)
        a = export_lp(build_milp(w, D))
        b = export_lp(build_milp(w.copy(), D.copy()))
        assert a == b

    def test_seventeen_digit_numerals(self):
        D = [[0.0, 0.1], [0.2, 0.0]]
        text = export_lp(build_milp([0.1, 0.3], D))
        assert "0.10000000000000001 z_1_2" in text  # 0.1 printed to full precision
