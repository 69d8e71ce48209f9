"""End-to-end acceptance gate.

Eleven numbered checks, one per test, each printing a single
"ACCEPTANCE nn <name>: PASS/FAIL" line (visible with -s; test names mirror
the numbering for plain -v runs).  Tolerances and budgets are pinned at the
top and used nowhere looser.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import repairroute
from repairroute.bound import halfspace_ball_fraction, shortest_distances
from repairroute.core import cost1, cost2_exact, latency, sigmoid, standard_trp_cost
from repairroute.demo import six_node
from repairroute.learn import training_error, training_gradient
from repairroute.milp import build_milp
from repairroute.opt import (
    MltrpConfig,
    _fixed_route_gradient,
    node_weights,
    solve,
)
from repairroute.sim import SimConfig, simulate_route_cost
from repairroute.trp import solve_weighted_trp_dp

from conftest import (
    blobs,
    milp_violations,
    objective_value,
    random_instance,
    route_to_flow,
    solve_weighted_trp_bruteforce,
)
from test_bound import alpha_hypergeometric, make_inputs, tangent_line
from repairroute.bound import generalization_bound, BoundInputs

SOLVER_INSTANCES = 200
SOLVER_BUDGET_S = 5.0
REDUCTION_TOL = 1e-12
MILP_TOL = 1e-9
GRAD_CONFIGS = 50
GRAD_TOL = 1e-5
AM_RUNS = 20
AM_TOL = 1e-7
DECOUPLE_TOL = 1e-4
GRID_STEP = 0.05
GRID_LIMIT = 3.0
GRID_BUDGET_S = 60.0
MC_TRIALS = 100_000
MC_SIGMAS = 3.0
ALPHA_XFORM_TOL = 1e-8
TANGENT_GRID = 10_000


@contextmanager
def criterion(n: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {n:02d} {name}: PASS")


def test_01_solver_exactness():
    with criterion(1, "solver exactness DP vs brute force"):
        start = time.perf_counter()
        for seed in range(SOLVER_INSTANCES):
            rng = np.random.default_rng(seed)
            M = 4 + seed % 5
            D = rng.uniform(1e-6, 10.0, size=(M, M))
            np.fill_diagonal(D, 0.0)
            w = rng.uniform(1e-9, 1.0 - 1e-9, size=M)
            dp = solve_weighted_trp_dp(w, D)
            bf = solve_weighted_trp_bruteforce(w, D)
            assert dp.cost == bf.cost, (seed, dp.cost, bf.cost)
            assert dp.route == bf.route, (seed, dp.route, bf.route)
        elapsed = time.perf_counter() - start
        assert elapsed < SOLVER_BUDGET_S, f"{elapsed:.2f}s over the {SOLVER_BUDGET_S}s budget"


def test_02_equal_weight_reduction():
    with criterion(2, "equal weights reduce to standard latency"):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            M = 4 + seed % 3
            D = rng.uniform(1e-6, 10.0, size=(M, M))
            np.fill_diagonal(D, 0.0)
            p = float(rng.uniform(0.05, 0.95))
            w = np.full(M, p)
            for tail in itertools.permutations(range(2, M + 1)):
                route = [1] + list(tail)
                a = cost1(route, w, D)
                b = p * standard_trp_cost(route, D)
                assert abs(a - b) <= REDUCTION_TOL * max(1.0, abs(a)), (seed, route)


def test_03_milp_soundness():
    with criterion(3, "flow model feasible and exact on all routes"):
        for seed in range(12):
            M = 2 + seed % 5
            w, D = random_instance(2000 + seed, M)
            inst = build_milp(w, D)
            dp = solve_weighted_trp_dp(w, D)
            best = math.inf
            for tail in itertools.permutations(range(2, M + 1)):
                route = [1] + list(tail)
                y, z = route_to_flow(route, w, D)
                violations = milp_violations(inst, y, z)
                assert not violations, (seed, route, violations)
                objv = objective_value(inst, z)
                assert abs(objv - cost1(route, w, D)) <= MILP_TOL, (seed, route)
                best = min(best, objv)
            assert abs(best - dp.cost) <= MILP_TOL, (seed, best, dp.cost)


def test_04_gradient_correctness():
    with criterion(4, "analytic gradients match finite differences"):
        for cfg_id in range(GRAD_CONFIGS):
            rng = np.random.default_rng(3000 + cfg_id)
            d = 2 + cfg_id % 2
            data = blobs(cfg_id, per_side=8, d=d)
            c2 = float(rng.uniform(0.01, 1.0))
            lam = rng.normal(scale=1.2, size=d)
            M = 5
            nodes = rng.normal(size=(M, d))
            _, D = random_instance(cfg_id, M)
            route = [1] + list(rng.permutation(range(2, M + 1)))
            lats = latency(route, D)

            def check(fun, grad_fun):
                g = grad_fun(lam)
                num = np.empty_like(g)
                for i in range(d):
                    h = 1e-6 * max(1.0, abs(lam[i]))
                    up, dn = lam.copy(), lam.copy()
                    up[i] += h
                    dn[i] -= h
                    num[i] = (fun(up) - fun(dn)) / (2 * h)
                rel = np.linalg.norm(g - num) / max(1.0, np.linalg.norm(num))
                assert rel < GRAD_TOL, (cfg_id, rel)

            check(lambda v: training_error(v, data, c2), lambda v: training_gradient(v, data, c2))
            for model in ("cost1", "cost2"):
                mc = MltrpConfig(c2=c2, c1=float(rng.uniform(0.1, 2.0)), cost_model=model)
                check(
                    lambda v, mc=mc: training_error(v, data, c2)
                    + mc.c1 * cost1(route, node_weights(v, nodes, mc.cost_model), D),
                    lambda v, mc=mc: _fixed_route_gradient(v, lats, data, nodes, mc),
                )


def test_05_am_monotonicity():
    with criterion(5, "alternating minimization never increases the objective"):
        for run in range(AM_RUNS):
            rng = np.random.default_rng(4000 + run)
            data = blobs(run, per_side=10, d=2)
            M = 5 + run % 2
            nodes = rng.normal(scale=1.3, size=(M, 2))
            _, D = random_instance(run, M)
            model = "cost1" if run % 2 == 0 else "cost2"
            cfg = MltrpConfig(c2=0.15, c1=1.0, cost_model=model)
            sol = solve("am", data, nodes, D, cfg)
            diffs = np.diff(sol.trace)
            assert (diffs <= AM_TOL).all(), (run, sol.trace)


def test_06_decoupling_limit():
    with criterion(6, "zero coupling reproduces the sequential solution"):
        for seed in range(5):
            rng = np.random.default_rng(5000 + seed)
            data = blobs(seed, per_side=10, d=2)
            nodes = rng.normal(size=(5, 2))
            _, D = random_instance(seed, 5)
            cfg = MltrpConfig(c2=0.25, c1=0.0)
            seq = solve("sequential", data, nodes, D, cfg)
            for method in ("nm", "am"):
                sol = solve(method, data, nodes, D, cfg)
                assert abs(sol.training_error - seq.training_error) <= DECOUPLE_TOL, seed
                assert sol.route == seq.route, (seed, method)


def test_07_regularization_path():
    with criterion(7, "traversal cost falls and loss rises along the C1 path"):
        start = time.perf_counter()
        axis = np.arange(-GRID_LIMIT, GRID_LIMIT + GRID_STEP / 2, GRID_STEP)
        lams = np.array([[a, b] for a in axis for b in axis])
        c1_grid = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
        for seed in range(2):
            rng = np.random.default_rng(6000 + seed)
            data = blobs(seed, per_side=10, d=2)
            M = 5
            nodes = rng.normal(scale=1.4, size=(M, 2))
            _, D = random_instance(seed, M)

            margins = data.labels[:, None] * (data.features @ lams.T)
            losses = np.logaddexp(0.0, -margins).sum(axis=0) + 0.1 * (lams**2).sum(axis=1)
            weights = sigmoid(nodes @ lams.T)  # M x grid
            routes = [[1] + list(t) for t in itertools.permutations(range(2, M + 1))]
            lat_rows = np.array([latency(r, D) for r in routes])
            costs = (lat_rows @ weights).min(axis=0)

            for k in rng.choice(lams.shape[0], size=5, replace=False):
                dp = solve_weighted_trp_dp(weights[:, k], D)
                assert abs(dp.cost - costs[k]) <= 1e-9

            prev_cost, prev_loss = None, None
            for c1 in c1_grid:
                k = int(np.argmin(losses + c1 * costs))
                if prev_cost is not None:
                    assert costs[k] <= prev_cost + 1e-12, (seed, c1)
                    assert losses[k] >= prev_loss - 1e-12, (seed, c1)
                prev_cost, prev_loss = costs[k], losses[k]
        elapsed = time.perf_counter() - start
        assert elapsed < GRID_BUDGET_S, f"{elapsed:.2f}s over the {GRID_BUDGET_S}s budget"


def test_08_stochastic_validation():
    with criterion(8, "Monte Carlo agrees with both closed-form costs"):
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            M = 4 + seed % 2
            _, D = random_instance(seed, M, integer=True)
            p = rng.uniform(0.05, 0.9, size=M)
            route = [1] + list(rng.permutation(range(2, M + 1)))
            cfg = SimConfig(trials=MC_TRIALS, seed=seed)

            rep1 = simulate_route_cost(route, D, cfg, model="cost1", probs=p)
            assert rep1.analytic_discretized == pytest.approx(rep1.analytic, rel=1e-12)
            assert abs(rep1.estimate - rep1.analytic) <= MC_SIGMAS * rep1.std_error, seed

            lam = rng.normal(scale=0.8, size=2)
            nodes = rng.normal(size=(M, 2))
            probs = node_weights(lam, nodes, "cost1")
            rep2 = simulate_route_cost(route, D, cfg, model="cost2", probs=probs)
            rates = node_weights(lam, nodes, "cost2")
            assert rep2.analytic == pytest.approx(cost2_exact(route, rates, D), rel=1e-12)
            assert abs(rep2.estimate - rep2.analytic) <= MC_SIGMAS * rep2.std_error, seed


def test_09_bound_numerics():
    with criterion(9, "cap volume, tangent bound, and budget monotonicity"):
        for d in (1, 2, 3, 5):
            for ratio in (0.1, 0.5, 0.9):
                a = halfspace_ball_fraction(ratio * 2.0, 2.0, d)
                b = alpha_hypergeometric(ratio * 2.0, 2.0, d)
                assert abs(a - b) <= ALPHA_XFORM_TOL, (d, ratio)
        for d in range(1, 26):
            assert halfspace_ball_fraction(0.0, 1.0, d) == 0.5, d
        for seed in range(100):
            inputs = make_inputs(seed, M=4, d=2, cg_slack=0.5)
            a1 = generalization_bound(inputs).alpha
            a2 = generalization_bound(
                BoundInputs(
                    M1=inputs.M1, M2=inputs.M2, Cg=inputs.Cg + 1.0, eps=inputs.eps,
                    m=inputs.m, nodes=inputs.nodes, D=inputs.D,
                )
            ).alpha
            assert a1 <= a2 + 1e-12, seed
        rng = np.random.default_rng(8000)
        for _ in range(5):
            M1 = float(rng.uniform(0.3, 3.0))
            M2 = float(rng.uniform(0.3, 3.0))
            m1, m0 = tangent_line(M1, M2)
            grid = np.linspace(-M1 * M2, M1 * M2, TANGENT_GRID)
            assert (sigmoid(grid) + 1e-12 >= m1 * grid + m0).all(), (M1, M2)


def test_10_illustration_phenomenon():
    with criterion(10, "coupled objective reroutes around the outlying node"):
        inst = six_node(seed=0)
        seq = solve("sequential", inst.train, inst.nodes, inst.D, inst.cfg)
        sim = solve("am", inst.train, inst.nodes, inst.D, inst.cfg)
        assert seq.route != sim.route
        p_seq = node_weights(seq.lam, inst.nodes, "cost1")
        p_sim = node_weights(sim.lam, inst.nodes, "cost1")
        assert cost1(sim.route, p_sim, inst.D) < cost1(seq.route, p_seq, inst.D)
        shift = np.abs(p_seq - p_sim)
        assert int(shift.argmax()) + 1 == inst.odd_node


def _run_cli(args, cwd, hash_seed):
    # The child runs in cwd, where a relative PYTHONPATH (such as "src") does
    # not resolve: put the source tree this process imported first, by
    # absolute path.  Each run gets its own hash seed, so str-hash ordering
    # cannot make two runs agree by chance.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(repairroute.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repairroute.cli import main; sys.exit(main(sys.argv[1:]))",
         *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert code.returncode == 0, (args, code.stderr)


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_11_cli_determinism(tmp_path):
    with criterion(11, "every command is byte-deterministic across processes"):
        rng = np.random.default_rng(42)
        data = blobs(42, per_side=8, d=2)
        nodes = rng.normal(0.0, 0.6, size=(4, 2))
        _, D = random_instance(42, 4, integer=True)
        header = "f1,f2"
        train = [header + ",label"] + [
            ",".join(repr(v) for v in row) + f",{int(lab):+d}"
            for row, lab in zip(data.features.tolist(), data.labels.tolist())
        ]
        (tmp_path / "train.csv").write_text("\n".join(train) + "\n")
        (tmp_path / "nodes.csv").write_text(
            "\n".join([header] + [",".join(repr(v) for v in r) for r in nodes.tolist()]) + "\n"
        )
        (tmp_path / "dist.csv").write_text(
            "\n".join(",".join(repr(v) for v in r) for r in D.tolist()) + "\n"
        )
        base = ["--train", "train.csv", "--nodes", "nodes.csv", "--distances", "dist.csv",
                "--c2", "0.2"]
        commands = {
            "train": ["train", "--train", "train.csv", "--c2", "0.2"],
            "route": ["route", *base],
            "simultaneous": ["simultaneous", *base, "--c1", "0.5", "--method", "am",
                             "--c1-grid", "0,0.5"],
            "export-milp": ["export-milp", *base],
            "demo": ["demo", "--which", "six_node", "--seed", "0"],
            "simulate": ["simulate", *base, "--seed", "7", "--trials", "2000"],
            "bound": ["bound", "--nodes", "nodes.csv", "--distances", "dist.csv",
                      "--cg", "40", "--eps", "0.5", "--m1", "2.0", "--m2", "2.0",
                      "--m", "64"],
        }
        for name, argv in commands.items():
            out_a = tmp_path / f"{name}_a"
            out_b = tmp_path / f"{name}_b"
            _run_cli(argv + ["--out-dir", str(out_a)], cwd=tmp_path, hash_seed="1")
            _run_cli(argv + ["--out-dir", str(out_b)], cwd=tmp_path, hash_seed="2")
            ta, tb = _tree_bytes(out_a), _tree_bytes(out_b)
            assert ta.keys() == tb.keys(), name
            assert ta, f"{name} wrote no files"
            for fname in ta:
                assert ta[fname] == tb[fname], (name, fname)
            if name == "train":
                json.loads((out_a / "model.json").read_text())
