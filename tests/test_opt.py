import itertools
import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import repairroute.core as core_mod
import repairroute.dataio as dataio_mod
import repairroute.opt as opt_mod
import repairroute.trp as trp_mod
from repairroute.core import LabeledDataset, cost1, latency, standard_trp_cost
from repairroute.demo import six_node
import repairroute.learn as learn_mod
from repairroute.learn import FitResult, auc, fit_logistic, training_error
from repairroute.opt import (
    MltrpConfig,
    MltrpSolution,
    SweepRow,
    c1_sweep,
    nelder_mead,
    node_weights,
    route_string,
    solve,
    sweep_csv,
    _WEIGHTS,
    _objective,
    _fixed_route_gradient,
    _fixed_route_hessian,
    _fixed_route_objective,
)
from repairroute.trp import TIE_TOL, solve_weighted_trp_dp

from conftest import (
    blobs,
    legs_nbytes,
    load_tool,
    random_instance,
    solve_weighted_trp_bruteforce,
    twin_last_node,
)

# Both cost models; cost2 routes by its softplus surrogate weights, which its
# case id names.
MODELS = [pytest.param("cost1", id="cost1"), pytest.param("cost2", id="cost2_surrogate")]


def walk_cost(route, w, D):
    """Prefix-walk weighted latency sum, coded independently of the package."""
    pos = [r - 1 for r in route]
    total = 0.0
    travelled = 0.0
    for t in range(1, len(pos)):
        travelled += D[pos[t - 1]][pos[t]]
        total += w[pos[t]] * travelled
    total += w[pos[0]] * (travelled + D[pos[-1]][pos[0]])
    return total


def loss_oracle(lam, data, c2):
    margins = data.labels * (data.features @ lam)
    return float(np.logaddexp(0.0, -margins).sum() + c2 * np.dot(lam, lam))


def reference_objective(lam, data, nodes, D, cfg):
    """The combined objective from the public parts, the DP run on D."""
    w = node_weights(lam, nodes, cfg.cost_model)
    return training_error(lam, data, cfg.c2) + cfg.c1 * solve_weighted_trp_dp(w, D).cost


def fresh_objective(lam, data, nodes, D, cfg):
    """opt._objective's value on a new route anchor, so its DP runs."""
    return _objective(lam, data, nodes, opt_mod._RouteAnchor(D), cfg)[0]


def am_check_instance(run):
    """Instance `run` of acceptance check 5 (AM monotonicity), with its config."""
    rng = np.random.default_rng(4000 + run)
    data = blobs(run, per_side=10, d=2)
    M = 5 + run % 2
    nodes = rng.normal(scale=1.3, size=(M, 2))
    _, D = random_instance(run, M)
    model = "cost1" if run % 2 == 0 else "cost2"
    return data, nodes, D, MltrpConfig(c2=0.15, c1=1.0, cost_model=model)


def opt_instance(seed, M=5, d=2):
    """Training blobs plus an unrelated routing graph with d-feature nodes."""
    rng = np.random.default_rng(seed + 1000)
    data = blobs(seed, per_side=12, d=d)
    nodes = rng.normal(0.0, 1.5, size=(M, d))
    _, D = random_instance(seed, M)
    return data, nodes, D


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MltrpConfig(c2=0.1, c1=-1.0)
        with pytest.raises(ValueError):
            MltrpConfig(c2=-0.1)
        with pytest.raises(ValueError):
            MltrpConfig(c2=0.1, cost_model="cost3")


class TestNodeWeights:
    def test_sigmoid_and_softplus_forms(self):
        nodes = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
        lam = np.array([0.5, -0.25])
        scores = nodes @ lam
        assert np.allclose(node_weights(lam, nodes, "cost1"), 1.0 / (1.0 + np.exp(-scores)))
        assert np.allclose(node_weights(lam, nodes, "cost2"), np.log1p(np.exp(scores)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            node_weights([1.0, 2.0, 3.0], np.zeros((4, 2)), "cost1")
        with pytest.raises(ValueError):
            node_weights([1.0], np.zeros((4, 1)), "nope")


class TestObj:
    def test_c1_zero_is_training_error(self, small_blobs):
        _, nodes, D = opt_instance(3)
        lam = np.array([0.4, -0.6])
        cfg = MltrpConfig(c2=0.2, c1=0.0)
        lats = latency([1, 2, 3, 4, 5], D)
        assert _fixed_route_objective(lam, lats, small_blobs, nodes, cfg) == pytest.approx(
            loss_oracle(lam, small_blobs, 0.2), rel=1e-12
        )

    def test_lambda_zero_halves_plain_latency(self, small_blobs):
        # sigmoid(0) puts weight one half on every node, so the traversal part
        # is half the unweighted latency sum of the route.
        _, nodes, D = opt_instance(4)
        route = [1, 3, 2, 5, 4]
        cfg = MltrpConfig(c2=0.5, c1=2.0)
        val = _fixed_route_objective(np.zeros(2), latency(route, D), small_blobs, nodes, cfg)
        m = small_blobs.m
        plain = walk_cost(route, np.ones(5), D)
        assert val == pytest.approx(m * math.log(2.0) + 2.0 * 0.5 * plain, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS)
    def test_component_sum(self, seed, model):
        data, nodes, D = opt_instance(seed, M=6)
        rng = np.random.default_rng(seed)
        lam = rng.normal(size=2)
        route = [1] + list(rng.permutation(range(2, 7)))
        cfg = MltrpConfig(c2=0.3, c1=1.7, cost_model=model)
        w = node_weights(lam, nodes, model)
        expect = loss_oracle(lam, data, 0.3) + 1.7 * walk_cost(route, w, D)
        lats = latency(route, D)
        assert _fixed_route_objective(lam, lats, data, nodes, cfg) == pytest.approx(expect, rel=1e-12)


class TestSimultaneousObjective:
    def test_c1_zero(self, small_blobs):
        _, nodes, D = opt_instance(5)
        lam = np.array([0.2, 0.9])
        cfg = MltrpConfig(c2=0.4, c1=0.0)
        got = fresh_objective(lam, small_blobs, nodes, D, cfg)
        assert got == pytest.approx(loss_oracle(lam, small_blobs, 0.4), rel=1e-12)
        assert got == reference_objective(lam, small_blobs, nodes, D, cfg)

    def test_identical_features_reduce_to_standard_trp(self, small_blobs):
        _, _, D = opt_instance(6, M=5)
        nodes = np.tile([0.8, -0.3], (5, 1))
        lam = np.array([1.1, 0.4])
        cfg = MltrpConfig(c2=0.1, c1=3.0)
        w = float(node_weights(lam, nodes, "cost1")[0])
        best_std = min(
            standard_trp_cost([1] + list(tail), D)
            for tail in itertools.permutations(range(2, 6))
        )
        got = fresh_objective(lam, small_blobs, nodes, D, cfg)
        expect = loss_oracle(lam, small_blobs, 0.1) + 3.0 * w * best_std
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == reference_objective(lam, small_blobs, nodes, D, cfg)

    @pytest.mark.parametrize("seed", range(6))
    def test_inner_min_matches_permutation_oracle(self, seed):
        data, nodes, D = opt_instance(seed, M=6)
        lam = np.random.default_rng(seed).normal(size=2)
        cfg = MltrpConfig(c2=0.2, c1=1.3)
        w = node_weights(lam, nodes, "cost1")
        best = min(
            walk_cost([1] + list(tail), w, D)
            for tail in itertools.permutations(range(2, 7))
        )
        got = fresh_objective(lam, data, nodes, D, cfg)
        assert got == pytest.approx(loss_oracle(lam, data, 0.2) + 1.3 * best, rel=1e-11)
        assert got == reference_objective(lam, data, nodes, D, cfg)


class TestSequential:
    @pytest.mark.parametrize("seed", range(5))
    def test_c1_is_irrelevant(self, seed):
        data, nodes, D = opt_instance(seed)
        a = solve("sequential", data, nodes, D, MltrpConfig(c2=0.2, c1=0.0))
        b = solve("sequential", data, nodes, D, MltrpConfig(c2=0.2, c1=7.5))
        assert np.array_equal(a.lam, b.lam)
        assert a.route == b.route
        assert a.traversal_cost == b.traversal_cost
        assert b.combined_objective == pytest.approx(
            b.training_error + 7.5 * b.traversal_cost, abs=1e-9
        )

    def test_two_cluster_route_matches_brute_force(self):
        inst = six_node()
        sol = solve("sequential", inst.train, inst.nodes, inst.D, inst.cfg)
        w = node_weights(sol.lam, inst.nodes, inst.cfg.cost_model)
        assert sol.route == solve_weighted_trp_bruteforce(w, inst.D).route
        assert sol.method == "sequential"

    def test_degenerate_two_nodes(self, small_blobs):
        nodes = np.array([[0.5, 0.5], [-0.5, 1.0]])
        D = np.array([[0.0, 2.0], [3.0, 0.0]])
        sol = solve("sequential", small_blobs, nodes, D, MltrpConfig(c2=0.5))
        assert sol.route == [1, 2]


class TestNelderMead:
    @pytest.mark.parametrize("seed", range(4))
    def test_c1_zero_matches_logistic_fit(self, seed):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.3, c1=0.0)
        ref = fit_logistic(data, cfg.c2)
        sol = solve("nm", data, nodes, D, cfg)
        assert abs(sol.training_error - ref.loss) < 1e-4
        assert sol.route == solve("sequential", data, nodes, D, cfg).route

    def test_flat_landscape_stays_at_start(self):
        data = LabeledDataset(
            features=np.zeros((10, 2)),
            labels=np.array([1.0, -1.0] * 5),
        )
        _, nodes, D = opt_instance(9)
        lam0 = np.array([0.3, -0.2])
        sol = solve("nm", data, nodes, D, MltrpConfig(c2=0.0, c1=0.0), lam0=lam0)
        assert np.array_equal(sol.lam, lam0)
        assert all(v == pytest.approx(10 * math.log(2.0), rel=1e-12) for v in sol.trace)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("model", MODELS)
    def test_never_worse_than_start_and_trace_monotone(self, seed, model):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        lam0 = fit_logistic(data, cfg.c2).lam
        sol = solve("nm", data, nodes, D, cfg, lam0=lam0)
        start = reference_objective(lam0, data, nodes, D, cfg)
        assert sol.combined_objective <= start + 1e-12
        assert all(b <= a for a, b in zip(sol.trace, sol.trace[1:]))
        assert sol.method == "nm"

    def test_non_finite_vertex_is_reported(self, small_blobs):
        _, nodes, D = opt_instance(2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            solve(
                "nm", small_blobs, nodes, D, MltrpConfig(c2=0.5, c1=1.0), lam0=[1e200, 1e200]
            )

    def test_budget_stop_is_logged(self, caplog, monkeypatch):
        data, nodes, D = opt_instance(2)
        evals = []
        real_eval = opt_mod._objective

        def counting_eval(*a, **k):
            evals.append(1)
            return real_eval(*a, **k)

        monkeypatch.setattr(opt_mod, "_objective", counting_eval)
        monkeypatch.setattr(opt_mod, "_NM_MAX_EVALS", 10)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            solve("nm", data, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
        records = [r for r in caplog.records if r.name == "repairroute"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        msg = records[0].getMessage()
        assert f"stopped after {len(evals)} evaluations (budget 10)" in msg
        assert "simplex diameter " in msg
        assert len(evals) >= 10

    def test_converged_search_logs_nothing(self, caplog):
        data, nodes, D = opt_instance(2)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            solve("nm", data, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
        assert not caplog.records


class TestNelderMeadMinimizer:
    """nelder_mead as a plain downhill simplex over a scalar function."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d", [2, 3])
    def test_finds_the_minimizer_of_a_convex_quadratic(self, seed, d, caplog):
        rng = np.random.default_rng(seed + 10 * d)
        B = rng.normal(size=(d, d))
        A = B @ B.T + 0.5 * np.eye(d)
        c = rng.normal(scale=2.0, size=d)
        calls = []

        def q(v):
            calls.append(1)
            return float((v - c) @ A @ (v - c)) + 3.0

        def f(v):
            return q(v), None  # one smooth piece

        with caplog.at_level(logging.DEBUG, logger="repairroute"):
            lam, trace = nelder_mead(f, np.zeros(d))
        assert np.abs(lam - c).max() < 1e-6
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == q(lam)
        assert len(calls) < opt_mod._NM_MAX_EVALS
        assert not caplog.records

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_names_the_vertex(self, bad):
        with pytest.raises(ValueError, match=r"non-finite objective at simplex vertex \[1\.0, 2\.0\]"):
            nelder_mead(lambda v: (bad, None), [1.0, 2.0])


class TestC1Overflow:
    MESSAGE = r"^C1 = 1e\+308 times the route cost [0-9.]+ overflows$"

    @pytest.mark.parametrize("method", ["sequential", "nm", "am"])
    @pytest.mark.parametrize("model", MODELS)
    def test_every_method_names_c1(self, method, model):
        # Training loss and route cost are both finite; only C1 times the
        # cost overflows, and every method says so.
        data, nodes, D = opt_instance(1)
        cfg = MltrpConfig(c2=0.2, c1=1e308, cost_model=model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.MESSAGE):
                solve(method, data, nodes, D, cfg)

    def test_objective_names_c1_whether_the_anchor_solves_or_reuses(self):
        data, nodes, D = opt_instance(2)
        cfg = MltrpConfig(c2=0.2, c1=1e308)
        lam = fit_logistic(data, cfg.c2).lam
        anchor = opt_mod._RouteAnchor(D)
        for _ in range(2):  # the first call runs the DP; the second reuses its route
            with pytest.raises(ValueError, match=self.MESSAGE):
                _objective(lam, data, nodes, anchor, cfg)
        assert anchor._dp_calls == 1

    def test_large_finite_product_is_kept(self):
        data, nodes, D = opt_instance(2)
        sol = solve("sequential", data, nodes, D, MltrpConfig(c2=0.2, c1=1e300))
        assert math.isfinite(sol.combined_objective)
        assert sol.combined_objective == sol.training_error + 1e300 * sol.traversal_cost


def tied_instance(seed, M):
    """Nodes that repeat three feature rows, integer distances 1-3, and node
    M the twin of node M-1 (same features, row and column), so that
    swapping the two ties every route at every lam."""
    data = blobs(seed, per_side=12, d=2)
    rng = np.random.default_rng(seed)
    proto = rng.normal(0.0, 0.8, (3, 2))
    nodes = proto[rng.integers(0, 3, M)]
    nodes[-1] = nodes[-2]
    D = rng.integers(1, 4, (M, M)).astype(float)
    np.fill_diagonal(D, 0.0)
    return data, nodes, twin_last_node(D)


def spy_nelder_mead(monkeypatch, data, nodes, D, cfg):
    """Solve by nm, recording every DP solution, per evaluation (lam, value,
    the anchor's solution if the DP was skipped else None), and the DP calls
    of the final route, those made after the simplex loop returns (0 where
    the anchor certified it); returns those three and the result, with the
    spies removed."""
    solved, evals, looped = [], [], []
    real_dp, real_eval = trp_mod._held_karp, opt_mod._objective
    real_nm = opt_mod.nelder_mead

    def spy_dp(w, D, legs=None):
        solved.append(real_dp(w, D, legs))
        return solved[-1]

    def spy_eval(lam, *a, **k):
        before = len(solved)
        out = real_eval(lam, *a, **k)
        evals.append((lam.copy(), out[0], solved[-1] if len(solved) == before else None))
        return out

    def spy_nm(*a, **k):
        out = real_nm(*a, **k)
        looped.append(len(solved))
        return out

    monkeypatch.setattr(trp_mod, "_held_karp", spy_dp)
    monkeypatch.setattr(opt_mod, "_objective", spy_eval)
    monkeypatch.setattr(opt_mod, "nelder_mead", spy_nm)
    sol = solve("nm", data, nodes, D, cfg)
    monkeypatch.undo()
    (looped,) = looped
    return solved, evals, len(solved) - looped, sol


class TestMarginCertificate:
    @pytest.mark.parametrize("M", range(6, 10))
    @pytest.mark.parametrize("model", MODELS)
    def test_skipped_evaluations_equal_the_dp(self, M, model, monkeypatch):
        data, nodes, D = opt_instance(40 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        solved, evals, final, sol = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        skipped = [(lam, anchor) for lam, _, anchor in evals if anchor is not None]
        for lam, val, _ in evals:
            assert val == reference_objective(lam, data, nodes, D, cfg)
        for lam, anchor in skipped:
            w = node_weights(lam, nodes, model)
            fresh = solve_weighted_trp_dp(w, D)
            assert fresh.route == anchor.route
            assert fresh.cost == float(w @ latency(anchor.route, D))
        # every DP call is an uncertified evaluation or the uncertified final
        # route, and the final route is the DP's whether reused or solved
        assert final in (0, 1)
        assert len(solved) == len(evals) - len(skipped) + final
        assert len(skipped) < len(evals)
        redo = solve_weighted_trp_dp(node_weights(sol.lam, nodes, model), D)
        assert (sol.route, sol.traversal_cost) == (redo.route, redo.cost)

    def test_anchor_matches_the_dp_along_weight_rays(self, monkeypatch):
        # Anchored at w0, query weights that move one node's weight down to
        # zero and up by one: the rays cross route changes, and every answer
        # must equal the DP's, whether reused or solved.
        calls = []
        real_dp = trp_mod._held_karp

        def counting_dp(w, D, legs=None):
            calls.append(1)
            return real_dp(w, D, legs)

        monkeypatch.setattr(trp_mod, "_held_karp", counting_dp)
        reused = changed = 0
        for seed in range(12):
            M = 4 + seed % 3
            w0, D = random_instance(seed, M)
            route0 = solve_weighted_trp_dp(w0, D).route
            for j in range(M):
                for step in np.linspace(-w0[j], 1.0, 21):
                    w = w0.copy()
                    w[j] += step
                    anchor = opt_mod._RouteAnchor(D)
                    anchor.route(w0)
                    before = len(calls)
                    route, lats = anchor.route(w)
                    reused += len(calls) == before
                    fresh = solve_weighted_trp_dp(w, D)
                    changed += fresh.route != route0
                    assert route == fresh.route, (seed, j, step)
                    assert lats.tobytes() == fresh.latencies.tobytes(), (seed, j, step)
                    assert float(w @ lats) == fresh.cost, (seed, j, step)
        assert reused > 50 and changed > 100

    @pytest.mark.parametrize("model", MODELS)
    def test_tied_routes_never_skip(self, model, monkeypatch):
        data, nodes, D = tied_instance(11, 8)
        cfg = MltrpConfig(c2=0.2, c1=0.5, cost_model=model)
        solved, evals, final, _ = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        assert all(anchor is None for _, _, anchor in evals)
        assert final == 1
        assert len(solved) == len(evals) + 1
        assert all(min(sol.step_margins) <= TIE_TOL for sol in solved)


class MarginAnchor:
    """The certificate by the margin alone: every latency of every route lies
    in [0, T], T = sum_j max_k D[j, k], so the DP's route is reused while
    margin - T ||w - w0||_1 exceeds the same allowance."""

    def __init__(self, D):
        self._D = D
        self._reach = float(D.max(axis=1).sum())
        self._w0 = None

    def route(self, w):
        if self._w0 is not None:
            r = self._reach * float(np.abs(w - self._w0).sum())
            if self._margin - r > TIE_TOL + 1e-9 * (1.0 + self._cost0 + r):
                return self._route, self._lats
        sol = trp_mod._held_karp(w, self._D)
        self._w0, self._cost0, self._margin = w, sol.cost, min(sol.step_margins)
        self._route, self._lats = sol.route, latency(sol.route, self._D)
        return self._route, self._lats


class TestStepCertificate:
    @pytest.mark.parametrize("M", range(6, 11))
    @pytest.mark.parametrize("model", MODELS)
    def test_skips_more_than_the_margin_alone(self, M, model, monkeypatch):
        # Same search, same values; the per-step gaps leave fewer DP calls
        # than the single margin, and every skipped point is the DP's answer.
        data, nodes, D = opt_instance(60 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        solved, evals, _, sol = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        monkeypatch.setattr(opt_mod, "_RouteAnchor", MarginAnchor)
        solved_margin, evals_margin, _, sol_margin = spy_nelder_mead(
            monkeypatch, data, nodes, D, cfg
        )
        assert [(lam.tolist(), val) for lam, val, _ in evals] == [
            (lam.tolist(), val) for lam, val, _ in evals_margin
        ]
        assert len(solved) < len(solved_margin)
        assert (sol.route, sol.traversal_cost) == (sol_margin.route, sol_margin.traversal_cost)
        for lam, val, anchor in evals:
            assert val == reference_objective(lam, data, nodes, D, cfg)
            if anchor is not None:
                w = node_weights(lam, nodes, model)
                fresh = solve_weighted_trp_dp(w, D)
                assert fresh.route == anchor.route
                assert fresh.cost == float(w @ latency(anchor.route, D))

    @pytest.mark.parametrize("M", [2, 3, 6])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_never_skip(self, M, bad):
        # The DP rejects them with its own message, so the anchor must not
        # answer for it, wherever the bad weight sits.
        w0, D = random_instance(M, M)
        anchor = opt_mod._RouteAnchor(D)
        anchor.route(w0)
        ref = solve_weighted_trp_dp(w0, D)
        for j in range(M):
            w = w0.copy()
            w[j] = bad
            with pytest.raises(ValueError, match="weights contain non-finite values"):
                anchor.route(w)
            route, lats = anchor.route(w0)
            assert (route, float(w0 @ lats)) == (ref.route, ref.cost)


class TestAnchorChecks:
    def test_node_cap_is_checked_at_construction(self):
        D = np.ones((21, 21)) - np.eye(21)
        with pytest.raises(ValueError, match=r"^exact DP supports at most 20 nodes, got 21$"):
            opt_mod._RouteAnchor(D)


class TestOneRouteSource:
    def test_opt_derives_no_latencies(self):
        # Routes and their latencies come from the DP through the anchor.
        assert not hasattr(opt_mod, "latency") and not hasattr(opt_mod, "_latency")

    @pytest.mark.parametrize("name", ["_held_karp", "_gather_legs", "_dp_matrix", "TIE_TOL"])
    def test_opt_binds_no_dp_internals(self, name):
        # The anchor lives beside the DP; opt reaches the DP only through it.
        assert opt_mod._RouteAnchor is trp_mod._RouteAnchor
        assert not hasattr(opt_mod, name)

    @pytest.mark.parametrize(
        "method, model, dp_calls",
        [("nm", "cost1", 30), ("am", "cost2", 4)],
        ids=["nm", "am"],
    )
    def test_no_latency_call_in_a_solve(self, method, model, dp_calls, monkeypatch):
        # Pinned on one instance each: NM's final route and AM's repeated
        # route at its final lam are certified by the anchor, so neither
        # solve runs the DP twice at one lam, and the DP's rebuild walk sums
        # the latencies itself.
        data, nodes, D = opt_instance(2, M=7)
        dp, lat = [], []
        real_dp, real_lat = trp_mod._held_karp, core_mod._latency

        def counting_dp(*a):
            dp.append(1)
            return real_dp(*a)

        def counting_lat(*a):
            lat.append(1)
            return real_lat(*a)

        monkeypatch.setattr(trp_mod, "_held_karp", counting_dp)
        monkeypatch.setattr(core_mod, "_latency", counting_lat)
        sol = solve(method, data, nodes, D, MltrpConfig(c2=0.2, c1=0.8, cost_model=model))
        assert len(dp) == dp_calls
        assert not lat and not hasattr(trp_mod, "_latency")
        monkeypatch.undo()
        redo = solve_weighted_trp_dp(node_weights(sol.lam, nodes, model), D)
        assert (sol.route, sol.traversal_cost) == (redo.route, redo.cost)

    @pytest.mark.parametrize("model", MODELS)
    def test_nm_needs_nothing_but_the_anchors_route(self, model, monkeypatch):
        # Each evaluation hands NM its own route and latencies, so an anchor
        # that offers route(w) alone gives the same solve, bit for bit.
        class RouteOnly:
            __slots__ = ("route",)

            def __init__(self, D):
                self.route = trp_mod._RouteAnchor(D).route

        data, nodes, D = opt_instance(4, M=7)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        plain = solve("nm", data, nodes, D, cfg)
        monkeypatch.setattr(opt_mod, "_RouteAnchor", RouteOnly)
        sol = solve("nm", data, nodes, D, cfg)
        assert sol.lam.tobytes() == plain.lam.tobytes()
        assert (sol.trace, sol.route, sol.combined_objective) == (
            plain.trace, plain.route, plain.combined_objective
        )


class TestKeptLegs:
    """The anchor keeps D's fill legs from its second uncertified DP call on."""

    @staticmethod
    def spy(monkeypatch):
        # (legs passed to the kernel, per DP call), gathers made
        passed, gathered = [], []
        real_dp, real_gather = trp_mod._held_karp, trp_mod._gather_legs

        def spy_dp(w, D, legs=None):
            passed.append(legs)
            return real_dp(w, D, legs)

        def spy_gather(D):
            gathered.append(real_gather(D))
            return gathered[-1]

        monkeypatch.setattr(trp_mod, "_held_karp", spy_dp)
        monkeypatch.setattr(trp_mod, "_gather_legs", spy_gather)
        return passed, gathered

    def test_gathered_on_the_second_uncertified_call(self, monkeypatch):
        w0, D = random_instance(3, 8)
        queries = []
        for k in range(1, 4):
            w = w0.copy()
            w[k] = 5.0
            queries.append((w, solve_weighted_trp_dp(w, D)))  # before the spy sees DP calls
        passed, gathered = self.spy(monkeypatch)
        anchor = opt_mod._RouteAnchor(D)
        anchor.route(w0)
        anchor.route(w0.copy())  # certified: no DP call
        assert passed == [None] and gathered == []
        for w, fresh in queries:
            route, lats = anchor.route(w)
            assert route == fresh.route and lats.tobytes() == fresh.latencies.tobytes()
        assert len(passed) == 4 and len(gathered) == 1
        assert passed[0] is None and all(legs is gathered[0] for legs in passed[1:])
        assert gathered[0] is not None

    @pytest.mark.parametrize("model", MODELS)
    def test_sequential_gathers_none(self, model, monkeypatch):
        passed, gathered = self.spy(monkeypatch)
        data, nodes, D = opt_instance(4, M=9)
        solve("sequential", data, nodes, D, MltrpConfig(c2=0.2, c1=0.8, cost_model=model))
        assert passed == [None] and gathered == []

    def test_none_kept_past_the_budget(self, monkeypatch):
        data, nodes, D = opt_instance(5, M=8)
        monkeypatch.setattr(trp_mod, "_LEGS_MAX_BYTES", legs_nbytes(8) - 1)
        passed, gathered = self.spy(monkeypatch)
        solve("nm", data, nodes, D, MltrpConfig(c2=0.2, c1=0.8))
        assert len(passed) > 2 and gathered == [None]
        assert all(legs is None for legs in passed)

    @pytest.mark.parametrize("method", ["nm", "am"])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("M", [6, 10])
    def test_solutions_equal_those_without_legs(self, M, model, method, monkeypatch):
        data, nodes, D = opt_instance(80 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        passed, _ = self.spy(monkeypatch)
        kept = solve(method, data, nodes, D, cfg)
        assert any(legs is not None for legs in passed)
        monkeypatch.setattr(trp_mod, "_LEGS_MAX_BYTES", 0)
        del passed[:]
        bare = solve(method, data, nodes, D, cfg)
        assert all(legs is None for legs in passed)
        assert kept.lam.tobytes() == bare.lam.tobytes()
        assert kept.trace == bare.trace and kept.route == bare.route
        assert (kept.training_error, kept.traversal_cost, kept.combined_objective) == (
            bare.training_error, bare.traversal_cost, bare.combined_objective
        )


def nm_mid_instance(seed, i):
    """An instance shaped like the benchmark's nm_mid solves: 60 training rows
    in two clusters at +-2.5 in 3 features, 10 nodes whose features lie in
    [-2, 2] (node 1's are 0) at jittered points of a 4 x 4 grid on a 10 x 10
    square, C1 = 0.5, C2 = 0.1 and the cost models alternating."""
    rng = np.random.default_rng([seed, i])
    data = LabeledDataset(
        features=np.vstack([rng.normal(2.5, 1.0, (30, 3)), rng.normal(-2.5, 1.0, (30, 3))]),
        labels=np.repeat([1.0, -1.0], 30),
    )
    nodes = np.zeros((10, 3))
    nodes[1:] = rng.uniform(-2.0, 2.0, (9, 3))
    cells = rng.choice(16, size=10, replace=False)
    xy = (np.column_stack([cells % 4, cells // 4]) + rng.random((10, 2))) * 2.5
    D = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
    return data, nodes, D, MltrpConfig(c2=0.1, c1=0.5, cost_model=("cost1", "cost2")[i % 2])


def golden_problems(folder):
    """The five-node, tied-twin fourteen-node and ten-node plane problems of
    tools/cli_golden.py, with its C1 = 0.5 and C2 = 0.2, under both cost
    models."""
    load_tool("cli_golden").write_inputs(folder)
    data = dataio_mod.load_labeled_csv(folder / "train.csv")
    for tag in ("", "14", "10"):
        nodes = dataio_mod.load_nodes_csv(folder / f"nodes{tag}.csv")
        D = dataio_mod.load_distances_csv(folder / f"dist{tag}.csv")
        for model in ("cost1", "cost2"):
            yield data, nodes, D, MltrpConfig(c2=0.2, c1=0.5, cost_model=model)


def record_descents(monkeypatch):
    """Every fixed-route descent's (start, result) in the order they run."""
    runs = []
    real = opt_mod._route_descent

    def spy(lam, *a):
        runs.append((lam.copy(), real(lam, *a)))
        return runs[-1][1]

    monkeypatch.setattr(opt_mod, "_route_descent", spy)
    return runs


def without_finish(monkeypatch, data, nodes, D, cfg):
    """solve("nm") with the fixed-route finish disabled."""
    with monkeypatch.context() as m:
        m.setattr(opt_mod, "_NM_FINISH_DIAM", 0.0)
        return solve("nm", data, nodes, D, cfg)


class TestCertifiedFinish:
    """Nelder-Mead ends with AM's fixed-route descent once its simplex is
    small and on one route, and keeps the result only where it is certified."""

    @staticmethod
    def check_against_plain_nm(sol, plain):
        assert sol.combined_objective <= plain.combined_objective + 1e-12 * abs(
            plain.combined_objective
        )
        assert all(b <= a for a, b in zip(sol.trace, sol.trace[1:]))
        assert sol.trace[-1] == sol.combined_objective

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_never_above_plain_nm_on_nm_mid_instances(self, seed, monkeypatch):
        # 16 solves per seed, as one benchmark pass makes; the finish is
        # accepted on every one of them and saves most evaluations.
        accepted = 0
        for i in range(16):
            data, nodes, D, cfg = nm_mid_instance(seed, i)
            runs = record_descents(monkeypatch)
            sol = solve("nm", data, nodes, D, cfg)
            monkeypatch.undo()
            plain = without_finish(monkeypatch, data, nodes, D, cfg)
            self.check_against_plain_nm(sol, plain)
            assert sol.route == plain.route
            accepted += bool(runs) and sol.lam is runs[-1][1].lam
            assert len(sol.trace) < len(plain.trace)
        assert accepted == 16

    def test_never_above_plain_nm_on_the_golden_problems(self, tmp_path, monkeypatch):
        # Includes the tied-twin fourteen-node graph, where no DP call is
        # certified and the finish's route check runs the DP.
        for data, nodes, D, cfg in golden_problems(tmp_path):
            runs = record_descents(monkeypatch)
            sol = solve("nm", data, nodes, D, cfg)
            monkeypatch.undo()
            self.check_against_plain_nm(sol, without_finish(monkeypatch, data, nodes, D, cfg))
            assert runs and all(res.converged for _, res in runs)
            assert sol.lam is runs[-1][1].lam

    @pytest.mark.parametrize("M", range(6, 10))
    @pytest.mark.parametrize("model", MODELS)
    def test_accepted_finish_needs_no_final_dp_call(self, M, model, monkeypatch):
        # The finish evaluated the objective at the returned lam, so the
        # anchor certifies the final route there without a DP call.
        data, nodes, D = opt_instance(40 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        runs = record_descents(monkeypatch)
        solved, evals, final, sol = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        assert sol.lam is runs[-1][1].lam
        assert np.array_equal(evals[-1][0], sol.lam) and evals[-1][1] == sol.trace[-1]
        assert final == 0
        assert len(solved) == len(evals) - sum(a is not None for _, _, a in evals)

    @pytest.mark.parametrize("refusal", ["other_route", "above_best", "unconverged"])
    @pytest.mark.parametrize("model", MODELS)
    def test_refused_finish_leaves_nm_unchanged(self, refusal, model, monkeypatch):
        # Each landing fails one acceptance condition and passes the others:
        # on another route with an objective made to read far below the best
        # vertex's; uphill on the same route; or at the best vertex itself but
        # unconverged.  NM then goes on exactly as without the finish, and
        # tries each route at most once.
        data, nodes, D = opt_instance(7, M=7)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        plain = without_finish(monkeypatch, data, nodes, D, cfg)
        tried = []

        def fake_descent(fun, grad, x0, hess):
            g = grad(x0)
            if refusal == "other_route":
                end = -3.0 * x0
            elif refusal == "above_best":
                end = x0 + 1e-6 * g / np.linalg.norm(g)
            else:
                end = x0.copy()
            tried.append((x0.copy(), end, fun(x0), fun(end)))
            return FitResult(lam=end, loss=fun(end), grad_norm=0.0, iterations=1,
                             converged=refusal != "unconverged")

        real_objective = opt_mod._objective

        def objective(lam, *a):
            val, route, lats = real_objective(lam, *a)
            landed = refusal == "other_route" and any(lam is end for _, end, _, _ in tried)
            return (val - 1e6 if landed else val), route, lats

        monkeypatch.setattr(opt_mod, "minimize_descent", fake_descent)
        monkeypatch.setattr(opt_mod, "_objective", objective)
        sol = solve("nm", data, nodes, D, cfg)
        monkeypatch.undo()
        assert tried
        assert sol.lam.tobytes() == plain.lam.tobytes() and sol.trace == plain.trace
        assert (sol.route, sol.combined_objective) == (plain.route, plain.combined_objective)
        routes = []
        for x0, end, f0, f_end in tried:
            w0, w_end = (node_weights(v, nodes, model) for v in (x0, end))
            route = solve_weighted_trp_dp(w0, D).route
            assert route not in routes
            routes.append(route)
            same = solve_weighted_trp_dp(w_end, D).route == route
            if refusal == "other_route":
                assert not same
            elif refusal == "above_best":
                assert same and f_end > f0
                assert reference_objective(end, data, nodes, D, cfg) > reference_objective(
                    x0, data, nodes, D, cfg
                )


class TestAlternating:
    def test_c1_zero_one_round_recovers_sequential(self, monkeypatch, small_blobs):
        _, nodes, D = opt_instance(1)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        cfg = MltrpConfig(c2=0.25, c1=0.0)
        ref = fit_logistic(small_blobs, cfg.c2)
        sol = solve("am", small_blobs, nodes, D, cfg)
        assert np.array_equal(sol.lam, ref.lam)
        assert sol.route == solve("sequential", small_blobs, nodes, D, cfg).route

    def test_single_round_counts(self, monkeypatch, small_blobs):
        _, nodes, D = opt_instance(8)
        dp_calls, descent_calls = [], []
        real_dp = trp_mod._held_karp
        real_descent = opt_mod.minimize_descent

        def counting_dp(*a, **k):
            dp_calls.append(1)
            return real_dp(*a, **k)

        def counting_descent(*a, **k):
            descent_calls.append(1)
            return real_descent(*a, **k)

        monkeypatch.setattr(trp_mod, "_held_karp", counting_dp)
        monkeypatch.setattr(opt_mod, "minimize_descent", counting_descent)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        cfg = MltrpConfig(c2=0.2, c1=0.6)
        sol = solve("am", small_blobs, nodes, D, cfg)
        assert len(descent_calls) == 1
        assert len(dp_calls) == 2  # the single round, and the final lam it does not certify
        assert len(sol.trace) == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", MODELS)
    def test_trace_monotone_and_beats_sequential(self, seed, model):
        data, nodes, D = opt_instance(seed, M=6)
        cfg = MltrpConfig(c2=0.15, c1=1.2, cost_model=model)
        sol = solve("am", data, nodes, D, cfg)
        seq = solve("sequential", data, nodes, D, cfg)
        diffs = np.diff(sol.trace)
        assert (diffs <= 1e-7).all()
        assert sol.combined_objective <= seq.combined_objective + 1e-9
        assert sol.method == "am"

    def test_every_inner_solve_converges(self, monkeypatch):
        # Gradient steps capped at 10000 iterations on 10 of these 32 descents.
        results = []
        real_descent = opt_mod.minimize_descent

        def recording_descent(*a, **k):
            results.append(real_descent(*a, **k))
            return results[-1]

        monkeypatch.setattr(opt_mod, "minimize_descent", recording_descent)
        for run in range(20):
            data, nodes, D, cfg = am_check_instance(run)
            solve("am", data, nodes, D, cfg)
        assert len(results) >= 20
        assert all(r.converged for r in results), [r.grad_norm for r in results]

    def test_unconverged_inner_solve_is_logged(self, caplog, monkeypatch):
        data, nodes, D = opt_instance(2)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        monkeypatch.setattr(learn_mod, "_MAX_ITERS", 1)
        cfg = MltrpConfig(c2=0.2, c1=1.0)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            solve("am", data, nodes, D, cfg)
        records = [r for r in caplog.records if r.name == "repairroute"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        msg = records[0].getMessage()
        assert "AM round 1" in msg and "after 1 iterations" in msg and "|grad| = " in msg

    def test_converged_solve_logs_nothing(self, caplog, small_blobs):
        _, nodes, D = opt_instance(3)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            solve("am", small_blobs, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
        assert not caplog.records

    @pytest.mark.parametrize("seed, model", [(1, "cost2"), (11, "cost1")])
    def test_round_cap_is_logged_only_when_it_stops_am(self, seed, model, caplog, monkeypatch):
        # On these instances the route at the fit's lam changes after one
        # round, and AM needs two rounds to see it repeat.
        data, nodes, D = opt_instance(seed, M=6)
        cfg = MltrpConfig(c2=0.15, c1=1.2, cost_model=model)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            full = solve("am", data, nodes, D, cfg)
        assert len(full.trace) == 2
        assert not caplog.records
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            capped = solve("am", data, nodes, D, cfg)
        assert capped.route != solve("sequential", data, nodes, D, cfg).route
        records = [r for r in caplog.records if r.name == "repairroute"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].getMessage() == "AM stopped at its cap of 1 rounds before the route repeated"

    def test_early_stop_on_route_repeat(self, monkeypatch, small_blobs):
        # C1 = 0 freezes lam after round one, so the route repeats at round
        # two and the loop must cut out long before _AM_ROUNDS.
        _, nodes, D = opt_instance(7)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 50)
        cfg = MltrpConfig(c2=0.3, c1=0.0)
        sol = solve("am", small_blobs, nodes, D, cfg)
        assert len(sol.trace) < 50


class TestSolutionInvariants:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", ["sequential", "nm", "am"])
    def test_certificate_and_objective_split(self, seed, method):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.2, c1=0.9)
        sol = solve(method, data, nodes, D, cfg)
        assert isinstance(sol, MltrpSolution)
        redo = solve_weighted_trp_dp(node_weights(sol.lam, nodes, cfg.cost_model), D)
        assert sol.route == redo.route
        assert sol.traversal_cost == redo.cost
        assert sol.combined_objective == pytest.approx(
            sol.training_error + 0.9 * sol.traversal_cost, abs=1e-9
        )
        assert sol.training_error == pytest.approx(
            loss_oracle(sol.lam, data, 0.2), rel=1e-10
        )


class TestFixedRouteGradient:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_central_differences(self, seed, model):
        data, nodes, D = opt_instance(seed, M=6)
        rng = np.random.default_rng(seed + 77)
        lam = rng.normal(scale=0.8, size=2)
        route = [1] + list(rng.permutation(range(2, 7)))
        cfg = MltrpConfig(c2=0.2, c1=1.4, cost_model=model)
        lats = latency(route, D)
        g = _fixed_route_gradient(lam, lats, data, nodes, cfg)
        num = np.empty_like(g)
        for i in range(lam.size):
            h = 1e-6 * max(1.0, abs(lam[i]))
            up, dn = lam.copy(), lam.copy()
            up[i] += h
            dn[i] -= h
            num[i] = (
                _fixed_route_objective(up, lats, data, nodes, cfg)
                - _fixed_route_objective(dn, lats, data, nodes, cfg)
            ) / (2 * h)
        assert np.allclose(g, num, rtol=1e-5, atol=1e-7)


class TestFixedRouteHessian:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_central_differences(self, seed, model):
        d = 2 + seed % 2
        data, nodes, D = opt_instance(seed, M=6, d=d)
        rng = np.random.default_rng(seed + 177)
        lam = rng.normal(scale=1.2, size=d)
        route = [1] + list(rng.permutation(range(2, 7)))
        cfg = MltrpConfig(c2=0.2, c1=1.4, cost_model=model)
        lats = latency(route, D)
        H = _fixed_route_hessian(lam, lats, data, nodes, cfg)
        num = np.empty((d, d))
        for i in range(d):
            h = 1e-6 * max(1.0, abs(lam[i]))
            up, dn = lam.copy(), lam.copy()
            up[i] += h
            dn[i] -= h
            num[:, i] = (
                _fixed_route_gradient(up, lats, data, nodes, cfg)
                - _fixed_route_gradient(dn, lats, data, nodes, cfg)
            ) / (2 * h)
        assert np.linalg.norm(H - num) / max(1.0, np.linalg.norm(num)) < 1e-5


class TestWeightDerivatives:
    @pytest.mark.parametrize("model", MODELS)
    def test_match_finite_differences_of_weight(self, model):
        w, dw, d2w = _WEIGHTS[model]
        z = np.linspace(-8.0, 8.0, 33)
        h = 1e-4
        first = (w(z + h) - w(z - h)) / (2 * h)
        second = (w(z + h) - 2.0 * w(z) + w(z - h)) / (h * h)
        assert np.allclose(dw(z), first, rtol=1e-6, atol=1e-9)
        assert np.allclose(d2w(z), second, rtol=1e-5, atol=1e-6)


class TestFixedRouteObjective:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", MODELS)
    def test_equals_obj_exactly(self, seed, model):
        # AM descends on this frozen-latency form; it must equal the combined
        # objective written out at the route, bit for bit.
        data, nodes, D = opt_instance(seed, M=6)
        rng = np.random.default_rng(seed + 300)
        route = [1] + list(rng.permutation(range(2, 7)))
        lats = latency(route, D)
        cfg = MltrpConfig(c2=0.2, c1=1.4, cost_model=model)
        for lam in rng.normal(scale=2.0, size=(5, 2)):
            w = node_weights(lam, nodes, model)
            expect = training_error(lam, data, 0.2) + 1.4 * cost1(route, w, D)
            assert _fixed_route_objective(lam, lats, data, nodes, cfg) == expect


class TestSweep:
    def test_zero_grid_row_equals_sequential(self, small_blobs):
        _, nodes, D = opt_instance(2)
        cfg = MltrpConfig(c2=0.2)
        rows = c1_sweep(small_blobs, nodes, D, cfg, [0.0], method="am")
        seq = solve("sequential", small_blobs, nodes, D, cfg)
        row = rows[0]
        assert row.c1 == 0.0
        assert row.route == seq.route
        assert row.traversal_cost == pytest.approx(seq.traversal_cost, rel=1e-12)
        assert row.train_loss == pytest.approx(seq.training_error, rel=1e-9)
        assert row.train_auc == auc(small_blobs.features @ seq.lam, small_blobs.labels)
        assert math.isnan(row.test_auc)

    def test_test_auc_column(self, small_blobs):
        _, nodes, D = opt_instance(3)
        test_data = blobs(99, per_side=10)
        rows = c1_sweep(
            small_blobs, nodes, D, MltrpConfig(c2=0.2), [0.0, 0.5], test_data=test_data
        )
        for row in rows:
            assert 0.0 <= row.test_auc <= 1.0

    def test_sequential_sweep_fits_and_routes_once(self, small_blobs, monkeypatch):
        # Neither the fit nor its route depends on C1, so one solve serves
        # every row, and the rows are those of solving at each C1.
        _, nodes, D = opt_instance(6)
        test_data = blobs(98, per_side=10)
        cfg, grid = MltrpConfig(c2=0.2), [0.0, 0.25, 1.0, 4.0]
        old = []
        for c1 in grid:
            sol = solve("sequential", small_blobs, nodes, D, replace(cfg, c1=c1))
            old.append(SweepRow(
                c1=c1, train_auc=auc(small_blobs.features @ sol.lam, small_blobs.labels),
                test_auc=auc(test_data.features @ sol.lam, test_data.labels),
                traversal_cost=sol.traversal_cost, train_loss=sol.training_error,
                route=sol.route,
            ))
        fits, dps = [], []
        real_fit, real_dp = opt_mod.fit_logistic, trp_mod._held_karp

        def counting_fit(*a):
            fits.append(1)
            return real_fit(*a)

        def counting_dp(*a):
            dps.append(1)
            return real_dp(*a)

        monkeypatch.setattr(opt_mod, "fit_logistic", counting_fit)
        monkeypatch.setattr(trp_mod, "_held_karp", counting_dp)
        rows = c1_sweep(small_blobs, nodes, D, cfg, grid, method="sequential", test_data=test_data)
        assert (len(fits), len(dps)) == (1, 1)
        assert rows == old

    def test_rejects_bad_grids(self, small_blobs):
        _, nodes, D = opt_instance(4)
        cfg = MltrpConfig(c2=0.2)
        with pytest.raises(ValueError):
            c1_sweep(small_blobs, nodes, D, cfg, [])
        with pytest.raises(ValueError):
            c1_sweep(small_blobs, nodes, D, cfg, [-0.5])
        with pytest.raises(ValueError):
            c1_sweep(small_blobs, nodes, D, cfg, [0.1], method="annealing")

    @pytest.mark.parametrize("seed", range(3))
    def test_grid_search_optimum_is_monotone(self, seed):
        # Exhaustive 2-D grid over lambda stands in as the global optimizer;
        # along the C1 path its traversal cost can only fall and its training
        # loss can only rise.
        data, nodes, D = opt_instance(seed, M=5)
        grid_1d = np.arange(-3.0, 3.0 + 1e-9, 0.25)
        lams = [np.array([a, b]) for a in grid_1d for b in grid_1d]
        losses = np.array([loss_oracle(lam, data, 0.1) for lam in lams])
        costs = np.array(
            [
                solve_weighted_trp_dp(node_weights(lam, nodes, "cost1"), D).cost
                for lam in lams
            ]
        )
        prev_cost, prev_loss = None, None
        for c1 in [0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0]:
            k = int(np.argmin(losses + c1 * costs))
            if prev_cost is not None:
                assert costs[k] <= prev_cost + 1e-12
                assert losses[k] >= prev_loss - 1e-12
            prev_cost, prev_loss = costs[k], losses[k]


class TestCsv:
    def test_route_string_closes_tour(self):
        assert route_string([1, 3, 2]) == "1-3-2-1"
        assert route_string([1, 2]) == "1-2-1"

    def test_csv_round_trip(self, small_blobs):
        _, nodes, D = opt_instance(5)
        rows = c1_sweep(small_blobs, nodes, D, MltrpConfig(c2=0.2), [0.0, 0.3, 0.9])
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "c1,train_auc,test_auc,traversal_cost,train_loss,route"
        assert len(lines) == 4
        for line, row in zip(lines[1:], rows):
            parts = line.split(",")
            assert float(parts[0]) == row.c1
            assert float(parts[3]) == row.traversal_cost
            assert float(parts[4]) == row.train_loss
            assert parts[5] == route_string(row.route)
        assert sweep_csv(rows) == text
