import itertools
import logging
import math

import numpy as np
import pytest

import repairroute.opt as opt_mod
from repairroute.core import LabeledDataset, cost1, latency, standard_trp_cost
from repairroute.demo import six_node
import repairroute.learn as learn_mod
from repairroute.learn import auc, fit_logistic, training_error
from repairroute.opt import (
    MltrpConfig,
    MltrpSolution,
    alternating_minimization,
    c1_sweep,
    nelder_mead,
    node_weights,
    route_string,
    sequential_pipeline,
    simultaneous_objective,
    sweep_csv,
    _WEIGHTS,
    _fixed_route_gradient,
    _fixed_route_hessian,
    _fixed_route_objective,
)
from repairroute.trp import TIE_TOL, solve_weighted_trp_dp

from conftest import blobs, random_instance, solve_weighted_trp_bruteforce, twin_last_node

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
        assert simultaneous_objective(lam, small_blobs, nodes, D, cfg) == pytest.approx(
            loss_oracle(lam, small_blobs, 0.4), rel=1e-12
        )

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
        got = simultaneous_objective(lam, small_blobs, nodes, D, cfg)
        expect = loss_oracle(lam, small_blobs, 0.1) + 3.0 * w * best_std
        assert got == pytest.approx(expect, rel=1e-12)

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
        got = simultaneous_objective(lam, data, nodes, D, cfg)
        assert got == pytest.approx(loss_oracle(lam, data, 0.2) + 1.3 * best, rel=1e-11)


class TestSequential:
    @pytest.mark.parametrize("seed", range(5))
    def test_c1_is_irrelevant(self, seed):
        data, nodes, D = opt_instance(seed)
        a = sequential_pipeline(data, nodes, D, MltrpConfig(c2=0.2, c1=0.0))
        b = sequential_pipeline(data, nodes, D, MltrpConfig(c2=0.2, c1=7.5))
        assert np.array_equal(a.lam, b.lam)
        assert a.route == b.route
        assert a.traversal_cost == b.traversal_cost
        assert b.combined_objective == pytest.approx(
            b.training_error + 7.5 * b.traversal_cost, abs=1e-9
        )

    def test_two_cluster_route_matches_brute_force(self):
        inst = six_node()
        sol = sequential_pipeline(inst.train, inst.nodes, inst.D, inst.cfg)
        w = node_weights(sol.lam, inst.nodes, inst.cfg.cost_model)
        assert sol.route == solve_weighted_trp_bruteforce(w, inst.D).route
        assert sol.method == "sequential"

    def test_degenerate_two_nodes(self, small_blobs):
        nodes = np.array([[0.5, 0.5], [-0.5, 1.0]])
        D = np.array([[0.0, 2.0], [3.0, 0.0]])
        sol = sequential_pipeline(small_blobs, nodes, D, MltrpConfig(c2=0.5))
        assert sol.route == [1, 2]


class TestNelderMead:
    @pytest.mark.parametrize("seed", range(4))
    def test_c1_zero_matches_logistic_fit(self, seed):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.3, c1=0.0)
        ref = fit_logistic(data, cfg.c2)
        sol = nelder_mead(data, nodes, D, cfg)
        assert abs(sol.training_error - ref.loss) < 1e-4
        assert sol.route == sequential_pipeline(data, nodes, D, cfg).route

    def test_flat_landscape_stays_at_start(self):
        data = LabeledDataset(
            features=np.zeros((10, 2)),
            labels=np.array([1.0, -1.0] * 5),
        )
        _, nodes, D = opt_instance(9)
        lam0 = np.array([0.3, -0.2])
        sol = nelder_mead(data, nodes, D, MltrpConfig(c2=0.0, c1=0.0), lam0=lam0)
        assert np.array_equal(sol.lam, lam0)
        assert all(v == pytest.approx(10 * math.log(2.0), rel=1e-12) for v in sol.trace)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("model", MODELS)
    def test_never_worse_than_start_and_trace_monotone(self, seed, model):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        lam0 = fit_logistic(data, cfg.c2).lam
        sol = nelder_mead(data, nodes, D, cfg, lam0=lam0)
        start = simultaneous_objective(lam0, data, nodes, D, cfg)
        assert sol.combined_objective <= start + 1e-12
        assert all(b <= a for a, b in zip(sol.trace, sol.trace[1:]))
        assert sol.method == "nm"

    def test_non_finite_vertex_is_reported(self, small_blobs):
        _, nodes, D = opt_instance(2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            nelder_mead(
                small_blobs, nodes, D, MltrpConfig(c2=0.5, c1=1.0), lam0=[1e200, 1e200]
            )

    def test_budget_stop_is_logged(self, caplog, monkeypatch):
        data, nodes, D = opt_instance(2)
        evals = []
        real_eval = opt_mod.simultaneous_objective

        def counting_eval(*a, **k):
            evals.append(1)
            return real_eval(*a, **k)

        monkeypatch.setattr(opt_mod, "simultaneous_objective", counting_eval)
        monkeypatch.setattr(opt_mod, "_NM_MAX_EVALS", 10)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            nelder_mead(data, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
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
            nelder_mead(data, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
        assert not caplog.records


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
    """Run nelder_mead, recording every DP solution and, per evaluation,
    (lam, value, the anchor's solution if the DP was skipped else None);
    the spies are removed before returning."""
    solved, evals = [], []
    real_dp, real_eval = opt_mod.solve_weighted_trp_dp, opt_mod.simultaneous_objective

    def spy_dp(w, D):
        solved.append(real_dp(w, D))
        return solved[-1]

    def spy_eval(lam, *a, **k):
        before = len(solved)
        val = real_eval(lam, *a, **k)
        evals.append((lam.copy(), val, solved[-1] if len(solved) == before else None))
        return val

    monkeypatch.setattr(opt_mod, "solve_weighted_trp_dp", spy_dp)
    monkeypatch.setattr(opt_mod, "simultaneous_objective", spy_eval)
    nelder_mead(data, nodes, D, cfg)
    monkeypatch.undo()
    return solved, evals


class TestMarginCertificate:
    @pytest.mark.parametrize("M", range(6, 10))
    @pytest.mark.parametrize("model", MODELS)
    def test_skipped_evaluations_equal_the_dp(self, M, model, monkeypatch):
        data, nodes, D = opt_instance(40 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        solved, evals = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        skipped = [(lam, anchor) for lam, _, anchor in evals if anchor is not None]
        for lam, val, _ in evals:
            assert val == simultaneous_objective(lam, data, nodes, D, cfg)
        for lam, anchor in skipped:
            w = node_weights(lam, nodes, model)
            fresh = solve_weighted_trp_dp(w, D)
            assert fresh.route == anchor.route
            assert fresh.cost == float(w @ latency(anchor.route, D))
        # every DP call but the final certificate was an evaluation
        assert len(solved) - 1 == len(evals) - len(skipped) < len(evals)

    def test_anchor_matches_the_dp_along_weight_rays(self, monkeypatch):
        # Anchored at w0, query weights that move one node's weight down to
        # zero and up by one: the rays cross route changes, and every answer
        # must equal the DP's, whether reused or solved.
        calls = []
        real_dp = opt_mod.solve_weighted_trp_dp

        def counting_dp(w, D):
            calls.append(1)
            return real_dp(w, D)

        monkeypatch.setattr(opt_mod, "solve_weighted_trp_dp", counting_dp)
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
                    anchor.cost(w0, D)
                    before = len(calls)
                    got = anchor.cost(w, D)
                    reused += len(calls) == before
                    fresh = solve_weighted_trp_dp(w, D)
                    changed += fresh.route != route0
                    assert got == fresh.cost, (seed, j, step)
        assert reused > 50 and changed > 100

    @pytest.mark.parametrize("model", MODELS)
    def test_tied_routes_never_skip(self, model, monkeypatch):
        data, nodes, D = tied_instance(11, 8)
        cfg = MltrpConfig(c2=0.2, c1=0.5, cost_model=model)
        solved, evals = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        assert all(anchor is None for _, _, anchor in evals)
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

    def cost(self, w, D):
        if self._w0 is not None:
            r = self._reach * float(np.abs(w - self._w0).sum())
            if self._margin - r > TIE_TOL + 1e-9 * (1.0 + self._cost0 + r):
                return float(w @ self._lats)
        sol = opt_mod.solve_weighted_trp_dp(w, D)
        self._w0, self._cost0, self._margin = w, sol.cost, min(sol.step_margins)
        self._lats = latency(sol.route, self._D)
        return sol.cost


class TestStepCertificate:
    @pytest.mark.parametrize("M", range(6, 11))
    @pytest.mark.parametrize("model", MODELS)
    def test_skips_more_than_the_margin_alone(self, M, model, monkeypatch):
        # Same search, same values; the per-step gaps leave fewer DP calls
        # than the single margin, and every skipped point is the DP's answer.
        data, nodes, D = opt_instance(60 + M, M=M)
        cfg = MltrpConfig(c2=0.2, c1=0.8, cost_model=model)
        solved, evals = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        monkeypatch.setattr(opt_mod, "_RouteAnchor", MarginAnchor)
        solved_margin, evals_margin = spy_nelder_mead(monkeypatch, data, nodes, D, cfg)
        assert [(lam.tolist(), val) for lam, val, _ in evals] == [
            (lam.tolist(), val) for lam, val, _ in evals_margin
        ]
        assert len(solved) < len(solved_margin)
        for lam, val, anchor in evals:
            assert val == simultaneous_objective(lam, data, nodes, D, cfg)
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
        anchor.cost(w0, D)
        for j in range(M):
            w = w0.copy()
            w[j] = bad
            with pytest.raises(ValueError, match="weights contain non-finite values"):
                anchor.cost(w, D)
            assert anchor.cost(w0, D) == solve_weighted_trp_dp(w0, D).cost


class TestAlternating:
    def test_c1_zero_one_round_recovers_sequential(self, monkeypatch, small_blobs):
        _, nodes, D = opt_instance(1)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        cfg = MltrpConfig(c2=0.25, c1=0.0)
        ref = fit_logistic(small_blobs, cfg.c2)
        sol = alternating_minimization(small_blobs, nodes, D, cfg)
        assert np.array_equal(sol.lam, ref.lam)
        assert sol.route == sequential_pipeline(small_blobs, nodes, D, cfg).route

    def test_single_round_counts(self, monkeypatch, small_blobs):
        _, nodes, D = opt_instance(8)
        dp_calls, descent_calls = [], []
        real_dp = opt_mod.solve_weighted_trp_dp
        real_descent = opt_mod.minimize_descent

        def counting_dp(*a, **k):
            dp_calls.append(1)
            return real_dp(*a, **k)

        def counting_descent(*a, **k):
            descent_calls.append(1)
            return real_descent(*a, **k)

        monkeypatch.setattr(opt_mod, "solve_weighted_trp_dp", counting_dp)
        monkeypatch.setattr(opt_mod, "minimize_descent", counting_descent)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        cfg = MltrpConfig(c2=0.2, c1=0.6)
        sol = alternating_minimization(small_blobs, nodes, D, cfg)
        assert len(descent_calls) == 1
        assert len(dp_calls) == 2  # the single round plus the final certificate
        assert len(sol.trace) == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("model", MODELS)
    def test_trace_monotone_and_beats_sequential(self, seed, model):
        data, nodes, D = opt_instance(seed, M=6)
        cfg = MltrpConfig(c2=0.15, c1=1.2, cost_model=model)
        sol = alternating_minimization(data, nodes, D, cfg)
        seq = sequential_pipeline(data, nodes, D, cfg)
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
            alternating_minimization(data, nodes, D, cfg)
        assert len(results) >= 20
        assert all(r.converged for r in results), [r.grad_norm for r in results]

    def test_unconverged_inner_solve_is_logged(self, caplog, monkeypatch):
        data, nodes, D = opt_instance(2)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 1)
        monkeypatch.setattr(learn_mod, "_MAX_ITERS", 1)
        cfg = MltrpConfig(c2=0.2, c1=1.0)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            alternating_minimization(data, nodes, D, cfg)
        records = [r for r in caplog.records if r.name == "repairroute"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        msg = records[0].getMessage()
        assert "AM round 1" in msg and "after 1 iterations" in msg and "|grad| = " in msg

    def test_converged_solve_logs_nothing(self, caplog, small_blobs):
        _, nodes, D = opt_instance(3)
        with caplog.at_level(logging.WARNING, logger="repairroute"):
            alternating_minimization(small_blobs, nodes, D, MltrpConfig(c2=0.2, c1=1.0))
        assert not caplog.records

    def test_early_stop_on_route_repeat(self, monkeypatch, small_blobs):
        # C1 = 0 freezes lam after round one, so the route repeats at round
        # two and the loop must cut out long before _AM_ROUNDS.
        _, nodes, D = opt_instance(7)
        monkeypatch.setattr(opt_mod, "_AM_ROUNDS", 50)
        cfg = MltrpConfig(c2=0.3, c1=0.0)
        sol = alternating_minimization(small_blobs, nodes, D, cfg)
        assert len(sol.trace) < 50


class TestSolutionInvariants:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("method", ["sequential", "nm", "am"])
    def test_certificate_and_objective_split(self, seed, method):
        data, nodes, D = opt_instance(seed)
        cfg = MltrpConfig(c2=0.2, c1=0.9)
        sol = {
            "sequential": sequential_pipeline,
            "nm": nelder_mead,
            "am": alternating_minimization,
        }[method](data, nodes, D, cfg)
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
        seq = sequential_pipeline(small_blobs, nodes, D, cfg)
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
