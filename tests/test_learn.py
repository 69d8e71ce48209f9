import math

import numpy as np
import pytest

from repairroute.core import LabeledDataset, sigmoid
import repairroute.learn as learn_mod
from repairroute.learn import (
    auc,
    fit_logistic,
    minimize_descent,
    training_error,
    training_gradient,
    training_hessian,
)

from conftest import blobs


class TestTrainingError:
    def test_zero_lambda_is_m_log_two(self, small_blobs):
        val = training_error(np.zeros(small_blobs.d), small_blobs, 0.0)
        assert val == pytest.approx(small_blobs.m * math.log(2.0), rel=1e-14)

    def test_huge_margin_contributes_almost_nothing(self):
        ds = LabeledDataset(features=[[50.0]], labels=[1.0])
        assert training_error(np.array([1.0]), ds, 0.0) < 1e-21

    def test_regularizer_term(self):
        ds = LabeledDataset(features=[[1.0, 0.0]], labels=[1.0])
        lam = np.array([3.0, -4.0])
        with_reg = training_error(lam, ds, 0.7)
        without = training_error(lam, ds, 0.0)
        assert with_reg - without == pytest.approx(0.7 * 25.0, rel=1e-14)

    def test_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        ds = blobs(21, per_side=10, d=3)
        rng = np.random.default_rng(22)
        lam = rng.normal(size=3)
        C2 = 0.3
        total = mp.mpf(0)
        for x, y in zip(ds.features, ds.labels):
            margin = mp.mpf(float(y)) * mp.fsum(
                mp.mpf(float(a)) * mp.mpf(float(b)) for a, b in zip(lam, x)
            )
            total += mp.log(1 + mp.exp(-margin))
        total += mp.mpf(C2) * mp.fsum(mp.mpf(float(v)) ** 2 for v in lam)
        assert training_error(lam, ds, C2) == pytest.approx(float(total), rel=1e-12)

    @pytest.mark.parametrize("seed", range(100))
    def test_convexity_on_random_chords(self, seed):
        rng = np.random.default_rng(seed)
        ds = blobs(seed, per_side=8, d=2)
        a, b = rng.normal(size=2), rng.normal(size=2)
        t = float(rng.uniform())
        mid = t * a + (1 - t) * b
        C2 = float(rng.uniform(0, 1))
        lhs = training_error(mid, ds, C2)
        rhs = t * training_error(a, ds, C2) + (1 - t) * training_error(b, ds, C2)
        assert lhs <= rhs + 1e-9


class TestTrainingGradient:
    def test_symmetric_pair_at_zero(self):
        # Two mirrored examples with opposite labels pull equally: grad = -x.
        ds = LabeledDataset(features=[[1.0, 2.0], [-1.0, -2.0]], labels=[1.0, -1.0])
        g = training_gradient(np.zeros(2), ds, 0.0)
        assert g == pytest.approx([-1.0, -2.0], rel=1e-14)

    def test_regularizer_gradient(self):
        ds = blobs(5, per_side=5)
        lam = np.array([0.7, -1.1])
        diff = training_gradient(lam, ds, 2.0) - training_gradient(lam, ds, 0.0)
        assert diff == pytest.approx(2 * 2.0 * lam, rel=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        ds = blobs(seed, per_side=10, d=d)
        lam = rng.normal(scale=0.8, size=d)
        C2 = float(rng.uniform(0, 2))
        g = training_gradient(lam, ds, C2)
        h = 1e-6
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (training_error(lam + e, ds, C2) - training_error(lam - e, ds, C2)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(fd)))
        assert float(np.linalg.norm(g - fd)) / denom < 1e-5


class TestTrainingHessian:
    @pytest.mark.parametrize("seed", range(20))
    def test_central_differences_of_gradient(self, seed):
        rng = np.random.default_rng(seed + 900)
        d = int(rng.integers(2, 5))
        ds = blobs(seed, per_side=10, d=d)
        lam = rng.normal(scale=1.2, size=d)
        C2 = float(rng.uniform(0, 2))
        H = training_hessian(lam, ds, C2)
        num = np.empty((d, d))
        for i in range(d):
            h = 1e-6 * max(1.0, abs(lam[i]))
            up, dn = lam.copy(), lam.copy()
            up[i] += h
            dn[i] -= h
            num[:, i] = (training_gradient(up, ds, C2) - training_gradient(dn, ds, C2)) / (2 * h)
        assert np.linalg.norm(H - num) / max(1.0, np.linalg.norm(num)) < 1e-5


class TestNewtonDescent:
    def test_quadratic_in_one_step(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, -2.0])
        res = minimize_descent(
            lambda x: 0.5 * x @ A @ x - b @ x, lambda x: A @ x - b, np.zeros(2),
            hess=lambda x: A,
        )
        assert res.converged
        assert res.iterations == 1
        assert res.lam == pytest.approx(np.linalg.solve(A, b), rel=1e-12)

    def test_indefinite_start_still_descends(self):
        # x0^4 - x0^2 + x1^2 has negative curvature near x0 = 0; the shifted
        # Hessian must still give descent steps down to a minimum at x0^2 = 1/2.
        fun = lambda x: x[0] ** 4 - x[0] ** 2 + x[1] ** 2  # noqa: E731
        grad = lambda x: np.array([4 * x[0] ** 3 - 2 * x[0], 2 * x[1]])  # noqa: E731
        hess = lambda x: np.diag([12 * x[0] ** 2 - 2, 2.0])  # noqa: E731
        res = minimize_descent(fun, grad, [0.1, 1.0], hess=hess)
        assert res.converged
        assert res.lam == pytest.approx([math.sqrt(0.5), 0.0], abs=1e-8)
        assert res.loss < fun(np.array([0.1, 1.0]))

    def test_non_finite_hessian_falls_back_to_gradient(self):
        # Features near 1e160 make X^T X overflow while the gradient is finite.
        A = np.diag([1.0, 2.0])
        res = minimize_descent(
            lambda x: 0.5 * x @ A @ x, lambda x: A @ x, [1.0, -1.0],
            hess=lambda x: np.full((2, 2), np.inf),
        )
        assert res.converged
        assert np.abs(res.lam).max() < 1e-8

    @pytest.mark.parametrize("noise_ulps, converged", [(8, True), (64, False)])
    def test_rounding_level_acceptance(self, noise_ulps, converged):
        # Every move off x0 reads noise_ulps eps above the true loss, which is
        # more than the true decrease (about two ulps of f) but, at 8 ulps,
        # within the 16 eps |f| the full Newton step may rise.  At 64 ulps
        # every trial fails until the step no longer moves x0, and the
        # descent stops there instead of spinning to _MAX_ITERS.
        x0 = np.array([3e-8])
        eps = np.finfo(float).eps

        def fun(x):
            noise = 0.0 if x[0] == x0[0] else noise_ulps * eps
            return 1.0 + 0.5 * x[0] ** 2 + noise

        res = minimize_descent(fun, lambda x: x.copy(), x0,
                               hess=lambda x: np.eye(1))
        assert res.converged is converged
        assert res.iterations == 1
        assert res.lam[0] == (0.0 if converged else x0[0])


class TestFitLogistic:
    def test_separable_two_points(self):
        ds = LabeledDataset(features=[[1.0], [-1.0]], labels=[1.0, -1.0])
        res = fit_logistic(ds, 0.1)
        assert res.converged
        assert res.lam[0] > 0.0
        assert sigmoid(res.lam[0]) > 0.5 > sigmoid(-res.lam[0])

    def test_heavy_regularization_shrinks_to_zero(self, small_blobs):
        res = fit_logistic(small_blobs, 1e6)
        assert float(np.linalg.norm(res.lam)) < 1e-3

    def test_descent_never_increases_loss(self, monkeypatch, small_blobs):
        # Spot-check by re-running with progressively more iterations.
        losses = []
        for k in (1, 3, 10, 50, 200):
            monkeypatch.setattr(learn_mod, "_MAX_ITERS", k)
            losses.append(fit_logistic(small_blobs, 0.2).loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_matches_second_order_reference(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        ds = blobs(31, per_side=25, d=3)
        C2 = 0.15
        res = fit_logistic(ds, C2)

        # Independent loss: logaddexp form, no shared code with the package.
        X, y = ds.features, ds.labels

        def ref_loss(lam):
            return float(np.logaddexp(0.0, -y * (X @ lam)).sum() + C2 * lam @ lam)

        ref = scipy_opt.minimize(
            ref_loss, np.zeros(3), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        assert res.loss == pytest.approx(ref.fun, abs=1e-6)

    def test_blobs_seed5_in_few_newton_steps(self):
        # Near this fit's optimum, steps along -g round back to x while |g|
        # is still above _GRAD_TOL; Newton steps reach it in a few.
        res = fit_logistic(blobs(5, per_side=10), 0.2)
        assert res.converged
        assert res.iterations <= 10

    def test_badly_scaled_feature_converges(self):
        # Curvature near 1e12 along the only coordinate: a step along -g must
        # be about 1e-12 long, while the Newton step is scaled by the curvature.
        ds = LabeledDataset(features=[[1e6], [-1e6], [3e5]], labels=[1.0, -1.0, -1.0])
        res = fit_logistic(ds, 0.1)
        assert res.converged

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_equal_columns_singular_hessian_converges(self, scale):
        # Two equal columns and no penalty make every Hessian singular, so
        # each Newton direction comes from a shifted matrix; scale 1e4 also
        # makes the loss badly conditioned along the columns' sum.
        x = np.random.default_rng(3).normal(size=12) * scale
        y = np.where(np.arange(12) % 3 == 0, 1.0, -1.0)
        res = fit_logistic(LabeledDataset(features=np.column_stack([x, x]), labels=y), 0.0)
        one = fit_logistic(LabeledDataset(features=x[:, None], labels=y), 0.0)
        assert res.converged
        assert res.loss == pytest.approx(one.loss, rel=1e-12)

    @pytest.mark.parametrize("C2", [-1.0, math.nan, math.inf])
    def test_rejects_bad_c2(self, small_blobs, C2):
        with pytest.raises(ValueError, match=r"^C2 must be finite and >= 0$"):
            fit_logistic(small_blobs, C2)

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=[[np.inf]], labels=[1.0])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0

    def test_all_tied_scores(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, -1, 1, -1]) == 0.5

    def test_signed_zeros_tie(self):
        # -0.0 == 0.0, so the two share the average rank.
        assert auc([0.0, -0.0, 1.0, -1.0], [1, -1, 1, -1]) == 0.875

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.4, 0.6], [1, 1])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_pairwise_count_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 40))
        scores = rng.integers(0, 6, size=n).astype(float)  # force plenty of ties
        labels = rng.choice([-1.0, 1.0], size=n)
        if not ((labels == 1).any() and (labels == -1).any()):
            labels[0], labels[1] = 1.0, -1.0
        pos = scores[labels == 1]
        neg = scores[labels == -1]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        expected = wins / (len(pos) * len(neg))
        assert auc(scores, labels) == expected  # bitwise: both are dyadic sums

    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=25)
        labels = rng.choice([-1.0, 1.0], size=25)
        if not ((labels == 1).any() and (labels == -1).any()):
            labels[0], labels[1] = 1.0, -1.0
        assert auc(scores, labels) == auc(np.tanh(scores) * 3 + 1, labels)
