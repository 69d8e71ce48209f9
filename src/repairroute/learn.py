"""Regularized logistic training and ranking diagnostics.

The trainer minimizes the regularized logistic loss by damped Newton steps
with Armijo backtracking.  The alternating scheme in :mod:`repairroute.opt`
runs its coefficient step through the same minimizer, with a routing term
added to the objective and its Hessian.
"""

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, sigmoid, softplus

_MAX_ITERS = 10000
_GRAD_TOL = 1e-8
_SHRINK = 0.5  # backtracking factor
_ARMIJO_C = 1e-4
_STEP_FLOOR = 1e-20
_SHIFT0 = 1e-3  # first nonzero Hessian shift (Nocedal & Wright, Alg. 3.3)
_ROUNDING = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FitResult:
    lam: np.ndarray
    loss: float
    grad_norm: float
    iterations: int
    converged: bool


def training_error(lam, data: LabeledDataset, C2: float) -> float:
    """Logistic loss sum log(1 + exp(-y_i lam.x_i)) plus C2 * ||lam||^2."""
    lam = np.asarray(lam, dtype=float).ravel()
    margins = data.labels * (data.features @ lam)
    return float(np.add.reduce(softplus(-margins)) + C2 * lam @ lam)


def training_gradient(lam, data: LabeledDataset, C2: float) -> np.ndarray:
    """Gradient of :func:`training_error` at lam."""
    lam = np.asarray(lam, dtype=float).ravel()
    margins = data.labels * (data.features @ lam)
    slack = sigmoid(-margins)
    return -(data.features.T @ (data.labels * slack)) + 2.0 * C2 * lam


def training_hessian(lam, data: LabeledDataset, C2: float) -> np.ndarray:
    """Hessian of :func:`training_error` at lam: X^T diag(s(1-s)) X + 2 C2 I."""
    lam = np.asarray(lam, dtype=float).ravel()
    s = sigmoid(data.labels * (data.features @ lam))
    X = data.features
    return X.T @ ((s * (1.0 - s))[:, None] * X) + 2.0 * C2 * np.eye(lam.shape[0])


def _newton_direction(H, g) -> np.ndarray:
    """-(H + tau I)^-1 g for the first tau >= 0 at which Cholesky succeeds.

    tau starts at 0 when H's diagonal is positive and doubles from _SHIFT0
    otherwise (Nocedal & Wright, Alg. 3.3), so an indefinite H still yields
    a descent direction.  A non-finite H falls back to -g.
    """
    if not np.isfinite(H).all():
        return -g
    eye = np.eye(g.shape[0])
    dmin = float(H.diagonal().min())
    tau = 0.0 if dmin > 0 else _SHIFT0 - dmin
    while True:
        A = H + tau * eye
        try:
            np.linalg.cholesky(A)
            return -np.linalg.solve(A, g)
        except np.linalg.LinAlgError:
            tau = max(2.0 * tau, _SHIFT0)


def _newton_step(fun, grad, H, x, f, g):
    """Backtrack along the Newton direction from s = 1: (cand, fun(cand)), or None."""
    p = _newton_direction(H, g)
    slope = float(g @ p)
    if not slope < 0:  # lost to rounding: steepest descent instead
        p, slope = -g, -float(g @ g)
    s = 1.0
    while s >= _STEP_FLOOR:
        cand = x + s * p
        if np.array_equal(cand, x):  # the step no longer moves x
            return None
        fc = fun(cand)
        if np.isfinite(fc):
            if fc <= f + _ARMIJO_C * s * slope:
                return cand, fc
            # Near the minimum the predicted decrease falls below what f can
            # resolve; a full step that stays within rounding of f and lowers
            # the gradient norm is progress (Hager & Zhang's approximate Wolfe).
            if s == 1.0 and fc <= f + _ROUNDING * abs(f):
                if np.linalg.norm(grad(cand)) < np.linalg.norm(g):
                    return cand, fc
        s *= _SHRINK
    return None


def minimize_descent(fun, grad, x0, hess) -> FitResult:
    """Damped Newton descent with Armijo backtracking on a smooth objective.

    hess is a callable returning the Hessian.  Each step's direction solves
    (H + tau I) p = -g for the smallest tried shift tau >= 0 that makes the
    matrix positive definite, and its trial length starts at 1 and shrinks
    by _SHRINK.  A full step that fails the Armijo test is still
    accepted when its loss is within 16 eps |f| of f and its gradient norm
    is smaller, since there the loss cannot resolve the predicted decrease.

    Convexity holds only for the plain logistic fit.  The alternating
    scheme's fixed-route objective under cost1 (sigmoid weights times
    latencies) is not convex, and there the descent may stop at a local
    minimum.

    Stops when the gradient norm drops to _GRAD_TOL, a step no longer moves
    x or stalls at the step floor, or _MAX_ITERS is reached.
    """
    x = np.asarray(x0, dtype=float).ravel().copy()
    f = fun(x)
    if not np.isfinite(f):
        raise ValueError("non-finite loss at the starting point; check data scaling")
    gnorm = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_ITERS + 1):
        g = grad(x)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _GRAD_TOL:
            converged = True
            iterations -= 1
            break
        taken = _newton_step(fun, grad, hess(x), x, f, g)
        if taken is None:
            break
        x, f = taken
    if not converged:
        g = grad(x)
        gnorm = float(np.linalg.norm(g))
        converged = gnorm <= _GRAD_TOL
    return FitResult(lam=x, loss=float(f), grad_norm=gnorm, iterations=iterations, converged=converged)


def fit_logistic(data: LabeledDataset, C2: float) -> FitResult:
    """Minimize the regularized logistic loss from a zero start.

    C2 is the coefficient of the squared-norm penalty and must be chosen by
    the caller; there is no hidden default regularization.
    """
    if not (np.isfinite(C2) and C2 >= 0):
        raise ValueError("C2 must be finite and >= 0")
    return minimize_descent(
        lambda lam: training_error(lam, data, C2),
        lambda lam: training_gradient(lam, data, C2),
        np.zeros(data.d),
        hess=lambda lam: training_hessian(lam, data, C2),
    )


def auc(scores, labels) -> float:
    """Area under the ROC curve by the rank-sum statistic; ties count 1/2.

    Equals the probability that a uniformly drawn positive outscores a
    uniformly drawn negative, with ties worth half.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    pos = labels == 1.0
    npos = int(pos.sum())
    nneg = labels.shape[0] - npos
    if npos == 0 or nneg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    order = np.argsort(scores, kind="mergesort")
    srt = scores[order]
    # Tie runs [first, last] of the sorted scores; each member's rank is the
    # average of the run's 1-based ranks.
    first = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
    last = np.r_[first[1:], srt.shape[0]] - 1
    ranks = np.empty(scores.shape[0])
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    u = ranks[pos].sum() - npos * (npos + 1) / 2.0
    return float(u / (npos * nneg))
