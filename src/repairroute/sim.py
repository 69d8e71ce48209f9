"""Monte Carlo validation of the closed-form traversal costs.

Failures at a node happen once per unit time step with a fixed probability.
The count cost adds up failures that land before the node's repair visit;
the early-failure cost asks only whether the first failure does.  Streams
are PCG64 generators seeded per node from (seed, node index), so estimates
are reproducible bit for bit and independent of evaluation order.

A node's failure count is one binomial draw per trial.  Where numpy's
sampler inverts the distribution (n * min(p, 1 - p) <= 30, which holds
unless the node expects more than about 30 failures before its repair) the
counts are read from a table of the inversion's exact thresholds, one
lookup per uniform of the node's stream, so they equal Generator.binomial's
draw for draw; numpy's other branch (BTPE) is still called as is.  The
first-failure cost needs only whether a node's first failure comes by its
visit, so each trial compares one draw of numpy's geometric sampler (a
uniform, or a standard exponential below p = 1/3) with that sampler's exact
threshold for the step count (_first_failures); the indicators equal
Generator.geometric's draw for draw, without forming the draws.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_distance_matrix, as_weights, latency
from .opt import COST_MODELS

# Cells of the binomial guide table; a power of two, so U * _GUIDE is exact.
_GUIDE = 1024
# Trials drawn per batch, so the lookup's temporaries stay bounded.
_CHUNK = 16384
_GRID = 2.0**53  # numpy's uniforms are multiples of 1 / _GRID in [0, 1)
# numpy's geometric sampler searches for p at or above this and inverts below.
_GEOMETRIC_SEARCH = 0.333333333333333333333333


@dataclass(frozen=True)
class SimConfig:
    trials: int = 100_000
    seed: int = 0
    steps_per_unit: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.steps_per_unit < 2**63:
            raise ValueError("steps_per_unit must be an integer from 1 to 2**63 - 1")
        if not 0 <= int(self.seed) < 2**63:
            raise ValueError("seed must be a nonnegative 63-bit integer")


def _rng(seed: int, stream: int):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), int(stream)))))


def _steps(lat: float, k: int) -> int:
    if lat < 0 or not math.isfinite(lat):
        raise ValueError("latency must be finite and nonnegative")
    steps = lat * k
    if steps == math.inf:
        raise ValueError(f"latency {lat!r} at {k} steps per unit overflows the step count")
    return int(math.floor(steps))


def _inversion_thresholds(n: int, p: float) -> np.ndarray:
    """Thresholds tau_0 <= ... <= tau_bound of numpy's binomial inversion.

    numpy's inversion (Kachitvichyanukul & Schmeiser) draws U, then for
    X = 0, 1, ... stops at the first X with U_X <= px_X, where U_0 = U,
    U_{X+1} = U_X - px_X rounded, and px follows a recurrence that does not
    involve U; past `bound` it draws a new U.  Rounded subtraction is
    monotone, so the U that stop by step x form an interval [0, tau_x], and
    the draw is the number of x with U > tau_x.  Stopping at step x - 1
    implies stopping at x (then U_x <= 0 <= px_x), so tau is nondecreasing.
    px and bound use numpy's expressions in numpy's order.  Each tau_x is
    found exactly: the chain runs on numpy's grid of U (multiples of 2**-53)
    in a window around the running sum of px, widened until every row's
    window brackets its boundary.  The chain drifts from the running sum by
    at most about one grid step per subtraction, so one widening suffices.
    """
    q = 1.0 - p
    px = [math.exp(n * math.log1p(-p))]
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
    for x in range(1, bound + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    px = np.array(px)
    centre = np.rint(np.cumsum(px) * _GRID)
    half = 64
    while True:
        k = np.clip(centre[:, None] + np.arange(-half, half + 1), 0.0, _GRID - 1.0)
        u = k / _GRID
        for x in range(bound):
            u[x + 1 :] -= px[x]  # row x then holds U_x for each candidate
        stop = u <= px[:, None]
        # Bracketed: each row's lowest candidate stops (U = 0 always does)
        # and its highest does not, unless it is the largest U there is.
        if stop[:, 0].all() and (~stop[:, -1] | (k[:, -1] == _GRID - 1.0)).all():
            return k[np.arange(bound + 1), stop.sum(axis=1) - 1] / _GRID
        half *= 4


def _binomial(gen, n: int, p: float, size: int) -> np.ndarray:
    """Exactly gen.binomial(n, p, size=size), leaving gen in the same state.

    Where numpy inverts (n * min(p, 1 - p) <= 30) the draws are looked up
    in the inversion's thresholds (_inversion_thresholds) from the same
    uniforms: a guide table over [0, 1) (Chen & Asau) gives each U a first
    candidate and a short scan finishes.  A U above the last threshold is
    dropped and the next one taken, as numpy restarts; for p > 0.5 numpy
    inverts 1 - p and returns n minus the draw.  Everything else (numpy's
    BTPE branch, n = 0, p = 0 and inputs numpy rejects) goes to
    gen.binomial.
    """
    if not (0 < n < 2**63 and 0.0 < p <= 1.0):
        return gen.binomial(n, p, size=size)
    flip = p > 0.5
    p_inv = 1.0 - p if flip else p
    if p_inv * n > 30.0:
        return gen.binomial(n, p, size=size)
    tau = _inversion_thresholds(n, p_inv)
    stops = np.append(tau, np.inf)
    first = np.searchsorted(tau, np.arange(_GUIDE) / _GUIDE)
    out = np.empty(size, np.int64)
    done = 0
    while done < size:
        u = gen.random(min(_CHUNK, size - done))
        x = first[(u * _GUIDE).astype(np.intp)]
        ahead = np.flatnonzero(u > stops[x])
        while ahead.size:
            x[ahead] += 1
            ahead = ahead[u[ahead] > stops[x[ahead]]]
        if x.max() == tau.size:
            x = x[x < tau.size]
        out[done : done + x.size] = x
        done += x.size
    if flip:
        np.subtract(n, out, out=out)
    return out


def _first_failures(gen, n: int, p: float, size: int) -> np.ndarray:
    """gen.geometric(p, size=size) <= n for n >= 1 and 0 < p <= 1, from the same draws.

    numpy's geometric sampler has two branches.  For p >= 1/3 it searches:
    it takes one uniform U and returns the first X with U <= sum_X, where
    sum_1 = prod = p and each step sets prod *= q, sum += prod (q = 1 - p).
    sum never decreases, so X <= n exactly when U <= sum_n, computed here
    with the same recurrence; once the next term leaves sum unchanged every
    later one does too, so the recurrence stops there (within about 100
    steps for q <= 2/3).  Below 1/3 it inverts: X = ceil(E / c) with E a
    standard exponential and c = -log1p(-p).  ceil(z) <= n exactly when
    z <= n, and the rounded E / c increases with E, so X <= n exactly when
    E <= t, the largest double whose rounded t / c is at most n, found by
    stepping from n * c (Python compares a float with an int exactly).
    Each trial reads the one uniform or exponential that numpy's draw reads,
    so gen ends in the same state and the result equals numpy's for
    n < 2**63 - 1.  numpy caps a draw at 2**63 - 1, so from there on its
    comparison counts every first failure as landing; the threshold stays
    exact.
    """
    if p >= _GEOMETRIC_SEARCH:
        q = 1.0 - p
        prod = total = p
        for _ in range(n - 1):
            prod *= q
            if total + prod == total:
                break
            total += prod
        return gen.random(size) <= total
    c = -math.log1p(-p)
    t = n * c
    while t / c > n:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) / c <= n:
        t = math.nextafter(t, math.inf)
    return gen.standard_exponential(size) <= t


@dataclass(frozen=True)
class SimRouteReport:
    model: str
    trials: int
    seed: int
    steps_per_unit: int
    estimate: float
    std_error: float
    analytic: float
    analytic_discretized: float
    z_score: float


def simulate_route_cost(route, D, cfg: SimConfig, probs, model: str = "cost1") -> SimRouteReport:
    """Simulate the traversal cost of a route and compare with the closed form.

    probs holds each node's per-unit-time failure probability (the cost1
    weights of opt.node_weights).  Latencies are floored to whole steps;
    `analytic` uses the exact latencies while `analytic_discretized` matches
    the floored process the trials draw from, and the z score is taken
    against the latter so any flooring gap is reported rather than folded
    into the noise.  Each node's draws come from its own stream and equal
    numpy's own samplers bit for bit: the count cost's are _binomial's, and
    the first-failure cost's indicators are exact threshold comparisons on
    the uniforms or exponentials Generator.geometric would read
    (_first_failures), exact also past numpy's 2**63 - 1 cap.
    """
    if model not in COST_MODELS:
        raise ValueError(f"model must be one of {COST_MODELS}")
    D = as_distance_matrix(D)
    M = D.shape[0]
    p = as_weights(probs, M)
    if (p > 1.0).any():
        raise ValueError("probabilities must be in [0, 1]")

    def first_failure(n, q):
        # P(a failure within n steps, each failing with probability q).
        return -math.expm1(n * math.log1p(-q)) if q < 1.0 else float(n > 0)

    lat = latency(route, D)
    k = cfg.steps_per_unit
    totals = np.zeros(cfg.trials)
    analytic = 0.0
    analytic_disc = 0.0
    for node in range(M):
        steps = _steps(float(lat[node]), k)
        pi = float(p[node])
        gen = _rng(cfg.seed, node)
        if model == "cost1":
            if steps >= 2**63:
                raise ValueError(
                    f"node {node + 1} is reached after {steps} steps; the binomial "
                    "count cost takes at most 2**63 - 1"
                )
            p_step = pi / k
            totals += _binomial(gen, steps, p_step, cfg.trials)
            analytic += pi * lat[node]
            analytic_disc += p_step * steps
        else:
            p_step = -math.expm1(math.log1p(-pi) / k) if pi < 1.0 else 1.0
            if p_step > 0.0 and steps > 0:
                totals += _first_failures(gen, steps, p_step, cfg.trials)
            analytic += first_failure(lat[node], pi)
            analytic_disc += first_failure(steps, p_step)
    est = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    diff = est - analytic_disc
    if se > 0:
        z = diff / se
    else:
        z = 0.0 if diff == 0.0 else math.inf if diff > 0 else -math.inf
    return SimRouteReport(
        model=model,
        trials=cfg.trials,
        seed=int(cfg.seed),
        steps_per_unit=k,
        estimate=est,
        std_error=se,
        analytic=float(analytic),
        analytic_discretized=float(analytic_disc),
        z_score=float(z),
    )
