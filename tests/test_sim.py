import contextlib
import math
import signal

import numpy as np
import pytest

import repairroute.sim as sim_mod
from repairroute.core import cost1, cost2_exact, latency, sigmoid
from repairroute.opt import node_weights
from repairroute.sim import SimConfig, SimRouteReport, simulate_route_cost

from conftest import loop_simulate_route_cost, random_instance

BIG = SimConfig(trials=100_000, seed=0)


def one_wait(p: float, L: float, cfg: SimConfig, model: str = "cost1") -> SimRouteReport:
    """Simulate route 1-2 where node 2 fails at rate p and waits exactly L.

    Node 1 never fails (probability 0), so the estimate is node 2's alone.
    """
    D = np.array([[0.0, L], [0.0, 0.0]])
    return simulate_route_cost([1, 2], D, cfg, model=model, probs=[0.0, p])


def close_enough(rep: SimRouteReport, expect: float, sigmas: float = 3.0):
    assert rep.std_error > 0
    assert abs(rep.estimate - expect) <= sigmas * rep.std_error


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.trials == 100_000
        assert cfg.seed == 0
        assert cfg.steps_per_unit == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(steps_per_unit=0)
        with pytest.raises(ValueError):
            SimConfig(seed=-1)

    def test_steps_per_unit_is_63_bit(self):
        assert SimConfig(steps_per_unit=2**63 - 1).steps_per_unit == 2**63 - 1
        for bad in (2**63, 10**400):
            with pytest.raises(ValueError, match="steps_per_unit"):
                SimConfig(steps_per_unit=bad)

    def test_overflowing_step_count_is_refused(self):
        # A finite latency whose step count is no float: 1e300 * 2**62.
        cfg = SimConfig(trials=10, steps_per_unit=2**62)
        for model in ("cost1", "cost2"):
            with pytest.raises(ValueError, match="overflows the step count"):
                one_wait(0.5, 1e300, cfg, model=model)


class TestExpectedFailures:
    def test_p_zero_is_exactly_zero(self):
        rep = one_wait(0.0, 50, SimConfig(trials=2000, seed=3))
        assert rep.estimate == 0.0
        assert rep.std_error == 0.0

    def test_binomial_mean_one(self):
        close_enough(one_wait(0.1, 10, BIG), 1.0)

    def test_binomial_mean_generic(self):
        close_enough(one_wait(0.37, 7, BIG), 0.37 * 7)

    def test_fractional_latency_floors(self):
        # p = 1 makes every step a failure, so the count is exactly floor(L).
        rep = one_wait(1.0, 2.7, SimConfig(trials=100, seed=1))
        assert rep.estimate == 2.0
        assert rep.std_error == 0.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            one_wait(1.5, 3, BIG)
        with pytest.raises(ValueError):
            one_wait(-0.1, 3, BIG)
        with pytest.raises(ValueError):
            one_wait(0.5, -1.0, BIG)

    @pytest.mark.parametrize("seed", range(3))
    def test_deterministic(self, seed):
        cfg = SimConfig(trials=5000, seed=seed)
        a = one_wait(0.3, 6, cfg)
        b = one_wait(0.3, 6, cfg)
        assert a == b
        c = one_wait(0.3, 6, SimConfig(trials=5000, seed=seed + 100))
        assert c.estimate != a.estimate

    def test_doubling_trials_shrinks_std_error(self):
        half = one_wait(0.3, 5, SimConfig(trials=50_000, seed=2))
        full = one_wait(0.3, 5, SimConfig(trials=100_000, seed=2))
        ratio = full.std_error / half.std_error
        assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.1 / math.sqrt(2.0)


class TestFirstFailure:
    def test_p_one_is_exactly_one(self):
        rep = one_wait(1.0, 1, SimConfig(trials=500, seed=4), model="cost2")
        assert rep.estimate == 1.0
        assert rep.std_error == 0.0

    def test_p_zero_is_exactly_zero(self):
        rep = one_wait(0.0, 25, SimConfig(trials=500, seed=4), model="cost2")
        assert rep.estimate == 0.0

    def test_geometric_tail_ten_steps(self):
        close_enough(one_wait(0.1, 10, BIG, model="cost2"), 1.0 - 0.9**10)

    def test_geometric_tail_four_steps(self):
        close_enough(one_wait(0.25, 4, BIG, model="cost2"), 1.0 - 0.75**4)

    def test_zero_horizon(self):
        rep = one_wait(0.5, 0.9, SimConfig(trials=100, seed=5), model="cost2")
        assert rep.estimate == 0.0

    @pytest.mark.parametrize("k", [2, 4])
    def test_finer_steps_preserve_whole_unit_probability(self, k):
        # The per-step probability is chosen so that whole units keep their
        # first-failure mass: at integer L the target is 1 - (1-p)^L exactly.
        cfg = SimConfig(trials=100_000, seed=6, steps_per_unit=k)
        close_enough(one_wait(0.2, 5, cfg, model="cost2"), 1.0 - 0.8**5)


def full_horizon_oracle(route, p, D, trials, seed):
    """Count pre-visit failures from a dense per-step Bernoulli grid.

    Steps after a node's visit are drawn but never counted, checking that the
    package's visit-truncated draws estimate the same mean.
    """
    lat = latency(route, D)
    horizon = int(math.floor(max(lat)))
    rng = np.random.default_rng(seed)
    total = np.zeros(trials)
    for node in range(len(p)):
        grid = rng.random((trials, horizon)) < p[node]
        total += grid[:, : int(math.floor(lat[node]))].sum(axis=1)
    return total.mean(), total.std(ddof=1) / math.sqrt(trials)


class TestRouteCost:
    def test_all_zero_probs(self):
        _, D = random_instance(0, 4, integer=True)
        rep = simulate_route_cost([1, 2, 3, 4], D, SimConfig(trials=200, seed=0), probs=np.zeros(4))
        assert rep.estimate == 0.0
        assert rep.analytic == 0.0
        assert rep.z_score == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_cost1_matches_analytic(self, seed):
        rng = np.random.default_rng(seed)
        _, D = random_instance(seed, 4, integer=True)
        p = rng.uniform(0.05, 0.95, size=4)
        route = [1] + list(rng.permutation(range(2, 5)))
        rep = simulate_route_cost(route, D, SimConfig(trials=100_000, seed=seed), probs=p)
        assert rep.analytic == pytest.approx(cost1(route, p, D), rel=1e-12)
        assert rep.analytic_discretized == pytest.approx(rep.analytic, rel=1e-12)
        assert abs(rep.z_score) <= 3.0

    @pytest.mark.parametrize("seed", range(4))
    def test_cost2_matches_analytic(self, seed):
        rng = np.random.default_rng(seed + 50)
        _, D = random_instance(seed, 4, integer=True)
        lam = rng.normal(scale=0.7, size=2)
        nodes = rng.normal(size=(4, 2))
        route = [1] + list(rng.permutation(range(2, 5)))
        rep = simulate_route_cost(
            route, D, SimConfig(trials=100_000, seed=seed), node_weights(lam, nodes, "cost1"),
            model="cost2",
        )
        assert rep.analytic == pytest.approx(
            cost2_exact(route, node_weights(lam, nodes, "cost2"), D), rel=1e-12
        )
        assert rep.analytic_discretized == pytest.approx(rep.analytic, rel=1e-10)
        assert abs(rep.z_score) <= 3.0

    def test_cost1_sigmoid_weights_from_lam(self):
        _, D = random_instance(7, 4, integer=True)
        lam = np.array([0.5, -0.8])
        nodes = np.random.default_rng(7).normal(size=(4, 2))
        probs = node_weights(lam, nodes, "cost1")
        rep = simulate_route_cost([1, 3, 2, 4], D, SimConfig(trials=20_000, seed=7), probs)
        assert rep.analytic == pytest.approx(cost1([1, 3, 2, 4], sigmoid(nodes @ lam), D), rel=1e-12)

    def test_post_visit_steps_never_count(self):
        _, D = random_instance(11, 5, integer=True)
        p = np.array([0.3, 0.6, 0.1, 0.8, 0.4])
        route = [1, 4, 2, 5, 3]
        rep = simulate_route_cost(route, D, SimConfig(trials=60_000, seed=11), probs=p)
        mean, se = full_horizon_oracle(route, p, D, trials=60_000, seed=999)
        assert abs(rep.estimate - mean) <= 3.0 * math.hypot(rep.std_error, se)

    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    def test_finer_steps_keep_integer_latency_analytic(self, model):
        _, D = random_instance(3, 4, integer=True)
        p = np.array([0.2, 0.5, 0.7, 0.35])
        coarse = simulate_route_cost([1, 2, 4, 3], D, SimConfig(trials=10_000, seed=3), model=model, probs=p)
        fine = simulate_route_cost(
            [1, 2, 4, 3], D, SimConfig(trials=10_000, seed=3, steps_per_unit=4), model=model, probs=p
        )
        assert fine.analytic == pytest.approx(coarse.analytic, rel=1e-12)
        assert fine.analytic_discretized == pytest.approx(coarse.analytic, rel=1e-10)
        assert abs(fine.z_score) <= 4.0

    def test_deterministic_report(self):
        _, D = random_instance(2, 4, integer=True)
        p = np.array([0.1, 0.9, 0.5, 0.3])
        cfg = SimConfig(trials=5000, seed=42)
        a = simulate_route_cost([1, 2, 3, 4], D, cfg, probs=p)
        b = simulate_route_cost([1, 2, 3, 4], D, cfg, probs=p)
        assert a == b

    def test_argument_validation(self):
        _, D = random_instance(0, 3, integer=True)
        cfg = SimConfig(trials=10, seed=0)
        with pytest.raises(TypeError):
            simulate_route_cost([1, 2, 3], D, cfg)  # probs is required
        with pytest.raises(ValueError, match="probabilities must be in"):
            simulate_route_cost([1, 2, 3], D, cfg, probs=[0.1, 0.2, 1.4])
        with pytest.raises(ValueError, match="expected 3 weights, got 2"):
            simulate_route_cost([1, 2, 3], D, cfg, probs=[0.1, 0.2])
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="weights"):
                simulate_route_cost([1, 2, 3], D, cfg, probs=[0.1, bad, 0.2])
        with pytest.raises(ValueError):
            simulate_route_cost([1, 2, 3], D, cfg, probs=[0.1] * 3, model="cost3")


# (guide cells, chunk): the defaults, a single cell so the scan does the
# whole lookup, and a chunk of 7 so every draw spans many batches.
TABLES = {"default": {}, "guide1": {"_GUIDE": 1}, "chunk7": {"_CHUNK": 7}}


@pytest.fixture(params=list(TABLES))
def table(request, monkeypatch):
    for name, value in TABLES[request.param].items():
        monkeypatch.setattr(sim_mod, name, value)
    return request.param


def pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestBinomialTable:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 30, 31, 60, 61, 300])
    @pytest.mark.parametrize("p", [0.0, 1e-5, 0.1, 0.5, 0.5 + 1e-12, 0.9, 1.0])
    def test_equals_numpy(self, table, n, p):
        # 300 * 0.1 rounds above 30 (BTPE) and 300 * (1 - 0.9) below (inversion);
        # 61 * 0.5 is BTPE, 60 * 0.5 = 30 inversion.
        for size in (1, 3 * sim_mod._CHUNK + 2):
            a, b = pcg(n), pcg(n)
            got = sim_mod._binomial(a, n, p, size)
            want = b.binomial(n, p, size=size)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert a.random() == b.random()  # same uniforms consumed

    @pytest.mark.parametrize("n, p", [(2**63, 0.1), (2**70, 1e-30), (5, math.nan), (5, 1.5), (5, -0.1)])
    def test_rejects_what_numpy_rejects(self, n, p):
        with pytest.raises(Exception) as want:
            pcg(0).binomial(n, p, size=3)
        with pytest.raises(want.type):
            sim_mod._binomial(pcg(0), n, p, 3)


class ListGenerator:
    """Stands in for a Generator: random() and standard_exponential() hand
    out a fixed list in order."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self, size):
        out = self.values[self.used : self.used + size]
        assert len(out) == size, "ran out of values"
        self.used += size
        return np.array(out)

    standard_exponential = random


def numpy_inversion(values, n, p):
    """numpy's random_binomial for its inversion branch, transcribed: reads
    `values` in order, restarting on a fresh uniform past `bound`.  Returns
    the draws and the number of uniforms used; the list must end with a
    uniform that completes a draw."""
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    draws, used = [], 0
    while used < len(values):
        x, px = 0, qn
        u = values[used]
        used += 1
        while u > px:
            x += 1
            if x > bound:
                x, px = 0, qn
                u = values[used]
                used += 1
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        draws.append(n - x if flip else x)
    return draws, used


class TestBinomialRestarts:
    @pytest.mark.parametrize(
        "n, p, restarts",
        [(1, 0.5, False), (2, 0.5, False), (20, 0.3, False), (5, 0.9, False),
         (100, 0.01, True), (100, 0.99, True)],
    )
    def test_chosen_uniforms_match_numpys_loop(self, table, n, p, restarts):
        # Every threshold, its grid neighbours, runs of uniforms above the
        # last threshold (numpy restarts on each, where any lies above it)
        # and ordinary values; the list ends in 0, which completes a draw.
        # At (1, 0.5) and (2, 0.5) thresholds fall on guide-cell edges.
        tau = sim_mod._inversion_thresholds(n, min(p, 1.0 - p))
        ulp = 2.0**-53
        top = 1.0 - ulp
        near = [min(max(t + d, 0.0), top) for t in tau for d in (-ulp, 0.0, ulp)]
        ordinary = list(pcg(n).random(40))
        values = near + [top, top, 0.3] + ordinary + [top] * 5 + [0.9, top, 0.0]
        draws, used = numpy_inversion(values, n, p)
        gen = ListGenerator(values)
        assert sim_mod._binomial(gen, n, p, len(draws)).tolist() == draws
        assert gen.used == used
        assert (used > len(draws)) == restarts


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


THIRD = 0.3333333333333333  # the double nearest 1/3, where numpy's search starts


def numpy_geometric(value, p):
    """numpy's random_geometric for one draw, transcribed: `value` is the
    uniform the search branch reads (p >= 1/3) or the standard exponential
    the inversion branch reads; draws past 2**63 - 1 saturate there."""
    if p >= THIRD:
        x, prod, total, q = 1, p, p, 1.0 - p
        while value > total:
            prod *= q
            total += prod
            x += 1
        return x
    return min(math.ceil(-value / math.log1p(-p)), 2**63 - 1)


def doubles_around(x, k=4):
    """x with the k doubles below it and the k above it, in order."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestFirstFailures:
    @pytest.mark.parametrize(
        "p",
        [THIRD, math.nextafter(THIRD, 1.0), math.nextafter(THIRD, 0.0), 1.0, 0.5, 0.9, 0.2,
         0.05, 1e-9, 1e-310],
        ids=["third", "above_third", "below_third", "one", "half", "high", "mid", "low", "tiny",
             "subnormal"],
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10**6, 2**62])
    def test_equals_numpy(self, p, n):
        # The deadline catches a search whose recurrence would run all n steps.
        a, b = pcg(n % 1000), pcg(n % 1000)
        with deadline(10):
            got = sim_mod._first_failures(a, n, p, 3001)
        want = b.geometric(p, size=3001) <= n
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert a.random() == b.random()  # same stream consumed

    @pytest.mark.parametrize("p", [0.05, 0.2, 1e-9, 1e-310])
    @pytest.mark.parametrize("n", [1, 3, 10**6, 2**53 + 1, 2**62])
    def test_inversion_threshold_is_exact(self, p, n):
        # Exponentials on either side of n * c, the threshold's starting
        # guess, where the rounded E / c crosses n.
        values = doubles_around(n * -math.log1p(-p))
        want = [numpy_geometric(e, p) <= n for e in values]
        assert any(want) and not all(want)
        gen = ListGenerator(values)
        assert sim_mod._first_failures(gen, n, p, len(values)).tolist() == want
        assert gen.used == len(values)

    @pytest.mark.parametrize("p", [THIRD, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_search_threshold_is_exact(self, p, n):
        # Uniforms on either side of the partial sum numpy's search reaches
        # after n terms; every one lies below that search's limit, so its loop ends.
        total, prod = p, p
        for _ in range(n - 1):
            prod *= 1.0 - p
            total += prod
        values = [u for u in doubles_around(total) if u < 1.0]
        want = [numpy_geometric(u, p) <= n for u in values]
        assert any(want) and (p == 1.0 or not all(want))
        gen = ListGenerator(values)
        assert sim_mod._first_failures(gen, n, p, len(values)).tolist() == want

    def test_exact_past_numpys_cap(self):
        # numpy caps a draw at 2**63 - 1, so `geometric(p) <= n` holds for every
        # draw once n >= 2**63 - 1; the threshold keeps the true probability.
        n, p = 2**64, 2.0**-64
        got = sim_mod._first_failures(pcg(1), n, p, 20_000).mean()
        assert abs(got - -math.expm1(n * math.log1p(-p))) <= 4 * math.sqrt(0.25 / 20_000)
        assert (pcg(1).geometric(p, size=20_000) <= n).all()


class TestMatchesNumpyLoop:
    @pytest.mark.parametrize("model", ["cost1", "cost2"])
    @pytest.mark.parametrize("k", [1, 4, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_report_equals_reference(self, table, model, k, seed):
        _, D = random_instance(seed, 6, integer=True)
        probs = np.roll([0.0, 1.0, 0.93, 0.5, 0.61, 0.2], seed)
        cfg = SimConfig(trials=3001, seed=seed, steps_per_unit=k)
        route = [1, 3, 2, 6, 4, 5]
        assert simulate_route_cost(route, D, cfg, model=model, probs=probs) == loop_simulate_route_cost(
            route, D, cfg, model, probs
        )

    def test_long_waits_reach_btpe(self):
        # At 64 steps per unit every node (latency times probability 37.8,
        # 32 and 38.95) draws from numpy's BTPE branch; at 1 step all invert.
        D = np.array([[0.0, 40.0, 1.0], [1.0, 0.0, 40.0], [40.0, 1.0, 0.0]])
        probs = [0.9, 0.8, 0.95]
        for k in (1, 64):
            cfg = SimConfig(trials=2000, seed=5, steps_per_unit=k)
            rep = simulate_route_cost([1, 2, 3], D, cfg, probs=probs)
            assert rep == loop_simulate_route_cost([1, 2, 3], D, cfg, "cost1", probs)
