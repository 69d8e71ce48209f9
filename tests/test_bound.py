import itertools
import math

import numpy as np
import pytest

import repairroute.bound as bound_mod
from repairroute.bound import (
    BoundInputs,
    BoundReport,
    generalization_bound,
    halfspace_ball_fraction,
    shortest_distances,
)
from repairroute.core import sigmoid

from conftest import random_instance


def hyp2f1(a, b, c, x):
    """Gauss series for 2F1; terminates when b is a nonpositive integer."""
    term = 1.0
    acc = 1.0
    for n in range(1000):
        term *= (a + n) * (b + n) / (c + n) * x / (n + 1)
        acc += term
        if abs(term) <= 1e-16 * max(1.0, abs(acc)):
            return acc
    raise RuntimeError("series did not converge")


def alpha_hypergeometric(z, R, d):
    """Independent cap-complement fraction via the hypergeometric form."""
    ratio = z / R
    coef = math.exp(math.lgamma(1.0 + d / 2.0) - math.lgamma((d + 1) / 2.0)) / math.sqrt(math.pi)
    return 0.5 + ratio * coef * hyp2f1(0.5, (1.0 - d) / 2.0, 1.5, ratio**2)


def tangent_line(M1, M2):
    """Hand-coded slope and intercept of the sigmoid support line at -M1*M2."""
    z = M1 * M2
    m1 = math.exp(-z) / (1.0 + math.exp(-z)) ** 2
    m0 = z * m1 + 1.0 / (1.0 + math.exp(z))
    return m1, m0


def make_inputs(seed, M=5, d=3, M1=2.0, M2=1.5, eps=0.5, m=200, cg_slack=2.0):
    """Valid seeded inputs with node norms inside M2 and a workable budget."""
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(M, d))
    norms = np.linalg.norm(nodes, axis=1)
    nodes *= (M2 * rng.uniform(0.3, 0.95, size=M) / np.maximum(norms, 1e-12))[:, None]
    _, D = random_instance(seed, M)
    _, m0 = tangent_line(M1, M2)
    c_tilde0 = m0 * float(shortest_distances(D).sum())
    return BoundInputs(M1=M1, M2=M2, Cg=c_tilde0 + cg_slack, eps=eps, m=m, nodes=nodes, D=D)


class TestInputs:
    def test_rejects_oversized_feature_norms(self):
        _, D = random_instance(0, 3)
        nodes = np.array([[2.0, 0.0], [0.0, 0.5], [0.1, 0.1]])
        with pytest.raises(ValueError, match="norm"):
            BoundInputs(M1=1.0, M2=1.0, Cg=5.0, eps=0.5, m=10, nodes=nodes, D=D)

    def test_rejects_bad_scalars(self):
        _, D = random_instance(0, 3)
        nodes = np.zeros((3, 2))
        for kw in ({"M1": 0.0}, {"M2": -1.0}, {"Cg": 0.0}, {"eps": 0.0}, {"m": 0}):
            args = dict(M1=1.0, M2=1.0, Cg=5.0, eps=0.5, m=10)
            args.update(kw)
            with pytest.raises(ValueError):
                BoundInputs(nodes=nodes, D=D, **args)

    def test_rejects_mismatched_nodes(self):
        _, D = random_instance(0, 4)
        with pytest.raises(ValueError, match="match"):
            BoundInputs(M1=1.0, M2=1.0, Cg=5.0, eps=0.5, m=10, nodes=np.zeros((3, 2)), D=D)

    def test_dimension_property(self):
        assert make_inputs(0, d=3).d == 3
        assert make_inputs(0, d=1).d == 1


class TestShortestDistances:
    def test_two_hop_shortcut(self):
        D = np.array([[0.0, 2.0, 10.0], [2.0, 0.0, 3.0], [10.0, 3.0, 0.0]])
        dist = shortest_distances(D)
        assert dist[2] == 5.0
        assert dist[1] == 2.0
        assert dist[0] == 15.0  # either orientation of the only tour

    def test_unit_complete_graph(self):
        D = np.ones((4, 4)) - np.eye(4)
        dist = shortest_distances(D)
        assert dist[0] == 4.0
        assert np.array_equal(dist[1:], np.ones(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_tour_matches_permutation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 5.0, size=(6, 2))
        D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        best = min(
            sum(D[a][b] for a, b in zip((0,) + tail, tail + (0,)))
            for tail in itertools.permutations(range(1, 6))
        )
        assert shortest_distances(D)[0] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_floor_properties(self, seed):
        _, D = random_instance(seed, 6)
        dist = shortest_distances(D)
        assert (dist[1:] <= D[0, 1:] + 1e-12).all()
        assert dist[0] >= dist.max() - 1e-12

    def test_too_many_nodes(self):
        D = np.ones((21, 21)) - np.eye(21)
        with pytest.raises(ValueError, match="at most"):
            shortest_distances(D)

    def test_nineteen_node_unit_tour(self):
        D = np.ones((19, 19)) - np.eye(19)
        assert shortest_distances(D)[0] == 19.0


class TestHalfspaceFraction:
    @pytest.mark.parametrize("d", range(1, 201))
    def test_plane_through_center(self, d):
        assert halfspace_ball_fraction(0.0, 1.0, d) == 0.5

    @pytest.mark.parametrize("d", [*range(1, 13), 25, 100, 1000])
    def test_matches_mpmath(self, d):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        for ratio in (0.0, 1e-12, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999):
            x = 1 - mp.mpf(ratio) ** 2
            want = 1 - mp.betainc(mp.mpf(d + 1) / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2
            assert abs(halfspace_ball_fraction(ratio * 3.0, 3.0, d) - want) <= 1e-13, ratio

    def test_one_dimensional_cap_is_linear(self):
        assert halfspace_ball_fraction(0.5, 1.0, 1) == pytest.approx(0.75, abs=1e-12)
        assert halfspace_ball_fraction(0.2, 1.0, 1) == pytest.approx(0.6, abs=1e-12)

    def test_plane_clears_ball(self):
        assert halfspace_ball_fraction(2.0, 2.0, 3) == 1.0
        assert halfspace_ball_fraction(5.0, 2.0, 3) == 1.0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9])
    def test_matches_hypergeometric_form(self, d, ratio):
        got = halfspace_ball_fraction(ratio * 2.0, 2.0, d)
        assert got == pytest.approx(alpha_hypergeometric(ratio * 2.0, 2.0, d), abs=1e-8)

    def test_monotone_in_distance(self):
        for d in (1, 2, 4):
            vals = [halfspace_ball_fraction(z, 1.0, d) for z in np.linspace(0.0, 1.0, 50)]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            assert all(0.5 <= v <= 1.0 for v in vals)

    def test_thinner_caps_in_higher_dimension(self):
        # The cut-off cap loses mass as the dimension grows, so the fraction
        # kept on the center side climbs toward one.
        for ratio in (0.3, 0.7):
            vals = [halfspace_ball_fraction(ratio, 1.0, d) for d in range(1, 9)]
            caps = [1.0 - v for v in vals]
            assert all(b <= a + 1e-14 for a, b in zip(caps, caps[1:]))
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            halfspace_ball_fraction(0.5, 1.0, 0)
        with pytest.raises(ValueError):
            halfspace_ball_fraction(0.5, 0.0, 2)
        with pytest.raises(ValueError):
            halfspace_ball_fraction(-0.5, 1.0, 2)
        with pytest.raises(ValueError, match="distance"):
            halfspace_ball_fraction(math.nan, 1.0, 3)
        for d in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="dimension"):
                halfspace_ball_fraction(0.5, 1.0, d)


class TestConstraintVector:
    def test_flat_sigmoid_limit(self):
        inputs = make_inputs(0, M1=1e-8, M2=1e-8)
        rep = generalization_bound(inputs)
        assert rep.m1_slope == pytest.approx(0.25, abs=1e-10)
        assert rep.m0_intercept == pytest.approx(0.5, abs=1e-10)

    def test_zero_features_give_vacuous_constraint(self):
        _, D = random_instance(1, 4)
        _, m0 = tangent_line(1.0, 1.0)
        cg = m0 * float(shortest_distances(D).sum()) + 1.0
        inputs = BoundInputs(M1=1.0, M2=1.0, Cg=cg, eps=0.5, m=50, nodes=np.zeros((4, 2)), D=D)
        rep = generalization_bound(inputs)
        assert np.array_equal(rep.c, np.zeros(2))
        assert rep.alpha == 1.0
        assert math.isinf(rep.c_norm_inv)

    @pytest.mark.parametrize("seed", range(5))
    def test_components(self, seed):
        inputs = make_inputs(seed)
        rep = generalization_bound(inputs)
        m1, m0 = tangent_line(inputs.M1, inputs.M2)
        dists = shortest_distances(inputs.D)
        expect_tilde = m1 * np.einsum("i,ij->j", dists, inputs.nodes)
        assert np.allclose(rep.c_tilde, expect_tilde, rtol=1e-12)
        assert rep.c_tilde0 == pytest.approx(m0 * dists.sum(), rel=1e-12)
        assert np.allclose(rep.c, expect_tilde / (inputs.Cg - rep.c_tilde0), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_line_lower_bounds_sigmoid(self, seed):
        rng = np.random.default_rng(seed)
        M1 = float(rng.uniform(0.5, 3.0))
        M2 = float(rng.uniform(0.5, 3.0))
        m1, m0 = tangent_line(M1, M2)
        grid = np.linspace(-M1 * M2, M1 * M2, 10_000)
        assert (sigmoid(grid) + 1e-12 >= m1 * grid + m0).all()
        # touches exactly at the left endpoint
        assert sigmoid(-M1 * M2) == pytest.approx(m1 * -(M1 * M2) + m0, rel=1e-14)

    def test_budget_below_intercept_mass_errors(self):
        inputs = make_inputs(3)
        rep = generalization_bound(inputs)
        bad = BoundInputs(
            M1=inputs.M1,
            M2=inputs.M2,
            Cg=rep.c_tilde0 * 0.5,
            eps=inputs.eps,
            m=inputs.m,
            nodes=inputs.nodes,
            D=inputs.D,
        )
        with pytest.raises(ValueError, match="does not exceed"):
            generalization_bound(bad)


class TestAlpha:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fraction_at_reported_geometry(self, seed):
        inputs = make_inputs(seed)
        rep = generalization_bound(inputs)
        pad = inputs.eps / (32.0 * inputs.M2)
        assert rep.r_prime == pytest.approx(inputs.M1 + pad, rel=1e-12)
        assert rep.z_prime == pytest.approx(1.0 / np.linalg.norm(rep.c) + pad, rel=1e-12)
        if rep.z_prime < rep.r_prime:
            assert rep.alpha == pytest.approx(
                halfspace_ball_fraction(rep.z_prime, rep.r_prime, inputs.d), rel=1e-12
            )
        assert 0.5 <= rep.alpha <= 1.0

    def test_unit_when_plane_clears_ball(self):
        inputs = make_inputs(2, cg_slack=1e9)  # huge budget, tiny c
        rep = generalization_bound(inputs)
        assert rep.z_prime >= rep.r_prime
        assert rep.alpha == 1.0

    @pytest.mark.parametrize("seed", range(100))
    def test_monotone_in_budget(self, seed):
        inputs = make_inputs(seed, M=4, d=2, cg_slack=0.5)
        tighter = generalization_bound(inputs)
        looser = generalization_bound(
            BoundInputs(
                M1=inputs.M1,
                M2=inputs.M2,
                Cg=inputs.Cg + 1.5,
                eps=inputs.eps,
                m=inputs.m,
                nodes=inputs.nodes,
                D=inputs.D,
            )
        )
        assert tighter.alpha <= looser.alpha + 1e-12


class TestGeneralizationBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_factorization(self, seed):
        inputs = make_inputs(seed, M=5, d=3)
        rep = generalization_bound(inputs)
        covering = (32.0 * inputs.M1 * inputs.M2 / inputs.eps + 1.0) ** inputs.d
        decay = math.exp(-inputs.m * inputs.eps**2 / (512.0 * (inputs.M1 * inputs.M2) ** 2))
        assert rep.covering_factor == pytest.approx(covering, rel=1e-10)
        assert rep.exp_factor == pytest.approx(decay, rel=1e-10)
        assert rep.bound == pytest.approx(4.0 * rep.alpha * covering * decay, rel=1e-10)
        assert isinstance(rep, BoundReport)

    def test_sample_size_drives_bound_down(self):
        small = generalization_bound(make_inputs(1, m=100))
        big = generalization_bound(make_inputs(1, m=10_000))
        assert big.bound < small.bound
        huge = generalization_bound(make_inputs(1, m=10**12))
        assert huge.bound < 1e-300

    def test_tight_budget_pins_alpha_at_pad(self):
        inputs = make_inputs(4, cg_slack=1e-9)
        rep = generalization_bound(inputs)
        pad = inputs.eps / (32.0 * inputs.M2)
        assert rep.z_prime == pytest.approx(pad, rel=1e-4)
        assert rep.alpha == pytest.approx(
            halfspace_ball_fraction(pad, rep.r_prime, inputs.d), rel=1e-6
        )
        roomier = generalization_bound(make_inputs(4, cg_slack=1.0))
        assert rep.alpha <= roomier.alpha + 1e-12

    def test_vacuous_budget_flag(self):
        _, D = random_instance(6, 4)
        total = float(shortest_distances(D).sum())
        nodes = np.zeros((4, 2))
        loose = BoundInputs(M1=1.0, M2=1.0, Cg=total * 2.0, eps=0.5, m=10, nodes=nodes, D=D)
        assert generalization_bound(loose).constraint_vacuous
        _, m0 = tangent_line(1.0, 1.0)
        snug = BoundInputs(
            M1=1.0, M2=1.0, Cg=m0 * total + 0.01 * total, eps=0.5, m=10, nodes=nodes, D=D
        )
        assert not generalization_bound(snug).constraint_vacuous

    def test_distances_reported(self):
        inputs = make_inputs(8)
        rep = generalization_bound(inputs)
        assert np.array_equal(rep.shortest_distances, shortest_distances(inputs.D))

    def test_one_tour_dp_per_call(self, monkeypatch):
        inputs = make_inputs(9)
        calls = []
        real = bound_mod.solve_weighted_trp_dp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bound_mod, "solve_weighted_trp_dp", counting)
        rep = generalization_bound(inputs)
        assert len(calls) == 1
        assert np.array_equal(rep.shortest_distances, shortest_distances(inputs.D))
        m1, m0 = tangent_line(inputs.M1, inputs.M2)
        assert rep.m1_slope == pytest.approx(m1, rel=1e-12)
        assert rep.m0_intercept == pytest.approx(m0, rel=1e-12)
