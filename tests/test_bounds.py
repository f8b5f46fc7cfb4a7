import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from ppdepth import (
    DeviationBoundParams,
    FixedCount,
    PointPattern,
    Pmf,
    RngStream,
    Sample,
    ShiftedPoisson,
    Tabulated,
    UniformBox,
    chernoff_tail,
    deviation_bound,
    entropy_integral,
    finite_list,
    greedy_cover,
    half_lines,
    half_spaces,
    maximal_packing,
    sample_sample,
    sauer_bound,
    vc_constant,
    vc_covering_bound,
)
from ppdepth.bounds import (
    VcBoundParams,
    exponential_candidates,
    halfline_candidates,
    halfplane_candidates,
)
from ppdepth.measure import empirical_pseudo_distance


class TestSauerBound:
    def test_values(self):
        assert sauer_bound(5, 2).linear == pytest.approx(10.0)
        assert sauer_bound(10, 4).linear == pytest.approx(2000.0)

    def test_v_one_is_constant_two(self):
        for n in (1, 10, 10**6):
            assert sauer_bound(n, 1).linear == pytest.approx(2.0)

    def test_log_space_survives_huge_inputs(self):
        b = sauer_bound(10**9, 60)
        assert math.isinf(b.linear)
        assert b.log == pytest.approx(math.log(2) + 59 * math.log(10**9))


class TestVcConstant:
    def test_v1_and_v2_fall_back_to_one(self):
        assert vc_constant(1) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vc_constant(2) == 1

    def test_v3_is_the_true_maximum(self):
        """Bisection against a direct local scan: c satisfies the defining
        inequality log(c) >= c^{1/6} and c + 1 does not."""
        c = vc_constant(3)
        cond = lambda x: math.log(x) >= x ** (1.0 / 6.0)
        assert cond(c) and not cond(c + 1)
        for probe in range(c - 3, c + 4):
            assert cond(probe) == (probe <= c)

    def test_cap_truncation_warns(self):
        with pytest.warns(UserWarning, match="truncated"):
            assert vc_constant(4, cap=10**6) == 10**6


class TestVcCoveringBound:
    def test_single_function_class(self):
        b = vc_covering_bound(VcBoundParams(0.5, 1.0, 1.0, 1, 1.0))
        assert b.linear == 1.0

    def test_v2_example(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = vc_covering_bound(VcBoundParams(0.5, 1.0, 1.0, 2, 1.0))
        assert b.linear == pytest.approx(max(1.0, (4 * (2 / 0.5)) ** 2))
        assert b.linear == pytest.approx(256.0)

    def test_monotone_in_epsilon(self):
        vals = [
            vc_covering_bound(VcBoundParams(eps, 1.0, 1.0, 3, 2.0)).log
            for eps in (0.5, 0.2, 0.1, 0.05, 0.01)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_trivial_cover_above_bound(self):
        b = vc_covering_bound(VcBoundParams(2.0, 1.0, 1.0, 3, 1.0))
        assert b.trivial and b.linear == 1.0


class TestDeviationBound:
    def test_documented_example(self):
        b = deviation_bound(DeviationBoundParams(0.2, 10**4, 2.0, 5.0, 2, 0.0, 0.0))
        expected = 16.0 * 2.0 * 10**4 * math.exp(-(0.2**2) * 10**4 / 160.0)
        assert b.raw == pytest.approx(expected, rel=1e-12)
        assert b.raw == pytest.approx(2.63e4, rel=1e-2)
        assert b.clamped == 1.0

    def test_unit_count_structure_matches_sauer_form(self):
        """With alpha = beta = 1 the bound equals 8 * (2 n^{v-1}) e^{-eps^2 n/32}."""
        for n, v, eps in ((100, 2, 0.3), (10**4, 3, 0.1)):
            b = deviation_bound(DeviationBoundParams(eps, n, 1.0, 1.0, v, 0.0, 0.0))
            sauer_form = 8.0 * sauer_bound(n, v).linear * math.exp(-(eps**2) * n / 32.0)
            assert b.raw == pytest.approx(sauer_form, rel=1e-12)

    def test_exponential_kill_leaves_tails(self):
        b = deviation_bound(
            DeviationBoundParams(0.5, 10**7, 1.01, 1.01, 2, 0.001, 0.002)
        )
        assert b.raw == pytest.approx(0.003, rel=1e-9)

    def test_clamping(self):
        b = deviation_bound(DeviationBoundParams(1e-9, 10, 1.0, 1.0, 2, 0.0, 0.0))
        assert b.clamped == 1.0
        assert b.raw > 1.0

    def test_monotone_decreasing_in_n_past_the_knee(self):
        """The raw bound decreases in n once n > 32 beta (v - 1) / eps^2."""
        for eps, alpha, beta, v in ((0.2, 1.5, 2.0, 2), (0.1, 1.01, 1.01, 3)):
            knee = 32.0 * beta * (v - 1) / eps**2
            grid = np.linspace(1.1 * knee, 20.0 * knee, 40).astype(int)
            raws = [
                deviation_bound(
                    DeviationBoundParams(eps, int(n), alpha, beta, v, 0.0, 0.0)
                ).log_exp_term
                for n in grid
            ]
            assert all(a > b for a, b in zip(raws, raws[1:]))


class TestChernoffTail:
    def test_fixed_count_above_support_is_zero(self):
        t = chernoff_tail(FixedCount(2), 3.0, 10)
        assert t.value == 0.0 and t.method == "degenerate"

    def test_vacuous_below_the_mean(self):
        t = chernoff_tail(ShiftedPoisson(1.0), 1.5, 10)
        assert t.value == 1.0 and t.method == "vacuous"

    def test_shifted_poisson_against_independent_minimizer(self):
        """Numerical one-dimensional minimization of the exponential moment,
        done independently with a bounded scalar optimizer."""
        lam, a, n = 1.0, 3.0, 100
        t = chernoff_tail(ShiftedPoisson(lam), a, n)

        def objective(theta):
            return -theta * a + theta + lam * math.expm1(theta)

        res = minimize_scalar(objective, bounds=(1e-12, 50.0), method="bounded",
                              options={"xatol": 1e-14})
        expected = math.exp(n * res.fun)
        assert t.method == "chernoff"
        assert t.value == pytest.approx(expected, rel=1e-9)
        # single-draw value matches the closed-form minimum e/4
        single = chernoff_tail(ShiftedPoisson(lam), a, 1)
        assert single.value == pytest.approx(math.e / 4.0, rel=1e-10)

    def test_never_exceeds_one(self):
        for law in (FixedCount(3), ShiftedPoisson(2.0), Pmf((0.5, 0.5))):
            for a in (0.5, 1.0, 3.0, 9.5):
                assert chernoff_tail(law, a, 7).value <= 1.0

    def test_squared_variant_bounded_law(self):
        t = chernoff_tail(Pmf((0.5, 0.5)), 3.0, 50, squared=True)
        assert t.method == "chernoff"
        vals = np.array([1.0, 4.0])

        def objective(theta):
            return -theta * 3.0 + math.log(0.5 * math.exp(theta * 1) + 0.5 * math.exp(theta * 4))

        res = minimize_scalar(objective, bounds=(1e-12, 60.0), method="bounded",
                              options={"xatol": 1e-14})
        assert t.value == pytest.approx(math.exp(50 * res.fun), rel=1e-8)

    def test_monte_carlo_fallback_is_flagged_and_bounds_truth(self):
        """Squared moments of an unbounded count have no mgf; the fallback
        frequency estimate must be flagged and close to the true tail."""
        law = ShiftedPoisson(1.0)
        t = chernoff_tail(law, 30.0, 5, squared=True)
        assert t.method == "monte_carlo"
        assert 0.0 <= t.value <= 1.0
        draws = law.sample(RngStream(1).generator(), 20_000 * 5).reshape(20_000, 5)
        freq = float(((draws.astype(float) ** 2).sum(axis=1) > 150.0).mean())
        assert abs(t.value - freq) <= 4.0 * math.sqrt(max(freq, 1e-4) / 20_000) + 5e-3


def tabulated_triple():
    """Three functions with pairwise e_{n,1} distance exactly 1 on a
    two-point, one-pattern-each sample."""
    s = Sample((PointPattern([[0.0]]), PointPattern([[1.0]])))
    f0 = Tabulated({(0.0,): 0.0, (1.0,): 0.0})
    f1 = Tabulated({(0.0,): 1.0, (1.0,): 1.0})
    f2 = Tabulated({(0.0,): 2.0, (1.0,): 2.0})
    return s, [f0, f1, f2]


class TestCoverAndPacking:
    def test_single_candidate(self):
        s, fs = tabulated_triple()
        assert greedy_cover(s, half_lines(), fs[:1], 0.4, 1.0).size == 1
        assert maximal_packing(s, half_lines(), fs[:1], 0.4, 1.0).size == 1

    def test_all_within_epsilon_covered_by_one(self):
        s, fs = tabulated_triple()
        close = [Tabulated({(0.0,): v, (1.0,): v}) for v in (0.0, 0.05, 0.1)]
        assert greedy_cover(s, half_lines(), close, 0.4, 1.0).size == 1

    def test_distance_one_triple_needs_three_centers(self):
        s, fs = tabulated_triple()
        d01 = empirical_pseudo_distance(s, fs[0], fs[1], 1.0)
        assert d01 == pytest.approx(1.0)
        assert greedy_cover(s, half_lines(), fs, 0.4, 1.0).size == 3

    def test_two_candidates_at_twice_epsilon_both_packed(self):
        s, fs = tabulated_triple()
        pack = maximal_packing(s, half_lines(), [fs[0], fs[2]], 1.0, 1.0)
        assert pack.size == 2

    def test_cover_certificate(self):
        """Every candidate lies within epsilon of some chosen center."""
        rng = np.random.default_rng(20)
        s = sample_sample(60, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(21))
        cands = halfline_candidates(s)
        eps = 0.15
        cover = greedy_cover(s, half_lines(), cands, eps, 1.0)
        for f in cands:
            dist = min(
                empirical_pseudo_distance(s, f, c, 1.0) for c in cover.centers
            )
            assert dist <= eps + 1e-12

    def test_packing_certificate(self):
        """Chosen packing members are pairwise more than epsilon apart."""
        s = sample_sample(60, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(22))
        cands = halfline_candidates(s)
        eps = 0.15
        pack = maximal_packing(s, half_lines(), cands, eps, 1.0)
        centers = pack.centers
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                assert empirical_pseudo_distance(s, centers[i], centers[j], 1.0) > eps

    def test_packing_below_covering_bound_at_half_radius(self):
        """Packing sizes certify against the covering bound at eps/2."""
        for n, cls, make in (
            (100, half_lines(), halfline_candidates),
            (100, half_spaces(2), None),
        ):
            if make is None:
                s = sample_sample(
                    n, FixedCount(1), UniformBox([0, 0], [1, 1]), RngStream(23)
                )
                cands = halfplane_candidates(s, max_candidates=4000)
            else:
                s = sample_sample(n, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(23))
                cands = make(s)
            for eps in (0.1, 0.2):
                pack = maximal_packing(s, cls, cands, eps, 1.0)
                bound = vc_covering_bound(
                    VcBoundParams(eps / 2.0, 1.0, cls.bound, cls.vc_dim, s.ratio)
                )
                assert math.log(pack.size) <= bound.log + 1e-12

    def test_empty_candidates_rejected(self):
        s, _ = tabulated_triple()
        with pytest.raises(ValueError):
            greedy_cover(s, half_lines(), [], 0.1, 1.0)


class TestEntropyIntegral:
    def test_single_function_class_is_zero(self):
        s, fs = tabulated_triple()
        cls = finite_list(fs[:1], vc_dim=1)
        assert entropy_integral(s, cls, 0.5, 8) == 0.0

    def test_smaller_delta_never_increases(self):
        s = sample_sample(200, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(24))
        cls = half_lines()
        big = entropy_integral(s, cls, 0.4, 12)
        small = entropy_integral(s, cls, 0.2, 12)
        assert small <= big + 1e-12

    def test_below_vc_closed_form(self):
        """The entropy integral stays under the closed-form VC envelope
        delta (sqrt(log c_v) + sqrt(2 v log 2) + sqrt(v log(S_n/n)))
        + sqrt(2 v) * int_0^delta sqrt(log+(2M / eps)) d eps."""
        s = sample_sample(1000, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(25))
        cls = half_lines()
        delta = 0.3
        got = entropy_integral(s, cls, delta, 12)
        v, m_bound = cls.vc_dim, cls.bound
        c_v = 1.0  # the v = 2 constant falls back to 1
        tail, _ = quad(
            lambda e: math.sqrt(max(0.0, math.log(2 * m_bound / e))), 0.0, delta
        )
        envelope = (
            delta
            * (
                math.sqrt(math.log(max(c_v, 1.0)))
                + math.sqrt(2 * v * math.log(2))
                + math.sqrt(v * math.log(max(s.ratio, 1.0)))
            )
            + math.sqrt(2 * v) * tail
        )
        assert got <= envelope + 1e-9

    def test_exponential_candidates_shape(self):
        from ppdepth import exponentials

        cls = exponentials(0.0, 1.0, 1.0)
        cands = exponential_candidates(cls, grid=64)
        assert len(cands) == 64
        assert cands[0].theta == -1.0 and cands[-1].theta == 1.0
