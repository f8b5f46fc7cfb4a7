import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, kstwo

from ppdepth import (
    Constant,
    DiagonalGaussian,
    DiscretePoints,
    EmpiricalReference,
    Exponential,
    FixedCount,
    HalfLineIndicator,
    HalfSpaceIndicator,
    PointPattern,
    RngStream,
    Sample,
    ShiftedPoisson,
    Tabulated,
    UniformBox,
    covariance_hat,
    empirical_intensity,
    empirical_pseudo_distance,
    exponentials,
    finite_list,
    half_lines,
    half_spaces,
    pattern_integral,
    reference_for,
    reference_mass,
    sample_sample,
    signed_halfline_sup,
    sup_deviation,
)
from ppdepth import measure
from ppdepth.measure import (
    _direction_sups,
    _directional_sup,
    _pair_normal_directions,
    _ref_line_sup,
    halfline_sup_rows,
    halfline_sup_weighted,
)


def one_point_sample(values) -> Sample:
    return Sample(tuple(PointPattern([[v]]) for v in values))


UNIFORM01 = UniformBox([0.0], [1.0])


class TestPatternIntegral:
    def test_constant_counts_points(self):
        assert pattern_integral(PointPattern([[0.0]]), Constant(1.0)) == 1.0

    def test_half_line_counts_below_threshold(self):
        pat = PointPattern([[0.2], [0.4]])
        assert pattern_integral(pat, HalfLineIndicator(0.3, 1)) == 1.0

    def test_exponential_two_term_sum(self):
        pat = PointPattern([[0.5], [1.0]])
        expected = math.exp(0.5) + math.exp(1.0)  # = 4.36700...
        got = pattern_integral(pat, Exponential(1.0, (0.0, 1.0)))
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(4.36700, abs=5e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pattern_integral(PointPattern([[0.0, 1.0]]), HalfLineIndicator(0.5))

    def test_bound_is_respected(self):
        pat = PointPattern([[10.0]])
        with pytest.raises(ValueError):
            pattern_integral(pat, Exponential(1.0, (0.0, 1.0)))


class TestEmpiricalIntensity:
    def test_single_pattern_constant(self):
        assert empirical_intensity(one_point_sample([0.0]), Constant(1.0)) == 1.0

    def test_constant_gives_average_count(self):
        s = Sample((PointPattern([[0.0]]), PointPattern([[0.1], [0.2], [0.3]])))
        assert empirical_intensity(s, Constant(1.0)) == 2.0

    def test_half_line_hand_count(self):
        s = Sample((PointPattern([[0.1]]), PointPattern([[0.6], [0.7]])))
        assert empirical_intensity(s, HalfLineIndicator(0.5, 1)) == 0.5

    def test_constant_scaling_is_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            sizes = rng.integers(1, 5, size=8)
            s = Sample(tuple(PointPattern(rng.normal(size=(k, 1))) for k in sizes))
            c = float(rng.normal())
            got = empirical_intensity(s, Constant(c))
            assert abs(got - c * s.s_n / s.n) <= 1e-12 * max(1.0, abs(c) * s.s_n)


class TestPseudoDistance:
    def test_identity(self):
        s = one_point_sample([0.3, 0.7])
        f = HalfLineIndicator(0.5)
        assert empirical_pseudo_distance(s, f, f, 2.0) == 0.0

    def test_constant_gap_sup_norm(self):
        s = Sample((PointPattern([[0.1]]), PointPattern([[0.6], [0.7]])))
        d = empirical_pseudo_distance(s, Constant(1.0), Constant(0.0), math.inf)
        assert d == 1.0

    def test_constant_gap_l1_is_mass_ratio(self):
        s = Sample((PointPattern([[0.1]]), PointPattern([[0.6], [0.7]])))
        d = empirical_pseudo_distance(s, Constant(1.0), Constant(0.0), 1.0)
        assert d == pytest.approx(1.5)

    def test_rejects_p_below_one(self):
        s = one_point_sample([0.0])
        with pytest.raises(ValueError):
            empirical_pseudo_distance(s, Constant(1.0), Constant(0.0), 0.5)

    def _random_setup(self, rng):
        sizes = rng.integers(1, 5, size=rng.integers(1, 8))
        s = Sample(tuple(PointPattern(rng.uniform(0, 1, size=(k, 1))) for k in sizes))
        funcs = [
            HalfLineIndicator(rng.uniform(0, 1), rng.choice([-1, 1])),
            Exponential(rng.uniform(-1, 1), (0.0, 1.0)),
            Constant(rng.uniform(-1, 1)),
        ]
        return s, funcs

    def test_pseudo_metric_axioms(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            s, funcs = self._random_setup(rng)
            f, g, h = (funcs[i] for i in rng.permutation(3))
            p = float(rng.choice([1.0, 1.5, 2.0, math.inf]))
            dfg = empirical_pseudo_distance(s, f, g, p)
            dgf = empirical_pseudo_distance(s, g, f, p)
            dfh = empirical_pseudo_distance(s, f, h, p)
            dhg = empirical_pseudo_distance(s, h, g, p)
            assert dfg >= 0
            assert dfg == pytest.approx(dgf, rel=1e-12, abs=1e-15)
            assert dfg <= dfh + dhg + 1e-10 * max(1.0, dfg)

    def test_lp_interpolation_inequality(self):
        """e_{n,p} <= (S_n/n)^{1/p - 1/q} e_{n,q} on random triples."""
        rng = np.random.default_rng(123)
        pairs = [(1.0, 2.0), (1.0, math.inf), (2.0, math.inf)]
        for _ in range(500):
            s, funcs = self._random_setup(rng)
            f, g = funcs[0], funcs[1]
            ratio = s.s_n / s.n
            for p, q in pairs:
                lhs = empirical_pseudo_distance(s, f, g, p)
                rhs_exp = 1.0 / p - (0.0 if q == math.inf else 1.0 / q)
                rhs = ratio**rhs_exp * empirical_pseudo_distance(s, f, g, q)
                assert lhs <= rhs * (1.0 + 1e-10), (p, q, lhs, rhs)


class TestCovarianceHat:
    def test_constant_pattern_integrals_give_zero(self):
        s = Sample((PointPattern([[0.1]]), PointPattern([[0.9]])))
        assert covariance_hat(s, Constant(1.0), HalfLineIndicator(0.5)) == 0.0

    def test_two_value_variance(self):
        s = Sample((PointPattern([[1.0]]), PointPattern([[3.0], [3.0], [3.0]])))
        # Y(f) values are {1, 3} for f = 1, so the ddof-1 variance is 2
        assert covariance_hat(s, Constant(1.0), Constant(1.0)) == pytest.approx(2.0)

    def test_antitone_tabulated_pair(self):
        f = Tabulated({(1.0,): 1.0, (2.0,): 2.0, (3.0,): 3.0})
        g = Tabulated({(1.0,): 3.0, (2.0,): 2.0, (3.0,): 1.0})
        s = one_point_sample([1.0, 2.0, 3.0])
        assert covariance_hat(s, f, g) == pytest.approx(-1.0)

    def test_self_covariance_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            sizes = rng.integers(1, 4, size=rng.integers(2, 10))
            s = Sample(tuple(PointPattern(rng.uniform(0, 1, (k, 1))) for k in sizes))
            f = HalfLineIndicator(rng.uniform(0, 1))
            assert covariance_hat(s, f, f) >= 0.0

    def test_needs_two_patterns(self):
        with pytest.raises(ValueError):
            covariance_hat(one_point_sample([0.0]), Constant(1.0), Constant(1.0))


class TestReferenceMass:
    def test_constant_gives_total_mass(self):
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        assert reference_mass(ref, Constant(1.0)) == pytest.approx(2.0)

    def test_half_line_under_double_count(self):
        ref = reference_for(FixedCount(2), UNIFORM01)
        assert reference_mass(ref, HalfLineIndicator(0.25)) == pytest.approx(0.5)

    def test_exponential_against_quadrature(self):
        ref = reference_for(FixedCount(1), UNIFORM01)
        expected, _ = quad(lambda x: math.exp(x), 0.0, 1.0)
        got = reference_mass(ref, Exponential(1.0, (0.0, 1.0)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_empirical_reference(self):
        s = one_point_sample([0.1, 0.9])
        ref = EmpiricalReference(s)
        assert ref.total_mass == 1.0
        assert reference_mass(ref, HalfLineIndicator(0.5)) == 0.5

    def test_mixed_count_total_mass(self):
        from ppdepth import CoxMixture

        ref = reference_for(CoxMixture(atoms=((1.0, 1.0),)), UNIFORM01)
        assert ref.total_mass == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-10)
        assert ref.total_mass == pytest.approx(1.58198, abs=1e-5)

    def test_uniform_cdf_masses(self):
        ref = reference_for(FixedCount(1), UNIFORM01)
        for x in (0.0, 0.3, 1.0):
            assert reference_mass(ref, HalfLineIndicator(x)) == pytest.approx(x)
        ref3 = reference_for(FixedCount(3), UNIFORM01)
        assert reference_mass(ref3, HalfLineIndicator(0.5)) == pytest.approx(1.5)

    def test_unsupported_pairing_raises(self):
        from ppdepth.functions import EvalFunction

        class Oddball(EvalFunction):
            dim = 1
            bound = 1.0

            def _values(self, pts):
                return np.zeros(pts.shape[0])

        ref = reference_for(FixedCount(1), UNIFORM01)
        with pytest.raises(ValueError, match="unsupported"):
            reference_mass(ref, Oddball())

    def test_bernoulli_pair_covariance(self):
        """Unit counts: Cov[Y(1_{X<=s}), Y(1_{X<=t})] = min(s,t) - s t."""
        ref = reference_for(FixedCount(1), UNIFORM01)
        f, g = HalfLineIndicator(0.3), HalfLineIndicator(0.7)
        assert ref.pattern_covariance(f, g) == pytest.approx(0.3 * (1.0 - 0.7))
        assert ref.pattern_covariance(f, g) == pytest.approx(0.09)
        assert ref.marking_covariance(f, g) == pytest.approx(0.09)


def brute_halfline_sup(sample: Sample, ref) -> float:
    """Independent oracle: direct counting at data points (closed and
    one-sided-limit variants), midpoints, outer sentinels, and reference
    atoms, for both orientations."""
    xs = np.sort(sample.all_points()[:, 0])
    n = sample.n
    u = np.array([1.0])
    cands = list(xs)
    cands += list(0.5 * (xs[1:] + xs[:-1]))
    cands += [xs[0] - 1.0, xs[-1] + 1.0]
    atoms = ref.atoms()
    if atoms is not None:
        cands += list(atoms[0][:, 0])
    best = abs(sample.s_n / n - ref.total_mass)
    for t in cands:
        emp_weak = np.count_nonzero(xs <= t) / n
        emp_strict = np.count_nonzero(xs < t) / n
        ref_weak = float(ref.line_mass(u, t))
        ref_strict = float(ref.line_mass(u, t, strict=True))
        for v in (
            abs(emp_weak - ref_weak),
            abs(emp_strict - ref_strict),
            abs((sample.s_n / n - emp_strict) - (ref.total_mass - ref_strict)),
            abs((sample.s_n / n - emp_weak) - (ref.total_mass - ref_weak)),
        ):
            best = max(best, v)
    return best


class TestSupDeviationHalfLines:
    def test_self_reference_is_zero(self):
        s = one_point_sample([0.1, 0.5, 0.9])
        assert sup_deviation(s, half_lines(), EmpiricalReference(s)).value == 0.0

    def test_three_point_ks_value(self):
        s = one_point_sample([0.1, 0.5, 0.9])
        ref = reference_for(FixedCount(1), UNIFORM01)
        res = sup_deviation(s, half_lines(), ref)
        # two-sided KS of {.1, .5, .9} against the uniform cdf
        assert res.value == pytest.approx(0.7 / 3.0, abs=1e-15)
        assert res.exact

    def test_point_mass_reference_exact_match(self):
        s = Sample((PointPattern([[0.0]]),))
        ref = reference_for(FixedCount(1), DiscretePoints([[0.0]], [1.0]))
        assert sup_deviation(s, half_lines(), ref).value == 0.0

    def test_matches_brute_force_continuous_ref(self):
        rng = np.random.default_rng(42)
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        for _ in range(50):
            sizes = rng.integers(1, 4, size=rng.integers(1, 12))
            s = Sample(tuple(PointPattern(rng.uniform(0, 1, (k, 1))) for k in sizes))
            got = sup_deviation(s, half_lines(), ref).value
            assert got == pytest.approx(brute_halfline_sup(s, ref), abs=1e-13)

    def test_matches_brute_force_atomic_ref(self):
        """Reference atoms off the data grid are candidate positions too."""
        rng = np.random.default_rng(43)
        ref = reference_for(
            FixedCount(2), DiscretePoints([[0.15], [0.4], [0.85]], [0.3, 0.4, 0.3])
        )
        for _ in range(50):
            sizes = rng.integers(1, 4, size=rng.integers(1, 10))
            s = Sample(tuple(PointPattern(rng.uniform(0, 1, (k, 1))) for k in sizes))
            got = sup_deviation(s, half_lines(), ref).value
            assert got == pytest.approx(brute_halfline_sup(s, ref), abs=1e-13)

    def test_triplicated_points_scale_deviation_by_three(self):
        rng = np.random.default_rng(44)
        xs = rng.uniform(0, 1, size=40)
        single = one_point_sample(xs)
        tripled = Sample(tuple(PointPattern([[x], [x], [x]]) for x in xs))
        ref1 = reference_for(FixedCount(1), UNIFORM01)
        ref3 = reference_for(FixedCount(3), UNIFORM01)
        d1 = sup_deviation(single, half_lines(), ref1).value
        d3 = sup_deviation(tripled, half_lines(), ref3).value
        assert d3 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_argmax_achieves_the_value(self):
        rng = np.random.default_rng(45)
        ref = reference_for(FixedCount(1), UNIFORM01)
        s = one_point_sample(rng.uniform(0, 1, size=25))
        res = sup_deviation(s, half_lines(), ref)
        achieved = abs(empirical_intensity(s, res.argmax) - reference_mass(ref, res.argmax))
        # the argmax may sit at a one-sided limit, so allow a 1/n jump
        assert achieved >= res.value - 1.0 / s.n - 1e-12


class TestSupDeviationOtherClasses:
    def test_halfplane_self_reference_zero(self):
        rng = np.random.default_rng(46)
        s = Sample(tuple(PointPattern(rng.normal(size=(1, 2))) for _ in range(8)))
        assert sup_deviation(s, half_spaces(2), EmpiricalReference(s)).value == 0.0

    def test_halfplane_dominates_sampled_directions(self):
        rng = np.random.default_rng(47)
        box = UniformBox([0.0, 0.0], [1.0, 1.0])
        ref = reference_for(FixedCount(1), box)
        s = Sample(tuple(PointPattern(rng.uniform(0, 1, (1, 2))) for _ in range(30)))
        res = sup_deviation(s, half_spaces(2), ref)
        # pair-normal directions only: a lower bound against an analytic target
        assert not res.exact
        pts = s.all_points()
        phi = np.linspace(0, 2 * math.pi, 3000, endpoint=False)
        u = np.array([[math.cos(a), math.sin(a)] for a in phi])
        proj = np.array([np.sort(pts @ ui) for ui in u])  # (direction, point)
        t = np.concatenate([proj, proj - 1e-9, proj + 1e-9], axis=1)
        emp = (proj[:, None, :] <= t[:, :, None]).sum(axis=2) / s.n
        # the reference mass of each offset, one box-cdf per direction
        mass = np.array([ref.line_mass(ui, ti) for ui, ti in zip(u, t)])
        best = float(np.abs(emp - mass).max())
        assert res.value >= best - 1e-12
        assert res.value <= best + 0.02

    def test_halfplane_analytic_target_is_not_flagged_exact(self):
        """Against an analytic reference the sup can lie inside an arc between
        pair-normal directions: here a dense 20,000-direction scan finds
        0.701865 while those directions give 0.697661.  Whatever the planar
        sup returns, a value below the dense scan must not be flagged exact."""
        disp = DiagonalGaussian([0.0, 0.0], [1.0, 3.0])
        ref = reference_for(FixedCount(1), disp)
        s = sample_sample(4, FixedCount(1), disp, RngStream(5))
        res = sup_deviation(s, half_spaces(2), ref)
        phi = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)
        dense, _ = _directional_sup(s, ref, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        assert dense > 0.7018
        assert not res.exact or res.value >= dense

    def test_halfplane_empirical_target_matches_dense_scan(self):
        rng = np.random.default_rng(48)
        s = Sample(tuple(PointPattern(rng.normal(size=(1, 2))) for _ in range(9)))
        other = Sample(tuple(PointPattern(rng.normal(size=(1, 2))) for _ in range(7)))
        ref = EmpiricalReference(other)
        res = sup_deviation(s, half_spaces(2), ref)
        pts, opts = s.all_points(), other.all_points()
        best = 0.0
        for phi in np.linspace(0, 2 * math.pi, 20000, endpoint=False):
            u = np.array([math.cos(phi), math.sin(phi)])
            proj = pts @ u
            oproj = opts @ u
            for t in np.concatenate([proj, oproj]):
                dev = abs(
                    np.count_nonzero(proj <= t) / s.n
                    - np.count_nonzero(oproj <= t) / other.n
                )
                best = max(best, dev)
        assert res.value >= best - 1e-12

    def test_exponential_class_beats_dense_grid(self):
        rng = np.random.default_rng(49)
        cls = exponentials(0.0, 1.0, 1.5)
        ref = reference_for(FixedCount(1), UNIFORM01)
        s = one_point_sample(rng.uniform(0, 1, size=15))
        res = sup_deviation(s, cls, ref)
        thetas = np.linspace(-1.5, 1.5, 20001)
        xs = s.all_points()[:, 0]
        grid_best = max(
            abs(np.exp(t * xs).sum() / s.n - ref.mass_of(Exponential(t, (0.0, 1.0))))
            for t in thetas
        )
        assert res.value >= grid_best - 1e-9
        assert abs(res.argmax.theta) <= 1.5

    def test_exponential_self_reference_zero(self):
        rng = np.random.default_rng(60)
        s = one_point_sample(rng.uniform(0, 1, size=10))
        cls = exponentials(0.0, 1.0, 1.0)
        assert sup_deviation(s, cls, EmpiricalReference(s)).value == 0.0

    def test_dimension_three_is_a_flagged_lower_bound(self):
        rng = np.random.default_rng(61)
        box = UniformBox([0.0] * 3, [1.0] * 3)
        ref = reference_for(FixedCount(1), box)
        s = Sample(tuple(PointPattern(rng.uniform(0, 1, (1, 3))) for _ in range(25)))
        res = sup_deviation(s, half_spaces(3), ref, directions=512)
        assert not res.exact
        # sampling more directions can only increase the lower bound
        more = sup_deviation(s, half_spaces(3), ref, directions=2048)
        assert more.value >= res.value - 1e-12
        # and any single direction is dominated
        u = np.array([1.0, 0.0, 0.0])
        pts = s.all_points()
        t = float(np.median(pts @ u))
        single = abs(
            np.count_nonzero(pts @ u <= t) / s.n - float(ref.line_mass(u, t))
        )
        assert res.value >= single - 1e-12

    def test_finite_list_takes_the_max(self):
        fs = [HalfLineIndicator(0.2), HalfLineIndicator(0.8), Constant(1.0)]
        cls = finite_list(fs, vc_dim=1)
        s = one_point_sample([0.1, 0.3, 0.9])
        ref = reference_for(FixedCount(1), UNIFORM01)
        res = sup_deviation(s, cls, ref)
        devs = [
            abs(empirical_intensity(s, f) - reference_mass(ref, f)) for f in fs
        ]
        assert res.value == pytest.approx(max(devs))

    def test_dimension_mismatch(self):
        s = one_point_sample([0.1])
        ref = reference_for(FixedCount(1), UniformBox([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError):
            sup_deviation(s, half_lines(), ref)


def _oracle_line_sup(xs, ws, ref, u):
    """The test oracle with ``_ref_line_sup``'s arguments and result: the
    positions ``xs`` at weights ``ws`` against ``ref`` projected on ``u``."""
    return _reference_sweep(*_sweep_args(xs, ws, ref, u))


DISCRETE_2D = DiscretePoints(
    [[0.0, 0.0], [0.25, 0.5], [0.5, 0.25], [1.0, 1.0], [0.75, 0.0]],
    [0.1, 0.2, 0.3, 0.25, 0.15],
)


class TestBlockedDirectionalSup:
    """The planar sup sweeps blocks of directions at once, against atomless
    and purely atomic references alike; value, boundary point and direction
    equal those of the one-direction-at-a-time loop below, ties included.
    The loop sweeps each direction with the one-row block ``_ref_line_sup``
    and checks its value, threshold and orientation against the test oracle
    ``_oracle_line_sup``."""

    @staticmethod
    def _loop(sample, ref):
        pts = sample.all_points()
        atoms = ref.atoms()
        critical = pts if atoms is None else np.concatenate([pts, atoms[0]])
        ws = np.full(pts.shape[0], 1.0 / sample.n)
        best = (-1.0, None, None, None)
        for u in _pair_normal_directions(critical):
            value, t, orient = _ref_line_sup(pts @ u, ws, ref, u)
            assert _oracle_line_sup(pts @ u, ws, ref, u) == (value, t, orient)
            if value > best[0]:
                best = (value, u, t, orient)
        value, u, t, orient = best
        if not math.isfinite(t):
            t = math.copysign(1e300, t)
        return value, HalfSpaceIndicator(t * u, orient * u)

    @staticmethod
    def _lattice(s):
        return Sample(np.round(s.all_points() * 4.0) / 4.0, s.sizes())

    @pytest.mark.parametrize("disp", [
        UniformBox([-1.0, 0.0], [2.0, 0.5]),
        UniformBox([0.0, 0.0, 0.0], [1.0, 2.0, 0.5]),
        DiagonalGaussian([0.3, -0.2], [1.0, 3.0]),
    ], ids=["box", "box-3d", "gaussian"])
    def test_direction_rows_across_column_chunks(self, disp, monkeypatch):
        """Column chunks of 8 points: each direction's row of 50 points
        crosses six chunk boundaries and keeps the one-direction bytes."""
        monkeypatch.setattr(measure, "_COLUMN_CHUNK", 8)
        ref = reference_for(FixedCount(1), disp)
        pts = disp.sample(np.random.default_rng(67), 50)
        ws = np.full(50, 1.0 / 50)
        dirs = measure._sphere_directions(disp.dim, 64)
        got = _direction_sups(pts, ws, ref, dirs).tobytes()
        for sweep in (_ref_line_sup, _oracle_line_sup):
            assert got == np.array([sweep(pts @ u, ws, ref, u)[0] for u in dirs]).tobytes()

    @pytest.mark.parametrize("m", [4, 8, 40])
    @pytest.mark.parametrize("disp", [
        UniformBox([0.0, 0.0], [1.0, 1.0]),
        UniformBox([-1.0, 0.0], [2.0, 0.5]),
        DiagonalGaussian([0.3, -0.2], [1.0, 3.0]),
        DISCRETE_2D,
    ], ids=["unit-square", "box", "gaussian", "discrete"])
    def test_matches_per_direction_loop(self, m, disp):
        """Against the law and against the empirical measure of a second
        sample, on continuous samples and on samples with coordinates on a
        1/4 lattice (tied projections).  Samples of the discrete law sit on
        its atoms; their continuous variant is moved off them by a
        uniform jitter."""
        for count, n in ((FixedCount(1), m), (ShiftedPoisson(1.0), m // 2)):
            law = reference_for(count, disp)
            for seed in range(4 if m < 40 else 2):
                s = sample_sample(n, count, disp, RngStream(seed, m))
                other = sample_sample(max(2, n // 4), count, disp, RngStream(seed, m).child("ref"))
                if seed % 2:
                    s, other = self._lattice(s), self._lattice(other)
                elif disp is DISCRETE_2D:
                    jitter = RngStream(seed, m).child("jitter").generator()
                    s = Sample(s.all_points() + jitter.uniform(-0.1, 0.1, (s.s_n, 2)), s.sizes())
                for ref in (law, EmpiricalReference(other)):
                    res = sup_deviation(s, half_spaces(2), ref)
                    value, argmax = self._loop(s, ref)
                    assert res.exact == (ref.atoms() is not None)
                    assert res.value == value
                    assert res.argmax.point.tobytes() == argmax.point.tobytes()
                    assert res.argmax.direction.tobytes() == argmax.direction.tobytes()

    def test_blocks_split_directions(self):
        """More directions than one block holds: 40 points give 2,340
        directions, blocks of 819 (atomless), 728 (a 5-atom law) or 409
        (a 40-point empirical measure).  Every block value is the
        one-direction sweep's, bit for bit, which is why the planar sup
        sweeps only the first maximal direction again."""
        disp = UniformBox([0.0, 0.0], [1.0, 1.0])
        s = sample_sample(40, FixedCount(1), disp, RngStream(9))
        pts = s.all_points()
        dirs = _pair_normal_directions(pts)
        ws = np.full(pts.shape[0], 1.0 / s.n)
        for ref in (
            reference_for(FixedCount(1), disp),
            reference_for(ShiftedPoisson(0.5), DISCRETE_2D),
            EmpiricalReference(sample_sample(40, FixedCount(1), disp, RngStream(9).child("b"))),
        ):
            atoms = ref.atoms()
            width = pts.shape[0] + (0 if atoms is None else len(atoms[1]))
            assert len(dirs) > (1 << 15) // width
            got = _direction_sups(pts, ws, ref, dirs).tolist()
            assert got == [_ref_line_sup(pts @ u, ws, ref, u)[0] for u in dirs]
            assert got == [_oracle_line_sup(pts @ u, ws, ref, u)[0] for u in dirs]

    def test_ties_at_the_maximum_sweep_once(self, monkeypatch):
        """The 40 + 40 uniform two-sample case ties the maximum 0.225 at
        many directions, and the planar sup still sweeps exactly one of them
        again: the first."""
        disp = UniformBox([0.0, 0.0], [1.0, 1.0])
        s = sample_sample(40, FixedCount(1), disp, RngStream(7))
        ref = EmpiricalReference(sample_sample(40, FixedCount(1), disp, RngStream(7).child("b")))
        pts, ws = s.all_points(), np.full(40, 1.0 / 40)
        dirs = _pair_normal_directions(np.concatenate([pts, ref.atoms()[0]]))
        vals = _direction_sups(pts, ws, ref, dirs)
        assert np.count_nonzero(vals == vals.max()) > 1
        calls = []
        sweep = measure._ref_line_sup
        monkeypatch.setattr(measure, "_ref_line_sup", lambda *a: calls.append(a) or sweep(*a))
        res = sup_deviation(s, half_spaces(2), ref)
        assert len(calls) == 1
        u = dirs[int(np.argmax(vals))]
        value, t, orient = sweep(pts @ u, ws, ref, u)
        assert _oracle_line_sup(pts @ u, ws, ref, u) == (value, t, orient)
        assert res.value == vals.max() == value
        want = HalfSpaceIndicator(t * u, orient * u)
        assert res.argmax.point.tobytes() == want.point.tobytes()
        assert res.argmax.direction.tobytes() == want.direction.tobytes()

    @pytest.mark.parametrize("chunk", [1 << 14, 8])
    @pytest.mark.parametrize("case", ["box", "gaussian", "lattice-box", "three-blocks"])
    def test_atomless_winner_reuses_its_block_masses(self, case, chunk, monkeypatch):
        """Against an atomless reference the first maximal direction is
        located from the sorted row and masses its block computed: no
        ``line_mass`` call beyond one per block and column chunk, and the
        value, boundary point and direction of a new one-direction sweep,
        tied projections (a 1/4 lattice) and split blocks included."""
        monkeypatch.setattr(measure, "_COLUMN_CHUNK", chunk)
        disp = DiagonalGaussian([0.3, -0.2], [1.0, 3.0]) if case == "gaussian" else UniformBox(
            [-1.0, 0.0], [2.0, 0.5])
        s = sample_sample(40 if case == "three-blocks" else 12, FixedCount(1), disp, RngStream(31))
        if case == "lattice-box":
            s = self._lattice(s)
        ref = reference_for(FixedCount(1), disp)
        pts, ws = s.all_points(), np.full(s.s_n, 1.0 / s.n)
        dirs = _pair_normal_directions(pts)
        blocks = -(-len(dirs) // ((1 << 15) // s.s_n))
        assert (blocks == 3) == (case == "three-blocks")
        calls = []
        line_mass = type(ref).line_mass
        counted = lambda *a, **k: calls.append(1) or line_mass(*a, **k)
        monkeypatch.setattr(type(ref), "line_mass", counted)
        res = sup_deviation(s, half_spaces(2), ref)
        assert len(calls) == blocks * -(-s.s_n // chunk)
        vals = _direction_sups(pts, ws, ref, dirs)
        u = dirs[int(np.argmax(vals))]
        value, t, orient = _ref_line_sup(pts @ u, ws, ref, u)
        assert _oracle_line_sup(pts @ u, ws, ref, u) == (value, t, orient)
        want = HalfSpaceIndicator(t * u, orient * u)
        assert res.value == value == vals.max()
        assert res.argmax.point.tobytes() == want.point.tobytes()
        assert res.argmax.direction.tobytes() == want.direction.tobytes()

    def test_lattice_atoms_match_per_direction_loop(self):
        """Sample points and atoms of a discrete law on a 1/4 lattice tie in
        projection, so the blocks must project both as the one-direction
        sweep does: projecting them as one array moves last bits, and the
        case of seed 29 then returns 1.4 in place of 2."""
        for seed in range(1, 40, 2):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 12))
            pts = np.round(rng.uniform(size=(m, 2)) * 4) / 4
            a = int(rng.integers(1, 7))
            atoms = np.round(rng.uniform(size=(a, 2)) * 4) / 4
            weights = rng.dirichlet(np.ones(a))
            count = FixedCount(1) if seed % 3 == 1 else ShiftedPoisson(0.5)
            sizes = np.ones(m, dtype=np.int64)
            if seed % 3 != 1 and m >= 4:
                sizes = np.ones(m // 2, dtype=np.int64)
                sizes[0] += m - sizes.sum()
            s = Sample(pts, sizes)
            ref = reference_for(count, DiscretePoints(atoms, weights / weights.sum()))
            res = sup_deviation(s, half_spaces(2), ref)
            value, argmax = self._loop(s, ref)
            assert res.value == value
            assert res.argmax.point.tobytes() == argmax.point.tobytes()
            assert res.argmax.direction.tobytes() == argmax.direction.tobytes()

    @staticmethod
    def _dense_scan(sample, ref, k=20_000):
        """The largest |mu_n(H) - mu(H)| over the whole plane and the closed
        half-planes {<y, u> <= t} for k equally spaced u and every t at a
        projected sample point or atom, by direct counting."""
        phi = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
        u = np.stack([np.cos(phi), np.sin(phi)])
        proj = sample.all_points() @ u
        atom_proj = ref.disp.points @ u
        t = np.concatenate([proj, atom_proj])
        emp = (proj[None] <= t[:, None]).sum(axis=1) / sample.n
        inside = (atom_proj[None] <= t[:, None]).astype(float)
        mass = ref.total_mass * np.einsum("j,tjk->tk", ref.disp.weights, inside)
        return max(float(np.abs(emp - mass).max()), abs(sample.s_n / sample.n - ref.total_mass))

    def test_discrete_target_is_exact(self):
        """200 seeded cases of 6 sample points against 5 atoms, on a 1/4
        lattice for odd seeds, under fixed and shifted Poisson counts: the
        planar sup is flagged exact and is never below a 20,000-direction
        scan.  With only the sample's pair normals, 13 of these cases fell
        short, by up to 0.23."""
        for seed in range(200):
            rng = np.random.default_rng(seed)
            atoms, pts = rng.uniform(size=(5, 2)), rng.uniform(size=(6, 2))
            if seed % 2:
                atoms, pts = np.round(atoms * 4) / 4, np.round(pts * 4) / 4
            weights = rng.dirichlet(np.ones(5))
            if seed % 4 < 2:
                count, sizes = FixedCount(1), np.ones(6, dtype=np.int64)
            else:
                count, sizes = ShiftedPoisson(0.5), np.full(3, 2, dtype=np.int64)
            ref = reference_for(count, DiscretePoints(atoms, weights / weights.sum()))
            s = Sample(pts, sizes)
            res = sup_deviation(s, half_spaces(2), ref)
            assert res.exact
            assert res.value >= self._dense_scan(s, ref) - 1e-12


class TestExactLaw:
    def test_halfline_rows_follow_kolmogorov_law(self):
        """Fixed count 1 and U(0, 1) steps: the half-line sup is the
        two-sided KS statistic, whose exact law is scipy's kstwo(n)
        (Marsaglia, Tsang & Wang 2003).  400 seeded sups at n = 50 pass a
        KS test against it; the same sups plus 1/n fail it."""
        n = 50
        ref = reference_for(FixedCount(1), UNIFORM01)
        rows = RngStream(2003).generator().uniform(size=(400, n))
        sups = halfline_sup_rows(rows.ravel(), np.full(400, n), 1.0 / n, ref)
        law = kstwo(n)
        assert kstest(sups, law.cdf).pvalue > 1e-3
        assert kstest(sups + 1.0 / n, law.cdf).pvalue < 1e-3


class TestBatchedSweep:
    def test_rows_match_single_sample_path(self):
        """Row i of the batched sweep is ``sup_deviation`` on sample i, bit
        for bit: continuous and tied rows, counts 2 and 3, uniform and
        Gaussian references.  The oracle gives the same value, threshold and
        orientation."""
        rng = np.random.default_rng(50)
        for k, disp in ((2, UNIFORM01), (3, DiagonalGaussian([0.3], [0.2]))):
            ref = reference_for(FixedCount(k), disp)
            for tied in (False, True):
                rows = disp.sample(rng, 40 * 7 * k).reshape(40, 7 * k)  # 7 patterns
                if tied:
                    rows = np.round(rows * 4.0) / 4.0
                batch = halfline_sup_rows(rows.ravel(), np.full(40, 7 * k), 1.0 / 7, ref)
                for i, row in enumerate(rows):
                    s = Sample(tuple(PointPattern(p[:, None]) for p in row.reshape(7, k)))
                    res = sup_deviation(s, half_lines(), ref)
                    want = _reference_sweep(*_sweep_args(row, np.full(row.size, 1.0 / 7), ref))
                    assert (res.value, res.argmax.threshold, res.argmax.orientation) == want
                    assert batch[i] == res.value

    def test_weighted_flat_matches_sample_path(self):
        rng = np.random.default_rng(51)
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        sizes = rng.integers(1, 4, size=9)
        pts = rng.uniform(0, 1, size=(int(sizes.sum()), 1))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        s = Sample(tuple(PointPattern(pts[offsets[i]:offsets[i + 1]]) for i in range(9)))
        ws = np.full(pts.shape[0], 1 / 9)
        flat = halfline_sup_weighted(pts[:, 0], ws, ref)
        assert flat == sup_deviation(s, half_lines(), ref).value
        assert flat == _reference_sweep(*_sweep_args(pts[:, 0], ws, ref))[0]

    def test_batch_sweeps_atomic_reference(self):
        """An atomic reference, once refused by the equal-rows sweep, is
        swept as its atoms: row i is ``sup_deviation`` on sample i, bit for
        bit, on tied and untied rows, with the oracle's value, threshold and
        orientation."""
        rng = np.random.default_rng(53)
        law = DiscretePoints([[0.0], [0.25], [0.5]], [0.5, 0.3, 0.2])
        for ref in (reference_for(FixedCount(1), DiscretePoints([[0.0]], [1.0])),
                    reference_for(FixedCount(2), law)):
            rows = np.concatenate([law.sample(rng, 30 * 6)[:, 0], rng.uniform(size=30 * 6)])
            rows = rows.reshape(60, 6)
            batch = halfline_sup_rows(rows.ravel(), np.full(60, 6), 1.0 / 6, ref)
            for i, row in enumerate(rows):
                s = Sample(row[:, None], np.ones(6, dtype=np.int64))
                res = sup_deviation(s, half_lines(), ref)
                want = _reference_sweep(*_sweep_args(row, np.full(6, 1.0 / 6), ref))
                assert (res.value, res.argmax.threshold, res.argmax.orientation) == want
                assert batch[i] == res.value

    def test_array_weight_against_atomless_reference_is_refused(self):
        """Against an atomless reference every point carries one positive
        scalar mass: an array is refused, even of equal positive weights, as
        are a zero and a negative scalar.  The zero measure and an atomic
        reference take the same array."""
        ref = reference_for(FixedCount(1), UNIFORM01)
        xs = np.array([0.1, 0.2, 0.3])
        for weights in (np.full(3, 1.0 / 3), 0.0, -1.0 / 3):
            with pytest.raises(ValueError, match="one positive weight"):
                halfline_sup_rows(xs, [3], weights, ref)
        atomic = reference_for(FixedCount(1), DiscretePoints([[0.2]], [1.0]))
        for other in (None, atomic):
            got = halfline_sup_rows(xs, [3], np.full(3, 1.0 / 3), other)
            assert got.tobytes() == halfline_sup_rows(xs, [3], 1.0 / 3, other).tobytes()
            assert got[0] == _reference_sweep(*_sweep_args(xs, np.full(3, 1.0 / 3), other))[0]

    @pytest.mark.parametrize("disp", [
        UniformBox([0.0, 0.0], [1.0, 1.0]),
        DiagonalGaussian([0.0, 0.0], [1.0, 1.0]),
    ], ids=["box", "gaussian"])
    def test_half_line_sweeps_refuse_other_dimensions(self, disp):
        """A planar reference is refused by every one-dimensional sweep:
        the box used to give 0.5808 on these 10 points from all three (the
        direction [1.0] broadcast over both coordinates) and the Gaussian a
        raw matmul error."""
        ref = reference_for(FixedCount(1), disp)
        xs = RngStream(3).generator().uniform(size=10)
        ws = np.full(10, 0.1)
        with pytest.raises(ValueError, match="one-dimensional reference"):
            halfline_sup_weighted(xs, ws, ref)
        with pytest.raises(ValueError, match="one-dimensional reference"):
            halfline_sup_rows(xs, [10], 0.1, ref)
        with pytest.raises(ValueError, match="one-dimensional reference"):
            halfline_sup_rows(xs, [10], ws, ref)


class TestRaggedSweep:
    """``halfline_sup_rows`` on samples of unequal sizes equals
    ``halfline_sup_weighted`` and the test oracle on every sample, bit for
    bit, against atomless and atomic references with the scalar weight 1/n,
    and against the zero measure and an atomic reference with signed
    weights."""

    ATOMIC = reference_for(
        ShiftedPoisson(0.5), DiscretePoints([[0.1], [0.3], [0.5], [1.0]], [0.1, 0.4, 0.3, 0.2])
    )
    REFS = (
        reference_for(ShiftedPoisson(1.0), UNIFORM01),
        reference_for(FixedCount(1), DiagonalGaussian([0.3], [0.2])),
        ATOMIC,
    )

    @staticmethod
    def _per_sample(xs, sizes, ws, sweep):
        ws = np.broadcast_to(ws, xs.shape)
        ends = np.cumsum(sizes)
        return np.array([sweep(xs[e - k : e], ws[e - k : e]) for e, k in zip(ends, sizes)])

    def _check(self, xs, sizes, ws, ref):
        got = halfline_sup_rows(xs, sizes, ws, ref).tobytes()
        one_row = self._per_sample(xs, sizes, ws, lambda x, w: halfline_sup_weighted(x, w, ref))
        oracle = self._per_sample(
            xs, sizes, ws, lambda x, w: _reference_sweep(*_sweep_args(x, w, ref))[0]
        )
        assert got == one_row.tobytes() == oracle.tobytes()

    @staticmethod
    def _draw(rng, b, n, tied=False):
        """b samples of n shifted-Poisson patterns: flat points, per-sample
        point counts and the per-point Rademacher weights s_i / n."""
        xs, sizes, signed = [], [], []
        for _ in range(b):
            counts = 1 + rng.poisson(1.0, size=n)
            m = int(counts.sum())
            pts = rng.choice([0.1, 0.3, 0.5, 0.9], size=m) if tied else rng.uniform(size=m)
            xs.append(pts)
            sizes.append(m)
            signed.append(np.repeat(rng.choice([-1.0, 1.0], size=n) / n, counts))
        return np.concatenate(xs), np.array(sizes), np.concatenate(signed)

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_ragged_poisson_samples(self, n):
        rng = np.random.default_rng(60 + n)
        for tied in (False, True):
            xs, sizes, signed = self._draw(rng, 60, n, tied)
            for ref in self.REFS:
                self._check(xs, sizes, 1.0 / n, ref)
            self._check(xs, sizes, signed, None)
            self._check(xs, sizes, signed, self.ATOMIC)

    def test_all_same_sign_samples(self):
        rng = np.random.default_rng(61)
        xs, sizes, signed = self._draw(rng, 30, 9)
        for sign in (1.0, -1.0):
            self._check(xs, sizes, sign / 9, None)
        ends = np.cumsum(sizes)
        mixed = np.concatenate([
            np.full(k, 1.0 / 9) if i % 2 else signed[e - k : e]
            for i, (e, k) in enumerate(zip(ends, sizes))
        ])
        self._check(xs, sizes, mixed, None)

    def test_tied_discrete_points_with_signed_weights(self):
        """Large tie groups with signed weights: only the stable order
        reproduces each group's prefix sums, and only the group's first and
        last points give candidates."""
        rng = np.random.default_rng(62)
        law = DiscretePoints([[0.0], [0.25], [0.5], [1.0]], [0.1, 0.4, 0.3, 0.2])
        for n in (3, 7, 30):
            xs, sizes, signed = self._draw(rng, 40, n)
            xs = law.sample(rng, xs.size)[:, 0]
            self._check(xs, sizes, signed, None)

    def test_several_blocks(self):
        """Samples of up to 5000 points go in blocks of a few samples each."""
        rng = np.random.default_rng(63)
        sizes = rng.integers(1, 5000, size=25)
        xs = rng.uniform(size=int(sizes.sum()))
        signed = rng.choice([-1.0, 1.0], size=xs.size) / 1000
        for ref in self.REFS:
            self._check(xs, sizes, 1.0 / 1000, ref)
        self._check(xs, sizes, signed, None)

    @pytest.mark.parametrize("width", [2 * measure._COLUMN_CHUNK + 3, 3 * measure._COLUMN_CHUNK])
    def test_rows_longer_than_two_column_chunks(self, width):
        """Rows of more than two column chunks, ending inside a chunk or on
        a chunk boundary, give the one-pass values."""
        rng = np.random.default_rng(width)
        xs = rng.uniform(size=3 * width)
        for ref in self.REFS[:2]:
            self._check(xs, np.full(3, width), 1.0 / width, ref)

    def test_poisson_rows_longer_than_a_column_chunk(self):
        """The rows of ``ulln`` at n = 10^4 with shifted-Poisson(1) counts:
        about 2 * 10^4 points per sample, one sample per block."""
        rng = np.random.default_rng(65)
        n = 10_000
        sizes = np.array([int((1 + rng.poisson(1.0, size=n)).sum()) for _ in range(3)])
        xs = rng.uniform(size=int(sizes.sum()))
        for ref in self.REFS[:2]:
            self._check(xs, sizes, 1.0 / n, ref)

    def test_padded_rows_across_column_chunks(self, monkeypatch):
        """Column chunks of 16 points: a block of ragged shifted-Poisson
        samples, padded to its longest, crosses many chunk boundaries."""
        monkeypatch.setattr(measure, "_COLUMN_CHUNK", 16)
        rng = np.random.default_rng(66)
        for n in (7, 100):
            xs, sizes, _ = self._draw(rng, 60, n)
            for ref in self.REFS[:2]:
                self._check(xs, sizes, 1.0 / n, ref)

    def test_empty_samples(self):
        """A sample of no points is its total deviation, |0 - mu(R)|, also
        in a block of empty samples only."""
        xs = np.array([0.4, 0.1, 0.7])
        for sizes in ([0, 3, 0], [0, 0], [3, 0]):
            pts = xs[: sum(sizes)]
            signed = np.array([0.5, -0.5, 0.5])[: pts.size]
            for ref in self.REFS:
                self._check(pts, np.array(sizes), 0.5, ref)
            self._check(pts, np.array(sizes), signed, None)
            self._check(pts, np.array(sizes), signed, self.ATOMIC)

    def test_leaves_inputs_unchanged(self):
        rng = np.random.default_rng(64)
        xs, sizes, signed = self._draw(rng, 10, 5)
        copies = xs.copy(), signed.copy()
        halfline_sup_rows(xs, sizes, signed, None)
        halfline_sup_rows(xs, sizes, 0.2, self.REFS[0])
        assert xs.tobytes() == copies[0].tobytes()
        assert signed.tobytes() == copies[1].tobytes()

    def test_rejects_bad_inputs(self):
        xs = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            halfline_sup_rows(xs, [3], np.array([0.5, -0.5, 0.5]), self.REFS[0])
        with pytest.raises(ValueError):
            halfline_sup_rows(xs, [2], np.full(3, 0.5), None)
        with pytest.raises(ValueError):
            halfline_sup_rows(xs, [3], np.full(2, 0.5), None)


def _plain_sweep(xs, ws, ref_weak, ref_strict, ref_total, extra_positions=None):
    """The half-line sweep in its plainest form: stable argsort, the
    leading-zero prefix sums of the weights, then one full abs/argmax pass
    per candidate.  The oracle for every half-line sweep."""
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    prefix = np.concatenate([[0.0], np.cumsum(ws[order])])
    no_ties = xs.size == 0 or bool((np.diff(xs) > 0).all())
    if no_ties and (extra_positions is None or not len(extra_positions)):
        pos, emp_weak, emp_strict = xs, prefix[1:], prefix[:-1]
    else:
        pos = np.unique(xs)
        if extra_positions is not None and len(extra_positions):
            pos = np.union1d(pos, np.asarray(extra_positions, dtype=float))
        emp_weak = prefix[np.searchsorted(xs, pos, side="right")]
        emp_strict = prefix[np.searchsorted(xs, pos, side="left")]
    ref_weak_vals = np.asarray(ref_weak(pos), dtype=float)
    if ref_strict is None:
        ref_strict_vals = ref_weak_vals
    else:
        ref_strict_vals = np.asarray(ref_strict(pos), dtype=float)
    dev_weak = emp_weak - ref_weak_vals
    dev_strict = emp_strict - ref_strict_vals
    dtot = float(prefix[-1]) - ref_total
    best_val, best_t, best_o = abs(dtot), math.inf, 1
    for devs, orient in (
        (np.abs(dev_weak), 1),
        (np.abs(dev_strict), 1),
        (np.abs(dtot - dev_strict), -1),
        (np.abs(dtot - dev_weak), -1),
    ):
        i = int(np.argmax(devs)) if devs.size else 0
        if devs.size and devs[i] > best_val:
            best_val, best_t, best_o = float(devs[i]), float(pos[i]), orient
    return best_val, best_t, best_o


def _rows_reference(rows, n, ref):
    """The batched sweep as a row loop over the oracle."""
    ws = np.full(rows.shape[1], 1.0 / n)
    return np.array([_reference_sweep(*_sweep_args(row, ws, ref))[0] for row in rows])


def _sweep_args(xs, ws, ref, u=None):
    """``_reference_sweep``'s arguments for positions ``xs`` at weights
    ``ws`` against ``ref`` projected on ``u`` (default: the real line): an
    atomless reference's mass and total mass, the zero measure for ``ref =
    None``, and, for a purely atomic reference, the signed rows: its
    projected atoms after ``xs`` at weights -mass, against the zero
    measure."""
    u = np.array([1.0]) if u is None else u
    if ref is None:
        return xs, ws, None, 0.0
    atoms = ref.atoms()
    if atoms is None:
        return xs, ws, lambda s: ref.line_mass(u, s), ref.total_mass
    return np.concatenate([xs, atoms[0] @ u]), np.concatenate([ws, -atoms[1]]), None, 0.0


def _zero_mass(s):
    return np.zeros(np.shape(s))


def _reference_sweep(xs, ws, ref_mass, ref_total):
    """``_plain_sweep`` on ``_sweep_args``: the oracle of one sample's
    (value, threshold, orientation) against ``ref``."""
    return _plain_sweep(xs, ws, ref_mass or _zero_mass, None, ref_total)


def _strict_mass_args(ref):
    """``_plain_sweep``'s arguments for an atomic ``ref`` in the
    strict-mass formulation: the reference's masses of (-inf, s] and of
    (-inf, s), its declared total mass, and its atoms as extra positions."""
    u = np.array([1.0])
    return (
        lambda s: ref.line_mass(u, s),
        lambda s: ref.line_mass(u, s, strict=True),
        ref.total_mass,
        ref.atoms()[0][:, 0],
    )


class TestSweepKernelExact:
    """The sweep equals its plainest form bit for bit: value, threshold
    and orientation, on continuous and tied positions, equal and signed
    weights, and zero, uniform and atomic references."""

    REFS = (
        None,
        reference_for(FixedCount(1), UNIFORM01),
        reference_for(ShiftedPoisson(1.0), UNIFORM01),
        reference_for(FixedCount(1), DiscretePoints([[0.1], [0.3], [0.5], [0.9]], [0.4, 0.3, 0.2, 0.1])),
        reference_for(ShiftedPoisson(0.5), DiscretePoints([[0.3], [0.7]], [0.5, 0.5])),
    )

    @staticmethod
    def _cases():
        """520 seeded position and weight arrays: continuous and tied
        positions, equal and signed weights."""
        rng = np.random.default_rng(2024)
        for _ in range(130):
            m = int(rng.integers(1, 301))
            n = int(rng.integers(1, m + 1))
            for tied in (False, True):
                if tied:
                    xs = rng.choice([0.1, 0.3, 0.5, 0.9], size=m)
                else:
                    xs = rng.uniform(-0.2, 1.2, size=m)
                for signed in (False, True):
                    ws = np.full(m, 1.0 / n)
                    if signed:
                        ws *= rng.choice([-1.0, 1.0], size=m)
                    yield xs, ws

    def test_line_sup_matches_reference(self):
        """The one-row sweep ``_ref_line_sup``, which sorts its row as one
        block, equals the oracle's (value, threshold, orientation)."""
        cases = 0
        for xs, ws in self._cases():
            for ref in self.REFS:
                got = _ref_line_sup(xs.copy(), ws.copy(), ref, np.array([1.0]))
                assert got == _reference_sweep(*_sweep_args(xs.copy(), ws.copy(), ref))
                cases += 1
        assert cases >= 2000

    def test_atoms_match_strict_mass_formulation(self):
        """Sweeping an atomic reference as its atoms gives the sup of the
        other formulation of the same quantity, which evaluates the
        reference's weak and strict masses at the merged data and atom
        positions, to within 1e-13: the two add the same masses in other
        orders."""
        atomic = [ref for ref in self.REFS if ref is not None and ref.atoms() is not None]
        for xs, ws in self._cases():
            for ref in atomic:
                got = _ref_line_sup(xs, ws, ref, np.array([1.0]))[0]
                want = _plain_sweep(xs, ws, *_strict_mass_args(ref))[0]
                assert got == pytest.approx(want, rel=0, abs=1e-13)

    def test_public_entry_points_match_reference(self):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            m = int(rng.integers(1, 301))
            xs = rng.choice([0.1, 0.3, 0.5, 0.9, 0.95], size=m) if m % 2 else rng.uniform(size=m)
            ws = rng.choice([-1.0, 1.0], size=m) / m
            ref = self.REFS[int(rng.integers(1, len(self.REFS)))]
            expected = _reference_sweep(*_sweep_args(xs, ws, ref))[0]
            assert halfline_sup_weighted(xs, ws, ref) == expected
            s = Sample(xs[:, None], np.ones(m, dtype=np.int64))
            val, t, o = _reference_sweep(*_sweep_args(xs, np.full(m, 1.0 / m), ref))
            res = sup_deviation(s, half_lines(), ref)
            assert (res.value, res.argmax.threshold, res.argmax.orientation) == (val, t, o)

    @pytest.mark.parametrize("m,b", [(50, 400), (200, 200), (10_000, 12)])
    def test_rows_match_reference(self, m, b):
        rng = np.random.default_rng(m)
        for count, disp in (
            (FixedCount(1), UNIFORM01),
            (FixedCount(2), UniformBox([-2.5], [7.25])),
            (FixedCount(1), DiagonalGaussian([0.3], [0.2])),
        ):
            ref = reference_for(count, disp)
            n = m // count.k
            rows = disp.sample(rng, b * m).reshape(b, m)
            got = halfline_sup_rows(rows.ravel(), np.full(b, m), 1.0 / n, ref)
            assert got.tobytes() == _rows_reference(rows, n, ref).tobytes()


class TestSignedSup:
    def test_single_pattern_is_total_mass_either_sign(self):
        s = Sample((PointPattern([[0.3], [0.7]]),))
        for sign in (1.0, -1.0):
            assert signed_halfline_sup(s, np.array([sign])) == pytest.approx(2.0)

    def test_cancellation_pair(self):
        s = one_point_sample([0.25, 0.75])
        # signs +1, -1: the signed cdf is 1/2 on [0.25, 0.75) and 0 outside
        assert signed_halfline_sup(s, np.array([1.0, -1.0])) == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            sizes = rng.integers(1, 4, size=rng.integers(1, 8))
            s = Sample(tuple(PointPattern(rng.uniform(0, 1, (k, 1))) for k in sizes))
            signs = rng.choice([-1.0, 1.0], size=s.n)
            got = signed_halfline_sup(s, signs)
            xs = s.all_points()[:, 0]
            ws = np.repeat(signs / s.n, s.sizes())
            best = abs(ws.sum())
            for t in np.concatenate([xs, xs - 1e-12, [xs.min() - 1, xs.max() + 1]]):
                below = ws[xs <= t].sum()
                best = max(best, abs(below), abs(ws.sum() - below))
            assert got == pytest.approx(best, abs=1e-12)
