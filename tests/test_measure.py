import math

import numpy as np
import pytest
from scipy.integrate import quad

from ppdepth import (
    Constant,
    DiagonalGaussian,
    DiscretePoints,
    EmpiricalReference,
    Exponential,
    FixedCount,
    HalfLineIndicator,
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
from ppdepth.measure import (
    _directional_sup,
    _line_sup,
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
    atoms = ref.line_atoms(u)
    if atoms is not None:
        cands += list(np.asarray(atoms))
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
        best = 0.0
        for phi in np.linspace(0, 2 * math.pi, 3000, endpoint=False):
            u = np.array([math.cos(phi), math.sin(phi)])
            proj = np.sort(pts @ u)
            for t in np.concatenate([proj, proj - 1e-9, proj + 1e-9]):
                emp = np.count_nonzero(proj <= t) / s.n
                dev = abs(emp - float(ref.line_mass(u, t)))
                best = max(best, dev)
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


class TestBatchedSweep:
    def test_rows_match_single_sample_path(self):
        rng = np.random.default_rng(50)
        ref = reference_for(FixedCount(2), UNIFORM01)
        rows = rng.uniform(0, 1, size=(40, 14))  # 7 patterns of 2 points
        batch = halfline_sup_rows(rows, 7, ref)
        for i, row in enumerate(rows):
            s = Sample(tuple(PointPattern([[a], [b]]) for a, b in row.reshape(7, 2)))
            single = sup_deviation(s, half_lines(), ref).value
            assert batch[i] == pytest.approx(single, abs=1e-12)

    def test_weighted_flat_matches_sample_path(self):
        rng = np.random.default_rng(51)
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        sizes = rng.integers(1, 4, size=9)
        pts = rng.uniform(0, 1, size=(int(sizes.sum()), 1))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        s = Sample(tuple(PointPattern(pts[offsets[i]:offsets[i + 1]]) for i in range(9)))
        flat = halfline_sup_weighted(pts[:, 0], np.full(pts.shape[0], 1 / 9), ref)
        assert flat == pytest.approx(sup_deviation(s, half_lines(), ref).value, abs=1e-14)

    def test_batch_rejects_atomic_reference(self):
        ref = reference_for(FixedCount(1), DiscretePoints([[0.0]], [1.0]))
        with pytest.raises(ValueError):
            halfline_sup_rows(np.zeros((2, 3)), 3, ref)


def _line_sup_reference(xs, ws, ref_weak, ref_strict, ref_total, extra_positions=None):
    """The half-line sweep as first written: stable argsort, then one full
    abs/argmax pass per candidate.  The oracle for ``_line_sup``."""
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ws = ws[order]
    cum = np.cumsum(ws)
    emp_total = float(cum[-1]) if cum.size else 0.0
    no_ties = xs.size == 0 or bool((np.diff(xs) > 0).all())
    if no_ties and (extra_positions is None or not len(extra_positions)):
        pos, emp_weak, emp_strict = xs, cum, cum - ws
    else:
        pos = np.unique(xs)
        if extra_positions is not None and len(extra_positions):
            pos = np.union1d(pos, np.asarray(extra_positions, dtype=float))
        idx_weak = np.searchsorted(xs, pos, side="right")
        idx_strict = np.searchsorted(xs, pos, side="left")
        emp_weak = np.where(idx_weak > 0, cum[idx_weak - 1], 0.0)
        emp_strict = np.where(idx_strict > 0, cum[idx_strict - 1], 0.0)
    ref_weak_vals = np.asarray(ref_weak(pos), dtype=float)
    if ref_strict is None:
        ref_strict_vals = ref_weak_vals
    else:
        ref_strict_vals = np.asarray(ref_strict(pos), dtype=float)
    dev_weak = emp_weak - ref_weak_vals
    dev_strict = emp_strict - ref_strict_vals
    dtot = emp_total - ref_total
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
    """The batched sweep as first written: five full passes over (B, m)."""
    rows = np.sort(np.array(rows, dtype=float), axis=1)
    b, m = rows.shape
    cum = np.arange(1, m + 1, dtype=float) / n
    ref_vals = np.asarray(ref.line_mass(np.array([1.0]), rows), dtype=float)
    dev_weak = cum[None, :] - ref_vals
    dev_strict = dev_weak - 1.0 / n
    dtot = m / n - ref.total_mass
    out = np.abs(dev_weak).max(axis=1)
    np.maximum(out, np.abs(dev_strict).max(axis=1), out=out)
    np.maximum(out, np.abs(dtot - dev_weak).max(axis=1), out=out)
    np.maximum(out, np.abs(dtot - dev_strict).max(axis=1), out=out)
    np.maximum(out, abs(dtot), out=out)
    return out


def _sweep_args(ref):
    """``_line_sup``'s reference arguments for ``ref`` on the real line, or
    the zero measure for ``ref = None``."""
    if ref is None:
        return (lambda s: np.zeros(np.shape(s)), None, 0.0, None)
    u = np.array([1.0])
    atoms = ref.line_atoms(u)
    strict = None if atoms is None else (lambda s: ref.line_mass(u, s, strict=True))
    return (lambda s: ref.line_mass(u, s), strict, ref.total_mass, atoms)


class TestSweepKernelExact:
    """The sweep equals its first-written form bit for bit: value,
    threshold and orientation, on continuous and tied positions, equal and
    signed weights, and zero, uniform and atomic references."""

    REFS = (
        None,
        reference_for(FixedCount(1), UNIFORM01),
        reference_for(ShiftedPoisson(1.0), UNIFORM01),
        reference_for(FixedCount(1), DiscretePoints([[0.1], [0.3], [0.5], [0.9]], [0.4, 0.3, 0.2, 0.1])),
        reference_for(ShiftedPoisson(0.5), DiscretePoints([[0.3], [0.7]], [0.5, 0.5])),
    )

    def test_line_sup_matches_reference(self):
        rng = np.random.default_rng(2024)
        cases = 0
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
                    for ref in self.REFS:
                        args = (xs.copy(), ws.copy(), *_sweep_args(ref))
                        assert _line_sup(*args) == _line_sup_reference(*args)
                        cases += 1
        assert cases >= 2000

    def test_public_entry_points_match_reference(self):
        rng = np.random.default_rng(2025)
        for _ in range(100):
            m = int(rng.integers(1, 301))
            xs = rng.choice([0.1, 0.3, 0.5, 0.9, 0.95], size=m) if m % 2 else rng.uniform(size=m)
            ws = rng.choice([-1.0, 1.0], size=m) / m
            ref = self.REFS[int(rng.integers(1, len(self.REFS)))]
            expected = _line_sup_reference(xs, ws, *_sweep_args(ref))[0]
            assert halfline_sup_weighted(xs, ws, ref) == expected
            s = Sample(xs[:, None], np.ones(m, dtype=np.int64))
            val, t, o = _line_sup_reference(xs, np.full(m, 1.0 / m), *_sweep_args(ref))
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
            got = halfline_sup_rows(rows, n, ref)
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
