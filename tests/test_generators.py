import math

import numpy as np
import pytest
from scipy.integrate import quad

from ppdepth import (
    Constant,
    CoxMixture,
    DiagonalGaussian,
    DiscretePoints,
    Exponential,
    FixedCount,
    HalfLineIndicator,
    HalfSpaceIndicator,
    Pmf,
    RngStream,
    ShiftedPoisson,
    UniformBox,
    cox_pmf,
    count_moments,
    sample_count,
    sample_pattern,
    sample_sample,
)
from ppdepth.generators import draw_flat

ALL_COUNT_LAWS = [
    FixedCount(3),
    ShiftedPoisson(0.0),
    ShiftedPoisson(2.0),
    Pmf((0.2, 0.5, 0.3)),
    CoxMixture(atoms=((1.0, 1.0),)),
    CoxMixture(atoms=((0.5, 0.25), (2.0, 0.5), (40.0, 0.25))),
    CoxMixture(log_mean=0.5, log_sigma=0.75),
]


class TestRngStream:
    def test_same_stream_reproduces_bytes(self):
        a = RngStream(123, 5).generator().bytes(64)
        b = RngStream(123, 5).generator().bytes(64)
        assert a == b

    def test_distinct_indices_differ(self):
        a = RngStream(123, 5).generator().bytes(64)
        b = RngStream(123, 6).generator().bytes(64)
        assert a != b

    def test_child_streams_are_stable_and_label_sensitive(self):
        s = RngStream(99)
        assert s.child("x", 1) == s.child("x", 1)
        assert s.child("x", 1) != s.child("x", 2)
        assert s.child("x", 12) != s.child("x1", 2)


class TestChildGenerators:
    """A block's reseated generator draws, replicate for replicate, the
    bytes of a fresh ``child(*labels, r).generator()``."""

    LAWS = [
        (FixedCount(1), UniformBox([0.0], [1.0])),
        (FixedCount(2), DiagonalGaussian([0.3], [0.2])),
        (ShiftedPoisson(1.0), UniformBox([0.0], [1.0])),
        (CoxMixture(atoms=((0.5, 0.25), (2.0, 0.5), (40.0, 0.25))), UniformBox([0.0], [1.0])),
        (CoxMixture(log_mean=0.5, log_sigma=0.75), DiagonalGaussian([0.0, 1.0], [1.0, 3.0])),
        (Pmf((0.2, 0.5, 0.3)), DiscretePoints([[0.1], [0.3], [0.9]], [0.5, 0.25, 0.25])),
    ]
    LABELS = [("ulln", 50), ("bound", 10_000), ("clt", 200), ("depth", 40), ("diag", 100)]

    @staticmethod
    def _draws(gen, count, disp):
        """A runner's draws, then a 32-bit draw that leaves half a word
        buffered for the next replicate to ignore."""
        pts, sizes = draw_flat(5, count, disp, gen)
        signs = gen.choice(np.array([-1.0, 1.0]), size=5)
        odd = gen.integers(0, 2**31, size=3, dtype=np.int32)
        return pts.tobytes() + sizes.tobytes() + signs.tobytes() + odd.tobytes()

    @pytest.mark.parametrize("count,disp", LAWS)
    def test_blocks_match_child_streams(self, count, disp):
        for seed in (0, 20240817, 2**63 + 5, 2**64, 2**64 + 7, 3**70):
            stream = RngStream(seed)
            for labels in self.LABELS:
                block = [
                    self._draws(gen, count, disp)
                    for gen in stream.child_generators(*labels, lo=3, hi=9)
                ]
                fresh = [
                    self._draws(stream.child(*labels, r).generator(), count, disp)
                    for r in range(3, 9)
                ]
                assert block == fresh

    def test_empty_block_yields_nothing(self):
        assert list(RngStream(1).child_generators("diag", 100, lo=4, hi=4)) == []


class TestCountSampling:
    def test_fixed_always_k(self):
        vals = FixedCount(3).sample(RngStream(0).generator(), 1000)
        assert (vals == 3).all()

    def test_shifted_poisson_zero_rate_always_one(self):
        vals = ShiftedPoisson(0.0).sample(RngStream(0).generator(), 1000)
        assert (vals == 1).all()

    @pytest.mark.parametrize("law", ALL_COUNT_LAWS, ids=str)
    def test_support_never_hits_zero(self, law):
        vals = law.sample(RngStream(13).child(str(law)).generator(), 1_000_000)
        assert vals.min() >= 1

    @pytest.mark.parametrize("law", ALL_COUNT_LAWS, ids=str)
    def test_moments_match_simulation(self, law):
        """Empirical mean and second moment within 4 s.e. over 1e6 draws."""
        draws = 1_000_000
        vals = law.sample(RngStream(17).child(str(law)).generator(), draws).astype(float)
        m = law.moments()
        for target, emp in ((m.mean, vals), (m.second_moment, vals**2)):
            se = emp.std(ddof=1) / math.sqrt(draws)
            assert abs(emp.mean() - target) <= 4.0 * se, (
                f"{law}: empirical {emp.mean():.5f} vs exact {target:.5f} "
                f"(4 s.e. = {4 * se:.5f})"
            )

    def test_cox_draws_match_pmf(self):
        """Empirical pmf of the unit-rate mixed count within 4 s.e. per bin."""
        law = CoxMixture(atoms=((1.0, 1.0),))
        draws = 1_000_000
        vals = law.sample(RngStream(29).generator(), draws)
        top = int(vals.max())
        counts = np.bincount(vals, minlength=top + 1)
        for k in range(1, min(top, 10) + 1):
            p = cox_pmf(k, law)
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(counts[k] / draws - p) <= 4.0 * se + 1e-12, f"bin {k}"

    def test_large_rate_path_matches_poisson_conditioning(self):
        """Rates above the inversion cutoff use Poisson redraws; the mean
        must still match the zero-truncated value."""
        law = CoxMixture(atoms=((60.0, 1.0),))
        vals = law.sample(RngStream(31).generator(), 200_000).astype(float)
        target = law.moments().mean
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 4.0 * se

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    def test_shifted_poisson_rejects_bad_rate(self, lam):
        with pytest.raises(ValueError, match="rate"):
            ShiftedPoisson(lam)

    def test_sample_count_single_draw(self):
        assert sample_count(FixedCount(7), RngStream(0)) == 7


class TestCoxPmf:
    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            cox_pmf(0, CoxMixture(atoms=((1.0, 1.0),)))

    @pytest.mark.parametrize(
        "law",
        [
            CoxMixture(atoms=((1.0, 1.0),)),
            CoxMixture(atoms=((0.5, 0.25), (2.0, 0.5), (7.0, 0.25))),
            CoxMixture(atoms=((30.0, 1.0),)),
        ],
        ids=str,
    )
    def test_normalization(self, law):
        total, k = 0.0, 1
        while True:
            term = cox_pmf(k, law)
            total += term
            if term < 1e-16 and k > 5:
                break
            k += 1
        assert abs(total - 1.0) <= 1e-10

    def test_unit_rate_value(self):
        assert cox_pmf(1, CoxMixture(atoms=((1.0, 1.0),))) == pytest.approx(
            1.0 / (math.e - 1.0), rel=1e-12
        )

    def test_two_atom_value(self):
        law = CoxMixture(atoms=((1.0, 0.5), (2.0, 0.5)))
        expected = 0.5 / (math.e - 1.0) + 0.5 * 2.0 / (math.e**2 - 1.0)
        assert cox_pmf(1, law) == pytest.approx(expected, rel=1e-12)

    def test_log_space_branch_continuity(self):
        """The k > 20 log-space branch must agree with direct evaluation."""
        law = CoxMixture(atoms=((15.0, 0.5), (25.0, 0.5)))
        t, w = np.array([15.0, 25.0]), np.array([0.5, 0.5])
        for k in (21, 30, 45):
            direct = float(
                (w * t**k / (math.factorial(k) * np.expm1(t))).sum()
            )
            assert cox_pmf(k, law) == pytest.approx(direct, rel=1e-12)


class TestCountMoments:
    def test_fixed(self):
        m = count_moments(FixedCount(2))
        assert (m.mean, m.second_moment) == (2.0, 4.0)
        assert m.mgf(0.3) == pytest.approx(math.exp(0.6))

    def test_shifted_poisson(self):
        m = count_moments(ShiftedPoisson(1.0))
        assert m.mean == pytest.approx(2.0)
        assert m.second_moment == pytest.approx(5.0)

    def test_zero_truncated_unit_rate_mean(self):
        m = count_moments(CoxMixture(atoms=((1.0, 1.0),)))
        assert m.mean == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)

    def test_lognormal_mixing_has_no_mgf(self):
        m = count_moments(CoxMixture(log_mean=0.0, log_sigma=0.5))
        assert m.mgf is None
        assert m.mean > 1.0

    def test_lognormal_moments_match_simulation(self):
        law = CoxMixture(log_mean=0.0, log_sigma=0.5)
        vals = law.sample(RngStream(41).generator(), 400_000).astype(float)
        m = law.moments()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - m.mean) <= 4.0 * se

    def test_mgf_matches_series(self):
        """Closed-form count mgfs against direct pmf summation."""
        for law in (ShiftedPoisson(1.5), CoxMixture(atoms=((2.0, 1.0),)), Pmf((0.4, 0.6))):
            m = law.moments()
            theta = 0.37
            if isinstance(law, ShiftedPoisson):
                series = sum(
                    math.exp(theta * (1 + k)) * math.exp(-1.5) * 1.5**k / math.factorial(k)
                    for k in range(80)
                )
            elif isinstance(law, CoxMixture):
                series = sum(math.exp(theta * k) * cox_pmf(k, law) for k in range(1, 120))
            else:
                series = sum(
                    math.exp(theta * (k + 1)) * p for k, p in enumerate(law.probs)
                )
            assert m.mgf(theta) == pytest.approx(series, rel=1e-10)


class TestDisplacementLaws:
    def test_uniform_projection_cdf_matches_simulation_2d(self):
        law = UniformBox([0.0, -1.0], [2.0, 1.0])
        u = np.array([3.0, 4.0]) / 5.0
        pts = law.sample(RngStream(5).generator(), 200_000)
        proj = pts @ u
        for s in (-0.5, 0.2, 0.9, 1.6):
            emp = float((proj <= s).mean())
            exact = float(law.projection_cdf(u, s))
            assert abs(emp - exact) <= 4.0 * math.sqrt(0.25 / proj.size) + 1e-9

    def test_gaussian_projection_cdf(self):
        law = DiagonalGaussian([1.0, 0.0], [2.0, 0.5])
        u = np.array([1.0, 0.0])
        from scipy.stats import norm

        assert law.projection_cdf(u, 2.0) == pytest.approx(norm.cdf(2.0, loc=1.0, scale=2.0))

    def test_discrete_projection_weak_vs_strict(self):
        law = DiscretePoints([[0.0], [1.0]], [0.25, 0.75])
        u = np.array([1.0])
        assert law.projection_cdf(u, 1.0) == pytest.approx(1.0)
        assert law.projection_cdf(u, 1.0, strict=True) == pytest.approx(0.25)

    def test_uniform_mgf_matches_quadrature(self):
        law = UniformBox([0.2], [1.7])
        for theta in (-1.3, 0.0, 0.8):
            exact, _ = quad(lambda x: math.exp(theta * x) / 1.5, 0.2, 1.7)
            assert law.mgf(theta) == pytest.approx(exact, rel=1e-10)

    def test_gaussian_mgf(self):
        law = DiagonalGaussian([0.5], [2.0])
        theta = 0.3
        assert law.mgf(theta) == pytest.approx(math.exp(0.5 * 0.3 + 0.5 * (0.3 * 2.0) ** 2))

    def test_expectation_dispatch(self):
        law = UniformBox([0.0], [1.0])
        assert law.expectation(Constant(4.0)) == 4.0
        assert law.expectation(HalfLineIndicator(0.25)) == pytest.approx(0.25)
        assert law.expectation(HalfLineIndicator(0.25, -1)) == pytest.approx(0.75)
        assert law.expectation(Exponential(1.0, (0.0, 1.0))) == pytest.approx(math.e - 1.0)
        law2 = UniformBox([0.0, 0.0], [1.0, 1.0])
        hs = HalfSpaceIndicator([0.5, 0.5], [1.0, 0.0])
        assert law2.expectation(hs) == pytest.approx(0.5)

    def test_expectation_product_interval(self):
        law = UniformBox([0.0], [1.0])
        below = HalfLineIndicator(0.7, 1)
        above = HalfLineIndicator(0.3, -1)
        assert law.expectation_product(below, above) == pytest.approx(0.4)
        assert law.expectation_product(below, HalfLineIndicator(0.4, 1)) == pytest.approx(0.4)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            UniformBox([0.0], [0.0])
        with pytest.raises(ValueError):
            DiscretePoints([[0.0]], [0.5])

    @pytest.mark.parametrize("make", [
        lambda: UniformBox([0.0], [math.inf]),
        lambda: UniformBox([math.nan], [1.0]),
        lambda: DiagonalGaussian([0.0], [math.inf]),
        lambda: DiagonalGaussian([math.nan], [1.0]),
        lambda: DiagonalGaussian([0.0], [math.nan]),
        lambda: DiscretePoints([[math.nan]], [1.0]),
        lambda: DiscretePoints([[0.0], [1.0]], [math.nan, 1.0]),
    ])
    def test_non_finite_parameters_refused(self, make):
        """A non-finite parameter would reach the outputs as NaN."""
        with pytest.raises(ValueError):
            make()


class TestBlockProjectionCdf:
    """A (k, d) block of directions gives, row for row, the floats of the
    one-direction call: the same value, including the sign of zero."""

    LAWS = (
        UniformBox([0.0], [1.0]),
        UniformBox([-2.5], [7.25]),
        UniformBox([0.0, -1.0], [2.0, 1.0]),
        UniformBox([0.0, 0.0], [1.0, 1e-9]),  # near-zero width in most directions
        UniformBox([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
        # a thin slab: most rows keep two of three widths
        pytest.param(UniformBox([0.0, 0.0, 0.0], [1.0, 2.0, 1e-9]), id="UniformBox-3d-thin"),
        UniformBox([0.0, -1.0, 0.5, 0.0], [1.0, 2.0, 3.0, 0.5]),
        DiagonalGaussian([0.3], [0.2]),
        DiagonalGaussian([0.7, -1.2], [1.0, 3.0]),
        DiagonalGaussian([0.7, -1.2], [0.0, 3.0]),  # zero sd along the first axis
        DiagonalGaussian([0.1, 0.2, -0.3], [1.0, 2.0, 0.5]),
        DiscretePoints([[0.1, 0.2], [0.5, 0.5], [0.3, 0.9], [0.5, 0.5]], [0.2, 0.3, 0.3, 0.2]),
    )

    @staticmethod
    def _directions(rng, k, d):
        u = rng.normal(size=(k, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[0] = np.eye(d)[0]  # axis directions: zero widths and zero sds
        u[1] = -np.eye(d)[d - 1]
        u[2] = 0.0
        return u

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: f"{type(law).__name__}-{law.dim}d")
    def test_rows_equal_single_direction_calls(self, law):
        rng = np.random.default_rng(law.dim)
        for k in (3, 17, 64):
            u = self._directions(rng, k, law.dim)
            for shape in ((k,), (k, 9)):
                s = rng.normal(scale=2.0, size=shape)
                s.flat[::5] = 0.0  # 0 and 1 hit box corners along the axis directions
                s.flat[1::7] = 1.0
                if len(shape) == 2:
                    s[:, 1] = s[:, 0]  # ties within a row
                for strict in (False, True):
                    block = law.projection_cdf(u, s, strict)
                    assert block.shape == shape
                    for i in range(k):
                        row = np.asarray(law.projection_cdf(u[i], s[i], strict))
                        assert block[i].tobytes() == row.tobytes()

    @staticmethod
    def _inclusion_exclusion(law, u, s):
        """The box CDF along one direction for an array s, written out: the
        folded widths summed in box order, the kept ones in descending order
        through the inclusion-exclusion over their subsets."""
        lo, hi = u * law.low, u * law.high
        widths = np.abs(hi - lo)
        tiny = widths <= 1e-7 * float(widths.max())
        base = float(np.minimum(lo, hi).sum()) + float(widths[tiny].sum()) / 2.0
        w = np.sort(widths[~tiny])[::-1]
        t = s - base
        acc = np.zeros(t.shape)
        for mask in range(1 << w.size):
            picked = [j for j in range(w.size) if mask >> j & 1]
            offset = 0.0
            for j in picked:
                offset += w[j]
            acc = acc + (-1.0) ** len(picked) * np.maximum(t - offset, 0.0) ** w.size
        cdf = np.clip(acc / (math.factorial(w.size) * float(np.prod(w))), 0.0, 1.0)
        return np.where(t >= float(w.sum()), 1.0, cdf)

    @pytest.mark.parametrize("low,high", [
        ([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
        ([0.0, -1.0, 0.5, 0.0], [1.0, 2.0, 3.0, 0.5]),
        ([-1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 3.0, 2.5, 1.0, 4.0]),
    ], ids=["3d", "4d", "5d"])
    def test_box_rows_follow_inclusion_exclusion(self, low, high):
        law = UniformBox(low, high)
        rng = np.random.default_rng(law.dim)
        u = rng.normal(size=(50, law.dim))
        u /= np.linalg.norm(u, axis=1)[:, None]
        s = rng.normal(scale=2.0, size=(50, 9))
        block = law.projection_cdf(u, s)
        for i in range(50):
            assert block[i].tobytes() == self._inclusion_exclusion(law, u[i], s[i]).tobytes()

    @pytest.mark.parametrize("low,high", [(-0.0, 1.0), (-1.0, 0.0)])
    def test_signed_zero_bounds_on_the_line(self, low, high):
        """A zero box bound of either sign projects to an end of the support
        that the one-direction call subtracts as it is."""
        law = UniformBox([low], [high])
        u = np.array([[1.0], [-1.0]])
        s = np.array([[-0.0, 0.0, 0.5], [-0.0, 0.0, -0.5]])
        block = law.projection_cdf(u, s)
        for i in range(2):
            assert block[i].tobytes() == np.asarray(law.projection_cdf(u[i], s[i])).tobytes()


class TestUniformDraws:
    """One-dimensional boxes draw through numpy's scalar-bound path; the
    draws must equal the broadcast path's bit for bit."""

    @pytest.mark.parametrize("low,high", [(0.0, 1.0), (-2.5, 7.25)])
    @pytest.mark.parametrize("m", [1, 200, 100_000])
    def test_one_dimensional_draws_match_broadcast_path(self, low, high, m):
        law = UniformBox([low], [high])
        got = law.sample(RngStream(7).generator(), m)
        expected = RngStream(7).generator().uniform(
            np.array([low]), np.array([high]), size=(m, 1)
        )
        assert got.shape == (m, 1)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [1, 200, 100_000])
    def test_two_dimensional_draws_unchanged(self, m):
        low, high = np.array([0.0, -2.5]), np.array([1.0, 7.25])
        got = UniformBox(low, high).sample(RngStream(8).generator(), m)
        expected = RngStream(8).generator().uniform(low, high, size=(m, 2))
        assert got.tobytes() == expected.tobytes()


class TestPatternSampling:
    def test_fixed_one_discrete_origin(self):
        pat = sample_pattern(FixedCount(1), DiscretePoints([[0.0, 0.0]], [1.0]), RngStream(1))
        np.testing.assert_array_equal(pat.points, [[0.0, 0.0]])

    def test_fixed_five_has_five_points(self):
        pat = sample_pattern(FixedCount(5), UniformBox([0.0], [1.0]), RngStream(1))
        assert pat.size == 5

    def test_mean_pattern_size(self):
        sizes = [
            sample_pattern(ShiftedPoisson(2.0), UniformBox([0.0], [1.0]), RngStream(2).child(i)).size
            for i in range(2000)
        ]
        sizes = np.asarray(sizes, dtype=float)
        se = sizes.std(ddof=1) / math.sqrt(sizes.size)
        assert abs(sizes.mean() - 3.0) <= 3.0 * se

    def test_single_pattern_sample(self):
        s = sample_sample(1, FixedCount(3), UniformBox([0.0], [1.0]), RngStream(3))
        assert s.n == 1 and len(s.patterns) == 1 and s.patterns[0].size == 3

    def test_sample_caches(self):
        s = sample_sample(10, FixedCount(2), UniformBox([0.0], [1.0]), RngStream(3))
        assert (s.n, s.s_n, s.s_n2) == (10, 20, 40)

    def test_reproducibility(self):
        a = sample_sample(25, ShiftedPoisson(1.0), UniformBox([0.0], [1.0]), RngStream(4, 9))
        b = sample_sample(25, ShiftedPoisson(1.0), UniformBox([0.0], [1.0]), RngStream(4, 9))
        np.testing.assert_array_equal(a.all_points(), b.all_points())
        assert a.sizes().tolist() == b.sizes().tolist()

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_sample(0, FixedCount(1), UniformBox([0.0], [1.0]), RngStream(0))
