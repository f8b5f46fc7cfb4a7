import json

import numpy as np
import pytest
from scipy.special import ndtr

from ppdepth import (
    DiagonalGaussian,
    DiscretePoints,
    EmpiricalReference,
    FixedCount,
    MixedBinomialReference,
    PointPattern,
    RngStream,
    Sample,
    ShiftedPoisson,
    UniformBox,
    batch_depth_queries,
    deepest_point,
    depth_1d,
    depth_2d_exact,
    depth_approx,
    depth_oracle,
    depth_sup_deviation,
    half_lines,
    halfspace_mass,
    reference_for,
    sample_sample,
    sup_deviation,
)
from ppdepth.depth import _smooth_depth_2d
from ppdepth.harness.cli import main as cli_main

DIAMOND = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def point_measure(points) -> EmpiricalReference:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return EmpiricalReference(Sample(tuple(PointPattern([p]) for p in pts)))


class TestHalfspaceMass:
    def test_empty_side_is_zero(self):
        m = point_measure([[0.1], [0.5], [0.9]])
        assert halfspace_mass(m, [0.0], [1.0]) == 0.0

    def test_three_point_line(self):
        m = point_measure([[0.1], [0.5], [0.9]])
        assert halfspace_mass(m, [0.5], [1.0]) == pytest.approx(2.0 / 3.0)

    def test_analytic_box(self):
        ref = reference_for(FixedCount(2), UniformBox([0, 0], [1, 1]))
        assert halfspace_mass(ref, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_non_unit_direction(self):
        m = point_measure([[0.0, 0.0]])
        with pytest.raises(ValueError, match="unit"):
            halfspace_mass(m, [0.0, 0.0], [1.0, 1.0])

    def test_boundary_points_count(self):
        m = point_measure([[0.5], [0.5]])
        assert halfspace_mass(m, [0.5], [1.0]) == 1.0
        assert halfspace_mass(m, [0.5], [-1.0]) == 1.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_rows_equal_one_row_calls(self, d):
        """Entry (i, j) of a block is the float of the one-direction call
        with row i of the directions and point j, against empirical,
        discrete, Gaussian and box references, with rows that share a
        direction."""
        rng = np.random.default_rng(40 + d)
        atoms = rng.normal(size=(6, d))
        mean, std = rng.normal(size=d), rng.uniform(0.5, 2.0, d)
        low, high = -rng.uniform(size=d), rng.uniform(size=d) + 0.5
        refs = [
            point_measure(np.round(rng.normal(size=(30, d)) * 4.0) / 4.0),
            reference_for(ShiftedPoisson(1.5), DiscretePoints(atoms, [1 / 6] * 6)),
            reference_for(FixedCount(2), DiagonalGaussian(mean, std)),
            reference_for(FixedCount(1), UniformBox(low, high)),
        ]
        u = rng.normal(size=(40, d))
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[0], u[1] = np.eye(d)[0], -np.eye(d)[d - 1]
        u[30:] = u[:10]
        for ref in refs:
            points = np.round(rng.normal(size=(7, d)) * 4.0) / 4.0
            block = halfspace_mass(ref, points, u)
            assert block.shape == (40, 7)
            for j, x in enumerate(points):
                column = halfspace_mass(ref, x, u)
                assert column.tobytes() == block[:, j].tobytes()
                for i in range(40):
                    one = halfspace_mass(ref, x, u[i])
                    assert block[i, j].tobytes() == np.float64(one).tobytes()

    def test_discrete_atom_on_the_boundary_counts(self):
        """A discrete law's atom at x lies in every closed half-space through
        x, whatever the rounding of its projection."""
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(5, 3)) * 10.0
        ref = reference_for(FixedCount(1), DiscretePoints(pts, [0.2] * 5))
        u = rng.normal(size=(2000, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        for atom in pts:
            assert (halfspace_mass(ref, atom, u) >= 0.2).all()


class TestDepth1d:
    def test_middle_point(self):
        m = point_measure([[0.1], [0.5], [0.9]])
        res = depth_1d(m, 0.5)
        assert res.depth == pytest.approx(2.0 / 3.0)
        assert res.exact

    def test_below_all_mass(self):
        m = point_measure([[0.1], [0.5], [0.9]])
        assert depth_1d(m, 0.0).depth == 0.0

    def test_continuous_reference(self):
        ref = reference_for(FixedCount(1), UniformBox([0.0], [1.0]))
        assert depth_1d(ref, 0.25).depth == pytest.approx(0.25)
        assert depth_1d(ref, 0.5).depth == pytest.approx(0.5)

    def test_total_mass_scales_depth(self):
        ref = reference_for(FixedCount(3), UniformBox([0.0], [1.0]))
        assert depth_1d(ref, 0.25).depth == pytest.approx(0.75)


class TestDepth2dExact:
    def test_diamond_center(self):
        res = depth_2d_exact(point_measure(DIAMOND), [0.0, 0.0])
        assert res.depth == pytest.approx(0.5)
        assert res.exact

    def test_outside_convex_hull_is_zero(self):
        res = depth_2d_exact(point_measure(DIAMOND), [2.0, 2.0])
        assert res.depth == 0.0

    def test_far_points_have_zero_depth(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(25, 2))
        m = point_measure(pts)
        radius = float(np.linalg.norm(pts, axis=1).max())
        x = np.array([radius + 1.0, 0.0])
        assert depth_2d_exact(m, x).depth == 0.0

    def test_all_points_at_query(self):
        m = point_measure([[0.3, 0.3]] * 5)
        res = depth_2d_exact(m, [0.3, 0.3])
        assert res.depth == pytest.approx(1.0)  # total mass 5/5

    def test_matches_oracle_on_random_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            pts = rng.integers(-3, 4, size=(12, 2)).astype(float)
            x = rng.integers(-3, 4, size=2).astype(float)
            m = EmpiricalReference(Sample((PointPattern(pts),)))
            got = depth_2d_exact(m, x).depth
            want = depth_oracle(pts, x, random_directions=20_000)
            assert got == want, f"pts={pts.tolist()}, x={x.tolist()}"

    @pytest.mark.parametrize(
        "count", [FixedCount(2), ShiftedPoisson(1.5)], ids=["fixed", "poisson"]
    )
    def test_discrete_law_matches_oracle(self, count):
        """A planar discrete law takes the exact sweep over its atoms at
        masses E[L] * weight: lattice atoms, repeated and collinear, with
        query points on atoms, on the lattice and off it."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            pts = rng.integers(-3, 4, size=(int(rng.integers(3, 15)), 2)).astype(float)
            w = rng.uniform(0.1, 1.0, size=pts.shape[0])
            ref = reference_for(count, DiscretePoints(pts, w / w.sum()))
            masses = ref.atoms()[1]
            for x in (pts[0], rng.integers(-3, 4, size=2).astype(float), rng.normal(size=2)):
                got = depth_2d_exact(ref, x)
                want = depth_oracle(pts, x, weights=masses, random_directions=20_000)
                assert got.exact
                assert got.depth == pytest.approx(want, abs=1e-12)

    def test_deepest_point_of_a_discrete_law(self):
        """The deepest point of a planar discrete law carries the oracle's
        depth at that point."""
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0], [1.0, 3.0]])
        weights = [0.1, 0.2, 0.2, 0.1, 0.3, 0.1]
        ref = reference_for(ShiftedPoisson(0.5), DiscretePoints(pts, weights))
        x, d = deepest_point(ref, ([-1.0, -1.0], [3.0, 3.0]), 9)
        assert d == pytest.approx(depth_oracle(pts, x, weights=ref.atoms()[1]), abs=1e-12)
        assert d >= 0.3 * ref.total_mass

    def test_mass_rescale_scales_depth_linearly(self):
        pts = np.random.default_rng(3).normal(size=(10, 2))
        single = EmpiricalReference(Sample((PointPattern(pts),)))
        doubled = EmpiricalReference(
            Sample((PointPattern(np.vstack([pts, pts])),))
        )
        for x in ([0.0, 0.0], [0.2, -0.1]):
            assert depth_2d_exact(doubled, x).depth == pytest.approx(
                2.0 * depth_2d_exact(single, x).depth
            )


class TestDepthOracle:
    def test_single_point_full_mass(self):
        assert depth_oracle([[1.0, 2.0]], [1.0, 2.0], weights=[3.0]) == 3.0

    def test_diamond_value(self):
        got = depth_oracle(DIAMOND, [0.0, 0.0], weights=[0.25] * 4)
        assert got == pytest.approx(0.5)

    def test_weight_scaling(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(15, 2))
        w = rng.uniform(0.5, 2.0, size=15)
        base = depth_oracle(pts, [0.1, 0.1], weights=w)
        scaled = depth_oracle(pts, [0.1, 0.1], weights=5.0 * w)
        assert scaled == pytest.approx(5.0 * base)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            depth_oracle(np.zeros((201, 2)), [0.0, 0.0])
        with pytest.raises(ValueError):
            depth_oracle(np.zeros((5, 4)), [0.0] * 4)


class TestDepthApprox:
    def test_two_directions_on_line_match_exact(self):
        m = point_measure([[0.1], [0.5], [0.9]])
        res = depth_approx(m, [0.5], 2)
        assert res.depth == depth_1d(m, 0.5).depth
        assert not res.exact

    def test_upper_bounds_exact_planar_depth(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            pts = rng.normal(size=(18, 2))
            m = point_measure(pts)
            x = rng.normal(size=2) * 0.5
            exact = depth_2d_exact(m, x).depth
            for k in (8, 64, 512):
                assert depth_approx(m, x, k).depth >= exact - 1e-12

    def test_nonincreasing_in_k_on_prefix_sequence(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(80, 2))
        m = point_measure(pts)
        x = np.array([0.05, -0.1])
        vals = [depth_approx(m, x, k).depth for k in (4, 16, 64, 256, 1024)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_gaussian_deepest_point_within_closed_form(self):
        """The standard Gaussian's depth at x is Phi(-|x|); sampled
        directions bound it from above, and some direction has mass <= 1/2."""
        ref = reference_for(FixedCount(1), DiagonalGaussian([0.0] * 3, [1.0] * 3))
        x, d = deepest_point(ref, ([-1.0] * 3, [1.0] * 3), 4)
        assert ndtr(-np.linalg.norm(x)) - 1e-12 <= d <= 0.5 + 1e-12

    def test_one_line_mass_call_per_call(self, monkeypatch):
        """All k directions of an atomless measure take one block call."""
        calls = []
        inner = MixedBinomialReference.line_mass

        def counted(self, *args, **kwargs):
            calls.append(args[0].shape)
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(MixedBinomialReference, "line_mass", counted)
        ref = reference_for(FixedCount(1), DiagonalGaussian([0.0] * 3, [1.0] * 3))
        for k in (1, 64, 2048):
            depth_approx(ref, [0.3, -0.2, 0.1], k)
        assert calls == [(1, 3), (64, 3), (2048, 3)]

    def test_gaussian_center_is_half_mass(self):
        """Center of a symmetric continuous law: depth = E[L] / 2."""
        ref = reference_for(FixedCount(1), DiagonalGaussian([0, 0, 0], [1, 1, 1]))
        res = depth_approx(ref, [0.0, 0.0, 0.0], 4096)
        assert abs(res.depth - 0.5) <= 0.01


class TestDeepestPoint:
    def test_diamond_median(self):
        x, d = deepest_point(point_measure(DIAMOND), ([-1.5, -1.5], [1.5, 1.5]), 13)
        assert np.linalg.norm(x) <= 0.3
        assert d == pytest.approx(0.5)

    def test_single_point_measure(self):
        m = point_measure([[0.4, 0.6]] * 3)
        x, d = deepest_point(m, ([0.0, 0.0], [1.0, 1.0]), 11)
        assert np.linalg.norm(x - [0.4, 0.6]) <= 0.11
        assert d == pytest.approx(1.0)

    def test_uniform_line_median(self):
        ref = reference_for(FixedCount(1), UniformBox([0.0], [1.0]))
        x, d = deepest_point(ref, ([0.0], [1.0]), 41)
        assert x[0] == pytest.approx(0.5, abs=1e-6)
        assert d == pytest.approx(0.5, abs=1e-6)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            deepest_point(point_measure([[0.0]]), ([1.0], [0.0]), 5)


class TestDepthSupDeviation:
    def test_self_reference_zero(self):
        s = Sample(tuple(PointPattern([[v]]) for v in (0.1, 0.4, 0.8)))
        assert depth_sup_deviation(s, EmpiricalReference(s), [[0.5]]) == 0.0

    def test_dominated_by_halfline_sup(self):
        rng = np.random.default_rng(7)
        ref = reference_for(FixedCount(1), UniformBox([0.0], [1.0]))
        for _ in range(25):
            s = Sample(tuple(PointPattern([[v]]) for v in rng.uniform(0, 1, 40)))
            dd = depth_sup_deviation(s, ref, [[0.5]])
            ks = sup_deviation(s, half_lines(), ref).value
            assert dd <= ks + 1e-12

    def test_three_point_hand_value(self):
        """Max over the 7 candidate positions (3 data points, 2 midpoints,
        2 query points) computed by hand against the uniform reference."""
        s = Sample(tuple(PointPattern([[v]]) for v in (0.1, 0.5, 0.9)))
        ref = reference_for(FixedCount(1), UniformBox([0.0], [1.0]))
        emp = EmpiricalReference(s)
        candidates = [0.1, 0.3, 0.5, 0.7, 0.9, 0.25, 0.75]
        expected = max(
            abs(depth_1d(ref, t).depth - depth_1d(emp, t).depth) for t in candidates
        )
        got = depth_sup_deviation(s, ref, [[0.25], [0.75]])
        assert got == pytest.approx(expected, abs=1e-13)

    def test_rejects_missing_eval_points(self):
        s = Sample((PointPattern([[0.0]]),))
        with pytest.raises(ValueError):
            depth_sup_deviation(s, EmpiricalReference(s), [])

    @pytest.mark.parametrize("disp", [
        UniformBox([0.0], [1.0]),
        DiagonalGaussian([0.3], [0.2]),
        DiscretePoints([[0.1], [0.3], [0.5], [0.9]], [0.4, 0.3, 0.2, 0.1]),
    ], ids=["uniform", "gaussian", "discrete"])
    def test_grid_equals_scalar_depth_loop(self, disp):
        """The one-pass grid gives the float of the loop below, which takes
        one scalar depth per candidate, on continuous and tied data and
        with query points on data points."""
        for count, n in ((FixedCount(1), 23), (ShiftedPoisson(1.5), 9)):
            ref = reference_for(count, disp)
            for seed in range(6):
                s = sample_sample(n, count, disp, RngStream(seed, n))
                if seed % 2:  # a 1/8 lattice: tied data
                    s = Sample(np.round(s.all_points() * 8.0) / 8.0, s.sizes())
                pts = s.all_points()[:, 0]
                queries = [[0.25], [float(pts[0])], [float(pts[-1])], [-3.0], [0.5]]
                got = depth_sup_deviation(s, ref, queries)
                assert got == _deviation_loop(s, ref, queries)

    def test_grid_keeps_the_scaled_boundary_slack(self):
        """Points 2e-10 apart near 1000 lie within the boundary slack
        1e-12 * 1000 of one another, so both measures put all their mass on
        each closed tail through the cluster, as in the scalar loop."""
        s = Sample(np.array([[1000.0], [1000.0 + 4e-10]]), np.ones(2, dtype=np.int64))
        ref = EmpiricalReference(Sample(np.array([[1000.0 + 2e-10]]), np.ones(1, dtype=np.int64)))
        queries = [[1000.0 + 1e-10], [999.0]]
        assert depth_sup_deviation(s, ref, queries) == _deviation_loop(s, ref, queries) == 0.0


def _depth_1d_loop(measure, x: float) -> float:
    """One-point depth on the line: a tail count for an empirical measure,
    one-direction masses along +1 and -1 otherwise."""
    left = halfspace_mass(measure, [x], [1.0])
    if isinstance(measure, EmpiricalReference):
        proj = measure.sample.all_points()[:, 0]
        tol = 1e-12 * max(1.0, float(np.abs(proj).max()), abs(x))
        right = float(np.count_nonzero(proj >= x - tol) / measure.sample.n)
    else:
        right = halfspace_mass(measure, [x], [-1.0])
    return left if left <= right else right


def _deviation_loop(sample, ref, eval_points) -> float:
    """The 1-d depth deviation, one candidate at a time: data points,
    midpoints of distinct data points, reference atoms and query points."""
    xs = np.unique(sample.all_points()[:, 0])
    candidates = [xs, 0.5 * (xs[1:] + xs[:-1])]
    atoms = ref.atoms()
    if atoms is not None:
        candidates.append(np.unique(atoms[0][:, 0]))
    candidates.append(np.array([p[0] for p in eval_points], dtype=float))
    emp = EmpiricalReference(sample)
    best = 0.0
    for t in np.unique(np.concatenate(candidates)):
        best = max(best, abs(_depth_1d_loop(ref, float(t)) - _depth_1d_loop(emp, float(t))))
    return best


class TestGaussianDepthClosedForm:
    """For a count with mean lam and N(mu, diag sigma^2) steps the half-space
    depth is lam Phi(-|(x - mu) / sigma|): the mass below the boundary in
    direction u is lam Phi(<x - mu, u> / |sigma u|), and by Cauchy-Schwarz
    that ratio is smallest at -|(x - mu) / sigma| (Zuo & Serfling 2000,
    depth of an elliptical law as a function of Mahalanobis distance)."""

    MU = np.array([0.5, -1.0])
    SIGMA = np.array([1.0, 3.0])
    REF = reference_for(ShiftedPoisson(1.5), DiagonalGaussian(MU, SIGMA))  # lam = 2.5

    def _closed_form(self, x) -> float:
        return self.REF.total_mass * float(ndtr(-np.linalg.norm((x - self.MU) / self.SIGMA)))

    @pytest.mark.parametrize("z", [
        (0.0, 0.0), (0.3, 0.1), (1.0, -1.0), (-2.0, 0.5), (4.0, 3.0), (0.0, -9.0), (-12.0, 20.0),
    ])
    def test_smooth_depth_matches_closed_form(self, z):
        """Mahalanobis offsets z from the centre out to the far tails
        (|z| = 23.3 gives a depth near 3e-120)."""
        x = self.MU + self.SIGMA * np.array(z)
        assert _smooth_depth_2d(self.REF, x) == pytest.approx(self._closed_form(x), rel=1e-9)

    def test_median_on_a_grid_node_is_exact(self):
        """mu is the node (3, 3) of a 7 x 7 grid with dyadic spacing.  Every
        other node is shallower, and no point is deeper than lam / 2, so the
        refinement cannot move the answer."""
        x, d = deepest_point(self.REF, ((-1.0, -4.0), (2.0, 2.0)), 7)
        assert x.tolist() == self.MU.tolist()
        assert d == self.REF.total_mass / 2

    @pytest.mark.parametrize("box,grid", [
        (((-1.0, -4.0), (2.0, 2.0)), 6),
        (((-2.3, -5.1), (1.7, 2.9)), 8),
    ])
    def test_median_off_the_grid(self, box, grid):
        """Off the grid the Nelder-Mead refinement finds mu.  It stops once
        its simplex agrees to 1e-10 in depth and in position; near mu the
        depth falls off as lam (1/2 - r / sqrt(2 pi)) in the Mahalanobis
        distance r, so a depth within 1e-10 of lam / 2 puts x within
        r = sqrt(2 pi) 1e-10 / lam = 1e-10 of mu.  Both boxes land within
        3e-11; the bound is 1e-9."""
        lam = self.REF.total_mass
        x, d = deepest_point(self.REF, box, grid)
        assert np.linalg.norm((x - self.MU) / self.SIGMA) < 1e-9
        assert lam / 2 - 1e-9 < d <= lam / 2
        assert d == pytest.approx(self._closed_form(x), rel=1e-12)


class TestBatchQueries:
    def test_exact2d_schema_and_values(self, tmp_path):
        payload = {
            "points": DIAMOND.tolist(),
            "queries": [[0.0, 0.0], [2.0, 2.0]],
            "method": "exact2d",
        }
        rows = batch_depth_queries(payload)
        assert rows[0]["depth"] == pytest.approx(0.5)
        assert rows[1]["depth"] == 0.0
        assert set(rows[0]) == {"x1", "x2", "depth", "dir1", "dir2", "exact", "tie_count"}
        assert rows[0]["exact"] is True
        config = tmp_path / "batch.json"
        config.write_text(json.dumps(payload))
        assert cli_main(["depth", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "depth_queries.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,depth,dir1,dir2,exact,tie_count"
        assert lines[1].split(",")[5] == "true"

    def test_json_payload_from_disk(self, tmp_path):
        path = tmp_path / "query.json"
        path.write_text(
            json.dumps(
                {"points": [[0.0], [1.0]], "queries": [[0.5]], "method": "exact1d"}
            )
        )
        rows = batch_depth_queries(json.loads(path.read_text()))
        assert rows[0]["depth"] == pytest.approx(0.5)

    def test_approx_method_with_budget(self):
        rows = batch_depth_queries(
            {"points": DIAMOND.tolist(), "queries": [[0.0, 0.0]], "method": "approx:256"}
        )
        assert rows[0]["depth"] >= 0.5 - 1e-12
        assert rows[0]["exact"] is False

    def test_approx_in_three_dimensions_bounds_the_oracle(self):
        """approx:1000, not a power of 2, on 3-d points: an upper bound on
        the brute-force depth, without scipy's Sobol balance warning."""
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(30, 3))
        queries = rng.normal(size=(4, 3)) * 0.5
        rows = batch_depth_queries(
            {"points": pts.tolist(), "queries": queries.tolist(), "method": "approx:1000"}
        )
        for row, q in zip(rows, queries):
            assert row["depth"] >= depth_oracle(pts, q, weights=[1 / 30] * 30) - 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            batch_depth_queries(
                {"points": [[0.0]], "queries": [[0.0]], "method": "bogus"}
            )
