import json
import math

import numpy as np
import pytest

from ppdepth import (
    Constant,
    DiagonalGaussian,
    DiscretePoints,
    Exponential,
    FixedCount,
    HalfLineIndicator,
    RngStream,
    Sample,
    ShiftedPoisson,
    TreeCapError,
    UniformBox,
    dump_tree,
    empirical_intensity,
    grow_tree,
    harris,
    laplace_estimates,
    load_tree,
    lotka_nagaev,
    normalized_fluctuations,
    pattern_integral,
    reference_for,
    true_laplace,
    vertex_pattern,
)

STEP_ONE = DiscretePoints([[1.0]], [1.0])
UNIFORM01 = UniformBox([0.0], [1.0])


def binary_tree(generations=4, seed=1):
    return grow_tree(FixedCount(2), UNIFORM01, generations, RngStream(seed))


class TestGrowth:
    def test_binary_tree_doubles(self):
        tree = grow_tree(FixedCount(2), UNIFORM01, 3, RngStream(0))
        assert tree.gen_sizes() == (1, 2, 4, 8)

    def test_unit_path(self):
        tree = grow_tree(FixedCount(1), STEP_ONE, 5, RngStream(0))
        assert tree.gen_sizes() == (1,) * 6
        assert sum(tree.gen_sizes()) == 6

    def test_position_recursion_exact(self):
        tree = grow_tree(ShiftedPoisson(1.0), DiagonalGaussian([0.0], [1.0]), 7, RngStream(3))
        for j in range(1, tree.generations + 1):
            parents = tree.pos[j - 1][tree.parent[j]]
            np.testing.assert_array_equal(tree.pos[j], parents + tree.disp[j])

    def test_generation_sizes_sum_child_counts(self):
        tree = grow_tree(ShiftedPoisson(2.0), UNIFORM01, 5, RngStream(4))
        for j in range(tree.generations):
            assert tree.size(j + 1) == int(tree.counts[j].sum())

    def test_mean_growth_rate(self):
        """Generation sizes grow like E[L]^j: mean of |V_6| within 4 s.e."""
        reps, j = 800, 6
        sizes = np.array(
            [
                grow_tree(ShiftedPoisson(1.0), STEP_ONE, j, RngStream(5).child(r)).size(j)
                for r in range(reps)
            ],
            dtype=float,
        )
        target = 2.0**j
        se = sizes.std(ddof=1) / math.sqrt(reps)
        assert abs(sizes.mean() - target) <= 4.0 * se

    def test_cap_error_carries_generation_sizes(self):
        with pytest.raises(TreeCapError) as info:
            grow_tree(FixedCount(3), UNIFORM01, 20, RngStream(0), cap=100)
        assert info.value.gen_sizes[0] == 1
        assert sum(info.value.gen_sizes) <= 100

    def test_labels_round_trip(self):
        tree = grow_tree(ShiftedPoisson(1.5), UNIFORM01, 4, RngStream(6))
        for j in range(tree.generations + 1):
            for i in range(tree.size(j)):
                label = tree.label_of(j, i)
                assert len(label) == j
                assert tree.index_of(label) == (j, i)


class TestVertexPattern:
    def test_path_root_pattern(self):
        tree = grow_tree(FixedCount(1), STEP_ONE, 5, RngStream(0))
        np.testing.assert_array_equal(vertex_pattern(tree, ()).points, [[1.0]])

    def test_binary_root_has_two_children(self):
        tree = binary_tree()
        assert vertex_pattern(tree, ()).size == 2

    def test_pattern_size_matches_recorded_count(self):
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 6, RngStream(7))
        rng = np.random.default_rng(8)
        for _ in range(100):
            j = int(rng.integers(0, tree.generations))
            i = int(rng.integers(0, tree.size(j)))
            pat = vertex_pattern(tree, tree.label_of(j, i))
            assert pattern_integral(pat, Constant(1.0)) == float(tree.counts[j][i])

    def test_last_generation_has_no_observed_children(self):
        tree = binary_tree(3)
        leaf = tree.label_of(3, 0)
        with pytest.raises(ValueError, match="unobserved"):
            vertex_pattern(tree, leaf)


class TestEstimators:
    def test_generation_estimator_of_mass_is_ratio(self):
        tree = binary_tree(5)
        for j in range(5):
            assert lotka_nagaev(tree, j, Constant(1.0)) == 2.0

    def test_cumulative_estimator_of_mass(self):
        tree = binary_tree(4)
        # generations sizes 1,2,4,8,16: at j=2 the value is (2+4+8)/(1+2+4)
        assert harris(tree, 2, Constant(1.0)) == pytest.approx(2.0)

    def test_path_tree_estimators_coincide(self):
        tree = grow_tree(FixedCount(1), STEP_ONE, 6, RngStream(0))
        f = Exponential(0.7, (0.0, 2.0))
        for j in range(6):
            assert harris(tree, j, f) == pytest.approx(lotka_nagaev(tree, j, f))

    def test_generation_estimator_matches_empirical_intensity(self):
        """The estimator is the empirical intensity of the child patterns."""
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 5, RngStream(9))
        f = HalfLineIndicator(0.4)
        for j in (0, 2, 4):
            pats = tuple(
                vertex_pattern(tree, tree.label_of(j, i)) for i in range(tree.size(j))
            )
            assert lotka_nagaev(tree, j, f) == pytest.approx(
                empirical_intensity(Sample(pats), f), rel=1e-12
            )

    def test_cumulative_estimator_matches_breadth_first_sample(self):
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 5, RngStream(10))
        f = HalfLineIndicator(0.6)
        j = 3
        pats = []
        for l in range(j + 1):
            for i in range(tree.size(l)):
                pats.append(vertex_pattern(tree, tree.label_of(l, i)))
        assert harris(tree, j, f) == pytest.approx(
            empirical_intensity(Sample(tuple(pats)), f), rel=1e-12
        )

    def test_cumulative_identity_with_generation_sums(self):
        """T_j * cumulative = sum over l <= j of |V_l| * generation(l)."""
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 6, RngStream(11))
        f = Exponential(0.5, (0.0, 1.0))
        for j in (1, 3, 5):
            lhs = harris(tree, j, f) * tree.cumulative_size(j)
            rhs = sum(lotka_nagaev(tree, l, f) * tree.size(l) for l in range(j + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_out_of_range_generation(self):
        tree = binary_tree(3)
        with pytest.raises(ValueError):
            lotka_nagaev(tree, 3, Constant(1.0))
        with pytest.raises(ValueError):
            harris(tree, -1, Constant(1.0))


class TestLaplace:
    def test_theta_zero_reduces_to_mass_estimators(self):
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 5, RngStream(12))
        m_hat, m_tilde = laplace_estimates(tree, 3, 0.0)
        assert m_hat == pytest.approx(lotka_nagaev(tree, 3, Constant(1.0)))
        assert m_tilde == pytest.approx(harris(tree, 3, Constant(1.0)))

    def test_unit_path_value(self):
        tree = grow_tree(FixedCount(1), STEP_ONE, 5, RngStream(0))
        for theta in (-0.5, 0.3, 1.0):
            m_hat, _ = laplace_estimates(tree, 2, theta)
            assert m_hat == pytest.approx(math.exp(theta))

    def test_zero_displacement_binary_tree(self):
        tree = grow_tree(FixedCount(2), DiscretePoints([[0.0]], [1.0]), 4, RngStream(0))
        for theta in (-1.0, 0.0, 2.0):
            m_hat, m_tilde = laplace_estimates(tree, 2, theta)
            assert m_hat == 2.0
            assert m_tilde == pytest.approx(2.0)

    def test_cumulative_estimate_exact_on_deterministic_tree(self):
        count, disp = FixedCount(2), DiscretePoints([[0.5]], [1.0])
        tree = grow_tree(count, disp, 9, RngStream(0))
        for j in (2, 4, 6, 8):
            for theta in (-1.0, 0.0, 1.0):
                _, m_tilde = laplace_estimates(tree, j, theta)
                assert m_tilde == true_laplace(count, disp, theta), (j, theta)

    def test_true_laplace_values(self):
        assert true_laplace(FixedCount(2), UNIFORM01, 0.0) == pytest.approx(2.0)
        assert true_laplace(FixedCount(2), UNIFORM01, 1.0) == pytest.approx(
            2.0 * (math.e - 1.0)
        )
        assert true_laplace(
            FixedCount(1), DiagonalGaussian([0.0], [1.0]), 1.0
        ) == pytest.approx(math.exp(0.5))

    def test_multidimensional_tree_rejected(self):
        tree = grow_tree(FixedCount(2), UniformBox([0, 0], [1, 1]), 2, RngStream(0))
        with pytest.raises(ValueError):
            laplace_estimates(tree, 1, 1.0)


class TestFluctuations:
    def test_exact_estimator_gives_zero(self):
        tree = grow_tree(FixedCount(2), DiscretePoints([[0.0]], [1.0]), 4, RngStream(0))
        ref = reference_for(FixedCount(2), DiscretePoints([[0.0]], [1.0]))
        vals = normalized_fluctuations(tree, 2, [Constant(1.0)], ref)
        np.testing.assert_array_equal(vals, [0.0])

    def test_weights_and_estimator_selection(self):
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 4, RngStream(13))
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        f = HalfLineIndicator(0.5)
        j = 2
        gen = normalized_fluctuations(tree, j, [f], ref)[0]
        cum = normalized_fluctuations(tree, j, [f], ref, cumulative=True)[0]
        assert gen == pytest.approx(
            math.sqrt(tree.size(j)) * (lotka_nagaev(tree, j, f) - ref.mass_of(f))
        )
        assert cum == pytest.approx(
            math.sqrt(tree.cumulative_size(j)) * (harris(tree, j, f) - ref.mass_of(f))
        )

    def test_variance_matches_pattern_covariance(self):
        """Conditionally on |V_j|, the scaled error has variance gamma(f, f)
        for every j, so the pooled variance matches it too (4 s.e. check)."""
        count, disp = ShiftedPoisson(1.0), UNIFORM01
        ref = reference_for(count, disp)
        f = HalfLineIndicator(0.5)
        gamma = ref.pattern_covariance(f, f)
        reps, j = 1500, 4
        vals = np.array(
            [
                normalized_fluctuations(
                    grow_tree(count, disp, j + 1, RngStream(14).child(r)), j, [f], ref
                )[0]
                for r in range(reps)
            ]
        )
        var = vals.var(ddof=1)
        se = math.sqrt(2.0 / (reps - 1)) * var  # normal-theory s.e. of a variance
        assert abs(var - gamma) <= 4.0 * se + 0.02 * gamma


class TestTreeSerialization:
    def test_round_trip(self, tmp_path):
        tree = grow_tree(ShiftedPoisson(1.0), UniformBox([0, 0], [1, 1]), 4, RngStream(15))
        path = tmp_path / "tree.ndjson"
        dump_tree(tree, path)
        loaded = load_tree(path)
        assert loaded.gen_sizes() == tree.gen_sizes()
        for j in range(tree.generations + 1):
            np.testing.assert_array_equal(loaded.pos[j], tree.pos[j])
            np.testing.assert_array_equal(loaded.disp[j], tree.disp[j])
            np.testing.assert_array_equal(loaded.parent[j], tree.parent[j])

    def test_dumped_labels_match_label_of(self, tmp_path):
        tree = grow_tree(ShiftedPoisson(1.5), UNIFORM01, 5, RngStream(16))
        path = tmp_path / "tree.ndjson"
        dump_tree(tree, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        expected = [
            (j, list(tree.label_of(j, i)))
            for j in range(tree.generations + 1)
            for i in range(tree.size(j))
        ]
        assert [(r["gen"], r["label"]) for r in records] == expected

    def test_loader_rejects_broken_recursion(self, tmp_path):
        path = tmp_path / "tree.ndjson"
        path.write_text(
            '{"label": [], "pos": [0.0], "disp": [0.0], "gen": 0}\n'
            '{"label": [1], "pos": [0.5], "disp": [0.2], "gen": 1}\n'
        )
        with pytest.raises(ValueError, match="recursion"):
            load_tree(path)

    def test_loader_rejects_displaced_root(self, tmp_path):
        path = tmp_path / "tree.ndjson"
        path.write_text('{"label": [], "pos": [1.0], "disp": [0.0], "gen": 0}\n')
        with pytest.raises(ValueError, match="origin"):
            load_tree(path)

    def test_loader_rejects_orphan(self, tmp_path):
        path = tmp_path / "tree.ndjson"
        path.write_text(
            '{"label": [], "pos": [0.0], "disp": [0.0], "gen": 0}\n'
            '{"label": [1], "pos": [0.5], "disp": [0.5], "gen": 1}\n'
            '{"label": [2, 1], "pos": [1.0], "disp": [0.5], "gen": 2}\n'
        )
        with pytest.raises(ValueError, match="parent"):
            load_tree(path)
