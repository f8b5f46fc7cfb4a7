import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from ppdepth import branching
from ppdepth.branching import BrwTree, estimate_table, exact_sum

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


def fsum_segments(values, starts):
    """The oracle: ``math.fsum`` of each segment."""
    ends = list(starts[1:]) + [len(values)]
    return np.array([math.fsum(values[a:b]) for a, b in zip(starts, ends)])


TINY = 5e-324  # the smallest subnormal


class TestExactSum:
    """The segment sums are ``math.fsum`` of each segment bit for bit; a
    plain ``np.add.reduceat`` fails the ties, cancellation and wide-span
    cases."""

    CASES = {
        "cancellation": ([1e16, 1.0, -1e16, 3.0, -1.0, 1e-16, -3.0, 2.5], [0, 3, 5]),
        "subnormals": ([1.0, TINY, -1.0, 3 * TINY, 1e-310, 2.2e-308, -1e-310, -TINY], [0, 4]),
        "wide-span": (
            [2.0**20, 1e-300, -(2.0**20), 2.0**-1000, 3.0, 2.0**-1070, -1.0, 1e-310], [0, 4]
        ),
        "wide-span-high": (
            [1e290, 1e-300, -1e290, 2.0**-1000, 2.0**900, 1.0, -(2.0**900)], [0, 4]
        ),
        "one-element": ([0.1, -0.2, 1e-320, 3.5, -0.0, 7e300], [0, 1, 2, 3, 4, 5]),
        "tie-even": ([1.0, 2.0**-53, 1.0, 2.0**-53, 2.0**-106], [0, 2]),
        "tie-odd": ([1.0 + 2.0**-52, 2.0**-53, -1.0, -2.0**-53, -2.0**-106], [0, 2]),
        "zeros": ([0.0, -0.0, -0.0, 1.0, -1.0], [0, 1, 3]),
        "repeated": ([0.1] * 10 + [1 / 3] * 7, [0, 10]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_fsum_per_segment(self, name):
        values, starts = self.CASES[name]
        values = np.array(values)
        got = exact_sum(values, starts)
        assert got.tobytes() == fsum_segments(values.tolist(), starts).tobytes()

    def test_whole_array_form(self):
        values = np.array([1.0, 2.0**-53, 2.0**-106, -1e-300, 0.1, 0.2])
        assert exact_sum(values) == math.fsum(values.tolist())
        assert exact_sum(np.array([])) == 0.0

    def test_non_finite_input_behaves_as_fsum(self):
        got = exact_sum(np.array([1.0, np.inf, 2.0, np.nan, -np.inf, -1.0]), [0, 2, 3, 5])
        np.testing.assert_array_equal(got, [np.inf, 2.0, np.nan, -1.0])
        with pytest.raises(ValueError):
            exact_sum(np.array([np.inf, -np.inf]), [0])
        with pytest.raises(OverflowError):
            exact_sum(np.array([1e308, 1e308, -1e308]), [0])

    @pytest.mark.parametrize("starts", [[], [1, 1], [2, 1], [-1], [0, 4]])
    def test_rejects_bad_starts(self, starts):
        with pytest.raises(ValueError, match="starts"):
            exact_sum(np.ones(4), starts)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1.0, -1.0, 2.0**-53, 2.0**-106, TINY, -TINY, 1e300, -1e-300]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.data(),
    )
    def test_property_matches_fsum(self, values, data):
        starts = sorted(data.draw(st.sets(st.integers(0, len(values) - 1), min_size=1)))
        try:
            expected = fsum_segments(values, starts)
        except OverflowError:
            with pytest.raises(OverflowError):
                exact_sum(np.array(values), starts)
            return
        assert exact_sum(np.array(values), starts).tobytes() == expected.tobytes()

    def test_estimate_table_rounds_the_exact_rational_once(self):
        """The generation estimate is S_j / |V_j|, the cumulative one the
        exact sum S_0 + ... + S_j over T_j, rounded once."""
        tree = grow_tree(FixedCount(2), UNIFORM01, 6, RngStream(3))
        sums = [1.0 + 2.0**-52, 2.0**-1070, 1e300, -1e300, 1 / 3, 0.1]
        total, expected = Fraction(0), []
        for j, value in enumerate(sums):
            total += Fraction(value)
            expected.append(float(total / tree.cumulative_size(j)))
        hat, tilde = estimate_table(tree, sums)
        assert tilde == expected
        assert hat == [value / tree.size(j) for j, value in enumerate(sums)]
        assert estimate_table(tree, np.array(sums)) == (hat, tilde)


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

    def test_estimators_exact_on_deterministic_tree(self):
        """Generation sums are correctly rounded, so on the binary tree with
        every step 0.5 both estimators of e^{theta x} are m(theta) bit for
        bit (a pairwise float sum misses it by up to 3 ulp)."""
        count, disp = FixedCount(2), DiscretePoints([[0.5]], [1.0])
        tree = grow_tree(count, disp, 12, RngStream(0))
        for theta in (-1.0, -0.3, 0.7, 1.0):
            f = Exponential(theta, (0.0, 1.0))
            m = true_laplace(count, disp, theta)
            for j in range(11):
                assert lotka_nagaev(tree, j, f) == m, (j, theta)
                assert harris(tree, j, f) == m, (j, theta)

    def test_laplace_estimates_are_the_estimators_of_the_exponential(self):
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 6, RngStream(21))
        for theta in (-1.3, 0.0, 0.4, 2.0):
            f = Exponential(theta, (0.0, 1.0))
            for j in range(6):
                pair = (lotka_nagaev(tree, j, f), harris(tree, j, f))
                assert laplace_estimates(tree, j, theta) == pair, (j, theta)

    def test_step_segments_lay_out_whole_displacement_rows(self):
        tree = grow_tree(ShiftedPoisson(1.0), DiagonalGaussian([0.0, 1.0], [1.0, 2.0]), 4,
                         RngStream(5))
        rows, starts = tree.step_segments(3)
        np.testing.assert_array_equal(rows, np.concatenate(tree.disp[1:4]))
        assert starts.tolist() == [0, tree.size(1), tree.size(1) + tree.size(2)]
        assert tree.step_segments()[0].shape == (sum(tree.gen_sizes()) - 1, 2)

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
        """Each function's fluctuation is, bit for bit, its weighted
        ``lotka_nagaev`` error, or with ``cumulative`` its weighted
        ``harris`` error, at every generation."""
        tree = grow_tree(ShiftedPoisson(1.0), UNIFORM01, 6, RngStream(13))
        ref = reference_for(ShiftedPoisson(1.0), UNIFORM01)
        fs = [HalfLineIndicator(0.5), HalfLineIndicator(0.3, -1), Constant(1.5),
              Exponential(0.7, (0.0, 1.0)), Exponential(-1.3, (0.0, 1.0))]
        for j in range(tree.generations):
            gen = normalized_fluctuations(tree, j, fs, ref)
            cum = normalized_fluctuations(tree, j, fs, ref, cumulative=True)
            want_gen = [math.sqrt(tree.size(j)) * (lotka_nagaev(tree, j, f) - ref.mass_of(f))
                        for f in fs]
            want_cum = [math.sqrt(tree.cumulative_size(j)) * (harris(tree, j, f) - ref.mass_of(f))
                        for f in fs]
            assert gen.tobytes() == np.array(want_gen).tobytes(), j
            assert cum.tobytes() == np.array(want_cum).tobytes(), j

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

    @staticmethod
    def json_dump(tree, path):
        """The oracle: one ``json.dumps`` per record, labels from ``label_of``."""
        with open(path, "w", encoding="utf-8") as fh:
            for j in range(tree.generations + 1):
                for i in range(tree.size(j)):
                    record = {"label": list(tree.label_of(j, i)), "pos": tree.pos[j][i].tolist(),
                              "disp": tree.disp[j][i].tolist(), "gen": j}
                    fh.write(json.dumps(record) + "\n")

    @pytest.mark.parametrize(
        "count,disp,generations",
        [
            (ShiftedPoisson(1.0), UNIFORM01, 5),
            (ShiftedPoisson(1.0), DiagonalGaussian([0.0, 0.0], [1e-5, 3.0]), 4),
            (FixedCount(2), DiscretePoints([[0.0]], [1.0]), 4),
        ],
        ids=["uniform-1d", "gaussian-2d", "zero-step"],
    )
    def test_dump_writes_the_json_dumps_bytes(self, tmp_path, count, disp, generations):
        tree = grow_tree(count, disp, generations, RngStream(17))
        dump_tree(tree, tmp_path / "tree.ndjson")
        self.json_dump(tree, tmp_path / "oracle.ndjson")
        text = (tmp_path / "tree.ndjson").read_bytes()
        assert text == (tmp_path / "oracle.ndjson").read_bytes()
        loaded = load_tree(tmp_path / "tree.ndjson")
        for field in ("pos", "disp", "parent", "counts"):
            for a, b in zip(getattr(loaded, field), getattr(tree, field)):
                assert a.tobytes() == b.tobytes()

    def test_non_finite_records_are_written_by_json_dumps(self, tmp_path):
        tree = grow_tree(FixedCount(2), UNIFORM01, 2, RngStream(18))
        disp = [d.copy() for d in tree.disp]
        pos = [p.copy() for p in tree.pos]
        disp[2][1, 0], pos[2][1, 0] = np.inf, np.inf
        pos[2][3, 0] = np.nan
        broken = BrwTree(tuple(disp), tree.parent, tuple(pos), tree.counts)
        dump_tree(broken, tmp_path / "tree.ndjson")
        self.json_dump(broken, tmp_path / "oracle.ndjson")
        text = (tmp_path / "tree.ndjson").read_text()
        assert text == (tmp_path / "oracle.ndjson").read_text()
        assert "Infinity" in text and "NaN" in text

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

    @staticmethod
    def assert_same_tree(a, b):
        for field in ("pos", "disp", "parent", "counts"):
            for x, y in zip(getattr(a, field), getattr(b, field), strict=True):
                assert x.tobytes() == y.tobytes()

    def test_loader_reads_across_chunks(self, tmp_path):
        """Lines are parsed a chunk at a time: 8,191 vertices take 8 chunks
        of 1024 lines, and blank lines count in no chunk."""
        tree = grow_tree(FixedCount(2), UNIFORM01, 12, RngStream(19))
        path = tmp_path / "tree.ndjson"
        dump_tree(tree, path)
        self.assert_same_tree(load_tree(path), tree)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("\n".join(lines[:3000]) + "  \n\n" + "".join(lines[3000:]))
        self.assert_same_tree(load_tree(path), tree)

    def test_non_finite_records_load(self, tmp_path):
        """A NaN or infinite position or displacement, the root's included,
        is refused with its generation; a NaN drift once passed the
        recursion check."""
        tree = grow_tree(FixedCount(2), UNIFORM01, 2, RngStream(18))
        for gen, field, vertex, value in [
            (2, "pos", 3, np.nan), (2, "disp", 1, np.inf), (1, "pos", 0, -np.inf),
            (0, "disp", 0, np.nan),
        ]:
            arrays = {name: [a.copy() for a in getattr(tree, name)] for name in ("disp", "pos")}
            arrays[field][gen][vertex, 0] = value
            broken = BrwTree(tuple(arrays["disp"]), tree.parent, tuple(arrays["pos"]), tree.counts)
            dump_tree(broken, tmp_path / "tree.ndjson")
            with pytest.raises(ValueError, match=f"^generation {gen} has a non-finite"):
                load_tree(tmp_path / "tree.ndjson")

    ROOT = '{"label": [], "pos": [0.0], "disp": [0.0], "gen": 0}'
    CHILD = '{"label": [1], "pos": [0.5], "disp": [0.5], "gen": 1}'

    @pytest.mark.parametrize("lines,error,message", [
        ([ROOT, "", CHILD, CHILD, '{"label": [1], "pos": [0.5], "disp": [0.5]}', "{"],
         ValueError, r"tree\.ndjson:5: malformed vertex record$"),
        ([ROOT, CHILD, CHILD, "{", '{"label": [1]}'],
         json.JSONDecodeError, r"^Expecting property name enclosed in double quotes: line 1 "),
        ([ROOT, f"{CHILD}, {CHILD}", CHILD],
         json.JSONDecodeError, r"^Extra data: line 1 column 54 "),
        ([ROOT, '{"label": [1], "pos": [0.5],', '"disp": [0.5], "gen": 1}'],
         json.JSONDecodeError, r"^Expecting property name enclosed in double quotes: line 1 "),
    ], ids=["bad-record-before-bad-json", "bad-json-before-bad-record", "two-records-on-a-line",
            "record-split-over-two-lines"])
    def test_loader_errors_are_per_line(self, tmp_path, monkeypatch, lines, error, message):
        """Chunks of three lines: a chunk that does not parse as one value per
        line is read line by line, so the first bad line raises its own
        error, as if every line were parsed alone."""
        monkeypatch.setattr(branching, "_LOAD_CHUNK", 3)
        path = tmp_path / "tree.ndjson"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=message):
            load_tree(path)

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
