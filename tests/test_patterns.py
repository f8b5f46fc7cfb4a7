import numpy as np
import pytest

from ppdepth import PointPattern, Sample, load_sample, save_sample


class TestPointPattern:
    def test_flat_vector_becomes_1d_points(self):
        pat = PointPattern([0.1, 0.2, 0.3])
        assert pat.points.shape == (3, 1)
        assert pat.size == 3 and pat.dim == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointPattern(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointPattern([[np.nan]])
        with pytest.raises(ValueError):
            PointPattern([[np.inf, 0.0]])

    def test_points_are_immutable(self):
        pat = PointPattern([[1.0, 2.0]])
        with pytest.raises(ValueError):
            pat.points[0, 0] = 0.0


class TestSample:
    def test_totals_match_recomputed_sums(self):
        rng = np.random.default_rng(7)
        sizes = rng.integers(1, 6, size=50)
        pats = tuple(PointPattern(rng.normal(size=(s, 2))) for s in sizes)
        sample = Sample(pats)
        assert sample.s_n == int(sizes.sum())
        assert sample.s_n2 == int((sizes**2).sum())
        assert sample.s_n >= sample.n
        assert sample.s_n2 >= sample.s_n
        assert sample.all_points().shape == (sample.s_n, 2)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            Sample((PointPattern([[0.0]]), PointPattern([[0.0, 1.0]])))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample(())


class TestFlatSample:
    def _parts(self):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 5, size=12)
        return rng.normal(size=(int(sizes.sum()), 2)), sizes

    def test_flat_and_pattern_construction_agree(self):
        pts, sizes = self._parts()
        flat = Sample(pts, sizes)
        bounds = np.cumsum(sizes)[:-1]
        ragged = Sample(tuple(PointPattern(p) for p in np.split(pts, bounds)))
        np.testing.assert_array_equal(flat.all_points(), ragged.all_points())
        np.testing.assert_array_equal(flat.sizes(), ragged.sizes())
        assert (flat.s_n, flat.s_n2) == (ragged.s_n, ragged.s_n2)
        assert (flat.s_n, flat.s_n2) == (int(sizes.sum()), int((sizes**2).sum()))

    def test_all_points_is_one_read_only_array(self):
        pts, sizes = self._parts()
        sample = Sample(pts, sizes)
        assert sample.all_points() is sample.all_points()
        assert sample.sizes() is sample.sizes()
        with pytest.raises(ValueError):
            sample.all_points()[0, 0] = 1.0
        with pytest.raises(ValueError):
            sample.sizes()[0] = 2

    def test_patterns_are_the_matching_slices(self):
        pts, sizes = self._parts()
        sample = Sample(pts, sizes)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        assert len(sample.patterns) == sample.n == sizes.size
        for i, pat in enumerate(sample.patterns):
            np.testing.assert_array_equal(pat.points, pts[starts[i] : starts[i + 1]])

    def test_rejects_malformed_flat_input(self):
        pts, sizes = self._parts()
        bad = pts.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Sample(bad, sizes)
        zero = sizes.copy()
        zero[0], zero[1] = 0, zero[1] + zero[0]
        with pytest.raises(ValueError, match="at least one point"):
            Sample(pts, zero)
        with pytest.raises(ValueError, match="sum"):
            Sample(pts, sizes[:-1])
        with pytest.raises(ValueError, match="mixed dimensions"):
            Sample([np.zeros((2, 1)), np.zeros((1, 2))])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pats = tuple(
            PointPattern(rng.normal(size=(rng.integers(1, 4), 3))) for _ in range(20)
        )
        sample = Sample(pats)
        path = tmp_path / "sample.ndjson"
        save_sample(sample, path)
        loaded = load_sample(path)
        assert loaded.n == sample.n
        assert loaded.s_n == sample.s_n
        np.testing.assert_array_equal(loaded.all_points(), sample.all_points())

    def test_loader_rejects_empty_pattern(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"points": []}\n')
        with pytest.raises(ValueError, match="L >= 1"):
            load_sample(path)

    def test_loader_rejects_mixed_dimensions(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"points": [[0.0]]}\n{"points": [[0.0, 1.0]]}\n')
        with pytest.raises(ValueError):
            load_sample(path)

    def test_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_sample(path)
