"""Acceptance gate: every release criterion runs here at its stated
tolerance and prints one PASS/FAIL line.

The checks are oracle-based: depth values against an independent brute-force
search, supremum deviations against the classical order-statistics form of
the two-sided KS statistic, Monte Carlo rates and covariances against their
closed-form targets, and closed-form tail bounds against empirical
exceedance frequencies on seeded replicates.
"""

import dataclasses
import glob
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.special import lambertw
from scipy.stats import kstest, kstwo

from ppdepth import (
    DeviationBoundParams,
    EmpiricalReference,
    FixedCount,
    PointPattern,
    RngStream,
    Sample,
    UniformBox,
    deviation_bound,
    depth_2d_exact,
    depth_oracle,
    empirical_pseudo_distance,
    half_lines,
    half_spaces,
    laplace_estimates,
    maximal_packing,
    reference_for,
    sup_deviation,
    true_laplace,
    vc_covering_bound,
)
from ppdepth.bounds import VcBoundParams, halfline_candidates, halfplane_candidates
from ppdepth.branching import grow_tree
from ppdepth.generators import DiscretePoints, sample_sample
from ppdepth.harness import build_config, run_experiment
from ppdepth.harness.cli import main as cli_main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
THREADS = 1

UNIFORM01 = UniformBox([0.0], [1.0])


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {name}: {status}{suffix}")


class TestCriterion1DepthOracle:
    def test_exact_planar_depth_equals_oracle(self):
        """200 seeded 20-point configurations with duplicates and collinear
        triples: the sweep and the brute-force oracle agree exactly."""
        start = time.perf_counter()
        mismatches = []
        for k in range(200):
            rng = np.random.default_rng(1000 + k)
            pts = rng.integers(-3, 4, size=(15, 2)).astype(float)
            pts = np.vstack([pts, pts[0], pts[1]])  # exact duplicates
            anchor = pts[2]
            step = rng.integers(-2, 3, size=2).astype(float)
            if not step.any():
                step = np.array([1.0, 0.0])
            collinear = np.stack([anchor, anchor + step, anchor + 2 * step])
            pts = np.vstack([pts, collinear])  # 20 points total
            assert pts.shape == (20, 2)
            x = (
                pts[int(rng.integers(0, 20))]
                if rng.random() < 0.7
                else rng.integers(-4, 5, size=2).astype(float)
            )
            measure = EmpiricalReference(Sample((PointPattern(pts),)))
            sweep = depth_2d_exact(measure, x).depth
            brute = depth_oracle(pts, x, weights=np.ones(20))
            if sweep != brute:
                mismatches.append((k, sweep, brute))
        elapsed = time.perf_counter() - start
        ok = not mismatches and elapsed < 10.0
        report(1, "depth oracle equivalence", ok, f"{elapsed:.1f}s")
        assert not mismatches, mismatches[:5]
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


class TestCriterion2KsReduction:
    def test_halfline_sup_equals_ks_statistic(self):
        """1000 seeded samples of n = 100 unit-count uniform patterns: the
        half-line supremum equals the two-sided KS statistic computed
        independently from sorted order statistics, to 1e-12."""
        start = time.perf_counter()
        n = 100
        ref = reference_for(FixedCount(1), UNIFORM01)
        cls = half_lines()
        worst = 0.0
        for k in range(1000):
            gen = RngStream(41).child("ks", k).generator()
            xs = gen.uniform(size=n)
            sample = Sample(tuple(PointPattern([[v]]) for v in xs))
            got = sup_deviation(sample, cls, ref).value
            sorted_xs = np.sort(xs)
            levels = np.arange(1, n + 1) / n
            ks = max(
                float((levels - sorted_xs).max()),
                float((sorted_xs - (levels - 1.0 / n)).max()),
            )
            worst = max(worst, abs(got - ks))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and elapsed < 5.0
        report(2, "KS reduction", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-12
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


class TestCriterion3UllnRate:
    def test_deviation_decay_rates(self):
        start = time.perf_counter()
        slopes = {}
        for name, count, tol in (
            ("fixed", {"kind": "fixed", "k": 1}, 0.05),
            ("shifted_poisson", {"kind": "shifted_poisson", "lambda": 2.0}, 0.08),
        ):
            cfg = build_config(
                {
                    "kind": "ulln",
                    "count": count,
                    "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
                    "function_class": {"kind": "half_lines"},
                    "n_grid": [100, 1000, 10000],
                    "replicates": 200,
                    "seed": 52,
                }
            )
            out = run_experiment(dataclasses.replace(cfg, threads=THREADS))
            slope = next(r for r in out.records if r.statistic == "loglog_slope").value
            slopes[name] = (slope, tol)
            if name == "fixed":
                sups = self._sups_by_n(out.records)
        elapsed = time.perf_counter() - start
        # fixed count 1 and U(0, 1) steps make each sup a two-sided KS
        # statistic, whose exact law is kstwo(n); the sups plus 1/n must
        # fail the same test, so it sees an off-by-one-point sweep
        pvalues = {n: kstest(v, kstwo(n).cdf).pvalue for n, v in sups.items()}
        shifted = {n: kstest(v + 1.0 / n, kstwo(n).cdf).pvalue for n, v in sups.items()}
        ok = (
            all(abs(s + 0.5) <= tol for s, tol in slopes.values())
            and min(pvalues.values()) > 1e-3
            and elapsed < 120.0
        )
        detail = ", ".join(f"{k}: {s:+.3f} (tol {t})" for k, (s, t) in slopes.items())
        ks = ", ".join(f"n={n}: p={p:.3g}" for n, p in pvalues.items())
        report(3, "ULLN decay rate", ok, f"{detail}, kstwo {ks}, {elapsed:.0f}s")
        for name, (slope, tol) in slopes.items():
            assert abs(slope + 0.5) <= tol, f"{name}: slope {slope}"
        assert min(pvalues.values()) > 1e-3, pvalues
        assert min(shifted.values()) < 1e-3, shifted
        assert elapsed < 120.0

    @staticmethod
    def _sups_by_n(records) -> dict[int, np.ndarray]:
        """The 200 replicate ``sup_deviation`` records at each n."""
        sups: dict[int, list[float]] = {}
        for r in records:
            if r.statistic == "sup_deviation":
                sups.setdefault(dict(r.params)["n"], []).append(r.value)
        assert sorted(sups) == [100, 1000, 10000]
        assert all(len(v) == 200 for v in sups.values())
        return {n: np.array(v) for n, v in sups.items()}


class TestCriterion4CltCovariance:
    def test_covariance_and_normality(self):
        start = time.perf_counter()
        cfg = build_config(
            {
                "kind": "clt",
                "count": {"kind": "shifted_poisson", "lambda": 1.0},
                "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
                "function_class": {
                    "kind": "finite_list",
                    "functions": [
                        {"kind": "half_line", "threshold": 0.3},
                        {"kind": "half_line", "threshold": 0.7},
                        {"kind": "constant", "value": 1.0},
                    ],
                },
                "n_grid": [1000],
                "replicates": 10000,
                "gt_draws": 1000000,
                "seed": 53,
            }
        )
        out = run_experiment(dataclasses.replace(cfg, threads=THREADS))
        rep = {}
        gt = {}
        for r in out.records:
            p = dict(r.params)
            if r.statistic == "replicate_covariance":
                rep[(p["f"], p["g"])] = (r.value, r.stderr)
            elif r.statistic == "ground_truth_covariance":
                gt[(p["f"], p["g"])] = (r.value, r.stderr)
        cov_gaps = []
        for key in rep:
            (a, se_a), (b, se_b) = rep[key], gt[key]
            gap = abs(a - b) / math.hypot(se_a, se_b)
            cov_gaps.append((key, gap))
        skews = [
            abs(r.value)
            for r in out.records
            if r.statistic == "marginal_skewness"
        ]
        kurts = [
            abs(r.value)
            for r in out.records
            if r.statistic == "marginal_excess_kurtosis"
        ]
        elapsed = time.perf_counter() - start
        worst = max(g for _, g in cov_gaps)
        ok = (
            worst <= 5.0
            and max(skews) < 0.1
            and max(kurts) < 0.2
            and elapsed < 180.0
        )
        report(
            4,
            "CLT covariance",
            ok,
            f"max gap {worst:.2f} s.e., skew {max(skews):.3f}, "
            f"kurt {max(kurts):.3f}, {elapsed:.0f}s",
        )
        for key, gap in cov_gaps:
            assert gap <= 5.0, f"entry {key}: {gap:.2f} s.e."
        assert max(skews) < 0.1
        assert max(kurts) < 0.2
        assert elapsed < 180.0


def _criterion5_output():
    cfg = build_config(
        {
            "kind": "bound",
            "count": {"kind": "fixed", "k": 1},
            "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
            "function_class": {"kind": "half_lines"},
            "n_grid": [10000, 100000],
            "replicates": 10000,
            "epsilon_grid": [0.05],
            "alpha": 1.01,
            "beta": 1.01,
            "seed": 54,
        }
    )
    return run_experiment(dataclasses.replace(cfg, threads=THREADS))


class TestCriterion5TailBound:
    out = None

    @classmethod
    def _ensure(cls):
        if cls.out is None:
            start = time.perf_counter()
            cls.out = _criterion5_output()
            cls.elapsed = time.perf_counter() - start
        return cls.out

    def test_exceedance_never_exceeds_clamped_bound(self):
        out = self._ensure()
        stats = {}
        for r in out.records:
            stats.setdefault(dict(r.params).get("n"), {})[r.statistic] = r.value
        ok = out.violations == 0
        freq_small = stats[10000]["empirical_exceedance"]
        freq_large = stats[100000]["empirical_exceedance"]
        ok = ok and freq_small <= stats[10000]["clamped_bound"]
        ok = ok and freq_large <= stats[100000]["clamped_bound"]
        ok = ok and freq_large == 0.0
        ok = ok and self.elapsed < 120.0
        report(
            5,
            "tail bound validity",
            ok,
            f"exceedance {freq_small:.4f}/{freq_large:.4f}, {self.elapsed:.0f}s",
        )
        assert out.violations == 0
        assert freq_small <= stats[10000]["clamped_bound"]
        assert freq_large <= stats[100000]["clamped_bound"]
        assert freq_large == 0.0
        assert self.elapsed < 120.0

    def test_raw_bound_below_one_percent_at_n_1e5(self):
        """Raw closed-form bound at eps = 0.05, alpha = beta = 1.01, v = 2,
        and the sample size at which it falls below 1e-2.

        The sub-claim as first stated, raw < 1e-2 at n = 1e5, is
        arithmetically unreachable: the bound is
        16 (alpha n)^{v-1} exp(-eps^2 n / (32 beta)), whose exponent at
        n = 1e5 is only -7.7, so the value is about 7.06e2 (it is 4.12e-27
        at n = 1e6). The test checks instead, against oracles evaluated here:

        (a) raw(1e5) equals the closed form, so the clamped bound is 1 and
            the bound is vacuous at criterion 5's larger n;
        (b) with c = eps^2 / (32 beta), the first n with raw(n) < 1e-2 is
            n* = ceil(-W_{-1}(-0.01 c / (16 alpha)) / c) = 256,527, where
            W_{-1} is the lower branch of the Lambert W function.
        """
        eps, alpha, beta, v, threshold = 0.05, 1.01, 1.01, 2, 1e-2

        def bound(n):
            return deviation_bound(DeviationBoundParams(eps, n, alpha, beta, v, 0.0, 0.0))

        def closed_form(n):
            return 16.0 * alpha * n * math.exp(-(eps**2) * n / (32.0 * beta))

        b = bound(100000)
        c = eps**2 / (32.0 * beta)
        w = lambertw(-threshold * c / (16.0 * alpha), -1)
        n_star = math.ceil(-w.real / c)
        ok = (
            b.raw == pytest.approx(closed_form(100000), rel=1e-12)
            and b.clamped == 1.0
            and bound(n_star).raw < threshold <= bound(n_star - 1).raw
            and n_star > 100000
        )
        report(
            5,
            "tail bound raw value sub-claim",
            ok,
            f"raw(1e5) = {b.raw:.3e}, raw < 1e-2 from n* = {n_star}",
        )
        assert w.imag == 0.0
        assert b.raw == pytest.approx(closed_form(100000), rel=1e-12)
        assert b.clamped == 1.0
        assert bound(n_star).raw < threshold <= bound(n_star - 1).raw
        assert n_star > 100000


class TestCriterion6PackingCertificate:
    def test_packing_sizes_below_covering_bound_at_half_radius(self):
        start = time.perf_counter()
        violations = []
        details = []
        for n in (100, 1000):
            line_sample = sample_sample(n, FixedCount(1), UNIFORM01, RngStream(55).child("l", n))
            plane_sample = sample_sample(
                n, FixedCount(1), UniformBox([0.0, 0.0], [1.0, 1.0]), RngStream(55).child("p", n)
            )
            line_cands = halfline_candidates(line_sample)
            plane_cands = halfplane_candidates(plane_sample, max_candidates=4096)
            for eps in (0.05, 0.1, 0.2):
                for cls, sample, cands in (
                    (half_lines(), line_sample, line_cands),
                    (half_spaces(2), plane_sample, plane_cands),
                ):
                    pack = maximal_packing(sample, cls, cands, eps, 1.0)
                    bound = vc_covering_bound(
                        VcBoundParams(eps / 2.0, 1.0, cls.bound, cls.vc_dim, sample.ratio)
                    )
                    if math.log(pack.size) > bound.log + 1e-12:
                        violations.append((n, eps, cls.kind, pack.size, bound.log))
                    details.append(pack.size)
        elapsed = time.perf_counter() - start
        report(
            6,
            "packing vs covering bound",
            not violations,
            f"sizes {min(details)}..{max(details)}, {elapsed:.0f}s",
        )
        assert not violations, violations


class TestCriterion7PseudoDistanceInterpolation:
    def test_ten_thousand_random_triples(self):
        start = time.perf_counter()
        from ppdepth import Constant, Exponential, HalfLineIndicator

        pairs = ((1.0, 2.0), (1.0, math.inf), (2.0, math.inf))
        violations = 0
        rng = np.random.default_rng(56)
        for _ in range(10000):
            sizes = rng.integers(1, 4, size=rng.integers(1, 6))
            sample = Sample(
                tuple(PointPattern(rng.uniform(0, 1, (k, 1))) for k in sizes)
            )
            choices = [
                HalfLineIndicator(rng.uniform(0, 1), int(rng.choice([-1, 1]))),
                Exponential(rng.uniform(-1, 1), (0.0, 1.0)),
                Constant(rng.uniform(-1, 1)),
            ]
            f, g = (choices[i] for i in rng.choice(3, size=2, replace=False))
            ratio = sample.s_n / sample.n
            dists = {
                p: empirical_pseudo_distance(sample, f, g, p)
                for p in (1.0, 2.0, math.inf)
            }
            for p, q in pairs:
                power = 1.0 / p - (0.0 if q == math.inf else 1.0 / q)
                if dists[p] > ratio**power * dists[q] * (1.0 + 1e-10):
                    violations += 1
        elapsed = time.perf_counter() - start
        report(7, "pseudo-distance interpolation", violations == 0, f"{elapsed:.0f}s")
        assert violations == 0


class TestCriterion8BranchingEstimators:
    def test_exact_laplace_for_deterministic_tree(self):
        count = FixedCount(2)
        disp = DiscretePoints([[0.5]], [1.0])
        tree = grow_tree(count, disp, 6, RngStream(57))
        exact = True
        for j in (1, 3, 5):
            for theta in (-1.0, -0.3, 0.0, 0.7, 1.0):
                m_hat, _ = laplace_estimates(tree, j, theta)
                exact = exact and (m_hat == true_laplace(count, disp, theta))
        report(8, "branching exact transform", exact)
        assert exact

    def test_error_decay_and_pair_decorrelation(self):
        start = time.perf_counter()
        replicates = 2000
        cfg = build_config(
            {
                "kind": "brw",
                "count": {"kind": "shifted_poisson", "lambda": 1.0},
                "disp": {"kind": "uniform", "low": [0.0], "high": [1.0]},
                "j_grid": [4, 6, 8],
                "theta_grid": [-1.0, -0.5, 0.0, 0.5, 1.0],
                "replicates": replicates,
                "fluct_theta": 1.0,
                "seed": 58,
            }
        )
        out = run_experiment(dataclasses.replace(cfg, threads=THREADS))
        errors = {"mean_abs_error_generation": {}, "mean_abs_error_cumulative": {}}
        for r in out.records:
            if r.statistic in errors:
                p = dict(r.params)
                errors[r.statistic].setdefault(p["j"], []).append(r.value)
        decays_ok = True
        slope_ok = True
        growth = math.log(2.0)  # log of the mean offspring count
        for stat, by_j in errors.items():
            means = [float(np.mean(by_j[j])) for j in (4, 6, 8)]
            decays_ok = decays_ok and means[0] > means[1] > means[2]
            # errors scale like (mean count)^{-j/2}: slope of log error
            # against j log(E L) should sit near -1/2
            slope = np.polyfit(np.array([4.0, 6.0, 8.0]) * growth, np.log(means), 1)[0]
            slope_ok = slope_ok and abs(slope + 0.5) <= 0.1
        corr = next(
            r.value
            for r in out.records
            if r.statistic == "fluctuation_pair_correlation"
        )
        corr_ok = abs(corr) <= 3.0 / math.sqrt(replicates)
        elapsed = time.perf_counter() - start
        ok = decays_ok and slope_ok and corr_ok and out.violations == 0 and elapsed < 300.0
        report(
            8,
            "branching error decay + decorrelation",
            ok,
            f"corr {corr:+.4f} (cap {3.0 / math.sqrt(replicates):.4f}), {elapsed:.0f}s",
        )
        assert decays_ok
        assert slope_ok
        assert corr_ok
        assert out.violations == 0
        assert elapsed < 300.0


class TestCriterion9Symmetrization:
    def test_shipped_diag_config_inequalities(self):
        start = time.perf_counter()
        with open(os.path.join(CONFIG_DIR, "diag.json")) as fh:
            raw = json.load(fh)
        assert raw["n_grid"] == [100] and raw["replicates"] == 5000
        out = run_experiment(dataclasses.replace(build_config(raw), threads=THREADS))
        by_stat = {r.statistic: r.value for r in out.records}
        elapsed = time.perf_counter() - start
        ok = (
            out.violations == 0
            and by_stat["expectation_ok"] == 1.0
            and by_stat["probability_ok"] == 1.0
            and elapsed < 60.0
        )
        report(
            9,
            "symmetrization inequalities",
            ok,
            f"E-side {by_stat['expectation_lhs']:.4f} <= {by_stat['expectation_rhs']:.4f}, "
            f"{elapsed:.0f}s",
        )
        assert out.violations == 0
        assert by_stat["expectation_ok"] == 1.0
        assert by_stat["probability_ok"] == 1.0
        assert elapsed < 60.0


# sha256 of every shipped config's .csv and .ndjson outputs at one worker;
# the .meta.json files carry library versions and are left out.
PINNED_OUTPUTS = {
    "bound/bound.csv": "7ba052af22bb81f8622702dc67b3c6229faeebc2ae65eec36fea30adb4834c84",
    "bound/bound_table.csv": "1f8cd9ecc5f4d6f1ab0c7c133e7aaa60bd4f0aab331dc74ba187c6174dcd2d21",
    "brw/brw.csv": "bf7e3e97da7905f1d9f5e599bf30101de9fdabbf870b1e202616fe32868ce46c",
    "clt/clt.csv": "7d13ab5b6619ba3125da8f688ba5340b49ffffc25f04b6e100cdf19de83a3d5b",
    "depth/depth.csv": "8e327fb30df890d60693968cf12ef040adde14d4cb62ae8ba7d99da933943f96",
    "diag/diag.csv": "9403553085d0b10ed6fe32d9950060ebf41d7ce0bc80cfff2219c6654cc9da34",
    "simulate/simulate.csv": "ed141028348c40236bf33407853aa6d2a7a6e870248b5aab6a1e500f736e686b",
    "simulate/tree.ndjson": "bcd7fa1ec67fb437dbcedbab72d43029d6934bd8a15dcb86a1be5138838438c2",
    "ulln/ulln.csv": "b71d2a873b1c1b9c5a5bfa7719b2dc760ab14f96bb347e85d78e072ec8164fa4",
}


class TestCriterion10Determinism:
    def test_every_shipped_config_is_thread_invariant(self, tmp_path):
        """Every shipped config writes the same bytes at 1, 4 and 8 workers,
        and its data files at one worker hash to ``PINNED_OUTPUTS``, so a
        change that moves any output shows here."""
        configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
        assert configs, "no shipped configs found"
        mismatched, digests = [], {}
        for config_path in configs:
            kind = os.path.splitext(os.path.basename(config_path))[0]
            outputs = {}
            for threads in (1, 4, 8):
                out_dir = tmp_path / f"{kind}-{threads}"
                code = cli_main(
                    [
                        kind,
                        "--config",
                        config_path,
                        "--out",
                        str(out_dir),
                        "--threads",
                        str(threads),
                    ]
                )
                assert code == 0, f"{kind} exited {code} at threads={threads}"
                blobs = {}
                for name in sorted(os.listdir(out_dir)):
                    with open(out_dir / name, "rb") as fh:
                        blobs[name] = fh.read()
                outputs[threads] = blobs
            if not (outputs[1] == outputs[4] == outputs[8]):
                mismatched.append(kind)
            for name, blob in outputs[1].items():
                if name.endswith((".csv", ".ndjson")):
                    digests[f"{kind}/{name}"] = hashlib.sha256(blob).hexdigest()
        moved = sorted(k for k in PINNED_OUTPUTS.keys() | digests.keys()
                       if PINNED_OUTPUTS.get(k) != digests.get(k))
        report(10, "byte-identical across worker counts and to the pinned digests",
               not mismatched and not moved, f"{len(configs)} configs")
        assert not mismatched, mismatched
        assert not moved, moved
