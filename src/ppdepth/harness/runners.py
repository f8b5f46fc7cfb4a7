"""Experiment runners: seeded, replicate-parallel Monte Carlo studies.

Each replicate owns a counter-based stream derived from the master seed and
its index, and results are folded in replicate order, so outputs are
byte-identical for any worker count.  Workers are plain module-level
functions over picklable argument tuples; replicate ranges are split into
blocks purely for scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from ..bounds import DeviationBoundParams, chernoff_tail, deviation_bound
from ..branching import cumulative_estimates, exact_sum, grow_tree, true_laplace
from ..depth import deepest_point, depth_sup_deviation
from ..functions import Exponential, half_spaces
from ..generators import (
    CountLaw,
    DisplacementLaw,
    FixedCount,
    RngStream,
    UniformBox,
    draw_sample,
)
from ..measure import (
    EmpiricalReference,
    halfline_sup_rows,
    halfline_sup_weighted,
    reference_for,
    sup_deviation,
)
from ..patterns import save_sample
from .config import ConfigError, ExperimentConfig
from .records import ResultRecord

__all__ = [
    "RunOutput",
    "run_experiment",
    "run_ulln",
    "run_clt",
    "run_bound",
    "run_depth",
    "run_brw",
    "run_diag",
    "run_simulate",
]


@dataclass
class RunOutput:
    records: list[ResultRecord]
    param_columns: tuple[str, ...]
    violations: int = 0
    tables: dict = field(default_factory=dict)  # name -> (rows, columns)


def _parallel_map(fn, items, threads: int):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _blocks(total: int, threads: int, max_block: int = 512):
    per = max(1, min(max_block, math.ceil(total / max(1, threads * 4))))
    return [(lo, min(lo + per, total)) for lo in range(0, total, per)]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def _loglog_slope(ns: np.ndarray, means: np.ndarray) -> tuple[float, float]:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(1, x.size - 2)
    se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    return float(slope), se


# ---------------------------------------------------------------------------
# Uniform deviation blocks (shared by the ulln and bound experiments)
# ---------------------------------------------------------------------------


def _deviation_block(args) -> np.ndarray:
    count, disp, cls, ref, n, seed, tag, lo, hi = args
    fixed_1d = (
        isinstance(count, FixedCount)
        and disp.dim == 1
        and cls.kind in ("half_lines", "half_spaces")
        and cls.dim == 1
        and ref.line_atoms(np.array([1.0])) is None
    )
    out = np.empty(hi - lo)
    if fixed_1d:
        m = count.k * n
        chunk = max(1, 2_000_000 // max(1, m))
        buf = np.empty((chunk, m))
        done = lo
        while done < hi:
            b = min(chunk, hi - done)
            for i in range(b):
                gen = RngStream(seed).child(tag, n, done + i).generator()
                buf[i] = disp.sample(gen, m)[:, 0]
            out[done - lo : done - lo + b] = halfline_sup_rows(buf[:b], n, ref)
            done += b
        return out
    for r in range(lo, hi):
        gen = RngStream(seed).child(tag, n, r).generator()
        out[r - lo] = sup_deviation(draw_sample(n, count, disp, gen), cls, ref).value
    return out


def _deviations_for(
    config: ExperimentConfig, n: int, tag: str, threads: int
) -> np.ndarray:
    ref = reference_for(config.count, config.disp)
    args = [
        (config.count, config.disp, config.function_class, ref, n, config.seed, tag, lo, hi)
        for lo, hi in _blocks(config.replicates, threads)
    ]
    return np.concatenate(_parallel_map(_deviation_block, args, threads))


# ---------------------------------------------------------------------------
# ulln: decay of the uniform deviation
# ---------------------------------------------------------------------------


def run_ulln(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    records: list[ResultRecord] = []
    means = []
    for n in config.n_grid:
        devs = _deviations_for(config, n, "ulln", threads)
        for r, v in enumerate(devs):
            records.append(ResultRecord("sup_deviation", float(v), r, (("n", n),)))
        mean, se = _mean_se(devs)
        records.append(ResultRecord("mean_deviation", mean, None, (("n", n),), se))
        records.append(
            ResultRecord("median_deviation", float(np.median(devs)), None, (("n", n),))
        )
        means.append(mean)
    if len(config.n_grid) >= 2 and config.replicates >= 2:
        slope, se = _loglog_slope(np.array(config.n_grid), np.array(means))
        records.append(ResultRecord("loglog_slope", slope, None, (), se))
    return RunOutput(records, ("n",))


# ---------------------------------------------------------------------------
# clt: covariance and normality of sqrt(n) (mu_n - mu)
# ---------------------------------------------------------------------------


def _clt_block(args) -> np.ndarray:
    count, disp, fs, mus, n, seed, lo, hi = args
    out = np.empty((hi - lo, len(fs)))
    root_n = math.sqrt(n)
    for r in range(lo, hi):
        gen = RngStream(seed).child("clt", n, r).generator()
        pts = disp.sample(gen, int(count.sample(gen, n).sum()))
        for k, f in enumerate(fs):
            out[r - lo, k] = root_n * (f.evaluate(pts).sum() / n - mus[k])
    return out


def _single_pattern_matrix(
    count: CountLaw, disp: DisplacementLaw, fs, draws: int, rng: RngStream
) -> np.ndarray:
    """Y(f) for ``draws`` independent single patterns, one column per f."""
    gen = rng.generator()
    out = np.empty((draws, len(fs)))
    done = 0
    block = max(1, 2_000_000 // 4)
    while done < draws:
        b = min(block, draws - done)
        sizes = count.sample(gen, b)
        pts = disp.sample(gen, int(sizes.sum()))
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        for k, f in enumerate(fs):
            out[done : done + b, k] = np.add.reduceat(f.evaluate(pts), offsets)
        done += b
    return out


def _cov_with_se(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance (ddof 1) and the Monte Carlo s.e. of each entry."""
    centered = z - z.mean(axis=0)
    r = z.shape[0]
    cov = centered.T @ centered / (r - 1)
    se = np.empty_like(cov)
    for a in range(cov.shape[0]):
        for b in range(cov.shape[1]):
            prods = centered[:, a] * centered[:, b]
            se[a, b] = prods.std(ddof=1) / math.sqrt(r)
    return cov, se


def _normal_ks_distance(values: np.ndarray) -> float:
    sd = values.std(ddof=1)
    if sd == 0:
        return 0.0
    z = np.sort(values / sd)
    cdf = ndtr(z)
    n = z.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def run_clt(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    cls = config.function_class
    if cls.kind != "finite_list" or len(cls.members) < 2:
        raise ConfigError("clt experiments need a finite_list class with >= 2 functions")
    if config.replicates < 100:
        raise ConfigError("clt experiments need at least 100 replicates")
    fs = cls.members
    n = config.n_grid[0]
    ref = reference_for(config.count, config.disp)
    mus = tuple(ref.mass_of(f) for f in fs)

    args = [
        (config.count, config.disp, fs, mus, n, config.seed, lo, hi)
        for lo, hi in _blocks(config.replicates, threads)
    ]
    z = np.vstack(_parallel_map(_clt_block, args, threads))

    gt = _single_pattern_matrix(
        config.count, config.disp, fs, config.gt_draws, RngStream(config.seed).child("clt-gt")
    )
    cov_rep, se_rep = _cov_with_se(z)
    cov_gt, se_gt = _cov_with_se(gt)

    records: list[ResultRecord] = []
    k = len(fs)
    for a in range(k):
        for b in range(a, k):
            params = (("n", n), ("f", a), ("g", b))
            records.append(
                ResultRecord("replicate_covariance", float(cov_rep[a, b]), None, params, float(se_rep[a, b]))
            )
            records.append(
                ResultRecord("ground_truth_covariance", float(cov_gt[a, b]), None, params, float(se_gt[a, b]))
            )
            try:
                exact = ref.pattern_covariance(fs[a], fs[b])
                records.append(ResultRecord("pattern_covariance_exact", exact, None, params))
            except ValueError:
                pass
            try:
                marking = ref.marking_covariance(fs[a], fs[b])
                records.append(ResultRecord("marking_covariance", marking, None, params))
            except ValueError:
                pass
    for a in range(k):
        col = z[:, a]
        mean = col.mean()
        sd = col.std(ddof=1)
        centered = col - mean
        skew = float((centered**3).mean() / sd**3) if sd > 0 else 0.0
        kurt = float((centered**4).mean() / sd**4 - 3.0) if sd > 0 else 0.0
        params = (("n", n), ("f", a), ("g", None))
        records.append(ResultRecord("marginal_mean", float(mean), None, params))
        records.append(ResultRecord("marginal_skewness", skew, None, params))
        records.append(ResultRecord("marginal_excess_kurtosis", kurt, None, params))
        records.append(
            ResultRecord("normal_ks_distance", _normal_ks_distance(centered), None, params)
        )
    return RunOutput(records, ("n", "f", "g"))


# ---------------------------------------------------------------------------
# bound: empirical exceedance against the closed-form tail bound
# ---------------------------------------------------------------------------


def run_bound(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    v = config.function_class.vc_dim
    moments = config.count.moments()
    records: list[ResultRecord] = []
    table_rows: list[dict] = []
    violations = 0
    r_total = config.replicates
    for n in config.n_grid:
        devs = _deviations_for(config, n, "bound", threads)
        tail_sn = chernoff_tail(config.count, config.alpha, n, squared=False)
        tail_sn2 = chernoff_tail(config.count, config.beta, n, squared=True)
        for eps in config.epsilon_grid:
            pre_ok = n >= 8.0 * moments.second_moment / eps**2
            bound = deviation_bound(
                DeviationBoundParams(
                    eps, n, config.alpha, config.beta, v,
                    tail_sn.value, tail_sn2.value, precondition_ok=pre_ok,
                )
            )
            freq = float(np.count_nonzero(devs >= eps) / r_total)
            se = math.sqrt(freq * (1.0 - freq) / r_total)
            violated = pre_ok and freq > bound.clamped + 3.0 * se
            if violated:
                violations += 1
            params = (("n", n), ("epsilon", eps))
            records.append(ResultRecord("empirical_exceedance", freq, None, params, se))
            records.append(ResultRecord("raw_bound", bound.raw, None, params))
            records.append(ResultRecord("clamped_bound", bound.clamped, None, params))
            records.append(ResultRecord("tail_sn", tail_sn.value, None, params))
            records.append(ResultRecord("tail_sn2", tail_sn2.value, None, params))
            records.append(ResultRecord("precondition_ok", float(pre_ok), None, params))
            records.append(ResultRecord("violation", float(violated), None, params))
            table_rows.append(
                {
                    "n": n,
                    "epsilon": eps,
                    "alpha": config.alpha,
                    "beta": config.beta,
                    "v": v,
                    "raw_bound": bound.raw,
                    "clamped_bound": bound.clamped,
                    "tail_sn": tail_sn.value,
                    "tail_sn2": tail_sn2.value,
                    "chernoff_used": tail_sn.method,
                }
            )
    tables = {
        "bound_table": (
            table_rows,
            ["n", "epsilon", "alpha", "beta", "v", "raw_bound", "clamped_bound",
             "tail_sn", "tail_sn2", "chernoff_used"],
        )
    }
    return RunOutput(records, ("n", "epsilon"), violations, tables)


# ---------------------------------------------------------------------------
# depth: uniform depth deviation, domination, deepest points, tail table
# ---------------------------------------------------------------------------


def _depth_block(args):
    count, disp, ref, n, seed, eval_points, box, grid, deepest_cap, lo, hi = args
    cls = half_spaces(disp.dim)
    dev_rows = np.empty(hi - lo)
    sup_rows = np.empty(hi - lo)
    deepest = []
    for r in range(lo, hi):
        gen = RngStream(seed).child("depth", n, r).generator()
        sample = draw_sample(n, count, disp, gen)
        dev_rows[r - lo] = depth_sup_deviation(sample, ref, eval_points)
        sup_rows[r - lo] = sup_deviation(sample, cls, ref).value
        if r < deepest_cap:
            x_star, d_star = deepest_point(EmpiricalReference(sample), box, grid)
            deepest.append((r, x_star, d_star))
    return dev_rows, sup_rows, deepest


def run_depth(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    d = config.disp.dim
    if d > 2:
        raise ConfigError("depth experiments cover dimensions 1 and 2")
    if not config.eval_points:
        raise ConfigError("depth experiments need eval_points")
    ref = reference_for(config.count, config.disp)
    box = config.depth_box
    if box is None:
        if isinstance(config.disp, UniformBox):
            box = (tuple(config.disp.low), tuple(config.disp.high))
        else:
            box = (tuple([-3.0] * d), tuple([3.0] * d))
    ref_median, _ = deepest_point(ref, box, config.depth_grid)
    records: list[ResultRecord] = []
    violations = 0
    means = []
    v = d + 1
    moments = config.count.moments()
    deepest_cap = min(config.replicates, 8)
    for n in config.n_grid:
        args = [
            (config.count, config.disp, ref, n, config.seed, config.eval_points,
             box, config.depth_grid, deepest_cap, lo, hi)
            for lo, hi in _blocks(config.replicates, threads)
        ]
        results = _parallel_map(_depth_block, args, threads)
        devs = np.concatenate([r[0] for r in results])
        sups = np.concatenate([r[1] for r in results])
        deepest = [entry for r in results for entry in r[2]]
        for r, (dv, sv) in enumerate(zip(devs, sups)):
            params = (("n", n),)
            records.append(ResultRecord("depth_sup_deviation", float(dv), r, params))
            records.append(ResultRecord("halfspace_sup_deviation", float(sv), r, params))
            if dv > sv + 1e-9:
                violations += 1
        mean, se = _mean_se(devs)
        means.append(mean)
        records.append(ResultRecord("mean_depth_deviation", mean, None, (("n", n),), se))
        dists = []
        for r, x_star, d_star in deepest:
            dist = float(np.linalg.norm(np.asarray(x_star) - np.asarray(ref_median)))
            dists.append(dist)
            records.append(
                ResultRecord("deepest_point_distance", dist, r, (("n", n),))
            )
            records.append(ResultRecord("deepest_point_depth", d_star, r, (("n", n),)))
        if dists:
            mean_dist, se_dist = _mean_se(np.array(dists))
            records.append(
                ResultRecord("mean_deepest_distance", mean_dist, None, (("n", n),), se_dist)
            )
        for eps in config.epsilon_grid:
            pre_ok = n >= 8.0 * moments.second_moment / eps**2
            tail_sn = chernoff_tail(config.count, config.alpha, n, squared=False)
            tail_sn2 = chernoff_tail(config.count, config.beta, n, squared=True)
            bound = deviation_bound(
                DeviationBoundParams(
                    eps, n, config.alpha, config.beta, v,
                    tail_sn.value, tail_sn2.value, precondition_ok=pre_ok,
                )
            )
            freq = float(np.count_nonzero(devs >= eps) / config.replicates)
            se = math.sqrt(freq * (1.0 - freq) / config.replicates)
            params = (("n", n), ("epsilon", eps))
            records.append(ResultRecord("empirical_exceedance", freq, None, params, se))
            records.append(ResultRecord("clamped_bound", bound.clamped, None, params))
            if pre_ok and freq > bound.clamped + 3.0 * se:
                violations += 1
    for i, coord in enumerate(np.asarray(ref_median)):
        records.append(ResultRecord(f"reference_median_x{i + 1}", float(coord)))
    if len(config.n_grid) >= 2 and min(means) > 0:
        slope, se = _loglog_slope(np.array(config.n_grid), np.array(means))
        records.append(ResultRecord("loglog_slope", slope, None, (), se))
    return RunOutput(records, ("n", "epsilon"), violations)


# ---------------------------------------------------------------------------
# brw: branching random walk estimators
# ---------------------------------------------------------------------------


def _brw_block(args):
    count, disp, j_grid, thetas, fluct_theta, j_star, m_true, mu_f, seed, lo, hi = args
    generations = j_star + 3
    n_j, n_t = len(j_grid), len(thetas)
    err_hat = np.empty((hi - lo, n_j, n_t))
    err_tilde = np.empty((hi - lo, n_j, n_t))
    w_pair = np.empty((hi - lo, 2))
    for r in range(lo, hi):
        tree = grow_tree(count, disp, generations, RngStream(seed).child("brw", r))
        gen_exp = {}

        def laplace_sums(theta):
            """Per-generation sums of e^{theta x} and the cumulative estimates."""
            if theta not in gen_exp:
                sums = [
                    exact_sum(np.exp(theta * tree.disp[l][:, 0]))
                    for l in range(1, generations + 1)
                ]
                gen_exp[theta] = sums, cumulative_estimates(tree, sums)
            return gen_exp[theta]

        for a, j in enumerate(j_grid):
            for b, theta in enumerate(thetas):
                sums, m_tilde = laplace_sums(theta)
                m_hat = sums[j] / tree.size(j)
                err_hat[r - lo, a, b] = abs(m_hat - m_true[b])
                err_tilde[r - lo, a, b] = abs(m_tilde[j] - m_true[b])
        sums_f, _ = laplace_sums(fluct_theta)
        for c, j in enumerate((j_star + 1, j_star + 2)):
            m_hat = sums_f[j] / tree.size(j)
            w_pair[r - lo, c] = math.sqrt(tree.size(j)) * (m_hat - mu_f)
    return err_hat, err_tilde, w_pair


def run_brw(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    if config.disp.dim != 1:
        raise ConfigError("brw experiments need one-dimensional displacements")
    if config.count.moments().mean <= 1.0:
        raise ConfigError("the fluctuation study needs a supercritical count law")
    thetas = config.theta_grid or (0.0,)
    j_grid = config.j_grid
    j_star = max(j_grid)
    m_true = tuple(true_laplace(config.count, config.disp, t) for t in thetas)
    ref = reference_for(config.count, config.disp)
    f = Exponential(config.fluct_theta, _exp_domain(config.disp))
    mu_f = ref.mass_of(f)
    gamma_f = ref.pattern_covariance(f, f)

    args = [
        (config.count, config.disp, j_grid, thetas, config.fluct_theta,
         j_star, m_true, mu_f, config.seed, lo, hi)
        for lo, hi in _blocks(config.replicates, threads)
    ]
    results = _parallel_map(_brw_block, args, threads)
    err_hat = np.concatenate([r[0] for r in results])
    err_tilde = np.concatenate([r[1] for r in results])
    w_pair = np.vstack([r[2] for r in results])

    records: list[ResultRecord] = []
    violations = 0
    for a_i, j in enumerate(j_grid):
        for b_i, theta in enumerate(thetas):
            params = (("j", j), ("theta", theta))
            mean, se = _mean_se(err_hat[:, a_i, b_i])
            records.append(ResultRecord("mean_abs_error_generation", mean, None, params, se))
            mean, se = _mean_se(err_tilde[:, a_i, b_i])
            records.append(ResultRecord("mean_abs_error_cumulative", mean, None, params, se))
    r_total = w_pair.shape[0]
    var_w = float(w_pair[:, 0].var(ddof=1))
    records.append(
        ResultRecord("fluctuation_variance", var_w, None,
                     (("j", j_star + 1), ("theta", config.fluct_theta)))
    )
    records.append(
        ResultRecord("fluctuation_variance_target", gamma_f, None,
                     (("j", j_star + 1), ("theta", config.fluct_theta)))
    )
    if w_pair[:, 0].std() == 0.0 or w_pair[:, 1].std() == 0.0:
        corr = 0.0  # degenerate fluctuations (deterministic tree)
    else:
        corr = float(np.corrcoef(w_pair[:, 0], w_pair[:, 1])[0, 1])
    records.append(
        ResultRecord("fluctuation_pair_correlation", corr, None,
                     (("j", j_star + 1), ("theta", config.fluct_theta)),
                     1.0 / math.sqrt(r_total))
    )
    if abs(corr) > 3.0 / math.sqrt(r_total):
        violations += 1
    return RunOutput(records, ("j", "theta"), violations)


def _exp_domain(disp: DisplacementLaw) -> tuple[float, float]:
    if isinstance(disp, UniformBox):
        return float(disp.low[0]), float(disp.high[0])
    atoms = disp.atoms()
    if atoms is not None:
        vals = atoms[0][:, 0]
        return float(vals.min()), float(vals.max())
    return (-40.0, 40.0)  # generous cap for unbounded one-dimensional laws


# ---------------------------------------------------------------------------
# diag: Rademacher symmetrization inequalities
# ---------------------------------------------------------------------------


def _diag_block(args):
    count, disp, ref, n, seed, lo, hi = args
    devs = np.empty(hi - lo)
    syms = np.empty(hi - lo)
    for r in range(lo, hi):
        gen = RngStream(seed).child("diag", n, r).generator()
        sizes = count.sample(gen, n)
        pts = disp.sample(gen, int(sizes.sum()))
        weights = np.full(pts.shape[0], 1.0 / n)
        devs[r - lo] = halfline_sup_weighted(pts[:, 0], weights, ref)
        signs = gen.choice(np.array([-1.0, 1.0]), size=n)
        syms[r - lo] = halfline_sup_weighted(
            pts[:, 0], np.repeat(signs / n, sizes), None
        )
    return devs, syms


def run_diag(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    threads = threads or config.threads
    if config.disp.dim != 1 or config.function_class.kind not in ("half_lines",):
        raise ConfigError("diag experiments use half-lines on the real line")
    n = config.n_grid[0]
    eps = config.epsilon_grid[0] if config.epsilon_grid else 0.5
    ref = reference_for(config.count, config.disp)
    args = [
        (config.count, config.disp, ref, n, config.seed, lo, hi)
        for lo, hi in _blocks(config.replicates, threads)
    ]
    results = _parallel_map(_diag_block, args, threads)
    devs = np.concatenate([r[0] for r in results])
    syms = np.concatenate([r[1] for r in results])
    r_total = devs.size

    records: list[ResultRecord] = []
    violations = 0
    params = (("n", n), ("epsilon", eps))

    lhs_mean, lhs_se = _mean_se(devs)
    rhs_mean, rhs_se = _mean_se(2.0 * syms)
    records.append(ResultRecord("expectation_lhs", lhs_mean, None, params, lhs_se))
    records.append(ResultRecord("expectation_rhs", rhs_mean, None, params, rhs_se))
    exp_ok = lhs_mean <= rhs_mean + 3.0 * math.hypot(lhs_se, rhs_se)
    records.append(ResultRecord("expectation_ok", float(exp_ok), None, params))
    if not exp_ok:
        violations += 1

    moments = config.count.moments()
    pre_ok = n >= 8.0 * moments.second_moment / eps**2
    lhs_freq = float(np.count_nonzero(devs >= eps) / r_total)
    rhs_freq = float(np.count_nonzero(syms >= eps / 4.0) / r_total)
    lhs_fse = math.sqrt(lhs_freq * (1.0 - lhs_freq) / r_total)
    rhs_fse = math.sqrt(rhs_freq * (1.0 - rhs_freq) / r_total)
    records.append(ResultRecord("probability_lhs", lhs_freq, None, params, lhs_fse))
    records.append(
        ResultRecord("probability_rhs", 4.0 * rhs_freq, None, params, 4.0 * rhs_fse)
    )
    records.append(ResultRecord("probability_precondition_ok", float(pre_ok), None, params))
    prob_ok = (not pre_ok) or lhs_freq <= 4.0 * rhs_freq + 3.0 * math.hypot(
        lhs_fse, 4.0 * rhs_fse
    )
    records.append(ResultRecord("probability_ok", float(prob_ok), None, params))
    if not prob_ok:
        violations += 1
    return RunOutput(records, ("n", "epsilon"), violations)


# ---------------------------------------------------------------------------
# simulate: dump raw samples or trees
# ---------------------------------------------------------------------------


def run_simulate(config: ExperimentConfig, out_dir, threads: int | None = None) -> RunOutput:
    import os

    from ..branching import dump_tree

    rng = RngStream(config.seed).child("simulate")
    records: list[ResultRecord] = []
    if config.target == "sample":
        n = config.n_grid[0] if config.n_grid else 1
        sample = draw_sample(n, config.count, config.disp, rng.generator())
        path = os.path.join(out_dir, "sample.ndjson")
        save_sample(sample, path)
        records.append(ResultRecord("patterns_written", float(sample.n)))
        records.append(ResultRecord("points_written", float(sample.s_n)))
    elif config.target == "tree":
        tree = grow_tree(config.count, config.disp, config.generations, rng)
        path = os.path.join(out_dir, "tree.ndjson")
        dump_tree(tree, path)
        records.append(ResultRecord("generations_written", float(tree.generations)))
        records.append(ResultRecord("vertices_written", float(sum(tree.gen_sizes()))))
    else:
        raise ConfigError(f"unknown simulate target {config.target!r}")
    return RunOutput(records, ())


def run_experiment(config: ExperimentConfig, threads: int | None = None, out_dir=".") -> RunOutput:
    if config.kind == "ulln":
        return run_ulln(config, threads)
    if config.kind == "clt":
        return run_clt(config, threads)
    if config.kind == "bound":
        return run_bound(config, threads)
    if config.kind == "depth":
        return run_depth(config, threads)
    if config.kind == "brw":
        return run_brw(config, threads)
    if config.kind == "diag":
        return run_diag(config, threads)
    if config.kind == "simulate":
        return run_simulate(config, out_dir, threads)
    raise ConfigError(f"unknown experiment kind {config.kind!r}")
