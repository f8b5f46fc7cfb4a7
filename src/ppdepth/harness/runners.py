"""Experiment runners: seeded, replicate-parallel Monte Carlo studies.

Each replicate owns a counter-based stream derived from the master seed and
its index (a block draws them with ``RngStream.child_generators``, one
reseated generator), and results are folded in replicate order, so outputs are
byte-identical for any worker count.  ``_over_replicates`` splits the
replicates into blocks purely for scheduling and runs one module-level block
function per block.  Configs arrive validated, so runners hold study logic
only.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..bounds import (
    DeviationBound,
    DeviationBoundParams,
    TailBound,
    chernoff_tail,
    deviation_bound,
)
from ..branching import cumulative_estimates, exact_sum, grow_tree, true_laplace
from ..depth import deepest_point, depth_sup_deviation
from ..functions import Exponential, half_spaces
from ..generators import (
    CountLaw,
    DisplacementLaw,
    FixedCount,
    RngStream,
    UniformBox,
    draw_flat,
    draw_sample,
)
from ..measure import (
    EmpiricalReference,
    halfline_sup_ragged,
    halfline_sup_rows,
    halfline_sup_weighted,  # not called here; benchmarks/tracing.py patches this name
    reference_for,
    sup_deviation,
)
from ..patterns import save_sample
from .config import ExperimentConfig, exp_domain
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


def _run_block(args):
    block, shared, lo, hi = args
    return block(shared, lo, hi)


def _join(parts):
    """Join block outputs in replicate order, component by component."""
    if isinstance(parts[0], tuple):
        return tuple(_join(list(c)) for c in zip(*parts))
    if isinstance(parts[0], list):
        return [entry for part in parts for entry in part]
    return np.concatenate(parts)


def _over_replicates(block, shared, config: ExperimentConfig, threads: int | None):
    """``block(shared, lo, hi)`` over the config's replicates, on ``threads``
    workers (default: the config's), joined in replicate order."""
    threads = threads or config.threads
    total = config.replicates
    per = max(1, min(512, math.ceil(total / max(1, threads * 4))))
    args = [(block, shared, lo, min(lo + per, total)) for lo in range(0, total, per)]
    if threads <= 1 or len(args) <= 1:
        return _join([_run_block(a) for a in args])
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return _join(list(pool.map(_run_block, args)))


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


class _Exceedance(NamedTuple):
    epsilon: float
    precondition_ok: bool
    tail_sn: TailBound
    tail_sn2: TailBound
    bound: DeviationBound
    freq: float
    se: float
    violated: bool


def _frequency(values: np.ndarray, threshold: float) -> tuple[float, float]:
    """Share of ``values`` at or above ``threshold`` and its binomial s.e."""
    freq = float(np.count_nonzero(values >= threshold) / values.size)
    return freq, math.sqrt(freq * (1.0 - freq) / values.size)


def _precondition_ok(config: ExperimentConfig, n: int, eps: float) -> bool:
    """The tail bound's n >= 8 E[L^2] / eps^2 precondition."""
    return n >= 8.0 * config.count.moments().second_moment / eps**2


def _exceedances(
    config: ExperimentConfig, n: int, devs: np.ndarray, v: int
) -> list[_Exceedance]:
    """Per epsilon, the exceedance frequency of ``devs`` against the
    closed-form bound; a violation is a frequency above the clamped bound by
    more than 3 s.e. where the precondition holds."""
    if not config.epsilon_grid:
        return []
    tail_sn = chernoff_tail(config.count, config.alpha, n, squared=False)
    tail_sn2 = chernoff_tail(config.count, config.beta, n, squared=True)
    rows = []
    for eps in config.epsilon_grid:
        pre_ok = _precondition_ok(config, n, eps)
        bound = deviation_bound(DeviationBoundParams(
            eps, n, config.alpha, config.beta, v, tail_sn.value, tail_sn2.value, pre_ok
        ))
        freq, se = _frequency(devs, eps)
        violated = pre_ok and freq > bound.clamped + 3.0 * se
        rows.append(_Exceedance(eps, pre_ok, tail_sn, tail_sn2, bound, freq, se, violated))
    return rows


# ---------------------------------------------------------------------------
# Uniform deviation blocks (shared by the ulln and bound experiments)
# ---------------------------------------------------------------------------


def _deviation_block(shared, lo: int, hi: int) -> np.ndarray:
    """Sup deviations of replicates lo..hi-1.  One-dimensional fixed-count
    samples against an atomless reference are swept as rows in batches
    (``halfline_sup_rows``, bit for bit ``sup_deviation``'s values); every
    other sample goes through ``sup_deviation``."""
    count, disp, cls, ref, n, seed, tag = shared
    gens = RngStream(seed).child_generators(tag, n, lo=lo, hi=hi)
    fixed_1d = (isinstance(count, FixedCount) and disp.dim == 1
                and cls.is_half_lines and ref.atoms() is None)
    out = np.empty(hi - lo)
    if fixed_1d:
        m = count.k * n
        chunk = max(1, 2_000_000 // max(1, m))
        buf = np.empty((chunk, m))
        for done in range(lo, hi, chunk):
            b = min(chunk, hi - done)
            for i, gen in zip(range(b), gens):
                buf[i] = draw_flat(n, count, disp, gen)[0][:, 0]
            out[done - lo : done - lo + b] = halfline_sup_rows(buf[:b], n, ref)
        return out
    for i, gen in enumerate(gens):
        out[i] = sup_deviation(draw_sample(n, count, disp, gen), cls, ref).value
    return out


def _deviations_for(config: ExperimentConfig, n: int, tag: str, threads: int | None) -> np.ndarray:
    ref = reference_for(config.count, config.disp)
    shared = (config.count, config.disp, config.function_class, ref, n, config.seed, tag)
    return _over_replicates(_deviation_block, shared, config, threads)


# ---------------------------------------------------------------------------
# ulln: decay of the uniform deviation
# ---------------------------------------------------------------------------


def run_ulln(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    records: list[ResultRecord] = []
    means = []
    for n in config.n_grid:
        devs = _deviations_for(config, n, "ulln", threads)
        params = (("n", n),)
        for r, v in enumerate(devs):
            records.append(ResultRecord("sup_deviation", float(v), r, params))
        mean, se = _mean_se(devs)
        records.append(ResultRecord("mean_deviation", mean, None, params, se))
        records.append(ResultRecord("median_deviation", float(np.median(devs)), None, params))
        means.append(mean)
    if len(config.n_grid) >= 2 and config.replicates >= 2:
        slope, se = _loglog_slope(np.array(config.n_grid), np.array(means))
        records.append(ResultRecord("loglog_slope", slope, None, (), se))
    return RunOutput(records, ("n",))


# ---------------------------------------------------------------------------
# clt: covariance and normality of sqrt(n) (mu_n - mu)
# ---------------------------------------------------------------------------


def _clt_block(shared, lo: int, hi: int) -> np.ndarray:
    count, disp, fs, mus, n, seed = shared
    out = np.empty((hi - lo, len(fs)))
    root_n = math.sqrt(n)
    for i, gen in enumerate(RngStream(seed).child_generators("clt", n, lo=lo, hi=hi)):
        pts, _ = draw_flat(n, count, disp, gen)
        for k, f in enumerate(fs):
            out[i, k] = root_n * (f.evaluate(pts).sum() / n - mus[k])
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
        pts, sizes = draw_flat(b, count, disp, gen)
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
    from scipy.special import ndtr

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
    fs = config.function_class.members
    n = config.n_grid[0]
    ref = reference_for(config.count, config.disp)
    mus = tuple(ref.mass_of(f) for f in fs)
    shared = (config.count, config.disp, fs, mus, n, config.seed)
    z = _over_replicates(_clt_block, shared, config, threads)

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
            for name, cov, se in (("replicate_covariance", cov_rep, se_rep),
                                  ("ground_truth_covariance", cov_gt, se_gt)):
                records.append(ResultRecord(name, float(cov[a, b]), None, params, float(se[a, b])))
            for name, closed_form in (("pattern_covariance_exact", ref.pattern_covariance),
                                      ("marking_covariance", ref.marking_covariance)):
                try:
                    records.append(ResultRecord(name, closed_form(fs[a], fs[b]), None, params))
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
    v = config.function_class.vc_dim
    records: list[ResultRecord] = []
    table_rows: list[dict] = []
    violations = 0
    for n in config.n_grid:
        devs = _deviations_for(config, n, "bound", threads)
        for row in _exceedances(config, n, devs, v):
            violations += row.violated
            params = (("n", n), ("epsilon", row.epsilon))
            for name, value, se in (
                ("empirical_exceedance", row.freq, row.se),
                ("raw_bound", row.bound.raw, None),
                ("clamped_bound", row.bound.clamped, None),
                ("tail_sn", row.tail_sn.value, None),
                ("tail_sn2", row.tail_sn2.value, None),
                ("precondition_ok", float(row.precondition_ok), None),
                ("violation", float(row.violated), None),
            ):
                records.append(ResultRecord(name, value, None, params, se))
            table_rows.append({
                "n": n, "epsilon": row.epsilon, "alpha": config.alpha, "beta": config.beta,
                "v": v, "raw_bound": row.bound.raw, "clamped_bound": row.bound.clamped,
                "tail_sn": row.tail_sn.value, "tail_sn2": row.tail_sn2.value,
                "chernoff_used": row.tail_sn.method,
            })
    tables = {"bound_table": (table_rows, list(table_rows[0]))}
    return RunOutput(records, ("n", "epsilon"), violations, tables)


# ---------------------------------------------------------------------------
# depth: uniform depth deviation, domination, deepest points, tail table
# ---------------------------------------------------------------------------


def _depth_block(shared, lo: int, hi: int):
    count, disp, ref, n, seed, eval_points, box, grid, deepest_cap = shared
    cls = half_spaces(disp.dim)
    dev_rows = np.empty(hi - lo)
    sup_rows = np.empty(hi - lo)
    deepest = []
    gens = RngStream(seed).child_generators("depth", n, lo=lo, hi=hi)
    for r, gen in zip(range(lo, hi), gens):
        sample = draw_sample(n, count, disp, gen)
        dev_rows[r - lo] = depth_sup_deviation(sample, ref, eval_points)
        sup_rows[r - lo] = sup_deviation(sample, cls, ref).value
        if r < deepest_cap:
            x_star, d_star = deepest_point(EmpiricalReference(sample), box, grid)
            deepest.append((r, x_star, d_star))
    return dev_rows, sup_rows, deepest


def run_depth(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    d = config.disp.dim
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
    deepest_cap = min(config.replicates, 8)
    for n in config.n_grid:
        shared = (config.count, config.disp, ref, n, config.seed, config.eval_points,
                  box, config.depth_grid, deepest_cap)
        devs, sups, deepest = _over_replicates(_depth_block, shared, config, threads)
        params = (("n", n),)
        for r, (dv, sv) in enumerate(zip(devs, sups)):
            records.append(ResultRecord("depth_sup_deviation", float(dv), r, params))
            records.append(ResultRecord("halfspace_sup_deviation", float(sv), r, params))
            if dv > sv + 1e-9:
                violations += 1
        mean, se = _mean_se(devs)
        means.append(mean)
        records.append(ResultRecord("mean_depth_deviation", mean, None, params, se))
        dists = []
        for r, x_star, d_star in deepest:
            dist = float(np.linalg.norm(np.asarray(x_star) - np.asarray(ref_median)))
            dists.append(dist)
            records.append(ResultRecord("deepest_point_distance", dist, r, params))
            records.append(ResultRecord("deepest_point_depth", d_star, r, params))
        if dists:
            mean_dist, se_dist = _mean_se(np.array(dists))
            records.append(ResultRecord("mean_deepest_distance", mean_dist, None, params, se_dist))
        for row in _exceedances(config, n, devs, d + 1):
            violations += row.violated
            params = (("n", n), ("epsilon", row.epsilon))
            records.append(ResultRecord("empirical_exceedance", row.freq, None, params, row.se))
            records.append(ResultRecord("clamped_bound", row.bound.clamped, None, params))
    for i, coord in enumerate(np.asarray(ref_median)):
        records.append(ResultRecord(f"reference_median_x{i + 1}", float(coord)))
    if len(config.n_grid) >= 2 and min(means) > 0:
        slope, se = _loglog_slope(np.array(config.n_grid), np.array(means))
        records.append(ResultRecord("loglog_slope", slope, None, (), se))
    return RunOutput(records, ("n", "epsilon"), violations)


# ---------------------------------------------------------------------------
# brw: branching random walk estimators
# ---------------------------------------------------------------------------


def _brw_block(shared, lo: int, hi: int):
    count, disp, j_grid, thetas, fluct_theta, j_star, generations, m_true, mu_f, seed = shared
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
    thetas = config.theta_grid or (0.0,)
    j_grid = config.j_grid
    j_star = max(j_grid)
    m_true = tuple(true_laplace(config.count, config.disp, t) for t in thetas)
    ref = reference_for(config.count, config.disp)
    f = Exponential(config.fluct_theta, exp_domain(config.disp))
    mu_f = ref.mass_of(f)
    gamma_f = ref.pattern_covariance(f, f)
    shared = (config.count, config.disp, j_grid, thetas, config.fluct_theta,
              j_star, config.brw_generations, m_true, mu_f, config.seed)
    err_hat, err_tilde, w_pair = _over_replicates(_brw_block, shared, config, threads)

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
    params = (("j", j_star + 1), ("theta", config.fluct_theta))
    var_w = float(w_pair[:, 0].var(ddof=1))
    records.append(ResultRecord("fluctuation_variance", var_w, None, params))
    records.append(ResultRecord("fluctuation_variance_target", gamma_f, None, params))
    if w_pair[:, 0].std() == 0.0 or w_pair[:, 1].std() == 0.0:
        corr = 0.0  # degenerate fluctuations (deterministic tree)
    else:
        corr = float(np.corrcoef(w_pair[:, 0], w_pair[:, 1])[0, 1])
    records.append(
        ResultRecord("fluctuation_pair_correlation", corr, None, params, 1.0 / math.sqrt(r_total))
    )
    if abs(corr) > 3.0 / math.sqrt(r_total):
        violations += 1
    return RunOutput(records, ("j", "theta"), violations)


# ---------------------------------------------------------------------------
# diag: Rademacher symmetrization inequalities
# ---------------------------------------------------------------------------


def _diag_block(shared, lo: int, hi: int):
    """Deviations and Rademacher-signed sups of replicates lo..hi-1, each
    bit for bit ``halfline_sup_weighted``'s value.  The block is drawn first
    and then reduced in one ``halfline_sup_ragged`` call per kind."""
    count, disp, ref, n, seed = shared
    points, sizes, signed = [], [], []
    for gen in RngStream(seed).child_generators("diag", n, lo=lo, hi=hi):
        pts, counts = draw_flat(n, count, disp, gen)
        signs = np.array([-1.0, 1.0])[gen.integers(0, 2, size=n)]
        points.append(pts[:, 0])
        sizes.append(pts.shape[0])
        signed.append(np.repeat(signs / n, counts))
    xs = np.concatenate(points)
    devs = halfline_sup_ragged(xs, sizes, np.full(xs.size, 1.0 / n), ref)
    syms = halfline_sup_ragged(xs, sizes, np.concatenate(signed), None)
    return devs, syms


def run_diag(config: ExperimentConfig, threads: int | None = None) -> RunOutput:
    n = config.n_grid[0]
    eps = config.epsilon_grid[0] if config.epsilon_grid else 0.5
    ref = reference_for(config.count, config.disp)
    shared = (config.count, config.disp, ref, n, config.seed)
    devs, syms = _over_replicates(_diag_block, shared, config, threads)

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

    pre_ok = _precondition_ok(config, n, eps)
    lhs_freq, lhs_fse = _frequency(devs, eps)
    rhs_freq, rhs_fse = _frequency(syms, eps / 4.0)
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
    from ..branching import dump_tree  # read per call: benchmarks/tracing.py patches it

    rng = RngStream(config.seed).child("simulate")
    records: list[ResultRecord] = []
    if config.target == "sample":
        n = config.n_grid[0] if config.n_grid else 1
        sample = draw_sample(n, config.count, config.disp, rng.generator())
        path = os.path.join(out_dir, "sample.ndjson")
        save_sample(sample, path)
        records.append(ResultRecord("patterns_written", float(sample.n)))
        records.append(ResultRecord("points_written", float(sample.s_n)))
    else:
        tree = grow_tree(config.count, config.disp, config.generations, rng)
        path = os.path.join(out_dir, "tree.ndjson")
        dump_tree(tree, path)
        records.append(ResultRecord("generations_written", float(tree.generations)))
        records.append(ResultRecord("vertices_written", float(sum(tree.gen_sizes()))))
    return RunOutput(records, ())



_RUNNERS = {
    "ulln": run_ulln,
    "clt": run_clt,
    "bound": run_bound,
    "depth": run_depth,
    "brw": run_brw,
    "diag": run_diag,
}


def run_experiment(config: ExperimentConfig, threads: int | None = None, out_dir=".") -> RunOutput:
    if config.kind == "simulate":
        return run_simulate(config, out_dir, threads)
    return _RUNNERS[config.kind](config, threads)
