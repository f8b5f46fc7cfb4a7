"""Experiment runners: seeded, replicate-parallel Monte Carlo studies.

Each replicate owns a counter-based stream derived from the master seed and
its index (a block draws them with ``RngStream.child_generators``, one
reseated generator), and results are folded in replicate order, so outputs are
byte-identical for any worker count.  ``_over_replicates`` splits the
replicates into blocks purely for scheduling and runs one module-level block
function per block, on ``config.threads`` workers.  Every runner takes the
config alone (``run_simulate`` also its output directory): configs arrive
validated, with their worker count resolved, so runners hold study logic
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
from ..branching import estimate_table, exact_sum, grow_tree, true_laplace
from ..depth import deepest_point, depth_sup_deviation
from ..functions import Exponential, half_spaces
from ..generators import (
    CountLaw,
    DiagonalGaussian,
    DisplacementLaw,
    RngStream,
    UniformBox,
    _ndtr,
    draw_flat,
    draw_sample,
)
from ..measure import (
    EmpiricalReference,
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


def _over_replicates(block, shared, config: ExperimentConfig):
    """``block(shared, lo, hi)`` over the config's replicates, on
    ``config.threads`` workers, joined in replicate order."""
    threads = config.threads
    total = config.replicates
    per = max(1, min(512, math.ceil(total / (threads * 4))))
    args = [(block, shared, lo, min(lo + per, total)) for lo in range(0, total, per)]
    if threads <= 1 or len(args) <= 1:
        return _join([_run_block(a) for a in args])
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return _join(list(pool.map(_run_block, args)))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def _loglog_slope(ns, means) -> tuple[float, float] | None:
    """Least-squares slope of log mean against log n and its s.e., or None
    for fewer than two sizes or a mean that is not positive (its log is not
    finite)."""
    if len(ns) < 2 or not min(means) > 0:
        return None
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
    """The tail bound's n >= 8 E[L^2] / eps^2 precondition; an eps whose
    square underflows to 0 would need an infinite n."""
    return eps**2 > 0 and n >= 8.0 * config.count.moments().second_moment / eps**2


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
# Replicate runs, and the uniform deviation blocks of ulln and bound
# ---------------------------------------------------------------------------


_SWEEP_POINTS = 1_000_000  # points per sweep call; 2e6 added 6 MiB of peak RSS and saved no time


def _buffered_runs(draws, total: int):
    """Join the draws of ``total`` replicates into runs of one sweep each.
    ``draws`` yields one tuple of arrays per replicate, each with one row
    per point (the points, then any value per point), copied into reused
    buffers of the first draw times the replicates left, at most
    ``_SWEEP_POINTS`` rows, or one larger draw; a run ends before a draw
    would overflow them.  Yields (first replicate, point counts, joined
    arrays), views that the next run overwrites."""
    bufs, sizes, used, first, rows = [], [], 0, 0, -1
    for r, arrays in enumerate(draws):
        m = len(arrays[0])
        if used + m > rows:
            if sizes:
                yield first, sizes, [b[:used] for b in bufs]
                sizes, used, first = [], 0, r
            if m > rows:
                rows = max(m, min(_SWEEP_POINTS, m * (total - r)))
                bufs = [np.empty((rows,) + a.shape[1:]) for a in arrays]
        for buf, values in zip(bufs, arrays):
            buf[used : used + m] = values
        used += m
        sizes.append(m)
    if sizes:
        yield first, sizes, [b[:used] for b in bufs]


def _deviation_block(shared, lo: int, hi: int) -> np.ndarray:
    """Sup deviations of replicates lo..hi-1, bit for bit ``sup_deviation``'s
    values.  Half-line samples, for any count law and one-dimensional
    reference, are joined in runs (``_buffered_runs``), each swept by one
    ``halfline_sup_rows`` call.  Every other class goes through
    ``sup_deviation`` per replicate."""
    count, disp, cls, ref, n, seed, tag = shared
    gens = RngStream(seed).child_generators(tag, n, lo=lo, hi=hi)
    if not cls.is_half_lines:
        return np.array([sup_deviation(draw_sample(n, count, disp, gen), cls, ref).value
                         for gen in gens])
    out = np.empty(hi - lo)
    draws = ((draw_flat(n, count, disp, gen)[0][:, 0],) for gen in gens)
    for first, sizes, (xs,) in _buffered_runs(draws, hi - lo):
        out[first : first + len(sizes)] = halfline_sup_rows(xs, sizes, 1.0 / n, ref)
    return out


def _deviations_for(config: ExperimentConfig, n: int, tag: str) -> np.ndarray:
    ref = reference_for(config.count, config.disp)
    shared = (config.count, config.disp, config.function_class, ref, n, config.seed, tag)
    return _over_replicates(_deviation_block, shared, config)


# ---------------------------------------------------------------------------
# ulln: decay of the uniform deviation
# ---------------------------------------------------------------------------


def run_ulln(config: ExperimentConfig) -> RunOutput:
    records: list[ResultRecord] = []
    means = []
    for n in config.n_grid:
        devs = _deviations_for(config, n, "ulln")
        params = (("n", n),)
        for r, v in enumerate(devs):
            records.append(ResultRecord("sup_deviation", float(v), r, params))
        mean, se = _mean_se(devs)
        records.append(ResultRecord("mean_deviation", mean, None, params, se))
        records.append(ResultRecord("median_deviation", float(np.median(devs)), None, params))
        means.append(mean)
    fit = _loglog_slope(config.n_grid, means) if config.replicates >= 2 else None
    if fit is not None:
        records.append(ResultRecord("loglog_slope", fit[0], None, (), fit[1]))
    return RunOutput(records, ("n",))


# ---------------------------------------------------------------------------
# clt: covariance and normality of sqrt(n) (mu_n - mu)
# ---------------------------------------------------------------------------


def _clt_block(shared, lo: int, hi: int) -> np.ndarray:
    """sqrt(n) (mu_n f - mu f) of replicates lo..hi-1 for each f, bit for bit
    the per-replicate ``root_n * (f.evaluate(pts).sum() / n - mu f)``.  The
    block's draws are joined in runs (``_buffered_runs``), each f is
    evaluated once per run, and each replicate's slice is summed alone: the
    same pairwise sum over the same values."""
    count, disp, fs, mus, n, seed = shared
    sums = np.empty((hi - lo, len(fs)))
    gens = RngStream(seed).child_generators("clt", n, lo=lo, hi=hi)
    draws = ((draw_flat(n, count, disp, gen)[0],) for gen in gens)
    for first, sizes, (pts,) in _buffered_runs(draws, hi - lo):
        ends = np.cumsum(sizes).tolist()
        for k, f in enumerate(fs):
            values = f.evaluate(pts)
            sums[first : first + len(sizes), k] = [
                values[a:b].sum() for a, b in zip([0] + ends, ends)
            ]
    return math.sqrt(n) * (sums / n - np.asarray(mus))


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
    """KS distance of ``values`` over their sample sd (ddof 1) from the
    standard normal, 0 for constant values (whose sd may round to a tiny
    nonzero number).  Phi is ``generators._ndtr``, the Gaussian law's rule."""
    sd = values.std(ddof=1)
    if sd == 0 or values.min() == values.max():
        return 0.0
    z = np.sort(values / sd)
    cdf = _ndtr(z)
    n = z.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def run_clt(config: ExperimentConfig) -> RunOutput:
    fs = config.function_class.members
    n = config.n_grid[0]
    ref = reference_for(config.count, config.disp)
    mus = tuple(ref.mass_of(f) for f in fs)
    shared = (config.count, config.disp, fs, mus, n, config.seed)
    z = _over_replicates(_clt_block, shared, config)

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


def run_bound(config: ExperimentConfig) -> RunOutput:
    v = config.function_class.vc_dim
    records: list[ResultRecord] = []
    table_rows: list[dict] = []
    violations = 0
    for n in config.n_grid:
        devs = _deviations_for(config, n, "bound")
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
    count, disp, ref, n, seed, eval_points, box, deepest_cap = shared
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
            x_star, d_star = deepest_point(EmpiricalReference(sample), box)
            deepest.append((r, x_star, d_star))
    return dev_rows, sup_rows, deepest


def _search_box(disp: DisplacementLaw):
    """The default depth box: a uniform law's support, else the bounding box
    of a Gaussian's mean or of a discrete law's atoms, widened by 3."""
    if isinstance(disp, UniformBox):
        return tuple(disp.low), tuple(disp.high)
    points = disp.mean[None] if isinstance(disp, DiagonalGaussian) else disp.atoms()[0]
    return tuple(points.min(axis=0) - 3.0), tuple(points.max(axis=0) + 3.0)


def run_depth(config: ExperimentConfig) -> RunOutput:
    d = config.disp.dim
    ref = reference_for(config.count, config.disp)
    box = config.depth_box or _search_box(config.disp)
    ref_median, _ = deepest_point(ref, box)
    records: list[ResultRecord] = []
    violations = 0
    means = []
    deepest_cap = min(config.replicates, 8)
    for n in config.n_grid:
        shared = (config.count, config.disp, ref, n, config.seed, config.eval_points,
                  box, deepest_cap)
        devs, sups, deepest = _over_replicates(_depth_block, shared, config)
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
    fit = _loglog_slope(config.n_grid, means)
    if fit is not None:
        records.append(ResultRecord("loglog_slope", fit[0], None, (), fit[1]))
    return RunOutput(records, ("n", "epsilon"), violations)


# ---------------------------------------------------------------------------
# brw: branching random walk estimators
# ---------------------------------------------------------------------------


def _brw_block(shared, lo: int, hi: int):
    """Per tree and distinct theta of the grid and the fluctuation theta, one
    ``exact_sum`` call and its ``estimate_table``, the estimators' one rule;
    the block's errors and fluctuation pairs are read from these tables."""
    count, disp, j_grid, thetas, fluct_theta, j_star, generations, m_true, mu_f, seed = shared
    distinct = list(dict.fromkeys((*thetas, fluct_theta)))
    pair = [j_star + 1, j_star + 2]
    # [tree, theta, generation or cumulative estimate, j]
    tables = np.empty((hi - lo, len(distinct), 2, generations))
    sizes = np.empty((hi - lo, 2))
    for r in range(lo, hi):
        tree = grow_tree(count, disp, generations, RngStream(seed).child("brw", r))
        rows, starts = tree.step_segments()
        for t, theta in enumerate(distinct):
            sums = exact_sum(np.exp(theta * rows[:, 0]), starts)
            tables[r - lo, t] = estimate_table(tree, sums)
        sizes[r - lo] = [tree.size(j) for j in pair]
    picked = tables[:, [distinct.index(theta) for theta in thetas]][..., j_grid]
    err_hat, err_tilde = np.abs(picked.transpose(2, 0, 3, 1) - m_true)  # [tree, j, theta]
    w_pair = np.sqrt(sizes) * (tables[:, distinct.index(fluct_theta), 0, pair] - mu_f)
    return err_hat, err_tilde, w_pair


def run_brw(config: ExperimentConfig) -> RunOutput:
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
    err_hat, err_tilde, w_pair = _over_replicates(_brw_block, shared, config)

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
    bit for bit ``halfline_sup_weighted``'s value.  Each replicate draws its
    points and then its n sign picks; its points and their signed weights
    s_i / n are joined in runs (``_buffered_runs``), and each run is reduced
    by one ``halfline_sup_rows`` call per kind: weight 1/n against the
    reference, the signed weights against zero."""
    count, disp, ref, n, seed = shared
    signs = np.array([-1.0, 1.0]) / n

    def draws():
        for gen in RngStream(seed).child_generators("diag", n, lo=lo, hi=hi):
            pts, counts = draw_flat(n, count, disp, gen)
            yield pts[:, 0], np.repeat(signs[gen.integers(0, 2, size=n)], counts)

    devs, syms = np.empty(hi - lo), np.empty(hi - lo)
    for first, sizes, (xs, signed) in _buffered_runs(draws(), hi - lo):
        run = slice(first, first + len(sizes))
        devs[run] = halfline_sup_rows(xs, sizes, 1.0 / n, ref)
        syms[run] = halfline_sup_rows(xs, sizes, signed, None)
    return devs, syms


def run_diag(config: ExperimentConfig) -> RunOutput:
    n = config.n_grid[0]
    eps = config.epsilon_grid[0] if config.epsilon_grid else 0.5
    ref = reference_for(config.count, config.disp)
    shared = (config.count, config.disp, ref, n, config.seed)
    devs, syms = _over_replicates(_diag_block, shared, config)

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


def run_simulate(config: ExperimentConfig, out_dir) -> RunOutput:
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


def run_experiment(config: ExperimentConfig, out_dir=".") -> RunOutput:
    if config.kind == "simulate":
        return run_simulate(config, out_dir)
    return _RUNNERS[config.kind](config)
