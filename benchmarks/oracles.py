"""Independent checks of every output value the workloads produce.

Each study's inputs are regenerated here with numpy from the same
counter-based streams the program uses (the stream derivation is restated
in ``stream``, not imported), and the expected outputs are recomputed from
them: exact sups by sorting and scanning both closed orientations, closed
forms for bounds and covariances, ``math.fsum`` estimators on trees grown
here, and properties every correct result must have (planar sups at least a
dense-direction lower bound, depth deviation at most the half-space sup).

An operation is one output row, one bound-table row or one tree round trip.
``check_study`` compares one study's output directory with the expected
values and returns a ``Tally`` of operations attempted and failed.  A
failure is *known* when it is one of two program faults the benchmark keeps
in view, on inputs that do not depend on the benchmark's seed: the planar
shortfall of ``measure.sup_deviation`` for ``half_spaces(2)``, and the
rounding of the cumulative estimator on a deterministic tree.  Every other
failure makes the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats
from scipy.special import ndtr

PLANAR_DIRECTIONS = 20_000
KS_MIN_PVALUE = 1e-6
PLANAR_TOL = 1e-10
PROJ_TOL = 1e-12
DEEPEST_CAP = 8

PARAM_COLUMNS = {
    "ulln": ("n",),
    "clt": ("n", "f", "g"),
    "bound": ("n", "epsilon"),
    "depth": ("n", "epsilon"),
    "brw": ("j", "theta"),
    "diag": ("n", "epsilon"),
    "simulate": (),
}


# ---------------------------------------------------------------------------
# Streams and laws, restated from the program's wire format
# ---------------------------------------------------------------------------


def stream(seed: int, *labels) -> np.random.Generator:
    """The generator of ``RngStream(seed).child(*labels)``."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    h.update(b"0")
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    index = int.from_bytes(h.digest(), "little")
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_counts(spec: dict, gen: np.random.Generator, size: int) -> np.ndarray:
    if spec["kind"] == "fixed":
        return np.full(size, spec["k"], dtype=np.int64)
    if spec["kind"] == "shifted_poisson":
        return 1 + gen.poisson(spec["lambda"], size=size).astype(np.int64)
    raise ValueError(f"count kind {spec['kind']!r} is not used by the benchmark")


def draw_points(spec: dict, gen: np.random.Generator, size: int) -> np.ndarray:
    if spec["kind"] == "uniform":
        low, high = np.asarray(spec["low"], float), np.asarray(spec["high"], float)
        return gen.uniform(low, high, size=(size, low.size))
    if spec["kind"] == "gaussian":
        mean, std = np.asarray(spec["mean"], float), np.asarray(spec["std"], float)
        return gen.normal(mean, std, size=(size, mean.size))
    if spec["kind"] == "discrete":
        pts = np.asarray(spec["points"], float)
        return pts[gen.choice(pts.shape[0], size=size, p=np.asarray(spec["weights"]))]
    raise ValueError(f"displacement kind {spec['kind']!r} is not used by the benchmark")


def count_moments(spec: dict) -> tuple[float, float]:
    """(E[L], Var[L])."""
    if spec["kind"] == "fixed":
        return float(spec["k"]), 0.0
    lam = spec["lambda"]
    return 1.0 + lam, lam


def draw_sample(config: dict, gen: np.random.Generator, n: int):
    sizes = draw_counts(config["count"], gen, n)
    return sizes, draw_points(config["disp"], gen, int(sizes.sum()))


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Exact sups and depths
# ---------------------------------------------------------------------------


def halfline_sup(xs, ws, ref_cdf, ref_total: float) -> float:
    """sup over closed half-lines of |sum of ws on the half-line - reference|.

    Scans (-inf, t], (-inf, t), [t, inf) and (t, inf) at every distinct
    position and the two tails; the reference is atomless with cdf
    ``ref_cdf`` and total mass ``ref_total``.
    """
    order = np.argsort(xs, kind="stable")
    xs, ws = np.asarray(xs)[order], np.asarray(ws)[order]
    pos, first = np.unique(xs, return_index=True)
    cum = np.concatenate([[0.0], np.cumsum(ws)])
    weak = cum[np.searchsorted(xs, pos, side="right")] - ref_cdf(pos)
    strict = cum[first] - ref_cdf(pos)
    dtot = cum[-1] - ref_total
    return float(
        max(abs(dtot), np.abs(weak).max(), np.abs(strict).max(),
            np.abs(dtot - weak).max(), np.abs(dtot - strict).max())
    )


def ks_statistic(rows: np.ndarray) -> np.ndarray:
    """Two-sided KS statistic of each row against U(0,1):
    max_i max(i/n - x_(i), x_(i) - (i-1)/n)."""
    x = np.sort(rows, axis=1)
    n = x.shape[1]
    i = np.arange(1, n + 1)
    return np.maximum((i / n - x).max(axis=1), (x - (i - 1) / n).max(axis=1))


def depth_1d_empirical(xs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """min(#{X <= x}, #{X >= x}) / n with the program's 1e-12 boundary slack."""
    xs = np.sort(xs)
    tol = PROJ_TOL * np.maximum(max(1.0, float(np.abs(xs).max())), np.abs(grid))
    left = np.searchsorted(xs, grid + tol, side="right")
    right = xs.size - np.searchsorted(xs, grid - tol, side="left")
    return np.minimum(left, right) / xs.size


def depth_1d_uniform(grid: np.ndarray) -> np.ndarray:
    f = uniform_cdf(grid)
    return np.minimum(f, 1.0 - f)


def depth_2d_empirical(pts: np.ndarray, x: np.ndarray) -> float:
    """Exact planar Tukey depth of x: the closed half-plane count through x
    is constant between the angles where its boundary passes a point, so it
    is evaluated at those angles and inside every arc between them."""
    q = pts - x
    tol = PROJ_TOL * max(1.0, float(np.abs(q).max()))
    on_x = np.hypot(q[:, 0], q[:, 1]) <= tol
    q = q[~on_x]
    if q.shape[0] == 0:
        return on_x.sum() / pts.shape[0]
    theta = np.arctan2(q[:, 1], q[:, 0])
    crit = np.unique(np.mod(np.concatenate([theta + np.pi / 2, theta - np.pi / 2]), 2 * np.pi))
    nxt = np.concatenate([crit[1:], [crit[0] + 2 * np.pi]])
    angles = np.concatenate([crit, 0.5 * (crit + nxt)])
    inside = q @ np.stack([np.cos(angles), np.sin(angles)]) <= tol
    return float((on_x.sum() + inside.sum(axis=0).min()) / pts.shape[0])


def gaussian_depth(x: np.ndarray, mean, std, total: float) -> float:
    """Tukey depth of x under total * N(mean, diag(std^2)): Phi(-|x|_M)."""
    z = (np.asarray(x, float) - np.asarray(mean, float)) / np.asarray(std, float)
    return total * float(ndtr(-math.sqrt(float(z @ z))))


def planar_sup_lower_bound(pts, n: int, mean, std, total: float,
                           directions: int = PLANAR_DIRECTIONS) -> float:
    """Max over ``directions`` evenly spaced half-circle directions of the
    exact closed half-plane sup against a Gaussian reference."""
    phi = np.pi * np.arange(directions) / directions
    dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    proj = np.sort(dirs @ pts.T, axis=1)
    centre = dirs @ np.asarray(mean, float)
    spread = np.sqrt(((dirs * np.asarray(std, float)) ** 2).sum(axis=1))
    ref = total * ndtr((proj - centre[:, None]) / spread[:, None])
    m = pts.shape[0]
    weak = np.arange(1, m + 1) / n - ref
    strict = weak - 1.0 / n
    dtot = m / n - total
    return float(max(abs(dtot), np.abs(weak).max(), np.abs(strict).max(),
                     np.abs(dtot - weak).max(), np.abs(dtot - strict).max()))


# ---------------------------------------------------------------------------
# Expected rows and the comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Problem:
    reason: str
    known: bool = False


def close(value: float, stderr: float | None = None, tol: float = 1e-12):
    """Row check: value (and stderr, when given) within tol, relative above 1."""

    def check(v, se):
        if not _near(v, value, tol):
            return Problem(f"value {v!r} != expected {value!r}")
        if stderr is not None and (se is None or not _near(se, stderr, tol)):
            return Problem(f"stderr {se!r} != expected {stderr!r}")
        return None

    return check


def _near(a, b, tol: float) -> bool:
    if a is None or not math.isfinite(a):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / math.sqrt(values.size) if values.size > 1 else 0.0
    return float(values.mean()), float(se)


def loglog_slope(ns, means) -> tuple[float, float]:
    x, y = np.log(np.asarray(ns, float)), np.log(np.asarray(means, float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = max(1, x.size - 2)
    return float(slope), math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))


def tail_bound(eps, n, alpha, beta, v) -> float:
    """16 (alpha n)^(v-1) exp(-eps^2 n / (32 beta)); the count tails are 0
    for the fixed counts this benchmark bounds, since alpha, beta > k."""
    return 16.0 * (alpha * n) ** (v - 1) * math.exp(-(eps**2) * n / (32.0 * beta))


@dataclass
class Expected:
    """What one study must write: row checks by key, table-row checks, the
    exit code, study-level problems, and the tree a round trip must return."""

    rows: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)  # file -> {key: {column: value}}
    exit_code: int = 0
    problems: list = field(default_factory=list)
    tree: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problem: Problem | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if problem.known:
            self.known += 1
        else:
            self.problems.append(f"{what}: {problem.reason}")

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.problems.extend(other.problems)

    @property
    def unexpected(self) -> int:
        return self.failed - self.known


def row_key(statistic: str, replicate=None, *params) -> tuple:
    """(statistic, replicate, params); trailing empty params are dropped, so
    a record keys the same whatever parameter columns its file has."""
    params = [None if p is None else float(p) for p in params]
    while params and params[-1] is None:
        params.pop()
    return (statistic, replicate, tuple(params))


def config_hash(study) -> str:
    payload = {"kind": study.kind, **study.config, "seed": study.seed}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str):
    return None if cell == "" else float(cell)


_UNEXPECTED = object()


def compare_records(study, exp: Expected, rows: list[dict], tally: Tally) -> None:
    """One operation per written record, plus one per expected record missing."""
    digest = config_hash(study)
    params = PARAM_COLUMNS[study.kind]
    seen = set()
    for row in rows:
        key = row_key(row["statistic"], None if row["replicate"] == "" else int(row["replicate"]),
                      *(_num(row[c]) for c in params))
        what = f"{study.name} {key}"
        check = exp.rows.get(key, _UNEXPECTED)
        if key in seen:
            problem = Problem("duplicate record")
        elif check is _UNEXPECTED:
            problem = Problem("unexpected record")
        elif check is None:
            problem = Problem("summary record without the records it summarizes")
        elif (row["experiment"], row["seed"], row["config_hash"]) != (study.kind, str(study.seed), digest):
            problem = Problem("wrong experiment, seed or config hash column")
        else:
            problem = check(float(row["value"]), _num(row["stderr"]))
        seen.add(key)
        tally.op(what, problem)
    for key in exp.rows.keys() - seen:
        tally.op(f"{study.name} {key}", Problem("record missing"))


def compare_table(name: str, exp_rows: dict, key_columns, rows: list[dict], tally: Tally) -> None:
    seen = set()
    for row in rows:
        key = tuple(float(row[c]) for c in key_columns)
        want = exp_rows.get(key)
        problem = None
        if want is None or key in seen:
            problem = Problem("unexpected or duplicate table row")
        else:
            for column, value in want.items():
                cell = row[column]
                ok = cell == value if isinstance(value, str) else _near(float(cell), value, 1e-12)
                if not ok:
                    problem = Problem(f"{column} {cell!r} != expected {value!r}")
                    break
        seen.add(key)
        tally.op(f"{name} {key}", problem)
    for key in exp_rows.keys() - seen:
        tally.op(f"{name} {key}", Problem("table row missing"))


# ---------------------------------------------------------------------------
# Per-kind expectations
# ---------------------------------------------------------------------------


def _one_dim_sups(study, tag: str, n: int) -> np.ndarray:
    cfg = study.config
    total, _ = count_moments(cfg["count"])
    out = np.empty(cfg["replicates"])
    rows = []
    for r in range(out.size):
        sizes, pts = draw_sample(cfg, stream(study.seed, tag, n, r), n)
        if cfg["count"]["kind"] == "fixed" and cfg["count"]["k"] == 1:
            rows.append(pts[:, 0])
        else:
            out[r] = halfline_sup(pts[:, 0], np.full(pts.shape[0], 1.0 / n),
                                  lambda s: total * uniform_cdf(s), total)
    if rows:
        out = ks_statistic(np.array(rows))
    return out


def kstwo_cdf(n: int):
    """The cdf of kstwo(n), interpolated from 201 exact values on
    [0, 3/sqrt(n)]; exact evaluation at thousands of points takes seconds."""
    grid = np.linspace(0.0, 3.0, 201) / math.sqrt(n)
    values = stats.kstwo(n).cdf(grid)
    return lambda x: np.interp(x, grid, values, right=1.0)


def _ks_problem(sups, n: int) -> Problem | None:
    p = stats.kstest(sups, kstwo_cdf(n)).pvalue
    if p < KS_MIN_PVALUE:
        return Problem(f"sups at n={n} fail a KS test against kstwo({n}) (p={p:.3g})")
    return None


def expect_ulln(study) -> Expected:
    cfg = study.config
    exp = Expected()
    if cfg["function_class"]["kind"] == "half_spaces":
        return _expect_planar_ulln(study)
    means = []
    for n in cfg["n_grid"]:
        sups = _one_dim_sups(study, "ulln", n)
        for r, v in enumerate(sups):
            exp.rows[row_key("sup_deviation", r, n)] = close(float(v))
        mean, se = mean_se(sups)
        means.append(mean)
        exp.rows[row_key("mean_deviation", None, n)] = close(mean, se)
        exp.rows[row_key("median_deviation", None, n)] = close(float(np.median(sups)))
        if cfg["count"] == {"kind": "fixed", "k": 1}:
            problem = _ks_problem(sups, n)
            if problem:
                exp.problems.append(problem)
    if len(cfg["n_grid"]) >= 2:
        slope, se = loglog_slope(cfg["n_grid"], means)
        exp.rows[row_key("loglog_slope")] = close(slope, se, tol=1e-9)
    return exp


def _planar_check(lower: float):
    def check(v, se):
        if v < lower - PLANAR_TOL:
            return Problem(f"planar sup {v!r} < dense-direction lower bound {lower!r}",
                           known=True)
        return None
    return check


def _expect_planar_ulln(study) -> Expected:
    """Sup rows are checked against the dense lower bound; the summary rows
    against the sups the run itself wrote (they are consistent aggregates)."""
    cfg = study.config
    disp = cfg["disp"]
    exp = Expected()
    for n in cfg["n_grid"]:
        for r in range(cfg["replicates"]):
            _, pts = draw_sample(cfg, stream(study.seed, "ulln", n, r), n)
            lower = planar_sup_lower_bound(pts, n, disp["mean"], disp["std"], 1.0)
            exp.rows[row_key("sup_deviation", r, n)] = _planar_check(lower)
        for stat in ("mean_deviation", "median_deviation"):
            exp.rows[row_key(stat, None, n)] = None  # set from the written sups
    if len(cfg["n_grid"]) >= 2:
        exp.rows[row_key("loglog_slope")] = None
    return exp


def complete_planar_ulln(study, exp: Expected, rows: list[dict]) -> Expected:
    """Fill the aggregate checks of a planar ulln study from its sup rows."""
    cfg = study.config
    filled = replace(exp, rows=dict(exp.rows))
    means = []
    for n in cfg["n_grid"]:
        sups = np.array([float(r["value"]) for r in rows
                         if r["statistic"] == "sup_deviation" and float(r["n"]) == n])
        if sups.size != cfg["replicates"]:
            return filled
        mean, se = mean_se(sups)
        means.append(mean)
        filled.rows[row_key("mean_deviation", None, n)] = close(mean, se)
        filled.rows[row_key("median_deviation", None, n)] = close(float(np.median(sups)))
    if len(cfg["n_grid"]) >= 2:
        slope, se = loglog_slope(cfg["n_grid"], means)
        filled.rows[row_key("loglog_slope")] = close(slope, se, tol=1e-9)
    return filled


def expect_bound(study) -> Expected:
    cfg = study.config
    exp = Expected()
    alpha, beta, v = cfg["alpha"], cfg["beta"], 2
    reps = cfg["replicates"]
    table = {}
    for n in cfg["n_grid"]:
        sups = _one_dim_sups(study, "bound", n)
        problem = _ks_problem(sups, n)
        if problem:
            exp.problems.append(problem)
        for eps in cfg["epsilon_grid"]:
            raw = tail_bound(eps, n, alpha, beta, v)
            clamped = min(1.0, raw)
            pre_ok = n >= 8.0 / eps**2
            freq = float(np.count_nonzero(sups >= eps) / reps)
            se = math.sqrt(freq * (1.0 - freq) / reps)
            violated = pre_ok and freq > clamped + 3.0 * se
            if violated:
                exp.exit_code = 2
            for stat, value, err in (
                ("empirical_exceedance", freq, se),
                ("raw_bound", raw, None),
                ("clamped_bound", clamped, None),
                ("tail_sn", 0.0, None),
                ("tail_sn2", 0.0, None),
                ("precondition_ok", float(pre_ok), None),
                ("violation", float(violated), None),
            ):
                exp.rows[row_key(stat, None, n, eps)] = close(value, err)
            table[(float(n), float(eps))] = {
                "alpha": alpha, "beta": beta, "v": float(v), "raw_bound": raw,
                "clamped_bound": clamped, "tail_sn": 0.0, "tail_sn2": 0.0,
                "chernoff_used": "degenerate",
            }
    exp.tables["bound_table"] = table
    return exp


def expect_diag(study) -> Expected:
    cfg = study.config
    n, eps, reps = cfg["n_grid"][0], cfg["epsilon_grid"][0], cfg["replicates"]
    total, var = count_moments(cfg["count"])
    devs, syms = np.empty(reps), np.empty(reps)
    for r in range(reps):
        gen = stream(study.seed, "diag", n, r)
        sizes, pts = draw_sample(cfg, gen, n)
        xs = pts[:, 0]
        devs[r] = halfline_sup(xs, np.full(xs.size, 1.0 / n),
                               lambda s: total * uniform_cdf(s), total)
        signs = gen.choice(np.array([-1.0, 1.0]), size=n)
        syms[r] = halfline_sup(xs, np.repeat(signs / n, sizes), np.zeros_like, 0.0)
    exp = Expected()
    p = (n, eps)
    lhs, lhs_se = mean_se(devs)
    rhs, rhs_se = mean_se(2.0 * syms)
    exp_ok = lhs <= rhs + 3.0 * math.hypot(lhs_se, rhs_se)
    pre_ok = n >= 8.0 * (var + total**2) / eps**2
    lf = float(np.count_nonzero(devs >= eps) / reps)
    rf = float(np.count_nonzero(syms >= eps / 4.0) / reps)
    lf_se, rf_se = math.sqrt(lf * (1 - lf) / reps), math.sqrt(rf * (1 - rf) / reps)
    prob_ok = (not pre_ok) or lf <= 4.0 * rf + 3.0 * math.hypot(lf_se, 4.0 * rf_se)
    for stat, value, err in (
        ("expectation_lhs", lhs, lhs_se),
        ("expectation_rhs", rhs, rhs_se),
        ("expectation_ok", float(exp_ok), None),
        ("probability_lhs", lf, lf_se),
        ("probability_rhs", 4.0 * rf, 4.0 * rf_se),
        ("probability_precondition_ok", float(pre_ok), None),
        ("probability_ok", float(prob_ok), None),
    ):
        exp.rows[row_key(stat, None, *p)] = close(value, err)
    if not (exp_ok and prob_ok):
        exp.exit_code = 2
    return exp


def _clt_values(fs, pts: np.ndarray) -> np.ndarray:
    """f(x) for each function spec (half-lines {x <= t} and constants)."""
    cols = []
    for f in fs:
        if f["kind"] == "half_line":
            cols.append((pts[:, 0] <= f["threshold"]).astype(float))
        else:
            cols.append(np.full(pts.shape[0], float(f["value"])))
    return np.stack(cols, axis=1)


def _cov_se(z: np.ndarray):
    c = z - z.mean(axis=0)
    r = z.shape[0]
    cov = c.T @ c / (r - 1)
    se = np.array([[(c[:, a] * c[:, b]).std(ddof=1) / math.sqrt(r) for b in range(z.shape[1])]
                   for a in range(z.shape[1])])
    return cov, se


def expect_clt(study) -> Expected:
    cfg = study.config
    fs = cfg["function_class"]["functions"]
    n, reps, draws = cfg["n_grid"][0], cfg["replicates"], cfg["gt_draws"]
    mean_l, var_l = count_moments(cfg["count"])
    ef = np.array([min(max(f["threshold"], 0.0), 1.0) if f["kind"] == "half_line"
                   else float(f["value"]) for f in fs])
    mus = mean_l * ef
    z = np.empty((reps, len(fs)))
    for r in range(reps):
        _, pts = draw_sample(cfg, stream(study.seed, "clt", n, r), n)
        z[r] = math.sqrt(n) * (_clt_values(fs, pts).sum(axis=0) / n - mus)
    gen = stream(study.seed, "clt-gt")
    gt = np.empty((draws, len(fs)))
    block = 500_000
    for done in range(0, draws, block):
        b = min(block, draws - done)
        sizes, pts = draw_sample(cfg, gen, b)
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        gt[done:done + b] = np.add.reduceat(_clt_values(fs, pts), offsets, axis=0)
    cov_rep, se_rep = _cov_se(z)
    cov_gt, se_gt = _cov_se(gt)
    exp = Expected()
    tol = 1e-9
    for a in range(len(fs)):
        for b in range(a, len(fs)):
            p = (n, a, b)
            fa, fb = fs[a], fs[b]
            if fa["kind"] == "half_line" and fb["kind"] == "half_line":
                efg = min(ef[a], ef[b])
            else:
                efg = ef[a] * ef[b]
            exact = mean_l * (efg - ef[a] * ef[b]) + var_l * ef[a] * ef[b]
            marking = mean_l * (efg - ef[a] * ef[b])
            exp.rows[row_key("replicate_covariance", None, *p)] = close(cov_rep[a, b], se_rep[a, b], tol)
            exp.rows[row_key("ground_truth_covariance", None, *p)] = close(cov_gt[a, b], se_gt[a, b], tol)
            exp.rows[row_key("pattern_covariance_exact", None, *p)] = close(exact)
            exp.rows[row_key("marking_covariance", None, *p)] = close(marking)
    for a in range(len(fs)):
        col = z[:, a]
        c = col - col.mean()
        sd = col.std(ddof=1)
        p = (n, a, None)
        skew = float((c**3).mean() / sd**3)
        kurt = float((c**4).mean() / sd**4 - 3.0)
        zs = np.sort(c / c.std(ddof=1))
        cdf = ndtr(zs)
        m = zs.size
        ks = float(max(np.max(np.arange(1, m + 1) / m - cdf), np.max(cdf - np.arange(m) / m)))
        exp.rows[row_key("marginal_mean", None, *p)] = close(float(col.mean()), None, tol)
        exp.rows[row_key("marginal_skewness", None, *p)] = close(skew, None, tol)
        exp.rows[row_key("marginal_excess_kurtosis", None, *p)] = close(kurt, None, tol)
        exp.rows[row_key("normal_ks_distance", None, *p)] = close(ks, None, tol)
    return exp


def _depth_box(cfg) -> tuple[np.ndarray, np.ndarray]:
    disp = cfg["disp"]
    if disp["kind"] == "uniform":
        return np.asarray(disp["low"], float), np.asarray(disp["high"], float)
    d = len(disp["mean"])
    return np.full(d, -3.0), np.full(d, 3.0)


def _deepest_check(emp_depth, grid_best: float, n: int, centre, dist_key, depth_key, dim):
    """Properties of a deepest-point record: its depth is a multiple of 1/n,
    at least the best grid depth and at most (floor(n/2) + 1)/n, and in 1-d
    it is the empirical depth at ``centre`` +- the written distance."""
    state = {}

    def check_dist(v, se):
        state["dist"] = v
        return None

    def check_depth(v, se):
        top = (n // 2 + 1) / n
        if abs(v * n - round(v * n)) > 1e-9 or v < grid_best - 1e-12 or v > top + 1e-12:
            return Problem(f"deepest depth {v!r} outside [{grid_best!r}, {top!r}] or off the 1/n lattice")
        if dim == 1 and "dist" in state:
            d = state["dist"]
            at = emp_depth(np.array([centre - d, centre + d]))
            if not np.any(np.abs(at - v) <= 1e-12):
                return Problem(f"deepest depth {v!r} is not the depth at {centre} +- {d!r}")
        return None

    return {dist_key: check_dist, depth_key: check_depth}


def expect_depth(study) -> Expected:
    cfg = study.config
    disp = cfg["disp"]
    dim = 1 if disp["kind"] == "uniform" else 2
    lo, hi = _depth_box(cfg)
    axes = [np.linspace(lo[i], hi[i], cfg["depth_grid"]) for i in range(dim)]
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    evals = np.asarray(cfg["eval_points"], float)
    reps = cfg["replicates"]
    cap = min(reps, DEEPEST_CAP)
    exp = Expected()
    centre = 0.5 if dim == 1 else np.zeros(2)
    means = []
    for n in cfg["n_grid"]:
        devs = np.empty(reps)
        for r in range(reps):
            _, pts = draw_sample(cfg, stream(study.seed, "depth", n, r), n)
            if dim == 1:
                xs = np.unique(pts[:, 0])
                grid = np.unique(np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), evals[:, 0]]))
                devs[r] = float(np.abs(depth_1d_uniform(grid) - depth_1d_empirical(pts[:, 0], grid)).max())
                sup = float(ks_statistic(pts[:, 0][None, :])[0])
                exp.rows[row_key("halfspace_sup_deviation", r, n)] = close(sup)
                emp = lambda g, xs=pts[:, 0]: depth_1d_empirical(xs, g)
                grid_best = float(emp(mesh[:, 0]).max()) if r < cap else 0.0
            else:
                devs[r] = max(abs(gaussian_depth(x, disp["mean"], disp["std"], 1.0)
                                  - depth_2d_empirical(pts, x)) for x in evals)
                lower = planar_sup_lower_bound(pts, n, disp["mean"], disp["std"], 1.0)
                exp.rows[row_key("halfspace_sup_deviation", r, n)] = _planar_check(lower)
                emp = None
                grid_best = max(depth_2d_empirical(pts, x) for x in mesh) if r < cap else 0.0
            exp.rows[row_key("depth_sup_deviation", r, n)] = close(devs[r], tol=1e-9)
            if r < cap:
                exp.rows.update({
                    row_key(k, r, n): c for k, c in _deepest_check(
                        emp, grid_best, n, centre, "deepest_point_distance",
                        "deepest_point_depth", dim).items()
                })
        mean, se = mean_se(devs)
        means.append(mean)
        exp.rows[row_key("mean_depth_deviation", None, n)] = close(mean, se, tol=1e-9)
        exp.rows[row_key("mean_deepest_distance", None, n)] = None  # from written distances
        for eps in cfg["epsilon_grid"]:
            freq = float(np.count_nonzero(devs >= eps) / reps)
            se = math.sqrt(freq * (1.0 - freq) / reps)
            clamped = min(1.0, tail_bound(eps, n, 1.01, 1.01, dim + 1))
            exp.rows[row_key("empirical_exceedance", None, n, eps)] = close(freq, se)
            exp.rows[row_key("clamped_bound", None, n, eps)] = close(clamped)
            if n >= 8.0 / eps**2 and freq > clamped + 3.0 * se:
                exp.exit_code = 2
    for i in range(dim):
        exp.rows[row_key(f"reference_median_x{i + 1}")] = close(float(np.atleast_1d(centre)[i]))
    if len(cfg["n_grid"]) >= 2:
        slope, se = loglog_slope(cfg["n_grid"], means)
        exp.rows[row_key("loglog_slope")] = close(slope, se, tol=1e-9)
    return exp


def complete_depth(study, exp: Expected, rows: list[dict]) -> Expected:
    """Fill mean_deepest_distance from the distances the run wrote."""
    filled = replace(exp, rows=dict(exp.rows))
    for n in study.config["n_grid"]:
        dists = [float(r["value"]) for r in rows
                 if r["statistic"] == "deepest_point_distance" and float(r["n"]) == n]
        if dists:
            mean, se = mean_se(dists)
            filled.rows[row_key("mean_deepest_distance", None, n)] = close(mean, se)
    return filled


def grow_tree(cfg: dict, gen: np.random.Generator, generations: int) -> dict:
    """Generation arrays of a tree grown breadth-first from one stream."""
    disp = [np.zeros((1, 1))]
    parent = [np.full(1, -1, dtype=np.int64)]
    pos = [np.zeros((1, 1))]
    counts = []
    for j in range(generations):
        sizes = draw_counts(cfg["count"], gen, disp[j].shape[0])
        moves = draw_points(cfg["disp"], gen, int(sizes.sum()))
        parents = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        counts.append(sizes)
        disp.append(moves)
        parent.append(parents)
        pos.append(pos[j][parents] + moves)
    return {"disp": disp, "parent": parent, "pos": pos, "counts": counts}


def expect_brw(study) -> Expected:
    cfg = study.config
    j_grid, thetas, reps = cfg["j_grid"], cfg["theta_grid"], cfg["replicates"]
    j_star, th_f = max(j_grid), cfg["fluct_theta"]
    mean_l, var_l = count_moments(cfg["count"])
    disp = cfg["disp"]
    if disp["kind"] == "uniform":
        a, b = disp["low"][0], disp["high"][0]
        mgf = lambda t: 1.0 if t == 0 else math.exp(t * a) * math.expm1(t * (b - a)) / (t * (b - a))
        second = lambda t: mgf(2 * t)
    else:
        xs, ws = np.asarray(disp["points"], float)[:, 0], np.asarray(disp["weights"], float)
        mgf = lambda t: float(np.exp(t * xs) @ ws)
        second = lambda t: float((np.exp(t * xs) ** 2) @ ws)
    m_true = [mean_l * mgf(t) for t in thetas]
    mu_f = mean_l * mgf(th_f)
    err_hat = np.empty((reps, len(j_grid), len(thetas)))
    err_tilde = np.empty_like(err_hat)
    w = np.empty((reps, 2))
    for r in range(reps):
        tree = grow_tree(cfg, stream(study.seed, "brw", r), j_star + 3)
        size = [d.shape[0] for d in tree["disp"]]
        sums = {t: [math.fsum(np.exp(t * tree["disp"][l][:, 0]).tolist())
                    for l in range(1, j_star + 4)] for t in set(thetas) | {th_f}}
        for ai, j in enumerate(j_grid):
            for bi, t in enumerate(thetas):
                err_hat[r, ai, bi] = abs(sums[t][j] / size[j] - m_true[bi])
                err_tilde[r, ai, bi] = abs(math.fsum(sums[t][: j + 1]) / sum(size[: j + 1]) - m_true[bi])
        for c, j in enumerate((j_star + 1, j_star + 2)):
            w[r, c] = math.sqrt(size[j]) * (sums[th_f][j] / size[j] - mu_f)
    exp = Expected()
    deterministic = cfg["count"]["kind"] == "fixed" and disp["kind"] == "discrete"
    tol = 0.0 if deterministic else 1e-9
    for ai, j in enumerate(j_grid):
        for bi, t in enumerate(thetas):
            exp.rows[row_key("mean_abs_error_generation", None, j, t)] = close(*mean_se(err_hat[:, ai, bi]), tol)
            exp.rows[row_key("mean_abs_error_cumulative", None, j, t)] = close(*mean_se(err_tilde[:, ai, bi]), tol)
            if deterministic:
                exp.rows[row_key("mean_abs_error_generation", None, j, t)] = close(0.0, 0.0, 0.0)
                exp.rows[row_key("mean_abs_error_cumulative", None, j, t)] = _cumulative_zero(m_true[bi])
    p = (j_star + 1, th_f)
    var_e = second(th_f) - mgf(th_f) ** 2
    target = mean_l * var_e + var_l * mgf(th_f) ** 2
    if w[:, 0].std() == 0.0 or w[:, 1].std() == 0.0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(w[:, 0], w[:, 1])[0, 1])
    exp.rows[row_key("fluctuation_variance", None, *p)] = close(float(w[:, 0].var(ddof=1)), None, tol)
    exp.rows[row_key("fluctuation_variance_target", None, *p)] = close(target, None, 1e-12)
    exp.rows[row_key("fluctuation_pair_correlation", None, *p)] = close(corr, 1.0 / math.sqrt(reps), tol)
    if abs(corr) > 3.0 / math.sqrt(reps):
        exp.exit_code = 2
    return exp


def _cumulative_zero(m_true: float):
    """A deterministic tree's cumulative error must be exactly 0.  The
    program divides the correctly rounded sum by T_j = 2^(j+1) - 1, which
    rounds a second time; an error of a few ulps of m(theta) is that known
    fault, anything larger is not."""

    def check(v, se):
        if v == 0.0 and se == 0.0:
            return None
        known = 0.0 < v <= 4.0 * math.ulp(m_true) and se == 0.0
        return Problem(f"cumulative error {v!r} (stderr {se!r}) != 0", known=known)

    return check


def ulam_harris_labels(counts) -> list[list[tuple]]:
    """Labels per generation, from the child counts alone."""
    labels = [[()]]
    for c in counts:
        labels.append([parent + (k,) for parent, m in zip(labels[-1], c.tolist())
                       for k in range(1, m + 1)])
    return labels


def expect_simulate(study) -> Expected:
    cfg = study.config
    tree = grow_tree(cfg, stream(study.seed, "simulate"), cfg["generations"])
    exp = Expected(tree=tree)
    exp.rows[row_key("generations_written")] = close(float(cfg["generations"]))
    exp.rows[row_key("vertices_written")] = close(float(sum(d.shape[0] for d in tree["disp"])))
    return exp


def check_tree_dump(tree: dict, path: str) -> Problem | None:
    """Every line of the dump must carry the Ulam-Harris label, generation,
    position and displacement of the next breadth-first vertex."""
    labels = ulam_harris_labels(tree["counts"])
    expected = ((j, i) for j in range(len(labels)) for i in range(len(labels[j])))
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            j, i = next(expected, (None, None))
            if j is None:
                return Problem(f"line {lineno}: more vertices than the tree has")
            rec = json.loads(line)
            want = {"label": list(labels[j][i]), "gen": j,
                    "pos": tree["pos"][j][i].tolist(), "disp": tree["disp"][j][i].tolist()}
            if rec != want:
                return Problem(f"line {lineno}: {rec} != {want}")
    if next(expected, None) is not None:
        return Problem("dump ends before the last vertex")
    return None


def check_loaded_tree(tree: dict, loaded: dict) -> Problem | None:
    for name in ("disp", "parent", "pos", "counts"):
        mine, theirs = tree[name], loaded.get(name, [])
        if len(mine) != len(theirs) or any(
            a.shape != b.shape or not np.array_equal(a, b) for a, b in zip(mine, theirs)
        ):
            return Problem(f"load_tree returned a different {name} array")
    return None


EXPECT = {
    "ulln": expect_ulln,
    "bound": expect_bound,
    "diag": expect_diag,
    "clt": expect_clt,
    "depth": expect_depth,
    "brw": expect_brw,
    "simulate": expect_simulate,
}


def expect_study(study) -> Expected:
    return EXPECT[study.kind](study)


def check_study(study, exp: Expected, study_dir: str, exit_code, loaded_tree=None) -> Tally:
    """Check one study's outputs in ``study_dir`` against ``exp``."""
    tally = Tally()
    path = os.path.join(study_dir, f"{study.kind}.csv")
    rows = read_csv(path) if os.path.exists(path) else []
    if study.kind == "ulln" and study.config["function_class"]["kind"] == "half_spaces":
        exp = complete_planar_ulln(study, exp, rows)
    elif study.kind == "depth":
        exp = complete_depth(study, exp, rows)
    compare_records(study, exp, rows, tally)
    for name, table in exp.tables.items():
        table_path = os.path.join(study_dir, f"{name}.csv")
        table_rows = read_csv(table_path) if os.path.exists(table_path) else []
        compare_table(f"{study.name} {name}", table, ("n", "epsilon"), table_rows, tally)
    if exp.tree is not None:
        dump = os.path.join(study_dir, "tree.ndjson")
        problem = (check_tree_dump(exp.tree, dump) if os.path.exists(dump)
                   else Problem("tree.ndjson missing"))
        if problem is None:
            problem = check_loaded_tree(exp.tree, loaded_tree or {})
        tally.op(f"{study.name} tree round trip", problem)
    study_problems = list(exp.problems)
    if exit_code != exp.exit_code:
        study_problems.append(Problem(f"exit code {exit_code!r}, expected {exp.exit_code}"))
    if study_problems:
        # a study-level fault taints every operation of the study
        tally.failed = tally.attempted
        tally.known = 0
        tally.problems.extend(f"{study.name}: {p.reason}" for p in study_problems)
    return tally
