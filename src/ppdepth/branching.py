"""Galton-Watson trees carrying random-walk positions, and the generational
estimators of the reproduction point process.

Vertices are stored generation by generation in parent-major order, which is
exactly the breadth-first order induced by Ulam-Harris labels (children of
earlier parents come first, and the children of one parent keep their birth
order).  Each vertex stores its displacement from the parent explicitly, so
the per-vertex reproduction pattern (the displacements of its children) is
read off without any subtraction.

Two estimators of the intensity measure mu of the reproduction process are
provided.  The generation estimator averages the child patterns over one
generation V_j; with f = 1 it reduces to |V_{j+1}| / |V_j|, the classical
ratio estimator of the mean of a supercritical branching process.  The
cumulative estimator averages over all first T_j = |V_0| + ... + |V_j|
vertices in breadth-first order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .functions import EvalFunction
from .generators import CountLaw, DisplacementLaw, RngStream
from .measure import ReferenceMeasure
from .patterns import PointPattern

__all__ = [
    "BrwTree",
    "TreeCapError",
    "grow_tree",
    "vertex_pattern",
    "lotka_nagaev",
    "harris",
    "laplace_estimates",
    "true_laplace",
    "normalized_fluctuations",
    "dump_tree",
    "load_tree",
]


class TreeCapError(ValueError):
    """Raised when tree growth would exceed the vertex cap; carries the
    generation sizes grown so far."""

    def __init__(self, cap: int, gen_sizes: tuple[int, ...]):
        super().__init__(
            f"tree exceeded the vertex cap {cap} after generations {gen_sizes}"
        )
        self.cap = cap
        self.gen_sizes = gen_sizes


@dataclass(frozen=True)
class BrwTree:
    """An immutable branching random walk grown for J + 1 generations.

    ``disp[j]`` holds the displacement of every generation-j vertex from its
    parent (zeros for the root), ``parent[j]`` the index of its parent within
    generation j - 1, and ``pos[j]`` the accumulated positions.  Child counts
    are known for generations 0 .. J - 1 only; the children of the last
    generation are unobserved.
    """

    disp: tuple[np.ndarray, ...]
    parent: tuple[np.ndarray, ...]
    pos: tuple[np.ndarray, ...]
    counts: tuple[np.ndarray, ...]

    @property
    def generations(self) -> int:
        """J: index of the last grown generation."""
        return len(self.disp) - 1

    @property
    def dim(self) -> int:
        return self.disp[0].shape[1]

    def gen_sizes(self) -> tuple[int, ...]:
        return tuple(d.shape[0] for d in self.disp)

    def size(self, j: int) -> int:
        return self.disp[j].shape[0]

    def cumulative_size(self, j: int) -> int:
        """T_j = |V_0| + ... + |V_j|."""
        return sum(self.size(l) for l in range(j + 1))

    def child_offsets(self, j: int) -> np.ndarray:
        """Exclusive prefix sums of the child counts of generation j."""
        return np.concatenate([[0], np.cumsum(self.counts[j])[:-1]]).astype(np.int64)

    def label_of(self, j: int, i: int) -> tuple[int, ...]:
        """Ulam-Harris label of vertex i of generation j (root = ())."""
        label = []
        while j > 0:
            p = int(self.parent[j][i])
            label.append(i - int(self.child_offsets(j - 1)[p]) + 1)
            i, j = p, j - 1
        return tuple(reversed(label))

    def index_of(self, label: tuple[int, ...]) -> tuple[int, int]:
        """(generation, index) of an Ulam-Harris label."""
        j, i = 0, 0
        for child in label:
            if j >= len(self.counts) or not 1 <= child <= int(self.counts[j][i]):
                raise KeyError(f"label {label} is not a vertex of this tree")
            i = int(self.child_offsets(j)[i]) + child - 1
            j += 1
        return j, i


def grow_tree(
    count: CountLaw,
    disp: DisplacementLaw,
    generations: int,
    rng: RngStream,
    cap: int = 10_000_000,
) -> BrwTree:
    """Grow a tree with generations 0 .. ``generations``, root at the origin."""
    if generations < 1:
        raise ValueError("need at least one generation beyond the root")
    gen = rng.generator()
    d = disp.dim
    disp_arrays = [np.zeros((1, d))]
    parent_arrays = [np.full(1, -1, dtype=np.int64)]
    pos_arrays = [np.zeros((1, d))]
    counts_arrays: list[np.ndarray] = []
    total = 1
    for j in range(generations):
        sizes = count.sample(gen, disp_arrays[j].shape[0])
        next_size = int(sizes.sum())
        total += next_size
        if total > cap:
            raise TreeCapError(cap, tuple(a.shape[0] for a in disp_arrays))
        counts_arrays.append(sizes)
        moves = disp.sample(gen, next_size)
        parents = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
        disp_arrays.append(moves)
        parent_arrays.append(parents)
        pos_arrays.append(pos_arrays[j][parents] + moves)
    return BrwTree(
        tuple(disp_arrays), tuple(parent_arrays), tuple(pos_arrays), tuple(counts_arrays)
    )


def vertex_pattern(tree: BrwTree, label: tuple[int, ...]) -> PointPattern:
    """The reproduction pattern of a vertex: its children's displacements."""
    j, i = tree.index_of(tuple(label))
    if j >= len(tree.counts):
        raise ValueError("children of the last generation are unobserved")
    start = int(tree.child_offsets(j)[i])
    stop = start + int(tree.counts[j][i])
    return PointPattern(tree.disp[j + 1][start:stop])


def _check_generation(tree: BrwTree, j: int) -> None:
    if not 0 <= j <= tree.generations - 1:
        raise ValueError(
            f"generation {j} out of range; estimators need 0 <= j <= "
            f"{tree.generations - 1}"
        )


def lotka_nagaev(tree: BrwTree, j: int, f: EvalFunction) -> float:
    """Generation estimator: the average of Y_v(f) over v in V_j."""
    _check_generation(tree, j)
    return float(f.evaluate(tree.disp[j + 1]).sum() / tree.size(j))


def harris(tree: BrwTree, j: int, f: EvalFunction) -> float:
    """Cumulative estimator: the average of Y_v(f) over the first T_j
    breadth-first vertices (generations 0 .. j)."""
    _check_generation(tree, j)
    sums = [float(f.evaluate(tree.disp[l]).sum()) for l in range(1, j + 2)]
    return cumulative_estimates(tree, sums)[-1]


def exact_sum(values: np.ndarray) -> float:
    """Correctly rounded float sum; keeps deterministic-tree identities exact
    (blocked pairwise summation rounds sums of repeated values)."""
    return math.fsum(values.tolist())


def cumulative_estimates(tree: BrwTree, gen_sums) -> list[float]:
    """The cumulative estimate for j = 0, 1, ... from the per-generation sums
    ``gen_sums[l]`` = sum of f over V_{l+1}: the exact rational sum of
    ``gen_sums[: j + 1]`` divided by T_j, rounded once."""
    out, total, t_j = [], Fraction(0), 0
    for j, value in enumerate(gen_sums):
        total += Fraction(value)
        t_j += tree.size(j)
        out.append(float(total / t_j))
    return out


def laplace_estimates(tree: BrwTree, j: int, theta: float) -> tuple[float, float]:
    """Both estimators applied to f = e^{theta x} (one-dimensional trees)."""
    if tree.dim != 1:
        raise ValueError("Laplace transforms need one-dimensional displacements")
    _check_generation(tree, j)
    gen_sums = [exact_sum(np.exp(theta * tree.disp[l][:, 0])) for l in range(1, j + 2)]
    m_hat = gen_sums[-1] / tree.size(j)
    return m_hat, cumulative_estimates(tree, gen_sums)[-1]


def true_laplace(count: CountLaw, disp: DisplacementLaw, theta: float) -> float:
    """m(theta) = E[L] * E[e^{theta X}] for independent counts and steps."""
    if disp.dim != 1:
        raise ValueError("Laplace transforms need one-dimensional displacements")
    value = count.moments().mean * disp.mgf(theta)
    if not math.isfinite(value):
        raise ValueError(f"moment generating function diverges at theta={theta}")
    return value


def normalized_fluctuations(
    tree: BrwTree,
    j: int,
    fs: list[EvalFunction],
    ref: ReferenceMeasure,
    cumulative: bool = False,
) -> np.ndarray:
    """sqrt(|V_j|) (est_j(f) - mu(f)) per f; with ``cumulative`` the weight is
    sqrt(T_j) and the cumulative estimator is used."""
    _check_generation(tree, j)
    if cumulative:
        weight = math.sqrt(tree.cumulative_size(j))
        estimates = [harris(tree, j, f) for f in fs]
    else:
        weight = math.sqrt(tree.size(j))
        estimates = [lotka_nagaev(tree, j, f) for f in fs]
    return np.array([weight * (est - ref.mass_of(f)) for est, f in zip(estimates, fs)])


# ---------------------------------------------------------------------------
# Tree serialization: JSON lines, one vertex per line in breadth-first order
# ---------------------------------------------------------------------------


def dump_tree(tree: BrwTree, path) -> None:
    """Write the tree; each generation's labels extend its parents' labels."""
    labels: list[list[int]] = [[]]
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(tree.generations + 1):
            if j > 0:
                parents = tree.parent[j]
                births = np.arange(parents.size) - tree.child_offsets(j - 1)[parents] + 1
                labels = [
                    labels[p] + [b] for p, b in zip(parents.tolist(), births.tolist())
                ]
            rows = zip(labels, tree.pos[j].tolist(), tree.disp[j].tolist())
            for label, pos, disp in rows:
                record = {"label": label, "pos": pos, "disp": disp, "gen": j}
                fh.write(json.dumps(record) + "\n")


def load_tree(path) -> BrwTree:
    """Load a JSON-lines tree dump, validating the position recursion."""
    by_gen: dict[int, list[dict]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if tuple(sorted(rec)) != ("disp", "gen", "label", "pos"):
                raise ValueError(f"{path}:{lineno}: malformed vertex record")
            by_gen.setdefault(int(rec["gen"]), []).append(rec)
    if 0 not in by_gen or len(by_gen[0]) != 1 or by_gen[0][0]["label"]:
        raise ValueError("tree dump must contain exactly one root with label []")
    generations = max(by_gen)
    index_of: dict[tuple[int, ...], int] = {(): 0}
    disp_arrays = [np.asarray([by_gen[0][0]["disp"]], dtype=float)]
    parent_arrays = [np.full(1, -1, dtype=np.int64)]
    pos_arrays = [np.asarray([by_gen[0][0]["pos"]], dtype=float)]
    counts_arrays = []
    if np.abs(pos_arrays[0]).max() > 0:
        raise ValueError("root must sit at the origin")
    for j in range(1, generations + 1):
        records = by_gen.get(j, [])
        if not records:
            raise ValueError(f"generation {j} is empty")
        labels = [tuple(r["label"]) for r in records]
        order = sorted(range(len(records)), key=lambda idx: labels[idx])
        parents = np.empty(len(records), dtype=np.int64)
        disp_j = np.empty((len(records), disp_arrays[0].shape[1]))
        pos_j = np.empty_like(disp_j)
        new_index: dict[tuple[int, ...], int] = {}
        for slot, idx in enumerate(order):
            rec, label = records[idx], labels[idx]
            if len(label) != j or label[-1] < 1:
                raise ValueError(f"label {label} is invalid at generation {j}")
            parent_label = label[:-1]
            if parent_label not in index_of:
                raise ValueError(f"vertex {label} has no recorded parent")
            parents[slot] = index_of[parent_label]
            disp_j[slot] = rec["disp"]
            pos_j[slot] = rec["pos"]
            new_index[label] = slot
        drift = np.abs(pos_j - (pos_arrays[j - 1][parents] + disp_j)).max()
        if drift > 1e-12 * max(1, j):
            raise ValueError(
                f"position recursion violated at generation {j} (drift {drift:g})"
            )
        counts = np.zeros(disp_arrays[j - 1].shape[0], dtype=np.int64)
        np.add.at(counts, parents, 1)
        if (counts < 1).any():
            raise ValueError(f"generation {j - 1} has a childless vertex")
        birth = np.array([labels[idx][-1] for idx in order], dtype=np.int64)
        expected = np.concatenate([np.arange(1, c + 1) for c in counts])
        if birth.size != expected.size or (birth != expected).any():
            raise ValueError(f"sibling labels are not contiguous at generation {j}")
        counts_arrays.append(counts)
        disp_arrays.append(disp_j)
        parent_arrays.append(parents)
        pos_arrays.append(pos_j)
        index_of = new_index
    return BrwTree(
        tuple(disp_arrays), tuple(parent_arrays), tuple(pos_arrays), tuple(counts_arrays)
    )
