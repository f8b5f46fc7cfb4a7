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
vertices in breadth-first order.  Both are read from one rule,
``estimate_table``, over the correctly rounded generation sums of
``exact_sum``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .functions import EvalFunction
from .generators import CountLaw, DisplacementLaw, RngStream
from .measure import ReferenceMeasure
from .patterns import PointPattern

__all__ = [
    "BrwTree",
    "TreeCapError",
    "VERTEX_CAP",
    "expected_vertices",
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


VERTEX_CAP = 10_000_000


def expected_vertices(count: CountLaw, generations: int) -> float:
    """E|V_0| + ... + E|V_g| = sum_{j <= g} E[L]^j for g = ``generations``:
    the expected size of a tree grown by ``grow_tree`` (inf on overflow)."""
    mean = count.moments().mean
    if mean == 1.0:
        return float(generations + 1)
    try:
        return (mean ** (generations + 1) - 1.0) / (mean - 1.0)
    except OverflowError:
        return math.inf


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

    def _first_child(self, j: int, i: int) -> int:
        """``child_offsets(j)[i]``, from the counts of the i vertices before
        vertex i of generation j only."""
        return int(self.counts[j][:i].sum())

    def label_of(self, j: int, i: int) -> tuple[int, ...]:
        """Ulam-Harris label of vertex i of generation j (root = ())."""
        label = []
        while j > 0:
            p = int(self.parent[j][i])
            label.append(i - self._first_child(j - 1, p) + 1)
            i, j = p, j - 1
        return tuple(reversed(label))

    def index_of(self, label: tuple[int, ...]) -> tuple[int, int]:
        """(generation, index) of an Ulam-Harris label."""
        j, i = 0, 0
        for child in label:
            if j >= len(self.counts) or not 1 <= child <= int(self.counts[j][i]):
                raise KeyError(f"label {label} is not a vertex of this tree")
            i = self._first_child(j, i) + child - 1
            j += 1
        return j, i

    def step_segments(self, last: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The displacement rows of generations 1 .. ``last`` (default J),
        concatenated, and the start of each generation in them: the
        ``values, starts`` layout of one ``exact_sum`` call per tree."""
        last = self.generations if last is None else last
        rows = np.concatenate(self.disp[1 : last + 1])
        starts = np.cumsum([0] + [d.shape[0] for d in self.disp[1:last]])
        return rows, starts


def grow_tree(
    count: CountLaw,
    disp: DisplacementLaw,
    generations: int,
    rng: RngStream,
    cap: int = VERTEX_CAP,
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
    start = tree._first_child(j, i)
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
    return _estimates(tree, j, f.evaluate)[0]


def harris(tree: BrwTree, j: int, f: EvalFunction) -> float:
    """Cumulative estimator: the average of Y_v(f) over the first T_j
    breadth-first vertices (generations 0 .. j)."""
    return _estimates(tree, j, f.evaluate)[1]


def _estimates(tree: BrwTree, j: int, values) -> tuple[float, float]:
    """Both estimators at generation j of f, given by ``values(rows)``."""
    _check_generation(tree, j)
    rows, starts = tree.step_segments(j + 1)
    hat, tilde = estimate_table(tree, exact_sum(values(rows), starts))
    return hat[j], tilde[j]


# Limb width of the exact sum: a limb digit is an integer below 2^26 in
# magnitude, so up to 2^27 digits sum exactly in float64.
_LIMB_BITS = 26
_SEGMENT_CAP = 1 << (53 - _LIMB_BITS)
# Below 2^995 a segment of at most _SEGMENT_CAP values sums to below 2^1022,
# so neither math.fsum nor the final rounding can overflow.
_EXPONENT_CAP = 995


def exact_sum(values: np.ndarray, starts=None):
    """Correctly rounded float sum, bit for bit ``math.fsum``; keeps
    deterministic-tree identities exact (blocked pairwise summation rounds
    sums of repeated values).

    With ``starts`` (increasing indices into ``values``), the array of the
    sums of the segments ``values[starts[k]:starts[k + 1]]``, the last one
    running to the end.  The values are scaled by a power of two below 2^26
    and cut into limbs of 26 bits: the integer part is a limb's digits, the
    fraction times 2^26 holds the rest.  Digits are integers, so their
    segment sums are exact in float64.  The limbs of a segment are joined as
    one Python int and rounded once by int true division, which CPython
    rounds correctly.  Non-finite input, values from 2^995 up, segments
    longer than 2^27 and a scaling that would underflow take ``math.fsum``
    per segment, with its inf, nan and errors.
    """
    x = np.asarray(values, dtype=np.float64)
    if starts is None:
        return float(exact_sum(x, [0])[0]) if x.size else 0.0
    starts = np.asarray(starts, dtype=np.intp)
    in_range = starts.size and 0 <= starts[0] and starts[-1] < x.size
    if not in_range or (np.diff(starts) <= 0).any():
        raise ValueError("segment starts must be increasing indices into the values")
    ends = np.append(starts[1:], x.size)
    magnitude = max(x.max(), -x.min())  # nan or inf if any value is non-finite
    if magnitude < 2.0**_EXPONENT_CAP and (ends - starts).max() <= _SEGMENT_CAP:
        shift = int(np.frexp(magnitude)[1]) - _LIMB_BITS  # every |x| < 2^(shift + 26)
        scaled = np.ldexp(x, -shift)
        if shift <= 0 or (np.ldexp(scaled, shift) == x).all():
            return _limb_sums(scaled, starts, shift)
    return np.array([math.fsum(x[a:b].tolist()) for a, b in zip(starts, ends)])


def _limb_sums(scaled: np.ndarray, starts: np.ndarray, shift: int) -> np.ndarray:
    """The correctly rounded segment sums of ``scaled * 2^shift``, for
    ``|scaled| < 2^26``; ``scaled`` is overwritten."""
    limbs, digits = [], np.empty_like(scaled)
    while True:
        np.trunc(scaled, out=digits)
        limbs.append(np.add.reduceat(digits, starts))
        scaled -= digits  # the fraction, exact
        if not scaled.any():
            break
        scaled *= 2.0**_LIMB_BITS
        shift -= _LIMB_BITS
    out = []
    for row in np.array(limbs).astype(np.int64).T.tolist():
        total = 0
        for digit_sum in row:
            total = (total << _LIMB_BITS) + digit_sum
        out.append(total / (1 << -shift) if shift < 0 else float(total << shift))
    return np.array(out)


def estimate_table(tree: BrwTree, gen_sums) -> tuple[list[float], list[float]]:
    """Both estimators for j = 0, 1, ... from the correctly rounded
    per-generation sums ``gen_sums[j]`` of f over V_{j+1}: the generation
    estimate gen_sums[j] / |V_j|, and the cumulative estimate, the exact sum
    of ``gen_sums[: j + 1]`` divided by T_j and rounded once.  The exact sum
    is kept as the integer ``total`` in units of 2^-scale, the finest unit
    of the floats added so far."""
    hat, tilde, total, scale, t_j = [], [], 0, 0, 0
    for j, value in enumerate(np.asarray(gen_sums, dtype=float).tolist()):
        num, den = value.as_integer_ratio()  # den = 2^k
        k = den.bit_length() - 1
        if k > scale:
            total <<= k - scale
            scale = k
        total += num << (scale - k)
        size = tree.size(j)
        t_j += size
        hat.append(value / size)
        tilde.append(total / (t_j << scale))
    return hat, tilde


def laplace_estimates(tree: BrwTree, j: int, theta: float) -> tuple[float, float]:
    """Both estimators applied to f = e^{theta x} (one-dimensional trees)."""
    if tree.dim != 1:
        raise ValueError("Laplace transforms need one-dimensional displacements")
    return _estimates(tree, j, lambda rows: np.exp(theta * rows[:, 0]))


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
    sqrt(T_j) and the cumulative estimator is used.  Generations are laid out
    once, and each f's estimate is read from its ``estimate_table``, bit for
    bit ``lotka_nagaev`` or ``harris``."""
    _check_generation(tree, j)
    rows, starts = tree.step_segments(j + 1)
    pick = 1 if cumulative else 0
    weight = math.sqrt(tree.cumulative_size(j) if cumulative else tree.size(j))
    return np.array([
        weight * (estimate_table(tree, exact_sum(f.evaluate(rows), starts))[pick][j]
                  - ref.mass_of(f))
        for f in fs
    ])


# ---------------------------------------------------------------------------
# Tree serialization: JSON lines, one vertex per line in breadth-first order
# ---------------------------------------------------------------------------


def dump_tree(tree: BrwTree, path) -> None:
    """Write the tree, one ``writelines`` per generation; each generation's
    labels extend its parents' labels."""
    labels = [""]  # the text between a label's brackets
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(tree.generations + 1):
            if j > 0:
                parents = tree.parent[j]
                births = np.arange(parents.size) - tree.child_offsets(j - 1)[parents] + 1
                sep = ", " if j > 1 else ""
                labels = [
                    f"{labels[p]}{sep}{b}" for p, b in zip(parents.tolist(), births.tolist())
                ]
            fh.writelines(_vertex_lines(j, labels, tree.pos[j], tree.disp[j]))


def _vertex_lines(j: int, labels: list[str], pos: np.ndarray, disp: np.ndarray):
    """The records of generation j as ``json.dumps`` writes them, one line at
    a time (no generation-sized text is held): a finite float's repr is its
    JSON text.  A record holding a non-finite value is written by
    ``json.dumps`` itself."""
    finite = (np.isfinite(pos).all(axis=1) & np.isfinite(disp).all(axis=1)).tolist()
    for label, p, d, ok in zip(labels, pos.tolist(), disp.tolist(), finite):
        if ok:
            p_txt, d_txt = ", ".join(map(repr, p)), ", ".join(map(repr, d))
            yield f'{{"label": [{label}], "pos": [{p_txt}], "disp": [{d_txt}], "gen": {j}}}\n'
        else:
            record = {"label": json.loads(f"[{label}]"), "pos": p, "disp": d, "gen": j}
            yield json.dumps(record) + "\n"


_LOAD_CHUNK = 1024  # lines per json.loads call of load_tree


def _parsed_lines(chunk: list[tuple[int, str]]):
    """(line number, value) of each (line number, text) in ``chunk``: one
    ``json.loads`` of the lines as one array.  A chunk that does not parse
    into one value per line is parsed line by line, lazily, so a bad line
    raises its own error after the lines before it were yielded."""
    try:
        values = json.loads("[" + ",\n".join(text for _, text in chunk) + "]")
    except (ValueError, RecursionError):
        values = None
    if values is None or len(values) != len(chunk):
        values = (json.loads(text) for _, text in chunk)
    return zip((lineno for lineno, _ in chunk), values)


def _tree_records(fh):
    """(line number, value) of every nonblank line, parsed ``_LOAD_CHUNK``
    lines at a time; no text longer than one chunk is built."""
    chunk = []
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if line:
            chunk.append((lineno, line))
            if len(chunk) == _LOAD_CHUNK:
                yield from _parsed_lines(chunk)
                chunk = []
    yield from _parsed_lines(chunk)


def _check_finite(generation: int, disp: np.ndarray, pos: np.ndarray) -> None:
    if not (np.isfinite(disp).all() and np.isfinite(pos).all()):
        raise ValueError(f"generation {generation} has a non-finite position or displacement")


def load_tree(path) -> BrwTree:
    """Load a JSON-lines tree dump, validating the position recursion."""
    by_gen: dict[int, list[dict]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, rec in _tree_records(fh):
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
    _check_finite(0, disp_arrays[0], pos_arrays[0])
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
        _check_finite(j, disp_j, pos_j)
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
        # 1, 2, ..., counts[p] for each parent p in turn
        expected = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + 1
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
