"""Novelty detectors over payload feature rows.

Two interchangeable model kinds score how much a response deviates from
the legitimate responses seen during training: a local-outlier-factor
model (density ratio against the k nearest training points) and an
isolation forest (expected random-split path length). Both are
implemented directly rather than via an ML library because their
degenerate-case behavior (duplicate training points, zero-variance
dimensions, coincident queries) is pinned down exactly by the test
suite, and library implementations smooth those cases over with
epsilons of their own choosing.

Scores: both kinds map higher to more anomalous. LOF is ~1.0 for
in-distribution queries; the isolation-forest score lives in (0, 1] with
0.5 the all-identical baseline, and is 1.0 for a query that differs on a
feature the training set never varied.

numpy loads only where it pays: for the n^2 pairwise distances, and the
k-distances and lrds drawn from them, of an LOF model of more than
LOF_PURE_MAX distinct training vectors. The rest of LOF is plain Python
with the brute-force oracle's arithmetic at every size: the
standardization, a pass over the rows, and each query's score, a pass
over the distinct points with their counts. So are the fits of at most
LOF_PURE_MAX distinct vectors, whatever n is: they run once per distinct
vector, and a companion session's responses to two fixed acks are two
points at 10 responses or at 1,000. So are forests of any size: a tree
is random splits on per-column min/max ranges, and a subsample holds at
most MAX_SUBSAMPLE rows.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

__all__ = [
    "Label",
    "LofModel",
    "IsolationForestModel",
    "InsufficientTrainingError",
    "MODEL_KINDS",
    "model_to_dict",
    "model_from_dict",
    "train_lof",
    "train_isolation_forest",
    "check_lof_parameters",
    "check_forest_parameters",
    "classify",
    "DEFAULT_LOF_K",
    "DEFAULT_LOF_THRESHOLD",
    "DEFAULT_TREES",
    "DEFAULT_ANOMALY_CUTOFF",
]

DEFAULT_LOF_K = 5
DEFAULT_LOF_THRESHOLD = 1.5
DEFAULT_TREES = 100
DEFAULT_ANOMALY_CUTOFF = 0.6
MAX_SUBSAMPLE = 256

# Local reachability density for a neighborhood whose reachability sum is
# zero (a cluster of duplicates): 1/epsilon rather than infinity.
LRD_DUPLICATE_EPSILON = 1e-12

# Up to this many distinct training vectors, whatever their total, an LOF
# model's k-distances and lrds are computed in plain Python with the
# brute-force oracle's arithmetic, as its standardization and scores are at
# every size, so its scores equal the oracle's exactly and numpy stays
# unloaded; more come from numpy. Up to this count the plain fit costs a few
# milliseconds (6-11 ms at 64 distinct vectors against numpy's 1 ms, on a
# 2-CPU x86 host), less than importing numpy (about 60 ms and 14 MB); its
# m^2 pairwise loop over m distinct vectors takes 2.5 s at m = 1000.
LOF_PURE_MAX = 64

# Byte budget for one row block's difference tensor while train_lof fills
# a numpy distance matrix, so training memory grows as n^2, not n^2 * d.
LOF_BLOCK_BYTES = 8 << 20


class Label(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


class InsufficientTrainingError(ValueError):
    """Raised when fewer than two training vectors are supplied."""


def _float_rows(vectors: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    """The rows as float tuples, of one width. Values must be finite: a model
    file holds finite numbers only (see LofModel.from_dict), so training
    refuses any other rather than write a model that cannot be read back."""
    rows = [tuple([float(x) for x in vector]) for vector in vectors]
    if len(set(map(len, rows))) > 1:
        raise ValueError("training vectors differ in width")
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError("training values must be finite")
    return rows


# ---------------------------------------------------------------------------
# local outlier factor
# ---------------------------------------------------------------------------


@dataclass
class LofModel:
    """Trained LOF state: the standardized training set plus neighbor stats.

    mean and std cover every input dimension; kept lists the dimensions
    with nonzero training variance, and each row of points holds only
    those. k_distance and lrd are the per-training-point k-distances and
    local reachability densities, precomputed so queries are a single pass.
    Those three are lists, not n-tuples (see features.featurize), whether
    the model was trained or loaded. mean, std and kept come from the
    oracle's arithmetic at every training size, so whether rounding leaves
    a constant dimension a tiny std does not depend on n.

    groups is what score walks: (points, counts, k_distance, lrd) of the
    distinct training points. It is derived once, when the model is made,
    by grouping (point, k_distance, lrd), so duplicates whose stored
    numbers differ, as only a model file can hold, stay apart and score as
    they always did. It is not part of the model file or of equality.

    constant_features lists [dim, value] for every feature that has one
    value across the whole training set, as the forest's does. Model files
    written before the field existed load with none and label as they
    always did.
    """

    k: int
    k_eff: int
    threshold: float
    mean: tuple[float, ...]
    std: tuple[float, ...]
    kept: tuple[int, ...]
    points: list[list[float]]
    k_distance: list[float]
    lrd: list[float]
    constant_features: list[list] = field(default_factory=list)
    groups: tuple = field(init=False, repr=False, compare=False)

    kind = "lof"

    def __post_init__(self):
        first, counts, _ = _group(zip(map(tuple, self.points), self.k_distance, self.lrd))
        self.groups = (
            [self.points[i] for i in first],
            counts,
            [self.k_distance[i] for i in first],
            [self.lrd[i] for i in first],
        )

    @property
    def training_size(self) -> int:
        return len(self.points)

    @property
    def cutoff(self) -> float:
        return self.threshold

    def check_width(self, dimensions: int) -> None:
        """Raise ValueError unless the model scores dimensions-wide vectors."""
        if len(self.mean) != dimensions:
            raise ValueError(f"model expects {len(self.mean)}-dimension vectors, not {dimensions}")

    def score(self, query: Sequence[float]) -> float:
        """LOF of a query against the model, with the brute-force oracle's
        arithmetic at every size; higher is more anomalous.

        Exactly 1.0 when the query coincides with a training point (including
        the all-dimensions-dropped degenerate model, where every query does).
        """
        row = [float(x) for x in query]
        if len(row) != len(self.mean):
            raise ValueError(f"query has {len(row)} dimensions, model expects {len(self.mean)}")
        mean, std = self.mean, self.std
        query_std = [(row[d] - mean[d]) / std[d] for d in self.kept]
        points, counts, k_distance, lrd = self.groups
        distances = [_distance(query_std, point) for point in points]
        if 0.0 in distances:
            return 1.0
        _, neighbors = _neighborhood(distances, counts, self.k_eff)
        weights = [counts[j] for j in neighbors]
        lrd_q = _reach_density(distances, neighbors, weights, k_distance)
        if lrd_q == 0.0:  # every neighbor infinitely far: a distance overflowed
            return math.inf
        return _counted_fsum([lrd[j] for j in neighbors], weights) / sum(weights) / lrd_q

    def summary(self) -> str:
        return (
            f"k={self.k} (effective {self.k_eff}), threshold {self.threshold}, "
            f"{self.training_size} training points"
        )

    def to_dict(self) -> dict:
        body = {
            "kind": self.kind,
            "k": self.k,
            "k_eff": self.k_eff,
            "threshold": self.threshold,
            "standardization": {
                "mean": list(self.mean),
                "std": list(self.std),
            },
            # An all-dimensions-dropped model writes its points as empty rows.
            "points": [list(point) for point in self.points],
            "k_distance": list(self.k_distance),
            "lrd": list(self.lrd),
        }
        if self.constant_features:  # optional: other models write what they always wrote
            body["constant_features"] = self.constant_features
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "LofModel":
        """Inverse of to_dict; raises on a missing or malformed field."""
        mean = tuple(_numbers(body["standardization"]["mean"]))
        std = tuple(_numbers(body["standardization"]["std"]))
        kept = _kept(std)
        points = [_numbers(point) for point in body["points"]]
        k_distance = _numbers(body["k_distance"])
        lrd = _numbers(body["lrd"])
        k, k_eff, threshold = body["k"], body["k_eff"], body["threshold"]
        constant_features = _constant_features(body, len(mean))
        if not (
            len(std) == len(mean)
            and all(len(point) == len(kept) for point in points)
            and len(k_distance) == len(lrd) == len(points)
            and json_isinstance(k, int)
            and json_isinstance(k_eff, int)
            and 1 <= k_eff < len(points)
            and json_isinstance(threshold, (int, float))
        ):
            raise ValueError("LOF model fields have inconsistent shapes or types")
        check_lof_parameters(k, threshold)
        # As training leaves them: a NaN lrd scores every query NaN, never irregular.
        finite = all(map(math.isfinite, chain(mean, std, k_distance, lrd, *points)))
        if not (finite and min(std, default=0.0) >= 0 and min(k_distance) >= 0 and min(lrd) > 0):
            raise ValueError("LOF numbers must be finite, std and k_distance >= 0 and lrd > 0")
        return cls(k, k_eff, threshold, mean, std, kept, points, k_distance, lrd, constant_features)


def json_isinstance(value, kind) -> bool:
    """isinstance for JSON: bool is an int to Python, but a JSON boolean is never a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _numbers(value) -> list[float]:
    """A JSON array of numbers as floats; TypeError for anything else."""
    if not (isinstance(value, list) and all(json_isinstance(x, (int, float)) for x in value)):
        raise TypeError("LOF model arrays must hold numbers")
    return [float(x) for x in value]  # OverflowError for an int past the float range


def _constant_features(body: dict, width: float = math.inf) -> list[list]:
    """A model body's optional [dimension, value] pairs, checked: dimensions ascend, below width."""
    pairs = body.get("constant_features", [])
    if not isinstance(pairs, list):
        raise ValueError("constant features must be a list")
    for pair in pairs:
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and json_isinstance(pair[0], int)
            and pair[0] >= 0
            and json_isinstance(pair[1], (int, float))
            and math.isfinite(pair[1])
        ):
            raise ValueError("constant feature is not a [dimension, value] pair")
    dims = [dim for dim, _ in pairs] + [width]
    if any(a >= b for a, b in zip(dims, dims[1:])):
        raise ValueError("constant feature dimensions must ascend and lie below the model's width")
    return pairs


def _constant_columns(columns: Sequence[Sequence[float]]) -> list[list]:
    """[dim, value] for each column with one value throughout, taken from the column itself."""
    return [[d, column[0]] for d, column in enumerate(columns) if column.count(column[0]) == len(column)]


def _kept(std: Sequence[float]) -> tuple[int, ...]:
    """The dimensions with nonzero training variance."""
    return tuple([d for d, s in enumerate(std) if s > 0.0])


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance with the brute-force oracle's rounding: each
    difference squared by pow, as x ** 2 does, and the squares summed with
    fsum. (x - y) * (x - y) can round differently."""
    try:
        return math.sqrt(math.fsum(map(pow, map(operator.sub, a, b), repeat(2.0))))
    except OverflowError:  # numbers no training writes, from a model file
        return math.inf


def _group(keys) -> tuple[list[int], list[int], list[int]]:
    """One dict pass over hashable keys: where each distinct key first
    occurs, how often each occurs, and each key's distinct index."""
    slots: dict = {}
    first: list[int] = []
    counts: list[int] = []
    index = []
    for position, key in enumerate(keys):
        slot = slots.setdefault(key, len(first))
        if slot == len(first):
            first.append(position)
            counts.append(1)
        else:
            counts[slot] += 1
        index.append(slot)
    return first, counts, index


def _neighborhood(distances: list[float], counts: list[int], k: int) -> tuple[float, list[int]]:
    """The k-distance over distances, distances[j] counted counts[j] times,
    and the indices within it, ties included."""
    for j in sorted(range(len(distances)), key=distances.__getitem__):
        k -= counts[j]
        if k <= 0:
            break
    k_distance = distances[j]
    return k_distance, [j for j, d in enumerate(distances) if d <= k_distance]


def _counted_fsum(terms: list[float], weights: list[int]) -> float:
    """fsum over terms[t] repeated weights[t] times. fsum is correctly
    rounded, so this sums as over the expanded training set, and grouping
    moves no bit."""
    return math.fsum(chain.from_iterable(map(repeat, terms, weights)))


def _reach_density(
    distances: list[float], neighbors: list[int], weights: list[int], k_distance: list[float]
) -> float:
    """|N| over the sum of N's reach distances, neighbors[t] counted weights[t] times."""
    total = _counted_fsum([max(k_distance[j], distances[j]) for j in neighbors], weights)
    if total == 0.0:
        return 1.0 / LRD_DUPLICATE_EPSILON
    return sum(weights) / total


# A function so each block's difference tensor is freed before the next (inlined: 51.9 MB at n=2000).
def _pairwise_distances(a, b):
    import numpy as np

    diff = a[:, None, :] - b[None, :, :]
    diff *= diff
    return np.sqrt(diff.sum(axis=2))


def check_lof_parameters(k: int, threshold: float) -> None:
    """Raise ValueError for LOF parameters no training set could use."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1.0 < threshold < math.inf:  # also rejects NaN
        raise ValueError("threshold must be finite and exceed 1, the LOF inlier level")


def train_lof(
    training: Sequence[Sequence[float]],
    k: int = DEFAULT_LOF_K,
    threshold: float = DEFAULT_LOF_THRESHOLD,
) -> LofModel:
    """Fit a LOF novelty model on legitimate-response feature rows.

    k is clamped to n-1 (k_eff). Training vectors are z-score standardized
    per dimension; zero-variance dimensions are dropped, and features with
    one training value are recorded (see classify). Duplicate points are
    fine: a neighborhood of exact duplicates gets lrd 1/1e-12 instead
    of a division by zero. The standardization is plain Python with the
    oracle's arithmetic at every size. So are the k-distances and lrds up
    to LOF_PURE_MAX distinct vectors, whatever n is: equal rows are grouped
    in one dict pass, each distinct point is fitted once with its count,
    and the results are expanded back to one per row. Above it numpy
    computes those two over all n rows, from an n x n distance matrix it
    fills a block of rows at a time, each block's difference tensor within
    LOF_BLOCK_BYTES. The model holds plain lists either way.
    """
    n = len(training)
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_lof_parameters(k, threshold)
    k_eff = min(k, n - 1)
    rows = _float_rows(training)
    # The oracle's arithmetic. Columns as lists: zip(*rows) would park its
    # tuples on CPython's free lists (see features.featurize).
    columns = [[row[d] for row in rows] for d in range(len(rows[0]))]
    mean = tuple([math.fsum(column) / n for column in columns])
    std = tuple([
        math.sqrt(math.fsum([(x - m) ** 2 for x in column]) / n)
        for column, m in zip(columns, mean)
    ])
    kept = _kept(std)
    points = [[(row[d] - mean[d]) / std[d] for d in kept] for row in rows]
    # Equal rows standardize to equal points, so the rows, tuples already,
    # are what is grouped.
    first, counts, index = _group(rows)
    if len(first) > LOF_PURE_MAX:
        k_distance, lrd = _neighbor_statistics_numpy(points, k_eff)
    else:
        fitted = _neighbor_statistics([points[i] for i in first], counts, k_eff)
        k_distance, lrd = ([values[i] for i in index] for values in fitted)
    constant = _constant_columns(columns)
    return LofModel(k, k_eff, threshold, mean, std, kept, points, k_distance, lrd, constant)


def _neighbor_statistics(points: list[list[float]], counts: list[int], k_eff: int):
    """Each distinct point's k-distance and lrd, with the oracle's arithmetic
    on the expanded set: points[i] stands for counts[i] equal points, so
    its counts[i] - 1 duplicates are its neighbors at distance 0."""
    m = len(points)
    distances = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            distances[i][j] = distances[j][i] = _distance(points[i], points[j])
    others = list(counts)
    k_distance, neighbors, weights = [], [], []
    for i, row in enumerate(distances):
        others[i] -= 1  # row i's own entry: its duplicates, not itself
        k, within = _neighborhood(row, others, k_eff)
        k_distance.append(k)
        neighbors.append(within)
        weights.append([others[j] for j in within])
        others[i] += 1
    lrd = [
        _reach_density(row, within, weight, k_distance)
        for row, within, weight in zip(distances, neighbors, weights)
    ]
    return k_distance, lrd


def _neighbor_statistics_numpy(points: list[list[float]], k_eff: int):
    """_neighbor_statistics from an n x n numpy distance matrix, filled a
    block of rows at a time; its sums round, and so decide ties, as numpy's do."""
    import numpy as np

    n = len(points)
    matrix = np.asfortranarray(points, dtype=np.float64)  # the block fill is faster column-major
    distances = np.empty((n, n))
    k_distance = np.empty(n)
    block = max(1, LOF_BLOCK_BYTES // (8 * n * max(1, matrix.shape[1])))
    for start in range(0, n, block):
        rows = distances[start : start + block]
        rows[...] = _pairwise_distances(matrix[start : start + block], matrix)
        np.fill_diagonal(rows[:, start:], np.inf)  # a point is not its own neighbor
        k_distance[start : start + block] = np.partition(rows, k_eff - 1, axis=1)[:, k_eff - 1]

    lrd = []
    for row, own in zip(distances, k_distance):
        neighbors = np.flatnonzero(row <= own)
        total = float(np.maximum(k_distance[neighbors], row[neighbors]).sum())
        lrd.append(1.0 / LRD_DUPLICATE_EPSILON if total == 0.0 else len(neighbors) / total)
    return k_distance.tolist(), lrd


# ---------------------------------------------------------------------------
# isolation forest
# ---------------------------------------------------------------------------

_EULER_GAMMA = 0.5772156649015329  # the Euler-Mascheroni constant


def _average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) in a binary tree."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1) + _EULER_GAMMA
    return 2.0 * harmonic - 2.0 * (n - 1) / n


@dataclass
class IsolationForestModel:
    """Trained isolation forest: the trees themselves plus scoring params.

    Trees are nested dicts, {"f": dim, "t": threshold, "l": ..., "r": ...}
    for splits and {"n": size} for leaves, so they serialize to the model
    file untouched and scoring after a load is bit-identical.

    constant_features lists [dim, value] for every feature that has one
    value across the whole training set. No split can read such a feature,
    so a query that differs on one is isolated at the root instead. Model
    files written before the field existed load with none and score as
    they always did.
    """

    trees: list[dict]
    subsample: int
    seed: int
    anomaly_cutoff: float
    constant_features: list[list] = field(default_factory=list)

    kind = "isolation_forest"

    @property
    def cutoff(self) -> float:
        return self.anomaly_cutoff

    def check_width(self, dimensions: int) -> None:
        """Raise ValueError unless every feature the model reads is below dimensions."""
        widest = max([_check_tree(tree) for tree in self.trees] + [dim for dim, _ in self.constant_features])
        if widest >= dimensions:
            raise ValueError(
                f"model reads feature {widest}, vectors have {dimensions} dimensions"
            )

    def score(self, query: Sequence[float]) -> float:
        """Anomaly score 2^(-E[path length]/c(subsample)), in (0, 1]; 1.0
        when the query differs on a constant training feature."""
        values = [float(x) for x in query]
        if any(values[dim] != value for dim, value in self.constant_features):
            return 1.0
        mean_path = math.fsum(_path_length(tree, values) for tree in self.trees) / len(self.trees)
        return float(2.0 ** (-mean_path / _average_path_length(self.subsample)))

    def summary(self) -> str:
        return (
            f"{len(self.trees)} trees, subsample {self.subsample}, "
            f"cutoff {self.anomaly_cutoff}, seed {self.seed}"
        )

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_dict(cls, body: dict) -> "IsolationForestModel":
        """Inverse of to_dict; raises on a missing or malformed field."""
        trees, subsample = body["trees"], body["subsample"]
        seed, anomaly_cutoff = body["seed"], body["anomaly_cutoff"]
        if not (
            isinstance(trees, list)
            and json_isinstance(subsample, int)
            and json_isinstance(seed, int)
            and json_isinstance(anomaly_cutoff, (int, float))
        ):
            raise ValueError("isolation forest needs a tree list, subsample, seed and cutoff")
        constant_features = _constant_features(body)
        check_forest_parameters(len(trees), subsample, anomaly_cutoff, seed)
        for tree in trees:
            _check_tree(tree)
        return cls(trees, subsample, seed, anomaly_cutoff, constant_features)


def _check_tree(node) -> int:
    """Reject a tree that _path_length could not walk; return the largest
    feature index a split in it reads (-1 for a lone leaf)."""
    if isinstance(node, dict) and node.keys() == {"n"} and json_isinstance(node["n"], int):
        return -1
    if not (
        isinstance(node, dict)
        and node.keys() == {"f", "t", "l", "r"}
        and json_isinstance(node["f"], int)
        and node["f"] >= 0
        and json_isinstance(node["t"], (int, float))
        and math.isfinite(node["t"])
    ):
        raise ValueError("isolation tree node is neither a leaf nor a split")
    return max(node["f"], _check_tree(node["l"]), _check_tree(node["r"]))


def _grow_tree(rows: list, dims: list[int], rng: random.Random, depth: int, limit: int) -> dict:
    """One isolation tree over rows, split only on dims, in ascending order.

    A dimension constant at a node is constant below it, so each node hands
    its children the dimensions it found splittable.
    """
    n = len(rows)
    if n <= 1 or depth >= limit:
        return {"n": n}
    columns = list(zip(*rows))
    ranges = {d: (min(columns[d]), max(columns[d])) for d in dims}
    splittable = [d for d in dims if ranges[d][0] < ranges[d][1]]
    if not splittable:
        return {"n": n}  # all rows identical; cannot isolate further
    dim = rng.choice(splittable)
    threshold = rng.uniform(*ranges[dim])
    left = [row for row in rows if row[dim] < threshold]
    if not left or len(left) == n:
        return {"n": n}  # degenerate draw at the range edge
    right = [row for row in rows if not row[dim] < threshold]
    return {
        "f": dim,
        "t": threshold,
        "l": _grow_tree(left, splittable, rng, depth + 1, limit),
        "r": _grow_tree(right, splittable, rng, depth + 1, limit),
    }


def check_forest_parameters(
    trees: int, subsample: int | None, anomaly_cutoff: float, seed: int
) -> None:
    """Raise ValueError for forest parameters no training set could use.

    The trainer also bounds subsample by the training-set size.
    """
    if trees < 1:
        raise ValueError("trees must be >= 1")
    if not 0.0 < anomaly_cutoff < 1.0:
        raise ValueError("anomaly_cutoff must lie in (0, 1)")
    if subsample is not None and subsample < 2:
        raise ValueError(f"subsample must be >= 2, got {subsample}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def train_isolation_forest(
    training: Sequence[Sequence[float]],
    trees: int = DEFAULT_TREES,
    subsample: int | None = None,
    seed: int = 0,
    anomaly_cutoff: float = DEFAULT_ANOMALY_CUTOFF,
) -> IsolationForestModel:
    """Fit an isolation forest; deterministic for a fixed seed.

    Draws come from random.Random(seed), so a seed grows the same trees;
    they were measured equal on Python 3.10 to 3.13. Features with one
    value across the whole training set are recorded with it (see
    IsolationForestModel). Training values must be finite.

    subsample defaults to min(256, n) and must not exceed n.
    """
    n = len(training)
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_forest_parameters(trees, subsample, anomaly_cutoff, seed)
    if subsample is None:
        subsample = min(MAX_SUBSAMPLE, n)
    if subsample > n:
        raise ValueError(f"subsample must be in [2, {n}], got {subsample}")

    rows = _float_rows(training)
    constant = _constant_columns(list(zip(*rows)))
    fixed = {d for d, _ in constant}
    varying = [d for d in range(len(rows[0])) if d not in fixed]
    rng = random.Random(seed)
    limit = math.ceil(math.log2(subsample))
    grown = []
    for _ in range(trees):
        sample = [rows[i] for i in rng.sample(range(n), subsample)]
        grown.append(_grow_tree(sample, varying, rng, 0, limit))
    return IsolationForestModel(grown, subsample, seed, anomaly_cutoff, constant)


def _path_length(tree: dict, row: Sequence[float]) -> float:
    depth = 0
    while "f" in tree:
        tree = tree["l"] if row[tree["f"]] < tree["t"] else tree["r"]
        depth += 1
    return depth + _average_path_length(tree["n"])


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------

NoveltyModel = LofModel | IsolationForestModel

_KINDS = {cls.kind: cls for cls in (LofModel, IsolationForestModel)}
MODEL_KINDS = tuple(_KINDS)


def model_to_dict(model: NoveltyModel | None) -> dict:
    """The model-file body; kind "none" when there is no model."""
    return model.to_dict() if model is not None else {"kind": "none"}


def model_from_dict(body: dict) -> NoveltyModel | None:
    """Inverse of model_to_dict; raises on an unknown kind or a bad field."""
    kind = body["kind"]
    if kind == "none":
        return None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unrecognized model kind {kind!r}")
    return _KINDS[kind].from_dict(body)


def classify(model: NoveltyModel, query) -> Label:
    """Regular/Irregular split of a query response against the model.

    A query that differs on a feature the model records as constant in
    training is irregular whatever its score. This is the one place the
    rule lives for both kinds: LOF drops such a feature and cannot see it.
    """
    if model.score(query) > model.cutoff:
        return Label.IRREGULAR
    if any(query[dim] != value for dim, value in model.constant_features):
        return Label.IRREGULAR
    return Label.REGULAR
