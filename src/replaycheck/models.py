"""Novelty detectors over payload feature vectors.

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

numpy loads only where it pays: when an LOF model of more than
LOF_PURE_MAX points is trained or scored. Smaller LOF models, the
training sets a companion session yields, train and score in plain
Python, and so do forests of any size: a tree is random splits on
per-column min/max ranges, and a subsample holds at most MAX_SUBSAMPLE
rows.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

from .features import FeatureVector

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

# LOF models of at most this many training points train and score in plain
# Python with the brute-force oracle's arithmetic, so their scores equal the
# oracle's exactly and numpy stays unloaded; larger ones use numpy. Up to
# this size the plain fit costs a few milliseconds (6-11 ms at n = 64
# against numpy's 1 ms, on a 2-CPU x86 host), less than importing numpy
# (about 60 ms and 14 MB); its n^2 pairwise loop takes 2.5 s at n = 1000.
LOF_PURE_MAX = 64

# Byte budget for one row block's difference tensor while train_lof fills
# a numpy distance matrix, so training memory grows as n^2, not n^2 * d.
LOF_BLOCK_BYTES = 8 << 20

Vectors = Sequence[FeatureVector] | Sequence[Sequence[float]]


class Label(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


class InsufficientTrainingError(ValueError):
    """Raised when fewer than two training vectors are supplied."""


def _row(vector: FeatureVector | Sequence[float]) -> tuple[float, ...]:
    if isinstance(vector, FeatureVector):
        return vector.as_row()
    return tuple([float(x) for x in vector])


def _as_rows(vectors: Vectors) -> list:
    """Each training vector as a row: a FeatureVector as its as_row(), any
    other as given. Each fit converts the rows itself, the plain-Python
    ones to float tuples and the numpy one to one array, so a large numpy
    training set never becomes a Python float per number."""
    return [v.as_row() if isinstance(v, FeatureVector) else v for v in vectors]


# A model file holds finite numbers only (see from_dict), so training refuses
# any other rather than write a model that cannot be read back.
_NOT_FINITE = "training values must be finite"


def _float_rows(vectors: list) -> list[tuple[float, ...]]:
    """The rows as float tuples, for the fits that run in plain Python."""
    rows = [tuple([float(x) for x in vector]) for vector in vectors]
    if len(set(map(len, rows))) > 1:
        raise ValueError("training vectors differ in width")
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise ValueError(_NOT_FINITE)
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
    Those three are lists, not n-tuples (see features.featurize), except
    that a model train_lof fits in numpy keeps its fit's arrays: they are
    never turned into Python floats and back, and become lists only in
    to_dict.
    """

    k: int
    k_eff: int
    threshold: float
    mean: tuple[float, ...]
    std: tuple[float, ...]
    kept: tuple[int, ...]
    points: Sequence[Sequence[float]]
    k_distance: Sequence[float]
    lrd: Sequence[float]

    kind = "lof"

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

    def score(self, query: FeatureVector | Sequence[float]) -> float:
        """LOF of a query against the trained model; higher is more anomalous.

        Exactly 1.0 when the query coincides with a training point (including
        the all-dimensions-dropped degenerate model, where every query does).
        """
        row = _row(query)
        if len(row) != len(self.mean):
            raise ValueError(f"query has {len(row)} dimensions, model expects {len(self.mean)}")
        query_std = [(row[d] - self.mean[d]) / self.std[d] for d in self.kept]
        if self.training_size > LOF_PURE_MAX:
            return self._dense_score(query_std)

        distances = [_distance(query_std, point) for point in self.points]
        if 0.0 in distances:
            return 1.0
        k_distance_q = sorted(distances)[self.k_eff - 1]
        neighbors = [j for j, d in enumerate(distances) if d <= k_distance_q]
        lrd_q = _reach_density(distances, neighbors, self.k_distance)
        if lrd_q == 0.0:  # every neighbor infinitely far: a distance overflowed
            return math.inf
        return math.fsum(self.lrd[j] for j in neighbors) / len(neighbors) / lrd_q

    @cached_property
    def _dense(self):
        """points, k_distance and lrd as numpy arrays, built once per model.

        points are column-major, as training computes them: numpy's sums
        follow the layout, so a loaded model scores exactly as it did
        when it was trained.
        """
        import numpy as np

        return np.asfortranarray(self.points), np.asarray(self.k_distance), np.asarray(self.lrd)

    def _dense_score(self, query_std: list[float]) -> float:
        import numpy as np

        points, k_distance, lrd = self._dense
        distances = _pairwise_distances(np.array(query_std)[None, :], points)[0]
        if (distances == 0.0).any():
            return 1.0

        k_distance_q = np.partition(distances, self.k_eff - 1)[self.k_eff - 1]
        neighbors = np.flatnonzero(distances <= k_distance_q)
        lrd_q = _lrd_from_neighbors(distances, neighbors, k_distance)
        return float(lrd[neighbors].mean() / lrd_q)

    def summary(self) -> str:
        return (
            f"k={self.k} (effective {self.k_eff}), threshold {self.threshold}, "
            f"{self.training_size} training points"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "k_eff": self.k_eff,
            "threshold": self.threshold,
            "standardization": {
                "mean": list(self.mean),
                "std": list(self.std),
            },
            # An all-dimensions-dropped model writes its points as empty rows;
            # float() turns a numpy fit's scalars into plain floats.
            "points": [list(map(float, point)) for point in self.points],
            "k_distance": list(map(float, self.k_distance)),
            "lrd": list(map(float, self.lrd)),
        }

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
        if not (
            len(std) == len(mean)
            and all(len(point) == len(kept) for point in points)
            and len(k_distance) == len(lrd) == len(points)
            and isinstance(k, int)
            and isinstance(k_eff, int)
            and 1 <= k_eff < len(points)
            and isinstance(threshold, (int, float))
        ):
            raise ValueError("LOF model fields have inconsistent shapes or types")
        check_lof_parameters(k, threshold)
        # As training leaves them: a NaN lrd scores every query NaN, never irregular.
        finite = all(map(math.isfinite, chain(mean, std, k_distance, lrd, *points)))
        if not (finite and min(std, default=0.0) >= 0 and min(k_distance) >= 0 and min(lrd) > 0):
            raise ValueError("LOF numbers must be finite, std and k_distance >= 0 and lrd > 0")
        return cls(k, k_eff, threshold, mean, std, kept, points, k_distance, lrd)


def _numbers(value) -> list[float]:
    """A JSON array of numbers as floats; TypeError for anything else."""
    if not (isinstance(value, list) and all(isinstance(x, (int, float)) for x in value)):
        raise TypeError("LOF model arrays must hold numbers")
    return [float(x) for x in value]  # OverflowError for an int past the float range


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


def _reach_density(
    distances: Sequence[float], neighbors: Sequence[int], k_distance: Sequence[float]
) -> float:
    total = math.fsum(max(k_distance[j], distances[j]) for j in neighbors)
    if total == 0.0:
        return 1.0 / LRD_DUPLICATE_EPSILON
    return len(neighbors) / total


def _pairwise_distances(a, b):
    import numpy as np

    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    diff = a[:, None, :] - b[None, :, :]
    diff *= diff
    return np.sqrt(diff.sum(axis=2))


def _lrd_from_neighbors(distances, neighbors, k_distance) -> float:
    import numpy as np

    reach = np.maximum(k_distance[neighbors], distances[neighbors])
    total = float(reach.sum())
    if total == 0.0:
        return 1.0 / LRD_DUPLICATE_EPSILON
    return len(neighbors) / total


def check_lof_parameters(k: int, threshold: float) -> None:
    """Raise ValueError for LOF parameters no training set could use."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1.0 < threshold < math.inf:  # also rejects NaN
        raise ValueError("threshold must be finite and exceed 1, the LOF inlier level")


def train_lof(
    training: Vectors,
    k: int = DEFAULT_LOF_K,
    threshold: float = DEFAULT_LOF_THRESHOLD,
) -> LofModel:
    """Fit a LOF novelty model on legitimate-response feature vectors.

    k is clamped to n-1 (k_eff). Training vectors are z-score standardized
    per dimension; zero-variance dimensions are dropped. Duplicate points
    are fine: a neighborhood of exact duplicates gets lrd 1/1e-12 instead
    of a division by zero. Up to LOF_PURE_MAX vectors the fit is plain
    Python; above it numpy fills the n x n distance matrix a block of rows
    at a time, each block's difference tensor within LOF_BLOCK_BYTES.
    """
    rows = _as_rows(training)
    n = len(rows)
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_lof_parameters(k, threshold)
    k_eff = min(k, n - 1)
    fit = _fit_lof_pure if n <= LOF_PURE_MAX else _fit_lof_dense
    mean, std, points, k_distance, lrd = fit(rows, k_eff)
    return LofModel(k, k_eff, threshold, tuple(mean), tuple(std), _kept(std), points, k_distance, lrd)


def _fit_lof_pure(vectors: list, k_eff: int):
    """mean, std, points, k_distance and lrd, with the oracle's arithmetic."""
    rows = _float_rows(vectors)
    n = len(rows)
    columns = [[row[d] for row in rows] for d in range(len(rows[0]))]
    mean = [math.fsum(column) / n for column in columns]
    std = [
        math.sqrt(math.fsum((x - m) ** 2 for x in column) / n)
        for column, m in zip(columns, mean)
    ]
    kept = _kept(std)
    points = [[(row[d] - mean[d]) / std[d] for d in kept] for row in rows]

    distances = [[math.inf] * n for _ in range(n)]  # a point is not its own neighbor
    for i in range(n):
        for j in range(i):
            distances[i][j] = distances[j][i] = _distance(points[i], points[j])
    k_distance = [sorted(row)[k_eff - 1] for row in distances]
    lrd = [
        _reach_density(row, [j for j, d in enumerate(row) if d <= k_distance[i]], k_distance)
        for i, row in enumerate(distances)
    ]
    return mean, std, points, k_distance, lrd


def _fit_lof_dense(vectors: list, k_eff: int):
    """mean and std as lists; points, k_distance and lrd as the fit's arrays."""
    import numpy as np

    matrix = np.array(vectors, dtype=np.float64)  # ValueError for rows of unequal width
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D training matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(_NOT_FINITE)
    n = matrix.shape[0]
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    kept = std > 0.0
    points = (matrix[:, kept] - mean[kept]) / std[kept]

    distances = np.empty((n, n))
    k_distance = np.empty(n)
    block = max(1, LOF_BLOCK_BYTES // (8 * n * max(1, points.shape[1])))
    for start in range(0, n, block):
        rows = distances[start : start + block]
        rows[...] = _pairwise_distances(points[start : start + block], points)
        np.fill_diagonal(rows[:, start:], np.inf)  # a point is not its own neighbor
        k_distance[start : start + block] = np.partition(rows, k_eff - 1, axis=1)[:, k_eff - 1]

    lrd = np.empty(n)
    neighbor_sets = [np.flatnonzero(distances[i] <= k_distance[i]) for i in range(n)]
    for i, neighbors in enumerate(neighbor_sets):
        lrd[i] = _lrd_from_neighbors(distances[i], neighbors, k_distance)
    return mean.tolist(), std.tolist(), points, k_distance, lrd


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
        widest = max(_widest_split(tree) for tree in self.trees)
        widest = max([widest] + [dim for dim, _ in self.constant_features])
        if widest >= dimensions:
            raise ValueError(
                f"model reads feature {widest}, vectors have {dimensions} dimensions"
            )

    def score(self, query: FeatureVector | Sequence[float]) -> float:
        """Anomaly score 2^(-E[path length]/c(subsample)), in (0, 1]; 1.0
        when the query differs on a constant training feature."""
        values = _row(query)
        if any(values[dim] != value for dim, value in self.constant_features):
            return 1.0
        mean_path = math.fsum(_path_length(tree, values, 0) for tree in self.trees) / len(self.trees)
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
        constant_features = body.get("constant_features", [])
        if not (
            isinstance(trees, list)
            and isinstance(subsample, int)
            and isinstance(seed, int)
            and isinstance(anomaly_cutoff, (int, float))
            and isinstance(constant_features, list)
        ):
            raise ValueError("isolation forest needs a tree list, subsample, seed and cutoff")
        check_forest_parameters(len(trees), subsample, anomaly_cutoff, seed)
        for tree in trees:
            _check_tree(tree)
        for pair in constant_features:
            if not (
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], int)
                and pair[0] >= 0
                and isinstance(pair[1], (int, float))
                and math.isfinite(pair[1])
            ):
                raise ValueError("constant feature is not a [dimension, value] pair")
        return cls(trees, subsample, seed, anomaly_cutoff, constant_features)


def _check_tree(node) -> None:
    """Reject a tree that _path_length could not walk."""
    if isinstance(node, dict) and node.keys() == {"n"} and isinstance(node["n"], int):
        return
    if not (
        isinstance(node, dict)
        and node.keys() == {"f", "t", "l", "r"}
        and isinstance(node["f"], int)
        and node["f"] >= 0
        and isinstance(node["t"], (int, float))
        and math.isfinite(node["t"])
    ):
        raise ValueError("isolation tree node is neither a leaf nor a split")
    _check_tree(node["l"])
    _check_tree(node["r"])


def _widest_split(node: dict) -> int:
    """Largest feature index a split in the tree reads; -1 for a lone leaf."""
    if "f" not in node:
        return -1
    return max(node["f"], _widest_split(node["l"]), _widest_split(node["r"]))


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
    training: Vectors,
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
    vectors = _as_rows(training)
    n = len(vectors)
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_forest_parameters(trees, subsample, anomaly_cutoff, seed)
    if subsample is None:
        subsample = min(MAX_SUBSAMPLE, n)
    if subsample > n:
        raise ValueError(f"subsample must be in [2, {n}], got {subsample}")

    rows = _float_rows(vectors)
    ranges = [(min(column), max(column)) for column in zip(*rows)]
    constant = [[d, low] for d, (low, high) in enumerate(ranges) if low == high]
    varying = [d for d, (low, high) in enumerate(ranges) if low < high]
    rng = random.Random(seed)
    limit = math.ceil(math.log2(subsample))
    grown = []
    for _ in range(trees):
        sample = [rows[i] for i in rng.sample(range(n), subsample)]
        grown.append(_grow_tree(sample, varying, rng, 0, limit))
    return IsolationForestModel(grown, subsample, seed, anomaly_cutoff, constant)


def _path_length(tree: dict, row: Sequence[float], depth: int) -> float:
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
    """Regular/Irregular split of a query response against the model."""
    return Label.IRREGULAR if model.score(query) > model.cutoff else Label.REGULAR
