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
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .features import DIMENSIONS, FeatureVector

__all__ = [
    "Label",
    "LofModel",
    "IsolationForestModel",
    "InsufficientTrainingError",
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

# Byte budget for one row block's difference tensor while train_lof fills
# its distance matrix, so training memory grows as n^2, not n^2 * d.
LOF_BLOCK_BYTES = 8 << 20


class Label(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


class InsufficientTrainingError(ValueError):
    """Raised when fewer than two training vectors are supplied."""


def _as_matrix(vectors: Sequence[FeatureVector] | Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    if isinstance(vectors, np.ndarray):
        matrix = np.asarray(vectors, dtype=np.float64)
    else:
        rows = [
            v.as_array() if isinstance(v, FeatureVector) else np.asarray(v, dtype=np.float64)
            for v in vectors
        ]
        matrix = np.stack(rows) if rows else np.empty((0, DIMENSIONS))
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D training matrix, got shape {matrix.shape}")
    return matrix


def _as_row(query: FeatureVector | Sequence[float] | np.ndarray, dims: int) -> np.ndarray:
    row = query.as_array() if isinstance(query, FeatureVector) else np.asarray(query, dtype=np.float64)
    if row.shape != (dims,):
        raise ValueError(f"query has shape {row.shape}, model expects ({dims},)")
    return row


# ---------------------------------------------------------------------------
# local outlier factor
# ---------------------------------------------------------------------------


@dataclass
class LofModel:
    """Trained LOF state: the standardized training set plus neighbor stats.

    kept is the boolean mask of dimensions with nonzero training variance;
    points holds only those dimensions. k_distance and lrd are the
    per-training-point k-distances and local reachability densities,
    precomputed so queries are a single pass.
    """

    k: int
    k_eff: int
    threshold: float
    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray
    points: np.ndarray
    k_distance: np.ndarray
    lrd: np.ndarray

    kind = "lof"

    @property
    def training_size(self) -> int:
        return self.points.shape[0]

    @property
    def cutoff(self) -> float:
        return self.threshold

    def check_width(self, dimensions: int) -> None:
        """Raise ValueError unless the model scores dimensions-wide vectors."""
        if self.mean.shape[0] != dimensions:
            raise ValueError(
                f"model expects {self.mean.shape[0]}-dimension vectors, not {dimensions}"
            )

    def score(self, query: FeatureVector | Sequence[float] | np.ndarray) -> float:
        """LOF of a query against the trained model; higher is more anomalous.

        Exactly 1.0 when the query coincides with a training point (including
        the all-dimensions-dropped degenerate model, where every query does).
        """
        row = _as_row(query, self.mean.shape[0])
        query_std = (row[self.kept] - self.mean[self.kept]) / self.std[self.kept]
        distances = _pairwise_distances(query_std[None, :], self.points)[0]
        if (distances == 0.0).any():
            return 1.0

        k_distance_q = np.partition(distances, self.k_eff - 1)[self.k_eff - 1]
        neighbors = np.flatnonzero(distances <= k_distance_q)
        lrd_q = _lrd_from_neighbors(distances, neighbors, self.k_distance)
        return float(self.lrd[neighbors].mean() / lrd_q)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "k_eff": self.k_eff,
            "threshold": self.threshold,
            "standardization": {
                "mean": self.mean.tolist(),
                "std": self.std.tolist(),
            },
            "points": self.points.tolist(),
            "k_distance": self.k_distance.tolist(),
            "lrd": self.lrd.tolist(),
        }

    @classmethod
    def from_dict(cls, body: dict) -> "LofModel":
        """Inverse of to_dict; raises on a missing or malformed field."""
        mean = np.asarray(body["standardization"]["mean"], dtype=np.float64)
        std = np.asarray(body["standardization"]["std"], dtype=np.float64)
        kept = std > 0.0
        # An all-dimensions-dropped model serializes its points as rows of
        # empty lists; asarray still yields the right (n, 0) shape.
        points = np.asarray(body["points"], dtype=np.float64)
        k_distance = np.asarray(body["k_distance"], dtype=np.float64)
        lrd = np.asarray(body["lrd"], dtype=np.float64)
        k, k_eff, threshold = body["k"], body["k_eff"], body["threshold"]
        if not (
            mean.ndim == 1
            and std.shape == mean.shape
            and points.ndim == 2
            and points.shape[1] == kept.sum()
            and k_distance.shape == lrd.shape == points.shape[:1]
            and isinstance(k, int)
            and isinstance(k_eff, int)
            and 1 <= k_eff < len(points)
            and isinstance(threshold, (int, float))
        ):
            raise ValueError("LOF model fields have inconsistent shapes or types")
        check_lof_parameters(k, threshold)
        return cls(
            k=k,
            k_eff=k_eff,
            threshold=threshold,
            mean=mean,
            std=std,
            kept=kept,
            points=points,
            k_distance=k_distance,
            lrd=lrd,
        )


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    diff = a[:, None, :] - b[None, :, :]
    diff *= diff
    return np.sqrt(diff.sum(axis=2))


def _lrd_from_neighbors(
    distances: np.ndarray, neighbors: np.ndarray, k_distance: np.ndarray
) -> float:
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
    training: Sequence[FeatureVector] | Sequence[Sequence[float]] | np.ndarray,
    k: int = DEFAULT_LOF_K,
    threshold: float = DEFAULT_LOF_THRESHOLD,
) -> LofModel:
    """Fit a LOF novelty model on legitimate-response feature vectors.

    k is clamped to n-1 (k_eff). Training vectors are z-score standardized
    per dimension; zero-variance dimensions are dropped. Duplicate points
    are fine: a neighborhood of exact duplicates gets lrd 1/1e-12 instead
    of a division by zero. The n x n distance matrix is filled a block of
    rows at a time, each block's difference tensor within LOF_BLOCK_BYTES.
    """
    matrix = _as_matrix(training)
    n = matrix.shape[0]
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_lof_parameters(k, threshold)
    k_eff = min(k, n - 1)

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

    return LofModel(
        k=k,
        k_eff=k_eff,
        threshold=threshold,
        mean=mean,
        std=std,
        kept=kept,
        points=points,
        k_distance=k_distance,
        lrd=lrd,
    )


# ---------------------------------------------------------------------------
# isolation forest
# ---------------------------------------------------------------------------

_EULER_GAMMA = float(np.euler_gamma)


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

    def score(self, query: FeatureVector | Sequence[float] | np.ndarray) -> float:
        """Anomaly score 2^(-E[path length]/c(subsample)), in (0, 1]; 1.0
        when the query differs on a constant training feature."""
        row = query.as_array() if isinstance(query, FeatureVector) else np.asarray(query, dtype=np.float64)
        values = row.tolist()  # Python floats compare faster than numpy scalars
        if any(values[dim] != value for dim, value in self.constant_features):
            return 1.0
        mean_path = math.fsum(_path_length(tree, values, 0) for tree in self.trees) / len(self.trees)
        return float(2.0 ** (-mean_path / _average_path_length(self.subsample)))

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
    ):
        raise ValueError("isolation tree node is neither a leaf nor a split")
    _check_tree(node["l"])
    _check_tree(node["r"])


def _widest_split(node: dict) -> int:
    """Largest feature index a split in the tree reads; -1 for a lone leaf."""
    if "f" not in node:
        return -1
    return max(node["f"], _widest_split(node["l"]), _widest_split(node["r"]))


def _grow_tree(matrix: np.ndarray, rng: random.Random, depth: int, limit: int) -> dict:
    n = matrix.shape[0]
    if n <= 1 or depth >= limit:
        return {"n": int(n)}
    low = matrix.min(axis=0)
    high = matrix.max(axis=0)
    splittable = np.flatnonzero(high > low)
    if splittable.size == 0:
        return {"n": int(n)}  # all rows identical; cannot isolate further
    dim = int(rng.choice(splittable))
    threshold = rng.uniform(float(low[dim]), float(high[dim]))
    left = matrix[:, dim] < threshold
    if not left.any() or left.all():
        return {"n": int(n)}  # degenerate draw at the range edge
    return {
        "f": dim,
        "t": threshold,
        "l": _grow_tree(matrix[left], rng, depth + 1, limit),
        "r": _grow_tree(matrix[~left], rng, depth + 1, limit),
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
    training: Sequence[FeatureVector] | Sequence[Sequence[float]] | np.ndarray,
    trees: int = DEFAULT_TREES,
    subsample: int | None = None,
    seed: int = 0,
    anomaly_cutoff: float = DEFAULT_ANOMALY_CUTOFF,
) -> IsolationForestModel:
    """Fit an isolation forest; deterministic for a fixed seed.

    Draws come from random.Random(seed), so a seed grows the same trees
    on a given Python version. Features with one value across the whole
    training set are recorded with it (see IsolationForestModel).

    subsample defaults to min(256, n) and must not exceed n.
    """
    matrix = _as_matrix(training)
    n = matrix.shape[0]
    if n < 2:
        raise InsufficientTrainingError(
            f"need at least 2 training vectors, got {n}"
        )
    check_forest_parameters(trees, subsample, anomaly_cutoff, seed)
    if subsample is None:
        subsample = min(MAX_SUBSAMPLE, n)
    if subsample > n:
        raise ValueError(f"subsample must be in [2, {n}], got {subsample}")

    rng = random.Random(seed)
    limit = math.ceil(math.log2(subsample))
    grown = []
    for _ in range(trees):
        rows = rng.sample(range(n), subsample)
        grown.append(_grow_tree(matrix[rows], rng, 0, limit))
    low = matrix.min(axis=0)
    constant = [[int(dim), float(low[dim])] for dim in np.flatnonzero(low == matrix.max(axis=0))]
    return IsolationForestModel(grown, subsample, seed, anomaly_cutoff, constant)


def _path_length(tree: dict, row: list[float], depth: int) -> float:
    while "f" in tree:
        tree = tree["l"] if row[tree["f"]] < tree["t"] else tree["r"]
        depth += 1
    return depth + _average_path_length(tree["n"])


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------

NoveltyModel = LofModel | IsolationForestModel


def classify(model: NoveltyModel, query) -> Label:
    """Regular/Irregular split of a query response against the model."""
    return Label.IRREGULAR if model.score(query) > model.cutoff else Label.REGULAR
