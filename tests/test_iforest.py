"""Isolation forest tests: determinism, pinned degenerate scores, and
serialization fidelity."""

import json
import random

import pytest

from replaycheck import artifacts
from replaycheck.models import (
    DEFAULT_ANOMALY_CUTOFF,
    InsufficientTrainingError,
    Label,
    classify,
    train_isolation_forest,
)
from replaycheck.models import _average_path_length


def cluster_with_outlier(seed=3, n=60):
    rng = random.Random(seed)
    training = [[rng.gauss(0, 0.3), rng.gauss(0, 0.3)] for _ in range(n)]
    return training


class TestScores:
    def test_all_identical_training_scores_half(self):
        model = train_isolation_forest([[4.0, 4.0]] * 10, trees=25, seed=1)
        # no split can separate identical rows, so every path has length 0
        # and the score is exactly 2^0 at the normalization midpoint
        assert model.score([4.0, 4.0]) == 0.5
        assert model.score([123.0, -5.0]) == 0.5

    def test_half_is_below_default_cutoff(self):
        assert 0.5 <= DEFAULT_ANOMALY_CUTOFF
        model = train_isolation_forest([[4.0, 4.0]] * 10, trees=25, seed=1)
        assert classify(model, [99.0, 99.0]) == Label.REGULAR

    def test_outlier_scores_above_cluster_member(self):
        training = cluster_with_outlier()
        model = train_isolation_forest(training, trees=100, seed=5)
        inlier = model.score(training[0])
        outlier = model.score([25.0, -25.0])
        assert outlier > inlier
        assert outlier > DEFAULT_ANOMALY_CUTOFF

    def test_scores_stay_in_unit_interval(self):
        training = cluster_with_outlier(seed=9)
        model = train_isolation_forest(training, trees=50, seed=2)
        rng = random.Random(0)
        for _ in range(50):
            q = [rng.uniform(-30, 30), rng.uniform(-30, 30)]
            assert 0.0 < model.score(q) <= 1.0


class TestDeterminism:
    def test_same_seed_same_trees(self):
        training = cluster_with_outlier(seed=11)
        a = train_isolation_forest(training, trees=20, seed=42)
        b = train_isolation_forest(training, trees=20, seed=42)
        assert a.trees == b.trees

    def test_different_seed_different_trees(self):
        training = cluster_with_outlier(seed=11)
        a = train_isolation_forest(training, trees=20, seed=1)
        b = train_isolation_forest(training, trees=20, seed=2)
        assert a.trees != b.trees

    def test_subsample_defaults_to_min_256_n(self):
        small = train_isolation_forest(cluster_with_outlier(n=40), trees=5, seed=0)
        assert small.subsample == 40
        big = train_isolation_forest(cluster_with_outlier(n=300), trees=5, seed=0)
        assert big.subsample == 256


class TestValidation:
    def test_insufficient_training(self):
        with pytest.raises(InsufficientTrainingError):
            train_isolation_forest([[1.0]])

    def test_trees_must_be_positive(self):
        with pytest.raises(ValueError):
            train_isolation_forest([[1.0], [2.0]], trees=0)

    def test_cutoff_open_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                train_isolation_forest([[1.0], [2.0]], anomaly_cutoff=bad)

    def test_subsample_bounded_by_n(self):
        with pytest.raises(ValueError):
            train_isolation_forest([[1.0], [2.0]], subsample=3)
        with pytest.raises(ValueError):
            train_isolation_forest([[1.0], [2.0]], subsample=1)


class TestPathLengthNormalizer:
    def test_degenerate_sizes(self):
        assert _average_path_length(0) == 0.0
        assert _average_path_length(1) == 0.0
        assert _average_path_length(2) == 1.0

    def test_grows_with_n(self):
        values = [_average_path_length(n) for n in (2, 4, 16, 256)]
        assert values == sorted(values)
        assert values[-1] < 2 * 12  # comfortably below 2*log2(256) + slack


class TestSerialization:
    def test_round_trip_scores_bit_identical(self, tmp_path):
        training = cluster_with_outlier(seed=21)
        model = train_isolation_forest(training, trees=30, seed=8)
        path = tmp_path / "model.json"
        artifacts.write(path, artifacts.MODEL, model.to_dict())
        loaded = artifacts.read(path, artifacts.MODEL)
        rng = random.Random(77)
        for _ in range(40):
            q = [rng.uniform(-10, 10), rng.uniform(-10, 10)]
            assert loaded.score(q) == model.score(q)
        assert loaded.subsample == model.subsample
        assert loaded.anomaly_cutoff == model.anomaly_cutoff
        assert loaded.seed == model.seed

    def test_tree_shape_is_plain_json(self, tmp_path):
        model = train_isolation_forest(cluster_with_outlier(), trees=3, seed=0)
        path = tmp_path / "model.json"
        artifacts.write(path, artifacts.MODEL, model.to_dict())
        doc = json.loads(path.read_text())
        assert doc["kind"] == "isolation_forest"

        def walk(node):
            if "n" in node:
                assert isinstance(node["n"], int)
                return
            assert set(node) == {"f", "t", "l", "r"}
            walk(node["l"])
            walk(node["r"])

        for tree in doc["trees"]:
            walk(tree)
