"""Isolation forest tests: determinism, pinned degenerate scores, and
serialization fidelity."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import replaycheck
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


# featurize() rows of the two JSON acks an echo-style device answers a
# companion session with, written out so the golden digests below depend
# on no libm's log2.
TWO_ACKS = (
    (29.0, 3.7193758224153695, 1.0, 0.0, 0.0, 0.2413793103448276, 0.06896551724137931, 0.0, 0.0,
     0.3103448275862069, 0.3793103448275862, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (29.0, 3.4569744267451346, 1.0, 0.0, 0.0, 0.2413793103448276, 0.06896551724137931, 0.0, 0.0,
     0.27586206896551724, 0.41379310344827586, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
)


def golden_rows(data, n):
    """Training rows drawn with arithmetic only: random rows with one constant
    column, or a companion session's two distinct acks."""
    rng = random.Random(n)
    if data == "two-ack":
        return [TWO_ACKS[rng.randrange(2)] for _ in range(n)]
    return [[rng.uniform(-3.0, 3.0), rng.random(), 2.0, rng.uniform(0.0, 100.0)] for _ in range(n)]


def forest_digest(model):
    body = json.dumps([model.trees, model.constant_features], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


class TestScores:
    def test_all_identical_training_scores_half(self):
        model = train_isolation_forest([[4.0, 4.0]] * 10, trees=25, seed=1)
        # no split can separate identical rows, so every path has length 0
        # and a query equal on the constant features scores exactly 2^0 at
        # the normalization midpoint; one that differs is isolated at the root
        assert model.score([4.0, 4.0]) == 0.5
        assert model.score([123.0, -5.0]) == 1.0
        assert model.score([4.0, -5.0]) == 1.0

    def test_half_is_below_default_cutoff(self):
        assert 0.5 <= DEFAULT_ANOMALY_CUTOFF
        model = train_isolation_forest([[4.0, 4.0]] * 10, trees=25, seed=1)
        assert classify(model, [4.0, 4.0]) == Label.REGULAR
        assert classify(model, [99.0, 99.0]) == Label.IRREGULAR

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


class TestConstantFeatures:
    """A feature the training set never varied isolates a query that differs on it."""

    def training(self):
        rng = random.Random(4)
        return [[rng.gauss(0, 1), 7.0, rng.gauss(0, 1), 0.0] for _ in range(30)]

    def test_constant_features_recorded_with_values(self):
        model = train_isolation_forest(self.training(), trees=10, seed=3)
        assert model.constant_features == [[1, 7.0], [3, 0.0]]

    def test_query_differing_on_a_constant_feature_is_isolated(self):
        model = train_isolation_forest(self.training(), trees=50, seed=3)
        assert model.score([0.0, 7.5, 0.0, 0.0]) == 1.0
        assert model.score([0.0, 7.0, 0.0, 1e-9]) == 1.0
        assert classify(model, [0.0, 7.5, 0.0, 0.0]) == Label.IRREGULAR

    def test_query_equal_on_constant_features_scores_by_path_length(self):
        model = train_isolation_forest(self.training(), trees=50, seed=3)
        without = replace(model, constant_features=[])
        rng = random.Random(8)
        for _ in range(20):
            query = [rng.uniform(-3, 3), 7.0, rng.uniform(-3, 3), 0.0]
            assert model.score(query) == without.score(query) < 1.0

    def test_model_files_without_the_field_score_as_before(self, tmp_path):
        model = train_isolation_forest(self.training(), trees=20, seed=3)
        body = model.to_dict()
        del body["constant_features"]
        path = tmp_path / "model.json"
        artifacts.write(path, artifacts.MODEL, body)
        loaded = artifacts.read(path, artifacts.MODEL)
        assert loaded.constant_features == []
        without = replace(model, constant_features=[])
        for query in ([0.0, 7.5, 0.0, 0.0], [0.0, 7.0, 0.0, 0.0], [9.0, -1.0, 2.0, 3.0]):
            assert loaded.score(query) == without.score(query)

    @pytest.mark.parametrize(
        "pairs",
        [{"1": 7.0}, [[1]], [[1, 7.0, 0]], [[-1, 7.0]], [[1.5, 7.0]], [[1, "7"]],
         [[1, float("nan")]], [[1, float("inf")]], [[3, 0.0], [1, 7.0]], [[1, 7.0], [1, 7.0]]],
        ids=["object", "short", "long", "negative", "float-index", "string", "nan", "inf",
             "descending", "repeated"],
    )
    def test_malformed_constant_features_rejected(self, tmp_path, pairs):
        body = {**train_isolation_forest(self.training(), trees=2, seed=3).to_dict(),
                "constant_features": pairs}
        path = tmp_path / "model.json"
        artifacts.write(path, artifacts.MODEL, body)
        with pytest.raises(artifacts.ArtifactError):
            artifacts.read(path, artifacts.MODEL)

    def test_width_covers_constant_features(self):
        model = train_isolation_forest([[1.0, 5.0], [2.0, 5.0]], trees=2, seed=0)
        model.check_width(2)
        wide = replace(model, constant_features=[[24, 0.0]])
        with pytest.raises(ValueError, match="feature 24"):
            wide.check_width(19)


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

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_forest_grows_without_numpy_random(self, hash_seed):
        # A fresh interpreter, since the test process may have loaded
        # numpy.random through a plugin. The trees must not depend on the
        # hash seed either.
        training = cluster_with_outlier(seed=13, n=40)
        expected = train_isolation_forest(training, trees=20, seed=6).trees
        script = (
            "import json, sys\n"
            "import numpy\n"
            "preloaded = 'numpy.random' in sys.modules\n"
            "import replaycheck\n"
            "from replaycheck.models import train_isolation_forest, train_lof\n"
            "training = json.load(sys.stdin)\n"
            "forest = train_isolation_forest(training, trees=20, seed=6)\n"
            "forest.score(training[0])\n"
            "train_lof(training, k=3).score(training[0])\n"
            "print(json.dumps({'preloaded': preloaded,\n"
            "                  'loaded': 'numpy.random' in sys.modules,\n"
            "                  'trees': forest.trees}))\n"
        )
        src = str(Path(replaycheck.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(training), capture_output=True, text=True,
            env=env, check=True, timeout=60,
        )
        report = json.loads(done.stdout)
        if report["preloaded"]:
            pytest.skip("this numpy loads numpy.random when it is imported")
        assert not report["loaded"]
        assert report["trees"] == expected

    def test_subsample_defaults_to_min_256_n(self):
        small = train_isolation_forest(cluster_with_outlier(n=40), trees=5, seed=0)
        assert small.subsample == 40
        big = train_isolation_forest(cluster_with_outlier(n=300), trees=5, seed=0)
        assert big.subsample == 256


# SHA-256 of json.dumps([trees, constant_features], sort_keys=True) for
# train_isolation_forest(golden_rows(data, n), trees=50, seed=seed), computed
# with the numpy tree grower this package used before the plain-Python one:
# the grower changed, the trees did not.
GOLDEN_FORESTS = {
    ("random", 10, 0): "e1bdace0a0859410e41dd0da299651747fb87751641008f4d8ea5505d5d4f2bc",
    ("random", 10, 3): "3444a88d410224ded74bcbaf384462632dae91629514358e38815f9d470d4acd",
    ("random", 64, 0): "3f274cd8f4c985019fdd753ea2b312cf14b9ad41f0be86e9c4c2ac3b193dae5a",
    ("random", 64, 3): "046de797a1086abbab5ed9cd388fb3609afddab7318d4686c1483fb571c2e5af",
    ("random", 300, 0): "c5fa780d9fbe09f8f94544c53a5e13950d765893c34ebb8ef1cf609c6a76179c",
    ("random", 300, 3): "f429d55cfedffba520f77c94b7aa54f5c6b0f578dba18d8db657853ccb9351c2",
    ("two-ack", 10, 0): "cf23e437da954d72806392f67521a00eee081b8789a4d92b3b5d039a44d5b3ba",
    ("two-ack", 10, 3): "3f38b0e6559f5757def5568eacd47c8f66e630a5e08116500bb253857c3b7a03",
    ("two-ack", 64, 0): "517cd3b00d5ffc836cb57fb38b3917aaef8e158cebf76c073f89a60b530ac5ae",
    ("two-ack", 64, 3): "b39e931d25dde64e3af41df8a63a11c2f8a4e36b4f559a80103fa0ad24d67c0e",
    ("two-ack", 300, 0): "6f4de946e0ac5792e9dc09d2e9134be9deb186a3f6162d75325d092c7480e2b8",
    ("two-ack", 300, 3): "b538490c77fc0f7087d421a3fb54cb0be676e1f0897f82d791fd969ae987d809",
}


@pytest.mark.parametrize("data, n, seed", sorted(GOLDEN_FORESTS))
def test_trees_match_golden_digest(data, n, seed):
    model = train_isolation_forest(golden_rows(data, n), trees=50, seed=seed)
    assert forest_digest(model) == GOLDEN_FORESTS[data, n, seed]


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_training_value_rejected(self, value):
        # A model file holds finite numbers only, and a column's min and max
        # over a NaN would depend on the order of the rows.
        training = [[float(i), 1.0] for i in range(10)]
        training[5][1] = value
        with pytest.raises(ValueError, match="finite"):
            train_isolation_forest(training, trees=2)


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
