"""Local-outlier-factor tests: frozen values, degenerate cases, and
agreement with the naive reference implementation."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_lof
from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.features import featurize
from replaycheck.models import (
    DEFAULT_LOF_K,
    DEFAULT_LOF_THRESHOLD,
    InsufficientTrainingError,
    Label,
    classify,
    train_lof,
)

LINE = [[0.0], [1.0], [2.0], [3.0], [4.0]]


class TestFrozenValues:
    """Expected values computed once with the brute-force reference."""

    def test_interior_query_on_line(self):
        model = train_lof(LINE, k=2)
        assert model.score([2.5]) == pytest.approx(
            0.8333333333333333, abs=1e-12
        )

    def test_far_query_on_line(self):
        model = train_lof(LINE, k=2)
        assert model.score([100.0]) == pytest.approx(
            64.33333333333333, abs=1e-12
        )

    def test_defaults(self):
        assert DEFAULT_LOF_K == 5
        assert DEFAULT_LOF_THRESHOLD == 1.5


class TestDegenerateCases:
    def test_query_coinciding_with_training_point_is_exactly_one(self):
        model = train_lof(LINE, k=2)
        assert model.score([3.0]) == 1.0

    def test_k_clamped_to_n_minus_one(self):
        model = train_lof([[0.0], [10.0]], k=5)
        assert model.k == 5
        assert model.k_eff == 1

    def test_k_eff_untouched_when_k_small(self):
        assert train_lof(LINE, k=2).k_eff == 2

    def test_all_identical_training_scores_everything_one(self):
        # every dimension has zero variance and is dropped, so all queries
        # coincide with the training cluster
        model = train_lof([[7.0, 7.0]] * 4, k=2)
        assert model.points.shape == (4, 0)
        assert model.score([7.0, 7.0]) == 1.0
        assert model.score([-999.0, 123.0]) == 1.0

    def test_duplicate_cluster_does_not_divide_by_zero(self):
        training = [[0.0], [0.0], [0.0], [5.0]]
        model = train_lof(training, k=2)
        score = model.score([0.2])
        assert np.isfinite(score)
        assert score == pytest.approx(brute_force_lof(training, 2, [0.2]), abs=1e-9)

    def test_tie_inclusive_neighborhoods(self):
        # query at 0 has both +1 and -1 at distance 1: with k=1 the
        # neighborhood must include both, not an arbitrary one of them
        training = [[-1.0], [1.0], [4.0]]
        model = train_lof(training, k=1)
        assert model.score([0.0]) == pytest.approx(
            brute_force_lof(training, 1, [0.0]), abs=1e-12
        )

    def test_insufficient_training_rejected(self):
        with pytest.raises(InsufficientTrainingError):
            train_lof([[1.0]], k=1)
        with pytest.raises(InsufficientTrainingError):
            train_lof([], k=1)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            train_lof(LINE, k=0)

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError):
            train_lof(LINE, k=2, threshold=1.0)
        with pytest.raises(ValueError):
            train_lof(LINE, k=2, threshold=0.5)

    def test_query_dimension_mismatch_rejected(self):
        model = train_lof(LINE, k=2)
        with pytest.raises(ValueError):
            model.score([1.0, 2.0])


class TestClassify:
    def test_inlier_is_regular(self):
        model = train_lof(LINE, k=2, threshold=1.5)
        assert classify(model, [2.5]) == Label.REGULAR

    def test_outlier_is_irregular(self):
        model = train_lof(LINE, k=2, threshold=1.5)
        assert classify(model, [100.0]) == Label.IRREGULAR

    def test_short_error_reply_flagged_against_json_responses(self):
        responses = [
            json.dumps(
                {"id": i, "result": ["ok"], "state": "obverse", "token": f"{i * 7:016x}"}
            ).encode()
            for i in range(10)
        ]
        model = train_lof([featurize(r) for r in responses])
        assert classify(model, featurize(b"unauthorized")) == Label.IRREGULAR


def _make_training(seed, max_n, max_dims):
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    dims = rng.randint(1, max_dims)
    points = [[rng.uniform(-5, 5) for _ in range(dims)] for _ in range(n)]
    query = [rng.uniform(-8, 8) for _ in range(dims)]
    k = rng.randint(1, n)
    return points, k, query


class TestAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force(self, seed):
        training, k, query = _make_training(seed, max_n=12, max_dims=4)
        model = train_lof(training, k=k)
        assert model.score(query) == pytest.approx(
            brute_force_lof(training, k, query), abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.randoms(use_true_random=False))
    def test_training_order_does_not_matter(self, seed, shuffler):
        training, k, query = _make_training(seed, max_n=10, max_dims=3)
        shuffled = list(training)
        shuffler.shuffle(shuffled)
        a = train_lof(training, k=k).score(query)
        b = train_lof(shuffled, k=k).score(query)
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1.01, max_value=4.0),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_raising_threshold_never_flips_regular_to_irregular(
        self, seed, threshold, bump
    ):
        training, k, query = _make_training(seed, max_n=10, max_dims=3)
        low = train_lof(training, k=k, threshold=threshold)
        high = train_lof(training, k=k, threshold=threshold + bump)
        if classify(low, query) == Label.REGULAR:
            assert classify(high, query) == Label.REGULAR


def round_trip(model, tmp_path):
    """Write a model artifact and read it back through the codec."""
    path = tmp_path / "model.json"
    artifacts.write(path, artifacts.MODEL, model.to_dict() if model else {"kind": "none"})
    return artifacts.read(path, artifacts.MODEL)


class TestSerialization:
    def test_round_trip_preserves_scores(self, tmp_path):
        rng = random.Random(7)
        training = [[rng.uniform(0, 9) for _ in range(3)] for _ in range(8)]
        model = train_lof(training, k=3, threshold=1.7)
        loaded = round_trip(model, tmp_path)
        for _ in range(25):
            query = [rng.uniform(-2, 11) for _ in range(3)]
            assert loaded.score(query) == model.score(query)
        assert loaded.k == model.k
        assert loaded.k_eff == model.k_eff
        assert loaded.threshold == model.threshold

    def test_round_trip_of_degenerate_model(self, tmp_path):
        model = train_lof([[1.0, 2.0]] * 3, k=1)
        loaded = round_trip(model, tmp_path)
        assert loaded.points.shape[0] == 3
        assert loaded.score([0.0, 0.0]) == 1.0

    def test_schema_tag_checked(self, tmp_path):
        path = tmp_path / "model.json"
        artifacts.write(path, "novelty-model/999", train_lof(LINE, k=2).to_dict())
        with pytest.raises(ArtifactError, match="schema"):
            artifacts.read(path, artifacts.MODEL)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"schema": "novelty-model/1", "kind": "svm"}))
        with pytest.raises(ArtifactError, match="kind"):
            artifacts.read(path, artifacts.MODEL)

    def test_none_model_round_trip(self, tmp_path):
        assert round_trip(None, tmp_path) is None
