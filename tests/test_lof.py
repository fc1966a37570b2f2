"""Local-outlier-factor tests: frozen values, degenerate cases, and
agreement with the naive reference implementation."""

import dataclasses
import hashlib
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import _standardize, brute_force_lof, brute_force_neighbor_statistics
from replaycheck import artifacts, models
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
from test_iforest import TWO_ACKS, golden_rows

LINE = [[0.0], [1.0], [2.0], [3.0], [4.0]]
# A training size whose neighbor statistics are plain Python, and one whose are numpy's.
BOTH_FITS = pytest.mark.parametrize("n", [5, models.LOF_PURE_MAX + 1], ids=["plain", "numpy"])


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
        assert model.points == [[]] * 4
        assert model.score([7.0, 7.0]) == 1.0
        assert model.score([-999.0, 123.0]) == 1.0

    @pytest.mark.parametrize("n", [3, models.LOF_PURE_MAX + 1])
    def test_all_identical_training_labels_by_the_constant_values(self, n):
        # score reads 1.0 wherever the dropped dimension alone differs;
        # classify calls a query that differs from the one training row
        # irregular. The values are the row's own, not the mean, which
        # rounding can move: fsum([0.1] * 3) / 3 != 0.1.
        model = train_lof([[0.1, 7.0]] * n, k=2)
        assert 1 not in model.kept
        assert model.constant_features == [[0, 0.1], [1, 7.0]]
        assert model.score([0.1, 8.0]) == 1.0
        assert classify(model, [0.1, 7.0]) == Label.REGULAR
        assert classify(model, [0.1, 8.0]) == Label.IRREGULAR
        assert classify(model, [-999.0, 123.0]) == Label.IRREGULAR

    def test_every_constant_column_is_recorded(self):
        # LOF drops the constant dimension, so the score cannot see a step
        # there; the recorded value makes classify call it irregular.
        model = train_lof([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]], k=2)
        assert model.kept == (0,)
        assert model.constant_features == [[1, 7.0]]
        assert model.score([1.0, 8.0]) == 1.0
        assert classify(model, [1.0, 7.0]) == Label.REGULAR
        assert classify(model, [1.0, 8.0]) == Label.IRREGULAR
        loaded = models.LofModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert loaded.constant_features == [[1, 7.0]]
        assert classify(loaded, [1.0, 8.0]) == Label.IRREGULAR

    def test_a_constant_column_whose_mean_rounds_is_kept(self):
        # A dimension is dropped only when its training std is exactly 0.0.
        # fsum([0.1] * 3) / 3 != 0.1, so column 0 keeps a std of about 1e-17
        # and is standardised by it, while column 1, constant at 7.0, is
        # dropped. Both are recorded as constant, so a step on either reads
        # irregular: how rounding left the std no longer decides the call.
        model = train_lof([[0.1, 7.0, 1.0], [0.1, 7.0, 2.0], [0.1, 7.0, 3.0]], k=2)
        assert model.kept == (0, 2)
        assert model.constant_features == [[0, 0.1], [1, 7.0]]
        assert classify(model, [0.1, 7.0, 2.0]) == Label.REGULAR
        assert classify(model, [0.2, 7.0, 2.0]) == Label.IRREGULAR
        assert classify(model, [0.1, 8.0, 2.0]) == Label.IRREGULAR

    def test_constant_values_survive_the_model_file(self):
        body = json.loads(json.dumps(train_lof([[7.0, 7.0]] * 4, k=2).to_dict()))
        assert body["constant_features"] == [[0, 7.0], [1, 7.0]]
        assert classify(models.LofModel.from_dict(body), [7.0, 8.0]) == Label.IRREGULAR
        # A file written before the field existed labels as it always did.
        del body["constant_features"]
        assert classify(models.LofModel.from_dict(body), [7.0, 8.0]) == Label.REGULAR

    @pytest.mark.parametrize(
        "training, constant",
        [
            ([[7.0, 7.0]] * 4, [[1, 7.0], [0, 7.0]]),  # not ascending
            ([[7.0, 7.0]] * 4, [[0, 7.0], [0, 7.0]]),
            ([[0.0, 7.0], [1.0, 7.0], [2.0, 7.0]], [[2, 7.0]]),  # beyond the model's width
            ([[7.0, 7.0]] * 4, [[0, 7.0], [1, 7.0], [2, 7.0]]),
            ([[7.0, 7.0]] * 4, [[0, "7"]]),
            ([[7.0, 7.0]] * 4, {"0": 7.0}),
        ],
    )
    def test_malformed_constant_values_rejected(self, training, constant):
        body = {**train_lof(training, k=2).to_dict(), "constant_features": constant}
        with pytest.raises((TypeError, ValueError)):
            models.LofModel.from_dict(body)

    def test_duplicate_cluster_does_not_divide_by_zero(self):
        training = [[0.0], [0.0], [0.0], [5.0]]
        model = train_lof(training, k=2)
        score = model.score([0.2])
        assert math.isfinite(score)
        assert score == pytest.approx(brute_force_lof(training, 2, [0.2]), abs=1e-9)

    def test_tie_inclusive_neighborhoods(self):
        # query at 0 has both +1 and -1 at distance 1: with k=1 the
        # neighborhood must include both, not an arbitrary one of them
        training = [[-1.0], [1.0], [4.0]]
        model = train_lof(training, k=1)
        assert model.score([0.0]) == pytest.approx(
            brute_force_lof(training, 1, [0.0]), abs=1e-12
        )

    def test_distance_past_the_float_range_scores_infinite(self):
        # A model file may hold a std far below any training set's; a query's
        # standardized distance then overflows, and the query is infinitely
        # far from every neighbor rather than an OverflowError.
        body = {**train_lof(LINE, k=2).to_dict(), "standardization": {"mean": [2.0], "std": [1e-300]}}
        assert models.LofModel.from_dict(body).score([2.5]) == math.inf

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @BOTH_FITS
    def test_non_finite_training_value_rejected(self, n, value):
        # A model file holds finite numbers only: training must not write
        # one its own codec refuses to read back.
        training = [[float(i), 1.0] for i in range(n)]
        training[n // 2][1] = value
        with pytest.raises(ValueError, match="finite"):
            train_lof(training)

    @BOTH_FITS
    def test_ragged_training_rows_rejected(self, n):
        training = [[float(i), 1.0] for i in range(n)]
        training[n // 2].append(2.0)
        with pytest.raises(ValueError, match="width"):
            train_lof(training)


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


def full_broadcast_reference(points, k_eff):
    """k-distances and lrds from one n x n x d broadcast, the unblocked way."""
    diff = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(distances, np.inf)
    k_distance = np.partition(distances, k_eff - 1, axis=1)[:, k_eff - 1]
    lrd = np.empty(len(points))
    for i, row in enumerate(distances):
        neighbors = np.flatnonzero(row <= k_distance[i])
        total = float(np.maximum(k_distance[neighbors], row[neighbors]).sum())
        lrd[i] = 1.0 / models.LRD_DUPLICATE_EPSILON if total == 0.0 else len(neighbors) / total
    return k_distance, lrd


@st.composite
def training_sets(draw, min_n=2, max_n=60, max_distinct=None):
    """Training rows with duplicate rows and constant columns, either on a
    coarse grid (many exactly tied distances) or off it."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    dims = draw(st.integers(min_value=1, max_value=4))
    constant = draw(st.lists(st.booleans(), min_size=dims, max_size=dims))
    distinct = draw(st.integers(min_value=1, max_value=max_distinct or n))
    on_grid = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def coordinate():
        return float(rng.randint(-4, 4)) if on_grid else rng.uniform(-5.0, 5.0)

    base = [[0.5 if constant[j] else coordinate() for j in range(dims)] for _ in range(distinct)]
    rows = [list(rng.choice(base)) for _ in range(n)]
    k = draw(st.integers(min_value=1, max_value=n))
    query = [coordinate() + 0.25 for _ in range(dims)]
    return rows, k, query, on_grid


# A grid set on which distances that tie in real arithmetic round apart in
# numpy's sums, so numpy's neighbor sets, and its score (1.0275 against
# 1.0091), differ from the oracle's.
TIED_ON_GRID = (
    [[1.0, 0.5, -1.0], [1.0, 0.5, -1.0], [1.0, 0.5, 4.0], [-2.0, 0.5, 1.0], [-2.0, 0.5, 2.0],
     [1.0, 0.5, 4.0], [4.0, 0.5, 2.0], [-2.0, 0.5, 2.0], [-2.0, 0.5, -3.0], [-2.0, 0.5, 1.0]],
    6,
    [-2.75, 2.25, -2.75],
    True,
)
LARGEST_PLAIN = ([[float(i % 5), float(i % 3), 0.5] for i in range(64)], 5, [1.25, 0.25, 0.5], True)
# TIED_ON_GRID's rows seven times over: 70 rows, 6 distinct. numpy's fit,
# which every set of more than 64 rows used to get, scored the query
# 2.878751568347908 against the oracle's 2.878751568347909.
TIED_ON_GRID_70 = (TIED_ON_GRID[0] * 7, 14, TIED_ON_GRID[2], True)


class TestPlainPython:
    """Up to LOF_PURE_MAX points train_lof does the oracle's arithmetic."""

    @settings(max_examples=150, deadline=None)
    @given(case=training_sets())
    @example(case=TIED_ON_GRID)
    @example(case=LARGEST_PLAIN)
    def test_scores_equal_brute_force(self, case):
        training, k, query, _ = case
        assert len(training) <= models.LOF_PURE_MAX
        assert train_lof(training, k=k).score(query) == brute_force_lof(training, k, query)


class TestDistinctPoints:
    """The plain fit runs on distinct rows with their counts, up to
    LOF_PURE_MAX distinct rows whatever n is, and still equals the oracle
    on the expanded set, number for number."""

    @settings(max_examples=40, deadline=None)
    @given(case=training_sets(max_n=300, max_distinct=models.LOF_PURE_MAX))
    @example(case=TIED_ON_GRID_70)
    def test_fit_and_score_equal_the_expanded_oracle(self, case):
        training, k, query, _ = case
        assert len({tuple(row) for row in training}) <= models.LOF_PURE_MAX
        model = train_lof(training, k=k)
        assert (model.k_distance, model.lrd) == brute_force_neighbor_statistics(training, k)
        assert model.score(query) == brute_force_lof(training, k, query)

    def test_loaded_duplicates_with_different_numbers_score_apart(self):
        # No fit writes this: two equal points whose stored lrds differ. The
        # scorer groups by (point, k_distance, lrd), so each keeps its own.
        body = {
            "kind": "lof", "k": 2, "k_eff": 2, "threshold": 1.5,
            "standardization": {"mean": [0.0], "std": [1.0]},
            "points": [[0.0], [0.0], [1.0], [3.0]],
            "k_distance": [1.0, 1.0, 1.0, 2.0],
            "lrd": [1.0, 4.0, 1.0, 0.5],
        }
        # The query's neighbors are the three points 0.5 away, each at reach
        # distance 1, so its lrd is 1 and it scores their mean lrd, 6 / 3.
        assert models.model_from_dict(body).score([0.5]) == 2.0
        # Grouped by point alone, both duplicates would carry lrd 1.0.
        first_only = dict(body, lrd=[1.0, 1.0, 1.0, 0.5])
        assert models.model_from_dict(first_only).score([0.5]) == 1.0
        # The grouping is derived whenever a model is made, so a copy with
        # other lists scores by its own lists, not the original's.
        model = models.model_from_dict(first_only)
        assert dataclasses.replace(model, lrd=body["lrd"]).score([0.5]) == 2.0


# SHA-256 of train_lof(golden_rows(data, n)).to_dict() as sorted-key JSON,
# less constant_features, which GOLDEN_CONSTANT pins on its own: plain-Python
# fits, pinned to the byte so model files do not drift.
GOLDEN_LOF = {
    ("random", 10): "a23e6fa74fc983287e37f524f02c9f2f6ab185ed609cba82e579b8704b0ec87d",
    ("random", 20): "f3b301c93502fc8a828db6176c128fce0e64c334942211fb01db200262bba2bd",
    ("random", 64): "349c9bc20d8ed95ce147b3658d68b1d18814c031315a423ed4a827448fbff801",
    ("two-ack", 10): "aef6c4efea41bbb0b60402c315746d62a6c58e68b33c8dd7193618dea8a9b198",
    ("two-ack", 20): "c26f7bbd91cd8ef82132a1bcac98800284c8081e2f135d51478fa485b34410a4",
    ("two-ack", 64): "28d007c59cdfce1cd9b5b1f0f23c1bd99c7ab89cf976bc2248530a75d24746df",
}


GOLDEN_CONSTANT = {
    "random": [[2, 2.0]],  # the column golden_rows holds at 2.0
    "two-ack": [[d, a] for d, (a, b) in enumerate(zip(*TWO_ACKS)) if a == b],
}


@pytest.mark.parametrize("data, n", sorted(GOLDEN_LOF))
def test_plain_fit_matches_golden_digest(data, n):
    body = train_lof(golden_rows(data, n)).to_dict()
    assert body.pop("constant_features") == GOLDEN_CONSTANT[data]
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_LOF[data, n]


class TestStandardization:
    """Above LOF_PURE_MAX too, train_lof standardizes with the oracle's
    arithmetic, so rounding keeps or drops a constant column as it does."""

    @staticmethod
    def assert_standardized_as_oracle(training):
        assert len(training) > models.LOF_PURE_MAX
        model = train_lof(training)
        points, kept, means, stds = _standardize(training)
        assert list(model.kept) == kept
        assert [model.mean[d] for d in kept] == means
        assert [model.std[d] for d in kept] == stds
        assert model.points == points

    @pytest.mark.parametrize("value, n", [(0.1, 65), (2 / 9, 200), (0.1163, 65)])
    def test_constant_column_as_the_oracle_rounds_it(self, value, n):
        # numpy's pairwise mean of these columns rounds away from value, and
        # left each a std of 1e-17 to 8e-17; the oracle's fsum mean does not.
        self.assert_standardized_as_oracle([[value, 7.0, float(i % 2)] for i in range(n)])

    @settings(max_examples=30, deadline=None)
    @given(case=training_sets(min_n=models.LOF_PURE_MAX + 1, max_n=130, max_distinct=6))
    def test_duplicate_heavy_sets(self, case):
        self.assert_standardized_as_oracle(case[0])


class TestBlockedDistances:
    """train_lof fills its distance matrix in row blocks; blocking changes no bit."""

    @pytest.mark.parametrize("blocking", ["one-row", "ragged", "single"])
    @settings(max_examples=60, deadline=None)
    @given(case=training_sets(), pick=st.randoms(use_true_random=False))
    @example(case=([[1.0, 2.0]] * 5, 3, [0.0, 0.0], True), pick=random.Random(0))
    def test_blocks_match_full_broadcast(self, blocking, case, pick):
        training, k, query, on_grid = case
        n = len(training)
        varying = sum(len({row[j] for row in training}) > 1 for j in range(len(training[0])))
        if blocking == "ragged":
            sizes = [b for b in range(2, n) if n % b]
            if not sizes:
                return  # n <= 2 has no ragged split
            block = pick.choice(sizes)
        else:
            block = 1 if blocking == "one-row" else n
        # numpy for every set, one distinct row included (the plain fit
        # takes at most LOF_PURE_MAX distinct rows), and the budget that
        # makes train_lof take exactly `block` rows at a time
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(models, "LOF_PURE_MAX", 0)
            patch.setattr(models, "LOF_BLOCK_BYTES", block * 8 * n * max(1, varying))
            model = train_lof(training, k=k)
            score = model.score(query)

        # column-major, as training computes the points
        points = np.asfortranarray(model.points)
        k_distance, lrd = full_broadcast_reference(points, model.k_eff)
        assert np.array(model.k_distance).tobytes() == k_distance.tobytes()
        assert np.array(model.lrd).tobytes() == lrd.tobytes()
        # The oracle's 1e-9 is absolute, so it holds where no duplicate
        # cluster puts an lrd at 1/epsilon. On the grid, distances that tie
        # exactly in real arithmetic may round apart differently in numpy
        # and in the oracle's fsum, and tie-inclusive neighbor sets follow.
        if not on_grid and max(model.lrd) < 1.0 / models.LRD_DUPLICATE_EPSILON:
            assert score == pytest.approx(brute_force_lof(training, k, query), abs=1e-9)

    def test_training_memory_is_bounded(self):
        rng = random.Random(2000)
        training = np.array([[rng.gauss(0.0, 1.0) for _ in range(19)] for _ in range(2000)])
        started = time.perf_counter()
        tracemalloc.start()
        try:
            train_lof(training)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n x n x d broadcast alone would be 608 MB
        assert peak < 50e6
        assert time.perf_counter() - started < 1.0


def round_trip(model, tmp_path):
    """Write a model artifact and read it back through the codec."""
    path = tmp_path / "model.json"
    artifacts.write(path, artifacts.MODEL, model.to_dict() if model else {"kind": "none"})
    return artifacts.read(path, artifacts.MODEL)


class TestSerialization:
    @pytest.mark.parametrize("n", [8, models.LOF_PURE_MAX + 1], ids=["plain", "numpy"])
    def test_round_trip_preserves_scores(self, tmp_path, n):
        # A model whose neighbor statistics numpy computed holds the same
        # lists as a loaded one.
        rng = random.Random(7)
        training = [[rng.uniform(0, 9) for _ in range(3)] for _ in range(n)]
        model = train_lof(training, k=3, threshold=1.7)
        loaded = round_trip(model, tmp_path)
        assert loaded == model  # the same values in the same containers
        for _ in range(25):
            query = [rng.uniform(-2, 11) for _ in range(3)]
            assert loaded.score(query) == model.score(query)
        assert loaded.k == model.k
        assert loaded.k_eff == model.k_eff
        assert loaded.threshold == model.threshold

    def test_round_trip_of_degenerate_model(self, tmp_path):
        model = train_lof([[1.0, 2.0]] * 3, k=1)
        loaded = round_trip(model, tmp_path)
        assert len(loaded.points) == 3
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
