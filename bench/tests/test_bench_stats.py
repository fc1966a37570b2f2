"""Tail-percentile selection and the rules that compare two result sets."""

import json
import statistics

import pytest

import run
from stats import compare_metric, percentile, quartile_spread, tail_percentile


class TestTailPercentile:
    @pytest.mark.parametrize("n", [20, 21, 72, 500])
    def test_exactly_ten_samples_lie_beyond(self, n):
        values = [float(v) for v in range(n)]
        tail = percentile(values, tail_percentile(n))
        assert sum(v > tail for v in values) == 10

    def test_short_runs_fall_back_to_the_median(self):
        assert tail_percentile(11) == tail_percentile(19) == 50.0
        values = [3.0, 1.0, 2.0, 10.0]
        assert percentile(values, tail_percentile(len(values))) == statistics.median(values)

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 25) == 2.5
        assert percentile([4.0], 99) == 4.0

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)


class TestCompareMetric:
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]

    def test_within_bound_is_ok(self):
        row = compare_metric(self.base, [1.03, 1.04, 1.02, 1.03], "lower", 0.1)
        assert row["status"] == "ok"
        assert row["ratio"] == pytest.approx(1.03 / 1.0)
        assert row["base_median"] == pytest.approx(1.0) and row["base_runs"] == 6

    def test_worse_than_bound_is_a_regression(self):
        assert compare_metric(self.base, [1.2, 1.21, 1.19], "lower", 0.1)["status"] == "regression"

    def test_direction_follows_better(self):
        assert compare_metric(self.base, [0.8, 0.81, 0.79], "higher", 0.1)["status"] == "regression"
        assert compare_metric(self.base, [0.8, 0.81, 0.79], "lower", 0.1)["status"] == "better"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
        assert compare_metric(self.base, noisy, "lower", 0.1)["status"] == "unresolved"

    def test_every_new_run_better_resolves_a_noisy_metric(self):
        noisy_base = [1.0, 1.5, 2.0, 1.2, 1.8]
        row = compare_metric(noisy_base, [0.5, 0.6, 0.55], "lower", 0.1)
        assert row["spread"] > 0.1 and row["status"] == "better"

    def test_unbounded_metrics_are_reported_only(self):
        assert compare_metric(self.base, [5.0, 5.0], "lower", None)["status"] == "info"


def _write(path, workload, values):
    with open(path, "w") as out:
        for value in values:
            metrics = {"op_s_p50": {"value": value, "unit": "s"}}
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
            out.write(json.dumps({"workload": workload, "seed": 0, "result": result}) + "\n")


def test_compare_prints_one_row_per_metric_and_workload(tmp_path, capsys):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    _write(base, "assess-matrix", [1.0, 1.0, 1.01, 0.99])
    _write(new, "assess-matrix", [2.0, 2.0, 2.02, 1.98])
    assert run.compare(str(base), str(new)) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("assess")]
    assert len(rows) == 1
    assert "op_s_p50" in rows[0] and "regression" in rows[0]
    assert "2.0000" in rows[0]  # the ratio, printed next to the base median


def test_compare_without_regression_exits_zero(tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    _write(base, "bulk-train", [1.0, 1.0, 1.01, 0.99])
    _write(new, "bulk-train", [1.0, 1.0, 1.0, 1.0])
    assert run.compare(str(base), str(new)) == 0
