"""Verdicts are checked against the documented truth, and a wrong one fails the run."""

import json

import pytest

import run
from workloads import verdict_problem
from replaycheck import pipeline
from replaycheck.models import Label
from replaycheck.verdict import Outcome, Reason, Verdict


class TestVerdictProblem:
    def test_agreement_is_no_problem(self):
        assert verdict_problem("x", Outcome.SUCCESSFUL, True, True) is None
        assert verdict_problem("x", Outcome.FAILED, False, False) is None
        assert verdict_problem("x", Outcome.FAILED, False, None) is None

    def test_disagreeing_with_the_documented_truth(self):
        assert "documented vulnerable" in verdict_problem("x", Outcome.FAILED, True, True)

    def test_disagreeing_with_the_device(self):
        assert "did not change" in verdict_problem("x", Outcome.SUCCESSFUL, True, False)


def _flipped(decide):
    def wrapper(*args, **kwargs):
        verdict = decide(*args, **kwargs)
        if verdict.outcome == Outcome.SUCCESSFUL:
            return Verdict(Outcome.FAILED, Reason.NO_RESPONSE, ())
        return Verdict(Outcome.SUCCESSFUL, Reason.REGULAR_FOUND, (Label.REGULAR,))

    return wrapper


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("wrong", [False, True])
def test_a_wrong_verdict_fails_the_run(monkeypatch, capsys, wrong):
    if wrong:
        monkeypatch.setattr(pipeline, "decide", _flipped(pipeline.decide))
    code = run.main(["--workload", "assess-matrix", "--seed", "3", "--seconds", "0"])
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 12  # one block: 6 profiles x 2 scenarios
    if wrong:
        assert code == 1 and result["correct"] is False
        assert result["failed"] == result["attempted"]
    else:
        assert code == 0 and result["correct"] is True and result["failed"] == 0


def test_bulk_train_checks_records_and_labels():
    from workloads import BulkTrain

    workload = BulkTrain(seed=5)
    lof, forest = workload.block()
    made, checked, problems = lof.check(lof.run())
    assert (made, checked, problems) == (20, 20, [])
    # the forest's error-queue verdicts are counted, not checked
    made, checked, problems = forest.check(forest.run())
    assert made == 20 and problems == []
    assert checked + workload.notes["forest_error_queues_called_successful"] == 20

    workload.session_records += 1
    with pytest.raises(RuntimeError, match="records matched"):
        lof.check(lof.run())
