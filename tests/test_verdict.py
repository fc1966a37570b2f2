"""Decision-rule tests: the three checks, their ordering, and reporting."""

import random

import pytest
from hypothesis import given, strategies as st

from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import Endpoint, PacketRecord, Transport
from replaycheck.features import featurize
from replaycheck.models import Label, train_lof
from replaycheck.pipeline import AssessmentResult, PipelineSettings
from replaycheck.replay import QueueEntry, ResponseQueue
from replaycheck.verdict import (
    NoModelError,
    Outcome,
    Reason,
    Verdict,
    decide,
)

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 4000)

# training pool of similar JSON acks; a byte-identical copy scores LOF 1.0
# (regular) and a long random blob lands far outside (irregular)
TRAIN_PAYLOADS = [
    b'{"id": %d, "result": ["ok"], "token": "%016x"}' % (i, i * 2654435761 % 2**64)
    for i in range(12)
]
REGULAR = TRAIN_PAYLOADS[0]
IRREGULAR = random.Random(99).randbytes(300)


@pytest.fixture(scope="module")
def model():
    return train_lof([featurize(p) for p in TRAIN_PAYLOADS])


def queue_of(*payloads):
    return ResponseQueue(
        tuple(
            QueueEntry(timestamp=i * 0.01, flow_index=i, payload=p)
            for i, p in enumerate(payloads)
        )
    )


def tls_record():
    return PacketRecord(0, DEV, APP, Transport.TCP, b"\x17\x03\x03\x00\x01\x00")


class TestDecide:
    def test_empty_queue_fails_no_response(self, model):
        verdict = decide(queue_of(), [], model)
        assert verdict.outcome == Outcome.FAILED
        assert verdict.reason == Reason.NO_RESPONSE
        assert verdict.labels == ()

    def test_standard_protocol_fails_before_model(self, model):
        verdict = decide(queue_of(REGULAR), [tls_record()], None)
        assert verdict.outcome == Outcome.FAILED
        assert verdict.reason == Reason.STANDARD_PROTOCOL

    def test_empty_queue_beats_protocol_check(self):
        verdict = decide(queue_of(), [tls_record()], None)
        assert verdict.reason == Reason.NO_RESPONSE

    def test_all_irregular_fails(self, model):
        blobs = [random.Random(s).randbytes(280) for s in (1, 2, 3)]
        verdict = decide(queue_of(*blobs), [], model)
        assert verdict.outcome == Outcome.FAILED
        assert verdict.reason == Reason.ALL_IRREGULAR
        assert len(verdict.labels) == 3

    def test_single_regular_succeeds(self, model):
        verdict = decide(queue_of(IRREGULAR, REGULAR, IRREGULAR), [], model)
        assert verdict.outcome == Outcome.SUCCESSFUL
        assert verdict.reason == Reason.REGULAR_FOUND
        assert Label.REGULAR in verdict.labels

    def test_window_limits_model_to_leading_entries(self, model):
        # the regular response sits outside the window, so it never weighs in
        payloads = [IRREGULAR, random.Random(4).randbytes(290), REGULAR]
        verdict = decide(queue_of(*payloads), [], model, PipelineSettings(response_window=2))
        assert verdict.reason == Reason.ALL_IRREGULAR
        assert len(verdict.labels) == 2

    def test_window_larger_than_queue_uses_whole_queue(self, model):
        verdict = decide(queue_of(REGULAR), [], model, PipelineSettings(response_window=10))
        assert len(verdict.labels) == 1
        assert verdict.outcome == Outcome.SUCCESSFUL

    def test_default_window_is_three(self, model):
        payloads = [IRREGULAR] * 3 + [REGULAR]
        verdict = decide(queue_of(*payloads), [], model)
        assert len(verdict.labels) == 3
        assert verdict.reason == Reason.ALL_IRREGULAR

    def test_model_required_once_cheap_checks_pass(self):
        with pytest.raises(NoModelError, match="model"):
            decide(queue_of(REGULAR), [], None)

    def test_more_regular_evidence_never_flips_success_to_failure(self, model):
        base = [IRREGULAR, REGULAR]
        with_more = [REGULAR] + base
        settings = PipelineSettings(response_window=5)
        first = decide(queue_of(*base), [], model, settings)
        second = decide(queue_of(*with_more), [], model, settings)
        assert first.outcome == Outcome.SUCCESSFUL
        assert second.outcome == Outcome.SUCCESSFUL

    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_failed_iff_all_window_entries_irregular(self, model, regular_flags):
        payloads = [REGULAR if flag else IRREGULAR for flag in regular_flags]
        settings = PipelineSettings(response_window=len(payloads))
        verdict = decide(queue_of(*payloads), [], model, settings)
        if any(regular_flags):
            assert verdict.outcome == Outcome.SUCCESSFUL
        else:
            assert verdict.outcome == Outcome.FAILED
            assert verdict.reason == Reason.ALL_IRREGULAR


class TestVerdictValidation:
    def test_reason_outcome_consistency(self):
        with pytest.raises(ValueError):
            Verdict(Outcome.SUCCESSFUL, Reason.NO_RESPONSE, ())
        with pytest.raises(ValueError):
            Verdict(Outcome.FAILED, Reason.REGULAR_FOUND, (Label.REGULAR,))

    def test_cheap_check_verdicts_carry_no_labels(self):
        with pytest.raises(ValueError):
            Verdict(Outcome.FAILED, Reason.NO_RESPONSE, (Label.IRREGULAR,))

    def test_all_irregular_labels_must_be_irregular(self):
        with pytest.raises(ValueError):
            Verdict(Outcome.FAILED, Reason.ALL_IRREGULAR, (Label.REGULAR,))

    def test_regular_found_needs_a_regular_label(self):
        with pytest.raises(ValueError):
            Verdict(Outcome.SUCCESSFUL, Reason.REGULAR_FOUND, (Label.IRREGULAR,))


class TestEvaluateAccuracy:
    """AssessmentResult.accuracy: the share of verdicts matching the truth."""

    def mk(self, outcome):
        if outcome == Outcome.SUCCESSFUL:
            return Verdict(outcome, Reason.REGULAR_FOUND, (Label.REGULAR,))
        return Verdict(outcome, Reason.NO_RESPONSE, ())

    def accuracy(self, verdicts, vulnerable):
        return AssessmentResult(
            "d", "non_restart", verdicts, [vulnerable] * len(verdicts), None, None
        ).accuracy

    def test_all_correct(self):
        verdicts = [self.mk(Outcome.SUCCESSFUL)] * 10
        assert self.accuracy(verdicts, vulnerable=True) == 1.0
        assert self.accuracy(verdicts, vulnerable=False) == 0.0

    def test_mixed(self):
        verdicts = [self.mk(Outcome.SUCCESSFUL)] * 49 + [self.mk(Outcome.FAILED)]
        assert self.accuracy(verdicts, vulnerable=True) == pytest.approx(0.98)


def write_report(path, verdict, **fields):
    artifacts.write(path, artifacts.VERDICT, {**verdict.to_dict(), **fields})


class TestReport:
    def test_round_trip(self, tmp_path, model):
        verdict = decide(queue_of(REGULAR), [], model)
        path = tmp_path / "verdict.json"
        write_report(
            path,
            verdict,
            device_id="cleartext_echo@127.0.0.1:4000",
            scenario="non_restart",
            j=3,
            model_kind="lof",
        )
        body = artifacts.read(path, artifacts.VERDICT)
        assert body["schema"] == "verdict-report/1"
        assert body["outcome"] == "SUCCESSFUL"
        assert body["reason"] == "RegularFound"
        assert body["scenario"] == "non_restart"
        assert body["j"] == 3
        assert body["model_kind"] == "lof"
        assert body["labels"] == ["regular"]
        assert "generated" in body["timestamps"]

    def test_restart_scenario_value(self, tmp_path):
        verdict = Verdict(Outcome.FAILED, Reason.NO_RESPONSE, ())
        path = tmp_path / "verdict.json"
        write_report(path, verdict, device_id="d", scenario="restart", j=3, model_kind=None)
        assert artifacts.read(path, artifacts.VERDICT)["scenario"] == "restart"

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"schema": "verdict-report/2"}')
        with pytest.raises(ArtifactError):
            artifacts.read(path, artifacts.VERDICT)
