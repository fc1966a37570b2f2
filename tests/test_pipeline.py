"""Pipeline orchestration tests: settings resolution, training from
captures of each profile, and short assessment loops."""

import json

import pytest

from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import Endpoint, SessionConfig
from replaycheck.models import IsolationForestModel, LofModel
from replaycheck.pipeline import (
    SCENARIO_NON_RESTART,
    SCENARIO_RESTART,
    NoLocalConnectivityError,
    PipelineSettings,
    assess_device,
    attack_from_capture,
    load_settings,
    train_from_capture,
)
from replaycheck.protocols import ResponseClass
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    DeviceState,
    companion_session,
    query_state,
    trigger_state,
)
from replaycheck.verdict import Outcome, Reason

APP = DEFAULT_APP_ENDPOINT


def session_for(device):
    return SessionConfig(app=APP, device=device.endpoint)


class TestSettings:
    def test_defaults(self):
        settings = PipelineSettings()
        assert settings.model_kind == "lof"
        assert settings.lof_k == 5
        assert settings.lof_threshold == 1.5
        assert settings.response_window == 3

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError):
            PipelineSettings(model_kind="autoencoder")

    def test_file_then_overrides(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_k": 7, "response_window": 4}))
        settings = load_settings(config, lof_k=9, lof_threshold=None)
        assert settings.lof_k == 9  # explicit override beats the file
        assert settings.response_window == 4  # file beats the default
        assert settings.lof_threshold == 1.5  # None means not given

    def test_unknown_file_key_rejected(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_kay": 7}))
        with pytest.raises(ValueError, match="lof_kay"):
            load_settings(config)

    def test_non_object_file_rejected(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_settings(config)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            load_settings(None, nope=3)

    def test_derived_configs(self):
        settings = PipelineSettings(inter_flow_delay_ms=77, response_window=2)
        assert settings.replay_config().inter_flow_delay_ms == 77
        assert settings.detection_config().response_window == 2


class TestTrainFromCapture:
    def test_cleartext_echo_trains_lof(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert isinstance(detector.model, LofModel)
        assert detector.model.training_size == 10
        assert detector.training_responses == 10
        assert detector.response_class == ResponseClass.CLEARTEXT
        assert len(detector.flows) == 10

    def test_isolation_forest_kind(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        settings = PipelineSettings(model_kind="isolation_forest", seed=5)
        detector = train_from_capture(capture, session_for(device), settings)
        assert isinstance(detector.model, IsolationForestModel)
        assert detector.model.seed == 5

    def test_session_key_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.SESSION_KEY)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        # the wrapper is printable JSON around base64, so cleartext it is
        assert detector.response_class == ResponseClass.CLEARTEXT
        assert isinstance(detector.model, LofModel)

    def test_encoded_fixed_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.ENCODED_FIXED)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.response_class == ResponseClass.ENCODED

    def test_tls_like_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.TLS_LIKE)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.response_class == ResponseClass.STANDARD_ENCRYPTED
        assert detector.model is not None

    def test_silent_trains_no_model(self, device_factory, fast_settings):
        device = device_factory(Behavior.SILENT)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.model is None
        assert detector.response_class is None
        assert detector.training_responses == 0
        # with no responses anywhere, consecutive commands merge into one flow
        assert len(detector.flows) == 1
        assert len(detector.flows[0].requests) == 10

    def test_wrong_endpoints_raise_connectivity_error(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        wrong = SessionConfig(app=APP, device=Endpoint("127.0.0.1", 1))
        with pytest.raises(NoLocalConnectivityError):
            train_from_capture(capture, wrong)


class TestAttackFromCapture:
    def test_replay_of_command_capture(self, device_factory, fast_settings):
        from replaycheck.simdevices import records_to_capture

        device = device_factory(Behavior.CLEARTEXT_ECHO)
        records = trigger_state(device, DeviceState.OBVERSE)
        capture = records_to_capture(records)
        trigger_state(device, DeviceState.REVERSE)

        result, attack_records = attack_from_capture(
            capture, session_for(device), device.endpoint, fast_settings
        )
        assert query_state(device) == DeviceState.OBVERSE
        assert len(result.queue) >= 1
        assert len(attack_records) == 2

    def test_connectivity_error(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        wrong = SessionConfig(app=APP, device=Endpoint("127.0.0.1", 1))
        with pytest.raises(NoLocalConnectivityError):
            attack_from_capture(capture, wrong, settings=fast_settings)


class TestAssessDevice:
    def test_cleartext_echo_smoke(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=3, settings=fast_settings
        )
        assert result.reps == 3
        assert result.vulnerable is True
        assert result.accuracy == 1.0
        assert result.model_kind == "lof"
        assert all(v.outcome == Outcome.SUCCESSFUL for v in result.verdicts)
        assert all(result.truths)
        assert result.device_id.startswith("cleartext_echo@127.0.0.1:")

    def test_session_key_restart_smoke(self, device_factory, fast_settings):
        device = device_factory(Behavior.SESSION_KEY)
        result = assess_device(
            device, SCENARIO_RESTART, reps=3, settings=fast_settings
        )
        assert result.vulnerable is False
        assert result.accuracy == 1.0
        assert {v.reason for v in result.verdicts} == {Reason.ALL_IRREGULAR}
        assert not any(result.truths)

    def test_silent_device_assessment_without_model(self, device_factory, fast_settings):
        device = device_factory(Behavior.SILENT)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=2, settings=fast_settings
        )
        assert result.vulnerable is False
        assert result.model_kind is None
        assert {v.reason for v in result.verdicts} == {Reason.NO_RESPONSE}

    def test_bad_scenario_rejected(self, device_factory):
        device = device_factory(Behavior.SILENT)
        with pytest.raises(ValueError, match="scenario"):
            assess_device(device, "no_restart", reps=1)

    def test_bad_reps_rejected(self, device_factory):
        device = device_factory(Behavior.SILENT)
        with pytest.raises(ValueError, match="reps"):
            assess_device(device, SCENARIO_NON_RESTART, reps=0)


class TestAssessmentReport:
    def test_round_trip(self, device_factory, fast_settings, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=2, settings=fast_settings
        )
        path = tmp_path / "assessment.json"
        artifacts.write(path, artifacts.ASSESSMENT, result.to_dict())
        body = artifacts.read(path, artifacts.ASSESSMENT)
        assert body["schema"] == "assessment-report/1"
        assert body["scenario"] == "non_restart"
        assert body["reps"] == 2
        assert body["vulnerable"] is True
        assert body["accuracy"] == 1.0
        assert body["reason_counts"] == {"RegularFound": 2}
        assert len(body["runs"]) == 2
        assert body["runs"][0]["replay_took_effect"] is True

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "assessment-report/0"}')
        with pytest.raises(ArtifactError):
            artifacts.read(path, artifacts.ASSESSMENT)
