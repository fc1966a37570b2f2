"""Command-line workflows, driven in-process through click's test runner.

Each test exercises a user-visible flow end to end: artifact files on
disk, exit codes, and the operator-facing warnings. Devices come from
the conftest factory and answer on loopback.
"""

import json

import pytest
from click.testing import CliRunner

import replaycheck
from replaycheck import artifacts
from replaycheck.capture import SessionConfig, parse_capture
from replaycheck.cli import main
from replaycheck.replay import QueueEntry, ResponseQueue
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    DeviceState,
    companion_session,
    records_to_capture,
    trigger_state,
)
from replaycheck.verdict import Outcome, decide

APP = str(DEFAULT_APP_ENDPOINT)

# Loopback answers in microseconds; the library defaults pace for real gear.
FAST_FLAGS = [
    "--response-timeout-ms", "120",
    "--inter-request-delay-ms", "20",
    "--inter-flow-delay-ms", "30",
    "--connect-timeout-ms", "400",
]


def invoke(args, **kwargs):
    return CliRunner().invoke(main, args, **kwargs)


def write_training_capture(device, path):
    path.write_bytes(companion_session(device))
    return str(path)


def write_attack_capture(device, path):
    """One legitimate state-change command, recorded for later replay."""
    records = trigger_state(device, DeviceState.OBVERSE)
    path.write_bytes(records_to_capture(records))
    trigger_state(device, DeviceState.REVERSE)
    return str(path)


def write_queue(path, *entries):
    artifacts.write(path, artifacts.QUEUE, ResponseQueue(entries).to_dict())


def write_none_model(path):
    artifacts.write(path, artifacts.MODEL, {"kind": "none"})


def assert_bad_input(result, path):
    """Exit 2 with exactly one `error: <path>: <reason>` line, no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {path}: ")


def run_train(device, tmp_path, *extra):
    capture = write_training_capture(device, tmp_path / "train.pcap")
    model_out = tmp_path / "model.json"
    result = invoke(
        [
            "train",
            "--capture", capture,
            "--app", APP,
            "--device", str(device.endpoint),
            "--model-out", str(model_out),
            *extra,
        ]
    )
    return result, model_out


def run_attack(device, tmp_path, *extra):
    capture = write_attack_capture(device, tmp_path / "attack.pcap")
    queue_out = tmp_path / "queue.json"
    result = invoke(
        [
            "attack",
            "--capture", capture,
            "--app", APP,
            "--device", str(device.endpoint),
            "--queue-out", str(queue_out),
            *FAST_FLAGS,
            *extra,
        ]
    )
    return result, capture, queue_out


class TestTrain:
    def test_writes_lof_model(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result, model_out = run_train(device, tmp_path)
        assert result.exit_code == 0, result.output
        assert "trained lof model on 10 response payloads across 10 flows" in result.output
        assert "training response class: cleartext" in result.output
        body = json.loads(model_out.read_text())
        assert body["schema"] == "novelty-model/1"
        assert body["kind"] == "lof"
        assert len(body["points"]) == 10

    def test_standard_encrypted_warning(self, device_factory, tmp_path):
        device = device_factory(Behavior.TLS_LIKE)
        result, _ = run_train(device, tmp_path)
        assert result.exit_code == 0, result.output
        assert "standard security protocol" in result.stderr
        assert "expected to be rejected" in result.stderr

    def test_isolation_forest_few_patterns_warning(self, device_factory, tmp_path):
        # Two fixed acks is far too few patterns for a forest to split on.
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result, model_out = run_train(
            device, tmp_path, "--model-kind", "isolation_forest"
        )
        assert result.exit_code == 0, result.output
        assert "2 distinct response payloads" in result.stderr
        assert "prefer lof" in result.stderr
        assert json.loads(model_out.read_text())["kind"] == "isolation_forest"

    def test_silent_capture_trains_none_model(self, device_factory, tmp_path):
        device = device_factory(Behavior.SILENT)
        result, model_out = run_train(device, tmp_path)
        assert result.exit_code == 0, result.output
        assert "trained none model on 0 response payloads" in result.output
        assert json.loads(model_out.read_text())["kind"] == "none"
        assert artifacts.read(model_out, artifacts.MODEL) is None

    def test_wrong_endpoints_exit_no_connectivity(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = write_training_capture(device, tmp_path / "train.pcap")
        result = invoke(
            [
                "train",
                "--capture", capture,
                "--app", "10.9.9.9:1",
                "--device", str(device.endpoint),
                "--model-out", str(tmp_path / "model.json"),
            ]
        )
        assert result.exit_code == 3
        assert "no traffic between" in result.stderr

    def test_flag_overrides_config_file(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_k": 3}))

        result, model_out = run_train(device, tmp_path, "--config", str(config))
        assert result.exit_code == 0, result.output
        assert json.loads(model_out.read_text())["k"] == 3

        result, model_out = run_train(
            device, tmp_path, "--config", str(config), "--lof-k", "2"
        )
        assert result.exit_code == 0, result.output
        assert json.loads(model_out.read_text())["k"] == 2

    def test_unknown_config_key_is_usage_error(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_kay": 3}))
        result, _ = run_train(device, tmp_path, "--config", str(config))
        assert result.exit_code == 2
        assert "unknown settings keys" in result.stderr

    def test_bad_endpoint_is_usage_error(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = write_training_capture(device, tmp_path / "train.pcap")
        result = invoke(
            [
                "train",
                "--capture", capture,
                "--app", "not-an-endpoint",
                "--device", str(device.endpoint),
                "--model-out", str(tmp_path / "model.json"),
            ]
        )
        assert result.exit_code == 2

    def test_missing_capture_is_usage_error(self, tmp_path):
        result = invoke(
            [
                "train",
                "--capture", str(tmp_path / "nope.pcap"),
                "--app", APP,
                "--device", "127.0.0.1:9",
                "--model-out", str(tmp_path / "model.json"),
            ]
        )
        assert result.exit_code == 2


class TestAttack:
    def test_replays_and_writes_queue_and_transcript(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        transcript_out = tmp_path / "transcript.json"
        result, _, queue_out = run_attack(
            device, tmp_path, "--transcript-out", str(transcript_out)
        )
        assert result.exit_code == 0, result.output
        assert "replayed 1 flows" in result.output
        assert "collected 1 responses" in result.output
        queue = artifacts.read(queue_out, artifacts.QUEUE)
        assert len(queue) == 1
        transcript = json.loads(transcript_out.read_text())
        assert transcript["schema"] == "attack-transcript/1"
        assert len(transcript["flows"]) == 1

    def test_empty_queue_is_persisted(self, device_factory, tmp_path):
        # A silent device drops the stale replay; the queue file must
        # still be written so detect can reach its NoResponse verdict.
        device = device_factory(Behavior.SILENT)
        result, _, queue_out = run_attack(device, tmp_path)
        assert result.exit_code == 0, result.output
        assert "collected 0 responses" in result.output
        assert len(artifacts.read(queue_out, artifacts.QUEUE)) == 0

    def test_explicit_target_flag(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result, _, queue_out = run_attack(
            device, tmp_path, "--target", str(device.endpoint)
        )
        assert result.exit_code == 0, result.output
        assert len(artifacts.read(queue_out, artifacts.QUEUE)) == 1

    def test_non_loopback_target_needs_confirmation(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result, _, _ = run_attack(device, tmp_path, "--target", "192.0.2.1:9")
        assert result.exit_code == 2
        assert "--i-own-this-device" in result.stderr


class TestDetect:
    def full_chain(self, device, tmp_path, *detect_extra):
        train_result, model_out = run_train(device, tmp_path)
        assert train_result.exit_code == 0, train_result.output
        attack_result, capture, queue_out = run_attack(device, tmp_path)
        assert attack_result.exit_code == 0, attack_result.output
        detect_result = invoke(
            [
                "detect",
                "--queue", str(queue_out),
                "--model", str(model_out),
                "--attack-capture", capture,
                "--app", APP,
                "--device", str(device.endpoint),
                *detect_extra,
            ]
        )
        return detect_result, model_out, capture, queue_out

    def test_vulnerable_echo_exits_10(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        report_out = tmp_path / "verdict.json"
        result, _, _, _ = self.full_chain(
            device, tmp_path,
            "--report-out", str(report_out),
            "--device-id", "bench-plug",
            "--response-window", "2",
        )
        assert result.exit_code == 10, result.output
        assert "attack SUCCESSFUL (RegularFound)" in result.output
        body = json.loads(report_out.read_text())
        assert body["schema"] == "verdict-report/1"
        assert body["device_id"] == "bench-plug"
        assert body["outcome"] == "SUCCESSFUL"
        assert body["reason"] == "RegularFound"
        assert body["scenario"] == "non_restart"
        assert body["j"] == 2
        assert body["model_kind"] == "lof"

    def test_file_flow_matches_in_process_decision(self, device_factory, tmp_path):
        """The three-phase file flow and a direct decide() must agree."""
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result, model_out, capture, queue_out = self.full_chain(device, tmp_path)
        session = SessionConfig(app=DEFAULT_APP_ENDPOINT, device=device.endpoint)
        verdict = decide(
            artifacts.read(queue_out, artifacts.QUEUE),
            parse_capture((tmp_path / "attack.pcap").read_bytes(), session),
            artifacts.read(model_out, artifacts.MODEL),
        )
        expected = 10 if verdict.outcome == Outcome.SUCCESSFUL else 11
        assert result.exit_code == expected
        assert f"attack {verdict.outcome.value} ({verdict.reason.value})" in result.output

    def test_tls_like_fails_on_protocol_check(self, device_factory, tmp_path):
        device = device_factory(Behavior.TLS_LIKE)
        result, _, _, _ = self.full_chain(device, tmp_path)
        assert result.exit_code == 11, result.output
        assert "attack FAILED (StandardProtocol)" in result.output

    def test_silent_fails_with_no_response(self, device_factory, tmp_path):
        device = device_factory(Behavior.SILENT)
        result, _, _, _ = self.full_chain(device, tmp_path)
        assert result.exit_code == 11, result.output
        assert "attack FAILED (NoResponse)" in result.output

    def test_ml_step_without_model_exits_1(self, device_factory, tmp_path):
        # A non-empty, non-standard queue forces the model step; with a
        # none model that is an operator error, not a verdict.
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = write_attack_capture(device, tmp_path / "attack.pcap")
        queue_out = tmp_path / "queue.json"
        write_queue(queue_out, QueueEntry(0.01, 0, b"some reply"))
        model_out = tmp_path / "model.json"
        write_none_model(model_out)
        result = invoke(
            [
                "detect",
                "--queue", str(queue_out),
                "--model", str(model_out),
                "--attack-capture", capture,
                "--app", APP,
                "--device", str(device.endpoint),
            ]
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr


PCAPNG_HEADER = bytes.fromhex("0a0d0d0a") + bytes(28)
TRUNCATED_HEADER = bytes.fromhex("d4c3b2a1") + bytes(6)


class TestMalformedInput:
    """Malformed captures and artifacts exit 2 with a one-line error."""

    @pytest.mark.parametrize(
        "data", [PCAPNG_HEADER, TRUNCATED_HEADER], ids=["pcapng", "truncated-10-bytes"]
    )
    @pytest.mark.parametrize("command", ["train", "attack", "detect"])
    def test_malformed_capture(self, tmp_path, command, data):
        capture = tmp_path / "bad.pcap"
        capture.write_bytes(data)
        queue_path, model_path = tmp_path / "queue.json", tmp_path / "model.json"
        write_queue(queue_path)
        write_none_model(model_path)
        outputs = {
            "train": ["--capture", str(capture), "--model-out", str(model_path)],
            "attack": ["--capture", str(capture), "--queue-out", str(queue_path)],
            "detect": [
                "--attack-capture", str(capture),
                "--queue", str(queue_path),
                "--model", str(model_path),
            ],
        }
        result = invoke(
            [command, "--app", APP, "--device", "127.0.0.1:9", *outputs[command], *FAST_FLAGS]
        )
        assert_bad_input(result, capture)

    @pytest.mark.parametrize(
        "bad, text",
        [
            ("queue", '{"schema": "response-queue/1"}'),
            ("model", "not json {"),
            ("model", '{"schema": "novelty-model/2", "kind": "none"}'),
            ("model", '{"schema": "response-queue/1", "responses": []}'),
        ],
        ids=["queue-without-responses", "non-json-model", "unknown-schema-model", "queue-as-model"],
    )
    def test_detect_malformed_artifact(self, tmp_path, bad, text):
        capture = tmp_path / "attack.pcap"
        capture.write_bytes(records_to_capture([]))
        paths = {"queue": tmp_path / "queue.json", "model": tmp_path / "model.json"}
        write_queue(paths["queue"], QueueEntry(0.01, 0, b"some reply"))
        write_none_model(paths["model"])
        paths[bad].write_text(text)
        result = invoke(
            [
                "detect",
                "--queue", str(paths["queue"]),
                "--model", str(paths["model"]),
                "--attack-capture", str(capture),
                "--app", APP,
                "--device", "127.0.0.1:9",
            ]
        )
        assert_bad_input(result, paths[bad])


class TestAssess:
    def run_assess(self, tmp_path, behavior, *extra):
        report_out = tmp_path / "assessment.json"
        result = invoke(
            [
                "assess",
                "--behavior", behavior,
                "--reps", "2",
                "--post-restart-delay", "0.05",
                "--report-out", str(report_out),
                *FAST_FLAGS,
                *extra,
            ]
        )
        return result, report_out

    def test_echo_judged_vulnerable(self, tmp_path):
        result, report_out = self.run_assess(tmp_path, "cleartext_echo")
        assert result.exit_code == 10, result.output
        assert "VULNERABLE: cleartext_echo@" in result.output
        assert "NOT VULNERABLE" not in result.output
        assert "RegularFound: 2" in result.output
        body = artifacts.read(report_out, artifacts.ASSESSMENT)
        assert body["vulnerable"] is True
        assert body["accuracy"] == 1.0
        assert body["reason_counts"] == {"RegularFound": 2}
        assert all(run["replay_took_effect"] for run in body["runs"])

    def test_tls_like_judged_not_vulnerable(self, tmp_path):
        result, report_out = self.run_assess(tmp_path, "tls_like")
        assert result.exit_code == 11, result.output
        assert "NOT VULNERABLE: tls_like@" in result.output
        body = artifacts.read(report_out, artifacts.ASSESSMENT)
        assert body["vulnerable"] is False
        assert body["reason_counts"] == {"StandardProtocol": 2}

    def test_session_key_restart_not_vulnerable(self, tmp_path):
        result, report_out = self.run_assess(
            tmp_path, "session_key", "--scenario", "restart"
        )
        assert result.exit_code == 11, result.output
        assert "AllIrregular: 2" in result.output
        assert artifacts.read(report_out, artifacts.ASSESSMENT)["scenario"] == "restart"

    def test_session_key_without_rekey_stays_vulnerable(self, tmp_path):
        result, _ = self.run_assess(
            tmp_path, "session_key", "--scenario", "restart", "--no-rekey-on-restart"
        )
        assert result.exit_code == 10, result.output

    def test_bad_scenario_is_usage_error(self, tmp_path):
        result, _ = self.run_assess(tmp_path, "cleartext_echo", "--scenario", "reboot")
        assert result.exit_code == 2

    def test_zero_reps_is_an_error(self, tmp_path):
        result = invoke(["assess", "--behavior", "silent", "--reps", "0", *FAST_FLAGS])
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)


class TestSimulate:
    def test_writes_training_capture_and_stops(self, tmp_path):
        capture_out = tmp_path / "train.pcap"
        result = invoke(
            [
                "simulate",
                "--behavior", "cleartext_echo",
                "--training-capture-out", str(capture_out),
                "--duration", "0",
            ]
        )
        assert result.exit_code == 0, result.output
        assert "device listening on" in result.output
        # The announced endpoint must match the capture's device side.
        endpoint = result.output.split("listening on ")[1].split()[0]
        host, port = endpoint.rsplit(":", 1)
        session = SessionConfig(
            app=DEFAULT_APP_ENDPOINT,
            device=type(DEFAULT_APP_ENDPOINT)(host, int(port)),
        )
        records = parse_capture(capture_out.read_bytes(), session)
        assert len(records) == 20


class TestReport:
    def write(self, tmp_path, body):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(body))
        return str(path)

    def test_describes_model_file(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        _, model_out = run_train(device, tmp_path)
        result = invoke(["report", str(model_out)])
        assert result.exit_code == 0, result.output
        assert "novelty model, kind lof" in result.output
        assert "k=5 (effective 5)" in result.output
        assert "10 training points" in result.output

    def test_describes_none_model(self, tmp_path):
        path = tmp_path / "model.json"
        write_none_model(path)
        result = invoke(["report", str(path)])
        assert result.exit_code == 0
        assert "kind none" in result.output
        assert "cheap checks only" in result.output

    def test_describes_queue(self, tmp_path):
        path = tmp_path / "queue.json"
        write_queue(path, QueueEntry(0.25, 0, b"abcdef"), QueueEntry(0.50, 1, b"ghij"))
        result = invoke(["report", str(path)])
        assert result.exit_code == 0
        assert "response queue: 2 responses" in result.output
        assert "flow 0" in result.output and "flow 1" in result.output

    def test_describes_transcript(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "schema": "attack-transcript/1",
                "flows": [
                    {
                        "scheduled_position": 0,
                        "original_index": 2,
                        "request_lengths": [48, 48],
                        "response_count": 1,
                        "note": None,
                    }
                ],
            },
        )
        result = invoke(["report", path])
        assert result.exit_code == 0
        assert "attack transcript: 1 flows replayed" in result.output
        assert "position 0 <- capture flow 2" in result.output

    def test_describes_verdict_report(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "schema": "verdict-report/1",
                "device_id": "plug",
                "outcome": "FAILED",
                "reason": "AllIrregular",
                "scenario": "restart",
                "labels": ["irregular", "irregular"],
                "j": 3,
            },
        )
        result = invoke(["report", path])
        assert result.exit_code == 0
        assert "verdict for plug: FAILED (AllIrregular), scenario restart" in result.output
        assert "labels: irregular, irregular (window 3)" in result.output

    def test_describes_assessment_report(self, tmp_path):
        path = self.write(
            tmp_path,
            {
                "schema": "assessment-report/1",
                "device_id": "plug",
                "scenario": "non_restart",
                "vulnerable": True,
                "reps": 50,
                "accuracy": 1.0,
                "reason_counts": {"RegularFound": 50},
            },
        )
        result = invoke(["report", path])
        assert result.exit_code == 0
        assert "assessment of plug" in result.output
        assert "VULNERABLE" in result.output

    def test_rejects_unknown_schema(self, tmp_path):
        result = invoke(["report", self.write(tmp_path, {"schema": "mystery/9"})])
        assert result.exit_code == 2
        assert "unrecognized artifact schema" in result.stderr

    def test_rejects_model_missing_fields(self, tmp_path):
        path = self.write(tmp_path, {"schema": "novelty-model/1", "kind": "lof"})
        result = invoke(["report", path])
        assert_bad_input(result, path)
        assert "missing field" in result.stderr

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("not json {")
        result = invoke(["report", str(path)])
        assert result.exit_code == 2
        assert "is not JSON" in result.stderr


class TestEntryPoint:
    def test_version_flag(self):
        result = invoke(["--version"])
        assert result.exit_code == 0
        assert "version" in result.output
        assert replaycheck.__version__ in result.output
        assert "replaycheck" in result.output

    def test_help_lists_all_commands(self):
        result = invoke(["--help"])
        assert result.exit_code == 0
        for command in ("train", "attack", "detect", "assess", "simulate", "report"):
            assert command in result.output
