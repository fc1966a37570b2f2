"""Command-line workflows, driven in-process through click's test runner.

Each test exercises a user-visible flow end to end: artifact files on
disk, exit codes, and the operator-facing warnings. Devices come from
the conftest factory and answer on loopback.
"""

import json
import re
import socket
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import replaycheck
from replaycheck import artifacts, cli
from replaycheck.capture import SessionConfig, parse_capture, records_to_capture
from replaycheck.cli import main
from replaycheck.models import train_lof
from replaycheck.pipeline import PipelineSettings
from replaycheck.replay import QueueEntry, ResponseQueue
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    DeviceState,
    companion_session,
    query_state,
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


def assert_bad_input(result, source, reason=""):
    """Exit 2 with exactly one stderr line, `error: <source>: ...` holding
    reason, and no traceback. The source is the file or flag the bad value
    came from; None is an error about no one input (the trainer's subsample
    bound, an app endpoint equal to the device's)."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: " if source is None else f"error: {source}: "), lines[0]
    assert reason in lines[0]


def assert_usage_error(result, reason):
    """Exit 2 in click's usage form, kept for what click parses itself: an
    unknown flag, a missing option, a value outside a click type."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Usage: ")
    assert f"Error: {reason}" in result.stderr


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
        assert_bad_input(result, config, "unknown settings keys: ['lof_kay']")

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
        assert_bad_input(result, "--app", "expected ADDRESS:PORT, got 'not-an-endpoint'")

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
        assert set(transcript["flows"][0]) == {
            "scheduled_position", "original_index", "transport", "request_lengths",
            "expected_responses", "response_count", "note",
        }
        assert transcript["flows"][0]["expected_responses"] == 1
        assert transcript["flows"][0]["response_count"] == 1
        summary = invoke(["report", str(transcript_out)])
        assert summary.exit_code == 0, summary.output
        assert "1 of 1 captured responses" in summary.output

    def test_empty_queue_is_persisted(self, device_factory, tmp_path):
        # A silent device drops the stale replay; the queue file must
        # still be written so detect can reach its NoResponse verdict.
        device = device_factory(Behavior.SILENT)
        result, _, queue_out = run_attack(device, tmp_path)
        assert result.exit_code == 0, result.output
        assert "collected 0 responses" in result.output
        assert len(artifacts.read(queue_out, artifacts.QUEUE)) == 0

    def test_unwritable_queue_out_replays_nothing(self, device_factory, tmp_path):
        """The output path is checked before any flow is sent, so the device
        does not act on a replay whose responses could not be kept."""
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        out = tmp_path / "missing" / "queue.json"
        result, _, _ = run_attack(device, tmp_path, "--queue-out", str(out))
        assert_bad_input(result, out)
        assert query_state(device) == DeviceState.REVERSE

    def test_closed_port_notes_each_flow_and_exits_0(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = tmp_path / "training.pcap"
        capture.write_bytes(companion_session(device, script=[DeviceState.OBVERSE] * 3))
        device.shutdown()
        queue_out = tmp_path / "queue.json"
        result = invoke([
            "attack", "--capture", str(capture), "--app", APP,
            "--device", str(device.endpoint), "--queue-out", str(queue_out), *FAST_FLAGS,
        ])
        assert result.exit_code == 0, result.output
        notes = [line for line in result.output.splitlines() if line.startswith("note: ")]
        assert len(notes) == 3
        assert all(line.startswith(f"note: connect to {device.endpoint} failed") for line in notes)
        summary = invoke(["report", str(queue_out)])
        assert summary.exit_code == 0, summary.output
        assert "response queue: 0 responses" in summary.output

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
        assert_bad_input(result, "--target", "192.0.2.1 is not loopback; pass --i-own-this-device")


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
            "attack": ["--capture", str(capture), "--queue-out", str(queue_path), *FAST_FLAGS],
            "detect": [
                "--attack-capture", str(capture),
                "--queue", str(queue_path),
                "--model", str(model_path),
            ],
        }
        result = invoke([command, "--app", APP, "--device", "127.0.0.1:9", *outputs[command]])
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

    @pytest.mark.parametrize(
        "body",
        [
            train_lof(np.arange(15, dtype=float).reshape(5, 3) ** 2).to_dict(),
            {
                "kind": "isolation_forest",
                "trees": [{"f": 24, "t": 0.5, "l": {"n": 1}, "r": {"n": 1}}],
                "subsample": 2,
                "seed": 0,
                "anomaly_cutoff": 0.6,
            },
        ],
        ids=["lof-3-dimensions", "forest-split-on-feature-24"],
    )
    def test_detect_model_for_another_feature_width(self, tmp_path, body):
        capture = tmp_path / "attack.pcap"
        capture.write_bytes(records_to_capture([]))
        queue_path, model_path = tmp_path / "queue.json", tmp_path / "model.json"
        write_queue(queue_path, QueueEntry(0.01, 0, b"some reply"))
        artifacts.write(model_path, artifacts.MODEL, body)
        result = invoke(
            [
                "detect",
                "--queue", str(queue_path),
                "--model", str(model_path),
                "--attack-capture", str(capture),
                "--app", APP,
                "--device", "127.0.0.1:9",
            ]
        )
        assert_bad_input(result, model_path)


# command, flags, the source the error line names, and its reason. The last
# flag is the bad one; only the trainer knows the training set, so its
# subsample bound names no flag.
INVALID_SETTINGS = [
    ("train", ["--lof-k", "0"], "--lof-k", "k must be"),
    ("train", ["--lof-threshold", "1.0"], "--lof-threshold", "threshold must"),
    ("train", ["--lof-threshold", "inf"], "--lof-threshold", "threshold must"),
    ("assess", ["--lof-threshold", "Infinity"], "--lof-threshold", "threshold must"),
    ("train", ["--model-kind", "isolation_forest", "--seed", "-1"], "--seed", "seed must"),
    ("train", ["--model-kind", "isolation_forest", "--trees", "0"], "--trees", "trees must"),
    ("train", ["--model-kind", "isolation_forest", "--anomaly-cutoff", "1.5"], "--anomaly-cutoff", "anomaly_cutoff"),
    ("train", ["--model-kind", "isolation_forest", "--subsample", "1"], "--subsample", "subsample"),
    ("attack", ["--response-timeout-ms", "0"], "--response-timeout-ms", "per_flow_response_timeout_ms"),
    ("attack", ["--connect-timeout-ms", "100000000000000000000"], "--connect-timeout-ms", "connect_timeout_ms"),
    ("assess", ["--lof-k", "0"], "--lof-k", "k must be"),
    ("assess", ["--model-kind", "isolation_forest", "--subsample", "50"], None, "subsample must be in [2, "),
    ("detect", ["--response-window", "0"], "--response-window", "response_window"),
]


def run_command(command, device, tmp_path, *flags):
    """Run one command on valid inputs, so only the given flags can be wrong.

    attack runs at the library's real-device timings unless the flags set
    faster ones.
    """
    if command == "train":
        return run_train(device, tmp_path, *flags)[0]
    if command == "attack":
        capture = write_attack_capture(device, tmp_path / "attack.pcap")
        return invoke(
            [
                "attack",
                "--capture", capture,
                "--app", APP,
                "--device", str(device.endpoint),
                "--queue-out", str(tmp_path / "queue.json"),
                *flags,
            ]
        )
    if command == "assess":
        return invoke(["assess", "--behavior", "cleartext_echo", "--reps", "1", *FAST_FLAGS, *flags])
    queue, model = tmp_path / "queue.json", tmp_path / "model.json"
    write_queue(queue)
    write_none_model(model)
    return invoke(
        [
            "detect",
            "--queue", str(queue),
            "--model", str(model),
            "--attack-capture", write_attack_capture(device, tmp_path / "a.pcap"),
            "--app", APP,
            "--device", str(device.endpoint),
            *flags,
        ]
    )


def write_config(tmp_path, **values):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps(values))
    return str(config)


MODEL_SETTINGS = {"model_kind", "lof_k", "lof_threshold", "trees", "subsample", "anomaly_cutoff", "seed"}
TIMING_SETTINGS = {
    "per_flow_response_timeout_ms",
    "inter_request_delay_ms",
    "inter_flow_delay_ms",
    "connect_timeout_ms",
}
# Valid values for all twelve keys, at the suite's fast loopback timings.
ALL_SETTINGS = dict(
    model_kind="lof",
    lof_k=3,
    lof_threshold=1.5,
    trees=10,
    subsample=8,
    anomaly_cutoff=0.6,
    seed=1,
    response_window=3,
    per_flow_response_timeout_ms=120,
    inter_request_delay_ms=20,
    inter_flow_delay_ms=30,
    connect_timeout_ms=400,
)
MISTYPED_SETTINGS = [
    ({"lof_k": "5"}, "lof_k must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"per_flow_response_timeout_ms": "x"}, "per_flow_response_timeout_ms must be an integer"),
    ({"response_window": 2.5}, "response_window must be an integer"),
    ({"lof_threshold": None}, "lof_threshold must be a number"),
    ({"subsample": "all"}, "subsample must be an integer or null"),
    ({"model_kind": ["lof"]}, "model_kind must be a string"),
]


class TestInvalidSettings:
    """Every setting a check rejects is exit 2 with one error line."""

    @pytest.mark.parametrize(
        "command, flags, source, reason",
        INVALID_SETTINGS,
        ids=["-".join([command] + [f.lstrip("-") for f in flags]) for command, flags, *_ in INVALID_SETTINGS],
    )
    def test_exits_2_without_traceback(self, device_factory, tmp_path, command, flags, source, reason):
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, *flags)
        assert_bad_input(result, source, reason)

    @pytest.mark.parametrize("command", ["train", "attack", "detect"])
    @pytest.mark.parametrize(
        "values, reason",
        MISTYPED_SETTINGS,
        ids=[next(iter(values)) for values, _ in MISTYPED_SETTINGS],
    )
    def test_mistyped_config_value_exits_2(self, device_factory, tmp_path, command, values, reason):
        config = write_config(tmp_path, **{**ALL_SETTINGS, **values})
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, "--config", config)
        assert_bad_input(result, config, reason)

    @pytest.mark.parametrize("command", ["train", "attack", "detect", "assess"])
    def test_deeply_nested_config_exits_2(self, device_factory, tmp_path, command):
        config = tmp_path / "settings.json"
        config.write_text("[" * 200_000)
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, "--config", str(config))
        assert_bad_input(result, config, "is not JSON")

    @pytest.mark.parametrize("command", ["train", "attack", "detect", "assess"])
    @pytest.mark.parametrize(
        "content, reason",
        [(b"lof_k = 5", "is not JSON"), (b"\x80{}", "is not JSON"), (b"[1, 2]", "is not a JSON object")],
        ids=["not-json", "not-utf8", "not-an-object"],
    )
    def test_malformed_config_is_one_error_naming_the_file(self, device_factory, tmp_path, command, content, reason):
        # The artifact codec reads it, so the reason is the one a malformed artifact gives.
        config = tmp_path / "settings.json"
        config.write_bytes(content)
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, "--config", str(config))
        assert_bad_input(result, config, reason)

    def test_infinite_threshold_in_config_exits_2(self, device_factory, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text('{"lof_threshold": Infinity}')
        result = run_command("train", device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, "--config", str(config))
        assert_bad_input(result, config, "threshold must")

    def test_config_key_checked_by_a_command_that_does_not_read_it(self, device_factory, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        config = write_config(tmp_path, trees=0)
        result = run_command("attack", device, tmp_path, "--config", config)
        assert_bad_input(result, config, "trees must")
        assert not (tmp_path / "queue.json").exists()

    @pytest.mark.parametrize("command", ["train", "attack", "detect"])
    def test_config_may_hold_every_key(self, device_factory, tmp_path, command):
        config = write_config(tmp_path, **ALL_SETTINGS)
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, "--config", config)
        assert result.exit_code in (0, 10, 11), result.output

    @pytest.mark.parametrize("command", ["train", "assess"])
    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--lof-k", "0"], "k must be"),
            (["--model-kind", "isolation_forest", "--subsample", "1"], "subsample"),
        ],
        ids=["lof-k-0", "subsample-1"],
    )
    def test_checked_with_nothing_to_train_on(self, device_factory, tmp_path, command, flags, reason):
        # A silent capture holds no responses, so no trainer runs.
        if command == "train":
            result, model_out = run_train(device_factory(Behavior.SILENT), tmp_path, *flags)
            assert not model_out.exists()
        else:
            args = ["assess", "--behavior", "silent", "--reps", "1", *FAST_FLAGS]
            result = invoke([*args, *flags])
        assert_bad_input(result, flags[-2], reason)


class TestEndpointFlags:
    """An endpoint a session or a replay cannot use is exit 2 with one error
    line, and nothing is replayed."""

    @pytest.mark.parametrize("command", ["train", "attack", "detect"])
    def test_app_equal_to_device(self, device_factory, tmp_path, command):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = run_command(command, device, tmp_path, "--app", str(device.endpoint))
        assert_bad_input(result, None, "app and device endpoints must differ")
        assert query_state(device) == DeviceState.REVERSE

    @pytest.mark.parametrize(
        "target, reason",
        [
            ("not-an-endpoint", "expected ADDRESS:PORT"),
            ("127.0.0.1:70000", "out of range"),
            ("device.local:80", "does not appear to be an IPv4 or IPv6 address"),
        ],
    )
    def test_malformed_attack_target(self, device_factory, tmp_path, target, reason):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = run_command("attack", device, tmp_path, *FAST_FLAGS, "--target", target)
        assert_bad_input(result, "--target", reason)
        assert query_state(device) == DeviceState.REVERSE
        assert not (tmp_path / "queue.json").exists()


class TestSettingsFlags:
    """Each command offers --config and the settings flags of the phases it runs."""

    def test_each_command_offers_only_the_settings_it_reads(self):
        detection = {"response_window"}
        expected = {
            "train": MODEL_SETTINGS,
            "attack": TIMING_SETTINGS,
            "detect": detection,
            "assess": MODEL_SETTINGS | TIMING_SETTINGS | detection,
        }
        for command, settings in expected.items():
            names = {param.name for param in main.commands[command].params}
            assert names & set(ALL_SETTINGS) == settings, command
            assert "config_path" in names, command
        assert sum(map(len, expected.values())) == 24

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", ["--inter-flow-delay-ms", "5"]),
            ("attack", ["--lof-k", "3"]),
            ("detect", ["--model-kind", "lof"]),
            ("detect", ["--connect-timeout-ms", "5"]),
        ],
        ids=["train-inter-flow-delay-ms", "attack-lof-k", "detect-model-kind", "detect-connect-timeout-ms"],
    )
    def test_settings_flag_a_command_does_not_read_is_rejected(self, device_factory, tmp_path, command, flag):
        result = run_command(command, device_factory(Behavior.CLEARTEXT_ECHO), tmp_path, *flag)
        assert_usage_error(result, f"No such option '{flag[0]}'")


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
        assert_usage_error(result, "Invalid value for '--reps'")


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


DEVICE_COMMANDS = {
    "assess": ["assess", "--behavior", "cleartext_echo", "--reps", "1", *FAST_FLAGS],
    "simulate": ["simulate", "--behavior", "cleartext_echo", "--duration", "0"],
}


class TestDeviceFlags:
    """A device flag that cannot be served is exit 2 with one error line."""

    @pytest.mark.parametrize("command", DEVICE_COMMANDS)
    def test_port_out_of_range(self, command):
        result = invoke([*DEVICE_COMMANDS[command], "--port", "70000"])
        assert_usage_error(result, "Invalid value for '--port'")

    @pytest.mark.parametrize("command", DEVICE_COMMANDS)
    def test_busy_port(self, command):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            result = invoke([*DEVICE_COMMANDS[command], "--port", str(port)])
        assert_bad_input(result, f"cannot bind 127.0.0.1:{port}", "Address already in use")

    @pytest.mark.parametrize(
        "command, flag",
        [("assess", "--post-restart-delay"), ("simulate", "--duration")],
    )
    def test_negative_seconds(self, command, flag):
        for value in ("-1", "nan", "inf"):
            result = invoke([*DEVICE_COMMANDS[command], flag, value])
            assert_usage_error(result, f"Invalid value for '{flag}'")


OUTPUT_FLAGS = [
    ("train", "--model-out"),
    ("attack", "--queue-out"),
    ("attack", "--transcript-out"),
    ("detect", "--report-out"),
    ("assess", "--report-out"),
    ("simulate", "--training-capture-out"),
]


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_unwritable_output_exits_2(device_factory, tmp_path, command, flag):
    """An output path in a missing directory is one `error: <path>:` line."""
    out = tmp_path / "missing" / "out"
    if command == "simulate":
        result = invoke([*DEVICE_COMMANDS["simulate"], flag, str(out)])
    else:
        timings = FAST_FLAGS if command == "attack" else []
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = run_command(command, device, tmp_path, *timings, flag, str(out))
    assert_bad_input(result, out)
    assert "No such file or directory" in result.stderr
    assert result.stdout == ""  # checked before any work, so nothing is reported done


def test_error_naming_no_file_is_not_turned_into_an_error_line(monkeypatch, tmp_path):
    """The boundary names the file an OSError is about; one about no file,
    such as a reset connection, is not a bad input and propagates."""
    path = tmp_path / "model.json"
    write_none_model(path)

    def reset(_):
        raise ConnectionResetError(104, "Connection reset by peer")

    monkeypatch.setattr(artifacts, "read_any", reset)
    result = invoke(["report", str(path)])
    assert isinstance(result.exception, ConnectionResetError)
    assert "error:" not in result.stderr


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
        # Written before flows recorded expected_responses; still summarized.
        assert "position 0 <- capture flow 2: 2 requests, 1 responses" in result.output

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

    @pytest.mark.parametrize("command", ["assess", "simulate"])
    def test_port_help_advises_a_port_below_the_ephemeral_range(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0
        assert "below 32768" in " ".join(result.output.split())


README = Path(__file__).parents[1] / "README.md"


def readme_rows(first_header):
    """The body rows of README's table whose first column is headed
    first_header, each a list of its cells."""
    rows, inside = [], False
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] == first_header:
            inside = True
        elif inside and not set(cells[0]) <= set("-: "):
            rows.append(cells)
    return rows


README_EXIT_CODES = {int(code) for code, _ in readme_rows("exit")}


class TestReadmeAgrees:
    """README's exit-code and settings tables say what the code does."""

    def test_exit_code_table(self):
        meanings = {int(code): meaning for code, meaning in readme_rows("exit")}
        constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert set(meanings) == {0} | constants
        assert "SUCCESSFUL" in meanings[cli.EXIT_VULNERABLE]
        assert "FAILED" in meanings[cli.EXIT_NOT_VULNERABLE]
        assert "bad input" in meanings[cli.EXIT_BAD_INPUT]
        assert "no traffic" in meanings[cli.EXIT_NO_CONNECTIVITY]
        assert "none was trained" in meanings[cli.EXIT_NO_MODEL]

    def test_settings_table(self):
        rows = {key.strip("`"): (default, read_by) for key, default, read_by, _ in readme_rows("key")}
        assert list(rows) == [field.name for field in fields(PipelineSettings)]
        defaults = PipelineSettings()
        for name, (default, read_by) in rows.items():
            value = getattr(defaults, name)
            assert default.strip("`") == ("auto" if value is None else str(value)), name
            readers = {
                command_name
                for command_name, command in main.commands.items()
                if name in {param.name for param in command.params}
            }
            assert set(re.findall(r"`(\w+)`", read_by)) == readers, name


ECHO = Path(__file__).parent / "artifact_corpus" / "cleartext_echo"
ECHO_SESSION = ["--app", "10.77.0.2:38200", "--device", "127.0.0.1:33477"]
# The bytes of each file a command reads, by the flag that names it.
INPUTS = {
    "capture": Path(f"{ECHO}.training.pcap").read_bytes(),
    "attack-capture": Path(f"{ECHO}.attack.pcap").read_bytes(),
    **{name: Path(f"{ECHO}.{name}.json").read_bytes() for name in ("model", "queue", "transcript", "verdict", "assessment")},
    "config": json.dumps(ALL_SETTINGS).encode(),
}
COMMAND_INPUTS = [
    ("train", "capture"), ("train", "config"),
    ("attack", "attack-capture"), ("attack", "config"),
    ("detect", "queue"), ("detect", "model"), ("detect", "attack-capture"), ("detect", "config"),
    ("assess", "config"),
    *(("report", name) for name in ("model", "queue", "transcript", "verdict", "assessment")),
]


def command_line(command, name, paths, out):
    """The command reading the files in paths, at loopback timings; report
    reads the one called name. attack aims at the discard port, so a replay
    is refused at once."""
    config = ["--config", paths["config"]]
    if command == "train":
        return ["train", "--capture", paths["capture"], *ECHO_SESSION, "--model-out", out / "model.json", *config]
    if command == "attack":
        return [
            "attack", "--capture", paths["attack-capture"], *ECHO_SESSION, "--target", "127.0.0.1:9",
            "--queue-out", out / "queue.json", *config, *FAST_FLAGS,
        ]
    if command == "detect":
        return [
            "detect", "--queue", paths["queue"], "--model", paths["model"],
            "--attack-capture", paths["attack-capture"], *ECHO_SESSION, *config,
        ]
    if command == "assess":
        return ["assess", "--behavior", "cleartext_echo", "--reps", "1", "--post-restart-delay", "0", *config, *FAST_FLAGS]
    return ["report", paths[name]]


@st.composite
def mutations(draw, data):
    """data changed at the byte level, as a damaged or hand-edited file is."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice", "not-utf8", "nest", "huge-number"]))
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        at = min(at, len(data) - 1)
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "splice":
        other = INPUTS[draw(st.sampled_from(sorted(INPUTS)))]
        return data[:at] + other[draw(st.integers(0, len(other))):]
    if kind == "not-utf8":
        return data[:at] + draw(st.sampled_from([b"\x80", b"\xc3\x28", b"\xff\xfe"])) + data[at:]
    if kind == "nest":
        return data[:at] + b"[" * 200_000 + data[at:]
    numbers = [match.span() for match in re.finditer(rb"\d+", data)] or [(at, at)]
    start, end = draw(st.sampled_from(numbers))
    return data[:start] + b"9" * 400 + data[end:]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    for name, data in INPUTS.items():
        (folder / name).write_bytes(data)
    return folder


@settings(max_examples=280, deadline=None)
@given(data=st.data())
def test_any_damaged_input_file_is_one_error_line_naming_it(inputs_dir, data):
    """Every command, given one damaged file among valid ones, exits with a
    code from README's table and never a traceback; on exit 2 it prints
    one `error: <file>: <reason>` line."""
    command, name = data.draw(st.sampled_from(COMMAND_INPUTS), label="command, file")
    damaged = inputs_dir / f"damaged-{name}"
    damaged.write_bytes(data.draw(mutations(INPUTS[name]), label="bytes"))
    paths = {**{other: inputs_dir / other for other in INPUTS}, name: damaged}
    result = invoke([str(arg) for arg in command_line(command, name, paths, inputs_dir)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in README_EXIT_CODES, result.output
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert_bad_input(result, damaged)
