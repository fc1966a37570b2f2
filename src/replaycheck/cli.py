"""Command-line interface.

Commands mirror the assessment stages: train, attack, detect, plus
the all-in-one assess loop and a simulate helper that serves the
built-in device profiles for manual experiments.

Exit codes: 0 success, 10 device judged vulnerable (attack SUCCESSFUL),
11 not vulnerable (attack FAILED), 2 usage error or a malformed artifact
or capture, 3 the capture shows no traffic between the given endpoints,
1 detect needed a model but none was trained.
"""

from __future__ import annotations

import ipaddress
import time
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

import click

from . import __version__, artifacts
from .artifacts import ArtifactError
from .capture import SessionConfig, parse_capture, parse_endpoint
from .models import IsolationForestModel, LofModel
from .pcap import PcapError
from .protocols import ResponseClass
from .pipeline import (
    MODEL_KINDS,
    SCENARIO_NON_RESTART,
    SCENARIOS,
    NoLocalConnectivityError,
    assess_device,
    attack_from_capture,
    load_settings,
    train_from_capture,
)
from .simdevices import (
    Behavior,
    companion_session,
    default_profile,
    spawn_device,
)
from .verdict import Outcome, decide

EXIT_NO_MODEL = 1
EXIT_VULNERABLE = 10
EXIT_NOT_VULNERABLE = 11
EXIT_BAD_INPUT = 2
EXIT_NO_CONNECTIVITY = 3


def _settings_options(fn):
    options = [
        click.option(
            "--config",
            "config_path",
            type=click.Path(exists=True, dir_okay=False),
            default=None,
            help="JSON settings file; explicit flags override its keys.",
        ),
        click.option("--model-kind", type=click.Choice(MODEL_KINDS), default=None),
        click.option("--lof-k", type=int, default=None, help="LOF neighbor count."),
        click.option("--lof-threshold", type=float, default=None),
        click.option("--trees", type=int, default=None, help="Isolation forest size."),
        click.option("--subsample", type=int, default=None),
        click.option("--anomaly-cutoff", type=float, default=None),
        click.option("--seed", type=int, default=None, help="Forest RNG seed."),
        click.option(
            "--response-window",
            type=int,
            default=None,
            help="How many leading attack responses the model inspects.",
        ),
        click.option("--response-timeout-ms", "per_flow_response_timeout_ms", type=int, default=None),
        click.option("--inter-request-delay-ms", type=int, default=None),
        click.option("--inter-flow-delay-ms", type=int, default=None),
        click.option("--connect-timeout-ms", type=int, default=None),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _build_settings(config_path, **overrides):
    try:
        return load_settings(config_path, **overrides)
    except (ValueError, OSError) as exc:
        raise click.UsageError(str(exc))


def _session(app: str, device: str) -> SessionConfig:
    try:
        return SessionConfig(app=parse_endpoint(app), device=parse_endpoint(device))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _read_capture(path: str) -> bytes:
    return Path(path).read_bytes()


def _fail(message: object, code: int = EXIT_BAD_INPUT) -> NoReturn:
    """One `error:` line on stderr, then exit; exit 2 is a malformed input."""
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _guard_target(address: str, authorized: bool):
    # Assessing gear you do not own is an attack, not an assessment.
    if not ipaddress.ip_address(address).is_loopback and not authorized:
        raise click.UsageError(
            f"{address} is not loopback; pass --i-own-this-device to confirm "
            "you are authorized to probe it"
        )


@click.group()
@click.version_option(version=__version__, prog_name="replaycheck")
def main():
    """Replay-attack vulnerability assessment for networked devices."""


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@main.command()
@click.option("--capture", "capture_path", required=True, type=click.Path(exists=True, dir_okay=False), help="pcap of a legitimate command session.")
@click.option("--app", required=True, help="Companion app endpoint in the capture, HOST:PORT.")
@click.option("--device", required=True, help="Device endpoint in the capture, HOST:PORT.")
@click.option("--model-out", required=True, type=click.Path(dir_okay=False), help="Where to write the trained model JSON.")
@_settings_options
def train(capture_path, app, device, model_out, config_path, **overrides):
    """Learn legitimate response behavior from a capture."""
    settings = _build_settings(config_path, **overrides)
    session = _session(app, device)
    try:
        detector = train_from_capture(_read_capture(capture_path), session, settings)
    except PcapError as exc:
        _fail(f"{capture_path}: {exc}")
    except NoLocalConnectivityError as exc:
        _fail(exc, EXIT_NO_CONNECTIVITY)
    body = detector.model.to_dict() if detector.model is not None else {"kind": "none"}
    artifacts.write(model_out, artifacts.MODEL, body)
    click.echo(
        f"trained {body['kind']} model on {detector.training_responses} response payloads "
        f"across {len(detector.flows)} flows"
    )
    response_class = detector.response_class.value if detector.response_class else "n/a"
    click.echo(f"training response class: {response_class}")
    if detector.response_class is ResponseClass.STANDARD_ENCRYPTED:
        click.echo(
            "warning: responses ride a standard security protocol; replayed "
            "commands are expected to be rejected",
            err=True,
        )
    if settings.model_kind == "isolation_forest":
        distinct = len(
            {record.payload for flow in detector.flows for record in flow.responses}
        )
        if distinct < 4:
            click.echo(
                f"warning: only {distinct} distinct response payloads; isolation "
                "forest separates poorly on so few patterns, prefer lof",
                err=True,
            )
    click.echo(detector.notes.summary())
    click.echo(f"model written to {model_out}")


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


@main.command()
@click.option("--capture", "capture_path", required=True, type=click.Path(exists=True, dir_okay=False), help="pcap holding the command flows to replay.")
@click.option("--app", required=True, help="Companion app endpoint in the capture, HOST:PORT.")
@click.option("--device", required=True, help="Device endpoint in the capture, HOST:PORT.")
@click.option("--target", default=None, help="Live endpoint to aim at (default: the capture's device endpoint).")
@click.option("--queue-out", required=True, type=click.Path(dir_okay=False), help="Where to write the response queue JSON.")
@click.option("--transcript-out", type=click.Path(dir_okay=False), default=None, help="Optional per-flow replay transcript JSON.")
@click.option("--i-own-this-device", is_flag=True, help="Confirm authorization for a non-loopback target.")
@_settings_options
def attack(capture_path, app, device, target, queue_out, transcript_out, i_own_this_device, config_path, **overrides):
    """Replay captured command flows at a device, newest flow first."""
    settings = _build_settings(config_path, **overrides)
    session = _session(app, device)
    try:
        target_endpoint = parse_endpoint(target) if target else session.device
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _guard_target(target_endpoint.address, i_own_this_device)
    try:
        result, _ = attack_from_capture(
            _read_capture(capture_path), session, target_endpoint, settings
        )
    except PcapError as exc:
        _fail(f"{capture_path}: {exc}")
    except NoLocalConnectivityError as exc:
        _fail(exc, EXIT_NO_CONNECTIVITY)
    artifacts.write(queue_out, artifacts.QUEUE, result.queue.to_dict())
    if transcript_out:
        artifacts.write(
            transcript_out,
            artifacts.TRANSCRIPT,
            {"flows": [asdict(report) for report in result.flows]},
        )
    notes = [report.note for report in result.flows if report.note]
    click.echo(
        f"replayed {len(result.flows)} flows at {target_endpoint}, "
        f"collected {len(result.queue)} responses"
    )
    for note in notes:
        click.echo(f"note: {note}")
    click.echo(f"response queue written to {queue_out}")


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


@main.command()
@click.option("--queue", "queue_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Response queue JSON from the attack step.")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False), help="Trained model JSON from the train step.")
@click.option("--attack-capture", "capture_path", required=True, type=click.Path(exists=True, dir_okay=False), help="pcap the attack replayed, for the protocol check.")
@click.option("--app", required=True, help="Companion app endpoint in the capture, HOST:PORT.")
@click.option("--device", required=True, help="Device endpoint in the capture, HOST:PORT.")
@click.option("--report-out", type=click.Path(dir_okay=False), default=None, help="Optional verdict report JSON.")
@click.option("--device-id", default=None, help="Identifier recorded in the report (default: device endpoint).")
@click.option("--scenario", type=click.Choice(SCENARIOS), default=SCENARIO_NON_RESTART, show_default=True, help="Label recorded in the report.")
@_settings_options
def detect(queue_path, model_path, capture_path, app, device, report_out, device_id, scenario, config_path, **overrides):
    """Judge an attack: exit 10 if it succeeded, 11 if it failed."""
    settings = _build_settings(config_path, **overrides)
    session = _session(app, device)
    try:
        queue = artifacts.read(queue_path, artifacts.QUEUE)
        model = artifacts.read(model_path, artifacts.MODEL)
        records = parse_capture(_read_capture(capture_path), session)
    except ArtifactError as exc:
        _fail(exc)
    except PcapError as exc:
        _fail(f"{capture_path}: {exc}")
    try:
        verdict = decide(queue, records, model, settings.detection_config())
    except ValueError as exc:
        _fail(exc, EXIT_NO_MODEL)
    labels = ", ".join(label.value for label in verdict.labels) or "n/a"
    click.echo(f"attack {verdict.outcome.value} ({verdict.reason.value})")
    click.echo(f"inspected response labels: {labels}")
    if report_out:
        artifacts.write(
            report_out,
            artifacts.VERDICT,
            {
                **verdict.to_dict(),
                "device_id": device_id or str(session.device),
                "scenario": scenario,
                "j": settings.response_window,
                "model_kind": model.kind if model is not None else None,
            },
        )
        click.echo(f"verdict report written to {report_out}")
    raise SystemExit(
        EXIT_VULNERABLE if verdict.outcome == Outcome.SUCCESSFUL else EXIT_NOT_VULNERABLE
    )


# ---------------------------------------------------------------------------
# assess
# ---------------------------------------------------------------------------


@main.command()
@click.option("--behavior", required=True, type=click.Choice([b.value for b in Behavior]), help="Simulated device profile to assess.")
@click.option("--scenario", type=click.Choice(SCENARIOS), default=SCENARIO_NON_RESTART, show_default=True)
@click.option("--reps", type=int, default=50, show_default=True, help="Capture/replay repetitions.")
@click.option("--device-seed", type=int, default=0, show_default=True)
@click.option("--port", type=int, default=0, help="Device port (default: OS-assigned).")
@click.option("--rekey-on-restart/--no-rekey-on-restart", default=True, show_default=True, help="Whether the session_key profile rotates its key on restart.")
@click.option("--post-restart-delay", type=float, default=1.0, show_default=True, help="Seconds to wait after each simulated restart.")
@click.option("--report-out", type=click.Path(dir_okay=False), default=None, help="Optional assessment report JSON.")
@_settings_options
def assess(behavior, scenario, reps, device_seed, port, rekey_on_restart, post_restart_delay, report_out, config_path, **overrides):
    """Full loop against a built-in simulated device; exit 10/11."""
    settings = _build_settings(config_path, **overrides)
    profile = default_profile(
        Behavior(behavior),
        seed=device_seed,
        port=port,
        rekey_on_restart=rekey_on_restart,
        post_restart_delay_s=post_restart_delay,
    )
    with spawn_device(profile) as device:
        click.echo(f"assessing {behavior} at {device.endpoint}, scenario {scenario}, {reps} reps")
        result = assess_device(device, scenario, reps, settings)
    call = "VULNERABLE" if result.vulnerable else "NOT VULNERABLE"
    click.echo(f"{call}: {result.device_id} under {scenario}")
    click.echo(f"verdict accuracy against observed device state: {result.accuracy:.3f}")
    for reason, count in sorted(result.reason_counts().items()):
        click.echo(f"  {reason}: {count}")
    if report_out:
        artifacts.write(report_out, artifacts.ASSESSMENT, result.to_dict())
        click.echo(f"assessment report written to {report_out}")
    raise SystemExit(EXIT_VULNERABLE if result.vulnerable else EXIT_NOT_VULNERABLE)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@main.command()
@click.option("--behavior", required=True, type=click.Choice([b.value for b in Behavior]))
@click.option("--port", type=int, default=0, help="Port to listen on (default: OS-assigned).")
@click.option("--device-seed", type=int, default=0, show_default=True)
@click.option("--rekey-on-restart/--no-rekey-on-restart", default=True, show_default=True)
@click.option("--training-capture-out", type=click.Path(dir_okay=False), default=None, help="Run the default companion script and write it as pcap first.")
@click.option("--duration", type=float, default=None, help="Seconds to keep serving (default: until Ctrl-C).")
def simulate(behavior, port, device_seed, rekey_on_restart, training_capture_out, duration):
    """Serve one simulated device for manual train/attack experiments."""
    profile = default_profile(
        Behavior(behavior), seed=device_seed, port=port, rekey_on_restart=rekey_on_restart
    )
    with spawn_device(profile) as device:
        click.echo(
            f"{behavior} device listening on {device.endpoint} "
            f"({profile.transport.value}), initial state reverse"
        )
        if training_capture_out:
            capture = companion_session(device)
            Path(training_capture_out).write_bytes(capture)
            click.echo(
                f"training capture written to {training_capture_out} "
                f"(app endpoint 10.77.0.2:38200)"
            )
        try:
            if duration is not None:
                time.sleep(duration)
            else:
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:
            click.echo("stopping")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def report(path):
    """Summarize any artifact JSON (model, queue, transcript, verdict, assessment)."""
    try:
        schema, value = artifacts.read_any(path)
    except ArtifactError as exc:
        _fail(exc)
    if schema == artifacts.MODEL:
        click.echo(f"novelty model, kind {value.kind if value is not None else 'none'}")
        if isinstance(value, LofModel):
            click.echo(
                f"  k={value.k} (effective {value.k_eff}), "
                f"threshold {value.threshold}, {value.training_size} training points"
            )
        elif isinstance(value, IsolationForestModel):
            click.echo(
                f"  {len(value.trees)} trees, subsample {value.subsample}, "
                f"cutoff {value.anomaly_cutoff}, seed {value.seed}"
            )
        else:
            click.echo("  no trainable responses were found; cheap checks only")
    elif schema == artifacts.QUEUE:
        click.echo(f"response queue: {len(value)} responses")
        for entry in value.entries[:10]:
            click.echo(
                f"  t={entry.timestamp:.3f}s flow {entry.flow_index}: {len(entry.payload)} bytes"
            )
        if len(value) > 10:
            click.echo(f"  ... {len(value) - 10} more")
    elif schema == artifacts.TRANSCRIPT:
        click.echo(f"attack transcript: {len(value['flows'])} flows replayed")
        for item in value["flows"]:
            note = f" ({item['note']})" if item.get("note") else ""
            click.echo(
                f"  position {item['scheduled_position']} <- capture flow "
                f"{item['original_index']}: {len(item['request_lengths'])} requests, "
                f"{item['response_count']} responses{note}"
            )
    elif schema == artifacts.VERDICT:
        click.echo(
            f"verdict for {value['device_id']}: {value['outcome']} "
            f"({value['reason']}), scenario {value['scenario']}"
        )
        if value["labels"]:
            click.echo(f"  labels: {', '.join(value['labels'])} (window {value['j']})")
    else:
        click.echo(
            f"assessment of {value['device_id']}, scenario {value['scenario']}: "
            f"{'VULNERABLE' if value['vulnerable'] else 'NOT VULNERABLE'}"
        )
        click.echo(
            f"  {value['reps']} reps, accuracy {value['accuracy']:.3f}, "
            f"reasons {value['reason_counts']}"
        )


if __name__ == "__main__":
    main()
