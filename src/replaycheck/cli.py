"""Command-line interface.

Commands mirror the assessment stages: train, attack, detect, plus
the all-in-one assess loop and a simulate helper that serves the
built-in device profiles for manual experiments.

The exit codes are the EXIT_* constants; README's table, which a test
checks against them, says what each means.
"""

from __future__ import annotations

import errno
import ipaddress
import math
import os
import time
from itertools import chain
from pathlib import Path
from typing import NoReturn

import click

from . import __version__, artifacts
from .capture import Endpoint, SessionConfig, parse_capture, parse_endpoint
from .features import DIMENSIONS
from .models import model_to_dict
from .pcap import PcapError
from .protocols import ResponseClass
from .replay import MAX_TIMING_MS
from .pipeline import (
    MODEL_KINDS,
    SCENARIO_NON_RESTART,
    SCENARIOS,
    NoLocalConnectivityError,
    SettingError,
    assess_device,
    attack_from_capture,
    load_settings,
    train_from_capture,
)
from .simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    SpawnError,
    companion_session,
    default_profile,
    spawn_device,
)
from .verdict import NoModelError, Outcome, decide

EXIT_NO_MODEL = 1
EXIT_VULNERABLE = 10
EXIT_NOT_VULNERABLE = 11
EXIT_BAD_INPUT = 2
EXIT_NO_CONNECTIVITY = 3


# Each phase reads its own slice of the settings, and a command offers the
# flags of the phases it runs. --config may hold any key: one file serves all.
_CONFIG_OPTIONS = (
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON settings file (any settings key); explicit flags override its keys."),
)
_MODEL_OPTIONS = (
    click.option("--model-kind", type=click.Choice(MODEL_KINDS), default=None),
    click.option("--lof-k", type=int, default=None, help="LOF neighbor count."),
    click.option("--lof-threshold", type=float, default=None),
    click.option("--trees", type=int, default=None, help="Isolation forest size."),
    click.option("--subsample", type=int, default=None),
    click.option("--anomaly-cutoff", type=float, default=None),
    click.option("--seed", type=int, default=None, help="Forest RNG seed."),
)
_TIMING_OPTIONS = (
    click.option("--response-timeout-ms", "per_flow_response_timeout_ms", type=int, default=None),
    click.option("--inter-request-delay-ms", type=int, default=None),
    click.option("--inter-flow-delay-ms", type=int, default=None),
    click.option("--connect-timeout-ms", type=int, default=None),
)
_DETECTION_OPTIONS = (
    click.option("--response-window", type=int, default=None, help="How many leading attack responses the model inspects."),
)

# The capture's two endpoints, for the commands that read one.
_SESSION_OPTIONS = (
    click.option("--app", required=True, help="Companion app endpoint in the capture, HOST:PORT."),
    click.option("--device", required=True, help="Device endpoint in the capture, HOST:PORT."),
)

# A client connection's source port sits in TIME-WAIT after it closes, and
# the device's SO_REUSEADDR lets it bind that port only if the client set
# the option too. Replay sockets do; other programs' clients may not.
_FIXED_PORT = (
    "A fixed port should be below 32768: Linux can refuse one in its ephemeral "
    "range for up to a minute after another program's client connection used it."
)
# The simulated device of assess and simulate, which _spawn starts.
_DEVICE_OPTIONS = (
    click.option("--behavior", required=True, type=click.Choice([b.value for b in Behavior]), help="Simulated device profile to assess."),
    click.option("--device-seed", type=int, default=0, show_default=True),
    click.option("--port", type=click.IntRange(0, 65535), default=0, help=f"Device port (default: OS-assigned). {_FIXED_PORT}"),
    click.option("--rekey-on-restart/--no-rekey-on-restart", default=True, show_default=True, help="Whether the session_key profile rotates its key on restart."),
)


class _Seconds(click.FloatRange):
    """Seconds from 0 up to a day, like every replay timing; never NaN."""

    def __init__(self):
        super().__init__(min=0, max=MAX_TIMING_MS / 1000)

    def convert(self, value, param, ctx):
        seconds = super().convert(value, param, ctx)
        if math.isnan(seconds):
            self.fail("nan is not a number of seconds.", param, ctx)
        return seconds


def _options(*groups):
    """The options of the given groups, listed in --help in that order."""

    def apply(fn):
        for option in reversed(tuple(chain(*groups))):
            fn = option(fn)
        return fn

    return apply


def _spawn(behavior, device_seed, **profile):
    """Start the simulated device that _DEVICE_OPTIONS and any other profile fields describe."""
    try:
        return spawn_device(default_profile(Behavior(behavior), seed=device_seed, **profile))
    except SpawnError as exc:  # the port cannot be bound
        raise SettingError("port", exc) from exc


def _named(name: str, parse, *args):
    """parse(*args), with a ValueError raised as the SettingError naming parameter `name`."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise SettingError(name, exc) from exc


def _session(app: str, device: str) -> SessionConfig:
    """The capture's two endpoints; an app equal to the device names --device."""
    return _named("device", SessionConfig, _named("app", parse_endpoint, app), _named("device", parse_endpoint, device))


def _fail(message: object, code: int = EXIT_BAD_INPUT) -> NoReturn:
    """One `error:` line on stderr, then exit; exit 2 is a malformed input."""
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


class _Command(click.Command):
    """Every command's one error boundary: a bad input or a library failure
    becomes one `error: <source>: <reason>` line and its exit code, never a
    traceback. Click reports only what it parses itself: an unknown flag, a
    missing option, a value outside its type."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NoLocalConnectivityError as exc:
            _fail(exc, EXIT_NO_CONNECTIVITY)
        except NoModelError as exc:
            _fail(exc, EXIT_NO_MODEL)
        except PcapError as exc:
            _fail(f"{ctx.params['capture_path']}: {exc}")
        except OSError as exc:
            if exc.filename is None:  # not about a file, e.g. a reset connection
                raise
            _fail(f"{exc.filename}: {exc.strerror}")
        except SettingError as exc:  # name the flag as click spells it, or the file that set the value
            if ctx.params.get(exc.name) is None:
                _fail(f"{ctx.params['config_path']}: {exc}")
            _fail(f"{next(p.opts[0] for p in self.params if p.name == exc.name)}: {exc}")
        except ValueError as exc:  # an ArtifactError names its file
            _fail(exc)


class _Group(click.Group):
    command_class = _Command


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError writing a given output path would, before the
    command does any work: a device must not act on a replay whose
    responses cannot be kept, nor an assessment run every rep for nothing."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        if not os.access(path if os.path.exists(path) else folder, os.W_OK):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)


def _target(text: str, authorized: bool) -> Endpoint:
    # Assessing gear you do not own is an attack, not an assessment.
    endpoint = parse_endpoint(text)
    if not ipaddress.ip_address(endpoint.address).is_loopback and not authorized:
        raise ValueError(
            f"{endpoint.address} is not loopback; pass --i-own-this-device to confirm "
            "you are authorized to probe it"
        )
    return endpoint


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="replaycheck")
def main():
    """Replay-attack vulnerability assessment for networked devices."""


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@main.command()
@click.option("--capture", "capture_path", required=True, type=click.Path(exists=True, dir_okay=False), help="pcap of a legitimate command session.")
@_options(_SESSION_OPTIONS)
@click.option("--model-out", required=True, type=click.Path(dir_okay=False), help="Where to write the trained model JSON.")
@_options(_CONFIG_OPTIONS, _MODEL_OPTIONS)
def train(capture_path, app, device, model_out, config_path, **overrides):
    """Learn legitimate response behavior from a capture."""
    settings = load_settings(config_path, **overrides)
    session = _session(app, device)
    _check_writable(model_out)
    detector = train_from_capture(Path(capture_path).read_bytes(), session, settings)
    body = model_to_dict(detector.model)
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
    click.echo(detector.notes.summary())
    click.echo(f"model written to {model_out}")


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


@main.command()
@click.option("--capture", "capture_path", required=True, type=click.Path(exists=True, dir_okay=False), help="pcap holding the command flows to replay.")
@_options(_SESSION_OPTIONS)
@click.option("--target", default=None, help="Live endpoint to aim at (default: the capture's device endpoint).")
@click.option("--queue-out", required=True, type=click.Path(dir_okay=False), help="Where to write the response queue JSON.")
@click.option("--transcript-out", type=click.Path(dir_okay=False), default=None, help="Optional per-flow replay transcript JSON.")
@click.option("--i-own-this-device", is_flag=True, help="Confirm authorization for a non-loopback target.")
@_options(_CONFIG_OPTIONS, _TIMING_OPTIONS)
def attack(capture_path, app, device, target, queue_out, transcript_out, i_own_this_device, config_path, **overrides):
    """Replay captured command flows at a device, newest flow first."""
    settings = load_settings(config_path, **overrides)
    session = _session(app, device)
    target_endpoint = _named("target" if target else "device", _target, target or device, i_own_this_device)
    _check_writable(queue_out, transcript_out)
    result, _ = attack_from_capture(Path(capture_path).read_bytes(), session, target_endpoint, settings)
    artifacts.write(queue_out, artifacts.QUEUE, result.queue.to_dict())
    if transcript_out:
        artifacts.write(transcript_out, artifacts.TRANSCRIPT, result.transcript())
    notes = [replayed.note for replayed in result.flows if replayed.note]
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
@_options(_SESSION_OPTIONS)
@click.option("--report-out", type=click.Path(dir_okay=False), default=None, help="Optional verdict report JSON.")
@click.option("--device-id", default=None, help="Identifier recorded in the report (default: device endpoint).")
@click.option("--scenario", type=click.Choice(SCENARIOS), default=SCENARIO_NON_RESTART, show_default=True, help="Label recorded in the report.")
@_options(_CONFIG_OPTIONS, _DETECTION_OPTIONS)
def detect(queue_path, model_path, capture_path, app, device, report_out, device_id, scenario, config_path, **overrides):
    """Judge an attack: exit 10 if it succeeded, 11 if it failed."""
    settings = load_settings(config_path, **overrides)
    session = _session(app, device)
    _check_writable(report_out)
    queue = artifacts.read(queue_path, artifacts.QUEUE)
    model = artifacts.read(model_path, artifacts.MODEL)
    records = parse_capture(Path(capture_path).read_bytes(), session)
    try:
        if model is not None:
            model.check_width(DIMENSIONS)
    except ValueError as exc:
        _fail(f"{model_path}: {exc}")
    verdict = decide(queue, records, model, settings)
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
@_options(_DEVICE_OPTIONS)
@click.option("--scenario", type=click.Choice(SCENARIOS), default=SCENARIO_NON_RESTART, show_default=True)
@click.option("--reps", type=click.IntRange(min=1), default=50, show_default=True, help="Capture/replay repetitions.")
@click.option("--post-restart-delay", type=_Seconds(), default=1.0, show_default=True, help="Seconds to wait after each simulated restart.")
@click.option("--report-out", type=click.Path(dir_okay=False), default=None, help="Optional assessment report JSON.")
@_options(_CONFIG_OPTIONS, _MODEL_OPTIONS, _TIMING_OPTIONS, _DETECTION_OPTIONS)
def assess(behavior, device_seed, port, rekey_on_restart, scenario, reps, post_restart_delay, report_out, config_path, **overrides):
    """Full loop against a built-in simulated device; exit 10/11."""
    settings = load_settings(config_path, **overrides)
    _check_writable(report_out)
    with _spawn(
        behavior, device_seed, port=port, rekey_on_restart=rekey_on_restart, post_restart_delay_s=post_restart_delay
    ) as device:
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
@_options(_DEVICE_OPTIONS)
@click.option("--training-capture-out", type=click.Path(dir_okay=False), default=None, help="Run the default companion script and write it as pcap first.")
@click.option("--duration", type=_Seconds(), default=None, help="Seconds to keep serving (default: until Ctrl-C).")
def simulate(behavior, device_seed, port, rekey_on_restart, training_capture_out, duration):
    """Serve one simulated device for manual train/attack experiments."""
    _check_writable(training_capture_out)
    with _spawn(behavior, device_seed, port=port, rekey_on_restart=rekey_on_restart) as device:
        click.echo(
            f"{behavior} device listening on {device.endpoint} "
            f"({device.profile.transport.value}), initial state reverse"
        )
        if training_capture_out:
            capture = companion_session(device)
            Path(training_capture_out).write_bytes(capture)
            click.echo(
                f"training capture written to {training_capture_out} "
                f"(app endpoint {DEFAULT_APP_ENDPOINT})"
            )
        try:
            while duration is None:
                time.sleep(3600)
            time.sleep(duration)
        except KeyboardInterrupt:
            click.echo("stopping")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def report(path):
    """Summarize any artifact JSON (model, queue, transcript, verdict, assessment)."""
    schema, value = artifacts.read_any(path)
    if schema == artifacts.MODEL:
        if value is None:
            click.echo("novelty model, kind none")
            click.echo("  no trainable responses were found; cheap checks only")
        else:
            click.echo(f"novelty model, kind {value.kind}")
            click.echo(f"  {value.summary()}")
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
            expected = f" of {item['expected_responses']} captured" if "expected_responses" in item else ""
            click.echo(
                f"  position {item['scheduled_position']} <- capture flow "
                f"{item['original_index']}: {len(item['request_lengths'])} requests, "
                f"{item['response_count']}{expected} responses{note}"
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
