"""The socket-free verdict sweep: its in-process replay answers as a replay
over sockets does, and every call it makes over many device seeds is right."""

import pytest
from verdict_sweep import ECHO_STYLE, replay_in_process, sweep

from replaycheck.capture import SessionConfig
from replaycheck.models import MODEL_KINDS
from replaycheck.pipeline import SCENARIO_RESTART, SCENARIOS, attack_from_capture, train_from_capture
from replaycheck.simdevices import DEFAULT_APP_ENDPOINT, Behavior
from replaycheck.verdict import decide

APP = DEFAULT_APP_ENDPOINT
SWEEP_SEEDS = range(500)


def drive_to_replay(device, scenario):
    """Train, then capture a command, restart if asked, and arm: the steps
    assess_device takes before a replay. Returns the model, command capture
    and session."""
    session = SessionConfig(app=APP, device=device.endpoint)
    model = train_from_capture(device.training_capture(APP), session).model
    capture = device.command_capture(APP)
    if scenario == SCENARIO_RESTART:
        device.restart()
    device.arm(APP)
    return model, capture, session


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 5905])
@pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
def test_in_process_replay_answers_as_the_socket_replay(
    device_factory, fast_settings, behavior, seed, scenario
):
    """Twin devices from one seed, driven alike: one is replayed in process,
    the other over sockets. Payloads, flow indexes, verdicts and device
    states agree, so tls_like's protocol check and silent's NoResponse are
    covered as well as the model's call."""
    twins = [device_factory(behavior, seed=seed, post_restart_delay_s=0) for _ in range(2)]
    model, capture, session = drive_to_replay(twins[0], scenario)
    in_process, records = replay_in_process(twins[0], capture, session)
    model_b, capture_b, session_b = drive_to_replay(twins[1], scenario)
    over_sockets, records_b = attack_from_capture(capture_b, session_b, twins[1].endpoint, fast_settings)
    over_sockets = over_sockets.queue
    assert [e.payload for e in in_process.entries] == [e.payload for e in over_sockets.entries]
    assert [e.flow_index for e in in_process.entries] == [e.flow_index for e in over_sockets.entries]
    assert decide(in_process, records, model) == decide(over_sockets, records_b, model_b)
    assert twins[0].replay_took_effect() == twins[1].replay_took_effect()


def test_every_swept_call_is_right():
    """Each echo-style profile at SWEEP_SEEDS device seeds, both scenarios,
    both kinds: every call equals expected_vulnerable and the device's own
    state. Wrong calls are listed by seed."""
    total, wrong = sweep(SWEEP_SEEDS)
    assert total == len(SWEEP_SEEDS) * len(ECHO_STYLE) * len(SCENARIOS) * len(MODEL_KINDS)
    assert wrong == []
