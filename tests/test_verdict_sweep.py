"""The socket-free verdict sweep: its in-process replay answers as a replay
over sockets does, and every call it makes over many device seeds is right."""

from itertools import product

import pytest
from doubles import ACCEPT_RULES, RESPONSE_SHAPES, FakeDevice, TwoSendallDevice
from verdict_sweep import ECHO_STYLE, replay_in_process, sweep

from replaycheck.capture import SessionConfig
from replaycheck.models import MODEL_KINDS
from replaycheck.pipeline import (
    SCENARIO_NON_RESTART,
    SCENARIO_RESTART,
    SCENARIOS,
    attack_from_capture,
    train_from_capture,
)
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


def assert_twins_answer_alike(twins, scenario, settings):
    """Drive two like devices alike, replay one in process and the other over
    sockets: payloads, flow indexes, verdicts and device states agree."""
    model, capture, session = drive_to_replay(twins[0], scenario)
    in_process, records = replay_in_process(twins[0], capture, session)
    model_b, capture_b, session_b = drive_to_replay(twins[1], scenario)
    over_sockets, records_b = attack_from_capture(capture_b, session_b, twins[1].endpoint, settings)
    over_sockets = over_sockets.queue
    assert [e.payload for e in in_process.entries] == [e.payload for e in over_sockets.entries]
    assert [e.flow_index for e in in_process.entries] == [e.flow_index for e in over_sockets.entries]
    assert decide(in_process, records, model) == decide(over_sockets, records_b, model_b)
    assert twins[0].replay_took_effect() == twins[1].replay_took_effect()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 5905])
@pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
def test_in_process_replay_answers_as_the_socket_replay(
    device_factory, fast_settings, behavior, seed, scenario
):
    """Twin simulated devices from one seed, so tls_like's protocol check and
    silent's NoResponse are covered as well as the model's call."""
    twins = [device_factory(behavior, seed=seed, post_restart_delay_s=0) for _ in range(2)]
    assert_twins_answer_alike(twins, scenario, fast_settings)


# Every FakeDevice shape under both accept rules and both scenarios, and a
# two_line_ack device that writes each line by its own sendall, which has no
# restart. Its replay reads the two writes in one chunk or two; either way
# the flow's run is one response, in process too.
FAKE_TWINS = [
    *product(ACCEPT_RULES, RESPONSE_SHAPES, SCENARIOS),
    ("accepts_stale", "two_sendall", SCENARIO_NON_RESTART),
]


@pytest.mark.parametrize("accept_rule, shape, scenario", FAKE_TWINS)
def test_in_process_replay_of_a_fake_device_answers_as_the_socket_replay(
    fast_settings, accept_rule, shape, scenario
):
    if shape == "two_sendall":
        twins = [TwoSendallDevice(accept_rule) for _ in range(2)]
    else:
        twins = [FakeDevice(accept_rule, shape) for _ in range(2)]
    try:
        assert_twins_answer_alike(twins, scenario, fast_settings)
    finally:
        for device in twins:
            device.shutdown()


def test_every_swept_call_is_right():
    """Each echo-style profile at SWEEP_SEEDS device seeds, both scenarios,
    both kinds: every call equals expected_vulnerable and the device's own
    state. Wrong calls are listed by seed."""
    total, wrong = sweep(SWEEP_SEEDS)
    assert total == len(SWEEP_SEEDS) * len(ECHO_STYLE) * len(SCENARIOS) * len(MODEL_KINDS)
    assert wrong == []
