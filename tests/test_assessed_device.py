"""assess_device through its device interface: a table-driven fake device,
with no simulator profile behind it, is assessed like any other."""

import ast
import inspect
from dataclasses import replace
from itertools import product

import pytest
from doubles import ACCEPT_RULES, RESPONSE_SHAPES, FakeDevice

from replaycheck import pipeline
from replaycheck.features import featurize
from replaycheck.pipeline import MODEL_KINDS, SCENARIOS, assess_device
from replaycheck.verdict import Outcome, Reason

# The shapes the rule claims to cover; BLIND_SHAPES are called wrong by design,
# an unpadded counter is called by where it gains a digit, and a two-line ack
# sent in one write is Known defect 4 (both pinned below).
BLIND_SHAPES = ("silent_ack", "permuted_rejection", "status_digit_rejection")
NOT_IN_CELLS = BLIND_SHAPES + ("unpadded_counter_ack", "two_line_ack")
CELLS = list(product(ACCEPT_RULES, [s for s in RESPONSE_SHAPES if s not in NOT_IN_CELLS]))


@pytest.fixture
def fake_factory():
    spawned = []

    def spawn(accept_rule, shape, first_count=0):
        spawned.append(FakeDevice(accept_rule, shape, first_count))
        return spawned[-1]

    yield spawn
    for device in spawned:
        device.shutdown()


def assess_fake(fake, scenario, settings):
    result = assess_device(fake, scenario, reps=2, settings=settings)
    assert result.device_id == f"{fake.name}@{fake.endpoint}"
    # the fake is built so that its accept rule alone decides the truth
    assert result.truths == [fake.accepts_stale] * 2
    return result


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("accept_rule, shape", CELLS)
def test_lof_verdicts_equal_the_observed_state(
    fake_factory, fast_settings, accept_rule, shape, scenario
):
    result = assess_fake(fake_factory(accept_rule, shape), scenario, fast_settings)
    outcomes = [verdict.outcome == Outcome.SUCCESSFUL for verdict in result.verdicts]
    assert outcomes == result.truths
    assert result.accuracy == 1.0


@pytest.mark.parametrize("accept_rule, shape", CELLS)
def test_forest_verdicts_equal_the_observed_state(
    fake_factory, fast_settings, accept_rule, shape
):
    """Includes the counter-ack device that accepts replays (its acks vary
    on a feature the training set varied too, so they stay regular) and the
    rejecting one (its rejection differs on features the acks never varied)."""
    settings = replace(fast_settings, model_kind="isolation_forest")
    result = assess_fake(fake_factory(accept_rule, shape), "non_restart", settings)
    outcomes = [verdict.outcome == Outcome.SUCCESSFUL for verdict in result.verdicts]
    assert outcomes == result.truths
    assert result.model_kind == "isolation_forest"


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_blind_shapes_are_called_by_response_alone(fake_factory, fast_settings, model_kind):
    """Pins three limits of the rule. A rejection that permutes the ack's
    bytes reads as the ack, and so does one that differs from it in one
    status digit of the same histogram bucket, so a refused replay is
    called SUCCESSFUL; a device that executes silently leaves no response,
    so an accepted replay is called FAILED (NoResponse). The other cell of
    each shape is called right."""
    assert featurize(b"KO obverse\n") == featurize(b"OK obverse\n")
    assert featurize(b'{"state":"obverse","status":0}\n') == featurize(b'{"state":"obverse","status":1}\n')
    settings = replace(fast_settings, model_kind=model_kind)
    expected = {
        ("refuses_stale", "permuted_rejection"): (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND),
        ("accepts_stale", "permuted_rejection"): (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND),
        ("refuses_stale", "status_digit_rejection"): (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND),
        ("accepts_stale", "status_digit_rejection"): (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND),
        ("accepts_stale", "silent_ack"): (Outcome.FAILED, Reason.NO_RESPONSE),
        ("refuses_stale", "silent_ack"): (Outcome.FAILED, Reason.NO_RESPONSE),
    }
    for (accept_rule, shape), call in expected.items():
        result = assess_fake(fake_factory(accept_rule, shape), "non_restart", settings)
        assert [(v.outcome, v.reason) for v in result.verdicts] == [call] * 2, (accept_rule, shape)
        called_right = (call[0] == Outcome.SUCCESSFUL) == ACCEPT_RULES[accept_rule]
        assert result.accuracy == float(called_right)


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.parametrize("first_count", [80, 89])
def test_counter_gaining_a_digit_after_training(fake_factory, fast_settings, model_kind, first_count):
    """Pins README's counter Limitation. From 89 the ten training acks read
    n=90..99 and every later ack n>=100, one byte longer. Both kinds read a
    change in a feature constant in training as irregular, so a device that
    acted on the replay is called FAILED (AllIrregular): a false NOT
    VULNERABLE. From 80 no digit is gained and both kinds call every rep
    right. A refused replay draws no answer at all."""
    settings = replace(fast_settings, model_kind=model_kind)
    blind = first_count == 89
    expected = {
        "accepts_stale": (
            (Outcome.FAILED, Reason.ALL_IRREGULAR)
            if blind
            else (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND)
        ),
        "refuses_stale": (Outcome.FAILED, Reason.NO_RESPONSE),
    }
    for accept_rule, call in expected.items():
        fake = fake_factory(accept_rule, "unpadded_counter_ack", first_count)
        result = assess_fake(fake, "non_restart", settings)
        assert [(v.outcome, v.reason) for v in result.verdicts] == [call] * 2, accept_rule
        assert result.accuracy == float(not (blind and accept_rule == "accepts_stale"))


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_acks_sharing_one_feature_row_are_called_right_under_restart(
    fake_factory, fast_settings, model_kind
):
    """No training dimension varies, so LOF keeps none and scores every
    response 1.0; the values it records as constant still make the
    refusal irregular, as the forest's rule does, so a refused replay is
    called FAILED (AllIrregular) and an accepted one SUCCESSFUL."""
    assert featurize(b"OK b\n") == featurize(b"OK e\n")
    settings = replace(fast_settings, model_kind=model_kind)
    expected = {
        "accepts_stale": (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND),
        "refuses_stale": (Outcome.FAILED, Reason.ALL_IRREGULAR),
    }
    for accept_rule, call in expected.items():
        result = assess_fake(fake_factory(accept_rule, "twin_row_ack"), "restart", settings)
        assert [(v.outcome, v.reason) for v in result.verdicts] == [call] * 2, accept_rule
        assert result.accuracy == 1.0


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="Known defect 4; ROADMAP item 14 Part A")
def test_two_lines_sent_in_one_write_are_called_right(fake_factory, fast_settings, model_kind):
    """Known defect 4 over sockets. Training holds each command's two
    equal-length lines as two responses; the replay reads them as one,
    which differs on the length both kinds saw constant, so a device that
    acted on the replay is called FAILED (AllIrregular)."""
    settings = replace(fast_settings, model_kind=model_kind)
    result = assess_fake(fake_factory("accepts_stale", "two_line_ack"), "non_restart", settings)
    assert [(v.outcome, v.reason) for v in result.verdicts] == [(Outcome.SUCCESSFUL, Reason.REGULAR_FOUND)] * 2


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_counter_gaining_a_digit_inside_training(fake_factory, fast_settings, model_kind, scenario):
    """Pins README's counter Limitation where the digit comes inside
    training: from 0 the training acks read n=1..10, and only the last one
    is long. Every later ack is long, and both kinds call it IRREGULAR, so
    a device that acted on the replay is called FAILED (AllIrregular) and
    reported not vulnerable. A refused replay draws no answer at all."""
    settings = replace(fast_settings, model_kind=model_kind)
    expected = {
        "accepts_stale": (Outcome.FAILED, Reason.ALL_IRREGULAR),
        "refuses_stale": (Outcome.FAILED, Reason.NO_RESPONSE),
    }
    for accept_rule, call in expected.items():
        fake = fake_factory(accept_rule, "unpadded_counter_ack", first_count=0)
        result = assess_fake(fake, scenario, settings)
        assert [(v.outcome, v.reason) for v in result.verdicts] == [call] * 2, accept_rule
        assert result.accuracy == float(accept_rule == "refuses_stale")


def test_pipeline_imports_only_the_hook_names_from_simdevices():
    """pipeline reaches a device only through AssessedDevice; the three names
    it imports from simdevices are there for the benchmark's span hooks."""
    tree = ast.parse(inspect.getsource(pipeline))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "simdevices"
        for alias in node.names
    }
    assert imported == {"companion_session", "restart_device", "trigger_state"}
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & imported
    assert inspect.signature(assess_device).parameters["device"].annotation == "AssessedDevice"
