"""assess_device through its device interface: a table-driven fake device,
with no simulator profile behind it, is assessed like any other."""

import ast
import inspect
from dataclasses import replace
from itertools import product

import pytest
from doubles import ACCEPT_RULES, RESPONSE_SHAPES, FakeDevice

from replaycheck import pipeline
from replaycheck.pipeline import SCENARIOS, assess_device
from replaycheck.verdict import Outcome

CELLS = list(product(ACCEPT_RULES, RESPONSE_SHAPES))


@pytest.fixture
def fake_factory():
    spawned = []

    def spawn(accept_rule, shape):
        spawned.append(FakeDevice(accept_rule, shape))
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
