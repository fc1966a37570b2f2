"""Verdicts by the thousand, with no replay socket: a test helper.

replay_in_process answers a command capture's flows, newest first, each
through a fresh SimulatedDevice._new_handler(), the handler a replay's
connection gets. The queue it builds goes to the real decide, so a
verdict costs about a millisecond of CPU where a replay over sockets
waits out its collection window. sweep() runs it over device seeds and
returns every call that disagrees with expected_vulnerable.

Run outside the suite with:

    PYTHONPATH=src python tests/verdict_sweep.py FIRST LAST

to sweep device seeds FIRST..LAST-1 of every echo-style profile, both
scenarios and both model kinds; it prints each wrong call and the count.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from replaycheck.capture import DEFAULT_APP_ENDPOINT, SessionConfig, parse_capture, segment_flows
from replaycheck.models import MODEL_KINDS
from replaycheck.pipeline import SCENARIO_RESTART, SCENARIOS, PipelineSettings, train_from_capture
from replaycheck.replay import QueueEntry, ResponseQueue, schedule
from replaycheck.simdevices import Behavior, default_profile, expected_vulnerable, spawn_device
from replaycheck.verdict import Outcome, Verdict, decide

# The profiles whose verdicts the novelty model decides.
ECHO_STYLE = (
    Behavior.CLEARTEXT_ECHO,
    Behavior.SIGNED_CLEARTEXT,
    Behavior.ENCODED_FIXED,
    Behavior.SESSION_KEY,
)


def replay_in_process(device, capture: bytes, session: SessionConfig):
    """The response queue a replay of capture would draw from device, and
    the capture's records. Entries keep the order the replay's would
    arrive in; their timestamps count responses, not seconds."""
    records = parse_capture(capture, session)
    flows = segment_flows(records, session)
    entries = []
    for position, flow in enumerate(schedule(flows)):
        handle = device._new_handler()
        for request in flow.requests:
            responses, close_connection = handle(request.payload)
            entries.extend(
                QueueEntry(float(len(entries) + i), len(flows) - 1 - position, payload)
                for i, payload in enumerate(responses)
            )
            if close_connection:
                break
    return ResponseQueue(tuple(entries)), records


@dataclass(frozen=True)
class Call:
    behavior: str
    seed: int
    scenario: str
    kind: str
    verdict: Verdict
    expected: bool  # expected_vulnerable for the profile and scenario
    took_effect: bool  # the device's own state after the replay

    @property
    def right(self) -> bool:
        return (self.verdict.outcome == Outcome.SUCCESSFUL) == self.expected == self.took_effect


def calls_for(behavior: Behavior, seed: int, kinds=MODEL_KINDS) -> list[Call]:
    """One device: train each kind on one training capture, then for each
    scenario capture a command, restart if the scenario says so, arm, and
    decide the in-process replay with each model."""
    app = DEFAULT_APP_ENDPOINT
    calls = []
    with spawn_device(default_profile(behavior, seed=seed, post_restart_delay_s=0)) as device:
        session = SessionConfig(app=app, device=device.endpoint)
        training = device.training_capture(app)
        settings = {kind: PipelineSettings(model_kind=kind) for kind in kinds}
        detectors = {kind: train_from_capture(training, session, settings[kind]) for kind in kinds}
        for scenario in SCENARIOS:
            capture = device.command_capture(app)
            if scenario == SCENARIO_RESTART:
                device.restart()
            device.arm(app)
            queue, records = replay_in_process(device, capture, session)
            expected = expected_vulnerable(device.profile, scenario == SCENARIO_RESTART)
            took_effect = device.replay_took_effect()
            for kind in kinds:
                verdict = decide(queue, records, detectors[kind].model, settings[kind])
                calls.append(Call(behavior.value, seed, scenario, kind, verdict, expected, took_effect))
    return calls


def sweep(seeds, behaviors=ECHO_STYLE, kinds=MODEL_KINDS) -> tuple[int, list[Call]]:
    """How many calls the seeds make, and the wrong ones."""
    total, wrong = 0, []
    for behavior in behaviors:
        for seed in seeds:
            calls = calls_for(behavior, seed, kinds)
            total += len(calls)
            wrong.extend(call for call in calls if not call.right)
    return total, wrong


def main(argv: list[str]) -> int:
    first, last = (int(arg) for arg in argv)
    started = time.monotonic()
    total, wrong = sweep(range(first, last))
    for call in wrong:
        print(f"WRONG {call.behavior} seed {call.seed} {call.scenario} {call.kind}: "
              f"{call.verdict.outcome.value} ({call.verdict.reason.value}), expected vulnerable "
              f"{call.expected}, replay took effect {call.took_effect}")
    print(f"{len(wrong)} wrong of {total} calls, seeds {first}..{last - 1}, {time.monotonic() - started:.1f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
