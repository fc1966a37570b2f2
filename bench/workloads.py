"""The three benchmark workloads and the truths their verdicts are checked against.

Every workload is a closed loop with one client: the next op starts only
after the previous one has returned, against one simulated device at a
time. All traffic crosses the loopback interface. A workload's set-up
(device spawn, training-capture recording, capture generation) runs in
its constructor, so the runner can time it; its ops come in fixed blocks
that the runner repeats until the run's time is up.

Ops call replaycheck through module attributes (``pipeline.assess_device``
rather than a name imported here) so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import random
import socket
from dataclasses import dataclass
from typing import Callable

from replaycheck import pcap, pipeline, simdevices, verdict
from replaycheck.capture import PacketRecord, SessionConfig, Transport
from replaycheck.replay import QueueEntry, ResponseQueue
from replaycheck.simdevices import Behavior, DeviceState, default_profile, expected_vulnerable
from replaycheck.verdict import Outcome

# The test suite's fast loopback timings and restart delay.
SETTINGS = pipeline.PipelineSettings(
    per_flow_response_timeout_ms=120,
    inter_request_delay_ms=20,
    inter_flow_delay_ms=30,
    connect_timeout_ms=400,
)
BOOT_DELAY_S = 0.05
APP = simdevices.DEFAULT_APP_ENDPOINT


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``prepare`` and ``check`` are not.

    ``check`` returns (verdicts made, verdicts checked, one problem per wrong
    verdict); a problem, or an exception from any of the three, fails the op.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int, list[str]]]
    prepare: Callable[[], object] | None = None


def verdict_problem(
    label: str, outcome: Outcome, expected: bool, observed: bool | None
) -> str | None:
    """Why a verdict disagrees with the documented truth or the device, if it does."""
    successful = outcome == Outcome.SUCCESSFUL
    if successful != expected:
        truth = "vulnerable" if expected else "not vulnerable"
        return f"{label}: verdict {outcome.value}, but the profile is documented {truth}"
    if observed is not None and successful != observed:
        effect = "did" if observed else "did not"
        return f"{label}: verdict {outcome.value}, but the replay {effect} change the device state"
    return None


def _spawn(behavior: Behavior, seed: int) -> simdevices.SimulatedDevice:
    profile = default_profile(behavior, seed=seed, post_restart_delay_s=BOOT_DELAY_S)
    return simdevices.spawn_device(profile)


class _Devices:
    # The set-up is repeated this many times per run and its median reported.
    setup_repeats = 9

    def __init__(self):
        self.devices: list[simdevices.SimulatedDevice] = []
        self.notes: dict = {}

    def close(self) -> None:
        for device in self.devices:
            device.shutdown()


class AssessMatrix(_Devices):
    """One ``assess_device`` call per op, cycling 6 profiles x 2 scenarios."""

    name = "assess-matrix"
    REPS = 2

    def __init__(self, seed: int):
        super().__init__()
        try:
            for index, behavior in enumerate(Behavior):
                self.devices.append(_spawn(behavior, seed * 16 + index))
        except BaseException:
            self.close()
            raise

    def block(self) -> list[Op]:
        ops = []
        for device in self.devices:
            for scenario in pipeline.SCENARIOS:
                label = f"{device.profile.behavior.value}/{scenario}"

                def run(device=device, scenario=scenario):
                    return pipeline.assess_device(
                        device, scenario, reps=self.REPS, settings=SETTINGS
                    )

                def check(result, device=device, scenario=scenario, label=label):
                    expected = expected_vulnerable(
                        device.profile, scenario == pipeline.SCENARIO_RESTART
                    )
                    problems = []
                    for rep, (v, took_effect) in enumerate(zip(result.verdicts, result.truths)):
                        problem = verdict_problem(
                            f"{label} rep {rep}", v.outcome, expected, took_effect
                        )
                        if problem:
                            problems.append(problem)
                    return len(result.verdicts), len(result.verdicts), problems

                ops.append(Op(label, run, check))
        return ops


class SessionReplay(_Devices):
    """Attack + detect with each profile's whole 10-command training capture.

    Set-up spawns the devices and records their training captures; the
    detectors are trained once, untimed, when the op block is built. Every
    other profile's detector is an isolation forest, so both model kinds
    are trained and scored; the acks a successful replay draws are regular
    to either.
    """

    name = "session-replay"

    def __init__(self, seed: int):
        super().__init__()
        self.captures = []
        try:
            for index, behavior in enumerate(Behavior):
                device = _spawn(behavior, seed * 16 + index)
                self.devices.append(device)
                self.captures.append(simdevices.companion_session(device, APP))
        except BaseException:
            self.close()
            raise

    def block(self) -> list[Op]:
        ops = []
        for index, (device, capture) in enumerate(zip(self.devices, self.captures)):
            label = device.profile.behavior.value
            session = SessionConfig(app=APP, device=device.endpoint)
            settings = dataclasses.replace(SETTINGS, model_kind=pipeline.MODEL_KINDS[index % 2])
            model = pipeline.train_from_capture(capture, session, settings).model

            # The replayed session ends on its first command (OBVERSE), so
            # arming REVERSE first makes a successful replay observable.
            def prepare(device=device):
                simdevices.trigger_state(device, DeviceState.REVERSE, APP)

            def run(device=device, capture=capture, session=session, model=model):
                result, records = pipeline.attack_from_capture(
                    capture, session, device.endpoint, SETTINGS
                )
                return verdict.decide(result.queue, records, model, SETTINGS.detection_config())

            def check(decided, device=device, label=label):
                observed = simdevices.query_state(device) == DeviceState.OBVERSE
                expected = expected_vulnerable(device.profile, restarted=False)
                problem = verdict_problem(label, decided.outcome, expected, observed)
                return 1, 1, [problem] if problem else []

            ops.append(Op(label, run, check, prepare))
        return ops


def _ask(device: simdevices.SimulatedDevice, lines: list[bytes]) -> list[bytes]:
    """Send newline-framed requests on one connection and read one reply line each."""
    replies = []
    with socket.create_connection(
        (device.endpoint.address, device.endpoint.port), timeout=3.0
    ) as sock:
        buffer = b""
        for line in lines:
            sock.sendall(line)
            while b"\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise ConnectionError("device closed the connection")
                buffer += chunk
            reply, _, buffer = buffer.partition(b"\n")
            replies.append(reply + b"\n")
    return replies


class BulkTrain(_Devices):
    """``train_from_capture`` on a large, mostly-noise capture, then ``decide``.

    The session part is a long companion session with the cleartext-echo
    profile; the rest is other hosts' traffic. Queues hold held-out acks
    (label: regular, so SUCCESSFUL) or the profile's error replies (label:
    irregular, so FAILED). Ops alternate the model kind.

    The isolation forest cannot separate the profile's two fixed ack
    payloads from its error reply (the CLI warns "prefer lof" for this
    case), so it calls error queues SUCCESSFUL. Those verdicts are counted
    in ``notes`` rather than checked; every other verdict is checked.
    """

    name = "bulk-train"
    setup_repeats = 3  # each set-up takes seconds
    SESSION_COMMANDS = 1000
    NOISE_FRAMES = 98_000
    QUEUES_PER_LABEL = 10

    def __init__(self, seed: int):
        super().__init__()
        self.notes["forest_error_queues_called_successful"] = 0
        window = SETTINGS.response_window
        device = _spawn(Behavior.CLEARTEXT_ECHO, seed * 16)
        try:
            script = [DeviceState.OBVERSE, DeviceState.REVERSE] * (self.SESSION_COMMANDS // 2)
            session_capture = simdevices.companion_session(device, APP, script)
            held_out = []
            for index in range(self.QUEUES_PER_LABEL * window):
                target = (DeviceState.OBVERSE, DeviceState.REVERSE)[index % 2]
                held_out.extend(simdevices.trigger_state(device, target, APP))
            bad_requests = [
                b'{"id":"%06d","method":"set_state","params":["sideways"]}\n' % index
                for index in range(self.QUEUES_PER_LABEL * window)
            ]
            error_replies = _ask(device, bad_requests)
        finally:
            device.shutdown()
        self.session = SessionConfig(app=APP, device=device.endpoint)
        self.session_records = 2 * self.SESSION_COMMANDS
        self.capture = _with_noise(session_capture, self.NOISE_FRAMES, random.Random(seed))

        errors = []
        for request, reply in zip(bad_requests, error_replies):
            errors.append(PacketRecord(len(errors), APP, device.endpoint, Transport.TCP, request))
            errors.append(PacketRecord(len(errors), device.endpoint, APP, Transport.TCP, reply))
        self.queues = []
        for label, records in (("regular", held_out), ("irregular", errors)):
            responses = [r for r in records if r.src == device.endpoint]
            for start in range(0, len(responses), window):
                chunk = responses[start : start + window]
                queue = ResponseQueue(
                    tuple(QueueEntry(i * 0.01, i, r.payload) for i, r in enumerate(chunk))
                )
                self.queues.append((label, queue, records))

    def block(self) -> list[Op]:
        ops = []
        for kind in pipeline.MODEL_KINDS:
            settings = dataclasses.replace(SETTINGS, model_kind=kind)

            def run(settings=settings):
                detector = pipeline.train_from_capture(self.capture, self.session, settings)
                detection = settings.detection_config()
                return detector, [
                    verdict.decide(queue, records, detector.model, detection)
                    for _, queue, records in self.queues
                ]

            def check(result, kind=kind):
                detector, decided = result
                if detector.notes.records_matched != self.session_records:
                    raise RuntimeError(
                        f"{kind}: {detector.notes.records_matched} records matched, "
                        f"expected {self.session_records}"
                    )
                problems = []
                checked = 0
                for index, ((label, _, _), v) in enumerate(zip(self.queues, decided)):
                    if kind == "isolation_forest" and label == "irregular":
                        if v.outcome == Outcome.SUCCESSFUL:
                            self.notes["forest_error_queues_called_successful"] += 1
                            continue
                    checked += 1
                    problem = verdict_problem(
                        f"{kind} queue {index} ({label})", v.outcome, label == "regular", None
                    )
                    if problem:
                        problems.append(problem)
                return len(decided), checked, problems

            ops.append(Op(kind, run, check))
        return ops


def _with_noise(session_capture: bytes, count: int, rng: random.Random) -> bytes:
    """Interleave ``count`` frames of other hosts' traffic with a session capture."""
    session_frames = list(pcap.read_frames(session_capture))
    first, last = session_frames[0][0], session_frames[-1][0]
    v4_hosts = [f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}" for _ in range(200)]
    v6_hosts = [f"fd00::{rng.randrange(1, 0xFFFF):x}" for _ in range(20)]
    noise = []
    for _ in range(count):
        hosts = v6_hosts if rng.random() < 0.1 else v4_hosts
        src, dst = rng.choice(hosts), rng.choice(hosts)
        protocol = pcap.PROTO_TCP if rng.random() < 0.7 else pcap.PROTO_UDP
        frame = pcap.encode_frame(
            src,
            dst,
            rng.randrange(1024, 65536),
            rng.choice((53, 80, 443, 1883, 5353, 8080)),
            protocol,
            rng.randbytes(rng.randrange(441)),
            tcp_seq=rng.getrandbits(32),
            ip_id=rng.getrandbits(16),
        )
        noise.append((first - 1_000_000 + int(rng.random() * (last - first + 2_000_000)), frame))
    frames = sorted(session_frames + noise, key=lambda item: item[0])
    return pcap.write_capture(frames)


WORKLOADS = {cls.name: cls for cls in (AssessMatrix, SessionReplay, BulkTrain)}
