"""End-to-end orchestration: train a detector, run attacks, assess devices.

This module glues the layers together in the order an assessment uses
them. It owns the tunables (PipelineSettings), the trained-detector
bundle, and the repeated trigger/restart/replay/decide loop against a
simulated device. Nothing here knows socket or pcap details beyond the
functions it calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .capture import (
    CaptureNotes,
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
    check_local_connectivity,
    parse_capture,
    parse_capture_with_notes,
    segment_flows,
)
from .features import featurize
from .models import (
    DEFAULT_ANOMALY_CUTOFF,
    DEFAULT_LOF_K,
    DEFAULT_LOF_THRESHOLD,
    DEFAULT_TREES,
    NoveltyModel,
    train_isolation_forest,
    train_lof,
)
from .protocols import ResponseClass, classify_training_responses
from .replay import AttackResult, ReplayConfig, run_attack
from .simdevices import (
    DEFAULT_APP_ENDPOINT,
    DeviceState,
    SimulatedDevice,
    companion_session,
    query_state,
    records_to_capture,
    restart_device,
    trigger_state,
)
from .verdict import (
    DEFAULT_RESPONSE_WINDOW,
    DetectionConfig,
    Outcome,
    Verdict,
    decide,
)

MODEL_KINDS = ("lof", "isolation_forest")


class NoLocalConnectivityError(RuntimeError):
    """The capture holds no traffic between the configured endpoints."""


@dataclass(frozen=True)
class PipelineSettings:
    """Every tunable in one place; defaults match the documented values."""

    model_kind: str = "lof"
    lof_k: int = DEFAULT_LOF_K
    lof_threshold: float = DEFAULT_LOF_THRESHOLD
    trees: int = DEFAULT_TREES
    subsample: int | None = None
    anomaly_cutoff: float = DEFAULT_ANOMALY_CUTOFF
    seed: int = 0
    response_window: int = DEFAULT_RESPONSE_WINDOW
    per_flow_response_timeout_ms: int = 2000
    inter_request_delay_ms: int = 50
    inter_flow_delay_ms: int = 200
    connect_timeout_ms: int = 1000

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}"
            )

    def replay_config(self) -> ReplayConfig:
        return ReplayConfig(
            per_flow_response_timeout_ms=self.per_flow_response_timeout_ms,
            inter_request_delay_ms=self.inter_request_delay_ms,
            inter_flow_delay_ms=self.inter_flow_delay_ms,
            connect_timeout_ms=self.connect_timeout_ms,
        )

    def detection_config(self) -> DetectionConfig:
        return DetectionConfig(response_window=self.response_window)


_SETTING_NAMES = {f.name for f in fields(PipelineSettings)}


def load_settings(config_path: str | Path | None = None, **overrides) -> PipelineSettings:
    """Defaults, then JSON config file keys, then explicit overrides.

    Overrides passed as None mean "not given" and are skipped, which lets
    a CLI forward every flag unconditionally. Unknown keys in the file are
    an error; silently ignoring a typo would misconfigure a whole run.
    """
    values: dict = {}
    if config_path is not None:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("settings file must hold a JSON object")
        unknown = set(loaded) - _SETTING_NAMES
        if unknown:
            raise ValueError(f"unknown settings keys: {sorted(unknown)}")
        values.update(loaded)
    for name, value in overrides.items():
        if name not in _SETTING_NAMES:
            raise ValueError(f"unknown setting {name!r}")
        if value is not None:
            values[name] = value
    return PipelineSettings(**values)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainedDetector:
    """Everything learned from one training capture.

    model is None when the capture held fewer than two response payloads
    (a silent device); verdicts then rest on the cheap checks alone.
    """

    model: NoveltyModel | None
    response_class: ResponseClass | None
    flows: list[Flow]
    notes: CaptureNotes

    @property
    def training_responses(self) -> int:
        return sum(len(flow.responses) for flow in self.flows)


def train_from_capture(
    capture: bytes,
    session: SessionConfig,
    settings: PipelineSettings | None = None,
) -> TrainedDetector:
    """Learn legitimate response behavior from a command-session capture."""
    settings = settings or PipelineSettings()
    records, notes = parse_capture_with_notes(capture, session)
    if not check_local_connectivity(records):
        raise NoLocalConnectivityError(
            f"no traffic between {session.app} and {session.device} in the capture"
        )
    flows = segment_flows(records, session)
    responses = [record for flow in flows for record in flow.responses]
    model: NoveltyModel | None = None
    if len(responses) >= 2:
        vectors = [featurize(record.payload) for record in responses]
        if settings.model_kind == "lof":
            model = train_lof(
                vectors, k=settings.lof_k, threshold=settings.lof_threshold
            )
        else:
            model = train_isolation_forest(
                vectors,
                trees=settings.trees,
                subsample=settings.subsample,
                seed=settings.seed,
                anomaly_cutoff=settings.anomaly_cutoff,
            )
    return TrainedDetector(
        model=model,
        response_class=classify_training_responses(flows),
        flows=flows,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def attack_from_capture(
    capture: bytes,
    session: SessionConfig,
    target: Endpoint | None = None,
    settings: PipelineSettings | None = None,
) -> tuple[AttackResult, list[PacketRecord]]:
    """Replay a capture's flows against a live endpoint.

    target defaults to the device endpoint from the session config; pass
    one explicitly when the capture was recorded on different addressing
    than the device answers on. Returns the attack result plus the parsed
    records, which feed the protocol check at verdict time.
    """
    settings = settings or PipelineSettings()
    records = parse_capture(capture, session)
    if not check_local_connectivity(records):
        raise NoLocalConnectivityError(
            f"no traffic between {session.app} and {session.device} in the capture"
        )
    flows = segment_flows(records, session)
    result = run_attack(flows, target or session.device, settings.replay_config())
    return result, records


# ---------------------------------------------------------------------------
# repeated assessment against a simulated device
# ---------------------------------------------------------------------------

SCENARIO_NON_RESTART = "non_restart"
SCENARIO_RESTART = "restart"
SCENARIOS = (SCENARIO_NON_RESTART, SCENARIO_RESTART)


@dataclass
class AssessmentResult:
    """Outcome of reps repeated trigger/replay/decide cycles on one device."""

    device_id: str
    scenario: str
    verdicts: list[Verdict]
    truths: list[bool]  # per rep: did the replay actually flip the state
    model_kind: str | None
    response_class: str | None

    @property
    def reps(self) -> int:
        return len(self.verdicts)

    @property
    def accuracy(self) -> float:
        """Fraction of verdicts agreeing with the observed device state."""
        pairs = zip(self.verdicts, self.truths)
        correct = sum((v.outcome == Outcome.SUCCESSFUL) == t for v, t in pairs)
        return correct / len(self.verdicts)

    @property
    def vulnerable(self) -> bool:
        """Modal call across reps; a tie counts as not vulnerable."""
        successful = sum(v.outcome == Outcome.SUCCESSFUL for v in self.verdicts)
        return successful * 2 > len(self.verdicts)

    def reason_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for verdict in self.verdicts:
            counts[verdict.reason.value] = counts.get(verdict.reason.value, 0) + 1
        return counts

    def to_dict(self) -> dict:
        """The assessment-report body.

        Ground truth is constant within a scenario, so accuracy is the whole
        story; precision and recall would each be degenerate (0/0) on half
        the scenarios and are deliberately not reported.
        """
        return {
            "device_id": self.device_id,
            "scenario": self.scenario,
            "reps": self.reps,
            "vulnerable": self.vulnerable,
            "accuracy": self.accuracy,
            "model_kind": self.model_kind,
            "response_class": self.response_class,
            "reason_counts": self.reason_counts(),
            "runs": [
                {**verdict.to_dict(), "replay_took_effect": truth}
                for verdict, truth in zip(self.verdicts, self.truths)
            ],
        }


def assess_device(
    device: SimulatedDevice,
    scenario: str = SCENARIO_NON_RESTART,
    reps: int = 50,
    settings: PipelineSettings | None = None,
    app: Endpoint = DEFAULT_APP_ENDPOINT,
) -> AssessmentResult:
    """Train once, then repeatedly capture, (maybe) restart, replay, decide.

    Each rep records a fresh legitimate state-change command, arms the
    device in the opposite state, replays the recording, and compares the
    verdict against the state the device actually ended up in. In the
    restart scenario the device is power-cycled between the capture and
    the replay, which is what defeats session-bound secrets.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    settings = settings or PipelineSettings()
    session = SessionConfig(app=app, device=device.endpoint)

    detector = train_from_capture(companion_session(device, app), session, settings)

    verdicts: list[Verdict] = []
    truths: list[bool] = []
    for _ in range(reps):
        command_records = trigger_state(device, DeviceState.OBVERSE, app)
        attack_capture = records_to_capture(command_records)
        if scenario == SCENARIO_RESTART:
            restart_device(device)
        trigger_state(device, DeviceState.REVERSE, app)
        result, attack_records = attack_from_capture(
            attack_capture, session, device.endpoint, settings
        )
        verdicts.append(
            decide(
                result.queue,
                attack_records,
                detector.model,
                settings.detection_config(),
            )
        )
        truths.append(query_state(device) == DeviceState.OBVERSE)

    return AssessmentResult(
        device_id=f"{device.profile.behavior.value}@{device.endpoint}",
        scenario=scenario,
        verdicts=verdicts,
        truths=truths,
        model_kind=detector.model.kind if detector.model is not None else None,
        response_class=(
            detector.response_class.value if detector.response_class else None
        ),
    )
