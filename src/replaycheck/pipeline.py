"""End-to-end orchestration: train a detector, run attacks, assess devices.

This module glues the layers together in the order an assessment uses
them. It owns the tunables (PipelineSettings), the trained-detector
bundle, and the repeated capture/restart/replay/decide loop against a
device under assessment, which it reaches only through AssessedDevice.
Nothing here knows socket or pcap details beyond the functions it calls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Protocol

from .capture import (
    DEFAULT_APP_ENDPOINT,
    CaptureNotes,
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
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
    MODEL_KINDS,
    NoveltyModel,
    check_forest_parameters,
    check_lof_parameters,
    train_isolation_forest,
    train_lof,
)
from .protocols import ResponseClass, classify_training_responses
from .replay import MAX_TIMING_MS, AttackResult, run_attack
# Unused here: bench/spans.py times the simulator by wrapping these names
# in this module as well as in simdevices, so they must stay importable.
from .simdevices import companion_session, restart_device, trigger_state  # noqa: F401
from .verdict import (
    DEFAULT_RESPONSE_WINDOW,
    Outcome,
    Verdict,
    decide,
)

# What each PipelineSettings annotation accepts, and how an error names it.
_FIELD_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "int | None": ((int, type(None)), "an integer or null"),
}


class NoLocalConnectivityError(RuntimeError):
    """The capture holds no traffic between the configured endpoints."""


@dataclass(frozen=True)
class PipelineSettings:
    """Every tunable in one place; defaults match the documented values.

    Construction checks every field's type and range. Only the forest
    trainer, which knows the training set, checks that subsample fits it.
    The replay engine reads the four *_ms timings from this object itself,
    and decide reads response_window.
    """

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
        for field in _FIELDS:  # not fields(self), a tuple per call (see features.featurize)
            value = getattr(self, field.name)
            accepted, described = _FIELD_TYPES[field.type]
            # bool is an int to Python, but True is never a count or a timing.
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{field.name} must be {described}, got {value!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}"
            )
        # Every model parameter is checked whatever model_kind is: one file
        # serves every phase, so a bad value is an error wherever it is read.
        check_lof_parameters(self.lof_k, self.lof_threshold)
        check_forest_parameters(self.trees, self.subsample, self.anomaly_cutoff, self.seed)
        for name in _TIMINGS:
            if not 0 < getattr(self, name) <= MAX_TIMING_MS:
                raise ValueError(f"{name} must be positive and at most {MAX_TIMING_MS}")
        if self.response_window < 1:
            raise ValueError("response_window must be >= 1")

    def detection_config(self) -> PipelineSettings:
        """These settings: decide reads response_window from them. Kept only
        because the benchmark's workloads call it."""
        return self


_FIELDS = fields(PipelineSettings)
_SETTING_NAMES = {f.name for f in _FIELDS}
_TIMINGS = tuple(f.name for f in _FIELDS if f.name.endswith("_ms"))


class SettingError(ValueError):
    """A bad value given for one setting or input; name is its key."""

    def __init__(self, name: str, reason: object):
        super().__init__(str(reason))
        self.name = name


def load_settings(config_path: str | Path | None = None, **overrides) -> PipelineSettings:
    """Defaults, then JSON config file keys, then explicit overrides.

    Overrides passed as None mean "not given" and are skipped, which lets
    a CLI forward every flag unconditionally. A bad file (unreadable, not a
    JSON object, or holding an unknown key or a bad value: ignoring a typo
    would misconfigure a whole run) raises the ArtifactError that names it;
    a bad override raises the SettingError that names its key.
    """
    settings = PipelineSettings()
    if config_path is not None:
        # Imported here, as models imports numpy: no benchmarked run reads a
        # settings file, so none should load the codec (and its datetime).
        from .artifacts import ArtifactError, read_object

        values = read_object(config_path)
        unknown = sorted(set(values) - _SETTING_NAMES)
        if unknown:
            raise ArtifactError(config_path, f"unknown settings keys: {unknown}")
        try:
            settings = PipelineSettings(**values)
        except ValueError as exc:
            raise ArtifactError(config_path, str(exc)) from exc
    for name, value in overrides.items():
        if name not in _SETTING_NAMES:
            raise ValueError(f"unknown setting {name!r}")
        if value is not None:
            try:
                settings = replace(settings, **{name: value})
            except ValueError as exc:
                raise SettingError(name, exc) from exc
    return settings


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


def require_local_traffic(records: list[PacketRecord], session: SessionConfig) -> None:
    """Stop before training or replay when the capture holds no app/device
    traffic: there is nothing on the local network to assess."""
    if not records:
        raise NoLocalConnectivityError(
            f"no traffic between {session.app} and {session.device} in the capture"
        )


def _trainer(settings: PipelineSettings):
    """The trainer the settings select, bound to their model parameters."""
    if settings.model_kind == "lof":
        return partial(train_lof, k=settings.lof_k, threshold=settings.lof_threshold)
    return partial(
        train_isolation_forest,
        trees=settings.trees,
        subsample=settings.subsample,
        seed=settings.seed,
        anomaly_cutoff=settings.anomaly_cutoff,
    )


def train_from_capture(
    capture: bytes,
    session: SessionConfig,
    settings: PipelineSettings | None = None,
) -> TrainedDetector:
    """Learn legitimate response behavior from a command-session capture."""
    train = _trainer(settings or PipelineSettings())
    records, notes = parse_capture_with_notes(capture, session)
    require_local_traffic(records, session)
    flows = segment_flows(records, session)
    payloads = [record.payload for flow in flows for record in flow.responses]
    # A device answers with a few fixed acks: featurize each one once, for
    # the model and the classifier both.
    rows = {payload: featurize(payload) for payload in dict.fromkeys(payloads)}
    model: NoveltyModel | None = None
    if len(payloads) >= 2:
        # The settings were checked when built and the rows are finite and of
        # one width, so the one bound left to fail is subsample against n.
        try:
            model = train([rows[payload] for payload in payloads])
        except ValueError as exc:
            raise SettingError("subsample", exc) from exc
    return TrainedDetector(
        model=model,
        response_class=classify_training_responses(flows, rows),
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
    require_local_traffic(records, session)
    flows = segment_flows(records, session)
    result = run_attack(flows, target or session.device, settings)
    return result, records


# ---------------------------------------------------------------------------
# repeated assessment against a device
# ---------------------------------------------------------------------------


class AssessedDevice(Protocol):
    """What assess_device needs from a device; captures are pcap bytes of
    its traffic with app, and its protocol stays opaque."""

    endpoint: Endpoint

    @property
    def name(self) -> str: ...  # names the device in reports, before "@endpoint"

    def training_capture(self, app: Endpoint) -> bytes:
        """A session of legitimate commands and the device's responses."""

    def command_capture(self, app: Endpoint) -> bytes:
        """One legitimate command, sent now, that puts the device in a state."""

    def arm(self, app: Endpoint) -> None:
        """Put the device in the opposite state, so a replay can show."""

    def restart(self) -> None:
        """Power-cycle the device and wait until it serves again."""

    def replay_took_effect(self) -> bool:
        """Ground truth: is the device in the recorded command's state?"""


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
    device: AssessedDevice,
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

    detector = train_from_capture(device.training_capture(app), session, settings)

    verdicts: list[Verdict] = []
    truths: list[bool] = []
    for _ in range(reps):
        attack_capture = device.command_capture(app)
        if scenario == SCENARIO_RESTART:
            device.restart()
        device.arm(app)
        result, attack_records = attack_from_capture(
            attack_capture, session, device.endpoint, settings
        )
        verdicts.append(decide(result.queue, attack_records, detector.model, settings))
        truths.append(device.replay_took_effect())

    return AssessmentResult(
        device_id=f"{device.name}@{device.endpoint}",
        scenario=scenario,
        verdicts=verdicts,
        truths=truths,
        model_kind=detector.model.kind if detector.model is not None else None,
        response_class=(
            detector.response_class.value if detector.response_class else None
        ),
    )
