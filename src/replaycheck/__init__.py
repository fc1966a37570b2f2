"""Replay-attack vulnerability assessment for networked devices.

Learns what legitimate responses look like from a small capture of a
paired app commanding a device, replays the captured command flows back
at the device, and judges from the live responses whether the replay
took effect. Ships a set of simulated devices so the whole loop can run
against real sockets without touching hardware.
"""

from .capture import (
    CaptureNotes,
    Direction,
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
    Transport,
    check_local_connectivity,
    parse_capture,
    parse_capture_with_notes,
    parse_endpoint,
    segment_flows,
)
from .features import DIMENSIONS, FeatureVector, featurize
from .models import (
    DEFAULT_ANOMALY_CUTOFF,
    DEFAULT_LOF_K,
    DEFAULT_LOF_THRESHOLD,
    InsufficientTrainingError,
    IsolationForestModel,
    Label,
    LofModel,
    NoveltyModel,
    classify,
    train_isolation_forest,
    train_lof,
)
from .pipeline import (
    SCENARIO_NON_RESTART,
    SCENARIO_RESTART,
    AssessmentResult,
    NoLocalConnectivityError,
    PipelineSettings,
    TrainedDetector,
    assess_device,
    attack_from_capture,
    load_settings,
    train_from_capture,
)
from .protocols import (
    ResponseClass,
    classify_response_type,
    classify_training_responses,
    detect_standard_security_protocol,
    hamming_similarity,
)
from .replay import (
    AttackResult,
    FlowReplayReport,
    QueueEntry,
    ReplayConfig,
    ResponseQueue,
    run_attack,
    schedule,
)
from .simdevices import (
    DEFAULT_APP_ENDPOINT,
    DEFAULT_TRAINING_SCRIPT,
    Behavior,
    DeviceProfile,
    DeviceState,
    ScriptedResponder,
    SimulatedDevice,
    SpawnError,
    TriggerError,
    companion_session,
    default_profile,
    expected_vulnerable,
    query_state,
    records_to_capture,
    restart_device,
    spawn_device,
    trigger_state,
)
from .verdict import (
    DEFAULT_RESPONSE_WINDOW,
    DetectionConfig,
    Outcome,
    Reason,
    Verdict,
    decide,
    protocol_check,
    response_check,
)

__version__ = "0.1.0"
