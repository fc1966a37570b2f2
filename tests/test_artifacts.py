"""Artifact codec properties: any input either decodes or raises ArtifactError,
and whatever decodes can be summarized by `replaycheck report`."""

import json
import math
from dataclasses import asdict

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import Transport
from replaycheck.cli import main
from replaycheck.models import train_isolation_forest, train_lof
from replaycheck.pipeline import AssessmentResult
from replaycheck.replay import FlowReplayReport, QueueEntry, ResponseQueue
from replaycheck.simdevices import DEFAULT_APP_ENDPOINT, records_to_capture
from replaycheck.verdict import Outcome, Reason, Verdict

SCHEMAS = [
    artifacts.MODEL,
    artifacts.QUEUE,
    artifacts.TRANSCRIPT,
    artifacts.VERDICT,
    artifacts.ASSESSMENT,
]

# Every field name some decoder reads, so generated objects reach past the
# first missing-field check often enough to exercise the type checks.
FIELD_NAMES = [
    "kind", "k", "k_eff", "threshold", "standardization", "mean", "std", "points",
    "k_distance", "lrd", "trees", "subsample", "seed", "anomaly_cutoff",
    "constant_features", "f", "t",
    "l", "r", "n", "responses", "timestamp", "flow_index", "payload_b64", "flows",
    "scheduled_position", "original_index", "request_lengths", "expected_responses", "response_count",
    "note", "device_id", "scenario", "outcome", "reason", "labels", "j", "vulnerable",
    "reps", "accuracy", "reason_counts",
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["lof", "isolation_forest", "none", "AAAA", "!!", 10**400])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), inner, max_size=6),
    max_leaves=20,
)

TRAINING = [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]
NO_RESPONSE = Verdict(Outcome.FAILED, Reason.NO_RESPONSE, ())
# One well-formed body per schema (two for models); corrupting a single node
# of one reaches the deeper field checks that random objects rarely get to.
VALID = {
    artifacts.MODEL: [
        train_lof(TRAINING, k=2).to_dict(),
        train_isolation_forest(TRAINING, trees=2, seed=1).to_dict(),
    ],
    artifacts.QUEUE: [ResponseQueue((QueueEntry(0.5, 0, b"ack"),)).to_dict()],
    artifacts.TRANSCRIPT: [
        {"flows": [asdict(FlowReplayReport(0, 1, Transport.TCP, (4, 8), 2, 1, ""))]}
    ],
    artifacts.VERDICT: [
        {"outcome": "FAILED", "reason": "AllIrregular", "labels": ["irregular"],
         "device_id": "d", "scenario": "restart", "j": 3, "model_kind": "lof"}
    ],
    artifacts.ASSESSMENT: [AssessmentResult("d", "restart", [NO_RESPONSE], [False], "lof", None).to_dict()],
}


@st.composite
def corrupted(draw, value, root=True):
    """value with one node below the root replaced by an arbitrary JSON
    value, or with one object key dropped."""
    descend = root or draw(st.integers(0, 3)) > 0
    if isinstance(value, dict) and value and descend:
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.integers(0, 3)) == 0:
            return {k: v for k, v in value.items() if k != key}
        return {**value, key: draw(corrupted(value[key], root=False))}
    if isinstance(value, list) and value and descend:
        index = draw(st.integers(0, len(value) - 1))
        return value[:index] + [draw(corrupted(value[index], root=False))] + value[index + 1 :]
    return draw(json_values)


def tagged_objects(schema):
    random_objects = st.dictionaries(st.sampled_from(FIELD_NAMES), json_values, max_size=10)
    valid = st.sampled_from(VALID[schema])
    return random_objects | valid.flatmap(corrupted)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts") / "artifact.json"


def read_or_reject(path, schema):
    try:
        artifacts.read(path, schema)
    except ArtifactError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        result = CliRunner().invoke(main, ["report", str(path)])
        assert result.exit_code == 0, result.output


@pytest.mark.parametrize("schema", SCHEMAS)
@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_artifact_error(path, schema, data):
    path.write_bytes(data)
    read_or_reject(path, schema)


@pytest.mark.parametrize("schema", SCHEMAS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tagged_objects_decode_or_raise_artifact_error(path, schema, data):
    body = data.draw(tagged_objects(schema))
    path.write_text(json.dumps({**body, "schema": schema}))
    read_or_reject(path, schema)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_valid_bodies_decode(path, schema):
    for body in VALID[schema]:
        artifacts.write(path, schema, body)
        artifacts.read(path, schema)


HUGE_LRD = {**VALID[artifacts.MODEL][0], "lrd": [10**400] * len(TRAINING)}


@pytest.mark.parametrize(
    "data",
    [
        b"[1, 2]",
        b'"novelty-model/1"',
        b"{}",
        b'{"schema": 7}',
        b"[" * 100_000,
        b"\xff\xfe{",
        json.dumps({**HUGE_LRD, "schema": artifacts.MODEL}).encode(),
    ],
    ids=["array", "string", "untagged", "non-string-tag", "deeply-nested", "undecodable", "huge-int"],
)
def test_rejects_non_artifacts(path, data):
    path.write_bytes(data)
    with pytest.raises(ArtifactError):
        artifacts.read(path, artifacts.MODEL)


# Each model kind's cutoff field, and the one of CUTOFFS its settings accept.
CUTOFF_FIELDS = [
    (VALID[artifacts.MODEL][0], "threshold", 1.5),
    (VALID[artifacts.MODEL][1], "anomaly_cutoff", 0.5),
]
CUTOFFS = [math.inf, math.nan, 0.5, 1.5]


@pytest.mark.parametrize("value", CUTOFFS, ids=["Infinity", "NaN", "0.5", "1.5"])
@pytest.mark.parametrize("body, field, accepted", CUTOFF_FIELDS, ids=["lof", "isolation_forest"])
def test_model_cutoff_is_checked_by_the_settings_rule(tmp_path, body, field, accepted, value):
    """A model file holds only a cutoff the settings would accept; detect
    refuses any other with one `error: <path>: <reason>` line, exit 2."""
    model_path = tmp_path / "model.json"
    artifacts.write(model_path, artifacts.MODEL, {**body, field: value})
    if value == accepted:
        assert getattr(artifacts.read(model_path, artifacts.MODEL), field) == value
        return
    with pytest.raises(ArtifactError, match=field):
        artifacts.read(model_path, artifacts.MODEL)
    capture, queue_path = tmp_path / "attack.pcap", tmp_path / "queue.json"
    capture.write_bytes(records_to_capture([]))
    artifacts.write(queue_path, artifacts.QUEUE, ResponseQueue((QueueEntry(0.01, 0, b"ack"),)).to_dict())
    result = CliRunner().invoke(
        main,
        [
            "detect",
            "--queue", str(queue_path),
            "--model", str(model_path),
            "--attack-capture", str(capture),
            "--app", str(DEFAULT_APP_ENDPOINT),
            "--device", "127.0.0.1:9",
        ],
    )
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {model_path}: {field} must")


@pytest.mark.parametrize("accuracy", [10**400, 1.5, -0.5, math.nan], ids=["huge-int", "1.5", "negative", "NaN"])
def test_assessment_accuracy_outside_unit_interval_rejected(path, accuracy):
    """report prints accuracy as a float; a value no assessment can have is
    an ArtifactError, not an OverflowError traceback."""
    artifacts.write(path, artifacts.ASSESSMENT, {**VALID[artifacts.ASSESSMENT][0], "accuracy": accuracy})
    with pytest.raises(ArtifactError, match="accuracy"):
        artifacts.read(path, artifacts.ASSESSMENT)
    result = CliRunner().invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output
