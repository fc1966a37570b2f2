"""Artifact codec properties: any input either decodes or raises ArtifactError,
and whatever decodes can be summarized by `replaycheck report`."""

import json
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
    "k_distance", "lrd", "trees", "subsample", "seed", "anomaly_cutoff", "f", "t",
    "l", "r", "n", "responses", "timestamp", "flow_index", "payload_b64", "flows",
    "scheduled_position", "original_index", "request_lengths", "response_count",
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
        {"flows": [asdict(FlowReplayReport(0, 1, Transport.TCP, (4, 8), 1, ""))]}
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
