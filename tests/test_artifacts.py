"""Artifact codec properties: any input either decodes or raises ArtifactError,
and whatever decodes can be summarized by `replaycheck report`."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from replaycheck import artifacts
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import records_to_capture
from replaycheck.cli import main
from replaycheck.models import train_isolation_forest, train_lof
from replaycheck.pipeline import AssessmentResult
from replaycheck.replay import QueueEntry, ResponseQueue
from replaycheck.simdevices import DEFAULT_APP_ENDPOINT
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
        {"flows": [{"scheduled_position": 0, "original_index": 1, "transport": "tcp", "request_lengths": [4, 8],
                    "expected_responses": 2, "response_count": 1, "note": ""}]}
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
    assert detect_error(tmp_path, model_path).startswith(f"error: {model_path}: {field} must")


def detect_error(tmp_path, model_path):
    """The one stderr line of a detect that must refuse model_path, exit 2."""
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
    return line


def with_first_number(node, value):
    """node with its first number, depth first, replaced by value."""
    if isinstance(node, list):
        return [with_first_number(node[0], value), *node[1:]]
    return value


# Every number array of an LOF body, and the forest's split thresholds, each
# made NaN and infinite; then the signs a std, an lrd and a k_distance keep.
LOF, FOREST = VALID[artifacts.MODEL]
NUMBER_FIELDS = [
    (LOF, ("standardization", "mean")),
    (LOF, ("standardization", "std")),
    (LOF, ("points",)),
    (LOF, ("k_distance",)),
    (LOF, ("lrd",)),
    (FOREST, ("trees",)),
]
BAD_NUMBERS = [(*case, value) for case in NUMBER_FIELDS for value in (math.nan, math.inf)] + [
    # points without the dimension a negative std drops, so the shapes agree
    ({**LOF, "points": [row[1:] for row in LOF["points"]]}, ("standardization", "std"), -1.0),
    (LOF, ("lrd",), 0.0),
    (LOF, ("lrd",), -1.0),
    (LOF, ("k_distance",), -1.0),
]


@pytest.mark.parametrize(
    "body, field, value", BAD_NUMBERS, ids=[f"{field[-1]}={value}" for _, field, value in BAD_NUMBERS]
)
def test_model_numbers_are_ones_training_can_write(tmp_path, body, field, value):
    """A NaN lrd or k_distance would score an error reply NaN, which no
    cutoff calls irregular; a model file holds only finite numbers, and
    densities and distances of the right sign."""
    body = json.loads(json.dumps(body))
    *parents, name = field
    holder = body
    for parent in parents:
        holder = holder[parent]
    if name == "trees":
        holder[name][0] = {"f": 0, "t": value, "l": {"n": 1}, "r": {"n": 1}}
    else:
        holder[name] = with_first_number(holder[name], value)
    model_path = tmp_path / "model.json"
    artifacts.write(model_path, artifacts.MODEL, body)
    with pytest.raises(ArtifactError):
        artifacts.read(model_path, artifacts.MODEL)
    assert detect_error(tmp_path, model_path).startswith(f"error: {model_path}: ")


@pytest.mark.parametrize("accuracy", [10**400, 1.5, -0.5, math.nan], ids=["huge-int", "1.5", "negative", "NaN"])
def test_assessment_accuracy_outside_unit_interval_rejected(path, accuracy):
    """report prints accuracy as a float; a value no assessment can have is
    an ArtifactError, not an OverflowError traceback."""
    artifacts.write(path, artifacts.ASSESSMENT, {**VALID[artifacts.ASSESSMENT][0], "accuracy": accuracy})
    with pytest.raises(ArtifactError, match="accuracy"):
        artifacts.read(path, artifacts.ASSESSMENT)
    result = CliRunner().invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output


def with_value(body, path, value):
    """A copy of body with the node at path (object keys and list indexes)
    set to value."""
    body = json.loads(json.dumps(body))
    *parents, last = path
    holder = body
    for key in parents:
        holder = holder[key]
    holder[last] = value
    return body


# A forest with a split and a constant feature, so each field a forest reads is present.
SPLIT_FOREST = {
    **FOREST,
    "trees": [{"f": 0, "t": 0.5, "l": {"n": 1}, "r": {"n": 1}}],
    "constant_features": [[1, 2.0]],
}
# An LOF model trained on identical rows, so it records their values.
CONSTANT_LOF = train_lof([[7.0, 7.0]] * 4, k=2).to_dict()
TRANSCRIPT_BODY, VERDICT_BODY, ASSESSMENT_BODY = (
    VALID[schema][0] for schema in (artifacts.TRANSCRIPT, artifacts.VERDICT, artifacts.ASSESSMENT)
)
# Every number field a reader checks, by schema, body and path.
NUMBER_PATHS = [
    *[(artifacts.MODEL, LOF, field) for field in (
        ("k",), ("k_eff",), ("threshold",), ("standardization", "mean", 0),
        ("standardization", "std", 0), ("points", 0, 0), ("k_distance", 0), ("lrd", 0),
    )],
    (artifacts.MODEL, CONSTANT_LOF, ("constant_features", 0, 0)),
    (artifacts.MODEL, CONSTANT_LOF, ("constant_features", 0, 1)),
    *[(artifacts.MODEL, SPLIT_FOREST, field) for field in (
        ("subsample",), ("seed",), ("anomaly_cutoff",), ("constant_features", 0, 0),
        ("constant_features", 0, 1), ("trees", 0, "f"), ("trees", 0, "t"), ("trees", 0, "l", "n"),
    )],
    (artifacts.QUEUE, VALID[artifacts.QUEUE][0], ("responses", 0, "timestamp")),
    (artifacts.QUEUE, VALID[artifacts.QUEUE][0], ("responses", 0, "flow_index")),
    *[(artifacts.TRANSCRIPT, TRANSCRIPT_BODY, ("flows", 0, name)) for name in (
        "scheduled_position", "original_index", "expected_responses", "response_count",
    )],
    (artifacts.VERDICT, VERDICT_BODY, ("j",)),
    (artifacts.ASSESSMENT, ASSESSMENT_BODY, ("reps",)),
    (artifacts.ASSESSMENT, ASSESSMENT_BODY, ("accuracy",)),
]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "schema, body, field",
    NUMBER_PATHS,
    ids=[f"{body.get('kind', schema)}:{'.'.join(map(str, field))}" for schema, body, field in NUMBER_PATHS],
)
def test_a_json_boolean_is_never_a_number(tmp_path, schema, body, field, value):
    """bool is an int to Python, so a file could once give true for a count
    (report then printed an LOF model's "k=True (effective True)"). Every
    reader refuses a boolean where it reads a number, and report exits 2
    with one error line."""
    path = tmp_path / "artifact.json"
    artifacts.write(path, schema, body)
    artifacts.read(path, schema)  # the body as given is well formed
    artifacts.write(path, schema, with_value(body, field, value))
    with pytest.raises(ArtifactError):
        artifacts.read(path, schema)
    result = CliRunner().invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: ")


# Every count and position a report prints, with a value below the least a run writes.
COUNTS_BELOW_LEAST = [
    *[(artifacts.TRANSCRIPT, TRANSCRIPT_BODY, ("flows", 0, name), value) for name, value in (
        ("scheduled_position", -9), ("original_index", -1), ("expected_responses", -1), ("response_count", -3),
    )],
    (artifacts.VERDICT, VERDICT_BODY, ("j",), -1),
    (artifacts.VERDICT, VERDICT_BODY, ("j",), 0),
    (artifacts.ASSESSMENT, ASSESSMENT_BODY, ("reps",), -2),
    (artifacts.ASSESSMENT, ASSESSMENT_BODY, ("reps",), 0),
]


@pytest.mark.parametrize(
    "schema, body, field, value",
    COUNTS_BELOW_LEAST,
    ids=[f"{field[-1]}={value}" for _, _, field, value in COUNTS_BELOW_LEAST],
)
def test_a_report_count_below_its_least_is_refused(tmp_path, schema, body, field, value):
    """report once printed "-3 of 1 captured responses" and "-2 reps" with
    exit 0. Positions and response counts start at 0, and a verdict's
    window and an assessment's reps at 1; below that, report exits 2 with
    one error line naming the field."""
    path = tmp_path / "report.json"
    artifacts.write(path, schema, with_value(body, field, value))
    with pytest.raises(ArtifactError, match=field[-1]):
        artifacts.read(path, schema)
    result = CliRunner().invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: ") and f"'{field[-1]}'" in line


QUEUE_BODY = VALID[artifacts.QUEUE][0]


@pytest.mark.parametrize(
    "field, value",
    [
        ("timestamp", 10**400),
        ("timestamp", math.nan),
        ("timestamp", math.inf),
        ("timestamp", -0.5),
        ("flow_index", -1),
    ],
    ids=["huge-int", "NaN", "Infinity", "negative-timestamp", "negative-flow-index"],
)
def test_a_queue_entry_needs_a_finite_timestamp_and_a_flow_index_from_0(tmp_path, field, value):
    """report prints each timestamp as a float: a 400-digit integer once
    raised an OverflowError traceback after the first line, and NaN printed
    "t=nans". A queue entry's timestamp is seconds since the attack began
    and its flow_index a position in the capture, so neither can be
    negative, and the timestamp is finite."""
    path = tmp_path / "queue.json"
    artifacts.write(path, artifacts.QUEUE, with_value(QUEUE_BODY, ("responses", 0, field), value))
    with pytest.raises(ArtifactError):
        artifacts.read(path, artifacts.QUEUE)
    result = CliRunner().invoke(main, ["report", str(path)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: ")
