"""The artifact codec: every JSON file the stages hand each other.

Each artifact is one JSON object tagged with a versioned ``schema``
string, written with sorted keys and two-space indent. Reading checks
the tag and decodes the body into the value the next stage uses. Every
way a file can be malformed (unreadable, undecodable bytes, not JSON,
not an object, an unknown or unexpected schema, a missing or mistyped
field) raises one ArtifactError that names the file.
"""

from __future__ import annotations

import base64
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .models import json_isinstance, model_from_dict
from .replay import QueueEntry, ResponseQueue

__all__ = ["ArtifactError", "write", "read", "read_any", "read_object"]

MODEL = "novelty-model/1"
QUEUE = "response-queue/1"
TRANSCRIPT = "attack-transcript/1"
VERDICT = "verdict-report/1"
ASSESSMENT = "assessment-report/1"


class ArtifactError(ValueError):
    """A file that is not a well-formed artifact of the expected schema."""

    def __init__(self, path: str | Path, reason: str):
        super().__init__(f"{path}: {reason}")


def write(path: str | Path, schema: str, body: dict) -> None:
    """Write body as an artifact of the given schema."""
    document = {"schema": schema, **body}
    # Reports record when they were made; the stage-to-stage artifacts do not.
    if schema in (VERDICT, ASSESSMENT):
        document["timestamps"] = {
            "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def read(path: str | Path, schema: str) -> Any:
    """Decode the artifact at path, which must carry the given schema.

    Returns a novelty model (None for kind "none"), a ResponseQueue, or
    for the three reports the checked JSON object itself.
    """
    return _load(path, schema)[1]


def read_any(path: str | Path) -> tuple[str, Any]:
    """Decode an artifact of any known schema; returns (schema, value)."""
    return _load(path, None)


def read_object(path: str | Path) -> dict:
    """The JSON object in the file at path: a settings file, or an artifact yet to be decoded."""
    try:
        body = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ArtifactError(path, exc.strerror or str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        raise ArtifactError(path, f"is not JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ArtifactError(path, "is not a JSON object")
    return body


def _load(path: str | Path, expected: str | None) -> tuple[str, Any]:
    body = read_object(path)
    schema = body.get("schema")
    if not isinstance(schema, str) or schema not in _DECODERS:
        raise ArtifactError(path, f"unrecognized artifact schema {schema!r}")
    if expected is not None and schema != expected:
        raise ArtifactError(path, f"expected a {expected} artifact, got {schema}")
    try:
        return schema, _DECODERS[schema](body)
    except KeyError as exc:
        raise ArtifactError(path, f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ArtifactError(path, str(exc)) from exc


def _checked(body: dict, fields: dict[str, type | tuple[type, ...]], least: int = 0) -> dict:
    for name, kind in fields.items():
        value = body[name]
        if not json_isinstance(value, kind):
            raise TypeError(f"field {name!r} has type {type(value).__name__}")
        if kind is int and value < least:
            raise ValueError(f"field {name!r} must be >= {least}")
    return body


def _objects(body: dict, name: str, fields: dict[str, type | tuple[type, ...]]) -> list[dict]:
    if not all(isinstance(item, dict) for item in _checked(body, {name: list})[name]):
        raise TypeError(f"field {name!r} must hold objects")
    return [_checked(item, fields) for item in body[name]]


# The fields each reader reads, with the JSON type each must have. Their int
# fields are counts and positions: j and reps from 1, the rest from 0.
_QUEUE_ENTRY_FIELDS = dict(timestamp=(int, float), flow_index=int, payload_b64=str)
_FLOW_FIELDS = dict(scheduled_position=int, original_index=int, request_lengths=list, response_count=int)
_VERDICT_FIELDS = dict(device_id=str, scenario=str, outcome=str, reason=str, labels=list, j=int)
_ASSESSMENT_FIELDS = dict(
    device_id=str, scenario=str, vulnerable=bool, reps=int, accuracy=(int, float), reason_counts=dict
)


def _decode_queue(body: dict) -> ResponseQueue:
    entries = []
    for entry in _objects(body, "responses", _QUEUE_ENTRY_FIELDS):
        if not 0 <= entry["timestamp"] <= sys.float_info.max:  # refuses NaN and ints too big for a float
            raise ValueError("field 'timestamp' must be finite and >= 0")
        try:
            payload = base64.b64decode(entry["payload_b64"], validate=True)
        except ValueError:
            raise ValueError("field 'payload_b64' is not strict base64") from None
        entries.append(QueueEntry(float(entry["timestamp"]), entry["flow_index"], payload))
    return ResponseQueue(tuple(entries))


def _decode_transcript(body: dict) -> dict:
    for flow in _objects(body, "flows", _FLOW_FIELDS):
        if "expected_responses" in flow:  # transcripts written before it was recorded lack it
            _checked(flow, dict(expected_responses=int))
    return body


def _decode_verdict(body: dict) -> dict:
    if not all(isinstance(label, str) for label in _checked(body, _VERDICT_FIELDS, least=1)["labels"]):
        raise TypeError("field 'labels' must hold strings")
    return body


def _decode_assessment(body: dict) -> dict:
    if not 0 <= _checked(body, _ASSESSMENT_FIELDS, least=1)["accuracy"] <= 1:  # refuses NaN too
        raise ValueError("field 'accuracy' must lie in [0, 1]")
    return body


_DECODERS = {
    MODEL: model_from_dict,
    QUEUE: _decode_queue,
    TRANSCRIPT: _decode_transcript,
    VERDICT: _decode_verdict,
    ASSESSMENT: _decode_assessment,
}
