"""Write the model-file compatibility corpus beside this script.

    PYTHONPATH=src python tests/model_corpus/write_corpus.py

Each entry is a model file as `replaycheck train` writes it (NAME.json,
schema novelty-model/1) and NAME.expected.json: the feature rows of the
model's distinct training responses and of the profile's error reply,
with the score and label the writing code gave each. test_model_corpus
loads every file with the current code and requires the same scores to
the bit and the same labels.

The files are never regenerated: they pin what old files read as. A new
model format adds new files beside these, written by its own code.
"""

from __future__ import annotations

import base64
import json
import sys
from pathlib import Path

from replaycheck import artifacts
from replaycheck.capture import DEFAULT_APP_ENDPOINT, SessionConfig
from replaycheck.features import featurize
from replaycheck.models import classify, model_to_dict
from replaycheck.pipeline import PipelineSettings, train_from_capture
from replaycheck.simdevices import Behavior, default_profile, spawn_device

HERE = Path(__file__).resolve().parent

ECHO_STYLE = ("cleartext_echo", "signed_cleartext", "encoded_fixed", "session_key")

# (file name, behavior, device seed, model kind). The cleartext_echo LOF
# at seed 0 keeps feature 5 (histogram bucket 2), constant in training,
# by a std of 2.8e-17 that rounding leaves.
ENTRIES = [
    (f"{behavior}-{kind}", behavior, 0, kind)
    for behavior in ECHO_STYLE
    for kind in ("lof", "isolation_forest")
] + [
    # LOF keeps only features 6 and 8 and reads the rekeyed device's
    # rejection REGULAR (1.32 < 1.5) unless it applies constant_features.
    ("session_key-5905-lof", "session_key", 5905, "lof"),
    # Both acks share one feature row: every dimension constant.
    ("session_key-918-lof", "session_key", 918, "lof"),
]

# An unframeable message answers with the error reply on every echo-style
# profile: invalid JSON for the line protocols, an unknown 24-byte blob for
# encoded_fixed.
_GARBAGE = b"x" * 24 + b"\n"


def error_reply(device) -> bytes:
    handle = device._new_handler()
    return handle(_GARBAGE)[0][0]


def write_entry(name: str, behavior: str, seed: int, kind: str) -> None:
    with spawn_device(default_profile(Behavior(behavior), seed=seed)) as device:
        session = SessionConfig(app=DEFAULT_APP_ENDPOINT, device=device.endpoint)
        capture = device.training_capture(DEFAULT_APP_ENDPOINT)
        detector = train_from_capture(capture, session, PipelineSettings(model_kind=kind))
        rejection = error_reply(device)
    payloads = list(dict.fromkeys(r.payload for flow in detector.flows for r in flow.responses))
    payloads.append(rejection)
    model = detector.model
    artifacts.write(HERE / f"{name}.json", artifacts.MODEL, model_to_dict(model))
    queries = []
    for payload in payloads:
        row = list(featurize(payload))
        queries.append({
            "payload_b64": base64.b64encode(payload).decode("ascii"),
            "row": row,
            "score": model.score(row),
            "label": classify(model, row).value,
        })
    expected = {"behavior": behavior, "device_seed": seed, "kind": kind, "queries": queries}
    (HERE / f"{name}.expected.json").write_text(json.dumps(expected, indent=1) + "\n")


def main() -> int:
    for entry in ENTRIES:
        write_entry(*entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
