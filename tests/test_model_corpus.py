"""Model files written by earlier code load and score as they did then.

tests/model_corpus holds model files and, beside each, the scores and
labels the code that wrote it gave a fixed set of feature rows (see
write_corpus.py there). The files are never regenerated.
"""

import json
from pathlib import Path

import pytest

from replaycheck import artifacts
from replaycheck.models import classify

CORPUS = Path(__file__).parent / "model_corpus"
NAMES = sorted(path.name[: -len(".expected.json")] for path in CORPUS.glob("*.expected.json"))


def test_the_corpus_is_there():
    assert len(NAMES) == 10
    assert {path.name for path in CORPUS.glob("*.json")} == {
        f"{name}{suffix}" for name in NAMES for suffix in (".json", ".expected.json")
    }


@pytest.mark.parametrize("name", NAMES)
def test_old_model_file_scores_and_labels_as_when_written(name):
    model = artifacts.read(CORPUS / f"{name}.json", artifacts.MODEL)
    expected = json.loads((CORPUS / f"{name}.expected.json").read_text())
    assert model.kind == expected["kind"]
    for query in expected["queries"]:
        assert model.score(query["row"]) == query["score"]
        assert classify(model, query["row"]).value == query["label"]


def test_an_old_lof_file_without_constant_features_keeps_its_call():
    """The LOF file for session_key device seed 5905 predates a rule that
    applies constant_features to every LOF model. It carries no such field,
    so the rekeyed device's rejection still reads REGULAR from it: such a
    file must be retrained to get the rule."""
    body = json.loads((CORPUS / "session_key-5905-lof.json").read_text())
    assert "constant_features" not in body
    model = artifacts.read(CORPUS / "session_key-5905-lof.json", artifacts.MODEL)
    rejection = json.loads((CORPUS / "session_key-5905-lof.expected.json").read_text())["queries"][-1]
    assert classify(model, rejection["row"]).value == "regular"
