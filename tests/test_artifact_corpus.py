"""Queues, transcripts, reports and captures written by earlier code read
as they did then.

tests/artifact_corpus holds, per case, the captures and the files
`train`, `attack`, `detect` and `assess` wrote against a simulated
device, with what `train` printed, the lines `report` printed for each
file and what `detect` printed and returned (see write_corpus.py there).
The files are never regenerated.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from replaycheck.cli import main

CORPUS = Path(__file__).parent / "artifact_corpus"
NAMES = sorted(path.name[: -len(".expected.json")] for path in CORPUS.glob("*.expected.json"))
SUFFIXES = (
    ".training.pcap", ".attack.pcap", ".model.json", ".queue.json",
    ".transcript.json", ".verdict.json", ".assessment.json", ".expected.json",
)
REPORTED = [
    (name, file_name)
    for name in NAMES
    for file_name in json.loads((CORPUS / f"{name}.expected.json").read_text())["report"]
]


def run(*args):
    return CliRunner().invoke(main, [str(arg) for arg in args])


def test_the_corpus_is_there():
    assert NAMES == ["cleartext_echo", "session_key-restart", "silent", "tls_like"]
    assert {path.name for path in CORPUS.iterdir() if path.suffix in (".json", ".pcap")} == {
        f"{name}{suffix}" for name in NAMES for suffix in SUFFIXES
    }
    assert len(REPORTED) == 5 * len(NAMES)


@pytest.mark.parametrize("name, file_name", REPORTED, ids=[f for _, f in REPORTED])
def test_report_prints_what_it_printed_when_the_file_was_written(name, file_name):
    expected = json.loads((CORPUS / f"{name}.expected.json").read_text())["report"][file_name]
    result = run("report", CORPUS / file_name)
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines() == expected


@pytest.mark.parametrize("name", NAMES)
def test_train_reads_the_training_capture_as_it_did_when_written(tmp_path, name):
    expected = json.loads((CORPUS / f"{name}.expected.json").read_text())
    result = run(
        "train",
        "--capture", CORPUS / f"{name}.training.pcap",
        "--app", expected["app"],
        "--device", expected["device"],
        "--model-out", tmp_path / "model.json",
        *expected["train"]["options"],
    )
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[:-1] == expected["train"]["stdout"]


@pytest.mark.parametrize("name", NAMES)
def test_detect_gives_the_verdict_and_exit_code_it_gave_when_written(name):
    expected = json.loads((CORPUS / f"{name}.expected.json").read_text())
    result = run(
        "detect",
        "--queue", CORPUS / f"{name}.queue.json",
        "--model", CORPUS / f"{name}.model.json",
        "--attack-capture", CORPUS / f"{name}.attack.pcap",
        "--app", expected["app"],
        "--device", expected["device"],
    )
    assert result.stdout.splitlines() == expected["detect"]["stdout"]
    assert result.exit_code == expected["detect"]["exit_code"]
