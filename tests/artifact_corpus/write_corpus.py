"""Write the artifact compatibility corpus beside this script.

    PYTHONPATH=src python tests/artifact_corpus/write_corpus.py

For each case below the script runs the tool's own commands against a
simulated device and keeps what they write:

- NAME.training.pcap, the companion session `train` learned from, and
  NAME.model.json, the model it wrote;
- NAME.attack.pcap, the capture `attack` replayed (a command capture, or
  the whole training session), with NAME.queue.json and
  NAME.transcript.json, the response queue and transcript it wrote;
- NAME.verdict.json, the report `detect` wrote for that queue;
- NAME.assessment.json, the report `assess` wrote for the same profile
  and scenario;
- NAME.expected.json: the endpoints the captures hold, the options
  `train` was given and what it printed, what `detect` printed and its
  exit code, and what `report` printed for each file.

test_artifact_corpus reads every file with the current code and requires
the same `report` lines, the same `train` output from the training
capture, and the same `detect` output and exit code.

The files are never regenerated: they pin what old files read as. A new
artifact format adds new files beside these, written by its own code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from click.testing import CliRunner

from replaycheck.cli import main as cli
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    Behavior,
    default_profile,
    spawn_device,
)

HERE = Path(__file__).resolve().parent

# Fast loopback timings, as the test suite uses.
TIMING = [
    "--response-timeout-ms", "120",
    "--inter-request-delay-ms", "20",
    "--inter-flow-delay-ms", "30",
    "--connect-timeout-ms", "400",
]

# (name, behavior, device seed, scenario, train options, what attack replays)
CASES = [
    # A successful replay of one command: LOF, exit 10.
    ("cleartext_echo", "cleartext_echo", 0, "non_restart", ["--model-kind", "lof"], "command"),
    # The whole session replayed after a rekey: ten error replies a forest
    # reads as irregular, exit 11.
    ("session_key-restart", "session_key", 0, "restart",
     ["--model-kind", "isolation_forest", "--trees", "20"], "training"),
    # TLS-shaped records: twenty responses, more than report lists.
    ("tls_like", "tls_like", 0, "non_restart", ["--model-kind", "lof"], "training"),
    # No response at all, and a model of kind none.
    ("silent", "silent", 0, "non_restart", ["--model-kind", "lof"], "command"),
]


def run(*args: str) -> tuple[list[str], int]:
    result = CliRunner().invoke(cli, [str(arg) for arg in args])
    if result.exception and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.stdout.splitlines(), result.exit_code


def write_case(name, behavior, seed, scenario, train_options, replayed) -> None:
    path = {kind: HERE / f"{name}.{kind}" for kind in (
        "training.pcap", "attack.pcap", "model.json", "queue.json",
        "transcript.json", "verdict.json", "assessment.json",
    )}
    app = DEFAULT_APP_ENDPOINT
    profile = default_profile(Behavior(behavior), seed=seed, post_restart_delay_s=0.05)
    with spawn_device(profile) as device:
        path["training.pcap"].write_bytes(device.training_capture(app))
        endpoints = ["--app", str(app), "--device", str(device.endpoint)]
        train_lines, code = run("train", "--capture", path["training.pcap"], *endpoints,
                                "--model-out", path["model.json"], *train_options)
        assert code == 0, code
        if replayed == "command":
            path["attack.pcap"].write_bytes(device.command_capture(app))
        else:
            path["attack.pcap"].write_bytes(path["training.pcap"].read_bytes())
        device.arm(app)
        if scenario == "restart":
            device.restart()
        _, code = run("attack", "--capture", path["attack.pcap"], *endpoints,
                      "--queue-out", path["queue.json"],
                      "--transcript-out", path["transcript.json"], *TIMING)
        assert code == 0, code
    detect = ["detect", "--queue", path["queue.json"], "--model", path["model.json"],
              "--attack-capture", path["attack.pcap"], *endpoints]
    _, code = run(*detect, "--scenario", scenario, "--report-out", path["verdict.json"])
    assert code in (10, 11), code
    detect_lines, detect_code = run(*detect)
    _, code = run("assess", "--behavior", behavior, "--scenario", scenario, "--reps", "2",
                  "--device-seed", seed, "--post-restart-delay", "0.05", *TIMING,
                  "--report-out", path["assessment.json"])
    assert code in (10, 11), code
    reports = {}
    for kind in ("model.json", "queue.json", "transcript.json", "verdict.json", "assessment.json"):
        lines, code = run("report", path[kind])
        assert code == 0, code
        reports[path[kind].name] = lines
    expected = {
        "behavior": behavior,
        "device_seed": seed,
        "scenario": scenario,
        "app": str(app),
        "device": endpoints[-1],
        # all but the last line, which names the output path
        "train": {"options": train_options, "stdout": train_lines[:-1]},
        "detect": {"stdout": detect_lines, "exit_code": detect_code},
        "report": reports,
    }
    (HERE / f"{name}.expected.json").write_text(json.dumps(expected, indent=1) + "\n")


def main() -> int:
    for case in CASES:
        write_case(*case)
    return 0


if __name__ == "__main__":
    sys.exit(main())
