"""Pipeline orchestration tests: settings resolution, training from
captures of each profile, and short assessment loops."""

import base64
import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import replaycheck
from replaycheck import artifacts, pipeline, replay
from replaycheck.artifacts import ArtifactError
from replaycheck.capture import (
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
    Transport,
    parse_capture,
    records_to_capture,
)
from replaycheck.features import featurize
from replaycheck.models import (
    DEFAULT_LOF_THRESHOLD,
    LOF_PURE_MAX,
    IsolationForestModel,
    LofModel,
    train_isolation_forest,
    train_lof,
)
from replaycheck.pipeline import (
    MODEL_KINDS,
    SCENARIO_NON_RESTART,
    SCENARIO_RESTART,
    SCENARIOS,
    NoLocalConnectivityError,
    PipelineSettings,
    SettingError,
    assess_device,
    attack_from_capture,
    load_settings,
    train_from_capture,
)
from replaycheck.protocols import ResponseClass
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    DEFAULT_TRAINING_SCRIPT,
    Behavior,
    DeviceState,
    companion_session,
    default_profile,
    expected_vulnerable,
    query_state,
    trigger_state,
)
from replaycheck.verdict import Outcome, Reason, decide
from test_iforest import TWO_ACKS, golden_rows

APP = DEFAULT_APP_ENDPOINT
TIMINGS = [
    "per_flow_response_timeout_ms",
    "inter_request_delay_ms",
    "inter_flow_delay_ms",
    "connect_timeout_ms",
]


def session_for(device):
    return SessionConfig(app=APP, device=device.endpoint)


def test_package_root_is_the_readme_surface():
    """The root exports README's library import block, plus Endpoint (which
    a SessionConfig needs) and __version__; the rest lives in submodules."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1]
    block = re.search(r"from replaycheck import \((.*?)\)", library_use, re.S).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    assert len(documented) == 9
    assert set(replaycheck.__all__) == documented | {"Endpoint", "__version__"}
    assert len(replaycheck.__all__) == 11
    for name in replaycheck.__all__:
        assert getattr(replaycheck, name) is not None


class TestSettings:
    def test_defaults(self):
        settings = PipelineSettings()
        assert settings.model_kind == "lof"
        assert settings.lof_k == 5
        assert settings.lof_threshold == 1.5
        assert settings.response_window == 3

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError):
            PipelineSettings(model_kind="autoencoder")

    @pytest.mark.parametrize(
        "field, refused, accepted, reason",
        [
            *(
                (field, (0, replay.MAX_TIMING_MS + 1), replay.MAX_TIMING_MS,
                 f"{field} must be positive and at most 86400000")
                for field in TIMINGS
            ),
            ("response_window", (0,), 1, "response_window must be >= 1"),
        ],
        ids=[*TIMINGS, "response_window"],
    )
    def test_replay_and_detection_fields_checked_at_construction(
        self, field, refused, accepted, reason
    ):
        for value in refused:
            with pytest.raises(ValueError, match=f"^{reason}$"):
                PipelineSettings(**{field: value})
        assert getattr(PipelineSettings(**{field: accepted}), field) == accepted

    @pytest.mark.parametrize("field", ["lof_k", "response_window", "inter_flow_delay_ms", "seed"])
    def test_bool_is_not_an_integer(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got True"):
            PipelineSettings(**{field: True})

    def test_every_model_parameter_checked_whatever_the_kind(self):
        with pytest.raises(ValueError, match="trees"):
            PipelineSettings(model_kind="lof", trees=0)
        with pytest.raises(ValueError, match="threshold"):
            PipelineSettings(model_kind="isolation_forest", lof_threshold=float("nan"))

    @pytest.mark.parametrize("model_kind", ["lof", "isolation_forest"])
    def test_infinite_lof_threshold_rejected(self, tmp_path, model_kind):
        with pytest.raises(ValueError, match="threshold must be finite"):
            PipelineSettings(model_kind=model_kind, lof_threshold=float("inf"))
        config = tmp_path / "settings.json"
        config.write_text('{"lof_threshold": Infinity}')
        with pytest.raises(ValueError, match="threshold must be finite"):
            load_settings(config)

    @pytest.mark.parametrize("model_kind", ["lof", "isolation_forest"])
    def test_negative_seed_rejected_by_name(self, model_kind):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            PipelineSettings(model_kind=model_kind, seed=-1)

    def test_deeply_nested_file_is_a_settings_error(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text("[" * 200_000)
        with pytest.raises(ArtifactError, match="settings.json: is not JSON"):
            load_settings(config)

    def test_file_then_overrides(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_k": 7, "response_window": 4}))
        settings = load_settings(config, lof_k=9, lof_threshold=None)
        assert settings.lof_k == 9  # explicit override beats the file
        assert settings.response_window == 4  # file beats the default
        assert settings.lof_threshold == 1.5  # None means not given

    def test_unknown_file_key_rejected(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_kay": 7}))
        with pytest.raises(ValueError, match="lof_kay"):
            load_settings(config)

    @pytest.mark.parametrize(
        "body, reason",
        [({"lof_kay": 7}, "unknown settings keys: ['lof_kay']"), ({"lof_k": "5"}, "lof_k must be an integer, got '5'")],
        ids=["unknown-key", "mistyped-value"],
    )
    def test_file_error_names_the_file_whatever_the_overrides(self, tmp_path, body, reason):
        # The file's settings are built before any override is applied, so
        # an override of the bad key does not hide it.
        config = tmp_path / "settings.json"
        config.write_text(json.dumps(body))
        with pytest.raises(ArtifactError, match=f"^{re.escape(f'{config}: {reason}')}$"):
            load_settings(config, lof_k=3)

    def test_override_error_names_its_key(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({"lof_k": 7}))
        with pytest.raises(SettingError, match="^k must be >= 1$") as raised:
            load_settings(config, lof_k=0)
        assert raised.value.name == "lof_k"

    def test_non_object_file_rejected(self, tmp_path):
        config = tmp_path / "settings.json"
        config.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_settings(config)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            load_settings(None, nope=3)


class TestTrainFromCapture:
    def test_cleartext_echo_trains_lof(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert isinstance(detector.model, LofModel)
        assert detector.model.training_size == 10
        assert detector.training_responses == 10
        assert detector.response_class == ResponseClass.CLEARTEXT
        assert len(detector.flows) == 10

    def test_small_lof_run_loads_no_numpy(self, device_factory, tmp_path):
        # A fresh interpreter, since the test process has loaded numpy. From
        # the CLI import through training, a verdict and a model file, a
        # companion session's LOF or forest needs no numpy, and neither does
        # a forest of LOF_PURE_MAX + 1 vectors. Reading and scoring an LOF
        # model of that many distinct vectors needs none either; training
        # one loads it and still trains and scores.
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        rows = [[float(i % 7), float(i * i % 11), i + 0.5] for i in range(LOF_PURE_MAX + 1)]
        query = [3.5, 2.5, 1.0]
        large = train_lof(rows)
        artifacts.write(tmp_path / "large.json", artifacts.MODEL, large.to_dict())
        script = (
            "import base64, json, sys\n"
            "preloaded = 'numpy' in sys.modules\n"
            "import replaycheck.cli\n"
            "from replaycheck import artifacts\n"
            "from replaycheck.capture import Endpoint, SessionConfig, parse_capture\n"
            "from replaycheck.features import featurize\n"
            "from replaycheck.models import train_isolation_forest, train_lof\n"
            "from replaycheck.pipeline import PipelineSettings, train_from_capture\n"
            "from replaycheck.replay import QueueEntry, ResponseQueue\n"
            "from replaycheck.simdevices import DEFAULT_APP_ENDPOINT\n"
            "from replaycheck.verdict import decide\n"
            "given = json.load(sys.stdin)\n"
            "large = artifacts.read(given['large'], artifacts.MODEL)\n"
            "report = {'preloaded': preloaded, 'large_lof': large.score(given['query']),\n"
            "          'numpy_after_scoring': 'numpy' in sys.modules}\n"
            "capture = base64.b64decode(given['capture'])\n"
            "session = SessionConfig(DEFAULT_APP_ENDPOINT, Endpoint(*given['device']))\n"
            "for kind in ('lof', 'isolation_forest'):\n"
            "    detector = train_from_capture(capture, session, PipelineSettings(model_kind=kind, seed=3))\n"
            "    payloads = [b'ERR unauthorized'] + [r.payload for f in detector.flows for r in f.responses]\n"
            "    queue = ResponseQueue(tuple(QueueEntry(0.01 * i, i, p) for i, p in enumerate(payloads)))\n"
            "    verdict = decide(queue, parse_capture(capture, session), detector.model)\n"
            "    path = given['path'] + kind\n"
            "    artifacts.write(path, artifacts.MODEL, detector.model.to_dict())\n"
            "    loaded = artifacts.read(path, artifacts.MODEL)\n"
            "    report[kind] = {'kind': loaded.kind, 'size': detector.training_responses,\n"
            "                    'outcome': verdict.outcome.value,\n"
            "                    'scores': [loaded.score(featurize(p)) for p in payloads],\n"
            "                    'trained_scores': [detector.model.score(featurize(p)) for p in payloads]}\n"
            "rows, query = given['rows'], given['query']\n"
            "report['rows_forest'] = train_isolation_forest(rows, trees=10, seed=3).score(query)\n"
            "report['numpy'] = 'numpy' in sys.modules\n"
            "report['rows_lof'] = train_lof(rows).score(query)\n"
            "report['numpy_after'] = 'numpy' in sys.modules\n"
            "print(json.dumps(report))\n"
        )
        given = {
            "capture": base64.b64encode(companion_session(device)).decode(),
            "device": [device.endpoint.address, device.endpoint.port],
            "path": str(tmp_path / "model.json."),
            "large": str(tmp_path / "large.json"),
            "rows": rows,
            "query": query,
        }
        src = str(Path(replaycheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(given), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
        )
        report = json.loads(done.stdout)
        if report["preloaded"]:
            pytest.skip("this interpreter loads numpy before any test code runs")
        for kind in ("lof", "isolation_forest"):
            run = report[kind]
            assert (run["kind"], run["size"]) == (kind, 10)
            assert run["outcome"] == Outcome.SUCCESSFUL.value
            assert run["scores"] == run["trained_scores"]
            assert run["scores"][0] > run["scores"][1]
        assert not report["numpy_after_scoring"]
        assert report["large_lof"] == large.score(query)
        assert not report["numpy"]
        assert report["numpy_after"]
        assert report["rows_forest"] == train_isolation_forest(rows, trees=10, seed=3).score(query)
        assert report["rows_lof"] == train_lof(rows).score(query)

    def test_two_ack_lof_of_a_thousand_rows_loads_no_numpy(self, tmp_path):
        # A fresh interpreter, as above. 1,000 rows of two distinct acks are
        # 2 distinct vectors, well within LOF_PURE_MAX, so the fit is plain
        # Python; the model file holds every row and scores as the fit does.
        rows = golden_rows("two-ack", 1000)
        between = [(a + b) / 2 for a, b in zip(*TWO_ACKS)]
        queries = [*TWO_ACKS, featurize(b"ERR unauthorized"), between]
        script = (
            "import json, sys\n"
            "preloaded = 'numpy' in sys.modules\n"
            "from replaycheck import artifacts\n"
            "from replaycheck.models import train_lof\n"
            "given = json.load(sys.stdin)\n"
            "model = train_lof(given['rows'])\n"
            "artifacts.write(given['path'], artifacts.MODEL, model.to_dict())\n"
            "loaded = artifacts.read(given['path'], artifacts.MODEL)\n"
            "print(json.dumps({'preloaded': preloaded, 'numpy': 'numpy' in sys.modules,\n"
            "                  'size': loaded.training_size, 'equal': loaded == model,\n"
            "                  'scores': [model.score(q) for q in given['queries']],\n"
            "                  'loaded': [loaded.score(q) for q in given['queries']]}))\n"
        )
        given = {"rows": rows, "queries": queries, "path": str(tmp_path / "model.json")}
        src = str(Path(replaycheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(given), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
        )
        report = json.loads(done.stdout)
        if report["preloaded"]:
            pytest.skip("this interpreter loads numpy before any test code runs")
        assert not report["numpy"]
        assert (report["size"], report["equal"]) == (1000, True)
        expected = [train_lof(rows).score(q) for q in queries]
        assert report["scores"] == report["loaded"] == expected
        assert expected[:2] == [1.0, 1.0] and expected[2] > DEFAULT_LOF_THRESHOLD

    def test_isolation_forest_kind(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        settings = PipelineSettings(model_kind="isolation_forest", seed=5)
        detector = train_from_capture(capture, session_for(device), settings)
        assert isinstance(detector.model, IsolationForestModel)
        assert detector.model.seed == 5

    def test_session_key_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.SESSION_KEY)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        # the wrapper is printable JSON around base64, so cleartext it is
        assert detector.response_class == ResponseClass.CLEARTEXT
        assert isinstance(detector.model, LofModel)

    def test_encoded_fixed_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.ENCODED_FIXED)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.response_class == ResponseClass.ENCODED

    def test_tls_like_class(self, device_factory, fast_settings):
        device = device_factory(Behavior.TLS_LIKE)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.response_class == ResponseClass.STANDARD_ENCRYPTED
        assert detector.model is not None

    def test_silent_trains_no_model(self, device_factory, fast_settings):
        device = device_factory(Behavior.SILENT)
        capture = companion_session(device)
        detector = train_from_capture(capture, session_for(device), fast_settings)
        assert detector.model is None
        assert detector.response_class is None
        assert detector.training_responses == 0
        # with no responses anywhere, consecutive commands merge into one flow
        assert len(detector.flows) == 1
        assert len(detector.flows[0].requests) == 10

    def test_wrong_endpoints_raise_connectivity_error(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        wrong = SessionConfig(app=APP, device=Endpoint("127.0.0.1", 1))
        with pytest.raises(NoLocalConnectivityError):
            train_from_capture(capture, wrong)


def test_training_and_deciding_park_no_tuples(device_factory):
    """Per-op tuples are built at their final size (see features.featurize),
    so 200 rounds of training and deciding on every responding profile's
    companion capture leave next to nothing on CPython's tuple free lists,
    which gc.collect() empties: the memory it gives back stays small."""
    work = []
    for behavior in Behavior:
        if behavior == Behavior.SILENT:
            continue
        device = device_factory(behavior)
        capture, session = companion_session(device), session_for(device)
        detector = train_from_capture(capture, session)
        payloads = [b"ERR unauthorized"] + [r.payload for f in detector.flows for r in f.responses]
        queue = replay.ResponseQueue(
            tuple([replay.QueueEntry(0.01 * i, i, p) for i, p in enumerate(payloads)])
        )
        work.append((capture, session, queue, parse_capture(capture, session)))

    def rounds(count):
        for _ in range(count):
            for capture, session, queue, records in work:
                decide(queue, records, train_from_capture(capture, session).model)

    rounds(3)  # warm up
    gc.collect()
    tracemalloc.start()
    try:
        rounds(200)
        before = tracemalloc.get_traced_memory()[0]
        gc.collect()
        parked = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parked <= 64 * 1024, f"{parked / 1024:.0f} KiB parked on free lists"


# A device that answers each command with two TCP writes of equal length.
TWO_WRITE_DEVICE = Endpoint("127.0.0.1", 29900)


def two_write_capture(transport: Transport) -> bytes:
    """Ten flows: each `SET <state> <n>` answered by two segments or
    datagrams, `OK <state>` and `ST <state>`."""
    records = []
    for n, state in enumerate(DEFAULT_TRAINING_SCRIPT):
        name = state.value.encode()
        command, *answers = [b"SET %s %d\n" % (name, n), b"OK %s\n" % name, b"ST %s\n" % name]
        records.append(PacketRecord(3000 * n, APP, TWO_WRITE_DEVICE, transport, command))
        records += [
            PacketRecord(3000 * n + 1000 * (i + 1), TWO_WRITE_DEVICE, APP, transport, answer)
            for i, answer in enumerate(answers)
        ]
    return records_to_capture(records)


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
class TestTwoWritesPerCommand:
    """A device that answers each command with two writes, without sockets.
    Over TCP a flow's response run is one response in training and in the
    queue, as a replay's recv usually joins the two; over UDP each datagram
    is one response on both sides."""

    @staticmethod
    def decide_on(model_kind, transport, payloads):
        capture = two_write_capture(transport)
        session = SessionConfig(app=APP, device=TWO_WRITE_DEVICE)
        detector = train_from_capture(capture, session, PipelineSettings(model_kind=model_kind))
        assert detector.training_responses == {Transport.TCP: 10, Transport.UDP: 20}[transport]
        queue = replay.ResponseQueue(
            tuple(replay.QueueEntry(0.01 * i, 0, p) for i, p in enumerate(payloads))
        )
        return decide(queue, parse_capture(capture, session), detector.model)

    def test_the_two_writes_kept_apart_are_called_successful(self, model_kind):
        verdict = self.decide_on(model_kind, Transport.UDP, [b"OK obverse\n", b"ST obverse\n"])
        assert (verdict.outcome, verdict.reason) == (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND)

    def test_the_two_writes_merged_are_called_successful(self, model_kind):
        verdict = self.decide_on(model_kind, Transport.TCP, [b"OK obverse\nST obverse\n"])
        assert (verdict.outcome, verdict.reason) == (Outcome.SUCCESSFUL, Reason.REGULAR_FOUND)


class TestAttackFromCapture:
    def test_replay_of_command_capture(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        records = trigger_state(device, DeviceState.OBVERSE)
        capture = records_to_capture(records)
        trigger_state(device, DeviceState.REVERSE)

        result, attack_records = attack_from_capture(
            capture, session_for(device), device.endpoint, fast_settings
        )
        assert query_state(device) == DeviceState.OBVERSE
        assert len(result.queue) >= 1
        assert len(attack_records) == 2

    def test_connectivity_error(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        wrong = SessionConfig(app=APP, device=Endpoint("127.0.0.1", 1))
        with pytest.raises(NoLocalConnectivityError):
            attack_from_capture(capture, wrong, settings=fast_settings)


class TestAssessDevice:
    def test_cleartext_echo_smoke(self, device_factory, fast_settings):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=3, settings=fast_settings
        )
        assert result.reps == 3
        assert result.vulnerable is True
        assert result.accuracy == 1.0
        assert result.model_kind == "lof"
        assert all(v.outcome == Outcome.SUCCESSFUL for v in result.verdicts)
        assert all(result.truths)
        assert result.device_id.startswith("cleartext_echo@127.0.0.1:")

    def test_session_key_restart_smoke(self, device_factory, fast_settings):
        device = device_factory(Behavior.SESSION_KEY)
        result = assess_device(
            device, SCENARIO_RESTART, reps=3, settings=fast_settings
        )
        assert result.vulnerable is False
        assert result.accuracy == 1.0
        assert {v.reason for v in result.verdicts} == {Reason.ALL_IRREGULAR}
        assert not any(result.truths)

    @pytest.mark.parametrize("model_kind", MODEL_KINDS)
    @pytest.mark.parametrize("seed", [5905, 8222])
    def test_rejection_differing_only_on_constant_features(
        self, device_factory, fast_settings, seed, model_kind
    ):
        """At these device seeds 17 of the 19 features are constant across
        the training acks, and on the other two the rekeyed device's
        rejection lies near them. The values recorded as constant in
        training make it irregular for both kinds."""
        settings = replace(fast_settings, model_kind=model_kind)
        device = device_factory(Behavior.SESSION_KEY, seed=seed)
        result = assess_device(device, SCENARIO_RESTART, reps=3, settings=settings)
        assert result.vulnerable is False
        assert result.accuracy == 1.0
        assert {v.reason for v in result.verdicts} == {Reason.ALL_IRREGULAR}

    def test_silent_device_assessment_without_model(self, device_factory, fast_settings):
        device = device_factory(Behavior.SILENT)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=2, settings=fast_settings
        )
        assert result.vulnerable is False
        assert result.model_kind is None
        assert {v.reason for v in result.verdicts} == {Reason.NO_RESPONSE}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
    def test_evidence_collection_gives_full_window_verdicts(
        self, device_factory, fast_settings, monkeypatch, behavior, scenario
    ):
        """Ending a flow's collection on the capture's evidence changes no
        verdict: a twin device spawned from the same seed, attacked with the
        captured responses dropped from every flow (so every flow waits out
        the full window), gets the same verdict and state on every rep."""
        reps = 10
        evidence = assess_device(
            device_factory(behavior), scenario, reps=reps, settings=fast_settings
        )

        def full_window(flows, device, config):
            return replay.run_attack([Flow(f.requests, ()) for f in flows], device, config)

        monkeypatch.setattr(pipeline, "run_attack", full_window)
        full = assess_device(
            device_factory(behavior), scenario, reps=reps, settings=fast_settings
        )
        assert evidence.verdicts == full.verdicts
        assert evidence.truths == full.truths
        assert evidence.accuracy == 1.0

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
    def test_isolation_forest_matrix(self, device_factory, fast_settings, behavior, scenario):
        """Every cell of the profile matrix is called right by the forest too,
        the session_key restart cell (AllIrregular) included."""
        settings = replace(fast_settings, model_kind="isolation_forest")
        result = assess_device(device_factory(behavior), scenario, reps=2, settings=settings)
        expected = expected_vulnerable(default_profile(behavior), scenario == SCENARIO_RESTART)
        assert result.accuracy == 1.0
        assert result.vulnerable is expected
        assert result.model_kind == (None if behavior == Behavior.SILENT else "isolation_forest")

    def test_assessments_load_no_module_that_must_not_load_mid_run(self, fast_settings):
        # A fresh interpreter, since the test process may have loaded any of
        # them. From the CLI import through one rep of every profile in both
        # scenarios, nothing imports hashlib, hmac or OpenSSL's _hashlib, nor
        # the IDNA codec a name lookup loads (encodings.idna, stringprep,
        # unicodedata): replay connects to the endpoint's IP literal.
        script = (
            "import json, sys\n"
            "banned = ('hashlib', 'hmac', '_hashlib', 'encodings.idna', 'stringprep', 'unicodedata')\n"
            "preloaded = [m for m in banned if m in sys.modules]\n"
            "import replaycheck.cli\n"
            "from replaycheck.pipeline import SCENARIOS, PipelineSettings, assess_device\n"
            "from replaycheck.simdevices import Behavior, default_profile, spawn_device\n"
            "settings = PipelineSettings(**json.load(sys.stdin))\n"
            "accuracy = {}\n"
            "for behavior in Behavior:\n"
            "    profile = default_profile(behavior, post_restart_delay_s=0.05)\n"
            "    with spawn_device(profile) as device:\n"
            "        for scenario in SCENARIOS:\n"
            "            result = assess_device(device, scenario, reps=1, settings=settings)\n"
            "            accuracy[behavior.value + '/' + scenario] = result.accuracy\n"
            "loaded = [m for m in banned if m in sys.modules]\n"
            "print(json.dumps({'preloaded': preloaded, 'loaded': loaded, 'accuracy': accuracy}))\n"
        )
        src = str(Path(replaycheck.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(asdict(fast_settings)), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
        )
        report = json.loads(done.stdout)
        if report["preloaded"]:
            pytest.skip(f"this interpreter loads {report['preloaded']} before any test code runs")
        assert len(report["accuracy"]) == len(Behavior) * len(SCENARIOS)
        assert set(report["accuracy"].values()) == {1.0}
        assert report["loaded"] == []

    def test_bad_scenario_rejected(self, device_factory):
        device = device_factory(Behavior.SILENT)
        with pytest.raises(ValueError, match="scenario"):
            assess_device(device, "no_restart", reps=1)

    def test_bad_reps_rejected(self, device_factory):
        device = device_factory(Behavior.SILENT)
        with pytest.raises(ValueError, match="reps"):
            assess_device(device, SCENARIO_NON_RESTART, reps=0)


class TestSessionReplay:
    @pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
    def test_deadline_pacing_gives_trailing_sleep_results(
        self, device_factory, fast_settings, monkeypatch, behavior
    ):
        """Pacing flows from the previous flow's last request changes no
        verdict, device state or per-flow response count against a twin
        device from the same seed whose every replay_flow call is followed
        by the full inter-flow delay, as flows were paced before."""
        reps = 3

        def session_replay(device):
            session = session_for(device)
            capture = companion_session(device)
            model = train_from_capture(capture, session, fast_settings).model
            runs = []
            for _ in range(reps):
                trigger_state(device, DeviceState.REVERSE)
                result, records = attack_from_capture(
                    capture, session, device.endpoint, fast_settings
                )
                verdict = decide(result.queue, records, model, fast_settings)
                counts = [len(flow.responses) for flow in result.flows]
                runs.append((verdict, query_state(device), counts))
            return runs

        deadline = session_replay(device_factory(behavior))
        replay_flow = replay.replay_flow

        def trailing_sleep(*args, **kwargs):
            answer = replay_flow(*args, **kwargs)
            time.sleep(fast_settings.inter_flow_delay_ms / 1000)
            return answer

        monkeypatch.setattr(replay, "replay_flow", trailing_sleep)
        trailing = session_replay(device_factory(behavior))
        assert deadline == trailing
        vulnerable = expected_vulnerable(default_profile(behavior), restarted=False)
        for verdict, state, _ in deadline:
            assert (verdict.outcome == Outcome.SUCCESSFUL) == vulnerable
            assert (state == DeviceState.OBVERSE) == vulnerable


class TestAssessmentReport:
    def test_round_trip(self, device_factory, fast_settings, tmp_path):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        result = assess_device(
            device, SCENARIO_NON_RESTART, reps=2, settings=fast_settings
        )
        path = tmp_path / "assessment.json"
        artifacts.write(path, artifacts.ASSESSMENT, result.to_dict())
        body = artifacts.read(path, artifacts.ASSESSMENT)
        assert body["schema"] == "assessment-report/1"
        assert body["scenario"] == "non_restart"
        assert body["reps"] == 2
        assert body["vulnerable"] is True
        assert body["accuracy"] == 1.0
        assert body["reason_counts"] == {"RegularFound": 2}
        assert len(body["runs"]) == 2
        assert body["runs"][0]["replay_took_effect"] is True

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "assessment-report/0"}')
        with pytest.raises(ArtifactError):
            artifacts.read(path, artifacts.ASSESSMENT)
