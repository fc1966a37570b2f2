"""Simulated-device harness tests: state machines, replay semantics of each
behavior, restart handling, and capture synthesis."""

import gc
import hashlib
import json
import os
import socket
import statistics
import time
from types import SimpleNamespace

import pytest
from doubles import ScriptedResponder

from replaycheck import pcap, replay
from replaycheck.capture import (
    Endpoint,
    PacketRecord,
    SessionConfig,
    Transport,
    parse_capture,
    segment_flows,
)
from replaycheck.protocols import detect_standard_security_protocol
from replaycheck.simdevices import (
    DEFAULT_APP_ENDPOINT,
    DEFAULT_TRAINING_SCRIPT,
    Behavior,
    DeviceProfile,
    DeviceState,
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
from replaycheck.simdevices import _keystream, _SignedCleartextEngine

LINE_BEHAVIORS = (
    Behavior.CLEARTEXT_ECHO,
    Behavior.SIGNED_CLEARTEXT,
    Behavior.SESSION_KEY,
)

# Capture records one companion command yields, per behavior.
EXCHANGE_RECORDS = {
    Behavior.CLEARTEXT_ECHO: 2,
    Behavior.SIGNED_CLEARTEXT: 2,
    Behavior.ENCODED_FIXED: 2,
    Behavior.SESSION_KEY: 2,
    Behavior.TLS_LIKE: 4,
    Behavior.SILENT: 1,
}


def raw_exchange(endpoint, payload, transport=Transport.TCP, deadline_s=1.0):
    """Fire one captured payload at the device the way an attacker would
    and return whatever bytes come back within the deadline."""
    if transport == Transport.TCP:
        sock = socket.create_connection((endpoint.address, endpoint.port), timeout=deadline_s)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.connect((endpoint.address, endpoint.port))
    sock.settimeout(0.25)
    received = b""
    try:
        sock.sendall(payload) if transport == Transport.TCP else sock.send(payload)
        end = time.monotonic() + deadline_s
        while time.monotonic() < end:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            received += chunk
    finally:
        sock.close()
    return received


class TestProfile:
    def test_default_profile_transport(self):
        assert default_profile(Behavior.SILENT).transport == Transport.UDP
        assert default_profile(Behavior.CLEARTEXT_ECHO).transport == Transport.TCP
        assert DeviceProfile(behavior=Behavior.SILENT).transport == Transport.UDP

    def test_port_range(self):
        with pytest.raises(ValueError):
            DeviceProfile(behavior=Behavior.SILENT, port=99999)

    def test_negative_restart_delay(self):
        with pytest.raises(ValueError):
            DeviceProfile(behavior=Behavior.SILENT, post_restart_delay_s=-1)
        with pytest.raises(ValueError):
            DeviceProfile(behavior=Behavior.SILENT, post_restart_delay_s=float("nan"))


class TestSpawn:
    def test_initial_state_is_reverse(self, device_factory):
        for behavior in Behavior:
            device = device_factory(behavior)
            assert query_state(device) == DeviceState.REVERSE

    def test_endpoint_is_loopback_with_assigned_port(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        assert device.endpoint.address == "127.0.0.1"
        assert device.endpoint.port > 0

    @pytest.mark.parametrize(
        "transport, serve",
        [
            (Transport.TCP, lambda port: spawn_device(
                DeviceProfile(behavior=Behavior.CLEARTEXT_ECHO, port=port))),
            (Transport.TCP, lambda port: ScriptedResponder({}, Transport.TCP, port)),
            (Transport.UDP, lambda port: ScriptedResponder({}, Transport.UDP, port)),
        ],
        ids=["device", "tcp_responder", "udp_responder"],
    )
    def test_busy_port_raises_spawn_error(self, transport, serve):
        kind = socket.SOCK_STREAM if transport == Transport.TCP else socket.SOCK_DGRAM
        holder = socket.socket(socket.AF_INET, kind)
        holder.bind(("127.0.0.1", 0))
        if transport == Transport.TCP:
            holder.listen(1)
        port = holder.getsockname()[1]
        try:
            with pytest.raises(SpawnError):
                serve(port)
        finally:
            holder.close()

    def test_context_manager_shuts_down(self):
        with spawn_device(default_profile(Behavior.CLEARTEXT_ECHO)) as device:
            endpoint = device.endpoint
        with pytest.raises(OSError):
            socket.create_connection((endpoint.address, endpoint.port), timeout=0.3)

    def test_distinct_seeds_distinct_secrets(self, device_factory):
        a = device_factory(Behavior.SESSION_KEY, seed=101)
        b = device_factory(Behavior.SESSION_KEY, seed=102)
        assert a.engine.key != b.engine.key


class TestTrigger:
    def test_trigger_flips_state(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE
        trigger_state(device, DeviceState.REVERSE)
        assert query_state(device) == DeviceState.REVERSE

    @pytest.mark.parametrize("behavior,record_count", list(EXCHANGE_RECORDS.items()))
    def test_exchange_record_counts(self, device_factory, behavior, record_count):
        device = device_factory(behavior)
        records = trigger_state(device, DeviceState.OBVERSE)
        assert len(records) == record_count

    def test_records_use_virtual_app_endpoint(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        records = trigger_state(device, DeviceState.OBVERSE)
        request, response = records
        assert request.src == DEFAULT_APP_ENDPOINT
        assert request.dst == device.endpoint
        assert response.src == device.endpoint
        assert response.dst == DEFAULT_APP_ENDPOINT
        assert request.timestamp < response.timestamp

    def test_silent_trigger_works_without_response(self, device_factory):
        device = device_factory(Behavior.SILENT)
        records = trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE
        assert len(records) == 1
        assert records[0].src == DEFAULT_APP_ENDPOINT

    def test_trigger_after_shutdown_rejected(self):
        device = spawn_device(default_profile(Behavior.CLEARTEXT_ECHO))
        device.shutdown()
        with pytest.raises(TriggerError):
            trigger_state(device, DeviceState.OBVERSE)

    def test_companion_opens_no_client_socket(self, device_factory, monkeypatch):
        """The companion drives each device in-process, through the handler
        its server builds per connection, not over a loopback connection."""
        devices = {behavior: device_factory(behavior) for behavior in Behavior}

        def refuse(*args, **kwargs):
            raise OSError("no client sockets in this test")

        monkeypatch.setattr(replay, "connect", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)
        for behavior, device in devices.items():
            records = trigger_state(device, DeviceState.OBVERSE)
            assert query_state(device) == DeviceState.OBVERSE
            assert len(records) == EXCHANGE_RECORDS[behavior]
            frames = list(pcap.read_frames(companion_session(device)))
            assert len(frames) == len(DEFAULT_TRAINING_SCRIPT) * EXCHANGE_RECORDS[behavior]
            assert query_state(device) == DeviceState.REVERSE  # the script ends on reverse

    def test_ack_without_state_change_raises(self, device_factory, monkeypatch):
        """The state is checked once, right after the exchange."""
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        ack = b'{"result":["ok"]}\n'
        monkeypatch.setattr(device.engine, "handle_message", lambda message, session: [ack])
        with pytest.raises(TriggerError, match="state is reverse, expected obverse"):
            trigger_state(device, DeviceState.OBVERSE)


class TestCompanionSession:
    def test_default_script_on_echo(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device)
        config = SessionConfig(app=DEFAULT_APP_ENDPOINT, device=device.endpoint)
        records = parse_capture(capture, config)
        requests = [r for r in records if r.src == DEFAULT_APP_ENDPOINT]
        responses = [r for r in records if r.dst == DEFAULT_APP_ENDPOINT]
        assert len(requests) == 10
        assert len(responses) == 10
        flows = segment_flows(records, config)
        assert len(flows) == 10
        assert query_state(device) == DeviceState.REVERSE  # script ends on reverse

    def test_default_script_alternates_five_times(self):
        assert len(DEFAULT_TRAINING_SCRIPT) == 10
        assert DEFAULT_TRAINING_SCRIPT[0] == DeviceState.OBVERSE
        assert DEFAULT_TRAINING_SCRIPT[-1] == DeviceState.REVERSE

    def test_empty_script_yields_header_only_capture(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        capture = companion_session(device, script=())
        assert len(capture) == 24
        assert list(pcap.read_frames(capture)) == []

    @pytest.mark.parametrize("behavior", list(Behavior), ids=lambda b: b.value)
    def test_deterministic_across_fresh_spawns(self, behavior):
        captures = []
        port = 0
        for _ in range(2):
            profile = DeviceProfile(behavior=behavior, seed=42, port=port)
            with spawn_device(profile) as device:
                port = device.endpoint.port  # second spawn reuses the first port
                captures.append(companion_session(device))
        assert captures[0] == captures[1]

    def test_different_seed_different_capture(self):
        captures = []
        port = 0
        for seed in (1, 2):
            profile = DeviceProfile(behavior=Behavior.CLEARTEXT_ECHO, seed=seed, port=port)
            with spawn_device(profile) as device:
                port = device.endpoint.port
                captures.append(companion_session(device))
        assert captures[0] != captures[1]


class TestRestart:
    def test_restart_returns_to_reverse_same_port(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        trigger_state(device, DeviceState.OBVERSE)
        port = device.endpoint.port
        restart_device(device)
        assert query_state(device) == DeviceState.REVERSE
        assert device.endpoint.port == port
        # listener must be back up and functional
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE

    @pytest.mark.parametrize("behavior", [Behavior.CLEARTEXT_ECHO, Behavior.SILENT])
    def test_listener_serves_a_socket_after_restart(self, device_factory, behavior):
        """A command sent over a real socket after the restart lands: the
        listener is back on the same port, not just the in-process handler."""
        device = device_factory(behavior, post_restart_delay_s=0)
        trigger_state(device, DeviceState.OBVERSE)
        restart_device(device)
        assert query_state(device) == DeviceState.REVERSE
        command = device.engine.build_command(DeviceState.OBVERSE)  # fresh, not sent
        reply = raw_exchange(
            device.endpoint, command, device.profile.transport, deadline_s=0.3
        )
        time.sleep(0.05)  # datagram handling is asynchronous
        assert query_state(device) == DeviceState.OBVERSE
        if behavior == Behavior.CLEARTEXT_ECHO:
            assert json.loads(reply)["state"] == "obverse"

    def test_session_key_rekeys_on_restart(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY)
        before = device.engine.key
        restart_device(device)
        assert device.engine.key != before

    def test_session_key_kept_when_configured(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY, rekey_on_restart=False)
        before = device.engine.key
        restart_device(device)
        assert device.engine.key == before

    def test_signing_secret_survives_restart(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        before = device.engine.secret
        restart_device(device)
        assert device.engine.secret == before

    @pytest.mark.parametrize("behavior", [Behavior.CLEARTEXT_ECHO, Behavior.SILENT])
    def test_zero_delay_restart_is_immediate(self, device_factory, behavior):
        """Stopping the server never waits out a poll, so a restart costs
        only the modelled boot delay (here none)."""
        device = device_factory(behavior, post_restart_delay_s=0)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            restart_device(device)
            timings.append(time.perf_counter() - start)
        assert statistics.median(timings) < 0.025

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_restarts_and_shutdowns_leak_no_descriptors(self):
        gc.collect()  # sockets other tests dropped must not close mid-count
        before = len(os.listdir("/proc/self/fd"))
        for behavior in (Behavior.CLEARTEXT_ECHO, Behavior.SILENT):
            with spawn_device(default_profile(behavior, post_restart_delay_s=0)) as device:
                for _ in range(20):
                    trigger_state(device, DeviceState.OBVERSE)
                    restart_device(device)
        for _ in range(20):
            with ScriptedResponder({b"ping": [b"pong"]}, Transport.TCP) as responder:
                endpoint = (responder.endpoint.address, responder.endpoint.port)
                with socket.create_connection(endpoint, timeout=1.0) as client:
                    client.sendall(b"ping")
                    assert client.recv(16) == b"pong"
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


class TestCleartextEchoReplay:
    def test_replayed_command_accepted(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.OBVERSE
        body = json.loads(reply)
        assert body["result"] == ["ok"]

    def test_garbage_gets_error(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        reply = raw_exchange(device.endpoint, b"not json at all\n")
        assert json.loads(reply)["error"]["code"] == -1
        assert query_state(device) == DeviceState.REVERSE


class TestSignedCleartextReplay:
    def test_replay_accepted_even_after_restart(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        records = trigger_state(device, DeviceState.OBVERSE)
        restart_device(device)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.OBVERSE
        assert json.loads(reply)["status"] == "ok"

    def test_tampered_command_rejected(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        body = json.loads(records[0].payload)
        body["target"] = "obverse"
        body["msg_id"] = "999999"  # signature no longer covers this body
        tampered = (json.dumps(body) + "\n").encode()
        reply = raw_exchange(device.endpoint, tampered)
        assert json.loads(reply)["code"] == 401
        assert query_state(device) == DeviceState.REVERSE

    def test_unsigned_command_rejected(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        reply = raw_exchange(
            device.endpoint, b'{"method": "set_state", "target": "obverse"}\n'
        )
        assert json.loads(reply)["code"] == 400
        assert query_state(device) == DeviceState.REVERSE

    def test_command_signed_by_another_device_rejected(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT, seed=101)
        other = device_factory(Behavior.SIGNED_CLEARTEXT, seed=102)
        body = json.loads(other.engine.build_command(DeviceState.OBVERSE))
        reply = raw_exchange(device.endpoint, (json.dumps(body) + "\n").encode())
        assert json.loads(reply)["code"] == 401
        assert query_state(device) == DeviceState.REVERSE
        # the same body under the device's own secret is accepted
        body["sign"] = device.engine._signature({k: v for k, v in body.items() if k != "sign"})
        reply = raw_exchange(device.endpoint, (json.dumps(body) + "\n").encode())
        assert json.loads(reply)["status"] == "ok"
        assert query_state(device) == DeviceState.OBVERSE

    def test_non_string_tag_rejected_and_server_keeps_serving(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        reply = raw_exchange(device.endpoint, b'{"sign": 5, "method": "set_state"}\n')
        assert json.loads(reply)["code"] == 401
        reply = raw_exchange(device.endpoint, b"not json\n")
        assert json.loads(reply)["code"] == 400


class TestEncodedFixedReplay:
    def test_blobs_are_fixed_24_bytes(self, device_factory):
        device = device_factory(Behavior.ENCODED_FIXED)
        first = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        second = trigger_state(device, DeviceState.OBVERSE)
        assert first[0].payload == second[0].payload
        assert first[1].payload == second[1].payload
        assert len(first[0].payload) == 24
        assert len(first[1].payload) == 24

    def test_replayed_blob_accepted(self, device_factory):
        device = device_factory(Behavior.ENCODED_FIXED)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.OBVERSE
        assert reply == records[1].payload

    def test_unknown_blob_gets_error_blob(self, device_factory):
        device = device_factory(Behavior.ENCODED_FIXED)
        reply = raw_exchange(device.endpoint, bytes(24))
        assert len(reply) == 24
        assert reply not in device.engine.acks.values()
        assert query_state(device) == DeviceState.REVERSE


class TestSessionKeyReplay:
    def test_replay_accepted_before_restart(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.OBVERSE
        assert json.loads(reply)["error_code"] == 0

    def test_replay_rejected_after_restart(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY)
        records = trigger_state(device, DeviceState.OBVERSE)
        restart_device(device)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.REVERSE
        body = json.loads(reply)
        assert body["error_code"] == 4002
        assert body["message"] == "secure session error"

    def test_replay_still_works_when_rekey_disabled(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY, rekey_on_restart=False)
        records = trigger_state(device, DeviceState.OBVERSE)
        restart_device(device)
        reply = raw_exchange(device.endpoint, records[0].payload)
        assert query_state(device) == DeviceState.OBVERSE
        assert json.loads(reply)["error_code"] == 0

    def test_command_built_under_another_key_rejected(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY, seed=101)
        other = device_factory(Behavior.SESSION_KEY, seed=102)
        assert other.engine.key != device.engine.key
        reply = raw_exchange(device.endpoint, other.engine.build_command(DeviceState.OBVERSE))
        assert json.loads(reply) == {"error_code": 4002, "message": "secure session error"}
        assert query_state(device) == DeviceState.REVERSE

    def test_companion_recovers_after_rekey(self, device_factory):
        # the paired app re-reads the key, so legitimate control still works
        device = device_factory(Behavior.SESSION_KEY)
        trigger_state(device, DeviceState.OBVERSE)
        restart_device(device)
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE


# JSON values that are not objects, the last nested past the parser's
# recursion limit.
NOT_OBJECTS = (b"[1]", b'["sign"]', b'"x"', b"1", b"null", b"[" * 100_000 + b"]" * 100_000)

ERROR_REPLIES = {
    Behavior.CLEARTEXT_ECHO: {"error": {"code": -1, "message": "invalid command"}},
    Behavior.SIGNED_CLEARTEXT: {"code": 400, "status": "error"},
    Behavior.SESSION_KEY: {"error_code": 4002, "message": "secure session error"},
}


@pytest.mark.parametrize("behavior", LINE_BEHAVIORS, ids=lambda b: b.value)
def test_json_that_is_not_an_object_gets_the_error_reply(device_factory, behavior):
    """Each such line is answered with the profile's error reply, the
    server keeps serving new connections, and no state changes."""
    device = device_factory(behavior)
    secrets = vars(device.engine).copy()
    reply = raw_exchange(device.endpoint, b"".join(line + b"\n" for line in NOT_OBJECTS))
    assert [json.loads(line) for line in reply.splitlines()] == [
        ERROR_REPLIES[behavior]
    ] * len(NOT_OBJECTS)
    assert json.loads(raw_exchange(device.endpoint, b"[1]\n")) == ERROR_REPLIES[behavior]
    assert query_state(device) == DeviceState.REVERSE
    assert vars(device.engine) == secrets


class TestKeyedPayloads:
    def test_tag_and_keystream_are_pinned(self):
        """The tag and keystream bytes for fixed inputs; the same on every
        supported Python, since random.Random hashes a bytes seed with its
        own SHA-512 and Mersenne Twister output is fixed across versions."""
        signer = SimpleNamespace(secret=bytes(range(16)))
        body = {"method": "set_state", "msg_id": "000001", "target": "obverse", "ts": "1690000001"}
        assert _SignedCleartextEngine._signature(signer, body) == (
            "d1412d1502bfd26694dafc94630c7337f0836737b77c567689ea754e3996e83a"
        )
        assert _keystream(bytes(range(16, 32)), 40).hex() == (
            "2536dfbf33e9d1ed5818e965fd8fe42fc003bd35551d433b9a52f7ee8cf35a0b2a601c99a399b291"
        )
        assert [len(_keystream(b"k" * 16, n)) for n in (0, 1, 33)] == [0, 1, 33]


class TestTlsLikeReplay:
    ALERT = b"\x15\x03\x03\x00\x02\x02\x28"

    def test_replayed_appdata_gets_fatal_alert(self, device_factory):
        device = device_factory(Behavior.TLS_LIKE)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        command = records[2].payload  # the appdata record of the old connection
        reply = raw_exchange(device.endpoint, command)
        assert reply == self.ALERT
        assert query_state(device) == DeviceState.REVERSE

    def test_connection_closed_after_alert(self, device_factory):
        device = device_factory(Behavior.TLS_LIKE)
        records = trigger_state(device, DeviceState.OBVERSE)
        sock = socket.create_connection(
            (device.endpoint.address, device.endpoint.port), timeout=1.0
        )
        try:
            sock.sendall(records[2].payload)
            sock.settimeout(1.0)
            assert sock.recv(65536) == self.ALERT
            assert sock.recv(65536) == b""  # server hangs up
        finally:
            sock.close()

    def test_capture_matches_standard_protocol(self, device_factory):
        device = device_factory(Behavior.TLS_LIKE)
        records = trigger_state(device, DeviceState.OBVERSE)
        assert detect_standard_security_protocol(records)

    def test_fresh_handshake_and_command_work(self, device_factory):
        device = device_factory(Behavior.TLS_LIKE)
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE


class TestSilentReplay:
    def test_never_responds(self, device_factory):
        device = device_factory(Behavior.SILENT)
        records = trigger_state(device, DeviceState.OBVERSE)
        reply = raw_exchange(
            device.endpoint, records[0].payload, transport=Transport.UDP, deadline_s=0.4
        )
        assert reply == b""

    def test_replayed_command_is_stale(self, device_factory):
        device = device_factory(Behavior.SILENT)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        raw_exchange(
            device.endpoint, records[0].payload, transport=Transport.UDP, deadline_s=0.3
        )
        time.sleep(0.05)  # datagram handling is asynchronous
        assert query_state(device) == DeviceState.REVERSE

    def test_sequence_counter_survives_restart(self, device_factory):
        device = device_factory(Behavior.SILENT)
        records = trigger_state(device, DeviceState.OBVERSE)
        trigger_state(device, DeviceState.REVERSE)
        restart_device(device)
        assert device.engine.last_sequence == 2
        raw_exchange(
            device.endpoint, records[0].payload, transport=Transport.UDP, deadline_s=0.3
        )
        time.sleep(0.05)
        assert query_state(device) == DeviceState.REVERSE
        # but the companion's next command is fresh and still lands
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE


class TestExpectedVulnerable:
    @pytest.mark.parametrize(
        "behavior,non_restart,restart",
        [
            (Behavior.CLEARTEXT_ECHO, True, True),
            (Behavior.SIGNED_CLEARTEXT, True, True),
            (Behavior.ENCODED_FIXED, True, True),
            (Behavior.SESSION_KEY, True, False),
            (Behavior.TLS_LIKE, False, False),
            (Behavior.SILENT, False, False),
        ],
    )
    def test_matrix(self, behavior, non_restart, restart):
        profile = default_profile(behavior)
        assert expected_vulnerable(profile, restarted=False) is non_restart
        assert expected_vulnerable(profile, restarted=True) is restart

    def test_session_key_without_rekey_stays_vulnerable(self):
        profile = default_profile(Behavior.SESSION_KEY, rekey_on_restart=False)
        assert expected_vulnerable(profile, restarted=True) is True


class TestRecordsToCapture:
    def test_round_trip_payloads_identical(self, device_factory):
        device = device_factory(Behavior.ENCODED_FIXED)
        records = []
        for target in (DeviceState.OBVERSE, DeviceState.REVERSE, DeviceState.OBVERSE):
            records.extend(trigger_state(device, target))
        capture = records_to_capture(records)
        config = SessionConfig(app=DEFAULT_APP_ENDPOINT, device=device.endpoint)
        parsed = parse_capture(capture, config)
        assert [r.payload for r in parsed] == [r.payload for r in records]

    def test_repeated_payloads_not_deduplicated(self):
        # identical bytes in the same direction must advance the synthetic
        # TCP sequence, or parsing would drop them as retransmissions
        app, dev = DEFAULT_APP_ENDPOINT, Endpoint("127.0.0.1", 50000)
        records = [
            PacketRecord(0, app, dev, Transport.TCP, b"same"),
            PacketRecord(10, app, dev, Transport.TCP, b"same"),
        ]
        parsed = parse_capture(
            records_to_capture(records), SessionConfig(app=app, device=dev)
        )
        assert len(parsed) == 2

    def test_capture_bytes_are_pinned(self):
        """Every byte of the synthesized framing (addresses, checksums,
        sequence numbers) against a digest of a known-good encoder."""
        app4, dev4 = Endpoint("10.77.0.2", 38200), Endpoint("192.168.7.20", 4001)
        app6, dev6 = Endpoint("fd00::2", 38201), Endpoint("2001:db8::1:0:0:7", 5683)
        records = [
            PacketRecord(0, app4, dev4, Transport.TCP, b"hello"),
            PacketRecord(10, dev4, app4, Transport.TCP, b"ack!"),
            PacketRecord(20, app4, dev4, Transport.UDP, b"\xff" * 33),
            PacketRecord(30, app6, dev6, Transport.TCP, bytes(range(255))),
            PacketRecord(40, dev6, app6, Transport.UDP, b"x"),
            PacketRecord(50, app6, dev6, Transport.UDP, b"\x00\x01\x02"),
            PacketRecord(60, app4, dev4, Transport.TCP, b"hello"),
        ]
        digest = hashlib.sha256(records_to_capture(records)).hexdigest()
        assert digest == "2c7630a154c6744cdcc1d8fd5557a999faeb2462f8ab36b365b76a95cf0ff420"
