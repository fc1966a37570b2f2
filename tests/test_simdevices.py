"""Simulated-device harness tests: state machines, replay semantics of each
behavior, and restart handling."""

import base64
import contextlib
import errno
import gc
import json
import os
import socket
import statistics
import threading
import time
from types import SimpleNamespace

import pytest
from doubles import ScriptedResponder

from replaycheck import pcap, replay
from replaycheck.capture import SessionConfig, Transport, parse_capture, segment_flows
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
    restart_device,
    spawn_device,
    trigger_state,
)
from replaycheck.simdevices import _MOST_KEPT, _keystream, _SignedCleartextEngine

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
        assert a.engine.keyed.key != b.engine.keyed.key


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
        before = device.engine.keyed.key
        restart_device(device)
        assert device.engine.keyed.key != before

    def test_session_key_kept_when_configured(self, device_factory):
        device = device_factory(Behavior.SESSION_KEY, rekey_on_restart=False)
        before = device.engine.keyed.key
        restart_device(device)
        assert device.engine.keyed.key == before

    def test_signing_secret_survives_restart(self, device_factory):
        device = device_factory(Behavior.SIGNED_CLEARTEXT)
        before = device.engine.secret
        restart_device(device)
        assert device.engine.secret == before

    @pytest.mark.parametrize("behavior", [Behavior.CLEARTEXT_ECHO, Behavior.SILENT])
    def test_zero_delay_restart_is_immediate(self, device_factory, behavior):
        """The power cycle is posted to the serving thread, which a posted
        call wakes at once, so a restart costs only the modelled boot delay
        (here none)."""
        device = device_factory(behavior, post_restart_delay_s=0)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            restart_device(device)
            timings.append(time.perf_counter() - start)
        assert statistics.median(timings) < 0.025

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_restarts_and_shutdowns_leak_no_descriptors(self):
        # The first spawn opens the serving thread's descriptors, which the
        # process keeps; only what later devices leave behind counts.
        spawn_device(default_profile(Behavior.SILENT)).shutdown()
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

    def test_spawning_restarting_and_shutting_down_start_no_thread(self):
        spawn_device(default_profile(Behavior.SILENT)).shutdown()  # may start the serving thread
        before = threading.active_count()
        devices = [spawn_device(default_profile(b, post_restart_delay_s=0)) for b in Behavior]
        try:
            assert threading.active_count() == before
            for device in devices:
                restart_device(device)
            assert threading.active_count() == before
            reply = raw_exchange(devices[0].endpoint, b"not a command\n")
            assert b"invalid command" in reply  # served after its restart
        finally:
            for device in devices:
                device.shutdown()
        assert threading.active_count() == before


class TestRestartDropsWhatWasInFlight:
    """A power cycle ends every exchange that reached the device before it."""

    @staticmethod
    def hung_up(sock) -> bool:
        """The peer closed: EOF or a reset, never more data or a timeout."""
        sock.settimeout(1.0)
        try:
            return sock.recv(65536) == b""
        except ConnectionResetError:
            return True

    def test_an_open_connection_is_closed(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        address = (device.endpoint.address, device.endpoint.port)
        with socket.create_connection(address, timeout=1.0) as client:
            client.sendall(b"not a command\n")
            assert client.recv(65536)
            restart_device(device)
            assert self.hung_up(client)

    def test_a_connection_queued_behind_the_open_one_is_not_served(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        address = (device.endpoint.address, device.endpoint.port)
        with contextlib.ExitStack() as stack:
            first, second = (
                stack.enter_context(socket.create_connection(address, timeout=1.0))
                for _ in range(2)
            )
            first.sendall(b"not a command\n")
            assert b"invalid command" in first.recv(65536)
            second.sendall(device.engine.build_command(DeviceState.OBVERSE))
            restart_device(device)
            assert self.hung_up(first) and self.hung_up(second)
        time.sleep(0.05)
        assert query_state(device) == DeviceState.REVERSE

    def test_a_datagram_queued_behind_a_busy_handler_is_not_executed(
        self, device_factory, monkeypatch
    ):
        device = device_factory(Behavior.SILENT)
        execute, holding = device.engine.handle_message, threading.Event()

        def handle_message(message, session):
            if message == b"hold":  # the command queues and the restart is posted meanwhile
                holding.set()
                time.sleep(0.1)
            return execute(message, session)

        monkeypatch.setattr(device.engine, "handle_message", handle_message)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.connect((device.endpoint.address, device.endpoint.port))
            client.send(b"hold")
            assert holding.wait(1.0)
            client.send(device.engine.build_command(DeviceState.OBVERSE))  # queued
            restart_device(device)
        time.sleep(0.05)
        assert query_state(device) == DeviceState.REVERSE

    @pytest.mark.parametrize("behavior", [Behavior.CLEARTEXT_ECHO, Behavior.SILENT])
    def test_the_port_stays_bound_through_the_boot(self, device_factory, behavior):
        device = device_factory(behavior, post_restart_delay_s=0.3)
        restarting = threading.Thread(target=restart_device, args=(device,))
        restarting.start()
        try:
            time.sleep(0.1)
            kind = socket.SOCK_STREAM if behavior == Behavior.CLEARTEXT_ECHO else socket.SOCK_DGRAM
            with socket.socket(socket.AF_INET, kind) as rival:
                with pytest.raises(OSError) as refused:
                    rival.bind((device.endpoint.address, device.endpoint.port))
            assert refused.value.errno == errno.EADDRINUSE
        finally:
            restarting.join(timeout=5)
        assert not restarting.is_alive()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("behavior", [Behavior.CLEARTEXT_ECHO, Behavior.SILENT])
    def test_a_shutdown_during_the_boot_waits_for_it_and_leaks_nothing(
        self, monkeypatch, behavior
    ):
        spawn_device(default_profile(Behavior.SILENT)).shutdown()  # may start the serving thread
        reported, raised = [], []
        monkeypatch.setattr(threading, "excepthook", reported.append)
        gc.collect()  # sockets other tests dropped must not close mid-count
        before = len(os.listdir("/proc/self/fd"))
        device = spawn_device(default_profile(behavior, post_restart_delay_s=0.2))

        def restart():
            try:
                restart_device(device)
            except Exception as exc:
                raised.append(exc)

        restarting = threading.Thread(target=restart)
        restarting.start()
        time.sleep(0.05)
        device.shutdown()
        restarting.join(timeout=5)
        assert not restarting.is_alive()
        assert raised == [] and reported == []
        with pytest.raises(TriggerError):
            restart_device(device)
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


class TestServingOrder:
    def test_tcp_connections_are_served_one_at_a_time_in_accept_order(self, device_factory):
        device = device_factory(Behavior.CLEARTEXT_ECHO)
        address = (device.endpoint.address, device.endpoint.port)
        line = b"not a command\n"

        def answered(sock, wait_s):
            sock.settimeout(wait_s)
            try:
                return b"invalid command" in sock.recv(65536)
            except socket.timeout:
                return False

        with contextlib.ExitStack() as stack:
            first, second, third = (
                stack.enter_context(socket.create_connection(address, timeout=1.0))
                for _ in range(3)
            )
            for sock in (first, second, third):
                sock.sendall(line)
            assert answered(first, 1.0)
            assert not answered(second, 0.1) and not answered(third, 0.1)
            first.sendall(line)
            assert answered(first, 1.0)  # the open connection is still served
            first.close()
            assert answered(second, 1.0)
            assert not answered(third, 0.1)
            second.close()
            assert answered(third, 1.0)


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
        assert other.engine.keyed.key != device.engine.keyed.key
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

    @staticmethod
    def kept(device):
        """How many acks a line-protocol device holds, and for session_key
        how many keystreams its key keeps."""
        engine = device.engine
        if device.profile.behavior != Behavior.SESSION_KEY:
            return [len(vars(engine).get("acks", ()))]
        keyed = engine.keyed
        return [len(vars(keyed).get("acks", ())), keyed.stream.cache_info().currsize]

    @pytest.mark.parametrize("behavior", LINE_BEHAVIORS, ids=lambda b: b.value)
    def test_payloads_are_derived_on_first_use_by_each_device(self, device_factory, behavior):
        """Spawning derives nothing, and a device keeps what it derives on
        itself: a second device of the same seed starts with nothing kept
        and sends the same bytes."""
        first, second = device_factory(behavior, seed=7), device_factory(behavior, seed=7)
        assert not any(self.kept(first) + self.kept(second))
        sent = [trigger_state(first, state) for state in DEFAULT_TRAINING_SCRIPT[:2]]
        assert all(self.kept(first)) and self.kept(first)[0] == len(DeviceState)
        assert not any(self.kept(second))
        again = [trigger_state(second, state) for state in DEFAULT_TRAINING_SCRIPT[:2]]
        assert [[r.payload for r in records] for records in again] == [
            [r.payload for r in records] for records in sent
        ]

    @pytest.mark.parametrize("rekey", [True, False], ids=["rekey", "keep"])
    def test_a_rekey_replaces_the_key_and_all_derived_from_it(self, device_factory, rekey):
        """A rekey swaps the key with its acks and keystream cache; keeping
        the key keeps them. The old key's acks are left as they were."""
        device = device_factory(Behavior.SESSION_KEY, rekey_on_restart=rekey)
        trigger_state(device, DeviceState.OBVERSE)
        before = device.engine.keyed
        acks = dict(before.acks)
        restart_device(device)
        after = device.engine.keyed
        assert (after is not before) == rekey
        assert (after.key != before.key, after.stream is not before.stream) == (rekey, rekey)
        assert ("acks" not in vars(after)) == rekey  # a new key derives its own
        assert before.acks == acks
        records = trigger_state(device, DeviceState.OBVERSE)
        assert (records[1].payload != acks[DeviceState.OBVERSE]) == rekey

    def test_the_keystream_table_is_bounded(self, device_factory):
        """A peer that sends a new message length each time gets an answer
        every time, but the device keeps the streams of only a few lengths."""
        device = device_factory(Behavior.SESSION_KEY)
        handle = device._new_handler()
        for length in range(1, 41):
            wrapper = {"method": "secure_passthrough", "params": {
                "request": base64.b64encode(b"\x00" * length).decode()}}
            (reply,), _ = handle((json.dumps(wrapper) + "\n").encode())
            assert json.loads(reply) == ERROR_REPLIES[Behavior.SESSION_KEY]
        assert device.engine.keyed.stream.cache_info().currsize == _MOST_KEPT
        trigger_state(device, DeviceState.OBVERSE)
        assert query_state(device) == DeviceState.OBVERSE


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
