"""Simulated smart devices for end-to-end replay assessment.

Six behavior families cover the response styles seen on real consumer
gear: plain JSON command/ack, signed cleartext, fixed opaque byte blobs,
a session-key cipher that can rotate on reboot, a TLS-shaped handshake
protocol, and a device that never answers. Each runs as a real server on
loopback, the silent one over UDP and the rest over TCP, so the replay
engine talks to it exactly as it would to hardware.

The companion plays the paired app: it triggers state changes in-process,
handing each command to the handler the server builds per connection, so
a command meets the same framing, engine code and random draws as one
that crossed a socket. It records every payload it sends or receives with
a logical clock, so captures are byte-identical across runs for a fixed
seed and port. Devices boot in the REVERSE state; restart clears volatile
state only (the silent profile's anti-replay counter and the static
secrets survive, like anything kept in flash).

Keyed tags and keystreams come from random.Random seeded with the secret
(and the body, for a tag), which it hashes with its built-in SHA-512, so
no run loads OpenSSL. Neither is a real MAC or cipher: in the replay
threat model an attacker only resends captured bytes, never forges them.

SimulatedDevice implements pipeline.AssessedDevice with the functions
below. query_state is ground truth that a real assessment never gets.
"""

from __future__ import annotations

import base64
import json
import random
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from enum import Enum

from . import pcap
from .capture import DEFAULT_APP_ENDPOINT, Endpoint, PacketRecord, Transport
from .protocols import rides_standard_security_protocol
from .replay import MAX_TIMING_MS

__all__ = [
    "Behavior",
    "DeviceState",
    "DeviceProfile",
    "SimulatedDevice",
    "SpawnError",
    "TriggerError",
    "spawn_device",
    "trigger_state",
    "restart_device",
    "query_state",
    "companion_session",
    "default_profile",
    "expected_vulnerable",
    "DEFAULT_TRAINING_SCRIPT",
    "DEFAULT_APP_ENDPOINT",
]


class Behavior(str, Enum):
    CLEARTEXT_ECHO = "cleartext_echo"
    SIGNED_CLEARTEXT = "signed_cleartext"
    ENCODED_FIXED = "encoded_fixed"
    SESSION_KEY = "session_key"
    TLS_LIKE = "tls_like"
    SILENT = "silent"


class DeviceState(str, Enum):
    OBVERSE = "obverse"
    REVERSE = "reverse"


class SpawnError(RuntimeError):
    """The device server could not be started (port in use, bad profile)."""


class TriggerError(RuntimeError):
    """The companion exchange did not complete or did not take effect."""


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one simulated device.

    port 0 lets the OS pick. post_restart_delay_s models boot time and is
    pure waiting, at most a day; the simulated restart itself is
    immediate. The transport is the behavior's own, not a setting.
    """

    behavior: Behavior
    port: int = 0
    rekey_on_restart: bool = True
    seed: int = 0
    post_restart_delay_s: float = 1.0

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        most_s = MAX_TIMING_MS // 1000
        if not 0 <= self.post_restart_delay_s <= most_s:  # refuses NaN too
            raise ValueError(f"post_restart_delay_s must be from 0 to {most_s}")

    @property
    def transport(self) -> Transport:
        """The behavior's own transport: UDP for silent, TCP for the rest."""
        return Transport.UDP if self.behavior == Behavior.SILENT else Transport.TCP


def default_profile(behavior: Behavior, **overrides) -> DeviceProfile:
    """Profile for the behavior, with any field overridden."""
    return DeviceProfile(behavior=behavior, **overrides)


DEFAULT_TRAINING_SCRIPT: tuple[DeviceState, ...] = (
    DeviceState.OBVERSE,
    DeviceState.REVERSE,
) * 5

# Absolute base for capture timestamps (logical clocks start here).
_CAPTURE_BASE_US = 1_690_000_000 * 1_000_000
_EVENT_GAP_US = 1_700
_COMMAND_GAP_US = 25_000

_RESPONSE_SPACING_S = 0.008  # keeps consecutive responses in separate segments


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _json_line(obj) -> bytes:
    return _canonical(obj) + b"\n"


def _json_object(message: bytes) -> dict:
    """A message holding one JSON object; ValueError for anything else,
    so an engine answers any other line with its error reply."""
    try:
        value = json.loads(message)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc
    if not isinstance(value, dict):
        raise ValueError("not a JSON object")
    return value


def _keystream(key: bytes, length: int) -> bytes:
    return random.Random(key).randbytes(length)


def _xor(data: bytes, key: bytes) -> bytes:
    stream = _keystream(key, len(data))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    return mixed.to_bytes(len(data), "big")


# ---------------------------------------------------------------------------
# behavior engines
# ---------------------------------------------------------------------------


class _Session:
    """Per-connection framing buffer for TCP (companion exchanges get one each)."""

    def __init__(self, engine):
        self.engine = engine
        self.buffer = b""
        self.close_connection = False
        self.nonce: bytes | None = None  # used by the TLS-like engine

    def feed(self, data: bytes) -> list[bytes]:
        self.buffer += data
        out: list[bytes] = []
        while True:
            message, rest = self.engine.extract_message(self.buffer)
            if message is None:
                break
            self.buffer = rest
            out.extend(self.engine.handle_message(message, self))
            if self.close_connection:
                break
        return out


class _EngineBase:
    """Device-side protocol logic plus the paired companion's side of it."""

    def __init__(self, device: "SimulatedDevice"):
        self.device = device

    # device side -----------------------------------------------------------
    def reset_volatile(self) -> None:
        pass

    def extract_message(self, buffer: bytes) -> tuple[bytes | None, bytes]:
        raise NotImplementedError

    def handle_message(self, message: bytes, session: _Session | None) -> list[bytes]:
        raise NotImplementedError

    # companion side ---------------------------------------------------------
    def companion_exchange(self, deliver, target: DeviceState):
        """Deliver one command; returns it and the device's responses as
        (is_request, payload) pairs."""
        command = self.build_command(target)
        return [(True, command)] + [(False, r) for r in deliver(command)]


class _LineEngine(_EngineBase):
    """Shared newline framing for the JSON-speaking behaviors."""

    def extract_message(self, buffer: bytes) -> tuple[bytes | None, bytes]:
        index = buffer.find(b"\n")
        if index == -1:
            return None, buffer
        return buffer[: index + 1], buffer[index + 1 :]


class _FixedLengthEngine(_EngineBase):
    """Shared framing for the behaviors whose messages are MESSAGE_LEN bytes."""

    def extract_message(self, buffer: bytes) -> tuple[bytes | None, bytes]:
        if len(buffer) < self.MESSAGE_LEN:
            return None, buffer
        return buffer[: self.MESSAGE_LEN], buffer[self.MESSAGE_LEN :]


# The one byte that names a target state in the binary protocols.
_STATE_BYTES = {DeviceState.OBVERSE: b"\x01", DeviceState.REVERSE: b"\x02"}
_BYTE_STATES = {byte: state for state, byte in _STATE_BYTES.items()}


class _CleartextEchoEngine(_LineEngine):
    """Unauthenticated JSON commands; anything well-formed is executed.

    Acks are fixed per state (the token is a boot-time constant, like a
    scene digest), so a session sees exactly two distinct ack payloads.
    """

    def __init__(self, device):
        super().__init__(device)
        rng = device.device_rng
        self.ack_tokens = {
            state: rng.getrandbits(64).to_bytes(8, "big").hex() for state in DeviceState
        }

    def handle_message(self, message, session):
        try:
            request = _json_object(message)
        except ValueError:
            return [_json_line({"error": {"code": -1, "message": "invalid command"}})]
        params = request.get("params")
        if request.get("method") == "set_state" and params in (
            ["obverse"],
            ["reverse"],
        ):
            self.device.state = DeviceState(params[0])
            return [
                _json_line(
                    {
                        "result": ["ok"],
                        "state": self.device.state.value,
                        "token": self.ack_tokens[self.device.state],
                    }
                )
            ]
        return [_json_line({"error": {"code": -1, "message": "invalid command"}})]

    def build_command(self, target: DeviceState) -> bytes:
        return _json_line(
            {
                "id": self.device.next_serial(),
                "method": "set_state",
                "params": [target.value],
            }
        )


class _SignedCleartextEngine(_LineEngine):
    """JSON plus a keyed hex tag, standing in for an HMAC, over a static
    per-device secret. It proves origin, not freshness: it covers the full
    body, so tampering or another secret is rejected, but a byte-identical
    replay carries a valid tag and is executed.
    """

    def __init__(self, device):
        super().__init__(device)
        self.secret = device.device_rng.randbytes(16)  # static; survives restart

    def _signature(self, body: dict) -> str:
        return random.Random(self.secret + _canonical(body)).randbytes(32).hex()

    def handle_message(self, message, session):
        try:
            request = _json_object(message)
            signature = request.pop("sign")
        except (ValueError, KeyError):
            return [_json_line({"code": 400, "status": "error"})]
        if signature != self._signature(request):
            return [_json_line({"code": 401, "status": "error"})]
        if request.get("method") == "set_state" and request.get("target") in (
            "obverse",
            "reverse",
        ):
            self.device.state = DeviceState(request["target"])
            # the ack covers only the resulting state, so each state has one
            # fixed signed ack payload
            ack = {
                "state": self.device.state.value,
                "status": "ok",
            }
            ack["sign"] = self._signature(ack)
            return [_json_line(ack)]
        return [_json_line({"code": 400, "status": "error"})]

    def build_command(self, target: DeviceState) -> bytes:
        body = {
            "method": "set_state",
            "msg_id": self.device.next_serial(),
            "target": target.value,
            "ts": f"{1_690_000_000 + int(self.device.serial):010d}",
        }
        body["sign"] = self._signature(body)
        return _json_line(body)


class _EncodedFixedEngine(_FixedLengthEngine):
    """Fixed 24-byte opaque command and ack blobs, one pair per state.

    The blobs are drawn once at spawn (firmware constants, effectively)
    and re-drawn if they happen to collide with a standard-protocol
    header on either transport, so the protocol check never misfires on
    this profile.
    """

    MESSAGE_LEN = 24

    def __init__(self, device):
        super().__init__(device)
        rng = device.device_rng
        self.commands = {state: self._draw_blob(rng) for state in DeviceState}
        self.acks = {state: self._draw_blob(rng) for state in DeviceState}
        self.error_blob = self._draw_blob(rng)

    def _draw_blob(self, rng: random.Random) -> bytes:
        while True:
            blob = rng.randbytes(self.MESSAGE_LEN)
            if not any(rides_standard_security_protocol(blob, t) for t in Transport):
                return blob

    def handle_message(self, message, session):
        for state, command in self.commands.items():
            if message == command:
                self.device.state = state
                return [self.acks[state]]
        return [self.error_blob]

    def build_command(self, target: DeviceState) -> bytes:
        return self.commands[target]


class _SessionKeyEngine(_LineEngine):
    """Commands XORed with a 16-byte session key's stream, base64-wrapped.

    The keystream depends only on the key, so a given ciphertext stays
    valid as long as the key does; restart draws a fresh key when
    rekey_on_restart is set, invalidating everything captured before it.
    The paired companion re-reads the key after a restart (standing in
    for the re-handshake a real app performs when it reconnects).
    """

    def __init__(self, device):
        super().__init__(device)
        self.key = device.device_rng.randbytes(16)

    def reset_volatile(self):
        if self.device.profile.rekey_on_restart:
            self.key = self.device.device_rng.randbytes(16)

    def _secure_error(self) -> bytes:
        return _json_line({"error_code": 4002, "message": "secure session error"})

    def handle_message(self, message, session):
        try:
            wrapper = _json_object(message)
            encoded = wrapper["params"]["request"]
            inner = _json_object(_xor(base64.b64decode(encoded, validate=True), self.key))
        except (ValueError, KeyError, TypeError):
            return [self._secure_error()]
        if (
            wrapper.get("method") == "secure_passthrough"
            and inner.get("method") == "set_state"
            and inner.get("target") in ("obverse", "reverse")
        ):
            self.device.state = DeviceState(inner["target"])
            # fixed plaintext per state; under a given key the ciphertext is
            # fixed per state too
            ack = {
                "state": self.device.state.value,
                "status": "ok",
            }
            ciphertext = _xor(_canonical(ack), self.key)
            return [
                _json_line(
                    {
                        "error_code": 0,
                        "result": {"response": base64.b64encode(ciphertext).decode()},
                    }
                )
            ]
        return [self._secure_error()]

    def build_command(self, target: DeviceState) -> bytes:
        inner = {
            "method": "set_state",
            "request_id": self.device.next_serial(),
            "target": target.value,
        }
        ciphertext = _xor(_canonical(inner), self.key)
        return _json_line(
            {
                "method": "secure_passthrough",
                "params": {"request": base64.b64encode(ciphertext).decode()},
            }
        )


class _TlsLikeEngine(_EngineBase):
    """TLS-shaped records with a per-connection freshness nonce.

    The handshake is cosmetic, but commands must embed the nonce from the
    ServerHello of the same connection, which is the property that makes
    real TLS replay-immune. Replays on a new connection carry a stale
    nonce and get a fatal alert.
    """

    HANDSHAKE = 0x16
    APPDATA = 0x17
    ALERT = 0x15

    @staticmethod
    def _record(record_type: int, version: bytes, body: bytes) -> bytes:
        return bytes([record_type]) + version + struct.pack(">H", len(body)) + body

    def extract_message(self, buffer):
        if len(buffer) < 5:
            return None, buffer
        total = 5 + struct.unpack_from(">H", buffer, 3)[0]
        if len(buffer) < total:
            return None, buffer
        return buffer[:total], buffer[total:]

    def handle_message(self, message, session):
        record_type = message[0]
        body = message[5:]
        rng = self.device.device_rng
        if record_type == self.HANDSHAKE and body[:1] == b"\x01":
            session.nonce = rng.randbytes(16)
            reply = b"\x02" + rng.randbytes(32) + session.nonce
            return [self._record(self.HANDSHAKE, b"\x03\x03", reply)]
        state = _BYTE_STATES.get(body[16:17])
        if (
            record_type == self.APPDATA
            and session.nonce is not None
            and body[:16] == session.nonce
            and state is not None
        ):
            self.device.state = state
            return [self._record(self.APPDATA, b"\x03\x03", rng.randbytes(16))]
        session.close_connection = True
        return [self._record(self.ALERT, b"\x03\x03", b"\x02\x28")]

    def companion_exchange(self, deliver, target):
        rng = self.device.companion_rng
        hello = self._record(self.HANDSHAKE, b"\x03\x01", b"\x01" + rng.randbytes(32))
        server_hello = b"".join(deliver(hello))
        nonce = server_hello[5 + 33 : 5 + 49]
        command = self._record(
            self.APPDATA, b"\x03\x03", nonce + _STATE_BYTES[target] + rng.randbytes(15)
        )
        return [(True, hello), (False, server_hello), (True, command)] + [
            (False, r) for r in deliver(command)
        ]


class _SilentEngine(_FixedLengthEngine):
    """Executes fresh commands, never answers anything.

    Commands carry a strictly increasing sequence number that the device
    persists across restarts (non-volatile anti-replay counter), so a
    replayed datagram is stale by construction and silently ignored.
    """

    MESSAGE_LEN = 16

    def __init__(self, device):
        super().__init__(device)
        self.tag = device.device_rng.randbytes(7)  # static protocol marker
        self.last_sequence = 0  # survives restart by design

    def handle_message(self, message, session):
        if len(message) == self.MESSAGE_LEN and message[9:] == self.tag:
            sequence = int.from_bytes(message[:8], "big")
            state = _BYTE_STATES.get(message[8:9])
            if sequence > self.last_sequence and state is not None:
                self.last_sequence = sequence
                self.device.state = state
        return []

    def build_command(self, target: DeviceState) -> bytes:
        self.device.companion_sequence += 1
        sequence = self.device.companion_sequence.to_bytes(8, "big")
        return sequence + _STATE_BYTES[target] + self.tag


_ENGINES = {
    Behavior.CLEARTEXT_ECHO: _CleartextEchoEngine,
    Behavior.SIGNED_CLEARTEXT: _SignedCleartextEngine,
    Behavior.ENCODED_FIXED: _EncodedFixedEngine,
    Behavior.SESSION_KEY: _SessionKeyEngine,
    Behavior.TLS_LIKE: _TlsLikeEngine,
    Behavior.SILENT: _SilentEngine,
}


# ---------------------------------------------------------------------------
# socket servers
# ---------------------------------------------------------------------------


class _LoopbackServer:
    """One thread serving a loopback TCP or UDP socket until stop().

    new_handler() is called once per TCP connection (once in all for UDP)
    and returns handle(data) -> (responses, close_connection). TCP
    connections are served one at a time, in accept order. The thread
    blocks in select on its socket plus a wakeup socket whose other end
    stop() closes, so stopping never waits out a poll.
    """

    def __init__(self, transport: Transport, port: int, new_handler):
        kind = socket.SOCK_STREAM if transport == Transport.TCP else socket.SOCK_DGRAM
        self.sock = socket.socket(socket.AF_INET, kind)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self.sock.bind(("127.0.0.1", port))
            if kind == socket.SOCK_STREAM:
                self.sock.listen(8)
        except OSError as exc:
            self.sock.close()
            raise SpawnError(f"cannot bind 127.0.0.1:{port}: {exc}") from exc
        self.port = self.sock.getsockname()[1]
        self._new_handler = new_handler
        self._wake, self._waker = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _readable(self, sock: socket.socket) -> bool:
        """Block until sock is readable (True) or stop() is called (False)."""
        readable, _, _ = select.select([sock, self._wake], [], [])
        return self._wake not in readable

    def _receive(self) -> tuple[bytes, tuple]:
        """One datagram and its sender."""
        return self.sock.recvfrom(65536)

    @staticmethod
    def _send(responses: list[bytes], send) -> None:
        for index, response in enumerate(responses):
            if index:
                time.sleep(_RESPONSE_SPACING_S)
            send(response)

    def _serve(self):
        try:
            if self.sock.type == socket.SOCK_STREAM:
                while self._readable(self.sock):
                    connection, _ = self.sock.accept()
                    with connection:
                        self._serve_connection(connection)
            else:
                handle = self._new_handler()
                while self._readable(self.sock):
                    data, address = self._receive()
                    responses, _ = handle(data)
                    try:
                        self._send(responses, lambda r: self.sock.sendto(r, address))
                    except OSError:
                        pass
        except OSError:
            pass
        finally:
            self.sock.close()
            self._wake.close()

    def _serve_connection(self, connection: socket.socket):
        handle = self._new_handler()
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while self._readable(connection):
                data = connection.recv(65536)
                if not data:
                    return
                responses, close_connection = handle(data)
                self._send(responses, connection.sendall)
                if close_connection:
                    return
        except OSError:
            pass

    def stop(self):
        self._waker.close()
        self._thread.join(timeout=2.0)


# ---------------------------------------------------------------------------
# device handle and module-level operations
# ---------------------------------------------------------------------------


class SimulatedDevice:
    """Handle to one running simulated device.

    The server thread serves replays over a real socket; the companion
    drives the same per-connection handler in-process. Handle operations
    (trigger/restart/query/companion_session) are serialized by a control
    lock; the handler takes the state lock. Companion-side counters live
    here so they survive restarts the way a paired app's would.
    """

    def __init__(self, profile: DeviceProfile):
        self.profile = profile
        self.lock = threading.RLock()
        self.control_lock = threading.RLock()
        self.device_rng = random.Random(profile.seed)
        self.companion_rng = random.Random(profile.seed ^ 0x5EED5EED)
        self.state = DeviceState.REVERSE
        self.serial = 0  # companion command counter (zero-padded in payloads)
        self.companion_sequence = 0  # silent-profile anti-replay counter
        self._clock_us = 0
        self.engine = _ENGINES[profile.behavior](self)
        self._server = _LoopbackServer(profile.transport, profile.port, self._new_handler)
        self.endpoint = Endpoint("127.0.0.1", self._server.port)
        self.closed = False

    def _new_handler(self):
        """TCP connections feed a framing session; UDP datagrams go whole."""
        session = _Session(self.engine) if self.profile.transport == Transport.TCP else None

        def handle(data: bytes) -> tuple[list[bytes], bool]:
            with self.lock:
                if session is None:
                    return self.engine.handle_message(data, None), False
                return session.feed(data), session.close_connection

        return handle

    # -- companion plumbing --------------------------------------------------
    def next_serial(self) -> str:
        self.serial += 1
        return f"{self.serial:06d}"

    def _tick(self) -> int:
        stamp = self._clock_us
        self._clock_us += _EVENT_GAP_US
        return stamp

    def _exchange_records(self, target: DeviceState, app: Endpoint) -> list[PacketRecord]:
        self._clock_us += _COMMAND_GAP_US
        handle = self._new_handler()  # a fresh session, as a new connection gets
        exchange = self.engine.companion_exchange(lambda data: handle(data)[0], target)
        return [
            PacketRecord(
                timestamp=self._tick(),
                src=app if is_request else self.endpoint,
                dst=self.endpoint if is_request else app,
                transport=self.profile.transport,
                payload=payload,
            )
            for is_request, payload in exchange
        ]

    def shutdown(self):
        if not self.closed:
            self._server.stop()
            self.closed = True

    # -- the device under assessment (pipeline.AssessedDevice) ---------------
    @property
    def name(self) -> str:
        return self.profile.behavior.value

    def training_capture(self, app: Endpoint) -> bytes:
        return companion_session(self, app)

    def command_capture(self, app: Endpoint) -> bytes:
        return records_to_capture(trigger_state(self, DeviceState.OBVERSE, app))

    def arm(self, app: Endpoint) -> None:
        trigger_state(self, DeviceState.REVERSE, app)

    def restart(self) -> None:
        restart_device(self)

    def replay_took_effect(self) -> bool:
        return query_state(self) == DeviceState.OBVERSE

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


def spawn_device(profile: DeviceProfile) -> SimulatedDevice:
    """Start a device server for the profile; REVERSE state, fresh secrets."""
    return SimulatedDevice(profile)


def query_state(device: SimulatedDevice) -> DeviceState:
    """Ground-truth state readout (harness only; invisible to the pipeline)."""
    with device.lock:
        return device.state


def trigger_state(
    device: SimulatedDevice, target: DeviceState, app: Endpoint = DEFAULT_APP_ENDPOINT
) -> list[PacketRecord]:
    """Legitimately command the device into a state, as the paired app.

    Returns the exchange as capture records (logical-clock timestamps,
    virtual app endpoint). Raises TriggerError if the device did not end
    up in the requested state.
    """
    with device.control_lock:
        if device.closed:
            raise TriggerError("device has been shut down")
        records = device._exchange_records(target, app)
        state = query_state(device)
        if state != target:
            raise TriggerError(f"device state is {state.value}, expected {target.value}")
        return records


def restart_device(device: SimulatedDevice) -> None:
    """Power-cycle: volatile state cleared, listener back on the same port."""
    with device.control_lock:
        if device.closed:
            raise TriggerError("device has been shut down")
        port = device.endpoint.port
        device._server.stop()
        with device.lock:
            device.state = DeviceState.REVERSE
            device.engine.reset_volatile()
        device._server = _LoopbackServer(device.profile.transport, port, device._new_handler)
    time.sleep(device.profile.post_restart_delay_s)


def companion_session(
    device: SimulatedDevice,
    app: Endpoint = DEFAULT_APP_ENDPOINT,
    script: tuple[DeviceState, ...] | list[DeviceState] | None = None,
) -> bytes:
    """Run a scripted command session and return it as a pcap byte stream.

    The default script alternates OBVERSE/REVERSE five times (ten
    commands). An empty script yields a header-only capture. For a fixed
    profile seed, port, and handle history the output is byte-identical.
    """
    if script is None:
        script = DEFAULT_TRAINING_SCRIPT
    with device.control_lock:
        records: list[PacketRecord] = []
        for target in script:
            records.extend(trigger_state(device, target, app))
    return records_to_capture(records)


def expected_vulnerable(profile: DeviceProfile, restarted: bool) -> bool:
    """Documented ground truth: does a byte-level replay flip this profile?

    Freshness is what decides it. The first three profiles carry none, so
    any faithful replay executes. A session key is freshness that lives
    exactly as long as the key does, hence the restart split (and no
    split when the profile is configured to keep its key). The TLS-like
    handshake and the silent profile's persistent counter are freshness
    that survives everything.
    """
    if profile.behavior in (
        Behavior.CLEARTEXT_ECHO,
        Behavior.SIGNED_CLEARTEXT,
        Behavior.ENCODED_FIXED,
    ):
        return True
    if profile.behavior == Behavior.SESSION_KEY:
        return not (restarted and profile.rekey_on_restart)
    return False


def records_to_capture(records: list[PacketRecord]) -> bytes:
    """Serialize capture records to classic pcap with synthesized framing.

    TCP sequence numbers advance per direction across the whole capture,
    so repeated identical payloads are distinct segments, not
    retransmissions.
    """
    sequences: dict[tuple[Endpoint, Endpoint], int] = {}
    frames = []
    for index, record in enumerate(records):
        proto = pcap.PROTO_TCP if record.transport == Transport.TCP else pcap.PROTO_UDP
        forward = (record.src, record.dst)
        reverse = (record.dst, record.src)
        seq = sequences.setdefault(forward, 10_001)
        ack = sequences.get(reverse, 0)
        frame = pcap.encode_frame(
            record.src.address,
            record.dst.address,
            record.src.port,
            record.dst.port,
            proto,
            record.payload,
            tcp_seq=seq,
            tcp_ack=ack,
            ip_id=index + 1,
        )
        sequences[forward] = seq + len(record.payload)
        frames.append((_CAPTURE_BASE_US + record.timestamp, frame))
    return pcap.write_capture(frames)
