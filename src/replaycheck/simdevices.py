"""Simulated smart devices for end-to-end replay assessment.

Six behavior families cover the response styles seen on real consumer
gear: plain JSON command/ack, signed cleartext, fixed opaque byte blobs,
a session-key cipher that can rotate on reboot, a TLS-shaped handshake
protocol, and a device that never answers. Each runs as a real TCP or
UDP server on loopback, so the replay engine talks to it exactly as it
would to hardware.

The companion client plays the paired app: it triggers state changes over
the same sockets and records every payload it sends or receives with a
logical clock, so captures are byte-identical across runs for a fixed
seed and port. Devices boot in the REVERSE state; restart clears volatile
state only (the silent profile's anti-replay counter and the static
secrets survive, like anything kept in flash).

query_state and inspect_secrets exist for tests and ground truth; a real
assessment never gets either.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
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
from .capture import Endpoint, PacketRecord, Transport
from .protocols import matches_standard_security_protocol

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
    "ScriptedResponder",
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
    pure waiting; the simulated restart itself is immediate.
    """

    behavior: Behavior
    transport: Transport = Transport.TCP
    port: int = 0
    rekey_on_restart: bool = True
    seed: int = 0
    post_restart_delay_s: float = 1.0

    def __post_init__(self):
        if self.behavior == Behavior.TLS_LIKE and self.transport != Transport.TCP:
            raise ValueError("the TLS-like behavior runs over TCP only")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")
        if self.post_restart_delay_s < 0:
            raise ValueError("post_restart_delay_s must be >= 0")


_BEHAVIOR_TRANSPORT_DEFAULTS = {Behavior.SILENT: Transport.UDP}


def default_profile(behavior: Behavior, **overrides) -> DeviceProfile:
    """Profile with the behavior's customary transport (UDP for silent)."""
    transport = overrides.pop(
        "transport", _BEHAVIOR_TRANSPORT_DEFAULTS.get(behavior, Transport.TCP)
    )
    return DeviceProfile(behavior=behavior, transport=transport, **overrides)


DEFAULT_TRAINING_SCRIPT: tuple[DeviceState, ...] = (
    DeviceState.OBVERSE,
    DeviceState.REVERSE,
) * 5

# Virtual identity of the companion app inside synthesized captures. The
# companion's real socket uses an ephemeral loopback port; captures would
# differ across runs if they recorded it.
DEFAULT_APP_ENDPOINT = Endpoint("10.77.0.2", 38200)

# Absolute base for capture timestamps (logical clocks start here).
_CAPTURE_BASE_US = 1_690_000_000 * 1_000_000
_EVENT_GAP_US = 1_700
_COMMAND_GAP_US = 25_000

_RESPONSE_SPACING_S = 0.008  # keeps consecutive responses in separate segments
_COMPANION_TIMEOUT_S = 3.0


def _json_line(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, key: bytes) -> bytes:
    stream = _keystream(key, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


# ---------------------------------------------------------------------------
# behavior engines
# ---------------------------------------------------------------------------


class _Session:
    """Per-connection framing buffer for the stream servers."""

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
    def companion_exchange(self, client: "_CompanionClient", target: DeviceState):
        """Send one command and read its single response."""
        command = self.build_command(target)
        client.send(command)
        response = client.read_message(self)
        return [(True, command), (False, response)]


class _LineEngine(_EngineBase):
    """Shared newline framing for the JSON-speaking behaviors."""

    def extract_message(self, buffer: bytes) -> tuple[bytes | None, bytes]:
        index = buffer.find(b"\n")
        if index == -1:
            return None, buffer
        return buffer[: index + 1], buffer[index + 1 :]


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
            request = json.loads(message)
        except (ValueError, UnicodeDecodeError):
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
    """JSON plus an HMAC hex signature over a static per-device secret.

    Verification covers the full body, so any tampering is rejected, but
    there is no freshness field: a byte-identical replay carries a valid
    signature and is executed.
    """

    def __init__(self, device):
        super().__init__(device)
        self.secret = device.device_rng.randbytes(16)  # static; survives restart

    def _signature(self, body: dict) -> str:
        return hmac.new(self.secret, _canonical(body), hashlib.sha256).hexdigest()

    def handle_message(self, message, session):
        try:
            request = json.loads(message)
            signature = request.pop("sign")
        except (ValueError, KeyError, UnicodeDecodeError, AttributeError):
            return [_json_line({"code": 400, "status": "error"})]
        if not hmac.compare_digest(signature, self._signature(request)):
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


class _EncodedFixedEngine(_EngineBase):
    """Fixed 24-byte opaque command and ack blobs, one pair per state.

    The blobs are drawn once at spawn (firmware constants, effectively)
    and re-drawn if they happen to collide with a standard-protocol
    header, so the protocol check never misfires on this profile.
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
            if not matches_standard_security_protocol(blob):
                return blob

    def extract_message(self, buffer):
        if len(buffer) < self.MESSAGE_LEN:
            return None, buffer
        return buffer[: self.MESSAGE_LEN], buffer[self.MESSAGE_LEN :]

    def handle_message(self, message, session):
        for state, command in self.commands.items():
            if message == command:
                self.device.state = state
                return [self.acks[state]]
        return [self.error_blob]

    def build_command(self, target: DeviceState) -> bytes:
        return self.commands[target]


class _SessionKeyEngine(_LineEngine):
    """Commands encrypted under a 16-byte session key, then base64-wrapped.

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
            wrapper = json.loads(message)
            encoded = wrapper["params"]["request"]
            inner = json.loads(_xor(base64.b64decode(encoded, validate=True), self.key))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
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
        if (
            record_type == self.APPDATA
            and session is not None
            and session.nonce is not None
            and body[:16] == session.nonce
            and body[16:17] in (b"\x01", b"\x02")
        ):
            self.device.state = (
                DeviceState.OBVERSE if body[16] == 0x01 else DeviceState.REVERSE
            )
            return [self._record(self.APPDATA, b"\x03\x03", rng.randbytes(16))]
        if session is not None:
            session.close_connection = True
        return [self._record(self.ALERT, b"\x03\x03", b"\x02\x28")]

    def companion_exchange(self, client, target):
        rng = self.device.companion_rng
        hello = self._record(self.HANDSHAKE, b"\x03\x01", b"\x01" + rng.randbytes(32))
        client.send(hello)
        server_hello = client.read_message(self)
        nonce = server_hello[5 + 33 : 5 + 49]
        state_byte = b"\x01" if target == DeviceState.OBVERSE else b"\x02"
        command = self._record(
            self.APPDATA, b"\x03\x03", nonce + state_byte + rng.randbytes(15)
        )
        client.send(command)
        ack = client.read_message(self)
        return [(True, hello), (False, server_hello), (True, command), (False, ack)]


class _SilentEngine(_EngineBase):
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

    def extract_message(self, buffer):
        if len(buffer) < self.MESSAGE_LEN:
            return None, buffer
        return buffer[: self.MESSAGE_LEN], buffer[self.MESSAGE_LEN :]

    def handle_message(self, message, session):
        if len(message) == self.MESSAGE_LEN and message[9:] == self.tag:
            sequence = int.from_bytes(message[:8], "big")
            state_byte = message[8]
            if sequence > self.last_sequence and state_byte in (1, 2):
                self.last_sequence = sequence
                self.device.state = (
                    DeviceState.OBVERSE if state_byte == 1 else DeviceState.REVERSE
                )
        return []

    def build_command(self, target: DeviceState) -> bytes:
        self.device.companion_sequence += 1
        state_byte = b"\x01" if target == DeviceState.OBVERSE else b"\x02"
        return self.device.companion_sequence.to_bytes(8, "big") + state_byte + self.tag

    def companion_exchange(self, client, target):
        command = self.build_command(target)
        client.send(command)
        return [(True, command)]


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


class _DeviceServer(threading.Thread):
    def __init__(self, device: "SimulatedDevice", port: int):
        super().__init__(daemon=True)
        self.device = device
        self.stop_event = threading.Event()
        kind = (
            socket.SOCK_STREAM
            if device.profile.transport == Transport.TCP
            else socket.SOCK_DGRAM
        )
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

    def run(self):
        if self.device.profile.transport == Transport.TCP:
            self._serve_tcp()
        else:
            self._serve_udp()

    def _serve_tcp(self):
        while not self.stop_event.is_set():
            readable, _, _ = select.select([self.sock], [], [], 0.05)
            if not readable:
                continue
            try:
                connection, _ = self.sock.accept()
            except OSError:
                break
            self._serve_connection(connection)
        self.sock.close()

    def _serve_connection(self, connection: socket.socket):
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = _Session(self.device.engine)
        try:
            while not self.stop_event.is_set():
                readable, _, _ = select.select([connection], [], [], 0.05)
                if not readable:
                    continue
                data = connection.recv(65536)
                if not data:
                    break
                with self.device.lock:
                    responses = session.feed(data)
                for index, response in enumerate(responses):
                    if index:
                        time.sleep(_RESPONSE_SPACING_S)
                    connection.sendall(response)
                if session.close_connection:
                    break
        except OSError:
            pass
        finally:
            connection.close()

    def _serve_udp(self):
        while not self.stop_event.is_set():
            readable, _, _ = select.select([self.sock], [], [], 0.05)
            if not readable:
                continue
            try:
                data, address = self.sock.recvfrom(65536)
            except OSError:
                break
            with self.device.lock:
                responses = self.device.engine.handle_message(data, None)
            for index, response in enumerate(responses):
                if index:
                    time.sleep(_RESPONSE_SPACING_S)
                try:
                    self.sock.sendto(response, address)
                except OSError:
                    break
        self.sock.close()

    def stop(self):
        self.stop_event.set()
        self.join(timeout=2.0)
        try:
            self.sock.close()
        except OSError:
            pass


class _CompanionClient:
    """The paired app's side of one command exchange (real sockets)."""

    def __init__(self, device: "SimulatedDevice"):
        endpoint = device.endpoint
        if device.profile.transport == Transport.TCP:
            self.sock = socket.create_connection(
                (endpoint.address, endpoint.port), timeout=_COMPANION_TIMEOUT_S
            )
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self.sock.connect((endpoint.address, endpoint.port))
        self.transport = device.profile.transport
        self.buffer = b""

    def send(self, payload: bytes):
        if self.transport == Transport.TCP:
            self.sock.sendall(payload)
        else:
            self.sock.send(payload)

    def read_message(self, engine, timeout: float = _COMPANION_TIMEOUT_S) -> bytes:
        deadline = time.monotonic() + timeout
        while True:
            message, rest = engine.extract_message(self.buffer)
            if message is not None:
                self.buffer = rest
                return message
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TriggerError("device did not answer the companion in time")
            readable, _, _ = select.select([self.sock], [], [], min(remaining, 0.1))
            if not readable:
                continue
            data = self.sock.recv(65536)
            if not data and self.transport == Transport.TCP:
                raise TriggerError("device closed the companion connection")
            self.buffer += data

    def close(self):
        self.sock.close()


# ---------------------------------------------------------------------------
# device handle and module-level operations
# ---------------------------------------------------------------------------


class SimulatedDevice:
    """Handle to one running simulated device.

    Handle operations (trigger/restart/query/companion_session) are
    serialized by a control lock; the server thread shares only the state
    lock. Companion-side counters live here so they survive restarts the
    way a paired app's would.
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
        self._server = _DeviceServer(self, profile.port)
        self._server.start()
        self.endpoint = Endpoint("127.0.0.1", self._server.port)
        self.closed = False

    # -- companion plumbing --------------------------------------------------
    def next_serial(self) -> str:
        self.serial += 1
        return f"{self.serial:06d}"

    def _tick(self, gap_us: int = _EVENT_GAP_US) -> int:
        stamp = self._clock_us
        self._clock_us += gap_us
        return stamp

    def _exchange_records(self, target: DeviceState, app: Endpoint) -> list[PacketRecord]:
        self._clock_us += _COMMAND_GAP_US
        client = _CompanionClient(self)
        try:
            exchange = self.engine.companion_exchange(client, target)
        finally:
            client.close()
        records = []
        for is_request, payload in exchange:
            src, dst = (app, self.endpoint) if is_request else (self.endpoint, app)
            records.append(
                PacketRecord(
                    timestamp=self._tick(),
                    src=src,
                    dst=dst,
                    transport=self.profile.transport,
                    payload=payload,
                )
            )
        return records

    def shutdown(self):
        if not self.closed:
            self._server.stop()
            self.closed = True

    def inspect_secrets(self) -> dict:
        """Test-only view of internal key material; never used by the pipeline."""
        engine = self.engine
        secrets: dict = {"behavior": self.profile.behavior.value}
        if isinstance(engine, _SessionKeyEngine):
            secrets["session_key"] = engine.key.hex()
        if isinstance(engine, _SignedCleartextEngine):
            secrets["signing_secret"] = engine.secret.hex()
        if isinstance(engine, _EncodedFixedEngine):
            secrets["commands"] = {s.value: c.hex() for s, c in engine.commands.items()}
            secrets["acks"] = {s.value: a.hex() for s, a in engine.acks.items()}
        if isinstance(engine, _SilentEngine):
            secrets["last_sequence"] = engine.last_sequence
        return secrets

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


def _wait_for_state(device: SimulatedDevice, target: DeviceState, timeout: float = 2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if query_state(device) == target:
            return
        time.sleep(0.002)
    raise TriggerError(
        f"device state is {query_state(device).value}, expected {target.value}"
    )


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
        _wait_for_state(device, target)
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
        device._server = _DeviceServer(device, port)
        device._server.start()
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


# ---------------------------------------------------------------------------
# scripted responder (test double for exact multi-response choreography)
# ---------------------------------------------------------------------------


class ScriptedResponder:
    """Maps exact request payloads to fixed response lists.

    Unknown requests get nothing. Each received payload is logged to
    .received for replay-fidelity checks. UDP treats each datagram as one
    request; TCP treats each recv chunk as one (good enough for a test
    double on loopback).
    """

    def __init__(
        self,
        script: dict[bytes, list[bytes]],
        transport: Transport = Transport.UDP,
        port: int = 0,
    ):
        self.script = dict(script)
        self.transport = transport
        self.received: list[bytes] = []
        self.stop_event = threading.Event()
        kind = socket.SOCK_STREAM if transport == Transport.TCP else socket.SOCK_DGRAM
        self.sock = socket.socket(socket.AF_INET, kind)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", port))
        if transport == Transport.TCP:
            self.sock.listen(8)
        self.endpoint = Endpoint("127.0.0.1", self.sock.getsockname()[1])
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _respond(self, send, request: bytes):
        self.received.append(request)
        for index, response in enumerate(self.script.get(request, [])):
            if index:
                time.sleep(_RESPONSE_SPACING_S)
            send(response)

    def _serve(self):
        if self.transport == Transport.UDP:
            while not self.stop_event.is_set():
                readable, _, _ = select.select([self.sock], [], [], 0.05)
                if not readable:
                    continue
                try:
                    data, address = self.sock.recvfrom(65536)
                except OSError:
                    break
                self._respond(lambda r: self.sock.sendto(r, address), data)
        else:
            while not self.stop_event.is_set():
                readable, _, _ = select.select([self.sock], [], [], 0.05)
                if not readable:
                    continue
                try:
                    connection, _ = self.sock.accept()
                except OSError:
                    break
                try:
                    while not self.stop_event.is_set():
                        readable, _, _ = select.select([connection], [], [], 0.05)
                        if not readable:
                            continue
                        data = connection.recv(65536)
                        if not data:
                            break
                        self._respond(connection.sendall, data)
                except OSError:
                    pass
                finally:
                    connection.close()
        self.sock.close()

    def shutdown(self):
        self.stop_event.set()
        self.thread.join(timeout=2.0)
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
