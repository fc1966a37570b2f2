"""Simulated smart devices for end-to-end replay assessment.

Six behavior families cover the response styles seen on real consumer
gear: plain JSON command/ack, signed cleartext, fixed opaque byte blobs,
a session-key cipher that can rotate on reboot, a TLS-shaped handshake
protocol, and a device that never answers. Each runs as a real server on
loopback, the silent one over UDP and the rest over TCP, so the replay
engine talks to it exactly as it would to hardware. One thread, the
reactor in loopback.py, serves them all: spawning a device starts none.

The companion plays the paired app: it triggers state changes in-process,
handing each command to the handler the server builds per connection, so
a command meets the same framing, engine code and random draws as one
that crossed a socket. It records every payload it sends or receives with
a logical clock, so captures are byte-identical across runs for a fixed
seed and port. Devices boot in the REVERSE state; restart clears volatile
state only (the silent profile's anti-replay counter and the static
secrets survive, like anything kept in flash). A restart keeps the
device's port bound and drops what reached it before the power cycle:
the open connection and the connections and datagrams still queued. The
reset runs on the reactor thread during the boot delay.

Keyed tags and keystreams come from random.Random seeded with the secret
(and the body, for a tag), which it hashes with its built-in SHA-512, so
no run loads OpenSSL. Neither is a real MAC or cipher: in the replay
threat model an attacker only resends captured bytes, never forges them.

Each echo-style device keeps its per-state ack lines in a plain dict
(encoded_fixed draws its blobs at spawn; the others derive theirs when
the first ack is sent); session_key keeps its ack lines per key, and the
keystreams of the last few message lengths. Each device keeps its own,
so no device reuses another's work. An incoming tag is still recomputed
every time.

SimulatedDevice implements pipeline.AssessedDevice with the functions
below, and writes its captures with capture.records_to_capture; the pcap
format is not known here. query_state is ground truth that a real
assessment never gets.
"""

from __future__ import annotations

import base64
import json
import random
import struct
import threading
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial

from .capture import DEFAULT_APP_ENDPOINT, Endpoint, PacketRecord, Transport, records_to_capture
from .loopback import LoopbackServer, SpawnError
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

_EVENT_GAP_US = 1_700
_COMMAND_GAP_US = 25_000


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


# A session key keeps the keystreams of at most this many message lengths,
# so a peer that sends every length cannot grow its cache without bound.
_MOST_KEPT = 8


def _ack_lines(owner) -> dict:
    """Each state's ack line from owner._ack_line. Owners keep these as a
    cached_property, derived with the first ack they send, so spawning a
    device derives none."""
    return {state: owner._ack_line(state) for state in DeviceState}


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


# The one byte that names a target state in the binary protocols.
_STATE_BYTES = {DeviceState.OBVERSE: b"\x01", DeviceState.REVERSE: b"\x02"}
_BYTE_STATES = {byte: state for state, byte in _STATE_BYTES.items()}


class _CleartextEchoEngine(_LineEngine):
    """Unauthenticated JSON commands; anything well-formed is executed.

    Acks are fixed per state (the token is a boot-time constant, like a
    scene digest), so a session sees exactly two distinct ack payloads.
    """

    acks = cached_property(_ack_lines)

    def __init__(self, device):
        super().__init__(device)
        rng = device.device_rng
        self.ack_tokens = {
            state: rng.getrandbits(64).to_bytes(8, "big").hex() for state in DeviceState
        }

    def _ack_line(self, state: DeviceState) -> bytes:
        return _json_line({"result": ["ok"], "state": state.value, "token": self.ack_tokens[state]})

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
            return [self.acks[self.device.state]]
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

    acks = cached_property(_ack_lines)

    def __init__(self, device):
        super().__init__(device)
        self.secret = device.device_rng.randbytes(16)  # static; survives restart

    def _signature(self, body: dict) -> str:
        return random.Random(self.secret + _canonical(body)).randbytes(32).hex()

    def _ack_line(self, state: DeviceState) -> bytes:
        # the ack covers only the resulting state, so each state has one
        # fixed signed ack payload
        ack = {"state": state.value, "status": "ok"}
        ack["sign"] = self._signature(ack)
        return _json_line(ack)

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
            return [self.acks[self.device.state]]
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

    def extract_message(self, buffer: bytes) -> tuple[bytes | None, bytes]:
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


class _SessionKey:
    """A session key and what the device derives from it: the keystream for
    each message length, cached, and the ack line for each state (fixed
    plaintext, so a fixed ciphertext under one key)."""

    acks = cached_property(_ack_lines)

    def __init__(self, key: bytes):
        self.key = key
        self.stream = lru_cache(maxsize=_MOST_KEPT)(partial(_keystream, key))

    def xor(self, data: bytes) -> bytes:
        stream = self.stream(len(data))
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(len(data), "big")

    def _ack_line(self, state: DeviceState) -> bytes:
        ciphertext = self.xor(_canonical({"state": state.value, "status": "ok"}))
        return _json_line(
            {"error_code": 0, "result": {"response": base64.b64encode(ciphertext).decode()}}
        )


class _SessionKeyEngine(_LineEngine):
    """Commands XORed with a 16-byte session key's stream, base64-wrapped.

    The keystream depends only on the key, so a given ciphertext stays
    valid as long as the key does; restart draws a fresh key when
    rekey_on_restart is set, invalidating everything captured before it.
    The paired companion re-reads the key after a restart (standing in
    for the re-handshake a real app performs when it reconnects). A rekey
    replaces the key and all derived from it in one assignment, and each
    message reads that once, so no message mixes two keys.
    """

    def __init__(self, device):
        super().__init__(device)
        self.keyed = _SessionKey(device.device_rng.randbytes(16))

    def reset_volatile(self):
        if self.device.profile.rekey_on_restart:
            self.keyed = _SessionKey(self.device.device_rng.randbytes(16))

    def _secure_error(self) -> bytes:
        return _json_line({"error_code": 4002, "message": "secure session error"})

    def handle_message(self, message, session):
        keyed = self.keyed
        try:
            wrapper = _json_object(message)
            encoded = wrapper["params"]["request"]
            inner = _json_object(keyed.xor(base64.b64decode(encoded, validate=True)))
        except (ValueError, KeyError, TypeError):
            return [self._secure_error()]
        if (
            wrapper.get("method") == "secure_passthrough"
            and inner.get("method") == "set_state"
            and inner.get("target") in ("obverse", "reverse")
        ):
            self.device.state = DeviceState(inner["target"])
            return [keyed.acks[self.device.state]]
        return [self._secure_error()]

    def build_command(self, target: DeviceState) -> bytes:
        inner = {
            "method": "set_state",
            "request_id": self.device.next_serial(),
            "target": target.value,
        }
        ciphertext = self.keyed.xor(_canonical(inner))
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
# device handle and module-level operations
# ---------------------------------------------------------------------------


class SimulatedDevice:
    """Handle to one running simulated device.

    The shared reactor thread serves replays over a real socket; the
    companion drives the same per-connection handler in-process. Handle
    operations (trigger/restart/companion_session/shutdown) are serialized
    by a control lock, a restart's boot delay included; the handler and the
    restart's reset take the state lock, as query does. Companion-side
    counters live here so they survive restarts the way a paired app's would.
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
        self._server = LoopbackServer(profile.transport, profile.port, self._new_handler)
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
        transport = self.profile.transport
        return [
            PacketRecord(
                timestamp=self._tick(),
                src=app if is_request else self.endpoint,
                dst=self.endpoint if is_request else app,
                transport=transport,
                payload=payload,
            )
            for is_request, payload in exchange
        ]

    def _reset_volatile(self) -> None:
        with self.lock:
            self.state = DeviceState.REVERSE
            self.engine.reset_volatile()

    def shutdown(self):
        with self.control_lock:  # waits out a restart in progress
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
    """Power-cycle: traffic in flight dropped, volatile state cleared, the
    port bound throughout. Returns after the modelled boot delay."""
    with device.control_lock:
        if device.closed:
            raise TriggerError("device has been shut down")
        booted = device._server.restart(device._reset_volatile)
        time.sleep(device.profile.post_restart_delay_s)
        booted()


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
