"""Flow replay against a live device, and response collection.

Flows are replayed newest-first (a stack: the last flow captured is the
first replayed), each on its own fresh connection to the device's
original port. Requests inside a flow are paced by a fixed delay and
never gated on responses; whatever the device sends back is collected
into one queue ordered by arrival time. Network failures are recorded,
never raised: a dead or refusing device is itself a finding.

Source addresses are not spoofed: replay traffic originates from this
host. None of the simulated profiles key on source identity, but a real
device that does would see the difference.
"""

from __future__ import annotations

import base64
import select
import socket
import time
from dataclasses import dataclass

from .capture import Endpoint, Flow, Transport

__all__ = [
    "ReplayConfig",
    "QueueEntry",
    "ResponseQueue",
    "FlowReplayReport",
    "AttackResult",
    "schedule",
    "replay_flow",
    "run_attack",
]

_RECV_CHUNK = 65536
_POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class ReplayConfig:
    """Timing knobs for the replay engine (all in milliseconds)."""

    per_flow_response_timeout_ms: int = 2000
    inter_request_delay_ms: int = 50
    inter_flow_delay_ms: int = 200
    connect_timeout_ms: int = 1000

    def __post_init__(self):
        for name in (
            "per_flow_response_timeout_ms",
            "inter_request_delay_ms",
            "inter_flow_delay_ms",
            "connect_timeout_ms",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class QueueEntry:
    """One response payload as it arrived during the attack.

    timestamp is seconds since the attack began. flow_index refers to
    the flow's position in the original capture order, not the replay
    order.
    """

    timestamp: float
    flow_index: int
    payload: bytes


@dataclass(frozen=True)
class ResponseQueue:
    entries: tuple[QueueEntry, ...]

    def payloads(self) -> list[bytes]:
        return [entry.payload for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "responses": [
                {
                    "timestamp": entry.timestamp,
                    "flow_index": entry.flow_index,
                    "payload_b64": base64.b64encode(entry.payload).decode("ascii"),
                }
                for entry in self.entries
            ]
        }

    @classmethod
    def from_dict(cls, body: dict) -> "ResponseQueue":
        """Inverse of to_dict; raises on a missing or malformed field."""
        entries = []
        for item in body["responses"]:
            timestamp, flow_index = item["timestamp"], item["flow_index"]
            if not (isinstance(timestamp, (int, float)) and isinstance(flow_index, int)):
                raise TypeError("queue entries need a numeric timestamp and integer flow_index")
            payload = base64.b64decode(item["payload_b64"], validate=True)
            entries.append(QueueEntry(timestamp=timestamp, flow_index=flow_index, payload=payload))
        return cls(tuple(entries))


@dataclass(frozen=True)
class FlowReplayReport:
    scheduled_position: int
    original_index: int
    transport: Transport
    request_lengths: tuple[int, ...]
    response_count: int
    note: str = ""


@dataclass(frozen=True)
class AttackResult:
    queue: ResponseQueue
    flows: tuple[FlowReplayReport, ...]


def schedule(flows: list[Flow]) -> list[Flow]:
    """Replay order: exact reverse of capture order (last flow first)."""
    return list(reversed(flows))


def _open_socket(
    device: Endpoint, transport: Transport, config: ReplayConfig
) -> tuple[socket.socket | None, str]:
    family = socket.AF_INET6 if ":" in device.address else socket.AF_INET
    if transport == Transport.TCP:
        try:
            sock = socket.create_connection(
                (device.address, device.port),
                timeout=config.connect_timeout_ms / 1000.0,
            )
        except OSError as exc:
            return None, f"connect to {device} failed: {exc}"
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, ""
    sock = socket.socket(family, socket.SOCK_DGRAM)
    try:
        sock.connect((device.address, device.port))
    except OSError as exc:
        sock.close()
        return None, f"connect to {device} failed: {exc}"
    return sock, ""


def replay_flow(
    flow: Flow, device: Endpoint, transport: Transport, config: ReplayConfig
) -> tuple[list[tuple[float, bytes]], str]:
    """Send one flow's requests to the device and collect what comes back.

    A fresh connection (TCP) or ephemeral-port socket (UDP) is used per
    call. Requests go out inter_request_delay apart without waiting for
    responses; collection stops per_flow_response_timeout after the last
    send or last arrival, whichever is later, or when the peer closes.

    Returns (responses, note): responses are (monotonic timestamp,
    payload) in arrival order; note is non-empty when the connection
    failed or was cut short. Never raises on network errors.
    """
    sock, note = _open_socket(device, transport, config)
    if sock is None:
        return [], note

    payloads = [record.payload for record in flow.requests]
    delay_s = config.inter_request_delay_ms / 1000.0
    timeout_s = config.per_flow_response_timeout_ms / 1000.0

    responses: list[tuple[float, bytes]] = []
    note = ""
    try:
        start = time.monotonic()
        send_times = [start + i * delay_s for i in range(len(payloads))]
        sent = 0
        last_event = start
        while True:
            now = time.monotonic()
            if sent < len(payloads) and now >= send_times[sent]:
                try:
                    if transport == Transport.TCP:
                        sock.sendall(payloads[sent])
                    else:
                        sock.send(payloads[sent])
                except OSError as exc:
                    note = f"send failed after {sent} of {len(payloads)} requests: {exc}"
                    break
                sent += 1
                last_event = time.monotonic()
                continue

            if sent == len(payloads) and now - last_event >= timeout_s:
                break

            wait = _POLL_INTERVAL
            if sent < len(payloads):
                wait = min(wait, max(send_times[sent] - now, 0.0))
            else:
                wait = min(wait, max(last_event + timeout_s - now, 0.0))
            try:
                readable, _, _ = select.select([sock], [], [], wait)
            except OSError as exc:
                note = f"socket error while waiting for responses: {exc}"
                break
            if not readable:
                continue
            try:
                chunk = sock.recv(_RECV_CHUNK)
            except OSError as exc:
                # e.g. ECONNREFUSED surfacing on a connected UDP socket
                note = f"receive failed: {exc}"
                break
            arrival = time.monotonic()
            if transport == Transport.TCP and not chunk:
                if sent < len(payloads):
                    note = f"peer closed after {sent} of {len(payloads)} requests"
                break
            if chunk:
                responses.append((arrival, chunk))
                last_event = arrival
    finally:
        sock.close()
    return responses, note


def run_attack(
    flows: list[Flow], device: Endpoint, config: ReplayConfig | None = None
) -> AttackResult:
    """Replay every flow (newest first) and merge responses into one queue.

    Queue entries are ordered by arrival time; entries with equal stamps
    keep replay order. Each entry is tagged with its source flow's index
    in the original capture order.
    """
    config = config or ReplayConfig()
    ordered = schedule(flows)
    attack_started = time.monotonic()
    entries: list[QueueEntry] = []
    reports: list[FlowReplayReport] = []
    for position, flow in enumerate(ordered):
        original_index = len(flows) - 1 - position
        transport = flow.requests[0].transport
        responses, note = replay_flow(flow, device, transport, config)
        entries.extend(
            QueueEntry(
                timestamp=ts - attack_started,
                flow_index=original_index,
                payload=data,
            )
            for ts, data in responses
        )
        reports.append(
            FlowReplayReport(
                scheduled_position=position,
                original_index=original_index,
                transport=transport,
                request_lengths=tuple(len(r.payload) for r in flow.requests),
                response_count=len(responses),
                note=note,
            )
        )
        if position < len(ordered) - 1:
            time.sleep(config.inter_flow_delay_ms / 1000.0)
    entries.sort(key=lambda e: e.timestamp)  # stable: replay order breaks ties
    return AttackResult(queue=ResponseQueue(tuple(entries)), flows=tuple(reports))
