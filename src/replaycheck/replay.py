"""Flow replay against a live device, and response collection.

Flows are replayed newest-first (a stack: the last flow captured is the
first replayed), each on its own fresh connection to the device's
original port, one after another. Requests inside a flow are paced by a
fixed delay and never gated on responses; whatever the device sends back
is collected into one queue ordered by arrival time. Network failures
are recorded, never raised: a dead or refusing device is itself a
finding.

One pacing rule spaces the flows: a flow starts once the previous
flow's collection has ended and at least the inter-flow delay has
passed since the previous flow's last request actually went out. The
delay overlaps the previous flow's collection instead of adding to it.
Because it counts from the send itself, a send the host runs late, or a
slow connect, delays the next flow rather than shortening the gap the
device sees.

The capture is the evidence for how long to listen. Once a flow has
drawn as many responses as the capture shows for it, collection ends
after the capture's own largest response gap (the linger) instead of
the full per-flow window. A flow the capture shows unanswered, or one
still short of its count, keeps the full window: concluding that a
device stayed silent needs it.

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
    "FlowReplay",
    "AttackResult",
    "schedule",
    "capture_linger_s",
    "connect",
    "replay_flow",
    "run_attack",
]

_RECV_CHUNK = 65536
MAX_TIMING_MS = 86_400_000  # one day, far below where select and sleep overflow


@dataclass(frozen=True)
class ReplayConfig:
    """Timing knobs for the replay engine (all in milliseconds, at most a day).

    The defaults live in PipelineSettings; build one with its replay_config().
    """

    per_flow_response_timeout_ms: int
    inter_request_delay_ms: int
    inter_flow_delay_ms: int
    connect_timeout_ms: int

    def __post_init__(self):
        for name in (
            "per_flow_response_timeout_ms",
            "inter_request_delay_ms",
            "inter_flow_delay_ms",
            "connect_timeout_ms",
        ):
            if not 0 < getattr(self, name) <= MAX_TIMING_MS:
                raise ValueError(f"{name} must be positive and at most {MAX_TIMING_MS}")


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
    expected_responses: int  # the capture's response count for this flow
    response_count: int
    note: str = ""


@dataclass(frozen=True)
class FlowReplay:
    """What one replay_flow call sent and drew; unpacks as (responses, note).

    responses are (monotonic arrival, payload) in arrival order; note is
    non-empty when the connection failed or was cut short. first_sent and
    last_sent are the monotonic times the first and last requests went out,
    None when none did.
    """

    responses: list[tuple[float, bytes]]
    note: str
    first_sent: float | None = None
    last_sent: float | None = None

    def __iter__(self):
        return iter((self.responses, self.note))


@dataclass(frozen=True)
class AttackResult:
    queue: ResponseQueue
    flows: tuple[FlowReplayReport, ...]


def schedule(flows: list[Flow]) -> list[Flow]:
    """Replay order: exact reverse of capture order (last flow first)."""
    return list(reversed(flows))


def capture_linger_s(flows: list[Flow], config: ReplayConfig) -> float:
    """How long collection lingers once a flow's captured responses arrived.

    The largest gap between consecutive records inside any captured flow
    (last request to first response, and response to response), capped
    at the full per-flow window.
    """
    gaps = [0]
    for flow in flows:
        if flow.responses:
            stamps = [flow.requests[-1].timestamp] + [r.timestamp for r in flow.responses]
            gaps.extend(later - earlier for earlier, later in zip(stamps, stamps[1:]))
    return min(max(gaps) / 1e6, config.per_flow_response_timeout_ms / 1000.0)


def connect(endpoint: Endpoint, transport: Transport, timeout_s: float) -> socket.socket:
    """Open a client socket to the endpoint; raises OSError.

    TCP connects within timeout_s, with Nagle off. UDP gets a connected
    datagram socket, so sendall sends each payload as one datagram.
    """
    address = (endpoint.address, endpoint.port)
    if transport == Transport.TCP:
        sock = socket.create_connection(address, timeout=timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    family = socket.AF_INET6 if ":" in endpoint.address else socket.AF_INET
    sock = socket.socket(family, socket.SOCK_DGRAM)
    try:
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def replay_flow(
    flow: Flow, device: Endpoint, config: ReplayConfig, linger_s: float
) -> FlowReplay:
    """Send one flow's requests to the device and collect what comes back.

    A fresh connection (TCP) or ephemeral-port socket (UDP), as the flow
    rode, is used per call. Requests go out inter_request_delay apart
    without waiting for responses. Collection stops when the peer closes,
    or after a quiet period following the last send or last arrival,
    whichever is later. The quiet period is per_flow_response_timeout,
    shortened to linger_s once every request is sent and at least
    len(flow.responses) responses have arrived; run_attack passes
    capture_linger_s over the whole capture.

    A request has gone out once sendall returns for it; the FlowReplay
    carries those times for the first and last request. Never raises on
    network errors.
    """
    transport = flow.requests[0].transport
    try:
        sock = connect(device, transport, config.connect_timeout_ms / 1000.0)
    except OSError as exc:
        return FlowReplay([], f"connect to {device} failed: {exc}")

    payloads = [record.payload for record in flow.requests]
    expected = len(flow.responses)
    delay_s = config.inter_request_delay_ms / 1000.0
    timeout_s = config.per_flow_response_timeout_ms / 1000.0

    responses: list[tuple[float, bytes]] = []
    sent_at: list[float] = []
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
                    sock.sendall(payloads[sent])
                except OSError as exc:
                    note = f"send failed after {sent} of {len(payloads)} requests: {exc}"
                    break
                sent += 1
                last_event = time.monotonic()
                sent_at.append(last_event)
                continue

            if sent < len(payloads):
                wait = max(send_times[sent] - now, 0.0)
            else:
                evidenced = expected and len(responses) >= expected
                wait = last_event + (linger_s if evidenced else timeout_s) - now
                if wait <= 0:
                    break
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
    first_sent, last_sent = (sent_at[0], sent_at[-1]) if sent_at else (None, None)
    return FlowReplay(responses, note, first_sent, last_sent)


def run_attack(
    flows: list[Flow], device: Endpoint, config: ReplayConfig
) -> AttackResult:
    """Replay every flow (newest first) and merge responses into one queue.

    A flow starts at whichever comes later: the end of the previous
    flow's collection, or inter_flow_delay after the previous flow's last
    request went out (after the previous flow began, if it sent none). A
    late send or slow connect therefore never shortens the gap the device
    sees. Queue entries are ordered by arrival time;
    entries with equal stamps keep replay order. Each entry is tagged with
    its source flow's index in the original capture order.
    """
    ordered = schedule(flows)
    linger_s = capture_linger_s(flows, config)
    flow_delay_s = config.inter_flow_delay_ms / 1000.0
    attack_started = time.monotonic()
    next_start = attack_started
    entries: list[QueueEntry] = []
    reports: list[FlowReplayReport] = []
    for position, flow in enumerate(ordered):
        pause = next_start - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        flow_started = time.monotonic()
        original_index = len(flows) - 1 - position
        replayed = replay_flow(flow, device, config, linger_s)
        anchor = flow_started if replayed.last_sent is None else replayed.last_sent
        next_start = anchor + flow_delay_s
        entries.extend(
            QueueEntry(
                timestamp=ts - attack_started,
                flow_index=original_index,
                payload=data,
            )
            for ts, data in replayed.responses
        )
        reports.append(
            FlowReplayReport(
                scheduled_position=position,
                original_index=original_index,
                transport=flow.requests[0].transport,
                request_lengths=tuple([len(r.payload) for r in flow.requests]),
                expected_responses=len(flow.responses),
                response_count=len(replayed.responses),
                note=replayed.note,
            )
        )
    entries.sort(key=lambda e: e.timestamp)  # stable: replay order breaks ties
    return AttackResult(queue=ResponseQueue(tuple(entries)), flows=tuple(reports))
