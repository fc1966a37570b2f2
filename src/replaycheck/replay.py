"""Flow replay against a live device, and response collection.

Flows are replayed newest-first (a stack: the last flow captured is the
first replayed), each on its own fresh connection to the device's
original port, one after another. Requests inside a flow are paced by a
fixed delay from the previous request actually sent and never gated on
responses; whatever the device sends back is collected into one queue
ordered by arrival time. Network failures are recorded, never raised: a
dead or refusing device is itself a finding.

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
the full per-flow window. A response is a TCP flow's whole response
run or one UDP datagram, in the capture and the queue alike
(capture.response_units). A flow the capture shows unanswered, or one
still short of its count, keeps the full window: concluding that a
device stayed silent needs it.

The four timings (per_flow_response_timeout_ms, inter_request_delay_ms,
inter_flow_delay_ms, connect_timeout_ms) are read from the
PipelineSettings passed in, which checks each is positive and at most
MAX_TIMING_MS when it is built. This module sits below the pipeline and
does not import it: any object with those four attributes serves.

Source addresses are not spoofed: replay traffic originates from this
host. None of the simulated profiles key on source identity, but a real
device that does would see the difference.
"""

from __future__ import annotations

import base64
import math
import select
import socket
import time
from dataclasses import dataclass, field

from .capture import Endpoint, Flow, Transport, response_units

__all__ = [
    "QueueEntry",
    "ResponseQueue",
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
            # bool is an int to Python, but a JSON boolean is never a number.
            numeric = isinstance(timestamp, (int, float)) and isinstance(flow_index, int)
            if not numeric or isinstance(timestamp, bool) or isinstance(flow_index, bool):
                raise TypeError("queue entries need a numeric timestamp and integer flow_index")
            timestamp = float(timestamp)  # OverflowError for an int past the float range
            if not (math.isfinite(timestamp) and timestamp >= 0 and flow_index >= 0):
                raise ValueError("queue entries need a finite timestamp >= 0 and a flow_index >= 0")
            payload = base64.b64decode(item["payload_b64"], validate=True)
            entries.append(QueueEntry(timestamp=timestamp, flow_index=flow_index, payload=payload))
        return cls(tuple(entries))


@dataclass(frozen=True)
class FlowReplay:
    """One captured flow as replay_flow sent it; unpacks as (responses, note).

    flow is the captured Flow replayed. responses are (monotonic arrival,
    payload) in arrival order; note is non-empty when the connection
    failed or was cut short. first_sent and last_sent are the monotonic
    times the first and last requests went out, None when none did.
    """

    flow: Flow
    responses: list[tuple[float, bytes]]
    note: str
    first_sent: float | None = None
    last_sent: float | None = None

    def __iter__(self):
        return iter((self.responses, self.note))

    def response_units(self) -> list[tuple[float, bytes]]:
        """The responses as the queue holds them, cut by capture.response_units."""
        return response_units(self.flow.requests[0].transport, self.responses)


@dataclass(frozen=True)
class AttackResult:
    """What an attack did: each flow's FlowReplay in replay order, and the
    monotonic time it began. queue is derived from them: one entry per
    FlowReplay.response_units item, sorted by arrival."""

    flows: tuple[FlowReplay, ...]
    started: float
    queue: ResponseQueue = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        last = len(self.flows) - 1
        entries = [
            QueueEntry(timestamp=stamp - self.started, flow_index=last - position, payload=payload)
            for position, replayed in enumerate(self.flows)
            for stamp, payload in replayed.response_units()
        ]
        entries.sort(key=lambda e: e.timestamp)  # stable: replay order breaks ties
        object.__setattr__(self, "queue", ResponseQueue(tuple(entries)))

    def transcript(self) -> dict:
        """The attack-transcript/1 body: one entry per flow, in replay order.

        original_index is the flow's position in capture order; replay
        runs newest first, so it counts down from the last flow.
        """
        last = len(self.flows) - 1
        return {
            "flows": [
                {
                    "scheduled_position": position,
                    "original_index": last - position,
                    "transport": replayed.flow.requests[0].transport.value,
                    "request_lengths": [len(r.payload) for r in replayed.flow.requests],
                    "expected_responses": len(replayed.flow.response_units()),
                    "response_count": len(replayed.response_units()),
                    "note": replayed.note,
                }
                for position, replayed in enumerate(self.flows)
            ]
        }


def schedule(flows: list[Flow]) -> list[Flow]:
    """Replay order: exact reverse of capture order (last flow first)."""
    return list(reversed(flows))


def capture_linger_s(flows: list[Flow], settings: "PipelineSettings") -> float:
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
    return min(max(gaps) / 1e6, settings.per_flow_response_timeout_ms / 1000.0)


def connect(endpoint: Endpoint, transport: Transport, timeout_s: float) -> socket.socket:
    """Open a client socket to the endpoint; raises OSError.

    The endpoint's address is an IP literal, so the socket takes its
    family from the address form and connects to it directly: no name
    lookup, which would load the IDNA codec. TCP connects within
    timeout_s, keeps that timeout, and has Nagle off. It also sets
    SO_REUSEADDR, because Linux lets a device bind a port that a closed
    connection holds in TIME-WAIT only when both sockets set it. UDP gets
    a connected datagram socket, so sendall sends each payload as one
    datagram.
    """
    family = socket.AF_INET6 if ":" in endpoint.address else socket.AF_INET
    tcp = transport == Transport.TCP
    sock = socket.socket(family, socket.SOCK_STREAM if tcp else socket.SOCK_DGRAM)
    try:
        if tcp:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.settimeout(timeout_s)
        sock.connect((endpoint.address, endpoint.port))
        if tcp:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        sock.close()
        raise
    return sock


def replay_flow(
    flow: Flow, device: Endpoint, settings: "PipelineSettings", linger_s: float
) -> FlowReplay:
    """Send one flow's requests to the device and collect what comes back.

    The timings come from settings, checked when they were built.

    A fresh connection (TCP) or ephemeral-port socket (UDP), as the flow
    rode, is used per call. Each request goes out inter_request_delay after
    the previous one went out, never waiting for responses. Collection stops
    when the peer closes, or after a quiet period following the last send or
    last arrival, whichever is later: per_flow_response_timeout, or linger_s
    (run_attack passes capture_linger_s) once every request is sent and the
    capture's count of responses has arrived. A response is a TCP flow's
    whole run, in however many chunks, or one UDP datagram (response_units).

    A request has gone out once sendall returns for it; the FlowReplay
    carries those times for the first and last request. Never raises on
    network errors.
    """
    transport = flow.requests[0].transport
    try:
        sock = connect(device, transport, settings.connect_timeout_ms / 1000.0)
    except OSError as exc:
        return FlowReplay(flow, [], f"connect to {device} failed: {exc}")

    payloads = [record.payload for record in flow.requests]
    expected = len(flow.response_units())
    delay_s = settings.inter_request_delay_ms / 1000.0
    timeout_s = settings.per_flow_response_timeout_ms / 1000.0

    responses: list[tuple[float, bytes]] = []
    sent_at: list[float] = []
    note = ""
    try:
        last_event = time.monotonic()
        while True:
            sent = len(sent_at)
            now = time.monotonic()
            due = sent_at[-1] + delay_s if sent_at else now
            if sent < len(payloads) and now >= due:
                try:
                    sock.sendall(payloads[sent])
                except OSError as exc:
                    note = f"send failed after {sent} of {len(payloads)} requests: {exc}"
                    break
                last_event = time.monotonic()
                sent_at.append(last_event)
                continue

            if sent < len(payloads):
                wait = max(due - now, 0.0)
            else:
                # Chunks count as units: a TCP capture holds at most one unit.
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
    return FlowReplay(flow, responses, note, first_sent, last_sent)


def run_attack(
    flows: list[Flow], device: Endpoint, settings: "PipelineSettings"
) -> AttackResult:
    """Replay every flow (newest first) and merge responses into one queue.

    The timings come from settings, checked when they were built.

    A flow starts at whichever comes later: the end of the previous
    flow's collection, or inter_flow_delay after the previous flow's last
    request went out (after the previous flow began, if it sent none). A
    late send or slow connect therefore never shortens the gap the device
    sees. The result's queue is derived from the flows it returns.
    """
    linger_s = capture_linger_s(flows, settings)
    flow_delay_s = settings.inter_flow_delay_ms / 1000.0
    attack_started = time.monotonic()
    next_start = attack_started
    replays: list[FlowReplay] = []
    for flow in schedule(flows):
        pause = next_start - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        flow_started = time.monotonic()
        replayed = replay_flow(flow, device, settings, linger_s)
        anchor = flow_started if replayed.last_sent is None else replayed.last_sent
        next_start = anchor + flow_delay_s
        replays.append(replayed)
    return AttackResult(tuple(replays), attack_started)
