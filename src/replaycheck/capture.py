"""Capture model: endpoints, transport-payload records, and flows.

A capture is reduced to the payload-bearing traffic between exactly two
endpoints (the controlling app and the device). Everything else is
unrelated noise and is dropped. Flows group a run of consecutive
requests with the run of responses that follows, which is the unit the
replay engine works with. This module reads records from classic pcap
(parse_capture_with_notes) and writes them to it (records_to_capture).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import pcap


class Transport(str, Enum):
    TCP = "tcp"
    UDP = "udp"


_TRANSPORT_FOR = {pcap.PROTO_TCP: Transport.TCP, pcap.PROTO_UDP: Transport.UDP}

# Absolute base for written capture timestamps (logical clocks start here).
_CAPTURE_BASE_US = 1_690_000_000 * 1_000_000


@dataclass(frozen=True)
class Endpoint:
    """One side of the observed session: IP address plus port."""

    address: str
    port: int

    def __post_init__(self):
        canonical = str(ipaddress.ip_address(self.address))
        object.__setattr__(self, "address", canonical)
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port {self.port} out of range")

    def __str__(self) -> str:
        if ":" in self.address:
            return f"[{self.address}]:{self.port}"
        return f"{self.address}:{self.port}"


def parse_endpoint(text: str) -> Endpoint:
    """Parse 'host:port' or '[v6]:port' into an Endpoint."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"expected ADDRESS:PORT, got {text!r}")
    host = host.strip("[]")
    return Endpoint(host, int(port))


@dataclass(frozen=True)
class PacketRecord:
    """One transport payload with its direction endpoints.

    timestamp is microseconds since the capture epoch (the first frame in
    the capture). payload is never empty; zero-payload segments are
    dropped during parsing.
    """

    timestamp: int
    src: Endpoint
    dst: Endpoint
    transport: Transport
    payload: bytes

    def __post_init__(self):
        if len(self.payload) == 0:
            raise ValueError("PacketRecord payload must be non-empty")


@dataclass(frozen=True)
class SessionConfig:
    """The app/device endpoint pair a capture is interpreted against."""

    app: Endpoint
    device: Endpoint

    def __post_init__(self):
        if self.app == self.device:
            raise ValueError("app and device endpoints must differ")


# The app side of a session when none is given: the identity the simulated
# companion stamps on its captures (it opens no socket, so has no real one).
DEFAULT_APP_ENDPOINT = Endpoint("10.77.0.2", 38200)


@dataclass(frozen=True)
class Flow:
    """A maximal run of requests followed by the responses to them.

    requests is never empty; responses may be (a trailing command the
    device never answered still gets replayed).
    """

    requests: tuple[PacketRecord, ...]
    responses: tuple[PacketRecord, ...]

    def __post_init__(self):
        if not self.requests:
            raise ValueError("Flow.requests must be non-empty")


@dataclass
class CaptureNotes:
    """Diagnostics from one parse, for operator-facing summaries."""

    frames_total: int = 0
    frames_undecodable: int = 0  # link/IP/transport headers did not decode
    frames_other_protocol: int = 0  # IP, but neither TCP nor UDP
    frames_other_endpoints: int = 0  # not between the app and the device
    records_matched: int = 0
    zero_payload_dropped: int = 0
    retransmissions_dropped: int = 0
    sequence_regressions: int = 0

    def summary(self) -> str:
        parts = [
            f"{self.frames_total} frames",
            f"{self.records_matched} matched payload records",
        ]
        if self.frames_undecodable:
            parts.append(f"{self.frames_undecodable} undecodable frames")
        if self.frames_other_protocol:
            parts.append(f"{self.frames_other_protocol} non-TCP/UDP frames")
        if self.frames_other_endpoints:
            parts.append(f"{self.frames_other_endpoints} frames between other endpoints")
        if self.zero_payload_dropped:
            parts.append(f"{self.zero_payload_dropped} empty-payload segments dropped")
        if self.retransmissions_dropped:
            parts.append(f"{self.retransmissions_dropped} retransmissions dropped")
        if self.sequence_regressions:
            parts.append(
                f"{self.sequence_regressions} TCP sequence regressions "
                "(multiple connections merged into one stream)"
            )
        return ", ".join(parts)


def records_to_capture(records: list[PacketRecord]) -> bytes:
    """Serialize capture records to classic pcap with synthesized framing.

    TCP sequence numbers advance per direction across the whole capture,
    so repeated identical payloads are distinct segments, not
    retransmissions. Each direction and transport gets one
    pcap.frame_encoder, kept for this capture only.
    """
    # Keyed by (src address, dst address, src port, dst port): a tuple of
    # str and int hashes in C, where an Endpoint pair hashes in Python.
    sequences: dict[tuple[str, str, int, int], int] = {}
    encoders: dict[tuple[tuple[str, str, int, int], int], Callable[..., bytes]] = {}
    frames = []
    for index, record in enumerate(records):
        proto = pcap.PROTO_TCP if record.transport == Transport.TCP else pcap.PROTO_UDP
        src, dst = record.src, record.dst
        forward = (src.address, dst.address, src.port, dst.port)
        reverse = (dst.address, src.address, dst.port, src.port)
        encode = encoders.get((forward, proto))
        if encode is None:
            encode = encoders[forward, proto] = pcap.frame_encoder(*forward, proto)
        seq = sequences.setdefault(forward, 10_001)
        frame = encode(record.payload, seq, sequences.get(reverse, 0), index + 1)
        sequences[forward] = seq + len(record.payload)
        frames.append((_CAPTURE_BASE_US + record.timestamp, frame))
    return pcap.write_capture(frames)


def parse_capture_with_notes(
    capture: bytes, config: SessionConfig
) -> tuple[list[PacketRecord], CaptureNotes]:
    """parse_capture plus the diagnostics collected along the way.

    The first frame (matched or not) defines the capture epoch. Identical
    TCP retransmissions (same endpoints, same sequence number, same
    payload) are dropped.
    """
    notes = CaptureNotes()
    records: list[PacketRecord] = []
    # Decoded addresses are canonical text, as the session's are, so a
    # frame's direction is found by comparing plain tuples; no Endpoint is
    # built per frame.
    app, device = config.app, config.device
    request = (app.address, app.port, device.address, device.port)
    response = (device.address, device.port, app.address, app.port)
    epoch: int | None = None
    # Both keyed by a frame's endpoints tuple, which hashes in C.
    seen_tcp: set[tuple[tuple[str, int, str, int], int, bytes]] = set()
    # Highest sequence byte seen so far per direction, to flag captures in
    # which several connections were merged into one record stream.
    seq_high: dict[tuple[str, int, str, int], int] = {}

    for ts_us, frame in pcap.read_frames(capture):
        notes.frames_total += 1
        if epoch is None:
            epoch = ts_us
        segment = pcap.decode_frame(frame)
        if segment is None:
            if pcap.ip_protocol(frame) in (None, pcap.PROTO_TCP, pcap.PROTO_UDP):
                notes.frames_undecodable += 1
            else:
                notes.frames_other_protocol += 1
            continue
        endpoints = (segment.src_addr, segment.src_port, segment.dst_addr, segment.dst_port)
        if endpoints == request:
            src, dst = app, device
        elif endpoints == response:
            src, dst = device, app
        else:
            notes.frames_other_endpoints += 1
            continue
        transport = _TRANSPORT_FOR[segment.protocol]
        if not segment.payload:
            notes.zero_payload_dropped += 1
            continue
        if transport == Transport.TCP:
            key = (endpoints, segment.tcp_seq, segment.payload)
            if key in seen_tcp:
                notes.retransmissions_dropped += 1
                continue
            seen_tcp.add(key)
            end = segment.tcp_seq + len(segment.payload)
            if endpoints in seq_high and segment.tcp_seq < seq_high[endpoints]:
                notes.sequence_regressions += 1
            seq_high[endpoints] = max(seq_high.get(endpoints, 0), end)
        record = PacketRecord(
            timestamp=ts_us - epoch,
            src=src,
            dst=dst,
            transport=transport,
            payload=segment.payload,
        )
        notes.records_matched += 1
        records.append(record)
    records.sort(key=lambda r: r.timestamp)  # stable; upholds ordering invariant
    return records, notes


def parse_capture(capture: bytes, config: SessionConfig) -> list[PacketRecord]:
    """Extract the app/device payload records from a classic pcap capture.

    Returns records in timestamp order with transport payloads intact.
    Raises pcap.PcapError subclasses for malformed or unsupported files.
    """
    records, _ = parse_capture_with_notes(capture, config)
    return records


def segment_flows(records: list[PacketRecord], config: SessionConfig) -> list[Flow]:
    """Split a record list into request-run/response-run flows.

    A new flow begins at every request that follows a response, or whose
    transport differs from the current flow's (or at the first request),
    so every request of a flow rides one transport. Records between other
    endpoints are dropped, as are responses seen before any request. Input
    must already be in timestamp order.
    """
    flows: list[Flow] = []
    requests: list[PacketRecord] = []
    responses: list[PacketRecord] = []
    for record in records:
        if (record.src, record.dst) == (config.app, config.device):
            if responses or (requests and record.transport != requests[0].transport):
                flows.append(Flow(tuple(requests), tuple(responses)))
                requests, responses = [], []
            requests.append(record)
        elif (record.src, record.dst) == (config.device, config.app) and requests:
            responses.append(record)
    if requests:
        flows.append(Flow(tuple(requests), tuple(responses)))
    return flows

