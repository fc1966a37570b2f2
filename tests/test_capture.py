"""Capture parsing, direction classification, and flow segmentation tests."""

import pytest
from hypothesis import given, strategies as st

from replaycheck import pcap
from replaycheck.capture import (
    CaptureNotes,
    Direction,
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
    Transport,
    classify_direction,
    parse_capture,
    parse_capture_with_notes,
    parse_endpoint,
    segment_flows,
)
from replaycheck.pipeline import NoLocalConnectivityError, require_local_traffic
from replaycheck.replay import run_attack
from doubles import ScriptedResponder

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 40000)
CONFIG = SessionConfig(app=APP, device=DEV)


def frame(src, dst, payload, protocol=pcap.PROTO_TCP, seq=0):
    return pcap.encode_frame(
        src.address, dst.address, src.port, dst.port, protocol, payload, tcp_seq=seq
    )


def capture_of(*entries):
    """entries: (ts_us, src, dst, payload[, protocol[, seq]]) tuples."""
    frames = []
    for entry in entries:
        ts, src, dst, payload = entry[:4]
        protocol = entry[4] if len(entry) > 4 else pcap.PROTO_TCP
        seq = entry[5] if len(entry) > 5 else 0
        frames.append((ts, frame(src, dst, payload, protocol, seq)))
    return pcap.write_capture(frames)


def rec(ts, src, dst, payload, transport=Transport.TCP):
    return PacketRecord(ts, src, dst, transport, payload)


class TestEndpoint:
    def test_str_v4(self):
        assert str(Endpoint("10.0.0.1", 80)) == "10.0.0.1:80"

    def test_str_v6_bracketed(self):
        assert str(Endpoint("fd00::1", 80)) == "[fd00::1]:80"

    def test_address_canonicalized(self):
        assert Endpoint("FD00::0001", 1).address == "fd00::1"

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            Endpoint("10.0.0.1", 70000)

    def test_parse_round_trip(self):
        for ep in (Endpoint("192.168.0.9", 8080), Endpoint("fd00::2", 443)):
            assert parse_endpoint(str(ep)) == ep

    def test_parse_rejects_missing_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("10.0.0.1")

    def test_parse_rejects_bad_port(self):
        with pytest.raises(ValueError):
            parse_endpoint("10.0.0.1:http")


class TestSessionConfig:
    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(app=APP, device=APP)


class TestClassifyDirection:
    def test_request(self):
        assert classify_direction(APP, DEV, CONFIG) == Direction.REQUEST

    def test_response(self):
        assert classify_direction(DEV, APP, CONFIG) == Direction.RESPONSE

    def test_unrelated(self):
        other = Endpoint("10.9.9.9", 1)
        assert classify_direction(APP, other, CONFIG) == Direction.UNRELATED


class TestParseCapture:
    def test_epoch_is_first_frame(self):
        data = capture_of(
            (5_000_000, APP, DEV, b"one", pcap.PROTO_TCP, 100),
            (5_000_900, DEV, APP, b"two", pcap.PROTO_TCP, 200),
        )
        records = parse_capture(data, CONFIG)
        assert [r.timestamp for r in records] == [0, 900]

    def test_epoch_set_by_unmatched_first_frame(self):
        other = Endpoint("10.9.9.9", 5)
        data = capture_of(
            (1_000, other, DEV, b"noise", pcap.PROTO_TCP, 1),
            (3_500, APP, DEV, b"real", pcap.PROTO_TCP, 2),
        )
        records = parse_capture(data, CONFIG)
        assert [r.timestamp for r in records] == [2_500]

    def test_unrelated_endpoints_dropped(self):
        other = Endpoint("172.16.0.1", 1234)
        data = capture_of(
            (0, APP, DEV, b"keep", pcap.PROTO_TCP, 1),
            (10, other, DEV, b"drop", pcap.PROTO_TCP, 2),
            (20, APP, other, b"drop", pcap.PROTO_TCP, 3),
        )
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert [r.payload for r in records] == [b"keep"]
        assert notes.frames_skipped == 2

    def test_skipped_frames_counted_by_reason(self):
        icmp = bytearray(frame(APP, DEV, b"ping"))
        icmp[14 + 9] = 1
        arp = b"\x02" * 12 + b"\x08\x06" + b"\x00" * 28
        other = Endpoint("172.16.0.1", 1234)
        data = pcap.write_capture([
            (0, frame(APP, DEV, b"keep", seq=1)),
            (10, arp),
            (20, bytes(icmp)),
            (30, frame(other, DEV, b"drop", seq=2)),
        ])
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert [r.payload for r in records] == [b"keep"]
        assert (
            notes.frames_undecodable,
            notes.frames_other_protocol,
            notes.frames_other_endpoints,
        ) == (1, 1, 1)
        assert notes.frames_skipped == 3
        summary = notes.summary()
        assert "1 undecodable frames" in summary
        assert "1 non-TCP/UDP frames" in summary
        assert "1 frames between other endpoints" in summary

    def test_summary_names_only_reasons_that_occurred(self):
        _, notes = parse_capture_with_notes(capture_of((0, APP, DEV, b"x")), CONFIG)
        assert notes.frames_skipped == 0
        assert "undecodable" not in notes.summary()
        assert "other endpoints" not in notes.summary()

    def test_udp_datagram_and_bare_tcp_ack_yield_one_record(self):
        # a payload-bearing UDP datagram plus a zero-payload TCP segment
        data = capture_of(
            (0, APP, DEV, b"ping", pcap.PROTO_UDP),
            (50, DEV, APP, b"", pcap.PROTO_TCP, 7),
        )
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert len(records) == 1
        assert records[0].transport == Transport.UDP
        assert records[0].payload == b"ping"
        assert notes.zero_payload_dropped == 1

    def test_identical_tcp_retransmission_dropped(self):
        data = capture_of(
            (0, APP, DEV, b"cmd", pcap.PROTO_TCP, 300),
            (900, APP, DEV, b"cmd", pcap.PROTO_TCP, 300),
            (1800, APP, DEV, b"cmd", pcap.PROTO_TCP, 303),
        )
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert len(records) == 2
        assert notes.retransmissions_dropped == 1

    def test_udp_duplicates_kept(self):
        data = capture_of(
            (0, APP, DEV, b"dup", pcap.PROTO_UDP),
            (10, APP, DEV, b"dup", pcap.PROTO_UDP),
        )
        assert len(parse_capture(data, CONFIG)) == 2

    def test_sequence_regression_counted(self):
        # two connections merged: second starts over at a lower seq
        data = capture_of(
            (0, APP, DEV, b"first", pcap.PROTO_TCP, 9000),
            (100, APP, DEV, b"again", pcap.PROTO_TCP, 100),
        )
        _, notes = parse_capture_with_notes(data, CONFIG)
        assert notes.sequence_regressions == 1
        assert "regressions" in notes.summary()

    def test_records_sorted_by_timestamp(self):
        data = capture_of(
            (2_000, APP, DEV, b"late", pcap.PROTO_TCP, 50),
            (1_000, APP, DEV, b"early", pcap.PROTO_TCP, 10),
        )
        records = parse_capture(data, CONFIG)
        assert [r.payload for r in records] == [b"early", b"late"]

    def test_empty_capture_fails_connectivity(self):
        data = pcap.write_capture([])
        records = parse_capture(data, CONFIG)
        assert records == []
        with pytest.raises(NoLocalConnectivityError):
            require_local_traffic(records, CONFIG)

    def test_connectivity_with_any_record(self):
        require_local_traffic([rec(0, APP, DEV, b"x")], CONFIG)

    def test_notes_summary_counts_frames(self):
        data = capture_of((0, APP, DEV, b"x", pcap.PROTO_TCP, 1))
        _, notes = parse_capture_with_notes(data, CONFIG)
        assert notes.frames_total == 1
        assert "1 frames" in notes.summary()
        assert "1 matched" in notes.summary()


class TestSegmentFlows:
    def flows_of(self, *directed):
        """directed: (direction_char, payload) with 'q' request / 'r' response."""
        records = []
        for i, (d, payload) in enumerate(directed):
            src, dst = (APP, DEV) if d == "q" else (DEV, APP)
            records.append(rec(i * 1000, src, dst, payload))
        return segment_flows(records, CONFIG)

    def test_leading_response_dropped_single_flow(self):
        # response X, request A, response B turns into the one flow {A | B}
        flows = self.flows_of(("r", b"X"), ("q", b"A"), ("r", b"B"))
        assert len(flows) == 1
        assert [r.payload for r in flows[0].requests] == [b"A"]
        assert [r.payload for r in flows[0].responses] == [b"B"]

    def test_three_flow_pattern(self):
        # {A1 | A2}, {B1 | B2, B3}, {C1, C2 | C3}
        flows = self.flows_of(
            ("q", b"A1"), ("r", b"A2"),
            ("q", b"B1"), ("r", b"B2"), ("r", b"B3"),
            ("q", b"C1"), ("q", b"C2"), ("r", b"C3"),
        )
        shape = [
            ([r.payload for r in f.requests], [r.payload for r in f.responses])
            for f in flows
        ]
        assert shape == [
            ([b"A1"], [b"A2"]),
            ([b"B1"], [b"B2", b"B3"]),
            ([b"C1", b"C2"], [b"C3"]),
        ]

    def test_transport_change_starts_a_new_flow(self, fast_settings):
        # {T1 | } {U1 | u1} {U2 | } {T2 | t2}: U1 and T2 follow a request
        # on the other transport, U2 follows a response
        tcp, udp = Transport.TCP, Transport.UDP
        records = [
            rec(0, APP, DEV, b"T1", tcp),
            rec(1, APP, DEV, b"U1", udp),
            rec(2, DEV, APP, b"u1", udp),
            rec(3, APP, DEV, b"U2", udp),
            rec(4, APP, DEV, b"T2", tcp),
            rec(5, DEV, APP, b"t2", tcp),
        ]
        flows = segment_flows(records, CONFIG)
        shape = [
            ([r.payload for r in f.requests], [r.payload for r in f.responses])
            for f in flows
        ]
        assert shape == [([b"T1"], []), ([b"U1"], [b"u1"]), ([b"U2"], []), ([b"T2"], [b"t2"])]
        assert [{r.transport for r in f.requests} for f in flows] == [{tcp}, {udp}, {udp}, {tcp}]

        # TCP picks the port: a UDP-chosen one can still be held over TCP by an
        # earlier test's connection in TIME_WAIT.
        with ScriptedResponder({b"T2": [b"t2"]}, transport=tcp) as over_tcp:
            port = over_tcp.endpoint.port
            with ScriptedResponder({b"U1": [b"u1"]}, transport=udp, port=port) as over_udp:
                result = run_attack(flows, over_udp.endpoint, fast_settings.replay_config())
        assert over_udp.received == [b"U2", b"U1"]
        assert b"".join(over_tcp.received) == b"T2T1"
        assert [r.transport for r in result.flows] == [tcp, udp, udp, tcp]
        assert sorted(result.queue.payloads()) == [b"t2", b"u1"]

    def test_trailing_unanswered_request_kept(self):
        flows = self.flows_of(("q", b"A"), ("r", b"B"), ("q", b"C"))
        assert len(flows) == 2
        assert flows[1].responses == ()

    def test_empty_records_no_flows(self):
        assert segment_flows([], CONFIG) == []

    def test_responses_only_no_flows(self):
        assert self.flows_of(("r", b"a"), ("r", b"b")) == []

    def test_flow_requires_requests(self):
        with pytest.raises(ValueError):
            Flow(requests=(), responses=())

    @given(
        st.lists(st.sampled_from(["q", "r"]), max_size=40),
    )
    def test_flows_partition_directed_records(self, dirs):
        """Every kept record lands in exactly one flow, order preserved."""
        records = []
        for i, d in enumerate(dirs):
            src, dst = (APP, DEV) if d == "q" else (DEV, APP)
            records.append(rec(i, src, dst, b"p%d" % i))
        flows = segment_flows(records, CONFIG)

        flattened = []
        for flow in flows:
            flattened.extend(flow.requests)
            flattened.extend(flow.responses)

        # records before the first request have no flow to join
        first_q = dirs.index("q") if "q" in dirs else len(dirs)
        expected = records[first_q:]
        assert flattened == expected
        for flow in flows:
            assert flow.requests
            times = [r.timestamp for r in flow.requests + flow.responses]
            assert times == sorted(times)


def reference_parse(capture, config):
    """parse_capture_with_notes as written when every frame built its two
    Endpoints through ipaddress and classify_direction compared them."""
    notes = CaptureNotes()
    records, seen_tcp, seq_high, epoch = [], set(), {}, None
    for ts_us, data in pcap.read_frames(capture):
        notes.frames_total += 1
        epoch = ts_us if epoch is None else epoch
        segment = pcap.decode_frame(data)
        if segment is None:
            if pcap.ip_protocol(data) in (None, pcap.PROTO_TCP, pcap.PROTO_UDP):
                notes.frames_undecodable += 1
            else:
                notes.frames_other_protocol += 1
            continue
        src = Endpoint(segment.src_addr, segment.src_port)
        dst = Endpoint(segment.dst_addr, segment.dst_port)
        if classify_direction(src, dst, config) == Direction.UNRELATED:
            notes.frames_other_endpoints += 1
            continue
        if not segment.payload:
            notes.zero_payload_dropped += 1
            continue
        if segment.protocol == pcap.PROTO_TCP:
            key = (src, dst, segment.tcp_seq, segment.payload)
            if key in seen_tcp:
                notes.retransmissions_dropped += 1
                continue
            seen_tcp.add(key)
            if (src, dst) in seq_high and segment.tcp_seq < seq_high[(src, dst)]:
                notes.sequence_regressions += 1
            end = segment.tcp_seq + len(segment.payload)
            seq_high[(src, dst)] = max(seq_high.get((src, dst), 0), end)
        transport = Transport.TCP if segment.protocol == pcap.PROTO_TCP else Transport.UDP
        records.append(PacketRecord(ts_us - epoch, src, dst, transport, segment.payload))
        notes.records_matched += 1
    records.sort(key=lambda r: r.timestamp)
    return records, notes


# Sessions given in non-canonical text too; frames draw their hosts from
# the session's addresses and one other, per family.
SESSIONS = [
    SessionConfig(Endpoint("10.77.0.2", 38200), Endpoint("127.0.0.1", 40000)),
    SessionConfig(Endpoint("FD00:0::2", 38200), Endpoint("fd00:0:0::1", 40000)),
]
HOSTS = [("10.77.0.2", "127.0.0.1", "10.77.0.3"), ("fd00::2", "fd00::1", "fd00::3")]
PORTS = (38200, 40000, 5)


@st.composite
def mixed_captures(draw):
    """A session and a capture of its frames both ways among other hosts'
    frames, swapped ports, IPv4 and IPv6, repeated TCP sequence numbers,
    empty payloads and frames that do not decode."""
    session = draw(st.sampled_from(SESSIONS))
    frames = []
    for _ in range(draw(st.integers(0, 16))):
        shape = draw(st.sampled_from(["request", "response", "other", "other", "icmp", "cut"]))
        if shape == "request":
            src, dst = session.app, session.device
        elif shape == "response":
            src, dst = session.device, session.app
        else:
            hosts = draw(st.sampled_from(HOSTS))
            src, dst = (
                Endpoint(draw(st.sampled_from(hosts)), draw(st.sampled_from(PORTS))) for _ in range(2)
            )
        protocol = draw(st.sampled_from([pcap.PROTO_TCP, pcap.PROTO_UDP]))
        payload = draw(st.sampled_from([b"", b"a", b"ab", b"\x00\xff\x10"]))
        data = frame(src, dst, payload, protocol, draw(st.integers(0, 6)))
        if shape == "icmp":
            data = bytearray(data)
            data[14 + (9 if ":" not in src.address else 6)] = 1
            data = bytes(data)
        elif shape == "cut":
            data = data[: draw(st.integers(0, len(data) - 1))]
        frames.append((draw(st.integers(0, 10**6)), data))
    return session, pcap.write_capture(frames)


class TestParseDifferential:
    @given(mixed_captures())
    def test_same_records_and_notes_as_the_endpoint_reference(self, drawn):
        session, capture = drawn
        assert parse_capture_with_notes(capture, session) == reference_parse(capture, session)


class TestPacketRecord:
    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            rec(0, APP, DEV, b"")
