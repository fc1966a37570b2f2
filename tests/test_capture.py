"""Capture parsing and writing, endpoint matching, and flow segmentation tests."""

import hashlib
import struct
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from replaycheck import pcap
from replaycheck.capture import (
    CaptureNotes,
    Endpoint,
    Flow,
    PacketRecord,
    SessionConfig,
    Transport,
    parse_capture,
    parse_capture_with_notes,
    parse_endpoint,
    records_to_capture,
    response_units,
    segment_flows,
)
from replaycheck.pipeline import NoLocalConnectivityError, require_local_traffic
from replaycheck.replay import run_attack
from replaycheck.simdevices import DEFAULT_APP_ENDPOINT, Behavior, DeviceState, trigger_state
from doubles import ScriptedResponder

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 40000)
CONFIG = SessionConfig(app=APP, device=DEV)
# Each record kind segment_flows tells apart, by (src, dst): a request, a
# response, and three between other endpoints (another host, the device's
# address on another port, the app to itself).
DIRECTED = {
    "q": (APP, DEV),
    "r": (DEV, APP),
    "x": (APP, Endpoint("10.9.9.9", 1)),
    "y": (Endpoint(DEV.address, DEV.port + 1), APP),
    "z": (APP, APP),
}


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


def patched(data, offset, fmt, value):
    """data with value packed at offset."""
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def cut_transport(data, length):
    """An IPv4 frame cut so that its packet carries length transport bytes."""
    return patched(data[: 14 + 20 + length], 14 + 2, ">H", 20 + length)


_TCP_FRAME = frame(APP, DEV, b"lost", seq=9)
_UDP_FRAME = frame(APP, DEV, b"lost", pcap.PROTO_UDP)
_UDP_LENGTH_AT = 14 + 20 + 4
# Frames whose IPv4, TCP or UDP header does not decode, by what is wrong.
UNDECODABLE = {
    "ip_version_6_under_the_ipv4_ethertype": patched(_TCP_FRAME, 14, ">B", 0x65),
    "ihl_below_5": patched(_TCP_FRAME, 14, ">B", 0x44),
    "tcp_header_under_20_bytes": cut_transport(_TCP_FRAME, 19),
    "udp_header_under_8_bytes": cut_transport(_UDP_FRAME, 7),
    "udp_length_under_8": patched(_UDP_FRAME, _UDP_LENGTH_AT, ">H", 7),
    "udp_length_past_the_segment": patched(_UDP_FRAME, _UDP_LENGTH_AT, ">H", 8 + len(b"lost") + 1),
}


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
        assert (
            notes.frames_undecodable,
            notes.frames_other_protocol,
            notes.frames_other_endpoints,
        ) == (0, 0, 2)

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
        summary = notes.summary()
        assert "1 undecodable frames" in summary
        assert "1 non-TCP/UDP frames" in summary
        assert "1 frames between other endpoints" in summary

    @pytest.mark.parametrize("damaged", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_a_frame_whose_headers_do_not_decode_is_counted_undecodable(self, damaged):
        assert pcap.decode_frame(damaged) is None
        data = pcap.write_capture([(0, frame(APP, DEV, b"keep", seq=1)), (10, damaged)])
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert [r.payload for r in records] == [b"keep"]
        assert (notes.frames_undecodable, notes.frames_other_protocol) == (1, 0)

    def test_summary_names_only_reasons_that_occurred(self):
        _, notes = parse_capture_with_notes(capture_of((0, APP, DEV, b"x")), CONFIG)
        assert (
            notes.frames_undecodable,
            notes.frames_other_protocol,
            notes.frames_other_endpoints,
        ) == (0, 0, 0)
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
        assert "1 empty-payload segments dropped" in notes.summary()

    def test_identical_tcp_retransmission_dropped(self):
        data = capture_of(
            (0, APP, DEV, b"cmd", pcap.PROTO_TCP, 300),
            (900, APP, DEV, b"cmd", pcap.PROTO_TCP, 300),
            (1800, APP, DEV, b"cmd", pcap.PROTO_TCP, 303),
        )
        records, notes = parse_capture_with_notes(data, CONFIG)
        assert len(records) == 2
        assert notes.retransmissions_dropped == 1
        assert "1 retransmissions dropped" in notes.summary()

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
        """directed: (kind, payload) with kind a key of DIRECTED."""
        records = [rec(i * 1000, *DIRECTED[d], payload) for i, (d, payload) in enumerate(directed)]
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
                result = run_attack(flows, over_udp.endpoint, fast_settings)
        assert over_udp.received == [b"U2", b"U1"]
        assert b"".join(over_tcp.received) == b"T2T1"
        assert [r.flow.requests[0].transport for r in result.flows] == [tcp, udp, udp, tcp]
        assert sorted(e.payload for e in result.queue.entries) == [b"t2", b"u1"]

    def test_records_between_other_endpoints_dropped(self):
        # {A | B}: no other-endpoint record joins a flow, ends one or starts one
        flows = self.flows_of(
            ("x", b"X1"), ("q", b"A"), ("y", b"Y1"), ("z", b"Z1"), ("r", b"B"), ("x", b"X2")
        )
        assert [([r.payload for r in f.requests], [r.payload for r in f.responses]) for f in flows] == [
            ([b"A"], [b"B"])
        ]

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
        st.lists(st.sampled_from(sorted(DIRECTED)), max_size=40),
    )
    def test_flows_partition_directed_records(self, dirs):
        """Every kept record lands in exactly one flow, order preserved;
        records between other endpoints land in none."""
        records = [rec(i, *DIRECTED[d], b"p%d" % i) for i, d in enumerate(dirs)]
        flows = segment_flows(records, CONFIG)

        flattened = []
        for flow in flows:
            flattened.extend(flow.requests)
            flattened.extend(flow.responses)

        # records before the first request have no flow to join
        first_q = dirs.index("q") if "q" in dirs else len(dirs)
        expected = [r for r, d in zip(records[first_q:], dirs[first_q:]) if d in "qr"]
        assert flattened == expected
        for flow in flows:
            assert flow.requests
            times = [r.timestamp for r in flow.requests + flow.responses]
            assert times == sorted(times)


class TestResponseUnits:
    """One response is a TCP flow's whole response run, or one UDP datagram."""

    arrivals = st.lists(
        st.tuples(st.integers(min_value=0), st.binary(min_size=1, max_size=8)), max_size=6
    ).map(lambda pairs: sorted(pairs, key=lambda pair: pair[0]))

    @given(arrivals.filter(bool))
    def test_a_tcp_run_is_one_unit_stamped_at_its_first_arrival(self, arrivals):
        joined = b"".join(payload for _, payload in arrivals)
        assert response_units(Transport.TCP, arrivals) == [(arrivals[0][0], joined)]

    @given(arrivals)
    def test_each_udp_datagram_is_one_unit(self, arrivals):
        assert response_units(Transport.UDP, arrivals) == arrivals

    @pytest.mark.parametrize("transport", list(Transport))
    def test_no_arrivals_are_no_units(self, transport):
        assert response_units(transport, []) == []

    def test_a_flow_cuts_its_captured_responses_by_its_transport(self):
        for transport, count in [(Transport.TCP, 1), (Transport.UDP, 2)]:
            answers = [rec(2, DEV, APP, b"OK a\n", transport), rec(3, DEV, APP, b"ST a\n", transport)]
            flow = Flow((rec(1, APP, DEV, b"SET a\n", transport),), tuple(answers))
            assert len(flow.response_units()) == count
            assert b"".join(payload for _, payload in flow.response_units()) == b"OK a\nST a\n"


def reference_parse(capture, config):
    """parse_capture_with_notes as written when every frame built its two
    Endpoints through ipaddress and compared them with the session's."""
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
        if (src, dst) not in ((config.app, config.device), (config.device, config.app)):
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


# A v4 and a v6 session; the written records use both directions and both
# transports, and draw from few payloads, so equal payloads repeat and
# interleave.
WRITTEN_SESSIONS = [
    CONFIG,
    SessionConfig(Endpoint("fd00::2", 38201), Endpoint("2001:db8::7", 5683)),
]


@st.composite
def written_sessions(draw):
    session = draw(st.sampled_from(WRITTEN_SESSIONS))
    directions = [(session.app, session.device), (session.device, session.app)]
    records, ts = [], draw(st.integers(0, 10**9))
    for _ in range(draw(st.integers(0, 16))):
        ts += draw(st.integers(0, 5_000))
        src, dst = draw(st.sampled_from(directions))
        payload = draw(st.sampled_from([b"a", b"ab", b"\x00" * 40]))
        records.append(rec(ts, src, dst, payload, draw(st.sampled_from(list(Transport)))))
    return session, records


class TestWriteThenParse:
    @given(written_sessions())
    def test_parse_gives_back_the_written_records(self, drawn):
        """Same payloads, endpoints and transports in order, timestamps
        shifted by the first record's, and every frame matched."""
        session, records = drawn
        parsed, notes = parse_capture_with_notes(records_to_capture(records), session)
        base = records[0].timestamp if records else 0
        assert parsed == [replace(r, timestamp=r.timestamp - base) for r in records]
        assert notes == CaptureNotes(frames_total=len(records), records_matched=len(records))
