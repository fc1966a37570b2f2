"""Classic-pcap reader/writer and Ethernet/IP/transport codec tests."""

import struct

import pytest
from hypothesis import given, strategies as st

from oracles import internet_checksum, reference_frame
from replaycheck import pcap


def make_header(magic=pcap.PCAP_MAGIC, linktype=pcap.LINKTYPE_ETHERNET, endian="<"):
    return struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)


def make_record(ts_sec, ts_usec, frame, endian="<"):
    return struct.pack(endian + "IIII", ts_sec, ts_usec, len(frame), len(frame)) + frame


def tcp_frame(payload=b"hello", src="10.0.0.1", dst="10.0.0.2", sport=5000, dport=80, seq=1):
    return pcap.encode_frame(src, dst, sport, dport, pcap.PROTO_TCP, payload, tcp_seq=seq)


class TestReadFrames:
    def test_header_only_capture_yields_nothing(self):
        assert list(pcap.read_frames(make_header())) == []

    def test_little_endian_frames(self):
        frame = tcp_frame()
        data = make_header() + make_record(10, 250, frame)
        assert list(pcap.read_frames(data)) == [(10_000_250, frame)]

    def test_byte_swapped_capture(self):
        frame = tcp_frame()
        data = make_header(endian=">") + make_record(3, 7, frame, endian=">")
        assert list(pcap.read_frames(data)) == [(3_000_007, frame)]

    def test_nanosecond_magic_rejected(self):
        data = make_header(magic=pcap.PCAP_MAGIC_NANO)
        with pytest.raises(pcap.PcapFormatError, match="nanosecond"):
            list(pcap.read_frames(data))

    def test_garbage_magic_rejected_with_offset(self):
        with pytest.raises(pcap.PcapFormatError, match="offset 0"):
            list(pcap.read_frames(b"\x00" * 24))

    def test_unsupported_link_type(self):
        data = make_header(linktype=105)  # 802.11
        with pytest.raises(pcap.UnsupportedLinkTypeError):
            list(pcap.read_frames(data))

    def test_truncated_global_header(self):
        with pytest.raises(pcap.PcapFormatError):
            list(pcap.read_frames(make_header()[:20]))

    def test_truncated_record_header_names_offset(self):
        data = make_header() + b"\x01\x02\x03"
        with pytest.raises(pcap.PcapFormatError, match="offset 24"):
            list(pcap.read_frames(data))

    def test_truncated_frame_body(self):
        frame = tcp_frame()
        record = make_record(0, 0, frame)
        with pytest.raises(pcap.PcapFormatError):
            list(pcap.read_frames(make_header() + record[:-5]))

    def test_microseconds_field_out_of_range(self):
        data = make_header() + make_record(0, 1_000_000, tcp_frame())
        with pytest.raises(pcap.PcapFormatError):
            list(pcap.read_frames(data))

    def test_write_then_read_round_trip(self):
        frames = [(1_000_000, tcp_frame(b"a")), (2_500_000, tcp_frame(b"bb", seq=2))]
        assert list(pcap.read_frames(pcap.write_capture(frames))) == frames


class TestDecodeFrame:
    def test_tcp_ipv4_round_trip(self):
        payload = b"\x00\x01binary\xff"
        frame = pcap.encode_frame(
            "192.168.1.10", "192.168.1.20", 4321, 8888, pcap.PROTO_TCP, payload,
            tcp_seq=777,
        )
        seg = pcap.decode_frame(frame)
        assert seg is not None
        assert (seg.src_addr, seg.dst_addr) == ("192.168.1.10", "192.168.1.20")
        assert (seg.src_port, seg.dst_port) == (4321, 8888)
        assert seg.protocol == pcap.PROTO_TCP
        assert seg.payload == payload
        assert seg.tcp_seq == 777

    def test_udp_ipv4_round_trip(self):
        frame = pcap.encode_frame(
            "10.0.0.1", "10.0.0.2", 9999, 5353, pcap.PROTO_UDP, b"datagram"
        )
        seg = pcap.decode_frame(frame)
        assert seg.payload == b"datagram"
        assert seg.protocol == pcap.PROTO_UDP
        assert seg.tcp_seq is None

    def test_tcp_ipv6_round_trip(self):
        frame = pcap.encode_frame(
            "fd00::1", "fd00::2", 1234, 80, pcap.PROTO_TCP, b"six", tcp_seq=5
        )
        seg = pcap.decode_frame(frame)
        assert (seg.src_addr, seg.dst_addr) == ("fd00::1", "fd00::2")
        assert seg.payload == b"six"

    def test_zero_payload_decodes_to_empty(self):
        frame = pcap.encode_frame("10.0.0.1", "10.0.0.2", 1, 2, pcap.PROTO_TCP, b"")
        assert pcap.decode_frame(frame).payload == b""

    def test_non_ip_ethertype_skipped(self):
        frame = b"\x02" * 12 + b"\x08\x06" + b"\x00" * 28  # ARP
        assert pcap.decode_frame(frame) is None

    def test_ipv4_fragment_skipped(self):
        frame = bytearray(tcp_frame())
        # set more-fragments flag in the IPv4 header
        frame[14 + 6] = 0x20
        assert pcap.decode_frame(bytes(frame)) is None

    def test_ipv4_options_respected(self):
        base = tcp_frame(b"opt")
        ip = bytearray(base[14:])
        transport = ip[20:]
        ip_with_opts = bytearray(ip[:20]) + b"\x01\x01\x01\x01" + transport
        ip_with_opts[0] = 0x46  # IHL 6
        struct.pack_into(">H", ip_with_opts, 2, len(ip_with_opts))
        seg = pcap.decode_frame(bytes(base[:14]) + bytes(ip_with_opts))
        assert seg is not None
        assert seg.payload == b"opt"

    def test_snap_truncated_frame_skipped(self):
        frame = tcp_frame(b"full payload")
        assert pcap.decode_frame(frame[:40]) is None

    def test_other_ip_protocol_skipped(self):
        frame = bytearray(tcp_frame())
        frame[14 + 9] = 1  # ICMP
        assert pcap.decode_frame(bytes(frame)) is None

    def test_ip_protocol_names_the_transport_of_a_decodable_ip_layer(self):
        icmp = bytearray(tcp_frame())
        icmp[14 + 9] = 1
        fragment = bytearray(tcp_frame())
        fragment[14 + 6] = 0x20
        v6 = pcap.encode_frame("fd00::1", "fd00::2", 1, 2, pcap.PROTO_UDP, b"x")
        v6_extension = bytearray(v6)
        v6_extension[14 + 6] = 44  # fragment header
        assert pcap.ip_protocol(tcp_frame()) == pcap.PROTO_TCP
        assert pcap.ip_protocol(v6) == pcap.PROTO_UDP
        assert pcap.ip_protocol(bytes(icmp)) == 1
        assert pcap.ip_protocol(bytes(fragment)) is None
        assert pcap.ip_protocol(bytes(v6_extension)) is None
        assert pcap.decode_frame(bytes(v6_extension)) is None
        assert pcap.ip_protocol(b"\x02" * 12 + b"\x08\x06" + b"\x00" * 28) is None


class TestChecksums:
    def ones_complement_sum(self, data):
        if len(data) % 2:
            data += b"\x00"
        total = sum(struct.unpack(f">{len(data) // 2}H", data))
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        return total

    def test_ipv4_header_checksum_valid(self):
        frame = tcp_frame()
        assert self.ones_complement_sum(frame[14:34]) == 0xFFFF

    def test_tcp_checksum_valid_over_pseudo_header(self):
        frame = tcp_frame(b"checkme")
        ip = frame[14:34]
        transport = frame[34:]
        pseudo = ip[12:16] + ip[16:20] + struct.pack(">BBH", 0, 6, len(transport))
        assert self.ones_complement_sum(pseudo + transport) == 0xFFFF

    def test_udp_checksum_valid(self):
        frame = pcap.encode_frame("10.1.1.1", "10.1.1.2", 53, 53, pcap.PROTO_UDP, b"q")
        ip = frame[14:34]
        transport = frame[34:]
        pseudo = ip[12:16] + ip[16:20] + struct.pack(">BBH", 0, 17, len(transport))
        assert self.ones_complement_sum(pseudo + transport) == 0xFFFF

    def folded_checksum(self, data):
        """The encoder's checksum of data: the fold of its big-endian
        integer, an odd last byte padded to a whole word."""
        return pcap._complement_fold(int.from_bytes(data + b"\x00" * (len(data) % 2), "big"))

    @given(st.binary(max_size=600))
    def test_checksum_matches_the_word_by_word_reference(self, data):
        assert self.folded_checksum(data) == internet_checksum(data)

    @given(st.binary(max_size=600).map(lambda data: data[: len(data) // 2 * 2]))
    def test_appending_the_checksum_sums_to_zero(self, data):
        # The sum then is a nonzero multiple of 0xFFFF, or zero words only.
        with_checksum = data + struct.pack(">H", self.folded_checksum(data))
        assert self.folded_checksum(with_checksum) == internet_checksum(with_checksum) == 0

    @pytest.mark.parametrize(
        "data, expected",
        [
            (b"", 0xFFFF),
            (b"\x00" * 6, 0xFFFF),
            (b"\x01", 0xFEFF),  # odd length: padded to the word 0x0100
            (b"\x12\x34\x56", 0x97CB),
            (b"\xff\xff", 0x0000),
            (b"\xff" * 7, 0x00FF),
            (b"\x80\x00\x7f\xff", 0x0000),  # words sum to 0xFFFF
            (b"\xff\xfe\xff\xfe\x00\x02", 0x0000),  # words sum to 2 * 0xFFFF
            (b"\x00\x01\xff\xff", 0xFFFE),  # 0x10000 folds to 1
        ],
        ids=["empty", "zero-words", "odd-length", "odd-length-3", "all-ff", "all-ff-odd",
             "sum-0xffff", "sum-2x0xffff", "carry"],
    )
    def test_checksum_edge_cases(self, data, expected):
        assert internet_checksum(data) == expected
        assert self.folded_checksum(data) == expected


def one_bit_past(width):
    """Integers below 2**(width + 1), half of them past the field width."""
    return st.tuples(st.booleans(), st.integers(0, 2**width - 1)).map(
        lambda drawn: drawn[0] << width | drawn[1]
    )


@st.composite
def frame_fields(draw):
    """encode_frame's arguments: either family, either transport, sequence
    numbers and IP ids up to one bit past their field widths."""
    address = st.ip_addresses(v=draw(st.sampled_from([4, 6]))).map(str)
    return (
        draw(address),
        draw(address),
        draw(st.integers(0, 65535)),
        draw(st.integers(0, 65535)),
        draw(st.sampled_from([pcap.PROTO_TCP, pcap.PROTO_UDP])),
        draw(st.binary(max_size=600)),
        draw(one_bit_past(32)),
        draw(one_bit_past(32)),
        draw(one_bit_past(16)),
    )


class TestEncodeFrame:
    @given(frame_fields(), st.binary(max_size=600))
    def test_equals_the_word_by_word_reference(self, fields, later_payload):
        assert pcap.encode_frame(*fields) == reference_frame(*fields)
        # An encoder builds every frame of its direction alike.
        encode = pcap.frame_encoder(*fields[:5])
        assert encode(*fields[5:]) == reference_frame(*fields)
        later = fields[:5] + (later_payload,) + fields[6:]
        assert encode(*later[5:]) == reference_frame(*later)

    @pytest.mark.parametrize("src, dst", [("10.1.1.1", "10.1.1.2"), ("fd00::1", "fd00::2")])
    def test_a_udp_checksum_of_zero_is_sent_as_all_ones(self, src, dst):
        # A zero word as payload gets the field c; the payload word c then
        # brings the sum to a multiple of 0xFFFF, whose checksum is 0.
        zero = pcap.encode_frame(src, dst, 53, 53, pcap.PROTO_UDP, b"\x00\x00")
        payload = zero[-4:-2]
        frame = pcap.encode_frame(src, dst, 53, 53, pcap.PROTO_UDP, payload)
        assert frame[-4:-2] == b"\xff\xff"
        assert frame == reference_frame(src, dst, 53, 53, pcap.PROTO_UDP, payload, 0, 0, 0)

    @pytest.mark.parametrize(
        "endpoints, protocol, message",
        [
            (("10.0.0.1", "fd00::1"), pcap.PROTO_TCP, "mixed IPv4/IPv6"),
            (("10.0.0.1", "10.0.0.2"), 1, "unsupported transport protocol 1"),
        ],
        ids=["mixed-families", "icmp"],
    )
    def test_rejects(self, endpoints, protocol, message):
        with pytest.raises(ValueError, match=message):
            pcap.encode_frame(*endpoints, 1, 2, protocol, b"x")
        with pytest.raises(ValueError, match=message):
            pcap.frame_encoder(*endpoints, 1, 2, protocol)


# A well-formed frame of each family and transport, to damage.
SAMPLE_FRAMES = [
    tcp_frame(),
    pcap.encode_frame("10.1.1.1", "10.1.1.2", 53, 53, pcap.PROTO_UDP, b"q"),
    pcap.encode_frame("fd00::1", "fd00::2", 1, 2, pcap.PROTO_TCP, b"v6 payload", tcp_seq=9),
    pcap.encode_frame("fd00::1", "fd00::2", 1, 2, pcap.PROTO_UDP, b"x"),
]


@st.composite
def damaged_frames(draw):
    """A sample frame with a few bytes overwritten, then cut short."""
    frame = bytearray(draw(st.sampled_from(SAMPLE_FRAMES)))
    for _ in range(draw(st.integers(0, 4))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    return bytes(frame[: draw(st.integers(0, len(frame)))])


class TestFuzz:
    @given(
        st.binary(max_size=200)
        | st.binary(max_size=200).map(lambda tail: make_header() + tail)
        | st.binary(max_size=200).map(lambda tail: make_header(endian=">") + tail)
    )
    def test_read_frames_raises_only_pcap_errors(self, data):
        try:
            for timestamp, frame in pcap.read_frames(data):
                assert timestamp >= 0 and isinstance(frame, bytes)
        except pcap.PcapError:
            pass

    @given(st.binary(max_size=120) | damaged_frames())
    def test_frame_decoders_never_raise(self, frame):
        segment = pcap.decode_frame(frame)
        protocol = pcap.ip_protocol(frame)
        assert protocol is None or isinstance(protocol, int)
        if segment is not None:
            assert isinstance(segment, pcap.DecodedSegment)
            assert protocol == segment.protocol
