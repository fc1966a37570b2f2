"""Classic pcap I/O and Ethernet/IP/TCP/UDP frame codecs.

Only the original libpcap container is supported: 24-byte global header,
magic 0xa1b2c3d4 (either byte order), microsecond timestamps, link type 1
(Ethernet). pcapng, nanosecond captures, and exotic link layers are
rejected with explicit errors rather than skipped, because a silently
half-read capture would poison everything trained on it.

The frame codec is intentionally narrow: Ethernet II carrying IPv4 or the
fixed IPv6 header, then TCP or UDP. Fragments, IPv6 extension chains, and
truncated snapshots are reported to the caller as skips, not errors.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO, Callable, Iterator

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_NANO = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERNET_HEADER_LEN = 14

PROTO_TCP = 6
PROTO_UDP = 17


class PcapError(ValueError):
    """Base class for malformed or unsupported capture input."""


class PcapFormatError(PcapError):
    """Structurally invalid pcap data; the message names the byte offset."""


class UnsupportedLinkTypeError(PcapError):
    """Well-formed pcap whose link layer this reader does not decode."""


def _as_bytes(capture: bytes | BinaryIO) -> bytes:
    if isinstance(capture, (bytes, bytearray, memoryview)):
        return bytes(capture)
    return capture.read()


def read_frames(capture: bytes | BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Yield (timestamp_us, frame_bytes) for every record in a classic pcap.

    timestamp_us is absolute (seconds*1e6 + micros as written). Raises
    PcapFormatError on truncated or unrecognized structure and
    UnsupportedLinkTypeError for link types other than Ethernet.
    """
    data = _as_bytes(capture)
    if len(data) < GLOBAL_HEADER_LEN:
        raise PcapFormatError(
            f"truncated global header at offset 0: need {GLOBAL_HEADER_LEN} bytes, "
            f"have {len(data)}"
        )
    magic_le = struct.unpack_from("<I", data, 0)[0]
    if magic_le == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack_from(">I", data, 0)[0] == PCAP_MAGIC:
        endian = ">"
    elif magic_le == PCAP_MAGIC_NANO or struct.unpack_from(">I", data, 0)[0] == PCAP_MAGIC_NANO:
        raise PcapFormatError(
            "nanosecond-resolution pcap magic at offset 0; only the classic "
            "microsecond format is supported"
        )
    else:
        raise PcapFormatError(f"bad pcap magic 0x{magic_le:08x} at offset 0")

    _magic, _vmaj, _vmin, _zone, _sigfigs, _snaplen, network = struct.unpack_from(
        endian + "IHHiIII", data, 0
    )
    if network != LINKTYPE_ETHERNET:
        raise UnsupportedLinkTypeError(
            f"unsupported link type {network}; only Ethernet (1) is handled"
        )

    offset = GLOBAL_HEADER_LEN
    while offset < len(data):
        if len(data) - offset < RECORD_HEADER_LEN:
            raise PcapFormatError(
                f"truncated record header at offset {offset}: need "
                f"{RECORD_HEADER_LEN} bytes, have {len(data) - offset}"
            )
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack_from(
            endian + "IIII", data, offset
        )
        body_start = offset + RECORD_HEADER_LEN
        if len(data) - body_start < incl_len:
            raise PcapFormatError(
                f"truncated record body at offset {body_start}: header claims "
                f"{incl_len} bytes, have {len(data) - body_start}"
            )
        if ts_usec >= 1_000_000:
            raise PcapFormatError(
                f"invalid microsecond field {ts_usec} at offset {offset}"
            )
        # Snap-length-truncated frames are passed through as-is; the segment
        # decoder notices the short IP length and reports them as skips.
        yield ts_sec * 1_000_000 + ts_usec, data[body_start : body_start + incl_len]
        offset = body_start + incl_len


def write_capture(frames: list[tuple[int, bytes]]) -> bytes:
    """Serialize (timestamp_us, frame) pairs into a classic pcap byte string."""
    out = bytearray()
    out += struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
    for ts_us, frame in frames:
        out += struct.pack(
            "<IIII", ts_us // 1_000_000, ts_us % 1_000_000, len(frame), len(frame)
        )
        out += frame
    return bytes(out)


# ---------------------------------------------------------------------------
# frame decoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecodedSegment:
    """One TCP segment or UDP datagram pulled out of an Ethernet frame."""

    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    protocol: int  # PROTO_TCP or PROTO_UDP
    payload: bytes
    tcp_seq: int | None


# Captures repeat a few endpoints over many frames, so each address form is
# converted once; the bound keeps a capture of many hosts from growing it.
_ADDRESS_CACHE_SIZE = 1024


@lru_cache(maxsize=_ADDRESS_CACHE_SIZE)
def _ipv4_to_str(raw: bytes) -> str:
    return ".".join(str(b) for b in raw)


@lru_cache(maxsize=_ADDRESS_CACHE_SIZE)
def _ipv6_to_str(raw: bytes) -> str:
    return str(ipaddress.IPv6Address(raw))


# IPv6 next-header values that open an extension header, not a transport.
_IPV6_EXTENSION_HEADERS = frozenset({0, 43, 44, 60, 135, 139, 140, 253, 254})


def decode_frame(frame: bytes) -> DecodedSegment | None:
    """Decode one Ethernet frame down to its transport payload.

    Returns None for anything out of scope (non-IP ethertypes, fragments,
    IPv6 extension chains, non-TCP/UDP, or frames cut short by the snap
    length); the caller counts those as skips.
    """
    packet = _ip_packet(frame)
    return None if packet is None else _decode_transport(*packet)


def ip_protocol(frame: bytes) -> int | None:
    """The IP protocol number of a frame whose IP layer decodes, else None.

    Tells a frame decode_frame skipped for its transport (ICMP, say)
    from one whose link or IP layer is out of scope.
    """
    packet = _ip_packet(frame)
    return None if packet is None else packet[1]


def _ip_packet(frame: bytes) -> tuple[bytes, int, str, str] | None:
    """(transport bytes, protocol, src, dst) of an unfragmented IP frame."""
    if len(frame) < ETHERNET_HEADER_LEN:
        return None
    ethertype = struct.unpack_from(">H", frame, 12)[0]
    if ethertype == ETHERTYPE_IPV4:
        return _ipv4_payload(frame[ETHERNET_HEADER_LEN:])
    if ethertype == ETHERTYPE_IPV6:
        return _ipv6_payload(frame[ETHERNET_HEADER_LEN:])
    return None


def _ipv4_payload(packet: bytes) -> tuple[bytes, int, str, str] | None:
    if len(packet) < 20:
        return None
    version_ihl = packet[0]
    if version_ihl >> 4 != 4:
        return None
    header_len = (version_ihl & 0x0F) * 4
    if header_len < 20 or len(packet) < header_len:
        return None
    total_len = struct.unpack_from(">H", packet, 2)[0]
    flags_frag = struct.unpack_from(">H", packet, 6)[0]
    if flags_frag & 0x2000 or flags_frag & 0x1FFF:
        return None  # fragmented; reassembly is out of scope
    protocol = packet[9]
    src = _ipv4_to_str(packet[12:16])
    dst = _ipv4_to_str(packet[16:20])
    if total_len < header_len or total_len > len(packet):
        return None
    return packet[header_len:total_len], protocol, src, dst


def _ipv6_payload(packet: bytes) -> tuple[bytes, int, str, str] | None:
    if len(packet) < 40:
        return None
    if packet[0] >> 4 != 6:
        return None
    payload_len = struct.unpack_from(">H", packet, 4)[0]
    next_header = packet[6]
    # Extension-header chains are out of scope; only a direct upper-layer
    # next-header is decoded.
    if next_header in _IPV6_EXTENSION_HEADERS:
        return None
    src = _ipv6_to_str(packet[8:24])
    dst = _ipv6_to_str(packet[24:40])
    if len(packet) < 40 + payload_len:
        return None
    return packet[40 : 40 + payload_len], next_header, src, dst


def _decode_transport(
    segment: bytes, protocol: int, src: str, dst: str
) -> DecodedSegment | None:
    if protocol == PROTO_TCP:
        if len(segment) < 20:
            return None
        src_port, dst_port, seq = struct.unpack_from(">HHI", segment, 0)
        data_offset = (segment[12] >> 4) * 4
        if data_offset < 20 or len(segment) < data_offset:
            return None
        return DecodedSegment(
            src, dst, src_port, dst_port, PROTO_TCP, segment[data_offset:], seq
        )
    if protocol == PROTO_UDP:
        if len(segment) < 8:
            return None
        src_port, dst_port, udp_len = struct.unpack_from(">HHH", segment, 0)
        if udp_len < 8 or len(segment) < udp_len:
            return None
        return DecodedSegment(
            src, dst, src_port, dst_port, PROTO_UDP, segment[8:udp_len], None
        )
    return None


# ---------------------------------------------------------------------------
# frame encoding (used by the simulated-device companion to emit captures)
#
# Each checksum is the RFC 1071 fold of one integer sum. Since
# 2**16 == 1 mod 0xFFFF, a run of whole 16-bit words is congruent to the
# big-endian integer of its bytes: a payload enters the sum as one
# int.from_bytes, and a 32-bit field enters as itself. frame_encoder adds
# up once what one direction fixes (addresses, ports, protocol, flags); a
# frame adds only its lengths, IP id, sequence numbers and payload.
# ---------------------------------------------------------------------------


def _complement_fold(total: int) -> int:
    """The checksum field for a sum of 16-bit words.

    total may be any integer congruent to the word sum mod 0xFFFF that is
    0 only when every word is. One remainder does the end-around-carry
    fold: a nonzero multiple of 0xFFFF folds to 0xFFFF and only all-zero
    words fold to 0.
    """
    folded = (total - 1) % 0xFFFF + 1 if total else 0
    return 0xFFFF - folded


def _checksum(data: bytes) -> int:
    """The RFC 1071 Internet checksum of data (zero-padded to whole words)."""
    if len(data) % 2:
        data += b"\x00"
    return _complement_fold(int.from_bytes(data, "big"))


@lru_cache(maxsize=_ADDRESS_CACHE_SIZE)
def _packed_address(address: str) -> bytes:
    """The 4- or 16-byte network form of an IPv4 or IPv6 address."""
    return ipaddress.ip_address(address).packed


_TTL = 64
# After the two MACs: the ethertype and the IP header's first bytes
# (IPv4: version 4, 5-word header, DSCP 0; IPv6: version 6, class and
# flow label 0).
_IPV4_LINK_TAIL = struct.pack(">HBB", ETHERTYPE_IPV4, 0x45, 0)
_IPV6_LINK_TAIL = struct.pack(">HI", ETHERTYPE_IPV6, 6 << 28)
# The IPv4 header words no frame changes but the protocol: version/IHL,
# flags (don't fragment) and TTL.
_IPV4_FIXED_SUM = 0x4500 + 0x4000 + (_TTL << 8)

# Header fields a frame sets; the bytes between them are passed whole.
# IPv4: link header and version/IHL/DSCP, total length, id,
# flags/fragment/TTL/protocol, checksum, addresses.
_IPV4_HEADER = struct.Struct(">16sHH4sH8s")
# IPv6: link header and version/class/label, payload length,
# next header/hop limit and addresses.
_IPV6_HEADER = struct.Struct(">18sH34s")
# TCP: ports, seq, ack, offset/flags/window, checksum, urgent pointer 0.
_TCP_HEADER = struct.Struct(">4sII4sH2x")
# UDP: ports, length, checksum.
_UDP_HEADER = struct.Struct(">4sHH")

_TCP_FLAGS = bytes((5 << 4, 0x18, 0xFF, 0xFF))  # 5-word header, PSH|ACK, window 65535
_TCP_FLAGS_SUM = int.from_bytes(_TCP_FLAGS, "big")


def frame_encoder(
    src_addr: str, dst_addr: str, src_port: int, dst_port: int, protocol: int
) -> Callable[..., bytes]:
    """An encoder of Ethernet frames for one direction of one transport.

    Returns encode(payload, tcp_seq=0, tcp_ack=0, ip_id=0) -> bytes, which
    builds the full frame around one transport payload, checksums computed
    for real (parsers downstream may rely on them). IPv4 or IPv6 is chosen
    from the address form. Sequence numbers and the IP id are taken modulo
    their field widths; UDP frames ignore tcp_seq and tcp_ack. Raises
    ValueError for mixed address families or a protocol other than TCP
    and UDP.
    """
    src_raw = _packed_address(src_addr)
    dst_raw = _packed_address(dst_addr)
    if len(src_raw) != len(dst_raw):
        raise ValueError("mixed IPv4/IPv6 endpoints in one frame")
    if protocol == PROTO_TCP:
        tcp, header_len, flags_sum = True, 20, _TCP_FLAGS_SUM
    elif protocol == PROTO_UDP:
        tcp, header_len, flags_sum = False, 8, 0
    else:
        raise ValueError(f"unsupported transport protocol {protocol}")
    ipv4 = len(src_raw) == 4
    addresses = src_raw + dst_raw
    ports = struct.pack(">HH", src_port, dst_port)
    address_sum = int.from_bytes(addresses, "big")
    # The pseudo-header's length and protocol words sum alike in both
    # families; the length is added per frame (twice for UDP, whose header
    # repeats it).
    transport_sum = address_sum + src_port + dst_port + protocol + flags_sum
    # Locally administered MACs derived from the IPs, so frames are stable.
    link = b"\x02\x00" + dst_raw[:4] + b"\x02\x00" + src_raw[:4]
    if ipv4:
        link += _IPV4_LINK_TAIL
        middle = bytes((0x40, 0, _TTL, protocol))
        ip_sum = _IPV4_FIXED_SUM + protocol + address_sum
    else:
        link += _IPV6_LINK_TAIL
        middle = bytes((protocol, _TTL)) + addresses

    def encode(
        payload: bytes, tcp_seq: int = 0, tcp_ack: int = 0, ip_id: int = 0
    ) -> bytes:
        size = len(payload)
        length = header_len + size
        words = int.from_bytes(payload, "big")
        if size % 2:
            words <<= 8
        if tcp:
            tcp_seq &= 0xFFFFFFFF
            tcp_ack &= 0xFFFFFFFF
            checksum = _complement_fold(transport_sum + length + tcp_seq + tcp_ack + words)
            transport = _TCP_HEADER.pack(ports, tcp_seq, tcp_ack, _TCP_FLAGS, checksum)
        else:
            # 0 means "no checksum" in UDP, so a computed 0 is sent as 0xFFFF.
            checksum = _complement_fold(transport_sum + 2 * length + words) or 0xFFFF
            transport = _UDP_HEADER.pack(ports, length, checksum)
        if ipv4:
            ip_id &= 0xFFFF
            total = 20 + length
            ip = _IPV4_HEADER.pack(
                link, total, ip_id, middle,
                _complement_fold(ip_sum + total + ip_id), addresses,
            )
        else:
            ip = _IPV6_HEADER.pack(link, length, middle)
        return ip + transport + payload

    return encode


def encode_frame(
    src_addr: str,
    dst_addr: str,
    src_port: int,
    dst_port: int,
    protocol: int,
    payload: bytes,
    tcp_seq: int = 0,
    tcp_ack: int = 0,
    ip_id: int = 0,
) -> bytes:
    """Build one Ethernet frame; see frame_encoder, which it calls."""
    return frame_encoder(src_addr, dst_addr, src_port, dst_port, protocol)(
        payload, tcp_seq, tcp_ack, ip_id
    )
