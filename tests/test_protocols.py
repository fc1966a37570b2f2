"""Standard-protocol sniffing and response-family classification tests."""

import random

import pytest
from hypothesis import given, strategies as st

from oracles import hamming_similarity as oracle_hamming
from replaycheck.capture import Endpoint, Flow, PacketRecord, Transport
from replaycheck.protocols import (
    ResponseClass,
    classify_response_type,
    classify_training_responses,
    detect_standard_security_protocol,
    hamming_similarity,
    looks_like_dtls_record,
    looks_like_quic_long_header,
    looks_like_tls_record,
    rides_standard_security_protocol,
)

APP = Endpoint("10.77.0.2", 38200)
DEV = Endpoint("127.0.0.1", 4000)


def rec(payload, transport=Transport.TCP, ts=0):
    return PacketRecord(ts, DEV, APP, transport, payload)


class TestTlsSniff:
    def test_application_data_record(self):
        assert looks_like_tls_record(b"\x17\x03\x03\x00\x20" + b"\x00" * 32)

    def test_all_content_types(self):
        for ct in (0x14, 0x15, 0x16, 0x17):
            assert looks_like_tls_record(bytes([ct, 0x03, 0x01]))

    def test_version_minor_boundary(self):
        assert looks_like_tls_record(b"\x16\x03\x04\x00\x01")
        assert not looks_like_tls_record(b"\x16\x03\x05\x00\x01")

    def test_wrong_major_version(self):
        assert not looks_like_tls_record(b"\x16\x02\x03")

    def test_content_type_outside_range(self):
        assert not looks_like_tls_record(b"\x18\x03\x03")
        assert not looks_like_tls_record(b"\x13\x03\x03")

    def test_too_short(self):
        assert not looks_like_tls_record(b"\x17\x03")


class TestDtlsSniff:
    def test_dtls12_record(self):
        assert looks_like_dtls_record(b"\x17\xfe\xfd\x00\x01")

    def test_version_bytes(self):
        for minor in (0xFD, 0xFE, 0xFF):
            assert looks_like_dtls_record(bytes([0x16, 0xFE, minor]))
        assert not looks_like_dtls_record(b"\x16\xfe\xfc")

    def test_not_tls_version(self):
        assert not looks_like_dtls_record(b"\x17\x03\x03")


class TestQuicSniff:
    def test_v1_long_header(self):
        assert looks_like_quic_long_header(b"\xc0\x00\x00\x00\x01\x08")

    def test_high_bit_required(self):
        assert not looks_like_quic_long_header(b"\x40\x00\x00\x00\x01")

    def test_version_must_be_one(self):
        assert not looks_like_quic_long_header(b"\xc0\x00\x00\x00\x02")

    def test_too_short(self):
        assert not looks_like_quic_long_header(b"\xc0\x00\x00\x00")


class TestDetectOnRecords:
    def test_tls_only_counts_on_tcp(self):
        tls = b"\x16\x03\x03\x00\x05hello"
        assert detect_standard_security_protocol([rec(tls, Transport.TCP)])
        assert not detect_standard_security_protocol([rec(tls, Transport.UDP)])

    def test_quic_and_dtls_only_count_on_udp(self):
        quic = b"\xc5\x00\x00\x00\x01rest"
        dtls = b"\x16\xfe\xfd\x00\x00"
        assert detect_standard_security_protocol([rec(quic, Transport.UDP)])
        assert detect_standard_security_protocol([rec(dtls, Transport.UDP)])
        assert not detect_standard_security_protocol([rec(quic, Transport.TCP)])
        assert not detect_standard_security_protocol([rec(dtls, Transport.TCP)])

    def test_plain_traffic_clean(self):
        records = [rec(b'{"id": 1}'), rec(b"OK\n", Transport.UDP)]
        assert not detect_standard_security_protocol(records)

    def test_empty_iterable_clean(self):
        assert not detect_standard_security_protocol([])

    def test_any_single_match_suffices(self):
        records = [rec(b"plain"), rec(b"\x14\x03\x03\x00\x01\x01")]
        assert detect_standard_security_protocol(records)


class TestHammingSimilarity:
    def test_identical(self):
        assert hamming_similarity(b"abc", b"abc") == 1.0

    def test_both_empty(self):
        assert hamming_similarity(b"", b"") == 1.0

    def test_length_mismatch_uses_longer_denominator(self):
        # 4 matching positions out of max(4, 8)
        assert hamming_similarity(b"abcd", b"abcdwxyz") == 0.5

    def test_disjoint(self):
        assert hamming_similarity(b"aaaa", b"bbbb") == 0.0

    def test_one_empty(self):
        assert hamming_similarity(b"", b"abc") == 0.0

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_matches_oracle_and_symmetric(self, a, b):
        got = hamming_similarity(a, b)
        assert got == pytest.approx(oracle_hamming(a, b), abs=1e-12)
        assert got == hamming_similarity(b, a)
        assert 0.0 <= got <= 1.0


class TestClassifyResponseType:
    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            classify_response_type([], Transport.TCP)

    def test_standard_protocol_wins_over_everything(self):
        samples = [b'{"ok": true}', b"\x17\x03\x03\x00\x01\x00"]
        assert classify_response_type(samples, Transport.TCP) == ResponseClass.STANDARD_ENCRYPTED

    def test_json_responses_are_cleartext(self):
        samples = [b'{"id": %d, "result": ["ok"]}' % i for i in range(5)]
        assert classify_response_type(samples, Transport.TCP) == ResponseClass.CLEARTEXT

    def test_identical_binary_blobs_are_encoded(self):
        blob = b"\x00" + random.Random(1).randbytes(23)
        assert not any(rides_standard_security_protocol(blob, t) for t in Transport)
        assert classify_response_type([blob] * 4, Transport.TCP) == ResponseClass.ENCODED

    def test_near_identical_blobs_are_encoded(self):
        base = bytearray(random.Random(2).randbytes(40))
        base[0] = 0x00  # keep clear of record-header patterns
        variants = []
        for i in range(4):
            v = bytearray(base)
            v[-1] = i  # one differing byte out of 40
            variants.append(bytes(v))
        assert classify_response_type(variants, Transport.TCP) == ResponseClass.ENCODED

    def test_unrelated_random_blobs_are_nonstandard_encrypted(self):
        rng = random.Random(3)
        samples = []
        for _ in range(4):
            blob = bytearray(rng.randrange(256) for _ in range(48))
            blob[0] = 0x00
            samples.append(bytes(blob))
        assert classify_response_type(samples, Transport.TCP) == ResponseClass.NONSTANDARD_ENCRYPTED

    def test_mostly_printable_mixed_group_is_cleartext(self):
        # mean printable ratio across samples decides, not each alone:
        # 1.0 and 0.75 average to 0.875, past the 0.85 bar
        samples = [b"all printable text here", b"ab\x00c"]
        got = classify_response_type(samples, Transport.TCP)
        assert got == ResponseClass.CLEARTEXT

    def test_sample_order_irrelevant(self):
        rng = random.Random(4)
        samples = []
        for _ in range(5):
            blob = bytearray(rng.randrange(256) for _ in range(30))
            blob[0] = 0x00
            samples.append(bytes(blob))
        first = classify_response_type(samples, Transport.TCP)
        assert classify_response_type(list(reversed(samples)), Transport.TCP) == first


class TestClassifyTrainingResponses:
    def flow(self, request, responses, transport=Transport.TCP):
        req = PacketRecord(0, APP, DEV, transport, request)
        resp = tuple(
            PacketRecord(i + 1, DEV, APP, transport, r)
            for i, r in enumerate(responses)
        )
        return Flow((req,), resp)

    def test_grouping_by_identical_request(self):
        # the same fixed command always gets the same fixed blob back; the
        # two distinct commands must not be compared against each other
        blob_a = b"\x00" + random.Random(5).randbytes(23)
        blob_b = b"\x01" + random.Random(6).randbytes(23)
        flows = [
            self.flow(b"CMD-A", [blob_a]),
            self.flow(b"CMD-B", [blob_b]),
            self.flow(b"CMD-A", [blob_a]),
            self.flow(b"CMD-B", [blob_b]),
        ]
        assert classify_training_responses(flows) == ResponseClass.ENCODED

    def test_standard_protocol_group_decides(self):
        flows = [
            self.flow(b"x", [b'{"fine": 1}']),
            self.flow(b"y", [b"\x16\x03\x03\x00\x02\x01\x00"]),
        ]
        assert classify_training_responses(flows) == ResponseClass.STANDARD_ENCRYPTED

    @pytest.mark.parametrize(
        "transport, payload",
        [
            (Transport.UDP, b"\x16\x03\x01\x00\x02\x01\x00"),  # TLS header on UDP
            (Transport.TCP, b"\x17\xfe\xfd\x00\x01\x00"),  # DTLS header on TCP
        ],
        ids=["tls-on-udp", "dtls-on-tcp"],
    )
    def test_judges_the_header_by_its_transport_like_detection(self, transport, payload):
        flows = [self.flow(b"x", [payload], transport)]
        assert not detect_standard_security_protocol(flows[0].responses)
        assert classify_training_responses(flows) != ResponseClass.STANDARD_ENCRYPTED

    def test_majority_vote(self):
        rng = random.Random(7)
        noise = []
        for _ in range(2):
            blob = bytearray(rng.randrange(256) for _ in range(48))
            blob[0] = 0x00
            noise.append(bytes(blob))
        flows = [
            self.flow(b"a", [b'{"id": 1}', b'{"id": 2}']),
            self.flow(b"b", [b'{"id": 3}', b'{"id": 4}']),
            self.flow(b"c", noise),
        ]
        assert classify_training_responses(flows) == ResponseClass.CLEARTEXT

    def test_no_responses_anywhere(self):
        assert classify_training_responses([self.flow(b"q", [])]) is None

    def test_empty_flow_list(self):
        assert classify_training_responses([]) is None
