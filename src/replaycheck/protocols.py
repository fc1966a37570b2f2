"""Standard security-protocol sniffing and response-family classification.

A device already speaking TLS, DTLS, or QUIC gets its replay protection
from the protocol itself, so spotting those record headers in a capture
(TLS on TCP, DTLS or QUIC on UDP) short-circuits the whole assessment.
The response-family classifier is a coarse heuristic for operator
context (is this thing cleartext, a fixed encoded blob, or something
encrypted we do not recognize); verdicts never depend on it beyond the
standard-protocol case, which training and detection judge by one rule.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .capture import PacketRecord, Transport
from .features import PRINTABLE_RATIO, featurize

__all__ = [
    "ResponseClass",
    "looks_like_tls_record",
    "looks_like_dtls_record",
    "looks_like_quic_long_header",
    "rides_standard_security_protocol",
    "detect_standard_security_protocol",
    "hamming_similarity",
    "classify_response_type",
    "classify_training_responses",
]

CLEARTEXT_PRINTABLE_THRESHOLD = 0.85
ENCODED_SIMILARITY_THRESHOLD = 0.9


class ResponseClass(Enum):
    CLEARTEXT = "cleartext"
    STANDARD_ENCRYPTED = "standard_encrypted"
    NONSTANDARD_ENCRYPTED = "nonstandard_encrypted"
    ENCODED = "encoded"


def looks_like_tls_record(payload: bytes) -> bool:
    """TLS record header: content type 20-23, version 0x03 0x00-0x04."""
    return (
        len(payload) >= 3
        and payload[0] in (0x14, 0x15, 0x16, 0x17)
        and payload[1] == 0x03
        and payload[2] <= 0x04
    )


def looks_like_dtls_record(payload: bytes) -> bool:
    """DTLS record header: content type 20-23, version 0xFE 0xFD-0xFF."""
    return (
        len(payload) >= 3
        and payload[0] in (0x14, 0x15, 0x16, 0x17)
        and payload[1] == 0xFE
        and payload[2] in (0xFD, 0xFE, 0xFF)
    )


def looks_like_quic_long_header(payload: bytes) -> bool:
    """QUIC v1 long header: high bit set, version field 0x00000001."""
    return (
        len(payload) >= 5
        and payload[0] & 0x80 != 0
        and payload[1:5] == b"\x00\x00\x00\x01"
    )


def rides_standard_security_protocol(payload: bytes, transport: Transport) -> bool:
    """True iff the payload opens a TLS record (TCP) or a DTLS/QUIC one (UDP)."""
    if transport == Transport.TCP:
        return looks_like_tls_record(payload)
    return looks_like_dtls_record(payload) or looks_like_quic_long_header(payload)


def detect_standard_security_protocol(records: Iterable[PacketRecord]) -> bool:
    """True iff any record rides a standard security protocol."""
    return any(
        rides_standard_security_protocol(record.payload, record.transport)
        for record in records
    )


def hamming_similarity(a: bytes, b: bytes) -> float:
    """Fraction of byte positions that match, over the longer length."""
    if not a and not b:
        return 1.0
    matches = sum(x == y for x, y in zip(a, b))
    return matches / max(len(a), len(b))


def classify_response_type(
    samples: Sequence[bytes],
    transport: Transport,
    rows: dict[bytes, Sequence[float]] | None = None,
) -> ResponseClass:
    """Coarse family of a group of responses to one repeated command.

    Checks run in order: the transport's standard protocol header on any
    sample, then mean printable ratio >= 0.85 (cleartext), then
    byte-identical samples or mean pairwise Hamming similarity >= 0.9 (a
    fixed encoded blob), otherwise nonstandard-encrypted. The
    Encoded/NonStandard boundary is a heuristic; callers must feed
    responses to *identical* commands or the Hamming test is meaningless.

    rows maps payloads to their feature rows; a sample not there is
    featurized once and added.
    """
    if not samples:
        raise ValueError("need at least one response sample")
    if any(rides_standard_security_protocol(s, transport) for s in samples):
        return ResponseClass.STANDARD_ENCRYPTED
    rows = {} if rows is None else rows
    for s in samples:
        if s not in rows:
            rows[s] = featurize(s)
    mean_printable = sum(rows[s][PRINTABLE_RATIO] for s in samples) / len(samples)
    if mean_printable >= CLEARTEXT_PRINTABLE_THRESHOLD:
        return ResponseClass.CLEARTEXT
    if all(s == samples[0] for s in samples):
        return ResponseClass.ENCODED
    pairs = list(combinations(samples, 2))
    mean_similarity = sum(hamming_similarity(a, b) for a, b in pairs) / len(pairs)
    if mean_similarity >= ENCODED_SIMILARITY_THRESHOLD:
        return ResponseClass.ENCODED
    return ResponseClass.NONSTANDARD_ENCRYPTED


def classify_training_responses(
    flows, rows: dict[bytes, Sequence[float]] | None = None
) -> ResponseClass | None:
    """Classify a training capture's responses, grouped per command.

    Flows on one transport whose request byte sequences are identical are
    answers to the same command and form one sample group. Any
    standard-protocol group decides immediately; otherwise the most common
    group class wins (ties break toward cleartext, then encoded). None
    when no flow has any response to classify.

    rows maps response payloads to their feature rows, for a caller that
    has them; a payload missing from it is featurized once, whichever
    groups it is in.
    """
    groups: dict[tuple[Transport, tuple[bytes, ...]], list[bytes]] = {}
    for flow in flows:
        key = (flow.requests[0].transport, tuple([r.payload for r in flow.requests]))
        groups.setdefault(key, []).extend(payload for _, payload in flow.response_units())

    votes = Counter()
    rows = {} if rows is None else rows
    for (transport, _), samples in groups.items():
        if not samples:
            continue
        verdict = classify_response_type(samples, transport, rows)
        if verdict == ResponseClass.STANDARD_ENCRYPTED:
            return verdict
        votes[verdict] += 1
    if not votes:
        return None
    tie_break = {
        ResponseClass.CLEARTEXT: 0,
        ResponseClass.ENCODED: 1,
        ResponseClass.NONSTANDARD_ENCRYPTED: 2,
    }
    return max(votes, key=lambda c: (votes[c], -tie_break[c]))
