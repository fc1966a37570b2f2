"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive pure Python: exhaustive pairwise
loops, math.fsum, no numpy, no imports from replaycheck. The package's
optimized implementations are tested for agreement with these, so this
module must never share code with src/.
"""

from __future__ import annotations

import ipaddress
import math
import struct
from collections import Counter

LRD_DUPLICATE_EPSILON = 1e-12


def _standardize(training: list[list[float]]) -> tuple[list[list[float]], list[int], list[float], list[float]]:
    """Per-dimension z-score over the training rows; zero-variance dims dropped.

    Returns (standardized_rows, kept_dim_indices, means, stds) where means and
    stds cover only the kept dims.
    """
    n = len(training)
    dims = len(training[0])
    means = []
    stds = []
    kept = []
    for d in range(dims):
        column = [row[d] for row in training]
        mean = math.fsum(column) / n
        variance = math.fsum((x - mean) ** 2 for x in column) / n
        std = math.sqrt(variance)
        if std > 0.0:
            kept.append(d)
            means.append(mean)
            stds.append(std)
    standardized = [
        [(row[d] - means[i]) / stds[i] for i, d in enumerate(kept)] for row in training
    ]
    return standardized, kept, means, stds


def _distance(a: list[float], b: list[float]) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))


def _neighborhood(
    distances: list[tuple[int, float]], k_eff: int
) -> tuple[float, list[int]]:
    """k-distance and the tie-inclusive neighbor index set."""
    ordered = sorted(d for _, d in distances)
    k_distance = ordered[k_eff - 1]
    neighbors = [idx for idx, d in distances if d <= k_distance]
    return k_distance, neighbors


def _training_statistics(
    standardized: list[list[float]], k_eff: int
) -> tuple[list[float], list[float]]:
    """Per-training-point k-distance and lrd, each excluding the point itself."""
    n = len(standardized)
    k_distances = []
    neighbor_sets = []
    for i in range(n):
        distances = [
            (j, _distance(standardized[i], standardized[j]))
            for j in range(n)
            if j != i
        ]
        k_distance, neighbors = _neighborhood(distances, k_eff)
        k_distances.append(k_distance)
        neighbor_sets.append((neighbors, {j: d for j, d in distances}))

    lrds = []
    for i in range(n):
        neighbors, distance_of = neighbor_sets[i]
        reach_sum = math.fsum(
            max(k_distances[j], distance_of[j]) for j in neighbors
        )
        if reach_sum == 0.0:
            lrds.append(1.0 / LRD_DUPLICATE_EPSILON)
        else:
            lrds.append(len(neighbors) / reach_sum)
    return k_distances, lrds


def brute_force_neighbor_statistics(
    training: list[list[float]], k: int
) -> tuple[list[float], list[float]]:
    """Every training row's k-distance and lrd, by exhaustive enumeration,
    with brute_force_lof's conventions; duplicate rows each count."""
    k_eff = min(k, len(training) - 1)
    standardized, _, _, _ = _standardize(training)
    return _training_statistics(standardized, k_eff)


def brute_force_lof(
    training: list[list[float]], k: int, query: list[float]
) -> float:
    """Local outlier factor of query against training, by exhaustive enumeration.

    Conventions (must match the package):
      - Euclidean distances in z-score-standardized space, zero-variance
        dimensions dropped (all dims dropped -> every query coincides).
      - k_eff = min(k, n - 1); neighbor sets include all points at distance
        <= the k_eff-distance (ties included).
      - local reachability density = |N| / sum(reach distances), or
        1 / 1e-12 when the sum is zero (duplicate clusters).
      - a query at distance exactly 0 from any training point scores 1.0.
    """
    n = len(training)
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if k < 1:
        raise ValueError("k must be >= 1")
    k_eff = min(k, n - 1)

    standardized, kept_dims, means, stds = _standardize(training)
    query_std = [(query[d] - means[i]) / stds[i] for i, d in enumerate(kept_dims)]

    query_distances = [(j, _distance(query_std, standardized[j])) for j in range(n)]
    if any(d == 0.0 for _, d in query_distances):
        return 1.0

    k_distances, lrds = _training_statistics(standardized, k_eff)

    k_distance_q, neighbors_q = _neighborhood(query_distances, k_eff)
    distance_of_q = {j: d for j, d in query_distances}
    reach_sum_q = math.fsum(
        max(k_distances[j], distance_of_q[j]) for j in neighbors_q
    )
    if reach_sum_q == 0.0:
        lrd_q = 1.0 / LRD_DUPLICATE_EPSILON
    else:
        lrd_q = len(neighbors_q) / reach_sum_q

    neighbor_lrd_mean = math.fsum(lrds[j] for j in neighbors_q) / len(neighbors_q)
    return neighbor_lrd_mean / lrd_q


def byte_entropy(payload: bytes) -> float:
    """Shannon entropy in bits per byte, by direct byte counting."""
    if not payload:
        return 0.0
    counts = Counter(payload)
    n = len(payload)
    return -math.fsum(
        (count / n) * math.log2(count / n) for count in counts.values()
    )


def printable_ratio(payload: bytes) -> float:
    if not payload:
        return 0.0
    printable = set(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}
    return sum(1 for b in payload if b in printable) / len(payload)


def byte_histogram(payload: bytes) -> list[float]:
    if not payload:
        return [0.0] * 16
    buckets = [0] * 16
    for b in payload:
        buckets[b // 16] += 1
    return [count / len(payload) for count in buckets]


def hamming_similarity(a: bytes, b: bytes) -> float:
    """Fraction of positions with equal bytes, over the longer length."""
    if not a and not b:
        return 1.0
    longer = max(len(a), len(b))
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / longer


def internet_checksum(data: bytes) -> int:
    """RFC 1071 checksum, word by word: add each 16-bit big-endian word
    (an odd last byte padded with a zero byte), fold the carry back in
    after every addition, and return the ones' complement of the sum."""
    total = 0
    for i in range(0, len(data), 2):
        word = data[i] << 8
        if i + 1 < len(data):
            word |= data[i + 1]
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def reference_frame(
    src_addr: str,
    dst_addr: str,
    src_port: int,
    dst_port: int,
    protocol: int,
    payload: bytes,
    tcp_seq: int,
    tcp_ack: int,
    ip_id: int,
) -> bytes:
    """The Ethernet frame replaycheck writes for one payload, built header
    by header with each checksum field zeroed, then filled in from
    internet_checksum over the bytes it covers.

    MACs are 02:00 plus the first four address bytes. IPv4 (don't
    fragment, TTL 64) or the fixed IPv6 header (hop limit 64) carries
    TCP (5-word header, PSH|ACK, window 65535) or UDP (protocol 6 or 17).
    Sequence numbers and the IP id wrap at their field widths.
    """
    src = ipaddress.ip_address(src_addr).packed
    dst = ipaddress.ip_address(dst_addr).packed
    if protocol == 6:
        header = struct.pack(
            ">HHIIBBHHH", src_port, dst_port, tcp_seq % 2**32, tcp_ack % 2**32,
            0x50, 0x18, 65535, 0, 0,
        )
        checksum_at = 16
    else:
        header = struct.pack(">HHHH", src_port, dst_port, 8 + len(payload), 0)
        checksum_at = 6
    segment = header + payload
    if len(src) == 4:
        pseudo = src + dst + struct.pack(">BBH", 0, protocol, len(segment))
    else:
        pseudo = src + dst + struct.pack(">IBBBB", len(segment), 0, 0, 0, protocol)
    checksum = internet_checksum(pseudo + segment)
    if protocol == 17 and checksum == 0:
        checksum = 0xFFFF  # RFC 768: a zero field means "no checksum"
    segment = segment[:checksum_at] + struct.pack(">H", checksum) + segment[checksum_at + 2 :]
    if len(src) == 4:
        ip = struct.pack(
            ">BBHHHBBH4s4s", 0x45, 0, 20 + len(segment), ip_id % 2**16,
            0x4000, 64, protocol, 0, src, dst,
        )
        ip = ip[:10] + struct.pack(">H", internet_checksum(ip)) + ip[12:]
        ethertype = 0x0800
    else:
        ip = struct.pack(">IHBB16s16s", 6 << 28, len(segment), protocol, 64, src, dst)
        ethertype = 0x86DD
    link = b"\x02\x00" + dst[:4] + b"\x02\x00" + src[:4] + struct.pack(">H", ethertype)
    return link + ip + segment
